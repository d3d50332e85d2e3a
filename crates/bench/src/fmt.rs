//! Table formatting for the `reproduce` binary.
//!
//! The implementation lives in `veil_testkit::fmt` so every binary in
//! the workspace renders numbers the same way; this module re-exports it
//! under the historical `veil_bench::fmt` path.

pub use veil_testkit::fmt::{
    cycles, header, json_array, json_escape, json_f64, json_field, json_object, json_str_field,
    pct, rate_k, row,
};
