//! The evaluation harness: one function per paper table/figure.
//!
//! Every experiment returns structured rows so two consumers share the
//! same code: the `reproduce` binary (paper-style tables and JSON) and
//! the regression tests (`tests/experiments_regression.rs`). Paper
//! reference values are embedded next to each experiment so
//! EXPERIMENTS.md can be regenerated mechanically.
//!
//! Scaling: the paper's testbed runs minutes of wall-clock work; the
//! simulation charges deterministic cycles, so experiments use scaled
//! operation counts (documented per experiment) and report *relative*
//! quantities — overheads, ratios, crossover shapes — which are
//! scale-invariant in this model once per-op costs dominate fixed costs.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod fmt;

pub use experiments::*;
