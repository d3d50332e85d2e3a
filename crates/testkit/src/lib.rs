//! `veil-testkit` — the hermetic, first-party test harness.
//!
//! Veil's thesis is TCB minimization through self-contained, auditable
//! trusted components (§3). The testing layer follows the same rule: no
//! external crates, no OS entropy, no wall clocks. Everything here is
//! deterministic and replayable:
//!
//! * [`rng::TestRng`] — a seedable PRNG facade over the repo's own
//!   ChaCha20 DRBG (`veil_crypto::drbg`), with the `gen_range` /
//!   `choose` / `fill_bytes` surface tests previously pulled from the
//!   `rand` crate;
//! * [`prop`] — a minimal property-testing engine (generators,
//!   configurable case counts, greedy shrinking) whose failures print a
//!   seed that `VEIL_TEST_SEED=<hex>` replays exactly;
//! * [`golden`] — golden-file comparison with a `VEIL_REGEN_GOLDEN=1`
//!   regeneration flow;
//! * [`fmt`] — table, number and JSON formatting shared by the
//!   `reproduce`/`inspect` binaries and the JSON writers of `fuzz` and
//!   `modelcheck`;
//! * [`trace`] — table/JSON rendering of `veil-trace` event streams for
//!   the `inspect trace` mode.

#![forbid(unsafe_code)]

pub mod fmt;
pub mod golden;
pub mod prop;
pub mod rng;
pub mod trace;

pub use prop::Strategy;
pub use rng::TestRng;
