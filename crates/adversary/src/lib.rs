//! `veil-adversary` — a deterministic, seed-replayable attack-sequence
//! fuzzer that runs every sequence against the real
//! [`veil_snp::machine::Machine`] *and* a naive reference RMP oracle,
//! demanding exact verdict equality after every op.
//!
//! Veil's security argument rests on the access-control semantics of
//! the simulated SNP primitives (`RMPADJUST`, `PVALIDATE`, VMSA
//! immutability, VMPL masks). Scenario tests pin single operations;
//! attack *sequences* are where SNP state machines historically break.
//! This crate generates weighted random sequences over the full hostile
//! surface ([`ops::AdversaryOp`]), executes each on the machine
//! ([`exec::World`]) in lockstep with the ~200-line
//! [`oracle::RmpOracle`], and greedily shrinks any divergence to a
//! minimal replayable program ([`runner::run_fuzz`]).
//!
//! The `fuzz` binary drives it from CI and the command line; see
//! `DESIGN.md` §10 for the op algebra and the oracle's deliberate
//! non-goals.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
pub mod exec;
pub mod model;
pub mod ops;
pub mod oracle;
pub mod runner;
pub mod witness;

pub use checker::{explore, replay, CheckConfig, ExploreReport, ModelFailure, StateInfo};
pub use exec::{Coverage, World, WorldConfig};
pub use model::{AbstractState, ModelConfig, PageAbs};
pub use ops::{op_strategy, sequence_strategy, AdversaryOp, PolicyKnob};
pub use oracle::RmpOracle;
pub use runner::{
    case_seed, run_fuzz, run_sequence, run_sequence_with_coverage, FuzzConfig, FuzzFailure,
    FuzzReport, SequenceStats, SEED_LABEL,
};
pub use witness::{generate as generate_witnesses, render as render_witnesses, render_counts};
