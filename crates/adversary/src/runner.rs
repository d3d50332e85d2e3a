//! Sequence runner: machine-vs-oracle execution, the seed loop, and
//! greedy shrinking of failing sequences.

use veil_snp::rmp::RmpMutation;
use veil_testkit::prop::Strategy;
use veil_testkit::rng::{fnv1a64, splitmix64};
use veil_testkit::TestRng;

use crate::exec::{Coverage, World};
use crate::ops::{sequence_strategy, AdversaryOp};

/// Property name used for seed derivation — shared with the tier-1
/// suite so a `VEIL_TEST_SEED` printed by either reproduces in both.
pub const SEED_LABEL: &str = "adversary_differential";

/// Maximum accepted shrink steps (mirrors `veil_testkit::prop`).
const MAX_SHRINK_STEPS: usize = 512;

/// Configuration of one fuzzing run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of generated sequences (ignored when `seed` pins one).
    pub seeds: u64,
    /// Maximum ops per sequence.
    pub ops: usize,
    /// Replay exactly one case from this seed.
    pub seed: Option<u64>,
    /// Deliberately seeded machine bug (mutation self-test).
    pub mutation: Option<RmpMutation>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig { seeds: 50, ops: 100, seed: None, mutation: None }
    }
}

/// A caught, shrunk divergence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzFailure {
    /// Case index within the run.
    pub case: u64,
    /// The case seed (`VEIL_TEST_SEED` replay value).
    pub seed: u64,
    /// Divergence description after shrinking.
    pub error: String,
    /// The minimal reproducing sequence.
    pub shrunk: Vec<AdversaryOp>,
    /// Accepted shrink steps taken.
    pub shrink_steps: usize,
}

/// Outcome of a fuzzing run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzReport {
    /// Sequences executed.
    pub cases: u64,
    /// Total ops across all generated sequences.
    pub total_ops: u64,
    /// First divergence found, if any (the run stops there).
    pub failure: Option<FuzzFailure>,
}

/// Cycle/length statistics of one green sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SequenceStats {
    /// Ops executed.
    pub ops: usize,
    /// Total model cycles charged.
    pub total_cycles: u64,
}

/// Runs one op sequence through the differential harness: the machine
/// and the reference oracle execute in lockstep, and the trace/metrics
/// folds are checked at the end.
///
/// # Errors
///
/// Returns the first machine-vs-oracle divergence (verdict, RMP state,
/// halt latch, VMSA liveness or immutability, cycle attribution,
/// trace/metrics folds).
pub fn run_sequence(
    ops: &[AdversaryOp],
    mutation: Option<RmpMutation>,
) -> Result<SequenceStats, String> {
    run_sequence_with_coverage(ops, mutation).map(|(stats, _)| stats)
}

/// [`run_sequence`], additionally returning the op/verdict [`Coverage`]
/// the world recorded — the fuzzer's contribution to the coverage audit.
///
/// # Errors
///
/// Same as [`run_sequence`].
pub fn run_sequence_with_coverage(
    ops: &[AdversaryOp],
    mutation: Option<RmpMutation>,
) -> Result<(SequenceStats, Coverage), String> {
    let mut world = World::new(mutation);
    for (i, op) in ops.iter().enumerate() {
        world.step(op).map_err(|e| format!("op {i}: {e}"))?;
    }
    world.finish().map_err(|e| format!("finish: {e}"))?;
    let total_cycles = world.hv.machine.cycles().total();
    Ok((SequenceStats { ops: ops.len(), total_cycles }, world.coverage().clone()))
}

/// Derives the seed for `case` of a run (the same derivation
/// `veil_testkit::prop::check` uses for [`SEED_LABEL`]).
pub fn case_seed(case: u64) -> u64 {
    splitmix64(fnv1a64(SEED_LABEL).wrapping_add(case))
}

/// Runs the fuzzer: generates sequences seed by seed, executes each
/// differentially, and greedily shrinks the first failure.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let strategy = sequence_strategy(cfg.ops);
    let cases: Vec<(u64, u64)> = match cfg.seed {
        Some(seed) => vec![(0, seed)],
        None => (0..cfg.seeds).map(|case| (case, case_seed(case))).collect(),
    };
    let mut report = FuzzReport { cases: 0, total_ops: 0, failure: None };
    for (case, seed) in cases {
        let mut rng = TestRng::from_seed(seed);
        let ops = strategy.generate(&mut rng);
        report.cases += 1;
        report.total_ops += ops.len() as u64;
        if let Err(error) = run_sequence(&ops, cfg.mutation) {
            let (shrunk, error, shrink_steps) = shrink(&strategy, ops, error, cfg.mutation);
            report.failure = Some(FuzzFailure { case, seed, error, shrunk, shrink_steps });
            return report;
        }
    }
    report
}

/// Greedy shrink: take the first failing candidate, repeat (the same
/// loop `veil_testkit::prop` runs, reusing the sequence strategy's
/// prefix-ladder shrinker).
fn shrink(
    strategy: &Strategy<Vec<AdversaryOp>>,
    mut cur: Vec<AdversaryOp>,
    mut cur_err: String,
    mutation: Option<RmpMutation>,
) -> (Vec<AdversaryOp>, String, usize) {
    let mut steps = 0;
    'outer: while steps < MAX_SHRINK_STEPS {
        for cand in strategy.shrinks(&cur) {
            if let Err(e) = run_sequence(&cand, mutation) {
                cur = cand;
                cur_err = e;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (cur, cur_err, steps)
}
