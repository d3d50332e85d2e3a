//! The exhaustive explorer: BFS over the canonical abstract state
//! graph, executing every edge on the machine and the reference oracle
//! in lockstep.
//!
//! Exploration is deterministic: a FIFO frontier over canonical keys,
//! the fixed alphabet order of [`ModelConfig::alphabet`], and replay of
//! each state's pinned path from the boot world. A machine-vs-oracle
//! divergence anywhere (verdict, RMP state, halt latch, VMSA liveness)
//! aborts the search with the BFS-minimal path, which is then greedily
//! shrunk and rendered as `--replay` indices.

use std::collections::{BTreeMap, VecDeque};

use veil_snp::rmp::RmpMutation;

use crate::exec::{Coverage, World};
use crate::model::{AbstractState, ModelConfig};
use crate::ops::AdversaryOp;

/// Hard cap on visited states — a runaway-configuration backstop far
/// above any intended run, not a tuning knob.
const MAX_STATES: usize = 250_000;

/// One exhaustive run: a model configuration, an optional seeded
/// machine bug (mutation self-test), and an optional depth cap.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// The model configuration to exhaust.
    pub model: ModelConfig,
    /// Deliberately seeded machine bug the run must catch.
    pub mutation: Option<RmpMutation>,
    /// Stop expanding states at this depth (`None` = run to closure).
    pub max_depth: Option<usize>,
}

impl CheckConfig {
    /// An unbounded, unmutated run of `model`.
    pub fn new(model: ModelConfig) -> Self {
        CheckConfig { model, mutation: None, max_depth: None }
    }
}

/// How the checker first reached one canonical state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateInfo {
    /// BFS depth (path length from the boot state).
    pub depth: usize,
    /// Alphabet indices of the minimal-depth path that reached it.
    pub path: Vec<u16>,
    /// The abstract state as extracted (pre-canonicalization).
    pub state: AbstractState,
}

/// A machine-vs-oracle divergence, with the BFS-minimal path and its
/// greedy drop-one shrink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelFailure {
    /// Depth at which BFS hit the divergence (path length incl. the
    /// failing op) — minimal by construction.
    pub depth: usize,
    /// Alphabet indices of the failing path.
    pub indices: Vec<u16>,
    /// The failing ops, index-aligned with `indices`.
    pub ops: Vec<AdversaryOp>,
    /// Divergence description.
    pub error: String,
    /// Drop-one-shrunk indices (still failing).
    pub shrunk_indices: Vec<u16>,
    /// Drop-one-shrunk ops.
    pub shrunk_ops: Vec<AdversaryOp>,
}

impl ModelFailure {
    /// The `--replay` argument reproducing the shrunk counterexample.
    pub fn replay_arg(&self) -> String {
        let idx: Vec<String> = self.shrunk_indices.iter().map(|i| i.to_string()).collect();
        idx.join(",")
    }
}

/// Outcome of one exhaustive exploration.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// The model configuration explored.
    pub config: ModelConfig,
    /// The alphabet (edge `i` of every state applies `alphabet[i]`).
    pub alphabet: Vec<AdversaryOp>,
    /// Canonical states reached (including the boot state).
    pub states: u64,
    /// Edges executed and checked.
    pub edges: u64,
    /// Deepest state's BFS depth.
    pub max_depth: usize,
    /// Op/verdict coverage across every edge.
    pub coverage: Coverage,
    /// Canonical key → how the state was first reached.
    pub visited: BTreeMap<Vec<u8>, StateInfo>,
    /// The first divergence, if any (exploration stops there).
    pub failure: Option<ModelFailure>,
}

fn boot(cfg: &CheckConfig) -> World {
    World::with_config(cfg.mutation, &cfg.model.world_config())
}

/// Replays a path of alphabet indices on a fresh world. Returns the
/// result lines and the final world (for witness generation and the
/// CLI `--replay` flag).
///
/// # Errors
///
/// Any divergence along the way, or an out-of-range index.
pub fn replay(cfg: &CheckConfig, indices: &[u16]) -> Result<(Vec<String>, World), String> {
    let alphabet = cfg.model.alphabet();
    let mut world = boot(cfg);
    let mut lines = Vec::with_capacity(indices.len());
    for (i, &idx) in indices.iter().enumerate() {
        let op = alphabet
            .get(idx as usize)
            .ok_or_else(|| format!("index {idx} out of alphabet range {}", alphabet.len()))?;
        lines.push(world.step(op).map_err(|e| format!("op {i} {op:?}: {e}"))?);
    }
    Ok((lines, world))
}

fn run_indices(cfg: &CheckConfig, indices: &[u16]) -> Result<(), String> {
    replay(cfg, indices).map(|_| ())
}

/// Greedy drop-one shrink of a failing index path (BFS already gives a
/// depth-minimal path; this removes ops that merely pad the prefix).
fn shrink_indices(cfg: &CheckConfig, mut cur: Vec<u16>) -> Vec<u16> {
    'outer: loop {
        for i in 0..cur.len() {
            let mut cand = cur.clone();
            cand.remove(i);
            if run_indices(cfg, &cand).is_err() {
                cur = cand;
                continue 'outer;
            }
        }
        return cur;
    }
}

fn to_ops(alphabet: &[AdversaryOp], indices: &[u16]) -> Vec<AdversaryOp> {
    indices.iter().map(|&i| alphabet[i as usize]).collect()
}

/// Exhausts the model configuration's reachable canonical state graph.
///
/// Every edge runs on the machine and the oracle; the per-op invariant
/// sweep of [`World::step`] re-checks full RMP/VMSA/halt equality after
/// each. On divergence the report carries a shrunk [`ModelFailure`] and
/// `visited`/`states`/`edges` reflect progress up to that point.
///
/// # Panics
///
/// Panics if the state count exceeds the runaway backstop, or if path
/// replay diverges on a previously-checked prefix (a harness bug).
pub fn explore(cfg: &CheckConfig) -> ExploreReport {
    let alphabet = cfg.model.alphabet();
    let base = boot(cfg);
    let root = AbstractState::extract(&base, &cfg.model);

    let mut report = ExploreReport {
        config: cfg.model.clone(),
        alphabet: alphabet.clone(),
        states: 1,
        edges: 0,
        max_depth: 0,
        coverage: Coverage::default(),
        visited: BTreeMap::new(),
        failure: None,
    };
    report
        .visited
        .insert(root.canonical_key(&cfg.model), StateInfo { depth: 0, path: vec![], state: root });

    let mut frontier: VecDeque<Vec<u16>> = VecDeque::from([vec![]]);
    while let Some(path) = frontier.pop_front() {
        if cfg.max_depth.is_some_and(|d| path.len() >= d) {
            continue;
        }
        // Rebuild this state's concrete representative by replaying its
        // pinned path from the boot world.
        let mut world = base.clone();
        for &idx in &path {
            world
                .step(&alphabet[idx as usize])
                .expect("replay of an already-checked path must not diverge");
        }
        let extend = |idx: usize| [path.as_slice(), &[idx as u16]].concat();
        for (idx, op) in alphabet.iter().enumerate() {
            let mut next = world.clone();
            if let Err(error) = next.step(op) {
                let indices = extend(idx);
                let shrunk_indices = shrink_indices(cfg, indices.clone());
                report.failure = Some(ModelFailure {
                    depth: indices.len(),
                    ops: to_ops(&alphabet, &indices),
                    shrunk_ops: to_ops(&alphabet, &shrunk_indices),
                    indices,
                    error,
                    shrunk_indices,
                });
                return report;
            }
            report.edges += 1;
            report.coverage.merge(next.coverage());
            let state = AbstractState::extract(&next, &cfg.model);
            let key = state.canonical_key(&cfg.model);
            if !report.visited.contains_key(&key) {
                let p = extend(idx);
                report.max_depth = report.max_depth.max(p.len());
                report.visited.insert(key, StateInfo { depth: p.len(), path: p.clone(), state });
                report.states += 1;
                assert!(
                    report.visited.len() <= MAX_STATES,
                    "state-space runaway: over {MAX_STATES} canonical states"
                );
                frontier.push_back(p);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A depth-capped mutation run still catches the double-validate
    /// hole at depth 3 — the cheapest end-to-end checker exercise.
    #[test]
    fn depth_capped_explore_catches_double_validate() {
        let cfg = CheckConfig {
            model: ModelConfig::tiny(),
            mutation: Some(RmpMutation::AllowDoubleValidate),
            max_depth: Some(3),
        };
        let report = explore(&cfg);
        let failure = report.failure.expect("seeded bug must be caught");
        assert!(failure.depth <= 3, "BFS must catch it at depth <= 3, got {}", failure.depth);
        assert!(run_indices(&cfg, &failure.shrunk_indices).is_err());
        let clean = CheckConfig { mutation: None, ..cfg.clone() };
        assert!(run_indices(&clean, &failure.shrunk_indices).is_ok());
    }
}
