//! Tier-1 suite for the exhaustive RMP model checker.
//!
//! The heavyweight `ci` configuration exhausts in its own CI job
//! (`tier1-modelcheck`); this suite keeps the load-bearing slice in the
//! default `cargo test` gate:
//!
//! * the `tiny` configuration explored to exhaustion, with the
//!   canonical state/edge counts and the generated paper-Tables-1–2
//!   witness matrix pinned as golden files
//!   (`VEIL_REGEN_GOLDEN=1` regenerates after a reviewed change);
//! * a coverage audit: the fuzzer and the model checker *together*
//!   exercise every [`AdversaryOp`] variant and every [`SnpError`]
//!   verdict variant inside the default budget;
//! * canonicalization soundness properties under the testkit shrinking
//!   engine: gfn relabeling and symmetric-VMPL swaps never change the
//!   canonical key, and states outside each other's symmetry orbit
//!   never collide;
//! * the three seeded `RmpMutation` bugs caught *exhaustively*, with
//!   the BFS minimal-counterexample depth pinned per bug.

use std::collections::BTreeSet;
use std::path::Path;

use veil_adversary::{
    explore, replay, run_sequence_with_coverage, sequence_strategy, AbstractState, AdversaryOp,
    CheckConfig, Coverage, ModelConfig, PageAbs, PolicyKnob,
};
use veil_snp::fault::SnpError;
use veil_snp::perms::Vmpl;
use veil_snp::rmp::RmpMutation;
use veil_testkit::golden;
use veil_testkit::prop::{self, check};
use veil_testkit::{prop_assert, prop_assert_eq, TestRng};

fn golden_path(file: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens").join(file)
}

/// The tentpole gate: the tiny configuration explores to exhaustion
/// with machine == oracle on every edge, and both the canonical graph
/// counts and the generated attack/defence witness matrix match the
/// checked-in goldens byte for byte.
#[test]
fn tiny_exploration_is_exhaustive_and_matches_goldens() {
    let cfg = CheckConfig::new(ModelConfig::tiny());
    let report = explore(&cfg);
    assert!(report.failure.is_none(), "divergence in tiny config: {:?}", report.failure);

    golden::assert_matches(
        "modelcheck counts (tiny)",
        &golden_path("modelcheck_counts_tiny.txt"),
        &veil_adversary::render_counts(&report),
    );
    let witnesses = veil_adversary::generate_witnesses(&report, &cfg).expect("witness generation");
    golden::assert_matches(
        "witness matrix (tiny)",
        &golden_path("witness_matrix_tiny.txt"),
        &veil_adversary::render_witnesses(&witnesses),
    );
}

/// Exploration is deterministic: two runs of the same configuration
/// produce identical graphs, coverage, and per-state BFS paths — the
/// property the pinned goldens and replay indices depend on.
#[test]
fn exploration_is_deterministic() {
    let cfg = CheckConfig::new(ModelConfig::mutation());
    let a = explore(&cfg);
    let b = explore(&cfg);
    assert_eq!(a.states, b.states);
    assert_eq!(a.edges, b.edges);
    assert_eq!(a.coverage, b.coverage);
    let paths_a: Vec<_> = a.visited.values().map(|s| s.path.clone()).collect();
    let paths_b: Vec<_> = b.visited.values().map(|s| s.path.clone()).collect();
    assert_eq!(paths_a, paths_b);
}

/// Every BFS witness path replays cleanly: spot-check the deepest
/// canonical state's pinned path through the lockstep replayer.
#[test]
fn deepest_state_path_replays_cleanly() {
    let cfg = CheckConfig::new(ModelConfig::mutation());
    let report = explore(&cfg);
    let deepest =
        report.visited.values().max_by_key(|s| (s.depth, s.path.clone())).expect("states");
    let (lines, _) = replay(&cfg, &deepest.path).expect("pinned BFS path must replay");
    assert_eq!(lines.len(), deepest.path.len());
    assert_eq!(deepest.depth, report.max_depth);
}

/// Satellite: the coverage audit. The fuzzer's default tier-1 slice,
/// the tiny and mutation-config explorations, and one pinned protocol
/// sequence must *together* exercise all 27 [`AdversaryOp`] variants
/// — including the four hostile ring ops of the batched gate path and
/// the three hostile attestation ops (forged reports, replayed reports,
/// tampered boot images) —
/// and all 7 [`SnpError`] verdict variants. A differential harness that
/// never reaches a verdict proves nothing about it.
#[test]
fn fuzzer_and_checker_cover_all_ops_and_verdicts() {
    let mut total = Coverage::default();

    // (a) The fuzzer's slice: the same generator the tier-1 fuzz tests
    // run, 12 seeded sequences of up to 60 ops.
    let strategy = sequence_strategy(60);
    for case in 0..12u64 {
        let ops = strategy.generate(&mut TestRng::from_seed(0xC0FE_0000 + case));
        let (_, cov) = run_sequence_with_coverage(&ops, None).expect("fuzz slice must be green");
        total.merge(&cov);
    }

    // (b) The model checker's tiny exploration (every op but SetPolicy;
    // OutOfRange and the sticky-VMSA verdicts live here).
    total.merge(&explore(&CheckConfig::new(ModelConfig::tiny())).coverage);

    // (c) The mutation configuration on the *clean* machine: VMPL-1 in
    // instruction position makes PermEscalation reachable.
    total.merge(&explore(&CheckConfig::new(ModelConfig::mutation())).coverage);

    // (d) One pinned protocol sequence through the fuzz world: the
    // paper's interrupt-suppression attack halts the machine, and the
    // VMGEXIT attempted after the halt lands the `Halted` verdict (the
    // latch only gates GHCB flows, not plain memory accesses).
    let halt_ops = [
        AdversaryOp::SetPolicy { knob: PolicyKnob::RelayInterrupts, on: false },
        AdversaryOp::SwitchReq { vmpl: Vmpl::Vmpl0, target: Vmpl::Vmpl2, user_ghcb: false },
        AdversaryOp::AutoExit,
        AdversaryOp::SwitchReq { vmpl: Vmpl::Vmpl2, target: Vmpl::Vmpl0, user_ghcb: false },
    ];
    let (_, cov) = run_sequence_with_coverage(&halt_ops, None).expect("halt protocol sequence");
    total.merge(&cov);

    let missing_ops: Vec<_> =
        AdversaryOp::VARIANT_NAMES.iter().filter(|n| !total.ops.contains(*n)).collect();
    assert!(missing_ops.is_empty(), "op variants never exercised: {missing_ops:?}");
    let missing_verdicts: Vec<_> =
        SnpError::VARIANT_NAMES.iter().filter(|n| !total.verdicts.contains(*n)).collect();
    assert!(missing_verdicts.is_empty(), "verdict variants never produced: {missing_verdicts:?}");
}

/// Strategy over syntactically valid abstract states for a
/// configuration with `pages` model gfns: random RMP nibbles, liveness,
/// current VMPL, halt string, policy bits, and slot shapes.
fn abs_state_strategy(pages: usize, policy: usize, slots: usize) -> prop::Strategy<AbstractState> {
    let page = prop::tuple2(prop::ints(0u32..1 << 20), prop::bools())
        .map(|(raw, live)| PageAbs { packed: (raw & !0b11) | (raw % 3), live });
    let halted = prop::one_of(vec![
        prop::ints(0usize..1).map(|_| None),
        prop::ints(0usize..2).map(|i| Some(format!("halt-{i}"))),
    ]);
    let rest = prop::tuple3(
        prop::u8s(0..4),
        prop::vecs(prop::bools(), policy..policy + 1),
        prop::vecs(prop::u8s(0..3), slots..slots + 1),
    );
    prop::tuple3(prop::vecs(page, pages..pages + 1), halted, rest).map(
        |(pages, halted, (current, policy, slots))| AbstractState {
            pages,
            current,
            halted,
            policy,
            slots,
        },
    )
}

/// Every encoding of a state under its symmetry group: gfn-label
/// permutations crossed with the optional symmetric-VMPL swap.
fn orbit_encodings(state: &AbstractState, cfg: &ModelConfig) -> BTreeSet<Vec<u8>> {
    let mut out = BTreeSet::new();
    for perm in veil_adversary::model::permutations(state.pages.len()) {
        let p = state.with_pages_permuted(&perm);
        out.insert(p.encode());
        if let Some((a, b)) = cfg.symmetric_vmpls {
            out.insert(p.with_vmpls_swapped(a, b).encode());
        }
    }
    out
}

/// Satellite: canonicalization soundness, direction one — relabeling
/// gfns (and, in the symmetric configuration, swapping the symmetric
/// VMPL pair) never changes the canonical key.
#[test]
fn canonical_key_is_invariant_across_the_symmetry_orbit() {
    let ci = ModelConfig::ci();
    let sym = ModelConfig::symmetric();
    let strategy = prop::tuple2(
        abs_state_strategy(2, ci.policy_knobs.len(), ci.va_slots as usize),
        prop::usizes(0..2),
    );
    check("modelcheck_canonical_orbit", 64, &strategy, |(state, perm_idx)| {
        let key = state.canonical_key(&ci);
        let perm = if perm_idx == 0 { vec![0, 1] } else { vec![1, 0] };
        prop_assert_eq!(&state.with_pages_permuted(&perm).canonical_key(&ci), &key);

        // Same state under the symmetric configuration: the Vmpl2/Vmpl3
        // swap is also quotiented away.
        let skey = state.canonical_key(&sym);
        let swapped = state.with_vmpls_swapped(Vmpl::Vmpl2, Vmpl::Vmpl3);
        prop_assert_eq!(&swapped.canonical_key(&sym), &skey);
        // And the canonical key is itself an orbit member's encoding.
        prop_assert!(orbit_encodings(&state, &sym).contains(&skey));
        Ok(())
    });
}

/// Satellite: canonicalization soundness, direction two — states
/// collide on their canonical key *iff* they are in the same symmetry
/// orbit. A perturbed copy (one RMP nibble bit or the current VMPL)
/// must either be provably orbit-equivalent or get a distinct key.
#[test]
fn canonical_key_never_conflates_distinct_orbits() {
    let sym = ModelConfig::symmetric();
    let strategy = prop::tuple3(
        abs_state_strategy(2, sym.policy_knobs.len(), sym.va_slots as usize),
        prop::usizes(0..2),
        prop::usizes(2..21),
    );
    check("modelcheck_canonical_no_conflation", 64, &strategy, |(state, page, bit)| {
        let mut other = state.clone();
        if bit == 20 {
            other.current ^= 1;
        } else {
            other.pages[page].packed ^= 1 << bit;
        }
        let same_key = state.canonical_key(&sym) == other.canonical_key(&sym);
        let same_orbit = orbit_encodings(&state, &sym).contains(&other.encode());
        prop_assert_eq!(same_key, same_orbit);
        Ok(())
    });
}

/// Satellite: the three seeded machine mutations are each caught by
/// *exhaustive* exploration — not by luck of a fuzz schedule — with the
/// BFS guaranteeing the counterexample depth is minimal. The depths are
/// pinned: a deeper catch means the checker's frontier or the machine's
/// semantics shifted.
#[test]
fn seeded_mutations_are_caught_exhaustively_at_minimal_depth() {
    const EXPECTED: [(RmpMutation, usize); 3] = [
        (RmpMutation::SkipVmsaImmutable, 4),
        (RmpMutation::AllowPermEscalation, 3),
        (RmpMutation::AllowDoubleValidate, 3),
    ];
    for (mutation, depth) in EXPECTED {
        let mut cfg = CheckConfig::new(ModelConfig::mutation());
        cfg.mutation = Some(mutation);
        let report = explore(&cfg);
        let failure = report
            .failure
            .unwrap_or_else(|| panic!("{mutation:?} must be caught by exhaustive exploration"));
        assert_eq!(
            failure.depth, depth,
            "{mutation:?}: minimal counterexample depth moved (ops {:?})",
            failure.ops
        );
        assert!(
            failure.shrunk_ops.len() <= failure.depth,
            "{mutation:?}: shrinking must not grow the repro"
        );
        // The shrunk repro still reproduces on the mutated machine...
        assert!(
            replay(&cfg, &failure.shrunk_indices).is_err(),
            "{mutation:?}: shrunk repro lost the bug"
        );
        // ...and is green on the clean one.
        let clean = CheckConfig::new(ModelConfig::mutation());
        assert!(
            replay(&clean, &failure.shrunk_indices).is_ok(),
            "{mutation:?}: shrunk repro must be clean without the mutation"
        );
    }
}

/// The symmetric configuration (where the Vmpl2/Vmpl3 quotient is
/// actually active) stays machine == oracle on real reachable states —
/// depth-capped so the tier-1 gate stays fast; the full exhaustion runs
/// in the `tier1-modelcheck` CI job.
#[test]
fn symmetric_quotient_is_sound_on_reachable_states() {
    let mut cfg = CheckConfig::new(ModelConfig::symmetric());
    cfg.max_depth = Some(3);
    let report = explore(&cfg);
    assert!(report.failure.is_none(), "divergence under symmetry quotient: {:?}", report.failure);
    assert!(report.states > 1);
}
