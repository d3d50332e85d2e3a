//! Tier-1 smoke suite for the adversarial differential fuzzer.
//!
//! The full fuzz budget runs in its own CI job; this suite keeps a
//! bounded slice of it in the tier-1 gate: the differential property
//! (machine == reference oracle) under the testkit engine, determinism
//! of whole fuzz runs, and — crucial for
//! trusting a fuzzer that never fires — proof that each seeded machine
//! mutation is caught *and* shrunk to a minimal sequence.

use veil_adversary::{
    run_fuzz, run_sequence, sequence_strategy, AdversaryOp, FuzzConfig, SEED_LABEL,
};
use veil_snp::perms::Vmpl;
use veil_snp::rmp::RmpMutation;
use veil_testkit::prop::check;

/// The core property, under the same engine as `tests/properties.rs`:
/// every generated attack sequence must execute identically on the real
/// machine and the reference oracle. The `check` name equals
/// [`SEED_LABEL`], so a `VEIL_TEST_SEED` printed here replays in the
/// `fuzz` binary and vice versa.
#[test]
fn adversary_differential() {
    check(SEED_LABEL, 24, &sequence_strategy(60), |ops| run_sequence(&ops, None).map(|_| ()));
}

/// A bounded `run_fuzz` is green and byte-for-byte deterministic: two
/// identical runs produce identical reports (same cases, same op
/// totals, no failure).
#[test]
fn fuzz_run_is_green_and_deterministic() {
    let cfg = FuzzConfig { seeds: 10, ops: 50, seed: None, mutation: None };
    let a = run_fuzz(&cfg);
    let b = run_fuzz(&cfg);
    assert!(a.failure.is_none(), "unexpected divergence: {:?}", a.failure);
    assert_eq!(a, b, "fuzz runs from the same config must be identical");
    assert_eq!(a.cases, 10);
    assert!(a.total_ops > 0);
}

/// Replaying an explicit seed pins exactly one case and is stable.
#[test]
fn explicit_seed_replay_is_deterministic() {
    let cfg = FuzzConfig { seeds: 999, ops: 60, seed: Some(0xDEAD_BEEF_CAFE_F00D), mutation: None };
    let a = run_fuzz(&cfg);
    let b = run_fuzz(&cfg);
    assert_eq!(a.cases, 1, "an explicit seed must run exactly one case");
    assert_eq!(a, b);
}

/// Mutation self-test: with VMSA immutability skipped in the machine,
/// the fuzzer must notice the divergence from the (unmutated) oracle
/// and shrink the repro to a handful of ops. A fuzzer that cannot catch
/// a seeded hole proves nothing when it stays green.
#[test]
fn seeded_vmsa_immutability_bug_is_caught_and_shrunk() {
    let cfg = FuzzConfig {
        seeds: 40,
        ops: 60,
        seed: None,
        mutation: Some(RmpMutation::SkipVmsaImmutable),
    };
    let report = run_fuzz(&cfg);
    let failure = report.failure.expect("seeded VMSA-immutability bug must be caught");
    assert!(
        failure.shrunk.len() <= 10,
        "repro must shrink to <= 10 ops, got {} ({:?})",
        failure.shrunk.len(),
        failure.shrunk
    );
    assert!(!failure.shrunk.is_empty());
    // The shrunk repro must still reproduce on its own.
    assert!(run_sequence(&failure.shrunk, cfg.mutation).is_err());
    // ...and be harmless on the unmutated machine.
    assert!(run_sequence(&failure.shrunk, None).is_ok());
}

/// Handcrafted escalation: with the self-escalation check disabled, a
/// VMPL-1 RMPADJUST granting VMPL-3 more than VMPL-1 holds must diverge
/// from the oracle on the spot.
#[test]
fn seeded_perm_escalation_bug_is_caught_by_handcrafted_sequence() {
    let gfn = 20; // pool page, granted all perms to every VMPL in the prologue
    let ops = [
        // VMPL-0 strips VMPL-1 down to read-only...
        AdversaryOp::Rmpadjust { executing: Vmpl::Vmpl0, gfn, target: Vmpl::Vmpl1, perms: 0b0001 },
        // ...then VMPL-1 tries to hand VMPL-3 read+write it does not hold.
        AdversaryOp::Rmpadjust { executing: Vmpl::Vmpl1, gfn, target: Vmpl::Vmpl3, perms: 0b0011 },
    ];
    assert!(run_sequence(&ops, None).is_ok(), "sequence must be legal on the real machine");
    let err = run_sequence(&ops, Some(RmpMutation::AllowPermEscalation))
        .expect_err("escalation mutation must diverge from the oracle");
    assert!(err.contains("Rmpadjust"), "divergence should implicate RMPADJUST: {err}");
}

/// Handcrafted double-validate: re-validating an already-validated page
/// must fail with `ValidationMismatch`; a machine that silently accepts
/// it diverges immediately.
#[test]
fn seeded_double_validate_bug_is_caught_by_handcrafted_sequence() {
    let ops = [AdversaryOp::Pvalidate { vmpl: Vmpl::Vmpl0, gfn: 20, validate: true }];
    assert!(run_sequence(&ops, None).is_ok());
    let err = run_sequence(&ops, Some(RmpMutation::AllowDoubleValidate))
        .expect_err("double-validate mutation must diverge from the oracle");
    assert!(err.contains("Pvalidate"), "divergence should implicate PVALIDATE: {err}");
}
