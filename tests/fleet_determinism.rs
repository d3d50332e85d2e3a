//! Fleet determinism: the worker count must never leak into results.
//!
//! A given seed produces a bit-identical merged trace/metrics digest at
//! **any** worker count: `run_fleet`'s worker threads decide only *when*
//! a shard executes, never *what* it computes. These tests pin that
//! contract from the outside, through `veil-fleet`'s public API, along
//! with the shard order of every report and the exact service cycles of
//! each tenant kind.

use veil_fleet::{run_fleet, FleetConfig, FleetReport, TenantKind};

/// Summed [`veil_fleet::ShardReport::service_cycles`] of a `small_fleet`
/// run, in [`TenantKind::ALL`] order. Service cycles are the machine's own
/// account of each request, independent of arrival times, so they are
/// the same at every seed and interarrival mean; only a change to what a
/// request costs on the CVM moves them.
const SERVICE_CYCLES: [u64; 3] = [6_538_060, 2_801_040, 6_830_680];

fn small_fleet(kind: TenantKind, seed: u64, workers: usize) -> FleetConfig {
    FleetConfig {
        seed,
        tenants: 16,
        shards: 4,
        workers,
        requests_per_tenant: 4,
        mean_interarrival_cycles: 100_000,
        kind,
        frames: 4096,
        log_frames: 512,
    }
}

fn service_cycles(r: &FleetReport) -> u64 {
    r.shards.iter().map(|s| s.service_cycles).sum()
}

/// Every report sits at the index of its shard id, whichever worker ran it.
fn assert_shard_order(r: &FleetReport, what: &str) {
    for (i, s) in r.shards.iter().enumerate() {
        assert_eq!(s.shard as usize, i, "{what}: report {i} holds shard {}", s.shard);
    }
}

#[test]
fn merged_state_is_worker_count_invariant() {
    for (kind, service) in TenantKind::ALL.into_iter().zip(SERVICE_CYCLES) {
        let base = run_fleet(&small_fleet(kind, 0xd15ea5e, 1));
        assert_shard_order(&base, kind.label());
        assert_eq!(service_cycles(&base), service, "{}: summed service cycles", kind.label());
        // 0 clamps to one worker; 8 is more workers than shards.
        for workers in [0, 2, 4, 8] {
            let other = run_fleet(&small_fleet(kind, 0xd15ea5e, workers));
            assert_eq!(
                other.merged_digest_hex,
                base.merged_digest_hex,
                "{}: merged digest diverged at {workers} workers",
                kind.label()
            );
            assert_shard_order(&other, kind.label());
            // The merged digest already covers these, but pin the parts
            // separately so a failure names the diverging artifact.
            for (a, b) in base.shards.iter().zip(&other.shards) {
                assert_eq!(a.shard, b.shard);
                assert_eq!(a.trace_digest_hex, b.trace_digest_hex, "shard {} trace", a.shard);
                assert_eq!(a.metrics_snapshot, b.metrics_snapshot, "shard {} metrics", a.shard);
                assert_eq!(a.checksum, b.checksum, "shard {} checksum", a.shard);
                assert_eq!(a.makespan_cycles, b.makespan_cycles, "shard {} makespan", a.shard);
            }
            assert_eq!(other.latency.count(), base.latency.count());
            assert_eq!(other.makespan_cycles, base.makespan_cycles);
        }
    }
}

#[test]
fn seed_perturbs_every_shard() {
    let a = run_fleet(&small_fleet(TenantKind::Kvstore, 1, 2));
    let b = run_fleet(&small_fleet(TenantKind::Kvstore, 2, 2));
    assert_ne!(a.merged_digest_hex, b.merged_digest_hex, "seed must reshape arrivals");
    // Arrival times shift, so virtual makespans differ too.
    assert_ne!(a.makespan_cycles, b.makespan_cycles);
    // What each request costs does not depend on when it arrives.
    assert_eq!(service_cycles(&a), SERVICE_CYCLES[1], "seed 1");
    assert_eq!(service_cycles(&b), SERVICE_CYCLES[1], "seed 2");
}

#[test]
fn shard_reports_describe_real_work() {
    let r = run_fleet(&small_fleet(TenantKind::Http, 0xcafe, 4));
    assert_eq!(r.total_tenants, 16);
    assert_eq!(r.total_ops, 16 * 4);
    assert_eq!(r.latency.count(), r.total_ops);
    for s in &r.shards {
        assert_eq!(s.audit_failures, 0, "shard {} shed audit records", s.shard);
        assert!(s.gate_requests > 0, "shard {} never crossed the gate", s.shard);
        assert!(s.doorbells > 0, "shard {} never used the batched path", s.shard);
        assert!(s.ops == 16, "shard {} ops {}", s.shard, s.ops);
    }
}

#[test]
fn req_propagation_invariants_hold() {
    // Every `ReqDispatch` in a shard's stream has exactly one
    // matching `ReqComplete`, and the causal decomposition partitions
    // each request's end-to-end latency with no residual.
    let r = run_fleet(&small_fleet(TenantKind::Kvstore, 0x1d, 2));
    assert_eq!(r.attribution.requests, r.total_ops, "every request causally attributed");
    for s in &r.shards {
        assert_eq!(s.paths.len() as u64, s.ops, "shard {}: a path per request", s.shard);
        assert_eq!(s.unmatched_completes, 0, "shard {}: orphaned completion", s.shard);
        let mut seen = std::collections::BTreeSet::new();
        for p in &s.paths {
            assert!(
                seen.insert((p.tenant, p.req)),
                "shard {}: duplicate ReqId ({}, {})",
                s.shard,
                p.tenant,
                p.req
            );
            assert_eq!(
                p.queue_wait + p.batch_stall + p.relay + p.service,
                p.end_to_end(),
                "shard {}: tenant {} req {}: components must sum to e2e exactly",
                s.shard,
                p.tenant,
                p.req
            );
        }
        // Shard-level: the attribution accounts for every cycle the
        // latency histogram recorded, exactly.
        assert_eq!(s.attribution.total(), s.latency.sum(), "shard {}: exact partition", s.shard);
        assert_eq!(s.slo.requests(), s.ops, "shard {}: SLO ledger complete", s.shard);
    }
}

#[test]
fn causal_paths_and_slo_are_worker_count_invariant() {
    // The observability plane obeys the same contract as the digests:
    // paths, attribution, SLO ledgers, and offender tables must be
    // bit-identical at any worker count. Four shards split the 16
    // tenants 4/4/4/4, three split them 6/5/5.
    for (shards, split) in [(4, &[4u32, 4, 4, 4][..]), (3, &[6, 5, 5])] {
        let geometry =
            |workers| FleetConfig { shards, ..small_fleet(TenantKind::Http, 0x0b5, workers) };
        let base = run_fleet(&geometry(1));
        let tenants: Vec<u32> = base.shards.iter().map(|s| s.tenants).collect();
        assert_eq!(tenants, split, "{shards} shards");
        for workers in [0, 2, 4, 8] {
            let other = run_fleet(&geometry(workers));
            let what = format!("{shards} shards, {workers} workers");
            assert_shard_order(&other, &what);
            assert_eq!(other.merged_digest_hex, base.merged_digest_hex, "{what}: digest");
            assert_eq!(other.attribution, base.attribution, "{what}: attribution");
            for (a, b) in base.shards.iter().zip(&other.shards) {
                assert_eq!(a.paths, b.paths, "{what}: shard {} paths", a.shard);
                assert_eq!(a.stat_snapshot, b.stat_snapshot, "{what}: shard {} veilstat", a.shard);
            }
            assert_eq!(other.slo.breaches(), base.slo.breaches());
            assert_eq!(other.slo.top_offenders(8), base.slo.top_offenders(8));
            assert_eq!(other.tail.threshold_cycles, base.tail.threshold_cycles);
            assert_eq!(other.tail.requests, base.tail.requests);
            assert_eq!(other.tail.dominant, base.tail.dominant);
            assert_eq!(other.tail.attribution, base.tail.attribution, "{what}: tail attribution");
        }
    }
}
