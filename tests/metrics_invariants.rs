//! Metrics-invariant suite for the `veil-metrics` tentpole:
//!
//! * histogram bucket assignment depends only on the sample multiset
//!   (permutation-invariant), and merge is commutative and associative;
//! * the JSON snapshot digest is bit-stable across same-seed replays of
//!   the same workload (fresh CVM each time);
//! * the http workload produces a golden-pinned snapshot digest and
//!   well-formed folded-stack lines;
//! * metrics collection is observationally inert: the trace digest,
//!   cycle account, and hypervisor stats of a metrics-on run are
//!   bit-identical to its metrics-off twin, both for plain http and for
//!   http audited over the batched gate.

use veil::metrics::Histogram;
use veil::prelude::*;
use veil_testkit::{prop, prop_assert, prop_assert_eq};
use veil_workloads::driver::VeilUnshieldedDriver;
use veil_workloads::http::HttpWorkload;
use veil_workloads::Workload;

fn hist_of(samples: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &s in samples {
        h.record(s);
    }
    h
}

/// Samples spanning the full dynamic range: tiny latencies, the 7,135-cycle
/// switch neighborhood, and huge outliers all in one strategy.
fn samples() -> prop::Strategy<Vec<u64>> {
    let value =
        prop::one_of(vec![prop::u64s(0..16), prop::u64s(4_000..10_000), prop::u64s(0..u64::MAX)]);
    prop::vecs(value, 0..40)
}

#[test]
fn bucket_counts_are_permutation_invariant() {
    let rotated = prop::tuple2(samples(), prop::usizes(0..64));
    prop::check("bucket_counts_are_permutation_invariant", 200, &rotated, |(xs, rot)| {
        let mut reversed = xs.clone();
        reversed.reverse();
        let mut rotated = xs.clone();
        if !rotated.is_empty() {
            rotated.rotate_left(rot % xs.len().max(1));
        }
        let (a, b, c) = (hist_of(&xs), hist_of(&reversed), hist_of(&rotated));
        prop_assert_eq!(a.buckets(), b.buckets());
        prop_assert_eq!(a.buckets(), c.buckets());
        prop_assert_eq!(a.percentile(50.0), b.percentile(50.0));
        prop_assert_eq!(a.percentile(99.9), c.percentile(99.9));
        prop_assert_eq!(
            (a.count(), a.sum(), a.min(), a.max()),
            (b.count(), b.sum(), b.min(), b.max())
        );
        Ok(())
    });
}

#[test]
fn histogram_merge_is_commutative_and_associative() {
    let triple = prop::tuple3(samples(), samples(), samples());
    prop::check("histogram_merge_is_commutative_and_associative", 200, &triple, |(x, y, z)| {
        let (a, b, c) = (hist_of(&x), hist_of(&y), hist_of(&z));

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);

        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);

        // Merging equals recording the concatenation.
        let concat: Vec<u64> = x.iter().chain(y.iter()).chain(z.iter()).copied().collect();
        prop_assert_eq!(&ab_c, &hist_of(&concat));
        Ok(())
    });
}

/// Boots a metrics-on CVM and runs `n` http requests unshielded.
fn http_metrics_cvm(n: usize) -> Cvm {
    let mut cvm = CvmBuilder::new().frames(2048).vcpus(1).metrics(true).build().unwrap();
    let pid = cvm.spawn();
    let mut driver = VeilUnshieldedDriver { cvm: &mut cvm, pid };
    HttpWorkload::nginx(n).run(&mut driver).unwrap();
    cvm
}

#[test]
fn snapshot_digest_is_stable_across_replays() {
    // The whole pipeline — event stream, registry folds, span profiler,
    // JSON rendering — must be a pure function of the workload. Replay
    // the same random-size workload in a fresh CVM and require
    // bit-identical snapshots.
    prop::check("snapshot_digest_is_stable_across_replays", 6, &prop::usizes(1..12), |n| {
        let first = http_metrics_cvm(n);
        let second = http_metrics_cvm(n);
        prop_assert_eq!(first.metrics_snapshot(), second.metrics_snapshot());
        prop_assert_eq!(first.metrics_digest_hex(), second.metrics_digest_hex());
        prop_assert!(!first.metrics().is_empty(), "workload must populate the registry");
        Ok(())
    });
}

#[test]
fn http_workload_folded_stacks_are_well_formed() {
    let cvm = http_metrics_cvm(25);
    let folded = cvm.spans().folded();
    assert!(!folded.is_empty(), "http workload must complete spans");
    for line in folded.lines() {
        let (stack, weight) =
            line.rsplit_once(' ').unwrap_or_else(|| panic!("no weight separator: {line:?}"));
        assert!(weight.parse::<u64>().is_ok(), "weight must be integer cycles: {line:?}");
        let mut frames = stack.split(';');
        let root = frames.next().unwrap();
        assert!(
            matches!(root, "vmpl0" | "vmpl1" | "vmpl2" | "vmpl3" | "all"),
            "root frame must be a domain label: {line:?}"
        );
        let mut rest = 0;
        for frame in frames {
            rest += 1;
            assert!(!frame.is_empty(), "empty frame in {line:?}");
            assert!(
                frame.chars().all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '_'),
                "frame has characters flamegraph.pl would misparse: {line:?}"
            );
        }
        assert!(rest > 0, "stack must have at least one frame under the domain: {line:?}");
    }
}

#[test]
fn http_workload_snapshot_digest_matches_golden() {
    // Golden pin: the deterministic snapshot of `HttpWorkload::nginx(25)`
    // on a 2048-frame single-VCPU CVM. This digest changes whenever the
    // event stream, cost model, bucket layout, span set, or JSON shape
    // changes — all of which are intentional, reviewable events. Update
    // it by running `cargo test http_workload_snapshot_digest` and
    // copying the printed digest.
    let cvm = http_metrics_cvm(25);
    let digest = cvm.metrics_digest_hex();
    println!("http snapshot digest: {digest}");
    assert_eq!(
        digest, "beeb7be62441124f1ba2f5f20a68347050625b652b84737c9e4cde1643ed5773",
        "metrics snapshot drifted from the pinned golden"
    );
}

#[test]
fn metrics_are_observationally_inert() {
    // Two configurations: plain http, and http audited to VeilS-LOG over
    // the batched gate (pinned, so `VEIL_NO_BATCH` cannot turn it off),
    // where metrics observe doorbell drains with occupancy-scaled relay
    // costs.
    let run = |metrics: bool, audited: bool| {
        let builder = CvmBuilder::new().frames(2048).vcpus(1).trace(true).metrics(metrics);
        let mut cvm = if audited { builder.batch(true) } else { builder }.build().unwrap();
        if audited {
            cvm.kernel.audit.mode = veil_os::audit::AuditMode::VeilLog;
            cvm.kernel.audit.rules = veil_os::audit::paper_ruleset();
        }
        let pid = cvm.spawn();
        let mut driver = VeilUnshieldedDriver { cvm: &mut cvm, pid };
        HttpWorkload::nginx(25).run(&mut driver).unwrap();
        cvm.flush_gate().unwrap();
        cvm
    };
    for audited in [false, true] {
        let on = run(true, audited);
        let off = run(false, audited);
        // Bit-identical externally visible behavior: measurement, cycles,
        // per-domain attribution, hypervisor stats, and the trace digest.
        let config = if audited { "audited batched" } else { "plain" };
        assert_eq!(
            on.hv.machine.launch_measurement(),
            off.hv.machine.launch_measurement(),
            "{config}"
        );
        assert_eq!(on.hv.machine.cycles().total(), off.hv.machine.cycles().total(), "{config}");
        assert_eq!(on.domain_cycles(), off.domain_cycles(), "{config}");
        assert_eq!(on.hv.stats(), off.hv.stats(), "{config}");
        assert_eq!(on.trace_digest_hex(), off.trace_digest_hex(), "{config}");
        // Only the metrics-on twin accumulated anything.
        assert!(!on.metrics().is_empty(), "{config}");
        assert!(off.metrics().is_empty(), "{config}");
        assert!(off.spans().is_empty(), "{config}");
        if audited {
            assert!(on.hv.stats().doorbells > 0, "audited batched run never drained the ring");
            let relay = on.hv.machine.metrics().merged_histogram("relay_cycles");
            assert!(relay.count() > 0, "audited batched run recorded no relay latencies");
        }
    }
}
