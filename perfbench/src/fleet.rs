//! fleet-http: open-loop multi-tenant serving through `veil_fleet`.
//!
//! 60 http tenants on one shard draw Poisson arrivals from the run's
//! seed at a fixed mean interarrival of 9.8M model cycles per tenant.
//! Against the ≈98k-cycle mean http service time that offers ρ ≈ 0.6.
//! The rate is a constant and is never recalibrated, so cheaper service
//! shows as lower latency at the same offered load.
//!
//! One full-length fleet (2,000 requests per tenant) gives the model
//! metrics; host time comes from shorter fleets of 500 requests per
//! tenant, a few dozen per run, each scaled by the heap loop
//! calibration (see `calib`).

use crate::calib::{Bracket, Loop};
use crate::closed::{observability_overhead, Closed};
use crate::report::{Clock, Report};
use crate::stats::{fingerprint, median, nearest_rank, peak_rss_mib, sorted};
use std::time::{Duration, Instant};
use veil_fleet::top::snapshot_value;
use veil_fleet::{run_fleet, FleetConfig, FleetReport, TenantKind};
use veil_services::CvmBuilder;

const TENANTS: u32 = 60;
/// Per-tenant mean interarrival, in model cycles.
const MEAN_INTERARRIVAL_CYCLES: u64 = 9_800_000;
/// Requests per tenant in the full-length fleet, which gives the model
/// metrics and latency samples.
const REQUESTS_PER_TENANT: u32 = 2000;
/// Requests per tenant in each timed fleet.
const TIMED_REQUESTS_PER_TENANT: u32 = 500;
const FRAMES: u64 = 32768;
/// VeilS-LOG storage (64 MiB): room for every audited syscall of the
/// full-length fleet with no refusal.
const LOG_FRAMES: u64 = 16384;
const MIN_REPS: usize = 3;

// `..FleetConfig::default()` keeps this building when the config grows
// a field; every field that exists today is pinned explicitly.
#[allow(clippy::needless_update)]
fn config(seed: u64, requests_per_tenant: u32) -> FleetConfig {
    FleetConfig {
        seed,
        tenants: TENANTS,
        shards: 1,
        workers: 1,
        requests_per_tenant,
        mean_interarrival_cycles: MEAN_INTERARRIVAL_CYCLES,
        kind: TenantKind::Http,
        frames: FRAMES,
        log_frames: LOG_FRAMES,
        ..FleetConfig::default()
    }
}

/// Sum of every `events_total` series with the given op label in a
/// metrics snapshot.
fn events_total(snapshot: &str, op: &str) -> u64 {
    let op_field = format!("\"op\": \"{op}\"");
    snapshot
        .match_indices("{\"metric\": \"events_total\"")
        .filter_map(|(at, _)| {
            let obj = &snapshot[at..];
            let obj = &obj[..obj.find('}')?];
            if !obj.contains(&op_field) {
                return None;
            }
            let v = obj.find("\"value\": ")? + "\"value\": ".len();
            obj[v..].trim().parse::<u64>().ok()
        })
        .sum()
}

fn deferred_errors(r: &FleetReport) -> u64 {
    r.shards
        .iter()
        .map(|s| snapshot_value(&s.metrics_snapshot, "gate_deferred_errors_total").unwrap_or(0))
        .sum()
}

/// Refused requests of one fleet run, in every layer that reports them.
fn refusals(r: &FleetReport) -> u64 {
    deferred_errors(r) + r.shards.iter().map(|s| s.audit_failures).sum::<u64>()
}

fn latencies(r: &FleetReport) -> Vec<u64> {
    r.shards.iter().flat_map(|s| s.paths.iter().map(|p| p.end_to_end())).collect()
}

fn check(r: &FleetReport, requests: u64, report: &mut Report) {
    report.check(r.total_ops == requests, &format!("fleet: {} of {requests} served", r.total_ops));
    for s in &r.shards {
        report.check(s.unmatched_completes == 0, "fleet: unmatched request completions");
        let sum: u128 = s.paths.iter().map(|p| u128::from(p.end_to_end())).sum();
        report.check(s.attribution.total() == sum, "fleet: attribution total != sum of latency");
    }
}

/// One timed repetition after one zero-request set-up repetition, in
/// reference time (see `calib`).
struct Rep {
    setup_s: f64,
    ns_per_req: f64,
    /// Host ns per request, unscaled.
    raw_ns_per_req: f64,
}

/// What a run of rounds leaves for the metrics.
struct Rounds {
    reps: Vec<Rep>,
    /// The full-length fleet: model metrics and latency samples.
    full: FleetReport,
    /// The first zero-request report.
    empty: FleetReport,
    /// Median host slowdown (see `calib`).
    slowdown: f64,
    /// `VmHWM` after the full-length fleet.
    rss_mib: f64,
}

/// Counts one fleet's requests and refusals into the result line.
fn account(r: &FleetReport, requests: u64, report: &mut Report) {
    report.attempted += requests;
    report.failed += refusals(r) + (requests - r.total_ops.min(requests));
}

/// Runs the full-length fleet once, then set-up/timed pairs until
/// `seconds` pass. Timed fleets are shorter, so a run holds a few dozen
/// of them and their median holds still; each is checked and must replay
/// the first one.
fn rounds(seed: u64, seconds: f64, report: &mut Report) -> Rounds {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let requests = u64::from(TENANTS) * u64::from(REQUESTS_PER_TENANT);
    let full = run_fleet(&config(seed, REQUESTS_PER_TENANT));
    account(&full, requests, report);
    check(&full, requests, report);
    let rss_mib = peak_rss_mib();

    let timed_requests = u64::from(TENANTS) * u64::from(TIMED_REQUESTS_PER_TENANT);
    let mut reps = Vec::new();
    let mut first: Option<(FleetReport, String, u64)> = None;
    let mut bracket = Bracket::new(Loop::Heap);
    while reps.len() < MIN_REPS || Instant::now() < deadline {
        let t = Instant::now();
        let empty = run_fleet(&config(seed, 0));
        let setup_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let r = run_fleet(&config(seed, TIMED_REQUESTS_PER_TENANT));
        let raw_ns_per_req = t.elapsed().as_nanos() as f64 / timed_requests as f64;
        let scale = bracket.scale();
        reps.push(Rep {
            setup_s: setup_s * scale,
            ns_per_req: raw_ns_per_req * scale,
            raw_ns_per_req,
        });
        account(&r, timed_requests, report);
        let fp = fingerprint(&latencies(&r));
        match &first {
            None => {
                check(&r, timed_requests, report);
                first = Some((empty, r.merged_digest_hex, fp));
            }
            Some((_, digest, first_fp)) => report.check(
                r.merged_digest_hex == *digest && fp == *first_fp,
                "fleet: repetition changed digests or latencies",
            ),
        }
    }
    let (empty, ..) = first.expect("at least one repetition");
    Rounds { reps, full, empty, slowdown: median(&bracket.slowdowns), rss_mib }
}

/// The untraced run: end-to-end metrics.
pub fn run_untraced(seed: u64, seconds: f64, report: &mut Report) {
    let Rounds { reps, full: r, slowdown, rss_mib, .. } = rounds(seed, seconds, report);
    let lat = sorted(&latencies(&r));
    let service: u64 = r.shards.iter().map(|s| s.service_cycles).sum();
    let ns: Vec<f64> = reps.iter().map(|p| p.ns_per_req).collect();
    let setup: Vec<f64> = reps.iter().map(|p| p.setup_s).collect();
    report.put("host_ns_per_op", median(&ns), "ns", Clock::Host);
    report.put("model_cycles_per_op", service as f64 / r.total_ops as f64, "cycles", Clock::Model);
    report.put("latency_p50_cycles", nearest_rank(&lat, 50.0) as f64, "cycles", Clock::Model);
    report.put("latency_p99_cycles", nearest_rank(&lat, 99.0) as f64, "cycles", Clock::Model);
    report.put("latency_p999_cycles", nearest_rank(&lat, 99.9) as f64, "cycles", Clock::Model);
    report.put("latency_samples", lat.len() as f64, "count", Clock::Count);
    report.put("setup_s", median(&setup), "s", Clock::Host);
    report.put("peak_rss_mib", rss_mib, "MiB", Clock::Host);
    report.put("repetitions", reps.len() as f64, "count", Clock::Count);
    let raw: Vec<f64> = reps.iter().map(|p| p.raw_ns_per_req).collect();
    report.put("host_ns_per_op_unscaled", median(&raw), "ns", Clock::Host);
    report.put("calibration_slowdown", slowdown, "ratio", Clock::Host);
    let slo = TenantKind::Http.slo_cycles();
    let misses = lat.iter().filter(|&&l| l > slo).count() as u64 + refusals(&r);
    report.put("slo_miss_ratio", misses as f64 / r.total_ops as f64, "ratio", Clock::Model);
    report.put(
        "failed_op_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
        Clock::Count,
    );
}

/// The traced run: per-layer metrics. The fleet's layers are read from
/// its reports (host time inside a shard is not reachable from outside);
/// trace and metrics, always on in a shard, are costed on
/// enclave-kv-audited with each switched on and off.
pub fn run_traced(seed: u64, seconds: f64, report: &mut Report) {
    let Rounds { reps, full: r, empty, .. } = rounds(seed, seconds / 2.0, report);
    let (trace_ns, metrics_ns) = observability_overhead(Closed::KvAudited, seconds / 2.0, report);
    let ops = r.total_ops as f64;
    let per_op = |v: u64| v as f64 / ops;
    let sum = |f: fn(&veil_fleet::ShardReport) -> u64| r.shards.iter().map(f).sum::<u64>();
    let events = |op: &str| {
        let during = |fr: &FleetReport| -> u64 {
            fr.shards.iter().map(|s| events_total(&s.metrics_snapshot, op)).sum()
        };
        during(&r) - during(&empty)
    };
    let zero_model = [
        "snp.rmpadjust_cycles_per_op",
        "snp.pvalidate_cycles_per_op",
        "hv.domain_switch_cycles_per_op",
        "hv.enclave_exit_cycles_per_op",
        "os.kernel_service_cycles_per_op",
        "sdk.syscall_copy_cycles_per_op",
        "services.audit_log_cycles_per_op",
        "workloads.compute_cycles_per_op",
    ];
    // Per-category cycle accounts stay inside the shard.
    for name in zero_model {
        report.put(name, 0.0, "cycles", Clock::Model);
    }
    report.put("snp.page_state_changes_per_op", 0.0, "count", Clock::Count);
    report.put("hv.vmgexits_per_op", per_op(events("vmgexit")), "count", Clock::Count);
    let switches = sum(|s| s.domain_switches);
    let doorbells = sum(|s| s.doorbells);
    let gate_requests = sum(|s| s.gate_requests);
    report.put("hv.domain_switches_per_op", per_op(switches), "count", Clock::Count);
    report.put("hv.doorbells_per_op", per_op(doorbells), "count", Clock::Count);
    report.put("core.gate_requests_per_op", per_op(gate_requests), "count", Clock::Count);
    let per_doorbell = if doorbells == 0 { 0.0 } else { gate_requests as f64 / doorbells as f64 };
    report.put("core.requests_per_doorbell", per_doorbell, "count", Clock::Count);
    report.put("core.deferred_errors", deferred_errors(&r) as f64, "count", Clock::Count);
    report.put("os.syscalls_per_op", 0.0, "count", Clock::Count);
    report.put("os.audit_failures", sum(|s| s.audit_failures) as f64, "count", Clock::Count);
    for name in ["os.syscall_ns_per_op", "os.syscall_ns_p50", "os.syscall_ns_p99"] {
        report.put(name, 0.0, "ns", Clock::Host);
    }
    report.put("sdk.crossings_per_op", 0.0, "count", Clock::Count);
    report.put("sdk.bytes_copied_per_op", 0.0, "B", Clock::Count);
    report.put("sdk.enter_exit_ns_per_op", 0.0, "ns", Clock::Host);
    report.put(
        "services.log_records_per_op",
        per_op(events("audit_append")),
        "count",
        Clock::Count,
    );
    report.put("services.log_bytes_per_op", 0.0, "B", Clock::Count);
    report.put("services.log_dropped", 0.0, "count", Clock::Count);
    report.put("workloads.compute_ns_per_op", 0.0, "ns", Clock::Host);
    let a = &r.attribution;
    report.put("fleet.service_cycles_per_req", a.service as f64 / ops, "cycles", Clock::Model);
    report.put(
        "fleet.queue_wait_cycles_per_req",
        a.queue_wait as f64 / ops,
        "cycles",
        Clock::Model,
    );
    report.put("fleet.relay_cycles_per_req", a.relay as f64 / ops, "cycles", Clock::Model);
    report.put(
        "fleet.batch_stall_cycles_per_req",
        a.batch_stall as f64 / ops,
        "cycles",
        Clock::Model,
    );
    let service = sum(|s| s.service_cycles);
    report.put(
        "fleet.utilization",
        service as f64 / r.makespan_cycles.max(1) as f64,
        "ratio",
        Clock::Model,
    );
    let slo = TenantKind::Http.slo_cycles();
    let misses = latencies(&r).iter().filter(|&&l| l > slo).count() as u64 + refusals(&r);
    report.put("fleet.slo_miss_ratio", misses as f64 / ops, "ratio", Clock::Model);
    report.put("trace.overhead_ns_per_op", trace_ns, "ns", Clock::Host);
    report.put("metrics.overhead_ns_per_op", metrics_ns, "ns", Clock::Host);

    // Set-up split: a bare CVM of the shard's geometry, and the rest of a
    // zero-request fleet (session open and teardown).
    let mut bracket = Bracket::new(Loop::Heap);
    let boots: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let cvm = CvmBuilder::new()
                .frames(FRAMES)
                .vcpus(1)
                .log_frames(LOG_FRAMES)
                .trace(true)
                .metrics(true)
                .batch(true)
                .attest(false)
                .build()
                .expect("boot");
            let ms = t.elapsed().as_secs_f64() * 1e3;
            drop(cvm);
            ms * bracket.scale()
        })
        .collect();
    let boot_ms = median(&boots);
    let setup_ms = median(&reps.iter().map(|p| p.setup_s * 1e3).collect::<Vec<_>>());
    report.put("setup.boot_ms", boot_ms, "ms", Clock::Host);
    report.put("setup.install_ms", (setup_ms - boot_ms).max(0.0), "ms", Clock::Host);
    let host = median(&reps.iter().map(|p| p.ns_per_req).collect::<Vec<_>>());
    report.put("bench.traced_host_ns_per_op", host, "ns", Clock::Host);
    // No benchmark span reaches inside a shard: all of it is unattributed.
    report.put("bench.unattributed_ns_per_op", host, "ns", Clock::Host);
    report.put("bench.span_overhead_pct", 0.0, "%", Clock::Host);
}
