//! Fleet execution and deterministic merging of shard reports.
//!
//! [`run_fleet`] runs the shards on scoped worker threads, each pulling
//! the next shard id from one shared counter, and folds the per-shard
//! reports into one [`FleetReport`]. The merge is order-fixed (shard 0,
//! 1, 2, ...) regardless of which worker finished which shard when, so
//! the merged latency histogram, the totals, and above all
//! [`FleetReport::merged_digest_hex`] are bit-identical at any worker
//! count — that digest is the fleet's determinism witness, pinned by
//! `tests/fleet_determinism.rs`.

use crate::shard::{run_shard, ShardReport};
use crate::slo::SloReport;
use crate::FleetConfig;
use std::sync::atomic::{AtomicU32, Ordering};
use veil_crypto::sha256::{hex, Sha256};
use veil_metrics::Histogram;
use veil_snp::cost::CLOCK_HZ;
use veil_snp::trace::{Attribution, Component};

/// The merged result of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-shard reports, in shard order.
    pub shards: Vec<ShardReport>,
    /// All shards' request latencies merged into one histogram.
    pub latency: Histogram,
    /// SHA-256 over every shard's (id, trace digest, metrics digest), in
    /// shard order — the fleet-wide determinism witness.
    pub merged_digest_hex: String,
    /// Requests completed across the fleet.
    pub total_ops: u64,
    /// Tenants served across the fleet.
    pub total_tenants: u32,
    /// Slowest shard's virtual completion time: the fleet finishes when
    /// its last shard does (shards run concurrently in virtual time).
    pub makespan_cycles: u64,
    /// Fleet-wide critical-path attribution over every request.
    pub attribution: Attribution,
    /// Fleet-wide per-tenant SLO ledgers (merged in shard order).
    pub slo: SloReport,
    /// Where the latency tail comes from: the above-p99 requests broken
    /// down by dominant critical-path component.
    pub tail: TailAttribution,
}

/// The latency tail attributed to critical-path components: which part
/// of the pipeline the worst requests spent their cycles in.
#[derive(Debug, Clone, Default)]
pub struct TailAttribution {
    /// The tail threshold: p99 of the merged latency histogram
    /// ([`Histogram::percentile`]), in cycles. It lies at most 1/16 below
    /// the exact p99 request latency, so the tail can also hold requests
    /// from the p99 request's own bucket.
    pub threshold_cycles: u64,
    /// Requests strictly above the threshold.
    pub requests: u64,
    /// How many tail requests each component dominates, indexed in
    /// [`Component::ALL`] order.
    pub dominant: [u64; 4],
    /// Per-component cycle totals over the tail requests only.
    pub attribution: Attribution,
}

impl TailAttribution {
    /// The component dominating the most tail requests (ties break in
    /// [`Component::ALL`] order).
    pub fn dominant_component(&self) -> Component {
        let mut best = 0usize;
        for (i, &n) in self.dominant.iter().enumerate() {
            if n > self.dominant[best] {
                best = i;
            }
        }
        Component::ALL[best]
    }
}

impl FleetReport {
    /// Aggregate fleet throughput in requests per virtual second.
    pub fn aggregate_ops_per_sec(&self) -> f64 {
        self.total_ops as f64 * CLOCK_HZ as f64 / self.makespan_cycles.max(1) as f64
    }
}

/// Runs every shard of `cfg` on `cfg.workers` scoped OS threads
/// (clamped to `1..=shards`) and merges the reports. Each worker takes
/// the next unclaimed shard id until none is left; the reports are then
/// put back in shard order, so the thread count decides only when a
/// shard runs, never what it computes.
///
/// # Panics
///
/// If any shard fails (boot or syscall error) — see
/// [`crate::shard::run_shard`].
pub fn run_fleet(cfg: &FleetConfig) -> FleetReport {
    let workers = cfg.workers.clamp(1, (cfg.shards as usize).max(1));
    let next = AtomicU32::new(0);
    let mut reports: Vec<ShardReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let shard = next.fetch_add(1, Ordering::Relaxed);
                        if shard >= cfg.shards {
                            return out;
                        }
                        out.push(run_shard(cfg, shard));
                    }
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("shard worker panicked")).collect()
    });
    reports.sort_unstable_by_key(|r| r.shard);
    merge(reports)
}

/// Folds shard reports (already in shard order) into a [`FleetReport`].
fn merge(reports: Vec<ShardReport>) -> FleetReport {
    let mut latency = Histogram::new();
    let mut digest = Sha256::new();
    let mut total_ops = 0u64;
    let mut total_tenants = 0u32;
    let mut makespan_cycles = 0u64;
    let mut attribution = Attribution::default();
    let mut slo = SloReport::new(reports.first().map_or(0, |r| r.slo.slo_cycles));
    for r in &reports {
        latency.merge(&r.latency);
        digest.update(&r.shard.to_le_bytes());
        digest.update(r.trace_digest_hex.as_bytes());
        digest.update(r.metrics_digest_hex.as_bytes());
        total_ops += r.ops;
        total_tenants += r.tenants;
        makespan_cycles = makespan_cycles.max(r.makespan_cycles);
        attribution.merge(&r.attribution);
        slo.merge(&r.slo);
    }
    let tail = tail_attribution(&reports, &latency);
    FleetReport {
        shards: reports,
        latency,
        merged_digest_hex: hex(&digest.finalize()),
        total_ops,
        total_tenants,
        makespan_cycles,
        attribution,
        slo,
        tail,
    }
}

/// Attributes the latency tail: every request whose end-to-end latency
/// exceeds the merged histogram's p99 is binned under its dominant
/// critical-path component. Pure fold over per-shard paths, so the
/// result is worker-count invariant like everything else in the merge.
fn tail_attribution(reports: &[ShardReport], latency: &Histogram) -> TailAttribution {
    let threshold = latency.percentile(99.0);
    let mut tail = TailAttribution { threshold_cycles: threshold, ..TailAttribution::default() };
    for r in reports {
        for p in &r.paths {
            if p.end_to_end() > threshold {
                tail.requests += 1;
                let idx =
                    Component::ALL.iter().position(|&c| c == p.dominant()).expect("component");
                tail.dominant[idx] += 1;
                tail.attribution.add_path(p);
            }
        }
    }
    tail
}

#[cfg(test)]
mod tests {
    use super::*;
    use veil_workloads::tenant::TenantKind;

    fn cfg(shards: u32, workers: usize) -> FleetConfig {
        FleetConfig {
            seed: 0xbeef,
            tenants: 8,
            shards,
            workers,
            requests_per_tenant: 4,
            mean_interarrival_cycles: 200_000,
            kind: TenantKind::Memcached,
            frames: 4096,
            log_frames: 512,
        }
    }

    #[test]
    fn merged_digest_is_worker_count_invariant() {
        let base = run_fleet(&cfg(2, 1));
        for workers in [2, 4] {
            let other = run_fleet(&cfg(2, workers));
            assert_eq!(other.merged_digest_hex, base.merged_digest_hex, "workers={workers}");
            assert_eq!(other.latency.count(), base.latency.count());
            assert_eq!(other.makespan_cycles, base.makespan_cycles);
        }
    }

    #[test]
    fn totals_add_up() {
        let r = run_fleet(&cfg(2, 2));
        assert_eq!(r.total_tenants, 8);
        assert_eq!(r.total_ops, 8 * 4);
        assert_eq!(r.latency.count(), r.total_ops);
        assert!(r.aggregate_ops_per_sec() > 0.0);
    }

    #[test]
    fn sharding_shrinks_the_makespan() {
        // Same tenant population, overloaded arrivals: four shards must
        // drain the backlog in well under half the single-shard time.
        let mut one = cfg(1, 1);
        one.mean_interarrival_cycles = 10_000;
        let mut four = cfg(4, 1);
        four.mean_interarrival_cycles = 10_000;
        let r1 = run_fleet(&one);
        let r4 = run_fleet(&four);
        assert_eq!(r1.total_ops, r4.total_ops);
        assert!(
            r4.makespan_cycles * 2 < r1.makespan_cycles,
            "4 shards {} vs 1 shard {}",
            r4.makespan_cycles,
            r1.makespan_cycles
        );
    }
}
