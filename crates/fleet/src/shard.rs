//! One fleet shard: a fully independent CVM serving a slice of tenants
//! under a deterministic virtual-time event loop.
//!
//! A shard owns everything: its own RMP, page tables, trace stream, and
//! metrics registry. Nothing is shared with other shards, so
//! shards can execute on any worker thread in any order and still
//! produce bit-identical results — the scheduler decides *when* a shard
//! runs, never *what* it computes.
//!
//! # Virtual time
//!
//! The load generator is open-loop: each tenant emits a Poisson-style
//! arrival stream (exponential interarrivals drawn from its own
//! [`TestRng`], seeded from `seed ⊕ splitmix64(tenant)`), independent of
//! how fast the shard drains them. The shard replays the merged arrival
//! sequence against a single virtual clock:
//!
//! ```text
//! start      = max(arrival, vclock)      // queue behind earlier work
//! completion = start + service_cycles    // measured, not assumed
//! latency    = completion - arrival      // queueing + service
//! ```
//!
//! `service_cycles` comes from the machine's own cycle account around
//! the request, so everything the simulation charges — syscall costs,
//! audit records, gate relays, doorbell drains — lands in the latency
//! distribution. Wall-clock never enters the loop; a given seed produces
//! the same makespan, digests, and histograms at any worker count.

use crate::slo::SloReport;
use crate::FleetConfig;
use veil_metrics::{Histogram, Key, DOMAIN_NONE};
use veil_os::monitor::{MonRequest, MonResponse, MonitorChannel};
use veil_services::CvmBuilder;
use veil_snp::trace::{Attribution, CausalFold, Event, ReqPath};
use veil_testkit::rng::{splitmix64, TestRng};
use veil_workloads::fnv1a;
use veil_workloads::tenant::TenantSession;

/// Everything one shard produced, self-contained and mergeable.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Which shard this is.
    pub shard: u32,
    /// Tenants served by this shard.
    pub tenants: u32,
    /// Requests completed.
    pub ops: u64,
    /// Payload bytes moved by those requests.
    pub bytes: u64,
    /// FNV-1a over per-tenant checksums in tenant order.
    pub checksum: u64,
    /// Model cycles spent inside requests (excludes session setup).
    pub service_cycles: u64,
    /// Virtual completion time of the last request.
    pub makespan_cycles: u64,
    /// Per-request latency (queueing + service) in cycles.
    pub latency: Histogram,
    /// Gate requests issued by audited syscalls.
    pub gate_requests: u64,
    /// Doorbell drains rung by the batched gate path.
    pub doorbells: u64,
    /// Hypervisor-relayed domain switches.
    pub domain_switches: u64,
    /// Audit records the kernel failed to place (must stay 0).
    pub audit_failures: u64,
    /// The shard's deterministic trace digest.
    pub trace_digest_hex: String,
    /// The shard's deterministic JSON metrics snapshot.
    pub metrics_snapshot: String,
    /// SHA-256 of [`ShardReport::metrics_snapshot`].
    pub metrics_digest_hex: String,
    /// Every request's reconstructed critical path, in completion order
    /// (`ReqId = (shard, tenant, seq)`; the shard is this report).
    pub paths: Vec<ReqPath>,
    /// Per-component cycle totals over [`ShardReport::paths`].
    pub attribution: Attribution,
    /// Per-tenant SLO ledgers (sketches, breaches, top-K source).
    pub slo: SloReport,
    /// `ReqComplete` records the causal fold could not match to an open
    /// dispatch window (must stay 0; nonzero means lost propagation).
    pub unmatched_completes: u64,
    /// The JSON metrics snapshot served *by the veilstat gate service*
    /// over the full §4 request path — what `veiltop` renders.
    pub stat_snapshot: String,
}

// Reports flow back across the scheduler's thread boundary.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ShardReport>();
};

/// One arrival: request `k` of `tenant` at virtual time `arrival`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Arrival {
    arrival: u64,
    tenant: u64,
    k: u64,
}

/// Draws one exponential interarrival with the given mean, strictly
/// positive. Uses the top 53 bits so the uniform is exact in f64; the
/// result is a pure function of the rng stream (bit-identical across
/// runs of the same build).
fn exp_interarrival(rng: &mut TestRng, mean_cycles: u64) -> u64 {
    let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
    (-u.ln() * mean_cycles as f64) as u64 + 1
}

/// The merged, time-ordered arrival sequence for one shard's tenants.
/// Ties break on (tenant, k) so the order is total and deterministic.
fn arrival_schedule(cfg: &FleetConfig, shard: u32) -> Vec<Arrival> {
    let mut events = Vec::new();
    for tenant in
        (0..u64::from(cfg.tenants)).filter(|t| t % u64::from(cfg.shards) == u64::from(shard))
    {
        let mut rng = TestRng::from_seed(cfg.seed ^ splitmix64(tenant));
        let mut at = 0u64;
        for k in 0..u64::from(cfg.requests_per_tenant) {
            at += exp_interarrival(&mut rng, cfg.mean_interarrival_cycles);
            events.push(Arrival { arrival: at, tenant, k });
        }
    }
    events.sort_unstable();
    events
}

/// Boots shard `shard`'s CVM, replays its arrival schedule under virtual
/// time, and returns the self-contained report.
///
/// # Panics
///
/// On boot or syscall failure — a shard that cannot serve its tenants is
/// a harness bug, not a measurement.
pub fn run_shard(cfg: &FleetConfig, shard: u32) -> ShardReport {
    let mut cvm = CvmBuilder::new()
        .frames(cfg.frames)
        .vcpus(1)
        .log_frames(cfg.log_frames)
        .trace(true)
        .metrics(true)
        .batch(true)
        .shard(shard)
        .build()
        .expect("shard boot");
    cvm.kernel.audit.mode = veil_os::audit::AuditMode::VeilLog;
    cvm.kernel.audit.rules = veil_os::audit::paper_ruleset();
    cvm.kernel.audit.rules.insert(veil_os::syscall::Sysno::Pwrite64);
    cvm.kernel.audit.rules.insert(veil_os::syscall::Sysno::Pread64);
    // Shard identity rides in the export as a gauge: the snapshot format
    // (golden-pinned) is unchanged, the *data* says which shard this is.
    cvm.hv
        .machine
        .metrics_mut()
        .set_gauge(Key::new("fleet_shard", DOMAIN_NONE, "id"), u64::from(shard));
    let pid = cvm.spawn();

    let events = arrival_schedule(cfg, shard);
    let locals: Vec<u64> = (0..u64::from(cfg.tenants))
        .filter(|t| t % u64::from(cfg.shards) == u64::from(shard))
        .collect();

    // Session setup (uncounted warm-up, like memaslap's populate phase).
    let mut sessions: std::collections::BTreeMap<u64, TenantSession> =
        std::collections::BTreeMap::new();
    for &tenant in &locals {
        let mut sys = cvm.sys(pid);
        let session = TenantSession::open(&mut sys, cfg.kind, tenant).expect("session open");
        sessions.insert(tenant, session);
    }

    let switches_before = cvm.hv.stats().domain_switches;
    let doorbells_before = cvm.hv.stats().doorbells;
    let requests_before = cvm.gate.gate_requests();

    // The causal fold is driven *incrementally* off the ring buffer
    // (between requests, while every record since the last drain is
    // still resident) so long runs that wrap the ring lose no records.
    let mut fold = CausalFold::new();
    let mut folded_seq = 0u64;
    for r in cvm.hv.machine.tracer().records_since(folded_seq) {
        fold.observe(r);
    }
    folded_seq = cvm.hv.machine.tracer().next_seq();

    let mut vclock = 0u64;
    let mut service_cycles = 0u64;
    let mut ops = 0u64;
    let mut slo = SloReport::new(cfg.kind.slo_cycles());
    let latency_key = Key::new("fleet_latency_cycles", DOMAIN_NONE, cfg.kind.label());
    for ev in &events {
        let start = ev.arrival.max(vclock);
        // Stamp the request id into the gate (ring slots it occupies
        // carry it) and open the dispatch window in the trace stream.
        cvm.gate.set_req_context(ev.tenant, ev.k);
        cvm.hv.machine.trace_event(Event::ReqDispatch {
            tenant: ev.tenant,
            req: ev.k,
            arrival: ev.arrival,
            start,
        });
        let before = cvm.hv.machine.cycles().total();
        {
            let mut sys = cvm.sys(pid);
            let session = sessions.get_mut(&ev.tenant).expect("session");
            session.run_request(&mut sys, ev.k).expect("request");
        }
        let service = cvm.hv.machine.cycles().total() - before;
        cvm.hv.machine.trace_event(Event::ReqComplete { tenant: ev.tenant, req: ev.k });
        let completion = start + service;
        vclock = completion;
        service_cycles += service;
        ops += 1;
        let latency = completion - ev.arrival;
        cvm.hv.machine.metrics_mut().record_hist(latency_key, latency);
        slo.observe(ev.tenant, latency);
        for r in cvm.hv.machine.tracer().records_since(folded_seq) {
            fold.observe(r);
        }
        folded_seq = cvm.hv.machine.tracer().next_seq();
    }

    // Teardown: close every session, then drain the gate ring so the
    // trace and the LOG store are complete before digesting.
    let mut checksum = 0u64;
    let mut bytes = 0u64;
    for &tenant in &locals {
        let mut sys = cvm.sys(pid);
        let session = sessions.get_mut(&tenant).expect("session");
        session.close(&mut sys).expect("session close");
        checksum = fnv1a(checksum, &session.checksum.to_le_bytes());
        bytes += session.bytes;
    }
    cvm.flush_gate().expect("flush");
    for r in cvm.hv.machine.tracer().records_since(folded_seq) {
        fold.observe(r);
    }

    // Fetch the metrics snapshot through the veilstat *gate service*:
    // the untrusted kernel asks, the trusted side answers over the full
    // §4 request path. This is the observability plane observing itself.
    let stat_snapshot = match cvm.gate.request(&mut cvm.hv, 0, MonRequest::StatSnapshot) {
        Ok(MonResponse::Bytes(bytes)) => String::from_utf8(bytes).expect("snapshot utf8"),
        other => panic!("veilstat snapshot failed: {other:?}"),
    };

    ShardReport {
        shard,
        tenants: locals.len() as u32,
        ops,
        bytes,
        checksum,
        service_cycles,
        makespan_cycles: vclock,
        latency: cvm.metrics().merged_histogram("fleet_latency_cycles"),
        gate_requests: cvm.gate.gate_requests() - requests_before,
        doorbells: cvm.hv.stats().doorbells - doorbells_before,
        domain_switches: cvm.hv.stats().domain_switches - switches_before,
        audit_failures: cvm.kernel.audit_failures,
        trace_digest_hex: cvm.trace_digest_hex(),
        metrics_snapshot: cvm.metrics_snapshot(),
        metrics_digest_hex: cvm.metrics_digest_hex(),
        attribution: fold.attribution(),
        unmatched_completes: fold.unmatched_completes,
        paths: fold.paths().to_vec(),
        slo,
        stat_snapshot,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veil_workloads::tenant::TenantKind;

    fn small_cfg() -> FleetConfig {
        FleetConfig {
            seed: 0xfee7,
            tenants: 8,
            shards: 2,
            workers: 1,
            requests_per_tenant: 6,
            mean_interarrival_cycles: 500_000,
            kind: TenantKind::Kvstore,
            frames: 4096,
            log_frames: 512,
        }
    }

    #[test]
    fn shard_replays_bit_identically() {
        let cfg = small_cfg();
        let a = run_shard(&cfg, 0);
        let b = run_shard(&cfg, 0);
        assert_eq!(a.trace_digest_hex, b.trace_digest_hex);
        assert_eq!(a.metrics_snapshot, b.metrics_snapshot);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.makespan_cycles, b.makespan_cycles);
    }

    #[test]
    fn shards_partition_tenants_and_diverge() {
        let cfg = small_cfg();
        let s0 = run_shard(&cfg, 0);
        let s1 = run_shard(&cfg, 1);
        assert_eq!(s0.tenants + s1.tenants, cfg.tenants);
        assert_eq!(s0.ops + s1.ops, u64::from(cfg.tenants) * u64::from(cfg.requests_per_tenant));
        assert_ne!(s0.trace_digest_hex, s1.trace_digest_hex, "different tenants, different trace");
        assert_eq!(s0.audit_failures, 0);
        assert_eq!(s1.audit_failures, 0);
    }

    #[test]
    fn arrivals_are_sorted_and_seed_sensitive() {
        let cfg = small_cfg();
        let a = arrival_schedule(&cfg, 0);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(a.len(), 4 * 6, "4 local tenants x 6 requests");
        let mut cfg2 = small_cfg();
        cfg2.seed ^= 1;
        assert_ne!(arrival_schedule(&cfg2, 0), a);
    }

    #[test]
    fn critical_paths_decompose_latency_exactly() {
        let cfg = small_cfg();
        let r = run_shard(&cfg, 0);
        assert_eq!(r.paths.len() as u64, r.ops, "every request yields a path");
        assert_eq!(r.unmatched_completes, 0);
        for p in &r.paths {
            assert_eq!(
                p.queue_wait + p.batch_stall + p.relay + p.service,
                p.end_to_end(),
                "tenant {} req {}: components must partition e2e exactly",
                p.tenant,
                p.req
            );
        }
        // The attribution's total is the histogram's total latency: the
        // decomposition loses nothing against the latency the fleet
        // already reports.
        assert_eq!(r.attribution.total(), r.latency.sum());
        assert_eq!(r.attribution.requests, r.ops);
        assert_eq!(r.slo.requests(), r.ops);
        // The batched gate ran, so some cycles must be attributed to
        // relay (doorbell drains are hypervisor-relayed).
        assert!(r.attribution.relay > 0, "relay cycles must show up");
        // The gate-served veilstat snapshot carries this shard's id.
        assert!(r.stat_snapshot.contains("\"fleet_shard\""), "veilstat snapshot");
    }

    #[test]
    fn latency_includes_queueing_under_overload() {
        let mut cfg = small_cfg();
        // Arrivals far faster than service: the queue builds and the
        // tail latency must dwarf any single service time.
        cfg.mean_interarrival_cycles = 1_000;
        let r = run_shard(&cfg, 0);
        assert_eq!(r.latency.count(), r.ops);
        assert!(
            r.latency.percentile(99.0) > 10 * r.latency.percentile(1.0),
            "p99 {} should dwarf p1 {} under overload",
            r.latency.percentile(99.0),
            r.latency.percentile(1.0)
        );
    }
}
