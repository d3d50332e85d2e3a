//! Multi-tenant fleet simulation: sharded Machines on real OS threads.
//!
//! The Fig. 5/6 benches drive **one** CVM. This crate drives a *fleet*:
//! N fully independent shards — each a complete Veil CVM with its own
//! RMP, page tables, trace stream, and metrics registry — serve
//! thousands of simulated tenants, multiplexed by a deterministic
//! virtual-time event loop and executed by a work-stealing scheduler
//! over real OS worker threads.
//!
//! The load is open-loop: tenants emit Poisson-style arrival streams
//! from seeded DRBGs, independent of service speed, so overload behaves
//! like overload (queueing shows up in the latency tail) instead of the
//! closed-loop self-throttling a call-and-wait driver would exhibit.
//!
//! Determinism is the design center. A shard's execution is a pure
//! function of `(config, shard id)`; worker threads only decide *when*
//! shards run. Hence a given seed yields a bit-identical
//! [`report::FleetReport::merged_digest_hex`] at **any** worker count —
//! which `tests/fleet_determinism.rs` pins — while wall-clock still
//! benefits from real parallelism on multi-core hosts.
//!
//! Module map:
//!
//! * [`sched`] — the work-stealing scheduler (per-worker deques, seeded
//!   steal order, results in submission order);
//! * [`shard`] — one shard's virtual-time event loop and
//!   [`shard::ShardReport`];
//! * [`report`] — fleet execution and the order-fixed merge, including
//!   critical-path attribution and the above-p99 tail breakdown;
//! * [`slo`] — per-tenant SLO ledgers: bounded latency sketches,
//!   burn-rate counters, deterministic top-K offenders;
//! * [`top`] — the `veiltop` console renderer over veilstat
//!   gate-service snapshots.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod sched;
pub mod shard;
pub mod slo;
pub mod top;

pub use report::{run_fleet, FleetReport, TailAttribution};
pub use sched::{run_tasks, run_tasks_with_stats, SchedStats};
pub use shard::{run_shard, ShardReport};
pub use slo::{Offender, SloReport, TenantSlo};
pub use veil_snp::trace::{Attribution, Component, ReqPath};
pub use veil_workloads::tenant::TenantKind;

/// Everything that parameterizes one fleet run. Two equal configs
/// produce bit-identical [`FleetReport`] digests on the same build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Master seed: arrival streams and steal order derive from it.
    pub seed: u64,
    /// Simulated tenants across the whole fleet.
    pub tenants: u32,
    /// Independent CVM shards; tenant `t` lives on shard `t % shards`.
    pub shards: u32,
    /// OS worker threads executing shards (clamped to at least 1).
    pub workers: usize,
    /// Requests each tenant issues.
    pub requests_per_tenant: u32,
    /// Mean of the exponential interarrival draw, in model cycles.
    pub mean_interarrival_cycles: u64,
    /// Which request profile every tenant runs.
    pub kind: TenantKind,
    /// Guest memory per shard, in frames.
    pub frames: u64,
    /// VeilS-LOG storage per shard, in frames.
    pub log_frames: u64,
}

impl Default for FleetConfig {
    /// A small smoke-scale fleet; benches override nearly everything.
    fn default() -> Self {
        FleetConfig {
            seed: 0x5eed,
            tenants: 64,
            shards: 4,
            workers: 1,
            requests_per_tenant: 8,
            mean_interarrival_cycles: 1_000_000,
            kind: TenantKind::Http,
            frames: 4096,
            log_frames: 512,
        }
    }
}

// The scheduler moves configs into worker closures by reference; the
// whole config must cross thread boundaries.
const _: () = {
    const fn assert_send<T: Send + Sync>() {}
    assert_send::<FleetConfig>();
};
