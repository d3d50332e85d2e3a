//! Per-tenant SLO accounting: burn-rate counters and a deterministic
//! top-K offender tracker.
//!
//! Every completed request folds its end-to-end latency into its
//! tenant's [`TenantSlo`]: a request count, a breach counter against the
//! workload's [`TenantKind::slo_cycles`] threshold, and the worst
//! latency seen. The per-shard [`SloReport`]s merge
//! commutatively (`BTreeMap` keyed by tenant id), so the fleet-wide
//! report is bit-identical at any worker count — the same property the
//! trace digests pin.
//!
//! Burn rate follows the SRE convention: the SLO budgets
//! [`ERROR_BUDGET`] of requests over threshold; `burn_rate()` is the
//! observed breach fraction divided by that budget. 1.0 means the
//! budget is being consumed exactly as provisioned; 10.0 means ten
//! times too fast.
//!
//! [`TenantKind::slo_cycles`]: veil_workloads::tenant::TenantKind::slo_cycles

use std::collections::BTreeMap;

/// Fraction of requests the SLO allows over threshold (99% target).
pub const ERROR_BUDGET: f64 = 0.01;

/// One tenant's SLO ledger: request, breach and worst-case counters.
#[derive(Debug, Clone, Default)]
pub struct TenantSlo {
    /// Requests observed.
    pub requests: u64,
    /// Requests over the SLO threshold.
    pub breaches: u64,
    /// Worst end-to-end latency seen, in cycles.
    pub worst_cycles: u64,
}

impl TenantSlo {
    fn observe(&mut self, latency: u64, slo_cycles: u64) {
        self.requests += 1;
        if latency > slo_cycles {
            self.breaches += 1;
        }
        self.worst_cycles = self.worst_cycles.max(latency);
    }

    fn merge(&mut self, other: &TenantSlo) {
        self.requests += other.requests;
        self.breaches += other.breaches;
        self.worst_cycles = self.worst_cycles.max(other.worst_cycles);
    }
}

/// One row of the deterministic top-K offender table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Offender {
    /// The tenant.
    pub tenant: u64,
    /// Requests the tenant issued.
    pub requests: u64,
    /// Requests over the SLO threshold.
    pub breaches: u64,
    /// Worst end-to-end latency, in cycles.
    pub worst_cycles: u64,
}

/// Per-tenant SLO ledgers for one shard (or, after merging, a fleet).
#[derive(Debug, Clone)]
pub struct SloReport {
    /// The SLO threshold every tenant is held to, in cycles.
    pub slo_cycles: u64,
    /// Ledgers keyed by tenant id (deterministic iteration order).
    pub tenants: BTreeMap<u64, TenantSlo>,
}

impl SloReport {
    /// An empty report holding tenants to `slo_cycles`.
    pub fn new(slo_cycles: u64) -> Self {
        SloReport { slo_cycles, tenants: BTreeMap::new() }
    }

    /// Folds one completed request in.
    pub fn observe(&mut self, tenant: u64, latency: u64) {
        self.tenants.entry(tenant).or_default().observe(latency, self.slo_cycles);
    }

    /// Merges another report in (commutative; thresholds must match —
    /// shards of one fleet share the workload profile).
    pub fn merge(&mut self, other: &SloReport) {
        debug_assert_eq!(self.slo_cycles, other.slo_cycles, "merging mismatched SLOs");
        for (&tenant, slo) in &other.tenants {
            self.tenants.entry(tenant).or_default().merge(slo);
        }
    }

    /// Requests observed across all tenants.
    pub fn requests(&self) -> u64 {
        self.tenants.values().map(|t| t.requests).sum()
    }

    /// Breaches across all tenants.
    pub fn breaches(&self) -> u64 {
        self.tenants.values().map(|t| t.breaches).sum()
    }

    /// Observed breach fraction divided by [`ERROR_BUDGET`]: 1.0 burns
    /// the budget exactly as provisioned, above 1.0 burns it faster.
    /// 0.0 when no requests were observed.
    pub fn burn_rate(&self) -> f64 {
        let requests = self.requests();
        if requests == 0 {
            return 0.0;
        }
        (self.breaches() as f64 / requests as f64) / ERROR_BUDGET
    }

    /// The `k` worst tenants by breach count, ties broken by worst
    /// latency (desc) then tenant id (asc) — a total, deterministic
    /// order, so the table is bit-stable across worker counts.
    pub fn top_offenders(&self, k: usize) -> Vec<Offender> {
        let mut rows: Vec<Offender> = self
            .tenants
            .iter()
            .map(|(&tenant, t)| Offender {
                tenant,
                requests: t.requests,
                breaches: t.breaches,
                worst_cycles: t.worst_cycles,
            })
            .collect();
        rows.sort_by(|a, b| {
            b.breaches
                .cmp(&a.breaches)
                .then(b.worst_cycles.cmp(&a.worst_cycles))
                .then(a.tenant.cmp(&b.tenant))
        });
        rows.truncate(k);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_counts_breaches_against_threshold() {
        let mut r = SloReport::new(100);
        r.observe(7, 50);
        r.observe(7, 100); // at threshold: not a breach
        r.observe(7, 101);
        r.observe(9, 500);
        assert_eq!(r.requests(), 4);
        assert_eq!(r.breaches(), 2);
        let t7 = &r.tenants[&7];
        assert_eq!((t7.requests, t7.breaches, t7.worst_cycles), (3, 1, 101));
    }

    #[test]
    fn burn_rate_scales_with_breach_fraction() {
        let mut r = SloReport::new(100);
        for _ in 0..99 {
            r.observe(1, 10);
        }
        r.observe(1, 1000);
        // 1 breach in 100 requests = exactly the 1% budget.
        assert!((r.burn_rate() - 1.0).abs() < 1e-9, "{}", r.burn_rate());
        assert_eq!(SloReport::new(100).burn_rate(), 0.0);
    }

    #[test]
    fn merge_is_commutative_and_totals_add() {
        let mut a = SloReport::new(100);
        a.observe(1, 50);
        a.observe(2, 200);
        let mut b = SloReport::new(100);
        b.observe(2, 300);
        b.observe(3, 400);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.requests(), 4);
        assert_eq!(ab.breaches(), 3);
        assert_eq!(ab.requests(), ba.requests());
        assert_eq!(ab.breaches(), ba.breaches());
        assert_eq!(ab.tenants[&2].requests, 2);
        assert_eq!(ab.tenants[&2].worst_cycles, ba.tenants[&2].worst_cycles);
    }

    #[test]
    fn top_offenders_order_is_total_and_deterministic() {
        let mut r = SloReport::new(10);
        // Tenants 5 and 3 tie on breaches and worst: id breaks the tie.
        for t in [5u64, 3, 8] {
            r.observe(t, 100);
        }
        r.observe(8, 999);
        let top = r.top_offenders(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].tenant, 8, "more breaches first");
        assert_eq!(top[1].tenant, 3, "tie on (breaches, worst): lower id first");
        assert!(r.top_offenders(10).len() == 3, "k clamps to population");
    }
}
