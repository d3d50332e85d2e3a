//! Causal request tracing: a pure fold that reconstructs per-request
//! critical paths from the event stream.
//!
//! The fleet load generator brackets every request between an
//! [`Event::ReqDispatch`] and an [`Event::ReqComplete`] record. Inside
//! that window, every cycle the machine spends is attributed to exactly
//! one critical-path component by partitioning the intervals between
//! consecutive records:
//!
//! * **relay** — a `VMGEXIT` is open on some VCPU (the hypervisor holds
//!   the request: relayed domain switches, doorbell drains, I/O exits);
//! * **batch-stall** — no relay is open but the gate ring holds queued
//!   deferred requests (work parked behind a future doorbell);
//! * **service** — everything else: guest-side compute, syscalls, audit
//!   bookkeeping.
//!
//! The priority order (relay over batch-stall over service) makes the
//! partition total and disjoint, so for every request
//!
//! ```text
//! batch_stall + relay + service == complete_cycles - dispatch_cycles
//! ```
//!
//! holds *exactly* — no residuals, no drift. The fourth component,
//! **queue-wait**, is virtual time accrued before dispatch
//! (`start - arrival`, carried by the dispatch event itself), so
//! end-to-end latency decomposes exactly as
//! `queue_wait + batch_stall + relay + service`.
//!
//! Like [`crate::EventCounters`], the fold is a pure function of the
//! record stream: identical streams produce identical paths, so the
//! decomposition is bit-stable across scheduler worker counts and
//! mergeable in any order ([`Attribution::merge`] is commutative).

use crate::event::Event;
use crate::tracer::Record;
use std::collections::BTreeMap;

/// One critical-path component of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Component {
    /// Virtual time between arrival and dispatch (queued behind earlier
    /// requests on the shard's virtual clock).
    QueueWait,
    /// Cycles parked behind an occupied gate ring, pre-doorbell.
    BatchStall,
    /// Cycles under an open `VMGEXIT` (hypervisor-relayed switches,
    /// doorbell drains, I/O exits).
    Relay,
    /// Guest-side service cycles (compute, syscalls, audit).
    Service,
}

impl Component {
    /// All components, in display/tie-break order.
    pub const ALL: [Component; 4] =
        [Component::QueueWait, Component::BatchStall, Component::Relay, Component::Service];

    /// Stable lowercase label (JSON columns, folded-stack frames).
    pub fn label(self) -> &'static str {
        match self {
            Component::QueueWait => "queue_wait",
            Component::BatchStall => "batch_stall",
            Component::Relay => "relay",
            Component::Service => "service",
        }
    }
}

/// The reconstructed critical path of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReqPath {
    /// Tenant the request belongs to.
    pub tenant: u64,
    /// Per-tenant request sequence number.
    pub req: u64,
    /// Virtual arrival time.
    pub arrival: u64,
    /// Virtual dispatch time (`max(arrival, vclock)` at dispatch).
    pub start: u64,
    /// Queue-wait: `start - arrival` virtual cycles.
    pub queue_wait: u64,
    /// Batch-stall cycles inside the dispatch window.
    pub batch_stall: u64,
    /// Relay cycles inside the dispatch window.
    pub relay: u64,
    /// Service cycles inside the dispatch window.
    pub service: u64,
}

impl ReqPath {
    /// Cycles spent on the CVM: the exact dispatch→complete window.
    pub fn on_cvm_cycles(&self) -> u64 {
        self.batch_stall + self.relay + self.service
    }

    /// End-to-end latency: queue-wait plus the on-CVM window. Equals the
    /// `completion - arrival` latency the fleet histogram records.
    pub fn end_to_end(&self) -> u64 {
        self.queue_wait + self.on_cvm_cycles()
    }

    /// The cycles attributed to `component`.
    pub fn component(&self, component: Component) -> u64 {
        match component {
            Component::QueueWait => self.queue_wait,
            Component::BatchStall => self.batch_stall,
            Component::Relay => self.relay,
            Component::Service => self.service,
        }
    }

    /// The component holding the most cycles (ties break in
    /// [`Component::ALL`] order, deterministically).
    pub fn dominant(&self) -> Component {
        let mut best = Component::QueueWait;
        for c in Component::ALL {
            if self.component(c) > self.component(best) {
                best = c;
            }
        }
        best
    }
}

/// Commutative per-component cycle totals over a set of request paths.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Attribution {
    /// Requests folded in.
    pub requests: u64,
    /// Total queue-wait cycles.
    pub queue_wait: u128,
    /// Total batch-stall cycles.
    pub batch_stall: u128,
    /// Total relay cycles.
    pub relay: u128,
    /// Total service cycles.
    pub service: u128,
}

impl Attribution {
    /// Folds one path in.
    pub fn add_path(&mut self, p: &ReqPath) {
        self.requests += 1;
        self.queue_wait += u128::from(p.queue_wait);
        self.batch_stall += u128::from(p.batch_stall);
        self.relay += u128::from(p.relay);
        self.service += u128::from(p.service);
    }

    /// Merges another attribution in (associative and commutative).
    pub fn merge(&mut self, other: &Attribution) {
        self.requests += other.requests;
        self.queue_wait += other.queue_wait;
        self.batch_stall += other.batch_stall;
        self.relay += other.relay;
        self.service += other.service;
    }

    /// The total cycles attributed to `component`.
    pub fn component(&self, component: Component) -> u128 {
        match component {
            Component::QueueWait => self.queue_wait,
            Component::BatchStall => self.batch_stall,
            Component::Relay => self.relay,
            Component::Service => self.service,
        }
    }

    /// Sum over all components (total end-to-end cycles).
    pub fn total(&self) -> u128 {
        self.queue_wait + self.batch_stall + self.relay + self.service
    }

    /// `component`'s share of the total, in [0, 1] (0 when empty).
    pub fn share(&self, component: Component) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.component(component) as f64 / total as f64
        }
    }
}

/// An open dispatch window being attributed.
#[derive(Debug, Clone, Copy)]
struct OpenReq {
    tenant: u64,
    req: u64,
    arrival: u64,
    start: u64,
    batch_stall: u64,
    relay: u64,
    service: u64,
}

/// The causal fold: feed it every record in stream order (or replay a
/// ring slice with [`CausalFold::from_records`]) and read back exact
/// per-request critical paths.
#[derive(Debug, Clone, Default)]
pub struct CausalFold {
    /// Completed request paths, in completion order.
    paths: Vec<ReqPath>,
    open: Option<OpenReq>,
    last_cycles: u64,
    /// Gate-ring occupancy after the last ring event.
    ring_depth: u32,
    /// Open `VMGEXIT` per VCPU (`true` = automatic exit). Any open
    /// non-automatic exit puts the stream in relay state.
    pending_exit: BTreeMap<u32, bool>,
    /// `ReqComplete` records with no matching open window.
    pub unmatched_completes: u64,
    /// Dispatch windows abandoned by a second dispatch or a mismatched
    /// completion (0 on every honest stream).
    pub dropped_opens: u64,
}

impl CausalFold {
    /// An empty fold.
    pub fn new() -> Self {
        CausalFold::default()
    }

    /// Replays a record slice into a fresh fold.
    pub fn from_records(records: &[Record]) -> CausalFold {
        let mut fold = CausalFold::new();
        for r in records {
            fold.observe(r);
        }
        fold
    }

    /// Folds one record in. Records must arrive in stream order (the
    /// trace invariant checker guarantees monotone cycles).
    pub fn observe(&mut self, record: &Record) {
        // Attribute the interval since the previous record under the
        // state that governed it, *before* applying this record's
        // transition.
        let delta = record.cycles.saturating_sub(self.last_cycles);
        if let Some(open) = &mut self.open {
            if self.pending_exit.values().any(|&automatic| !automatic) {
                open.relay += delta;
            } else if self.ring_depth > 0 {
                open.batch_stall += delta;
            } else {
                open.service += delta;
            }
        }
        self.last_cycles = record.cycles;

        match record.event {
            Event::VmgExit { vcpu, automatic, .. } => {
                self.pending_exit.insert(vcpu, automatic);
            }
            Event::VmEnter { vcpu, .. } => {
                self.pending_exit.remove(&vcpu);
            }
            Event::RingEnqueue { depth, .. } => self.ring_depth = depth,
            // The doorbell's drain empties the ring; the drain itself
            // runs under the doorbell's own relay bracket.
            Event::Doorbell { .. } => self.ring_depth = 0,
            // A voided batch abandons its ring entries; the gate resets
            // the ring before the next enqueue.
            Event::DeferredError { .. } => self.ring_depth = 0,
            Event::ReqDispatch { tenant, req, arrival, start } => {
                if self.open.is_some() {
                    self.dropped_opens += 1;
                }
                self.open = Some(OpenReq {
                    tenant,
                    req,
                    arrival,
                    start,
                    batch_stall: 0,
                    relay: 0,
                    service: 0,
                });
            }
            Event::ReqComplete { tenant, req } => match self.open.take() {
                Some(o) if o.tenant == tenant && o.req == req => self.paths.push(ReqPath {
                    tenant,
                    req,
                    arrival: o.arrival,
                    start: o.start,
                    queue_wait: o.start.saturating_sub(o.arrival),
                    batch_stall: o.batch_stall,
                    relay: o.relay,
                    service: o.service,
                }),
                Some(_) => {
                    self.dropped_opens += 1;
                    self.unmatched_completes += 1;
                }
                None => self.unmatched_completes += 1,
            },
            _ => {}
        }
    }

    /// Completed request paths, in completion order.
    pub fn paths(&self) -> &[ReqPath] {
        &self.paths
    }

    /// Per-component totals over every completed path.
    pub fn attribution(&self) -> Attribution {
        let mut a = Attribution::default();
        for p in &self.paths {
            a.add_path(p);
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::exit_code;

    fn rec(seq: u64, cycles: u64, event: Event) -> Record {
        Record { seq, cycles, event }
    }

    /// One request window: dispatch at 1000, a serial exit/enter pair
    /// (relay 7135), guest compute to 20_000, complete.
    fn simple_window() -> Vec<Record> {
        vec![
            rec(0, 1000, Event::ReqDispatch { tenant: 4, req: 7, arrival: 400, start: 900 }),
            rec(
                1,
                2000,
                Event::VmgExit {
                    vcpu: 0,
                    vmpl: 3,
                    code: exit_code::DOMAIN_SWITCH,
                    user_ghcb: false,
                    automatic: false,
                },
            ),
            rec(2, 9135, Event::VmEnter { vcpu: 0, vmpl: 0 }),
            rec(3, 20_000, Event::ReqComplete { tenant: 4, req: 7 }),
        ]
    }

    #[test]
    fn decomposition_is_exact_and_disjoint() {
        let fold = CausalFold::from_records(&simple_window());
        assert_eq!(fold.paths().len(), 1);
        let p = fold.paths()[0];
        assert_eq!(p.queue_wait, 500, "start - arrival");
        assert_eq!(p.relay, 7135, "exit→enter bracket");
        assert_eq!(p.batch_stall, 0);
        assert_eq!(p.service, 19_000 - 7135, "everything else in the window");
        assert_eq!(p.on_cvm_cycles(), 19_000, "exact window, no residual");
        assert_eq!(p.end_to_end(), 19_500);
        assert_eq!(fold.unmatched_completes, 0);
        assert_eq!(fold.dropped_opens, 0);
    }

    #[test]
    fn ring_occupancy_attributes_batch_stall_until_doorbell() {
        let fold = CausalFold::from_records(&[
            rec(0, 0, Event::ReqDispatch { tenant: 1, req: 0, arrival: 0, start: 0 }),
            // Enqueue at 100: ring becomes occupied.
            rec(1, 100, Event::RingEnqueue { vcpu: 0, target: 1, depth: 1, tenant: 1, req: 0 }),
            // 100..300 elapses with the ring occupied: batch-stall.
            rec(
                2,
                300,
                Event::VmgExit {
                    vcpu: 0,
                    vmpl: 3,
                    code: exit_code::DOORBELL,
                    user_ghcb: false,
                    automatic: false,
                },
            ),
            // Doorbell drains under the relay bracket.
            rec(3, 300, Event::Doorbell { vcpu: 0, target: 1, depth: 1 }),
            rec(4, 7435, Event::VmEnter { vcpu: 0, vmpl: 3 }),
            rec(5, 8000, Event::ReqComplete { tenant: 1, req: 0 }),
        ]);
        let p = fold.paths()[0];
        assert_eq!(p.batch_stall, 200, "ring residency before the doorbell exit");
        assert_eq!(p.relay, 7135);
        assert_eq!(p.service, 100 + 565, "pre-enqueue + post-drain");
        assert_eq!(p.on_cvm_cycles(), 8000);
    }

    #[test]
    fn ring_occupancy_persists_across_windows() {
        // Request 0 leaves an entry in the ring; request 1's whole
        // window is then batch-stall until a doorbell clears it.
        let fold = CausalFold::from_records(&[
            rec(0, 0, Event::ReqDispatch { tenant: 1, req: 0, arrival: 0, start: 0 }),
            rec(1, 10, Event::RingEnqueue { vcpu: 0, target: 1, depth: 1, tenant: 1, req: 0 }),
            rec(2, 50, Event::ReqComplete { tenant: 1, req: 0 }),
            rec(3, 60, Event::ReqDispatch { tenant: 1, req: 1, arrival: 60, start: 60 }),
            rec(4, 160, Event::ReqComplete { tenant: 1, req: 1 }),
        ]);
        assert_eq!(fold.paths()[0].batch_stall, 40);
        assert_eq!(fold.paths()[1].batch_stall, 100, "stall carried across windows");
        assert_eq!(fold.paths()[1].service, 0);
    }

    #[test]
    fn deferred_error_clears_ring_state() {
        let fold = CausalFold::from_records(&[
            rec(0, 0, Event::ReqDispatch { tenant: 2, req: 0, arrival: 0, start: 0 }),
            rec(1, 10, Event::RingEnqueue { vcpu: 0, target: 1, depth: 3, tenant: 2, req: 0 }),
            rec(2, 20, Event::DeferredError { vcpu: 0, count: 3 }),
            rec(3, 120, Event::ReqComplete { tenant: 2, req: 0 }),
        ]);
        let p = fold.paths()[0];
        assert_eq!(p.batch_stall, 10, "only the live ring interval");
        assert_eq!(p.service, 110, "post-void time is service again");
    }

    #[test]
    fn unmatched_and_mismatched_windows_are_counted_not_paths() {
        let mut fold = CausalFold::new();
        fold.observe(&rec(0, 10, Event::ReqComplete { tenant: 1, req: 1 }));
        assert_eq!(fold.unmatched_completes, 1);
        fold.observe(&rec(1, 20, Event::ReqDispatch { tenant: 1, req: 2, arrival: 0, start: 0 }));
        fold.observe(&rec(2, 30, Event::ReqComplete { tenant: 9, req: 9 }));
        assert_eq!(fold.unmatched_completes, 2);
        assert_eq!(fold.dropped_opens, 1);
        assert!(fold.paths().is_empty());
    }

    #[test]
    fn attribution_merge_is_commutative() {
        let fold = CausalFold::from_records(&simple_window());
        let a = fold.attribution();
        let mut b = Attribution::default();
        b.add_path(&ReqPath {
            tenant: 0,
            req: 0,
            arrival: 0,
            start: 10,
            queue_wait: 10,
            batch_stall: 3,
            relay: 4,
            service: 5,
        });
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.requests, 2);
        assert_eq!(ab.total(), a.total() + b.total());
    }

    #[test]
    fn dominant_component_breaks_ties_deterministically() {
        let p = ReqPath {
            tenant: 0,
            req: 0,
            arrival: 0,
            start: 0,
            queue_wait: 5,
            batch_stall: 5,
            relay: 5,
            service: 5,
        };
        assert_eq!(p.dominant(), Component::QueueWait, "ALL-order tie break");
        let p2 = ReqPath { relay: 6, ..p };
        assert_eq!(p2.dominant(), Component::Relay);
    }

    #[test]
    fn component_labels_are_stable() {
        let labels: Vec<&str> = Component::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels, vec!["queue_wait", "batch_stall", "relay", "service"]);
    }
}
