//! The deterministic metrics registry: counters, gauges, and cycle
//! histograms keyed by `(metric, domain, op)`, fed from the same event
//! stream as the [`veil_trace::Tracer`] so derived counters can never
//! drift from the trace.
//!
//! Each series kind is a key-ordered index (`BTreeMap<Key, slot>`) over a
//! `Vec` of values. Exporters walk the index, so their bytes depend only
//! on the key set and the values, never on slot numbers or on the order
//! in which series were first seen. The hot path,
//! [`MetricsRegistry::observe_event`], skips the index: a fixed table
//! indexed by event tag, exit-code label and domain remembers each
//! event-derived series' slot after its first lookup, so a steady-state
//! event costs array loads, not string-keyed tree walks.

use crate::hist::Histogram;
use std::collections::BTreeMap;
use veil_trace::{exit_code, Event, EventCounters};

/// Domain value used when a metric is not attributable to a VMPL.
pub const DOMAIN_NONE: u8 = 0xff;

/// Stable label for a domain value (`vmpl0`..`vmpl3`, `all` for
/// [`DOMAIN_NONE`], `unknown` otherwise).
pub fn domain_label(domain: u8) -> &'static str {
    ["vmpl0", "vmpl1", "vmpl2", "vmpl3", "all", "unknown"][domain_label_index(domain)]
}

/// Stable label for a `VMGEXIT` exit code, used as the `op` dimension of
/// relay metrics.
pub fn exit_code_label(code: u64) -> &'static str {
    EXIT_CODE_LABELS[exit_code_index(code)]
}

/// The labels [`exit_code_label`] can return, indexed by
/// [`exit_code_index`].
const EXIT_CODE_LABELS: [&str; 10] = [
    "io",
    "msr",
    "page_state_change",
    "domain_switch",
    "create_vcpu",
    "doorbell",
    "shutdown",
    "automatic",
    "unknown",
    "other",
];

fn exit_code_index(code: u64) -> usize {
    match code {
        exit_code::IO => 0,
        exit_code::MSR => 1,
        exit_code::PAGE_STATE_CHANGE => 2,
        exit_code::DOMAIN_SWITCH => 3,
        exit_code::CREATE_VCPU => 4,
        exit_code::DOORBELL => 5,
        exit_code::SHUTDOWN => 6,
        exit_code::AUTOMATIC => 7,
        exit_code::UNKNOWN => 8,
        _ => 9,
    }
}

/// Domains with a slot-table row: VMPL 0–3 and [`DOMAIN_NONE`]. Any
/// other domain value resolves its series through the key index.
const TABLE_DOMAINS: usize = 5;

fn domain_row(domain: u8) -> Option<usize> {
    match domain {
        0..=3 => Some(usize::from(domain)),
        DOMAIN_NONE => Some(4),
        _ => None,
    }
}

/// The index of [`domain_label`]: VMPL 0–3, `all`, then `unknown`.
fn domain_label_index(domain: u8) -> usize {
    domain_row(domain).unwrap_or(TABLE_DOMAINS)
}

/// A metric series key: metric name plus the `(domain, op)` label pair.
/// `BTreeMap` ordering over this key is what makes every export
/// deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    /// Metric name (e.g. `events_total`, `relay_cycles`).
    pub metric: &'static str,
    /// Attributed domain ([`DOMAIN_NONE`] when not applicable).
    pub domain: u8,
    /// Operation label (empty when not applicable).
    pub op: &'static str,
}

impl Key {
    /// Builds a key.
    pub fn new(metric: &'static str, domain: u8, op: &'static str) -> Key {
        Key { metric, domain, op }
    }
}

/// One series kind: a key-ordered index over slot-addressed values. A
/// slot, once handed out, names the same key for the series' lifetime.
#[derive(Debug, Clone, Default)]
struct Series<V> {
    index: BTreeMap<Key, u32>,
    values: Vec<V>,
}

impl<V: Default> Series<V> {
    /// The slot of `key`, creating the series (at `V::default()`) if new.
    fn slot(&mut self, key: Key) -> u32 {
        let next = u32::try_from(self.values.len()).expect("fewer than 2^32 series");
        let slot = *self.index.entry(key).or_insert(next);
        if slot == next {
            self.values.push(V::default());
        }
        slot
    }

    /// The value of `key`, reached through the table cell `cell` when the
    /// caller has one: the cached slot if the cell is filled, else an
    /// index lookup that fills it.
    #[inline]
    fn value_mut(&mut self, cell: Option<&mut Option<u32>>, key: Key) -> &mut V {
        let slot = match cell {
            Some(&mut Some(slot)) => slot,
            cell => self.resolve(cell, key),
        };
        &mut self.values[slot as usize]
    }

    /// The index lookup behind [`Series::value_mut`], kept out of line so
    /// the cached path stays small.
    #[cold]
    fn resolve(&mut self, cell: Option<&mut Option<u32>>, key: Key) -> u32 {
        let slot = self.slot(key);
        if let Some(cell) = cell {
            *cell = Some(slot);
        }
        slot
    }

    fn get(&self, key: &Key) -> Option<&V> {
        self.index.get(key).map(|&s| &self.values[s as usize])
    }

    fn iter(&self) -> impl Iterator<Item = (&Key, &V)> {
        self.index.iter().map(|(k, &s)| (k, &self.values[s as usize]))
    }

    fn is_empty(&self) -> bool {
        self.index.is_empty()
    }
}

/// [`Event::tag`] values are dense over `0..EVENT_TAGS` (pinned by
/// veil-trace's encoding tests).
const EVENT_TAGS: usize = 16;

/// Cached slots of the event-derived series, indexed by event tag,
/// exit-code label and domain row. Filled on first use; cleared together
/// with the series whenever recording is (re-)enabled.
#[derive(Debug, Clone, Default)]
struct SlotTable {
    /// `events_total{domain, event name}` by `[tag][domain row]`.
    events_total: [[Option<u32>; TABLE_DOMAINS]; EVENT_TAGS],
    /// `relay_cycles{vmpl, exit code label}` by `[label][domain row]`.
    relay_cycles: [[Option<u32>; TABLE_DOMAINS]; EXIT_CODE_LABELS.len()],
    /// `domain_switch_total{from, to label}` by `[from row][to label]`.
    domain_switch_total: [[Option<u32>; TABLE_DOMAINS + 1]; TABLE_DOMAINS],
    /// `ring_depth{target, doorbell|enqueue}` by `[op][domain row]`.
    ring_depth: [[Option<u32>; TABLE_DOMAINS]; 2],
    /// `cycles_total{all}`.
    cycles_total: Option<u32>,
    /// `gate_deferred_errors_total{all}`.
    deferred_errors: Option<u32>,
}

/// Deterministic metrics registry.
///
/// Each series kind keeps one key-ordered index over a `Vec` of values,
/// so iteration (and therefore every exporter) is ordered and
/// reproducible. [`MetricsRegistry::observe_event`] reaches its
/// event-derived series through a table of cached slots; caller-supplied
/// keys, and events whose domain is not VMPL 0–3 or [`DOMAIN_NONE`], go
/// through the index. The registry is runtime gated: when disabled every
/// observation method returns immediately, so the only disabled-mode
/// cost at a call site is one branch.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    enabled: bool,
    counters: Series<u64>,
    gauges: Series<u64>,
    histograms: Series<Histogram>,
    slots: SlotTable,
    /// The same fold the tracer runs, re-run here so the drift test can
    /// prove tracer, ring replay, and registry agree.
    events: EventCounters,
    /// Per-VCPU open `VMGEXIT`: (exit cycles, exiting vmpl, exit code).
    /// The delta to the next `VmEnter` on the same VCPU is the relayed
    /// round-trip cost attributed to `relay_cycles{domain, op}`.
    pending_exit: BTreeMap<u32, (u64, u8, u64)>,
}

impl MetricsRegistry {
    /// A disabled, empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Whether the registry is recording.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Enables or disables recording. Enabling **resets** all series (the
    /// same contract as `Tracer::set_enabled`), so a run that turns
    /// metrics on observes only events from that point — deterministically
    /// even if the `VEIL_METRICS` environment knob already enabled them.
    pub fn set_enabled(&mut self, enabled: bool) {
        if enabled {
            *self = MetricsRegistry::default();
        }
        self.enabled = enabled;
    }

    /// Adds `by` to the counter at `key`.
    pub fn inc_counter(&mut self, key: Key, by: u64) {
        if !self.enabled {
            return;
        }
        *self.counters.value_mut(None, key) += by;
    }

    /// Sets the gauge at `key` to `value`.
    pub fn set_gauge(&mut self, key: Key, value: u64) {
        if !self.enabled {
            return;
        }
        *self.gauges.value_mut(None, key) = value;
    }

    /// Records `value` into the histogram at `key`.
    pub fn record_hist(&mut self, key: Key, value: u64) {
        if !self.enabled {
            return;
        }
        self.histograms.value_mut(None, key).record(value);
    }

    /// Folds one trace event, stamped at virtual-cycle time `cycles`, into
    /// the registry: the embedded [`EventCounters`], a per-`(domain, op)`
    /// event counter, and the derived relay-latency histograms. One
    /// inlined branch when disabled; the collection runs out of line.
    #[inline]
    pub fn observe_event(&mut self, cycles: u64, event: &Event) {
        if self.enabled {
            self.observe_enabled(cycles, event);
        }
    }

    /// [`MetricsRegistry::observe_event`] on an enabled registry.
    #[inline(never)]
    fn observe_enabled(&mut self, cycles: u64, event: &Event) {
        self.events.observe(event);
        let (domain, op) = event_labels(event);
        let t = &mut self.slots;
        let cell = domain_row(domain).map(|d| &mut t.events_total[usize::from(event.tag())][d]);
        *self.counters.value_mut(cell, Key::new("events_total", domain, op)) += 1;
        match *event {
            Event::VmgExit { vcpu, vmpl, code, automatic: false, .. } => {
                self.pending_exit.insert(vcpu, (cycles, vmpl, code));
            }
            Event::VmEnter { vcpu, .. } => {
                if let Some((start, vmpl, code)) = self.pending_exit.remove(&vcpu) {
                    let label = exit_code_index(code);
                    let cell = domain_row(vmpl).map(|d| &mut t.relay_cycles[label][d]);
                    let key = Key::new("relay_cycles", vmpl, EXIT_CODE_LABELS[label]);
                    self.histograms.value_mut(cell, key).record(cycles.saturating_sub(start));
                }
            }
            Event::DomainSwitch { from, to, .. } => {
                let to_label = domain_label_index(to);
                let cell = domain_row(from).map(|d| &mut t.domain_switch_total[d][to_label]);
                let key = Key::new("domain_switch_total", from, domain_label(to));
                *self.counters.value_mut(cell, key) += 1;
            }
            Event::Doorbell { target, depth, .. } => {
                let cell = domain_row(target).map(|d| &mut t.ring_depth[0][d]);
                let key = Key::new("ring_depth", target, "doorbell");
                self.histograms.value_mut(cell, key).record(u64::from(depth));
            }
            Event::RingEnqueue { target, depth, .. } => {
                let cell = domain_row(target).map(|d| &mut t.ring_depth[1][d]);
                let key = Key::new("ring_depth", target, "enqueue");
                self.histograms.value_mut(cell, key).record(u64::from(depth));
            }
            Event::DeferredError { count, .. } => {
                let key = Key::new("gate_deferred_errors_total", DOMAIN_NONE, "");
                *self.counters.value_mut(Some(&mut t.deferred_errors), key) += u64::from(count);
            }
            _ => {}
        }
        let key = Key::new("cycles_total", DOMAIN_NONE, "");
        *self.gauges.value_mut(Some(&mut t.cycles_total), key) = cycles;
    }

    /// The registry's own event fold (the drift test compares this against
    /// `Tracer::counters()` and a ring replay).
    pub fn event_counters(&self) -> &EventCounters {
        &self.events
    }

    /// Counter series in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&Key, u64)> {
        self.counters.iter().map(|(k, &v)| (k, v))
    }

    /// Gauge series in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&Key, u64)> {
        self.gauges.iter().map(|(k, &v)| (k, v))
    }

    /// Histogram series in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&Key, &Histogram)> {
        self.histograms.iter()
    }

    /// The histogram at `key`, if any sample was recorded.
    pub fn histogram(&self, key: &Key) -> Option<&Histogram> {
        self.histograms.get(key)
    }

    /// Merges every histogram series named `metric` (across all domain/op
    /// labels) into one. Merge is associative and commutative, so the
    /// result is label-order independent.
    pub fn merged_histogram(&self, metric: &str) -> Histogram {
        let mut out = Histogram::new();
        for (k, h) in self.histograms.iter() {
            if k.metric == metric {
                out.merge(h);
            }
        }
        out
    }

    /// Whether no series has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

/// The `(domain, op)` labels of an event's `events_total` series: the
/// executing/originating VMPL where the event carries one, and the stable
/// event name as the op.
fn event_labels(event: &Event) -> (u8, &'static str) {
    let domain = match *event {
        Event::Pvalidate { vmpl, .. } => vmpl,
        Event::RmpAdjust { executing, .. } => executing,
        Event::VmgExit { vmpl, .. } => vmpl,
        Event::VmEnter { vmpl, .. } => vmpl,
        Event::DomainSwitch { from, .. } => from,
        Event::NestedPageFault { vmpl, .. } => vmpl,
        Event::SyscallRedirect { .. } => 2,
        Event::AuditAppend { .. } => 3,
        Event::Doorbell { target, .. } => target,
        Event::RingEnqueue { target, .. } => target,
        Event::RmpTransition { .. }
        | Event::ChannelHandshake { .. }
        | Event::ModuleLoad { .. }
        | Event::ReqDispatch { .. }
        | Event::ReqComplete { .. }
        | Event::DeferredError { .. } => DOMAIN_NONE,
    };
    (domain, event.name())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exit_enter(reg: &mut MetricsRegistry, vcpu: u32, vmpl: u8, code: u64, t0: u64, t1: u64) {
        reg.observe_event(
            t0,
            &Event::VmgExit { vcpu, vmpl, code, user_ghcb: false, automatic: false },
        );
        reg.observe_event(t1, &Event::VmEnter { vcpu, vmpl });
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let mut reg = MetricsRegistry::new();
        reg.observe_event(5, &Event::VmEnter { vcpu: 0, vmpl: 0 });
        reg.inc_counter(Key::new("x", DOMAIN_NONE, ""), 1);
        reg.record_hist(Key::new("h", DOMAIN_NONE, ""), 7);
        assert!(reg.is_empty());
        assert_eq!(reg.event_counters(), &EventCounters::default());
    }

    #[test]
    fn enable_resets_series() {
        let mut reg = MetricsRegistry::new();
        reg.set_enabled(true);
        reg.inc_counter(Key::new("x", DOMAIN_NONE, ""), 3);
        reg.set_enabled(true);
        assert!(reg.is_empty(), "re-enable must reset");
    }

    #[test]
    fn relay_histogram_brackets_exit_to_enter_per_vcpu() {
        let mut reg = MetricsRegistry::new();
        reg.set_enabled(true);
        exit_enter(&mut reg, 0, 3, exit_code::IO, 100, 2100);
        exit_enter(&mut reg, 1, 0, exit_code::DOMAIN_SWITCH, 200, 7335);
        let io = reg.histogram(&Key::new("relay_cycles", 3, "io")).unwrap();
        assert_eq!(io.count(), 1);
        assert_eq!(io.max(), 2000);
        let ds = reg.histogram(&Key::new("relay_cycles", 0, "domain_switch")).unwrap();
        assert_eq!(ds.max(), 7135);
        // Merged view spans both series.
        assert_eq!(reg.merged_histogram("relay_cycles").count(), 2);
    }

    #[test]
    fn automatic_exits_do_not_open_a_relay_bracket() {
        let mut reg = MetricsRegistry::new();
        reg.set_enabled(true);
        reg.observe_event(
            10,
            &Event::VmgExit {
                vcpu: 0,
                vmpl: 3,
                code: exit_code::AUTOMATIC,
                user_ghcb: false,
                automatic: true,
            },
        );
        reg.observe_event(20, &Event::VmEnter { vcpu: 0, vmpl: 3 });
        assert!(reg.histogram(&Key::new("relay_cycles", 3, "automatic")).is_none());
    }

    #[test]
    fn embedded_fold_matches_a_plain_fold() {
        let events = [
            Event::ChannelHandshake { step: 0 },
            Event::DomainSwitch { vcpu: 0, from: 3, to: 2, user_ghcb: false, automatic: false },
            Event::Pvalidate { vmpl: 0, gfn: 9, validate: true },
        ];
        let mut reg = MetricsRegistry::new();
        reg.set_enabled(true);
        let mut plain = EventCounters::default();
        for (i, e) in events.iter().enumerate() {
            reg.observe_event(i as u64, e);
            plain.observe(e);
        }
        assert_eq!(reg.event_counters(), &plain);
        assert_eq!(reg.event_counters().enclave_crossings, 1);
    }

    #[test]
    fn counters_iterate_in_deterministic_key_order() {
        let mut reg = MetricsRegistry::new();
        reg.set_enabled(true);
        reg.inc_counter(Key::new("b", 1, "y"), 1);
        reg.inc_counter(Key::new("a", 2, "z"), 1);
        reg.inc_counter(Key::new("a", 0, "x"), 1);
        let names: Vec<_> = reg.counters().map(|(k, _)| (k.metric, k.domain)).collect();
        assert_eq!(names, vec![("a", 0), ("a", 2), ("b", 1)]);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(domain_label(0), "vmpl0");
        assert_eq!(domain_label(DOMAIN_NONE), "all");
        assert_eq!(domain_label(9), "unknown");
        assert_eq!(exit_code_label(exit_code::IO), "io");
        assert_eq!(exit_code_label(0xdead), "other");
    }
}
