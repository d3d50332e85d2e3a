//! The ring-buffer recorder, its always-on counter fold, and the running
//! SHA-256 trace digest.

use crate::event::{exit_code, put_leb128, Event};
use std::collections::VecDeque;
use veil_crypto::sha256::Sha256;

/// Default ring capacity in records (enough for every protocol test; long
/// bench runs wrap, with [`Tracer::dropped`] counting what fell off).
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// One recorded event: a monotonic sequence number, the virtual-cycle
/// timestamp at emission, and the event itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// Position in the stream since tracing was (re-)enabled, starting at 0.
    /// Stored for the ring's readers but not hashed: the position in the
    /// digest's input already implies it.
    pub seq: u64,
    /// `CycleAccount::total()` of the owning machine when the event fired.
    pub cycles: u64,
    /// The event.
    pub event: Event,
}

impl Record {
    /// Appends the canonical encoding to `buf`: `cycles − prev_cycles`
    /// (wrapping) as canonical unsigned LEB128, then the
    /// [`Event::encode_into`] bytes. `prev_cycles` is the previous
    /// record's `cycles`, or 0 for the first record of a stream; `seq` is
    /// not encoded. The digest is SHA-256 over the concatenation of these
    /// encodings in stream order.
    pub fn encode_into(&self, prev_cycles: u64, buf: &mut Vec<u8>) {
        put_leb128(buf, self.cycles.wrapping_sub(prev_cycles));
        self.event.encode_into(buf);
    }
}

/// Pure fold over the event stream. This runs on *every* event whether or
/// not ring recording is enabled, so statistics derived from it (the
/// hypervisor's `HvStats`) are always exact and can never drift from the
/// trace — they are the same stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounters {
    /// Guest-requested `VMGEXIT`s observed (non-automatic).
    pub vmgexits: u64,
    /// Automatic exits (interrupt injections).
    pub automatic_exits: u64,
    /// VCPU resumes.
    pub vmenters: u64,
    /// Completed domain switches.
    pub domain_switches: u64,
    /// Domain switches that crossed the enclave level (VMPL-2).
    pub enclave_crossings: u64,
    /// I/O or MSR exits serviced.
    pub io_exits: u64,
    /// Page-state changes completed through the GHCB protocol.
    pub page_state_changes: u64,
    /// Successful `PVALIDATE`s.
    pub pvalidates: u64,
    /// Successful `RMPADJUST`s.
    pub rmpadjusts: u64,
    /// RMP assignment-state transitions (assign + reclaim).
    pub rmp_transitions: u64,
    /// Nested page faults recorded.
    pub nested_page_faults: u64,
    /// Enclave syscalls redirected to the untrusted kernel.
    pub syscall_redirects: u64,
    /// Audit records appended.
    pub audit_appends: u64,
    /// Secure-channel handshake steps.
    pub handshake_steps: u64,
    /// Module loads/unloads.
    pub module_loads: u64,
    /// Doorbell rings (batched gate-ring drains).
    pub doorbells: u64,
    /// Load-generator requests dispatched (causal windows opened).
    pub req_dispatches: u64,
    /// Load-generator requests completed (causal windows closed).
    pub req_completes: u64,
    /// Fire-and-forget gate requests queued into a gate ring.
    pub ring_enqueues: u64,
    /// Deferred gate requests voided after their response was given up
    /// (sum of per-failure counts).
    pub deferred_errors: u64,
    /// Fold state: a page-state-change `VMGEXIT` is open and its RMP
    /// transition has not been observed yet.
    in_psc: bool,
    /// Fold state: a batched page-state-change `VMGEXIT` is open; every
    /// RMP transition until the next non-transition event belongs to it.
    in_psc_batch: bool,
}

impl EventCounters {
    /// Folds one event into the counters.
    pub fn observe(&mut self, event: &Event) {
        let was_psc = self.in_psc;
        let was_psc_batch = self.in_psc_batch;
        self.in_psc = false;
        if !matches!(event, Event::RmpTransition { .. }) {
            self.in_psc_batch = false;
        }
        match *event {
            Event::VmgExit { code, automatic, .. } => {
                if automatic {
                    self.automatic_exits += 1;
                } else {
                    self.vmgexits += 1;
                    if code == exit_code::IO || code == exit_code::MSR {
                        self.io_exits += 1;
                    }
                    if code == exit_code::PAGE_STATE_CHANGE {
                        self.in_psc = true;
                    }
                    if code == exit_code::PSC_BATCH {
                        self.in_psc_batch = true;
                    }
                }
            }
            Event::VmEnter { .. } => self.vmenters += 1,
            Event::DomainSwitch { from, to, .. } => {
                self.domain_switches += 1;
                if from == 2 || to == 2 {
                    self.enclave_crossings += 1;
                }
            }
            Event::RmpTransition { .. } => {
                self.rmp_transitions += 1;
                if was_psc || was_psc_batch {
                    self.page_state_changes += 1;
                }
            }
            Event::Pvalidate { .. } => self.pvalidates += 1,
            Event::RmpAdjust { .. } => self.rmpadjusts += 1,
            Event::NestedPageFault { .. } => self.nested_page_faults += 1,
            Event::SyscallRedirect { .. } => self.syscall_redirects += 1,
            Event::AuditAppend { .. } => self.audit_appends += 1,
            Event::ChannelHandshake { .. } => self.handshake_steps += 1,
            Event::ModuleLoad { .. } => self.module_loads += 1,
            Event::Doorbell { .. } => self.doorbells += 1,
            Event::ReqDispatch { .. } => self.req_dispatches += 1,
            Event::ReqComplete { .. } => self.req_completes += 1,
            Event::RingEnqueue { .. } => self.ring_enqueues += 1,
            Event::DeferredError { count, .. } => self.deferred_errors += u64::from(count),
        }
    }

    /// Replays a record slice into a fresh fold — used by the invariant
    /// suite to prove the live counters equal a fold over the recorded ring.
    pub fn from_records(records: &[Record]) -> EventCounters {
        let mut c = EventCounters::default();
        for r in records {
            c.observe(&r.event);
        }
        c
    }
}

/// Deterministic event recorder.
///
/// Two halves with different gating:
///
/// * the [`EventCounters`] fold is **always on** — it is cheap (one match,
///   a few adds) and is what keeps derived statistics exact;
/// * the ring buffer and the incremental SHA-256 digest are **runtime
///   gated** ([`Tracer::set_enabled`]) and cost nothing when disabled.
///
/// Enabling resets the stream (ring, sequence numbers, digest), so a test
/// that calls `set_enabled(true)` observes only events from that point on —
/// deterministically, even if tracing was already on (e.g. via the
/// `VEIL_TRACE` environment knob).
#[derive(Debug, Clone)]
pub struct Tracer {
    enabled: bool,
    capacity: usize,
    seq: u64,
    ring: VecDeque<Record>,
    dropped: u64,
    hasher: Sha256,
    counters: EventCounters,
    scratch: Vec<u8>,
    /// Which fleet shard this stream belongs to. Pure stream metadata for
    /// multi-machine exports: it never enters the record encoding or the
    /// digest, so single-machine goldens are unaffected by sharding.
    shard: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A disabled tracer with the default ring capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A disabled tracer holding at most `capacity` records.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            enabled: false,
            capacity: capacity.max(1),
            seq: 0,
            ring: VecDeque::new(),
            dropped: 0,
            hasher: Sha256::new(),
            counters: EventCounters::default(),
            scratch: Vec::with_capacity(64),
            shard: 0,
        }
    }

    /// The shard this stream is labelled with (0 outside fleet runs).
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Labels the stream with a fleet shard id. Metadata only: the digest
    /// and record encoding are unchanged, so two shards fed identical
    /// events still produce identical digests.
    pub fn set_shard(&mut self, shard: u32) {
        self.shard = shard;
    }

    /// Whether ring recording is enabled.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Enables or disables ring recording. Enabling **resets** the stream
    /// (ring, sequence counter, digest); disabling stops recording but
    /// keeps the buffer for inspection. The counter fold is unaffected.
    pub fn set_enabled(&mut self, enabled: bool) {
        if enabled {
            self.clear();
        }
        self.enabled = enabled;
    }

    /// Clears the recorded stream (ring, sequence counter, digest) without
    /// changing the enabled flag or the counters.
    pub fn clear(&mut self) {
        self.ring.clear();
        self.seq = 0;
        self.dropped = 0;
        self.hasher = Sha256::new();
    }

    /// Records one event at virtual-cycle time `cycles`.
    pub fn record(&mut self, cycles: u64, event: Event) {
        self.counters.observe(&event);
        if !self.enabled {
            return;
        }
        let record = Record { seq: self.seq, cycles, event };
        self.seq += 1;
        // The ring always keeps the newest record (capacity >= 1), so its
        // back is the previous record of this stream, if any.
        let prev_cycles = self.ring.back().map_or(0, |r| r.cycles);
        self.scratch.clear();
        record.encode_into(prev_cycles, &mut self.scratch);
        self.hasher.update(&self.scratch);
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(record);
    }

    /// The always-on counter fold.
    pub fn counters(&self) -> &EventCounters {
        &self.counters
    }

    /// Number of records currently in the ring.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring holds no records.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Records that fell off the front of the ring (the digest still covers
    /// them — it is a running hash over the full stream since enable).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates the ring in stream order.
    pub fn records(&self) -> impl Iterator<Item = &Record> {
        self.ring.iter()
    }

    /// Iterates the ring records with `seq >= from`, in stream order.
    /// Incremental consumers (the causal fold) call this between
    /// batches of work so the ring never has to hold the whole run —
    /// only the records emitted since the last visit.
    pub fn records_since(&self, from: u64) -> impl Iterator<Item = &Record> {
        let front = self.ring.front().map_or(self.seq, |r| r.seq);
        self.ring.iter().skip(from.saturating_sub(front) as usize)
    }

    /// Sequence number the next recorded event will get (equivalently,
    /// the number of events recorded since tracing was enabled).
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Copies the ring into a `Vec` (stream order) for checking/export.
    pub fn snapshot(&self) -> Vec<Record> {
        self.ring.iter().copied().collect()
    }

    /// SHA-256 over the [`Record::encode_into`] bytes of every record since
    /// tracing was enabled, each timestamp delta-coded against the record
    /// before it. `seq` is stored in the ring but not hashed. Bit-stable
    /// for identical runs; distinct from the empty-stream digest only once
    /// something was recorded.
    pub fn digest(&self) -> [u8; 32] {
        self.hasher.clone().finalize()
    }

    /// [`Tracer::digest`] as lowercase hex, the form golden tests pin.
    pub fn digest_hex(&self) -> String {
        veil_crypto::sha256::hex(&self.digest())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(i: u64) -> Event {
        Event::VmEnter { vcpu: i as u32, vmpl: 3 }
    }

    #[test]
    fn disabled_records_nothing_but_counts() {
        let mut t = Tracer::new();
        t.record(10, sample(0));
        assert!(t.is_empty());
        assert_eq!(t.counters().vmenters, 1);
        assert_eq!(t.digest(), Sha256::digest(b""), "no stream -> empty-input digest");
    }

    #[test]
    fn digest_matches_one_shot_encoding() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        t.record(300, sample(0));
        t.record(302, Event::ChannelHandshake { step: 1 });
        let mut bytes = Vec::new();
        let mut prev = 0;
        for r in t.records() {
            r.encode_into(prev, &mut bytes);
            prev = r.cycles;
        }
        // The first delta is the absolute timestamp (300 = LEB128 ac 02),
        // the second is relative to the first; no seq is in the bytes.
        assert_eq!(bytes, [0xac, 0x02, 4, 0, 3, 2, 9, 1]);
        assert_eq!(t.digest(), Sha256::digest(&bytes));
        assert_eq!(t.digest_hex(), veil_crypto::sha256::hex(&t.digest()));
        // Re-enabling restarts the delta base at 0 (302 = LEB128 ae 02).
        t.set_enabled(true);
        t.record(302, sample(0));
        assert_eq!(t.digest(), Sha256::digest(&[0xae, 0x02, 4, 0, 3]));
    }

    #[test]
    fn enable_resets_stream() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        t.record(5, sample(0));
        let first = t.digest();
        t.set_enabled(true);
        assert!(t.is_empty());
        assert_ne!(t.digest(), first);
        t.record(5, sample(0));
        assert_eq!(t.digest(), first, "same stream after reset -> same digest");
    }

    #[test]
    fn ring_wraps_and_counts_drops_but_digest_covers_all() {
        let mut t = Tracer::with_capacity(2);
        t.set_enabled(true);
        for i in 0..5 {
            t.record(i, sample(i));
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        assert_eq!(t.records().map(|r| r.seq).collect::<Vec<_>>(), vec![3, 4]);
        // Digest covers the whole stream, not just the surviving window.
        let mut full = Tracer::with_capacity(16);
        full.set_enabled(true);
        for i in 0..5 {
            full.record(i, sample(i));
        }
        assert_eq!(t.digest(), full.digest());
    }

    #[test]
    fn psc_fold_counts_only_bracketed_transitions() {
        let mut c = EventCounters::default();
        // Direct assign (boot style): no PSC.
        c.observe(&Event::RmpTransition { gfn: 1, to_private: true });
        // PSC exit followed by its transition: counted.
        c.observe(&Event::VmgExit {
            vcpu: 0,
            vmpl: 0,
            code: exit_code::PAGE_STATE_CHANGE,
            user_ghcb: false,
            automatic: false,
        });
        c.observe(&Event::RmpTransition { gfn: 2, to_private: true });
        c.observe(&Event::VmEnter { vcpu: 0, vmpl: 0 });
        // Failed PSC (no transition before re-entry): not counted.
        c.observe(&Event::VmgExit {
            vcpu: 0,
            vmpl: 0,
            code: exit_code::PAGE_STATE_CHANGE,
            user_ghcb: false,
            automatic: false,
        });
        c.observe(&Event::VmEnter { vcpu: 0, vmpl: 0 });
        assert_eq!(c.page_state_changes, 1);
        assert_eq!(c.rmp_transitions, 2);
        assert_eq!(c.vmgexits, 2);
    }

    #[test]
    fn psc_batch_fold_counts_every_bracketed_transition() {
        let mut c = EventCounters::default();
        c.observe(&Event::VmgExit {
            vcpu: 0,
            vmpl: 3,
            code: exit_code::PSC_BATCH,
            user_ghcb: false,
            automatic: false,
        });
        for gfn in 0..3 {
            c.observe(&Event::RmpTransition { gfn, to_private: true });
        }
        c.observe(&Event::VmEnter { vcpu: 0, vmpl: 3 });
        // A later direct assign is outside the bracket.
        c.observe(&Event::RmpTransition { gfn: 9, to_private: true });
        assert_eq!(c.page_state_changes, 3, "one per batched entry");
        assert_eq!(c.rmp_transitions, 4);
        assert_eq!(c.vmgexits, 1);
    }

    #[test]
    fn doorbell_fold_counts() {
        let mut c = EventCounters::default();
        c.observe(&Event::Doorbell { vcpu: 0, target: 1, depth: 5 });
        c.observe(&Event::Doorbell { vcpu: 0, target: 1, depth: 2 });
        assert_eq!(c.doorbells, 2);
    }
}
