//! Deterministic structured event tracing for the Veil simulator.
//!
//! Veil's security argument (paper §3/§5, Tables 1–2) is a claim about
//! *sequences* of privileged events — `VMGEXIT`s, RMP transitions, domain
//! switches, syscall redirects — not just about end state. This crate turns
//! the deterministic simulator into a machine-checkable event log:
//!
//! * [`Event`] — the typed taxonomy of privileged transitions, carrying only
//!   primitive fields so every layer (snp, hv, core, os, sdk) can emit them
//!   without dependency cycles.
//! * [`Record`] — an event stamped with a monotonic sequence number and the
//!   virtual-cycle timestamp of `veil_snp::cost` at emission time. The
//!   digest hashes each record compactly ([`Record::encode_into`]): the
//!   timestamp as a LEB128 delta from the previous record, then the tag
//!   and LEB128-sized fields. `seq` is stored but not hashed, since the
//!   record's position in the stream implies it.
//! * [`Tracer`] — a ring-buffer recorder owned by the machine. Its
//!   [`EventCounters`] fold runs *always* (so statistics like the
//!   hypervisor's `HvStats` are a pure fold over the event stream and can
//!   never drift from reality), while the ring buffer and the running
//!   SHA-256 [`Tracer::digest`] are runtime-gated and record nothing when
//!   tracing is disabled.
//! * [`CausalFold`] — the causal request-tracing fold: reconstructs exact
//!   per-request critical paths (queue-wait / batch-stall / relay /
//!   service) from `ReqDispatch`/`ReqComplete` windows in the stream.
//! * [`invariants`] — the trace-invariant checker: domain switches are
//!   bracketed by exit/enter pairs, `RMPADJUST` never escalates, sequence
//!   numbers and timestamps are monotonic.
//!
//! Everything is deterministic: the same build, configuration, and
//! `VEIL_TEST_SEED` produce bit-identical digests, which is what the
//! golden-trace regression tests pin.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod causal;
mod event;
mod invariants_impl;
mod tracer;

pub use causal::{Attribution, CausalFold, Component, ReqPath};
pub use event::{exit_code, Event, VMPL_UNKNOWN};
pub use tracer::{EventCounters, Record, Tracer, DEFAULT_RING_CAPACITY};

/// Trace-invariant checking over recorded event streams.
pub mod invariants {
    pub use crate::invariants_impl::{check, Violation};
}

/// Renders a 32-byte digest as lowercase hex (convenience re-export used by
/// golden-trace tests and the inspection tooling).
pub fn digest_hex(digest: &[u8; 32]) -> String {
    veil_crypto::sha256::hex(digest)
}
