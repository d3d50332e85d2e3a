//! The typed event taxonomy and its canonical binary encoding.

/// `VMGEXIT` exit-code constants mirrored from the GHCB protocol
/// (`veil_snp::ghcb::GhcbExit`), plus trace-specific sentinels. Kept here as
/// plain integers so this crate stays at the bottom of the dependency graph.
pub mod exit_code {
    /// Port/MMIO-style I/O request.
    pub const IO: u64 = 0x7b;
    /// MSR access emulation.
    pub const MSR: u64 = 0x7c;
    /// Page-state change request (private <-> shared).
    pub const PAGE_STATE_CHANGE: u64 = 0x80000010;
    /// Veil domain-switch hypercall.
    pub const DOMAIN_SWITCH: u64 = 0x8000_f001;
    /// Veil VCPU-creation hypercall.
    pub const CREATE_VCPU: u64 = 0x8000_f002;
    /// Veil doorbell hypercall (batched gate-ring drain).
    pub const DOORBELL: u64 = 0x8000_f003;
    /// Guest shutdown request.
    pub const SHUTDOWN: u64 = 0x8000_f0ff;
    /// Automatic exit (hardware interrupt; SVM `VMEXIT_INTR`).
    pub const AUTOMATIC: u64 = 0x60;
    /// The exit carried no decodable request (missing/unshared/garbled GHCB).
    pub const UNKNOWN: u64 = u64::MAX;
}

/// VMPL value recorded when the executing level is not known (e.g. a
/// `VMGEXIT` from a VCPU the hypervisor has never seen).
pub const VMPL_UNKNOWN: u8 = 0xff;

/// A privileged transition observed by the simulator.
///
/// Fields are primitives (VMPLs as raw level numbers, permissions as raw
/// bits) so events can be emitted from any layer and encoded canonically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Hypervisor-side `RMPUPDATE`: a page changed assignment state.
    RmpTransition {
        /// Guest frame number.
        gfn: u64,
        /// `true` = shared -> private (assign); `false` = reclaim to shared.
        to_private: bool,
    },
    /// Guest `PVALIDATE` (successful; VMPL-0 only by architecture).
    Pvalidate {
        /// Executing VMPL (always 0 on success).
        vmpl: u8,
        /// Guest frame number.
        gfn: u64,
        /// `true` = validate, `false` = invalidate.
        validate: bool,
    },
    /// Guest `RMPADJUST`: `executing` set the permissions of (`gfn`, `target`).
    RmpAdjust {
        /// Executing VMPL.
        executing: u8,
        /// Target VMPL whose permissions changed.
        target: u8,
        /// Guest frame number.
        gfn: u64,
        /// Permission bits granted.
        perms: u8,
        /// Permission bits the executor itself held on the page at the time
        /// (lets the invariant checker prove no escalation happened).
        executing_perms: u8,
    },
    /// A VCPU exited to the hypervisor.
    VmgExit {
        /// Exiting VCPU.
        vcpu: u32,
        /// VMPL that was executing ([`VMPL_UNKNOWN`] if the hypervisor has
        /// no record of the VCPU).
        vmpl: u8,
        /// GHCB exit code (see [`exit_code`]).
        code: u64,
        /// Whether the request arrived through a user-mapped GHCB (§6.2).
        user_ghcb: bool,
        /// Whether this was an automatic exit (interrupt) rather than a
        /// guest-requested `VMGEXIT`.
        automatic: bool,
    },
    /// The hypervisor resumed a VCPU.
    VmEnter {
        /// Resumed VCPU.
        vcpu: u32,
        /// VMPL now executing.
        vmpl: u8,
    },
    /// A completed domain switch (the VCPU resumed from a different
    /// domain's VMSA).
    DomainSwitch {
        /// VCPU that transitioned.
        vcpu: u32,
        /// Domain it left.
        from: u8,
        /// Domain it entered.
        to: u8,
        /// Whether the request arrived through a user-mapped GHCB.
        user_ghcb: bool,
        /// Whether the switch was an interrupt relay rather than a
        /// guest-requested switch.
        automatic: bool,
    },
    /// A nested page fault raised by an RMP check.
    NestedPageFault {
        /// Faulting frame.
        gfn: u64,
        /// VMPL whose access faulted.
        vmpl: u8,
    },
    /// An enclave syscall left `Dom_ENC` for the untrusted kernel (§6.2).
    SyscallRedirect {
        /// VCPU carrying the enclave thread.
        vcpu: u32,
        /// Host process id backing the enclave.
        pid: u32,
        /// Syscall number (Linux numbering).
        sysno: u32,
    },
    /// An audit record was appended to the kernel's audit trail (§7).
    AuditAppend {
        /// Audited process.
        pid: u32,
        /// Audited syscall number.
        sysno: u32,
    },
    /// A secure-channel handshake step completed (§5.1).
    ChannelHandshake {
        /// 0 = attestation + DH key published; 1 = peer key installed and
        /// the session key derived.
        step: u8,
    },
    /// A kernel module was loaded or unloaded (§7 / CS1).
    ModuleLoad {
        /// Module image size in pages.
        pages: u32,
        /// Whether VeilS-KCI protected the text (vs. native load).
        protected: bool,
        /// `true` = load, `false` = unload.
        load: bool,
    },
    /// A doorbell rang: one relayed switch is about to drain a gate
    /// request ring of `depth` queued requests (batched gate path).
    Doorbell {
        /// VCPU whose ring is drained.
        vcpu: u32,
        /// Target domain of the drain switch.
        target: u8,
        /// Queued requests in the ring at ring time.
        depth: u32,
    },
    /// A load-generator request was dispatched to the CVM. Together with
    /// [`Event::ReqComplete`] this brackets one causal request window:
    /// every event between the pair belongs to the request's critical
    /// path. The request id is `(tenant, req)`; the owning shard is
    /// stream metadata (`Tracer::shard`), never part of the encoding.
    ReqDispatch {
        /// Tenant the request belongs to.
        tenant: u64,
        /// Per-tenant request sequence number.
        req: u64,
        /// Virtual arrival time of the request (open-loop load clock).
        arrival: u64,
        /// Virtual dispatch time: `max(arrival, vclock)` — the queue-wait
        /// component is `start - arrival`, accrued before the CVM sees
        /// the request.
        start: u64,
    },
    /// The request dispatched as `(tenant, req)` completed; closes the
    /// causal window opened by the matching [`Event::ReqDispatch`].
    ReqComplete {
        /// Tenant the request belongs to.
        tenant: u64,
        /// Per-tenant request sequence number.
        req: u64,
    },
    /// A fire-and-forget gate request was queued into the per-VCPU gate
    /// ring instead of switching immediately (batched gate path). Cycles
    /// elapsing while the ring is occupied are batch-stall time for the
    /// open request window, until the draining [`Event::Doorbell`].
    RingEnqueue {
        /// VCPU whose ring received the entry.
        vcpu: u32,
        /// Trusted domain the entry targets.
        target: u8,
        /// Ring occupancy after the push.
        depth: u32,
        /// Tenant of the causal request context (0 outside fleet runs).
        tenant: u64,
        /// Request sequence of the causal context (0 outside fleet runs).
        req: u64,
    },
    /// Deferred (fire-and-forget) gate requests were voided after their
    /// responses had already been given up: a refused doorbell switch, a
    /// corrupt ring slot, or a failed trusted-side dispatch.
    DeferredError {
        /// VCPU whose batch was voided.
        vcpu: u32,
        /// Requests voided by this failure.
        count: u32,
    },
}

/// Appends `v` as canonical (shortest) unsigned LEB128: seven bits per
/// byte, least-significant group first, the high bit set on every byte
/// but the last. Values below 128 take one byte; `u64::MAX` takes ten.
pub(crate) fn put_leb128(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

impl Event {
    /// Canonical tag byte, the first byte of the event encoding.
    pub fn tag(&self) -> u8 {
        match self {
            Event::RmpTransition { .. } => 0,
            Event::Pvalidate { .. } => 1,
            Event::RmpAdjust { .. } => 2,
            Event::VmgExit { .. } => 3,
            Event::VmEnter { .. } => 4,
            Event::DomainSwitch { .. } => 5,
            Event::NestedPageFault { .. } => 6,
            Event::SyscallRedirect { .. } => 7,
            Event::AuditAppend { .. } => 8,
            Event::ChannelHandshake { .. } => 9,
            Event::ModuleLoad { .. } => 10,
            Event::Doorbell { .. } => 11,
            Event::ReqDispatch { .. } => 12,
            Event::ReqComplete { .. } => 13,
            Event::RingEnqueue { .. } => 14,
            Event::DeferredError { .. } => 15,
        }
    }

    /// Stable human-readable event name (table/JSON export).
    pub fn name(&self) -> &'static str {
        match self {
            Event::RmpTransition { .. } => "rmp_transition",
            Event::Pvalidate { .. } => "pvalidate",
            Event::RmpAdjust { .. } => "rmpadjust",
            Event::VmgExit { .. } => "vmgexit",
            Event::VmEnter { .. } => "vmenter",
            Event::DomainSwitch { .. } => "domain_switch",
            Event::NestedPageFault { .. } => "nested_page_fault",
            Event::SyscallRedirect { .. } => "syscall_redirect",
            Event::AuditAppend { .. } => "audit_append",
            Event::ChannelHandshake { .. } => "channel_handshake",
            Event::ModuleLoad { .. } => "module_load",
            Event::Doorbell { .. } => "doorbell",
            Event::ReqDispatch { .. } => "req_dispatch",
            Event::ReqComplete { .. } => "req_complete",
            Event::RingEnqueue { .. } => "ring_enqueue",
            Event::DeferredError { .. } => "deferred_error",
        }
    }

    /// Appends the canonical encoding to `buf`: the tag byte, then each
    /// field in declaration order, a `u8` raw, a `bool` as one byte 0 or
    /// 1, and every `u32`/`u64` as canonical (shortest) unsigned LEB128.
    /// Each tag fixes its field list and LEB128 is self-delimiting, so a
    /// concatenation of encodings parses one way only. This byte layout,
    /// behind [`Record::encode_into`](crate::Record::encode_into), is the
    /// contract of [`crate::Tracer::digest`]: changing it breaks every
    /// pinned golden digest, intentionally. The record's `seq` is stored
    /// but never hashed.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.push(self.tag());
        match *self {
            Event::RmpTransition { gfn, to_private } => {
                put_leb128(buf, gfn);
                buf.push(to_private as u8);
            }
            Event::Pvalidate { vmpl, gfn, validate } => {
                buf.push(vmpl);
                put_leb128(buf, gfn);
                buf.push(validate as u8);
            }
            Event::RmpAdjust { executing, target, gfn, perms, executing_perms } => {
                buf.extend_from_slice(&[executing, target]);
                put_leb128(buf, gfn);
                buf.extend_from_slice(&[perms, executing_perms]);
            }
            Event::VmgExit { vcpu, vmpl, code, user_ghcb, automatic } => {
                put_leb128(buf, vcpu.into());
                buf.push(vmpl);
                put_leb128(buf, code);
                buf.extend_from_slice(&[user_ghcb as u8, automatic as u8]);
            }
            Event::VmEnter { vcpu, vmpl } => {
                put_leb128(buf, vcpu.into());
                buf.push(vmpl);
            }
            Event::DomainSwitch { vcpu, from, to, user_ghcb, automatic } => {
                put_leb128(buf, vcpu.into());
                buf.extend_from_slice(&[from, to, user_ghcb as u8, automatic as u8]);
            }
            Event::NestedPageFault { gfn, vmpl } => {
                put_leb128(buf, gfn);
                buf.push(vmpl);
            }
            Event::SyscallRedirect { vcpu, pid, sysno } => {
                put_leb128(buf, vcpu.into());
                put_leb128(buf, pid.into());
                put_leb128(buf, sysno.into());
            }
            Event::AuditAppend { pid, sysno } => {
                put_leb128(buf, pid.into());
                put_leb128(buf, sysno.into());
            }
            Event::ChannelHandshake { step } => buf.push(step),
            Event::ModuleLoad { pages, protected, load } => {
                put_leb128(buf, pages.into());
                buf.extend_from_slice(&[protected as u8, load as u8]);
            }
            Event::Doorbell { vcpu, target, depth } => {
                put_leb128(buf, vcpu.into());
                buf.push(target);
                put_leb128(buf, depth.into());
            }
            Event::ReqDispatch { tenant, req, arrival, start } => {
                put_leb128(buf, tenant);
                put_leb128(buf, req);
                put_leb128(buf, arrival);
                put_leb128(buf, start);
            }
            Event::ReqComplete { tenant, req } => {
                put_leb128(buf, tenant);
                put_leb128(buf, req);
            }
            Event::RingEnqueue { vcpu, target, depth, tenant, req } => {
                put_leb128(buf, vcpu.into());
                buf.push(target);
                put_leb128(buf, depth.into());
                put_leb128(buf, tenant);
                put_leb128(buf, req);
            }
            Event::DeferredError { vcpu, count } => {
                put_leb128(buf, vcpu.into());
                put_leb128(buf, count.into());
            }
        }
    }

    /// Field name/value pairs for export. Values are rendered as JSON
    /// literals (numbers and `true`/`false`), so they can be embedded in
    /// JSON unquoted or joined as `k=v` for tables.
    pub fn fields(&self) -> Vec<(&'static str, String)> {
        match *self {
            Event::RmpTransition { gfn, to_private } => {
                vec![("gfn", gfn.to_string()), ("to_private", to_private.to_string())]
            }
            Event::Pvalidate { vmpl, gfn, validate } => vec![
                ("vmpl", vmpl.to_string()),
                ("gfn", gfn.to_string()),
                ("validate", validate.to_string()),
            ],
            Event::RmpAdjust { executing, target, gfn, perms, executing_perms } => vec![
                ("executing", executing.to_string()),
                ("target", target.to_string()),
                ("gfn", gfn.to_string()),
                ("perms", perms.to_string()),
                ("executing_perms", executing_perms.to_string()),
            ],
            Event::VmgExit { vcpu, vmpl, code, user_ghcb, automatic } => vec![
                ("vcpu", vcpu.to_string()),
                ("vmpl", vmpl.to_string()),
                ("code", code.to_string()),
                ("user_ghcb", user_ghcb.to_string()),
                ("automatic", automatic.to_string()),
            ],
            Event::VmEnter { vcpu, vmpl } => {
                vec![("vcpu", vcpu.to_string()), ("vmpl", vmpl.to_string())]
            }
            Event::DomainSwitch { vcpu, from, to, user_ghcb, automatic } => vec![
                ("vcpu", vcpu.to_string()),
                ("from", from.to_string()),
                ("to", to.to_string()),
                ("user_ghcb", user_ghcb.to_string()),
                ("automatic", automatic.to_string()),
            ],
            Event::NestedPageFault { gfn, vmpl } => {
                vec![("gfn", gfn.to_string()), ("vmpl", vmpl.to_string())]
            }
            Event::SyscallRedirect { vcpu, pid, sysno } => vec![
                ("vcpu", vcpu.to_string()),
                ("pid", pid.to_string()),
                ("sysno", sysno.to_string()),
            ],
            Event::AuditAppend { pid, sysno } => {
                vec![("pid", pid.to_string()), ("sysno", sysno.to_string())]
            }
            Event::ChannelHandshake { step } => vec![("step", step.to_string())],
            Event::ModuleLoad { pages, protected, load } => vec![
                ("pages", pages.to_string()),
                ("protected", protected.to_string()),
                ("load", load.to_string()),
            ],
            Event::Doorbell { vcpu, target, depth } => vec![
                ("vcpu", vcpu.to_string()),
                ("target", target.to_string()),
                ("depth", depth.to_string()),
            ],
            Event::ReqDispatch { tenant, req, arrival, start } => vec![
                ("tenant", tenant.to_string()),
                ("req", req.to_string()),
                ("arrival", arrival.to_string()),
                ("start", start.to_string()),
            ],
            Event::ReqComplete { tenant, req } => {
                vec![("tenant", tenant.to_string()), ("req", req.to_string())]
            }
            Event::RingEnqueue { vcpu, target, depth, tenant, req } => vec![
                ("vcpu", vcpu.to_string()),
                ("target", target.to_string()),
                ("depth", depth.to_string()),
                ("tenant", tenant.to_string()),
                ("req", req.to_string()),
            ],
            Event::DeferredError { vcpu, count } => {
                vec![("vcpu", vcpu.to_string()), ("count", count.to_string())]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_distinct_and_stable() {
        let events = [
            Event::RmpTransition { gfn: 1, to_private: true },
            Event::Pvalidate { vmpl: 0, gfn: 1, validate: true },
            Event::RmpAdjust { executing: 0, target: 3, gfn: 1, perms: 3, executing_perms: 15 },
            Event::VmgExit {
                vcpu: 0,
                vmpl: 3,
                code: exit_code::IO,
                user_ghcb: false,
                automatic: false,
            },
            Event::VmEnter { vcpu: 0, vmpl: 3 },
            Event::DomainSwitch { vcpu: 0, from: 3, to: 0, user_ghcb: false, automatic: false },
            Event::NestedPageFault { gfn: 1, vmpl: 3 },
            Event::SyscallRedirect { vcpu: 0, pid: 1, sysno: 0 },
            Event::AuditAppend { pid: 1, sysno: 2 },
            Event::ChannelHandshake { step: 0 },
            Event::ModuleLoad { pages: 4, protected: true, load: true },
            Event::Doorbell { vcpu: 0, target: 1, depth: 3 },
            Event::ReqDispatch { tenant: 1, req: 2, arrival: 10, start: 20 },
            Event::ReqComplete { tenant: 1, req: 2 },
            Event::RingEnqueue { vcpu: 0, target: 1, depth: 4, tenant: 1, req: 2 },
            Event::DeferredError { vcpu: 0, count: 3 },
        ];
        let mut tags: Vec<u8> = events.iter().map(Event::tag).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), events.len(), "duplicate tag byte");
        assert_eq!(tags, (0..16).collect::<Vec<u8>>(), "tags must stay dense and stable");
    }

    #[test]
    fn encoding_starts_with_tag_and_is_field_order_stable() {
        // One row per tag: the tag byte, then the fields in declaration
        // order, u8/bool raw and u32/u64 as shortest LEB128. The values
        // straddle the varint length steps (127 | 128, 16,383 | 16,384)
        // and reach the widest encodings (u32::MAX, u64::MAX).
        let max = [0xff; 9];
        let rows: [(Event, Vec<u8>); 16] = [
            (Event::RmpTransition { gfn: 300, to_private: true }, vec![0, 0xac, 0x02, 1]),
            (Event::Pvalidate { vmpl: 0, gfn: 42, validate: true }, vec![1, 0, 42, 1]),
            (
                Event::RmpAdjust {
                    executing: 0,
                    target: 3,
                    gfn: 128,
                    perms: 3,
                    executing_perms: 15,
                },
                vec![2, 0, 3, 0x80, 0x01, 3, 15],
            ),
            (
                Event::VmgExit {
                    vcpu: 1,
                    vmpl: 3,
                    code: exit_code::PAGE_STATE_CHANGE,
                    user_ghcb: true,
                    automatic: false,
                },
                vec![3, 1, 3, 0x90, 0x80, 0x80, 0x80, 0x08, 1, 0],
            ),
            (Event::VmEnter { vcpu: 0, vmpl: 3 }, vec![4, 0, 3]),
            (
                Event::DomainSwitch { vcpu: 7, from: 3, to: 0, user_ghcb: true, automatic: false },
                vec![5, 7, 3, 0, 1, 0],
            ),
            (Event::NestedPageFault { gfn: 16_384, vmpl: 2 }, vec![6, 0x80, 0x80, 0x01, 2]),
            (Event::SyscallRedirect { vcpu: 0, pid: 1, sysno: 231 }, vec![7, 0, 1, 0xe7, 0x01]),
            (Event::AuditAppend { pid: 1, sysno: 18 }, vec![8, 1, 18]),
            (Event::ChannelHandshake { step: 1 }, vec![9, 1]),
            (Event::ModuleLoad { pages: 6, protected: true, load: false }, vec![10, 6, 1, 0]),
            (Event::Doorbell { vcpu: 0, target: 1, depth: 5 }, vec![11, 0, 1, 5]),
            (
                Event::ReqDispatch { tenant: 3, req: 127, arrival: 16_383, start: u64::MAX },
                [&[12, 3, 0x7f, 0xff, 0x7f][..], &max, &[0x01]].concat(),
            ),
            (Event::ReqComplete { tenant: 3, req: 127 }, vec![13, 3, 0x7f]),
            (
                Event::RingEnqueue { vcpu: 0, target: 1, depth: 2, tenant: 3, req: 128 },
                vec![14, 0, 1, 2, 3, 0x80, 0x01],
            ),
            (
                Event::DeferredError { vcpu: 0, count: u32::MAX },
                vec![15, 0, 0xff, 0xff, 0xff, 0xff, 0x0f],
            ),
        ];
        for (tag, (ev, expected)) in rows.iter().enumerate() {
            assert_eq!(usize::from(ev.tag()), tag, "rows are in tag order");
            let mut buf = Vec::new();
            ev.encode_into(&mut buf);
            assert_eq!(&buf, expected, "{} encoding", ev.name());
        }
    }

    #[test]
    fn fields_match_variant() {
        let ev = Event::Pvalidate { vmpl: 0, gfn: 42, validate: true };
        assert_eq!(ev.name(), "pvalidate");
        let fields = ev.fields();
        assert_eq!(fields[1], ("gfn", "42".to_string()));
    }
}
