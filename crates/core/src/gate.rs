//! The kernel→monitor gate: IDCB transcription + hypervisor-relayed
//! domain switch + trusted-side dispatch (§5.2, Fig. 3).
//!
//! This is the concrete [`MonitorChannel`] a Veil CVM gives its kernel.
//! Every request performs the full Fig. 3 protocol:
//!
//! 1. the OS transcribes the request into its per-VCPU IDCB (①);
//! 2. the OS writes a domain-switch message to its GHCB (②) and exits to
//!    the hypervisor with `VMGEXIT` (③);
//! 3. the hypervisor resumes the VCPU from the trusted domain's VMSA
//!    (④–⑤);
//! 4. the trusted side reads the IDCB, sanitizes, dispatches (⑥);
//! 5. the reply path mirrors the request path.
//!
//! Architectural delegations (`PVALIDATE`, VCPU boot) terminate in
//! VeilMon (`Dom_MON`); service requests terminate in `Dom_SER`.
//!
//! # Batched gate path
//!
//! With batching enabled, fire-and-forget requests queue in the per-VCPU
//! [`GateRing`] via [`MonitorChannel::request_deferred`] instead of
//! switching immediately. One *doorbell* exit then relays a single domain
//! switch under which the trusted side drains every queued slot
//! ([`MonitorChannel::flush`]); a synchronous request with a same-target
//! batch pending drains the ring under its own switch pair, so the
//! doorbell rides for free. A synchronous request with an *empty* ring
//! takes the exact serial protocol above — event-for-event and
//! cycle-for-cycle — which is what makes the serial twin a meaningful
//! differential baseline.
//!
//! The coalescing policy is fixed: while batching is on, every
//! fire-and-forget request defers, and the ring drains when it fills,
//! when a synchronous request or a different target forces it, or on an
//! explicit flush.
//!
//! Each VCPU's batch storage lives as long as the gate: a drain clears
//! the queued requests but keeps the vector's capacity for the next batch.

use crate::idcb::Idcb;
use crate::monitor::Monitor;
use crate::ring::{GateRing, SlotBuf, RING_SLOTS};
use crate::service::ServiceDispatch;
use veil_hv::{HvResponse, Hypervisor};
use veil_os::error::{OsError, Refusal};
use veil_os::monitor::{MonRequest, MonResponse, MonitorChannel};
use veil_snp::cost::CostCategory;
use veil_snp::ghcb::{Ghcb, GhcbExit};
use veil_snp::perms::Vmpl;
use veil_trace::Event;

/// Requests queued behind one future doorbell. Batches stay homogeneous
/// in target domain: a mixed-target enqueue drains the old batch first.
/// `target` means nothing while `reqs` is empty.
#[derive(Debug)]
struct PendingBatch {
    target: Vmpl,
    reqs: Vec<MonRequest>,
}

/// The gate: owns VeilMon and the registered service bundle.
#[derive(Debug)]
pub struct VeilGate<S> {
    /// VeilMon.
    pub monitor: Monitor,
    /// The protected services (dispatched in `Dom_SER`).
    pub services: S,
    seq: u32,
    batch_enabled: bool,
    /// Batch storage indexed by VCPU, grown on a VCPU's first deferral.
    pending: Vec<PendingBatch>,
    requests: u64,
    deferred_errors: u64,
    /// Causal request context `(tenant, req)` stamped onto ring-slot
    /// enqueue events, so the trace can attribute ring residency to the
    /// load-generator request that queued the work. `(0, 0)` outside
    /// fleet runs.
    req_context: (u64, u64),
}

impl<S: ServiceDispatch> VeilGate<S> {
    /// Builds the gate around an initialized monitor and service bundle.
    /// Batching starts disabled (the serial Fig. 3 protocol).
    pub fn new(monitor: Monitor, services: S) -> Self {
        VeilGate {
            monitor,
            services,
            seq: 0,
            batch_enabled: false,
            pending: Vec::new(),
            requests: 0,
            deferred_errors: 0,
            req_context: (0, 0),
        }
    }

    /// Enables or disables the batched gate path.
    pub fn set_batching(&mut self, on: bool) {
        self.batch_enabled = on;
    }

    /// Whether the batched gate path is enabled.
    pub fn batching(&self) -> bool {
        self.batch_enabled
    }

    /// Total requests accepted (synchronous + deferred).
    pub fn gate_requests(&self) -> u64 {
        self.requests
    }

    /// Deferred requests whose dispatch failed after their response had
    /// already been given up (fire-and-forget error sink).
    pub fn deferred_errors(&self) -> u64 {
        self.deferred_errors
    }

    /// Stamps the causal request context `(tenant, req)` carried by
    /// subsequent ring-enqueue trace events (see [`Event::RingEnqueue`]).
    /// The fleet load generator sets this before each dispatched request.
    pub fn set_req_context(&mut self, tenant: u64, req: u64) {
        self.req_context = (tenant, req);
    }

    /// Voids `count` deferred requests: bumps the fire-and-forget error
    /// sink and emits the matching [`Event::DeferredError`], so the
    /// failure is visible in the trace stream and (through the shared
    /// event fold) in every exported metrics snapshot — not just in the
    /// gate's internal counter.
    fn void_deferred(&mut self, hv: &mut Hypervisor, vcpu: u32, count: u64) {
        self.deferred_errors += count;
        hv.machine.trace_event(Event::DeferredError { vcpu, count: count as u32 });
    }

    /// Queued-but-undrained requests for a VCPU.
    pub fn pending_depth(&self, vcpu: u32) -> u32 {
        self.pending.get(vcpu as usize).map_or(0, |b| b.reqs.len() as u32)
    }

    /// Takes `vcpu`'s queued requests out for a drain, leaving its batch
    /// empty. [`VeilGate::recycle`] hands the vector back afterwards.
    fn take_batch(&mut self, vcpu: u32) -> Vec<MonRequest> {
        self.pending.get_mut(vcpu as usize).map(|b| std::mem::take(&mut b.reqs)).unwrap_or_default()
    }

    /// Returns a drained batch's vector to `vcpu`'s storage, emptied, so
    /// the next batch reuses its capacity instead of regrowing it.
    fn recycle(&mut self, vcpu: u32, mut reqs: Vec<MonRequest>) {
        reqs.clear();
        if let Some(batch) = self.pending.get_mut(vcpu as usize) {
            batch.reqs = reqs;
        }
    }

    /// Which trusted domain terminates a request.
    fn target_vmpl(req: &MonRequest) -> Vmpl {
        match req {
            MonRequest::Pvalidate { .. } | MonRequest::CreateVcpu { .. } => Vmpl::Vmpl0,
            _ => Vmpl::Vmpl1,
        }
    }

    /// Performs one hypervisor-relayed switch of `vcpu` to `target`.
    fn switch(
        &mut self,
        hv: &mut Hypervisor,
        vcpu: u32,
        from: Vmpl,
        target: Vmpl,
    ) -> Result<(), OsError> {
        hv.machine.span_enter("gate.switch");
        let res = Self::relay(hv, vcpu, from, GhcbExit::DomainSwitch, target, 0);
        hv.machine.span_exit("gate.switch");
        res
    }

    /// Writes `exit` (info1 = `target`, then `info2`) to `vcpu`'s GHCB and
    /// exits to the hypervisor, which must resume `target`: a domain switch
    /// (info2 0) or a doorbell (info2 = ring depth, advisory — the trusted
    /// side re-reads and validates the ring itself).
    fn relay(
        hv: &mut Hypervisor,
        vcpu: u32,
        from: Vmpl,
        exit: GhcbExit,
        target: Vmpl,
        info2: u64,
    ) -> Result<(), OsError> {
        let ghcb_gfn = hv.machine.ghcb_msr(vcpu).ok_or(Refusal::NoGhcb)?;
        let ghcb = Ghcb::at(&hv.machine, ghcb_gfn).ok_or(Refusal::GhcbNotShared)?;
        ghcb.write_request(&mut hv.machine, from, exit, target.index() as u64, info2)?;
        match hv.vmgexit(vcpu, false)? {
            HvResponse::Switched { vmpl, .. } if vmpl == target => Ok(()),
            other => Err(Refusal::of_response(&other).into()),
        }
    }

    /// Trusted-side dispatch, after the switch landed.
    fn dispatch(
        &mut self,
        hv: &mut Hypervisor,
        vcpu: u32,
        req: &MonRequest,
    ) -> Result<MonResponse, OsError> {
        hv.machine.span_enter("gate.dispatch");
        let res = self.dispatch_inner(hv, vcpu, req);
        hv.machine.span_exit("gate.dispatch");
        res
    }

    fn dispatch_inner(
        &mut self,
        hv: &mut Hypervisor,
        vcpu: u32,
        req: &MonRequest,
    ) -> Result<MonResponse, OsError> {
        match req {
            MonRequest::Pvalidate { gfn, validate } => {
                self.monitor.pvalidate_delegate(hv, *gfn, *validate)?;
                Ok(MonResponse::Ok)
            }
            MonRequest::CreateVcpu { vcpu_id, rip, rsp, cr3 } => {
                let gfn = self.monitor.create_vcpu_delegate(hv, *vcpu_id, *rip, *rsp, *cr3)?;
                Ok(MonResponse::Value(gfn))
            }
            other => {
                // Generic pointer sanitization for every frame list an OS
                // request can carry (§8.1), before the service sees it.
                let gfns: Vec<u64> = match other {
                    MonRequest::KciModuleLoad { staging_gfns, dest_gfns, .. } => {
                        staging_gfns.iter().chain(dest_gfns.iter()).copied().collect()
                    }
                    MonRequest::KciModuleUnload { text_gfns } => text_gfns.clone(),
                    MonRequest::EncPageIn { staging_gfn, dest_gfn, .. } => {
                        vec![*staging_gfn, *dest_gfn]
                    }
                    _ => Vec::new(),
                };
                self.monitor.sanitize_gfns(&hv.machine, &gfns)?;
                self.services.dispatch(&mut self.monitor, hv, vcpu, other)
            }
        }
    }
}

impl<S: ServiceDispatch> MonitorChannel for VeilGate<S> {
    fn request(
        &mut self,
        hv: &mut Hypervisor,
        vcpu: u32,
        req: MonRequest,
    ) -> Result<MonResponse, OsError> {
        hv.machine.span_enter("gate.request");
        let res = self.request_inner(hv, vcpu, req);
        hv.machine.span_exit("gate.request");
        res
    }

    fn request_deferred(
        &mut self,
        hv: &mut Hypervisor,
        vcpu: u32,
        req: MonRequest,
    ) -> Result<(), OsError> {
        if !self.batch_enabled {
            return self.request(hv, vcpu, req).map(|_| ());
        }
        self.requests += 1;
        let target = Self::target_vmpl(&req);
        // Only a VCPU with a ring can hold a batch, so the storage grows
        // no further than the layout's VCPUs.
        let ring_gfn = self.monitor.layout.gate_ring_gfn(vcpu).ok_or(Refusal::NoGateRing)?;
        let ring = GateRing::at(ring_gfn);
        let at = vcpu as usize;
        if at >= self.pending.len() {
            self.pending.resize_with(at + 1, || PendingBatch { target, reqs: Vec::new() });
        }
        // Keep batches homogeneous: a target change drains the old batch.
        let queued = &self.pending[at];
        if !queued.reqs.is_empty() && queued.target != target {
            self.flush(hv, vcpu)?;
        }
        // The kernel is the ring's only producer: its batch length is the
        // next slot index, so nothing is read back from the ring.
        let idx = self.pending[at].reqs.len() as u32;
        if idx == 0 {
            ring.reset(&mut hv.machine, Vmpl::Vmpl3)?;
        }
        // Same compact wire stub as the IDCB path; the copy cost below is
        // charged from the full wire length.
        let mut wire = [0u8; 16];
        wire[0] = req.kind_code();
        wire[8..].copy_from_slice(&(req.wire_len() as u64).to_le_bytes());
        ring.push(&mut hv.machine, Vmpl::Vmpl3, idx, req.kind_code(), &wire)?;
        let copy_cost = hv.machine.cost().copy(req.wire_len());
        hv.machine.charge(CostCategory::KernelService, copy_cost);
        let batch = &mut self.pending[at];
        batch.target = target;
        batch.reqs.push(req);
        let (tenant, ctx_req) = self.req_context;
        hv.machine.trace_event(Event::RingEnqueue {
            vcpu,
            target: target.index() as u8,
            depth: batch.reqs.len() as u32,
            tenant,
            req: ctx_req,
        });
        if batch.reqs.len() as u32 == RING_SLOTS {
            self.flush(hv, vcpu)?;
        }
        Ok(())
    }

    fn flush(&mut self, hv: &mut Hypervisor, vcpu: u32) -> Result<(), OsError> {
        let Some(batch) = self.pending.get(vcpu as usize) else { return Ok(()) };
        if batch.reqs.is_empty() {
            return Ok(());
        }
        let target = batch.target;
        let reqs = self.take_batch(vcpu);
        hv.machine.span_enter("gate.batch");
        let depth = reqs.len() as u64;
        let res = match Self::relay(hv, vcpu, Vmpl::Vmpl3, GhcbExit::Doorbell, target, depth) {
            Ok(()) => {
                let drained = self.drain_entries(hv, vcpu, target, &reqs);
                // The switch back must happen even when the drain tripped.
                let back = self.switch(hv, vcpu, target, Vmpl::Vmpl3);
                drained.and(back)
            }
            Err(e) => {
                // The switch never happened; the whole batch is lost.
                self.void_deferred(hv, vcpu, depth);
                Err(e)
            }
        };
        self.recycle(vcpu, reqs);
        hv.machine.span_exit("gate.batch");
        res
    }

    fn kernel_vmpl(&self) -> Vmpl {
        Vmpl::Vmpl3
    }
}

impl<S: ServiceDispatch> VeilGate<S> {
    /// Trusted-side drain loop, after the doorbell switch landed. The
    /// ring is untrusted input: the count and every slot header are
    /// re-validated on each drain, from a private copy of each slot, and
    /// anything inconsistent voids the affected entries into
    /// `deferred_errors` rather than crashing the trusted side.
    fn drain_entries(
        &mut self,
        hv: &mut Hypervisor,
        vcpu: u32,
        target: Vmpl,
        reqs: &[MonRequest],
    ) -> Result<(), OsError> {
        let ring_gfn = self.monitor.layout.gate_ring_gfn(vcpu).ok_or(Refusal::NoGateRing)?;
        let ring = GateRing::at(ring_gfn);
        let mut slot = SlotBuf::default();
        match ring.depth(&hv.machine, target) {
            Ok(depth) if depth as usize == reqs.len() => {
                for (idx, req) in reqs.iter().enumerate() {
                    match ring.read_slot(&hv.machine, target, idx as u32, &mut slot) {
                        Ok((kind, _payload)) if kind == req.kind_code() => {
                            let read_cost = hv.machine.cost().copy(req.wire_len());
                            hv.machine.charge(CostCategory::Other, read_cost);
                            if self.dispatch(hv, vcpu, req).is_err() {
                                self.void_deferred(hv, vcpu, 1);
                            }
                        }
                        _ => {
                            // Corrupt slot: void this entry and the rest.
                            self.void_deferred(hv, vcpu, (reqs.len() - idx) as u64);
                            break;
                        }
                    }
                }
            }
            _ => {
                // Hostile or corrupt occupancy: void the whole batch.
                self.void_deferred(hv, vcpu, reqs.len() as u64);
            }
        }
        // Ack: the trusted side leaves the ring empty.
        ring.reset(&mut hv.machine, target)?;
        Ok(())
    }

    fn request_inner(
        &mut self,
        hv: &mut Hypervisor,
        vcpu: u32,
        req: MonRequest,
    ) -> Result<MonResponse, OsError> {
        self.requests += 1;
        let target = Self::target_vmpl(&req);
        // A same-target pending batch rides under this request's switch
        // pair; a mixed-target batch drains on its own first. With an
        // empty ring this is the exact serial protocol.
        let piggyback = match self.pending.get(vcpu as usize) {
            Some(b) if !b.reqs.is_empty() => {
                if b.target == target {
                    true
                } else {
                    self.flush(hv, vcpu)?;
                    false
                }
            }
            _ => false,
        };
        self.seq = self.seq.wrapping_add(1);
        let seq = self.seq;

        // ① Transcribe the request into the per-VCPU IDCB. The typed
        // `MonRequest` travels alongside; the bytes exercise the real
        // memory path and the copy cost is charged from the wire length.
        let idcb_gfn = self.monitor.layout.idcb_gfn(vcpu).ok_or(Refusal::NoIdcb)?;
        let idcb = Idcb::at(idcb_gfn);
        // Compact fixed header instead of a formatted dump of the request:
        // the typed value carries the payload, the IDCB bytes exercise the
        // real memory path, and the copy cost below is still charged from
        // the full wire length. (Debug-formatting the request allocated on
        // every monitor crossing — measurable on the audit hot path.)
        let mut wire = [0u8; 16];
        wire[0] = req.kind_code();
        wire[8..].copy_from_slice(&(req.wire_len() as u64).to_le_bytes());
        idcb.write_message(&mut hv.machine, Vmpl::Vmpl3, seq, &wire)?;
        let copy_cost = hv.machine.cost().copy(req.wire_len());
        hv.machine.charge(CostCategory::KernelService, copy_cost);

        // ②–⑤ Request path switch. With a same-target batch pending, the
        // switch out is a doorbell and the ring drains before dispatch.
        if piggyback {
            let reqs = self.take_batch(vcpu);
            hv.machine.span_enter("gate.batch");
            let depth = reqs.len() as u64;
            let res = match Self::relay(hv, vcpu, Vmpl::Vmpl3, GhcbExit::Doorbell, target, depth) {
                Ok(()) => self.drain_entries(hv, vcpu, target, &reqs),
                Err(e) => {
                    self.void_deferred(hv, vcpu, depth);
                    Err(e)
                }
            };
            self.recycle(vcpu, reqs);
            hv.machine.span_exit("gate.batch");
            res?;
        } else {
            self.switch(hv, vcpu, Vmpl::Vmpl3, target)?;
        }

        // ⑥ Trusted side reads the IDCB (charged) and dispatches.
        let (_seq, _bytes) = idcb.read_message(&hv.machine, target)?;
        let read_cost = hv.machine.cost().copy(req.wire_len());
        hv.machine.charge(CostCategory::Other, read_cost);
        let result = self.dispatch(hv, vcpu, &req);

        // Reply: trusted side acknowledges through the IDCB, then
        // switches the VCPU back to the OS. The switch back must happen
        // even when the request failed.
        let ack: &[u8] = match &result {
            Ok(_) => b"ok",
            Err(_) => b"refused",
        };
        idcb.write_message(&mut hv.machine, target, seq, ack)?;
        self.switch(hv, vcpu, target, Vmpl::Vmpl3)?;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{Layout, LayoutConfig};
    use crate::service::NoServices;
    use veil_snp::machine::{Machine, MachineConfig};
    use veil_snp::mem::gpa_of;

    fn booted_gate_with(register_ghcb: bool) -> (Hypervisor, VeilGate<NoServices>) {
        let frames = 2048u64;
        let machine =
            Machine::new(MachineConfig { frames: frames as usize, ..MachineConfig::default() });
        let mut hv = Hypervisor::new(machine);
        let layout = Layout::compute(&LayoutConfig { frames, vcpus: 1, ..LayoutConfig::default() });
        let image: Vec<(u64, Vec<u8>)> =
            layout.mon_image.clone().map(|g| (g, vec![0xcc; 64])).collect();
        hv.launch(&image, layout.boot_vmsa).unwrap();
        let monitor = Monitor::init(&mut hv, layout, 1).unwrap();
        if register_ghcb {
            // The kernel would register its GHCB at boot; do it here.
            let ghcb = monitor.layout.kernel_ghcb_gfns(1)[0];
            hv.machine.set_ghcb_msr(0, ghcb);
        }
        (hv, VeilGate::new(monitor, NoServices))
    }

    fn booted_gate() -> (Hypervisor, VeilGate<NoServices>) {
        booted_gate_with(true)
    }

    #[test]
    fn pvalidate_request_via_full_protocol() {
        let (mut hv, mut gate) = booted_gate();
        let fresh = gate.monitor.layout.shared.start + 4;
        hv.machine.rmp_assign(fresh).unwrap();
        let before = hv.stats().domain_switches;
        let resp =
            gate.request(&mut hv, 0, MonRequest::Pvalidate { gfn: fresh, validate: true }).unwrap();
        assert_eq!(resp, MonResponse::Ok);
        // Two hypervisor-relayed switches: in and out.
        assert_eq!(hv.stats().domain_switches, before + 2);
        // Kernel can use the page now.
        assert!(hv.machine.write(Vmpl::Vmpl3, gpa_of(fresh), b"ok").is_ok());
        // The VCPU ended back in Dom_UNT.
        assert_eq!(hv.vcpu(0).unwrap().current_vmpl, Vmpl::Vmpl3);
    }

    #[test]
    fn refused_request_still_switches_back() {
        let (mut hv, mut gate) = booted_gate();
        let protected = gate.monitor.layout.mon_pool.start;
        let err =
            gate.request(&mut hv, 0, MonRequest::Pvalidate { gfn: protected, validate: false });
        assert!(err.is_err());
        assert_eq!(hv.vcpu(0).unwrap().current_vmpl, Vmpl::Vmpl3);
    }

    #[test]
    fn service_requests_rejected_without_services() {
        let (mut hv, mut gate) = booted_gate();
        let err = gate.request(&mut hv, 0, MonRequest::LogAppend { record: vec![1, 2, 3] });
        assert_eq!(err, Err(OsError::Refused(Refusal::NoService)));
    }

    #[test]
    fn malicious_staging_pointer_rejected_by_sanitizer() {
        let (mut hv, mut gate) = booted_gate();
        // OS tries to make the "service" write into monitor memory.
        let evil = gate.monitor.layout.mon_pool.start + 3;
        let err = gate.request(
            &mut hv,
            0,
            MonRequest::KciModuleLoad {
                staging_gfns: vec![evil],
                image_len: 10,
                dest_gfns: vec![gate.monitor.layout.kernel_pool.start],
            },
        );
        assert_eq!(err, Err(OsError::Refused(Refusal::UnsafePointer)));
    }

    #[test]
    fn request_without_registered_ghcb_is_config_error() {
        let (mut hv, mut gate) = booted_gate_with(false);
        let fresh = gate.monitor.layout.shared.start + 4;
        hv.machine.rmp_assign(fresh).unwrap();
        let err = gate.request(&mut hv, 0, MonRequest::Pvalidate { gfn: fresh, validate: true });
        assert_eq!(err, Err(OsError::Refused(Refusal::NoGhcb)));
        // The switch never reached the hypervisor, so nothing halted.
        assert!(hv.machine.halted().is_none());
        assert_eq!(hv.stats().domain_switches, 0);
    }

    #[test]
    fn hypervisor_refusal_surfaces_as_monitor_refused() {
        let (mut hv, mut gate) = booted_gate();
        hv.policy.refuse_switches = true;
        let fresh = gate.monitor.layout.shared.start + 4;
        hv.machine.rmp_assign(fresh).unwrap();
        let domain_before = hv.vcpu(0).unwrap().current_vmpl;
        let err = gate.request(&mut hv, 0, MonRequest::Pvalidate { gfn: fresh, validate: true });
        assert_eq!(err, Err(OsError::Refused(Refusal::HostRefused)));
        // Denial of service, not a crash: the VCPU never left its domain.
        assert!(hv.machine.halted().is_none());
        assert_eq!(hv.vcpu(0).unwrap().current_vmpl, domain_before);
    }

    #[test]
    fn resume_in_wrong_domain_detected() {
        let (mut hv, mut gate) = booted_gate();
        // Pvalidate targets Dom_MON (VMPL0); a malicious host resumes the
        // kernel's own VMSA instead.
        hv.policy.misroute_switch_to = Some(Vmpl::Vmpl3);
        let fresh = gate.monitor.layout.shared.start + 4;
        hv.machine.rmp_assign(fresh).unwrap();
        let err = gate.request(&mut hv, 0, MonRequest::Pvalidate { gfn: fresh, validate: true });
        assert_eq!(err, Err(OsError::Refused(Refusal::UnexpectedResponse)));
        // The misrouted request never dispatched: the page stays unvalidated.
        assert!(hv.machine.write(Vmpl::Vmpl3, gpa_of(fresh), b"x").is_err());
    }

    #[test]
    fn deferred_requests_drain_under_one_switch_pair() {
        let (mut hv, mut gate) = booted_gate();
        gate.set_batching(true);
        let base = gate.monitor.layout.shared.start + 4;
        for i in 0..3 {
            hv.machine.rmp_assign(base + i).unwrap();
        }
        let before = hv.stats().domain_switches;
        for i in 0..3 {
            gate.request_deferred(
                &mut hv,
                0,
                MonRequest::Pvalidate { gfn: base + i, validate: true },
            )
            .unwrap();
        }
        // Nothing switched yet; the requests sit in the ring.
        assert_eq!(hv.stats().domain_switches, before);
        assert_eq!(gate.pending_depth(0), 3);
        assert!(hv.machine.write(Vmpl::Vmpl3, gpa_of(base), b"x").is_err());
        gate.flush(&mut hv, 0).unwrap();
        // One doorbell switch pair drained all three.
        assert_eq!(hv.stats().domain_switches, before + 2);
        assert_eq!(hv.stats().doorbells, 1);
        assert_eq!(gate.pending_depth(0), 0);
        assert_eq!(gate.deferred_errors(), 0);
        for i in 0..3 {
            assert!(hv.machine.write(Vmpl::Vmpl3, gpa_of(base + i), b"ok").is_ok());
        }
        assert_eq!(hv.vcpu(0).unwrap().current_vmpl, Vmpl::Vmpl3);
    }

    #[test]
    fn sync_request_piggybacks_same_target_batch() {
        let (mut hv, mut gate) = booted_gate();
        gate.set_batching(true);
        let base = gate.monitor.layout.shared.start + 4;
        for i in 0..3 {
            hv.machine.rmp_assign(base + i).unwrap();
        }
        let before = hv.stats().domain_switches;
        for i in 0..2 {
            gate.request_deferred(
                &mut hv,
                0,
                MonRequest::Pvalidate { gfn: base + i, validate: true },
            )
            .unwrap();
        }
        let resp = gate
            .request(&mut hv, 0, MonRequest::Pvalidate { gfn: base + 2, validate: true })
            .unwrap();
        assert_eq!(resp, MonResponse::Ok);
        // The deferred pair rode under the sync request's switch pair.
        assert_eq!(hv.stats().domain_switches, before + 2);
        assert_eq!(hv.stats().doorbells, 1);
        for i in 0..3 {
            assert!(hv.machine.write(Vmpl::Vmpl3, gpa_of(base + i), b"ok").is_ok());
        }
        assert_eq!(gate.gate_requests(), 3);
    }

    #[test]
    fn mixed_target_enqueue_drains_old_batch_first() {
        let (mut hv, mut gate) = booted_gate();
        gate.set_batching(true);
        let fresh = gate.monitor.layout.shared.start + 4;
        hv.machine.rmp_assign(fresh).unwrap();
        let before = hv.stats().domain_switches;
        gate.request_deferred(&mut hv, 0, MonRequest::Pvalidate { gfn: fresh, validate: true })
            .unwrap();
        // LogAppend targets Dom_SER: the Dom_MON batch drains first.
        gate.request_deferred(&mut hv, 0, MonRequest::LogAppend { record: vec![1] }).unwrap();
        assert_eq!(hv.stats().domain_switches, before + 2);
        assert!(hv.machine.write(Vmpl::Vmpl3, gpa_of(fresh), b"ok").is_ok());
        assert_eq!(gate.pending_depth(0), 1);
        // NoServices refuses LogAppend at drain time: the response was
        // given up, so the failure lands in the error sink.
        gate.flush(&mut hv, 0).unwrap();
        assert_eq!(gate.deferred_errors(), 1);
        assert_eq!(hv.vcpu(0).unwrap().current_vmpl, Vmpl::Vmpl3);
    }

    #[test]
    fn full_ring_auto_drains() {
        let (mut hv, mut gate) = booted_gate();
        gate.set_batching(true);
        let base = gate.monitor.layout.shared.start + 4;
        let before = hv.stats().domain_switches;
        for i in 0..crate::ring::RING_SLOTS as u64 {
            hv.machine.rmp_assign(base + i).unwrap();
            gate.request_deferred(
                &mut hv,
                0,
                MonRequest::Pvalidate { gfn: base + i, validate: true },
            )
            .unwrap();
        }
        // The ring filled and drained itself.
        assert_eq!(gate.pending_depth(0), 0);
        assert_eq!(hv.stats().domain_switches, before + 2);
        assert_eq!(gate.deferred_errors(), 0);
    }

    #[test]
    fn batching_disabled_defer_falls_back_to_sync() {
        let (mut hv, mut gate) = booted_gate();
        assert!(!gate.batching());
        let fresh = gate.monitor.layout.shared.start + 4;
        hv.machine.rmp_assign(fresh).unwrap();
        let before = hv.stats().domain_switches;
        gate.request_deferred(&mut hv, 0, MonRequest::Pvalidate { gfn: fresh, validate: true })
            .unwrap();
        assert_eq!(hv.stats().domain_switches, before + 2);
        assert_eq!(hv.stats().doorbells, 0);
        assert!(hv.machine.write(Vmpl::Vmpl3, gpa_of(fresh), b"ok").is_ok());
    }

    #[test]
    fn shallow_drains_keep_deferring() {
        let (mut hv, mut gate) = booted_gate();
        gate.set_batching(true);
        let gfn = gate.monitor.layout.shared.start + 4;
        hv.machine.rmp_assign(gfn).unwrap();
        // However shallow the drains, a deferral always queues: the
        // coalescing policy is fixed. Alternating the validate flag
        // keeps every request legal.
        for i in 0..32 {
            gate.request_deferred(&mut hv, 0, MonRequest::Pvalidate { gfn, validate: i % 2 == 0 })
                .unwrap();
            assert_eq!(gate.pending_depth(0), 1, "deferral {i} must queue");
            gate.flush(&mut hv, 0).unwrap();
        }
        assert_eq!(hv.stats().doorbells, 32);
        assert_eq!(gate.deferred_errors(), 0);
    }

    #[test]
    fn hostile_policy_batch_failure_visible_in_exported_snapshot() {
        let (mut hv, mut gate) = booted_gate();
        hv.machine.tracer_mut().set_enabled(true);
        hv.machine.set_metrics_enabled(true);
        gate.set_batching(true);
        let base = gate.monitor.layout.shared.start + 4;
        for i in 0..3 {
            hv.machine.rmp_assign(base + i).unwrap();
            gate.request_deferred(
                &mut hv,
                0,
                MonRequest::Pvalidate { gfn: base + i, validate: true },
            )
            .unwrap();
        }
        // The host turns hostile before the doorbell: the switch never
        // happens and the whole batch is voided.
        hv.policy.refuse_switches = true;
        assert!(gate.flush(&mut hv, 0).is_err());
        assert_eq!(gate.deferred_errors(), 3);
        // The loss is visible in the trace stream...
        let records = hv.machine.tracer().snapshot();
        assert!(
            records.iter().any(|r| matches!(r.event, Event::DeferredError { count: 3, .. })),
            "DeferredError record missing from trace"
        );
        // ...and the always-on counter fold agrees.
        assert_eq!(hv.machine.tracer().counters().deferred_errors, 3);
        // ...and in the exported metrics snapshot, on both wire formats.
        let prom = veil_snp::metrics::export::prometheus(hv.machine.metrics(), hv.machine.spans());
        assert!(prom.contains("veil_gate_deferred_errors_total{domain=\"all\"} 3"), "{prom}");
        let json =
            veil_snp::metrics::export::json_snapshot(hv.machine.metrics(), hv.machine.spans());
        assert!(json.contains("gate_deferred_errors_total"), "{json}");
    }

    #[test]
    fn ring_enqueue_events_carry_request_context() {
        let (mut hv, mut gate) = booted_gate();
        hv.machine.tracer_mut().set_enabled(true);
        gate.set_batching(true);
        let base = gate.monitor.layout.shared.start + 4;
        gate.set_req_context(7, 42);
        for i in 0..2 {
            hv.machine.rmp_assign(base + i).unwrap();
            gate.request_deferred(
                &mut hv,
                0,
                MonRequest::Pvalidate { gfn: base + i, validate: true },
            )
            .unwrap();
        }
        let records = hv.machine.tracer().snapshot();
        let depths: Vec<u32> = records
            .iter()
            .filter_map(|r| match r.event {
                Event::RingEnqueue { depth, tenant: 7, req: 42, .. } => Some(depth),
                _ => None,
            })
            .collect();
        assert_eq!(depths, vec![1, 2], "ring occupancy stamped per enqueue");
        gate.flush(&mut hv, 0).unwrap();
    }

    #[test]
    fn switch_cost_matches_paper_constant() {
        let (mut hv, mut gate) = booted_gate();
        let fresh = gate.monitor.layout.shared.start + 5;
        hv.machine.rmp_assign(fresh).unwrap();
        let snap = hv.machine.cycles().snapshot();
        gate.request(&mut hv, 0, MonRequest::Pvalidate { gfn: fresh, validate: true }).unwrap();
        let delta = hv.machine.cycles().since(&snap);
        assert_eq!(delta.of(CostCategory::DomainSwitch), 2 * 7135);
    }
}
