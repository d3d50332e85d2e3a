//! The untrusted hypervisor model.
//!
//! Mirrors the three KVM changes the paper makes for Veil (§7):
//!
//! 1. **Per-domain VMSA bookkeeping** — each VCPU tracks one VMSA per
//!    privilege domain ([`VcpuSvm`], the analogue of the patched
//!    `struct vcpu_svm`).
//! 2. **Domain-switch hypercall** — a `VMGEXIT` with the Veil exit code
//!    resumes the same VCPU from a *different* domain's VMSA
//!    ([`Hypervisor::vmgexit`]).
//! 3. **Automatic-exit redirection** — interrupts arriving while an
//!    enclave domain runs are relayed to `Dom_UNT`
//!    ([`Hypervisor::automatic_exit`]).
//!
//! The hypervisor is *untrusted*: everything it does to guest memory goes
//! through [`veil_snp::machine::Machine::hv_read`]/`hv_write`, which only
//! reach shared pages. [`HvPolicy`] lets security tests flip it into
//! malicious modes (refusing interrupt relay, attempting VMSA tampering)
//! to validate the defences of Table 2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use veil_snp::attest::LaunchMeasurement;
use veil_snp::cost::CostCategory;
use veil_snp::fault::{HaltReason, SnpError};
use veil_snp::ghcb::{Ghcb, GhcbExit};
use veil_snp::machine::Machine;
use veil_snp::mem::PAGE_SIZE;
use veil_snp::perms::Vmpl;
use veil_trace::{exit_code, Event, VMPL_UNKNOWN};

/// Maximum entries one PSC-batch list page can carry (packed `u64`s:
/// bit 63 = to-private, low bits = gfn).
pub const PSC_BATCH_MAX: u64 = (PAGE_SIZE / 8) as u64;

/// Per-VCPU hypervisor state: the per-domain VMSA registry.
#[derive(Debug, Clone)]
pub struct VcpuSvm {
    /// VCPU identifier.
    pub vcpu_id: u32,
    /// VMSA frame per privilege domain (VMPL).
    pub domain_vmsas: BTreeMap<Vmpl, u64>,
    /// Which domain the VCPU is currently executing.
    pub current_vmpl: Vmpl,
}

/// Behavioural knobs for the (untrusted, possibly malicious) hypervisor.
#[derive(Debug, Clone)]
pub struct HvPolicy {
    /// Relay automatic exits during enclave execution to `Dom_UNT`
    /// (the honest behaviour required by §6.2). When `false`, the
    /// hypervisor resumes the enclave domain and lets it field the
    /// interrupt — the attack of Table 2, which must halt the CVM.
    pub relay_interrupts_to_unt: bool,
    /// On every domain switch, attempt to overwrite the saved VMSA state
    /// (Table 2's "violate saved state" attack). Must have no effect.
    pub tamper_vmsa_on_switch: bool,
    /// Restrict user-GHCB domain switches to `Dom_ENC <-> Dom_UNT`
    /// (§6.2: "the hypervisor is instructed to only allow domain switches
    /// between Dom_UNT and Dom_ENC using this GHCB").
    pub enforce_enclave_ghcb_scope: bool,
    /// Refuse every guest-requested domain switch (a denial-of-service
    /// hypervisor). Liveness is explicitly outside Veil's threat model
    /// (§4) — the guest must surface the refusal as an error, not crash.
    pub refuse_switches: bool,
    /// Resume switches in this domain instead of the requested one (the
    /// "resume from the wrong VMSA" attack of Table 2). The response
    /// still reports the domain actually resumed, because the guest-side
    /// gate detects the mismatch from its own post-switch state; `None`
    /// means honest routing.
    pub misroute_switch_to: Option<Vmpl>,
}

impl Default for HvPolicy {
    fn default() -> Self {
        HvPolicy {
            relay_interrupts_to_unt: true,
            tamper_vmsa_on_switch: false,
            enforce_enclave_ghcb_scope: true,
            refuse_switches: false,
            misroute_switch_to: None,
        }
    }
}

/// Outcome of a `VMGEXIT` handled by the hypervisor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HvResponse {
    /// VCPU resumed from the VMSA of `vmpl` (domain switch completed).
    Switched {
        /// Domain now executing.
        vmpl: Vmpl,
        /// VMSA frame resumed from.
        vmsa_gfn: u64,
    },
    /// I/O request serviced; response value placed in the GHCB scratch.
    IoDone,
    /// Page-state change applied.
    PageStateChanged,
    /// New VCPU accepted and marked runnable.
    VcpuCreated,
    /// Guest asked to stop.
    ShutdownAccepted,
    /// The hypervisor refused the request (also used by malicious modes).
    Refused {
        /// Human-readable reason, for diagnostics.
        reason: &'static str,
    },
}

/// Statistics the benches read (switch counts drive the paper's
/// `C_ds × N_ds` runtime-cost analysis in §9.1).
///
/// Since the veil-trace refactor these are no longer separately-maintained
/// counters: [`Hypervisor::stats`] computes them as a pure fold over the
/// machine's event stream ([`veil_trace::EventCounters`]), so they can
/// never disagree with the recorded trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HvStats {
    /// Total `VMGEXIT`s handled.
    pub vmgexits: u64,
    /// Domain switches relayed.
    pub domain_switches: u64,
    /// Switches that crossed an enclave boundary (for Fig. 5 splits).
    pub enclave_crossings: u64,
    /// Automatic exits (interrupts) injected.
    pub automatic_exits: u64,
    /// Page-state changes serviced.
    pub page_state_changes: u64,
    /// I/O exits serviced.
    pub io_exits: u64,
    /// Doorbell rings relayed (batched gate path).
    pub doorbells: u64,
}

/// One recorded VCPU transition, for protocol-sequence assertions
/// (Fig. 3) and forensic inspection. A typed view over the
/// [`veil_trace::Event::DomainSwitch`] records in the machine's trace ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchEvent {
    /// VCPU that transitioned.
    pub vcpu: u32,
    /// Domain it left.
    pub from: Vmpl,
    /// Domain it entered.
    pub to: Vmpl,
    /// Whether the request arrived through a user-mapped GHCB.
    pub user_ghcb: bool,
    /// Whether this was an automatic exit (interrupt) rather than a
    /// guest-requested switch.
    pub automatic: bool,
}

/// The hypervisor: owns the machine and runs the CVM's VCPUs.
#[derive(Debug, Clone)]
pub struct Hypervisor {
    /// The machine being virtualized. Public: guest-side layers (VeilMon,
    /// kernel) operate on it through their own privilege-checked calls.
    pub machine: Machine,
    vcpus: Vec<VcpuSvm>,
    /// Behaviour policy.
    pub policy: HvPolicy,
}

// Fleet shards carry a whole hypervisor (machine + VCPUs) to an OS worker
// thread; keep that provable at compile time.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Hypervisor>();
};

impl Hypervisor {
    /// Wraps a machine.
    pub fn new(machine: Machine) -> Self {
        Hypervisor { machine, vcpus: Vec::new(), policy: HvPolicy::default() }
    }

    /// Enables/disables event tracing on the underlying machine (off by
    /// default — long runs would wrap the ring). Enabling resets the
    /// recorded stream, so assertions see only events from this point on.
    pub fn set_trace(&mut self, enabled: bool) {
        self.machine.tracer_mut().set_enabled(enabled);
    }

    /// Domain transitions recorded since tracing was enabled: the
    /// `DomainSwitch` records of the machine's event ring, viewed as the
    /// legacy [`SwitchEvent`] type.
    pub fn trace(&self) -> Vec<SwitchEvent> {
        self.machine
            .tracer()
            .records()
            .filter_map(|r| match r.event {
                Event::DomainSwitch { vcpu, from, to, user_ghcb, automatic } => Some(SwitchEvent {
                    vcpu,
                    from: Vmpl::from_index(from as usize)?,
                    to: Vmpl::from_index(to as usize)?,
                    user_ghcb,
                    automatic,
                }),
                _ => None,
            })
            .collect()
    }

    /// Clears the recorded event stream (ring + digest) without toggling
    /// the enable flag.
    pub fn clear_trace(&mut self) {
        self.machine.tracer_mut().clear();
    }

    /// Enables/disables metrics collection (registry + span profiler) on
    /// the underlying machine. Enabling resets the recorded series, so
    /// measurements see only activity from this point on.
    pub fn set_metrics(&mut self, enabled: bool) {
        self.machine.set_metrics_enabled(enabled);
    }

    /// The executing VMPL of `vcpu_id` as a raw trace level.
    fn trace_vmpl(&self, vcpu_id: u32) -> u8 {
        self.vcpu(vcpu_id).map(|v| v.current_vmpl.index() as u8).unwrap_or(VMPL_UNKNOWN)
    }

    /// Records the re-entry of `vcpu_id` into its (possibly new) domain and
    /// passes `resp` through — every non-halting `VMGEXIT` path ends here.
    fn vmenter(&mut self, vcpu_id: u32, resp: HvResponse) -> Result<HvResponse, SnpError> {
        let vmpl = self.trace_vmpl(vcpu_id);
        self.machine.trace_event(Event::VmEnter { vcpu: vcpu_id, vmpl });
        Ok(resp)
    }

    /// Loads a boot image (list of `(gfn, page)` pairs) through the
    /// launch firmware, creates the boot VCPU's VMSA at `vmsa_gfn` and
    /// finalizes the launch measurement. Returns the measurement.
    ///
    /// # Errors
    ///
    /// Propagates firmware/RMP errors (double launch, overlapping pages).
    pub fn launch(
        &mut self,
        boot_image: &[(u64, Vec<u8>)],
        vmsa_gfn: u64,
    ) -> Result<[u8; 32], SnpError> {
        let mut measurement = LaunchMeasurement::new();
        for (gfn, page) in boot_image {
            self.machine.launch_load(*gfn, page, &mut measurement)?;
        }
        // The boot VMSA frame is part of the launch set too.
        self.machine.launch_load(vmsa_gfn, &[], &mut measurement)?;
        self.machine.launch_create_boot_vmsa(vmsa_gfn, 0)?;
        let digest = measurement.finalize();
        self.machine.launch_finalize(digest);
        let mut boot =
            VcpuSvm { vcpu_id: 0, domain_vmsas: BTreeMap::new(), current_vmpl: Vmpl::Vmpl0 };
        boot.domain_vmsas.insert(Vmpl::Vmpl0, vmsa_gfn);
        self.vcpus = vec![boot];
        Ok(digest)
    }

    /// Statistics so far — a pure fold over the machine's event stream.
    pub fn stats(&self) -> HvStats {
        let c = self.machine.tracer().counters();
        HvStats {
            vmgexits: c.vmgexits,
            domain_switches: c.domain_switches,
            enclave_crossings: c.enclave_crossings,
            automatic_exits: c.automatic_exits,
            page_state_changes: c.page_state_changes,
            io_exits: c.io_exits,
            doorbells: c.doorbells,
        }
    }

    /// Immutable view of a VCPU's hypervisor state.
    pub fn vcpu(&self, vcpu_id: u32) -> Option<&VcpuSvm> {
        self.vcpus.iter().find(|v| v.vcpu_id == vcpu_id)
    }

    /// Mutable view (used by the CVM driver layer to model scheduling).
    pub fn vcpu_mut(&mut self, vcpu_id: u32) -> Option<&mut VcpuSvm> {
        self.vcpus.iter_mut().find(|v| v.vcpu_id == vcpu_id)
    }

    /// Registers a VMSA for (`vcpu_id`, `vmpl`) — the bookkeeping KVM
    /// gains in §7 ("maintain VMSAs for newly-created domains").
    ///
    /// The guest announces the VMSA through the `CreateVcpu` hypercall;
    /// this is the handler's core. New VCPU ids are accepted (hotplug).
    pub fn register_domain_vmsa(&mut self, vcpu_id: u32, vmpl: Vmpl, vmsa_gfn: u64) {
        match self.vcpu_mut(vcpu_id) {
            Some(v) => {
                v.domain_vmsas.insert(vmpl, vmsa_gfn);
            }
            None => {
                let mut v = VcpuSvm { vcpu_id, domain_vmsas: BTreeMap::new(), current_vmpl: vmpl };
                v.domain_vmsas.insert(vmpl, vmsa_gfn);
                self.vcpus.push(v);
            }
        }
    }

    /// Handles a `VMGEXIT` from `vcpu_id`. `from_user_ghcb` marks requests
    /// arriving through the user-mapped per-thread GHCB of §6.2, which the
    /// hypervisor confines to enclave crossings.
    ///
    /// Charges the full hypervisor-relayed exit cost to the cycle account.
    ///
    /// # Errors
    ///
    /// Returns [`SnpError::Halted`] when the protocol wedges in a way the
    /// paper identifies as a CVM crash (missing or unshared GHCB).
    pub fn vmgexit(&mut self, vcpu_id: u32, from_user_ghcb: bool) -> Result<HvResponse, SnpError> {
        self.machine.span_enter("hv.vmgexit");
        let res = self.vmgexit_inner(vcpu_id, from_user_ghcb);
        self.machine.span_exit("hv.vmgexit");
        res
    }

    fn vmgexit_inner(
        &mut self,
        vcpu_id: u32,
        from_user_ghcb: bool,
    ) -> Result<HvResponse, SnpError> {
        self.machine.ensure_running()?;
        let exiting = self.trace_vmpl(vcpu_id);
        let exit_event = |code: u64| Event::VmgExit {
            vcpu: vcpu_id,
            vmpl: exiting,
            code,
            user_ghcb: from_user_ghcb,
            automatic: false,
        };
        let ghcb_gfn = match self.machine.ghcb_msr(vcpu_id) {
            Some(g) => g,
            None => {
                // No GHCB registered: the exit is unintelligible and the
                // protocol wedges — the "incorrect GHCB mapping" crash.
                self.machine.trace_event(exit_event(exit_code::UNKNOWN));
                let reason =
                    HaltReason::SecurityViolation("VMGEXIT without a registered GHCB".into());
                self.machine.halt(reason.clone());
                return Err(SnpError::Halted(reason));
            }
        };
        let ghcb = match Ghcb::at(&self.machine, ghcb_gfn) {
            Ok(g) => g,
            Err(_) => {
                // GHCB not actually shared -> hypervisor cannot read it;
                // §6.2: "the CVM crashes on an attempted domain switch".
                self.machine.trace_event(exit_event(exit_code::UNKNOWN));
                let reason =
                    HaltReason::SecurityViolation("GHCB page is not hypervisor-accessible".into());
                self.machine.halt(reason.clone());
                return Err(SnpError::Halted(reason));
            }
        };
        let request = ghcb.read_request(&self.machine);
        let code = request.map(|(e, _, _)| e.code()).unwrap_or(exit_code::UNKNOWN);
        self.machine.trace_event(exit_event(code));
        let (exit, info1, info2) = match request {
            Some(r) => r,
            None => {
                return self
                    .vmenter(vcpu_id, HvResponse::Refused { reason: "undecodable exit code" })
            }
        };
        match exit {
            GhcbExit::DomainSwitch => {
                let resp = match Vmpl::from_index(info1 as usize) {
                    Some(target) => self.relay_domain_switch(vcpu_id, target, from_user_ghcb),
                    None => HvResponse::Refused { reason: "bad target vmpl" },
                };
                self.vmenter(vcpu_id, resp)
            }
            GhcbExit::PageStateChange => {
                let gfn = info1;
                let to_private = info2 == 1;
                self.charge_exit_roundtrip(CostCategory::Other);
                let outcome = if to_private {
                    self.machine.rmp_assign(gfn)
                } else {
                    self.machine.rmp_reclaim(gfn)
                };
                let resp = match outcome {
                    Ok(()) => {
                        ghcb.write_response(&mut self.machine, 0);
                        HvResponse::PageStateChanged
                    }
                    Err(_) => {
                        ghcb.write_response(&mut self.machine, 1);
                        HvResponse::Refused { reason: "page state change rejected" }
                    }
                };
                self.vmenter(vcpu_id, resp)
            }
            GhcbExit::CreateVcpu => {
                let vmsa_gfn = info1;
                let new_vcpu_id = info2 as u32;
                self.charge_exit_roundtrip(CostCategory::Other);
                // The hypervisor verifies the frame really is a VMSA the
                // guest prepared; it cannot read it, only reference it.
                let resp = match self.machine.vmsa(vmsa_gfn) {
                    Some(v) => {
                        let vmpl = v.vmpl();
                        self.register_domain_vmsa(new_vcpu_id, vmpl, vmsa_gfn);
                        HvResponse::VcpuCreated
                    }
                    None => HvResponse::Refused { reason: "not a VMSA" },
                };
                self.vmenter(vcpu_id, resp)
            }
            GhcbExit::Doorbell => {
                // The doorbell is a domain switch with intent attached:
                // the target will drain a ring of `info2` queued requests
                // under this single relayed switch. The hypervisor only
                // relays — ring contents are validated guest-side.
                let resp = match Vmpl::from_index(info1 as usize) {
                    Some(target) => {
                        self.machine.trace_event(Event::Doorbell {
                            vcpu: vcpu_id,
                            target: target.index() as u8,
                            depth: info2 as u32,
                        });
                        let resp = self.relay_domain_switch(vcpu_id, target, from_user_ghcb);
                        if matches!(resp, HvResponse::Switched { .. }) {
                            // The relay holds the VCPU a little longer per
                            // announced slot (drain bookkeeping before
                            // re-entry), so relay latency scales with ring
                            // occupancy. Charged outside DomainSwitch: the
                            // switch itself still costs exactly 7,135.
                            let per_slot = self.machine.cost().doorbell_drain_slot;
                            self.machine
                                .charge(CostCategory::Other, per_slot * u64::from(info2 as u32));
                        }
                        resp
                    }
                    None => HvResponse::Refused { reason: "bad target vmpl" },
                };
                self.vmenter(vcpu_id, resp)
            }
            GhcbExit::PscBatch => {
                self.charge_exit_roundtrip(CostCategory::Other);
                let resp = self.apply_psc_batch(&ghcb, info1, info2);
                self.vmenter(vcpu_id, resp)
            }
            GhcbExit::Io | GhcbExit::Msr => {
                self.charge_exit_roundtrip(CostCategory::KernelService);
                ghcb.write_response(&mut self.machine, 0);
                self.vmenter(vcpu_id, HvResponse::IoDone)
            }
            GhcbExit::Shutdown => {
                // The machine halts; the guest never re-enters.
                self.machine.halt(HaltReason::Shutdown);
                Ok(HvResponse::ShutdownAccepted)
            }
        }
    }

    /// The §5.2 relay: exit the current VMSA, re-enter the target
    /// domain's VMSA on the same VCPU.
    fn relay_domain_switch(
        &mut self,
        vcpu_id: u32,
        target: Vmpl,
        from_user_ghcb: bool,
    ) -> HvResponse {
        self.machine.span_enter("hv.relay_switch");
        let resp = self.relay_domain_switch_inner(vcpu_id, target, from_user_ghcb);
        self.machine.span_exit("hv.relay_switch");
        resp
    }

    fn relay_domain_switch_inner(
        &mut self,
        vcpu_id: u32,
        target: Vmpl,
        from_user_ghcb: bool,
    ) -> HvResponse {
        let current = match self.vcpu(vcpu_id) {
            Some(v) => v.current_vmpl,
            None => return HvResponse::Refused { reason: "unknown vcpu" },
        };
        if self.policy.refuse_switches {
            return HvResponse::Refused { reason: "switch refused by host policy" };
        }
        if from_user_ghcb && self.policy.enforce_enclave_ghcb_scope {
            let allowed = matches!(
                (current, target),
                (Vmpl::Vmpl2, Vmpl::Vmpl3) | (Vmpl::Vmpl3, Vmpl::Vmpl2)
            );
            if !allowed {
                return HvResponse::Refused { reason: "user GHCB limited to enclave crossings" };
            }
        }
        // Malicious misrouting: resume a different domain's VMSA than the
        // one the guest asked for. Hardware guarantees the resumed VMSA is
        // one the guest created, so the worst the host can do is pick the
        // wrong (but intact) domain.
        let target = match self.policy.misroute_switch_to {
            Some(wrong) if wrong != target => wrong,
            _ => target,
        };
        let vmsa_gfn = match self.vcpu(vcpu_id).and_then(|v| v.domain_vmsas.get(&target)) {
            Some(g) => *g,
            None => return HvResponse::Refused { reason: "no VMSA for target domain" },
        };
        if self.policy.tamper_vmsa_on_switch {
            // Malicious mode: try to scribble on the saved state. The VMSA
            // lives in guest-private memory, so this must fail.
            let _ = self.machine.hv_write(Machine::gpa(vmsa_gfn), &[0xff; 8]);
        }
        let enclave_crossing = current == Vmpl::Vmpl2 || target == Vmpl::Vmpl2;
        let category =
            if enclave_crossing { CostCategory::EnclaveExit } else { CostCategory::DomainSwitch };
        // The save/restore round trip is billed to the domain being left.
        self.charge_exit_roundtrip(category);
        if let Some(v) = self.vcpu_mut(vcpu_id) {
            v.current_vmpl = target;
        }
        self.machine.set_current_domain(target);
        self.machine.trace_event(Event::DomainSwitch {
            vcpu: vcpu_id,
            from: current.index() as u8,
            to: target.index() as u8,
            user_ghcb: from_user_ghcb,
            automatic: false,
        });
        HvResponse::Switched { vmpl: target, vmsa_gfn }
    }

    fn charge_exit_roundtrip(&mut self, category: CostCategory) {
        let cost = self.machine.cost().domain_switch();
        self.machine.charge(category, cost);
    }

    /// Applies a batched page-state change: `count` packed entries read
    /// from the shared list page at `list_gfn`, applied in order, stopping
    /// at the first failure. The GHCB scratch receives the number of
    /// entries applied.
    fn apply_psc_batch(&mut self, ghcb: &Ghcb, list_gfn: u64, count: u64) -> HvResponse {
        if count > PSC_BATCH_MAX {
            ghcb.write_response(&mut self.machine, 0);
            return HvResponse::Refused { reason: "psc batch exceeds one list page" };
        }
        let raw = match self.machine.hv_read(Machine::gpa(list_gfn), count as usize * 8) {
            Ok(r) => r,
            Err(_) => {
                ghcb.write_response(&mut self.machine, 0);
                return HvResponse::Refused { reason: "psc list page not hypervisor-readable" };
            }
        };
        let mut processed = 0u64;
        let mut failed = false;
        for chunk in raw.chunks_exact(8) {
            let entry = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            let gfn = entry & !(1u64 << 63);
            let to_private = entry >> 63 == 1;
            let outcome = if to_private {
                self.machine.rmp_assign(gfn)
            } else {
                self.machine.rmp_reclaim(gfn)
            };
            if outcome.is_err() {
                failed = true;
                break;
            }
            processed += 1;
        }
        // Each applied entry costs one list read + RMP update on top of
        // the fixed round trip, so longer batches take longer relays.
        let per_entry = self.machine.cost().psc_batch_entry;
        self.machine.charge(CostCategory::Other, per_entry * processed);
        ghcb.write_response(&mut self.machine, processed);
        if failed {
            HvResponse::Refused { reason: "page state change rejected" }
        } else {
            HvResponse::PageStateChanged
        }
    }

    /// Injects a hardware interrupt while `vcpu_id` runs — an *automatic
    /// exit* (no guest state needed, §3). If the enclave domain is
    /// running, the honest hypervisor resumes `Dom_UNT` so the OS can
    /// field the interrupt (§6.2). Returns the domain that ends up
    /// running; `None` means the CVM halted.
    pub fn automatic_exit(&mut self, vcpu_id: u32) -> Option<Vmpl> {
        self.machine.span_enter("hv.automatic_exit");
        let res = self.automatic_exit_inner(vcpu_id);
        self.machine.span_exit("hv.automatic_exit");
        res
    }

    fn automatic_exit_inner(&mut self, vcpu_id: u32) -> Option<Vmpl> {
        let exiting = self.trace_vmpl(vcpu_id);
        self.machine.trace_event(Event::VmgExit {
            vcpu: vcpu_id,
            vmpl: exiting,
            code: exit_code::AUTOMATIC,
            user_ghcb: false,
            automatic: true,
        });
        let current = self.vcpu(vcpu_id)?.current_vmpl;
        // Automatic exits skip the GHCB protocol but still save/restore.
        self.charge_exit_roundtrip(CostCategory::DomainSwitch);
        if current != Vmpl::Vmpl2 {
            // Kernel handles its own interrupts; nothing to redirect.
            self.machine.trace_event(Event::VmEnter { vcpu: vcpu_id, vmpl: current.index() as u8 });
            return Some(current);
        }
        if self.policy.relay_interrupts_to_unt {
            let unt_vmsa = self.vcpu(vcpu_id)?.domain_vmsas.get(&Vmpl::Vmpl3).copied();
            match unt_vmsa {
                Some(_) => {
                    self.vcpu_mut(vcpu_id).expect("exists").current_vmpl = Vmpl::Vmpl3;
                    self.machine.set_current_domain(Vmpl::Vmpl3);
                    self.machine.trace_event(Event::DomainSwitch {
                        vcpu: vcpu_id,
                        from: Vmpl::Vmpl2.index() as u8,
                        to: Vmpl::Vmpl3.index() as u8,
                        user_ghcb: false,
                        automatic: true,
                    });
                    self.machine.trace_event(Event::VmEnter {
                        vcpu: vcpu_id,
                        vmpl: Vmpl::Vmpl3.index() as u8,
                    });
                    Some(Vmpl::Vmpl3)
                }
                None => {
                    self.machine
                        .trace_event(Event::VmEnter { vcpu: vcpu_id, vmpl: current.index() as u8 });
                    Some(current)
                }
            }
        } else {
            // Malicious refusal: the enclave domain would have to run the
            // OS interrupt handler, but kernel text is unmapped/forbidden
            // in Dom_ENC — continuous #NPF, CVM halts (§6.2, Table 2).
            self.machine.halt(HaltReason::SecurityViolation(
                "interrupt forced into Dom_ENC: kernel handler inaccessible (#NPF loop)".into(),
            ));
            None
        }
    }

    /// Direct (malicious) host read of guest memory — must fail on
    /// private pages. Exposed for the security validation suite.
    pub fn attack_read(&self, gpa: u64, len: usize) -> Result<Vec<u8>, SnpError> {
        self.machine.hv_read(gpa, len)
    }

    /// Direct (malicious) host write — must fail on private pages.
    pub fn attack_write(&mut self, gpa: u64, data: &[u8]) -> Result<(), SnpError> {
        self.machine.hv_write(gpa, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veil_snp::machine::MachineConfig;
    use veil_snp::perms::Cpl;

    fn booted() -> Hypervisor {
        let machine = Machine::new(MachineConfig { frames: 256, ..MachineConfig::default() });
        let mut hv = Hypervisor::new(machine);
        let image = vec![(1u64, b"veilmon code".to_vec()), (2u64, b"veilmon data".to_vec())];
        hv.launch(&image, 3).unwrap();
        hv
    }

    /// Prepares a validated frame the tests can use.
    fn validated(hv: &mut Hypervisor, gfn: u64) {
        hv.machine.rmp_assign(gfn).unwrap();
        hv.machine.pvalidate(Vmpl::Vmpl0, gfn, true).unwrap();
    }

    #[test]
    fn launch_produces_verifiable_measurement() {
        let hv = booted();
        assert!(hv.machine.launch_measurement().is_some());
        assert_eq!(hv.vcpu(0).unwrap().current_vmpl, Vmpl::Vmpl0);
        // Boot image contents landed in (now private) memory.
        assert_eq!(hv.machine.read(Vmpl::Vmpl0, Machine::gpa(1), 12).unwrap(), b"veilmon code");
        // ...and are invisible to the host.
        assert!(hv.attack_read(Machine::gpa(1), 12).is_err());
    }

    #[test]
    fn double_launch_rejected() {
        let mut hv = booted();
        let err = hv.launch(&[(50, vec![0])], 51);
        assert!(err.is_err());
    }

    #[test]
    fn domain_switch_roundtrip() {
        let mut hv = booted();
        // Create an OS-domain VMSA (VeilMon would do this) and a GHCB.
        validated(&mut hv, 10);
        hv.machine.vmsa_create(Vmpl::Vmpl0, 10, 0, Vmpl::Vmpl3, Cpl::Cpl0).unwrap();
        hv.register_domain_vmsa(0, Vmpl::Vmpl3, 10);
        hv.machine.set_ghcb_msr(0, 20); // frame 20 still shared => valid GHCB
        let ghcb = Ghcb::at(&hv.machine, 20).unwrap();

        // VeilMon (VMPL0) requests a switch to the OS domain.
        ghcb.write_request(&mut hv.machine, Vmpl::Vmpl0, GhcbExit::DomainSwitch, 3, 0).unwrap();
        let resp = hv.vmgexit(0, false).unwrap();
        assert_eq!(resp, HvResponse::Switched { vmpl: Vmpl::Vmpl3, vmsa_gfn: 10 });
        assert_eq!(hv.vcpu(0).unwrap().current_vmpl, Vmpl::Vmpl3);
        // Switch back.
        ghcb.write_request(&mut hv.machine, Vmpl::Vmpl3, GhcbExit::DomainSwitch, 0, 0).unwrap();
        let resp = hv.vmgexit(0, false).unwrap();
        assert_eq!(resp, HvResponse::Switched { vmpl: Vmpl::Vmpl0, vmsa_gfn: 3 });
        assert_eq!(hv.stats().domain_switches, 2);
        // Cost: two hypervisor-relayed switches at 7,135 cycles each.
        assert_eq!(hv.machine.cycles().of(CostCategory::DomainSwitch), 2 * 7135);
    }

    #[test]
    fn switch_to_missing_domain_refused() {
        let mut hv = booted();
        hv.machine.set_ghcb_msr(0, 20);
        let ghcb = Ghcb::at(&hv.machine, 20).unwrap();
        ghcb.write_request(&mut hv.machine, Vmpl::Vmpl0, GhcbExit::DomainSwitch, 2, 0).unwrap();
        assert!(matches!(hv.vmgexit(0, false).unwrap(), HvResponse::Refused { .. }));
    }

    #[test]
    fn user_ghcb_confined_to_enclave_crossings() {
        let mut hv = booted();
        validated(&mut hv, 10);
        hv.machine.vmsa_create(Vmpl::Vmpl0, 10, 0, Vmpl::Vmpl3, Cpl::Cpl0).unwrap();
        hv.register_domain_vmsa(0, Vmpl::Vmpl3, 10);
        hv.machine.set_ghcb_msr(0, 20);
        let ghcb = Ghcb::at(&hv.machine, 20).unwrap();
        // Currently at VMPL0; a user-GHCB request to switch to VMPL3 is
        // not an enclave crossing -> refused.
        ghcb.write_request(&mut hv.machine, Vmpl::Vmpl0, GhcbExit::DomainSwitch, 3, 0).unwrap();
        assert!(matches!(hv.vmgexit(0, true).unwrap(), HvResponse::Refused { .. }));
    }

    #[test]
    fn vmgexit_without_ghcb_halts() {
        let mut hv = booted();
        assert!(hv.vmgexit(0, false).is_err());
        assert!(hv.machine.halted().is_some());
    }

    #[test]
    fn page_state_change_flow() {
        let mut hv = booted();
        hv.machine.set_ghcb_msr(0, 20);
        let ghcb = Ghcb::at(&hv.machine, 20).unwrap();
        // Guest asks to make frame 30 private.
        ghcb.write_request(&mut hv.machine, Vmpl::Vmpl0, GhcbExit::PageStateChange, 30, 1).unwrap();
        assert_eq!(hv.vmgexit(0, false).unwrap(), HvResponse::PageStateChanged);
        // Guest validates it (VMPL0 path) and uses it.
        hv.machine.pvalidate(Vmpl::Vmpl0, 30, true).unwrap();
        hv.machine.write(Vmpl::Vmpl0, Machine::gpa(30), b"private").unwrap();
        // Back to shared: hardware scrubs.
        hv.machine.pvalidate(Vmpl::Vmpl0, 30, false).unwrap();
        ghcb.write_request(&mut hv.machine, Vmpl::Vmpl0, GhcbExit::PageStateChange, 30, 0).unwrap();
        assert_eq!(hv.vmgexit(0, false).unwrap(), HvResponse::PageStateChanged);
        assert_eq!(hv.attack_read(Machine::gpa(30), 7).unwrap(), vec![0u8; 7]);
    }

    #[test]
    fn vmsa_tampering_has_no_effect() {
        let mut hv = booted();
        validated(&mut hv, 10);
        hv.machine.vmsa_create(Vmpl::Vmpl0, 10, 0, Vmpl::Vmpl3, Cpl::Cpl0).unwrap();
        hv.machine.vmsa_mut(10).unwrap().regs.rip = 0x1234;
        hv.register_domain_vmsa(0, Vmpl::Vmpl3, 10);
        hv.machine.set_ghcb_msr(0, 20);
        hv.policy.tamper_vmsa_on_switch = true;
        let ghcb = Ghcb::at(&hv.machine, 20).unwrap();
        ghcb.write_request(&mut hv.machine, Vmpl::Vmpl0, GhcbExit::DomainSwitch, 3, 0).unwrap();
        let resp = hv.vmgexit(0, false).unwrap();
        assert!(matches!(resp, HvResponse::Switched { .. }));
        // Saved state untouched.
        assert_eq!(hv.machine.vmsa(10).unwrap().regs.rip, 0x1234);
    }

    #[test]
    fn honest_interrupt_relay_reaches_unt() {
        let mut hv = booted();
        validated(&mut hv, 10);
        validated(&mut hv, 11);
        hv.machine.vmsa_create(Vmpl::Vmpl0, 10, 0, Vmpl::Vmpl3, Cpl::Cpl0).unwrap();
        hv.machine.vmsa_create(Vmpl::Vmpl0, 11, 0, Vmpl::Vmpl2, Cpl::Cpl3).unwrap();
        hv.register_domain_vmsa(0, Vmpl::Vmpl3, 10);
        hv.register_domain_vmsa(0, Vmpl::Vmpl2, 11);
        hv.vcpu_mut(0).unwrap().current_vmpl = Vmpl::Vmpl2;
        assert_eq!(hv.automatic_exit(0), Some(Vmpl::Vmpl3));
        assert!(hv.machine.halted().is_none());
    }

    #[test]
    fn refused_interrupt_relay_halts_cvm() {
        let mut hv = booted();
        validated(&mut hv, 11);
        hv.machine.vmsa_create(Vmpl::Vmpl0, 11, 0, Vmpl::Vmpl2, Cpl::Cpl3).unwrap();
        hv.register_domain_vmsa(0, Vmpl::Vmpl2, 11);
        hv.vcpu_mut(0).unwrap().current_vmpl = Vmpl::Vmpl2;
        hv.policy.relay_interrupts_to_unt = false;
        assert_eq!(hv.automatic_exit(0), None);
        assert!(matches!(hv.machine.halted(), Some(HaltReason::SecurityViolation(_))));
    }

    #[test]
    fn interrupts_in_kernel_do_not_switch() {
        let mut hv = booted();
        validated(&mut hv, 10);
        hv.machine.vmsa_create(Vmpl::Vmpl0, 10, 0, Vmpl::Vmpl3, Cpl::Cpl0).unwrap();
        hv.register_domain_vmsa(0, Vmpl::Vmpl3, 10);
        hv.vcpu_mut(0).unwrap().current_vmpl = Vmpl::Vmpl3;
        assert_eq!(hv.automatic_exit(0), Some(Vmpl::Vmpl3));
    }

    #[test]
    fn create_vcpu_hypercall_registers_vmsa() {
        let mut hv = booted();
        validated(&mut hv, 12);
        hv.machine.vmsa_create(Vmpl::Vmpl0, 12, 1, Vmpl::Vmpl3, Cpl::Cpl0).unwrap();
        hv.machine.set_ghcb_msr(0, 20);
        let ghcb = Ghcb::at(&hv.machine, 20).unwrap();
        ghcb.write_request(&mut hv.machine, Vmpl::Vmpl0, GhcbExit::CreateVcpu, 12, 1).unwrap();
        assert_eq!(hv.vmgexit(0, false).unwrap(), HvResponse::VcpuCreated);
        assert_eq!(hv.vcpu(1).unwrap().domain_vmsas.get(&Vmpl::Vmpl3), Some(&12));
        // A frame that is not a VMSA is refused.
        ghcb.write_request(&mut hv.machine, Vmpl::Vmpl0, GhcbExit::CreateVcpu, 13, 2).unwrap();
        assert!(matches!(hv.vmgexit(0, false).unwrap(), HvResponse::Refused { .. }));
    }

    #[test]
    fn refuse_switches_policy_reports_not_halts() {
        let mut hv = booted();
        validated(&mut hv, 10);
        hv.machine.vmsa_create(Vmpl::Vmpl0, 10, 0, Vmpl::Vmpl3, Cpl::Cpl0).unwrap();
        hv.register_domain_vmsa(0, Vmpl::Vmpl3, 10);
        hv.machine.set_ghcb_msr(0, 20);
        hv.policy.refuse_switches = true;
        let ghcb = Ghcb::at(&hv.machine, 20).unwrap();
        ghcb.write_request(&mut hv.machine, Vmpl::Vmpl0, GhcbExit::DomainSwitch, 3, 0).unwrap();
        let resp = hv.vmgexit(0, false).unwrap();
        assert_eq!(resp, HvResponse::Refused { reason: "switch refused by host policy" });
        // Liveness attack, not an integrity attack: the CVM keeps running
        // and the VCPU never left its domain.
        assert!(hv.machine.halted().is_none());
        assert_eq!(hv.vcpu(0).unwrap().current_vmpl, Vmpl::Vmpl0);
        assert_eq!(hv.stats().domain_switches, 0);
    }

    #[test]
    fn misrouted_switch_reports_domain_actually_resumed() {
        let mut hv = booted();
        validated(&mut hv, 10);
        hv.machine.vmsa_create(Vmpl::Vmpl0, 10, 0, Vmpl::Vmpl3, Cpl::Cpl0).unwrap();
        hv.register_domain_vmsa(0, Vmpl::Vmpl3, 10);
        hv.machine.set_ghcb_msr(0, 20);
        hv.vcpu_mut(0).unwrap().current_vmpl = Vmpl::Vmpl3;
        // Host resumes VMPL0's VMSA although the guest asked for VMPL1.
        hv.policy.misroute_switch_to = Some(Vmpl::Vmpl0);
        let ghcb = Ghcb::at(&hv.machine, 20).unwrap();
        ghcb.write_request(&mut hv.machine, Vmpl::Vmpl3, GhcbExit::DomainSwitch, 1, 0).unwrap();
        let resp = hv.vmgexit(0, false).unwrap();
        // The response names the domain that actually resumed (the boot
        // VMSA at frame 3), not the requested one.
        assert_eq!(resp, HvResponse::Switched { vmpl: Vmpl::Vmpl0, vmsa_gfn: 3 });
    }

    #[test]
    fn doorbell_relays_one_switch_and_records_depth() {
        let mut hv = booted();
        validated(&mut hv, 10);
        hv.machine.vmsa_create(Vmpl::Vmpl0, 10, 0, Vmpl::Vmpl3, Cpl::Cpl0).unwrap();
        hv.register_domain_vmsa(0, Vmpl::Vmpl3, 10);
        hv.machine.set_ghcb_msr(0, 20);
        hv.set_trace(true);
        let ghcb = Ghcb::at(&hv.machine, 20).unwrap();
        // Ring a doorbell announcing 5 queued requests for VMPL3.
        ghcb.write_request(&mut hv.machine, Vmpl::Vmpl0, GhcbExit::Doorbell, 3, 5).unwrap();
        let snap = hv.machine.cycles().snapshot();
        let resp = hv.vmgexit(0, false).unwrap();
        assert_eq!(resp, HvResponse::Switched { vmpl: Vmpl::Vmpl3, vmsa_gfn: 10 });
        let stats = hv.stats();
        assert_eq!(stats.doorbells, 1);
        assert_eq!(stats.domain_switches, 1);
        assert_eq!(stats.vmgexits, 1);
        // One relayed switch charged, regardless of ring depth.
        assert_eq!(hv.machine.cycles().of(CostCategory::DomainSwitch), 7135);
        // The occupancy-scaled drain hold is charged outside DomainSwitch:
        // one per-slot increment for each of the 5 announced entries.
        let delta = hv.machine.cycles().since(&snap);
        assert_eq!(delta.of(CostCategory::Other), 5 * hv.machine.cost().doorbell_drain_slot);
        // A doorbell for a nonsense domain is refused without switching —
        // and without any drain-hold charge.
        ghcb.write_request(&mut hv.machine, Vmpl::Vmpl3, GhcbExit::Doorbell, 9, 1).unwrap();
        let snap = hv.machine.cycles().snapshot();
        assert!(matches!(hv.vmgexit(0, false).unwrap(), HvResponse::Refused { .. }));
        assert_eq!(hv.stats().doorbells, 1);
        assert_eq!(hv.machine.cycles().since(&snap).of(CostCategory::Other), 0);
    }

    #[test]
    fn psc_batch_applies_entries_in_order() {
        let mut hv = booted();
        hv.machine.set_ghcb_msr(0, 20);
        hv.set_trace(true);
        let ghcb = Ghcb::at(&hv.machine, 20).unwrap();
        // List page at shared frame 40: make 30, 31, 32 private.
        let mut list = Vec::new();
        for gfn in [30u64, 31, 32] {
            list.extend_from_slice(&(gfn | 1 << 63).to_le_bytes());
        }
        hv.machine.hv_write(Machine::gpa(40), &list).unwrap();
        ghcb.write_request(&mut hv.machine, Vmpl::Vmpl0, GhcbExit::PscBatch, 40, 3).unwrap();
        let snap = hv.machine.cycles().snapshot();
        assert_eq!(hv.vmgexit(0, false).unwrap(), HvResponse::PageStateChanged);
        assert_eq!(ghcb.read_response(&hv.machine, Vmpl::Vmpl0).unwrap(), 3);
        // Relay cost = the fixed exit round trip plus one per-entry
        // increment per applied page, so batch length shows up in the
        // relay-latency histogram.
        let delta = hv.machine.cycles().since(&snap);
        let cost = hv.machine.cost();
        assert_eq!(delta.of(CostCategory::Other), cost.domain_switch() + 3 * cost.psc_batch_entry);
        for gfn in [30, 31, 32] {
            assert!(!hv.machine.rmp().hypervisor_accessible(gfn), "gfn {gfn} now private");
        }
        // The fold counts one page-state change per entry — equivalent to
        // three serial PSCs — but only one vmgexit.
        let stats = hv.stats();
        assert_eq!(stats.page_state_changes, 3);
        assert_eq!(stats.vmgexits, 1);
    }

    #[test]
    fn psc_batch_stops_at_first_failure() {
        let mut hv = booted();
        hv.machine.set_ghcb_msr(0, 20);
        let ghcb = Ghcb::at(&hv.machine, 20).unwrap();
        // Second entry is out of range: only the first applies.
        let mut list = Vec::new();
        list.extend_from_slice(&(30u64 | 1 << 63).to_le_bytes());
        list.extend_from_slice(&(0x7fff_ffffu64 | 1 << 63).to_le_bytes());
        list.extend_from_slice(&(31u64 | 1 << 63).to_le_bytes());
        hv.machine.hv_write(Machine::gpa(40), &list).unwrap();
        ghcb.write_request(&mut hv.machine, Vmpl::Vmpl0, GhcbExit::PscBatch, 40, 3).unwrap();
        assert!(matches!(hv.vmgexit(0, false).unwrap(), HvResponse::Refused { .. }));
        assert_eq!(ghcb.read_response(&hv.machine, Vmpl::Vmpl0).unwrap(), 1);
        assert!(!hv.machine.rmp().hypervisor_accessible(30));
        assert!(hv.machine.rmp().hypervisor_accessible(31), "entry after failure untouched");
    }

    #[test]
    fn psc_batch_rejects_oversized_and_unreadable_lists() {
        let mut hv = booted();
        hv.machine.set_ghcb_msr(0, 20);
        let ghcb = Ghcb::at(&hv.machine, 20).unwrap();
        ghcb.write_request(&mut hv.machine, Vmpl::Vmpl0, GhcbExit::PscBatch, 40, PSC_BATCH_MAX + 1)
            .unwrap();
        assert!(matches!(hv.vmgexit(0, false).unwrap(), HvResponse::Refused { .. }));
        assert_eq!(ghcb.read_response(&hv.machine, Vmpl::Vmpl0).unwrap(), 0);
        // A private list page is invisible to the hypervisor.
        validated(&mut hv, 41);
        ghcb.write_request(&mut hv.machine, Vmpl::Vmpl0, GhcbExit::PscBatch, 41, 1).unwrap();
        assert!(matches!(hv.vmgexit(0, false).unwrap(), HvResponse::Refused { .. }));
    }

    #[test]
    fn shutdown_halts() {
        let mut hv = booted();
        hv.machine.set_ghcb_msr(0, 20);
        let ghcb = Ghcb::at(&hv.machine, 20).unwrap();
        ghcb.write_request(&mut hv.machine, Vmpl::Vmpl0, GhcbExit::Shutdown, 0, 0).unwrap();
        assert_eq!(hv.vmgexit(0, false).unwrap(), HvResponse::ShutdownAccepted);
        assert!(matches!(hv.machine.halted(), Some(HaltReason::Shutdown)));
    }
}
