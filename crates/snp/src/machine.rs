//! The simulated SEV-SNP machine: memory + RMP + VMSAs + instruction
//! semantics + cycle accounting.
//!
//! `Machine` is the single source of truth every other crate operates on.
//! Guest software (at any VMPL) must use the *checked* accessors, which
//! enforce RMP/VMPL permissions exactly as the SNP nested-page-table walk
//! would; the hypervisor must use the `hv_*` accessors, which only reach
//! hypervisor-shared pages (the CVM's memory is encrypted to it).
//!
//! There is one access path: every checked access consults the RMP entry
//! of every page it covers, and every virtual access walks the page tables
//! (see [`crate::pt`]). Nothing is cached between accesses, so no RMP
//! instruction or page-table edit needs a flush to become visible.

use crate::attest::LaunchError;
use crate::cost::{CostCategory, CostModel, CycleAccount};
use crate::fault::{HaltReason, NestedPageFault, NpfCause, SnpError};
use crate::mem::{gfn_of, GuestMemory, PAGE_SIZE};
use crate::perms::{Access, Cpl, Vmpl, VmplPerms};
use crate::rmp::{PageState, Rmp, RmpMutation};
use crate::vmsa::Vmsa;
use std::collections::BTreeMap;
use veil_metrics::{MetricsRegistry, SpanProfiler};
use veil_trace::{Event, Tracer};

/// Configuration for a new [`Machine`].
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Guest-physical memory size in 4 KiB frames.
    pub frames: usize,
    /// Seed of the fused per-chip secret that roots the VCEK chain (see
    /// [`crate::vcek::chip_seed`]).
    pub device_key_seed: [u8; 32],
    /// TCB version the firmware reports in chain attestation (models the
    /// SNP TCB_VERSION fuse state the VCEK is derived against).
    pub tcb_version: crate::vcek::TcbVersion,
    /// Cycle-cost constants.
    pub cost: CostModel,
    /// Fleet shard id this machine belongs to. Label-only: threaded into
    /// the tracer stream metadata and metrics exports so N independent
    /// machines can be merged without ambiguity; never charged, traced,
    /// or digested, so single-machine behaviour is byte-identical at any
    /// shard id.
    pub shard: u32,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            // 16 MiB default guest; benches scale this up.
            frames: 4096,
            device_key_seed: [0x5e; 32],
            tcb_version: crate::vcek::TcbVersion(2),
            cost: CostModel::default(),
            shard: 0,
        }
    }
}

// The fleet scheduler moves whole machines across OS worker threads, so
// `Machine` must stay `Send`. Everything it owns is owned data (`BTreeMap`,
// `Vec`); this assertion turns any future `Rc`/raw-pointer regression into
// a compile error at the crate that introduces it.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Machine>();
};

/// The simulated machine.
#[derive(Debug, Clone)]
pub struct Machine {
    mem: GuestMemory,
    rmp: Rmp,
    vmsas: BTreeMap<u64, Vmsa>,
    cost: CostModel,
    cycles: CycleAccount,
    halted: Option<HaltReason>,
    /// Fused per-chip secret rooting the VCEK derivation chain. Never
    /// readable by guest software; only the firmware paths below use it.
    chip_seed: [u8; 32],
    /// TCB version the chain reports claim (see [`MachineConfig`]).
    tcb_version: crate::vcek::TcbVersion,
    launch_measurement: Option<[u8; 32]>,
    /// Per-VCPU GHCB MSR value (guest frame number of the GHCB).
    ghcb_msr: BTreeMap<u32, u64>,
    tracer: Tracer,
    /// Which privilege domain's code is currently executing. The flows are
    /// sequential, so one machine-wide notion suffices; the hypervisor
    /// updates it on every completed domain switch.
    current_domain: Vmpl,
    /// Cycles charged while each VMPL was the current domain. Every charge
    /// goes through [`Machine::charge`], so the four buckets always sum to
    /// [`CycleAccount::total`].
    domain_cycles: [u64; 4],
    /// Metrics registry fed from the same event stream as the tracer (in
    /// [`Machine::trace_event`]). It charges no cycles and emits no
    /// events: trace digests are bit-identical on/off.
    metrics: MetricsRegistry,
    /// Hierarchical span profiler clocked by the virtual cycle account.
    spans: SpanProfiler,
}

impl Machine {
    /// Creates a machine with all pages hypervisor-shared (pre-launch).
    pub fn new(config: MachineConfig) -> Self {
        let chip_seed = crate::vcek::chip_seed(&config.device_key_seed);
        let metrics_enabled = veil_metrics::env_enabled();
        let mut metrics = MetricsRegistry::new();
        metrics.set_enabled(metrics_enabled);
        let mut spans = SpanProfiler::new();
        spans.set_enabled(metrics_enabled);
        let mut tracer = Tracer::new();
        tracer.set_shard(config.shard);
        Machine {
            mem: GuestMemory::new(config.frames),
            rmp: Rmp::new(config.frames),
            vmsas: BTreeMap::new(),
            cost: config.cost,
            cycles: CycleAccount::new(),
            halted: None,
            chip_seed,
            tcb_version: config.tcb_version,
            launch_measurement: None,
            ghcb_msr: BTreeMap::new(),
            tracer,
            current_domain: Vmpl::Vmpl0,
            domain_cycles: [0; 4],
            metrics,
            spans,
        }
    }

    // ---- introspection ------------------------------------------------

    /// Raw memory view. Reserved for the "hardware" (page-table walks,
    /// VMSA save/restore) and for tests; guest/hypervisor code must use
    /// the checked accessors.
    pub fn mem(&self) -> &GuestMemory {
        &self.mem
    }

    /// Raw mutable memory view (see [`Machine::mem`] for the contract).
    pub fn mem_mut(&mut self) -> &mut GuestMemory {
        &mut self.mem
    }

    /// The RMP.
    pub fn rmp(&self) -> &Rmp {
        &self.rmp
    }

    /// Seeds a deliberate RMP semantics bug. Mutation-testing hook for
    /// the adversarial differential harness (`veil-adversary`) only.
    #[doc(hidden)]
    pub fn seed_rmp_mutation(&mut self, mutation: RmpMutation) {
        self.rmp.seed_mutation(mutation);
    }

    /// Cost constants in effect.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The cycle account.
    pub fn cycles(&self) -> &CycleAccount {
        &self.cycles
    }

    /// Charges `cycles` to `category`, attributing them to the current
    /// privilege domain.
    pub fn charge(&mut self, category: CostCategory, cycles: u64) {
        self.cycles.charge(category, cycles);
        self.domain_cycles[self.current_domain.index()] += cycles;
    }

    // ---- tracing --------------------------------------------------------

    /// The event tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable tracer access (enable/disable/clear).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Records `event`, stamped with the current virtual-cycle total. The
    /// metrics registry folds the same `(cycles, event)` pair, so its
    /// derived counters and the tracer's can never drift — they are one
    /// stream. Always inlined, so with tracing and metrics off an event
    /// costs its counter update and two branches in the caller. (With a
    /// plain `#[inline]` the inliner, which cannot see that the by-value
    /// event's variant is a constant, keeps it out of line.)
    #[inline(always)]
    pub fn trace_event(&mut self, event: Event) {
        let now = self.cycles.total();
        self.tracer.record(now, event);
        self.metrics.observe_event(now, &event);
    }

    // ---- metrics --------------------------------------------------------

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Mutable metrics registry access (custom counters/histograms).
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// The span profiler.
    pub fn spans(&self) -> &SpanProfiler {
        &self.spans
    }

    /// Whether metrics collection (registry + span profiler) is active.
    pub fn metrics_enabled(&self) -> bool {
        self.metrics.enabled()
    }

    /// Enables or disables metrics collection. Enabling **resets** both
    /// the registry and the profiler (the `Tracer::set_enabled` contract),
    /// so runs that opt in programmatically observe a deterministic window
    /// regardless of the `VEIL_METRICS` environment knob.
    pub fn set_metrics_enabled(&mut self, enabled: bool) {
        self.metrics.set_enabled(enabled);
        self.spans.set_enabled(enabled);
    }

    /// Opens a profiler span named `name` at the current virtual-cycle
    /// time, attributed to the executing domain. Never charges cycles or
    /// emits events. Inlined: with metrics disabled it is one branch in
    /// the caller, and the recording runs out of line.
    #[inline]
    pub fn span_enter(&mut self, name: &'static str) {
        let now = self.cycles.total();
        self.spans.enter(name, self.current_domain.index() as u8, now);
    }

    /// Closes the innermost profiler span if it is named `name` (leaked
    /// spans from error paths are ignored rather than misattributed).
    /// Inlined like [`Machine::span_enter`].
    #[inline]
    pub fn span_exit(&mut self, name: &'static str) {
        let now = self.cycles.total();
        self.spans.exit(name, now);
    }

    /// The privilege domain currently executing.
    pub fn current_domain(&self) -> Vmpl {
        self.current_domain
    }

    /// Sets the executing privilege domain (called by the hypervisor on
    /// completed switches and by the boot handoff).
    pub fn set_current_domain(&mut self, vmpl: Vmpl) {
        self.current_domain = vmpl;
    }

    /// Cycles attributed to each VMPL (index = level). The switch cost is
    /// charged to the *exiting* domain; the sum always equals
    /// [`CycleAccount::total`].
    pub fn domain_cycles(&self) -> [u64; 4] {
        self.domain_cycles
    }

    /// Why the machine halted, if it has.
    pub fn halted(&self) -> Option<&HaltReason> {
        self.halted.as_ref()
    }

    /// Halts the machine (unresolvable fault or orderly shutdown).
    pub fn halt(&mut self, reason: HaltReason) {
        if self.halted.is_none() {
            self.halted = Some(reason);
        }
    }

    /// Errors if the machine has halted.
    pub fn ensure_running(&self) -> Result<(), SnpError> {
        match &self.halted {
            Some(r) => Err(SnpError::Halted(r.clone())),
            None => Ok(()),
        }
    }

    // ---- checked guest accessors ---------------------------------------

    fn check_range(
        &self,
        vmpl: Vmpl,
        gpa: u64,
        len: usize,
        access: Access,
    ) -> Result<(), NestedPageFault> {
        if len == 0 {
            return Ok(());
        }
        if !self.mem.in_range(gpa, len) {
            return Err(NestedPageFault {
                gfn: gfn_of(gpa),
                vmpl,
                access,
                cause: NpfCause::OutOfRange,
            });
        }
        let first = gfn_of(gpa);
        let last = gfn_of(gpa + len as u64 - 1);
        for gfn in first..=last {
            self.rmp.check(gfn, vmpl, access)?;
        }
        Ok(())
    }

    /// Checked guest read of `len` bytes at `gpa` from privilege `vmpl`.
    ///
    /// # Errors
    ///
    /// Returns the nested page fault if any covered page refuses the read.
    pub fn read(&self, vmpl: Vmpl, gpa: u64, len: usize) -> Result<Vec<u8>, SnpError> {
        self.check_range(vmpl, gpa, len, Access::Read)?;
        let mut out = vec![0u8; len];
        self.mem.read_raw(gpa, &mut out);
        Ok(out)
    }

    /// Checked guest read into a caller buffer.
    pub fn read_into(&self, vmpl: Vmpl, gpa: u64, out: &mut [u8]) -> Result<(), SnpError> {
        self.check_range(vmpl, gpa, out.len(), Access::Read)?;
        self.mem.read_raw(gpa, out);
        Ok(())
    }

    /// Checked guest write.
    ///
    /// # Errors
    ///
    /// Returns the nested page fault if any covered page refuses the write.
    pub fn write(&mut self, vmpl: Vmpl, gpa: u64, data: &[u8]) -> Result<(), SnpError> {
        self.check_range(vmpl, gpa, data.len(), Access::Write)?;
        self.mem.write_raw(gpa, data);
        Ok(())
    }

    /// Checked u64 read (little-endian).
    pub fn read_u64(&self, vmpl: Vmpl, gpa: u64) -> Result<u64, SnpError> {
        let mut b = [0u8; 8];
        self.read_into(vmpl, gpa, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Checked u64 write (little-endian).
    pub fn write_u64(&mut self, vmpl: Vmpl, gpa: u64, value: u64) -> Result<(), SnpError> {
        self.write(vmpl, gpa, &value.to_le_bytes())
    }

    /// Checked instruction-fetch permission test for a page.
    pub fn check_exec(&self, vmpl: Vmpl, cpl: Cpl, gpa: u64) -> Result<(), SnpError> {
        self.check_range(vmpl, gpa, 1, Access::Execute(cpl))?;
        Ok(())
    }

    // ---- hypervisor accessors ------------------------------------------

    /// Hypervisor read: succeeds only on hypervisor-shared pages; the rest
    /// of guest memory is ciphertext to the host.
    pub fn hv_read(&self, gpa: u64, len: usize) -> Result<Vec<u8>, SnpError> {
        self.hv_check(gpa, len)?;
        let mut out = vec![0u8; len];
        self.mem.read_raw(gpa, &mut out);
        Ok(out)
    }

    /// Hypervisor write (shared pages only).
    pub fn hv_write(&mut self, gpa: u64, data: &[u8]) -> Result<(), SnpError> {
        self.hv_check(gpa, data.len())?;
        self.mem.write_raw(gpa, data);
        Ok(())
    }

    fn hv_check(&self, gpa: u64, len: usize) -> Result<(), SnpError> {
        if len == 0 {
            return Ok(());
        }
        if !self.mem.in_range(gpa, len) {
            return Err(SnpError::OutOfRange { gfn: gfn_of(gpa) });
        }
        let first = gfn_of(gpa);
        let last = gfn_of(gpa + len as u64 - 1);
        for gfn in first..=last {
            if !self.rmp.hypervisor_accessible(gfn) {
                return Err(SnpError::Npf(NestedPageFault {
                    gfn,
                    vmpl: Vmpl::Vmpl0, // reported on host side; vmpl is moot
                    access: Access::Write,
                    cause: NpfCause::NotAssigned,
                }));
            }
        }
        Ok(())
    }

    // ---- RMP instruction semantics --------------------------------------

    /// Hypervisor-side `RMPUPDATE`: donate a shared page to the guest.
    pub fn rmp_assign(&mut self, gfn: u64) -> Result<(), SnpError> {
        if gfn >= self.rmp.frames() {
            return Err(SnpError::OutOfRange { gfn });
        }
        if !self.rmp.assign(gfn) {
            return Err(SnpError::ValidationMismatch { gfn });
        }
        self.trace_event(Event::RmpTransition { gfn, to_private: true });
        Ok(())
    }

    /// Hypervisor-side `RMPUPDATE`: reclaim a page to shared state. The
    /// hardware scrubs the contents so private data never leaks to the
    /// host. VMSA pages cannot be reclaimed.
    pub fn rmp_reclaim(&mut self, gfn: u64) -> Result<(), SnpError> {
        if gfn >= self.rmp.frames() {
            return Err(SnpError::OutOfRange { gfn });
        }
        if !self.rmp.reclaim(gfn) {
            return Err(SnpError::NotAVmsa { gfn });
        }
        self.mem.scrub_frame(gfn);
        self.vmsas.remove(&gfn);
        self.trace_event(Event::RmpTransition { gfn, to_private: false });
        Ok(())
    }

    /// Guest `PVALIDATE`. Only VMPL-0 may execute it (the architectural
    /// restriction that forces Veil's page-state-change delegation, §5.3).
    ///
    /// # Errors
    ///
    /// * [`SnpError::InsufficientVmpl`] from any other VMPL;
    /// * [`SnpError::ValidationMismatch`] on double (in)validation.
    pub fn pvalidate(
        &mut self,
        executing: Vmpl,
        gfn: u64,
        validated: bool,
    ) -> Result<(), SnpError> {
        self.ensure_running()?;
        if executing != Vmpl::Vmpl0 {
            return Err(SnpError::InsufficientVmpl { executing, target: Vmpl::Vmpl0 });
        }
        if gfn >= self.rmp.frames() {
            return Err(SnpError::OutOfRange { gfn });
        }
        self.span_enter("pvalidate");
        let cycles = self.cost.pvalidate;
        self.charge(CostCategory::Pvalidate, cycles);
        if !self.rmp.set_validated(gfn, validated) {
            self.span_exit("pvalidate");
            return Err(SnpError::ValidationMismatch { gfn });
        }
        self.trace_event(Event::Pvalidate {
            vmpl: executing.index() as u8,
            gfn,
            validate: validated,
        });
        self.span_exit("pvalidate");
        Ok(())
    }

    /// Guest `RMPADJUST`: `executing` sets the permission mask of
    /// (`gfn`, `target`).
    ///
    /// Architectural rules enforced (paper §3, §5.1):
    /// * the executor must be strictly more privileged than the target;
    /// * the executor cannot grant permissions it does not itself hold on
    ///   that page (no escalation);
    /// * the page must be validated guest memory;
    /// * attempts from too-low a VMPL raise a fault that, in a real CVM,
    ///   leads to a halt (§5.1) — callers decide whether to halt.
    pub fn rmpadjust(
        &mut self,
        executing: Vmpl,
        gfn: u64,
        target: Vmpl,
        perms: VmplPerms,
    ) -> Result<(), SnpError> {
        self.ensure_running()?;
        if !executing.dominates(target) {
            return Err(SnpError::InsufficientVmpl { executing, target });
        }
        let entry = self.rmp.entry(gfn).ok_or(SnpError::OutOfRange { gfn })?;
        if entry.state() != PageState::Validated {
            self.trace_event(Event::NestedPageFault { gfn, vmpl: executing.index() as u8 });
            return Err(SnpError::Npf(NestedPageFault {
                gfn,
                vmpl: executing,
                access: Access::Write,
                cause: NpfCause::NotValidated,
            }));
        }
        // The executor must itself hold every permission it grants.
        let held = entry.perms(executing);
        if !held.contains(perms) && self.rmp.mutation() != Some(RmpMutation::AllowPermEscalation) {
            return Err(SnpError::PermEscalation);
        }
        self.span_enter("rmpadjust");
        let cycles = self.cost.rmpadjust_page();
        self.charge(CostCategory::Rmpadjust, cycles);
        self.rmp.set_perms(gfn, target, perms);
        self.trace_event(Event::RmpAdjust {
            executing: executing.index() as u8,
            target: target.index() as u8,
            gfn,
            perms: perms.bits(),
            executing_perms: held.bits(),
        });
        self.span_exit("rmpadjust");
        Ok(())
    }

    // ---- VMSA management -------------------------------------------------

    /// Guest `RMPADJUST` with the VMSA attribute: turns a validated page
    /// into a VMSA for (`vcpu_id`, `vmpl`, `cpl`). VMPL-0 only — this is
    /// the restriction behind Veil's VCPU-boot delegation (§5.3).
    pub fn vmsa_create(
        &mut self,
        executing: Vmpl,
        gfn: u64,
        vcpu_id: u32,
        vmpl: Vmpl,
        cpl: Cpl,
    ) -> Result<(), SnpError> {
        self.ensure_running()?;
        if executing != Vmpl::Vmpl0 {
            return Err(SnpError::InsufficientVmpl { executing, target: Vmpl::Vmpl0 });
        }
        if gfn >= self.rmp.frames() {
            return Err(SnpError::OutOfRange { gfn });
        }
        if self.rmp.entry(gfn).map(|e| e.state()) != Some(PageState::Validated) {
            return Err(SnpError::ValidationMismatch { gfn });
        }
        if self.vmsas.contains_key(&gfn) {
            return Err(SnpError::NotAVmsa { gfn });
        }
        let cycles = self.cost.rmpadjust_page();
        self.charge(CostCategory::Rmpadjust, cycles);
        self.mem.scrub_frame(gfn);
        self.rmp.set_vmsa(gfn, true);
        self.vmsas.insert(gfn, Vmsa::new(vcpu_id, vmpl, cpl));
        Ok(())
    }

    /// Destroys a VMSA (VMPL-0 only), returning the page to plain
    /// validated memory.
    pub fn vmsa_destroy(&mut self, executing: Vmpl, gfn: u64) -> Result<(), SnpError> {
        if executing != Vmpl::Vmpl0 {
            return Err(SnpError::InsufficientVmpl { executing, target: Vmpl::Vmpl0 });
        }
        if self.vmsas.remove(&gfn).is_none() {
            return Err(SnpError::NotAVmsa { gfn });
        }
        self.rmp.set_vmsa(gfn, false);
        self.mem.scrub_frame(gfn);
        Ok(())
    }

    /// Hardware view of a VMSA (used by the hypervisor model for `VMRUN`,
    /// which references — but cannot read — the encrypted VMSA).
    pub fn vmsa(&self, gfn: u64) -> Option<&Vmsa> {
        self.vmsas.get(&gfn)
    }

    /// Hardware-side mutable VMSA access for context save/restore.
    pub fn vmsa_mut(&mut self, gfn: u64) -> Option<&mut Vmsa> {
        self.vmsas.get_mut(&gfn)
    }

    /// All VMSA frames currently live.
    pub fn vmsa_gfns(&self) -> Vec<u64> {
        self.vmsas.keys().copied().collect()
    }

    // ---- GHCB MSR ---------------------------------------------------------

    /// Privileged write of the GHCB MSR for `vcpu_id` (requires CPL-0; the
    /// check that forces the user-mapped-GHCB design of §6.2 lives in the
    /// OS layer, which is the only component that can issue `wrmsr`).
    pub fn set_ghcb_msr(&mut self, vcpu_id: u32, ghcb_gfn: u64) {
        self.ghcb_msr.insert(vcpu_id, ghcb_gfn);
    }

    /// Reads the GHCB MSR for `vcpu_id` (hypervisor side).
    pub fn ghcb_msr(&self, vcpu_id: u32) -> Option<u64> {
        self.ghcb_msr.get(&vcpu_id).copied()
    }

    // ---- attestation -------------------------------------------------------

    /// SEV firmware launch (§5.1): assigns and validates every boot-image
    /// page and the boot VMSA frame at `vmsa_gfn`, copies the pages in
    /// (encrypting them, conceptually; each zero-padded to a frame),
    /// creates the boot VCPU's VMSA at VMPL-0 ("the boot VCPU instance is
    /// always created by the hypervisor at VMPL-0"), and records the launch
    /// digest of [`crate::attest::measure_launch`], which it returns. A
    /// machine launches once, so the measurement every report names cannot
    /// be replaced afterwards.
    ///
    /// # Errors
    ///
    /// [`LaunchError::AlreadyLaunched`] on a second launch;
    /// [`LaunchError::OversizedPage`], before any page is loaded, when a
    /// page exceeds a frame; [`LaunchError::Snp`] when a frame is out of
    /// range or already assigned.
    pub fn launch(
        &mut self,
        image: &[(u64, Vec<u8>)],
        vmsa_gfn: u64,
    ) -> Result<[u8; 32], LaunchError> {
        if self.launch_measurement.is_some() {
            return Err(LaunchError::AlreadyLaunched);
        }
        if let Some((gfn, data)) = image.iter().find(|(_, data)| data.len() > PAGE_SIZE) {
            return Err(LaunchError::OversizedPage { gfn: *gfn, len: data.len() });
        }
        let mut page = vec![0u8; PAGE_SIZE];
        let pages = image.iter().map(|(gfn, data)| (*gfn, data.as_slice()));
        for (gfn, data) in pages.chain([(vmsa_gfn, &[][..])]) {
            if gfn >= self.rmp.frames() {
                return Err(SnpError::OutOfRange { gfn }.into());
            }
            if !self.rmp.assign(gfn) || !self.rmp.set_validated(gfn, true) {
                return Err(SnpError::ValidationMismatch { gfn }.into());
            }
            page.fill(0);
            page[..data.len()].copy_from_slice(data);
            self.mem.write_raw(Self::gpa(gfn), &page);
        }
        self.vmsa_create(Vmpl::Vmpl0, vmsa_gfn, 0, Vmpl::Vmpl0, Cpl::Cpl0)?;
        let digest = crate::attest::measure_launch(image, vmsa_gfn);
        self.launch_measurement = Some(digest);
        Ok(digest)
    }

    /// The launch measurement, if launch has completed.
    pub fn launch_measurement(&self) -> Option<[u8; 32]> {
        self.launch_measurement
    }

    /// Produces a full VCEK-chain attestation report for software at `vmpl`:
    /// chip seed → TCB-versioned VCEK → measurement-bound attestation key,
    /// with DICE-style certificates for both stages (see [`crate::vcek`]).
    /// Models the SNP_GUEST_REQUEST flow (§5.1): the firmware round trip is
    /// a guest exit and costs one domain switch. Returns `None` before
    /// launch.
    pub fn attest_chain(
        &mut self,
        vmpl: Vmpl,
        nonce: [u8; 32],
        report_data: [u8; 64],
    ) -> Option<crate::vcek::ChainReport> {
        let measurement = self.launch_measurement?;
        let cycles = self.cost.domain_switch();
        self.charge(CostCategory::Other, cycles);
        Some(crate::vcek::ChainReport::issue(
            &self.chip_seed,
            self.tcb_version,
            measurement,
            vmpl,
            nonce,
            report_data,
        ))
    }

    /// TCB version the firmware currently claims in chain reports.
    pub fn tcb_version(&self) -> crate::vcek::TcbVersion {
        self.tcb_version
    }

    /// Plays the AMD KDS role for a remote verifier: returns one that
    /// trusts this chip's VCEK at the current TCB version (nothing older)
    /// and the launch measurement `expected`, without ever seeing the chip
    /// seed.
    pub fn kds_verifier(&self, expected: [u8; 32]) -> crate::vcek::ChainVerifier {
        let mut verifier = crate::vcek::ChainVerifier::new(expected, self.tcb_version);
        let vcek = crate::vcek::derive_vcek(&self.chip_seed, self.tcb_version);
        verifier.trust_tcb(self.tcb_version, vcek);
        verifier
    }

    /// Number of guest frames.
    pub fn frames(&self) -> u64 {
        self.rmp.frames()
    }

    /// Convenience: page-aligned gpa of a gfn.
    pub fn gpa(gfn: u64) -> u64 {
        gfn * PAGE_SIZE as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(MachineConfig { frames: 64, ..MachineConfig::default() })
    }

    /// Assign + validate + grant everyone access (boot-style page).
    fn validated(m: &mut Machine, gfn: u64) {
        m.rmp_assign(gfn).unwrap();
        m.pvalidate(Vmpl::Vmpl0, gfn, true).unwrap();
        for vmpl in [Vmpl::Vmpl1, Vmpl::Vmpl2, Vmpl::Vmpl3] {
            m.rmpadjust(Vmpl::Vmpl0, gfn, vmpl, VmplPerms::all()).unwrap();
        }
    }

    #[test]
    fn checked_rw_on_shared_page() {
        let mut m = machine();
        m.write(Vmpl::Vmpl3, 0, b"shared ok").unwrap();
        assert_eq!(m.read(Vmpl::Vmpl3, 0, 9).unwrap(), b"shared ok");
    }

    #[test]
    fn vmpl_restriction_blocks_lower_levels() {
        let mut m = machine();
        validated(&mut m, 5);
        m.rmpadjust(Vmpl::Vmpl0, 5, Vmpl::Vmpl3, VmplPerms::empty()).unwrap();
        m.rmpadjust(Vmpl::Vmpl0, 5, Vmpl::Vmpl2, VmplPerms::r()).unwrap();
        let gpa = Machine::gpa(5);
        assert!(m.write(Vmpl::Vmpl3, gpa, b"x").is_err());
        assert!(m.read(Vmpl::Vmpl3, gpa, 1).is_err());
        assert!(m.read(Vmpl::Vmpl2, gpa, 1).is_ok());
        assert!(m.write(Vmpl::Vmpl2, gpa, b"x").is_err());
        assert!(m.write(Vmpl::Vmpl0, gpa, b"x").is_ok());
        assert!(m.write(Vmpl::Vmpl1, gpa, b"x").is_ok());
    }

    #[test]
    fn rmpadjust_privilege_rules() {
        let mut m = machine();
        validated(&mut m, 7);
        // Lower cannot adjust higher or equal.
        assert!(matches!(
            m.rmpadjust(Vmpl::Vmpl3, 7, Vmpl::Vmpl0, VmplPerms::all()),
            Err(SnpError::InsufficientVmpl { .. })
        ));
        assert!(matches!(
            m.rmpadjust(Vmpl::Vmpl2, 7, Vmpl::Vmpl2, VmplPerms::all()),
            Err(SnpError::InsufficientVmpl { .. })
        ));
        // VMPL1 can adjust VMPL2/3.
        m.rmpadjust(Vmpl::Vmpl1, 7, Vmpl::Vmpl3, VmplPerms::r()).unwrap();
    }

    #[test]
    fn rmpadjust_cannot_escalate() {
        let mut m = machine();
        validated(&mut m, 8);
        // Strip VMPL1 down to read-only.
        m.rmpadjust(Vmpl::Vmpl0, 8, Vmpl::Vmpl1, VmplPerms::r()).unwrap();
        // VMPL1 cannot grant VMPL2 write (it does not hold write itself).
        assert_eq!(
            m.rmpadjust(Vmpl::Vmpl1, 8, Vmpl::Vmpl2, VmplPerms::rw()),
            Err(SnpError::PermEscalation)
        );
        // But it can pass down read.
        m.rmpadjust(Vmpl::Vmpl1, 8, Vmpl::Vmpl2, VmplPerms::r()).unwrap();
    }

    #[test]
    fn pvalidate_vmpl0_only_and_charges() {
        let mut m = machine();
        m.rmp_assign(3).unwrap();
        assert!(matches!(
            m.pvalidate(Vmpl::Vmpl3, 3, true),
            Err(SnpError::InsufficientVmpl { .. })
        ));
        let before = m.cycles().of(CostCategory::Pvalidate);
        m.pvalidate(Vmpl::Vmpl0, 3, true).unwrap();
        assert!(m.cycles().of(CostCategory::Pvalidate) > before);
        // Double validation is the "security by crash" guard.
        assert_eq!(m.pvalidate(Vmpl::Vmpl0, 3, true), Err(SnpError::ValidationMismatch { gfn: 3 }));
    }

    #[test]
    fn vmsa_lifecycle() {
        let mut m = machine();
        validated(&mut m, 10);
        assert!(matches!(
            m.vmsa_create(Vmpl::Vmpl3, 10, 0, Vmpl::Vmpl3, Cpl::Cpl0),
            Err(SnpError::InsufficientVmpl { .. })
        ));
        m.vmsa_create(Vmpl::Vmpl0, 10, 0, Vmpl::Vmpl3, Cpl::Cpl0).unwrap();
        // The VMSA page is now software-inaccessible at every VMPL.
        for vmpl in Vmpl::ALL {
            assert!(m.read(vmpl, Machine::gpa(10), 8).is_err(), "{vmpl}");
        }
        assert_eq!(m.vmsa(10).unwrap().vmpl(), Vmpl::Vmpl3);
        // Hypervisor cannot reclaim it.
        assert!(m.rmp_reclaim(10).is_err());
        m.vmsa_destroy(Vmpl::Vmpl0, 10).unwrap();
        assert!(m.vmsa(10).is_none());
        assert!(m.read(Vmpl::Vmpl0, Machine::gpa(10), 8).is_ok());
    }

    #[test]
    fn hv_cannot_touch_private_memory() {
        let mut m = machine();
        validated(&mut m, 4);
        m.write(Vmpl::Vmpl0, Machine::gpa(4), b"secret").unwrap();
        assert!(m.hv_read(Machine::gpa(4), 6).is_err());
        assert!(m.hv_write(Machine::gpa(4), b"attack").is_err());
        // Shared page fine.
        assert!(m.hv_write(0, b"io data").is_ok());
        assert_eq!(m.hv_read(0, 7).unwrap(), b"io data");
    }

    #[test]
    fn reclaim_scrubs_contents() {
        let mut m = machine();
        validated(&mut m, 6);
        m.write(Vmpl::Vmpl0, Machine::gpa(6), b"key material").unwrap();
        m.rmp_reclaim(6).unwrap();
        let data = m.hv_read(Machine::gpa(6), 12).unwrap();
        assert_eq!(data, vec![0u8; 12], "reclaimed page must be scrubbed");
    }

    #[test]
    fn cross_page_access_checks_every_page() {
        let mut m = machine();
        validated(&mut m, 2);
        m.rmpadjust(Vmpl::Vmpl0, 2, Vmpl::Vmpl3, VmplPerms::empty()).unwrap();
        // Write spanning shared frame 1 into protected frame 2 must fault.
        let gpa = Machine::gpa(2) - 4;
        assert!(m.write(Vmpl::Vmpl3, gpa, &[0u8; 8]).is_err());
        assert!(m.write(Vmpl::Vmpl3, gpa, &[0u8; 4]).is_ok());
    }

    #[test]
    fn halt_blocks_operations() {
        let mut m = machine();
        m.halt(HaltReason::Shutdown);
        assert!(matches!(m.pvalidate(Vmpl::Vmpl0, 1, true), Err(SnpError::Halted(_))));
    }

    #[test]
    fn launch_records_its_own_measurement_once() {
        let mut m = machine();
        assert!(m.attest_chain(Vmpl::Vmpl0, [0; 32], [0; 64]).is_none(), "no report before launch");
        let image = vec![(1, b"monitor".to_vec())];
        let digest = m.launch(&image, 2).unwrap();
        assert_eq!(digest, crate::attest::measure_launch(&image, 2));
        assert_eq!(m.launch_measurement(), Some(digest));
        assert_eq!(m.launch(&[(3, Vec::new())], 4), Err(LaunchError::AlreadyLaunched));
        assert_eq!(m.launch_measurement(), Some(digest), "a second launch changes nothing");
        let report = m.attest_chain(Vmpl::Vmpl0, [1; 32], [2; 64]).unwrap();
        assert_eq!(report.measurement, digest);
        assert_eq!(m.kds_verifier(digest).verify(&report, &[1; 32]), Ok(()));
    }

    #[test]
    fn oversized_boot_page_is_refused_before_loading() {
        let mut m = machine();
        let image = vec![(1, vec![1u8; 8]), (2, vec![0u8; PAGE_SIZE + 1])];
        let refused = Err(LaunchError::OversizedPage { gfn: 2, len: PAGE_SIZE + 1 });
        assert_eq!(m.launch(&image, 3), refused);
        assert_eq!(m.launch_measurement(), None);
        assert_eq!(m.rmp().entry(1).map(|e| e.state()), Some(PageState::Shared), "nothing loaded");
    }

    #[test]
    fn read_into_and_exec_checks() {
        let mut m = machine();
        m.write(Vmpl::Vmpl3, 16, b"shared bytes").unwrap();
        let mut buf = [0u8; 12];
        m.read_into(Vmpl::Vmpl3, 16, &mut buf).unwrap();
        assert_eq!(&buf, b"shared bytes");
        // Shared pages execute freely; a supervisor-restricted private
        // page does not.
        m.check_exec(Vmpl::Vmpl3, Cpl::Cpl0, 16).unwrap();
        validated(&mut m, 9);
        m.rmpadjust(Vmpl::Vmpl0, 9, Vmpl::Vmpl3, VmplPerms::rw()).unwrap();
        assert!(m.check_exec(Vmpl::Vmpl3, Cpl::Cpl0, Machine::gpa(9)).is_err());
        assert!(m.check_exec(Vmpl::Vmpl0, Cpl::Cpl0, Machine::gpa(9)).is_ok());
    }

    #[test]
    fn zero_length_accesses_always_succeed() {
        let mut m = machine();
        validated(&mut m, 9);
        m.rmpadjust(Vmpl::Vmpl0, 9, Vmpl::Vmpl3, VmplPerms::empty()).unwrap();
        assert!(m.read(Vmpl::Vmpl3, Machine::gpa(9), 0).is_ok());
        assert!(m.write(Vmpl::Vmpl3, Machine::gpa(9), &[]).is_ok());
        assert!(m.hv_write(Machine::gpa(9), &[]).is_ok());
    }

    #[test]
    fn frames_and_gpa_helpers() {
        let m = machine();
        assert_eq!(m.frames(), 64);
        assert_eq!(Machine::gpa(3), 3 * 4096);
    }

    #[test]
    fn charge_attributes_to_current_domain() {
        let mut m = machine();
        assert_eq!(m.current_domain(), Vmpl::Vmpl0);
        m.charge(CostCategory::Compute, 100);
        m.set_current_domain(Vmpl::Vmpl3);
        m.charge(CostCategory::KernelService, 50);
        assert_eq!(m.domain_cycles()[0], 100);
        assert_eq!(m.domain_cycles()[3], 50);
        assert_eq!(m.domain_cycles().iter().sum::<u64>(), m.cycles().total());
    }

    #[test]
    fn rmp_instructions_emit_trace_events() {
        let mut m = machine();
        m.tracer_mut().set_enabled(true);
        validated(&mut m, 5); // assign + pvalidate + three rmpadjusts
        let counters = *m.tracer().counters();
        assert_eq!(counters.rmp_transitions, 1);
        assert_eq!(counters.pvalidates, 1);
        assert_eq!(counters.rmpadjusts, 3);
        assert_eq!(m.tracer().len(), 5);
        veil_trace::invariants::check(&m.tracer().snapshot()).unwrap();
        // Counters keep folding when the ring is disabled...
        m.tracer_mut().set_enabled(false);
        m.rmp_assign(6).unwrap();
        assert_eq!(m.tracer().counters().rmp_transitions, 2);
        // ...but nothing new is recorded (the old ring stays for inspection).
        assert_eq!(m.tracer().len(), 5);
    }

    #[test]
    fn ghcb_msr_roundtrip() {
        let mut m = machine();
        assert_eq!(m.ghcb_msr(0), None);
        m.set_ghcb_msr(0, 12);
        assert_eq!(m.ghcb_msr(0), Some(12));
    }
}
