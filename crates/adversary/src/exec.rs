//! The differential executor: applies one [`AdversaryOp`] to the real
//! machine *and* the reference oracle, demanding verdict equality and
//! re-checking the standing security invariants after every step.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;

use veil_core::cvm::CvmBuilder;
use veil_core::service::NoServices;
use veil_hv::Hypervisor;
use veil_os::error::OsError;
use veil_snp::fault::SnpError;
use veil_snp::ghcb::{Ghcb, GhcbExit};
use veil_snp::machine::{Machine, MachineConfig};
use veil_snp::perms::{Access, Cpl, Vmpl, VmplPerms};
use veil_snp::pt::{AddressSpace, PtError, PteFlags};
use veil_snp::rmp::{PageState, RmpMutation};
use veil_snp::vcek::{
    self, ChainReport, ChainVerifier, DeriveStage, Tamper, TcbVersion, VerifyError,
};
use veil_trace::EventCounters;

use crate::ops::{AdversaryOp, PolicyKnob, DATA_FRAMES, FRAMES, VA_SLOTS};
use crate::oracle::{PageKind, RmpOracle};

/// Frame layout of the fuzzing world (see [`World::new`]).
pub const GHCB_GFN: u64 = 4;
/// The shared page the hostile ring ops fill, corrupt, and consume. It
/// starts in the architectural reset state (shared), so both the guest
/// and the host can reach it — until an attack sequence converts it.
pub const RING_GFN: u64 = 0;
const BOOT_VMSA_GFN: u64 = 3;
const DOMAIN_VMSA_GFNS: [(Vmpl, u64); 3] = [(Vmpl::Vmpl1, 5), (Vmpl::Vmpl2, 6), (Vmpl::Vmpl3, 7)];
const POOL_FIRST: u64 = 8;
const VA_BASE: u64 = 0x4000_0000;
const PAGE: u64 = 4096;
/// VMSA `rip` marker base: the executor stamps `MARKER_BASE + gfn` into
/// every VMSA it knows about and asserts the value never changes — the
/// "VMSA frames stay immutable" invariant, checked at the register
/// level rather than through the (already differential) access path.
const MARKER_BASE: u64 = 0x5EED_0000;
/// Device seed the attestation ops derive their chip seed from —
/// deliberately distinct from [`MachineConfig::default`]'s seed so the
/// forgery expectations never accidentally share material with the
/// world's own machine.
const ADVERSARY_DEVICE_SEED: [u8; 32] = [0xAD; 32];

/// Op-variant and verdict-variant coverage recorded by a [`World`] as
/// it executes — the raw material of the coverage audit test, which
/// demands that the fuzzer and model checker together reach every
/// [`AdversaryOp`] variant and every [`SnpError`] variant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Coverage {
    /// `AdversaryOp` variant names executed at least once.
    pub ops: BTreeSet<&'static str>,
    /// `SnpError` variant names observed at least once (machine side).
    pub verdicts: BTreeSet<&'static str>,
}

impl Coverage {
    /// Unions `other` into `self`.
    pub fn merge(&mut self, other: &Coverage) {
        self.ops.extend(other.ops.iter());
        self.verdicts.extend(other.verdicts.iter());
    }
}

/// Shape of the booted world: the fuzzer's default, or a small
/// model-checking configuration with reserved gfns.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Guest-physical frames in the machine (and the oracle).
    pub frames: u64,
    /// Gfns excluded from the validated pool and left hypervisor-shared
    /// — the model checker's "model gfns", which must start from the
    /// architectural reset state so every RMP state stays reachable.
    pub reserved: Vec<u64>,
    /// Enable tracing + metrics. The fuzzer wants the observation
    /// channel; the model checker turns it off so per-edge clones stay
    /// cheap. [`World::finish`] requires `observe`.
    pub observe: bool,
}

impl WorldConfig {
    /// The fuzzing world: [`FRAMES`] frames, no reservations, full
    /// trace/metrics observation.
    pub fn fuzz() -> Self {
        WorldConfig { frames: FRAMES, reserved: Vec::new(), observe: true }
    }
}

/// One fuzzing world: hypervisor + machine on one side, oracle on the
/// other, plus the VMPL-3 address space the page-table ops churn.
#[derive(Debug, Clone)]
pub struct World {
    /// The system under test.
    pub hv: Hypervisor,
    oracle: RmpOracle,
    aspace: AddressSpace,
    free: Vec<u64>,
    data_frames: Vec<u64>,
    ghcb: Ghcb,
    markers: BTreeMap<u64, u64>,
    frames: u64,
    observe: bool,
    coverage: Coverage,
}

impl World {
    /// Boots the default fuzzing world ([`WorldConfig::fuzz`]): a
    /// launched CVM with a shared GHCB, one VMSA per domain, a pool of
    /// validated all-VMPL pages, and a VMPL-3 address space — mirrored
    /// step for step into the oracle.
    ///
    /// # Panics
    ///
    /// Panics if the prologue itself diverges (a harness bug, not a
    /// finding).
    pub fn new(mutation: Option<RmpMutation>) -> Self {
        World::with_config(mutation, &WorldConfig::fuzz())
    }

    /// Boots a world with an explicit [`WorldConfig`] — the
    /// graph-driveable entry point the model checker uses to build tiny
    /// configurations with pristine reserved gfns.
    ///
    /// # Panics
    ///
    /// Panics if the prologue itself diverges (a harness bug, not a
    /// finding), or if the configuration reserves a prologue frame.
    pub fn with_config(mutation: Option<RmpMutation>, cfg: &WorldConfig) -> Self {
        assert!(
            cfg.reserved.iter().all(|&gfn| (POOL_FIRST..cfg.frames).contains(&gfn)),
            "reserved gfns must lie in the pool range"
        );
        let mut machine =
            Machine::new(MachineConfig { frames: cfg.frames as usize, ..Default::default() });
        machine.tracer_mut().set_enabled(cfg.observe);
        machine.set_metrics_enabled(cfg.observe);
        if let Some(m) = mutation {
            machine.seed_rmp_mutation(m);
        }
        let mut hv = Hypervisor::new(machine);
        let mut oracle = RmpOracle::new(cfg.frames);

        // Launch: two boot-image pages plus the boot VMSA frame.
        let code = vec![0xC3u8; 64];
        let data = vec![0xDAu8; 64];
        hv.launch(&[(1, code), (2, data)], BOOT_VMSA_GFN).expect("launch");
        for gfn in [1, 2, BOOT_VMSA_GFN] {
            oracle.assign(gfn).expect("oracle launch assign");
            oracle.pvalidate(Vmpl::Vmpl0, gfn, true).expect("oracle launch validate");
        }
        oracle.vmsa_create(Vmpl::Vmpl0, BOOT_VMSA_GFN).expect("oracle boot vmsa");
        hv.machine.set_ghcb_msr(0, GHCB_GFN);

        // One VMSA per lower domain, registered for switching.
        for (vmpl, gfn) in DOMAIN_VMSA_GFNS {
            hv.machine.rmp_assign(gfn).expect("assign vmsa frame");
            hv.machine.pvalidate(Vmpl::Vmpl0, gfn, true).expect("validate vmsa frame");
            let cpl = if vmpl == Vmpl::Vmpl2 { Cpl::Cpl3 } else { Cpl::Cpl0 };
            hv.machine.vmsa_create(Vmpl::Vmpl0, gfn, 0, vmpl, cpl).expect("create vmsa");
            hv.register_domain_vmsa(0, vmpl, gfn);
            oracle.assign(gfn).expect("oracle assign vmsa frame");
            oracle.pvalidate(Vmpl::Vmpl0, gfn, true).expect("oracle validate vmsa frame");
            oracle.vmsa_create(Vmpl::Vmpl0, gfn).expect("oracle create vmsa");
        }

        // Pool pages: validated, all permissions for every VMPL.
        // Reserved (model) gfns are skipped: they stay hypervisor-shared.
        let mut free = Vec::new();
        for gfn in (POOL_FIRST..cfg.frames).filter(|gfn| !cfg.reserved.contains(gfn)) {
            hv.machine.rmp_assign(gfn).expect("assign pool");
            hv.machine.pvalidate(Vmpl::Vmpl0, gfn, true).expect("validate pool");
            oracle.assign(gfn).expect("oracle assign pool");
            oracle.pvalidate(Vmpl::Vmpl0, gfn, true).expect("oracle validate pool");
            for vmpl in [Vmpl::Vmpl1, Vmpl::Vmpl2, Vmpl::Vmpl3] {
                hv.machine.rmpadjust(Vmpl::Vmpl0, gfn, vmpl, VmplPerms::all()).expect("grant pool");
                oracle
                    .rmpadjust(Vmpl::Vmpl0, gfn, vmpl, VmplPerms::all())
                    .expect("oracle grant pool");
            }
            free.push(gfn);
        }
        free.reverse(); // pop() hands out the lowest gfn first

        let aspace =
            AddressSpace::new(&mut hv.machine, Vmpl::Vmpl3, &mut free).expect("address space");
        let data_frames: Vec<u64> =
            (0..DATA_FRAMES).map(|_| free.pop().expect("data frame")).collect();

        let ghcb = Ghcb::at(&hv.machine, GHCB_GFN).expect("shared GHCB");
        let mut world = World {
            hv,
            oracle,
            aspace,
            free,
            data_frames,
            ghcb,
            markers: BTreeMap::new(),
            frames: cfg.frames,
            observe: cfg.observe,
            coverage: Coverage::default(),
        };

        // Stamp every prologue VMSA with its immutability marker.
        for gfn in [BOOT_VMSA_GFN].into_iter().chain(DOMAIN_VMSA_GFNS.iter().map(|&(_, gfn)| gfn)) {
            world.stamp_marker(gfn);
        }
        world.check_invariants().expect("prologue must satisfy all invariants");
        world
    }

    fn stamp_marker(&mut self, gfn: u64) {
        let marker = MARKER_BASE + gfn;
        self.hv.machine.vmsa_mut(gfn).expect("live VMSA").regs.rip = marker;
        self.markers.insert(gfn, marker);
    }

    /// Applies one op to machine and oracle. Returns a canonical result
    /// line (the fuzzer's log and the witness matrix) or a divergence
    /// description.
    pub fn step(&mut self, op: &AdversaryOp) -> Result<String, String> {
        let line = self.apply(op)?;
        self.check_invariants().map_err(|e| format!("after {op:?}: {e}"))?;
        Ok(line)
    }

    fn apply(&mut self, op: &AdversaryOp) -> Result<String, String> {
        self.coverage.ops.insert(op.variant_name());
        match *op {
            AdversaryOp::GuestRead { vmpl, gfn } => {
                let expected = self.oracle.guest_access(vmpl, gfn, Access::Read);
                let actual = self.hv.machine.read(vmpl, gfn * PAGE, 8);
                self.note(&actual);
                compare(op, &actual, &expected)?;
                Ok(format!("read {actual:?}"))
            }
            AdversaryOp::GuestWrite { vmpl, gfn } => {
                let expected = self.oracle.guest_access(vmpl, gfn, Access::Write);
                let pattern = [0x10u8 + vmpl.index() as u8; 8];
                let actual = self.hv.machine.write(vmpl, gfn * PAGE, &pattern);
                self.note(&actual);
                compare(op, &actual, &expected)?;
                Ok(format!("write {actual:?}"))
            }
            AdversaryOp::GuestExec { vmpl, user, gfn } => {
                let cpl = if user { Cpl::Cpl3 } else { Cpl::Cpl0 };
                let expected = self.oracle.guest_access(vmpl, gfn, Access::Execute(cpl));
                let actual = self.hv.machine.check_exec(vmpl, cpl, gfn * PAGE);
                self.note(&actual);
                compare(op, &actual, &expected)?;
                Ok(format!("exec {actual:?}"))
            }
            AdversaryOp::HvRead { gfn } => {
                let expected = self.oracle.hv_access(gfn);
                let actual = self.hv.machine.hv_read(gfn * PAGE, 8);
                self.note(&actual);
                compare(op, &actual, &expected)?;
                Ok(format!("hv-read {actual:?}"))
            }
            AdversaryOp::HvWrite { gfn } => {
                let expected = self.oracle.hv_access(gfn);
                let actual = self.hv.machine.hv_write(gfn * PAGE, b"hostile!");
                self.note(&actual);
                compare(op, &actual, &expected)?;
                Ok(format!("hv-write {actual:?}"))
            }
            AdversaryOp::Pvalidate { vmpl, gfn, validate } => {
                let expected = self.oracle.pvalidate(vmpl, gfn, validate);
                let actual = self.hv.machine.pvalidate(vmpl, gfn, validate);
                self.note(&actual);
                compare(op, &actual, &expected)?;
                Ok(format!("pvalidate {actual:?}"))
            }
            AdversaryOp::Rmpadjust { executing, gfn, target, perms } => {
                let perms = VmplPerms::from_bits_truncate(perms);
                let expected = self.oracle.rmpadjust(executing, gfn, target, perms);
                let actual = self.hv.machine.rmpadjust(executing, gfn, target, perms);
                self.note(&actual);
                compare(op, &actual, &expected)?;
                Ok(format!("rmpadjust {actual:?}"))
            }
            AdversaryOp::Assign { gfn } => {
                let expected = self.oracle.assign(gfn);
                let actual = self.hv.machine.rmp_assign(gfn);
                self.note(&actual);
                compare(op, &actual, &expected)?;
                Ok(format!("assign {actual:?}"))
            }
            AdversaryOp::Reclaim { gfn } => {
                let expected = self.oracle.reclaim(gfn);
                let actual = self.hv.machine.rmp_reclaim(gfn);
                self.note(&actual);
                compare(op, &actual, &expected)?;
                Ok(format!("reclaim {actual:?}"))
            }
            AdversaryOp::Psc { vmpl, gfn, to_private } => {
                let expected_wr = self.oracle.guest_access(vmpl, GHCB_GFN, Access::Write);
                let wr = self.ghcb.write_request(
                    &mut self.hv.machine,
                    vmpl,
                    GhcbExit::PageStateChange,
                    gfn,
                    u64::from(to_private),
                );
                self.note(&wr);
                compare(op, &wr, &expected_wr)?;
                if wr.is_err() {
                    return Ok(format!("psc-req {wr:?}"));
                }
                let gate = self.oracle.exit_gate(GHCB_GFN);
                let actual = self.hv.vmgexit(0, false);
                self.note(&actual);
                match (&actual, &gate) {
                    (Err(SnpError::Halted(got)), Err(want)) if got == want => {}
                    (Ok(resp), Ok(())) => {
                        let applied = if to_private {
                            self.oracle.assign(gfn)
                        } else {
                            self.oracle.reclaim(gfn)
                        };
                        let agreed = matches!(
                            (resp, applied.is_ok()),
                            (veil_hv::HvResponse::PageStateChanged, true)
                                | (veil_hv::HvResponse::Refused { .. }, false)
                        );
                        if !agreed {
                            return Err(format!(
                                "psc divergence on {op:?}: hypervisor {resp:?}, oracle {applied:?}"
                            ));
                        }
                    }
                    _ => {
                        return Err(format!(
                            "psc gate divergence on {op:?}: machine {actual:?}, oracle {gate:?}"
                        ))
                    }
                }
                Ok(format!("psc {actual:?}"))
            }
            AdversaryOp::VmsaCreate { executing, gfn, target } => {
                let expected = self.oracle.vmsa_create(executing, gfn);
                let actual = self.hv.machine.vmsa_create(executing, gfn, 1, target, Cpl::Cpl0);
                self.note(&actual);
                compare(op, &actual, &expected)?;
                if actual.is_ok() {
                    self.stamp_marker(gfn);
                }
                Ok(format!("vmsa-create {actual:?}"))
            }
            AdversaryOp::VmsaDestroy { executing, gfn } => {
                let expected = self.oracle.vmsa_destroy(executing, gfn);
                let actual = self.hv.machine.vmsa_destroy(executing, gfn);
                self.note(&actual);
                compare(op, &actual, &expected)?;
                if actual.is_ok() {
                    self.markers.remove(&gfn);
                }
                Ok(format!("vmsa-destroy {actual:?}"))
            }
            AdversaryOp::SwitchReq { vmpl, target, user_ghcb } => {
                let expected_wr = self.oracle.guest_access(vmpl, GHCB_GFN, Access::Write);
                let wr = self.ghcb.write_request(
                    &mut self.hv.machine,
                    vmpl,
                    GhcbExit::DomainSwitch,
                    target.index() as u64,
                    0,
                );
                self.note(&wr);
                compare(op, &wr, &expected_wr)?;
                if wr.is_err() {
                    return Ok(format!("switch-req {wr:?}"));
                }
                let gate = self.oracle.exit_gate(GHCB_GFN);
                let actual = self.hv.vmgexit(0, user_ghcb);
                self.note(&actual);
                // Routing policy (refusals, misrouting, scope checks) is
                // hypervisor behaviour, deliberately outside the RMP
                // oracle; the gate still pins halts.
                match (&actual, &gate) {
                    (Err(SnpError::Halted(got)), Err(want)) if got == want => {}
                    (Ok(_), Ok(())) => {}
                    _ => {
                        return Err(format!(
                            "switch gate divergence on {op:?}: machine {actual:?}, oracle {gate:?}"
                        ))
                    }
                }
                Ok(format!("switch {actual:?}"))
            }
            AdversaryOp::AutoExit => {
                let resumed = self.hv.automatic_exit(0);
                // Interrupt-relay halts are hypervisor-policy territory
                // the oracle does not model: import them.
                self.oracle.sync_halt(self.hv.machine.halted());
                Ok(format!("auto-exit {resumed:?}"))
            }
            AdversaryOp::SetPolicy { knob, on } => {
                match knob {
                    PolicyKnob::RelayInterrupts => self.hv.policy.relay_interrupts_to_unt = on,
                    PolicyKnob::TamperVmsa => self.hv.policy.tamper_vmsa_on_switch = on,
                    PolicyKnob::EnclaveGhcbScope => self.hv.policy.enforce_enclave_ghcb_scope = on,
                    PolicyKnob::RefuseSwitches => self.hv.policy.refuse_switches = on,
                    PolicyKnob::MisrouteSwitches => {
                        self.hv.policy.misroute_switch_to = on.then_some(Vmpl::Vmpl3)
                    }
                }
                Ok(format!("policy {knob:?}={on}"))
            }
            AdversaryOp::Map { slot, frame, writable } => {
                let pfn = self.data_frames[frame % DATA_FRAMES];
                let flags = if writable { PteFlags::user_data() } else { PteFlags::user_ro() };
                let r = self.aspace.map(
                    &mut self.hv.machine,
                    Vmpl::Vmpl3,
                    &mut self.free,
                    va(slot),
                    pfn,
                    flags,
                );
                Ok(format!("map {r:?}"))
            }
            AdversaryOp::Unmap { slot } => {
                let r = self.aspace.unmap(&mut self.hv.machine, Vmpl::Vmpl3, va(slot));
                Ok(format!("unmap {r:?}"))
            }
            AdversaryOp::Protect { slot, writable } => {
                let flags = if writable { PteFlags::user_data() } else { PteFlags::user_ro() };
                let r = self.aspace.protect(&mut self.hv.machine, Vmpl::Vmpl3, va(slot), flags);
                Ok(format!("protect {r:?}"))
            }
            AdversaryOp::ReadVirt { slot } => {
                let expected = self.expect_virt(slot, Access::Read);
                let r =
                    self.aspace.read_virt(&self.hv.machine, va(slot), 8, Vmpl::Vmpl3, Cpl::Cpl3);
                compare(op, &r, &expected)?;
                Ok(format!("read-virt {r:?}"))
            }
            AdversaryOp::WriteVirt { slot, byte } => {
                let expected = self.expect_virt(slot, Access::Write);
                let r = self.aspace.write_virt(
                    &mut self.hv.machine,
                    va(slot),
                    &[byte; 8],
                    Vmpl::Vmpl3,
                    Cpl::Cpl3,
                );
                compare(op, &r, &expected)?;
                Ok(format!("write-virt {r:?}"))
            }
            AdversaryOp::RingFill { vmpl, first_gfn, count, to_private } => {
                // Clamp into one page (same idiom as Map's frame index);
                // oversized *batches* are PscBatchReq's job, not the fill.
                let count = count % (PAGE / 8) + 1;
                let mut bytes = Vec::with_capacity(count as usize * 8);
                for i in 0..count {
                    let entry =
                        (first_gfn.wrapping_add(i) & !(1u64 << 63)) | u64::from(to_private) << 63;
                    bytes.extend_from_slice(&entry.to_le_bytes());
                }
                let expected = self.oracle.guest_access(vmpl, RING_GFN, Access::Write);
                let actual = self.hv.machine.write(vmpl, RING_GFN * PAGE, &bytes);
                self.note(&actual);
                compare(op, &actual, &expected)?;
                Ok(format!("ring-fill {actual:?}"))
            }
            AdversaryOp::RingCorrupt { offset, value } => {
                let expected = self.oracle.hv_access(RING_GFN);
                let actual = self.hv.machine.hv_write(RING_GFN * PAGE + offset % PAGE, &[value]);
                self.note(&actual);
                compare(op, &actual, &expected)?;
                Ok(format!("ring-corrupt {actual:?}"))
            }
            AdversaryOp::DoorbellRing { vmpl, target, depth } => {
                let expected_wr = self.oracle.guest_access(vmpl, GHCB_GFN, Access::Write);
                let wr = self.ghcb.write_request(
                    &mut self.hv.machine,
                    vmpl,
                    GhcbExit::Doorbell,
                    target,
                    depth,
                );
                self.note(&wr);
                compare(op, &wr, &expected_wr)?;
                if wr.is_err() {
                    return Ok(format!("doorbell-req {wr:?}"));
                }
                let gate = self.oracle.exit_gate(GHCB_GFN);
                let actual = self.hv.vmgexit(0, false);
                self.note(&actual);
                // Like SwitchReq: routing (bad targets, policy refusals)
                // is hypervisor behaviour outside the RMP oracle; the
                // gate still pins halts.
                match (&actual, &gate) {
                    (Err(SnpError::Halted(got)), Err(want)) if got == want => {}
                    (Ok(_), Ok(())) => {}
                    _ => {
                        let why = format!(
                            "doorbell gate divergence on {op:?}: \
                             machine {actual:?}, oracle {gate:?}"
                        );
                        return Err(why);
                    }
                }
                Ok(format!("doorbell {actual:?}"))
            }
            AdversaryOp::PscBatchReq { vmpl, list_gfn, count } => {
                let expected_wr = self.oracle.guest_access(vmpl, GHCB_GFN, Access::Write);
                let wr = self.ghcb.write_request(
                    &mut self.hv.machine,
                    vmpl,
                    GhcbExit::PscBatch,
                    list_gfn,
                    count,
                );
                self.note(&wr);
                compare(op, &wr, &expected_wr)?;
                if wr.is_err() {
                    return Ok(format!("psc-batch-req {wr:?}"));
                }
                let gate = self.oracle.exit_gate(GHCB_GFN);
                // Pre-read the list exactly as the hypervisor will at
                // exit time (`hv_read` is pure): a self-referential list
                // may flip its own page private mid-batch.
                let raw = if count <= veil_hv::PSC_BATCH_MAX {
                    self.hv.machine.hv_read(list_gfn * PAGE, count as usize * 8).ok()
                } else {
                    None
                };
                let actual = self.hv.vmgexit(0, false);
                self.note(&actual);
                match (&actual, &gate) {
                    (Err(SnpError::Halted(got)), Err(want)) if got == want => {}
                    (Ok(resp), Ok(())) => {
                        // Replay the batch against the oracle with the
                        // hypervisor's stop-at-first-failure semantics.
                        let mut all_applied = false;
                        if let Some(bytes) = &raw {
                            all_applied = true;
                            for chunk in bytes.chunks_exact(8) {
                                let entry =
                                    u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
                                let gfn = entry & !(1u64 << 63);
                                let applied = if entry >> 63 == 1 {
                                    self.oracle.assign(gfn)
                                } else {
                                    self.oracle.reclaim(gfn)
                                };
                                if applied.is_err() {
                                    all_applied = false;
                                    break;
                                }
                            }
                        }
                        let agreed = matches!(
                            (resp, all_applied),
                            (veil_hv::HvResponse::PageStateChanged, true)
                                | (veil_hv::HvResponse::Refused { .. }, false)
                        );
                        if !agreed {
                            return Err(format!(
                                "psc-batch divergence on {op:?}: hypervisor {resp:?}, \
                                 oracle all_applied={all_applied}"
                            ));
                        }
                    }
                    _ => {
                        return Err(format!(
                            "psc-batch gate divergence on {op:?}: machine {actual:?}, \
                             oracle {gate:?}"
                        ))
                    }
                }
                Ok(format!("psc-batch {actual:?}"))
            }
            AdversaryOp::ForgeReport { tamper } => {
                // Attestation differential: the hostile issuer and the
                // chain verifier are independent derivations of the same
                // trust material, so every forgery must be rejected with
                // the tamper point's *exact* error — a generic rejection
                // would let distinct attacks alias.
                let seed = vcek::chip_seed(&ADVERSARY_DEVICE_SEED);
                let measurement = [0x33u8; 32];
                let nonce = [0x44u8; 32];
                let (tamper, want) = match tamper % 6 {
                    0 => (
                        Tamper::WrongSeed,
                        VerifyError::DerivationMismatch { stage: DeriveStage::Vcek },
                    ),
                    1 => (
                        Tamper::StaleTcb(TcbVersion(0)),
                        VerifyError::StaleTcb { claimed: TcbVersion(0), minimum: TcbVersion(1) },
                    ),
                    2 => (
                        Tamper::SkipVcekStage,
                        VerifyError::DerivationMismatch { stage: DeriveStage::AttestationKey },
                    ),
                    3 => (Tamper::FlipSignature, VerifyError::BadSignature),
                    4 => (Tamper::MutateMeasurement, VerifyError::WrongMeasurement),
                    _ => (Tamper::ClaimVmpl(Vmpl::Vmpl3), VerifyError::WrongVmpl(Vmpl::Vmpl3)),
                };
                let mut verifier =
                    ChainVerifier::with_kds(&seed, TcbVersion(1), TcbVersion(8), measurement);
                let hostile = ChainReport::issue_tampered(
                    tamper,
                    &seed,
                    TcbVersion(2),
                    measurement,
                    nonce,
                    [0u8; 64],
                );
                match verifier.verify(&hostile, &nonce) {
                    Err(ref got) if *got == want => Ok(format!("forge-report rejected ({got})")),
                    other => Err(format!(
                        "attestation divergence on {op:?}: got {other:?}, want {want:?}"
                    )),
                }
            }
            AdversaryOp::ReplayStaleReport { nonce_byte } => {
                let seed = vcek::chip_seed(&ADVERSARY_DEVICE_SEED);
                let measurement = [0x33u8; 32];
                let nonce = [nonce_byte; 32];
                let mut verifier =
                    ChainVerifier::with_kds(&seed, TcbVersion(1), TcbVersion(8), measurement);
                let honest = ChainReport::issue(
                    &seed,
                    TcbVersion(2),
                    measurement,
                    Vmpl::Vmpl0,
                    nonce,
                    [0u8; 64],
                );
                match (verifier.verify(&honest, &nonce), verifier.verify(&honest, &nonce)) {
                    (Ok(()), Err(VerifyError::Replayed)) => {
                        Ok("replay-stale-report rejected".into())
                    }
                    other => Err(format!("replay divergence on {op:?}: {other:?}")),
                }
            }
            AdversaryOp::BootTamperedImage { page, offset } => {
                // The firmware stage must refuse the mutated image
                // pre-launch, naming both digests; any other outcome
                // (boot succeeds, or a different error) is a finding.
                let result = CvmBuilder::new()
                    .frames(2048)
                    .attest(true)
                    .tamper_boot_image(page as usize, offset as usize)
                    .build_with(NoServices);
                match result {
                    Err(OsError::FirmwareRefused { expected, actual }) if expected != actual => {
                        Ok("boot-tampered-image refused".into())
                    }
                    Ok(_) => Err(format!("firmware divergence on {op:?}: tampered boot accepted")),
                    Err(e) => Err(format!("firmware divergence on {op:?}: {e:?}")),
                }
            }
        }
    }

    /// Records the machine-side verdict variant for the coverage audit.
    fn note<T>(&mut self, r: &Result<T, SnpError>) {
        if let Err(e) = r {
            self.coverage.verdicts.insert(e.variant_name());
        }
    }

    /// The reference oracle (read-only).
    pub fn oracle(&self) -> &RmpOracle {
        &self.oracle
    }

    /// Op/verdict coverage recorded so far.
    pub fn coverage(&self) -> &Coverage {
        &self.coverage
    }

    /// Abstract mapping state of VA `slot` in the VMPL-3 address space:
    /// `0` unmapped, `1` mapped read-only, `2` mapped writable. The
    /// model checker folds this into its canonical state key; accessed
    /// and dirty PTE bits are deliberately quotiented away (no access
    /// verdict depends on them).
    pub fn slot_state(&self, slot: u64) -> u8 {
        match self.aspace.translate(&self.hv.machine, va(slot)) {
            Ok((_, flags)) if flags.contains(PteFlags::WRITABLE) => 2,
            Ok(_) => 1,
            Err(_) => 0,
        }
    }

    /// Expected verdict of an 8-byte ring-3 VMPL-3 access at VA `slot`:
    /// the hardware walk of the live tables, the PTE flag rules, then the
    /// oracle's RMP verdict on the translated frame. The walk is a pure
    /// function of memory, so the RMP half is what the oracle checks.
    fn expect_virt(&self, slot: u64, access: Access) -> Result<(), PtError> {
        let vaddr = va(slot);
        let (pfn, flags) = self.aspace.translate(&self.hv.machine, vaddr)?;
        let writable = flags.contains(PteFlags::WRITABLE) || access != Access::Write;
        if !flags.contains(PteFlags::USER) || !writable {
            return Err(PtError::PageFault { vaddr, access });
        }
        self.oracle.guest_access(Vmpl::Vmpl3, pfn, access).map_err(PtError::Snp)
    }

    /// The standing invariants, re-checked after every op.
    fn check_invariants(&self) -> Result<(), String> {
        let m = &self.hv.machine;
        if m.halted() != self.oracle.halted() {
            return Err(format!(
                "halt divergence: machine {:?}, oracle {:?}",
                m.halted(),
                self.oracle.halted()
            ));
        }
        for gfn in 0..self.frames {
            let entry = m.rmp().entry(gfn).expect("gfn in range");
            let page = self.oracle.page(gfn).expect("gfn in range");
            let kinds_match = matches!(
                (entry.state(), page.kind),
                (PageState::Shared, PageKind::Shared)
                    | (PageState::AssignedUnvalidated, PageKind::Assigned)
                    | (PageState::Validated, PageKind::Validated)
            );
            if !kinds_match || entry.is_vmsa() != page.vmsa {
                return Err(format!(
                    "RMP divergence at gfn {gfn}: machine {entry:?}, oracle {page:?}"
                ));
            }
            for vmpl in Vmpl::ALL {
                if entry.perms(vmpl) != page.perms[vmpl.index()] {
                    return Err(format!(
                        "perm divergence at gfn {gfn} {vmpl}: machine {:?}, oracle {:?}",
                        entry.perms(vmpl),
                        page.perms[vmpl.index()]
                    ));
                }
            }
            if m.rmp().hypervisor_accessible(gfn) != (page.kind == PageKind::Shared) {
                return Err(format!("hypervisor accessibility drifted from shared-ness at {gfn}"));
            }
        }
        let live: BTreeSet<u64> = m.vmsa_gfns().into_iter().collect();
        if live != *self.oracle.live_vmsas() {
            return Err(format!(
                "live-VMSA divergence: machine {live:?}, oracle {:?}",
                self.oracle.live_vmsas()
            ));
        }
        for (&gfn, &marker) in &self.markers {
            match m.vmsa(gfn) {
                Some(v) if v.regs.rip == marker => {}
                other => {
                    return Err(format!(
                    "VMSA immutability violated at gfn {gfn}: marker {marker:#x}, state {other:?}"
                ))
                }
            }
        }
        let domain = m.domain_cycles();
        let total: u64 = domain.iter().sum();
        if total != m.cycles().total() {
            return Err(format!(
                "cycle attribution drifted: domains sum {total}, machine total {}",
                m.cycles().total()
            ));
        }
        Ok(())
    }

    /// End-of-sequence trace/metrics consistency checks. Requires an
    /// observing world ([`WorldConfig::observe`]).
    pub fn finish(&self) -> Result<(), String> {
        assert!(self.observe, "finish() needs trace/metrics observation enabled");
        let m = &self.hv.machine;
        let tracer = m.tracer();
        if tracer.dropped() != 0 {
            return Err(format!("trace ring wrapped: {} dropped", tracer.dropped()));
        }
        let records = tracer.snapshot();
        veil_trace::invariants::check(&records)
            .map_err(|v| format!("trace invariant violated: {v}"))?;
        let fold = EventCounters::from_records(&records);
        if fold != *tracer.counters() {
            return Err("event-stream fold disagrees with live counters".into());
        }
        if m.metrics().event_counters() != tracer.counters() {
            return Err("metrics registry fold drifted from the tracer fold".into());
        }
        Ok(())
    }
}

fn va(slot: u64) -> u64 {
    debug_assert!(slot < VA_SLOTS);
    VA_BASE + slot * PAGE
}

/// Exact-verdict comparison: the machine's success/error must equal the
/// oracle's prediction down to the `NpfCause`.
fn compare<T, E: Clone + Debug + PartialEq>(
    op: &AdversaryOp,
    actual: &Result<T, E>,
    expected: &Result<(), E>,
) -> Result<(), String> {
    let a = actual.as_ref().map(|_| ()).map_err(Clone::clone);
    if a != *expected {
        return Err(format!("verdict divergence on {op:?}: machine {a:?}, oracle {expected:?}"));
    }
    Ok(())
}
