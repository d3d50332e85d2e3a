//! Revocation regression tests: no access survives the operation that
//! revokes it.
//!
//! Each test performs an access, then the revoking operation
//! (`unmap`/`protect`/`RMPADJUST`/page-state change/VMSA creation, or a
//! raw write over a live page table), and proves the `#PF`/`#NPF` fires
//! on the very next access. Every access walks the live page tables and
//! re-reads the RMP, so these pin the semantics a translation or verdict
//! cache would have to preserve. One test drives the revocation through
//! the hypervisor's GHCB page-state-change flow with every hostile
//! [`HvPolicy`] knob engaged; two replay same-gfn cross-VMPL churn
//! scripts against the reference RMP oracle of `veil-adversary`.
//!
//! [`HvPolicy`]: veil_hv::HvPolicy

use veil_adversary::RmpOracle;
use veil_hv::{HvPolicy, HvResponse, Hypervisor};
use veil_snp::ghcb::{Ghcb, GhcbExit};
use veil_snp::machine::{Machine, MachineConfig};
use veil_snp::perms::{Access, Cpl, Vmpl, VmplPerms};
use veil_snp::pt::{AddressSpace, PtError, PteFlags};

const FRAMES: usize = 128;

/// A machine with every frame from 1 validated and fully granted, plus a
/// VMPL-3 address space with one page mapped at `VADDR`.
fn setup() -> (Machine, AddressSpace, Vec<u64>, u64) {
    let mut m = Machine::new(MachineConfig { frames: FRAMES, ..Default::default() });
    let mut free: Vec<u64> = Vec::new();
    for gfn in 1..FRAMES as u64 {
        m.rmp_assign(gfn).unwrap();
        m.pvalidate(Vmpl::Vmpl0, gfn, true).unwrap();
        for v in [Vmpl::Vmpl1, Vmpl::Vmpl2, Vmpl::Vmpl3] {
            m.rmpadjust(Vmpl::Vmpl0, gfn, v, VmplPerms::all()).unwrap();
        }
        free.push(gfn);
    }
    free.reverse();
    let aspace = AddressSpace::new(&mut m, Vmpl::Vmpl3, &mut free).unwrap();
    let pfn = free.pop().unwrap();
    aspace.map(&mut m, Vmpl::Vmpl3, &mut free, VADDR, pfn, PteFlags::user_data()).unwrap();
    (m, aspace, free, pfn)
}

const VADDR: u64 = 0x4000_0000;

#[test]
fn stale_translation_after_unmap_faults() {
    let (mut m, aspace, _free, pfn) = setup();
    aspace.read_virt(&m, VADDR, 8, Vmpl::Vmpl3, Cpl::Cpl3).unwrap();

    assert_eq!(aspace.unmap(&mut m, Vmpl::Vmpl3, VADDR).unwrap(), pfn);

    // The translation used a moment ago must not be honored after the unmap.
    assert!(matches!(aspace.translate(&m, VADDR), Err(PtError::NotMapped { .. })));
    assert!(aspace.read_virt(&m, VADDR, 8, Vmpl::Vmpl3, Cpl::Cpl3).is_err());
}

#[test]
fn stale_translation_after_protect_faults_on_write() {
    let (mut m, aspace, _free, _pfn) = setup();
    aspace.write_virt(&mut m, VADDR, b"warmup!!", Vmpl::Vmpl3, Cpl::Cpl3).unwrap();

    aspace.protect(&mut m, Vmpl::Vmpl3, VADDR, PteFlags::user_ro()).unwrap();

    // Reads still work; the writable PTE is gone.
    aspace.read_virt(&m, VADDR, 8, Vmpl::Vmpl3, Cpl::Cpl3).unwrap();
    assert!(matches!(
        aspace.write_virt(&mut m, VADDR, b"stale!!!", Vmpl::Vmpl3, Cpl::Cpl3),
        Err(PtError::PageFault { access: Access::Write, .. })
    ));
}

#[test]
fn stale_verdict_after_rmpadjust_revoke_faults() {
    let (mut m, aspace, _free, pfn) = setup();
    // Granted through the virtual path and directly.
    aspace.read_virt(&m, VADDR, 8, Vmpl::Vmpl3, Cpl::Cpl3).unwrap();
    m.read(Vmpl::Vmpl3, Machine::gpa(pfn), 8).unwrap();

    // VeilMon revokes VMPL-3 access (the §5.1 protection operation).
    m.rmpadjust(Vmpl::Vmpl0, pfn, Vmpl::Vmpl3, VmplPerms::empty()).unwrap();

    // Both the physical and the virtual path must fault now.
    assert!(m.read(Vmpl::Vmpl3, Machine::gpa(pfn), 8).is_err());
    assert!(m.write(Vmpl::Vmpl3, Machine::gpa(pfn), b"x").is_err());
    assert!(aspace.read_virt(&m, VADDR, 8, Vmpl::Vmpl3, Cpl::Cpl3).is_err());
    // VMPL-0 retains access (revocation was targeted, not a wipe).
    m.read(Vmpl::Vmpl0, Machine::gpa(pfn), 8).unwrap();
}

#[test]
fn stale_verdict_after_exec_revoke_faults() {
    let (mut m, _aspace, mut free, _pfn) = setup();
    let code = free.pop().unwrap();
    m.check_exec(Vmpl::Vmpl3, Cpl::Cpl3, Machine::gpa(code)).unwrap();

    // Drop USER_EXEC but keep read/write: only the exec verdict dies.
    m.rmpadjust(Vmpl::Vmpl0, code, Vmpl::Vmpl3, VmplPerms::rw()).unwrap();

    assert!(m.check_exec(Vmpl::Vmpl3, Cpl::Cpl3, Machine::gpa(code)).is_err());
    m.read(Vmpl::Vmpl3, Machine::gpa(code), 8).unwrap();
}

#[test]
fn stale_verdict_after_reassign_faults() {
    // A page readable while validated must not stay readable after
    // bouncing out to shared and back in as unvalidated.
    let (mut m, _aspace, mut free, _pfn) = setup();
    let gfn = free.pop().unwrap();
    m.read(Vmpl::Vmpl3, Machine::gpa(gfn), 8).unwrap();

    m.pvalidate(Vmpl::Vmpl0, gfn, false).unwrap();
    m.rmp_reclaim(gfn).unwrap(); // private -> shared (scrubbed)
    m.rmp_assign(gfn).unwrap(); // shared -> assigned, NOT validated

    // Unvalidated memory faults #NPF for every VMPL.
    assert!(m.read(Vmpl::Vmpl3, Machine::gpa(gfn), 8).is_err());
    assert!(m.read(Vmpl::Vmpl0, Machine::gpa(gfn), 8).is_err());
}

#[test]
fn stale_verdict_after_vmsa_create_faults() {
    let (mut m, _aspace, mut free, _pfn) = setup();
    let gfn = free.pop().unwrap();
    m.read(Vmpl::Vmpl0, Machine::gpa(gfn), 8).unwrap();

    m.vmsa_create(Vmpl::Vmpl0, gfn, 0, Vmpl::Vmpl1, Cpl::Cpl0).unwrap();

    // VMSA pages are immutable to software at every VMPL.
    assert!(m.read(Vmpl::Vmpl0, Machine::gpa(gfn), 8).is_err());

    m.vmsa_destroy(Vmpl::Vmpl0, gfn).unwrap();
    m.read(Vmpl::Vmpl0, Machine::gpa(gfn), 8).unwrap();
}

#[test]
fn direct_pt_edit_is_snooped() {
    // The OS editing page tables *directly* (no map/unmap/protect, no
    // INVLPG) is the case hardware handles with a broadcast shootdown.
    // A raw checked write over a live table frame must take effect on
    // the next walk.
    let (mut m, aspace, _free, _pfn) = setup();
    aspace.read_virt(&m, VADDR, 8, Vmpl::Vmpl3, Cpl::Cpl3).unwrap();

    // Find the leaf table frame and zero the whole thing through the
    // plain write path (a hostile or buggy kernel scribbling on tables).
    let tables = aspace.table_frames(&m);
    let leaf = *tables.last().unwrap();
    m.write(Vmpl::Vmpl0, Machine::gpa(leaf), &[0u8; 4096]).unwrap();

    // The translation for VADDR is gone with the PTE.
    assert!(matches!(aspace.translate(&m, VADDR), Err(PtError::NotMapped { .. })));
    assert!(aspace.read_virt(&m, VADDR, 8, Vmpl::Vmpl3, Cpl::Cpl3).is_err());
}

/// One scripted action on the contended gfn in the churn tests below.
#[derive(Debug, Clone, Copy)]
enum Churn {
    /// VMPL-0 RMPADJUSTs `target`'s permissions on the contended gfn.
    Adjust(Vmpl, u8),
    /// Physical read of the contended gfn from `vmpl`.
    ReadPhys(Vmpl),
    /// Physical write to the contended gfn from `vmpl`.
    WritePhys(Vmpl),
    /// Instruction fetch from the contended gfn.
    Exec(Vmpl, Cpl),
    /// Remaps the contended page's VA read-only (`true`) or rw.
    Protect(bool),
    /// VMPL-3 virtual read through the mapping.
    ReadVirt,
    /// VMPL-3 virtual write through the mapping.
    WriteVirt,
    /// VMPL-0 flips validation of the contended gfn off/on.
    Validate(bool),
}

/// A machine and the reference RMP oracle, both with every frame from 1
/// validated and fully granted, plus a VMPL-3 address space with the
/// contended page mapped writable at `VADDR`.
struct ChurnWorld {
    m: Machine,
    oracle: RmpOracle,
    aspace: AddressSpace,
    gfn: u64,
    read_only: bool,
}

impl ChurnWorld {
    fn new() -> Self {
        let (m, aspace, _free, gfn) = setup();
        let mut oracle = RmpOracle::new(FRAMES as u64);
        for g in 1..FRAMES as u64 {
            oracle.assign(g).unwrap();
            oracle.pvalidate(Vmpl::Vmpl0, g, true).unwrap();
            for v in [Vmpl::Vmpl1, Vmpl::Vmpl2, Vmpl::Vmpl3] {
                oracle.rmpadjust(Vmpl::Vmpl0, g, v, VmplPerms::all()).unwrap();
            }
        }
        ChurnWorld { m, oracle, aspace, gfn, read_only: false }
    }

    /// Expected verdict of a VMPL-3 ring-3 access through the mapping:
    /// the PTE flag rule, then the oracle's RMP verdict.
    fn expect_virt(&self, access: Access) -> Result<(), PtError> {
        if self.read_only && access == Access::Write {
            return Err(PtError::PageFault { vaddr: VADDR, access });
        }
        self.oracle.guest_access(Vmpl::Vmpl3, self.gfn, access).map_err(PtError::Snp)
    }

    /// Applies `step` to machine and oracle and renders both verdicts
    /// (`Debug` of the full result, so fault causes must match exactly).
    fn step(&mut self, step: Churn) -> (String, String) {
        let (m, gfn, gpa) = (&mut self.m, self.gfn, Machine::gpa(self.gfn));
        match step {
            Churn::Adjust(target, bits) => {
                let perms = VmplPerms::from_bits_truncate(bits);
                let got = m.rmpadjust(Vmpl::Vmpl0, gfn, target, perms);
                let want = self.oracle.rmpadjust(Vmpl::Vmpl0, gfn, target, perms);
                (format!("{got:?}"), format!("{want:?}"))
            }
            Churn::ReadPhys(v) => (
                format!("{:?}", m.read(v, gpa, 8).map(|_| ())),
                format!("{:?}", self.oracle.guest_access(v, gfn, Access::Read)),
            ),
            Churn::WritePhys(v) => (
                format!("{:?}", m.write(v, gpa, b"churn!!!")),
                format!("{:?}", self.oracle.guest_access(v, gfn, Access::Write)),
            ),
            Churn::Exec(v, cpl) => (
                format!("{:?}", m.check_exec(v, cpl, gpa)),
                format!("{:?}", self.oracle.guest_access(v, gfn, Access::Execute(cpl))),
            ),
            Churn::Protect(ro) => {
                let flags = if ro { PteFlags::user_ro() } else { PteFlags::user_data() };
                let got = self.aspace.protect(m, Vmpl::Vmpl3, VADDR, flags);
                self.read_only = ro;
                (format!("{got:?}"), format!("{:?}", Ok::<(), PtError>(())))
            }
            Churn::ReadVirt => {
                let got = self.aspace.read_virt(m, VADDR, 8, Vmpl::Vmpl3, Cpl::Cpl3).map(|_| ());
                (format!("{got:?}"), format!("{:?}", self.expect_virt(Access::Read)))
            }
            Churn::WriteVirt => {
                let got = self.aspace.write_virt(m, VADDR, b"virtwrit", Vmpl::Vmpl3, Cpl::Cpl3);
                (format!("{got:?}"), format!("{:?}", self.expect_virt(Access::Write)))
            }
            Churn::Validate(on) => (
                format!("{:?}", m.pvalidate(Vmpl::Vmpl0, gfn, on)),
                format!("{:?}", self.oracle.pvalidate(Vmpl::Vmpl0, gfn, on)),
            ),
        }
    }

    /// Runs `script`, demanding machine == oracle at every step. Returns
    /// how many steps were refused, so callers can check the script
    /// exercised both outcomes.
    fn run(&mut self, script: &[Churn]) -> usize {
        let mut refused = 0;
        for (i, &step) in script.iter().enumerate() {
            let (got, want) = self.step(step);
            assert_eq!(got, want, "divergence at step {i} ({step:?}): machine vs oracle");
            refused += usize::from(got.starts_with("Err"));
        }
        refused
    }
}

/// Interleaved protect/access/RMPADJUST churn on the SAME gfn across
/// every VMPL, checked step by step against the reference RMP oracle.
/// Every step's exact verdict (including fault cause) must agree, aimed
/// at the revoke-then-re-grant windows where a stale permission would
/// hide.
#[test]
fn same_gfn_cross_vmpl_churn_matches_oracle() {
    use Churn::*;
    let script = [
        // Touch every access kind: translations, verdicts, exec checks.
        ReadVirt,
        WriteVirt,
        ReadPhys(Vmpl::Vmpl1),
        Exec(Vmpl::Vmpl3, Cpl::Cpl3),
        // Revoke VMPL-3 write; writes must fault from here on.
        Adjust(Vmpl::Vmpl3, 0b0101),
        WriteVirt,
        WritePhys(Vmpl::Vmpl3),
        ReadVirt,
        // Re-grant, then immediately revoke everything below VMPL-1.
        Adjust(Vmpl::Vmpl3, 0b1111),
        WriteVirt,
        Adjust(Vmpl::Vmpl3, 0b0000),
        Adjust(Vmpl::Vmpl2, 0b0000),
        ReadVirt,
        ReadPhys(Vmpl::Vmpl2),
        ReadPhys(Vmpl::Vmpl1),
        // PTE-level churn racing the RMP-level churn on the same gfn.
        Adjust(Vmpl::Vmpl3, 0b0011),
        Protect(true),
        WriteVirt,
        ReadVirt,
        Protect(false),
        WriteVirt,
        // Exec-permission flip-flop at both rings.
        Adjust(Vmpl::Vmpl3, 0b0111),
        Exec(Vmpl::Vmpl3, Cpl::Cpl3),
        Exec(Vmpl::Vmpl3, Cpl::Cpl0),
        Adjust(Vmpl::Vmpl3, 0b1011),
        Exec(Vmpl::Vmpl3, Cpl::Cpl3),
        Exec(Vmpl::Vmpl3, Cpl::Cpl0),
        // Validation bounce: everything must fault while invalid, and
        // RMPADJUST grants survive revalidation (VMPL-3 holds 0b1011
        // from the flip-flop).
        Validate(false),
        ReadPhys(Vmpl::Vmpl0),
        ReadVirt,
        Validate(true),
        ReadPhys(Vmpl::Vmpl0),
        ReadPhys(Vmpl::Vmpl3),
        ReadVirt,
        WriteVirt,
    ];
    let refused = ChurnWorld::new().run(&script);
    assert!(
        (1..script.len()).contains(&refused),
        "script must see both granted and refused steps, refused {refused}"
    );
}

/// RMPADJUST on one VMPL's permissions must not disturb another VMPL's
/// verdicts for the same gfn — checked against the reference RMP
/// oracle step by step.
#[test]
fn rmpadjust_for_one_vmpl_keeps_other_vmpls_correct_on_same_gfn() {
    use Churn::*;
    // Access from VMPL-1 and VMPL-2 on the contended gfn, then churn
    // only VMPL-3's mask and check the others stay live and correct at
    // every point.
    let script = [
        ReadPhys(Vmpl::Vmpl1),
        ReadPhys(Vmpl::Vmpl2),
        Adjust(Vmpl::Vmpl3, 0b0000),
        ReadPhys(Vmpl::Vmpl1),
        ReadPhys(Vmpl::Vmpl2),
        ReadPhys(Vmpl::Vmpl3),
        Adjust(Vmpl::Vmpl1, 0b0001),
        WritePhys(Vmpl::Vmpl1),
        ReadPhys(Vmpl::Vmpl1),
        ReadPhys(Vmpl::Vmpl2),
    ];
    let refused = ChurnWorld::new().run(&script);
    assert_eq!(refused, 2, "only VMPL-3's read and VMPL-1's write are refused");
}

#[test]
fn psc_to_shared_under_hostile_policy_kills_cached_state() {
    // Drive the revocation through the hypervisor's GHCB page-state
    // machinery with every hostile policy knob engaged. No knob may
    // keep a page readable: access granted while the page was validated
    // private memory must not be honored once the page has left and
    // re-entered the private domain.
    let machine = Machine::new(MachineConfig { frames: 256, ..MachineConfig::default() });
    let mut hv = Hypervisor::new(machine);
    hv.policy = HvPolicy {
        relay_interrupts_to_unt: false,
        tamper_vmsa_on_switch: true,
        enforce_enclave_ghcb_scope: false,
        refuse_switches: true,
        misroute_switch_to: Some(Vmpl::Vmpl2),
    };
    hv.launch(&[(1u64, b"veilmon code".to_vec())], 3).unwrap();

    let gfn = 30u64;
    hv.machine.set_ghcb_msr(0, 20); // frame 20 is still shared
    let ghcb = Ghcb::at(&hv.machine, 20).unwrap();

    // Guest takes the page private, validates, and uses it.
    ghcb.write_request(&mut hv.machine, Vmpl::Vmpl0, GhcbExit::PageStateChange, gfn, 1).unwrap();
    assert_eq!(hv.vmgexit(0, false).unwrap(), HvResponse::PageStateChanged);
    hv.machine.pvalidate(Vmpl::Vmpl0, gfn, true).unwrap();
    hv.machine.write(Vmpl::Vmpl0, Machine::gpa(gfn), b"secret").unwrap();
    hv.machine.read(Vmpl::Vmpl0, Machine::gpa(gfn), 8).unwrap();

    // Page-state change back to shared (hypervisor-observed), then the
    // host hands the same gfn back as private-but-unvalidated.
    hv.machine.pvalidate(Vmpl::Vmpl0, gfn, false).unwrap();
    ghcb.write_request(&mut hv.machine, Vmpl::Vmpl0, GhcbExit::PageStateChange, gfn, 0).unwrap();
    assert_eq!(hv.vmgexit(0, false).unwrap(), HvResponse::PageStateChanged);
    ghcb.write_request(&mut hv.machine, Vmpl::Vmpl0, GhcbExit::PageStateChange, gfn, 1).unwrap();
    assert_eq!(hv.vmgexit(0, false).unwrap(), HvResponse::PageStateChanged);

    // #NPF must fire: the page is not validated, and the scrub removed
    // the old contents.
    assert!(hv.machine.read(Vmpl::Vmpl0, Machine::gpa(gfn), 8).is_err());
    hv.machine.pvalidate(Vmpl::Vmpl0, gfn, true).unwrap();
    assert_eq!(hv.machine.read(Vmpl::Vmpl0, Machine::gpa(gfn), 6).unwrap(), vec![0u8; 6]);
}
