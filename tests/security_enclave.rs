//! Table 2: potential attacks against enclaves, and VeilS-ENC's defences.

use veil::prelude::*;
use veil_os::monitor::MonRequest;
use veil_sdk::{install_enclave, EnclaveBinary, EnclaveRuntime, EnclaveSys};
use veil_snp::mem::{gpa_of, PAGE_SIZE};
use veil_snp::perms::{Access, Cpl, Vmpl};

fn cvm() -> Cvm {
    CvmBuilder::new().frames(4096).vcpus(1).build().expect("boot")
}

fn installed(cvm: &mut Cvm, name: &str) -> veil_sdk::EnclaveHandle {
    let pid = cvm.spawn();
    install_enclave(cvm, pid, &EnclaveBinary::build(name, 4096, 2048)).expect("install")
}

/// Table 2, "Load incorrect binary" → enclave attestation.
#[test]
fn incorrect_binary_fails_attestation() {
    let mut cvm = cvm();
    // The user's golden measurement for the intended binary.
    let golden = {
        let mut reference = CvmBuilder::new().frames(4096).vcpus(1).build().unwrap();
        let h = installed(&mut reference, "intended");
        reference.gate.services.enc.enclave(h.id).unwrap().measurement
    };
    // The OS swaps in a trojan before finalization.
    let h = installed(&mut cvm, "trojan");
    let measured = cvm.gate.services.enc.enclave(h.id).unwrap().measurement;
    assert_ne!(golden, measured, "trojan binary must change the measurement");
    // The sealed measurement report reaches the user over the secure
    // channel; the user compares and refuses to provision secrets.
    let shared = [3u8; 32];
    let mut service_chan = SecureChannel::new(shared);
    let mut user_chan = SecureChannel::new(shared);
    let sealed = cvm.gate.services.enc.report_measurement(h.id, &mut service_chan).unwrap();
    let report = user_chan.open(&sealed).unwrap();
    assert_eq!(&report[8..40], &measured.0, "channel carries the true measurement");
}

/// Table 2, "Read/write memory" → restrictions in Dom_UNT.
#[test]
fn os_cannot_access_enclave_memory() {
    let mut cvm = cvm();
    let h = installed(&mut cvm, "victim");
    for gfn in &h.frames {
        assert!(cvm.hv.machine.read(Vmpl::Vmpl3, gpa_of(*gfn), 16).is_err());
        assert!(cvm.hv.machine.write(Vmpl::Vmpl3, gpa_of(*gfn), b"x").is_err());
    }
    // Through the process's own (OS-held) page tables, the app also
    // faults: the PTEs still point at the frames, but the RMP refuses.
    let os_aspace = cvm.kernel.process(h.pid).unwrap().aspace.unwrap();
    let r = os_aspace.read_virt(&cvm.hv.machine, h.base, 16, Vmpl::Vmpl3, Cpl::Cpl3);
    assert!(r.is_err(), "app access through OS tables must #NPF");
}

/// Table 2, "Modify physical layout" → page tables protected in Dom_SER.
#[test]
fn os_cannot_modify_enclave_page_tables() {
    let mut cvm = cvm();
    let h = installed(&mut cvm, "layout");
    let clone = cvm.gate.services.enc.enclave(h.id).unwrap().aspace;
    // Direct edits to the cloned tables fault.
    let r = clone.unmap(&mut cvm.hv.machine, Vmpl::Vmpl3, h.base);
    assert!(r.is_err(), "OS edit of cloned tables must fault");
    // And remapping via the protected API is refused for enclave ranges.
    let (_, ctx) = cvm.kctx();
    let r = ctx.gate.request(
        ctx.hv,
        0,
        MonRequest::EncPermSync { enclave_id: h.id, vaddr: h.base, pte_flags: 0x7 },
    );
    assert!(r.is_err(), "perm-sync into the enclave range must be refused");
}

/// Table 2, "Violate saved state (e.g., rip)" from the OS → VMSA
/// protected in Dom_MON.
#[test]
fn os_cannot_modify_enclave_vmsa() {
    let mut cvm = cvm();
    let h = installed(&mut cvm, "state");
    let vmsa_gfn = cvm.gate.services.enc.enclave(h.id).unwrap().vmsa_gfn;
    assert!(cvm.hv.machine.write(Vmpl::Vmpl3, gpa_of(vmsa_gfn), &[0xff; 8]).is_err());
    assert!(cvm.hv.machine.read(Vmpl::Vmpl3, gpa_of(vmsa_gfn), 8).is_err());
}

/// Table 2, "Incorrect GHCB mapping" → CVM crash on VMGEXIT.
#[test]
fn incorrect_ghcb_mapping_crashes_cvm() {
    let mut cvm = cvm();
    let h = installed(&mut cvm, "ghcb");
    // The OS "maps" a private page as the GHCB instead of the shared one.
    let private = cvm.gate.monitor.layout.kernel_pool.start + 7;
    cvm.hv.machine.set_ghcb_msr(0, private);
    let mut rt = EnclaveRuntime::new(h);
    // Entry attempts a VMGEXIT through the bogus GHCB.
    let ghcb = veil_snp::ghcb::Ghcb::at(&cvm.hv.machine, private);
    assert!(ghcb.is_none(), "private page is not a usable GHCB");
    let r = cvm.hv.vmgexit(0, true);
    assert!(r.is_err(), "the exit wedges");
    assert!(cvm.hv.machine.halted().is_some(), "CVM crashes rather than leaking");
    let _ = &mut rt;
}

/// Table 2, "Violate saved state" from the hypervisor → VMSA in CVM.
#[test]
fn hypervisor_cannot_tamper_enclave_vmsa() {
    let mut cvm = cvm();
    let h = installed(&mut cvm, "hv-state");
    let vmsa_gfn = cvm.gate.services.enc.enclave(h.id).unwrap().vmsa_gfn;
    let before = cvm.hv.machine.vmsa(vmsa_gfn).unwrap().regs.rip;
    assert!(cvm.hv.attack_write(gpa_of(vmsa_gfn), &[0xff; 16]).is_err());
    // Even with the malicious switch-time tampering policy enabled:
    cvm.hv.policy.tamper_vmsa_on_switch = true;
    let mut rt = EnclaveRuntime::new(h);
    let sys = EnclaveSys::activate(&mut cvm, &mut rt).expect("enter still works");
    sys.deactivate().expect("exit");
    assert_eq!(cvm.hv.machine.vmsa(vmsa_gfn).unwrap().regs.rip, before);
}

/// Table 2, "Refuse interrupt relay" → CVM halts with #NPF.
#[test]
fn refused_interrupt_relay_halts() {
    let mut cvm = cvm();
    let h = installed(&mut cvm, "interrupts");
    cvm.hv.policy.relay_interrupts_to_unt = false;
    let mut rt = EnclaveRuntime::new(h);
    let _sys = EnclaveSys::activate(&mut cvm, &mut rt).expect("enter");
    // An interrupt arrives while Dom_ENC runs; the hypervisor refuses to
    // relay. The enclave cannot run the OS handler -> #NPF loop -> halt.
    assert_eq!(cvm.hv.automatic_exit(0), None);
    assert!(matches!(
        cvm.hv.machine.halted(),
        Some(veil_snp::fault::HaltReason::SecurityViolation(_))
    ));
}

/// Honest interrupt relay, for contrast: the enclave is preempted to
/// Dom_UNT and can be resumed afterwards.
#[test]
fn honest_interrupt_relay_preempts_and_resumes() {
    let mut cvm = cvm();
    let h = installed(&mut cvm, "preempt");
    let mut rt = EnclaveRuntime::new(h);
    let _ = EnclaveSys::activate(&mut cvm, &mut rt).expect("enter");
    assert_eq!(cvm.hv.automatic_exit(0), Some(Vmpl::Vmpl3), "relayed to the OS");
    // Note: rt still believes it is inside; re-entry via the hv works.
    cvm.gate.services.enc.enter(&mut cvm.hv, rt.handle.id).expect("resume");
    assert!(cvm.hv.machine.halted().is_none());
}

/// Table 2, "Access memory from Dom_ENC" (malicious enclave) →
/// disjoint physical pages + no way to reach them through its tables.
#[test]
fn malicious_enclave_cannot_read_another_enclave() {
    let mut cvm = cvm();
    let victim = installed(&mut cvm, "victim-data");
    let attacker = installed(&mut cvm, "attacker");
    // Physical disjointness (the finalization invariant).
    for f in &victim.frames {
        assert!(!attacker.frames.contains(f));
    }
    // The attacker's cloned tables simply have no mapping to the victim's
    // frames; its own enclave range maps only its own frames.
    let atk_aspace = cvm.gate.services.enc.enclave(attacker.id).unwrap().aspace;
    let mut reachable = Vec::new();
    atk_aspace.walk(&cvm.hv.machine, &mut |_, pfn, _| reachable.push(pfn));
    for f in &victim.frames {
        assert!(!reachable.contains(f), "victim frame {f:#x} reachable from attacker");
    }
    // And a finalization that tries to alias the victim's frames is
    // refused (disjointness scan): attempt EncFinalize over a region
    // whose mappings point at victim frames.
    let evil_pid = cvm.spawn();
    {
        let mut sys = cvm.sys(evil_pid);
        sys.mmap(PAGE_SIZE).unwrap(); // create an address space
    }
    let evil_cr3 = {
        let victim_frame = victim.frames[0];
        let (kernel, mut ctx) = cvm.kctx();
        // Map the victim's frame into the evil process at the enclave base.
        kernel
            .map_user_page(
                &mut ctx,
                evil_pid,
                veil_os::process::ENCLAVE_BASE,
                victim_frame,
                veil_snp::pt::PteFlags::user_data(),
            )
            .unwrap();
        kernel.process(evil_pid).unwrap().aspace.unwrap().root_gfn()
    };
    let ghcb = cvm.gate.monitor.layout.enclave_ghcb_gfns(1, 8)[3];
    let (_, ctx) = cvm.kctx();
    let r = ctx.gate.request(
        ctx.hv,
        0,
        MonRequest::EncFinalize {
            pid: evil_pid,
            cr3_gfn: evil_cr3,
            base_vaddr: veil_os::process::ENCLAVE_BASE,
            len: PAGE_SIZE,
            ghcb_gfn: ghcb,
        },
    );
    assert!(r.is_err(), "aliasing finalization must be refused");
    assert_eq!(cvm.gate.services.enc.rejected, 1);
}

/// Table 2, "Execute OS code in Dom_ENC" → disallowed in Dom_ENC.
#[test]
fn enclave_cannot_execute_supervisor_code() {
    let mut cvm = cvm();
    let h = installed(&mut cvm, "superviser-wannabe");
    // Enclave frames have no supervisor-execute at VMPL-2.
    for gfn in &h.frames {
        let r = cvm.hv.machine.rmp().check(*gfn, Vmpl::Vmpl2, Access::Execute(Cpl::Cpl0));
        assert!(r.is_err(), "supervisor fetch at {gfn:#x} must fault");
    }
    // Kernel text is unreachable: not mapped in the clone, and the RMP
    // has no VMPL-2 execute rights on it either.
    let ktext = cvm.gate.monitor.layout.kernel_text.start;
    let r = cvm.hv.machine.rmp().check(ktext, Vmpl::Vmpl2, Access::Execute(Cpl::Cpl0));
    assert!(r.is_err());
    let clone = cvm.gate.services.enc.enclave(h.id).unwrap().aspace;
    let mut kernel_mapped = false;
    clone.walk(&cvm.hv.machine, &mut |_, pfn, _| {
        if cvm.gate.monitor.layout.kernel_text.contains(&pfn) {
            kernel_mapped = true;
        }
    });
    assert!(!kernel_mapped, "kernel text must not be mapped in enclave tables");
}

/// A one-to-one-violating layout (two vaddrs onto one frame) is refused.
#[test]
fn aliased_layout_fails_finalization() {
    let mut cvm = cvm();
    let pid = cvm.spawn();
    {
        let mut sys = cvm.sys(pid);
        sys.mmap(PAGE_SIZE).unwrap();
    }
    let frame = {
        let (kernel, mut ctx) = cvm.kctx();
        let frame = kernel.frames.alloc().unwrap();
        let base = veil_os::process::ENCLAVE_BASE;
        kernel
            .map_user_page(&mut ctx, pid, base, frame, veil_snp::pt::PteFlags::user_data())
            .unwrap();
        kernel
            .map_user_page(
                &mut ctx,
                pid,
                base + PAGE_SIZE as u64,
                frame,
                veil_snp::pt::PteFlags::user_data(),
            )
            .unwrap();
        frame
    };
    let cr3 = cvm.kernel.process(pid).unwrap().aspace.unwrap().root_gfn();
    let ghcb = cvm.gate.monitor.layout.enclave_ghcb_gfns(1, 8)[4];
    let (_, ctx) = cvm.kctx();
    let r = ctx.gate.request(
        ctx.hv,
        0,
        MonRequest::EncFinalize {
            pid,
            cr3_gfn: cr3,
            base_vaddr: veil_os::process::ENCLAVE_BASE,
            len: 2 * PAGE_SIZE,
            ghcb_gfn: ghcb,
        },
    );
    assert!(r.is_err(), "aliased (non one-to-one) layout must be refused");
    let _ = frame;
}
