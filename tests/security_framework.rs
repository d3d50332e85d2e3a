//! Table 1: potential attacks against Veil's framework, and the defences.
//!
//! Every test drives an attack from the untrusted components (hypervisor,
//! OS at `Dom_UNT`) through public interfaces and asserts the defence the
//! paper names for that row.

use veil::prelude::*;
use veil_core::cvm::veil_boot_image;
use veil_core::layout::{Layout, LayoutConfig};
use veil_os::monitor::MonRequest;
use veil_snp::attest::{measure_launch, LaunchError};
use veil_snp::mem::gpa_of;
use veil_snp::perms::{Cpl, Vmpl};
use veil_snp::vcek::VerifyError;

fn cvm() -> Cvm {
    CvmBuilder::new().frames(2048).vcpus(1).build().expect("boot")
}

/// Table 1, "Load mal. code at Dom_MON/Dom_SER" → remote attestation.
///
/// The hypervisor boots a tampered disk and then tries to launch the
/// machine again with the honest image, which would have recorded the
/// golden measurement. The firmware refuses the second launch, so the
/// tampered machine's channel handshake names the measurement mismatch.
#[test]
fn boot_time_malicious_disk_changes_measurement() {
    let layout = Layout::compute(&LayoutConfig { frames: 2048, vcpus: 1, ..Default::default() });
    let honest_image = veil_boot_image(&layout);
    let golden = measure_launch(&honest_image, layout.boot_vmsa);

    // Patch one byte of "VeilMon code" on the boot disk. The in-guest
    // measured-boot check is off: the remote user must catch it.
    let mut evil = CvmBuilder::new()
        .frames(2048)
        .vcpus(1)
        .attest(false)
        .tamper_boot_image(0, 100)
        .build()
        .unwrap();
    let evil_measurement = evil.hv.machine.launch_measurement().expect("measured");
    assert_ne!(evil_measurement, golden, "tampered disk must change the measurement");

    // The measurement cannot be re-recorded after boot.
    assert_eq!(evil.hv.launch(&honest_image, layout.boot_vmsa), Err(LaunchError::AlreadyLaunched));
    assert_eq!(evil.hv.machine.launch_measurement(), Some(evil_measurement));

    // The remote user expecting the golden image refuses the channel.
    let mut user = RemoteUser::new(evil.hv.machine.kds_verifier(golden), &[5; 32]);
    let (report, mon_pub) =
        evil.gate.monitor.begin_channel(&mut evil.hv, user.challenge()).unwrap();
    assert_eq!(
        user.verify_and_derive(&report, &mon_pub).unwrap_err(),
        VerifyError::WrongMeasurement
    );
}

/// Table 1, "Read/write at Dom_MON/Dom_SER" → restricted by VMPL.
#[test]
fn os_cannot_touch_monitor_or_service_memory() {
    let mut cvm = cvm();
    let layout = cvm.gate.monitor.layout.clone();
    for (region, name) in [
        (layout.mon_image.clone(), "monitor image"),
        (layout.mon_pool.clone(), "monitor pool"),
        (layout.ser_image.clone(), "services image"),
        (layout.ser_pool.clone(), "services pool"),
        (layout.log_storage.clone(), "log storage"),
    ] {
        let gpa = gpa_of(region.start);
        assert!(cvm.hv.machine.read(Vmpl::Vmpl3, gpa, 8).is_err(), "{name}: OS read");
        assert!(cvm.hv.machine.write(Vmpl::Vmpl3, gpa, b"x").is_err(), "{name}: OS write");
    }
}

/// Table 1, "Adjust VMPL restrictions" → RMPADJUST prohibited.
#[test]
fn os_cannot_lift_vmpl_restrictions() {
    let mut cvm = cvm();
    let mon_frame = cvm.gate.monitor.layout.mon_pool.start;
    // The OS (VMPL-3) cannot execute RMPADJUST against any level.
    for target in [Vmpl::Vmpl0, Vmpl::Vmpl1, Vmpl::Vmpl2, Vmpl::Vmpl3] {
        let r = cvm.hv.machine.rmpadjust(
            Vmpl::Vmpl3,
            mon_frame,
            target,
            veil_snp::perms::VmplPerms::all(),
        );
        assert!(r.is_err(), "RMPADJUST from Dom_UNT targeting {target} must fault");
    }
    // Even VMPL-1 (a compromised service, hypothetically) cannot grant
    // itself monitor memory: its own perms there are empty.
    let r = cvm.hv.machine.rmpadjust(
        Vmpl::Vmpl1,
        mon_frame,
        Vmpl::Vmpl2,
        veil_snp::perms::VmplPerms::r(),
    );
    assert!(r.is_err(), "no escalation through lower levels");
}

/// Table 1, "Overwrite sensitive registers" → protected in Dom_MON.
#[test]
fn os_cannot_touch_saved_domain_state() {
    let mut cvm = cvm();
    // Every VMSA frame is software-inaccessible, even to read.
    for gfn in cvm.hv.machine.vmsa_gfns() {
        let gpa = gpa_of(gfn);
        assert!(cvm.hv.machine.read(Vmpl::Vmpl3, gpa, 8).is_err(), "VMSA read at {gfn:#x}");
        assert!(cvm.hv.machine.write(Vmpl::Vmpl3, gpa, b"rip").is_err(), "VMSA write at {gfn:#x}");
    }
}

/// Table 1, "Overwrite page tables" → protected in Dom_MON (exercised
/// fully by the §8.3 validation test; here: the monitor pool that holds
/// cloned tables rejects OS writes).
#[test]
fn os_cannot_prepare_page_table_attack() {
    let mut cvm = cvm();
    let pool = cvm.gate.monitor.layout.mon_pool.clone();
    for gfn in [pool.start, pool.start + (pool.end - pool.start) / 2, pool.end - 1] {
        assert!(cvm.hv.machine.write(Vmpl::Vmpl3, gpa_of(gfn), &[0u8; 8]).is_err());
    }
}

/// Table 1, "Create VCPU at Dom_MON/Dom_SER" → creation controlled.
#[test]
fn os_cannot_create_privileged_vcpus() {
    let mut cvm = cvm();
    // Architecturally: VMSA creation is VMPL-0-only.
    let victim = cvm.gate.monitor.layout.kernel_pool.start;
    let r = cvm.hv.machine.vmsa_create(Vmpl::Vmpl3, victim, 9, Vmpl::Vmpl0, Cpl::Cpl0);
    assert!(r.is_err(), "direct VMSA creation from Dom_UNT must fault");
    // Through delegation: VeilMon only boots new VCPUs at Dom_UNT (§5.3).
    let (_, ctx) = cvm.kctx();
    ctx.gate
        .request(ctx.hv, 0, MonRequest::CreateVcpu { vcpu_id: 7, rip: 1, rsp: 2, cr3: 0 })
        .expect("hotplug succeeds");
    let svm = cvm.hv.vcpu(7).expect("hotplugged");
    let unt_vmsa = svm.domain_vmsas[&Vmpl::Vmpl3];
    assert_eq!(cvm.hv.machine.vmsa(unt_vmsa).unwrap().vmpl(), Vmpl::Vmpl3);
    // The kernel-visible VMSAs for the new VCPU's trusted replicas exist
    // but were created by VeilMon, at VeilMon-chosen entry points.
    let mon_vmsa = svm.domain_vmsas[&Vmpl::Vmpl0];
    assert_eq!(
        cvm.hv.machine.vmsa(mon_vmsa).unwrap().regs.rip,
        veil_core::domain::Domain::Mon.entry_rip(),
        "replica entry point is VeilMon's, not attacker-chosen"
    );
}

/// Table 1, "Overwrite IDCB" → IDCBs for trusted pairs in Dom_SER; the
/// OS↔monitor IDCB is writable (it must be) but enclaves can't spoof it.
#[test]
fn idcb_isolation() {
    let mut cvm = cvm();
    let idcb_gfn = cvm.gate.monitor.layout.idcb_gfn(0).expect("idcb");
    let gpa = gpa_of(idcb_gfn);
    // An enclave (VMPL-2) cannot read or forge OS<->monitor messages.
    assert!(cvm.hv.machine.read(Vmpl::Vmpl2, gpa, 16).is_err());
    assert!(cvm.hv.machine.write(Vmpl::Vmpl2, gpa, b"forged").is_err());
    // The hypervisor cannot either (private memory).
    assert!(cvm.hv.attack_read(gpa, 16).is_err());
}

/// Table 1, "OS sends malicious request" → request sanitized.
#[test]
fn malicious_requests_sanitized() {
    let mut cvm = cvm();
    let layout = cvm.gate.monitor.layout.clone();
    let evil_targets =
        [layout.mon_pool.start, layout.ser_pool.start, layout.log_storage.start, 1 << 40];
    for gfn in evil_targets {
        // Pvalidate delegation refuses trusted/out-of-range frames.
        let (_, ctx) = cvm.kctx();
        let r = ctx.gate.request(ctx.hv, 0, MonRequest::Pvalidate { gfn, validate: false });
        assert!(r.is_err(), "pvalidate of {gfn:#x} must be refused");
        // Module staging/destination pointers are sanitized too.
        let (_, ctx) = cvm.kctx();
        let r = ctx.gate.request(
            ctx.hv,
            0,
            MonRequest::KciModuleLoad {
                staging_gfns: vec![gfn],
                image_len: 64,
                dest_gfns: vec![layout.kernel_pool.start],
            },
        );
        assert!(r.is_err(), "module staging at {gfn:#x} must be refused");
    }
    // The CVM is still healthy after all refused attacks.
    assert!(cvm.hv.machine.halted().is_none());
    let pid = cvm.spawn();
    let mut sys = cvm.sys(pid);
    assert!(sys.open("/tmp/alive", OpenFlags::rdwr_create()).is_ok());
}

/// Beyond Table 1: the hypervisor cannot read or corrupt any private
/// guest memory (the base SNP guarantee every defence builds on).
#[test]
fn hypervisor_excluded_from_private_memory() {
    let mut cvm = cvm();
    let layout = cvm.gate.monitor.layout.clone();
    for gfn in [
        layout.mon_image.start,
        layout.ser_pool.start,
        layout.kernel_text.start,
        layout.kernel_pool.start,
    ] {
        assert!(cvm.hv.attack_read(gpa_of(gfn), 16).is_err(), "hv read {gfn:#x}");
        assert!(cvm.hv.attack_write(gpa_of(gfn), b"evil").is_err(), "hv write {gfn:#x}");
    }
    // Shared pages (GHCBs) are the only window, by design.
    let ghcb = layout.kernel_ghcb_gfns(1)[0];
    assert!(cvm.hv.attack_read(gpa_of(ghcb), 16).is_ok());
}
