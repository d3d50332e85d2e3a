//! Quickstart: boot a Veil CVM, see the privilege domains in action.
//!
//! Run with: `cargo run --example quickstart`

use veil::prelude::*;
use veil_snp::mem::gpa_of;
use veil_snp::perms::Vmpl;

fn main() {
    // Boot a confidential VM with the full Veil stack: VeilMon at
    // Dom_MON, the three protected services at Dom_SER, and a commodity
    // kernel deprivileged to Dom_UNT.
    let mut cvm = CvmBuilder::new()
        .frames(4096) // 16 MiB guest
        .vcpus(2)
        .build()
        .expect("CVM boot");

    println!("== Veil CVM booted ==");
    println!("kernel runs at {}", cvm.kernel.vmpl);
    println!(
        "launch measurement: {}",
        veil_crypto::sha256::hex(&cvm.hv.machine.launch_measurement().unwrap())
    );
    println!(
        "boot stats: {} pages validated, {} RMPADJUSTs, {} replica VMSAs",
        cvm.gate.monitor.boot_stats.pages_validated,
        cvm.gate.monitor.boot_stats.rmpadjusts,
        cvm.gate.monitor.boot_stats.vmsas_created,
    );

    // The kernel works normally...
    let pid = cvm.spawn();
    let mut sys = cvm.sys(pid);
    let fd = sys.open("/tmp/hello.txt", OpenFlags::rdwr_create()).unwrap();
    sys.write(fd, b"hello from Dom_UNT").unwrap();
    println!("\nkernel served open+write normally (fd {fd})");

    // ...but the VMPL walls are real:
    let mon = cvm.gate.monitor.layout.mon_pool.start;
    let attack = cvm.hv.machine.write(Vmpl::Vmpl3, gpa_of(mon), b"attack");
    println!("OS write into VeilMon memory -> {attack:?}");
    assert!(attack.is_err());

    let hv_attack = cvm.hv.attack_read(gpa_of(mon), 16);
    println!("hypervisor read of guest memory -> {hv_attack:?}");
    assert!(hv_attack.is_err());

    // Remote attestation: only VMPL-0 software can speak for the CVM.
    let golden = cvm.hv.machine.launch_measurement().unwrap();
    let mut user = RemoteUser::new(cvm.hv.machine.kds_verifier(golden), &[1; 32]);
    let (report, mon_pub) = cvm.gate.monitor.begin_channel(&mut cvm.hv, user.challenge()).unwrap();
    let channel = user.verify_and_derive(&report, &mon_pub);
    println!("\nremote user verified VeilMon's attestation: {}", channel.is_ok());
    cvm.gate.monitor.complete_channel(&mut cvm.hv, &user.public()).unwrap();
    println!("secure channel established with Dom_MON");

    println!("\nquickstart complete — see the other examples for the protected services.");
}
