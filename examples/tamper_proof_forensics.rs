//! VeilS-LOG walkthrough: forensic audit logs that survive a kernel
//! compromise.
//!
//! The §6.3 scenario: the attacker will eventually own the kernel and
//! will try to erase their tracks. Execute-ahead logging puts each
//! record into `Dom_SER` storage *before* the audited event proceeds;
//! after the compromise, the attacker can no longer reach the log.
//!
//! Run with: `cargo run --example tamper_proof_forensics`

use veil::prelude::*;
use veil_os::audit::AuditMode;
use veil_snp::mem::gpa_of;
use veil_snp::perms::Vmpl;

fn main() {
    // Serial gate (`batch(false)`): the paper's execute-ahead protocol,
    // where each record reaches Dom_SER before its syscall returns. The
    // default batched gate would hold records in the ring until the next
    // doorbell drain (DESIGN.md §12).
    let mut cvm =
        CvmBuilder::new().frames(4096).vcpus(1).log_frames(64).batch(false).build().expect("boot");

    // Attested secure channel with the remote analyst (§5.1).
    let golden = cvm.hv.machine.launch_measurement().unwrap();
    let mut analyst = RemoteUser::new(cvm.hv.machine.kds_verifier(golden), &[9; 32]);
    let (report, mon_pub) =
        cvm.gate.monitor.begin_channel(&mut cvm.hv, analyst.challenge()).unwrap();
    let mut analyst_chan = analyst.verify_and_derive(&report, &mon_pub).expect("attestation");
    cvm.gate.monitor.complete_channel(&mut cvm.hv, &analyst.public()).unwrap();
    let mut service_chan = SecureChannel::new(cvm.gate.monitor.channel_key().unwrap());
    println!("analyst channel established after attestation");

    // Arm the paper's auditctl ruleset, sink = VeilS-LOG.
    cvm.kernel.audit.mode = AuditMode::VeilLog;
    cvm.kernel.audit.rules = veil_os::audit::paper_ruleset();

    // Phase 1: the intrusion, while the kernel is still honest.
    let pid = cvm.spawn();
    {
        let mut sys = cvm.sys(pid);
        sys.setuid(0).unwrap(); // privilege escalation artifact
        let fd = sys.open("/etc/backdoor.sh", OpenFlags::rdwr_create()).unwrap();
        sys.write(fd, b"#!/bin/sh\nnc -l 31337\n").unwrap();
        sys.close(fd).unwrap();
        let s = sys.socket().unwrap();
        sys.connect(s, 4444).err(); // beaconing attempt (refused port)
    }
    let captured = cvm.gate.services.log.record_count();
    println!("{captured} audit records captured in Dom_SER storage");

    // Phase 2: the attacker owns the kernel and tries to erase evidence.
    let log_gpa = gpa_of(cvm.gate.monitor.layout.log_storage.start);
    let wipe = cvm.hv.machine.write(Vmpl::Vmpl3, log_gpa, &[0u8; 64]);
    println!("compromised kernel wipes the log -> {wipe:?}");
    assert!(wipe.is_err(), "#NPF: storage is unreachable from Dom_UNT");
    let peek = cvm.hv.machine.read(Vmpl::Vmpl3, log_gpa, 64);
    assert!(peek.is_err(), "it cannot even read which events were logged");

    // A forged retrieval command (no channel key) is refused.
    let forged = cvm.gate.services.log.retrieve_for_user(
        &mut cvm.hv,
        &mut service_chan.clone(),
        b"retrieve-and-prune",
    );
    println!("forged retrieval request -> {:?}", forged.err().map(|e| e.to_string()));

    // Phase 3: the analyst retrieves the evidence over the channel.
    let cmd = analyst_chan.seal(b"retrieve-and-prune");
    let sealed =
        cvm.gate.services.log.retrieve_for_user(&mut cvm.hv, &mut service_chan, &cmd).unwrap();
    println!("\nanalyst retrieved {} sealed records:", sealed.len());
    for s in &sealed {
        let bytes = analyst_chan.open(s).expect("authentic record");
        let rec = veil_os::audit::AuditRecord::from_bytes(&bytes).expect("parse");
        println!(
            "  seq {:>3}  pid {:>2}  uid {:>2}  {:<10} ret {}",
            rec.seq,
            rec.pid,
            rec.uid,
            rec.sysno.to_string(),
            rec.ret
        );
    }
    // The attack reconstruction is all there: setuid, file creation,
    // write, close, and the beacon attempt.
    assert!(sealed.len() >= 5);
    println!("\nforensic trail intact despite the kernel compromise.");
}
