//! Whole-system integration: all three protected services active at once
//! in one CVM, with workloads running natively and shielded.

use veil::prelude::*;
use veil_core::cvm::VENDOR_KEY;
use veil_os::audit::AuditMode;
use veil_os::module::ModuleImage;
use veil_sdk::{install_enclave, remove_enclave, EnclaveBinary, EnclaveRuntime, EnclaveSys};
use veil_workloads::driver::{EnclaveDriver, KernelDriver};
use veil_workloads::minidb::SqliteWorkload;
use veil_workloads::Workload;

#[test]
fn all_services_coexist_in_one_cvm() {
    let mut cvm = CvmBuilder::new().frames(8192).vcpus(2).log_frames(256).build().unwrap();

    // 1. VeilS-LOG: audit everything the workloads do.
    cvm.kernel.audit.mode = AuditMode::VeilLog;
    cvm.kernel.audit.rules = veil_os::audit::paper_ruleset();

    // 2. VeilS-KCI: load a driver module.
    let image = ModuleImage::build_signed("e2e_driver", 8192, &VENDOR_KEY);
    {
        let (kernel, mut ctx) = cvm.kctx();
        kernel.load_module(&mut ctx, &image).unwrap();
    }

    // 3. VeilS-ENC: run the SQLite workload shielded...
    let pid = cvm.spawn();
    let handle = install_enclave(
        &mut cvm,
        pid,
        &EnclaveBinary::build("e2e-db", 8192, 4096).with_heap_pages(16),
    )
    .unwrap();
    let mut rt = EnclaveRuntime::new(handle.clone());
    let shielded_stats = {
        let mut d = EnclaveDriver { cvm: &mut cvm, rt: &mut rt };
        SqliteWorkload { rows: 150 }.run(&mut d).unwrap()
    };

    // ...and the same workload natively in the same CVM.
    let native_pid = cvm.spawn();
    // (fresh DB files so the runs do not collide)
    {
        let mut sys = cvm.sys(native_pid);
        sys.unlink("/data/test.db").ok();
        sys.unlink("/data/test.db-wal").ok();
    }
    let native_stats = {
        let mut d = KernelDriver { cvm: &mut cvm, pid: native_pid };
        SqliteWorkload { rows: 150 }.run(&mut d).unwrap()
    };

    // Functional equivalence between shielded and native execution.
    assert_eq!(shielded_stats.checksum, native_stats.checksum);
    assert_eq!(shielded_stats.ops, 150);

    // The audit trail captured both runs into protected storage.
    assert!(cvm.gate.services.log.record_count() > 300, "audited syscalls from both runs");
    assert_eq!(cvm.kernel.audit_failures, 0);

    // Module still protected, enclave still intact, CVM healthy.
    assert_eq!(cvm.gate.services.kci.installed_count(), 1);
    assert_eq!(cvm.gate.services.enc.count(), 1);
    assert!(cvm.hv.machine.halted().is_none());

    // Tear down the enclave; the CVM keeps running.
    remove_enclave(&mut cvm, &handle).unwrap();
    assert_eq!(cvm.gate.services.enc.count(), 0);
    let mut sys = cvm.sys(native_pid);
    assert!(sys.open("/tmp/after", OpenFlags::rdwr_create()).is_ok());
}

#[test]
fn log_retrieval_after_full_run() {
    let mut cvm = CvmBuilder::new().frames(4096).vcpus(1).log_frames(64).build().unwrap();
    cvm.kernel.audit.mode = AuditMode::VeilLog;
    cvm.kernel.audit.rules = veil_os::audit::paper_ruleset();

    // Remote user establishes the attested channel with VeilMon.
    let golden = cvm.hv.machine.launch_measurement().unwrap();
    let mut user = RemoteUser::new(cvm.hv.machine.kds_verifier(golden), &[7; 32]);
    let (report, mon_pub) = cvm.gate.monitor.begin_channel(&mut cvm.hv, user.challenge()).unwrap();
    let mut user_chan = user.verify_and_derive(&report, &mon_pub).unwrap();
    cvm.gate.monitor.complete_channel(&mut cvm.hv, &user.public()).unwrap();
    let mut svc_chan = SecureChannel::new(cvm.gate.monitor.channel_key().unwrap());

    // Generate audited activity.
    let pid = cvm.spawn();
    {
        let mut sys = cvm.sys(pid);
        for i in 0..20 {
            let fd = sys.open(&format!("/tmp/f{i}"), OpenFlags::rdwr_create()).unwrap();
            sys.write(fd, b"payload").unwrap();
            sys.close(fd).unwrap();
        }
    }
    let stored = cvm.gate.services.log.record_count();
    assert_eq!(stored, 60, "open+write+close x20");

    // Retrieve over the channel; the log is pruned afterwards.
    let cmd = user_chan.seal(b"retrieve-and-prune");
    let sealed_records =
        cvm.gate.services.log.retrieve_for_user(&mut cvm.hv, &mut svc_chan, &cmd).unwrap();
    assert_eq!(sealed_records.len(), 60);
    let first = user_chan.open(&sealed_records[0]).unwrap();
    let parsed = veil_os::audit::AuditRecord::from_bytes(&first).unwrap();
    assert_eq!(parsed.sysno, veil_os::syscall::Sysno::Open);
    assert_eq!(cvm.gate.services.log.record_count(), 0);
}

#[test]
fn multi_vcpu_cvm_with_hotplug() {
    let mut cvm = CvmBuilder::new().frames(4096).vcpus(2).build().unwrap();
    // Hotplug a third VCPU through the §5.3 delegation.
    {
        let (kernel, mut ctx) = cvm.kctx();
        kernel.hotplug_vcpu(&mut ctx, 2).unwrap();
    }
    let svm = cvm.hv.vcpu(2).expect("vcpu 2 exists");
    assert_eq!(svm.domain_vmsas.len(), 3, "UNT + MON + SER replicas");
    // Memory hotplug through the page-state-change + pvalidate delegation.
    let fresh = cvm.gate.monitor.layout.shared.start + 12;
    let before = cvm.kernel.frames.available();
    {
        let (kernel, mut ctx) = cvm.kctx();
        kernel.accept_page(&mut ctx, fresh).unwrap();
    }
    assert_eq!(cvm.kernel.frames.available(), before + 1);
}

#[test]
fn enclave_full_lifecycle_with_syscall_mix() {
    let mut cvm = CvmBuilder::new().frames(4096).vcpus(1).build().unwrap();
    let pid = cvm.spawn();
    let handle = install_enclave(&mut cvm, pid, &EnclaveBinary::build("mix", 4096, 2048)).unwrap();
    let mut rt = EnclaveRuntime::new(handle.clone());
    {
        let mut sys = EnclaveSys::activate(&mut cvm, &mut rt).unwrap();
        // A little of everything the SDK supports.
        sys.mkdir("/tmp/encdir").unwrap();
        let fd = sys.open("/tmp/encdir/file", OpenFlags::rdwr_create()).unwrap();
        sys.write(fd, b"0123456789").unwrap();
        sys.lseek(fd, 0, Whence::Set).unwrap();
        let mut buf = [0u8; 10];
        sys.read(fd, &mut buf).unwrap();
        assert_eq!(&buf, b"0123456789");
        sys.rename("/tmp/encdir/file", "/tmp/encdir/file2").unwrap();
        assert_eq!(sys.stat("/tmp/encdir/file2").unwrap().size, 10);
        let (a, b) = sys.socketpair().unwrap();
        sys.send(a, b"enclave net").unwrap();
        let mut nb = [0u8; 11];
        sys.recv(b, &mut nb).unwrap();
        assert_eq!(&nb, b"enclave net");
        let addr = sys.mmap(8192).unwrap();
        sys.mem_write(addr, b"shared scratch").unwrap();
        sys.munmap(addr, 8192).unwrap();
        for fd in [fd, a, b] {
            sys.close(fd).unwrap();
        }
        sys.deactivate().unwrap();
    }
    assert!(rt.stats.syscalls >= 14);
    assert!(!rt.stats.killed);
    remove_enclave(&mut cvm, &handle).unwrap();
}

#[test]
fn gate_requests_work_from_every_vcpu() {
    // Regression: each VCPU needs its own kernel GHCB registered at boot,
    // or monitor requests from secondary VCPUs would wedge the CVM.
    let mut cvm = CvmBuilder::new().frames(4096).vcpus(3).build().unwrap();
    for vcpu in 0..3u32 {
        let gfn = cvm.gate.monitor.layout.shared.start + 16 + vcpu as u64;
        cvm.hv.machine.rmp_assign(gfn).unwrap();
        let ctx = veil_os::kernel::KernelCtx { hv: &mut cvm.hv, gate: &mut cvm.gate, vcpu };
        ctx.gate
            .request(ctx.hv, vcpu, veil_os::monitor::MonRequest::Pvalidate { gfn, validate: true })
            .unwrap_or_else(|e| panic!("vcpu {vcpu}: {e}"));
        // Each VCPU ended back in its kernel domain.
        assert_eq!(cvm.hv.vcpu(vcpu).unwrap().current_vmpl, veil_snp::perms::Vmpl::Vmpl3);
    }
    assert!(cvm.hv.machine.halted().is_none());
}
