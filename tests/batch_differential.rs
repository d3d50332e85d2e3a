//! Differential proof of the batched gate path (PR 7).
//!
//! Every Fig. 5 workload runs twice on identically-configured CVMs with
//! VeilS-LOG auditing on: once over the serial Fig. 3 gate protocol
//! (`batch(false)`) and once over the ring-and-doorbell batched protocol
//! (`batch(true)`). The two runs must be *observationally equivalent*:
//!
//! * identical workload results (ops, bytes, checksum);
//! * identical final per-GFN RMP state;
//! * identical protected log storage content, byte for byte;
//! * identical event-stream fold except for the switch plumbing itself
//!   (`vmgexits`, `vmenters`, `domain_switches`, `doorbells`);
//! * and the batched run must actually pay less: strictly fewer switches,
//!   fewer than one switch per gate request, and fewer model cycles.

use veil::prelude::*;
use veil::trace::EventCounters;
use veil_os::audit::AuditMode;
use veil_os::syscall::Sysno;
use veil_workloads::driver::KernelDriver;
use veil_workloads::{
    compress::GzipWorkload, http::HttpWorkload, kvstore::UnqliteWorkload, minidb::SqliteWorkload,
    Workload, WorkloadStats,
};

/// One audited run of `workload` over the serial or batched protocol.
struct RunResult {
    stats: WorkloadStats,
    /// Model cycles from the workload's first op through the final flush.
    cycles: u64,
    cvm: Cvm,
}

fn run(workload: &mut dyn Workload, batched: bool) -> RunResult {
    let mut cvm = CvmBuilder::new()
        .frames(4096)
        .vcpus(1)
        .log_frames(256)
        .trace(true)
        .batch(batched)
        .build()
        .expect("boot");
    cvm.kernel.audit.mode = AuditMode::VeilLog;
    cvm.kernel.audit.rules = veil_os::audit::paper_ruleset();
    // kvstore's hot syscall is positioned I/O; audit it too so every
    // workload in the matrix actually crosses the gate.
    cvm.kernel.audit.rules.insert(Sysno::Pwrite64);
    cvm.kernel.audit.rules.insert(Sysno::Pread64);
    let pid = cvm.spawn();
    let cycles_before = cvm.hv.machine.cycles().total();
    let stats = {
        let mut driver = KernelDriver { cvm: &mut cvm, pid };
        workload.run(&mut driver).expect("workload")
    };
    cvm.flush_gate().expect("flush");
    let cycles = cvm.hv.machine.cycles().total() - cycles_before;
    RunResult { stats, cycles, cvm }
}

/// Zeroes the counters that legitimately differ between the serial and
/// batched protocols: the switch plumbing itself. Everything else —
/// audit appends, pvalidates, RMP transitions, page-state changes,
/// faults, I/O exits — must fold identically.
fn masked(mut c: EventCounters) -> EventCounters {
    c.vmgexits = 0;
    c.vmenters = 0;
    c.domain_switches = 0;
    c.doorbells = 0;
    // Ring enqueues are the deferral bookkeeping itself: the serial
    // protocol never enqueues, so the counter is plumbing, not payload.
    c.ring_enqueues = 0;
    c
}

fn differential(name: &str, mk: &dyn Fn() -> Box<dyn Workload>) {
    let serial = run(mk().as_mut(), false);
    let batched = run(mk().as_mut(), true);

    // Workload-visible results are identical.
    assert_eq!(serial.stats.ops, batched.stats.ops, "{name}: ops");
    assert_eq!(serial.stats.bytes, batched.stats.bytes, "{name}: bytes");
    assert_eq!(serial.stats.checksum, batched.stats.checksum, "{name}: checksum");

    // Both runs produced real gate traffic and shed nothing.
    assert!(batched.cvm.gate.gate_requests() > 0, "{name}: no gate traffic");
    assert_eq!(serial.cvm.gate.gate_requests(), batched.cvm.gate.gate_requests(), "{name}: reqs");
    assert_eq!(batched.cvm.gate.deferred_errors(), 0, "{name}: drain shed requests");

    // Final RMP state is identical for every GFN.
    let s_rmp = serial.cvm.hv.machine.rmp();
    let b_rmp = batched.cvm.hv.machine.rmp();
    assert_eq!(s_rmp.frames(), b_rmp.frames(), "{name}: frame count");
    for (gfn, entry) in s_rmp.iter() {
        assert_eq!(Some(entry), b_rmp.entry(gfn), "{name}: RMP entry diverged at gfn {gfn}");
    }

    // Protected log storage holds the same records in the same order.
    // `tsc` is the one legitimately different field: the two protocols
    // have different cycle timelines by design.
    let s_log = serial.cvm.gate.services.log.read_all(&serial.cvm.hv).expect("read log");
    let b_log = batched.cvm.gate.services.log.read_all(&batched.cvm.hv).expect("read log");
    assert_eq!(s_log.len(), b_log.len(), "{name}: log record count diverged");
    assert!(!s_log.is_empty(), "{name}: audit produced no records");
    for (s, b) in s_log.iter().zip(&b_log) {
        let s = veil_os::audit::AuditRecord::from_bytes(s).expect("parse serial record");
        let b = veil_os::audit::AuditRecord::from_bytes(b).expect("parse batched record");
        assert_eq!(
            (s.seq, s.pid, s.uid, s.sysno, s.ret),
            (b.seq, b.pid, b.uid, b.sysno, b.ret),
            "{name}: log record diverged"
        );
    }

    // The event-stream folds agree on everything but the switch plumbing.
    let s_fold = EventCounters::from_records(&serial.cvm.trace_records());
    let b_fold = EventCounters::from_records(&batched.cvm.trace_records());
    assert_eq!(masked(s_fold), masked(b_fold), "{name}: masked event fold diverged");

    // And the batch path earned its keep: strictly fewer switches, with
    // at least one doorbell doing the amortizing.
    assert!(
        b_fold.domain_switches < s_fold.domain_switches,
        "{name}: batched run must switch less ({} vs {})",
        b_fold.domain_switches,
        s_fold.domain_switches
    );
    assert!(b_fold.doorbells > 0, "{name}: batched run never rang the doorbell");
    assert_eq!(s_fold.doorbells, 0, "{name}: serial run must not ring the doorbell");

    // The serial protocol spends exactly two switches (call + return) per
    // gate request; the batched run spends that minus its switch deficit
    // against the serial twin, so the boot's switches cancel out.
    let reqs = serial.cvm.gate.gate_requests();
    let saved = s_fold.domain_switches - b_fold.domain_switches;
    let switches_per_request = (2 * reqs - saved) as f64 / reqs as f64;
    assert!(
        switches_per_request < 1.0,
        "{name}: batched run spent {switches_per_request:.3} switches per gate request"
    );
    assert!(
        batched.cycles < serial.cycles,
        "{name}: batched run must cost fewer model cycles ({} vs {})",
        batched.cycles,
        serial.cycles
    );
}

#[test]
fn http_batched_equals_serial() {
    differential("http", &|| Box::new(HttpWorkload::nginx(40)));
}

#[test]
fn kvstore_batched_equals_serial() {
    differential("kvstore", &|| Box::new(UnqliteWorkload { entries: 300 }));
}

#[test]
fn minidb_batched_equals_serial() {
    differential("minidb", &|| Box::new(SqliteWorkload { rows: 120 }));
}

#[test]
fn compress_batched_equals_serial() {
    differential("compress", &|| Box::new(GzipWorkload { input_len: 64 * 1024, chunk: 8 * 1024 }));
}

/// A pinned batched, VeilLog-audited CVM with `k` audited syscalls (file
/// creations) queued in VCPU 0's gate ring. Returns the SHA-256 of the
/// gate-ring frame before the drain and of VeilS-LOG's used storage after
/// `flush_gate()`.
fn ring_and_log_digests(k: usize) -> (String, String) {
    use veil::crypto::sha256::{hex, Sha256};
    use veil_snp::mem::{gpa_of, PAGE_SIZE};
    use veil_snp::perms::Vmpl;
    let mut cvm = CvmBuilder::new()
        .frames(2048)
        .vcpus(1)
        .trace(false)
        .metrics(false)
        .attest(false)
        .batch(true)
        .build()
        .expect("boot");
    cvm.kernel.audit.mode = AuditMode::VeilLog;
    cvm.kernel.audit.rules = veil_os::audit::paper_ruleset();
    let pid = cvm.spawn();
    cvm.flush_gate().expect("flush");
    let mut sys = cvm.sys(pid);
    for i in 0..k {
        sys.open(&format!("/tmp/q{i}"), OpenFlags::rdwr_create()).expect("open");
    }
    assert_eq!(cvm.gate.pending_depth(0) as usize, k, "every record must still be queued");
    let ring = gpa_of(cvm.gate.monitor.layout.gate_ring_gfn(0).expect("ring"));
    let ring = cvm.hv.machine.read(Vmpl::Vmpl3, ring, PAGE_SIZE).expect("read ring");
    cvm.flush_gate().expect("flush");
    assert_eq!(cvm.gate.deferred_errors(), 0);
    let log = &cvm.gate.services.log;
    let storage = gpa_of(cvm.gate.monitor.layout.log_storage.start);
    let used = cvm.hv.machine.read(Vmpl::Vmpl1, storage, log.used() as usize).expect("read log");
    (hex(&Sha256::digest(&ring)), hex(&Sha256::digest(&used)))
}

/// The bytes the kernel writes into the gate ring and the bytes VeilS-LOG
/// stores, pinned for 1, 7 and 14 queued records: how a slot or a log
/// record is written (one checked write or several) must not move a byte.
#[test]
fn ring_and_log_bytes_are_pinned() {
    let pins = [
        (
            1,
            "c967b58c3efc69ec6f6f12749210cbc68cb9d7dad479b09ffcf27b63f2f5f5b8",
            "ec5793eddb25a27bb608f32929241b31558f208cbdc1a138a8b6764a65775e59",
        ),
        (
            7,
            "cee620de0dc5d14062e0b39958b02c9a6c966bfdc15ecf4a556a29df9449943a",
            "8e757092f98fd8df03f90db14b79e1818b852b23f9f7976c26c48ce3082e3a69",
        ),
        (
            14,
            "af36132fc2e928d21e343c5e5da99b266ed1462ab64381451939c4fd54d19f26",
            "f44d7d7e21870731cfa1ac0ef3fbbfefacd2dcbeeac75f44eed6a43b4eb27722",
        ),
    ];
    for (k, ring, log) in pins {
        assert_eq!(ring_and_log_digests(k), (ring.to_string(), log.to_string()), "{k} records");
    }
}
