//! Protocol-sequence assertions over the hypervisor's switch trace:
//! the Fig. 3 inter-domain communication flow and the §6.2 enclave
//! entry/exit flow, observed step by step.

use std::path::Path;
use veil::prelude::*;
use veil_os::monitor::MonRequest;
use veil_sdk::{install_enclave, EnclaveBinary, EnclaveRuntime, EnclaveSys};
use veil_trace::Event;
use veil_workloads::driver::KernelDriver;
use veil_workloads::http::HttpWorkload;
use veil_workloads::Workload;

/// The `DomainSwitch` records of the machine's trace ring, oldest first.
/// Domains appear as VMPL indices: 0 `Dom_MON`, 1 `Dom_SER`, 2 `Dom_ENC`,
/// 3 `Dom_UNT`.
fn switches(cvm: &Cvm) -> Vec<Event> {
    cvm.trace_records()
        .into_iter()
        .map(|r| r.event)
        .filter(|e| matches!(e, Event::DomainSwitch { .. }))
        .collect()
}

#[test]
fn fig3_sequence_for_a_delegated_request() {
    let mut cvm = CvmBuilder::new().frames(2048).vcpus(1).build().unwrap();
    let gfn = cvm.gate.monitor.layout.shared.start + 6;
    cvm.hv.machine.rmp_assign(gfn).unwrap();
    cvm.hv.set_trace(true);
    {
        let (_, ctx) = cvm.kctx();
        ctx.gate.request(ctx.hv, 0, MonRequest::Pvalidate { gfn, validate: true }).unwrap();
    }
    // Fig. 3: OS exits to the hypervisor, resumes at VeilMon, processes,
    // and the reply path mirrors it.
    assert_eq!(
        switches(&cvm),
        &[
            Event::DomainSwitch { vcpu: 0, from: 3, to: 0, user_ghcb: false, automatic: false },
            Event::DomainSwitch { vcpu: 0, from: 0, to: 3, user_ghcb: false, automatic: false },
        ]
    );
}

#[test]
fn service_requests_terminate_in_dom_ser() {
    // Pins the *serial* per-request protocol; the batched twin below
    // asserts the amortized shape.
    let mut cvm = CvmBuilder::new().frames(2048).vcpus(1).batch(false).build().unwrap();
    cvm.kernel.audit.mode = veil_os::audit::AuditMode::VeilLog;
    cvm.kernel.audit.rules = veil_os::audit::paper_ruleset();
    cvm.hv.set_trace(true);
    let pid = cvm.spawn();
    {
        let mut sys = cvm.sys(pid);
        let fd = sys.open("/tmp/traced", OpenFlags::rdwr_create()).unwrap();
        sys.close(fd).unwrap();
    }
    // Each audited syscall produced one Dom_UNT -> Dom_SER round trip.
    let trace = switches(&cvm);
    assert_eq!(trace.len(), 4, "open + close = two round trips: {trace:?}");
    for pair in trace.chunks(2) {
        assert!(
            matches!(pair[0], Event::DomainSwitch { to: 1, .. }),
            "log append terminates in Dom_SER"
        );
        assert!(matches!(pair[1], Event::DomainSwitch { to: 3, .. }), "and returns to the kernel");
        assert!(matches!(pair[0], Event::DomainSwitch { user_ghcb: false, .. }));
    }
}

#[test]
fn batched_service_requests_share_one_doorbell_pair() {
    let mut cvm = CvmBuilder::new().frames(2048).vcpus(1).batch(true).build().unwrap();
    cvm.kernel.audit.mode = veil_os::audit::AuditMode::VeilLog;
    cvm.kernel.audit.rules = veil_os::audit::paper_ruleset();
    cvm.hv.set_trace(true);
    let pid = cvm.spawn();
    {
        let mut sys = cvm.sys(pid);
        let fd = sys.open("/tmp/traced", OpenFlags::rdwr_create()).unwrap();
        sys.close(fd).unwrap();
    }
    // Both audit appends sit in the ring: no switches yet.
    assert!(switches(&cvm).is_empty(), "{:?}", switches(&cvm));
    cvm.flush_gate().unwrap();
    // One doorbell round trip drained both records into Dom_SER.
    let trace = switches(&cvm);
    assert_eq!(trace.len(), 2, "one switch pair for the whole batch: {trace:?}");
    assert!(matches!(trace[0], Event::DomainSwitch { to: 1, .. }), "drain terminates in Dom_SER");
    assert!(matches!(trace[1], Event::DomainSwitch { to: 3, .. }), "and returns to the kernel");
    assert_eq!(cvm.hv.stats().doorbells, 1);
    assert_eq!(cvm.gate.services.log.record_count(), 2, "open + close both landed");
}

#[test]
fn enclave_syscall_is_two_user_ghcb_crossings() {
    let mut cvm = CvmBuilder::new().frames(4096).vcpus(1).build().unwrap();
    let pid = cvm.spawn();
    let handle = install_enclave(&mut cvm, pid, &EnclaveBinary::build("trace", 2048, 0)).unwrap();
    let mut rt = EnclaveRuntime::new(handle);
    {
        // Enter before tracing so only the syscall's crossings appear.
        let _ = EnclaveSys::activate(&mut cvm, &mut rt).unwrap();
    }
    cvm.hv.set_trace(true);
    {
        let mut sys = EnclaveSys::activate(&mut cvm, &mut rt).unwrap();
        sys.getpid().unwrap();
    }
    assert_eq!(
        switches(&cvm),
        &[
            Event::DomainSwitch { vcpu: 0, from: 2, to: 3, user_ghcb: true, automatic: false },
            Event::DomainSwitch { vcpu: 0, from: 3, to: 2, user_ghcb: true, automatic: false },
        ],
        "a redirected syscall is exactly one exit + one re-entry through the user GHCB"
    );
}

// ---- golden trace digests (§regression pins) ---------------------------
//
// Each pin is the SHA-256 trace digest of one protocol flow, over the
// `veil-trace` canonical encoding: per record, the virtual-cycle delta
// from the previous record as LEB128, the event tag, then its fields with
// every u32/u64 as LEB128. `seq` is stored but not hashed. The digests are
// bit-stable for a fixed build + configuration; any drift means the
// privileged-event protocol changed. After an *intentional* change,
// regenerate with:
//
//   VEIL_REGEN_GOLDEN=1 cargo test -q --test protocol_trace -- --nocapture golden
//
// and paste the printed constants over the pins below.

const GOLDEN_BOOT: &str = "358422f164e6a39bb1f874fec24d12e9f6104aa1b1a90f4473cf0dbf45175e55";
const GOLDEN_HANDSHAKE: &str = "21035750610a9558e53b57664fd1caddcd990261d724e1b8d9defd69563b9e69";
const GOLDEN_DOMAIN_SWITCH: &str =
    "26fa5ef31990643d69b25d1db50d92b08712437dd78f288d433ce325c53dc865";
const GOLDEN_SYSCALL_REDIRECT: &str =
    "a40ec3974557eece0c9d120376547152b29f1c2bd91b9397851bde44c22aa3e7";

fn assert_golden(name: &str, pinned: &str, actual: &str) {
    if std::env::var_os("VEIL_REGEN_GOLDEN").is_some() {
        println!("const {name}: &str = \"{actual}\";");
        return;
    }
    assert_eq!(
        actual, pinned,
        "{name} drifted. If the protocol change is intentional, regenerate the pins with \
         `VEIL_REGEN_GOLDEN=1 cargo test -q --test protocol_trace -- --nocapture golden` \
         and paste the printed constants into tests/protocol_trace.rs."
    );
}

#[test]
fn golden_boot_trace() {
    let cvm = CvmBuilder::new().frames(2048).vcpus(1).trace(true).build().unwrap();
    let digest = cvm.trace_digest_hex();
    // Acceptance gate: bit-stable across two consecutive identical boots.
    let again = CvmBuilder::new().frames(2048).vcpus(1).trace(true).build().unwrap();
    assert_eq!(digest, again.trace_digest_hex(), "boot trace must be deterministic");
    assert!(!cvm.trace_records().is_empty(), "boot must record events");
    assert_golden("GOLDEN_BOOT", GOLDEN_BOOT, &digest);
}

#[test]
fn golden_channel_handshake_trace() {
    let mut cvm = CvmBuilder::new().frames(2048).vcpus(1).build().unwrap();
    // Enabling resets the stream, so the digest covers just the handshake.
    cvm.hv.set_trace(true);
    let golden = cvm.hv.machine.launch_measurement().unwrap();
    let mut user = RemoteUser::new(cvm.hv.machine.kds_verifier(golden), &[7; 32]);
    let (report, mon_pub) = cvm.gate.monitor.begin_channel(&mut cvm.hv, user.challenge()).unwrap();
    user.verify_and_derive(&report, &mon_pub).expect("VeilMon's report verifies");
    cvm.gate.monitor.complete_channel(&mut cvm.hv, &user.public()).unwrap();
    let counters = cvm.hv.machine.tracer().counters();
    assert_eq!(counters.handshake_steps, 2, "begin + complete");
    assert_golden("GOLDEN_HANDSHAKE", GOLDEN_HANDSHAKE, &cvm.trace_digest_hex());
}

#[test]
fn golden_domain_switch_trace() {
    let mut cvm = CvmBuilder::new().frames(2048).vcpus(1).build().unwrap();
    let gfn = cvm.gate.monitor.layout.shared.start + 6;
    cvm.hv.machine.rmp_assign(gfn).unwrap();
    cvm.hv.set_trace(true);
    {
        let (_, ctx) = cvm.kctx();
        ctx.gate.request(ctx.hv, 0, MonRequest::Pvalidate { gfn, validate: true }).unwrap();
    }
    assert_golden("GOLDEN_DOMAIN_SWITCH", GOLDEN_DOMAIN_SWITCH, &cvm.trace_digest_hex());
}

#[test]
fn golden_syscall_redirect_trace() {
    let mut cvm = CvmBuilder::new().frames(4096).vcpus(1).build().unwrap();
    let pid = cvm.spawn();
    let handle = install_enclave(&mut cvm, pid, &EnclaveBinary::build("gold", 2048, 0)).unwrap();
    let mut rt = EnclaveRuntime::new(handle);
    {
        let _ = EnclaveSys::activate(&mut cvm, &mut rt).unwrap();
    }
    cvm.hv.set_trace(true);
    {
        let mut sys = EnclaveSys::activate(&mut cvm, &mut rt).unwrap();
        sys.getpid().unwrap();
    }
    assert_golden("GOLDEN_SYSCALL_REDIRECT", GOLDEN_SYSCALL_REDIRECT, &cvm.trace_digest_hex());
}

#[test]
fn golden_batched_http_trace() {
    // The batched gate path's whole-protocol pin: an audited http run
    // whose audit records ride the ring. Stored in tests/goldens/ (not a
    // const) so regeneration is a file write, not a source edit.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/goldens/batched_http.digest");
    let mut cvm = CvmBuilder::new().frames(2048).vcpus(1).batch(true).build().unwrap();
    cvm.kernel.audit.mode = veil_os::audit::AuditMode::VeilLog;
    cvm.kernel.audit.rules = veil_os::audit::paper_ruleset();
    cvm.hv.set_trace(true);
    let pid = cvm.spawn();
    {
        let mut driver = KernelDriver { cvm: &mut cvm, pid };
        HttpWorkload::nginx(10).run(&mut driver).unwrap();
    }
    cvm.flush_gate().unwrap();
    assert!(cvm.hv.stats().doorbells > 0, "the batched run must actually batch");
    assert_eq!(cvm.gate.deferred_errors(), 0);
    let digest = cvm.trace_digest_hex();
    veil_testkit::golden::assert_matches("batched_http", Path::new(path), &format!("{digest}\n"));
}

#[test]
fn interrupt_relay_appears_as_automatic_event() {
    let mut cvm = CvmBuilder::new().frames(4096).vcpus(1).build().unwrap();
    let pid = cvm.spawn();
    let handle = install_enclave(&mut cvm, pid, &EnclaveBinary::build("irq", 2048, 0)).unwrap();
    let mut rt = EnclaveRuntime::new(handle);
    let _ = EnclaveSys::activate(&mut cvm, &mut rt).unwrap();
    cvm.hv.set_trace(true);
    cvm.hv.automatic_exit(0);
    assert_eq!(
        switches(&cvm),
        &[Event::DomainSwitch { vcpu: 0, from: 2, to: 3, user_ghcb: false, automatic: true }]
    );
}
