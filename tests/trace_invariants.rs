//! Trace-invariant suite: structural properties every recorded event
//! stream must satisfy, plus the counters/stats/cycle-accounting
//! consistency the tentpole guarantees by construction.
//!
//! * every `DomainSwitch` is bracketed by a `VmgExit` (before) and a
//!   `VmEnter` (after) on the same VCPU;
//! * no recorded `RMPADJUST` grants permissions its executing VMPL did
//!   not itself hold (no escalation);
//! * folding the event stream reproduces the live counters and the
//!   hypervisor's `HvStats` exactly (zero drift);
//! * per-domain cycle attribution sums to the machine total;
//! * disabling tracing records nothing and changes no behavior.

use veil::prelude::*;
use veil::trace::{invariants, Event, EventCounters};
use veil_os::audit::{paper_ruleset, AuditMode};
use veil_sdk::{install_enclave, EnclaveBinary, EnclaveRuntime, EnclaveSys};
use veil_testkit::{prop, prop_assert, prop_assert_eq};
use veil_workloads::driver::VeilUnshieldedDriver;
use veil_workloads::http::HttpWorkload;
use veil_workloads::kvstore::UnqliteWorkload;
use veil_workloads::minidb::SqliteWorkload;
use veil_workloads::Workload;

/// Boots a traced CVM and runs a representative mixed workload: audited
/// kernel syscalls, a secure-channel handshake, and enclave-redirected
/// syscalls.
fn traced_workload_cvm() -> Cvm {
    // Metrics ride along so every invariant below also runs with the
    // registry live — and so the three-way drift test has data.
    let mut cvm =
        CvmBuilder::new().frames(4096).vcpus(1).trace(true).metrics(true).build().unwrap();
    cvm.kernel.audit.mode = AuditMode::VeilLog;
    cvm.kernel.audit.rules = paper_ruleset();

    let user = veil::crypto::DhKeyPair::from_seed(&[3; 32]);
    let (_report, _mon_pub) = cvm.gate.monitor.begin_channel(&mut cvm.hv, [3; 32]).unwrap();
    cvm.gate.monitor.complete_channel(&mut cvm.hv, &user.public).unwrap();

    let pid = cvm.spawn();
    {
        let mut sys = cvm.sys(pid);
        let fd = sys.open("/tmp/inv", OpenFlags::rdwr_create()).unwrap();
        sys.write(fd, b"invariants").unwrap();
        sys.close(fd).unwrap();
    }

    let handle = install_enclave(&mut cvm, pid, &EnclaveBinary::build("inv", 2048, 0)).unwrap();
    let mut rt = EnclaveRuntime::new(handle);
    {
        let mut sys = EnclaveSys::activate(&mut cvm, &mut rt).unwrap();
        let fd = sys.open("/tmp/enc", OpenFlags::rdwr_create()).unwrap();
        sys.write(fd, b"shielded").unwrap();
        sys.close(fd).unwrap();
    }
    veil_sdk::runtime::park_enclave(&mut cvm, &mut rt).unwrap();
    cvm
}

#[test]
fn workload_trace_satisfies_structural_invariants() {
    let cvm = traced_workload_cvm();
    let records = cvm.trace_records();
    assert!(records.len() > 100, "expected a substantial stream, got {}", records.len());
    assert_eq!(cvm.hv.machine.tracer().dropped(), 0, "ring must not wrap in this test");
    if let Err(v) = invariants::check(&records) {
        panic!("trace invariant violated: {v}");
    }
}

#[test]
fn every_domain_switch_is_bracketed() {
    // Beyond invariants::check (already exercised above): count the
    // brackets directly so a checker bug cannot silently pass.
    let cvm = traced_workload_cvm();
    let records = cvm.trace_records();
    let mut switches = 0usize;
    for (i, r) in records.iter().enumerate() {
        if let Event::DomainSwitch { vcpu, to, .. } = r.event {
            switches += 1;
            let before = records[..i]
                .iter()
                .rev()
                .find(|p| matches!(p.event, Event::VmgExit { vcpu: v, .. } if v == vcpu));
            assert!(before.is_some(), "switch at seq {} has no preceding VMGEXIT", r.seq);
            let after = records[i + 1..]
                .iter()
                .find(|n| matches!(n.event, Event::VmEnter { vcpu: v, .. } if v == vcpu));
            match after {
                Some(n) => match n.event {
                    Event::VmEnter { vmpl, .. } => {
                        assert_eq!(vmpl, to, "re-entry VMPL mismatch at seq {}", r.seq)
                    }
                    _ => unreachable!(),
                },
                None => panic!("switch at seq {} has no following VMENTER", r.seq),
            }
        }
    }
    assert!(switches > 0, "workload must produce domain switches");
}

#[test]
fn no_recorded_rmpadjust_escalates() {
    let cvm = traced_workload_cvm();
    let mut seen = 0usize;
    for r in cvm.trace_records() {
        if let Event::RmpAdjust { executing, target, perms, executing_perms, .. } = r.event {
            seen += 1;
            assert!(executing < target, "RMPADJUST must target a less-privileged VMPL");
            assert_eq!(
                perms & !executing_perms,
                0,
                "seq {}: VMPL{executing} granted perms {perms:#x} beyond its own {executing_perms:#x}",
                r.seq
            );
        }
    }
    assert!(seen > 1000, "boot alone performs thousands of RMPADJUSTs, saw {seen}");
}

#[test]
fn folded_counters_equal_live_counters_and_hv_stats() {
    let cvm = traced_workload_cvm();
    let records = cvm.trace_records();
    assert_eq!(cvm.hv.machine.tracer().dropped(), 0);
    let fold = EventCounters::from_records(&records);
    assert_eq!(fold, *cvm.hv.machine.tracer().counters(), "replay fold must equal live fold");

    let stats = cvm.hv.stats();
    assert_eq!(stats.vmgexits, fold.vmgexits);
    assert_eq!(stats.domain_switches, fold.domain_switches);
    assert_eq!(stats.enclave_crossings, fold.enclave_crossings);
    assert_eq!(stats.automatic_exits, fold.automatic_exits);
    assert_eq!(stats.page_state_changes, fold.page_state_changes);
    assert_eq!(stats.io_exits, fold.io_exits);
}

#[test]
fn metrics_event_fold_never_drifts() {
    // Satellite: the registry consumes the *same* `(cycles, event)`
    // stream as the tracer (one call site in `Machine::trace_event`), so
    // its embedded fold, the live tracer fold, and a replay fold over
    // the ring must agree exactly — a regression guard against anyone
    // feeding the registry from a second, divergent stream.
    let cvm = traced_workload_cvm();
    let records = cvm.trace_records();
    assert_eq!(cvm.hv.machine.tracer().dropped(), 0);
    let replay = EventCounters::from_records(&records);
    let live = cvm.hv.machine.tracer().counters();
    let registry = cvm.metrics().event_counters();
    assert_eq!(replay, *live, "replay fold must equal live tracer fold");
    assert_eq!(registry, live, "registry fold drifted from the tracer fold");

    // The registry's per-event counters must also sum to the stream:
    // every record lands in exactly one `events_total` series.
    let events_total: u64 =
        cvm.metrics().counters().filter(|(k, _)| k.metric == "events_total").map(|(_, v)| v).sum();
    assert_eq!(events_total, records.len() as u64, "events_total must count every record once");
}

#[test]
fn domain_cycles_sum_to_machine_total() {
    let cvm = traced_workload_cvm();
    let domain = cvm.domain_cycles();
    let total: u64 = domain.iter().sum();
    assert_eq!(total, cvm.hv.machine.cycles().total());
    // The monitor did boot work; the kernel and enclave both ran.
    assert!(domain[0] > 0, "VMPL0 (monitor) cycles");
    assert!(domain[2] > 0, "VMPL2 (enclave) cycles");
    assert!(domain[3] > 0, "VMPL3 (kernel) cycles");
}

#[test]
fn disabled_tracing_records_nothing_and_changes_no_behavior() {
    let run = |trace: bool| {
        let mut cvm = CvmBuilder::new().frames(2048).vcpus(1).trace(trace).build().unwrap();
        cvm.kernel.audit.mode = AuditMode::VeilLog;
        cvm.kernel.audit.rules = paper_ruleset();
        let pid = cvm.spawn();
        let mut sys = cvm.sys(pid);
        let fd = sys.open("/tmp/twin", OpenFlags::rdwr_create()).unwrap();
        sys.write(fd, b"twin").unwrap();
        sys.close(fd).unwrap();
        cvm
    };
    let traced = run(true);
    let silent = run(false);
    // Identical behavior: same measurement, same cycles, same stats.
    assert_eq!(traced.hv.machine.launch_measurement(), silent.hv.machine.launch_measurement());
    assert_eq!(traced.hv.machine.cycles().total(), silent.hv.machine.cycles().total());
    assert_eq!(traced.hv.stats(), silent.hv.stats());
    assert_eq!(traced.domain_cycles(), silent.domain_cycles());
    // But only the traced twin recorded anything.
    assert!(!traced.trace_records().is_empty());
    assert!(silent.trace_records().is_empty());
    assert_eq!(
        silent.trace_digest_hex(),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "disabled tracer digests the empty stream"
    );
}

// ---- satellite 3: property test over random workload schedules ----------

#[derive(Debug, Clone)]
enum Item {
    Kv(usize),
    Http(usize),
    Db(usize),
}

#[test]
fn random_workload_schedules_satisfy_invariants() {
    let item = prop::one_of(vec![
        prop::usizes(1..6).map(Item::Kv),
        prop::usizes(1..6).map(Item::Http),
        prop::usizes(1..6).map(Item::Db),
    ]);
    let schedules = prop::vecs(item, 1..4);
    prop::check("random_workload_schedules_satisfy_invariants", 100, &schedules, |schedule| {
        let mut cvm = CvmBuilder::new().frames(2048).vcpus(1).trace(true).build().unwrap();
        cvm.kernel.audit.mode = AuditMode::VeilLog;
        cvm.kernel.audit.rules = paper_ruleset();
        let pid = cvm.spawn();
        let mut driver = VeilUnshieldedDriver { cvm: &mut cvm, pid };
        for (i, it) in schedule.iter().enumerate() {
            let ran = match it {
                Item::Kv(n) => UnqliteWorkload { entries: *n }.run(&mut driver),
                // Distinct port per schedule slot: the kernel socket
                // table is shared, so a repeated bind would EADDRINUSE.
                Item::Http(n) => {
                    HttpWorkload { port: 8080 + i as u16, ..HttpWorkload::lighttpd(*n) }
                        .run(&mut driver)
                }
                Item::Db(n) => SqliteWorkload { rows: *n }.run(&mut driver),
            };
            prop_assert!(ran.is_ok(), "workload {it:?} failed: {:?}", ran.err());
        }
        let records = cvm.trace_records();
        prop_assert_eq!(cvm.hv.machine.tracer().dropped(), 0u64);
        if let Err(v) = invariants::check(&records) {
            return Err(format!("schedule {schedule:?}: {v}"));
        }
        prop_assert_eq!(EventCounters::from_records(&records), *cvm.hv.machine.tracer().counters());
        let total: u64 = cvm.domain_cycles().iter().sum();
        prop_assert_eq!(total, cvm.hv.machine.cycles().total());
        Ok(())
    });
}
