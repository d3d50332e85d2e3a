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
//! * disabling tracing records nothing and changes no behavior;
//! * the digest's record encoding round-trips through a reference
//!   decoder and is injective, so no two streams share a digest input.

use veil::prelude::*;
use veil::trace::{invariants, Event, EventCounters, Record, Tracer};
use veil_crypto::sha256::Sha256;
use veil_os::audit::{paper_ruleset, AuditMode};
use veil_os::syscall::Sysno;
use veil_sdk::{install_enclave, EnclaveBinary, EnclaveRuntime, EnclaveSys};
use veil_snp::cost::CostCategory;
use veil_testkit::{prop, prop_assert, prop_assert_eq, Strategy, TestRng};
use veil_workloads::driver::{EnclaveDriver, KernelDriver};
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

/// The path perfbench's enclave-kv-audited times: UnQLite in an enclave,
/// every `pwrite` audited to VeilS-LOG over the batched gate. With trace
/// and metrics each off or on, the always-on fold must still see every
/// event (including the audit, ring and redirect events `HvStats` has no
/// field for), and the run must charge the same cycles and store the same
/// log records.
#[test]
fn observability_off_still_folds_every_event() {
    let run = |trace: bool, metrics: bool| {
        let mut cvm = CvmBuilder::new()
            .frames(4096)
            .vcpus(1)
            .log_frames(64)
            .kci(true)
            .trace(trace)
            .metrics(metrics)
            .batch(true)
            .attest(false)
            .build()
            .unwrap();
        cvm.kernel.audit.mode = AuditMode::VeilLog;
        cvm.kernel.audit.rules = paper_ruleset();
        cvm.kernel.audit.rules.insert(Sysno::Pwrite64);
        cvm.kernel.audit.rules.insert(Sysno::Pread64);
        let pid = cvm.spawn();
        let binary = EnclaveBinary::build("twin", 16 * 1024, 8 * 1024).with_heap_pages(32);
        let handle = install_enclave(&mut cvm, pid, &binary).unwrap();
        let mut rt = EnclaveRuntime::new(handle);
        UnqliteWorkload { entries: 40 }
            .run(&mut EnclaveDriver { cvm: &mut cvm, rt: &mut rt })
            .unwrap();
        cvm.flush_gate().unwrap();
        cvm
    };
    let twins = [(false, false), (true, false), (false, true), (true, true)]
        .map(|(trace, metrics)| ((trace, metrics), run(trace, metrics)));
    let cycles = |cvm: &Cvm| CostCategory::ALL.map(|c| cvm.hv.machine.cycles().of(c));
    let (_, base) = &twins[0];
    let counters = *base.hv.machine.tracer().counters();
    assert!(counters.audit_appends >= 40, "one audit record per insert: {counters:?}");
    assert!(counters.ring_enqueues >= 40 && counters.syscall_redirects >= 40, "{counters:?}");
    let records = base.gate.services.log.parsed_records(&base.hv).unwrap();
    assert_eq!(records.len() as u64, base.gate.services.log.record_count());
    assert!(records.iter().any(|r| r.sysno == Sysno::Pwrite64));
    for ((trace, metrics), cvm) in &twins {
        let twin = format!("trace {trace}, metrics {metrics}");
        assert_eq!(*cvm.hv.machine.tracer().counters(), counters, "{twin}: counters");
        assert_eq!(cvm.hv.machine.cycles().total(), base.hv.machine.cycles().total(), "{twin}");
        assert_eq!(cycles(cvm), cycles(base), "{twin}: cycles by category");
        assert_eq!(cvm.domain_cycles(), base.domain_cycles(), "{twin}: domain cycles");
        assert_eq!(cvm.gate.services.log.parsed_records(&cvm.hv).unwrap(), records, "{twin}");
        if *metrics {
            assert_eq!(cvm.metrics().event_counters(), &counters, "{twin}: registry fold");
        }
    }
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
        let mut driver = KernelDriver { cvm: &mut cvm, pid };
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

// ---- the digest encoding: round trip, hostile bytes, injectivity -------
//
// A reference decoder for the bytes `Tracer::digest` hashes, kept here
// because nothing in the library reads them back. Per record:
// `LEB128(cycles - prev_cycles) || tag || fields`, a `u8` raw, a `bool`
// one byte 0 or 1, every `u32`/`u64` canonical unsigned LEB128.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DecodeError {
    Truncated,
    UnknownTag(u8),
    /// A varint with a redundant zero final group.
    NonCanonicalVarint,
    /// A varint past ten bytes, or carrying more than 64 bits.
    OverlongVarint,
    U32Overflow(u64),
    BadBool(u8),
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self.bytes.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(DecodeError::BadBool(b)),
        }
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err(DecodeError::OverlongVarint);
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return if b == 0 && shift > 0 {
                    Err(DecodeError::NonCanonicalVarint)
                } else {
                    Ok(v)
                };
            }
        }
        Err(DecodeError::OverlongVarint)
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let v = self.u64()?;
        u32::try_from(v).map_err(|_| DecodeError::U32Overflow(v))
    }
}

/// Decodes a digest input back into `(cycles, event)` pairs. Struct
/// fields evaluate in source order, which is declaration order here.
fn decode(bytes: &[u8]) -> Result<Vec<(u64, Event)>, DecodeError> {
    let mut r = Reader { bytes, pos: 0 };
    let mut cycles = 0u64;
    let mut stream = Vec::new();
    while r.pos < bytes.len() {
        cycles = cycles.wrapping_add(r.u64()?);
        let event = match r.u8()? {
            0 => Event::RmpTransition { gfn: r.u64()?, to_private: r.bool()? },
            1 => Event::Pvalidate { vmpl: r.u8()?, gfn: r.u64()?, validate: r.bool()? },
            2 => Event::RmpAdjust {
                executing: r.u8()?,
                target: r.u8()?,
                gfn: r.u64()?,
                perms: r.u8()?,
                executing_perms: r.u8()?,
            },
            3 => Event::VmgExit {
                vcpu: r.u32()?,
                vmpl: r.u8()?,
                code: r.u64()?,
                user_ghcb: r.bool()?,
                automatic: r.bool()?,
            },
            4 => Event::VmEnter { vcpu: r.u32()?, vmpl: r.u8()? },
            5 => Event::DomainSwitch {
                vcpu: r.u32()?,
                from: r.u8()?,
                to: r.u8()?,
                user_ghcb: r.bool()?,
                automatic: r.bool()?,
            },
            6 => Event::NestedPageFault { gfn: r.u64()?, vmpl: r.u8()? },
            7 => Event::SyscallRedirect { vcpu: r.u32()?, pid: r.u32()?, sysno: r.u32()? },
            8 => Event::AuditAppend { pid: r.u32()?, sysno: r.u32()? },
            9 => Event::ChannelHandshake { step: r.u8()? },
            10 => Event::ModuleLoad { pages: r.u32()?, protected: r.bool()?, load: r.bool()? },
            11 => Event::Doorbell { vcpu: r.u32()?, target: r.u8()?, depth: r.u32()? },
            12 => Event::ReqDispatch {
                tenant: r.u64()?,
                req: r.u64()?,
                arrival: r.u64()?,
                start: r.u64()?,
            },
            13 => Event::ReqComplete { tenant: r.u64()?, req: r.u64()? },
            14 => Event::RingEnqueue {
                vcpu: r.u32()?,
                target: r.u8()?,
                depth: r.u32()?,
                tenant: r.u64()?,
                req: r.u64()?,
            },
            15 => Event::DeferredError { vcpu: r.u32()?, count: r.u32()? },
            tag => return Err(DecodeError::UnknownTag(tag)),
        };
        stream.push((cycles, event));
    }
    Ok(stream)
}

/// The library encoding of a stream; `seq` varies but must not show.
fn encode(stream: &[(u64, Event)]) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut prev = 0;
    for (seq, &(cycles, event)) in stream.iter().enumerate() {
        Record { seq: seq as u64 * 3 + 1, cycles, event }.encode_into(prev, &mut bytes);
        prev = cycles;
    }
    bytes
}

/// An integer field: a LEB128 length boundary, a width extreme, or a
/// random value of random bit width.
fn wide(rng: &mut TestRng) -> u64 {
    const EDGES: [u64; 9] = [0, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, 1 << 63, u64::MAX];
    match rng.below(EDGES.len() as u64 + 1) as usize {
        i if i < EDGES.len() => EDGES[i],
        _ => rng.next_u64() >> rng.below(64),
    }
}

/// A `u32` field, drawn like [`wide`] and saturated.
fn narrow(rng: &mut TestRng) -> u32 {
    u32::try_from(wide(rng)).unwrap_or(u32::MAX)
}

fn byte(rng: &mut TestRng) -> u8 {
    rng.next_u64() as u8
}

fn any_event(rng: &mut TestRng) -> Event {
    match rng.below(16) {
        0 => Event::RmpTransition { gfn: wide(rng), to_private: rng.gen_bool() },
        1 => Event::Pvalidate { vmpl: byte(rng), gfn: wide(rng), validate: rng.gen_bool() },
        2 => Event::RmpAdjust {
            executing: byte(rng),
            target: byte(rng),
            gfn: wide(rng),
            perms: byte(rng),
            executing_perms: byte(rng),
        },
        3 => Event::VmgExit {
            vcpu: narrow(rng),
            vmpl: byte(rng),
            code: wide(rng),
            user_ghcb: rng.gen_bool(),
            automatic: rng.gen_bool(),
        },
        4 => Event::VmEnter { vcpu: narrow(rng), vmpl: byte(rng) },
        5 => Event::DomainSwitch {
            vcpu: narrow(rng),
            from: byte(rng),
            to: byte(rng),
            user_ghcb: rng.gen_bool(),
            automatic: rng.gen_bool(),
        },
        6 => Event::NestedPageFault { gfn: wide(rng), vmpl: byte(rng) },
        7 => Event::SyscallRedirect { vcpu: narrow(rng), pid: narrow(rng), sysno: narrow(rng) },
        8 => Event::AuditAppend { pid: narrow(rng), sysno: narrow(rng) },
        9 => Event::ChannelHandshake { step: byte(rng) },
        10 => Event::ModuleLoad {
            pages: narrow(rng),
            protected: rng.gen_bool(),
            load: rng.gen_bool(),
        },
        11 => Event::Doorbell { vcpu: narrow(rng), target: byte(rng), depth: narrow(rng) },
        12 => Event::ReqDispatch {
            tenant: wide(rng),
            req: wide(rng),
            arrival: wide(rng),
            start: wide(rng),
        },
        13 => Event::ReqComplete { tenant: wide(rng), req: wide(rng) },
        14 => Event::RingEnqueue {
            vcpu: narrow(rng),
            target: byte(rng),
            depth: narrow(rng),
            tenant: wide(rng),
            req: wide(rng),
        },
        _ => Event::DeferredError { vcpu: narrow(rng), count: narrow(rng) },
    }
}

/// Random event streams over all 16 tags, as `(cycle step, event)`
/// pairs so that shrinking can drop records. Timestamps mostly rise by
/// steps of varied magnitude; about one record in eight jumps to a
/// random time, which is earlier than its predecessor half the time.
fn streams() -> Strategy<Vec<(u64, Event)>> {
    let step = Strategy::from_fn(|rng: &mut TestRng| match rng.below(8) {
        0 => rng.next_u64(),
        _ => {
            let bits = rng.below(40);
            rng.below(1 << bits)
        }
    });
    prop::tuple2(step, Strategy::from_fn(any_event)).vec_of(0..48)
}

/// Turns `(cycle step, event)` pairs into `(cycles, event)` records.
fn timestamped(steps: &[(u64, Event)]) -> Vec<(u64, Event)> {
    let mut cycles = 0u64;
    steps
        .iter()
        .map(|&(step, event)| {
            cycles = cycles.wrapping_add(step);
            (cycles, event)
        })
        .collect()
}

#[test]
fn trace_encoding_round_trips_and_is_what_the_digest_hashes() {
    prop::check("trace_encoding_round_trip", 256, &streams(), |steps| {
        let stream = timestamped(&steps);
        let bytes = encode(&stream);
        prop_assert_eq!(decode(&bytes), Ok(stream.clone()));
        let expected = Sha256::digest(&bytes);
        // A ring that holds the whole stream, and one that wraps: the
        // digest covers every record either way.
        for capacity in [stream.len().max(1), 2] {
            let mut tracer = Tracer::with_capacity(capacity);
            tracer.set_enabled(true);
            for &(cycles, event) in &stream {
                tracer.record(cycles, event);
            }
            prop_assert_eq!(tracer.digest(), expected);
        }
        Ok(())
    });
}

/// Random bytes, truncations and single-byte mutations of valid
/// encodings never panic the decoder, and whatever it accepts re-encodes
/// to the same bytes. With the round trip above, decode is a left
/// inverse of encode on every stream and encode is a right inverse on
/// every accepted input: the encoding is injective, so two different
/// streams never share a digest input.
#[test]
fn hostile_trace_bytes_are_refused_or_reencode_exactly() {
    let valid = || streams().map(|steps| encode(&timestamped(&steps)));
    let hostile = prop::one_of(vec![
        prop::bytes(0..64),
        prop::tuple2(valid(), prop::u64s(0..u64::MAX)).map(|(mut b, at)| {
            b.truncate((at % (b.len() as u64 + 1)) as usize);
            b
        }),
        prop::tuple3(valid(), prop::u64s(0..u64::MAX), prop::any_u8()).map(|(mut b, at, x)| {
            if !b.is_empty() {
                let i = (at % b.len() as u64) as usize;
                b[i] ^= x.max(1);
            }
            b
        }),
    ]);
    prop::check("hostile_trace_bytes", 512, &hostile, |bytes| {
        if let Ok(stream) = decode(&bytes) {
            prop_assert_eq!(encode(&stream), bytes);
        }
        Ok(())
    });
}
