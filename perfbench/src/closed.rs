//! The three closed-loop workloads: one client, the next operation
//! issued when the previous one returns.
//!
//! Every repetition boots a fresh CVM (set-up, timed on its own), runs a
//! fixed amount of work through the public APIs (timed), and checks the
//! outputs. The inputs are the fixed ones `veil-workloads` and CS1 give
//! these programs, so every repetition replays the same model cycles;
//! the benchmark checks that it does.

use crate::calib::{Bracket, Loop};
use crate::probe::{ProbeDriver, Recorder};
use crate::report::{Clock, Report};
use crate::stats::{fingerprint, median, median_index, nearest_rank, peak_rss_mib, sorted};
use std::time::{Duration, Instant};
use veil_core::cvm::VENDOR_KEY;
use veil_hv::HvStats;
use veil_os::module::ModuleImage;
use veil_os::sys::{OpenFlags, Sys};
use veil_sdk::runtime::park_enclave;
use veil_sdk::{install_enclave, EnclaveBinary, EnclaveRuntime};
use veil_services::{Cvm, CvmBuilder};
use veil_snp::cost::{CostCategory, CycleDelta, CycleSnapshot};
use veil_workloads::compress::{lz77_decompress, GzipWorkload};
use veil_workloads::kvstore::UnqliteWorkload;
use veil_workloads::Workload;

/// Guest memory per CVM (32 MiB).
const FRAMES: u64 = 8192;
/// VeilS-LOG storage per CVM (8 MiB): room for every record of a
/// kv repetition with no refusal.
const LOG_FRAMES: u64 = 2048;
/// Inserts per enclave-kv-audited repetition.
const KV_ENTRIES: usize = 50_000;
/// Input per enclave-gzip repetition, compressed in 32 KiB chunks.
const GZIP_INPUT: usize = 4 << 20;
const GZIP_CHUNK: usize = 32 * 1024;
/// Load/unload pairs per kci-module-churn repetition.
const KCI_PAIRS: usize = 200;
/// The CS1 module: 24 KiB of signed text.
const KCI_MODULE_LEN: usize = 6 * 4096 - 512;
const KCI_MODULE: &str = "perfbench_cs1";
/// Repetitions every run makes, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// The closed-loop workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Closed {
    /// `UnqliteWorkload` in the enclave, every `pwrite` audited to VeilS-LOG.
    KvAudited,
    /// `GzipWorkload` in the enclave, no auditing.
    Gzip,
    /// Signed-module load/unload pairs under VeilS-KCI.
    KciChurn,
}

/// Event tracing and metrics collection of the CVM under test.
#[derive(Debug, Clone, Copy)]
struct Obs {
    trace: bool,
    metrics: bool,
}

const OBS_OFF: Obs = Obs { trace: false, metrics: false };
const OBS_TRACE: Obs = Obs { trace: true, metrics: false };
const OBS_METRICS: Obs = Obs { trace: false, metrics: true };

/// Boots the CVM with every configuration switch pinned.
fn boot(w: Closed, obs: Obs) -> Cvm {
    let mut cvm = CvmBuilder::new()
        .frames(FRAMES)
        .vcpus(1)
        .log_frames(LOG_FRAMES)
        .kci(true)
        .trace(obs.trace)
        .metrics(obs.metrics)
        .batch(true)
        .attest(false)
        .build()
        .expect("boot");
    if w == Closed::KvAudited {
        cvm.kernel.audit.mode = veil_os::audit::AuditMode::VeilLog;
        cvm.kernel.audit.rules = veil_os::audit::paper_ruleset();
        cvm.kernel.audit.rules.insert(veil_os::syscall::Sysno::Pwrite64);
        cvm.kernel.audit.rules.insert(veil_os::syscall::Sysno::Pread64);
    }
    cvm
}

/// Layer counters read from outside the program.
#[derive(Debug, Clone, Copy)]
struct Counters {
    cycles: CycleSnapshot,
    hv: HvStats,
    gate_requests: u64,
    deferred_errors: u64,
    log_records: u64,
    log_used: u64,
    log_dropped: u64,
    audit_failures: u64,
    crossings: u64,
    bytes_copied: u64,
    kci_loads: u64,
    kci_unloads: u64,
}

impl Counters {
    fn read(cvm: &Cvm, rt: Option<&EnclaveRuntime>) -> Counters {
        let log = &cvm.gate.services.log;
        Counters {
            cycles: cvm.hv.machine.cycles().snapshot(),
            hv: cvm.hv.stats(),
            gate_requests: cvm.gate.gate_requests(),
            deferred_errors: cvm.gate.deferred_errors(),
            log_records: log.record_count(),
            log_used: log.used(),
            log_dropped: log.dropped,
            audit_failures: cvm.kernel.audit_failures,
            crossings: rt.map_or(0, |rt| rt.stats.crossings),
            bytes_copied: rt.map_or(0, |rt| rt.stats.bytes_copied),
            kci_loads: cvm.gate.services.kci.loads,
            kci_unloads: cvm.gate.services.kci.unloads,
        }
    }
}

/// What changed in each layer over one repetition's measured work.
#[derive(Debug, Clone, Copy)]
struct Layer {
    cycles: CycleDelta,
    vmgexits: u64,
    domain_switches: u64,
    doorbells: u64,
    page_state_changes: u64,
    gate_requests: u64,
    deferred_errors: u64,
    log_records: u64,
    log_bytes: u64,
    log_dropped: u64,
    audit_failures: u64,
    crossings: u64,
    bytes_copied: u64,
    kci_loads: u64,
    kci_unloads: u64,
}

impl Layer {
    fn since(cvm: &Cvm, rt: Option<&EnclaveRuntime>, b: &Counters) -> Layer {
        let a = Counters::read(cvm, rt);
        Layer {
            cycles: cvm.hv.machine.cycles().since(&b.cycles),
            vmgexits: a.hv.vmgexits - b.hv.vmgexits,
            domain_switches: a.hv.domain_switches - b.hv.domain_switches,
            doorbells: a.hv.doorbells - b.hv.doorbells,
            page_state_changes: a.hv.page_state_changes - b.hv.page_state_changes,
            gate_requests: a.gate_requests - b.gate_requests,
            deferred_errors: a.deferred_errors - b.deferred_errors,
            log_records: a.log_records - b.log_records,
            log_bytes: a.log_used - b.log_used,
            log_dropped: a.log_dropped - b.log_dropped,
            audit_failures: a.audit_failures - b.audit_failures,
            crossings: a.crossings - b.crossings,
            bytes_copied: a.bytes_copied - b.bytes_copied,
            kci_loads: a.kci_loads - b.kci_loads,
            kci_unloads: a.kci_unloads - b.kci_unloads,
        }
    }

    /// Refused operations: a refused log append surfaces as a deferred
    /// error (batched path) or an audit failure (serial path), and is
    /// also counted by VeilS-LOG, so the larger view is taken.
    fn refusals(&self) -> u64 {
        (self.deferred_errors + self.audit_failures).max(self.log_dropped)
    }
}

/// One repetition.
struct Rep {
    boot_ns: u64,
    install_ns: u64,
    run_ns: u64,
    ops: u64,
    failed: u64,
    model_cycles: u64,
    op_cycles: Vec<u64>,
    checksum: u64,
    layer: Layer,
    rec: Recorder,
    /// Host ns to reference ns for this repetition (see `calib`).
    scale: f64,
}

impl Rep {
    fn ns_per_op(&self) -> f64 {
        self.run_ns as f64 / self.ops.max(1) as f64
    }

    /// The identity every repetition of a workload must share.
    fn identity(&self) -> (u64, u64, u64, u64) {
        (self.ops, self.model_cycles, fingerprint(&self.op_cycles), self.checksum)
    }
}

fn nanos(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

fn enclave_rep(w: Closed, obs: Obs, timed: bool, verify: bool, report: &mut Report) -> Rep {
    let t = Instant::now();
    let mut cvm = boot(w, obs);
    let pid = cvm.spawn();
    let boot_ns = nanos(t);
    let t = Instant::now();
    let binary = EnclaveBinary::build("perfbench", 16 * 1024, 8 * 1024).with_heap_pages(32);
    let handle = install_enclave(&mut cvm, pid, &binary).expect("enclave install");
    let mut rt = EnclaveRuntime::new(handle);
    let install_ns = nanos(t);

    let (mut workload, marker): (Box<dyn Workload>, &'static str) = match w {
        Closed::KvAudited => (Box::new(UnqliteWorkload { entries: KV_ENTRIES }), "pwrite"),
        Closed::Gzip => {
            (Box::new(GzipWorkload { input_len: GZIP_INPUT, chunk: GZIP_CHUNK }), "write")
        }
        Closed::KciChurn => unreachable!("kci churn runs no enclave"),
    };
    let before = Counters::read(&cvm, Some(&rt));
    let mut rec = Recorder::new(timed);
    let t = Instant::now();
    let result =
        workload.run(&mut ProbeDriver { cvm: &mut cvm, rt: &mut rt, rec: &mut rec, marker });
    let flushed = cvm.flush_gate();
    let run_ns = nanos(t);
    let layer = Layer::since(&cvm, Some(&rt), &before);

    let ops = rec.op_cycles.len() as u64;
    let errs =
        u64::from(result.is_err()) + u64::from(flushed.is_err()) + u64::from(rt.stats.killed);
    let stats = result.unwrap_or_default();
    report.check(errs == 0, &format!("{w:?}: workload run failed"));
    report.check(stats.ops == ops, &format!("{w:?}: {} ops reported, {ops} marked", stats.ops));
    let expected_ops =
        if w == Closed::KvAudited { KV_ENTRIES } else { GZIP_INPUT.div_ceil(GZIP_CHUNK) } as u64;
    report.check(ops == expected_ops, &format!("{w:?}: {ops} ops, expected {expected_ops}"));
    if w == Closed::KvAudited {
        // Every gate request is an audit-log append: stored or refused.
        report.check(
            layer.log_records + layer.deferred_errors == layer.gate_requests,
            &format!(
                "{} log records + {} refused != {} gate requests",
                layer.log_records, layer.deferred_errors, layer.gate_requests
            ),
        );
    }
    if verify {
        verify_outputs(w, &mut cvm, &mut rt, report);
    }
    Rep {
        boot_ns,
        install_ns,
        run_ns,
        ops,
        failed: errs + layer.refusals(),
        model_cycles: layer.cycles.total(),
        op_cycles: std::mem::take(&mut rec.op_cycles),
        checksum: stats.checksum,
        layer,
        rec,
        scale: 1.0,
    }
}

/// The costlier output checks, made once per run.
fn verify_outputs(w: Closed, cvm: &mut Cvm, rt: &mut EnclaveRuntime, report: &mut Report) {
    match w {
        Closed::KvAudited => {
            let log = &cvm.gate.services.log;
            let parsed = log.parsed_records(&cvm.hv).map_or(0, |r| r.len() as u64);
            report.check(
                parsed == log.record_count(),
                &format!("{parsed} of {} log records parse as AuditRecord", log.record_count()),
            );
        }
        Closed::Gzip => {
            park_enclave(cvm, rt).expect("park enclave");
            let mut sys = cvm.sys(rt.handle.pid);
            let input = read_file(&mut sys, "/data/gzip.in");
            let output = read_file(&mut sys, "/data/gzip.out");
            report.check(input.len() == GZIP_INPUT, "gzip input length");
            report.check(
                lz77_decompress(&output).is_ok_and(|d| d == input),
                "gzip output decompresses to its input",
            );
        }
        Closed::KciChurn => {}
    }
}

fn read_file(sys: &mut dyn Sys, path: &str) -> Vec<u8> {
    let fd = sys.open(path, OpenFlags::rdonly()).expect("open for check");
    let mut out = Vec::new();
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let n = sys.read(fd, &mut buf).expect("read for check");
        if n == 0 {
            break;
        }
        out.extend_from_slice(&buf[..n]);
    }
    sys.close(fd).expect("close for check");
    out
}

fn kci_rep(obs: Obs, timed: bool, report: &mut Report) -> Rep {
    let t = Instant::now();
    let mut cvm = boot(Closed::KciChurn, obs);
    let boot_ns = nanos(t);
    let t = Instant::now();
    let image = ModuleImage::build_signed(KCI_MODULE, KCI_MODULE_LEN, &VENDOR_KEY);
    let install_ns = nanos(t);

    let before = Counters::read(&cvm, None);
    let mut rec = Recorder::new(timed);
    let mut errs = 0u64;
    let t = Instant::now();
    {
        let (kernel, mut ctx) = cvm.kctx();
        for _ in 0..KCI_PAIRS {
            let c0 = ctx.hv.machine.cycles().total();
            let span = timed.then(Instant::now);
            let loaded = kernel.load_module(&mut ctx, &image);
            let mid = timed.then(Instant::now);
            let unloaded = loaded.and_then(|()| kernel.unload_module(&mut ctx, KCI_MODULE));
            if let (Some(span), Some(mid)) = (span, mid) {
                rec.sys_ns.push((mid - span).as_nanos() as u64);
                rec.sys_ns.push(mid.elapsed().as_nanos() as u64);
            }
            rec.calls += 2;
            errs += u64::from(unloaded.is_err());
            rec.op_cycles.push(ctx.hv.machine.cycles().total() - c0);
        }
    }
    let flushed = cvm.flush_gate();
    let run_ns = nanos(t);
    if timed {
        rec.section_ns = run_ns;
    }
    errs += u64::from(flushed.is_err());
    let layer = Layer::since(&cvm, None, &before);

    report.check(errs == 0, "kci: module load/unload failed");
    report.check(cvm.gate.services.kci.installed_count() == 0, "kci: modules left installed");
    report.check(cvm.hv.machine.halted().is_none(), "kci: machine halted");
    report.check(
        layer.kci_loads == KCI_PAIRS as u64 && layer.kci_unloads == KCI_PAIRS as u64,
        &format!("kci: {} loads / {} unloads", layer.kci_loads, layer.kci_unloads),
    );
    Rep {
        boot_ns,
        install_ns,
        run_ns,
        ops: KCI_PAIRS as u64,
        failed: errs + layer.refusals(),
        model_cycles: layer.cycles.total(),
        op_cycles: std::mem::take(&mut rec.op_cycles),
        checksum: 0,
        layer,
        rec,
        scale: 1.0,
    }
}

fn rep(w: Closed, obs: Obs, timed: bool, verify: bool, report: &mut Report) -> Rep {
    match w {
        Closed::KciChurn => kci_rep(obs, timed, report),
        _ => enclave_rep(w, obs, timed, verify, report),
    }
}

/// Repetitions of one kind, reduced to what the metrics need.
#[derive(Default)]
struct Series {
    /// Reference ns per op of each repetition.
    ns_per_op: Vec<f64>,
    /// Host ns per op of each repetition, unscaled.
    raw_ns_per_op: Vec<f64>,
    /// The timed repetitions, kept whole.
    reps: Vec<Rep>,
}

/// What a run of rounds leaves for the metrics.
struct Rounds {
    series: Vec<Series>,
    /// Reference ms of each repetition's boot and install.
    boot_ms: Vec<f64>,
    install_ms: Vec<f64>,
    first: Rep,
    /// Median host slowdown (see `calib`).
    slowdown: f64,
    /// `VmHWM` after the first repetition.
    rss_mib: f64,
}

/// Runs rounds of `kinds` (one repetition of each, in turn) until
/// `seconds` have passed, checking that every repetition replays the
/// first one's model cycles.
fn rounds(w: Closed, kinds: &[(Obs, bool)], seconds: f64, report: &mut Report) -> Rounds {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut series: Vec<Series> = kinds.iter().map(|_| Series::default()).collect();
    let (mut boot_ms, mut install_ms) = (Vec::new(), Vec::new());
    let mut first: Option<Rep> = None;
    let mut bracket = Bracket::new(Loop::Table);
    let mut rss_mib = 0.0;
    let mut round = 0usize;
    while round < MIN_REPS || Instant::now() < deadline {
        for (k, &(obs, timed)) in kinds.iter().enumerate() {
            let mut r = rep(w, obs, timed, first.is_none(), report);
            r.scale = bracket.scale();
            report.attempted += r.ops;
            report.failed += r.failed;
            boot_ms.push(r.boot_ns as f64 * r.scale / 1e6);
            install_ms.push(r.install_ns as f64 * r.scale / 1e6);
            series[k].ns_per_op.push(r.ns_per_op() * r.scale);
            series[k].raw_ns_per_op.push(r.ns_per_op());
            match &first {
                None => {
                    first = Some(r);
                    rss_mib = peak_rss_mib();
                }
                Some(f) => {
                    report.check(
                        r.identity() == f.identity(),
                        &format!("{w:?}: repetition {round} changed model cycles or output"),
                    );
                    if timed {
                        series[k].reps.push(r);
                    }
                }
            }
        }
        round += 1;
    }
    Rounds {
        series,
        boot_ms,
        install_ms,
        first: first.expect("at least one repetition"),
        slowdown: median(&bracket.slowdowns),
        rss_mib,
    }
}

/// The untraced run: end-to-end metrics.
pub fn run_untraced(w: Closed, seconds: f64, report: &mut Report) {
    let Rounds { series, boot_ms, install_ms, first, slowdown, rss_mib } =
        rounds(w, &[(OBS_OFF, false)], seconds, report);
    let setup_s: Vec<f64> = boot_ms.iter().zip(&install_ms).map(|(b, i)| (b + i) / 1e3).collect();
    let lat = sorted(&first.op_cycles);
    report.put("host_ns_per_op", median(&series[0].ns_per_op), "ns", Clock::Host);
    report.put(
        "model_cycles_per_op",
        first.model_cycles as f64 / first.ops as f64,
        "cycles",
        Clock::Model,
    );
    report.put("latency_p50_cycles", nearest_rank(&lat, 50.0) as f64, "cycles", Clock::Model);
    report.put("latency_p99_cycles", nearest_rank(&lat, 99.0) as f64, "cycles", Clock::Model);
    report.put("latency_p999_cycles", nearest_rank(&lat, 99.9) as f64, "cycles", Clock::Model);
    report.put("latency_samples", lat.len() as f64, "count", Clock::Count);
    report.put("setup_s", median(&setup_s), "s", Clock::Host);
    report.put("peak_rss_mib", rss_mib, "MiB", Clock::Host);
    report.put("repetitions", series[0].ns_per_op.len() as f64, "count", Clock::Count);
    report.put("host_ns_per_op_unscaled", median(&series[0].raw_ns_per_op), "ns", Clock::Host);
    report.put("calibration_slowdown", slowdown, "ratio", Clock::Host);
    report.put(
        "failed_op_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
        Clock::Count,
    );
}

/// Trace-on and metrics-on host cost over off, in reference ns per op,
/// from interleaved repetitions of `w`.
pub fn observability_overhead(w: Closed, seconds: f64, report: &mut Report) -> (f64, f64) {
    let kinds = [(OBS_OFF, false), (OBS_TRACE, false), (OBS_METRICS, false)];
    let series = rounds(w, &kinds, seconds, report).series;
    let off = median(&series[0].ns_per_op);
    (median(&series[1].ns_per_op) - off, median(&series[2].ns_per_op) - off)
}

/// The traced run: per-layer metrics.
pub fn run_traced(w: Closed, seconds: f64, report: &mut Report) {
    // Untraced, span-timed, trace-on and metrics-on repetitions in turn.
    let kinds = [(OBS_OFF, false), (OBS_OFF, true), (OBS_TRACE, false), (OBS_METRICS, false)];
    let Rounds { series, boot_ms, install_ms, .. } = rounds(w, &kinds, seconds, report);
    let plain = median(&series[0].ns_per_op);
    // The span breakdown comes from the median span-timed repetition, so
    // its parts add up to that repetition's time.
    let r = &series[1].reps[median_index(&series[1].ns_per_op)];
    let traced = r.ns_per_op() * r.scale;
    let host = |ns: u64| ns as f64 * r.scale;
    let ops = r.ops as f64;
    let l = &r.layer;
    let per_op = |v: u64| v as f64 / ops;
    let cyc = |c: CostCategory| l.cycles.of(c) as f64 / ops;

    report.put("snp.rmpadjust_cycles_per_op", cyc(CostCategory::Rmpadjust), "cycles", Clock::Model);
    report.put("snp.pvalidate_cycles_per_op", cyc(CostCategory::Pvalidate), "cycles", Clock::Model);
    report.put(
        "snp.page_state_changes_per_op",
        per_op(l.page_state_changes),
        "count",
        Clock::Count,
    );
    report.put("hv.vmgexits_per_op", per_op(l.vmgexits), "count", Clock::Count);
    report.put("hv.domain_switches_per_op", per_op(l.domain_switches), "count", Clock::Count);
    report.put("hv.doorbells_per_op", per_op(l.doorbells), "count", Clock::Count);
    report.put(
        "hv.domain_switch_cycles_per_op",
        cyc(CostCategory::DomainSwitch),
        "cycles",
        Clock::Model,
    );
    report.put(
        "hv.enclave_exit_cycles_per_op",
        cyc(CostCategory::EnclaveExit),
        "cycles",
        Clock::Model,
    );
    report.put("core.gate_requests_per_op", per_op(l.gate_requests), "count", Clock::Count);
    let per_doorbell =
        if l.doorbells == 0 { 0.0 } else { l.gate_requests as f64 / l.doorbells as f64 };
    report.put("core.requests_per_doorbell", per_doorbell, "count", Clock::Count);
    report.put("core.deferred_errors", l.deferred_errors as f64, "count", Clock::Count);
    report.put("os.syscalls_per_op", per_op(r.rec.calls), "count", Clock::Count);
    report.put(
        "os.kernel_service_cycles_per_op",
        cyc(CostCategory::KernelService),
        "cycles",
        Clock::Model,
    );
    report.put("os.audit_failures", l.audit_failures as f64, "count", Clock::Count);
    let sys_ns = sorted(&r.rec.sys_ns);
    let sys_total = r.rec.sys_total_ns();
    report.put("os.syscall_ns_per_op", host(sys_total) / ops, "ns", Clock::Host);
    report.put("os.syscall_ns_p50", host(nearest_rank(&sys_ns, 50.0)), "ns", Clock::Host);
    report.put("os.syscall_ns_p99", host(nearest_rank(&sys_ns, 99.0)), "ns", Clock::Host);
    report.put("sdk.crossings_per_op", per_op(l.crossings), "count", Clock::Count);
    report.put("sdk.bytes_copied_per_op", per_op(l.bytes_copied), "B", Clock::Count);
    report.put(
        "sdk.syscall_copy_cycles_per_op",
        cyc(CostCategory::SyscallCopy),
        "cycles",
        Clock::Model,
    );
    report.put("sdk.enter_exit_ns_per_op", host(r.rec.sdk_ns) / ops, "ns", Clock::Host);
    report.put("services.log_records_per_op", per_op(l.log_records), "count", Clock::Count);
    report.put("services.log_bytes_per_op", per_op(l.log_bytes), "B", Clock::Count);
    report.put(
        "services.audit_log_cycles_per_op",
        cyc(CostCategory::AuditLog),
        "cycles",
        Clock::Model,
    );
    report.put("services.log_dropped", l.log_dropped as f64, "count", Clock::Count);
    report.put(
        "workloads.compute_cycles_per_op",
        cyc(CostCategory::Compute),
        "cycles",
        Clock::Model,
    );
    let compute_ns = r.rec.section_ns.saturating_sub(sys_total);
    report.put("workloads.compute_ns_per_op", host(compute_ns) / ops, "ns", Clock::Host);
    for name in [
        "fleet.service_cycles_per_req",
        "fleet.queue_wait_cycles_per_req",
        "fleet.relay_cycles_per_req",
        "fleet.batch_stall_cycles_per_req",
    ] {
        report.put(name, 0.0, "cycles", Clock::Model);
    }
    report.put("fleet.utilization", 0.0, "ratio", Clock::Model);
    report.put("fleet.slo_miss_ratio", 0.0, "ratio", Clock::Model);
    report.put("trace.overhead_ns_per_op", median(&series[2].ns_per_op) - plain, "ns", Clock::Host);
    report.put(
        "metrics.overhead_ns_per_op",
        median(&series[3].ns_per_op) - plain,
        "ns",
        Clock::Host,
    );
    report.put("setup.boot_ms", median(&boot_ms), "ms", Clock::Host);
    report.put("setup.install_ms", median(&install_ms), "ms", Clock::Host);
    report.put("bench.traced_host_ns_per_op", traced, "ns", Clock::Host);
    let attributed = r.rec.section_ns + r.rec.sdk_ns;
    report.put(
        "bench.unattributed_ns_per_op",
        host(r.run_ns.saturating_sub(attributed)) / ops,
        "ns",
        Clock::Host,
    );
    report.put("bench.span_overhead_pct", (traced / plain - 1.0) * 100.0, "%", Clock::Host);
}
