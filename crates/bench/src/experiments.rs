//! Experiment implementations, one per paper table/figure.

use veil_core::cvm::NativeCvm;
use veil_os::audit::AuditMode;
use veil_os::module::ModuleImage;
use veil_os::sys::{OpenFlags, Sys};
use veil_sdk::{install_enclave, EnclaveBinary, EnclaveRuntime, EnclaveSys};
use veil_services::{Cvm, CvmBuilder};
use veil_snp::cost::{CostCategory, CLOCK_HZ};
use veil_snp::ghcb::{Ghcb, GhcbExit};
use veil_snp::perms::Vmpl;
use veil_workloads::driver::{Driver, EnclaveDriver, KernelDriver};
use veil_workloads::{
    compress::{GzipWorkload, SevenZipWorkload},
    http::HttpWorkload,
    kvstore::UnqliteWorkload,
    mbedtls::MbedtlsWorkload,
    memcached::MemcachedWorkload,
    minidb::{SqliteSpeedtestWorkload, SqliteWorkload},
    openssl::OpensslWorkload,
    spec_cpu::SpecCpuWorkload,
    Workload,
};

/// Standard machine geometry for experiments.
pub const BENCH_FRAMES: u64 = 8192;

// The paper's figures measure the serial Fig. 3 gate protocol, so every
// paper-reproduction experiment pins batching off; the batched gate path
// is evaluated separately: `tests/batch_differential.rs` holds its model
// cycles and switch counts against the serial protocol, and perfbench's
// enclave-kv-audited workload measures its host time.
fn veil_cvm() -> Cvm {
    CvmBuilder::new()
        .frames(BENCH_FRAMES)
        .vcpus(1)
        .log_frames(1024)
        .batch(false)
        .build()
        .expect("veil boot")
}

fn native_cvm() -> NativeCvm {
    CvmBuilder::new()
        .frames(BENCH_FRAMES)
        .vcpus(1)
        .log_frames(1024)
        .build_native()
        .expect("native boot")
}

// ====================================================================
// §9.1 — initialization time
// ====================================================================

/// The paper's native CVM boot takes ~15.4 s (derivable from "+2 s is a
/// 13% increase"); our model only simulates the memory-acceptance phase,
/// so percentage comparisons use this measured full-boot reference.
pub const PAPER_NATIVE_BOOT_SECONDS: f64 = 15.4;

/// Result of the boot-time experiment.
#[derive(Debug, Clone, Copy)]
pub struct BootTime {
    /// Guest frames booted.
    pub frames: u64,
    /// Native SNP memory-acceptance cycles (validation only).
    pub native_cycles: u64,
    /// Veil boot cycles (validation + domain protection + replication).
    pub veil_cycles: u64,
    /// Fraction of the Veil boot spent in `RMPADJUST`.
    pub rmpadjust_share: f64,
    /// The Veil-minus-native delta extrapolated to the paper's 2 GB
    /// guest, in seconds.
    pub extrapolated_2gb_seconds: f64,
}

impl BootTime {
    /// Veil's boot-time increase as a fraction of the paper's full
    /// native CVM boot (the paper's +13% comparison).
    pub fn increase_over_full_boot(&self) -> f64 {
        self.extrapolated_2gb_seconds / PAPER_NATIVE_BOOT_SECONDS
    }
}

/// §9.1 "Initialization time": boots a native and a Veil CVM of the same
/// geometry and compares one-time costs. Paper: +~2 s on 2 GB (+13%),
/// >70% in `RMPADJUST`.
pub fn boot_time(frames: u64) -> BootTime {
    let native = CvmBuilder::new().frames(frames).vcpus(4).build_native().expect("native");
    let veil = CvmBuilder::new().frames(frames).vcpus(4).batch(false).build().expect("veil");
    let rmp_cycles = veil.hv.machine.cycles().of(CostCategory::Rmpadjust);
    let delta = veil.boot_cycles.saturating_sub(native.boot_cycles);
    // Per-frame delta × 2 GB worth of frames.
    let frames_2gb = (2u64 << 30) / 4096;
    let per_frame = delta as f64 / frames as f64;
    BootTime {
        frames,
        native_cycles: native.boot_cycles,
        veil_cycles: veil.boot_cycles,
        rmpadjust_share: rmp_cycles as f64 / veil.boot_cycles as f64,
        extrapolated_2gb_seconds: per_frame * frames_2gb as f64 / CLOCK_HZ as f64,
    }
}

// ====================================================================
// §9.1 — domain switch cost
// ====================================================================

/// Result of the domain-switch microbenchmark.
#[derive(Debug, Clone, Copy)]
pub struct SwitchCost {
    /// Round trips performed.
    pub iterations: u64,
    /// Average cycles per hypervisor-relayed switch (one direction).
    pub switch_cycles: u64,
    /// A plain `VMCALL` exit on a non-SNP VM (the paper's baseline).
    pub vmcall_cycles: u64,
}

/// §9.1 "Domain switch cost": 10,000 OS↔VeilMon switches. Paper: 7,135
/// cycles per switch vs ~1,100 for a plain VMCALL.
pub fn domain_switch(iterations: u64) -> SwitchCost {
    let mut cvm = veil_cvm();
    let ghcb_gfn = cvm.hv.machine.ghcb_msr(0).expect("kernel ghcb");
    let ghcb = Ghcb::at(&cvm.hv.machine, ghcb_gfn).expect("shared");
    let snap = cvm.hv.machine.cycles().snapshot();
    for _ in 0..iterations {
        ghcb.write_request(&mut cvm.hv.machine, Vmpl::Vmpl3, GhcbExit::DomainSwitch, 0, 0)
            .expect("request");
        cvm.hv.vmgexit(0, false).expect("switch to mon");
        ghcb.write_request(&mut cvm.hv.machine, Vmpl::Vmpl0, GhcbExit::DomainSwitch, 3, 0)
            .expect("request");
        cvm.hv.vmgexit(0, false).expect("switch back");
    }
    let delta = cvm.hv.machine.cycles().since(&snap);
    SwitchCost {
        iterations,
        switch_cycles: delta.of(CostCategory::DomainSwitch) / (2 * iterations),
        vmcall_cycles: cvm.hv.machine.cost().vmcall_plain,
    }
}

// ====================================================================
// §9.1 — background system impact
// ====================================================================

/// One background-impact row.
#[derive(Debug, Clone)]
pub struct BackgroundRow {
    /// Program name.
    pub program: &'static str,
    /// Cycles in the native CVM.
    pub native_cycles: u64,
    /// Cycles in the Veil CVM with no protected service in use.
    pub veil_cycles: u64,
    /// Functional checksums matched.
    pub checksum_match: bool,
}

impl BackgroundRow {
    /// Veil-over-native slowdown as a fraction.
    pub fn overhead(&self) -> f64 {
        self.veil_cycles as f64 / self.native_cycles as f64 - 1.0
    }
}

fn run_native(w: &mut dyn Workload) -> (u64, u64) {
    let mut cvm = native_cvm();
    let pid = cvm.spawn();
    let snap = cvm.hv.machine.cycles().snapshot();
    let stats = {
        let mut d = KernelDriver { cvm: &mut cvm, pid };
        w.run(&mut d).expect("native run")
    };
    (cvm.hv.machine.cycles().since(&snap).total(), stats.checksum)
}

fn run_veil_unshielded(w: &mut dyn Workload, audit: AuditMode) -> (u64, u64, u64) {
    let mut cvm = veil_cvm();
    cvm.kernel.audit.mode = audit;
    if audit != AuditMode::Off {
        cvm.kernel.audit.rules = veil_os::audit::paper_ruleset();
    }
    let pid = cvm.spawn();
    let snap = cvm.hv.machine.cycles().snapshot();
    let stats = {
        let mut d = KernelDriver { cvm: &mut cvm, pid };
        w.run(&mut d).expect("veil run")
    };
    let records = match audit {
        AuditMode::Kaudit => cvm.kernel.audit.kaudit_log.len() as u64,
        AuditMode::KauditDisk => cvm.kernel.audit.seq,
        AuditMode::VeilLog => cvm.gate.services.log.record_count(),
        AuditMode::Off => 0,
    };
    assert_eq!(cvm.kernel.audit_failures, 0, "audit relay must not drop records");
    (cvm.hv.machine.cycles().since(&snap).total(), stats.checksum, records)
}

/// §9.1 "Background system impact": SPEC-like compute, memcached and
/// NGINX in native vs Veil CVMs with no service active. Paper: <2%.
pub fn background(scale: usize) -> Vec<BackgroundRow> {
    let mut rows = Vec::new();
    let mut programs: Vec<(&'static str, Box<dyn Workload>)> = vec![
        ("SPEC-like", Box::new(SpecCpuWorkload { iterations: 400 * scale })),
        ("Memcached", Box::new(MemcachedWorkload { ops: 120 * scale, keyspace: 64 })),
        ("NGINX", Box::new(HttpWorkload::nginx(20 * scale))),
    ];
    for (name, w) in programs.iter_mut() {
        let (native_cycles, native_sum) = run_native(w.as_mut());
        let (veil_cycles, veil_sum, _) = run_veil_unshielded(w.as_mut(), AuditMode::Off);
        rows.push(BackgroundRow {
            program: name,
            native_cycles,
            veil_cycles,
            checksum_match: native_sum == veil_sum,
        });
    }
    rows
}

// ====================================================================
// Fig. 4 / Table 3 — enclave syscall microbenchmarks
// ====================================================================

/// One Fig. 4 bar.
#[derive(Debug, Clone)]
pub struct SyscallRow {
    /// Benchmark name (Table 3).
    pub name: &'static str,
    /// Average native cycles per call.
    pub native_cycles: u64,
    /// Average enclave cycles per call (incl. both crossings + copies).
    pub enclave_cycles: u64,
    /// Paper's reported range for orientation: 3.3–7.1×.
    pub paper_band: (f64, f64),
}

impl SyscallRow {
    /// Enclave-over-native slowdown factor.
    pub fn slowdown(&self) -> f64 {
        self.enclave_cycles as f64 / self.native_cycles as f64
    }
}

const TEN_KB: usize = 10 * 1024;

/// Shared state for the Fig. 4 cases.
struct Fig4State {
    fd: i32,
    buf: Vec<u8>,
    addr: u64,
    tmp_fd: i32,
}

/// Runs the Fig. 4 benchmark set under `driver`, returning
/// (name, avg cycles per call) per case. Prep/cleanup run outside the
/// timed region (e.g. the munmap paired with a measured mmap).
fn fig4_measure(d: &mut dyn Driver, iterations: u64) -> Vec<(&'static str, u64)> {
    use std::cell::RefCell;
    let state = RefCell::new(Fig4State { fd: -1, buf: vec![0xabu8; TEN_KB], addr: 0, tmp_fd: -1 });
    // Setup (unmeasured): the 10 KB target file.
    d.shielded(&mut |sys| {
        let fd = sys.open("/data/bench.txt", OpenFlags::rdwr_create())?;
        let data = vec![0x5au8; TEN_KB];
        sys.write(fd, &data)?;
        state.borrow_mut().fd = fd;
        Ok(())
    })
    .expect("fig4 setup");

    // A measured loop: prep (untimed) -> op (timed) -> cleanup (untimed).
    let mut run =
        |prep: &mut dyn FnMut(
            &mut dyn Sys,
            &mut Fig4State,
        ) -> Result<(), veil_os::error::Errno>,
         op: &mut dyn FnMut(&mut dyn Sys, &mut Fig4State) -> Result<(), veil_os::error::Errno>,
         cleanup: &mut dyn FnMut(
            &mut dyn Sys,
            &mut Fig4State,
        ) -> Result<(), veil_os::error::Errno>|
         -> u64 {
            let mut total = 0u64;
            for _ in 0..iterations {
                d.shielded(&mut |sys| prep(sys, &mut state.borrow_mut())).expect("prep");
                let start = d.cycles();
                d.shielded(&mut |sys| op(sys, &mut state.borrow_mut())).expect("op");
                total += d.cycles() - start;
                d.shielded(&mut |sys| cleanup(sys, &mut state.borrow_mut())).expect("cleanup");
            }
            total / iterations
        };

    let mut out = Vec::new();
    // open: "Open a text file with read and write permissions".
    out.push((
        "open",
        run(
            &mut |_, _| Ok(()),
            &mut |sys, st| {
                st.tmp_fd = sys.open("/data/bench.txt", OpenFlags::rdwr())?;
                Ok(())
            },
            &mut |sys, st| sys.close(st.tmp_fd),
        ),
    ));
    // read: "Read 10 KB from a file to a memory-mapped region".
    out.push((
        "read",
        run(
            &mut |_, _| Ok(()),
            &mut |sys, st| {
                let fd = st.fd;
                sys.pread(fd, &mut st.buf, 0).map(|_| ())
            },
            &mut |_, _| Ok(()),
        ),
    ));
    // write: "Write 10 KB from a memory-mapped region to a file".
    out.push((
        "write",
        run(
            &mut |_, _| Ok(()),
            &mut |sys, st| sys.pwrite(st.fd, &st.buf, 0).map(|_| ()),
            &mut |_, _| Ok(()),
        ),
    ));
    // mmap: "Map a 10 KB region using the NULL file descriptor".
    out.push((
        "mmap",
        run(
            &mut |_, _| Ok(()),
            &mut |sys, st| {
                st.addr = sys.mmap(TEN_KB)?;
                Ok(())
            },
            &mut |sys, st| sys.munmap(st.addr, TEN_KB),
        ),
    ));
    // munmap: "Unmap the 10 KB region previously mapped".
    out.push((
        "munmap",
        run(
            &mut |sys, st| {
                st.addr = sys.mmap(TEN_KB)?;
                Ok(())
            },
            &mut |sys, st| sys.munmap(st.addr, TEN_KB),
            &mut |_, _| Ok(()),
        ),
    ));
    // socket: "Open a socket using AF_INET and SOCK_STREAM".
    out.push((
        "socket",
        run(
            &mut |_, _| Ok(()),
            &mut |sys, st| {
                st.tmp_fd = sys.socket()?;
                Ok(())
            },
            &mut |sys, st| sys.close(st.tmp_fd),
        ),
    ));
    // printf: "Print a Hello World! message to the console".
    out.push((
        "printf",
        run(
            &mut |_, _| Ok(()),
            &mut |sys, _| sys.print("Hello World!").map(|_| ()),
            &mut |_, _| Ok(()),
        ),
    ));
    out
}

/// Fig. 4: the cost of redirecting popular system calls from a VeilS-ENC
/// enclave. Paper: 3.3-7.1x slower than native.
pub fn fig4(iterations: u64) -> Vec<SyscallRow> {
    let native = {
        let mut cvm = native_cvm();
        let pid = cvm.spawn();
        let mut d = KernelDriver { cvm: &mut cvm, pid };
        fig4_measure(&mut d, iterations)
    };
    let enclave = {
        let mut cvm = veil_cvm();
        let pid = cvm.spawn();
        let binary = EnclaveBinary::build("fig4", 4096, 1024);
        let handle = install_enclave(&mut cvm, pid, &binary).expect("install");
        let mut rt = EnclaveRuntime::new(handle);
        let mut d = EnclaveDriver { cvm: &mut cvm, rt: &mut rt };
        fig4_measure(&mut d, iterations)
    };
    native
        .into_iter()
        .zip(enclave)
        .map(|((name, n), (ename, e))| {
            assert_eq!(name, ename);
            SyscallRow { name, native_cycles: n, enclave_cycles: e, paper_band: (3.3, 7.1) }
        })
        .collect()
}

// ====================================================================
// Fig. 5 / Table 4 — shielding real-world programs
// ====================================================================

/// One Fig. 5 bar with its stacked split.
#[derive(Debug, Clone)]
pub struct EnclaveAppRow {
    /// Program name.
    pub program: &'static str,
    /// Native cycles.
    pub native_cycles: u64,
    /// Enclave cycles.
    pub enclave_cycles: u64,
    /// Cycles attributed to syscall-redirect copies (stacked bar, part 1).
    pub redirect_cycles: u64,
    /// Cycles attributed to enclave exits (stacked bar, part 2).
    pub exit_cycles: u64,
    /// Enclave exit events per simulated second.
    pub exit_rate_per_s: f64,
    /// Native and shielded runs computed identical results.
    pub checksum_match: bool,
    /// The paper's measured overhead for this program (fraction).
    pub paper_overhead: f64,
}

impl EnclaveAppRow {
    /// Total overhead as a fraction of native.
    pub fn overhead(&self) -> f64 {
        self.enclave_cycles as f64 / self.native_cycles as f64 - 1.0
    }

    /// Redirect share of native cycles (stacked-bar percentage points).
    pub fn redirect_points(&self) -> f64 {
        self.redirect_cycles as f64 / self.native_cycles as f64 * 100.0
    }

    /// Exit share of native cycles (stacked-bar percentage points).
    pub fn exit_points(&self) -> f64 {
        self.exit_cycles as f64 / self.native_cycles as f64 * 100.0
    }
}

fn run_enclave(w: &mut dyn Workload) -> (u64, u64, u64, u64, f64) {
    let mut cvm = veil_cvm();
    let pid = cvm.spawn();
    let binary = EnclaveBinary::build("fig5-app", 16 * 1024, 8 * 1024).with_heap_pages(32);
    let handle = install_enclave(&mut cvm, pid, &binary).expect("install");
    let mut rt = EnclaveRuntime::new(handle);
    let snap = cvm.hv.machine.cycles().snapshot();
    let stats = {
        let mut d = EnclaveDriver { cvm: &mut cvm, rt: &mut rt };
        w.run(&mut d).expect("enclave run")
    };
    let delta = cvm.hv.machine.cycles().since(&snap);
    let exits = rt.stats.crossings / 2;
    let rate = exits as f64 / delta.seconds();
    (
        delta.total(),
        delta.of(CostCategory::SyscallCopy),
        delta.of(CostCategory::EnclaveExit),
        stats.checksum,
        rate,
    )
}

/// Fig. 5: performance overhead of shielding real programs with
/// VeilS-ENC. Paper: 4.9%–63.9%, exit-cost dominated except lighttpd.
pub fn fig5(scale: usize) -> Vec<EnclaveAppRow> {
    let mut rows = Vec::new();
    let mut programs: Vec<(&'static str, f64, Box<dyn Workload>)> = vec![
        ("GZip", 0.049, Box::new(GzipWorkload { input_len: 256 * 1024 * scale, chunk: 32 * 1024 })),
        ("UnQlite", 0.35, Box::new(UnqliteWorkload { entries: 1500 * scale })),
        ("MbedTLS", 0.17, Box::new(MbedtlsWorkload { tests: 400 * scale })),
        ("Lighttpd", 0.30, Box::new(HttpWorkload::lighttpd(60 * scale))),
        ("SQLite", 0.639, Box::new(SqliteWorkload { rows: 800 * scale })),
    ];
    for (name, paper, w) in programs.iter_mut() {
        let (native_cycles, native_sum) = run_native(w.as_mut());
        let (enclave_cycles, redirect, exit, enclave_sum, rate) = run_enclave(w.as_mut());
        rows.push(EnclaveAppRow {
            program: name,
            native_cycles,
            enclave_cycles,
            redirect_cycles: redirect,
            exit_cycles: exit,
            exit_rate_per_s: rate,
            checksum_match: native_sum == enclave_sum,
            paper_overhead: *paper,
        });
    }
    rows
}

// ====================================================================
// Fig. 6 / Table 5 — protected audit logging
// ====================================================================

/// One Fig. 6 pair of bars.
#[derive(Debug, Clone)]
pub struct AuditRow {
    /// Program name.
    pub program: &'static str,
    /// Cycles with auditing off.
    pub base_cycles: u64,
    /// Cycles under kaudit (in-memory).
    pub kaudit_cycles: u64,
    /// Cycles under VeilS-LOG.
    pub veil_cycles: u64,
    /// Records produced per simulated second (VeilS-LOG run).
    pub log_rate_per_s: f64,
    /// Records stored by VeilS-LOG.
    pub records: u64,
    /// Paper's (kaudit, veil) overheads for this program.
    pub paper: (f64, f64),
}

impl AuditRow {
    /// kaudit overhead fraction.
    pub fn kaudit_overhead(&self) -> f64 {
        self.kaudit_cycles as f64 / self.base_cycles as f64 - 1.0
    }

    /// VeilS-LOG overhead fraction.
    pub fn veil_overhead(&self) -> f64 {
        self.veil_cycles as f64 / self.base_cycles as f64 - 1.0
    }
}

/// Fig. 6: auditing overhead, VeilS-LOG vs kaudit, over no auditing.
/// Paper: kaudit 0.3–8.7%, VeilS-LOG 1.4–18.7%.
pub fn fig6(scale: usize) -> Vec<AuditRow> {
    let mut rows = Vec::new();
    type AuditProgram = (&'static str, (f64, f64), Box<dyn Workload>);
    let mut programs: Vec<AuditProgram> = vec![
        (
            "OpenSSL",
            (0.003, 0.014),
            Box::new(OpensslWorkload { rounds: 25 * scale, burst_len: 80 * 1024 }),
        ),
        (
            "7-Zip",
            (0.005, 0.02),
            Box::new(SevenZipWorkload { corpus_len: 16 * 1024, iterations: 15 * scale }),
        ),
        (
            "Memcached",
            (0.087, 0.187),
            Box::new(MemcachedWorkload { ops: 600 * scale, keyspace: 128 }),
        ),
        ("SQLite", (0.01, 0.03), Box::new(SqliteSpeedtestWorkload { ops: 80 * scale })),
        ("NGINX", (0.05, 0.17), Box::new(HttpWorkload::nginx(30 * scale))),
    ];
    for (name, paper, w) in programs.iter_mut() {
        let (base, sum_off, _) = run_veil_unshielded(w.as_mut(), AuditMode::Off);
        let (kaudit, sum_k, _) = run_veil_unshielded(w.as_mut(), AuditMode::Kaudit);
        let (veil, sum_v, records) = run_veil_unshielded(w.as_mut(), AuditMode::VeilLog);
        assert_eq!(sum_off, sum_k);
        assert_eq!(sum_off, sum_v);
        rows.push(AuditRow {
            program: name,
            base_cycles: base,
            kaudit_cycles: kaudit,
            veil_cycles: veil,
            log_rate_per_s: records as f64 / (veil as f64 / CLOCK_HZ as f64),
            records,
            paper: *paper,
        });
    }
    rows
}

// ====================================================================
// CS1 — secure module load/unload
// ====================================================================

/// CS1 result.
#[derive(Debug, Clone, Copy)]
pub struct ModuleCost {
    /// Native load cycles.
    pub load_native: u64,
    /// KCI load cycles.
    pub load_kci: u64,
    /// Native unload cycles.
    pub unload_native: u64,
    /// KCI unload cycles.
    pub unload_kci: u64,
}

impl ModuleCost {
    /// Extra cycles VeilS-KCI adds to a load (paper: ~55k).
    pub fn load_delta(&self) -> u64 {
        self.load_kci - self.load_native
    }

    /// Extra cycles on unload (paper: ~55k, similar to load).
    pub fn unload_delta(&self) -> u64 {
        self.unload_kci - self.unload_native
    }

    /// Load-time increase fraction (paper: 5.7%).
    pub fn load_increase(&self) -> f64 {
        self.load_delta() as f64 / self.load_native as f64
    }

    /// Unload-time increase fraction (paper: 4.2%).
    pub fn unload_increase(&self) -> f64 {
        self.unload_delta() as f64 / self.unload_native as f64
    }
}

/// CS1: loads/unloads the paper's module (4,728-byte binary, 24 KiB
/// installed) `repeats` times under KCI and natively, averaging cycles.
pub fn cs1(repeats: u64) -> ModuleCost {
    let measure = |kci: bool| -> (u64, u64) {
        let mut cvm =
            CvmBuilder::new().frames(BENCH_FRAMES).kci(kci).batch(false).build().expect("boot");
        // 24 KiB installed size; ~4.7 kB serialized image like the paper's.
        let image =
            ModuleImage::build_signed("cs1_module", 6 * 4096 - 512, &veil_core::cvm::VENDOR_KEY);
        let (mut load_total, mut unload_total) = (0u64, 0u64);
        for _ in 0..repeats {
            let snap = cvm.hv.machine.cycles().snapshot();
            {
                let (kernel, mut ctx) = cvm.kctx();
                kernel.load_module(&mut ctx, &image).expect("load");
            }
            load_total += cvm.hv.machine.cycles().since(&snap).total();
            let snap = cvm.hv.machine.cycles().snapshot();
            {
                let (kernel, mut ctx) = cvm.kctx();
                kernel.unload_module(&mut ctx, "cs1_module").expect("unload");
            }
            unload_total += cvm.hv.machine.cycles().since(&snap).total();
        }
        (load_total / repeats, unload_total / repeats)
    };
    let (load_native, unload_native) = measure(false);
    let (load_kci, unload_kci) = measure(true);
    ModuleCost { load_native, load_kci, unload_native, unload_kci }
}

// ====================================================================
// §7 — LTP-style conformance
// ====================================================================

/// LTP run outcome for both paths.
#[derive(Debug, Clone)]
pub struct LtpOutcome {
    /// Passed natively.
    pub native_pass: usize,
    /// Total cases.
    pub total: usize,
    /// Passed inside an enclave.
    pub enclave_pass: usize,
    /// Names of enclave-failing cases.
    pub enclave_failures: Vec<String>,
}

/// Runs the LTP-style corpus natively and inside an enclave (§7: the
/// paper's SDK passes a subset; unsupported calls kill the enclave).
pub fn ltp() -> LtpOutcome {
    let native = {
        let mut cvm = native_cvm();
        let pid = cvm.spawn();
        let mut sys = cvm.sys(pid);
        veil_sdk::ltp::run_suite(&mut sys)
    };
    let enclave = {
        let mut cvm = veil_cvm();
        let pid = cvm.spawn();
        let handle = install_enclave(&mut cvm, pid, &EnclaveBinary::build("ltp", 4096, 1024))
            .expect("install");
        let mut rt = EnclaveRuntime::new(handle);
        let mut sys = EnclaveSys::activate(&mut cvm, &mut rt).expect("enter");
        veil_sdk::ltp::run_suite(&mut sys)
    };
    LtpOutcome {
        native_pass: native.pass_count(),
        total: native.total(),
        enclave_pass: enclave.pass_count(),
        enclave_failures: enclave.failed.iter().map(|(n, _)| n.clone()).collect(),
    }
}

// ====================================================================
// Ablations (DESIGN.md §4)
// ====================================================================

/// Ablation 1: replicated VCPUs vs static VCPU partitioning (§5.2).
#[derive(Debug, Clone)]
pub struct PartitionRow {
    /// Total VCPUs.
    pub vcpus: u32,
    /// App-usable VCPUs with replication (all of them).
    pub replicated_capacity: u32,
    /// App-usable VCPUs with static partitioning (trusted domains pinned
    /// to dedicated VCPUs).
    pub static_capacity: u32,
    /// Switch overhead replication pays per service call (cycles).
    pub switch_cost: u64,
}

/// Quantifies §5.2's argument: static partitioning wastes VCPUs, while
/// replication pays a bounded per-call switch cost instead.
pub fn ablation_static_partition() -> Vec<PartitionRow> {
    // Dom_MON + Dom_SER need standing execution contexts; statically
    // partitioned they consume whole VCPUs.
    const TRUSTED_DOMAINS: u32 = 2;
    let switch_cost = veil_snp::cost::CostModel::default().domain_switch() * 2;
    [2u32, 4, 8, 16]
        .into_iter()
        .map(|vcpus| PartitionRow {
            vcpus,
            replicated_capacity: vcpus,
            static_capacity: vcpus.saturating_sub(TRUSTED_DOMAINS),
            switch_cost,
        })
        .collect()
}

/// Ablation 3: the paper's kaudit fairness fix (§9.2) — in-memory kaudit
/// vs the stock auditd-to-disk pipeline vs VeilS-LOG.
#[derive(Debug, Clone)]
pub struct AuditdRow {
    /// Audit sink.
    pub sink: &'static str,
    /// Overhead over auditing-off, as a fraction.
    pub overhead: f64,
}

/// Quantifies why the paper keeps kaudit in memory "for fair comparison":
/// the stock disk-backed auditd costs more than VeilS-LOG itself.
pub fn ablation_auditd(scale: usize) -> Vec<AuditdRow> {
    let mut w = MemcachedWorkload { ops: 400 * scale, keyspace: 128 };
    let (base, _, _) = run_veil_unshielded(&mut w, AuditMode::Off);
    [
        ("kaudit (in-memory)", AuditMode::Kaudit),
        ("kaudit + auditd (disk)", AuditMode::KauditDisk),
        ("VeilS-LOG", AuditMode::VeilLog),
    ]
    .into_iter()
    .map(|(sink, mode)| {
        let (cycles, _, _) = run_veil_unshielded(&mut w, mode);
        AuditdRow { sink, overhead: cycles as f64 / base as f64 - 1.0 }
    })
    .collect()
}

/// Ablation 2: exitless/batched syscall handling (§10 future work).
#[derive(Debug, Clone)]
pub struct BatchingRow {
    /// Syscalls batched per exit pair.
    pub batch: u64,
    /// Measured overhead fraction for the SQLite-like insert loop.
    pub overhead: f64,
}

/// *Measures* §10's system-call batching on the SQLite workload using
/// the implemented [`veil_sdk::batch::BatchedSys`] layer: with batch
/// size k, one exit pair drains k queued writes.
pub fn ablation_exitless(rows: usize) -> Vec<BatchingRow> {
    use veil_workloads::driver::BatchedEnclaveDriver;
    let mut w = SqliteWorkload { rows };
    let (native, native_sum) = run_native(&mut w);
    [1u64, 2, 4, 8, 16, 32]
        .into_iter()
        .map(|batch| {
            let mut cvm = veil_cvm();
            let pid = cvm.spawn();
            let binary = EnclaveBinary::build("batched", 16 * 1024, 8 * 1024).with_heap_pages(32);
            let handle = install_enclave(&mut cvm, pid, &binary).expect("install");
            let mut rt = EnclaveRuntime::new(handle);
            let snap = cvm.hv.machine.cycles().snapshot();
            let stats = {
                let mut d =
                    BatchedEnclaveDriver { cvm: &mut cvm, rt: &mut rt, batch: batch as usize };
                w.run(&mut d).expect("batched run")
            };
            assert_eq!(stats.checksum, native_sum, "batched output must match native");
            let delta = cvm.hv.machine.cycles().since(&snap).total();
            BatchingRow { batch, overhead: delta as f64 / native as f64 - 1.0 }
        })
        .collect()
}
