//! `inspect` — boots a Veil CVM and dumps its security state: memory
//! map, per-region VMPL permissions, domain/VMSA table, and boot stats.
//!
//! Usage: `cargo run -p veil-bench --bin inspect [--frames N] [--vcpus N]`
//!
//! `inspect trace [--json] [--last N]` instead boots with deterministic
//! event tracing on, runs a small representative workload (secure-channel
//! handshake + enclave syscalls), and dumps the event stream, the counter
//! fold, per-domain cycle attribution, and the trace digest.
//!
//! `inspect metrics [--json | --prom]` boots with the metrics registry on,
//! drives the same workload, and dumps counters, gauges, and cycle
//! histograms with p50/p99/p99.9 — as a table, as the deterministic JSON
//! snapshot (with SHA-256 digest), or in Prometheus text exposition.
//!
//! `inspect flame` does the same but emits the span profiler's folded
//! stacks (`vmplN;parent;child self_cycles` per line), ready for
//! `flamegraph.pl` or any folded-stack consumer.
//!
//! `inspect veiltop [--tenants N] [--shards N] [--workers N]
//! [--requests N] [--interarrival CYCLES] [--seed N]` runs a small fleet
//! and renders the `veiltop` console: per-shard rows read from veilstat
//! gate-service snapshots, fleet-wide critical-path attribution, and the
//! top-K SLO offender table.

use veil_crypto::DhKeyPair;
use veil_os::sys::{OpenFlags, Sys};
use veil_sdk::{install_enclave, EnclaveBinary, EnclaveRuntime, EnclaveSys};
use veil_services::CvmBuilder;
use veil_snp::perms::Vmpl;
use veil_snp::rmp::PageState;
use veil_testkit::fmt;

fn arg_u64(args: &[String], flag: &str, default: u64) -> u64 {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Boots a CVM with the requested observability switches and drives the
/// representative workload shared by `trace`, `metrics`, and `flame`:
/// a secure-channel handshake (§5.1) followed by a few
/// enclave-redirected syscalls (§6.2) — exercising domain switches,
/// VMGEXIT/VMENTER pairs, and the audit pipeline. `None` leaves a
/// switch under environment control (`VEIL_TRACE`/`VEIL_METRICS`), so
/// CI can run `inspect trace` with metrics on and prove the digest
/// does not move.
fn observed_cvm(
    frames: u64,
    vcpus: u32,
    trace: Option<bool>,
    metrics: Option<bool>,
) -> veil_services::Cvm {
    let mut builder = CvmBuilder::new().frames(frames).vcpus(vcpus);
    if let Some(trace) = trace {
        builder = builder.trace(trace);
    }
    if let Some(metrics) = metrics {
        builder = builder.metrics(metrics);
    }
    let mut cvm = builder.build().expect("boot");

    let user = DhKeyPair::from_seed(&[7; 32]);
    let (_report, _mon_pub) = cvm.gate.monitor.begin_channel(&mut cvm.hv, [7; 32]).expect("attest");
    cvm.gate.monitor.complete_channel(&mut cvm.hv, &user.public).expect("channel");

    let pid = cvm.spawn();
    let handle =
        install_enclave(&mut cvm, pid, &EnclaveBinary::build("inspect", 2048, 0)).expect("enclave");
    let mut rt = EnclaveRuntime::new(handle);
    {
        let mut sys = EnclaveSys::activate(&mut cvm, &mut rt).expect("enter");
        let fd = sys.open("/tmp/trace", OpenFlags::rdwr_create()).expect("open");
        sys.write(fd, b"veil-trace").expect("write");
        let mut buf = [0u8; 10];
        sys.pread(fd, &mut buf, 0).expect("pread");
        sys.close(fd).expect("close");
    }
    veil_sdk::runtime::park_enclave(&mut cvm, &mut rt).expect("park");
    cvm
}

/// `inspect trace`: boot traced, drive a workload, dump the evidence.
fn trace_mode(args: &[String]) {
    let frames = arg_u64(args, "--frames", 4096);
    let vcpus = arg_u64(args, "--vcpus", 2) as u32;
    let last = arg_u64(args, "--last", 40) as usize;
    let json = args.iter().any(|a| a == "--json");

    let cvm = observed_cvm(frames, vcpus, Some(true), None);
    let records = cvm.trace_records();
    let counters = cvm.hv.machine.tracer().counters();
    let domain = cvm.domain_cycles();
    let total = cvm.hv.machine.cycles().total();
    let shown = if last == 0 || last >= records.len() {
        &records[..]
    } else {
        &records[records.len() - last..]
    };

    if json {
        let domain_items: Vec<String> = domain.iter().map(|c| c.to_string()).collect();
        let obj = fmt::json_object(&[
            fmt::json_field("events", records.len()),
            fmt::json_field("records", veil_testkit::trace::json(shown)),
            fmt::json_field("counters", veil_testkit::trace::counters_json(counters)),
            fmt::json_field("domain_cycles", fmt::json_array(&domain_items)),
            fmt::json_field("total_cycles", total),
            fmt::json_str_field("digest", &cvm.trace_digest_hex()),
        ]);
        println!("{obj}");
        return;
    }

    fmt::header("event stream");
    println!("{} events recorded ({} shown; --last 0 for all)", records.len(), shown.len());
    print!("{}", veil_testkit::trace::table(shown));

    fmt::header("counter fold");
    for (name, value) in veil_testkit::trace::counter_rows(counters) {
        println!("{name:<22} {value}");
    }

    fmt::header("cycle attribution");
    for (i, c) in domain.iter().enumerate() {
        println!("{:<22} {}", format!("VMPL{i}"), fmt::cycles(*c));
    }
    println!("{:<22} {}", "total", fmt::cycles(total));

    fmt::header("trace digest");
    println!("{}", cvm.trace_digest_hex());
}

/// `inspect metrics`: boot with the registry on, drive the workload,
/// dump counters/gauges/histograms (or the JSON/Prometheus export).
fn metrics_mode(args: &[String]) {
    let frames = arg_u64(args, "--frames", 4096);
    let vcpus = arg_u64(args, "--vcpus", 2) as u32;
    let json = args.iter().any(|a| a == "--json");
    let prom = args.iter().any(|a| a == "--prom");

    let cvm = observed_cvm(frames, vcpus, None, Some(true));
    if json {
        println!("{}", cvm.metrics_snapshot());
        return;
    }
    if prom {
        print!("{}", veil_snp::metrics::export::prometheus(cvm.metrics(), cvm.spans()));
        return;
    }

    let registry = cvm.metrics();
    let label = |k: &veil_snp::metrics::Key| {
        if k.op.is_empty() {
            format!("{}{{{}}}", k.metric, veil_snp::metrics::domain_label(k.domain))
        } else {
            format!("{}{{{},{}}}", k.metric, veil_snp::metrics::domain_label(k.domain), k.op)
        }
    };

    fmt::header("counters");
    for (key, value) in registry.counters() {
        println!("{:<46} {value}", label(key));
    }

    fmt::header("gauges");
    for (key, value) in registry.gauges() {
        println!("{:<46} {value}", label(key));
    }

    fmt::header("cycle histograms");
    println!(
        "{:<46} {:>7} {:>10} {:>10} {:>10} {:>10}",
        "series", "count", "p50", "p99", "p99.9", "max"
    );
    for (key, hist) in registry.histograms() {
        println!(
            "{:<46} {:>7} {:>10} {:>10} {:>10} {:>10}",
            label(key),
            hist.count(),
            hist.percentile(50.0),
            hist.percentile(99.0),
            hist.percentile(99.9),
            hist.max(),
        );
    }

    fmt::header("spans (self/total cycles)");
    println!("{:<52} {:>7} {:>12} {:>12}", "path", "count", "self", "total");
    for (path, domain, stat) in cvm.spans().stats() {
        println!(
            "{:<52} {:>7} {:>12} {:>12}",
            format!("{};{path}", veil_snp::metrics::domain_label(domain)),
            stat.count,
            stat.self_cycles,
            stat.total_cycles,
        );
    }

    fmt::header("snapshot digest");
    println!("{}", cvm.metrics_digest_hex());
}

/// `inspect flame`: folded stacks on stdout, one line per
/// `(domain;path, self_cycles)` pair — feed straight into flamegraph.pl.
fn flame_mode(args: &[String]) {
    let frames = arg_u64(args, "--frames", 4096);
    let vcpus = arg_u64(args, "--vcpus", 2) as u32;
    let cvm = observed_cvm(frames, vcpus, None, Some(true));
    print!("{}", cvm.spans().folded());
}

/// `inspect veiltop`: run a small fleet, render the live console.
fn veiltop_mode(args: &[String]) {
    let cfg = veil_fleet::FleetConfig {
        seed: arg_u64(args, "--seed", 0x70b),
        tenants: arg_u64(args, "--tenants", 32) as u32,
        shards: arg_u64(args, "--shards", 4) as u32,
        workers: arg_u64(args, "--workers", 2) as usize,
        requests_per_tenant: arg_u64(args, "--requests", 6) as u32,
        mean_interarrival_cycles: arg_u64(args, "--interarrival", 250_000),
        ..veil_fleet::FleetConfig::default()
    };
    let report = veil_fleet::run_fleet(&cfg);
    print!("{}", veil_fleet::top::render(&report));
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("trace") => {
            trace_mode(&args);
            return;
        }
        Some("metrics") => {
            metrics_mode(&args);
            return;
        }
        Some("flame") => {
            flame_mode(&args);
            return;
        }
        Some("veiltop") => {
            veiltop_mode(&args);
            return;
        }
        _ => {}
    }
    let get = |flag: &str, default: u64| -> u64 { arg_u64(&args, flag, default) };
    let frames = get("--frames", 4096);
    let vcpus = get("--vcpus", 2) as u32;

    let cvm = CvmBuilder::new().frames(frames).vcpus(vcpus).build().expect("boot");
    let layout = &cvm.gate.monitor.layout;
    let m = &cvm.hv.machine;

    println!("Veil CVM — {frames} frames ({} MiB), {vcpus} VCPUs", frames * 4096 / (1 << 20));
    println!(
        "launch measurement: {}",
        veil_crypto::sha256::hex(&m.launch_measurement().expect("measured"))
    );
    let bs = &cvm.gate.monitor.boot_stats;
    println!(
        "boot: {} pages validated, {} RMPADJUSTs, {} replica VMSAs, {} cycles\n",
        bs.pages_validated,
        bs.rmpadjusts,
        bs.vmsas_created,
        veil_bench::fmt::cycles(bs.cycles)
    );

    println!(
        "{:<14} {:>8} {:>8}  {:<7} {:<7} {:<7} {:<7}",
        "region", "start", "frames", "VMPL0", "VMPL1", "VMPL2", "VMPL3"
    );
    let regions: Vec<(&str, std::ops::Range<u64>)> = vec![
        ("mon image", layout.mon_image.clone()),
        ("ser image", layout.ser_image.clone()),
        ("boot VMSA", layout.boot_vmsa..layout.boot_vmsa + 1),
        ("mon pool", layout.mon_pool.clone()),
        ("ser pool", layout.ser_pool.clone()),
        ("log storage", layout.log_storage.clone()),
        ("IDCB", layout.idcb.clone()),
        ("kernel text", layout.kernel_text.clone()),
        ("kernel data", layout.kernel_data.clone()),
        ("kernel pool", layout.kernel_pool.clone()),
        ("shared", layout.shared.clone()),
    ];
    for (name, range) in regions {
        let gfn = range.start;
        let entry = m.rmp().entry(gfn).expect("in range");
        let perm = |v: Vmpl| -> String {
            match entry.state() {
                PageState::Shared => "shared".into(),
                PageState::AssignedUnvalidated => "unval".into(),
                PageState::Validated => {
                    if entry.is_vmsa() {
                        "VMSA".into()
                    } else {
                        format!("{}", entry.perms(v)).replace("VmplPerms(", "").replace(')', "")
                    }
                }
            }
        };
        println!(
            "{:<14} {:>8} {:>8}  {:<7} {:<7} {:<7} {:<7}",
            name,
            format!("{:#x}", range.start),
            range.end - range.start,
            perm(Vmpl::Vmpl0),
            perm(Vmpl::Vmpl1),
            perm(Vmpl::Vmpl2),
            perm(Vmpl::Vmpl3),
        );
    }

    println!("\nVCPU replica table (hypervisor view):");
    for vcpu in 0..vcpus {
        if let Some(svm) = cvm.hv.vcpu(vcpu) {
            let domains: Vec<String> =
                svm.domain_vmsas.iter().map(|(vmpl, gfn)| format!("{vmpl}@{gfn:#x}")).collect();
            println!("  vcpu {vcpu}: current {} | {}", svm.current_vmpl, domains.join("  "));
        }
    }

    println!("\nVMSA frames live: {}", m.vmsa_gfns().len());
    println!(
        "cycle account: {} total ({:.3} simulated seconds)",
        veil_bench::fmt::cycles(m.cycles().total()),
        m.cycles().seconds()
    );
}
