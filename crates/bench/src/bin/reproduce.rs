//! Regenerates every table and figure of the Veil paper's evaluation.
//!
//! Usage:
//!   reproduce                   # all experiments, default scale
//!   reproduce --experiment fig5 # one experiment
//!   reproduce --scale 4         # larger workloads (closer to paper size)
//!   reproduce --json            # machine-readable output (veil-testkit JSON)
//!
//! Experiments: boot, switch, background, fig4, fig5, fig6, cs1, ltp,
//! ablation-partition, ablation-exitless, ablation-auditd. An unknown
//! experiment, a `--scale` that is not a positive integer, or any other
//! argument prints the usage and exits 2.
//!
//! Everything is driven by the deterministic cycle model, so two runs of
//! the same binary produce byte-identical tables (and JSON) on any host.

use veil_bench::fmt::{
    cycles, header, json_array, json_escape, json_f64, json_field, json_object, json_str_field,
    pct, rate_k, row,
};
use veil_bench::*;

/// One paper table or figure.
struct Experiment {
    /// The `--experiment` name; its JSON key is the same with `-` as `_`.
    name: &'static str,
    /// Prints the paper-style table at the given scale.
    table: fn(usize),
    /// Renders the rows at the given scale as one JSON value.
    json: fn(usize) -> String,
}

/// Every experiment, in output order. Both output modes walk this list,
/// and `--experiment` must name one of its entries.
const EXPERIMENTS: [Experiment; 11] = [
    Experiment { name: "boot", table: |_| run_boot(), json: |_| boot_json() },
    Experiment { name: "switch", table: |_| run_switch(), json: |_| switch_json() },
    Experiment { name: "background", table: run_background, json: background_json },
    Experiment { name: "fig4", table: run_fig4, json: fig4_json },
    Experiment { name: "fig5", table: run_fig5, json: fig5_json },
    Experiment { name: "fig6", table: run_fig6, json: fig6_json },
    Experiment { name: "cs1", table: |_| run_cs1(), json: |_| cs1_json() },
    Experiment { name: "ltp", table: |_| run_ltp(), json: |_| ltp_json() },
    Experiment {
        name: "ablation-partition",
        table: |_| run_ablation_partition(),
        json: |_| ablation_partition_json(),
    },
    Experiment {
        name: "ablation-exitless",
        table: run_ablation_exitless,
        json: ablation_exitless_json,
    },
    Experiment { name: "ablation-auditd", table: run_ablation_auditd, json: ablation_auditd_json },
];

/// A parsed command line.
struct Args {
    selected: Vec<&'static Experiment>,
    scale: usize,
    json: bool,
}

/// Parses the arguments after the program name. Every argument must be
/// understood: a typo fails instead of silently running something else.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args { selected: EXPERIMENTS.iter().collect(), scale: 1, json: false };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => parsed.json = true,
            "--experiment" => {
                let name = it.next().ok_or("--experiment needs a name")?;
                let experiment = EXPERIMENTS
                    .iter()
                    .find(|e| e.name == name)
                    .ok_or_else(|| format!("unknown experiment {name:?}"))?;
                parsed.selected = vec![experiment];
            }
            "--scale" => {
                let value = it.next().ok_or("--scale needs a value")?;
                parsed.scale = value
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or_else(|| format!("--scale {value:?} is not a positive integer"))?;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args { selected, scale, json } = parse_args(&args).unwrap_or_else(|e| {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        eprintln!("reproduce: {e}");
        eprintln!("usage: reproduce [--experiment NAME] [--scale N] [--json]");
        eprintln!("experiments: {}", names.join(", "));
        std::process::exit(2);
    });

    if json {
        let mut fields = vec![json_field("scale", scale)];
        fields.extend(
            selected.iter().map(|e| json_field(&e.name.replace('-', "_"), (e.json)(scale))),
        );
        println!("{}", json_object(&fields));
        return;
    }

    println!("Veil (ASPLOS'23) evaluation reproduction — simulated SEV-SNP substrate");
    println!("scale factor: {scale} (paper-sized workloads are larger; relative results are scale-stable)");
    for e in selected {
        (e.table)(scale);
    }
}

fn boot_json() -> String {
    let r = boot_time(8192);
    json_object(&[
        json_field("frames", r.frames),
        json_field("native_cycles", r.native_cycles),
        json_field("veil_cycles", r.veil_cycles),
        json_field("rmpadjust_share", json_f64(r.rmpadjust_share)),
        json_field("extrapolated_2gb_seconds", json_f64(r.extrapolated_2gb_seconds)),
        json_field("increase_over_full_boot", json_f64(r.increase_over_full_boot())),
    ])
}

fn switch_json() -> String {
    let r = domain_switch(10_000);
    json_object(&[
        json_field("iterations", r.iterations),
        json_field("switch_cycles", r.switch_cycles),
        json_field("vmcall_cycles", r.vmcall_cycles),
    ])
}

fn background_json(scale: usize) -> String {
    let rows: Vec<String> = background(scale)
        .iter()
        .map(|r| {
            json_object(&[
                json_str_field("program", r.program),
                json_field("native_cycles", r.native_cycles),
                json_field("veil_cycles", r.veil_cycles),
                json_field("overhead", json_f64(r.overhead())),
                json_field("checksum_match", r.checksum_match),
            ])
        })
        .collect();
    json_array(&rows)
}

fn fig4_json(scale: usize) -> String {
    let rows: Vec<String> = fig4(200 * scale as u64)
        .iter()
        .map(|r| {
            json_object(&[
                json_str_field("name", r.name),
                json_field("native_cycles", r.native_cycles),
                json_field("enclave_cycles", r.enclave_cycles),
                json_field("slowdown", json_f64(r.slowdown())),
                json_field(
                    "paper_band",
                    format!("[{}, {}]", json_f64(r.paper_band.0), json_f64(r.paper_band.1)),
                ),
            ])
        })
        .collect();
    json_array(&rows)
}

fn fig5_json(scale: usize) -> String {
    let rows: Vec<String> = fig5(scale)
        .iter()
        .map(|r| {
            json_object(&[
                json_str_field("program", r.program),
                json_field("overhead", json_f64(r.overhead())),
                json_field("paper_overhead", json_f64(r.paper_overhead)),
                json_field("redirect_points", json_f64(r.redirect_points())),
                json_field("exit_points", json_f64(r.exit_points())),
                json_field("exit_rate_per_s", json_f64(r.exit_rate_per_s)),
                json_field("checksum_match", r.checksum_match),
            ])
        })
        .collect();
    json_array(&rows)
}

fn fig6_json(scale: usize) -> String {
    let rows: Vec<String> = fig6(scale)
        .iter()
        .map(|r| {
            json_object(&[
                json_str_field("program", r.program),
                json_field("kaudit_overhead", json_f64(r.kaudit_overhead())),
                json_field("veil_overhead", json_f64(r.veil_overhead())),
                json_field("paper_kaudit", json_f64(r.paper.0)),
                json_field("paper_veil", json_f64(r.paper.1)),
                json_field("log_rate_per_s", json_f64(r.log_rate_per_s)),
                json_field("records", r.records),
            ])
        })
        .collect();
    json_array(&rows)
}

fn cs1_json() -> String {
    let r = cs1(100);
    json_object(&[
        json_field("load_native", r.load_native),
        json_field("load_kci", r.load_kci),
        json_field("unload_native", r.unload_native),
        json_field("unload_kci", r.unload_kci),
        json_field("load_increase", json_f64(r.load_increase())),
        json_field("unload_increase", json_f64(r.unload_increase())),
    ])
}

fn ltp_json() -> String {
    let r = ltp();
    let failures: Vec<String> =
        r.enclave_failures.iter().map(|f| format!("\"{}\"", json_escape(f))).collect();
    json_object(&[
        json_field("total", r.total),
        json_field("native_pass", r.native_pass),
        json_field("enclave_pass", r.enclave_pass),
        json_field("enclave_failures", json_array(&failures)),
    ])
}

fn ablation_partition_json() -> String {
    let rows: Vec<String> = ablation_static_partition()
        .iter()
        .map(|r| {
            json_object(&[
                json_field("vcpus", r.vcpus),
                json_field("replicated_capacity", r.replicated_capacity),
                json_field("static_capacity", r.static_capacity),
                json_field("switch_cost", r.switch_cost),
            ])
        })
        .collect();
    json_array(&rows)
}

fn ablation_exitless_json(scale: usize) -> String {
    let rows: Vec<String> = ablation_exitless(400 * scale)
        .iter()
        .map(|r| {
            json_object(&[
                json_field("batch", r.batch),
                json_field("overhead", json_f64(r.overhead)),
            ])
        })
        .collect();
    json_array(&rows)
}

fn ablation_auditd_json(scale: usize) -> String {
    let rows: Vec<String> = ablation_auditd(scale)
        .iter()
        .map(|r| {
            json_object(&[
                json_str_field("sink", r.sink),
                json_field("overhead", json_f64(r.overhead)),
            ])
        })
        .collect();
    json_array(&rows)
}

fn run_boot() {
    header("§9.1 Initialization time (paper: +~2 s on 2 GB, +13%, >70% RMPADJUST)");
    let r = boot_time(8192);
    row(&[("config", 14), ("boot cycles", 18), ("", 0)]);
    row(&[("native CVM", 14), (&cycles(r.native_cycles), 18), ("", 0)]);
    row(&[("Veil CVM", 14), (&cycles(r.veil_cycles), 18), ("", 0)]);
    println!("RMPADJUST share of Veil boot: {:.0}%   (paper: >70%)", r.rmpadjust_share * 100.0);
    println!("delta extrapolated to 2 GB:  {:.2} s  (paper: ~2 s)", r.extrapolated_2gb_seconds);
    println!(
        "increase over full native boot ({PAPER_NATIVE_BOOT_SECONDS} s): {}  (paper: +13%)",
        pct(r.increase_over_full_boot())
    );
}

fn run_switch() {
    header("§9.1 Domain switch cost (paper: 7,135 cycles vs ~1,100 VMCALL)");
    let r = domain_switch(10_000);
    println!(
        "hypervisor-relayed domain switch: {} cycles ({} iterations)",
        cycles(r.switch_cycles),
        r.iterations
    );
    println!("plain VMCALL exit (non-SNP VM):   {} cycles", cycles(r.vmcall_cycles));
    println!("ratio: {:.1}x", r.switch_cycles as f64 / r.vmcall_cycles as f64);
}

fn run_background(scale: usize) {
    header("§9.1 Background system impact (paper: <2% for all three)");
    row(&[
        ("program", 12),
        ("native cycles", 17),
        ("veil cycles", 17),
        ("overhead", 10),
        ("output", 8),
    ]);
    for r in background(scale) {
        row(&[
            (r.program, 12),
            (&cycles(r.native_cycles), 17),
            (&cycles(r.veil_cycles), 17),
            (&pct(r.overhead()), 10),
            (if r.checksum_match { "match" } else { "MISMATCH" }, 8),
        ]);
    }
}

fn run_fig4(scale: usize) {
    header("Fig. 4 / Table 3: enclave system-call redirection (paper: 3.3-7.1x)");
    let iterations = 200 * scale as u64;
    row(&[("syscall", 9), ("native", 10), ("enclave", 10), ("slowdown", 10), ("paper band", 12)]);
    for r in fig4(iterations) {
        row(&[
            (r.name, 9),
            (&cycles(r.native_cycles), 10),
            (&cycles(r.enclave_cycles), 10),
            (&format!("{:.1}x", r.slowdown()), 10),
            (&format!("{:.1}-{:.1}x", r.paper_band.0, r.paper_band.1), 12),
        ]);
    }
}

fn run_fig5(scale: usize) {
    header("Fig. 5 / Table 4: shielding real-world programs with VeilS-ENC");
    row(&[
        ("program", 10),
        ("overhead", 10),
        ("paper", 8),
        ("redirect", 10),
        ("exit", 8),
        ("exit rate", 11),
        ("output", 8),
    ]);
    for r in fig5(scale) {
        row(&[
            (r.program, 10),
            (&pct(r.overhead()), 10),
            (&pct(r.paper_overhead), 8),
            (&format!("{:.1}pp", r.redirect_points()), 10),
            (&format!("{:.1}pp", r.exit_points()), 8),
            (&format!("{}/s", rate_k(r.exit_rate_per_s)), 11),
            (if r.checksum_match { "match" } else { "MISMATCH" }, 8),
        ]);
    }
    println!("(redirect/exit = stacked-bar split as percentage points of native time)");
}

fn run_fig6(scale: usize) {
    header("Fig. 6 / Table 5: audit-log protection (paper: kaudit 0.3-8.7%, VeilS-LOG 1.4-18.7%)");
    row(&[
        ("program", 10),
        ("kaudit", 9),
        ("veils-log", 11),
        ("paper k/v", 15),
        ("log rate", 10),
        ("records", 9),
    ]);
    for r in fig6(scale) {
        row(&[
            (r.program, 10),
            (&pct(r.kaudit_overhead()), 9),
            (&pct(r.veil_overhead()), 11),
            (&format!("{}/{}", pct(r.paper.0), pct(r.paper.1)), 15),
            (&format!("{}/s", rate_k(r.log_rate_per_s)), 10),
            (&r.records.to_string(), 9),
        ]);
    }
}

fn run_cs1() {
    header("CS1: secure module load/unload (paper: ~55k extra cycles, +5.7%/+4.2%)");
    let r = cs1(100);
    row(&[("op", 8), ("native", 12), ("with KCI", 12), ("delta", 10), ("increase", 9)]);
    row(&[
        ("load", 8),
        (&cycles(r.load_native), 12),
        (&cycles(r.load_kci), 12),
        (&cycles(r.load_delta()), 10),
        (&pct(r.load_increase()), 9),
    ]);
    row(&[
        ("unload", 8),
        (&cycles(r.unload_native), 12),
        (&cycles(r.unload_kci), 12),
        (&cycles(r.unload_delta()), 10),
        (&pct(r.unload_increase()), 9),
    ]);
}

fn run_ltp() {
    header(
        "§7 LTP-style conformance (paper: SDK passes a subset; unsupported calls kill the enclave)",
    );
    let r = ltp();
    println!("native CVM:  {}/{} cases pass", r.native_pass, r.total);
    println!("enclave SDK: {}/{} cases pass", r.enclave_pass, r.total);
    if !r.enclave_failures.is_empty() {
        println!("enclave failures: {}", r.enclave_failures.join(", "));
    }
}

fn run_ablation_partition() {
    header("Ablation: replicated VCPUs vs static partitioning (§5.2)");
    row(&[("vcpus", 8), ("replicated capacity", 21), ("static capacity", 17), ("switch cost", 12)]);
    for r in ablation_static_partition() {
        row(&[
            (&r.vcpus.to_string(), 8),
            (&format!("{} vcpus", r.replicated_capacity), 21),
            (&format!("{} vcpus", r.static_capacity), 17),
            (&format!("{} cyc", cycles(r.switch_cost)), 12),
        ]);
    }
}

fn run_ablation_auditd(scale: usize) {
    header("Ablation: stock auditd-to-disk vs the paper's in-memory kaudit (§9.2 fairness fix)");
    row(&[("sink", 24), ("memcached overhead", 20)]);
    for r in ablation_auditd(scale) {
        row(&[(r.sink, 24), (&pct(r.overhead), 20)]);
    }
}

fn run_ablation_exitless(scale: usize) {
    header("Ablation: syscall batching / exitless handling (§10 future work)");
    row(&[("batch size", 12), ("SQLite overhead", 17)]);
    for r in ablation_exitless(400 * scale) {
        row(&[(&r.batch.to_string(), 12), (&pct(r.overhead), 17)]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    fn names(args: &Args) -> Vec<&'static str> {
        args.selected.iter().map(|e| e.name).collect()
    }

    #[test]
    fn no_arguments_select_every_experiment_in_order_at_scale_one() {
        let args = parse(&[]).unwrap();
        assert_eq!(names(&args), EXPERIMENTS.iter().map(|e| e.name).collect::<Vec<_>>());
        assert_eq!((args.scale, args.json), (1, false));
    }

    #[test]
    fn each_name_selects_exactly_its_experiment() {
        for e in &EXPERIMENTS {
            let args = parse(&["--json", "--experiment", e.name, "--scale", "4"]).unwrap();
            assert_eq!(names(&args), [e.name]);
            assert_eq!((args.scale, args.json), (4, true));
        }
    }

    #[test]
    fn unknown_experiment_bad_scale_and_stray_arguments_are_refused() {
        for bad in [
            &["--experiment", "fig44"][..],
            &["--experiment", "Fig5"],
            &["--experiment"],
            &["--scale", "abc"],
            &["--scale", "0"],
            &["--scale", "-1"],
            &["--scale"],
            &["--experimnet", "fig5"],
            &["fig5"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be refused");
        }
    }
}
