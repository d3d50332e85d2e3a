//! `perfbench` — the Veil simulator's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `enclave-kv-audited`, `enclave-gzip`, `kci-module-churn`
//! (closed loop, seed-independent inputs) and `fleet-http` (open loop,
//! arrivals drawn from `--seed`). `--trace 0` measures the end-to-end
//! metrics; `--trace 1` makes a separate run that times the benchmark's
//! own calls into each layer and reads the layers' counters. Every
//! metric is printed with its unit and clock (host wall-clock or model
//! cycles); the last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `perfbench/README.md` for what each metric should move.

mod calib;
mod closed;
mod fleet;
mod probe;
mod report;
mod stats;

use closed::Closed;
use report::{Report, END_TO_END, PER_LAYER};
use std::process::ExitCode;

/// Environment switches that change what the CVM does or records; the
/// benchmark pins all of them through `CvmBuilder` and refuses to run
/// when one is exported, rather than measure something else.
const REFUSED_ENV: [&str; 5] =
    ["VEIL_TRACE", "VEIL_METRICS", "VEIL_NO_BATCH", "VEIL_ATTEST", "VEIL_NO_TLB"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(at + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} out of range (0, 120]"));
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

fn main() -> ExitCode {
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: {var} is set; unset it, the benchmark pins that switch itself");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let closed = match args.workload.as_str() {
        "enclave-kv-audited" => Some(Closed::KvAudited),
        "enclave-gzip" => Some(Closed::Gzip),
        "kci-module-churn" => Some(Closed::KciChurn),
        "fleet-http" => None,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::new();
    match (closed, args.trace) {
        (Some(w), false) => closed::run_untraced(w, args.seconds, &mut report),
        (Some(w), true) => closed::run_traced(w, args.seconds, &mut report),
        (None, false) => fleet::run_untraced(args.seed, args.seconds, &mut report),
        (None, true) => fleet::run_traced(args.seed, args.seconds, &mut report),
    }
    report.print(&args.workload, if args.trace { PER_LAYER } else { END_TO_END });
    ExitCode::SUCCESS
}
