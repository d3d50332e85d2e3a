//! `fuzz` — command-line driver for the adversarial differential
//! fuzzer.
//!
//! ```text
//! fuzz [--seeds N] [--ops N] [--seed HEX] [--mutate NAME]
//!      [--expect-caught] [--repro-out PATH] [--bench] [--out PATH]
//! ```
//!
//! * Default mode runs `--seeds` random sequences of up to `--ops` ops
//!   each through the machine/oracle differential harness; any
//!   divergence is shrunk to a minimal sequence, printed with a
//!   `VEIL_TEST_SEED` replay line, written to `--repro-out`, and exits
//!   nonzero.
//! * `--seed HEX` (or the `VEIL_TEST_SEED` env var) replays exactly one
//!   case — the one-command local reproduction for a CI failure.
//! * `--mutate NAME` seeds a deliberate machine bug
//!   (`skip-vmsa-immutable`, `allow-perm-escalation`,
//!   `allow-double-validate`); with `--expect-caught` the run succeeds
//!   only if the bug is caught and shrunk to ≤ 10 ops — the harness's
//!   own mutation self-test.
//! * `--bench` measures fuzzer throughput (wall-clock ops/sec plus
//!   model cycles per sequence) and writes `BENCH_ADVERSARY.json`,
//!   failing the run if throughput drops below a regression floor.

use std::time::Instant;

use veil_adversary::{case_seed, run_fuzz, run_sequence, sequence_strategy, FuzzConfig};
use veil_snp::rmp::RmpMutation;
use veil_testkit::bench::BenchGroup;
use veil_testkit::fmt::{json_array, json_f64, json_field, json_object, json_str_field};
use veil_testkit::prop::SEED_ENV;
use veil_testkit::TestRng;

struct Args {
    cfg: FuzzConfig,
    expect_caught: bool,
    bench: bool,
    repro_out: String,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        cfg: FuzzConfig { seeds: 50, ops: 100, seed: None, mutation: None },
        expect_caught: false,
        bench: false,
        repro_out: "adversary-repro.txt".into(),
        out: "BENCH_ADVERSARY.json".into(),
    };
    if let Ok(hex) = std::env::var(SEED_ENV) {
        args.cfg.seed = Some(parse_hex(&hex));
    }
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value =
            |name: &str| it.next().unwrap_or_else(|| die(&format!("{name} needs a value")));
        match flag.as_str() {
            "--seeds" => {
                args.cfg.seeds =
                    value("--seeds").parse().unwrap_or_else(|_| die("--seeds: not a number"))
            }
            "--ops" => {
                args.cfg.ops = value("--ops").parse().unwrap_or_else(|_| die("--ops: not a number"))
            }
            "--seed" => args.cfg.seed = Some(parse_hex(&value("--seed"))),
            "--mutate" => {
                args.cfg.mutation = Some(match value("--mutate").as_str() {
                    "skip-vmsa-immutable" => RmpMutation::SkipVmsaImmutable,
                    "allow-perm-escalation" => RmpMutation::AllowPermEscalation,
                    "allow-double-validate" => RmpMutation::AllowDoubleValidate,
                    other => die(&format!("unknown mutation {other:?}")),
                })
            }
            "--expect-caught" => args.expect_caught = true,
            "--bench" => args.bench = true,
            "--repro-out" => args.repro_out = value("--repro-out"),
            "--out" => args.out = value("--out"),
            other => die(&format!("unknown flag {other:?}")),
        }
    }
    args
}

fn parse_hex(hex: &str) -> u64 {
    u64::from_str_radix(hex.trim(), 16)
        .unwrap_or_else(|_| die(&format!("seed must be a hex u64, got {hex:?}")))
}

fn die(msg: &str) -> ! {
    eprintln!("fuzz: {msg}");
    std::process::exit(2);
}

fn main() {
    let args = parse_args();
    if args.bench {
        bench(&args);
        return;
    }

    let report = run_fuzz(&args.cfg);
    match report.failure {
        None => {
            println!(
                "fuzz: {} sequences, {} ops — all green against the reference oracle",
                report.cases, report.total_ops
            );
            if args.expect_caught {
                eprintln!(
                    "fuzz: --expect-caught, but the seeded mutation {:?} was NOT caught",
                    args.cfg.mutation
                );
                std::process::exit(1);
            }
        }
        Some(f) => {
            let mut repro = String::new();
            repro.push_str(&format!(
                "divergence (case {}, {} shrink steps): {}\n\nminimal sequence ({} ops):\n",
                f.case,
                f.shrink_steps,
                f.error,
                f.shrunk.len()
            ));
            for (i, op) in f.shrunk.iter().enumerate() {
                repro.push_str(&format!("  {i:3}: {op:?}\n"));
            }
            repro.push_str(&format!(
                "\nreplay with: {SEED_ENV}={:016x} cargo run --release -p veil-adversary --bin fuzz -- --ops {}\n",
                f.seed, args.cfg.ops
            ));
            print!("{repro}");
            if let Err(e) = std::fs::write(&args.repro_out, &repro) {
                eprintln!("fuzz: could not write {}: {e}", args.repro_out);
            } else {
                println!("shrunk repro written to {}", args.repro_out);
            }
            if args.expect_caught {
                if f.shrunk.len() <= 10 {
                    println!(
                        "fuzz: seeded mutation {:?} caught and shrunk to {} ops — self-test passed",
                        args.cfg.mutation,
                        f.shrunk.len()
                    );
                    return;
                }
                eprintln!("fuzz: mutation caught but only shrunk to {} ops (> 10)", f.shrunk.len());
            }
            std::process::exit(1);
        }
    }
}

/// Throughput bench: wall-clock ops/sec over a fixed differential
/// workload, plus deterministic model-cycle stats per sequence, written
/// as `BENCH_ADVERSARY.json` so later PRs cannot silently slow the
/// harness down.
fn bench(args: &Args) {
    const BENCH_SEQUENCES: u64 = 12;
    const BENCH_OPS: usize = 150;
    // Regression floor: CI release builds run well over an order of
    // magnitude above this; dipping below it means the differential
    // hot path (machine + oracle stepping + invariant sweeps) got
    // dramatically slower and the run fails instead of silently
    // recording it.
    const MIN_OPS_PER_SEC: f64 = 500.0;

    let strategy = sequence_strategy(BENCH_OPS);
    let sequences: Vec<_> = (0..BENCH_SEQUENCES)
        .map(|case| strategy.generate(&mut TestRng::from_seed(case_seed(case))))
        .collect();
    let total_ops: usize = sequences.iter().map(Vec::len).sum();

    // Wall-clock pass: every op runs on the machine and the oracle,
    // with full invariant sweeps — that whole package is the unit "op"
    // here, matching what CI budgets actually pay for.
    let start = Instant::now();
    for (i, ops) in sequences.iter().enumerate() {
        run_sequence(ops, None).unwrap_or_else(|e| panic!("bench sequence {i} diverged: {e}"));
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let ops_per_sec = total_ops as f64 / (wall_ms / 1e3);

    // Deterministic pass: model cycles charged per differential
    // sequence (identical on every machine, so trend lines are exact).
    let mut group = BenchGroup::new("adversary_fuzz").warmup(1).iters(5);
    let mut pick = 0usize;
    group.bench("differential_sequence_cycles", || {
        let ops = &sequences[pick % sequences.len()];
        pick += 1;
        run_sequence(ops, None).expect("bench sequence diverged").total_cycles
    });
    let results = group.finish();

    let json = json_object(&[
        json_str_field("bench", "adversary_fuzz"),
        json_field("sequences", BENCH_SEQUENCES),
        json_field("ops_budget", BENCH_OPS),
        json_field("total_ops", total_ops),
        json_field("wall_ms", json_f64(wall_ms)),
        json_field("ops_per_sec", json_f64(ops_per_sec)),
        json_field("cycles", json_array(&results.iter().map(|r| r.json()).collect::<Vec<_>>())),
    ]);
    println!("{json}");
    match std::fs::write(&args.out, format!("{json}\n")) {
        Ok(()) => println!("wrote {}", args.out),
        Err(e) => {
            eprintln!("fuzz: could not write {}: {e}", args.out);
            std::process::exit(1);
        }
    }
    if ops_per_sec < MIN_OPS_PER_SEC {
        eprintln!(
            "fuzz: throughput regression: {ops_per_sec:.0} ops/sec < floor {MIN_OPS_PER_SEC}"
        );
        std::process::exit(1);
    }
}
