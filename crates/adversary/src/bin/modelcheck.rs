//! `modelcheck` — exhaustive model checking of the RMP state machine.
//!
//! ```text
//! modelcheck [--config NAME] [--mutate NAME] [--expect-caught]
//!            [--max-depth N] [--replay I,J,K] [--ce-out PATH]
//!            [--check-goldens] [--write-goldens] [--golden-dir PATH]
//!            [--bench] [--out PATH]
//! ```
//!
//! * Default mode exhausts the named configuration (`tiny`, `ci`,
//!   `mutation`, `symmetric`): every edge of the reachable canonical
//!   state graph runs on the machine and the reference oracle in
//!   lockstep. Any divergence is shrunk to a minimal counterexample,
//!   printed with a `--replay` line, written to `--ce-out`, and exits
//!   nonzero.
//! * `--replay I,J,K` replays alphabet indices (the repro format every
//!   counterexample prints) — the one-command local reproduction for a
//!   CI failure, sharing the `VEIL_TEST_SEED` philosophy of the fuzzer.
//! * `--mutate NAME --expect-caught` is the checker's mutation
//!   self-test: the run succeeds only if the seeded bug is caught.
//! * `--check-goldens` diffs the canonical state/edge counts and the
//!   generated Tables 1–2 witness matrix against `tests/goldens/`;
//!   `--write-goldens` regenerates them.
//! * `--bench` measures exploration throughput (states/sec, edges/sec)
//!   and writes `BENCH_MODELCHECK.json`, with a regression floor.

use std::path::PathBuf;
use std::time::Instant;

use veil_adversary::checker::{explore, replay, CheckConfig, ModelFailure};
use veil_adversary::model::ModelConfig;
use veil_adversary::witness;
use veil_snp::rmp::RmpMutation;
use veil_testkit::fmt::{json_f64, json_field, json_object, json_str_field};
use veil_testkit::golden;

/// Throughput floor for `--bench`: a run below this is a regression
/// failure, not a report. Conservative (CI machines are slow); local
/// release builds clear it by well over an order of magnitude.
const MIN_EDGES_PER_SEC: f64 = 2_000.0;

struct Args {
    check: CheckConfig,
    expect_caught: bool,
    replay: Option<Vec<u16>>,
    check_goldens: bool,
    write_goldens: bool,
    golden_dir: PathBuf,
    ce_out: String,
    bench: bool,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        check: CheckConfig::new(ModelConfig::tiny()),
        expect_caught: false,
        replay: None,
        check_goldens: false,
        write_goldens: false,
        golden_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/goldens")),
        ce_out: "modelcheck-ce.txt".into(),
        bench: false,
        out: "BENCH_MODELCHECK.json".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value =
            |name: &str| it.next().unwrap_or_else(|| die(&format!("{name} needs a value")));
        match flag.as_str() {
            "--config" => {
                let name = value("--config");
                args.check.model = ModelConfig::by_name(&name)
                    .unwrap_or_else(|| die(&format!("unknown config {name:?}")));
            }
            "--mutate" => {
                args.check.mutation = Some(match value("--mutate").as_str() {
                    "skip-vmsa-immutable" => RmpMutation::SkipVmsaImmutable,
                    "allow-perm-escalation" => RmpMutation::AllowPermEscalation,
                    "allow-double-validate" => RmpMutation::AllowDoubleValidate,
                    other => die(&format!("unknown mutation {other:?}")),
                })
            }
            "--expect-caught" => args.expect_caught = true,
            "--max-depth" => {
                args.check.max_depth = Some(
                    value("--max-depth")
                        .parse()
                        .unwrap_or_else(|_| die("--max-depth: not a number")),
                )
            }
            "--replay" => {
                args.replay = Some(
                    value("--replay")
                        .split(',')
                        .filter(|s| !s.is_empty())
                        .map(|s| s.trim().parse().unwrap_or_else(|_| die("--replay: bad index")))
                        .collect(),
                )
            }
            "--check-goldens" => args.check_goldens = true,
            "--write-goldens" => args.write_goldens = true,
            "--golden-dir" => args.golden_dir = PathBuf::from(value("--golden-dir")),
            "--ce-out" => args.ce_out = value("--ce-out"),
            "--bench" => args.bench = true,
            "--out" => args.out = value("--out"),
            other => die(&format!("unknown flag {other:?}")),
        }
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("modelcheck: {msg}");
    std::process::exit(2);
}

fn main() {
    let args = parse_args();
    if let Some(indices) = &args.replay {
        run_replay(&args, indices);
        return;
    }
    if args.bench {
        bench(&args);
        return;
    }

    let start = Instant::now();
    let report = explore(&args.check);
    let wall = start.elapsed().as_secs_f64();
    println!(
        "modelcheck [{}]: {} canonical states, {} edges, max depth {}, alphabet {} ({:.2}s)",
        report.config.name,
        report.states,
        report.edges,
        report.max_depth,
        report.alphabet.len(),
        wall,
    );

    match &report.failure {
        Some(f) => {
            let repro = render_counterexample(&args, f);
            print!("{repro}");
            if let Err(e) = std::fs::write(&args.ce_out, &repro) {
                eprintln!("modelcheck: could not write {}: {e}", args.ce_out);
            } else {
                println!("counterexample written to {}", args.ce_out);
            }
            if args.expect_caught {
                println!(
                    "modelcheck: seeded mutation {:?} caught exhaustively at depth {} — self-test passed",
                    args.check.mutation, f.depth
                );
                return;
            }
            std::process::exit(1);
        }
        None => {
            println!(
                "modelcheck: machine == oracle on every reachable edge (coverage: {} ops, {} verdicts)",
                report.coverage.ops.len(),
                report.coverage.verdicts.len()
            );
            if args.expect_caught {
                eprintln!(
                    "modelcheck: --expect-caught, but the seeded mutation {:?} was NOT caught",
                    args.check.mutation
                );
                std::process::exit(1);
            }
        }
    }

    if args.check_goldens || args.write_goldens {
        let witnesses = witness::generate(&report, &args.check)
            .unwrap_or_else(|e| die(&format!("witness generation: {e}")));
        let name = report.config.name;
        let checks = [
            (format!("modelcheck_counts_{name}.txt"), witness::render_counts(&report)),
            (format!("witness_matrix_{name}.txt"), witness::render(&witnesses)),
        ];
        let mut failed = false;
        for (file, actual) in &checks {
            let path = args.golden_dir.join(file);
            match golden::check(file, &path, actual, args.write_goldens) {
                Ok(()) if args.write_goldens => println!("modelcheck: wrote {}", path.display()),
                Ok(()) => println!("modelcheck: golden {file} matches"),
                Err(e) => {
                    eprintln!("modelcheck: {e}");
                    failed = true;
                }
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}

fn render_counterexample(args: &Args, f: &ModelFailure) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "divergence at BFS depth {} (minimal): {}\n\nshrunk counterexample ({} ops):\n",
        f.depth,
        f.error,
        f.shrunk_ops.len()
    ));
    for (idx, op) in f.shrunk_indices.iter().zip(&f.shrunk_ops) {
        out.push_str(&format!("  [{idx:4}] {op:?}\n"));
    }
    let mutate = match args.check.mutation {
        Some(RmpMutation::SkipVmsaImmutable) => " --mutate skip-vmsa-immutable",
        Some(RmpMutation::AllowPermEscalation) => " --mutate allow-perm-escalation",
        Some(RmpMutation::AllowDoubleValidate) => " --mutate allow-double-validate",
        None => "",
    };
    out.push_str(&format!(
        "\nreplay with: cargo run --release -p veil-adversary --bin modelcheck -- \
         --config {}{mutate} --replay {}\n",
        args.check.model.name,
        f.replay_arg()
    ));
    out
}

fn run_replay(args: &Args, indices: &[u16]) {
    match replay(&args.check, indices) {
        Ok((lines, world)) => {
            for (idx, line) in indices.iter().zip(&lines) {
                println!("  [{idx:4}] {line}");
            }
            println!(
                "modelcheck: replay of {} ops green (halted: {:?})",
                lines.len(),
                world.hv.machine.halted()
            );
        }
        Err(e) => {
            eprintln!("modelcheck: replay diverged: {e}");
            std::process::exit(1);
        }
    }
}

/// Exploration-throughput bench: exhausts the tiny configuration and
/// reports states/sec and edges/sec, written as `BENCH_MODELCHECK.json`
/// (its own file — the fuzzer's `BENCH_ADVERSARY.json` is no longer
/// overwritten by unrelated runs) with a hard regression floor.
fn bench(args: &Args) {
    let check = CheckConfig::new(ModelConfig::tiny());
    let start = Instant::now();
    let report = explore(&check);
    let wall = start.elapsed().as_secs_f64();
    if let Some(f) = &report.failure {
        die(&format!("bench exploration diverged: {}", f.error));
    }
    let states_per_sec = report.states as f64 / wall;
    let edges_per_sec = report.edges as f64 / wall;
    let json = json_object(&[
        json_str_field("bench", "modelcheck_explore"),
        json_str_field("config", report.config.name),
        json_field("states", report.states),
        json_field("edges", report.edges),
        json_field("max_depth", report.max_depth),
        json_field("wall_ms", json_f64(wall * 1e3)),
        json_field("states_per_sec", json_f64(states_per_sec)),
        json_field("edges_per_sec", json_f64(edges_per_sec)),
    ]);
    println!("{json}");
    match std::fs::write(&args.out, format!("{json}\n")) {
        Ok(()) => println!("wrote {}", args.out),
        Err(e) => die(&format!("could not write {}: {e}", args.out)),
    }
    if edges_per_sec < MIN_EDGES_PER_SEC {
        eprintln!(
            "modelcheck: throughput regression: {edges_per_sec:.0} edges/sec < floor {MIN_EDGES_PER_SEC}"
        );
        std::process::exit(1);
    }
}
