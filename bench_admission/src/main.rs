//! `bench_admission` — wall-clock admission benchmark (see README.md).
//!
//! ```text
//! cargo run --release --manifest-path bench_admission/Cargo.toml -- \
//!     [--workload NAME|all] [--seed 42] [--seconds 25] [--trace 0|1]
//! ```
//!
//! Prints every metric by name and unit, writes
//! `target/bench/admission/<workload>.json` (plus `.spans.jsonl` when
//! traced) and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Exits 1 when a correctness check fails and 2 on a usage error.
//! `--workload all` runs each workload in a child process of its own, so
//! that peak RSS is per workload.

use cpo_bench_admission::admission::{
    end_to_end, measure, per_layer, write_artifacts, Ledger, Measurement, Metric,
};
use cpo_bench_admission::workload::{Workload, NAMES};
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Duration;

/// Where the JSON artifacts go, relative to the working directory.
const OUT_DIR: &str = "target/bench/admission";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 42,
        seconds: 25,
        trace: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            // `--trace` alone means `--trace 1`.
            "--trace" => {
                args.trace = match it.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}:");
    for m in metrics {
        println!("  {:<26} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn print_ledger(ledger: &Ledger) {
    println!(
        "ledger (run = source + des.self + register + apply + solve_wall + depart + failure):"
    );
    for (name, secs) in Ledger::PARTS.iter().zip(ledger.parts) {
        println!(
            "  {name:<12} {secs:>10.4} s  {:>6.2} %",
            100.0 * secs / ledger.run
        );
    }
    println!(
        "  {:<12} {:>10.4} s  (run {:.4} s)",
        "sum",
        ledger.sum(),
        ledger.run
    );
}

/// The last line of standard output.
fn result_line(m: &Measurement, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.correct(),
        m.attempted(),
        m.failed(),
        body.join(", ")
    )
}

fn run_one(workload: &Workload, args: &Args) -> ExitCode {
    let budget = Duration::from_secs(args.seconds);
    let w = workload;
    println!(
        "bench_admission: {} — {} arrivals, {} servers, window {}, {:?}, {}, seed {}",
        w.name,
        w.arrivals(),
        w.servers,
        w.window,
        w.engine,
        w.solver.label(),
        args.seed
    );
    let mut m = measure(workload, args.seed, budget, args.trace);
    println!(
        "  {} untraced and {} traced reps on {} cores",
        m.reps.len(),
        m.traced.len(),
        m.host_cores
    );
    let e2e = if m.reps.is_empty() {
        Vec::new()
    } else {
        end_to_end(&m)
    };
    print_metrics("end-to-end", &e2e);
    let layers = match per_layer(&m) {
        Some(Ok(layers)) => layers,
        Some(Err(err)) => {
            m.failures.push(err);
            Vec::new()
        }
        None => Vec::new(),
    };
    if let Some(traced) = m.traced_run() {
        print_metrics("per-layer (traced run)", &layers);
        if let Ok(ledger) = Ledger::of(traced) {
            print_ledger(&ledger);
        }
    }
    let all: Vec<Metric> = e2e.iter().chain(&layers).cloned().collect();
    if let Err(err) = write_artifacts(Path::new(OUT_DIR), &m, budget, &all) {
        m.failures.push(format!("writing {OUT_DIR}: {err}"));
    }
    for failure in &m.failures {
        println!("CHECK FAILED: {failure}");
    }
    println!("wrote {OUT_DIR}/{}.json", w.name);
    let reported = if args.trace { &layers } else { &e2e };
    println!("{}", result_line(&m, reported));
    if m.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a child process and waits for each.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(err) => {
            eprintln!("bench_admission: cannot locate own executable: {err}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for name in NAMES {
        let status = Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("bench_admission: {name} exited with {s}");
                ok = false;
            }
            Err(err) => {
                eprintln!("bench_admission: cannot run {name}: {err}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("bench_admission: {err}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let host_cores = cpo_bench_admission::admission::host_cores();
    match Workload::named(&args.workload, host_cores) {
        Some(workload) => run_one(&workload, &args),
        None => {
            eprintln!(
                "bench_admission: unknown workload {} (one of {}, or all)",
                args.workload,
                NAMES.join(", ")
            );
            ExitCode::from(2)
        }
    }
}
