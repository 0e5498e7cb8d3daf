//! CI perf-regression gate: diffs a fresh `BENCH_*.json` against its
//! committed baseline under the per-metric tolerance policy in
//! [`cpo_bench::diff`].
//!
//! ```text
//! cargo run --release -p cpo-bench --bin bench_diff -- \
//!     --baseline results/baselines/BENCH_trace.json \
//!     --current  target/bench/BENCH_trace.json \
//!     [--scale 1.0]
//! ```
//!
//! Exit codes: `0` inside every band, `1` on a regression or a missing
//! metric, `2` on usage/parse errors. `--scale` multiplies every
//! non-exact tolerance (use >1 on noisy shared runners); exact metrics
//! (deterministic counts, the replay fingerprint) never loosen — when
//! one changes intentionally, regenerate and commit the baseline in the
//! same PR.

use cpo_bench::diff::diff_reports;
use cpo_obs::json::parse;
use std::process::ExitCode;

struct Args {
    baseline: String,
    current: String,
    scale: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut baseline = None;
    let mut current = None;
    let mut scale = 1.0f64;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("missing value for {flag}"));
        match flag.as_str() {
            "--baseline" => baseline = Some(value()?),
            "--current" => current = Some(value()?),
            "--scale" => {
                scale = value()?.parse().map_err(|e| format!("bad --scale: {e}"))?;
                if scale.is_nan() || scale <= 0.0 {
                    return Err("--scale must be positive".into());
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        baseline: baseline.ok_or("--baseline is required")?,
        current: current.ok_or("--current is required")?,
        scale,
    })
}

fn load(path: &str) -> Result<cpo_obs::json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    parse(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let baseline = load(&args.baseline)?;
    let current = load(&args.current)?;
    let outcome = diff_reports(&baseline, &current, args.scale)?;
    println!(
        "bench_diff: {} vs baseline {} (scale {})",
        args.current, args.baseline, args.scale
    );
    print!("{}", outcome.render());
    Ok(outcome.passed())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench_diff: {e}");
            eprintln!(
                "usage: bench_diff --baseline <committed.json> --current <fresh.json> \
                 [--scale <f>]"
            );
            ExitCode::from(2)
        }
    }
}
