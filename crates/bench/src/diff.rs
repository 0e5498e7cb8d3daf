//! The perf-regression gate: compares a freshly produced `BENCH_*.json`
//! against a committed baseline under per-metric tolerance bands.
//!
//! Every metric key carries a [`Direction`] — which way is *worse* — and
//! a relative tolerance. Throughputs (`events_per_sec`) regress when they
//! drop; wall times and latency percentiles regress when they grow;
//! deterministic replay outcomes (admitted/rejected counts, the replay
//! fingerprint, solver node counts) must match **exactly** — a mismatch
//! there is not noise but a behaviour change that needs an intentional
//! baseline refresh in the same commit. Unknown metrics are reported but
//! never gate, so adding a new cell does not break CI until a baseline
//! containing it is committed.
//!
//! Timing tolerances are deliberately generous (CI machines are noisy
//! and runner classes change); the `scale` knob loosens every
//! non-exact band uniformly for the noisiest jobs. The committed
//! defaults are tuned so a genuine 20% throughput regression always
//! trips the `events_per_sec` band (tolerance 0.15) while a clean
//! same-machine re-run stays inside it.

use cpo_obs::json::Value;
use std::fmt::Write as _;

/// Which direction of change constitutes a regression.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Throughput-like: a drop beyond tolerance is a regression.
    LowerIsWorse,
    /// Latency/footprint-like: growth beyond tolerance is a regression.
    HigherIsWorse,
    /// Deterministic outcome: any change is a regression.
    Exact,
    /// Informational only; never gates.
    Ignore,
}

/// The comparison rule for one metric key.
#[derive(Clone, Copy, Debug)]
pub struct Policy {
    /// Which way is worse.
    pub direction: Direction,
    /// Relative tolerance (ignored for `Exact`/`Ignore`).
    pub tolerance: f64,
}

/// The tolerance-band table, keyed by the field name within a cell.
/// Cell names don't enter the policy: `wall_ns` means the same thing in
/// every cell that reports it.
pub fn policy_for(key: &str) -> Policy {
    let p = |direction, tolerance| Policy {
        direction,
        tolerance,
    };
    match key {
        // Throughput: the headline gate. 0.15 < 0.20 so an injected 20%
        // events/s regression always trips it.
        "events_per_sec" => p(Direction::LowerIsWorse, 0.15),
        // Wall-clock timings: noisy, gate only on gross blowups.
        "wall_ns" => p(Direction::HigherIsWorse, 0.50),
        // Per-window solve-latency percentiles (ms).
        "p50_ms" | "p95_ms" | "p99_ms" => p(Direction::HigherIsWorse, 1.0),
        // Peak memory: constant-memory claims break loudly.
        "peak_rss_bytes" => p(Direction::HigherIsWorse, 0.30),
        // Incremental-evaluation effectiveness: the full/delta eval-work
        // ratio shrinking means delta scoring saves less work.
        "work_ratio" => p(Direction::LowerIsWorse, 0.25),
        // Flight-recorder overhead: on/off wall ratio, very noisy.
        "overhead_ratio" => p(Direction::HigherIsWorse, 1.0),
        // Deterministic replay/search outcomes and configuration echoes:
        // exact or the baseline is stale.
        "arrivals"
        | "servers"
        | "amplify_factor"
        | "seed"
        | "window_length"
        | "horizon"
        | "events"
        | "windows"
        | "admitted"
        | "rejected"
        | "peak_active_servers"
        | "peak_running_vms"
        | "fingerprint"
        // Allocation counts of deterministic replays: a count that moves
        // means an allocation came onto (or left) a pinned path.
        | "allocations"
        | "propagations"
        | "nodes"
        | "eval_work"
        | "delta_evals"
        | "full_evals"
        | "moves"
        | "fleet_series"
        | "ring_capacity"
        | "windows_sampled"
        // Sharded-replay outcomes: the optimistic-commit protocol is
        // deterministic, so conflict counters and their derived rate
        // must reproduce exactly or the store protocol changed.
        | "shards"
        | "commits"
        | "conflicts"
        | "conflict_rate"
        // Latency-attribution counters: the profiler's deterministic
        // subset (stage coverage, accounting, per-server conflict heat
        // ranking) must reproduce exactly or attribution changed.
        | "tracked"
        | "finalized"
        | "accounted_fraction"
        | "stage_coverage"
        | "stale_bounces"
        | "capacity_bounces"
        | "hot_fingerprint" => p(Direction::Exact, 0.0),
        _ => p(Direction::Ignore, 0.0),
    }
}

/// Outcome class of one compared metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Inside the band (or an improvement).
    Ok,
    /// Outside the band in the bad direction.
    Regression,
    /// Present in the baseline but absent from the current report.
    Missing,
    /// Not gated (unknown key, or a key policy says to ignore).
    Info,
}

/// One compared metric.
#[derive(Clone, Debug)]
pub struct DiffLine {
    /// `cell.field` identifier.
    pub key: String,
    /// Outcome class.
    pub status: Status,
    /// Human-readable comparison.
    pub detail: String,
}

/// The full comparison result.
#[derive(Clone, Debug, Default)]
pub struct DiffOutcome {
    /// One line per compared metric, report order.
    pub lines: Vec<DiffLine>,
    /// Count of [`Status::Regression`] lines.
    pub regressions: usize,
    /// Count of [`Status::Missing`] lines.
    pub missing: usize,
}

impl DiffOutcome {
    /// True when the gate passes.
    pub fn passed(&self) -> bool {
        self.regressions == 0 && self.missing == 0
    }

    /// Renders the outcome as an aligned text table (regressions and
    /// missing metrics first, then the rest in report order).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut ordered: Vec<&DiffLine> = self
            .lines
            .iter()
            .filter(|l| matches!(l.status, Status::Regression | Status::Missing))
            .collect();
        ordered.extend(
            self.lines
                .iter()
                .filter(|l| !matches!(l.status, Status::Regression | Status::Missing)),
        );
        let key_w = ordered.iter().map(|l| l.key.len()).max().unwrap_or(0);
        for line in ordered {
            let tag = match line.status {
                Status::Ok => "ok        ",
                Status::Regression => "REGRESSION",
                Status::Missing => "MISSING   ",
                Status::Info => "info      ",
            };
            let _ = writeln!(out, "{tag}  {:<key_w$}  {}", line.key, line.detail);
        }
        let _ = writeln!(
            out,
            "{} metrics compared, {} regressions, {} missing → {}",
            self.lines.len(),
            self.regressions,
            self.missing,
            if self.passed() { "PASS" } else { "FAIL" }
        );
        out
    }
}

/// A report's cells as `(name, entries)` pairs.
type Cells<'a> = Vec<(&'a str, &'a [(String, Value)])>;

fn cells_of(report: &Value) -> Result<Cells<'_>, String> {
    let cells = report
        .get("cells")
        .and_then(Value::as_array)
        .ok_or("report has no cells array")?;
    cells
        .iter()
        .map(|c| {
            let name = c
                .get("name")
                .and_then(Value::as_str)
                .ok_or("cell without a name")?;
            Ok((name, c.entries().ok_or("cell is not an object")?))
        })
        .collect()
}

fn numeric_line(key: &str, base: f64, cur: f64, policy: Policy, scale: f64) -> DiffLine {
    let tol = policy.tolerance * scale;
    let rel = if base != 0.0 {
        (cur - base) / base.abs()
    } else if cur == 0.0 {
        0.0
    } else {
        f64::INFINITY * (cur - base).signum()
    };
    let bad = match policy.direction {
        Direction::LowerIsWorse => rel < -tol,
        Direction::HigherIsWorse => rel > tol,
        Direction::Exact => base != cur,
        Direction::Ignore => false,
    };
    let status = match policy.direction {
        Direction::Ignore => Status::Info,
        _ if bad => Status::Regression,
        _ => Status::Ok,
    };
    let detail = if policy.direction == Direction::Exact {
        format!("baseline {base} current {cur} (exact)")
    } else {
        format!(
            "baseline {base:.4} current {cur:.4} ({:+.1}%, tolerance ±{:.0}%)",
            rel * 100.0,
            tol * 100.0
        )
    };
    DiffLine {
        key: key.to_string(),
        status,
        detail,
    }
}

/// Compares `current` against `baseline` (both parsed `BENCH_*.json`
/// documents) with every non-exact tolerance multiplied by `scale`.
/// Metrics present only in `current` are informational; metrics present
/// only in the baseline count as missing (a silently dropped measurement
/// must not pass the gate).
pub fn diff_reports(baseline: &Value, current: &Value, scale: f64) -> Result<DiffOutcome, String> {
    let bs = baseline.get("schema").and_then(Value::as_str);
    let cs = current.get("schema").and_then(Value::as_str);
    if bs != cs {
        return Err(format!(
            "schema mismatch: baseline {bs:?} vs current {cs:?}"
        ));
    }
    let base_cells = cells_of(baseline)?;
    let cur_cells = cells_of(current)?;
    let mut outcome = DiffOutcome::default();
    for (cell, fields) in &base_cells {
        let cur_fields = cur_cells.iter().find(|(n, _)| n == cell).map(|(_, f)| *f);
        for (field, base_val) in fields.iter() {
            if field == "name" {
                continue;
            }
            let key = format!("{cell}.{field}");
            let policy = policy_for(field);
            let cur_val =
                cur_fields.and_then(|f| f.iter().find(|(k, _)| k == field).map(|(_, v)| v));
            let line = match (cur_val, policy.direction) {
                (None, Direction::Ignore) => DiffLine {
                    key,
                    status: Status::Info,
                    detail: "absent from current report (not gated)".into(),
                },
                (None, _) => DiffLine {
                    key,
                    status: Status::Missing,
                    detail: "present in baseline, absent from current report".into(),
                },
                (Some(cur), _) => match (base_val, cur) {
                    // Null on either side (e.g. peak RSS off-Linux):
                    // nothing comparable, report and move on.
                    (Value::Null, _) | (_, Value::Null) => DiffLine {
                        key,
                        status: Status::Info,
                        detail: "null on at least one side (not gated)".into(),
                    },
                    (Value::Str(b), _) => match cur.as_str() {
                        Some(c) if policy.direction == Direction::Ignore => DiffLine {
                            key,
                            status: Status::Info,
                            detail: format!("baseline {b:?} current {c:?} (not gated)"),
                        },
                        Some(c) if c == b => DiffLine {
                            key,
                            status: Status::Ok,
                            detail: format!("{b:?} (exact)"),
                        },
                        Some(c) => DiffLine {
                            key,
                            status: Status::Regression,
                            detail: format!("baseline {b:?} current {c:?} (exact match required)"),
                        },
                        None => DiffLine {
                            key,
                            status: Status::Regression,
                            detail: "baseline is a string, current is not".into(),
                        },
                    },
                    _ => match (base_val.as_f64(), cur.as_f64()) {
                        (Some(b), Some(c)) => numeric_line(&key, b, c, policy, scale),
                        _ => DiffLine {
                            key,
                            status: Status::Regression,
                            detail: "type mismatch between baseline and current".into(),
                        },
                    },
                },
            };
            match line.status {
                Status::Regression => outcome.regressions += 1,
                Status::Missing => outcome.missing += 1,
                _ => {}
            }
            outcome.lines.push(line);
        }
    }
    // New metrics in the current report: informational until a baseline
    // refresh commits them.
    for (cell, fields) in &cur_cells {
        let in_base = base_cells.iter().find(|(n, _)| n == cell).map(|(_, f)| *f);
        for (field, _) in fields.iter() {
            if field == "name" {
                continue;
            }
            let known = in_base.is_some_and(|f| f.iter().any(|(k, _)| k == field));
            if !known {
                outcome.lines.push(DiffLine {
                    key: format!("{cell}.{field}"),
                    status: Status::Info,
                    detail: "new metric, not in baseline (commit a refreshed baseline to gate it)"
                        .into(),
                });
            }
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpo_obs::json::parse;

    fn report(events_per_sec: f64, admitted: u64, fp: &str) -> Value {
        parse(&format!(
            "{{\"schema\":\"cpo-bench-trace\",\"schema_version\":1,\"cells\":[\
             {{\"name\":\"trace.replay\",\"events_per_sec\":{events_per_sec},\
             \"admitted\":{admitted},\"fingerprint\":\"{fp}\",\"wall_ns\":1000000}}]}}"
        ))
        .unwrap()
    }

    #[test]
    fn clean_rerun_passes() {
        let base = report(100_000.0, 42, "0xabc");
        // 5% slower + identical deterministic outcomes: inside the band.
        let cur = report(95_000.0, 42, "0xabc");
        let d = diff_reports(&base, &cur, 1.0).unwrap();
        assert!(d.passed(), "{}", d.render());
    }

    #[test]
    fn twenty_percent_throughput_drop_fails() {
        let base = report(100_000.0, 42, "0xabc");
        let cur = report(80_000.0, 42, "0xabc");
        let d = diff_reports(&base, &cur, 1.0).unwrap();
        assert!(!d.passed());
        assert_eq!(d.regressions, 1);
        assert!(d.render().contains("trace.replay.events_per_sec"));
    }

    #[test]
    fn throughput_improvement_never_fails() {
        let base = report(100_000.0, 42, "0xabc");
        let cur = report(250_000.0, 42, "0xabc");
        assert!(diff_reports(&base, &cur, 1.0).unwrap().passed());
    }

    #[test]
    fn deterministic_outcomes_require_exact_match() {
        let base = report(100_000.0, 42, "0xabc");
        let off_by_one = report(100_000.0, 43, "0xabc");
        assert!(!diff_reports(&base, &off_by_one, 1.0).unwrap().passed());
        let fp_change = report(100_000.0, 42, "0xdef");
        assert!(!diff_reports(&base, &fp_change, 1.0).unwrap().passed());
        // Scale loosens timing bands but never exactness.
        assert!(!diff_reports(&base, &fp_change, 100.0).unwrap().passed());
    }

    #[test]
    fn missing_metric_fails_but_new_metric_informs() {
        let base = report(100_000.0, 42, "0xabc");
        let narrower = parse(
            "{\"schema\":\"cpo-bench-trace\",\"schema_version\":1,\"cells\":[\
             {\"name\":\"trace.replay\",\"admitted\":42,\"fingerprint\":\"0xabc\",\
             \"wall_ns\":1000000,\"brand_new\":7}]}",
        )
        .unwrap();
        let d = diff_reports(&base, &narrower, 1.0).unwrap();
        assert_eq!(d.missing, 1, "{}", d.render());
        assert!(!d.passed());
        assert!(d
            .lines
            .iter()
            .any(|l| l.key == "trace.replay.brand_new" && l.status == Status::Info));
    }

    #[test]
    fn scale_loosens_timing_bands() {
        let base = report(100_000.0, 42, "0xabc");
        let cur = report(85_000.0, 42, "0xabc"); // −15%: outside 0.15? just at edge
        assert!(diff_reports(&base, &cur, 1.0).unwrap().passed());
        let worse = report(80_000.0, 42, "0xabc"); // −20%: fails at scale 1
        assert!(!diff_reports(&base, &worse, 1.0).unwrap().passed());
        // ...but passes at scale 2 (tolerance 30%).
        assert!(diff_reports(&base, &worse, 2.0).unwrap().passed());
    }

    #[test]
    fn null_rss_is_informational() {
        let base = parse(
            "{\"schema\":\"s\",\"schema_version\":1,\"cells\":[\
             {\"name\":\"c\",\"peak_rss_bytes\":null}]}",
        )
        .unwrap();
        let cur = parse(
            "{\"schema\":\"s\",\"schema_version\":1,\"cells\":[\
             {\"name\":\"c\",\"peak_rss_bytes\":123456}]}",
        )
        .unwrap();
        let d = diff_reports(&base, &cur, 1.0).unwrap();
        assert!(d.passed());
        assert_eq!(d.lines[0].status, Status::Info);
    }

    #[test]
    fn schema_mismatch_is_an_error() {
        let a = parse("{\"schema\":\"x\",\"cells\":[]}").unwrap();
        let b = parse("{\"schema\":\"y\",\"cells\":[]}").unwrap();
        assert!(diff_reports(&a, &b, 1.0).is_err());
    }
}
