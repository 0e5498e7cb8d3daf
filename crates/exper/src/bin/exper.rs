//! `exper` — regenerate the paper's tables and figures from the command
//! line.
//!
//! ```text
//! exper table3
//! exper fig7 [--runs N] [--paper] [--seed S] [--csv FILE]
//! exper ablations [--csv-dir DIR]
//! exper all  [--runs N] [--paper] [--seed S] [--csv-dir DIR]
//! ```
//!
//! The five quality figures (`fig9`, `fig10`, `fig11`, `ext-cpr`,
//! `ext-rev`) are five metrics of one sweep; `all` runs it once. `all`
//! and `ablations` emit several tables, so they take `--csv-dir` (one
//! `<id>.csv` per table) and refuse `--csv FILE`.
//!
//! Default effort is `--quick` (reduced budgets, same qualitative shape);
//! `--paper` switches to the Table III settings with 100 runs.
//!
//! `--telemetry` records solver/simulator instrumentation and appends a
//! telemetry section (per-solver p95 solve time, propagation totals) to
//! the output; `--trace FILE` additionally writes a `chrome://tracing`
//! compatible span trace.
//!
//! `exper des` runs the continuous-time simulator with the flight
//! recorder on, dumps the ring to `<out-dir>/flight.jsonl`, reconstructs
//! per-request lifecycle timelines from it and checks every one against
//! the lifecycle grammar (`cpo_obs::timeline::Track`). Any defect fails
//! the command; when the ring overwrote events the timelines are
//! partial, so the check is skipped and says so. `--timeline ID` prints
//! one request's reconstructed history.
//! `exper trace` replays a production trace the same way; `--telemetry`
//! (or `--strict`, `--profile`) turns the recorder on, and then it
//! writes the same `flight.jsonl` under `--out-dir` and runs the same
//! check.
//! `--dash FILE` (on `des` and `trace`) collects per-window fleet-health
//! time series and writes a self-contained HTML dashboard, plus an ANSI
//! sparkline summary on stdout.
//! `exper timeline <dump.jsonl>` reconstructs timelines offline from a
//! previously written flight dump (e.g. a panic dump) and applies the
//! same check, skipped when the dump records overwritten events.
//!
//! `--solve-deadline MS` bounds each window solve with a wall-clock
//! deadline (anytime allocators cut and return their best incumbent;
//! the `race` portfolio runs its members concurrently under it). It
//! also reads `CPO_SOLVE_DEADLINE_MS`; the flag takes precedence over
//! the environment, which takes precedence over the default (no
//! deadline).
//!
//! `--profile` (on `des` and `trace`) turns on the latency-attribution
//! profiler: per-request stage decomposition (queue-wait → solve →
//! commit attempts → bounce rounds → placement), per-window critical
//! paths, conflict hotspot tables and tail exemplars, written to
//! `<out-dir>/profile.json` plus a flamegraph-compatible
//! `<out-dir>/flame.folded`. `exper profile` is trace replay with the
//! profiler forced on — the one-command answer to "where does every
//! microsecond of admission go".

use cpo_exper::chart::{render_chart, ChartOptions};
use cpo_exper::figures::{self, Figure, Metric};
use cpo_exper::markdown::figure_markdown;
use cpo_exper::report::{figure_csv, render_figure, render_table3, shape_summary};
use cpo_exper::runner::{admissible, scenario_problem, Algorithm, Effort};
use cpo_scenario::prelude::{ScenarioFile, ScenarioSize};
use std::env;
use std::fs;
use std::process::ExitCode;

struct Options {
    effort: Effort,
    runs: Option<usize>,
    seed: u64,
    csv: Option<String>,
    csv_dir: Option<String>,
    md: bool,
    chart: bool,
    telemetry: bool,
    trace: Option<String>,
    /// Request uid whose reconstructed timeline `des`/`timeline` print.
    timeline: Option<u64>,
    /// Directory for flight dumps and metrics JSONL.
    out_dir: String,
    /// `des`/`trace`: write an HTML fleet-health dashboard here.
    dash: Option<String>,
    /// `des`: allocator label (see [`Algorithm::label`]).
    algo: Algorithm,
    /// `des`: arrival rate λ.
    rate: f64,
    /// `des`: simulation horizon in sim-time units.
    horizon: f64,
    /// `des`: fleet size.
    servers: usize,
    /// `des`: optional MTBF,MTTR failure injection.
    failures: Option<(f64, f64)>,
    /// Arm fail-fast invariant monitors.
    strict: bool,
    /// `trace`: dataset spec (`azure:path` / `huawei:path`).
    dataset: String,
    /// `trace`: amplification factor (replicas of the seed trace).
    amplify: usize,
    /// `trace`: scheduling window length in sim-time units.
    window: f64,
    /// `des`/`trace`: shard the window solve across N workers over the
    /// optimistic-commit placement store (1 = unsharded seed path).
    shards: Option<usize>,
    /// `des`/`trace`: run the latency-attribution profiler and write
    /// `profile.json` + `flame.folded` under `--out-dir`.
    profile: bool,
    /// Per-window solve budget in wall-clock milliseconds; wraps the
    /// allocator in a `DeadlineBound` and races the portfolio under it.
    /// Precedence: `--solve-deadline` > `CPO_SOLVE_DEADLINE_MS` > none.
    solve_deadline_ms: Option<u64>,
}

fn env_parse<T: std::str::FromStr>(name: &str) -> Result<Option<T>, String> {
    match env::var(name) {
        Ok(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("{name}: invalid value {v:?}")),
        Err(_) => Ok(None),
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        effort: Effort::Quick,
        runs: None,
        seed: 42,
        csv: None,
        csv_dir: None,
        md: false,
        chart: false,
        telemetry: false,
        trace: None,
        timeline: None,
        out_dir: "target/flight".into(),
        dash: None,
        algo: Algorithm::RoundRobin,
        rate: 3.0,
        horizon: 40.0,
        servers: 12,
        failures: None,
        strict: false,
        dataset: "azure:examples/data/azure_sample.csv".into(),
        amplify: 1,
        window: 60.0,
        shards: None,
        profile: false,
        // The environment supplies the default; an explicit flag
        // overwrites it below (flag > env > built-in default).
        solve_deadline_ms: env_parse("CPO_SOLVE_DEADLINE_MS")?,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--paper" => opts.effort = Effort::Paper,
            "--quick" => opts.effort = Effort::Quick,
            "--runs" => {
                let v = it.next().ok_or("--runs needs a value")?;
                opts.runs = Some(v.parse().map_err(|e| format!("--runs: {e}"))?);
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                opts.seed = v.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--md" => opts.md = true,
            "--chart" => opts.chart = true,
            "--telemetry" => opts.telemetry = true,
            "--trace" => {
                opts.trace = Some(it.next().ok_or("--trace needs a path")?.clone());
                opts.telemetry = true; // a trace needs recording on
            }
            "--csv" => opts.csv = Some(it.next().ok_or("--csv needs a path")?.clone()),
            "--csv-dir" => opts.csv_dir = Some(it.next().ok_or("--csv-dir needs a path")?.clone()),
            "--timeline" => {
                let v = it.next().ok_or("--timeline needs a request uid")?;
                opts.timeline = Some(v.parse().map_err(|e| format!("--timeline: {e}"))?);
            }
            "--out-dir" => opts.out_dir = it.next().ok_or("--out-dir needs a path")?.clone(),
            "--dash" => opts.dash = Some(it.next().ok_or("--dash needs a path")?.clone()),
            "--algo" => {
                let v = it.next().ok_or("--algo needs a name")?;
                opts.algo = Algorithm::extended()
                    .into_iter()
                    .find(|a| a.label() == v.as_str())
                    .ok_or_else(|| format!("--algo: unknown allocator {v}"))?;
            }
            "--rate" => {
                let v = it.next().ok_or("--rate needs a value")?;
                opts.rate = v.parse().map_err(|e| format!("--rate: {e}"))?;
            }
            "--horizon" => {
                let v = it.next().ok_or("--horizon needs a value")?;
                opts.horizon = v.parse().map_err(|e| format!("--horizon: {e}"))?;
            }
            "--servers" => {
                let v = it.next().ok_or("--servers needs a value")?;
                opts.servers = v.parse().map_err(|e| format!("--servers: {e}"))?;
            }
            "--failures" => {
                let v = it.next().ok_or("--failures needs MTBF,MTTR")?;
                let (mtbf, mttr) = v
                    .split_once(',')
                    .ok_or("--failures needs the form MTBF,MTTR")?;
                opts.failures = Some((
                    mtbf.parse().map_err(|e| format!("--failures mtbf: {e}"))?,
                    mttr.parse().map_err(|e| format!("--failures mttr: {e}"))?,
                ));
            }
            "--strict" => opts.strict = true,
            "--profile" => opts.profile = true,
            "--dataset" => opts.dataset = it.next().ok_or("--dataset needs a spec")?.clone(),
            "--amplify" => {
                let v = it.next().ok_or("--amplify needs a factor")?;
                opts.amplify = v.parse().map_err(|e| format!("--amplify: {e}"))?;
                if opts.amplify < 1 {
                    return Err("--amplify must be >= 1".into());
                }
            }
            "--window" => {
                let v = it.next().ok_or("--window needs a length")?;
                opts.window = v.parse().map_err(|e| format!("--window: {e}"))?;
            }
            "--shards" => {
                let v = it.next().ok_or("--shards needs a count")?;
                let n: usize = v.parse().map_err(|e| format!("--shards: {e}"))?;
                if n < 1 {
                    return Err("--shards must be >= 1".into());
                }
                opts.shards = Some(n);
            }
            "--solve-deadline" => {
                let v = it.next().ok_or("--solve-deadline needs milliseconds")?;
                opts.solve_deadline_ms =
                    Some(v.parse().map_err(|e| format!("--solve-deadline: {e}"))?);
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(opts)
}

/// Prints the telemetry section and writes the chrome trace if requested.
/// When a baseline snapshot was taken at startup, only the *delta* since
/// then is reported — run-scoped numbers even under ambient recording.
fn finish_telemetry(opts: &Options, base: Option<&cpo_obs::Snapshot>) -> Result<(), String> {
    if !opts.telemetry {
        return Ok(());
    }
    let snap = cpo_obs::snapshot();
    let snap = match base {
        Some(b) => snap.delta(b),
        None => snap,
    };
    if opts.md {
        print!("{}", cpo_exper::markdown::telemetry_markdown(&snap));
    } else {
        print!("{}", cpo_exper::report::render_telemetry(&snap));
    }
    // Every telemetry run also leaves a machine-readable record: the
    // run-scoped snapshot as metrics JSONL under --out-dir, the same
    // dump shape for `des` and `trace` alike.
    fs::create_dir_all(&opts.out_dir).map_err(|e| format!("creating {}: {e}", opts.out_dir))?;
    let metrics_path = format!("{}/metrics.jsonl", opts.out_dir);
    fs::write(&metrics_path, cpo_obs::metrics_json_lines(&snap))
        .map_err(|e| format!("writing {metrics_path}: {e}"))?;
    eprintln!("wrote metrics JSONL to {metrics_path}");
    if let Some(path) = &opts.trace {
        fs::write(path, cpo_obs::chrome_trace(&snap))
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote chrome trace to {path} (open in chrome://tracing or ui.perfetto.dev)");
    }
    Ok(())
}

/// Writes the fleet-health dashboard and prints its terminal summary
/// when `--dash` was given (`des`/`trace`; the series bus was enabled
/// before the run).
fn finish_dash(opts: &Options, what: &str) -> Result<(), String> {
    let Some(path) = &opts.dash else {
        return Ok(());
    };
    let bus = cpo_obs::series::snapshot();
    let title = format!(
        "exper {what} — {} servers, allocator {}, seed {}",
        opts.servers,
        opts.algo.label(),
        opts.seed
    );
    cpo_obs::dash::write_html(&bus, path, &title).map_err(|e| format!("writing {path}: {e}"))?;
    println!("  dashboard: {} series -> {path}", bus.series().len());
    print!("{}", cpo_obs::dash::ansi_summary(&bus));
    Ok(())
}

/// Snapshots the latency-attribution profiler, prints the breakdown
/// (stages, critical path, hotspots, tail exemplars) and writes
/// `profile.json` + `flame.folded` under `--out-dir`.
fn finish_profile(opts: &Options) -> Result<(), String> {
    if !cpo_obs::prof::is_enabled() {
        return Ok(());
    }
    let Some(p) = cpo_obs::prof::snapshot() else {
        return Ok(());
    };
    fs::create_dir_all(&opts.out_dir).map_err(|e| format!("creating {}: {e}", opts.out_dir))?;
    let profile_path = format!("{}/profile.json", opts.out_dir);
    fs::write(&profile_path, p.to_json(true))
        .map_err(|e| format!("writing {profile_path}: {e}"))?;
    let flame_path = format!("{}/flame.folded", opts.out_dir);
    fs::write(&flame_path, p.flame_folded()).map_err(|e| format!("writing {flame_path}: {e}"))?;

    println!("latency attribution:");
    println!(
        "  requests: {} tracked, {} admitted, {} rejected, {} in flight",
        p.tracked, p.admitted, p.rejected, p.in_flight
    );
    println!(
        "  accounting: {:.2}% of finalized requests have ≥95% of their latency attributed to stages",
        p.accounted_fraction() * 100.0
    );
    println!("  stage            segments       total µs    mean µs     p95 µs");
    for (stage, agg) in cpo_obs::prof::Stage::ALL.iter().zip(&p.stages) {
        println!(
            "    {:<12} {:>10} {:>14} {:>10.1} {:>10}",
            stage.label(),
            agg.segments,
            agg.total_us,
            agg.summary.mean,
            agg.summary.p95,
        );
    }
    println!(
        "    {:<12} {:>10} {:>14} {:>10.1} {:>10}  (end-to-end)",
        "total", p.total.segments, p.total.total_us, p.total.summary.mean, p.total.summary.p95
    );
    println!(
        "  critical path: {} windows, solve-critical {} µs + commit tail {} µs",
        p.windows.len(),
        p.solve_critical_us(),
        p.commit_tail_us(),
    );
    println!(
        "  commit attempts: {} committed, {} bounced ({} stale / {} capacity)",
        p.commits, p.bounces, p.stale_bounces, p.capacity_bounces
    );
    let hot = p.top_hot_servers(5);
    if hot.is_empty() {
        println!("  conflict hotspots: none (no bounced commit attempt)");
    } else {
        println!(
            "  conflict hotspots (top {}, fingerprint {}):",
            hot.len(),
            p.hot_fingerprint(8)
        );
        for h in hot {
            println!(
                "    server {:>6}  {:>6} bounces ({} stale / {} capacity)",
                h.server, h.conflicts, h.stale, h.capacity
            );
        }
    }
    for e in p.exemplars.iter().take(3) {
        println!(
            "  tail exemplar: request {} — {} µs total ({} bounces), \
             queue {} / solve {} / commit {} / bounce-wait {} / placement {} µs",
            e.key,
            e.total_us,
            e.bounces,
            e.stage_us[0],
            e.stage_us[1],
            e.stage_us[2],
            e.stage_us[3],
            e.stage_us[4],
        );
    }
    if let Some(e) = p.exemplars.first() {
        println!(
            "  inspect a tail request: exper timeline {}/flight.jsonl --timeline {}",
            opts.out_dir, e.key
        );
    }
    println!("  profile: {profile_path}");
    println!("  flame:   {flame_path} (feed to inferno/flamegraph.pl)");
    Ok(())
}

/// Renders one request's timeline from a reconstructed set.
fn print_timeline(set: &cpo_obs::timeline::TimelineSet, uid: u64) -> Result<(), String> {
    let t = set
        .timeline(uid)
        .ok_or_else(|| format!("no timeline for request {uid}"))?;
    print!("{}", t.render());
    Ok(())
}

/// Gates on the lifecycle check: `Err` on any defect, unless the ring
/// overwrote events, which leaves timelines partial and the check moot.
fn lifecycle_gate(set: &cpo_obs::timeline::TimelineSet, overwritten: u64) -> Result<(), String> {
    if overwritten > 0 {
        println!("  lifecycle check skipped: {overwritten} events overwritten");
        return Ok(());
    }
    let errors = set.all_errors();
    if errors.is_empty() {
        println!("  lifecycle check: every timeline complete and ordered");
        return Ok(());
    }
    println!("  lifecycle check: {} defects", errors.len());
    for e in errors.iter().take(10) {
        println!("    {e}");
    }
    Err(format!("lifecycle check: {} defects", errors.len()))
}

/// Dumps the flight ring to `<out-dir>/flight.jsonl`, reconstructs the
/// per-request timelines and gates on their lifecycle check.
fn finish_flight(opts: &Options) -> Result<cpo_obs::timeline::TimelineSet, String> {
    let snap = cpo_obs::flight::snapshot();
    fs::create_dir_all(&opts.out_dir).map_err(|e| format!("creating {}: {e}", opts.out_dir))?;
    let dump_path = format!("{}/flight.jsonl", opts.out_dir);
    fs::write(&dump_path, cpo_obs::flight::dump_json_lines(&snap))
        .map_err(|e| format!("writing {dump_path}: {e}"))?;
    let set = cpo_obs::timeline::reconstruct(&snap.events);
    println!(
        "  flight: {} events recorded ({} overwritten) -> {dump_path}",
        snap.recorded, snap.overwritten
    );
    println!(
        "  timelines: {} requests, {} orphan events",
        set.timelines.len(),
        set.orphans.len()
    );
    lifecycle_gate(&set, snap.overwritten)?;
    Ok(set)
}

/// `exper des` — a flight-recorded continuous-time run with per-request
/// timeline reconstruction and lifecycle validation.
fn run_des(opts: &Options) -> Result<(), String> {
    use cpo_des::prelude::*;
    use cpo_model::attr::AttrSet;
    use cpo_model::prelude::{Infrastructure, ServerProfile};
    use cpo_platform::prelude::SimConfig;
    use cpo_scenario::prelude::ArrivalSpec;

    let infra = Infrastructure::new(
        AttrSet::standard(),
        vec![(
            "dc".into(),
            ServerProfile::commodity(3).build_many(opts.servers),
        )],
    );
    let spec = ArrivalSpec {
        rate: opts.rate,
        ..Default::default()
    };
    let des = DesConfig {
        latency: LatencyModel::PerRequest {
            base: 0.02,
            per_request: 0.01,
        },
        failures: opts.failures.map(|(mtbf, mttr)| FailureSpec { mtbf, mttr }),
        seed: opts.seed,
        solve_deadline: opts.solve_deadline_ms.map(std::time::Duration::from_millis),
        ..Default::default()
    };
    let allocator = opts.algo.build_tuned(
        opts.effort,
        opts.seed,
        opts.solve_deadline_ms.map(std::time::Duration::from_millis),
    );
    let report = match opts.shards {
        Some(shards) => {
            use cpo_platform::prelude::{ShardConfig, ShardedScheduler, WindowExecutor};
            let backend = ShardedScheduler::new(
                WindowExecutor::new(infra, SimConfig::default()),
                ShardConfig {
                    shards,
                    ..ShardConfig::default()
                },
            );
            let mut sched = WindowedScheduler::with_backend(
                backend,
                des,
                PoissonArrivals::new(spec, opts.seed),
            );
            sched.run(allocator.as_ref(), opts.horizon)
        }
        None => {
            let mut sched = WindowedScheduler::new(
                infra,
                SimConfig::default(),
                des,
                PoissonArrivals::new(spec, opts.seed),
            );
            sched.run(allocator.as_ref(), opts.horizon)
        }
    };

    println!(
        "continuous-time run: {} servers, λ={}, horizon {} ({} windows), allocator {}{}",
        opts.servers,
        opts.rate,
        opts.horizon,
        report.windows.len(),
        opts.algo.label(),
        match opts.shards {
            Some(s) => format!(", {s} shards"),
            None => String::new(),
        },
    );
    println!(
        "  admitted {}  rejected {}  mean wait {:.3}  max wait {:.3}",
        report.total_admitted(),
        report.total_rejected(),
        report.waiting.mean(),
        report.waiting.max,
    );
    let set = finish_flight(opts)?;
    finish_profile(opts)?;
    finish_dash(opts, "des")?;
    if let Some(uid) = opts.timeline {
        println!();
        print_timeline(&set, uid)?;
    }
    Ok(())
}

/// `exper trace` — replay a (possibly amplified) production trace
/// through the continuous-time scheduler over the memory-lean
/// [`cpo_platform::prelude::FleetExecutor`].
fn run_trace(opts: &Options) -> Result<(), String> {
    use cpo_des::prelude::*;
    use cpo_model::attr::AttrSet;
    use cpo_model::prelude::{Infrastructure, ServerProfile};
    use cpo_platform::prelude::FleetExecutor;
    use cpo_scenario::prelude::ArrivalSpec;
    use cpo_traces::prelude::*;

    let reader = open_dataset(&opts.dataset, MalformedPolicy::Skip)
        .map_err(|e| format!("{}: {e}", opts.dataset))?;
    let amp = Amplifier::new(
        reader,
        AmplifyConfig {
            factor: opts.amplify,
            time_jitter: if opts.amplify > 1 { 30.0 } else { 0.0 },
            demand_jitter: if opts.amplify > 1 { 0.2 } else { 0.0 },
            seed: opts.seed,
        },
    )
    .map_err(|e| format!("{}: {e}", opts.dataset))?;
    let total = amp.len();
    let horizon = amp.horizon() + 2.0 * opts.window;
    println!(
        "trace replay: {} ({} events = {}-row seed × {}), {} servers, {}s windows, allocator {}",
        opts.dataset,
        total,
        amp.base_len(),
        opts.amplify,
        opts.servers,
        opts.window,
        opts.algo.label(),
    );

    let infra = Infrastructure::new(
        AttrSet::standard(),
        vec![(
            "dc".into(),
            ServerProfile::commodity(3).build_many(opts.servers),
        )],
    );
    let source = TraceArrivalSource::new(amp, ArrivalSpec::default(), opts.seed);
    let des = DesConfig {
        window_length: opts.window,
        latency: LatencyModel::Fixed(0.0),
        failures: opts.failures.map(|(mtbf, mttr)| FailureSpec { mtbf, mttr }),
        seed: opts.seed,
        solve_deadline: opts.solve_deadline_ms.map(std::time::Duration::from_millis),
    };
    let allocator = opts.algo.build_tuned(
        opts.effort,
        opts.seed,
        opts.solve_deadline_ms.map(std::time::Duration::from_millis),
    );
    let start = std::time::Instant::now();
    let (report, wall, emitted, skipped, store_metrics) = match opts.shards {
        Some(shards) => {
            use cpo_platform::prelude::{ShardConfig, ShardedScheduler};
            let backend = ShardedScheduler::new(
                FleetExecutor::new(infra),
                ShardConfig {
                    shards,
                    ..ShardConfig::default()
                },
            );
            let mut sched = WindowedScheduler::with_backend(backend, des, source);
            let report = sched.run(allocator.as_ref(), horizon);
            let wall = start.elapsed();
            if let Some(err) = sched.source().error() {
                return Err(format!("trace stream failed: {err}"));
            }
            let metrics = sched.backend().backend().store().metrics();
            (
                report,
                wall,
                sched.source().emitted(),
                sched.source().skipped_rows(),
                Some(metrics),
            )
        }
        None => {
            let mut sched = WindowedScheduler::with_backend(FleetExecutor::new(infra), des, source);
            let report = sched.run(allocator.as_ref(), horizon);
            let wall = start.elapsed();
            if let Some(err) = sched.source().error() {
                return Err(format!("trace stream failed: {err}"));
            }
            (
                report,
                wall,
                sched.source().emitted(),
                sched.source().skipped_rows(),
                None,
            )
        }
    };
    let peak_active = report
        .windows
        .iter()
        .map(|w| w.active_servers)
        .max()
        .unwrap_or(0);
    let peak_vms = report
        .windows
        .iter()
        .map(|w| w.running_vms)
        .max()
        .unwrap_or(0);
    println!(
        "  replayed {emitted} arrivals in {} windows ({:.0} events/s wall){}",
        report.windows.len(),
        emitted as f64 / wall.as_secs_f64().max(1e-9),
        if skipped > 0 {
            format!(", {skipped} malformed rows skipped")
        } else {
            String::new()
        }
    );
    println!(
        "  admitted {}  rejected {}  peak {} active servers / {} running VMs",
        report.total_admitted(),
        report.total_rejected(),
        peak_active,
        peak_vms,
    );
    if let Some(m) = store_metrics {
        let attempts = m.commits + m.conflicts;
        println!(
            "  sharded admission: {} shards, {} commits, {} conflicts (rate {:.4})",
            opts.shards.unwrap_or(1),
            m.commits,
            m.conflicts,
            if attempts > 0 {
                m.conflicts as f64 / attempts as f64
            } else {
                0.0
            },
        );
    }
    if opts.strict {
        println!("  strict monitors: clean (no invariant violation aborted the run)");
    }
    // Parity with `des`: when the flight recorder is on (--strict,
    // --telemetry or --profile), dump the ring under --out-dir so trace
    // replays are post-mortem debuggable too, and gate on the check.
    if cpo_obs::flight::is_enabled() {
        finish_flight(opts)?;
    }
    finish_profile(opts)?;
    finish_dash(opts, "trace")?;
    Ok(())
}

/// `exper timeline <dump.jsonl>` — offline timeline reconstruction from
/// a flight dump (a run's `flight.jsonl` or a panic hook's dump), gated
/// on the lifecycle check like `des`.
fn run_timeline(path: &str, opts: &Options) -> Result<(), String> {
    let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let snap = cpo_obs::flight::dump_from_json_lines(&text)?;
    let set = cpo_obs::timeline::reconstruct(&snap.events);
    match opts.timeline {
        Some(uid) => print_timeline(&set, uid)?,
        None => {
            println!(
                "{}: {} events, {} request timelines, {} orphan events",
                path,
                snap.events.len(),
                set.timelines.len(),
                set.orphans.len()
            );
            for t in &set.timelines {
                let state = if t.departed() {
                    "departed"
                } else if t.admitted() {
                    "running"
                } else if t.rejected() {
                    "rejected"
                } else {
                    "undecided"
                };
                let defects = t.lifecycle_errors().len();
                println!(
                    "  request {:>4}  tenant {:>4}  {:>2} events  {state}{}",
                    t.key,
                    t.tenant.map_or("-".into(), |x| x.to_string()),
                    t.events.len(),
                    if defects == 0 {
                        String::new()
                    } else {
                        format!("  [{defects} defects]")
                    }
                );
            }
        }
    }
    lifecycle_gate(&set, snap.overwritten)
}

fn emit(fig: &Figure, opts: &Options) -> Result<(), String> {
    if opts.md {
        print!("{}", figure_markdown(fig));
    } else {
        print!("{}", render_figure(fig));
        print!("{}", shape_summary(fig));
    }
    if opts.chart {
        let options = ChartOptions {
            log_y: fig.metric == Metric::TimeMs, // time spans decades
            ..ChartOptions::default()
        };
        print!("{}", render_chart(fig, &options));
    }
    println!();
    write_csv(opts, fig.id, &figure_csv(fig))
}

/// Writes one table's CSV to `--csv FILE` and to `<--csv-dir>/<name>.csv`.
fn write_csv(opts: &Options, name: &str, csv: &str) -> Result<(), String> {
    if let Some(path) = &opts.csv {
        fs::write(path, csv).map_err(|e| format!("writing {path}: {e}"))?;
    }
    if let Some(dir) = &opts.csv_dir {
        fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
        let path = format!("{dir}/{name}.csv");
        fs::write(&path, csv).map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(())
}

/// Convergence study on one representative scenario, the light m=25
/// workload restricted to its admissible requests, and `ext-conv.csv`
/// under `--csv-dir`.
fn run_convergence(opts: &Options) -> Result<(), String> {
    use cpo_exper::convergence::{convergence_csv, convergence_study, render_convergence};
    let size = ScenarioSize::with_servers(25);
    let raw = scenario_problem(&size, false, opts.seed);
    let problem = admissible(&raw);
    let config = opts.effort.nsga_config();
    println!(
        "scenario: {} (seed {}), {} of {} requests admissible",
        size.label(),
        opts.seed,
        problem.batch().request_count(),
        raw.batch().request_count()
    );
    let traces = convergence_study(&problem, &config);
    print!("{}", render_convergence(&traces, config.population_size));
    println!();
    write_csv(opts, "ext-conv", &convergence_csv(&traces))
}

/// Prints the seven ablation tables and writes `ablation-<name>.csv` for
/// each under `--csv-dir`.
fn run_ablations(opts: &Options) -> Result<(), String> {
    for table in cpo_exper::ablation::all() {
        println!("{}", table.render());
        write_csv(opts, &format!("ablation-{}", table.name), &table.csv())?;
    }
    Ok(())
}

/// Runs every algorithm on a saved scenario file and prints one row per
/// algorithm with all metrics.
fn run_scenario_file(path: &str, opts: &Options, runs: usize) -> Result<(), String> {
    let json = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let file = ScenarioFile::from_json(&json)?;
    let spec = file.to_spec();
    let size = ScenarioSize {
        servers: spec.infra.servers,
        vms: spec.requests.total_vms,
        datacenters: spec.infra.datacenters,
    };
    println!(
        "scenario {:?} (seed {}, {} runs): {}",
        file.name,
        file.seed,
        runs,
        size.label()
    );
    let cells = {
        // Reuse the sweep machinery on a single custom size by generating
        // the problems from the loaded spec directly.
        let problems: Vec<_> = (0..runs)
            .map(|r| spec.generate(file.seed.wrapping_add(r as u64)))
            .collect();
        let mut cells = Vec::new();
        for algorithm in Algorithm::extended() {
            let outcomes: Vec<_> = problems
                .iter()
                .enumerate()
                .map(|(r, p)| {
                    algorithm
                        .build(opts.effort, file.seed + r as u64)
                        .allocate(p)
                })
                .collect();
            cells.push(cpo_exper::runner::Cell {
                algorithm,
                size: size.clone(),
                metrics: cpo_exper::metrics::AggregateMetrics::of(&outcomes),
            });
        }
        cells
    };
    print!("{}", cpo_exper::report::render_cells("results:", &cells));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!(
            "usage: exper <table3|fig7|fig8|fig9|fig10|fig11|ext-cpr|ext-rev|ext-conv|ablations|scenario <file>|des|trace|profile|timeline <dump>|all> \
             [--runs N] [--paper|--quick] [--seed S] [--csv FILE] [--csv-dir DIR] [--md] [--chart] \
             [--telemetry] [--trace FILE] [--timeline ID] [--out-dir DIR] [--dash FILE] \
             [--algo NAME] [--rate R] [--horizon T] [--servers N] [--failures MTBF,MTTR] \
             [--strict] [--dataset SPEC] [--amplify N] [--window W] [--shards N] [--profile] \
             [--solve-deadline MS]"
        );
        return ExitCode::FAILURE;
    };
    // `scenario` and `timeline` take a positional file path before the
    // options.
    let (positional_path, option_args): (Option<String>, &[String]) =
        if command == "scenario" || command == "timeline" {
            match args.get(1) {
                Some(path) if !path.starts_with("--") => (Some(path.clone()), &args[2..]),
                _ => {
                    eprintln!("usage: exper {command} <file> [options]");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            (None, &args[1..])
        };
    let opts = match parse_options(option_args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if opts.csv.is_some() && (command == "all" || command == "ablations") {
        eprintln!(
            "error: `exper {command}` writes several tables; use --csv-dir DIR, not --csv FILE"
        );
        return ExitCode::FAILURE;
    }
    let runs = opts.runs.unwrap_or_else(|| opts.effort.runs());
    if opts.telemetry {
        cpo_obs::enable();
    }
    // Telemetry reports are deltas from this point, so ambient counters
    // (e.g. flight-recorder setup) don't pollute run-scoped numbers.
    let telemetry_base = opts.telemetry.then(cpo_obs::snapshot);
    if command == "des" {
        // The flight recorder is always on for continuous-time runs; a
        // panic anywhere below dumps the ring for post-mortem timelines.
        cpo_obs::flight::enable();
        let _ = fs::create_dir_all(&opts.out_dir);
        cpo_obs::flight::install_panic_hook(std::path::Path::new(&opts.out_dir));
        if opts.strict {
            cpo_obs::flight::set_strict(true);
        }
    }
    // Trace replay keeps the recorder off by default (throughput);
    // --telemetry turns it on for the post-run flight dump and --strict
    // additionally arms the full fail-fast monitor set.
    if (command == "trace" || command == "profile") && (opts.strict || opts.telemetry) {
        cpo_obs::flight::enable();
        let _ = fs::create_dir_all(&opts.out_dir);
        cpo_obs::flight::install_panic_hook(std::path::Path::new(&opts.out_dir));
        if opts.strict {
            cpo_obs::flight::set_strict(true);
        }
    }
    // The latency-attribution profiler needs the flight hook for its
    // correlation keys; `exper profile` is trace replay with it forced
    // on, `--profile` opts `des`/`trace` in.
    if command == "profile" || (opts.profile && (command == "des" || command == "trace")) {
        cpo_obs::flight::enable();
        cpo_obs::prof::enable();
    }
    // --dash collects per-window fleet-health series through the run.
    if opts.dash.is_some() && (command == "des" || command == "trace") {
        cpo_obs::series::enable();
    }

    let result: Result<(), String> = match command.as_str() {
        "table3" => {
            print!("{}", render_table3(&figures::table3()));
            Ok(())
        }
        "fig7" => emit(&figures::fig7(opts.effort, runs, opts.seed), &opts),
        "fig8" => emit(&figures::fig8(opts.effort, runs, opts.seed), &opts),
        id @ ("fig9" | "fig10" | "fig11" | "ext-cpr" | "ext-rev") => {
            // The five quality figures are five metrics of one sweep.
            let figs = figures::quality_figures(opts.effort, runs, opts.seed);
            emit(
                figs.iter().find(|f| f.id == id).expect("a quality figure"),
                &opts,
            )
        }
        "ext-conv" => run_convergence(&opts),
        "ablations" => run_ablations(&opts),
        "scenario" => {
            // exper scenario <file.json>: run all algorithms (paper six +
            // the two extras) on the scenario described by the JSON file.
            let path = positional_path.expect("checked above");
            run_scenario_file(&path, &opts, runs)
        }
        "des" => run_des(&opts),
        "trace" => run_trace(&opts),
        "profile" => run_trace(&opts),
        "timeline" => {
            let path = positional_path.expect("checked above");
            run_timeline(&path, &opts)
        }
        "all" => {
            print!("{}", render_table3(&figures::table3()));
            println!();
            emit(&figures::fig7(opts.effort, runs, opts.seed), &opts)
                .and_then(|()| emit(&figures::fig8(opts.effort, runs, opts.seed), &opts))
                .and_then(|()| {
                    figures::quality_figures(opts.effort, runs, opts.seed)
                        .iter()
                        .try_for_each(|f| emit(f, &opts))
                })
                .and_then(|()| run_convergence(&opts))
                .and_then(|()| run_ablations(&opts))
        }
        other => Err(format!("unknown command {other}")),
    };
    let result = result.and_then(|()| finish_telemetry(&opts, telemetry_base.as_ref()));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // Preserve the flight context of a failed run for post-mortem
            // timeline reconstruction (`exper timeline <dump>`).
            if cpo_obs::flight::is_enabled() {
                let snap = cpo_obs::flight::snapshot();
                let path = format!("{}/exper-failure.jsonl", opts.out_dir);
                if fs::create_dir_all(&opts.out_dir).is_ok()
                    && fs::write(&path, cpo_obs::flight::dump_json_lines(&snap)).is_ok()
                {
                    eprintln!("flight dump written to {path}");
                }
            }
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
