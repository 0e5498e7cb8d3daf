//! The standing macro-benchmark: replays an amplified production trace
//! through the full continuous-time stack — `cpo-traces` streaming
//! ingestion → amplifier → `TraceArrivalSource` → `WindowedScheduler`
//! over the memory-lean `FleetExecutor` — and writes `BENCH_trace.json`.
//!
//! ```text
//! cargo run --release -p cpo-bench --bin bench_trace -- \
//!     [--arrivals 1000000] [--servers 10000] [--window 60] \
//!     [--seed 42] [--shards 4] [--out target/bench/BENCH_trace.json] \
//!     [--dash target/bench/DASH_trace.html]
//! ```
//!
//! The run is executed **three times** with the same seed and the
//! per-window outcome stream is fingerprinted: the benchmark aborts if
//! the replays diverge, so determinism is re-proven on every invocation.
//! The solve-latency percentiles are taken over each window's fastest
//! solve of the three: over ~73 windows p99 is in effect one window's
//! time, so one replay's tail would move with host noise alone.
//! Per-window fleet-health series (`cpo_obs::series`) are collected
//! through both replays with three standing assertions: at least six
//! distinct `fleet.*` series sampled once per window, every ring inside
//! its constant-memory capacity bound, and byte-identical deterministic
//! series JSON across the two replays. The series render to a
//! self-contained HTML dashboard (`--dash`) plus an ANSI summary on
//! stdout. Reported cells: the run configuration with the host's core
//! count (`trace.config`), ingest throughput (events/s), end-to-end
//! replay throughput, peak RSS (null where procfs is unavailable),
//! admitted/rejected totals, and p50/p95/p99 per-window solve latency.
//!
//! A sharded section then replays the same trace through
//! `ShardedScheduler<FleetExecutor>` at a ladder of part counts up to
//! `--shards`, printing a throughput-vs-parts table. A window's parts
//! solve in order on the calling thread, so the ladder counts parts, not
//! cores. The headline sharded metric is wall-clock admission throughput
//! (`events_per_sec`). The DES-clock figure stays as two untracked cells:
//! `modeled_events_per_sec` divides the arrivals by the summed per-window
//! critical path (the slowest part's solve plus the sequential commit
//! phase, as if the parts had solved side by side), and
//! `modeled_speedup_vs_one` compares that path with one part's.
//! The `shards = 1` rung must fingerprint-match the native replay
//! (bit-identity of the optimistic-commit protocol at one shard), and
//! the top rung is run twice to prove the conflict counters and window
//! outcomes deterministic.
//!
//! Finally the top rung runs twice more under the latency-attribution
//! profiler (`cpo_obs::prof`): per-request stage decomposition must
//! account ≥95% of finalized requests, the deterministic profile subset
//! must be byte-identical across the two runs, and the per-server
//! conflict heat must sum to the store's own conflict counter. The full
//! profile lands in `BENCH_trace_profile.json` plus a
//! flamegraph-compatible `BENCH_trace_flame.folded`, and the
//! deterministic attribution counters become pinned report cells.

use cpo_bench::report::{Cell, Report};
use cpo_bench::{amplifier, fleet, SAMPLE};
use cpo_core::prelude::{
    AllocationOutcome, Allocator, CpAllocator, FilteringAllocator, PortfolioAllocator,
    PortfolioCriterion, RoundRobinAllocator, TabuSearchAllocator,
};
use cpo_des::prelude::*;
use cpo_model::prelude::*;
use cpo_platform::prelude::{
    FleetExecutor, ShardConfig, ShardedScheduler, StoreMetrics, WindowReport,
};
use cpo_scenario::prelude::ArrivalSpec;
use cpo_traces::prelude::*;
use std::time::{Duration, Instant};

struct Args {
    arrivals: usize,
    servers: usize,
    window: f64,
    seed: u64,
    shards: usize,
    out: String,
    dash: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        arrivals: 1_000_000,
        servers: 10_000,
        window: 60.0,
        seed: 42,
        shards: 4,
        out: "target/bench/BENCH_trace.json".into(),
        dash: "target/bench/DASH_trace.html".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--arrivals" => args.arrivals = value().parse().expect("--arrivals"),
            "--servers" => args.servers = value().parse().expect("--servers"),
            "--window" => args.window = value().parse().expect("--window"),
            "--seed" => args.seed = value().parse().expect("--seed"),
            "--shards" => {
                args.shards = value().parse().expect("--shards");
                assert!(args.shards >= 1, "--shards must be >= 1");
            }
            "--out" => args.out = value(),
            "--dash" => args.dash = value(),
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

/// FNV-1a over the per-window allocation outcomes.
fn fingerprint(windows: &[WindowReport]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    for w in windows {
        mix(w.window);
        mix(w.arrivals as u64);
        mix(w.admitted as u64);
        mix(w.rejected as u64);
        mix(w.active_servers as u64);
        mix(w.running_vms as u64);
    }
    h
}

fn replay(args: &Args, factor: usize) -> (DesReport, usize, f64) {
    let amp = amplifier(factor, args.seed);
    let horizon = amp.horizon() + 2.0 * args.window;
    let source = TraceArrivalSource::new(amp, ArrivalSpec::default(), args.seed);
    let config = DesConfig {
        window_length: args.window,
        latency: LatencyModel::Fixed(0.0),
        failures: None,
        seed: args.seed,
        solve_deadline: None,
    };
    let backend = FleetExecutor::new(fleet(args.servers));
    let mut sched = WindowedScheduler::with_backend(backend, config, source);
    let report = sched.run(&RoundRobinAllocator, horizon);
    if let Some(err) = sched.source().error() {
        panic!("trace stream failed: {err}");
    }
    let emitted = sched.source().emitted() as usize;
    (report, emitted, horizon)
}

/// One sharded replay: outcomes, emitted arrivals, store counters, and
/// end-to-end wall time.
fn replay_sharded(
    args: &Args,
    factor: usize,
    shards: usize,
) -> (DesReport, usize, StoreMetrics, u128) {
    let amp = amplifier(factor, args.seed);
    let horizon = amp.horizon() + 2.0 * args.window;
    let source = TraceArrivalSource::new(amp, ArrivalSpec::default(), args.seed);
    let config = DesConfig {
        window_length: args.window,
        latency: LatencyModel::Fixed(0.0),
        failures: None,
        seed: args.seed,
        solve_deadline: None,
    };
    let backend = ShardedScheduler::new(
        FleetExecutor::new(fleet(args.servers)),
        ShardConfig {
            shards,
            ..ShardConfig::default()
        },
    );
    let start = Instant::now();
    let mut sched = WindowedScheduler::with_backend(backend, config, source);
    let report = sched.run(&RoundRobinAllocator, horizon);
    let wall_ns = start.elapsed().as_nanos();
    if let Some(err) = sched.source().error() {
        panic!("trace stream failed: {err}");
    }
    let metrics = sched.backend().backend().store().metrics();
    let emitted = sched.source().emitted() as usize;
    (report, emitted, metrics, wall_ns)
}

/// One down-scaled replay under a per-window solve deadline: the trace
/// at a reduced amplification on a deliberately tight fleet, so the
/// allocators compete on admission, not on an empty data center. The
/// deadline is generous (node budgets, not the wall clock, bound the
/// members) so the outcome stays deterministic.
fn replay_raced(
    args: &Args,
    factor: usize,
    servers: usize,
    allocator: &dyn Allocator,
    deadline: Duration,
) -> DesReport {
    let amp = amplifier(factor, args.seed);
    let horizon = amp.horizon() + 2.0 * args.window;
    let source = TraceArrivalSource::new(amp, ArrivalSpec::default(), args.seed);
    let config = DesConfig {
        window_length: args.window,
        latency: LatencyModel::Fixed(0.0),
        failures: None,
        seed: args.seed,
        solve_deadline: Some(deadline),
    };
    let backend = FleetExecutor::new(fleet(servers));
    let mut sched = WindowedScheduler::with_backend(backend, config, source);
    let report = sched.run(allocator, horizon);
    if let Some(err) = sched.source().error() {
        panic!("trace stream failed: {err}");
    }
    report
}

/// Wraps the racing portfolio and, on every window solve, also runs each
/// member alone on the *same* batch and residual snapshot, asserting the
/// race never admits fewer than its best member. This is the per-window
/// dominance the racing reduction guarantees; cumulative admission over
/// a stateful replay is reported but not asserted, because a cost-better
/// tie in one window legitimately changes the residual the next window
/// sees.
struct RaceDominanceProbe {
    race: PortfolioAllocator,
    members: Vec<(&'static str, Box<dyn Allocator>)>,
    budget: Duration,
    /// (windows checked, minimum race-minus-best-member margin).
    stats: std::sync::Mutex<(usize, i64)>,
}

impl Allocator for RaceDominanceProbe {
    fn name(&self) -> &'static str {
        "portfolio-race-probe"
    }

    fn allocate(&self, problem: &AllocationProblem) -> AllocationOutcome {
        let out = self.race.allocate(problem);
        let (best, best_label) = self
            .members
            .iter()
            .map(|(label, m)| {
                let solo = m.allocate_with_deadline(problem, Deadline::within(self.budget));
                (solo.accepted_requests, *label)
            })
            .max()
            .expect("the portfolio has members");
        assert!(
            out.accepted_requests >= best,
            "window of {} requests: race admitted {} but member {best_label} admitted {best}",
            problem.n(),
            out.accepted_requests
        );
        let margin = out.accepted_requests as i64 - best as i64;
        let mut s = self.stats.lock().expect("probe stats");
        s.0 += 1;
        s.1 = s.1.min(margin);
        out
    }
}

/// Summed per-window service time — for a sharded window the critical
/// path (max-over-shards solve + sequential commits); the denominator
/// of the modeled admission throughput.
fn modeled_ns(windows: &[WindowReport]) -> u128 {
    windows.iter().map(|w| w.solve_time.as_nanos()).sum()
}

fn percentile_ms(sorted_ns: &[u128], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[idx] as f64 / 1e6
}

fn main() {
    let args = parse_args();
    let base_len = SAMPLE.lines().count() - 1;
    let factor = args.arrivals.div_ceil(base_len);
    let total = base_len * factor;
    println!(
        "bench_trace: {total} arrivals ({base_len}-row seed × {factor}), \
         {} servers, {}s windows, seed {}",
        args.servers, args.window, args.seed
    );

    // --- ingest-only throughput (no simulation behind it) -----------
    let ingest_start = Instant::now();
    let mut amp = amplifier(factor, args.seed);
    let mut ingested = 0usize;
    while let Some(event) = amp.next_event() {
        event.expect("amplified stream is clean");
        ingested += 1;
    }
    let ingest_ns = ingest_start.elapsed().as_nanos();
    assert_eq!(ingested, total);
    let ingest_rate = ingested as f64 / (ingest_ns as f64 / 1e9);
    println!("ingest: {ingest_rate:.0} events/s over {ingested} events");

    // --- full replay, twice: measure and prove determinism ----------
    // Fleet-health series are collected through both replays; the
    // deterministic subset of the series JSON must come out of each
    // byte-for-byte identical, extending the fingerprint check from
    // window outcomes to the whole telemetry pipeline.
    cpo_obs::series::enable_with_capacity(512);
    let replay_start = Instant::now();
    let (report, emitted, horizon) = replay(&args, factor);
    let replay_ns = replay_start.elapsed().as_nanos();
    let bus = cpo_obs::series::snapshot();
    let det_json = bus.to_json(false);
    cpo_obs::series::reset();
    let (second, _, _) = replay(&args, factor);
    let det_json2 = cpo_obs::series::snapshot().to_json(false);
    cpo_obs::series::disable();
    let fp = fingerprint(&report.windows);
    let fp2 = fingerprint(&second.windows);
    assert_eq!(
        fp, fp2,
        "replay is not deterministic: fingerprints {fp:#x} vs {fp2:#x}"
    );
    assert_eq!(
        det_json, det_json2,
        "deterministic series JSON must be byte-identical across replays"
    );

    // --- fleet-health series: coverage and the constant-memory bound -
    let fleet_series: Vec<&str> = bus
        .series()
        .keys()
        .map(String::as_str)
        .filter(|n| n.starts_with("fleet."))
        .collect();
    assert!(
        fleet_series.len() >= 6,
        "expected >= 6 fleet-health series, got {fleet_series:?}"
    );
    for (name, s) in bus.series() {
        assert!(
            s.ring.points().len() <= bus.capacity(),
            "series {name} exceeded its capacity bound: {} > {}",
            s.ring.points().len(),
            bus.capacity()
        );
        assert_eq!(
            s.ring.total(),
            report.windows.len() as u64,
            "series {name} must be sampled exactly once per window"
        );
    }

    assert_eq!(emitted, total, "scheduler must drain the whole stream");
    let replay_rate = emitted as f64 / (replay_ns as f64 / 1e9);
    let admitted = report.total_admitted();
    let rejected = report.total_rejected();
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
    let (third, _, _) = replay(&args, factor);
    assert_eq!(
        fingerprint(&third.windows),
        fp,
        "replay is not deterministic: the third replay diverged"
    );
    let mut solve_ns: Vec<u128> = report
        .windows
        .iter()
        .zip(&second.windows)
        .zip(&third.windows)
        .map(|((a, b), c)| a.solve_time.min(b.solve_time).min(c.solve_time).as_nanos())
        .collect();
    solve_ns.sort_unstable();
    let (p50, p95, p99) = (
        percentile_ms(&solve_ns, 0.50),
        percentile_ms(&solve_ns, 0.95),
        percentile_ms(&solve_ns, 0.99),
    );
    let rss = cpo_bench::report::peak_rss_bytes();

    println!(
        "replay: {replay_rate:.0} events/s, {} windows, {admitted} admitted, \
         {rejected} rejected, peak {peak_active} active servers / {peak_vms} VMs",
        report.windows.len()
    );
    println!("solve latency: p50 {p50:.2} ms, p95 {p95:.2} ms, p99 {p99:.2} ms");
    if let Some(rss) = rss {
        println!("peak RSS: {:.1} MiB", rss as f64 / (1024.0 * 1024.0));
    }

    // --- dashboard: HTML report + terminal summary ------------------
    let title = format!(
        "bench_trace — {total} arrivals / {} servers / seed {}",
        args.servers, args.seed
    );
    cpo_obs::dash::write_html(&bus, &args.dash, &title).expect("write dashboard");
    println!("wrote {}", args.dash);
    print!("{}", cpo_obs::dash::ansi_summary(&bus));

    // --- sharded replays: scaling ladder, equivalence, determinism --
    // Ladder: powers of two up to --shards, plus --shards itself.
    let mut ladder = vec![1usize];
    let mut next = 2usize;
    while next < args.shards {
        ladder.push(next);
        next *= 2;
    }
    if args.shards > 1 {
        ladder.push(args.shards);
    }
    let native_modeled = modeled_ns(&report.windows);
    println!(
        "sharded replay ladder (parts solve in order on one thread; modeled = arrivals / \
         summed window critical path, as if the parts solved side by side):"
    );
    println!(
        "   parts  wall-events/s  modeled-events/s  modeled-speedup  commits  conflicts  conflict-rate"
    );
    let mut top = None;
    let mut one_shard_modeled = native_modeled;
    for &s in &ladder {
        let (rep, em, metrics, wall) = replay_sharded(&args, factor, s);
        assert_eq!(em, total, "sharded scheduler must drain the whole stream");
        let sfp = fingerprint(&rep.windows);
        if s == 1 {
            assert_eq!(
                sfp, fp,
                "shards=1 must be bit-identical to the native fleet replay"
            );
            one_shard_modeled = modeled_ns(&rep.windows);
        }
        let m_ns = modeled_ns(&rep.windows);
        let modeled_rate = em as f64 / (m_ns as f64 / 1e9);
        let wall_rate = em as f64 / (wall as f64 / 1e9);
        let speedup = one_shard_modeled as f64 / m_ns as f64;
        let conflict_rate = metrics.conflict_rate();
        println!(
            "  {s:>6}  {wall_rate:>13.0}  {modeled_rate:>16.0}  {speedup:>14.2}x  {:>7}  {:>9}  {conflict_rate:>13.4}",
            metrics.commits, metrics.conflicts
        );
        top = Some((
            s,
            rep,
            metrics,
            sfp,
            m_ns,
            wall_rate,
            modeled_rate,
            speedup,
            conflict_rate,
        ));
    }
    let (
        top_shards,
        top_report,
        top_metrics,
        top_fp,
        _top_ns,
        top_rate,
        top_modeled_rate,
        top_modeled_speedup,
        top_conflict_rate,
    ) = top.expect("ladder is never empty");

    // Determinism at the top rung: outcomes *and* conflict counters,
    // with the store.* telemetry series captured for the artifact.
    cpo_obs::series::enable_with_capacity(512);
    let (rerun, _, rerun_metrics, _) = replay_sharded(&args, factor, top_shards);
    let sharded_bus = cpo_obs::series::snapshot();
    cpo_obs::series::disable();
    assert_eq!(
        fingerprint(&rerun.windows),
        top_fp,
        "sharded replay is not deterministic at {top_shards} shards"
    );
    assert_eq!(
        rerun_metrics, top_metrics,
        "conflict counters must reproduce exactly at {top_shards} shards"
    );
    let series_path = args.out.replace(".json", "_series.json");
    std::fs::create_dir_all(
        std::path::Path::new(&series_path)
            .parent()
            .unwrap_or_else(|| std::path::Path::new(".")),
    )
    .expect("create series dir");
    std::fs::write(&series_path, sharded_bus.to_json(false)).expect("write sharded series");
    println!(
        "sharded determinism: {top_shards} shards reproduce fingerprint {top_fp:#018x}; \
         store series -> {series_path}"
    );

    // --- latency attribution at the top rung, twice -----------------
    // The profiler decomposes every admitted request's latency into
    // stages and attributes each bounce to a server; its deterministic
    // subset (counts, segments, rankings — no µs) must reproduce
    // byte-for-byte across same-seed runs, and its conflict tables must
    // agree with the store's own counters.
    let run_profiled = || {
        cpo_obs::flight::enable();
        cpo_obs::prof::enable();
        let (rep, _, metrics, _) = replay_sharded(&args, factor, top_shards);
        let profile = cpo_obs::prof::snapshot().expect("profiler enabled");
        cpo_obs::prof::disable();
        cpo_obs::prof::reset();
        cpo_obs::flight::disable();
        cpo_obs::flight::reset();
        (rep, metrics, profile)
    };
    let (prof_rep, prof_metrics, profile) = run_profiled();
    let (_, _, profile2) = run_profiled();
    assert_eq!(
        fingerprint(&prof_rep.windows),
        top_fp,
        "profiling must not change replay outcomes"
    );
    let prof_det = profile.to_json(false);
    assert_eq!(
        prof_det,
        profile2.to_json(false),
        "deterministic profile JSON must be byte-identical across replays"
    );
    assert!(
        profile.accounted_fraction() >= 0.95,
        "stage decomposition must account >=95% of finalized requests, got {:.4}",
        profile.accounted_fraction()
    );
    assert_eq!(
        profile.bounces, prof_metrics.conflicts,
        "profiler bounce count must equal the store's conflict counter"
    );
    assert_eq!(
        profile.commits, prof_metrics.commits,
        "profiler commit count must equal the store's commit counter"
    );
    let hot_total: u64 = profile.hot_servers.iter().map(|h| h.conflicts).sum();
    assert_eq!(
        hot_total, prof_metrics.conflicts,
        "per-server conflict heat must sum to the store's conflict counter"
    );
    let profile_path = args.out.replace(".json", "_profile.json");
    std::fs::write(&profile_path, profile.to_json(true)).expect("write profile");
    let flame_path = args.out.replace(".json", "_flame.folded");
    std::fs::write(&flame_path, profile.flame_folded()).expect("write flame");
    println!(
        "latency attribution: {:.2}% accounted over {} finalized requests, \
         stage coverage {}/5, hot-server fingerprint {} -> {profile_path}",
        profile.accounted_fraction() * 100.0,
        profile.finalized(),
        profile.stage_coverage(),
        profile.hot_fingerprint(16),
    );

    // --- deadline-raced portfolio vs its members --------------------
    // The anytime admission claim, on the trace itself: a down-scaled
    // replay on a deliberately tight fleet, all solves under the same
    // generous per-window deadline. The race keeps the best member
    // outcome per window, so on every window batch — same residual, same
    // requests — it can only tie or beat each member; the probe asserts
    // exactly that, window by window. Each member's *solo trajectory* is
    // also replayed and reported: cumulative admission is informational,
    // not asserted, because a cost-better tie in one window legitimately
    // changes the residual the next window sees. Members are
    // node-budgeted (never wall-clock-cut) so every count is
    // deterministic.
    let race_factor = 8usize;
    let race_servers = 4usize;
    let race_deadline = Duration::from_secs(10);
    let cp_member = || CpAllocator {
        per_request_deadline: Duration::from_secs(1),
        max_nodes: Some(20_000),
        ..CpAllocator::default()
    };
    let make_members = || -> Vec<(&'static str, Box<dyn Allocator>)> {
        vec![
            ("filtering", Box::new(FilteringAllocator)),
            ("constraint-programming", Box::new(cp_member())),
            ("tabu-search", Box::<TabuSearchAllocator>::default()),
        ]
    };
    println!(
        "deadline-raced portfolio ({} arrivals, {race_servers} servers, {:.0}s deadline):",
        base_len * race_factor,
        race_deadline.as_secs_f64()
    );
    let mut member_cells = Vec::new();
    for (label, member) in &make_members() {
        let rep = replay_raced(
            &args,
            race_factor,
            race_servers,
            member.as_ref(),
            race_deadline,
        );
        let admitted = rep.total_admitted();
        println!(
            "  {label:<24} admitted {admitted:>5}  rejected {:>5}",
            rep.total_rejected()
        );
        member_cells.push((*label, admitted, rep.total_rejected()));
    }
    let probe = RaceDominanceProbe {
        race: PortfolioAllocator::racing(
            make_members().into_iter().map(|(_, m)| m).collect(),
            PortfolioCriterion::AcceptanceThenCost,
            Some(race_deadline),
        ),
        members: make_members(),
        budget: race_deadline,
        stats: std::sync::Mutex::new((0, i64::MAX)),
    };
    let race_rep = replay_raced(&args, race_factor, race_servers, &probe, race_deadline);
    let race_admitted = race_rep.total_admitted();
    let (race_windows, race_min_margin) = *probe.stats.lock().expect("probe stats");
    println!(
        "  {:<24} admitted {race_admitted:>5}  rejected {:>5}",
        "portfolio-race",
        race_rep.total_rejected()
    );
    println!(
        "  per-window dominance held on all {race_windows} windows (min margin {race_min_margin})"
    );

    let mut out = Report::new("cpo-bench-trace", 1);
    out.push(
        Cell::new("trace.config")
            .int("arrivals", total as i128)
            .int("servers", args.servers as i128)
            .int("amplify_factor", factor as i128)
            .float("window_length", args.window)
            .float("horizon", horizon)
            .int("seed", args.seed as i128)
            .int("host_cores", cpo_bench::host_cores() as i128),
    );
    out.push(
        Cell::new("trace.ingest")
            .int("events", ingested as i128)
            .int("wall_ns", ingest_ns as i128)
            .float("events_per_sec", ingest_rate),
    );
    out.push(
        Cell::new("trace.replay")
            .int("events", emitted as i128)
            .int("wall_ns", replay_ns as i128)
            .float("events_per_sec", replay_rate)
            .int("windows", report.windows.len() as i128)
            .int("admitted", admitted as i128)
            .int("rejected", rejected as i128)
            .int("peak_active_servers", peak_active as i128)
            .int("peak_running_vms", peak_vms as i128)
            .str("fingerprint", format!("{fp:#018x}"))
            .opt_int("peak_rss_bytes", rss),
    );
    out.push(
        Cell::new("trace.solve_latency")
            .float("p50_ms", p50)
            .float("p95_ms", p95)
            .float("p99_ms", p99),
    );
    out.push(
        Cell::new("trace.series")
            .int("fleet_series", fleet_series.len() as i128)
            .int("ring_capacity", bus.capacity() as i128)
            .int("windows_sampled", report.windows.len() as i128),
    );
    out.push(
        Cell::new("sharded.replay")
            .int("shards", top_shards as i128)
            .float("events_per_sec", top_rate)
            .float("modeled_events_per_sec", top_modeled_rate)
            .float("modeled_speedup_vs_one", top_modeled_speedup)
            .int("windows", top_report.windows.len() as i128)
            .int("admitted", top_report.total_admitted() as i128)
            .int("rejected", top_report.total_rejected() as i128)
            .str("fingerprint", format!("{top_fp:#018x}")),
    );
    out.push(
        Cell::new("sharded.store")
            .int("commits", top_metrics.commits as i128)
            .int("conflicts", top_metrics.conflicts as i128)
            .float("conflict_rate", top_conflict_rate),
    );
    let mut race_cell = Cell::new("trace.race")
        .int("arrivals", (base_len * race_factor) as i128)
        .int("servers", race_servers as i128)
        .int("deadline_ms", race_deadline.as_millis() as i128)
        .int("admitted", race_admitted as i128)
        .int("rejected", race_rep.total_rejected() as i128)
        .int("windows_checked", race_windows as i128)
        .int("min_window_margin", race_min_margin as i128);
    for (label, admitted, rejected) in &member_cells {
        let key = label.replace('-', "_");
        race_cell = race_cell
            .int(format!("{key}_admitted"), *admitted as i128)
            .int(format!("{key}_rejected"), *rejected as i128);
    }
    out.push(race_cell);
    out.push(
        Cell::new("profile.attribution")
            .int("tracked", profile.tracked as i128)
            .int("finalized", profile.finalized() as i128)
            .float("accounted_fraction", profile.accounted_fraction())
            .int("stage_coverage", profile.stage_coverage() as i128)
            .int("commits", profile.commits as i128)
            .int("conflicts", profile.bounces as i128)
            .int("stale_bounces", profile.stale_bounces as i128)
            .int("capacity_bounces", profile.capacity_bounces as i128)
            .str("hot_fingerprint", profile.hot_fingerprint(16)),
    );
    out.write(&args.out).expect("write BENCH_trace.json");
    println!("wrote {}", args.out);
}
