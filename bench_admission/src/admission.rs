//! Runs one workload: untraced repetitions for the end-to-end metrics,
//! optionally a traced run beside each whose wrapped calls build the
//! per-layer ledger, and correctness checks on every run.
//!
//! Every run builds a fresh scheduler, so set-up is timed on its own and
//! no state carries from one run to the next. The load
//! is open-loop in simulated time and replayed unpaced in wall time:
//! the scheduler decides each window as fast as it can, and
//! `events_per_s` is the work done per wall-second.

use crate::timed::{Recorder, SolveSpan, TimedAllocator, TimedBackend, TimedSource, WindowTrace};
use crate::workload::{amplifier, fingerprint, fleet, Engine, Input, Workload, POISSON_SEED};
use cpo_bench::report::{Cell, Report};
use cpo_core::prelude::Allocator;
use cpo_des::prelude::{
    ArrivalSource, DesConfig, LatencyModel, PoissonArrivals, WindowBackend, WindowedScheduler,
};
use cpo_platform::prelude::{
    FleetExecutor, ShardConfig, ShardedScheduler, SimConfig, StoreMetrics, WindowExecutor,
    WindowReport,
};
use cpo_scenario::prelude::ArrivalSpec;
use cpo_traces::prelude::{DatasetReader, TraceArrivalSource};
use std::io::Write as _;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Untraced repetitions a measurement makes at least, whatever its
/// time budget; the rates are the median over this many of the fastest.
pub const MIN_REPS: usize = 3;

/// Windows the latency percentiles pool at least, so that the 95th
/// percentile has ten windows beyond it.
pub const POOLED_WINDOWS: usize = 200;

/// Set-ups timed without a run before each repetition; the median of
/// all of them is the set-up time.
pub const SETUPS_PER_REP: usize = 11;

/// Largest share of `run` wall by which the ledger's parts may miss it.
pub const LEDGER_TOLERANCE: f64 = 0.02;

/// Cores the host offers.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Post-run consistency checks of a window engine.
pub trait Audited {
    /// `Err` describes the first inconsistency found.
    fn audit(&self) -> Result<(), String>;

    /// Commit counters of the engine's placement store (zero when it
    /// has none).
    fn store_metrics(&self) -> StoreMetrics {
        StoreMetrics::default()
    }
}

impl Audited for FleetExecutor {
    fn audit(&self) -> Result<(), String> {
        self.verify()?;
        let violations = self.capacity_violations();
        if !violations.is_empty() {
            return Err(format!("{} capacity violations", violations.len()));
        }
        let conflicts = self.store().metrics().capacity_conflicts;
        if conflicts != 0 {
            return Err(format!("{conflicts} capacity conflicts in the store"));
        }
        Ok(())
    }

    fn store_metrics(&self) -> StoreMetrics {
        self.store().metrics()
    }
}

impl Audited for ShardedScheduler<FleetExecutor> {
    fn audit(&self) -> Result<(), String> {
        self.backend().audit()
    }

    fn store_metrics(&self) -> StoreMetrics {
        self.backend().store_metrics()
    }
}

impl Audited for WindowExecutor {
    fn audit(&self) -> Result<(), String> {
        let report = self.verify_state();
        if report.is_feasible() {
            Ok(())
        } else {
            Err(format!(
                "infeasible platform state: {} violations",
                report.violations().len()
            ))
        }
    }
}

/// An arrival source that may have ended on an error.
pub trait SourceStatus {
    /// The error the stream ended on, if any.
    fn error(&self) -> Option<String>;
}

impl<D: DatasetReader> SourceStatus for TraceArrivalSource<D> {
    fn error(&self) -> Option<String> {
        TraceArrivalSource::error(self).map(ToString::to_string)
    }
}

impl SourceStatus for PoissonArrivals {
    fn error(&self) -> Option<String> {
        None
    }
}

/// One scheduler run.
#[derive(Debug, Default)]
pub struct Rep {
    /// Fleet, source, backend and scheduler construction.
    pub setup: Duration,
    /// Wall time of `WindowedScheduler::run`.
    pub wall: Duration,
    /// The scheduler's per-window reports.
    pub windows: Vec<WindowReport>,
    /// What the wrappers recorded, one entry per window plus a tail.
    pub traces: Vec<WindowTrace>,
    /// Allocator calls (traced runs only).
    pub solves: Vec<SolveSpan>,
    /// Arrivals the source emitted within the horizon.
    pub emitted: u64,
    /// The engine's store counters after the run.
    pub store: StoreMetrics,
}

impl Rep {
    /// Arrivals admitted or rejected.
    pub fn decided(&self) -> u64 {
        self.windows
            .iter()
            .map(|w| (w.admitted + w.rejected) as u64)
            .sum()
    }

    /// Arrivals rejected.
    pub fn rejected(&self) -> u64 {
        self.windows.iter().map(|w| w.rejected as u64).sum()
    }

    /// Arrivals the source emitted that no window decided.
    pub fn undecided(&self) -> u64 {
        self.emitted.abs_diff(self.decided())
    }

    /// Arrivals decided per wall-second of `run`.
    pub fn events_per_s(&self) -> f64 {
        self.decided() as f64 / self.wall.as_secs_f64()
    }

    /// Wall time of every `execute_window` call, in nanoseconds.
    pub fn decide_ns(&self) -> impl Iterator<Item = u64> + '_ {
        self.traces
            .iter()
            .filter_map(|t| t.execute.map(|(start, end)| end - start))
    }

    /// Fingerprint of the per-window outcomes.
    pub fn fingerprint(&self) -> u64 {
        fingerprint(&self.windows)
    }
}

/// What [`run_rep`] does after set-up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Nothing: the set-up alone is timed.
    SetupOnly,
    /// Run with only `execute_window` timed.
    Untraced,
    /// Run with every wrapper recording.
    Traced,
}

/// Builds the engine and source with `setup`, then runs the scheduler
/// over them to `horizon` and checks the result.
fn rep<S, B>(
    setup: impl FnOnce() -> (S, B),
    des: DesConfig,
    allocator: &dyn Allocator,
    horizon: f64,
    mode: Mode,
) -> Result<Rep, String>
where
    S: ArrivalSource + SourceStatus,
    B: WindowBackend + Audited,
{
    let start = Instant::now();
    let (source, backend) = setup();
    let rec = Recorder::shared(mode == Mode::Traced);
    let mut sched = WindowedScheduler::with_backend(
        TimedBackend::new(backend, Rc::clone(&rec)),
        des,
        TimedSource::new(source, Rc::clone(&rec)),
    );
    let setup = start.elapsed();
    if mode == Mode::SetupOnly {
        return Ok(Rep {
            setup,
            ..Rep::default()
        });
    }

    let timed =
        (mode == Mode::Traced).then(|| TimedAllocator::new(allocator, rec.borrow().origin()));
    let solver: &dyn Allocator = match &timed {
        Some(t) => t,
        None => allocator,
    };
    let start = Instant::now();
    let report = sched.run(solver, horizon);
    let wall = start.elapsed();

    if let Some(err) = sched.source().inner().error() {
        return Err(format!("the arrival stream failed: {err}"));
    }
    let backend = sched.backend().inner();
    backend.audit()?;
    let traces = rec.borrow_mut().finish();
    Ok(Rep {
        setup,
        wall,
        windows: report.windows,
        traces,
        solves: timed.map(TimedAllocator::into_spans).unwrap_or_default(),
        emitted: sched.source().emitted_by(horizon),
        store: backend.store_metrics(),
    })
}

/// One fresh set-up, and run unless `mode` is [`Mode::SetupOnly`], of
/// `workload` on the inputs of `seed`.
pub fn run_rep(
    workload: &Workload,
    seed: u64,
    allocator: &dyn Allocator,
    mode: Mode,
) -> Result<Rep, String> {
    let des = DesConfig {
        window_length: workload.window,
        latency: LatencyModel::Fixed(0.0),
        failures: None,
        seed,
        solve_deadline: None,
    };
    let horizon = workload.horizon();
    let servers = workload.servers;
    let trace =
        |amplify| TraceArrivalSource::new(amplifier(amplify, seed), ArrivalSpec::default(), seed);
    match (workload.input, workload.engine) {
        (Input::Trace { amplify }, Engine::Fleet) => rep(
            || (trace(amplify), FleetExecutor::new(fleet(servers))),
            des,
            allocator,
            horizon,
            mode,
        ),
        (Input::Trace { amplify }, Engine::Sharded { shards }) => rep(
            || {
                let config = ShardConfig {
                    shards,
                    ..ShardConfig::default()
                };
                let engine = ShardedScheduler::new(FleetExecutor::new(fleet(servers)), config);
                (trace(amplify), engine)
            },
            des,
            allocator,
            horizon,
            mode,
        ),
        (Input::Poisson { rate, failures, .. }, Engine::Reconfig) => rep(
            || {
                let spec = ArrivalSpec {
                    rate,
                    ..ArrivalSpec::default()
                };
                let engine = WindowExecutor::new(fleet(servers), SimConfig::default());
                (PoissonArrivals::new(spec, POISSON_SEED), engine)
            },
            DesConfig {
                failures: Some(failures),
                ..des
            },
            allocator,
            horizon,
            mode,
        ),
        (input, engine) => Err(format!(
            "{}: no runner for {input:?} on {engine:?}",
            workload.name
        )),
    }
}

/// Everything one invocation measured.
#[derive(Debug)]
pub struct Measurement {
    /// The workload run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Cores of the host.
    pub host_cores: usize,
    /// Set-up times of the set-ups without a run.
    pub setups: Vec<Duration>,
    /// Untraced repetitions, in the order they ran.
    pub reps: Vec<Rep>,
    /// Peak RSS of the process after its first repetition, in MiB.
    pub peak_rss_mib: f64,
    /// Traced runs, one per repetition when asked for.
    pub traced: Vec<Rep>,
    /// Failed correctness checks; empty when the run is correct.
    pub failures: Vec<String>,
}

impl Measurement {
    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    fn runs(&self) -> impl Iterator<Item = &Rep> {
        self.reps.iter().chain(&self.traced)
    }

    /// Arrivals the runs set out to decide.
    pub fn attempted(&self) -> u64 {
        self.runs().map(|r| r.emitted).sum::<u64>().max(1)
    }

    /// Arrivals the runs left undecided.
    pub fn failed(&self) -> u64 {
        self.runs().map(Rep::undecided).sum()
    }

    /// The fastest traced run, which the per-layer metrics describe.
    pub fn traced_run(&self) -> Option<&Rep> {
        fastest(&self.traced).first().copied()
    }

    /// The [`MIN_REPS`] fastest untraced repetitions, which the rates
    /// use. Other tenants of a shared host only ever add time to a
    /// repetition, so the fastest ones are the least disturbed
    /// measurements of the same work.
    pub fn fastest(&self) -> Vec<&Rep> {
        fastest(&self.reps)
    }
}

/// Repetitions of `windows` windows each that pool at least
/// [`POOLED_WINDOWS`] windows, and at least [`MIN_REPS`].
fn pooled_reps(windows: usize) -> usize {
    POOLED_WINDOWS.div_ceil(windows.max(1)).max(MIN_REPS)
}

/// The [`MIN_REPS`] fastest of `runs`.
fn fastest(runs: &[Rep]) -> Vec<&Rep> {
    let mut runs: Vec<&Rep> = runs.iter().collect();
    runs.sort_by_key(|r| r.wall);
    runs.truncate(MIN_REPS);
    runs
}

/// Runs `workload`: repetitions until `budget` is spent (at least
/// [`pooled_reps`]). Each repetition is [`SETUPS_PER_REP`] set-ups without
/// a run, one untraced run, and one traced run when `trace` is set, so
/// that set-ups, traced and untraced runs meet the same host conditions.
/// Checks every run; a failed check ends the measurement.
pub fn measure(workload: &Workload, seed: u64, budget: Duration, trace: bool) -> Measurement {
    let mut m = Measurement {
        workload: workload.clone(),
        seed,
        host_cores: host_cores(),
        setups: Vec::new(),
        reps: Vec::new(),
        peak_rss_mib: 0.0,
        traced: Vec::new(),
        failures: Vec::new(),
    };
    match collect(&mut m, budget, trace) {
        Ok(()) => check_outcomes(&mut m),
        Err(err) => m.failures.push(err),
    }
    m
}

fn collect(m: &mut Measurement, budget: Duration, trace: bool) -> Result<(), String> {
    let w = &m.workload;
    if let Engine::Sharded { shards } = w.engine {
        if shards > m.host_cores {
            return Err(format!(
                "{shards} shards configured on {} cores",
                m.host_cores
            ));
        }
    }
    let allocator = w.solver.build();
    let run = |mode| run_rep(w, m.seed, allocator.as_ref(), mode);
    let (mut setups, mut reps, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        for _ in 0..SETUPS_PER_REP {
            setups.push(run(Mode::SetupOnly)?.setup);
        }
        reps.push(run(Mode::Untraced)?);
        if reps.len() == 1 {
            m.peak_rss_mib =
                cpo_bench::report::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0);
        }
        if trace {
            traced.push(run(Mode::Traced)?);
        }
        let spent = start.elapsed();
        let per_rep = spent / reps.len() as u32;
        if reps.len() >= pooled_reps(reps[0].windows.len()) && spent + per_rep > budget {
            break;
        }
    }
    m.setups = setups;
    m.reps = reps;
    m.traced = traced;
    Ok(())
}

/// Every run decided every arrival and all runs agree on the outcome.
fn check_outcomes(m: &mut Measurement) {
    let mut failures = Vec::new();
    for (i, run) in m.runs().enumerate() {
        if run.undecided() != 0 {
            failures.push(format!(
                "run {i}: {} arrivals emitted but {} decided",
                run.emitted,
                run.decided()
            ));
        }
    }
    let first = m.reps[0].fingerprint();
    for (i, run) in m.runs().enumerate() {
        if run.fingerprint() != first {
            failures.push(format!(
                "run {i}: fingerprint {:#018x} differs from run 0's {first:#018x}",
                run.fingerprint()
            ));
        }
    }
    for traced in &m.traced {
        if let Err(err) = Ledger::of(traced).and_then(|l| l.check()) {
            failures.push(err);
        }
    }
    m.failures.extend(failures);
}

/// A named value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

const fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` in `(0, 1]` of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn ratio(num: f64, den: f64, empty: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        empty
    }
}

/// `execute_window` times in ms: the fastest [`pooled_reps`] samples of
/// every window, pooled. Every repetition replays the same windows, so
/// a window's samples are repeated measurements of one computation.
fn fastest_per_window(reps: &[Rep]) -> Vec<f64> {
    let per_rep: Vec<Vec<u64>> = reps.iter().map(|r| r.decide_ns().collect()).collect();
    let windows = per_rep.first().map_or(0, Vec::len);
    let keep = pooled_reps(windows);
    let mut pooled = Vec::with_capacity(windows * keep);
    for w in 0..windows {
        let mut samples: Vec<u64> = per_rep.iter().filter_map(|r| r.get(w).copied()).collect();
        samples.sort_unstable();
        pooled.extend(samples.iter().take(keep).map(|&ns| ns as f64 / 1e6));
    }
    pooled
}

/// The end-to-end metrics. Rates are the median over the fastest
/// repetitions, and latencies are percentiles over the fastest samples
/// of every window (at least [`POOLED_WINDOWS`] in all);
/// outcome metrics come from the first repetition (all repetitions
/// share one fingerprint); set-up time is the median over the set-up
/// samples.
pub fn end_to_end(m: &Measurement) -> Vec<Metric> {
    let rates: Vec<f64> = m.fastest().iter().map(|r| r.events_per_s()).collect();
    let decide_ms = fastest_per_window(&m.reps);
    let setups: Vec<f64> = m.setups.iter().map(Duration::as_secs_f64).collect();
    let first = &m.reps[0];
    let windows = first.windows.len() as f64;
    let provider: f64 = first.windows.iter().map(|w| w.provider_cost).sum();
    vec![
        metric("events_per_s", "1/s", median(&rates)),
        metric("decide_ms_p50", "ms", percentile(&decide_ms, 0.50)),
        metric("decide_ms_p95", "ms", percentile(&decide_ms, 0.95)),
        metric(
            "rejected_frac",
            "ratio",
            ratio(first.rejected() as f64, first.decided() as f64, 0.0),
        ),
        metric(
            "provider_cost",
            "cost/window",
            ratio(provider, windows, 0.0),
        ),
        metric("peak_rss_mib", "MiB", m.peak_rss_mib),
        metric("setup_s", "s", median(&setups)),
    ]
}

/// Windows of `traces` paired with the allocator calls made inside each
/// one's `execute_window`; `Err` when a call falls outside every window.
pub fn solves_by_window(
    traces: &[WindowTrace],
    solves: &[SolveSpan],
) -> Result<Vec<Vec<SolveSpan>>, String> {
    let mut sorted = solves.to_vec();
    sorted.sort_by_key(|s| (s.start_ns, s.end_ns));
    let mut next = sorted.into_iter().peekable();
    let mut out = Vec::with_capacity(traces.len());
    for trace in traces {
        let mut inside = Vec::new();
        if let Some((start, end)) = trace.execute {
            while let Some(s) = next.next_if(|s| s.start_ns < end) {
                if s.start_ns < start || s.end_ns > end {
                    return Err(format!(
                        "allocator call [{}, {}] ns lies outside execute_window [{start}, {end}] ns",
                        s.start_ns, s.end_ns
                    ));
                }
                inside.push(s);
            }
        }
        out.push(inside);
    }
    match next.next() {
        Some(s) => Err(format!(
            "allocator call at {} ns lies after the last execute_window",
            s.start_ns
        )),
        None => Ok(out),
    }
}

/// Length covered by the union of `spans` (sorted by start).
fn union_ns(spans: &[SolveSpan]) -> u64 {
    let mut covered = 0;
    let mut reach = 0;
    for s in spans {
        let from = s.start_ns.max(reach);
        if s.end_ns > from {
            covered += s.end_ns - from;
        }
        reach = reach.max(s.end_ns);
    }
    covered
}

/// Where a traced run's `run` wall time went. Every part but `des_self`
/// is measured by a wrapper; `des_self` is what remains, so a negative
/// remainder means wrapped intervals overlapped.
#[derive(Clone, Debug, PartialEq)]
pub struct Ledger {
    /// Wall time of `WindowedScheduler::run`.
    pub run: f64,
    /// Parts in seconds, in the order of [`Ledger::PARTS`].
    pub parts: [f64; 7],
    /// `execute_window` minus the solves inside it, per window, in ms.
    pub apply_ms: Vec<f64>,
}

impl Ledger {
    /// Names of the parts `run` splits into.
    pub const PARTS: [&'static str; 7] = [
        "source",
        "des.self",
        "register",
        "apply",
        "solve_wall",
        "depart",
        "failure",
    ];

    /// The ledger of a traced run.
    pub fn of(rep: &Rep) -> Result<Ledger, String> {
        let by_window = solves_by_window(&rep.traces, &rep.solves)?;
        let mut apply_ms = Vec::new();
        let mut solve_wall = 0u64;
        let (mut source, mut register, mut depart, mut failure, mut execute) = (0, 0, 0, 0, 0);
        for (trace, solves) in rep.traces.iter().zip(&by_window) {
            source += trace.source.ns;
            register += trace.register.ns;
            depart += trace.depart.ns;
            failure += trace.failure.ns;
            if let Some((start, end)) = trace.execute {
                let solved = union_ns(solves);
                execute += end - start;
                solve_wall += solved;
                apply_ms.push((end - start - solved) as f64 / 1e6);
            }
        }
        let run = rep.wall.as_secs_f64();
        let secs = |ns: u64| ns as f64 / 1e9;
        let wrapped = secs(source + register + execute + depart + failure);
        Ok(Ledger {
            run,
            parts: [
                secs(source),
                run - wrapped,
                secs(register),
                secs(execute - solve_wall),
                secs(solve_wall),
                secs(depart),
                secs(failure),
            ],
            apply_ms,
        })
    }

    /// Part `name` in seconds.
    pub fn part(&self, name: &str) -> f64 {
        let i = Self::PARTS
            .iter()
            .position(|p| *p == name)
            .expect("a ledger part");
        self.parts[i]
    }

    /// Sum of the parts.
    pub fn sum(&self) -> f64 {
        self.parts.iter().sum()
    }

    /// The parts are non-negative and sum to `run` within
    /// [`LEDGER_TOLERANCE`].
    pub fn check(&self) -> Result<(), String> {
        let tolerance = LEDGER_TOLERANCE * self.run;
        for (name, value) in Self::PARTS.iter().zip(self.parts) {
            if value < -tolerance {
                return Err(format!("ledger part {name} is negative: {value:.6} s"));
            }
        }
        if (self.sum() - self.run).abs() > tolerance {
            return Err(format!(
                "ledger parts sum to {:.6} s but run took {:.6} s",
                self.sum(),
                self.run
            ));
        }
        Ok(())
    }
}

/// The per-layer metrics of the traced run, with the traced-over-
/// untraced overhead. `None` without a traced run.
pub fn per_layer(m: &Measurement) -> Option<Result<Vec<Metric>, String>> {
    let rep = m.traced_run()?;
    Some(Ledger::of(rep).map(|ledger| layer_metrics(m, rep, &ledger)))
}

fn layer_metrics(m: &Measurement, rep: &Rep, ledger: &Ledger) -> Vec<Metric> {
    let sum = |pick: fn(&WindowTrace) -> u64| rep.traces.iter().map(pick).sum::<u64>();
    let windows = rep.windows.len() as f64;
    let solve_calls = rep.solves.len() as f64;
    let solve_busy: f64 = rep
        .solves
        .iter()
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .sum();
    let vms: usize = rep.solves.iter().map(|s| s.vms).sum();
    let evaluations: usize = rep.solves.iter().map(|s| s.evaluations).sum();
    let solve_wall = ledger.part("solve_wall");
    let wall = |runs: Vec<&Rep>| {
        median(
            &runs
                .iter()
                .map(|r| r.wall.as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    let overhead = wall(fastest(&m.traced)) / wall(m.fastest()) - 1.0;
    let qos: f64 = rep.windows.iter().map(|w| w.downtime_cost).sum();
    let migration: f64 = rep.windows.iter().map(|w| w.migration_cost).sum();
    let store = rep.store;
    vec![
        metric("source.busy_s", "s", ledger.part("source")),
        metric("source.calls", "count", sum(|t| t.source.calls) as f64),
        metric("des.self_s", "s", ledger.part("des.self")),
        metric("des.windows", "count", windows),
        metric(
            "des.requests_per_window",
            "count",
            ratio(rep.decided() as f64, windows, 0.0),
        ),
        metric("platform.register_s", "s", ledger.part("register")),
        metric("platform.apply_s", "s", ledger.part("apply")),
        metric(
            "platform.apply_ms_p50",
            "ms",
            percentile(&ledger.apply_ms, 0.50),
        ),
        metric("platform.depart_s", "s", ledger.part("depart")),
        metric(
            "platform.depart_calls",
            "count",
            sum(|t| t.depart.calls) as f64,
        ),
        metric("platform.failure_s", "s", ledger.part("failure")),
        metric("platform.qos_cost", "cost/window", ratio(qos, windows, 0.0)),
        metric("platform.migration_cost", "cost", migration),
        metric("core.solve_wall_s", "s", solve_wall),
        metric("core.solve_busy_s", "s", solve_busy),
        metric("core.solve_calls", "count", solve_calls),
        metric(
            "core.vms_per_solve",
            "count",
            ratio(vms as f64, solve_calls, 0.0),
        ),
        metric("core.evaluations", "count", evaluations as f64),
        metric(
            "core.evals_per_s",
            "1/s",
            ratio(evaluations as f64, solve_busy, 0.0),
        ),
        metric(
            "core.solve_parallelism",
            "ratio",
            ratio(solve_busy, solve_wall, 1.0),
        ),
        metric(
            "shard.solves_per_window",
            "count",
            ratio(solve_calls, windows, 0.0),
        ),
        metric("store.commits", "count", store.commits as f64),
        metric("store.conflicts", "count", store.conflicts as f64),
        metric(
            "store.useful_frac",
            "ratio",
            ratio(store.commits as f64, store.attempts() as f64, 1.0),
        ),
        metric("trace.overhead_frac", "ratio", overhead),
    ]
}

/// Writes `<dir>/<workload>.json` (manifest, checks and every metric)
/// and, for a traced run, `<dir>/<workload>.spans.jsonl` with one line
/// per window.
pub fn write_artifacts(
    dir: &Path,
    m: &Measurement,
    budget: Duration,
    metrics: &[Metric],
) -> std::io::Result<()> {
    let w = &m.workload;
    let mut manifest = Cell::new("manifest")
        .str("bench", "bench_admission")
        .str("version", env!("CARGO_PKG_VERSION"))
        .str("workload", w.name)
        .int("seed", m.seed)
        .int("host_cores", m.host_cores as u64)
        .int("reps", m.reps.len() as u64)
        .int("budget_s", budget.as_secs())
        .int("traced_runs", m.traced.len() as u64)
        .int("servers", w.servers as u64)
        .float("window", w.window)
        .float("horizon", w.horizon())
        .int("arrivals", w.arrivals() as u64)
        .str("solver", w.solver.label());
    manifest = match w.input {
        Input::Trace { amplify } => manifest.int("amplify", amplify as u64),
        Input::Poisson { rate, failures, .. } => manifest
            .float("rate", rate)
            .float("mtbf", failures.mtbf)
            .float("mttr", failures.mttr),
    };
    manifest = match w.engine {
        Engine::Fleet => manifest.str("engine", "fleet").int("shards", 1),
        Engine::Sharded { shards } => manifest
            .str("engine", "sharded")
            .int("shards", shards as u64),
        Engine::Reconfig => manifest.str("engine", "reconfig").int("shards", 1),
    };
    let mut report = Report::new("cpo-bench-admission", 1);
    report.push(manifest);
    report.push(
        Cell::new("checks")
            .int("correct", u8::from(m.correct()))
            .int("attempted", m.attempted())
            .int("failed", m.failed())
            .str(
                "fingerprint",
                format!("{:#018x}", m.reps.first().map_or(0, Rep::fingerprint)),
            )
            .str("failures", m.failures.join("; ")),
    );
    for metric in metrics {
        report.push(
            Cell::new(metric.name)
                .float("value", metric.value)
                .str("unit", metric.unit),
        );
    }
    for (i, rep) in m.runs().enumerate() {
        report.push(
            Cell::new(format!("run.{i}"))
                .int("traced", u8::from(i >= m.reps.len()))
                .float("setup_s", rep.setup.as_secs_f64())
                .float("run_s", rep.wall.as_secs_f64())
                .float("events_per_s", rep.events_per_s()),
        );
    }
    report.write(dir.join(format!("{}.json", w.name)))?;

    if let Some(rep) = m.traced_run() {
        let by_window = solves_by_window(&rep.traces, &rep.solves)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let file = std::fs::File::create(dir.join(format!("{}.spans.jsonl", w.name)))?;
        let mut out = std::io::BufWriter::new(file);
        for (i, (t, solves)) in rep.traces.iter().zip(&by_window).enumerate() {
            let execute = t
                .execute
                .map_or("null".to_string(), |(s, e)| format!("[{s},{e}]"));
            let solves: Vec<String> = solves
                .iter()
                .map(|s| {
                    format!(
                        "[{},{},{},{},{}]",
                        s.start_ns, s.end_ns, s.thread, s.vms, s.evaluations
                    )
                })
                .collect();
            writeln!(
                out,
                "{{\"window\":{i},\"source\":[{},{}],\"register\":[{},{}],\"depart\":[{},{}],\
                 \"failure\":[{},{}],\"execute\":{execute},\"solves\":[{}]}}",
                t.source.calls,
                t.source.ns,
                t.register.calls,
                t.register.ns,
                t.depart.calls,
                t.depart.ns,
                t.failure.calls,
                t.failure.ns,
                solves.join(",")
            )?;
        }
        out.flush()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(start_ns: u64, end_ns: u64) -> SolveSpan {
        SolveSpan {
            start_ns,
            end_ns,
            thread: 0,
            vms: 1,
            evaluations: 0,
        }
    }

    fn window(start: u64, end: u64) -> WindowTrace {
        WindowTrace {
            execute: Some((start, end)),
            ..WindowTrace::default()
        }
    }

    #[test]
    fn overlapping_solves_count_once_in_the_union() {
        assert_eq!(union_ns(&[solve(0, 10), solve(5, 20), solve(30, 40)]), 30);
        assert_eq!(union_ns(&[solve(0, 40), solve(5, 20)]), 40);
    }

    #[test]
    fn solves_are_assigned_to_the_window_that_contains_them() {
        let traces = [window(0, 100), WindowTrace::default(), window(200, 300)];
        let by_window =
            solves_by_window(&traces, &[solve(210, 250), solve(10, 50), solve(220, 290)])
                .expect("every solve lies in a window");
        assert_eq!(by_window[0], [solve(10, 50)]);
        assert!(by_window[1].is_empty());
        assert_eq!(by_window[2], [solve(210, 250), solve(220, 290)]);
        assert!(solves_by_window(&traces, &[solve(90, 120)]).is_err());
        assert!(solves_by_window(&traces, &[solve(310, 320)]).is_err());
    }

    #[test]
    fn percentiles_use_the_nearest_rank() {
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.95), 190.0);
        assert_eq!(percentile(&values, 0.50), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}
