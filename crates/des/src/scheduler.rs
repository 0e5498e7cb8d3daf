//! The continuous-time cyclic-window scheduler.
//!
//! [`WindowedScheduler`] accumulates arrivals from an [`ArrivalSource`]
//! into cyclic windows of `window_length` sim-time units and, at each
//! window boundary, hands the accumulated batch to any
//! [`cpo_core::prelude::Allocator`] through the shared
//! [`WindowExecutor`]. The solve's latency — measured wall clock or a
//! deterministic model — feeds back into the timeline:
//!
//! * every request decided in a window waits until `boundary + latency`
//!   for its admission (or rejection), so a slow allocator directly
//!   raises mean request waiting time;
//! * the next window cannot open before the solve finishes: when
//!   `latency > window_length` the boundary slips, arrivals pile up and
//!   the queueing delay compounds — the paper's execution-time figures
//!   (Fig. 7/8) becoming admission latency.
//!
//! Tenant departures, server failures/repairs and window boundaries are
//! events on one queue. Arrivals are not: the scheduler parks the one
//! arrival in flight beside the queue under a reserved sequence number
//! and handles whichever of it and the queue head comes first by
//! `(time, seq)` — the order the queue itself would give, FIFO among
//! equal timestamps.

use crate::queue::{EventKey, EventQueue};
use crate::sources::{Arrival, ArrivalSource, FailureProcess};
use crate::time::SimTime;
use cpo_core::prelude::Allocator;
use cpo_model::prelude::*;
use cpo_platform::prelude::{SimConfig, TenantId, WindowBackend, WindowExecutor, WindowReport};

/// How a window's solve time becomes simulation latency.
#[derive(Clone, Copy, Debug)]
pub enum LatencyModel {
    /// Use the measured wall-clock solve time, scaled by the given factor
    /// (sim-time units per wall-clock second). Realistic but
    /// non-deterministic across machines.
    Measured(f64),
    /// A constant latency per window — deterministic, for tests and
    /// what-if studies ("what if the solver always took half a window?").
    Fixed(f64),
    /// Latency affine in the window's problem size: `base +
    /// per_request × requests`. Deterministic; mirrors the paper's
    /// observation that solve time grows with the request count.
    PerRequest {
        /// Constant part per solve.
        base: f64,
        /// Additional latency per request in the window problem.
        per_request: f64,
    },
}

impl LatencyModel {
    fn latency(&self, report: &WindowReport, problem_requests: usize) -> f64 {
        match *self {
            LatencyModel::Measured(scale) => report.solve_time.as_secs_f64() * scale,
            LatencyModel::Fixed(l) => l,
            LatencyModel::PerRequest { base, per_request } => {
                base + per_request * problem_requests as f64
            }
        }
    }
}

/// Server failure/repair configuration for the continuous-time driver.
#[derive(Clone, Copy, Debug)]
pub struct FailureSpec {
    /// Mean time between failures per server, in sim-time units.
    pub mtbf: f64,
    /// Mean time to repair, in sim-time units.
    pub mttr: f64,
}

/// Scheduler configuration.
#[derive(Clone, Debug)]
pub struct DesConfig {
    /// Window length in sim-time units.
    pub window_length: f64,
    /// Solve-latency feedback model.
    pub latency: LatencyModel,
    /// Optional per-server failure/repair processes.
    pub failures: Option<FailureSpec>,
    /// Master seed for the failure processes (arrival streams carry their
    /// own seeds).
    pub seed: u64,
    /// Optional *wall-clock* budget per window solve. When set, the
    /// allocator is wrapped in [`DeadlineBound`](cpo_core::prelude::DeadlineBound)
    /// for every window close, so anytime members (tabu polish, racing
    /// portfolios, CP admission) cut their search at the deadline and
    /// return their best incumbent instead of overrunning the window.
    /// `None` (the default) leaves the allocator unbounded.
    pub solve_deadline: Option<std::time::Duration>,
}

impl Default for DesConfig {
    fn default() -> Self {
        Self {
            window_length: 1.0,
            latency: LatencyModel::Measured(1.0),
            failures: None,
            seed: 0,
            solve_deadline: None,
        }
    }
}

/// Events on the kernel queue. Every variant is at most 16 bytes, so the
/// queue's buckets hold, sort and move `(time, seq, event)` entries of
/// 32 bytes. Arrivals are not among them: the one arrival in flight
/// waits in [`WindowedScheduler`]'s `next` slot under a reserved key.
enum DesEvent {
    /// A tenant's holding time expired.
    Departure(TenantId),
    /// A server went down.
    ServerFailure(ServerId),
    /// A server came back.
    ServerRepair(ServerId),
    /// End of a cyclic window: solve and apply.
    WindowBoundary,
}

/// Request waiting-time statistics (arrival → admission/rejection
/// decision taking effect).
#[derive(Clone, Copy, Debug, Default)]
pub struct WaitingStats {
    /// Requests decided.
    pub count: usize,
    /// Sum of waiting times.
    pub total: f64,
    /// Worst waiting time.
    pub max: f64,
}

impl WaitingStats {
    fn observe(&mut self, wait: f64) {
        self.count += 1;
        self.total += wait;
        self.max = self.max.max(wait);
    }

    /// Mean waiting time over all decided requests (0 when none).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total / self.count as f64
        }
    }
}

/// Aggregate result of a continuous-time run.
#[derive(Debug, Default)]
pub struct DesReport {
    /// Per-window reports, in window order.
    pub windows: Vec<WindowReport>,
    /// Request waiting times (arrival to decision effect).
    pub waiting: WaitingStats,
    /// Simulation clock when the run stopped.
    pub end_time: f64,
}

impl DesReport {
    /// Total admitted requests.
    pub fn total_admitted(&self) -> usize {
        self.windows.iter().map(|w| w.admitted).sum()
    }

    /// Total rejected requests.
    pub fn total_rejected(&self) -> usize {
        self.windows.iter().map(|w| w.rejected).sum()
    }
}

/// The continuous-time window scheduler over any [`WindowBackend`]
/// (defaulting to the full-reconfiguration [`WindowExecutor`]; the
/// admission-only [`FleetExecutor`](cpo_platform::prelude::FleetExecutor)
/// and a [`ShardedScheduler`](cpo_platform::prelude::ShardedScheduler)
/// over either plug in through [`WindowedScheduler::with_backend`]).
pub struct WindowedScheduler<S: ArrivalSource, B: WindowBackend = WindowExecutor> {
    exec: B,
    queue: EventQueue<DesEvent>,
    source: S,
    config: DesConfig,
    /// The one arrival in flight — the source is pulled once at priming
    /// and once per handled arrival — with the key
    /// [`EventQueue::reserve`] gave it when it was pulled.
    next: Option<(EventKey, Arrival)>,
    /// Arrivals handled since the last window boundary.
    pending: usize,
    /// This window's requests, written in arrival order as each arrival
    /// is handled; cleared, not freed, at the boundary, so a steady replay
    /// reuses its storage window after window.
    window: RequestBatch,
    /// Per-request arrival time, holding time and correlation key,
    /// indexed like `window`'s requests and reused the same way. An
    /// arrival's key goes to its first request only (the sources emit
    /// one request per arrival); any further requests get
    /// [`cpo_obs::flight::NONE`].
    arrived_at: Vec<SimTime>,
    holdings: Vec<f64>,
    keys: Vec<u64>,
    failures: Option<FailureProcess>,
}

impl<S: ArrivalSource> WindowedScheduler<S, WindowExecutor> {
    /// Builds the scheduler over a [`WindowExecutor`]. `sim_config`'s
    /// arrival spec and lifetime range are unused here (the arrival
    /// source owns both); its seed drives the executor RNG, unused under
    /// external lifetimes, so any value is fine.
    pub fn new(infra: Infrastructure, sim_config: SimConfig, config: DesConfig, source: S) -> Self {
        Self::with_backend(WindowExecutor::new(infra, sim_config), config, source)
    }

    /// The underlying executor (event log, tenants, SLA ledger).
    pub fn executor(&self) -> &WindowExecutor {
        &self.exec
    }
}

impl<S: ArrivalSource, B: WindowBackend> WindowedScheduler<S, B> {
    /// Builds the scheduler over an explicit backend — e.g. a
    /// [`FleetExecutor`](cpo_platform::prelude::FleetExecutor) for
    /// production-scale trace replay.
    pub fn with_backend(backend: B, config: DesConfig, source: S) -> Self {
        assert!(config.window_length > 0.0, "window length must be positive");
        Self {
            exec: backend,
            queue: EventQueue::for_window(config.window_length),
            source,
            config,
            next: None,
            pending: 0,
            window: RequestBatch::new(),
            arrived_at: Vec::new(),
            holdings: Vec::new(),
            keys: Vec::new(),
            failures: None,
        }
    }

    /// The backend.
    pub fn backend(&self) -> &B {
        &self.exec
    }

    /// Consumes the scheduler, returning the backend for post-run
    /// inspection (residual tables, store metrics, tenant state).
    pub fn into_backend(self) -> B {
        self.exec
    }

    /// The arrival source.
    pub fn source(&self) -> &S {
        &self.source
    }

    /// Current simulation clock.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Pulls the next arrival from the source and parks it in `next`
    /// under the queue's next sequence number, so it ranks against queued
    /// events as if it had been scheduled here.
    fn schedule_next_arrival(&mut self, horizon: f64) {
        debug_assert!(self.next.is_none(), "one arrival in flight at a time");
        if let Some(arr) = self.source.next_arrival() {
            if arr.at.as_f64() <= horizon {
                self.next = Some((self.queue.reserve(arr.at), arr));
            }
        }
    }

    /// Runs until the simulation clock passes `horizon`.
    pub fn run(&mut self, allocator: &dyn Allocator, horizon: f64) -> DesReport {
        assert!(horizon > 0.0);
        let mut report = DesReport::default();

        // Prime the event chains: first arrival, first boundary, and one
        // failure process per server when configured.
        self.schedule_next_arrival(horizon);
        self.queue.schedule(
            SimTime::new(self.config.window_length),
            DesEvent::WindowBoundary,
        );
        if let Some(spec) = self.config.failures {
            let mut proc = FailureProcess::new(spec.mtbf, spec.mttr, self.config.seed);
            for j in 0..self.exec.server_count() {
                let up = proc.next_uptime();
                if up <= horizon {
                    self.queue
                        .schedule(SimTime::new(up), DesEvent::ServerFailure(ServerId(j)));
                }
            }
            self.failures = Some(proc);
        }

        loop {
            // The parked arrival goes first exactly when a queue holding
            // it would pop it first. It is due within the horizon, so it
            // precedes any head beyond it.
            let head = self.queue.peek_key();
            let due = |(key, _): &mut (EventKey, Arrival)| head.is_none_or(|h| *key < h);
            if let Some((key, arrival)) = self.next.take_if(due) {
                self.queue.advance(key);
                cpo_obs::flight::record(
                    cpo_obs::flight::FlightKind::Arrived,
                    arrival.key,
                    cpo_obs::flight::NONE,
                    sim_us(key.time.as_f64()),
                    arrival.request.vm_count() as u64,
                );
                self.admit_to_window(arrival);
                self.schedule_next_arrival(horizon);
                continue;
            }
            if head.is_none_or(|h| h.time.as_f64() > horizon) {
                break;
            }
            let (now, event) = self.queue.pop().expect("peeked");
            match event {
                DesEvent::Departure(id) => {
                    self.exec.depart_tenant(id);
                }
                DesEvent::ServerFailure(server) => {
                    self.exec.force_failure(server);
                    if let Some(proc) = &mut self.failures {
                        let down = proc.next_downtime();
                        self.queue
                            .schedule(now + down, DesEvent::ServerRepair(server));
                    }
                }
                DesEvent::ServerRepair(server) => {
                    self.exec.force_repair(server);
                    if let Some(proc) = &mut self.failures {
                        let up = proc.next_uptime();
                        self.queue
                            .schedule(now + up, DesEvent::ServerFailure(server));
                    }
                }
                DesEvent::WindowBoundary => {
                    self.close_window(allocator, now, &mut report);
                }
            }
        }
        report.end_time = self.queue.now().as_f64().min(horizon);
        report
    }

    /// Writes a due arrival's requests onto the end of the window batch
    /// and records their arrival time, holding time and key.
    fn admit_to_window(&mut self, arrival: Arrival) {
        let added = arrival.request.write_into(&mut self.window);
        for r in 0..added {
            self.arrived_at.push(arrival.at);
            self.holdings.push(arrival.holding);
            self.keys.push(if r == 0 {
                arrival.key
            } else {
                cpo_obs::flight::NONE
            });
        }
        self.pending += 1;
    }

    /// Solves one window at boundary time `now` and feeds the solve
    /// latency back into the timeline.
    fn close_window(&mut self, allocator: &dyn Allocator, now: SimTime, report: &mut DesReport) {
        let mut sp = cpo_obs::span!("des.window", window = report.windows.len());
        cpo_obs::gauge_set("des.queue_depth", self.pending as f64);
        let batch = &self.window;
        let ids = self.exec.register_arrivals(batch);
        // Bind correlation keys before the solve so admission, placement
        // and later per-tenant events carry the request uid.
        if cpo_obs::flight::is_enabled() {
            self.exec.bind_request_keys(&ids, &self.keys);
        }
        let problem_requests = self.exec.resident_requests() + batch.request_count();
        let (window_report, admitted) = match self.config.solve_deadline {
            Some(budget) => {
                let bounded = cpo_core::prelude::DeadlineBound::new(allocator, budget);
                self.exec.execute_window(&bounded, batch, &ids)
            }
            None => self.exec.execute_window(allocator, batch, &ids),
        };
        let latency = self
            .config
            .latency
            .latency(&window_report, problem_requests)
            .max(0.0);
        let effective = now + latency;

        // Every request decided this window waited from its arrival until
        // the solve finished.
        for at in &self.arrived_at {
            report.waiting.observe(effective - *at);
        }
        // Admitted tenants depart one holding time after admission. The
        // backend returns them as a subsequence of `ids` (the
        // `execute_window` ordering contract), so one cursor finds each
        // one's holding time in a single forward walk.
        let mut cursor = 0;
        for &id in &admitted {
            let Some(offset) = ids[cursor..].iter().position(|&t| t == id) else {
                panic!(
                    "backend broke the execute_window ordering contract: admitted \
                     tenant {id:?} is not among the registered ids after position \
                     {cursor} (admitted ids must be a subsequence of the registered \
                     ids, in arrival order)"
                );
            };
            cursor += offset;
            self.queue
                .schedule(effective + self.holdings[cursor], DesEvent::Departure(id));
            cursor += 1;
        }
        self.pending = 0;
        self.window.clear();
        self.arrived_at.clear();
        self.holdings.clear();
        self.keys.clear();
        // The next window opens when both the cycle and the solve allow.
        let next = (now + self.config.window_length).max(effective);
        self.queue.schedule(next, DesEvent::WindowBoundary);
        sp.field("admitted", window_report.admitted)
            .field("rejected", window_report.rejected)
            .field("latency", latency);
        cpo_obs::gauge_set("des.solve_latency", latency);
        cpo_obs::record_value("des.solve_latency_us", (latency * 1e6) as u64);
        if latency > self.config.window_length {
            cpo_obs::counter_add("des.stretched_windows", 1);
        }
        // Sample every registry gauge/counter into the time-series bus at
        // this window index (the backend already emitted its fleet probe
        // inside execute_window). No-op unless series collection is on.
        cpo_obs::series::sample_registry(report.windows.len() as u64);
        report.windows.push(window_report);
    }
}

/// Sim-time as integer micro-units, the flight-event payload encoding.
fn sim_us(t: f64) -> u64 {
    (t.max(0.0) * 1e6).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sources::{ArrivalRequest, PoissonArrivals};
    use cpo_core::prelude::RoundRobinAllocator;
    use cpo_model::attr::AttrSet;
    use cpo_platform::prelude::FleetExecutor;
    use cpo_scenario::arrival_gen::ArrivalSpec;

    fn infra(servers: usize) -> Infrastructure {
        Infrastructure::new(
            AttrSet::standard(),
            vec![("dc".into(), ServerProfile::commodity(3).build_many(servers))],
        )
    }

    fn scheduler(
        servers: usize,
        rate: f64,
        latency: LatencyModel,
    ) -> WindowedScheduler<PoissonArrivals> {
        let spec = ArrivalSpec {
            rate,
            lifetime: (2.0, 5.0),
            ..Default::default()
        };
        let config = DesConfig {
            window_length: 1.0,
            latency,
            failures: None,
            seed: 7,
            solve_deadline: None,
        };
        WindowedScheduler::new(
            infra(servers),
            SimConfig::default(),
            config,
            PoissonArrivals::new(spec, 7),
        )
    }

    #[test]
    fn open_loop_run_admits_and_departs() {
        let mut s = scheduler(10, 3.0, LatencyModel::Fixed(0.0));
        let report = s.run(&RoundRobinAllocator, 30.0);
        assert!(!report.windows.is_empty());
        assert!(report.total_admitted() > 0, "arrivals must be admitted");
        let log = s.executor().log();
        let departed = log
            .events()
            .iter()
            .filter(|e| matches!(e, cpo_platform::prelude::Event::TenantDeparted { .. }))
            .count();
        assert!(departed > 0, "holding times must expire within horizon");
        assert!(s.executor().verify_state().is_feasible());
    }

    #[test]
    fn deterministic_per_seed() {
        let run = || {
            let mut s = scheduler(8, 2.0, LatencyModel::Fixed(0.1));
            let r = s.run(&RoundRobinAllocator, 25.0);
            (
                r.windows.iter().map(|w| w.admitted).collect::<Vec<_>>(),
                r.waiting.count,
                r.waiting.total,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn solve_deadline_reaches_the_allocator() {
        // An already-expired budget makes the deadline-aware CP
        // allocator reject every request as admission control; without
        // the budget the same runs admit. This proves close_window
        // actually threads the deadline through to the solve.
        let run = |solve_deadline| {
            let spec = ArrivalSpec {
                rate: 3.0,
                lifetime: (2.0, 5.0),
                ..Default::default()
            };
            let config = DesConfig {
                window_length: 1.0,
                latency: LatencyModel::Fixed(0.0),
                failures: None,
                seed: 7,
                solve_deadline,
            };
            let mut s = WindowedScheduler::new(
                infra(10),
                SimConfig::default(),
                config,
                PoissonArrivals::new(spec, 7),
            );
            s.run(&cpo_core::prelude::CpAllocator::default(), 10.0)
                .total_admitted()
        };
        assert!(run(None) > 0, "unbounded CP must admit");
        assert_eq!(
            run(Some(std::time::Duration::ZERO)),
            0,
            "expired budget must turn every solve into clean rejections"
        );
    }

    #[test]
    fn zero_latency_waits_are_bounded_by_window_length() {
        let mut s = scheduler(10, 3.0, LatencyModel::Fixed(0.0));
        let report = s.run(&RoundRobinAllocator, 20.0);
        assert!(report.waiting.count > 0);
        // With instant solves a request waits at most one full window
        // (arrive just after a boundary, decided at the next).
        assert!(
            report.waiting.max <= 1.0 + 1e-9,
            "max wait {} exceeds the window",
            report.waiting.max
        );
    }

    #[test]
    fn slower_solves_raise_waiting_time() {
        let fast = {
            let mut s = scheduler(10, 3.0, LatencyModel::Fixed(0.01));
            s.run(&RoundRobinAllocator, 40.0)
        };
        let slow = {
            let mut s = scheduler(10, 3.0, LatencyModel::Fixed(1.5));
            s.run(&RoundRobinAllocator, 40.0)
        };
        assert!(fast.waiting.count > 0 && slow.waiting.count > 0);
        assert!(
            slow.waiting.mean() > fast.waiting.mean() + 1.0,
            "latency 1.5 (mean wait {:.3}) must dominate latency 0.01 (mean wait {:.3})",
            slow.waiting.mean(),
            fast.waiting.mean()
        );
        // A solve longer than the window also stretches the cycle: fewer
        // windows fit in the same horizon.
        assert!(slow.windows.len() < fast.windows.len());
    }

    #[test]
    fn failures_interleave_with_windows() {
        let spec = ArrivalSpec {
            rate: 2.0,
            lifetime: (3.0, 6.0),
            ..Default::default()
        };
        let config = DesConfig {
            window_length: 1.0,
            latency: LatencyModel::Fixed(0.0),
            failures: Some(FailureSpec {
                mtbf: 10.0,
                mttr: 2.0,
            }),
            seed: 3,
            solve_deadline: None,
        };
        let mut s = WindowedScheduler::new(
            infra(8),
            SimConfig::default(),
            config,
            PoissonArrivals::new(spec, 3),
        );
        let report = s.run(&RoundRobinAllocator, 40.0);
        let log = s.executor().log();
        assert!(log.failure_count() > 0, "MTBF 10 over 40 units must fail");
        let repaired = log
            .events()
            .iter()
            .any(|e| matches!(e, cpo_platform::prelude::Event::ServerRepaired { .. }));
        assert!(repaired, "MTTR 2 must repair within horizon");
        assert!(report.windows.iter().any(|w| w.offline_servers > 0));
        assert!(s.executor().verify_state().is_feasible());
    }

    #[test]
    fn fleet_backend_runs_the_same_loop() {
        let spec = ArrivalSpec {
            rate: 3.0,
            lifetime: (2.0, 5.0),
            ..Default::default()
        };
        let config = DesConfig {
            window_length: 1.0,
            latency: LatencyModel::Fixed(0.0),
            failures: None,
            seed: 7,
            solve_deadline: None,
        };
        let mut s = WindowedScheduler::with_backend(
            FleetExecutor::new(infra(10)),
            config,
            PoissonArrivals::new(spec, 7),
        );
        let report = s.run(&RoundRobinAllocator, 30.0);
        assert!(!report.windows.is_empty());
        assert!(report.total_admitted() > 0);
        assert!(report.windows.iter().all(|w| w.migrations == 0));
        assert!(s.backend().verify().is_ok());
        // Holding times expire inside the horizon, so the fleet drains.
        let resident = s.backend().resident_requests();
        assert!(
            resident < report.total_admitted(),
            "some tenants must have departed"
        );
    }

    /// Replays a fixed list of arrivals.
    struct Scripted(std::vec::IntoIter<Arrival>);

    impl ArrivalSource for Scripted {
        fn next_arrival(&mut self) -> Option<Arrival> {
            self.0.next()
        }
    }

    /// One single-VM arrival per `(cpu, holding)`, spread over `(0, 1)`.
    fn scripted(shape: &[(f64, f64)]) -> Scripted {
        let arrivals: Vec<Arrival> = shape
            .iter()
            .enumerate()
            .map(|(i, &(cpu, holding))| {
                let mut batch = RequestBatch::new();
                batch.push_request(vec![cpu_vm(cpu)], vec![]);
                Arrival {
                    at: SimTime::new((i + 1) as f64 / (shape.len() + 1) as f64),
                    request: ArrivalRequest::Batch(batch),
                    holding,
                    key: i as u64,
                }
            })
            .collect();
        Scripted(arrivals.into_iter())
    }

    fn cpu_vm(cpu: f64) -> VmSpec {
        cpo_model::request::vm_spec(cpu, 1024.0, 10.0)
    }

    fn one_window_config() -> DesConfig {
        DesConfig {
            window_length: 1.0,
            latency: LatencyModel::Fixed(0.25),
            failures: None,
            seed: 0,
            solve_deadline: None,
        }
    }

    #[test]
    fn window_side_tables_index_like_the_batch() {
        let arrival = |at: f64, requests: usize, holding: f64, key: u64| {
            let mut batch = RequestBatch::new();
            for _ in 0..requests {
                let first = batch.vm_count();
                let rule = AffinityRule::new(
                    AffinityKind::DifferentServer,
                    vec![VmId(first), VmId(first + 1)],
                );
                batch.push_request(vec![cpu_vm(1.0); 2], vec![rule]);
            }
            Arrival {
                at: SimTime::new(at),
                request: ArrivalRequest::Batch(batch),
                holding,
                key,
            }
        };
        let spec = ArrivalSpec::default();
        let row = Arrival {
            at: SimTime::new(0.875),
            request: ArrivalRequest::Trace(spec.trace_record(3, 0, [2.0, 4096.0, 40.0], 2)),
            holding: 5.0,
            key: 9,
        };
        let mut s = WindowedScheduler::with_backend(
            FleetExecutor::new(infra(1)),
            one_window_config(),
            scripted(&[]),
        );
        for a in [arrival(0.5, 1, 3.0, 7), arrival(0.75, 2, 4.0, 8), row] {
            s.admit_to_window(a);
        }
        let batch = &s.window;
        assert_eq!((batch.request_count(), batch.vm_count()), (4, 8));
        assert_eq!(
            batch.request(RequestId(2)).rules[0].vms(),
            &[VmId(4), VmId(5)]
        );
        // The trace record is written exactly as the standalone builder
        // writes it.
        assert_eq!(
            batch.subset(&[3]),
            spec.trace_request_at(3, 0, &[2.0, 4096.0, 40.0], 2)
        );
        let at = |t| SimTime::new(t);
        assert_eq!(s.arrived_at, vec![at(0.5), at(0.75), at(0.75), at(0.875)]);
        assert_eq!(s.holdings, vec![3.0, 4.0, 4.0, 5.0]);
        assert_eq!(s.keys, vec![7, 8, cpo_obs::flight::NONE, 9]);
        assert_eq!(s.pending, 3, "three arrivals, four requests");
    }

    #[test]
    fn queued_events_stay_payload_free() {
        assert!(std::mem::size_of::<DesEvent>() <= 16);
    }

    #[test]
    fn every_admitted_tenant_departs_after_its_own_holding() {
        // One commodity server (28.8 effective cores): round robin admits
        // the 16-, 8-, 4- and 0.5-core requests and rejects the others,
        // so rejections interleave with admissions. Holding times are
        // distinct, so a tenant paired with a neighbour's holding shows.
        let shape = [
            (16.0, 10.0),
            (16.0, 11.0),
            (8.0, 12.5),
            (8.0, 13.0),
            (4.0, 14.25),
            (16.0, 15.0),
            (0.5, 16.75),
        ];
        let mut s = WindowedScheduler::with_backend(
            FleetExecutor::new(infra(1)),
            one_window_config(),
            scripted(&shape),
        );
        // The horizon closes exactly one window (boundary 1.0, decisions
        // effective at 1.25) and ends before any holding time expires.
        let report = s.run(&RoundRobinAllocator, 1.5);
        assert_eq!((report.total_admitted(), report.total_rejected()), (4, 3));

        let mut departures = Vec::new();
        while let Some((at, event)) = s.queue.pop() {
            if let DesEvent::Departure(id) = event {
                departures.push((id, at.as_f64()));
            }
        }
        let expected: Vec<(TenantId, f64)> = [0usize, 2, 4, 6]
            .iter()
            .map(|&i| (TenantId(i as u64), 1.25 + shape[i].1))
            .collect();
        assert_eq!(departures, expected);
        for i in 0..shape.len() as u64 {
            let resident = s.exec.depart_tenant(TenantId(i));
            assert_eq!(resident, i % 2 == 0, "tenant {i}: resident iff admitted");
        }
    }

    /// A backend that breaks the ordering contract by returning admitted
    /// ids newest first.
    struct Reversed(FleetExecutor);

    impl WindowBackend for Reversed {
        fn register_arrivals(&mut self, arrivals: &RequestBatch) -> Vec<TenantId> {
            self.0.register_arrivals(arrivals)
        }
        fn bind_request_keys(&mut self, ids: &[TenantId], keys: &[u64]) {
            self.0.bind_request_keys(ids, keys)
        }
        fn execute_window(
            &mut self,
            allocator: &dyn Allocator,
            arrivals: &RequestBatch,
            ids: &[TenantId],
        ) -> (WindowReport, Vec<TenantId>) {
            let (report, mut admitted) = self.0.execute_window(allocator, arrivals, ids);
            admitted.reverse();
            (report, admitted)
        }
        fn depart_tenant(&mut self, id: TenantId) -> bool {
            self.0.depart_tenant(id)
        }
        fn force_failure(&mut self, server: ServerId) -> bool {
            self.0.force_failure(server)
        }
        fn force_repair(&mut self, server: ServerId) -> bool {
            self.0.force_repair(server)
        }
        fn server_count(&self) -> usize {
            self.0.server_count()
        }
        fn resident_requests(&self) -> usize {
            self.0.resident_requests()
        }
    }

    #[test]
    #[should_panic(expected = "broke the execute_window ordering contract")]
    fn out_of_order_admissions_panic_instead_of_misreading_holdings() {
        let mut s = WindowedScheduler::with_backend(
            Reversed(FleetExecutor::new(infra(4))),
            one_window_config(),
            scripted(&[(1.0, 5.0), (1.0, 6.0), (1.0, 7.0)]),
        );
        s.run(&RoundRobinAllocator, 1.5);
    }

    #[test]
    fn per_request_latency_tracks_problem_size() {
        let mut s = scheduler(
            10,
            4.0,
            LatencyModel::PerRequest {
                base: 0.05,
                per_request: 0.02,
            },
        );
        let report = s.run(&RoundRobinAllocator, 30.0);
        assert!(report.waiting.count > 0);
        // Affine latency is strictly positive, so waits exceed the
        // zero-latency bound somewhere.
        assert!(report.waiting.mean() > 0.05);
    }
}
