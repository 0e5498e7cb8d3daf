//! Fault suite: an allocator that panics or answers with an infeasible
//! plan must never abort admission or corrupt platform state, in any
//! engine.
//!
//! A panicking solve becomes an unsolved part: its requests bounce while
//! their part was masked and are rejected once the decision is final.
//! The panic is visible as a `platform.solver_panics` counter and a
//! `solver_panicked` flight event. An infeasible answer (an overpacked
//! server, a broken anti-affinity rule, an unplaced VM) only ever rejects
//! requests; it never reaches the live state.
//!
//! The tests enable the process-global telemetry registry and flight
//! ring, so each takes [`LOCK`] first.

use cpo_core::prelude::{AllocationOutcome, Allocator, RoundRobinAllocator};
use cpo_des::prelude::{DesConfig, FailureSpec, LatencyModel, PoissonArrivals, WindowedScheduler};
use cpo_model::attr::AttrSet;
use cpo_model::prelude::*;
use cpo_obs::flight::{self, FlightKind};
use cpo_platform::prelude::*;
use cpo_scenario::prelude::ArrivalSpec;
use cpo_scenario::request_gen::RequestSpec;
use std::sync::{Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

/// Takes the telemetry registry and flight ring for one test, enabled.
fn telemetry() -> MutexGuard<'static, ()> {
    let guard = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    cpo_obs::enable();
    flight::enable();
    guard
}

/// The vCPU demand that makes [`PoisonAllocator`] panic.
const POISON_CPU: f64 = 2.5;

/// Round-robin, except that it panics on any problem holding a VM that
/// asks for [`POISON_CPU`] vCPUs.
struct PoisonAllocator;

impl Allocator for PoisonAllocator {
    fn name(&self) -> &'static str {
        "poison"
    }

    fn allocate(&self, problem: &AllocationProblem) -> AllocationOutcome {
        let batch = problem.batch();
        if batch.vm_ids().any(|k| batch.demand(k)[0] == POISON_CPU) {
            panic!("poisoned shard solve");
        }
        RoundRobinAllocator.allocate(problem)
    }
}

/// Eight one-VM requests; request 0 is the poison.
fn arrivals() -> RequestBatch {
    let mut batch = RequestBatch::new();
    for i in 0..8 {
        let cpu = if i == 0 { POISON_CPU } else { 2.0 };
        batch.push_request(vec![vm_spec(cpu, 4096.0, 40.0)], vec![]);
    }
    batch
}

fn infra(servers: usize) -> Infrastructure {
    Infrastructure::new(
        AttrSet::standard(),
        vec![("dc".into(), ServerProfile::commodity(3).build_many(servers))],
    )
}

fn run(partition: PartitionStrategy) -> (WindowReport, Vec<TenantId>, FleetExecutor) {
    let mut sched = ShardedScheduler::new(
        FleetExecutor::new(infra(4)),
        ShardConfig {
            shards: 2,
            retry_budget: 2,
            partition,
        },
    );
    let batch = arrivals();
    let ids = sched.register_arrivals(&batch);
    let (report, admitted) = sched.execute_window(&PoisonAllocator, &batch, &ids);
    (report, admitted, sched.into_backend())
}

/// `platform.solver_panics` so far, checked against the flight ring's
/// `solver_panicked` events.
fn counted_panics() -> u64 {
    let panics = cpo_obs::snapshot()
        .counters
        .get("platform.solver_panics")
        .copied()
        .unwrap_or(0);
    let recorded = flight::snapshot()
        .events
        .iter()
        .filter(|e| e.kind == FlightKind::SolverPanicked)
        .count() as u64;
    assert_eq!(recorded, panics, "one flight event per panic");
    panics
}

#[test]
fn panicking_shard_solve_becomes_a_rejection() {
    let _guard = telemetry();
    for partition in [PartitionStrategy::RoundRobin, PartitionStrategy::RegionHash] {
        cpo_obs::reset();
        flight::reset();
        let (report, admitted, fleet) = run(partition);
        assert_eq!(report.arrivals, 8, "{partition:?}");
        assert_eq!(report.admitted + report.rejected, 8, "{partition:?}");
        assert_eq!(report.admitted, admitted.len(), "{partition:?}");
        assert!(
            !admitted.iter().any(|t| t.0 == 0),
            "{partition:?}: the poisoned request can never be admitted"
        );
        fleet.verify().expect("fleet state stays consistent");
        assert!(counted_panics() > 0, "{partition:?}: panics are counted");
    }
    // Round-robin parts are never masked, so the poisoned part's
    // requests are rejected in round 0 while the other part admits all
    // of its own: requests 1, 3, 5 and 7.
    let (report, admitted, _) = run(PartitionStrategy::RoundRobin);
    assert_eq!(report.admitted, 4);
    let ids: Vec<u64> = admitted.iter().map(|t| t.0).collect();
    assert_eq!(ids, [1, 3, 5, 7]);
}

/// One deliberate allocator fault.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Fault {
    /// Panics on every problem with an odd number of requests.
    Panic,
    /// Moves every VM placed on server 1 onto server 0 as well.
    Overpack,
    /// Stacks the VMs of every different-server rule onto one server.
    BreakAntiAffinity,
    /// Leaves the problem's last VM unplaced.
    LeaveUnplaced,
}

const FAULTS: [Fault; 4] = [
    Fault::Panic,
    Fault::Overpack,
    Fault::BreakAntiAffinity,
    Fault::LeaveUnplaced,
];

/// Round-robin with one [`Fault`] applied to its answer.
struct Faulty(Fault);

impl Allocator for Faulty {
    fn name(&self) -> &'static str {
        "faulty"
    }

    fn allocate(&self, problem: &AllocationProblem) -> AllocationOutcome {
        if self.0 == Fault::Panic && problem.batch().request_count() % 2 == 1 {
            panic!("faulty allocator");
        }
        let mut outcome = RoundRobinAllocator.allocate(problem);
        let assignment = &mut outcome.assignment;
        match self.0 {
            Fault::Panic => {}
            Fault::Overpack => {
                for k in (0..problem.n()).map(VmId) {
                    if assignment.server_of(k) == Some(ServerId(1)) {
                        assignment.assign(k, ServerId(0));
                    }
                }
            }
            Fault::BreakAntiAffinity => {
                let rules = problem.batch().requests().iter().flat_map(|r| &r.rules);
                for rule in rules.filter(|r| r.kind() == AffinityKind::DifferentServer) {
                    if let Some(j) = assignment.server_of(rule.vms()[0]) {
                        for &k in rule.vms() {
                            assignment.assign(k, j);
                        }
                    }
                }
            }
            Fault::LeaveUnplaced => {
                if let Some(last) = problem.n().checked_sub(1) {
                    assignment.unassign(VmId(last));
                }
            }
        }
        outcome
    }
}

/// Multi-VM requests, half of them carrying a different-server rule.
fn request_spec() -> RequestSpec {
    RequestSpec {
        total_vms: 14,
        request_size: (1, 3),
        p_different_server: 0.5,
        ..Default::default()
    }
}

/// A backend that, after every window, checks that the books balance
/// and that the engine's live state is feasible.
struct Checked<B> {
    inner: B,
    feasible: fn(&B) -> Result<(), String>,
}

impl<B: WindowBackend> WindowBackend for Checked<B> {
    fn register_arrivals(&mut self, arrivals: &RequestBatch) -> Vec<TenantId> {
        self.inner.register_arrivals(arrivals)
    }

    fn bind_request_keys(&mut self, ids: &[TenantId], keys: &[u64]) {
        self.inner.bind_request_keys(ids, keys)
    }

    fn execute_window(
        &mut self,
        allocator: &dyn Allocator,
        arrivals: &RequestBatch,
        ids: &[TenantId],
    ) -> (WindowReport, Vec<TenantId>) {
        let (report, admitted) = self.inner.execute_window(allocator, arrivals, ids);
        assert_eq!(report.arrivals, report.admitted + report.rejected);
        assert_eq!(report.admitted, admitted.len());
        if let Err(e) = (self.feasible)(&self.inner) {
            panic!("window {}: {e}", report.window);
        }
        (report, admitted)
    }

    fn depart_tenant(&mut self, id: TenantId) -> bool {
        self.inner.depart_tenant(id)
    }

    fn force_failure(&mut self, server: ServerId) -> bool {
        self.inner.force_failure(server)
    }

    fn force_repair(&mut self, server: ServerId) -> bool {
        self.inner.force_repair(server)
    }

    fn server_count(&self) -> usize {
        self.inner.server_count()
    }

    fn resident_requests(&self) -> usize {
        self.inner.resident_requests()
    }
}

const HORIZON: f64 = 12.0;

/// Drives `backend` through `HORIZON` one-unit windows of contested
/// Poisson arrivals with server failures; every window must complete.
fn drive<B: WindowBackend>(backend: B, feasible: fn(&B) -> Result<(), String>, fault: Fault) {
    let spec = ArrivalSpec {
        rate: 8.0,
        request: request_spec(),
        lifetime: (2.0, 5.0),
    };
    let config = DesConfig {
        window_length: 1.0,
        latency: LatencyModel::Fixed(0.0),
        failures: Some(FailureSpec {
            mtbf: 6.0,
            mttr: 2.0,
        }),
        seed: 5,
        solve_deadline: None,
    };
    let checked = Checked {
        inner: backend,
        feasible,
    };
    let source = PoissonArrivals::new(spec, 5);
    let mut sched = WindowedScheduler::with_backend(checked, config, source);
    let report = sched.run(&Faulty(fault), HORIZON);
    assert_eq!(report.windows.len(), HORIZON as usize, "{fault:?}");
}

fn state_feasible(exec: &WindowExecutor) -> Result<(), String> {
    let report = exec.verify_state();
    report
        .is_feasible()
        .then_some(())
        .ok_or(format!("{report:?}"))
}

/// Runs `engine` under `fault` with fresh telemetry; the panic counter
/// must match the flight events and move whenever the allocator panics.
fn check(engine: &str, fault: Fault, run: impl FnOnce()) {
    cpo_obs::reset();
    flight::reset();
    run();
    let panics = counted_panics();
    assert_eq!(
        fault == Fault::Panic,
        panics > 0,
        "{engine} {fault:?}: {panics} panics"
    );
}

#[test]
fn faulty_allocators_never_reach_platform_state() {
    let _guard = telemetry();
    for fault in FAULTS {
        check("fleet", fault, || {
            drive(FleetExecutor::new(infra(4)), |f| f.verify(), fault)
        });
        check("window executor, fixed step", fault, || {
            let config = SimConfig {
                arrivals: request_spec(),
                lifetime: (2, 5),
                seed: 5,
                ..Default::default()
            };
            let mut exec = WindowExecutor::new(infra(4), config);
            for window in 0..8 {
                let report = exec.step(&Faulty(fault));
                assert_eq!(report.arrivals, report.admitted + report.rejected);
                if let Err(e) = state_feasible(&exec) {
                    panic!("{fault:?} window {window}: {e}");
                }
            }
        });
        check("window executor, windowed", fault, || {
            let exec = WindowExecutor::new(infra(4), SimConfig::default());
            drive(exec, state_feasible, fault)
        });
        for partition in [PartitionStrategy::RoundRobin, PartitionStrategy::RegionHash] {
            check(&format!("2 shards, {partition:?}"), fault, || {
                let config = ShardConfig {
                    shards: 2,
                    retry_budget: 2,
                    partition,
                };
                let sched = ShardedScheduler::new(FleetExecutor::new(infra(4)), config);
                drive(sched, |s| s.backend().verify(), fault)
            });
        }
    }
}
