//! End-to-end acceptance of the flight recorder and invariant monitors:
//!
//! * a failure-injected continuous-time run yields a complete, ordered,
//!   gap-free, orphan-free timeline for every generated request;
//! * deliberately corrupted assignments (capacity overload,
//!   anti-affinity break) trip the online monitors — counters, flight
//!   markers and, under strict mode, a fail-fast panic;
//! * the six paper allocators report zero monitor violations on a
//!   paper-shape scenario, and the monitor event count always equals the
//!   outcome's violated-constraint count.
//!
//! The recorder is process-global, so every test grabs `LOCK` first.

use cpo_iaas::core::prelude::*;
use cpo_iaas::des::prelude::*;
use cpo_iaas::exper::runner::{Algorithm, Effort};
use cpo_iaas::model::attr::AttrSet;
use cpo_iaas::obs::{flight, timeline};
use cpo_iaas::prelude::*;
use std::sync::Mutex;
use std::time::Duration;

static LOCK: Mutex<()> = Mutex::new(());

/// Serialise access to the process-global recorder; a panic in one test
/// must not poison the others.
fn recorder_guard() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn violation_events() -> Vec<cpo_iaas::obs::flight::FlightEvent> {
    flight::snapshot()
        .events
        .into_iter()
        .filter(|e| e.kind == flight::FlightKind::Violation)
        .collect()
}

#[test]
fn des_failure_run_yields_complete_timelines_for_every_request() {
    let _guard = recorder_guard();
    flight::enable();
    flight::reset();

    let infra = Infrastructure::new(
        AttrSet::standard(),
        vec![("dc".into(), ServerProfile::commodity(3).build_many(10))],
    );
    let arrivals = PoissonArrivals::new(
        ArrivalSpec {
            rate: 3.0,
            lifetime: (2.0, 6.0),
            ..Default::default()
        },
        11,
    );
    let config = DesConfig {
        window_length: 1.0,
        latency: LatencyModel::Fixed(0.05),
        failures: Some(FailureSpec {
            mtbf: 12.0,
            mttr: 2.5,
        }),
        seed: 11,
        solve_deadline: None,
    };
    let mut sched = WindowedScheduler::new(infra, SimConfig::default(), config, arrivals);
    let report = sched.run(&RoundRobinAllocator, 30.0);
    assert!(report.total_admitted() > 0, "the run must admit requests");

    let snap = flight::snapshot();
    flight::disable();
    assert_eq!(snap.overwritten, 0, "this run must fit in the ring");
    let generated: Vec<u64> = snap
        .events
        .iter()
        .filter(|e| e.kind == flight::FlightKind::Generated)
        .map(|e| e.key)
        .collect();
    assert!(!generated.is_empty());

    let set = timeline::reconstruct(&snap.events);
    // Complete: every generated request has a timeline...
    for &uid in &generated {
        assert!(
            set.timeline(uid).is_some(),
            "request {uid} generated but has no timeline"
        );
    }
    // ...and nothing else does.
    assert_eq!(set.timelines.len(), generated.len());
    // Orphan-free: every tenant-scoped event joined back to a request.
    assert!(set.orphans.is_empty(), "orphans: {:?}", set.orphans);
    // Ordered + gap-free: the lifecycle state machine accepts every one.
    let errors = set.all_errors();
    assert!(errors.is_empty(), "lifecycle defects: {errors:?}");
    // The failure injection actually exercised the failure path.
    assert!(snap
        .events
        .iter()
        .any(|e| e.kind == flight::FlightKind::ServerFailed));
}

/// A 2-VM problem with an anti-affinity rule, plus an assignment that
/// overloads one server *and* breaks the rule.
fn corrupted_case() -> (AllocationProblem<'static>, Assignment) {
    let infra = Infrastructure::new(
        AttrSet::standard(),
        vec![("dc".into(), ServerProfile::commodity(3).build_many(3))],
    );
    let mut batch = RequestBatch::new();
    batch.push_request(
        // Far beyond any commodity server's capacity.
        vec![vm_spec(10_000.0, 1e9, 10.0); 2],
        vec![AffinityRule::new(
            AffinityKind::DifferentServer,
            vec![VmId(0), VmId(1)],
        )],
    );
    let problem = AllocationProblem::new(infra, batch, None);
    let mut assignment = Assignment::unassigned(2);
    assignment.assign(VmId(0), ServerId(0));
    assignment.assign(VmId(1), ServerId(0));
    (problem, assignment)
}

#[test]
fn monitors_flag_corrupted_assignments() {
    let _guard = recorder_guard();
    flight::enable();
    flight::reset();
    cpo_iaas::obs::enable();

    let (problem, assignment) = corrupted_case();
    let outcome = AllocationOutcome::from_assignment(
        &problem,
        assignment,
        Vec::new(),
        Duration::from_millis(1),
        0,
    );
    assert!(outcome.violated_constraints > 0);

    let events = violation_events();
    flight::disable();
    assert_eq!(
        events.len(),
        outcome.violated_constraints,
        "one monitor event per violated constraint"
    );
    // Both classes present: capacity (code 0) and affinity (code 2).
    assert!(events
        .iter()
        .any(|e| e.key == cpo_iaas::core::monitor::CODE_CAPACITY));
    assert!(events
        .iter()
        .any(|e| e.key == cpo_iaas::core::monitor::CODE_AFFINITY));

    // The labelled counters moved too.
    let snap = cpo_iaas::obs::snapshot();
    assert!(snap.counters.get("monitor.allocator.capacity").copied() > Some(0));
    assert!(snap.counters.get("monitor.allocator.affinity").copied() > Some(0));
}

#[test]
fn strict_mode_turns_violations_into_panics() {
    let _guard = recorder_guard();
    flight::enable();
    flight::reset();
    flight::set_strict(true);

    let (problem, assignment) = corrupted_case();
    let result = std::panic::catch_unwind(move || {
        AllocationOutcome::from_assignment(
            &problem,
            assignment,
            Vec::new(),
            Duration::from_millis(1),
            0,
        )
    });
    flight::set_strict(false);
    flight::disable();
    assert!(result.is_err(), "strict monitors must fail fast");
}

#[test]
fn six_allocators_report_zero_monitor_violations_on_paper_shapes() {
    let _guard = recorder_guard();
    flight::enable();

    let size = ScenarioSize::with_servers(15);
    let problem = ScenarioSpec::for_size(&size).generate(42);
    for algorithm in Algorithm::all() {
        flight::reset();
        let outcome = algorithm.build(Effort::Quick, 42).allocate(&problem);
        let events = violation_events();
        // Consistency: the monitor saw exactly what the outcome reports.
        assert_eq!(
            events.len(),
            outcome.violated_constraints,
            "{}: monitor events must match violated_constraints",
            algorithm.label()
        );
        assert_eq!(
            outcome.violated_constraints,
            0,
            "{}: paper-shape scenario must be solved violation-free",
            algorithm.label()
        );
    }
    flight::disable();
}
