//! A panicking allocator must not abort a sharded run. The sharded
//! scheduler catches a solve panic per part and treats the part's
//! requests as unsolved: they bounce while their part was masked and are
//! rejected once the decision is final. The window completes, the books
//! balance, the fleet state verifies, and the panic is visible as a
//! `shard.solver_panics` counter and a `solver_panicked` flight event.
//!
//! One test function only: it enables the process-global telemetry
//! registry and flight ring.

use cpo_core::prelude::{AllocationOutcome, Allocator, RoundRobinAllocator};
use cpo_model::attr::AttrSet;
use cpo_model::prelude::*;
use cpo_obs::flight::{self, FlightKind};
use cpo_platform::prelude::*;

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
        if problem
            .batch()
            .vms()
            .iter()
            .any(|vm| vm.demand[0] == POISON_CPU)
        {
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

fn run(partition: PartitionStrategy) -> (WindowReport, Vec<TenantId>, FleetExecutor) {
    let infra = Infrastructure::new(
        AttrSet::standard(),
        vec![("dc".into(), ServerProfile::commodity(3).build_many(4))],
    );
    let mut sched = ShardedScheduler::new(
        FleetExecutor::new(infra),
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

#[test]
fn panicking_shard_solve_becomes_a_rejection() {
    cpo_obs::enable();
    flight::enable();
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
        let panics = cpo_obs::snapshot()
            .counters
            .get("shard.solver_panics")
            .copied()
            .unwrap_or(0);
        assert!(panics > 0, "{partition:?}: panics are counted");
        let events = flight::snapshot().events;
        let recorded = events
            .iter()
            .filter(|e| e.kind == FlightKind::SolverPanicked)
            .count() as u64;
        assert_eq!(
            recorded, panics,
            "{partition:?}: one flight event per panic"
        );
    }
    // Round-robin parts are never masked, so the poisoned part's
    // requests are rejected in round 0 while the other part admits all
    // of its own: requests 1, 3, 5 and 7.
    let (report, admitted, _) = run(PartitionStrategy::RoundRobin);
    assert_eq!(report.admitted, 4);
    let ids: Vec<u64> = admitted.iter().map(|t| t.0).collect();
    assert_eq!(ids, [1, 3, 5, 7]);
    flight::disable();
    cpo_obs::disable();
}
