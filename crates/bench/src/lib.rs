//! Shared helpers for the benchmark binaries: `bench_micro` (hot-kernel
//! cells), `bench_trace` (the trace macro-benchmark) and `bench_diff`
//! (the regression gate over their reports). The paper's figures and
//! the ablations are regenerated by `exper`, not here.

pub mod diff;
pub mod report;

use cpo_exper::runner::scenario_problem;
use cpo_model::prelude::AllocationProblem;
use cpo_scenario::prelude::ScenarioSize;

/// Cores available to this process (`available_parallelism`, 1 when
/// unknown): the `host_cores` key each bench's config cell records.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The reconfiguration cell that pins the evolutionary allocators: the
/// 24-server seed-42 scenario (affinity rules included), placed once by
/// Round Robin, whose busiest server then fails (capacity zeroed), so the
/// solve must move its residents away from the running allocation.
pub fn reconfig_problem() -> AllocationProblem {
    use cpo_core::prelude::{Allocator, RoundRobinAllocator};
    use cpo_model::prelude::ServerId;
    let fresh = scenario_problem(&ScenarioSize::with_servers(24), false, 42);
    let previous = RoundRobinAllocator.allocate(&fresh).assignment;
    let mut hosted = vec![0usize; fresh.m()];
    for (_, j) in previous.iter_assigned() {
        hosted[j.index()] += 1;
    }
    let busiest = (0..fresh.m()).fold(0, |best, j| if hosted[j] > hosted[best] { j } else { best });
    let mut infra = fresh.infra().clone();
    infra.set_capacity(ServerId(busiest), &vec![0.0; infra.attr_count()]);
    AllocationProblem::new(infra, fresh.batch().clone(), Some(previous))
}

/// FNV-1a over an outcome's decision: each VM's server (`u64::MAX` when
/// unassigned), the rejected request ids, the evaluation count and the
/// bits of the three objectives.
pub fn outcome_fingerprint(outcome: &cpo_core::prelude::AllocationOutcome) -> u64 {
    use cpo_model::prelude::VmId;
    let a = &outcome.assignment;
    let words = (0..a.len())
        .map(|k| a.server_of(VmId(k)).map_or(u64::MAX, |j| j.index() as u64))
        .chain(outcome.rejected.iter().map(|r| r.index() as u64))
        .chain([outcome.evaluations as u64])
        .chain(outcome.objectives.as_array().map(f64::to_bits));
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for word in words {
        for b in word.to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// The fig8 seed-42 cell restricted to admissible requests — the same
/// batch-level CSP the propagation regression test pins. Requests whose
/// rules are structurally unsatisfiable on this infrastructure (a
/// different-datacenter rule spanning more VMs than there are
/// datacenters) are dropped upfront, exactly as batch admission would.
pub fn admissible_fig8_problem() -> AllocationProblem {
    use cpo_model::prelude::*;
    let raw = scenario_problem(&ScenarioSize::with_servers(100), false, 42);
    let g = raw.g();
    let mut batch = RequestBatch::new();
    for req in raw.batch().requests() {
        let admissible = req
            .rules
            .iter()
            .all(|r| r.kind() != AffinityKind::DifferentDatacenter || r.vms().len() <= g);
        if !admissible {
            continue;
        }
        let base = batch.vms().len();
        let vms: Vec<VmSpec> = req.vms.iter().map(|&k| raw.batch().vm(k).clone()).collect();
        let rules: Vec<AffinityRule> = req
            .rules
            .iter()
            .map(|r| {
                let remapped: Vec<VmId> = r
                    .vms()
                    .iter()
                    .map(|k| {
                        let pos = req.vms.iter().position(|v| v == k).expect("rule vm");
                        VmId(base + pos)
                    })
                    .collect();
                AffinityRule::new(r.kind(), remapped)
            })
            .collect();
        batch.push_request(vms, rules);
    }
    AllocationProblem::new(raw.infra().clone(), batch, None)
}
