//! Round Robin's headroom ceiling decides "fits nowhere" without a scan;
//! this property pins it to the plain linear scan it replaced. The
//! oracle below is that scan: every VM tries every server from the
//! cursor on, with no ceiling. On fleets whose residuals leave some
//! attributes nearly full, with every rule kind and VM demands at, just
//! above and far beyond a server's headroom, both must produce the same
//! assignment, the same rejections and the same objectives.

use cpo_core::prelude::*;
use cpo_model::attr::AttrSet;
use cpo_model::prelude::*;
use cpo_tabu::repair::is_valid_allocation;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Places all VMs of `req` from `cursor` on, scanning every server for
/// every VM; `false` (rolled back) when the request does not fit whole.
fn oracle_place(
    problem: &AllocationProblem,
    req: &Request,
    assignment: &mut Assignment,
    tracker: &mut LoadTracker,
    cursor: &mut usize,
) -> bool {
    let m = problem.m();
    let mut placed: Vec<(VmId, ServerId)> = Vec::new();
    let mut unit: Vec<VmId> = Vec::new();
    for rule in &req.rules {
        if rule.kind() == AffinityKind::SameServer {
            for &k in rule.vms() {
                if !unit.contains(&k) {
                    unit.push(k);
                }
            }
        }
    }
    let rollback =
        |assignment: &mut Assignment, tracker: &mut LoadTracker, placed: &[(VmId, ServerId)]| {
            for &(k, j) in placed {
                tracker.remove(k, j, problem.batch());
                assignment.unassign(k);
            }
        };
    if !unit.is_empty() {
        let mut found = false;
        for step in 0..m {
            let j = ServerId((*cursor + step) % m);
            let mut ok = true;
            let mut trial: Vec<(VmId, ServerId)> = Vec::new();
            for &k in &unit {
                if is_valid_allocation(problem, assignment, tracker, k, j) {
                    tracker.add(k, j, problem.batch());
                    assignment.assign(k, j);
                    trial.push((k, j));
                } else {
                    ok = false;
                    break;
                }
            }
            if ok {
                placed.extend_from_slice(&trial);
                *cursor = (j.index() + 1) % m;
                found = true;
                break;
            }
            rollback(assignment, tracker, &trial);
        }
        if !found {
            return false;
        }
    }
    for k in req.vms {
        if unit.contains(&k) {
            continue;
        }
        let mut found = false;
        for step in 0..m {
            let j = ServerId((*cursor + step) % m);
            if is_valid_allocation(problem, assignment, tracker, k, j) {
                tracker.add(k, j, problem.batch());
                assignment.assign(k, j);
                placed.push((k, j));
                *cursor = (j.index() + 1) % m;
                found = true;
                break;
            }
        }
        if !found {
            rollback(assignment, tracker, &placed);
            return false;
        }
    }
    true
}

/// The linear-scan Round Robin: final assignment and rejected requests.
fn oracle_allocate(problem: &AllocationProblem) -> (Assignment, Vec<RequestId>) {
    let mut assignment = Assignment::unassigned(problem.n());
    let mut tracker = LoadTracker::new(problem.m(), problem.h());
    let mut cursor = 0usize;
    let mut rejected = Vec::new();
    for req in problem.batch().requests() {
        if !oracle_place(problem, req, &mut assignment, &mut tracker, &mut cursor) {
            rejected.push(req.id);
        }
    }
    (assignment, rejected)
}

/// A random fleet of one or two datacenters whose residual capacity is
/// pre-loaded per server and attribute (empty, half, nearly or exactly
/// full), and a batch of 1–4-VM requests carrying every rule kind.
/// Demands are small, or pinned to some server's starting headroom:
/// exactly at it, within the fit tolerance above it (5e-10), just past
/// the tolerance (2e-9), 1e-6 above it, or ten times beyond it.
fn case(seed: u64) -> AllocationProblem<'static> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let profile = ServerProfile::commodity(3);
    let dcs = rng.gen_range(1..=2usize);
    let per_dc = rng.gen_range(1..=5usize);
    let mut infra = Infrastructure::new(
        AttrSet::standard(),
        (0..dcs)
            .map(|d| (format!("dc{d}"), profile.build_many(per_dc)))
            .collect(),
    );
    let fills = [0.0, 0.5, 0.9, 0.999, 1.0];
    for j in infra.server_ids().collect::<Vec<_>>() {
        let load: Vec<f64> = infra
            .capacity_row(j)
            .iter()
            .map(|c| -c * fills[rng.gen_range(0..fills.len())])
            .collect();
        infra.adjust_capacity(j, &load);
    }
    let m = infra.server_count();
    let kinds = [
        AffinityKind::SameServer,
        AffinityKind::SameDatacenter,
        AffinityKind::DifferentServer,
        AffinityKind::DifferentDatacenter,
    ];
    let mut batch = RequestBatch::new();
    for _ in 0..rng.gen_range(1..=24usize) {
        let size = rng.gen_range(1..=4usize);
        let vms: Vec<VmSpec> = (0..size)
            .map(|_| {
                let mut spec = vm_spec(
                    rng.gen_range(0.5..4.0),
                    rng.gen_range(256.0..8192.0),
                    rng.gen_range(1.0..64.0),
                );
                if rng.gen_bool(0.6) {
                    let room = infra.effective_row(ServerId(rng.gen_range(0..m)));
                    let l = rng.gen_range(0..3usize);
                    spec.demand[l] = match rng.gen_range(0..5u8) {
                        0 => room[l],
                        1 => room[l] + 5e-10,
                        2 => room[l] + 2e-9,
                        3 => room[l] + 1e-6,
                        _ => room[l] * 10.0 + 1.0,
                    };
                }
                spec
            })
            .collect();
        let first = batch.vm_count();
        let mut rules = Vec::new();
        if size >= 2 && rng.gen_bool(0.5) {
            let kind = kinds[rng.gen_range(0..kinds.len())];
            let count = rng.gen_range(2..=size);
            rules.push(AffinityRule::new(
                kind,
                (first..first + count).map(VmId).collect(),
            ));
        }
        batch.push_request(vms, rules);
    }
    AllocationProblem::new(infra, batch, None)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn ceiling_round_robin_matches_the_linear_scan(seed in 0u64..u64::MAX) {
        let problem = case(seed);
        let (assignment, rejected) = oracle_allocate(&problem);
        let out = RoundRobinAllocator.allocate(&problem);
        prop_assert_eq!(&out.assignment, &assignment);
        prop_assert_eq!(&out.rejected, &rejected);
        prop_assert_eq!(out.objectives, problem.evaluate(&assignment));
    }
}

/// A saturated fleet: after the first rejection every later oversized VM
/// is decided by the ceiling, and the outcome is still the scan's.
#[test]
fn saturated_tail_matches_the_linear_scan() {
    let profile = ServerProfile::commodity(3);
    let infra = Infrastructure::new(
        AttrSet::standard(),
        vec![("dc".into(), profile.build_many(8))],
    );
    let mut batch = RequestBatch::new();
    for r in 0..200 {
        let cpu = if r % 3 == 0 { 1.0 } else { 7.0 };
        batch.push_request(vec![vm_spec(cpu, 1024.0, 16.0)], vec![]);
    }
    let problem = AllocationProblem::new(infra, batch, None);
    let (assignment, rejected) = oracle_allocate(&problem);
    let out = RoundRobinAllocator.allocate(&problem);
    assert!(!rejected.is_empty(), "the fleet must saturate");
    assert_eq!(out.assignment, assignment);
    assert_eq!(out.rejected, rejected);
}
