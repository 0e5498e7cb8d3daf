//! Round Robin with server affinity (the paper's baseline, after Mahajan
//! et al., "Round Robin with Server Affinity: A VM Load Balancing
//! Algorithm for Cloud Based Infrastructure").
//!
//! Requests are processed in arrival order; a rotating cursor spreads load
//! across servers. Affinity awareness: VMs bound by a same-server rule are
//! placed as one unit; the other rules are honoured by skipping servers
//! the rules forbid. A request whose VMs cannot all be placed is rejected
//! as a whole (its partial placements rolled back) — Round Robin never
//! produces an invalid placement, it just rejects a lot (Fig. 9).
//!
//! A saturated fleet makes most rejections full scans that find no
//! server. A [`HeadroomCeiling`] keeps, per attribute, an upper bound on
//! every server's headroom: unbounded at first, set exact after a scan
//! finds no server, and raised whenever a rollback frees room. A VM
//! whose demand exceeds it in some attribute fits nowhere and is
//! decided in O(h), with the cursor and the rollback exactly as after a
//! failed scan, so every placement and rejection is the linear scan's.

use crate::allocator::{AllocationOutcome, Allocator};
use cpo_model::prelude::*;
use cpo_tabu::repair::is_valid_allocation;
use std::time::Instant;

/// Round Robin with server affinity.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundRobinAllocator;

/// Placement buffers one `allocate` call owns and clears per request, so
/// placing a request allocates nothing once they have grown to size.
#[derive(Default)]
struct Scratch {
    /// The request's placements so far, for rollback.
    placed: Vec<(VmId, ServerId)>,
    /// VMs bound by a same-server rule, placed as one unit.
    unit: Vec<VmId>,
    /// The unit's placements on the server being tried.
    trial: Vec<(VmId, ServerId)>,
}

impl RoundRobinAllocator {
    /// Places all VMs of `req` starting the server scan at `cursor`.
    /// Returns `false` (leaving `assignment`/`tracker` rolled back) when
    /// the request cannot be fully placed. `ceiling` bounds every
    /// server's headroom under `tracker`; this call keeps it a bound.
    fn place_request(
        problem: &AllocationProblem,
        req: &Request,
        assignment: &mut Assignment,
        tracker: &mut LoadTracker,
        ceiling: &mut HeadroomCeiling,
        cursor: &mut usize,
        scratch: &mut Scratch,
    ) -> bool {
        let m = problem.m();
        let batch = problem.batch();
        let Scratch {
            placed,
            unit,
            trial,
        } = scratch;
        placed.clear();

        // Same-server groups must go as a unit: pre-compute the union of
        // VMs bound by any same-server rule of this request.
        unit.clear();
        for rule in &req.rules {
            if rule.kind() == AffinityKind::SameServer {
                for &k in rule.vms() {
                    if !unit.contains(&k) {
                        unit.push(k);
                    }
                }
            }
        }

        // Removing a VM frees room on its server, so the ceiling rises.
        let rollback = |assignment: &mut Assignment,
                        tracker: &mut LoadTracker,
                        ceiling: &mut HeadroomCeiling,
                        placed: &[(VmId, ServerId)]| {
            for &(k, j) in placed {
                tracker.remove(k, j, batch);
                tracker.raise_ceiling(ceiling, j, problem.infra());
                assignment.unassign(k);
            }
        };

        // Place the same-server unit first (hardest to fit). A member
        // that fits on no server alone fits on none beside its partners.
        if !unit.is_empty() {
            if unit.iter().any(|&k| ceiling.excludes(batch.demand(k))) {
                return false;
            }
            let mut found = false;
            for step in 0..m {
                let j = ServerId((*cursor + step) % m);
                // The whole unit must fit on j simultaneously.
                let mut ok = true;
                trial.clear();
                for &k in unit.iter() {
                    if is_valid_allocation(problem, assignment, tracker, k, j) {
                        tracker.add(k, j, batch);
                        assignment.assign(k, j);
                        trial.push((k, j));
                    } else {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    placed.extend_from_slice(trial);
                    *cursor = (j.index() + 1) % m;
                    found = true;
                    break;
                }
                rollback(assignment, tracker, ceiling, trial);
            }
            if !found {
                return false;
            }
        }

        // Place the remaining VMs one by one round-robin. A VM the
        // ceiling excludes fits nowhere, so it is decided without the
        // scan; a scan that finds nothing sets the ceiling exact.
        for k in req.vms {
            if unit.contains(&k) {
                continue;
            }
            let mut found = false;
            if !ceiling.excludes(batch.demand(k)) {
                for step in 0..m {
                    let j = ServerId((*cursor + step) % m);
                    if is_valid_allocation(problem, assignment, tracker, k, j) {
                        tracker.add(k, j, batch);
                        assignment.assign(k, j);
                        placed.push((k, j));
                        *cursor = (j.index() + 1) % m;
                        found = true;
                        break;
                    }
                }
                if !found {
                    *ceiling = tracker.headroom_ceiling(problem.infra());
                }
            }
            if !found {
                rollback(assignment, tracker, ceiling, placed);
                return false;
            }
        }
        true
    }
}

impl Allocator for RoundRobinAllocator {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn allocate(&self, problem: &AllocationProblem) -> AllocationOutcome {
        let mut sp = cpo_obs::span!("allocator.allocate", algo = self.name());
        let start = Instant::now();
        let mut assignment = Assignment::unassigned(problem.n());
        let mut tracker = LoadTracker::new(problem.m(), problem.h());
        let mut ceiling = HeadroomCeiling::unbounded(problem.h());
        let mut cursor = 0usize;
        let mut scratch = Scratch::default();
        let mut rejected = Vec::new();
        for req in problem.batch().requests() {
            if !Self::place_request(
                problem,
                req,
                &mut assignment,
                &mut tracker,
                &mut ceiling,
                &mut cursor,
                &mut scratch,
            ) {
                rejected.push(req.id);
            }
        }
        let outcome =
            AllocationOutcome::from_assignment(problem, assignment, rejected, start.elapsed(), 0);
        crate::allocator::observe_outcome(&mut sp, self.name(), &outcome);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpo_model::attr::AttrSet;

    fn infra(servers: usize) -> Infrastructure {
        Infrastructure::new(
            AttrSet::standard(),
            vec![("dc".into(), ServerProfile::commodity(3).build_many(servers))],
        )
    }

    #[test]
    fn spreads_load_round_robin() {
        let mut batch = RequestBatch::new();
        for _ in 0..4 {
            batch.push_request(vec![vm_spec(2.0, 1024.0, 10.0)], vec![]);
        }
        let p = AllocationProblem::new(infra(4), batch, None);
        let out = RoundRobinAllocator.allocate(&p);
        assert!(out.is_clean());
        assert_eq!(out.rejection_rate, 0.0);
        // One VM per server: the defining round-robin behaviour.
        let servers: Vec<usize> = (0..4)
            .map(|k| out.assignment.server_of(VmId(k)).unwrap().index())
            .collect();
        assert_eq!(servers, vec![0, 1, 2, 3]);
    }

    #[test]
    fn same_server_group_is_colocated() {
        let mut batch = RequestBatch::new();
        batch.push_request(
            vec![vm_spec(2.0, 1024.0, 10.0); 3],
            vec![AffinityRule::new(
                AffinityKind::SameServer,
                vec![VmId(0), VmId(1), VmId(2)],
            )],
        );
        let p = AllocationProblem::new(infra(3), batch, None);
        let out = RoundRobinAllocator.allocate(&p);
        assert!(out.is_clean());
        assert_eq!(out.rejection_rate, 0.0);
        let s0 = out.assignment.server_of(VmId(0));
        assert_eq!(s0, out.assignment.server_of(VmId(1)));
        assert_eq!(s0, out.assignment.server_of(VmId(2)));
    }

    #[test]
    fn different_server_rule_is_honoured() {
        let mut batch = RequestBatch::new();
        batch.push_request(
            vec![vm_spec(1.0, 512.0, 5.0); 2],
            vec![AffinityRule::new(
                AffinityKind::DifferentServer,
                vec![VmId(0), VmId(1)],
            )],
        );
        let p = AllocationProblem::new(infra(2), batch, None);
        let out = RoundRobinAllocator.allocate(&p);
        assert!(out.is_clean());
        assert_ne!(
            out.assignment.server_of(VmId(0)),
            out.assignment.server_of(VmId(1))
        );
    }

    #[test]
    fn unplaceable_request_is_rejected_and_rolled_back() {
        let mut batch = RequestBatch::new();
        // Three VMs that must be separated but only two servers exist.
        batch.push_request(
            vec![vm_spec(1.0, 512.0, 5.0); 3],
            vec![AffinityRule::new(
                AffinityKind::DifferentServer,
                vec![VmId(0), VmId(1), VmId(2)],
            )],
        );
        batch.push_request(vec![vm_spec(1.0, 512.0, 5.0)], vec![]);
        let p = AllocationProblem::new(infra(2), batch, None);
        let out = RoundRobinAllocator.allocate(&p);
        assert_eq!(out.rejected, vec![RequestId(0)]);
        assert!(out.is_clean(), "rejection must be clean");
        assert_eq!(out.rejection_rate, 0.5);
        // Rolled back: no VM of request 0 placed.
        for k in 0..3 {
            assert_eq!(out.assignment.server_of(VmId(k)), None);
        }
        // Request 1 still served.
        assert!(out.assignment.server_of(VmId(3)).is_some());
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut batch = RequestBatch::new();
        for _ in 0..20 {
            batch.push_request(vec![vm_spec(8.0, 8192.0, 100.0)], vec![]);
        }
        // 20 * 8 = 160 vCPU demand on 2 servers * 28.8 = 57.6: most reject.
        let p = AllocationProblem::new(infra(2), batch, None);
        let out = RoundRobinAllocator.allocate(&p);
        assert!(out.is_clean());
        assert!(out.rejection_rate > 0.5);
        assert!(p
            .check(&out.assignment)
            .violations()
            .iter()
            .all(|v| matches!(v, cpo_model::constraints::Violation::Unassigned { .. })));
    }

    #[test]
    fn rejects_nothing_when_everything_fits() {
        let mut batch = RequestBatch::new();
        for _ in 0..10 {
            batch.push_request(vec![vm_spec(1.0, 512.0, 5.0)], vec![]);
        }
        let p = AllocationProblem::new(infra(4), batch, None);
        let out = RoundRobinAllocator.allocate(&p);
        assert_eq!(out.rejection_rate, 0.0);
        assert_eq!(out.evaluations, 0);
    }
}
