//! The "Filtering Algorithm" of the paper's Table II — a BtrPlace-style
//! (ref. 13) consolidation manager: per resource, *filter* the candidate
//! servers through every constraint, then commit the cheapest survivor.
//!
//! Table II credits filtering with constraint compliance and
//! infrastructure control but denies it resource scalability and
//! customer-request compliance; this implementation reproduces that
//! profile: it never violates constraints (filters are exact), it greedily
//! serves requests in order (no backtracking → rejects requests a global
//! optimiser would fit) and its per-VM full-server scan is the
//! scalability weakness the table points at.

use crate::allocator::{AllocationOutcome, Allocator};
use cpo_model::prelude::*;
use cpo_tabu::repair::is_valid_allocation;
use std::time::Instant;

/// Filtering-based allocator (greedy best-fit with exact filters).
#[derive(Clone, Copy, Debug, Default)]
pub struct FilteringAllocator;

impl FilteringAllocator {
    /// Cheapest server passing all filters for VM `k`, given the partial
    /// assignment: marginal cost = usage cost + opex if the server would
    /// be switched on.
    fn best_candidate(
        problem: &AllocationProblem,
        assignment: &Assignment,
        tracker: &LoadTracker,
        k: VmId,
    ) -> Option<ServerId> {
        let mut best: Option<(ServerId, f64)> = None;
        for j in problem.infra().server_ids() {
            // Filters: capacity and every affinity rule of k's request.
            if !is_valid_allocation(problem, assignment, tracker, k, j) {
                continue;
            }
            let s = problem.infra().server(j);
            let marginal = s.usage_cost + if tracker.hosted(j) == 0 { s.opex } else { 0.0 };
            match best {
                Some((_, c)) if c <= marginal => {}
                _ => best = Some((j, marginal)),
            }
        }
        best.map(|(j, _)| j)
    }
}

impl Allocator for FilteringAllocator {
    fn name(&self) -> &'static str {
        "filtering"
    }

    fn allocate(&self, problem: &AllocationProblem) -> AllocationOutcome {
        let mut sp = cpo_obs::span!("allocator.allocate", algo = self.name());
        let start = Instant::now();
        let mut assignment = Assignment::unassigned(problem.n());
        let mut tracker = LoadTracker::new(problem.m(), problem.h());
        let mut rejected = Vec::new();

        for req in problem.batch().requests() {
            let mut placed: Vec<(VmId, ServerId)> = Vec::with_capacity(req.vms.len());
            // Place same-server groups first (the hardest filter), then
            // the rest in declaration order.
            let mut ordered: Vec<VmId> = req.vms.iter().collect();
            ordered.sort_by_key(|&k| {
                usize::from(
                    !req.rules
                        .iter()
                        .any(|r| r.kind() == AffinityKind::SameServer && r.vms().contains(&k)),
                )
            });
            let mut ok = true;
            for &k in &ordered {
                match Self::best_candidate(problem, &assignment, &tracker, k) {
                    Some(j) => {
                        assignment.assign(k, j);
                        tracker.add(k, j, problem.batch());
                        placed.push((k, j));
                    }
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                for (k, j) in placed {
                    tracker.remove(k, j, problem.batch());
                    assignment.unassign(k);
                }
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
    fn consolidates_onto_the_cheapest_server() {
        let mut batch = RequestBatch::new();
        for _ in 0..3 {
            batch.push_request(vec![vm_spec(2.0, 1024.0, 10.0)], vec![]);
        }
        let p = AllocationProblem::new(infra(4), batch, None);
        let out = FilteringAllocator.allocate(&p);
        assert!(out.is_clean());
        // Greedy marginal cost packs everything on one server.
        let tracker = p.tracker(&out.assignment);
        assert_eq!(tracker.active_servers(), 1);
    }

    #[test]
    fn filters_enforce_rules_exactly() {
        let mut batch = RequestBatch::new();
        batch.push_request(
            vec![vm_spec(1.0, 512.0, 5.0); 2],
            vec![AffinityRule::new(
                AffinityKind::DifferentServer,
                vec![VmId(0), VmId(1)],
            )],
        );
        batch.push_request(
            vec![vm_spec(1.0, 512.0, 5.0); 2],
            vec![AffinityRule::new(
                AffinityKind::SameServer,
                vec![VmId(2), VmId(3)],
            )],
        );
        let p = AllocationProblem::new(infra(3), batch, None);
        let out = FilteringAllocator.allocate(&p);
        assert!(out.is_clean());
        assert_eq!(out.rejection_rate, 0.0);
        let a = &out.assignment;
        assert_ne!(a.server_of(VmId(0)), a.server_of(VmId(1)));
        assert_eq!(a.server_of(VmId(2)), a.server_of(VmId(3)));
    }

    #[test]
    fn rejects_cleanly_with_rollback() {
        let mut batch = RequestBatch::new();
        batch.push_request(
            vec![vm_spec(1.0, 512.0, 5.0); 3],
            vec![AffinityRule::new(
                AffinityKind::DifferentServer,
                vec![VmId(0), VmId(1), VmId(2)],
            )],
        );
        let p = AllocationProblem::new(infra(2), batch, None);
        let out = FilteringAllocator.allocate(&p);
        assert_eq!(out.rejected, vec![RequestId(0)]);
        assert!(out.is_clean());
        assert_eq!(out.assignment.assigned_count(), 0, "rollback must be total");
    }

    #[test]
    fn cheaper_than_round_robin_on_sparse_load() {
        use crate::round_robin::RoundRobinAllocator;
        let mut batch = RequestBatch::new();
        for _ in 0..4 {
            batch.push_request(vec![vm_spec(1.0, 512.0, 5.0)], vec![]);
        }
        let p = AllocationProblem::new(infra(4), batch, None);
        let filt = FilteringAllocator.allocate(&p);
        let rr = RoundRobinAllocator.allocate(&p);
        assert!(
            filt.provider_cost() < rr.provider_cost(),
            "filtering consolidates ({}) where RR spreads ({})",
            filt.provider_cost(),
            rr.provider_cost()
        );
    }

    #[test]
    fn same_server_group_placed_first() {
        // Group of 3 needing 24 cpu must land before singles fragment
        // the space.
        let mut batch = RequestBatch::new();
        batch.push_request(
            vec![vm_spec(8.0, 512.0, 5.0); 3],
            vec![AffinityRule::new(
                AffinityKind::SameServer,
                vec![VmId(0), VmId(1), VmId(2)],
            )],
        );
        let p = AllocationProblem::new(infra(1), batch, None);
        let out = FilteringAllocator.allocate(&p);
        assert!(out.is_clean());
        assert_eq!(out.rejection_rate, 0.0);
    }
}
