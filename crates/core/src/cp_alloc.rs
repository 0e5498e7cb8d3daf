//! The "Constraint Programming" baseline: per-request admission through
//! the CP solver (our Choco substitute), exactly the role Choco plays in
//! the paper's first resolution approach.
//!
//! Requests are admitted one by one: each request's VMs become CSP
//! variables over the servers, constrained by residual capacities and the
//! request's affinity rules. Cost-ordered value selection (optionally full
//! branch-and-bound) drives the provider cost down — which is why CP posts
//! the lowest cost in Fig. 11 while rejecting more than the hybrid in
//! Fig. 9 (rejections carry no cost penalty, as the paper notes).

use crate::allocator::{AllocationOutcome, Allocator};
use cpo_cpsolve::prelude::*;
use cpo_model::deadline::Deadline;
use cpo_model::prelude::*;
use std::time::{Duration, Instant};

/// How hard the CP allocator works per request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CpMode {
    /// First feasible solution with cost-ordered branching (fast).
    Feasible,
    /// Branch-and-bound to the separable-cost optimum, within the budget.
    Optimize,
}

/// Constraint-programming allocator.
#[derive(Clone, Debug)]
pub struct CpAllocator {
    /// Search effort.
    pub mode: CpMode,
    /// Per-request wall-clock budget.
    pub per_request_deadline: Duration,
    /// Per-request node budget (guards worst-case thrashing).
    pub max_nodes: Option<usize>,
    /// Propagation engine (queued by default; `Engine::Reference` exists
    /// for differential testing and regression guards).
    pub engine: Engine,
}

impl Default for CpAllocator {
    fn default() -> Self {
        Self {
            mode: CpMode::Optimize,
            per_request_deadline: Duration::from_millis(500),
            max_nodes: Some(200_000),
            engine: Engine::default(),
        }
    }
}

impl CpAllocator {
    /// A feasibility-only variant (no optimisation pass).
    pub fn feasible_only() -> Self {
        Self {
            mode: CpMode::Feasible,
            ..Default::default()
        }
    }
}

/// Builds the CSP for one request against the current platform state
/// (`tracker` carries everything already committed). Variable `v` of the
/// CSP is `req.vms.at(v)`. Shared by the CP allocator and the CP repair of
/// the NSGA-III hybrid.
pub fn build_request_csp(problem: &AllocationProblem, req: &Request, tracker: &LoadTracker) -> Csp {
    let m = problem.m();
    let h = problem.h();
    let mut csp = Csp::new(req.vms.len(), m);

    // Residual capacities: effective minus already-committed usage.
    // Clamped at zero: a server overloaded by *other* requests has no
    // residual room, not a poisoned (negative) capacity that would fail
    // the whole CSP.
    let capacity: Vec<Vec<f64>> = (0..m)
        .map(|j| {
            let j = ServerId(j);
            (0..h)
                .map(|l| {
                    (problem
                        .infra()
                        .effective_capacity(j, cpo_model::attr::AttrId(l))
                        - tracker.used(j, cpo_model::attr::AttrId(l)))
                    .max(0.0)
                })
                .collect()
        })
        .collect();
    let vars: Vec<VarId> = (0..req.vms.len()).map(VarId).collect();
    let demand = problem.batch().demand_rows(req.vms);
    csp.add(Box::new(Pack::from_rows(vars.clone(), demand, capacity)));

    // Affinity rules → propagators over this request's variables.
    let dc_group: Vec<usize> = (0..m)
        .map(|j| problem.infra().datacenter_of(ServerId(j)).index())
        .collect();
    let var_of = |k: VmId| -> VarId { VarId(req.vms.position(k).expect("rule vm in request")) };
    for rule in &req.rules {
        let rule_vars: Vec<VarId> = rule.vms().iter().map(|&k| var_of(k)).collect();
        match rule.linearize() {
            LinearizedRule::AllEqualServer(_) => csp.add(Box::new(AllEqual { vars: rule_vars })),
            LinearizedRule::AllDifferentServer(_) => {
                csp.add(Box::new(AllDifferent { vars: rule_vars }))
            }
            LinearizedRule::AllEqualDatacenter(_) => csp.add(Box::new(GroupAllEqual {
                vars: rule_vars,
                group: dc_group.clone(),
            })),
            LinearizedRule::AllDifferentDatacenter(_) => csp.add(Box::new(GroupAllDifferent {
                vars: rule_vars,
                group: dc_group.clone(),
            })),
        }
    }
    csp
}

/// Builds one CSP covering the *whole* batch: every VM of every request
/// becomes a variable over the servers, a single [`Pack`] carries the
/// full-platform capacities, and each request's affinity rules become
/// propagators over that request's variables. This is the monolithic
/// formulation of Eqs. 9–17 (admission decided for the batch at once,
/// rather than request by request) — and the shape where event-driven
/// propagation pays off most: a branching decision wakes only the packing
/// constraint plus the few rules of the request it touches, while the
/// full-fixpoint loop re-runs every rule of every request each round.
pub fn build_batch_csp(problem: &AllocationProblem) -> Csp {
    let m = problem.m();
    let h = problem.h();
    let n = problem.n();
    let mut csp = Csp::new(n, m);

    let capacity: Vec<Vec<f64>> = (0..m)
        .map(|j| {
            (0..h)
                .map(|l| {
                    problem
                        .infra()
                        .effective_capacity(ServerId(j), cpo_model::attr::AttrId(l))
                })
                .collect()
        })
        .collect();
    csp.add(Box::new(Pack::from_rows(
        (0..n).map(VarId).collect(),
        problem.batch().demand_rows(VmRange::new(0, n)),
        capacity,
    )));

    let dc_group: Vec<usize> = (0..m)
        .map(|j| problem.infra().datacenter_of(ServerId(j)).index())
        .collect();
    for req in problem.batch().requests() {
        for rule in &req.rules {
            let rule_vars: Vec<VarId> = rule.vms().iter().map(|&k| VarId(k.index())).collect();
            match rule.linearize() {
                LinearizedRule::AllEqualServer(_) => {
                    csp.add(Box::new(AllEqual { vars: rule_vars }))
                }
                LinearizedRule::AllDifferentServer(_) => {
                    csp.add(Box::new(AllDifferent { vars: rule_vars }))
                }
                LinearizedRule::AllEqualDatacenter(_) => csp.add(Box::new(GroupAllEqual {
                    vars: rule_vars,
                    group: dc_group.clone(),
                })),
                LinearizedRule::AllDifferentDatacenter(_) => csp.add(Box::new(GroupAllDifferent {
                    vars: rule_vars,
                    group: dc_group.clone(),
                })),
            }
        }
    }
    csp
}

/// Marginal provider cost of placing each VM of the request on each
/// server: the usage cost, plus the opex for a server that would be
/// switched on by the placement.
pub fn marginal_cost(
    problem: &AllocationProblem,
    req: &Request,
    tracker: &LoadTracker,
) -> Vec<Vec<f64>> {
    let m = problem.m();
    let per_server: Vec<f64> = (0..m)
        .map(|j| {
            let s = problem.infra().server(ServerId(j));
            s.usage_cost
                + if tracker.hosted(ServerId(j)) == 0 {
                    s.opex
                } else {
                    0.0
                }
        })
        .collect();
    vec![per_server; req.vms.len()]
}

impl Allocator for CpAllocator {
    fn name(&self) -> &'static str {
        match self.mode {
            CpMode::Feasible => "cp-feasible",
            CpMode::Optimize => "constraint-programming",
        }
    }

    fn allocate(&self, problem: &AllocationProblem) -> AllocationOutcome {
        self.allocate_with_deadline(problem, Deadline::never())
    }

    fn allocate_with_deadline(
        &self,
        problem: &AllocationProblem,
        deadline: Deadline,
    ) -> AllocationOutcome {
        let mut sp = cpo_obs::span!("allocator.allocate", algo = self.name());
        let start = Instant::now();
        let mut assignment = Assignment::unassigned(problem.n());
        let mut tracker = LoadTracker::new(problem.m(), problem.h());
        let mut rejected = Vec::new();

        for req in problem.batch().requests() {
            // Anytime admission: requests already placed stay placed;
            // once the overall deadline expires the remaining requests
            // are rejected without solving (a clean admission-control
            // rejection, not a violation). Before that, each request's
            // solve budget is its usual per-request slice, clipped to
            // the time the overall deadline leaves.
            let remaining = deadline.remaining();
            if remaining == Some(Duration::ZERO) {
                rejected.push(req.id);
                continue;
            }
            let budget = match remaining {
                Some(r) => self.per_request_deadline.min(r),
                None => self.per_request_deadline,
            };
            let mut csp = build_request_csp(problem, req, &tracker);
            let cost = marginal_cost(problem, req, &tracker);
            let config = SearchConfig {
                deadline: Some(budget),
                max_nodes: self.max_nodes,
                value_order: ValueOrder::ByCost(cost.clone()),
                engine: self.engine,
            };
            let solution: Option<Vec<usize>> = match self.mode {
                CpMode::Feasible => {
                    let (outcome, _) = solve(&mut csp, &config);
                    outcome.solution().map(<[usize]>::to_vec)
                }
                CpMode::Optimize => {
                    let (best, _complete, _) = optimize(&mut csp, &cost, &config);
                    best.map(|(s, _)| s)
                }
            };
            match solution {
                Some(values) => {
                    for (v, &j) in values.iter().enumerate() {
                        let k = req.vms.at(v);
                        assignment.assign(k, ServerId(j));
                        tracker.add(k, ServerId(j), problem.batch());
                    }
                }
                None => rejected.push(req.id),
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
            vec![
                (
                    "dc0".into(),
                    ServerProfile::commodity(3).build_many(servers / 2),
                ),
                (
                    "dc1".into(),
                    ServerProfile::commodity(3).build_many(servers - servers / 2),
                ),
            ],
        )
    }

    #[test]
    fn places_simple_batch_cleanly() {
        let mut batch = RequestBatch::new();
        for _ in 0..6 {
            batch.push_request(vec![vm_spec(2.0, 1024.0, 10.0)], vec![]);
        }
        let p = AllocationProblem::new(infra(4), batch, None);
        let out = CpAllocator::default().allocate(&p);
        assert!(out.is_clean());
        assert_eq!(out.rejection_rate, 0.0);
        assert!(out.assignment.is_complete());
    }

    #[test]
    fn consolidates_for_cost() {
        // 3 small VMs, 4 servers: optimal packs them on one server
        // (single opex) — B&B must find that.
        let mut batch = RequestBatch::new();
        batch.push_request(vec![vm_spec(1.0, 512.0, 5.0); 3], vec![]);
        let p = AllocationProblem::new(infra(4), batch, None);
        let out = CpAllocator::default().allocate(&p);
        assert!(out.is_clean());
        let tracker = p.tracker(&out.assignment);
        assert_eq!(
            tracker.active_servers(),
            1,
            "B&B should consolidate to one host"
        );
    }

    #[test]
    fn honours_all_four_rule_kinds() {
        let mut batch = RequestBatch::new();
        batch.push_request(
            vec![vm_spec(1.0, 512.0, 5.0); 2],
            vec![AffinityRule::new(
                AffinityKind::SameServer,
                vec![VmId(0), VmId(1)],
            )],
        );
        batch.push_request(
            vec![vm_spec(1.0, 512.0, 5.0); 2],
            vec![AffinityRule::new(
                AffinityKind::DifferentServer,
                vec![VmId(2), VmId(3)],
            )],
        );
        batch.push_request(
            vec![vm_spec(1.0, 512.0, 5.0); 2],
            vec![AffinityRule::new(
                AffinityKind::SameDatacenter,
                vec![VmId(4), VmId(5)],
            )],
        );
        batch.push_request(
            vec![vm_spec(1.0, 512.0, 5.0); 2],
            vec![AffinityRule::new(
                AffinityKind::DifferentDatacenter,
                vec![VmId(6), VmId(7)],
            )],
        );
        let p = AllocationProblem::new(infra(4), batch, None);
        let out = CpAllocator::default().allocate(&p);
        assert!(
            out.is_clean(),
            "violations: {:?}",
            p.check(&out.assignment).violations()
        );
        assert_eq!(out.rejection_rate, 0.0);
        let a = &out.assignment;
        assert_eq!(a.server_of(VmId(0)), a.server_of(VmId(1)));
        assert_ne!(a.server_of(VmId(2)), a.server_of(VmId(3)));
        let dc = |k: usize| p.infra().datacenter_of(a.server_of(VmId(k)).unwrap());
        assert_eq!(dc(4), dc(5));
        assert_ne!(dc(6), dc(7));
    }

    #[test]
    fn rejects_infeasible_requests_cleanly() {
        let mut batch = RequestBatch::new();
        batch.push_request(vec![vm_spec(100.0, 512.0, 5.0)], vec![]); // > any server
        batch.push_request(vec![vm_spec(1.0, 512.0, 5.0)], vec![]);
        let p = AllocationProblem::new(infra(2), batch, None);
        let out = CpAllocator::default().allocate(&p);
        assert_eq!(out.rejected, vec![RequestId(0)]);
        assert!(out.is_clean());
        assert_eq!(out.rejection_rate, 0.5);
    }

    #[test]
    fn feasible_mode_also_clean_but_maybe_dearer() {
        let mut batch = RequestBatch::new();
        batch.push_request(vec![vm_spec(1.0, 512.0, 5.0); 4], vec![]);
        let p = AllocationProblem::new(infra(4), batch, None);
        let fast = CpAllocator::feasible_only().allocate(&p);
        let opt = CpAllocator::default().allocate(&p);
        assert!(fast.is_clean() && opt.is_clean());
        assert!(opt.provider_cost() <= fast.provider_cost() + 1e-9);
    }

    #[test]
    fn expired_deadline_rejects_the_rest_cleanly() {
        let mut batch = RequestBatch::new();
        for _ in 0..3 {
            batch.push_request(vec![vm_spec(1.0, 512.0, 5.0)], vec![]);
        }
        let p = AllocationProblem::new(infra(4), batch, None);
        let out =
            CpAllocator::default().allocate_with_deadline(&p, Deadline::within(Duration::ZERO));
        assert_eq!(out.rejected.len(), 3, "no request may start past expiry");
        assert!(out.is_clean(), "deadline rejections are admission control");
        let unbounded = CpAllocator::default().allocate_with_deadline(&p, Deadline::never());
        assert_eq!(unbounded.rejected.len(), 0);
    }

    #[test]
    fn earlier_requests_constrain_later_ones() {
        // Two same-server pairs that each fill >half a server's CPU: they
        // must land on different servers.
        let mut batch = RequestBatch::new();
        batch.push_request(
            vec![vm_spec(10.0, 512.0, 5.0); 2],
            vec![AffinityRule::new(
                AffinityKind::SameServer,
                vec![VmId(0), VmId(1)],
            )],
        );
        batch.push_request(
            vec![vm_spec(10.0, 512.0, 5.0); 2],
            vec![AffinityRule::new(
                AffinityKind::SameServer,
                vec![VmId(2), VmId(3)],
            )],
        );
        let p = AllocationProblem::new(infra(2), batch, None);
        let out = CpAllocator::default().allocate(&p);
        assert!(out.is_clean());
        assert_eq!(out.rejection_rate, 0.0);
        let a = &out.assignment;
        assert_ne!(a.server_of(VmId(0)), a.server_of(VmId(2)));
    }
}
