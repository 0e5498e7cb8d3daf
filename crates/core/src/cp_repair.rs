//! Constraint-solver repair: the fixer behind the paper's "NSGA-III with
//! constraint solver" comparison point.
//!
//! Repair is chunked per offending request: the request's VMs become CSP
//! variables, everything else stays frozen (committed as residual
//! capacity), and the request's own affinity rules become propagators —
//! the same CSP shape the CP allocator admits requests with. Chunking
//! keeps each solve small, lets partial repair succeed, and mirrors how a
//! Choco-backed fixer would be engineered.

use crate::cp_alloc::build_request_csp;
use cpo_cpsolve::prelude::*;
use cpo_model::delta::DeltaEvaluator;
use cpo_model::prelude::*;
use std::time::Duration;

/// CP-based repair configuration.
#[derive(Clone, Debug)]
pub struct CpRepair {
    /// Wall-clock budget per offending request.
    pub deadline: Duration,
    /// Node budget per offending request.
    pub max_nodes: usize,
    /// Propagation engine driving the per-request searches.
    pub engine: Engine,
}

impl Default for CpRepair {
    fn default() -> Self {
        Self {
            deadline: Duration::from_millis(20),
            max_nodes: 4_000,
            engine: Engine::default(),
        }
    }
}

impl CpRepair {
    /// Attempts to repair the assignment in place, one offending request
    /// at a time. Returns `true` when the assignment was modified.
    pub fn repair(&self, problem: &AllocationProblem, assignment: &mut Assignment) -> bool {
        // The evaluator's maintained state supplies the offending-request
        // set and, per request, the residual capacity — built by removing
        // the request's own VMs from the live tracker, O(|request|·h),
        // instead of the old re-add of all n−|request| frozen VMs.
        let owned = std::mem::replace(assignment, Assignment::unassigned(0));
        let mut ev = DeltaEvaluator::new(problem, owned);
        if ev.is_feasible() {
            *assignment = ev.into_assignment();
            return false;
        }
        let batch = problem.batch();
        let offending = ev.offending_requests();

        let mut changed = false;
        for r in offending {
            let req = batch.request(r);
            // Commit everything except this request.
            let mut tracker = ev.tracker().clone();
            for k in req.vms {
                if let Some(j) = ev.assignment().server_of(k) {
                    tracker.remove(k, j, batch);
                }
            }
            let mut csp = build_request_csp(problem, req, &tracker);
            let config = SearchConfig {
                deadline: Some(self.deadline),
                max_nodes: Some(self.max_nodes),
                value_order: ValueOrder::Lex,
                engine: self.engine,
            };
            let (outcome, _) = solve(&mut csp, &config);
            if let Some(values) = outcome.solution() {
                for (v, &j) in values.iter().enumerate() {
                    ev.apply(req.vms.at(v), ServerId(j));
                }
                ev.clear_history();
                changed = true;
            }
        }
        *assignment = ev.into_assignment();
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpo_model::attr::AttrSet;

    fn problem(reqs: Vec<(Vec<VmSpec>, Vec<AffinityRule>)>) -> AllocationProblem<'static> {
        let infra = Infrastructure::new(
            AttrSet::standard(),
            vec![
                ("dc0".into(), ServerProfile::commodity(3).build_many(2)),
                ("dc1".into(), ServerProfile::commodity(3).build_many(2)),
            ],
        );
        let mut batch = RequestBatch::new();
        for (vms, r) in reqs {
            batch.push_request(vms, r);
        }
        AllocationProblem::new(infra, batch, None)
    }

    #[test]
    fn fixes_capacity_overload() {
        let p = problem(vec![(
            vec![vm_spec(20.0, 1024.0, 10.0), vm_spec(20.0, 1024.0, 10.0)],
            vec![],
        )]);
        let mut a = Assignment::from_genes(&[0, 0]);
        assert!(!p.is_feasible(&a));
        assert!(CpRepair::default().repair(&p, &mut a));
        assert!(p.is_feasible(&a));
    }

    #[test]
    fn colocates_scattered_same_server_group() {
        let p = problem(vec![(
            vec![vm_spec(1.0, 512.0, 5.0); 3],
            vec![AffinityRule::new(
                AffinityKind::SameServer,
                vec![VmId(0), VmId(1), VmId(2)],
            )],
        )]);
        let mut a = Assignment::from_genes(&[2, 2, 0]);
        assert!(CpRepair::default().repair(&p, &mut a));
        assert!(p.is_feasible(&a), "repair: {a:?}");
        assert_eq!(a.server_of(VmId(0)), a.server_of(VmId(1)));
        assert_eq!(a.server_of(VmId(1)), a.server_of(VmId(2)));
    }

    #[test]
    fn fixes_different_datacenter_rule() {
        let p = problem(vec![(
            vec![vm_spec(1.0, 512.0, 5.0); 2],
            vec![AffinityRule::new(
                AffinityKind::DifferentDatacenter,
                vec![VmId(0), VmId(1)],
            )],
        )]);
        let mut a = Assignment::from_genes(&[0, 1]); // both dc0
        assert!(CpRepair::default().repair(&p, &mut a));
        assert!(p.is_feasible(&a));
    }

    #[test]
    fn repairs_multiple_offending_requests_independently() {
        let p = problem(vec![
            (
                vec![vm_spec(20.0, 512.0, 5.0), vm_spec(20.0, 512.0, 5.0)],
                vec![],
            ),
            (
                vec![vm_spec(1.0, 512.0, 5.0); 2],
                vec![AffinityRule::new(
                    AffinityKind::DifferentServer,
                    vec![VmId(2), VmId(3)],
                )],
            ),
        ]);
        // Request 0 overloads server 0; request 1 breaks its separation.
        let mut a = Assignment::from_genes(&[0, 0, 3, 3]);
        assert!(CpRepair::default().repair(&p, &mut a));
        assert!(p.is_feasible(&a), "{:?}", p.check(&a).violations());
    }

    #[test]
    fn feasible_assignment_is_untouched() {
        let p = problem(vec![(vec![vm_spec(1.0, 512.0, 5.0); 2], vec![])]);
        let mut a = Assignment::from_genes(&[0, 1]);
        let before = a.clone();
        assert!(!CpRepair::default().repair(&p, &mut a));
        assert_eq!(a, before);
    }

    #[test]
    fn returns_false_when_unrepairable() {
        let p = problem(vec![(vec![vm_spec(500.0, 512.0, 5.0)], vec![])]);
        let mut a = Assignment::from_genes(&[0]);
        assert!(!CpRepair::default().repair(&p, &mut a));
    }

    #[test]
    fn places_unassigned_vms() {
        let p = problem(vec![(vec![vm_spec(1.0, 512.0, 5.0); 2], vec![])]);
        let mut a = Assignment::unassigned(2);
        assert!(CpRepair::default().repair(&p, &mut a));
        assert!(a.is_complete());
        assert!(p.is_feasible(&a));
    }

    #[test]
    fn partial_repair_counts_as_change() {
        // Request 0 is repairable, request 1 is impossible.
        let p = problem(vec![
            (
                vec![vm_spec(20.0, 512.0, 5.0), vm_spec(20.0, 512.0, 5.0)],
                vec![],
            ),
            (vec![vm_spec(500.0, 512.0, 5.0)], vec![]),
        ]);
        let mut a = Assignment::from_genes(&[0, 0, 1]);
        assert!(CpRepair::default().repair(&p, &mut a));
        // Request 0 fixed even though request 1 stays broken.
        assert_ne!(a.server_of(VmId(0)), a.server_of(VmId(1)));
    }
}
