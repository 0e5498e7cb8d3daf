//! [`AllocationProblem`] — the complete model instance bundling the
//! provider substrate, the consumer demand, and the previous allocation
//! `X^t`; the single object every solver in the workspace consumes.

use crate::affinity::RuleView;
use crate::assignment::Assignment;
use crate::constraints::{self, ViolationReport};
use crate::cost::{self, ObjectiveVector};
use crate::infrastructure::{Infrastructure, ServerId};
use crate::load::LoadTracker;
use crate::request::{RequestBatch, RequestId, VmId};
use std::borrow::Cow;

/// A complete instance of the paper's cloud resource allocation problem.
///
/// The substrate and the batch are each either owned or borrowed from
/// the caller (`'a`): a platform that already holds a window's batch or
/// residual hands its solver a view of it instead of a copy.
#[derive(Clone, Debug)]
pub struct AllocationProblem<'a> {
    infra: Cow<'a, Infrastructure>,
    batch: Cow<'a, RequestBatch>,
    /// The running allocation `X^t`; `None` for an initial placement.
    previous: Option<Assignment>,
}

impl AllocationProblem<'static> {
    /// Builds a problem instance that owns its substrate and batch,
    /// validating the batch against the infrastructure's attribute set.
    ///
    /// # Panics
    /// Panics when the batch and infrastructure disagree on attribute
    /// count or when `previous` covers a different VM count.
    pub fn new(infra: Infrastructure, batch: RequestBatch, previous: Option<Assignment>) -> Self {
        Self::borrowing(Cow::Owned(infra), Cow::Owned(batch), previous)
    }
}

impl<'a> AllocationProblem<'a> {
    /// Builds a problem instance over a substrate and a batch that may
    /// each be borrowed, with the same validation as [`Self::new`].
    ///
    /// # Panics
    /// As [`Self::new`].
    pub fn borrowing(
        infra: Cow<'a, Infrastructure>,
        batch: Cow<'a, RequestBatch>,
        previous: Option<Assignment>,
    ) -> Self {
        if batch.vm_count() > 0 {
            batch
                .validate(infra.attr_count())
                .unwrap_or_else(|e| panic!("invalid request batch: {e}"));
        }
        if let Some(prev) = &previous {
            assert_eq!(
                prev.len(),
                batch.vm_count(),
                "previous allocation covers {} VMs, batch has {}",
                prev.len(),
                batch.vm_count()
            );
        }
        Self {
            infra,
            batch,
            previous,
        }
    }

    /// The provider substrate.
    #[inline]
    pub fn infra(&self) -> &Infrastructure {
        &self.infra
    }

    /// The consumer demand batch.
    #[inline]
    pub fn batch(&self) -> &RequestBatch {
        &self.batch
    }

    /// The running allocation `X^t`, if any.
    #[inline]
    pub fn previous(&self) -> Option<&Assignment> {
        self.previous.as_ref()
    }

    /// Problem dimensions `(g, m, n, h)` as in Table I.
    pub fn dims(&self) -> (usize, usize, usize, usize) {
        (
            self.infra.datacenter_count(),
            self.infra.server_count(),
            self.batch.vm_count(),
            self.infra.attr_count(),
        )
    }

    /// Number of datacenters `g`.
    pub fn g(&self) -> usize {
        self.infra.datacenter_count()
    }

    /// Number of servers `m`.
    pub fn m(&self) -> usize {
        self.infra.server_count()
    }

    /// Number of requested resources `n`.
    pub fn n(&self) -> usize {
        self.batch.vm_count()
    }

    /// Number of attributes `h`.
    pub fn h(&self) -> usize {
        self.infra.attr_count()
    }

    /// Evaluates the Eq. 15 objective vector for an assignment.
    pub fn evaluate(&self, assignment: &Assignment) -> ObjectiveVector {
        cost::evaluate(assignment, &self.batch, &self.infra, self.previous.as_ref())
    }

    /// Objective evaluation reusing a caller-maintained tracker.
    pub fn evaluate_with_tracker(
        &self,
        assignment: &Assignment,
        tracker: &LoadTracker,
    ) -> ObjectiveVector {
        cost::evaluate_with_tracker(
            assignment,
            tracker,
            &self.batch,
            &self.infra,
            self.previous.as_ref(),
        )
    }

    /// Full constraint check (Eqs. 16–21).
    pub fn check(&self, assignment: &Assignment) -> ViolationReport {
        constraints::check(assignment, &self.batch, &self.infra)
    }

    /// Constraint check reusing a tracker.
    pub fn check_with_tracker(
        &self,
        assignment: &Assignment,
        tracker: &LoadTracker,
    ) -> ViolationReport {
        constraints::check_with_tracker(assignment, tracker, &self.batch, &self.infra)
    }

    /// Fast feasibility test.
    pub fn is_feasible(&self, assignment: &Assignment) -> bool {
        constraints::is_feasible(assignment, &self.batch, &self.infra)
    }

    /// Builds a load tracker for an assignment.
    pub fn tracker(&self, assignment: &Assignment) -> LoadTracker {
        LoadTracker::from_assignment(assignment, &self.batch, &self.infra)
    }

    /// Builds an incremental [`DeltaEvaluator`] owning `assignment` — the
    /// O(h)-per-move scoring engine local search runs on.
    ///
    /// [`DeltaEvaluator`]: crate::delta::DeltaEvaluator
    pub fn delta_evaluator(&self, assignment: Assignment) -> crate::delta::DeltaEvaluator<'_> {
        crate::delta::DeltaEvaluator::new(self, assignment)
    }

    /// What VM `k`'s rule partners placed in `assignment` demand of its
    /// server, collected once — the view a neighbour scan checks every
    /// candidate against. O(rules(k)); allocation-free for separation
    /// rules of up to nine resources (see [`RuleView`]).
    pub fn rule_view(&self, assignment: &Assignment, k: VmId) -> RuleView<'_> {
        let req = self.batch.request(self.batch.request_of(k));
        RuleView::collect(&self.infra, &req.rules, assignment, k)
    }

    /// Is placing VM `k` on server `j` consistent with the *rules* of its
    /// request given the partial `assignment`? (Capacity is the tracker's
    /// job; this checks affinity only.) Unplaced partners constrain
    /// nothing. One [`rule_view`](Self::rule_view) query — callers testing
    /// many servers for one VM build the view once instead. A request
    /// without rules (every trace arrival) allows any server and skips
    /// building the view: greedy allocators call this once per candidate.
    pub fn rules_allow(&self, assignment: &Assignment, k: VmId, j: ServerId) -> bool {
        let rules = &self.batch.request(self.batch.request_of(k)).rules;
        rules.is_empty() || RuleView::collect(&self.infra, rules, assignment, k).allows(j)
    }

    /// Per-request acceptance under `assignment`, indexed by
    /// [`RequestId`]: `true` iff the request is fully and validly placed —
    /// the paper's acceptance measure behind Fig. 9. One load-tracker
    /// build and one pass over the batch; every acceptance-derived metric
    /// ([`Self::accepted_requests`], [`Self::revenue_of`],
    /// [`Self::rejection_rate_of`]) reads this mask.
    pub fn accepted_mask(&self, assignment: &Assignment) -> Vec<bool> {
        let mut overloaded = vec![false; self.infra.server_count()];
        for j in self.tracker(assignment).exceeding_servers(&self.infra) {
            overloaded[j.index()] = true;
        }
        self.batch
            .requests()
            .iter()
            .map(|req| {
                // Every VM placed on a server that is not overloaded…
                req.vms
                    .iter()
                    .all(|k| assignment.server_of(k).is_some_and(|j| !overloaded[j.index()]))
                    // …respecting every rule.
                    && req
                        .rules
                        .iter()
                        .all(|r| r.is_satisfied(assignment, &self.infra))
            })
            .collect()
    }

    /// Requests fully and validly placed under `assignment`, in id order
    /// (the ids [`Self::accepted_mask`] marks).
    pub fn accepted_requests(&self, assignment: &Assignment) -> Vec<RequestId> {
        self.accepted_mask(assignment)
            .iter()
            .enumerate()
            .filter(|&(_, &ok)| ok)
            .map(|(r, _)| RequestId(r))
            .collect()
    }

    /// Gross revenue of the placement: Σ revenue over the resources of
    /// every accepted request (the provider earns nothing from rejected
    /// ones — the economics behind the paper's "largest revenues" claim).
    pub fn gross_revenue(&self, assignment: &Assignment) -> f64 {
        self.revenue_of(&self.accepted_mask(assignment))
    }

    /// Gross revenue of the requests an [`Self::accepted_mask`] marks,
    /// summed in request then VM order.
    pub fn revenue_of(&self, accepted: &[bool]) -> f64 {
        self.batch
            .requests()
            .iter()
            .zip(accepted)
            .filter(|&(_, &ok)| ok)
            .flat_map(|(req, _)| req.vms)
            .map(|k| self.batch.terms(k).revenue)
            .sum()
    }

    /// Net revenue: gross revenue minus the full Eq. 15 cost.
    pub fn net_revenue(&self, assignment: &Assignment) -> f64 {
        self.gross_revenue(assignment) - self.evaluate(assignment).total()
    }

    /// Rejection rate in `[0, 1]`: rejected requests / total requests.
    /// (The paper's Fig. 9 metric; see DESIGN.md for the definition note.)
    pub fn rejection_rate(&self, assignment: &Assignment) -> f64 {
        self.rejection_rate_of(&self.accepted_mask(assignment))
    }

    /// Rejection rate of the requests an [`Self::accepted_mask`] leaves
    /// unmarked.
    pub fn rejection_rate_of(&self, accepted: &[bool]) -> f64 {
        let total = self.batch.request_count();
        if total == 0 {
            return 0.0;
        }
        let accepted = accepted.iter().filter(|&&ok| ok).count();
        (total - accepted) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affinity::{AffinityKind, AffinityRule};
    use crate::attr::AttrSet;
    use crate::infrastructure::{Infrastructure, ServerProfile};
    use crate::request::vm_spec;

    fn problem() -> AllocationProblem<'static> {
        let p = ServerProfile::commodity(3);
        let infra = Infrastructure::new(
            AttrSet::standard(),
            vec![
                ("dc0".into(), p.build_many(2)),
                ("dc1".into(), p.build_many(2)),
            ],
        );
        let mut batch = RequestBatch::new();
        batch.push_request(vec![vm_spec(2.0, 1024.0, 10.0); 2], vec![]);
        batch.push_request(
            vec![vm_spec(4.0, 2048.0, 20.0); 2],
            vec![AffinityRule::new(
                AffinityKind::DifferentServer,
                vec![VmId(2), VmId(3)],
            )],
        );
        AllocationProblem::new(infra, batch, None)
    }

    #[test]
    fn borrowed_problem_solves_on_the_callers_batch() {
        let owned = problem();
        let borrowed = AllocationProblem::borrowing(
            Cow::Borrowed(owned.infra()),
            Cow::Borrowed(owned.batch()),
            None,
        );
        assert!(std::ptr::eq(borrowed.batch(), owned.batch()));
        assert!(std::ptr::eq(borrowed.infra(), owned.infra()));
        let mut a = Assignment::unassigned(4);
        a.assign(VmId(0), ServerId(0));
        assert_eq!(borrowed.evaluate(&a), owned.evaluate(&a));
    }

    #[test]
    #[should_panic(expected = "previous allocation covers")]
    fn borrowing_validates_like_new() {
        let p = problem();
        let _ = AllocationProblem::borrowing(
            Cow::Borrowed(p.infra()),
            Cow::Borrowed(p.batch()),
            Some(Assignment::unassigned(7)),
        );
    }

    #[test]
    fn dims_match_table1_symbols() {
        let p = problem();
        assert_eq!(p.dims(), (2, 4, 4, 3));
        assert_eq!((p.g(), p.m(), p.n(), p.h()), (2, 4, 4, 3));
    }

    #[test]
    fn rules_allow_consults_partial_assignment() {
        let p = problem();
        let mut a = Assignment::unassigned(4);
        a.assign(VmId(2), ServerId(1));
        // VM 3 must differ from VM 2's server.
        assert!(!p.rules_allow(&a, VmId(3), ServerId(1)));
        assert!(p.rules_allow(&a, VmId(3), ServerId(0)));
        // VM 0 has no rules: anything goes.
        assert!(p.rules_allow(&a, VmId(0), ServerId(1)));
    }

    #[test]
    fn rule_view_flags_hopeless_placements() {
        let pr = ServerProfile::commodity(3);
        let infra = Infrastructure::new(
            AttrSet::standard(),
            vec![
                ("dc0".into(), pr.build_many(2)),
                ("dc1".into(), pr.build_many(1)),
            ],
        );
        let mut batch = RequestBatch::new();
        batch.push_request(
            vec![vm_spec(1.0, 1.0, 1.0); 4],
            vec![
                AffinityRule::new(
                    AffinityKind::DifferentDatacenter,
                    vec![VmId(0), VmId(1), VmId(2)],
                ),
                AffinityRule::new(AffinityKind::DifferentServer, vec![VmId(3), VmId(0)]),
            ],
        );
        let p = AllocationProblem::new(infra, batch, None);
        let mut a = Assignment::unassigned(4);
        a.assign(VmId(0), ServerId(0));
        // VM 1 may only go to dc1, VM 3 anywhere but server 0.
        assert!(!p.rule_view(&a, VmId(1)).hopeless());
        assert!(p.rule_view(&a, VmId(1)).allows(ServerId(2)));
        assert!(!p.rule_view(&a, VmId(1)).allows(ServerId(1)));
        assert!(!p.rule_view(&a, VmId(3)).allows(ServerId(0)));
        // With dc0 and dc1 both taken, VM 2 has nowhere to go.
        a.assign(VmId(1), ServerId(2));
        let view = p.rule_view(&a, VmId(2));
        assert!(view.hopeless());
        assert!(p.infra().server_ids().all(|j| !view.allows(j)));
    }

    #[test]
    fn accepted_requests_and_rejection_rate() {
        let p = problem();
        let mut a = Assignment::unassigned(4);
        // Request 0 fully placed, request 1 violates its separation rule.
        a.assign(VmId(0), ServerId(0));
        a.assign(VmId(1), ServerId(0));
        a.assign(VmId(2), ServerId(1));
        a.assign(VmId(3), ServerId(1));
        assert_eq!(p.accepted_requests(&a), vec![RequestId(0)]);
        assert_eq!(p.rejection_rate(&a), 0.5);
    }

    #[test]
    fn overloaded_server_rejects_its_requests() {
        let pr = ServerProfile::commodity(3);
        let infra = Infrastructure::new(AttrSet::standard(), vec![("dc".into(), pr.build_many(1))]);
        let mut batch = RequestBatch::new();
        batch.push_request(vec![vm_spec(40.0, 1.0, 1.0)], vec![]); // over 28.8
        let p = AllocationProblem::new(infra, batch, None);
        let mut a = Assignment::unassigned(1);
        a.assign(VmId(0), ServerId(0));
        assert!(p.accepted_requests(&a).is_empty());
        assert_eq!(p.rejection_rate(&a), 1.0);
        assert!(!p.is_feasible(&a));
    }

    #[test]
    fn evaluate_delegates_to_cost_model() {
        let p = problem();
        let mut a = Assignment::unassigned(4);
        for k in 0..4 {
            a.assign(VmId(k), ServerId(k % 4));
        }
        let obj = p.evaluate(&a);
        assert!(obj.usage_opex > 0.0);
        assert_eq!(obj.migration, 0.0); // no previous allocation
        assert!(p.check(&a).is_feasible());
    }

    #[test]
    #[should_panic(expected = "previous allocation covers")]
    fn previous_must_match_vm_count() {
        let p = problem();
        let infra = p.infra().clone();
        let batch = p.batch().clone();
        let _ = AllocationProblem::new(infra, batch, Some(Assignment::unassigned(7)));
    }

    #[test]
    fn revenue_counts_only_accepted_requests() {
        let p = problem();
        let mut a = Assignment::unassigned(4);
        a.assign(VmId(0), ServerId(0));
        a.assign(VmId(1), ServerId(0));
        // Request 1 unplaced → no revenue from it.
        let gross = p.gross_revenue(&a);
        let expected: f64 = [VmId(0), VmId(1)]
            .iter()
            .map(|&k| p.batch().terms(k).revenue)
            .sum();
        assert!((gross - expected).abs() < 1e-12);
        // Fully placed and valid earns more.
        a.assign(VmId(2), ServerId(1));
        a.assign(VmId(3), ServerId(2));
        assert!(p.gross_revenue(&a) > gross);
        // Net = gross − total cost.
        let net = p.net_revenue(&a);
        assert!((net - (p.gross_revenue(&a) - p.evaluate(&a).total())).abs() < 1e-12);
    }

    #[test]
    fn empty_batch_rejection_rate_is_zero() {
        let pr = ServerProfile::commodity(3);
        let infra = Infrastructure::new(AttrSet::standard(), vec![("dc".into(), pr.build_many(1))]);
        let p = AllocationProblem::new(infra, RequestBatch::new(), None);
        assert_eq!(p.rejection_rate(&Assignment::unassigned(0)), 0.0);
    }
}
