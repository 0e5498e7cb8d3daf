//! The [`Allocator`] trait and the common outcome type carrying the four
//! metrics of the paper's evaluation: execution time (Figs. 7–8),
//! rejection rate (Fig. 9), violated constraints (Fig. 10) and provider
//! cost (Fig. 11).

use cpo_model::constraints::Violation;
use cpo_model::deadline::Deadline;
use cpo_model::prelude::*;
use std::time::Duration;

/// Result of one allocation run.
#[derive(Clone, Debug)]
pub struct AllocationOutcome {
    /// The produced placement. VMs of rejected requests are unassigned.
    pub assignment: Assignment,
    /// Requests the allocator explicitly rejected (admission control).
    pub rejected: Vec<RequestId>,
    /// Wall-clock time of the run (the Figs. 7–8 metric).
    pub elapsed: Duration,
    /// Objective vector of the placement (Eq. 15 terms).
    pub objectives: ObjectiveVector,
    /// Number of violated constraints, *excluding* cleanly rejected
    /// requests (the Fig. 10 metric: an admission-controlled rejection is
    /// not a violation — producing an invalid placement is).
    pub violated_constraints: usize,
    /// Rejection rate in `[0,1]` (the Fig. 9 metric): requests not fully
    /// and validly placed over total requests.
    pub rejection_rate: f64,
    /// Objective-function evaluations consumed (0 for non-evolutionary
    /// algorithms).
    pub evaluations: usize,
    /// Number of requests fully and validly served.
    pub accepted_requests: usize,
    /// Gross revenue earned from the accepted requests.
    pub gross_revenue: f64,
}

impl AllocationOutcome {
    /// Builds an outcome from an assignment and the explicit rejections,
    /// computing every derived metric.
    pub fn from_assignment(
        problem: &AllocationProblem,
        assignment: Assignment,
        rejected: Vec<RequestId>,
        elapsed: Duration,
        evaluations: usize,
    ) -> Self {
        let report = problem.check(&assignment);
        let flagged: Vec<&Violation> = report
            .violations()
            .iter()
            .filter(|v| match v {
                Violation::Unassigned { vm } => {
                    !rejected.contains(&problem.batch().request_of(*vm))
                }
                Violation::Affinity { request, .. } => !rejected.contains(request),
                Violation::Capacity { .. } => true,
            })
            .collect();
        let violated_constraints = flagged.len();
        if cpo_obs::flight::is_enabled() {
            for v in &flagged {
                crate::monitor::record_violation("allocator", v);
            }
        }
        let objectives = problem.evaluate(&assignment);
        let accepted = problem.accepted_mask(&assignment);
        let accepted_requests = accepted.iter().filter(|&&ok| ok).count();
        let gross_revenue = problem.revenue_of(&accepted);
        let rejection_rate = problem.rejection_rate_of(&accepted);
        Self {
            assignment,
            rejected,
            elapsed,
            objectives,
            violated_constraints,
            rejection_rate,
            evaluations,
            accepted_requests,
            gross_revenue,
        }
    }

    /// Net revenue: gross revenue minus the full Eq. 15 cost — the
    /// provider's bottom line the paper's conclusion argues about.
    pub fn net_revenue(&self) -> f64 {
        self.gross_revenue - self.objectives.total()
    }

    /// Provider cost of the placement (the Fig. 11 metric): usage + opex.
    pub fn provider_cost(&self) -> f64 {
        self.objectives.usage_opex
    }

    /// `true` when the outcome violates no constraint (cleanly rejected
    /// requests allowed).
    pub fn is_clean(&self) -> bool {
        self.violated_constraints == 0
    }

    /// Normalised provider cost per *accepted* request — the comparison
    /// metric the paper's conclusion proposes as future work ("a
    /// normalized and standardized metric on a cost per request basis"):
    /// it removes the misleading advantage of algorithms that reject
    /// (rejections carry no cost). Infinite when nothing was accepted.
    pub fn cost_per_accepted_request(&self) -> f64 {
        if self.accepted_requests == 0 {
            f64::INFINITY
        } else {
            self.provider_cost() / self.accepted_requests as f64
        }
    }
}

/// A cloud resource allocation algorithm.
///
/// `Sync` is a supertrait so portfolio racing can share `&dyn Allocator`
/// members across its scoped threads; every allocator here is a pure
/// function of the problem plus owned configuration, so the bound costs
/// nothing.
pub trait Allocator: Sync {
    /// Short stable name used in reports ("round-robin", "nsga3-tabu", …).
    fn name(&self) -> &'static str;

    /// Produces a placement for the problem.
    fn allocate(&self, problem: &AllocationProblem) -> AllocationOutcome;

    /// Produces a placement under a wall-clock [`Deadline`].
    ///
    /// Anytime allocators (CP, tabu polish, racing portfolios) override
    /// this to cut their search at the deadline and return the best
    /// incumbent found so far; the default ignores the deadline — for a
    /// one-pass heuristic (round-robin, filtering) there is no search to
    /// cut, so the plain run *is* the anytime behaviour.
    fn allocate_with_deadline(
        &self,
        problem: &AllocationProblem,
        deadline: Deadline,
    ) -> AllocationOutcome {
        let _ = deadline;
        self.allocate(problem)
    }
}

/// Borrows an allocator and imposes a per-call wall-clock budget on it:
/// every `allocate` becomes `allocate_with_deadline(now + budget)`, and
/// an incoming deadline is tightened to whichever bound expires first.
///
/// This is how the windowed scheduler enforces `solve_deadline` without
/// knowing which algorithm it drives — the wrapper composes with any
/// [`Allocator`], and allocators that ignore deadlines simply run as
/// before.
pub struct DeadlineBound<'a> {
    inner: &'a dyn Allocator,
    budget: Duration,
}

impl<'a> DeadlineBound<'a> {
    /// Bounds every call on `inner` to `budget` from call time.
    pub fn new(inner: &'a dyn Allocator, budget: Duration) -> Self {
        Self { inner, budget }
    }
}

impl Allocator for DeadlineBound<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn allocate(&self, problem: &AllocationProblem) -> AllocationOutcome {
        self.inner
            .allocate_with_deadline(problem, Deadline::within(self.budget))
    }

    fn allocate_with_deadline(
        &self,
        problem: &AllocationProblem,
        deadline: Deadline,
    ) -> AllocationOutcome {
        self.inner
            .allocate_with_deadline(problem, deadline.earliest(Deadline::within(self.budget)))
    }
}

/// Records one `Allocator::allocate` call into the observability
/// registry: outcome labels on the span, a per-algorithm solve-time
/// histogram (`allocator.solve_ns.<name>`) and run counter. No-op when
/// instrumentation is disabled. Allocator impls call this right before
/// returning their outcome.
pub fn observe_outcome(span: &mut cpo_obs::SpanGuard, name: &str, outcome: &AllocationOutcome) {
    if !span.is_live() {
        return;
    }
    span.field("accepted", outcome.accepted_requests)
        .field("rejected", outcome.rejected.len())
        .field("violations", outcome.violated_constraints)
        .field("evaluations", outcome.evaluations)
        .field("clean", outcome.is_clean());
    cpo_obs::record_value(
        &format!("allocator.solve_ns.{name}"),
        outcome.elapsed.as_nanos() as u64,
    );
    cpo_obs::counter_add(&format!("allocator.runs.{name}"), 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpo_model::attr::AttrSet;

    fn problem() -> AllocationProblem<'static> {
        let infra = Infrastructure::new(
            AttrSet::standard(),
            vec![("dc".into(), ServerProfile::commodity(3).build_many(2))],
        );
        let mut batch = RequestBatch::new();
        batch.push_request(vec![vm_spec(2.0, 1024.0, 10.0)], vec![]);
        batch.push_request(vec![vm_spec(40.0, 1024.0, 10.0)], vec![]); // never fits
        AllocationProblem::new(infra, batch, None)
    }

    #[test]
    fn clean_rejection_is_not_a_violation() {
        let p = problem();
        let mut a = Assignment::unassigned(2);
        a.assign(VmId(0), ServerId(0));
        // Request 1 explicitly rejected, VM 1 left unassigned.
        let out = AllocationOutcome::from_assignment(
            &p,
            a,
            vec![RequestId(1)],
            Duration::from_millis(1),
            0,
        );
        assert_eq!(out.violated_constraints, 0);
        assert!(out.is_clean());
        assert_eq!(out.rejection_rate, 0.5);
    }

    #[test]
    fn silent_non_placement_is_a_violation() {
        let p = problem();
        let mut a = Assignment::unassigned(2);
        a.assign(VmId(0), ServerId(0));
        // Same assignment but no explicit rejection: VM 1 is just dropped.
        let out = AllocationOutcome::from_assignment(&p, a, vec![], Duration::from_millis(1), 0);
        assert_eq!(out.violated_constraints, 1);
        assert!(!out.is_clean());
    }

    #[test]
    fn overload_is_always_a_violation() {
        let p = problem();
        let mut a = Assignment::unassigned(2);
        a.assign(VmId(0), ServerId(0));
        a.assign(VmId(1), ServerId(0)); // 42 cpu on 28.8: overload
        let out = AllocationOutcome::from_assignment(
            &p,
            a,
            vec![RequestId(1)], // claiming rejection doesn't absolve the overload
            Duration::from_millis(1),
            0,
        );
        assert!(out.violated_constraints >= 1);
    }

    #[test]
    fn provider_cost_is_the_usage_opex_term() {
        let p = problem();
        let mut a = Assignment::unassigned(2);
        a.assign(VmId(0), ServerId(0));
        let out = AllocationOutcome::from_assignment(&p, a, vec![RequestId(1)], Duration::ZERO, 0);
        assert_eq!(out.provider_cost(), out.objectives.usage_opex);
        assert!(out.provider_cost() > 0.0);
    }
}
