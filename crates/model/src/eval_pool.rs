//! One reusable [`DeltaEvaluator`] for scoring many assignments of one
//! [`AllocationProblem`].
//!
//! Building an evaluator allocates every derived buffer (tracker matrix,
//! per-server occupancy lists, penalty caches); `reset` rebuilds them in
//! place. [`EvaluatorPool`] parks one evaluator between uses, so every
//! score after the first is a `reset`, not a build. The slot is a
//! [`Cell`]: a pool has one scorer at a time, and a [`with`] called from
//! inside another `with`'s closure finds the slot empty and builds a
//! fresh evaluator.
//!
//! [`with`]: EvaluatorPool::with

use crate::assignment::Assignment;
use crate::delta::{DeltaEvaluator, MoveScore};
use crate::problem::AllocationProblem;
use std::cell::Cell;

/// A reusable [`DeltaEvaluator`] for one [`AllocationProblem`], taken
/// and reset per evaluation.
pub struct EvaluatorPool<'a> {
    problem: &'a AllocationProblem<'a>,
    slot: Cell<Option<DeltaEvaluator<'a>>>,
}

impl<'a> EvaluatorPool<'a> {
    /// An empty pool over `problem`. The evaluator is built lazily on
    /// first use, so an unused pool allocates nothing.
    pub fn new(problem: &'a AllocationProblem<'a>) -> Self {
        Self {
            problem,
            slot: Cell::new(None),
        }
    }

    /// The problem the evaluator scores against.
    pub fn problem(&self) -> &'a AllocationProblem<'a> {
        self.problem
    }

    /// Runs `f` on the parked evaluator reset onto `assignment` — or on a
    /// fresh one when the slot is empty — and parks it again afterwards.
    /// Whatever state `f` leaves behind is kept; the next use resets it.
    /// A panic in `f` drops the evaluator instead of parking it.
    pub fn with<R>(
        &self,
        assignment: Assignment,
        f: impl FnOnce(&mut DeltaEvaluator<'a>) -> R,
    ) -> R {
        let mut ev = match self.slot.take() {
            Some(mut ev) => {
                ev.reset(assignment);
                ev
            }
            None => DeltaEvaluator::new(self.problem, assignment),
        };
        let out = f(&mut ev);
        self.slot.set(Some(ev));
        out
    }

    /// Scores `assignment` on the pooled evaluator (see [`with`](Self::with)).
    /// Bit-identical to a fresh `DeltaEvaluator::new(..).score()` —
    /// `reset` rebuilds every derived buffer from the new assignment.
    pub fn score(&self, assignment: Assignment) -> MoveScore {
        self.with(assignment, |ev| ev.score())
    }

    /// Evaluators currently parked: 1 after any completed use, 0 before
    /// the first or after a panic in [`with`](Self::with).
    pub fn idle(&self) -> usize {
        let ev = self.slot.take();
        let parked = usize::from(ev.is_some());
        self.slot.set(ev);
        parked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrSet;
    use crate::prelude::*;

    fn problem() -> AllocationProblem<'static> {
        let infra = Infrastructure::new(
            AttrSet::standard(),
            vec![("dc".into(), ServerProfile::commodity(3).build_many(3))],
        );
        let mut batch = RequestBatch::new();
        batch.push_request(vec![vm_spec(2.0, 4096.0, 40.0); 2], vec![]);
        batch.push_request(vec![vm_spec(1.0, 2048.0, 20.0)], vec![]);
        AllocationProblem::new(infra, batch, None)
    }

    fn spread(problem: &AllocationProblem) -> Assignment {
        let mut a = Assignment::unassigned(problem.n());
        for k in 0..problem.n() {
            a.assign(VmId(k), ServerId(k % problem.m()));
        }
        a
    }

    #[test]
    fn pooled_score_matches_fresh_evaluator() {
        let p = problem();
        let pool = EvaluatorPool::new(&p);
        let direct = DeltaEvaluator::new(&p, spread(&p)).score();
        let pooled_cold = pool.score(spread(&p));
        let pooled_warm = pool.score(spread(&p)); // exercises reset()
        assert_eq!(
            direct.total_cost().to_bits(),
            pooled_cold.total_cost().to_bits()
        );
        assert_eq!(
            direct.total_cost().to_bits(),
            pooled_warm.total_cost().to_bits()
        );
        assert_eq!(direct.violation, pooled_warm.violation);
    }

    #[test]
    fn sequential_use_parks_exactly_one_evaluator() {
        let p = problem();
        let pool = EvaluatorPool::new(&p);
        for _ in 0..8 {
            pool.score(spread(&p));
        }
        assert_eq!(pool.idle(), 1, "no concurrency ⇒ no pool growth");
    }

    #[test]
    fn checkout_holds_an_evaluator_across_uses() {
        let p = problem();
        let pool = EvaluatorPool::new(&p);
        let direct = DeltaEvaluator::new(&p, spread(&p)).score();
        pool.with(spread(&p), |ev| {
            assert_eq!(
                ev.score().total_cost().to_bits(),
                direct.total_cost().to_bits()
            );
            ev.apply(VmId(0), ServerId(2));
        });
        assert_eq!(pool.idle(), 1);
        // The next use resets whatever state the last one left behind.
        let again = pool.with(spread(&p), |ev| ev.score());
        assert_eq!(again.total_cost().to_bits(), direct.total_cost().to_bits());
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn reentrant_with_scores_bit_identically() {
        let p = problem();
        let pool = EvaluatorPool::new(&p);
        let direct = DeltaEvaluator::new(&p, spread(&p)).score();
        let inner = pool.with(spread(&p), |ev| {
            ev.apply(VmId(0), ServerId(2));
            pool.with(spread(&p), |inner| inner.score())
        });
        assert_eq!(inner.total_cost().to_bits(), direct.total_cost().to_bits());
        assert_eq!(inner.violation, direct.violation);
        assert_eq!(pool.idle(), 1);
    }
}
