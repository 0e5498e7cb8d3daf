//! A shared pool of reusable [`DeltaEvaluator`]s for parallel scoring.
//!
//! Originally extracted from the two identical inline pools in the MOEA
//! and weighted-GA adapters of `cpo-core` after a concurrency audit of
//! the sharded-scheduler work. The audit question was whether a pool's
//! `Mutex` is ever held across a solve or a score — which would
//! serialise rayon workers and, worse, would deadlock if a scoring path
//! ever re-entered the pool. The answer is no, and this type makes the
//! discipline structural:
//!
//! * [`EvaluatorPool::with`] (and [`EvaluatorPool::score`] on top of it)
//!   takes the lock **twice, briefly**: once to pop an evaluator (or miss
//!   and build a fresh one), once to push it back. The actual `reset` and
//!   the caller's work — a score, or a whole tabu repair — run on an
//!   **owned** evaluator with no lock held.
//! * The pool therefore grows to at most the number of concurrent
//!   workers, and a worker can never block another for longer than a
//!   `Vec::pop`/`Vec::push`.
//!
//! A `Mutex` (not a thread-local) because the evaluators borrow the
//! problem for `'a` and `thread_local!` requires `'static`.

use crate::assignment::Assignment;
use crate::delta::{DeltaEvaluator, MoveScore};
use crate::problem::AllocationProblem;
use std::sync::Mutex;

/// Reusable [`DeltaEvaluator`]s for one [`AllocationProblem`], popped
/// per evaluation. See the module docs for the locking discipline.
pub struct EvaluatorPool<'a> {
    problem: &'a AllocationProblem<'a>,
    pool: Mutex<Vec<DeltaEvaluator<'a>>>,
}

impl<'a> EvaluatorPool<'a> {
    /// An empty pool over `problem`. Evaluators are built lazily on
    /// first miss, so an unused pool allocates nothing.
    pub fn new(problem: &'a AllocationProblem<'a>) -> Self {
        Self {
            problem,
            pool: Mutex::new(Vec::new()),
        }
    }

    /// The problem every pooled evaluator scores against.
    pub fn problem(&self) -> &'a AllocationProblem<'a> {
        self.problem
    }

    /// Runs `f` on a pooled evaluator holding `assignment`: pop (brief
    /// lock) then reset — or a fresh build on a miss — then `f` and the
    /// push back (brief lock), with no lock held during the reset or `f`.
    /// Whatever state `f` leaves behind is kept; the next use resets it.
    /// A panic in `f` drops the evaluator instead of returning it.
    pub fn with<R>(
        &self,
        assignment: Assignment,
        f: impl FnOnce(&mut DeltaEvaluator<'a>) -> R,
    ) -> R {
        let pooled = self.pool.lock().expect("evaluator pool poisoned").pop();
        let mut ev = match pooled {
            Some(mut ev) => {
                ev.reset(assignment);
                ev
            }
            None => DeltaEvaluator::new(self.problem, assignment),
        };
        let out = f(&mut ev);
        self.pool.lock().expect("evaluator pool poisoned").push(ev);
        out
    }

    /// Scores `assignment` on a pooled evaluator (see [`with`](Self::with)).
    /// Bit-identical to a fresh `DeltaEvaluator::new(..).score()` —
    /// `reset` rebuilds every derived buffer from the new assignment.
    pub fn score(&self, assignment: Assignment) -> MoveScore {
        self.with(assignment, |ev| ev.score())
    }

    /// Evaluators currently parked in the pool (none are checked out
    /// while this can be observed without a race, so this is primarily
    /// a post-run diagnostic: it bounds the peak worker concurrency).
    pub fn idle(&self) -> usize {
        self.pool.lock().expect("evaluator pool poisoned").len()
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
    fn concurrent_use_grows_to_at_most_worker_count() {
        let p = problem();
        let pool = EvaluatorPool::new(&p);
        let threads = 4;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..32 {
                        pool.score(spread(&p));
                    }
                });
            }
        });
        let idle = pool.idle();
        assert!(
            idle >= 1 && idle <= threads,
            "pool size {idle} out of range"
        );
    }
}
