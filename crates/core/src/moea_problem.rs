//! Adapter exposing an [`AllocationProblem`] to the MOEA engine: genes are
//! server ids (real-coded), objectives are the three Eq. 15 terms (or
//! their weighted sum, for the weighted-sum GA), and the
//! constraint-violation degree feeds constraint-domination.
//!
//! All scoring runs on one [`EvaluatorPool`] per adapter: each caller
//! takes its evaluator, `reset`s it onto the decoded assignment (every
//! buffer — tracker matrix, per-server occupancy lists, penalty caches —
//! is reused, no per-genome allocation of derived state), works on it,
//! and parks it again. Each `allocate` call builds its own adapter, so an
//! adapter has one scorer at a time. Two callers share the pool:
//!
//! * [`MoeaProblem::evaluate`] scores a genome — bit-identical to the
//!   per-genome `check`/`evaluate` pair, pinned by
//!   `evaluation_matches_direct_model_calls`;
//! * [`AllocMoeaProblem::tabu_repair`], the engine's repair hook, runs the
//!   paper's tabu repair ([`repair_on`]) on the pooled evaluator and hands
//!   the evaluator's final score over as the repaired genome's
//!   evaluation, so the engine does not decode and score it again.

use crate::encoding::GenomeCodec;
use cpo_model::delta::MoveScore;
use cpo_model::eval_pool::EvaluatorPool;
use cpo_model::prelude::*;
use cpo_moea::prelude::{Evaluation, MoeaProblem};
use cpo_tabu::repair::{repair_on, RepairConfig};

/// The allocation problem in MOEA clothing.
pub struct AllocMoeaProblem<'a> {
    problem: &'a AllocationProblem<'a>,
    codec: GenomeCodec,
    /// `Some` scalarises the three objectives to one weighted sum.
    weights: Option<[f64; 3]>,
    /// The one evaluator every score and repair reuses (see
    /// [`EvaluatorPool`]).
    pool: EvaluatorPool<'a>,
}

impl<'a> AllocMoeaProblem<'a> {
    /// Wraps a problem with the three Eq. 15 objectives.
    pub fn new(problem: &'a AllocationProblem<'a>) -> Self {
        Self {
            problem,
            codec: GenomeCodec::new(problem.m(), problem.n()),
            weights: None,
            pool: EvaluatorPool::new(problem),
        }
    }

    /// Wraps a problem with one objective: the weighted sum of the three
    /// Eq. 15 terms, weights for (usage+opex, downtime, migration).
    pub fn weighted(problem: &'a AllocationProblem<'a>, weights: [f64; 3]) -> Self {
        Self {
            weights: Some(weights),
            ..Self::new(problem)
        }
    }

    /// The genome codec in use.
    pub fn codec(&self) -> GenomeCodec {
        self.codec
    }

    /// The wrapped problem.
    pub fn problem(&self) -> &AllocationProblem<'_> {
        self.problem
    }

    /// The engine's view of a score: the objectives this adapter exposes
    /// plus the violation degree.
    fn evaluation(&self, score: MoveScore) -> Evaluation {
        let objectives = match self.weights {
            None => score.objectives.as_array().to_vec(),
            Some(w) => vec![score.objectives.weighted(w)],
        };
        Evaluation {
            objectives,
            violation: score.violation,
        }
    }

    /// The paper's tabu repair (Figs. 5–6) as the engine's repair hook:
    /// repairs the decoded genome on a pooled evaluator, writes the
    /// result back into `genes` when a VM moved (an unmoved genome keeps
    /// its exact genes), and returns the evaluator's final score — equal
    /// to [`MoeaProblem::evaluate`] of the repaired genes bit for bit.
    pub fn tabu_repair(&self, genes: &mut [f64], config: &RepairConfig) -> Evaluation {
        let score = self.pool.with(self.codec.decode(genes), |ev| {
            if repair_on(ev, config).moves > 0 {
                genes.copy_from_slice(&self.codec.encode(ev.assignment()));
            }
            ev.score()
        });
        self.evaluation(score)
    }
}

impl MoeaProblem for AllocMoeaProblem<'_> {
    fn n_vars(&self) -> usize {
        self.problem.n()
    }

    fn n_objectives(&self) -> usize {
        if self.weights.is_some() {
            1
        } else {
            3
        }
    }

    fn bounds(&self, _i: usize) -> (f64, f64) {
        self.codec.bounds()
    }

    fn evaluate(&self, genes: &[f64]) -> Evaluation {
        self.evaluation(self.pool.score(self.codec.decode(genes)))
    }

    fn name(&self) -> &str {
        if self.weights.is_some() {
            "iaas-allocation-weighted"
        } else {
            "iaas-allocation"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpo_model::attr::AttrSet;

    fn problem() -> AllocationProblem<'static> {
        let infra = Infrastructure::new(
            AttrSet::standard(),
            vec![("dc".into(), ServerProfile::commodity(3).build_many(3))],
        );
        let mut batch = RequestBatch::new();
        batch.push_request(
            vec![vm_spec(2.0, 1024.0, 10.0), vm_spec(2.0, 1024.0, 10.0)],
            vec![AffinityRule::new(
                AffinityKind::DifferentServer,
                vec![VmId(0), VmId(1)],
            )],
        );
        AllocationProblem::new(infra, batch, None)
    }

    #[test]
    fn dimensions_match_problem() {
        let p = problem();
        let adapter = AllocMoeaProblem::new(&p);
        assert_eq!(adapter.n_vars(), 2);
        assert_eq!(adapter.n_objectives(), 3);
        assert_eq!(adapter.bounds(0), (0.0, 3.0));
    }

    #[test]
    fn feasible_genome_has_zero_violation() {
        let p = problem();
        let adapter = AllocMoeaProblem::new(&p);
        // VMs on different servers: feasible.
        let e = adapter.evaluate(&[0.5, 1.5]);
        assert_eq!(e.violation, 0.0);
        assert_eq!(e.objectives.len(), 3);
        assert!(e.objectives[0] > 0.0, "usage+opex is positive");
    }

    #[test]
    fn rule_breaking_genome_is_penalised() {
        let p = problem();
        let adapter = AllocMoeaProblem::new(&p);
        // Both VMs on server 1: breaks the different-server rule.
        let e = adapter.evaluate(&[1.5, 1.5]);
        assert!(e.violation > 0.0);
    }

    #[test]
    fn evaluation_matches_direct_model_calls() {
        let p = problem();
        let adapter = AllocMoeaProblem::new(&p);
        let genes = [0.5, 2.5];
        let e = adapter.evaluate(&genes);
        let a = adapter.codec().decode(&genes);
        let direct = p.evaluate(&a);
        assert_eq!(e.objectives, direct.as_array().to_vec());
    }
}
