//! Differential validation of the delta evaluation path at paper scale:
//! on the fig8 (100-server) scenario, incremental move scoring must be
//! bit-identical to the full recompute — same scores on arbitrary
//! assignments, and (because every candidate score matches bit-for-bit)
//! the same tabu trajectory, move for move.

use cpo_iaas::model::delta::DeltaEvaluator;
use cpo_iaas::model::prelude::*;
use cpo_iaas::scenario::prelude::{ScenarioSize, ScenarioSpec};
use cpo_iaas::tabu::{tabu_search, Scoring, TabuConfig, TabuResult};

/// The fig8 seed-42 cell: 100 servers, the paper's request mix.
fn fig8_problem() -> AllocationProblem<'static> {
    ScenarioSpec::for_size(&ScenarioSize::with_servers(100)).generate(42)
}

/// A deterministic pseudo-random complete assignment.
fn scrambled(problem: &AllocationProblem, seed: u64) -> Assignment {
    let mut s = seed;
    let genes: Vec<usize> = (0..problem.n())
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as usize % problem.m()
        })
        .collect();
    Assignment::from_genes(&genes)
}

fn score_bits(s: &cpo_iaas::tabu::Score) -> (u64, u64) {
    (s.violation.to_bits(), s.total_cost.to_bits())
}

#[test]
fn delta_scores_match_full_recompute_on_fig8_assignments() {
    let problem = fig8_problem();
    for seed in [1, 7, 42, 1234, 987654321] {
        let a = scrambled(&problem, seed);
        let ev = DeltaEvaluator::new(&problem, a.clone());
        let delta = ev.score();

        let tracker = problem.tracker(&a);
        let z = problem.evaluate_with_tracker(&a, &tracker);
        let report = problem.check_with_tracker(&a, &tracker);
        assert_eq!(
            delta.violation.to_bits(),
            report.degree().to_bits(),
            "violation bits diverged at seed {seed}"
        );
        for (i, (d, f)) in delta
            .objectives
            .as_array()
            .iter()
            .zip(z.as_array().iter())
            .enumerate()
        {
            assert_eq!(
                d.to_bits(),
                f.to_bits(),
                "objective {i} diverged at seed {seed}: delta {d} vs full {f}"
            );
        }
    }
}

/// Runs the same tabu configuration under both scoring modes.
fn run_both(seed: u64) -> (TabuResult, TabuResult) {
    let problem = fig8_problem();
    let start = scrambled(&problem, 7);
    let config = TabuConfig {
        tenure: 24,
        max_iterations: 120,
        candidates: 48,
        seed,
        ..TabuConfig::default()
    };
    let delta = tabu_search(
        &problem,
        start.clone(),
        &TabuConfig {
            scoring: Scoring::Delta,
            ..config
        },
    );
    let full = tabu_search(
        &problem,
        start,
        &TabuConfig {
            scoring: Scoring::Full,
            ..config
        },
    );
    (delta, full)
}

#[test]
fn delta_and_full_tabu_walk_identical_trajectories_on_fig8() {
    for seed in [42, 4242] {
        let (d, f) = run_both(seed);
        assert_eq!(d.best, f.best, "best assignments diverged at seed {seed}");
        assert_eq!(
            score_bits(&d.best_score),
            score_bits(&f.best_score),
            "best scores diverged at seed {seed}"
        );
        assert_eq!(d.iterations, f.iterations);
        assert_eq!(d.accepted_moves, f.accepted_moves);
        assert_eq!(d.aspiration_hits, f.aspiration_hits);
        assert_eq!(d.candidates_scanned, f.candidates_scanned);
        // Each mode used its own engine exclusively.
        assert!(d.delta_evals > 0 && d.full_evals == 0);
        assert!(f.full_evals > 0 && f.delta_evals == 0);
    }
}
