//! Cross-crate integration: scenario generation → each of the six
//! allocators → outcome invariants.

use cpo_iaas::exper::runner::{Algorithm, Effort};
use cpo_iaas::prelude::*;

fn scenario(servers: usize, seed: u64) -> AllocationProblem<'static> {
    let size = ScenarioSize::with_servers(servers);
    ScenarioSpec::for_size(&size)
        .with_heavy_affinity()
        .generate(seed)
}

#[test]
fn every_algorithm_produces_a_consistent_outcome() {
    let problem = scenario(12, 3);
    for algorithm in Algorithm::all() {
        let outcome = algorithm.build(Effort::Quick, 3).allocate(&problem);
        // Metrics are internally consistent with the assignment.
        assert!(
            (outcome.rejection_rate - problem.rejection_rate(&outcome.assignment)).abs() < 1e-12,
            "{}: rejection rate mismatch",
            algorithm.label()
        );
        let z = problem.evaluate(&outcome.assignment);
        assert_eq!(
            z.as_array(),
            outcome.objectives.as_array(),
            "{}: objective mismatch",
            algorithm.label()
        );
        assert!(outcome.rejection_rate >= 0.0 && outcome.rejection_rate <= 1.0);
    }
}

#[test]
fn clean_algorithms_never_violate() {
    for seed in 0..3 {
        let problem = scenario(10, seed);
        for algorithm in [
            Algorithm::RoundRobin,
            Algorithm::ConstraintProgramming,
            Algorithm::Nsga3Cp,
            Algorithm::Nsga3Tabu,
        ] {
            let outcome = algorithm.build(Effort::Quick, seed).allocate(&problem);
            assert_eq!(
                outcome.violated_constraints,
                0,
                "{} violated constraints on seed {seed}",
                algorithm.label()
            );
        }
    }
}

#[test]
fn rejected_requests_have_no_placed_vms() {
    let problem = scenario(8, 5);
    for algorithm in [
        Algorithm::RoundRobin,
        Algorithm::ConstraintProgramming,
        Algorithm::Nsga3Tabu,
    ] {
        let outcome = algorithm.build(Effort::Quick, 5).allocate(&problem);
        for r in &outcome.rejected {
            for k in problem.batch().request(*r).vms {
                assert_eq!(
                    outcome.assignment.server_of(k),
                    None,
                    "{}: rejected request {r:?} has a placed VM",
                    algorithm.label()
                );
            }
        }
    }
}

#[test]
fn accepted_requests_respect_their_rules() {
    let problem = scenario(12, 7);
    let outcome = Algorithm::Nsga3Tabu
        .build(Effort::Quick, 7)
        .allocate(&problem);
    let accepted = problem.accepted_requests(&outcome.assignment);
    for r in &accepted {
        let req = problem.batch().request(*r);
        for rule in &req.rules {
            assert!(
                rule.is_satisfied(&outcome.assignment, problem.infra()),
                "accepted request {r:?} breaks {:?}",
                rule.kind()
            );
        }
    }
}

#[test]
fn allocators_are_deterministic_under_seed() {
    let problem = scenario(10, 9);
    for algorithm in Algorithm::all() {
        let a = algorithm.build(Effort::Quick, 9).allocate(&problem);
        let b = algorithm.build(Effort::Quick, 9).allocate(&problem);
        assert_eq!(
            a.assignment,
            b.assignment,
            "{} not deterministic",
            algorithm.label()
        );
    }
}

#[test]
fn capacity_is_respected_by_clean_algorithms() {
    let problem = scenario(10, 11);
    for algorithm in [Algorithm::ConstraintProgramming, Algorithm::Nsga3Tabu] {
        let outcome = algorithm.build(Effort::Quick, 11).allocate(&problem);
        let tracker = problem.tracker(&outcome.assignment);
        for j in problem.infra().server_ids() {
            assert!(
                tracker.overloads(j, problem.infra()).is_empty(),
                "{}: server {j:?} overloaded",
                algorithm.label()
            );
        }
    }
}

#[test]
fn exper_figures_run_end_to_end() {
    use cpo_iaas::exper::figures;
    use cpo_iaas::exper::report::{figure_csv, render_figure};
    use cpo_iaas::exper::runner::Effort;

    // One-run micro versions of each figure; checks plumbing, not shapes.
    let fig = figures::fig7(Effort::Quick, 1, 1);
    assert_eq!(fig.cells.len(), 6 * fig.sizes.len());
    let ascii = render_figure(&fig);
    assert!(ascii.contains("nsga3-tabu"));
    let csv = figure_csv(&fig);
    assert_eq!(csv.lines().count(), 1 + fig.cells.len());
}
