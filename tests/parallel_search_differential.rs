//! Differential suite for the anytime tabu search engine.
//!
//! The delta-scored scans (exhaustive and candidate-list) must walk the
//! same trajectory as the `Scoring::Full` recompute oracle, a deadline
//! must cut the search without changing what it has found, and the
//! racing portfolio and the incumbent stream must honour the anytime
//! contract.

use cpo_iaas::model::deadline::Deadline;
use cpo_iaas::prelude::*;
use cpo_iaas::tabu::search::{
    tabu_search, tabu_search_observed, Neighborhood, Score, Scoring, SearchObserver, TabuConfig,
    TabuResult,
};
use proptest::prelude::*;
use std::time::Duration;

fn scenario(servers: usize, seed: u64) -> AllocationProblem<'static> {
    ScenarioSpec::for_size(&ScenarioSize::with_servers(servers)).generate(seed)
}

/// A deliberately stressed start: everything piled onto the first
/// servers so the search has violations to repair.
fn crowded_start(problem: &AllocationProblem) -> Assignment {
    let mut a = Assignment::unassigned(problem.n());
    let m = problem.m().max(1);
    for k in 0..problem.n() {
        a.assign(VmId(k), ServerId(k % (m / 2).max(1)));
    }
    a
}

fn run(problem: &AllocationProblem, config: &TabuConfig) -> TabuResult {
    tabu_search(problem, crowded_start(problem), config)
}

/// Every observable of two runs that must agree bit-for-bit.
fn fingerprint(r: &TabuResult) -> (Vec<Option<usize>>, u64, u64, usize, usize, usize, usize) {
    let placement: Vec<Option<usize>> = (0..r.best.len())
        .map(|k| r.best.server_of(VmId(k)).map(|j| j.index()))
        .collect();
    (
        placement,
        r.best_score.violation.to_bits(),
        r.best_score.total_cost.to_bits(),
        r.iterations,
        r.accepted_moves,
        r.aspiration_hits,
        r.candidates_scanned,
    )
}

#[test]
fn parallel_delta_scan_matches_the_full_scoring_oracle() {
    // Same trajectory whether candidates are scored incrementally
    // (delta) or recomputed in full: the executable proof that the
    // delta scan picks the same canonical winner as the text-book full
    // evaluation.
    let problem = scenario(12, 11);
    let base = TabuConfig {
        max_iterations: 40,
        neighborhood: Neighborhood::Exhaustive,
        ..TabuConfig::default()
    };
    let oracle = run(
        &problem,
        &TabuConfig {
            scoring: Scoring::Full,
            ..base
        },
    );
    let delta = run(
        &problem,
        &TabuConfig {
            scoring: Scoring::Delta,
            ..base
        },
    );
    assert_eq!(
        fingerprint(&delta),
        fingerprint(&oracle),
        "delta diverged from the full-scoring oracle"
    );
}

#[test]
fn candidate_list_search_is_identical_across_scoring_modes_and_threads() {
    let problem = scenario(12, 5);
    let base = TabuConfig {
        max_iterations: 50,
        neighborhood: Neighborhood::Candidates { refresh: 8 },
        ..TabuConfig::default()
    };
    let oracle = run(
        &problem,
        &TabuConfig {
            scoring: Scoring::Full,
            ..base
        },
    );
    let delta = run(
        &problem,
        &TabuConfig {
            scoring: Scoring::Delta,
            ..base
        },
    );
    assert_eq!(
        fingerprint(&delta),
        fingerprint(&oracle),
        "candidate-list run diverged from Scoring::Full"
    );
}

#[test]
fn expired_deadline_returns_the_start_and_flags_the_cut() {
    let problem = scenario(10, 3);
    let start = crowded_start(&problem);
    let r = tabu_search(
        &problem,
        start.clone(),
        &TabuConfig {
            max_iterations: 200,
            neighborhood: Neighborhood::Exhaustive,
            deadline: Deadline::within(Duration::ZERO),
            ..TabuConfig::default()
        },
    );
    assert!(r.deadline_hit);
    assert_eq!(r.iterations, 0);
    assert_eq!(r.best, start, "anytime contract: best-so-far, never worse");
}

#[test]
fn unbounded_deadline_leaves_the_trajectory_untouched() {
    let problem = scenario(10, 9);
    let config = TabuConfig {
        max_iterations: 50,
        neighborhood: Neighborhood::Exhaustive,
        ..TabuConfig::default()
    };
    let plain = run(&problem, &config);
    let bounded = run(
        &problem,
        &TabuConfig {
            deadline: Deadline::within(Duration::from_secs(3600)),
            ..config
        },
    );
    assert!(!bounded.deadline_hit, "an hour must outlive 50 iterations");
    assert_eq!(fingerprint(&bounded), fingerprint(&plain));
}

#[test]
fn racing_portfolio_acceptance_never_trails_its_members() {
    // Equal generous deadline for the race and each member run alone:
    // the reduction keeps the best member outcome, so the race can only
    // tie or beat every member.
    let problem = scenario(14, 17);
    let budget = Some(Duration::from_secs(60));
    let members = || -> Vec<Box<dyn Allocator>> {
        vec![
            Box::new(FilteringAllocator),
            Box::new(CpAllocator::default()),
            Box::new(TabuSearchAllocator::default()),
        ]
    };
    let race =
        PortfolioAllocator::racing(members(), PortfolioCriterion::AcceptanceThenCost, budget);
    let out = race.allocate(&problem);
    assert!(out.is_clean());
    for member in members() {
        let solo =
            member.allocate_with_deadline(&problem, Deadline::within(Duration::from_secs(60)));
        assert!(
            out.accepted_requests >= solo.accepted_requests,
            "race admitted {} but member {} admitted {}",
            out.accepted_requests,
            member.name(),
            solo.accepted_requests
        );
    }
}

/// Records the incumbent trajectory the search reports.
struct Recorder(Vec<(usize, Score)>);

impl SearchObserver for Recorder {
    fn on_incumbent(&mut self, iteration: usize, score: Score) {
        self.0.push((iteration, score));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Anytime monotonicity: a candidate-list search never reports an
    /// incumbent worse than an earlier one — so cutting the run at *any*
    /// deadline yields the best-so-far.
    #[test]
    fn candidate_list_incumbents_never_regress(
        servers in 8usize..16,
        seed in 0u64..500,
        refresh in 1usize..12,
    ) {
        let problem = scenario(servers, seed);
        let config = TabuConfig {
            max_iterations: 40,
            neighborhood: Neighborhood::Candidates { refresh },
            ..TabuConfig::default()
        };
        let mut rec = Recorder(Vec::new());
        let result = tabu_search_observed(&problem, crowded_start(&problem), &config, &mut rec);
        prop_assert!(!rec.0.is_empty(), "the start incumbent is always reported");
        for pair in rec.0.windows(2) {
            prop_assert!(
                pair[1].1.better_than(&pair[0].1),
                "incumbent regressed: {:?} after {:?}",
                pair[1],
                pair[0]
            );
        }
        let last = rec.0.last().unwrap().1;
        prop_assert_eq!(last.violation.to_bits(), result.best_score.violation.to_bits());
        prop_assert_eq!(last.total_cost.to_bits(), result.best_score.total_cost.to_bits());
    }
}
