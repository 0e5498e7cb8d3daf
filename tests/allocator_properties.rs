//! Property-based tests over the allocators: on randomly generated
//! scenarios, the admission-controlled algorithms (Round Robin, filtering,
//! CP) must always produce clean, capacity-respecting placements with
//! internally consistent metrics.

use cpo_iaas::prelude::*;
use proptest::prelude::*;

fn scenario_strategy() -> impl Strategy<Value = AllocationProblem<'static>> {
    (6usize..20, 1.0_f64..4.0, 0u64..500).prop_map(|(servers, scale, seed)| {
        let size = ScenarioSize::with_servers(servers);
        let mut spec = ScenarioSpec::for_size(&size);
        spec.requests.demand_scale = scale;
        spec.requests.request_size = (1, 4);
        spec.requests.p_same_server = 0.25;
        spec.requests.p_different_server = 0.25;
        spec.generate(seed)
    })
}

fn check_clean(problem: &AllocationProblem, outcome: &AllocationOutcome, name: &str) {
    // No violated constraints ever.
    assert_eq!(
        outcome.violated_constraints, 0,
        "{name} violated constraints"
    );
    // No server overloaded.
    let tracker = problem.tracker(&outcome.assignment);
    for j in problem.infra().server_ids() {
        assert!(
            tracker.overloads(j, problem.infra()).is_empty(),
            "{name} overloaded server {j:?}"
        );
    }
    // Every placed request's rules hold; every rejected request is empty.
    let accepted = problem.accepted_requests(&outcome.assignment);
    for req in problem.batch().requests() {
        if outcome.rejected.contains(&req.id) {
            for k in req.vms {
                assert_eq!(
                    outcome.assignment.server_of(k),
                    None,
                    "{name} left a VM of a rejected request placed"
                );
            }
        } else {
            assert!(
                accepted.contains(&req.id),
                "{name}: request neither rejected nor accepted"
            );
        }
    }
    // Metric consistency.
    assert!(
        (outcome.rejection_rate
            - outcome.rejected.len() as f64 / problem.batch().request_count() as f64)
            .abs()
            < 1e-9,
        "{name} rejection-rate mismatch"
    );
    assert!(outcome.gross_revenue >= 0.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn round_robin_is_always_clean(problem in scenario_strategy()) {
        let outcome = RoundRobinAllocator.allocate(&problem);
        check_clean(&problem, &outcome, "round-robin");
    }

    #[test]
    fn filtering_is_always_clean(problem in scenario_strategy()) {
        let outcome = FilteringAllocator.allocate(&problem);
        check_clean(&problem, &outcome, "filtering");
    }

    #[test]
    fn cp_is_always_clean(problem in scenario_strategy()) {
        let outcome = CpAllocator::feasible_only().allocate(&problem);
        check_clean(&problem, &outcome, "cp");
    }

    /// CP admission accepts at least as much as filtering on identical
    /// instances (it searches where filtering only greedily commits).
    #[test]
    fn cp_accepts_at_least_as_much_as_filtering(problem in scenario_strategy()) {
        let cp = CpAllocator::feasible_only().allocate(&problem);
        let filt = FilteringAllocator.allocate(&problem);
        prop_assert!(
            cp.accepted_requests + 1 >= filt.accepted_requests,
            "cp accepted {} but filtering {}",
            cp.accepted_requests,
            filt.accepted_requests
        );
    }

    /// The portfolio never does worse than its best member under its own
    /// criterion.
    #[test]
    fn portfolio_dominates_members(problem in scenario_strategy()) {
        let members: Vec<Box<dyn Allocator>> = vec![
            Box::new(RoundRobinAllocator),
            Box::new(FilteringAllocator),
        ];
        let portfolio =
            PortfolioAllocator::new(members, PortfolioCriterion::AcceptanceThenCost);
        let out = portfolio.allocate(&problem);
        let rr = RoundRobinAllocator.allocate(&problem);
        let filt = FilteringAllocator.allocate(&problem);
        for member in [&rr, &filt] {
            prop_assert!(
                (out.rejection_rate, out.provider_cost())
                    <= (member.rejection_rate, member.provider_cost() + 1e-9)
            );
        }
    }
}
