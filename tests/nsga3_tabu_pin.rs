//! Bit-identity pin for the evolutionary allocators at `Effort::Quick`
//! settings, seed 42.
//!
//! Each case hashes one `allocate` outcome (every VM's server, the
//! rejected ids, the evaluation count and the bits of the three
//! objectives) and compares it with a constant committed from a
//! known-good run. Work-saving changes to the hybrid's solve (pooled
//! repair evaluators, reusing the repair's score, memoised parent
//! repairs) must leave every constant unchanged; serial and parallel
//! population evaluation must agree.

use cpo_bench::{outcome_fingerprint, reconfig_problem};
use cpo_iaas::exper::runner::{scenario_problem, Effort};
use cpo_iaas::moea::prelude::NsgaConfig;
use cpo_iaas::prelude::*;

/// nsga3-tabu on [`reconfig_problem`]: affinity rules, a running
/// allocation and one failed server.
const NSGA3_TABU_RECONFIG: u64 = 0x0112_1606_9b4a_f0df;
/// nsga3-tabu on the same scenario without a running allocation.
const NSGA3_TABU_FRESH: u64 = 0xe881_45ba_365f_8b84;
/// Bare NSGA-III on [`reconfig_problem`].
const NSGA3_RECONFIG: u64 = 0x17ce_fe95_9d89_22bf;
/// The weighted-sum GA with tabu repair on [`reconfig_problem`].
const WEIGHTED_GA_RECONFIG: u64 = 0x16a0_f944_0ec1_22c3;

fn quick(parallel_eval: bool) -> NsgaConfig {
    NsgaConfig {
        parallel_eval,
        ..Effort::Quick.nsga_config()
    }
    .with_seed(42)
}

fn assert_pinned(name: &str, allocator: &dyn Allocator, problem: &AllocationProblem, want: u64) {
    let got = outcome_fingerprint(&allocator.allocate(problem));
    assert_eq!(
        got, want,
        "{name}: fingerprint {got:#018x}, pinned {want:#018x}"
    );
}

#[test]
fn nsga3_tabu_reconfig_is_pinned() {
    let problem = reconfig_problem();
    for parallel in [false, true] {
        assert_pinned(
            &format!("nsga3-tabu reconfig, parallel_eval={parallel}"),
            &EvoAllocator::nsga3_tabu(quick(parallel)),
            &problem,
            NSGA3_TABU_RECONFIG,
        );
    }
}

#[test]
fn nsga3_tabu_fresh_is_pinned() {
    let problem = scenario_problem(&ScenarioSize::with_servers(24), false, 42);
    assert!(problem.previous().is_none());
    for parallel in [false, true] {
        assert_pinned(
            &format!("nsga3-tabu fresh, parallel_eval={parallel}"),
            &EvoAllocator::nsga3_tabu(quick(parallel)),
            &problem,
            NSGA3_TABU_FRESH,
        );
    }
}

#[test]
fn bare_nsga3_is_pinned() {
    assert_pinned(
        "nsga3 reconfig",
        &EvoAllocator::nsga3(quick(false)),
        &reconfig_problem(),
        NSGA3_RECONFIG,
    );
}

#[test]
fn weighted_ga_is_pinned() {
    assert_pinned(
        "weighted-ga reconfig",
        &WeightedGaAllocator::equal_weights(quick(false)),
        &reconfig_problem(),
        WEIGHTED_GA_RECONFIG,
    );
}

#[test]
fn reconfig_problem_has_rules_residents_and_a_failed_server() {
    let problem = reconfig_problem();
    let previous = problem.previous().expect("a running allocation");
    assert!(problem
        .batch()
        .requests()
        .iter()
        .any(|r| !r.rules.is_empty()));
    let failed: Vec<_> = problem
        .infra()
        .server_ids()
        .filter(|&j| problem.infra().effective_row(j).iter().all(|&c| c == 0.0))
        .collect();
    assert_eq!(failed.len(), 1, "exactly one failed server");
    assert!(
        previous.iter_assigned().any(|(_, j)| j == failed[0]),
        "the failed server hosted residents"
    );
}
