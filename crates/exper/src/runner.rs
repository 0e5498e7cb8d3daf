//! The sweep runner: algorithms × problem sizes × seeded runs.

use crate::metrics::AggregateMetrics;
use cpo_core::prelude::*;
use cpo_model::prelude::AllocationProblem;
use cpo_moea::prelude::NsgaConfig;
use cpo_scenario::prelude::{ScenarioSize, ScenarioSpec};
use std::time::Duration;

/// Evaluation effort: `Paper` reproduces Table III / 100 runs, `Quick`
/// scales budgets down for CI-sized regeneration of the same shapes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Effort {
    /// Table III: pop 100, 10 000 evaluations, 100 runs, generous CP
    /// budgets.
    Paper,
    /// Reduced budgets (pop 40, 2 000 evaluations, 5 runs, tight CP
    /// budgets) preserving the qualitative shape.
    Quick,
}

impl Effort {
    /// Number of repeated runs per (algorithm, size) cell.
    pub fn runs(self) -> usize {
        match self {
            Effort::Paper => 100,
            Effort::Quick => 5,
        }
    }

    /// Engine configuration at this effort.
    pub fn nsga_config(self) -> NsgaConfig {
        match self {
            Effort::Paper => NsgaConfig::paper_defaults(Variant::Nsga3),
            Effort::Quick => NsgaConfig {
                population_size: 40,
                max_evaluations: 2_000,
                ..NsgaConfig::paper_defaults(Variant::Nsga3)
            },
        }
    }

    /// CP allocator at this effort.
    pub fn cp_allocator(self) -> CpAllocator {
        match self {
            Effort::Paper => CpAllocator::default(),
            Effort::Quick => CpAllocator {
                per_request_deadline: Duration::from_millis(100),
                max_nodes: Some(20_000),
                ..CpAllocator::default()
            },
        }
    }
}

/// The six algorithms of the paper's comparison, in its presentation
/// order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Algorithm {
    /// Round Robin with server affinity.
    RoundRobin,
    /// Constraint programming (Choco substitute).
    ConstraintProgramming,
    /// Unmodified NSGA-II.
    Nsga2,
    /// Unmodified NSGA-III.
    Nsga3,
    /// NSGA-III with constraint-solver repair.
    Nsga3Cp,
    /// NSGA-III with tabu-search repair (the proposed hybrid).
    Nsga3Tabu,
    /// Table II's "Filtering Algorithm" (BtrPlace-style greedy filters) —
    /// not part of the paper's figures; used by ablations.
    Filtering,
    /// Weighted mono-objective GA (the alternative §III discusses) —
    /// not part of the paper's figures; used by ablations.
    WeightedGa,
    /// Anytime tabu-search admission (greedy seed → deadline-bounded
    /// candidate-list polish).
    TabuSearch,
    /// Deadline-racing portfolio (filtering ∥ CP ∥ tabu-search) under
    /// `--solve-deadline`.
    Race,
}

impl Algorithm {
    /// The paper's six, in its presentation order.
    pub fn all() -> [Algorithm; 6] {
        [
            Algorithm::RoundRobin,
            Algorithm::ConstraintProgramming,
            Algorithm::Nsga2,
            Algorithm::Nsga3,
            Algorithm::Nsga3Cp,
            Algorithm::Nsga3Tabu,
        ]
    }

    /// The paper's six plus the extra comparators: Table II filtering,
    /// the weighted mono-objective GA, the anytime tabu-search
    /// allocator, and the deadline-racing portfolio.
    pub fn extended() -> [Algorithm; 10] {
        [
            Algorithm::RoundRobin,
            Algorithm::ConstraintProgramming,
            Algorithm::Nsga2,
            Algorithm::Nsga3,
            Algorithm::Nsga3Cp,
            Algorithm::Nsga3Tabu,
            Algorithm::Filtering,
            Algorithm::WeightedGa,
            Algorithm::TabuSearch,
            Algorithm::Race,
        ]
    }

    /// Stable display name.
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::RoundRobin => "round-robin",
            Algorithm::ConstraintProgramming => "constraint-programming",
            Algorithm::Nsga2 => "nsga2",
            Algorithm::Nsga3 => "nsga3",
            Algorithm::Nsga3Cp => "nsga3-cp",
            Algorithm::Nsga3Tabu => "nsga3-tabu",
            Algorithm::Filtering => "filtering",
            Algorithm::WeightedGa => "weighted-ga",
            Algorithm::TabuSearch => "tabu-search",
            Algorithm::Race => "race",
        }
    }

    /// Instantiates the allocator at the given effort and seed, with an
    /// optional per-call wall-clock `budget` for the racing portfolio
    /// (other allocators receive it through a [`DeadlineBound`] wrapper
    /// instead).
    pub fn build_tuned(
        self,
        effort: Effort,
        seed: u64,
        budget: Option<Duration>,
    ) -> Box<dyn Allocator> {
        match self {
            Algorithm::Race => Box::new(PortfolioAllocator::racing(
                vec![
                    Box::new(FilteringAllocator),
                    Box::new(effort.cp_allocator()),
                    Algorithm::TabuSearch.build(effort, seed),
                ],
                PortfolioCriterion::AcceptanceThenCost,
                budget,
            )),
            other => other.build(effort, seed),
        }
    }

    /// Instantiates the allocator at the given effort and seed.
    pub fn build(self, effort: Effort, seed: u64) -> Box<dyn Allocator> {
        match self {
            Algorithm::RoundRobin => Box::new(RoundRobinAllocator),
            Algorithm::ConstraintProgramming => Box::new(effort.cp_allocator()),
            Algorithm::Nsga2 => Box::new(EvoAllocator::nsga2(effort.nsga_config()).with_seed(seed)),
            Algorithm::Nsga3 => Box::new(EvoAllocator::nsga3(effort.nsga_config()).with_seed(seed)),
            Algorithm::Nsga3Cp => {
                Box::new(EvoAllocator::nsga3_cp(effort.nsga_config()).with_seed(seed))
            }
            Algorithm::Nsga3Tabu => {
                Box::new(EvoAllocator::nsga3_tabu(effort.nsga_config()).with_seed(seed))
            }
            Algorithm::Filtering => Box::new(FilteringAllocator),
            Algorithm::WeightedGa => {
                let mut alloc = WeightedGaAllocator::equal_weights(effort.nsga_config());
                alloc.config.seed = seed;
                Box::new(alloc)
            }
            Algorithm::TabuSearch => {
                let mut alloc = TabuSearchAllocator::default();
                alloc.config.seed = seed;
                Box::new(alloc)
            }
            Algorithm::Race => self.build_tuned(effort, seed, None),
        }
    }
}

/// The seeded scenario every sweep, ablation and bench cell solves:
/// `size`'s generator spec, with the quality figures' affinity-heavy
/// request mix when `affinity_heavy` is set.
pub fn scenario_problem(size: &ScenarioSize, affinity_heavy: bool, seed: u64) -> AllocationProblem {
    let spec = ScenarioSpec::for_size(size);
    if affinity_heavy {
        spec.with_heavy_affinity().generate(seed)
    } else {
        spec.generate(seed)
    }
}

/// One cell of a sweep: an algorithm at a size, aggregated over runs.
#[derive(Clone, Debug)]
pub struct Cell {
    /// The algorithm.
    pub algorithm: Algorithm,
    /// The problem size.
    pub size: ScenarioSize,
    /// Aggregated metrics.
    pub metrics: AggregateMetrics,
}

/// Runs `algorithms × sizes × runs` and returns the cells in
/// (size-major, algorithm-minor) order. `affinity_heavy` switches the
/// request mix used by the quality figures.
pub fn run_sweep(
    algorithms: &[Algorithm],
    sizes: &[ScenarioSize],
    effort: Effort,
    runs: usize,
    affinity_heavy: bool,
    base_seed: u64,
) -> Vec<Cell> {
    let mut cells = Vec::with_capacity(algorithms.len() * sizes.len());
    for size in sizes {
        // Generate each run's problem once and share it across algorithms
        // so they compete on identical instances (paired comparison).
        let problems: Vec<_> = (0..runs)
            .map(|r| scenario_problem(size, affinity_heavy, base_seed.wrapping_add(r as u64)))
            .collect();
        for &algorithm in algorithms {
            let outcomes: Vec<AllocationOutcome> = problems
                .iter()
                .enumerate()
                .map(|(r, p)| {
                    let _run = cpo_obs::span!(
                        "exper.run",
                        algo = algorithm.label(),
                        servers = size.servers,
                        run = r
                    );
                    algorithm.build(effort, base_seed + r as u64).allocate(p)
                })
                .collect();
            cells.push(Cell {
                algorithm,
                size: size.clone(),
                metrics: AggregateMetrics::of(&outcomes),
            });
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_algorithms_have_distinct_labels() {
        let labels: Vec<_> = Algorithm::extended().iter().map(|a| a.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }

    #[test]
    fn quick_effort_scales_budgets_down() {
        let q = Effort::Quick.nsga_config();
        let p = Effort::Paper.nsga_config();
        assert!(q.max_evaluations < p.max_evaluations);
        assert!(q.population_size < p.population_size);
        assert_eq!(p.population_size, 100);
        assert_eq!(p.max_evaluations, 10_000);
        assert_eq!(Effort::Paper.runs(), 100);
    }

    #[test]
    fn scenario_problem_is_deterministic() {
        let size = ScenarioSize::with_servers(8);
        let a = scenario_problem(&size, true, 1);
        let b = scenario_problem(&size, true, 1);
        assert_eq!(a.n(), b.n());
        assert_eq!(a.m(), 8);
    }

    #[test]
    fn tiny_sweep_produces_expected_cells() {
        let sizes = vec![ScenarioSize::with_servers(6)];
        let algorithms = [Algorithm::RoundRobin, Algorithm::ConstraintProgramming];
        let cells = run_sweep(&algorithms, &sizes, Effort::Quick, 2, false, 1);
        assert_eq!(cells.len(), 2);
        for c in &cells {
            assert_eq!(c.metrics.runs, 2);
            assert!(c.metrics.time_ms.mean >= 0.0);
            assert!(c.metrics.rejection_rate.mean <= 1.0);
        }
    }

    #[test]
    fn baselines_never_violate_constraints() {
        let sizes = vec![ScenarioSize::with_servers(8)];
        let cells = run_sweep(
            &[Algorithm::RoundRobin, Algorithm::ConstraintProgramming],
            &sizes,
            Effort::Quick,
            3,
            true,
            2,
        );
        for c in &cells {
            assert_eq!(
                c.metrics.violations.max,
                0.0,
                "{} must reject, never violate",
                c.algorithm.label()
            );
        }
    }
}
