//! Convergence study: per-generation progress of the evolutionary
//! variants on one scenario — the quantitative face of the paper's claim
//! that the evolutionary algorithms "conduct deeper exploration and
//! exploitation to find multiple feasible solutions".

use cpo_core::prelude::{AllocMoeaProblem, NsgaConfig, Variant};
use cpo_model::prelude::AllocationProblem;
use cpo_moea::engine::GenStats;
use cpo_moea::prelude::{run, RepairMode};
use cpo_tabu::repair::{RepairConfig, ScanOrder};
use std::fmt::Write as _;

/// One algorithm's convergence trace.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Display name.
    pub name: &'static str,
    /// Per-generation statistics.
    pub history: Vec<GenStats>,
}

impl Trace {
    /// Evaluations at which the population first became ≥ half feasible,
    /// if ever — a "time to usable solutions" proxy.
    pub fn evals_to_half_feasible(&self, population: usize) -> Option<usize> {
        self.history
            .iter()
            .find(|g| g.feasible * 2 >= population)
            .map(|g| g.evaluations)
    }

    /// Best feasible aggregate objective at the end, if any.
    pub fn final_best(&self) -> Option<f64> {
        self.history.last().and_then(|g| g.best_feasible_total)
    }
}

/// Runs NSGA-II, NSGA-III, U-NSGA-III and the tabu hybrid on `problem`
/// with identical budgets and returns their traces.
pub fn convergence_study(problem: &AllocationProblem, config: &NsgaConfig) -> Vec<Trace> {
    let adapter = AllocMoeaProblem::new(problem);
    let mut traces = Vec::new();

    for (name, variant, repaired) in [
        ("nsga2", Variant::Nsga2, false),
        ("nsga3", Variant::Nsga3, false),
        ("unsga3", Variant::UNsga3, false),
        ("nsga3-tabu", Variant::Nsga3, true),
    ] {
        let cfg = NsgaConfig {
            variant,
            repair_mode: if repaired {
                RepairMode::Both
            } else {
                RepairMode::Off
            },
            ..config.clone()
        };
        let history = if repaired {
            let repair_cfg = RepairConfig {
                scan: ScanOrder::BestCost,
                ..RepairConfig::default()
            };
            let fixer = |genes: &mut [f64]| Some(adapter.tabu_repair(genes, &repair_cfg));
            run(&adapter, &cfg, Some(&fixer)).history
        } else {
            run(&adapter, &cfg, None).history
        };
        traces.push(Trace { name, history });
    }
    traces
}

/// Renders the traces as an evaluations × algorithm table. Each cell
/// shows the best feasible Eq. 15 total when one exists, otherwise the
/// population's minimum violation degree as `v<degree>` — so progress is
/// visible even on workloads whose infeasible requests keep full
/// feasibility out of reach.
pub fn render_convergence(traces: &[Trace], population: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "convergence: best feasible Eq.15 total (or v<min violation>) by evaluation budget"
    );
    let _ = write!(out, "{:>12}", "evals");
    for t in traces {
        let _ = write!(out, " {:>14}", t.name);
    }
    let _ = writeln!(out);
    // Sample up to 12 evenly spaced generations from the longest trace.
    let max_len = traces.iter().map(|t| t.history.len()).max().unwrap_or(0);
    let step = (max_len / 12).max(1);
    for row in (0..max_len).step_by(step) {
        let evals = traces
            .iter()
            .filter_map(|t| t.history.get(row))
            .map(|g| g.evaluations)
            .max()
            .unwrap_or(0);
        let _ = write!(out, "{evals:>12}");
        for t in traces {
            match t.history.get(row) {
                Some(g) => match g.best_feasible_total {
                    Some(v) => {
                        let _ = write!(out, " {v:>14.1}");
                    }
                    None => {
                        let cell = format!("v{:.1}", g.min_violation);
                        let _ = write!(out, " {cell:>14}");
                    }
                },
                None => {
                    let _ = write!(out, " {:>14}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(out, "\ntime-to-half-feasible (evaluations):");
    for t in traces {
        match t.evals_to_half_feasible(population) {
            Some(e) => {
                let _ = writeln!(out, "  {:>12}: {e}", t.name);
            }
            None => {
                let _ = writeln!(out, "  {:>12}: never", t.name);
            }
        }
    }
    out
}

/// The traces as CSV, one line per (algorithm, generation); the
/// best-feasible cell is empty while no individual is feasible.
pub fn convergence_csv(traces: &[Trace]) -> String {
    let mut out = String::from(
        "algorithm,generation,evaluations,feasible,min_violation,best_feasible_total\n",
    );
    for t in traces {
        for g in &t.history {
            let best = g
                .best_feasible_total
                .map_or(String::new(), |v| format!("{v:.6}"));
            let _ = writeln!(
                out,
                "{},{},{},{},{:.6},{best}",
                t.name, g.generation, g.evaluations, g.feasible, g.min_violation
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpo_scenario::prelude::{ScenarioSize, ScenarioSpec};

    fn quick() -> NsgaConfig {
        NsgaConfig {
            population_size: 20,
            max_evaluations: 600,
            parallel_eval: false,
            ..NsgaConfig::paper_defaults(Variant::Nsga3)
        }
    }

    #[test]
    fn study_produces_four_traces_with_history() {
        let size = ScenarioSize::with_servers(8);
        let problem = ScenarioSpec::for_size(&size).generate(5);
        let traces = convergence_study(&problem, &quick());
        assert_eq!(traces.len(), 4);
        for t in &traces {
            assert!(!t.history.is_empty(), "{} has no history", t.name);
            assert!(t
                .history
                .windows(2)
                .all(|w| w[0].evaluations <= w[1].evaluations));
        }
    }

    #[test]
    fn repaired_trace_reaches_feasibility_fastest() {
        // Light workload: full feasibility is reachable, so the repair's
        // advantage shows as an earlier half-feasible population.
        let size = ScenarioSize::with_servers(10);
        let problem = ScenarioSpec::for_size(&size).generate(3);
        let traces = convergence_study(&problem, &quick());
        let tabu = traces.iter().find(|t| t.name == "nsga3-tabu").unwrap();
        let plain = traces.iter().find(|t| t.name == "nsga3").unwrap();
        let tabu_first = tabu.evals_to_half_feasible(20);
        let plain_first = plain.evals_to_half_feasible(20);
        match (tabu_first, plain_first) {
            (Some(a), Some(b)) => assert!(a <= b, "repair must not be slower: {a} vs {b}"),
            (Some(_), None) => {} // repaired run feasible, plain never: expected
            (None, _) => panic!("the repaired run must reach half-feasibility"),
        }
    }

    #[test]
    fn repaired_trace_has_lowest_final_violation_on_hard_workload() {
        let size = ScenarioSize::with_servers(10);
        let problem = ScenarioSpec::for_size(&size)
            .with_heavy_affinity()
            .generate(3);
        let traces = convergence_study(&problem, &quick());
        let final_violation = |name: &str| {
            traces
                .iter()
                .find(|t| t.name == name)
                .and_then(|t| t.history.last())
                .map(|g| g.min_violation)
                .unwrap()
        };
        assert!(
            final_violation("nsga3-tabu") <= final_violation("nsga3") + 1e-9,
            "repair must end no more violating than plain NSGA-III"
        );
    }

    #[test]
    fn render_includes_all_columns() {
        let size = ScenarioSize::with_servers(8);
        let problem = ScenarioSpec::for_size(&size).generate(5);
        let traces = convergence_study(&problem, &quick());
        let table = render_convergence(&traces, 20);
        for name in ["nsga2", "nsga3", "unsga3", "nsga3-tabu"] {
            assert!(table.contains(name), "missing column {name}");
        }
        assert!(table.contains("time-to-half-feasible"));
        let csv = convergence_csv(&traces);
        let rows = traces.iter().map(|t| t.history.len()).sum::<usize>();
        assert_eq!(csv.lines().count(), rows + 1);
        assert!(csv.lines().all(|l| l.split(',').count() == 6));
    }
}
