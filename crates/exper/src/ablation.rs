//! The ablations: each design choice DESIGN.md §5 calls out, measured on
//! one seeded scenario and returned as one table.
//!
//! `exper ablations` prints the eight tables and, under `--csv-dir`,
//! writes `ablation-<name>.csv` for each; the committed record lives in
//! `results/`. Columns named `*_ms` are wall-clock. Every other column is
//! a pure function of the seeds, so a rerun reproduces it byte for byte
//! ([`without_wall_clock`] keeps just those columns for comparison).

use crate::runner::{scenario_problem, Algorithm, Effort};
use cpo_core::prelude::*;
use cpo_model::prelude::{AllocationProblem, Assignment};
use cpo_moea::hv::hypervolume;
use cpo_moea::prelude::{run, Operators, RepairMode};
use cpo_moea::refpoints::{das_dennis_count, divisions_for};
use cpo_scenario::prelude::ScenarioSize;
use cpo_tabu::repair::{repair, RepairConfig, ScanOrder};
use cpo_tabu::{tabu_search, TabuConfig};
use std::fmt::Write as _;
use std::time::Instant;

/// One ablation's result table.
#[derive(Clone, Debug)]
pub struct Ablation {
    /// Stable name; the CSV is `ablation-<name>.csv`.
    pub name: &'static str,
    /// Heading: what varies and on which scenario.
    title: String,
    /// Column names; `*_ms` columns are wall-clock.
    columns: &'static [&'static str],
    /// Formatted cells, one row per variant, one cell per column.
    rows: Vec<Vec<String>>,
}

impl Ablation {
    /// The table as CSV: a header line, then one line per row.
    pub fn csv(&self) -> String {
        let mut out = self.columns.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// The table as right-aligned ASCII columns under its heading.
    pub fn render(&self) -> String {
        let widths: Vec<usize> = (0..self.columns.len())
            .map(|c| {
                self.rows
                    .iter()
                    .map(|r| r[c].len())
                    .chain([self.columns[c].len()])
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let mut out = String::new();
        let _ = writeln!(out, "ablation {} — {}", self.name, self.title);
        for row in std::iter::once(self.columns.iter().map(|c| c.to_string()).collect())
            .chain(self.rows.iter().cloned())
        {
            for (cell, width) in row.iter().zip(&widths) {
                let _ = write!(out, " {cell:>width$}");
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// `csv` without its wall-clock (`*_ms`) columns: the part of an
/// ablation's record that must repeat exactly.
pub fn without_wall_clock(csv: &str) -> String {
    let mut lines = csv.lines();
    let Some(header) = lines.next() else {
        return String::new();
    };
    let keep: Vec<bool> = header.split(',').map(|c| !c.ends_with("_ms")).collect();
    let mut out = String::new();
    for line in std::iter::once(header).chain(lines) {
        let cells: Vec<&str> = line
            .split(',')
            .zip(&keep)
            .filter_map(|(cell, &k)| k.then_some(cell))
            .collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

/// All eight ablations, in the order `exper ablations` prints them.
pub fn all() -> [Ablation; 8] {
    [
        constraint_handling(),
        repair_scan(),
        parallel_eval(),
        nsga2_vs_nsga3(),
        mono_vs_multi(),
        refpoints(),
        operators(),
        tabu_tenure(),
    ]
}

/// Six decimals. Adding `0.0` turns a negative zero into `0`: `f64::max`
/// may return either zero, and debug and release builds differ there.
fn float(x: f64) -> String {
    format!("{:.6}", x + 0.0)
}

fn millis(since: Instant) -> String {
    float(since.elapsed().as_secs_f64() * 1_000.0)
}

fn outcome_ms(outcome: &AllocationOutcome) -> String {
    float(outcome.elapsed.as_secs_f64() * 1_000.0)
}

fn problem(servers: usize, affinity_heavy: bool) -> AllocationProblem {
    scenario_problem(&ScenarioSize::with_servers(servers), affinity_heavy, 42)
}

/// `count` uniformly random complete assignments of `problem`'s VMs,
/// drawn from the SplitMix64 hash chain started at `seed`.
fn random_assignments(problem: &AllocationProblem, count: usize, seed: u64) -> Vec<Assignment> {
    let mut state = seed;
    let m = problem.m() as u64;
    (0..count)
        .map(|_| {
            let genes: Vec<usize> = (0..problem.n())
                .map(|_| {
                    state = cpo_traces::amplify::splitmix(state);
                    (state % m) as usize
                })
                .collect();
            Assignment::from_genes(&genes)
        })
        .collect()
}

/// The paper's constraint-handling methods on the tabu hybrid (m=25,
/// affinity-heavy): `off` is constraint-domination only, `exclude` the
/// paper's Method 1 (discard invalid offspring), and `parents` (the
/// literal Fig. 4 pipeline), `offspring` and `both` wire Method 2, repair.
pub fn constraint_handling() -> Ablation {
    let problem = problem(25, true);
    let rows = [
        ("off", RepairMode::Off),
        ("exclude", RepairMode::Exclude),
        ("parents", RepairMode::Parents),
        ("offspring", RepairMode::Offspring),
        ("both", RepairMode::Both),
    ]
    .into_iter()
    .map(|(name, mode)| {
        let mut alloc = EvoAllocator::nsga3_tabu(Effort::Quick.nsga_config());
        alloc.config.repair_mode = mode;
        if matches!(mode, RepairMode::Off | RepairMode::Exclude) {
            // A pure in-engine method: no repair operator and no final
            // admission fix-ups.
            alloc.hybrid = Hybrid::None;
            alloc.finalize_rejections = false;
        }
        let outcome = alloc.allocate(&problem);
        vec![
            name.to_string(),
            float(outcome.rejection_rate),
            outcome.violated_constraints.to_string(),
            outcome_ms(&outcome),
        ]
    })
    .collect();
    Ablation {
        name: "constraint-handling",
        title: "constraint handling in NSGA-III (m=25, affinity-heavy, seed 42)".into(),
        columns: &["mode", "rejection", "violations", "time_ms"],
        rows,
    }
}

/// `findNeighbour` scan order (Fig. 6 takes the first valid server) over
/// 50 random complete assignments of the m=25 affinity-heavy scenario:
/// individuals left feasible, moves, provider cost and rejection.
pub fn repair_scan() -> Ablation {
    let problem = problem(25, true);
    let individuals = random_assignments(&problem, 50, 7);
    let rows = [
        ("first-fit", ScanOrder::FirstFit),
        ("nearest-first", ScanOrder::NearestFirst),
        ("best-cost", ScanOrder::BestCost),
    ]
    .into_iter()
    .map(|(name, scan)| {
        let config = RepairConfig {
            scan,
            ..RepairConfig::default()
        };
        let start = Instant::now();
        let (mut fixed, mut moves, mut cost, mut reject) = (0usize, 0usize, 0.0, 0.0);
        for individual in &individuals {
            let mut a = individual.clone();
            let outcome = repair(&problem, &mut a, &config);
            fixed += usize::from(outcome.feasible);
            moves += outcome.moves;
            cost += problem.evaluate(&a).usage_opex;
            reject += problem.rejection_rate(&a);
        }
        let n = individuals.len() as f64;
        vec![
            name.to_string(),
            fixed.to_string(),
            float(moves as f64 / n),
            float(cost / n),
            float(reject / n),
            millis(start),
        ]
    })
    .collect();
    Ablation {
        name: "repair-scan",
        title: "findNeighbour scan order on 50 random assignments (m=25, affinity-heavy)".into(),
        columns: &[
            "scan",
            "feasible",
            "avg_moves",
            "avg_cost",
            "avg_rejection",
            "time_ms",
        ],
        rows,
    }
}

/// Threaded vs sequential population evaluation in unmodified NSGA-III
/// (pop 40, 1 000 evaluations) at m=25 and m=100. The outcome columns
/// must agree between the two modes; `time_ms` is the median of five
/// runs.
pub fn parallel_eval() -> Ablation {
    let mut rows = Vec::new();
    for servers in [25usize, 100] {
        let problem = problem(servers, false);
        for (name, parallel_eval) in [("sequential", false), ("parallel", true)] {
            let alloc = EvoAllocator::nsga3(NsgaConfig {
                max_evaluations: 1_000,
                parallel_eval,
                ..Effort::Quick.nsga_config()
            });
            let mut outcomes: Vec<AllocationOutcome> =
                (0..5).map(|_| alloc.allocate(&problem)).collect();
            outcomes.sort_by_key(|o| o.elapsed);
            let median = &outcomes[outcomes.len() / 2];
            rows.push(vec![
                servers.to_string(),
                name.to_string(),
                median.evaluations.to_string(),
                float(median.rejection_rate),
                float(median.provider_cost()),
                outcome_ms(median),
            ]);
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ablation {
        name: "parallel-eval",
        title: format!("threaded vs sequential evaluation, NSGA-III ({cores} cores)"),
        columns: &[
            "servers",
            "mode",
            "evaluations",
            "rejection",
            "provider_cost",
            "time_ms",
        ],
        rows,
    }
}

/// The objective vectors of NSGA `config`'s final first front on
/// `problem`: only its feasible members when `prefer_feasible` is set and
/// any exist, otherwise all of them (a population's first front is never
/// empty).
fn first_front(
    problem: &AllocationProblem,
    config: &NsgaConfig,
    prefer_feasible: bool,
) -> Vec<Vec<f64>> {
    let adapter = AllocMoeaProblem::new(problem);
    let result = run(&adapter, config, None);
    let front = |feasible_only: bool| -> Vec<Vec<f64>> {
        result
            .population
            .iter()
            .filter(|i| i.rank == 0 && (!feasible_only || i.is_feasible()))
            .map(|i| i.objectives.clone())
            .collect()
    };
    match front(prefer_feasible) {
        empty if empty.is_empty() => front(false),
        found => found,
    }
}

/// NSGA-II crowding vs NSGA-III and U-NSGA-III reference-point niching
/// (pop 40, 2 000 evaluations, m=20): hypervolume of the feasible first
/// front, or of the raw first front when none is feasible, against the
/// front's own padded nadir.
pub fn nsga2_vs_nsga3() -> Ablation {
    let problem = problem(20, false);
    let rows = [
        ("nsga2", Variant::Nsga2),
        ("nsga3", Variant::Nsga3),
        ("unsga3", Variant::UNsga3),
    ]
    .into_iter()
    .map(|(name, variant)| {
        let config = NsgaConfig {
            population_size: 40,
            max_evaluations: 2_000,
            ..NsgaConfig::paper_defaults(variant)
        };
        let start = Instant::now();
        let front = first_front(&problem, &config, true);
        let reference: Vec<f64> = (0..front[0].len())
            .map(|j| front.iter().map(|f| f[j]).fold(0.0_f64, f64::max) * 1.1 + 1.0)
            .collect();
        let hv = hypervolume(&front, &reference);
        vec![name.to_string(), float(hv), millis(start)]
    })
    .collect();
    Ablation {
        name: "nsga2-vs-nsga3",
        title: "selection variant, first-front hypervolume (m=20, seed 42)".into(),
        columns: &["variant", "hypervolume", "time_ms"],
        rows,
    }
}

/// The weighted mono-objective GA §III debates vs the Pareto hybrid, with
/// Table II's filtering algorithm as the greedy reference (m=25,
/// affinity-heavy).
pub fn mono_vs_multi() -> Ablation {
    let problem = problem(25, true);
    let rows = [
        Algorithm::Nsga3Tabu,
        Algorithm::WeightedGa,
        Algorithm::Filtering,
    ]
    .into_iter()
    .map(|algorithm| {
        let outcome = algorithm.build(Effort::Quick, 42).allocate(&problem);
        vec![
            algorithm.label().to_string(),
            float(outcome.rejection_rate),
            outcome.violated_constraints.to_string(),
            float(outcome.provider_cost()),
            outcome_ms(&outcome),
        ]
    })
    .collect();
    Ablation {
        name: "mono-vs-multi",
        title: "mono- vs multi-objective, with filtering (m=25, affinity-heavy)".into(),
        columns: &[
            "algorithm",
            "rejection",
            "violations",
            "provider_cost",
            "time_ms",
        ],
        rows,
    }
}

/// Das–Dennis lattice density: NSGA-III at population 20–200 under a fixed
/// 2 000-evaluation budget (m=20), first-front hypervolume against one
/// reference point for all populations — the componentwise max over 64
/// random assignments, padded 20 %.
pub fn refpoints() -> Ablation {
    let problem = problem(20, false);
    let mut reference = [0.0_f64; 3];
    for a in random_assignments(&problem, 64, 99) {
        for (r, v) in reference.iter_mut().zip(problem.evaluate(&a).as_array()) {
            *r = r.max(v);
        }
    }
    let reference = reference.map(|r| r * 1.2 + 1.0);
    let rows = [20usize, 52, 100, 200]
        .into_iter()
        .map(|pop| {
            let divisions = divisions_for(3, pop);
            let config = NsgaConfig {
                population_size: pop,
                max_evaluations: 2_000,
                ..NsgaConfig::paper_defaults(Variant::Nsga3)
            };
            let start = Instant::now();
            let hv = hypervolume(&first_front(&problem, &config, false), &reference);
            vec![
                pop.to_string(),
                divisions.to_string(),
                das_dennis_count(3, divisions).to_string(),
                float(hv),
                millis(start),
            ]
        })
        .collect();
    Ablation {
        name: "refpoints",
        title: "reference-point density, fixed hypervolume reference (m=20)".into(),
        columns: &[
            "population",
            "divisions",
            "points",
            "hypervolume",
            "time_ms",
        ],
        rows,
    }
}

/// The paper's real-coded SBX + PM vs uniform crossover + random-reset
/// mutation on the server-id genome, in the tabu hybrid (m=25,
/// affinity-heavy), averaged over seeds 0, 1 and 2; `violations` is
/// their sum.
pub fn operators() -> Ablation {
    let problem = problem(25, true);
    let rows = [
        ("sbx+pm", Operators::RealCoded),
        ("uniform+reset", Operators::IntegerStyle),
    ]
    .into_iter()
    .map(|(name, operators)| {
        let (mut reject, mut cost, mut violations, mut time_ms) = (0.0, 0.0, 0usize, 0.0);
        for seed in 0..3 {
            let mut alloc = EvoAllocator::nsga3_tabu(Effort::Quick.nsga_config()).with_seed(seed);
            alloc.config.operators = operators;
            let out = alloc.allocate(&problem);
            reject += out.rejection_rate / 3.0;
            cost += out.provider_cost() / 3.0;
            violations += out.violated_constraints;
            time_ms += out.elapsed.as_secs_f64() * 1_000.0 / 3.0;
        }
        vec![
            name.to_string(),
            float(reject),
            violations.to_string(),
            float(cost),
            float(time_ms),
        ]
    })
    .collect();
    Ablation {
        name: "operators",
        title: "variation operators on server-id genomes (m=25, affinity-heavy, 3 seeds)".into(),
        columns: &[
            "operators",
            "rejection",
            "violations",
            "provider_cost",
            "time_ms",
        ],
        rows,
    }
}

/// Tabu tenure in the standalone tabu search: 600 iterations from every
/// VM piled on server 0 (m=15, light workload). Tenure 0 disables the
/// memory.
pub fn tabu_tenure() -> Ablation {
    let problem = problem(15, false);
    let pile = Assignment::from_genes(&vec![0usize; problem.n()]);
    let rows = [0usize, 8, 24, 96]
        .into_iter()
        .map(|tenure| {
            let config = TabuConfig {
                tenure,
                max_iterations: 600,
                ..Default::default()
            };
            let start = Instant::now();
            let result = tabu_search(&problem, pile.clone(), &config);
            vec![
                tenure.to_string(),
                float(result.best_score.violation.max(0.0)),
                float(result.best_score.total_cost),
                result.accepted_moves.to_string(),
                millis(start),
            ]
        })
        .collect();
    Ablation {
        name: "tabu-tenure",
        title: "tabu tenure, 600 iterations from a pile-up start (m=15, light)".into(),
        columns: &["tenure", "violation", "total_cost", "moves", "time_ms"],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn without_wall_clock_drops_only_ms_columns() {
        let csv = "mode,time_ms,rejection,solve_ms\noff,1.5,0.25,3\n";
        assert_eq!(without_wall_clock(csv), "mode,rejection\noff,0.25\n");
    }

    #[test]
    fn negative_zero_prints_as_zero() {
        assert_eq!(float(-0.0), "0.000000");
        assert_eq!(float((-0.0_f64).max(0.0)), "0.000000");
    }

    #[test]
    fn render_aligns_columns_under_the_heading() {
        let table = Ablation {
            name: "demo",
            title: "a demo".into(),
            columns: &["k", "value_ms"],
            rows: vec![vec!["long-key".into(), "1".into()]],
        };
        assert_eq!(
            table.render(),
            "ablation demo — a demo\n        k value_ms\n long-key        1\n"
        );
        assert_eq!(table.csv(), "k,value_ms\nlong-key,1\n");
    }
}
