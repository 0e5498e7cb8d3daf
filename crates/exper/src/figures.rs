//! Per-figure experiment definitions. Each function regenerates the data
//! behind one figure of the paper's evaluation section.

use crate::metrics::Stat;
use crate::runner::{run_sweep, Algorithm, Cell, Effort};
use cpo_scenario::prelude::{
    few_resources_sweep, many_resources_sweep, quality_sweep, ScenarioSize,
};

/// Which metric a figure plots.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Metric {
    /// Mean execution time in milliseconds.
    TimeMs,
    /// Mean rejection rate.
    RejectionRate,
    /// Mean violated-constraint count.
    Violations,
    /// Mean provider cost.
    ProviderCost,
    /// Mean provider cost per accepted request (extension: the paper's
    /// proposed future-work normalisation).
    CostPerRequest,
    /// Mean net revenue (extension: the conclusion's revenue argument).
    NetRevenue,
}

impl Metric {
    /// Extracts the metric's mean from a cell.
    pub fn mean_of(self, cell: &Cell) -> f64 {
        self.stat_of(cell).mean
    }

    /// Extracts the metric's full summary from a cell.
    pub fn stat_of(self, cell: &Cell) -> Stat {
        match self {
            Metric::TimeMs => cell.metrics.time_ms,
            Metric::RejectionRate => cell.metrics.rejection_rate,
            Metric::Violations => cell.metrics.violations,
            Metric::ProviderCost => cell.metrics.provider_cost,
            Metric::CostPerRequest => cell.metrics.cost_per_request,
            Metric::NetRevenue => cell.metrics.net_revenue,
        }
    }

    /// Axis label.
    pub fn label(self) -> &'static str {
        match self {
            Metric::TimeMs => "time [ms]",
            Metric::RejectionRate => "rejection rate",
            Metric::Violations => "violated constraints",
            Metric::ProviderCost => "provider cost",
            Metric::CostPerRequest => "cost / accepted request",
            Metric::NetRevenue => "net revenue",
        }
    }
}

/// The data behind one figure: series per algorithm over the size axis.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Figure id ("fig7" … "fig11", "ext-cpr", "ext-rev").
    pub id: &'static str,
    /// Human title (mirrors the paper's caption).
    pub title: &'static str,
    /// The metric plotted.
    pub metric: Metric,
    /// X axis: problem sizes.
    pub sizes: Vec<ScenarioSize>,
    /// The raw sweep cells (size-major).
    pub cells: Vec<Cell>,
}

impl Figure {
    /// The series of `(servers, metric-mean)` points for one algorithm.
    pub fn series(&self, algorithm: Algorithm) -> Vec<(usize, f64)> {
        self.cells
            .iter()
            .filter(|c| c.algorithm == algorithm)
            .map(|c| (c.size.servers, self.metric.mean_of(c)))
            .collect()
    }

    /// Algorithms present in the figure, in the paper's order.
    pub fn algorithms(&self) -> Vec<Algorithm> {
        Algorithm::all()
            .into_iter()
            .filter(|a| self.cells.iter().any(|c| c.algorithm == *a))
            .collect()
    }
}

fn scaled(sweep: Vec<ScenarioSize>, effort: Effort) -> Vec<ScenarioSize> {
    // Quick effort trims the largest sizes so the full suite stays
    // CI-sized; the shape (ordering, crossover) is preserved.
    match effort {
        Effort::Paper => sweep,
        Effort::Quick => sweep
            .into_iter()
            .map(|s| ScenarioSize::with_servers((s.servers / 2).max(6)))
            .collect(),
    }
}

/// Fig. 7 — average execution time with **few** resources. Expected
/// shape: Round Robin and CP fastest; evolutionary algorithms 2–3×
/// slower (deeper exploration).
pub fn fig7(effort: Effort, runs: usize, seed: u64) -> Figure {
    let sizes = scaled(few_resources_sweep(), effort);
    let cells = run_sweep(&Algorithm::all(), &sizes, effort, runs, false, seed);
    Figure {
        id: "fig7",
        title: "Average execution time, few resources",
        metric: Metric::TimeMs,
        sizes,
        cells,
    }
}

/// Fig. 8 — average execution time with **many** resources (up to 800
/// servers / 1600 VMs). Expected shape: CP and the CP hybrid blow up;
/// NSGA-III + tabu stays scalable.
pub fn fig8(effort: Effort, runs: usize, seed: u64) -> Figure {
    let sizes = scaled(many_resources_sweep(), effort);
    let cells = run_sweep(&Algorithm::all(), &sizes, effort, runs, false, seed);
    Figure {
        id: "fig8",
        title: "Average execution time, many resources",
        metric: Metric::TimeMs,
        sizes,
        cells,
    }
}

/// Figs. 9–11 and the two extension figures plot five metrics of one
/// sweep (the affinity-heavy quality workload); this runs it once and
/// returns the five figures, with ids `fig9`, `fig10`, `fig11`,
/// `ext-cpr` and `ext-rev`, in that order.
///
/// * Fig. 9 — rejection rate. Expected shape: the tabu hybrid lowest;
///   Round Robin and unmodified NSGA highest.
/// * Fig. 10 — violated constraints. Expected shape: only unmodified
///   NSGA-II / NSGA-III violate; every other algorithm is zero.
/// * Fig. 11 — provider cost. Expected shape: CP, NSGA-III+CP and the
///   tabu hybrid lowest (the hybrid slightly above CP while accepting
///   more requests); unmodified NSGA highest.
/// * `ext-cpr` — provider cost per accepted request, the normalisation
///   the paper's conclusion proposes as future work; it removes the cost
///   advantage of rejecting.
/// * `ext-rev` — net provider revenue, the conclusion's argument made
///   quantitative: acceptance earns, rejection doesn't, violations cost.
pub fn quality_figures(effort: Effort, runs: usize, seed: u64) -> [Figure; 5] {
    let sizes = scaled(quality_sweep(), effort);
    let cells = run_sweep(&Algorithm::all(), &sizes, effort, runs, true, seed);
    [
        (
            "fig9",
            "Rejection rate vs problem size",
            Metric::RejectionRate,
        ),
        (
            "fig10",
            "Violated constraints vs problem size",
            Metric::Violations,
        ),
        (
            "fig11",
            "Average provider cost per algorithm",
            Metric::ProviderCost,
        ),
        (
            "ext-cpr",
            "Provider cost per accepted request (future-work metric)",
            Metric::CostPerRequest,
        ),
        (
            "ext-rev",
            "Net provider revenue (extension metric)",
            Metric::NetRevenue,
        ),
    ]
    .map(|(id, title, metric)| Figure {
        id,
        title,
        metric,
        sizes: sizes.clone(),
        cells: cells.clone(),
    })
}

/// Table III — the NSGA settings. Returns `(parameter, value)` rows.
pub fn table3() -> Vec<(&'static str, String)> {
    let c = Effort::Paper.nsga_config();
    vec![
        ("populationSize", format!("{}", c.population_size)),
        ("Number of evaluations", format!("{}", c.max_evaluations)),
        ("sbx.rate", format!("{:.2}", c.sbx.rate)),
        (
            "sbx.distributionIndex",
            format!("{:.2}", c.sbx.distribution_index),
        ),
        ("pm.rate", format!("{:.2}", c.pm.rate)),
        (
            "pm.distributionIndex",
            format!("{:.2}", c.pm.distribution_index),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_matches_the_paper() {
        let rows = table3();
        assert_eq!(rows[0], ("populationSize", "100".to_string()));
        assert_eq!(rows[1].1, "10000");
        assert_eq!(rows[2].1, "0.70");
        assert_eq!(rows[3].1, "15.00");
        assert_eq!(rows[4].1, "0.20");
        assert_eq!(rows[5].1, "15.00");
    }

    #[test]
    fn quick_scaling_preserves_order_and_caps_size() {
        let sizes = scaled(many_resources_sweep(), Effort::Quick);
        assert!(sizes.iter().all(|s| s.servers <= 400));
        assert!(sizes.windows(2).all(|w| w[0].servers <= w[1].servers));
    }

    #[test]
    fn metric_extracts_the_right_field() {
        use crate::metrics::{AggregateMetrics, Stat};
        let cell = Cell {
            algorithm: Algorithm::RoundRobin,
            size: ScenarioSize::with_servers(10),
            metrics: AggregateMetrics {
                time_ms: Stat {
                    mean: 1.0,
                    ..Default::default()
                },
                rejection_rate: Stat {
                    mean: 2.0,
                    ..Default::default()
                },
                violations: Stat {
                    mean: 3.0,
                    ..Default::default()
                },
                provider_cost: Stat {
                    mean: 4.0,
                    ..Default::default()
                },
                cost_per_request: Stat {
                    mean: 5.0,
                    ..Default::default()
                },
                net_revenue: Stat {
                    mean: 6.0,
                    ..Default::default()
                },
                runs: 1,
            },
        };
        assert_eq!(Metric::TimeMs.mean_of(&cell), 1.0);
        assert_eq!(Metric::TimeMs.stat_of(&cell).mean, 1.0);
        assert_eq!(Metric::RejectionRate.mean_of(&cell), 2.0);
        assert_eq!(Metric::Violations.mean_of(&cell), 3.0);
        assert_eq!(Metric::ProviderCost.mean_of(&cell), 4.0);
        assert_eq!(Metric::CostPerRequest.mean_of(&cell), 5.0);
        assert_eq!(Metric::NetRevenue.mean_of(&cell), 6.0);
    }
}
