//! Terminal line charts: render a figure's series as an ASCII plot, the
//! visual analogue of the paper's Figs. 7–11 for people reading
//! `exper` logs (`--chart`).

use crate::figures::Figure;
use crate::runner::Algorithm;
use std::fmt::Write as _;

/// Plot dimensions and scaling options.
#[derive(Clone, Copy, Debug)]
pub struct ChartOptions {
    /// Plot width in character cells (x axis resolution).
    pub width: usize,
    /// Plot height in character cells (y axis resolution).
    pub height: usize,
    /// Use log10 scaling on the y axis (for the execution-time figures,
    /// whose series span orders of magnitude).
    pub log_y: bool,
}

impl Default for ChartOptions {
    fn default() -> Self {
        Self {
            width: 64,
            height: 16,
            log_y: false,
        }
    }
}

/// Marker glyph per algorithm (stable across charts).
fn glyph(a: Algorithm) -> char {
    match a {
        Algorithm::RoundRobin => 'r',
        Algorithm::ConstraintProgramming => 'c',
        Algorithm::Nsga2 => '2',
        Algorithm::Nsga3 => '3',
        Algorithm::Nsga3Cp => 'p',
        Algorithm::Nsga3Tabu => 'T',
        Algorithm::Filtering => 'f',
        Algorithm::WeightedGa => 'w',
        Algorithm::TabuSearch => 't',
        Algorithm::Race => 'R',
    }
}

fn transform(v: f64, log_y: bool) -> f64 {
    if log_y {
        (v.max(1e-9)).log10()
    } else {
        v
    }
}

/// Renders the figure as an ASCII chart with one marker series per
/// algorithm and a legend. Series points are positioned by the size index
/// on x and the (optionally log-scaled) metric mean on y.
pub fn render_chart(fig: &Figure, options: &ChartOptions) -> String {
    let algorithms = fig.algorithms();
    let n_sizes = fig.sizes.len();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} — {} [{}{}]",
        fig.id,
        fig.title,
        fig.metric.label(),
        if options.log_y { ", log scale" } else { "" }
    );
    if n_sizes == 0 || algorithms.is_empty() {
        let _ = writeln!(out, "(no data)");
        return out;
    }

    // Gather all transformed values to fix the y range.
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    let mut series: Vec<(Algorithm, Vec<f64>)> = Vec::new();
    for &a in &algorithms {
        let values: Vec<f64> = fig
            .series(a)
            .iter()
            .map(|&(_, v)| transform(v, options.log_y))
            .collect();
        for &v in &values {
            if v.is_finite() {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        series.push((a, values));
    }
    if !lo.is_finite() || !hi.is_finite() {
        let _ = writeln!(out, "(no finite data)");
        return out;
    }
    if hi - lo < 1e-12 {
        hi = lo + 1.0;
    }

    let (w, h) = (options.width.max(n_sizes), options.height.max(4));
    let mut grid = vec![vec![' '; w]; h];
    let x_of = |idx: usize| {
        if n_sizes == 1 {
            0
        } else {
            idx * (w - 1) / (n_sizes - 1)
        }
    };
    let y_of = |v: f64| {
        let frac = (v - lo) / (hi - lo);
        let row = ((1.0 - frac) * (h - 1) as f64).round() as usize;
        row.min(h - 1)
    };
    for (a, values) in &series {
        for (idx, &v) in values.iter().enumerate() {
            if v.is_finite() {
                let (x, y) = (x_of(idx), y_of(v));
                let cell = &mut grid[y][x];
                // Overlapping markers become '*'.
                *cell = if *cell == ' ' { glyph(*a) } else { '*' };
            }
        }
    }

    let label_hi = if options.log_y {
        format!("1e{hi:.1}")
    } else {
        format!("{hi:.2}")
    };
    let label_lo = if options.log_y {
        format!("1e{lo:.1}")
    } else {
        format!("{lo:.2}")
    };
    for (row, line) in grid.iter().enumerate() {
        let margin = if row == 0 {
            format!("{label_hi:>10} ")
        } else if row == h - 1 {
            format!("{label_lo:>10} ")
        } else {
            " ".repeat(11)
        };
        let _ = writeln!(out, "{margin}|{}", line.iter().collect::<String>());
    }
    let _ = writeln!(out, "{}+{}", " ".repeat(11), "-".repeat(w));
    let _ = writeln!(
        out,
        "{} {}  ->  {}",
        " ".repeat(11),
        fig.sizes.first().map(|s| s.label()).unwrap_or_default(),
        fig.sizes.last().map(|s| s.label()).unwrap_or_default()
    );
    let _ = write!(out, "{}legend: ", " ".repeat(11));
    for &a in &algorithms {
        let _ = write!(out, "{}={} ", glyph(a), a.label());
    }
    let _ = writeln!(out, "(*=overlap)");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::Metric;
    use crate::metrics::{AggregateMetrics, Stat};
    use crate::runner::Cell;
    use cpo_scenario::prelude::ScenarioSize;

    fn figure(values: &[(Algorithm, f64)]) -> Figure {
        let size = ScenarioSize::with_servers(10);
        let cells = values
            .iter()
            .map(|&(algorithm, mean)| Cell {
                algorithm,
                size: size.clone(),
                metrics: AggregateMetrics {
                    time_ms: Stat {
                        mean,
                        ..Default::default()
                    },
                    runs: 1,
                    ..Default::default()
                },
            })
            .collect();
        Figure {
            id: "fig7",
            title: "test",
            metric: Metric::TimeMs,
            sizes: vec![size],
            cells,
        }
    }

    #[test]
    fn chart_places_extremes_on_top_and_bottom_rows() {
        let fig = figure(&[(Algorithm::RoundRobin, 0.0), (Algorithm::Nsga3Tabu, 100.0)]);
        let chart = render_chart(&fig, &ChartOptions::default());
        let lines: Vec<&str> = chart.lines().collect();
        // Row 1 (first grid row) holds the max marker 'T'; the last grid
        // row holds 'r'.
        assert!(lines[1].contains('T'), "{chart}");
        let last_grid = lines[1 + ChartOptions::default().height - 1];
        assert!(last_grid.contains('r'), "{chart}");
    }

    #[test]
    fn chart_contains_legend_and_axis() {
        let fig = figure(&[(Algorithm::ConstraintProgramming, 5.0)]);
        let chart = render_chart(&fig, &ChartOptions::default());
        assert!(chart.contains("legend: c=constraint-programming"));
        assert!(chart.contains("m=10 n=20"));
        assert!(chart.contains('+'));
    }

    #[test]
    fn log_scale_compresses_magnitudes() {
        let fig = figure(&[
            (Algorithm::RoundRobin, 0.001),
            (Algorithm::Nsga3Tabu, 10_000.0),
        ]);
        let linear = render_chart(
            &fig,
            &ChartOptions {
                log_y: false,
                ..Default::default()
            },
        );
        let log = render_chart(
            &fig,
            &ChartOptions {
                log_y: true,
                ..Default::default()
            },
        );
        assert!(log.contains("log scale"));
        assert!(!linear.contains("log scale"));
        assert!(log.contains("1e4.0"));
    }

    #[test]
    fn overlapping_markers_become_stars() {
        let fig = figure(&[
            (Algorithm::RoundRobin, 5.0),
            (Algorithm::ConstraintProgramming, 5.0),
        ]);
        let chart = render_chart(&fig, &ChartOptions::default());
        assert!(chart.contains('*'), "{chart}");
    }

    #[test]
    fn empty_figure_degrades_gracefully() {
        let fig = Figure {
            id: "figX",
            title: "empty",
            metric: Metric::TimeMs,
            sizes: vec![],
            cells: vec![],
        };
        let chart = render_chart(&fig, &ChartOptions::default());
        assert!(chart.contains("(no data)"));
    }
}
