//! # cpo-exper — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation section:
//!
//! | artefact | function | metric |
//! |---|---|---|
//! | Table III | [`figures::table3`] | NSGA settings |
//! | Fig. 7 | [`figures::fig7`] | execution time, few resources |
//! | Fig. 8 | [`figures::fig8`] | execution time, many resources |
//! | Figs. 9–11, `ext-cpr`, `ext-rev` | [`figures::quality_figures`] | rejection rate, violated constraints, provider cost, cost per accepted request, net revenue |
//! | `ext-conv` | [`convergence::convergence_study`] | per-generation progress |
//! | ablations | [`ablation::all`] | the design choices DESIGN.md §5 calls out |
//!
//! All six algorithms run on *identical* seeded problem instances per run
//! (paired comparison), aggregated with mean/std/min/max. The `exper`
//! binary renders ASCII tables and CSV; [`runner::Effort::Paper`] uses the
//! paper's Table III budgets and 100 runs, [`runner::Effort::Quick`]
//! scales down for CI while preserving the qualitative shapes.

#![warn(missing_docs)]

pub mod ablation;
pub mod chart;
pub mod convergence;
pub mod figures;
pub mod markdown;
pub mod metrics;
pub mod report;
pub mod runner;
