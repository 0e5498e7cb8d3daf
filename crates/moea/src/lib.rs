//! # cpo-moea — NSGA-II / NSGA-III evolutionary engine
//!
//! A from-scratch multi-objective evolutionary framework providing what the
//! paper takes from its (Java) MOEA framework: NSGA-II (Deb et al. 2002),
//! NSGA-III (Deb & Jain 2014) and U-NSGA-III (Seada & Deb 2014 — the
//! paper's ref. 28) with simulated binary crossover,
//! polynomial mutation, fast non-dominated sorting, crowding distance,
//! Das–Dennis reference points, niching, constraint-domination — plus the
//! repair hook of the paper's Fig. 4 through which the tabu search (or any
//! other fixer) plugs into the reproduction pipeline.
//!
//! Populations evaluate serially, in index order, so runs are
//! deterministic given a seed.
//!
//! ```
//! use cpo_moea::prelude::*;
//!
//! // Minimise the classic SCH problem with the paper's Table III settings.
//! struct Sch;
//! impl MoeaProblem for Sch {
//!     fn n_vars(&self) -> usize { 1 }
//!     fn n_objectives(&self) -> usize { 2 }
//!     fn bounds(&self, _: usize) -> (f64, f64) { (-1e3, 1e3) }
//!     fn evaluate(&self, g: &[f64]) -> Evaluation {
//!         Evaluation::feasible(vec![g[0] * g[0], (g[0] - 2.0) * (g[0] - 2.0)])
//!     }
//! }
//! let cfg = NsgaConfig { max_evaluations: 2_000, ..NsgaConfig::paper_defaults(Variant::Nsga2) };
//! let result = run(&Sch, &cfg, None);
//! assert!(!result.first_front().is_empty());
//! ```

#![warn(missing_docs)]

pub mod crowding;
pub mod engine;
pub mod hv;
pub mod individual;
pub mod nsga3;
pub mod operators;
pub mod problem;
pub mod quality;
pub mod refpoints;
pub mod selection;
pub mod sort;

/// The most-used engine types.
pub mod prelude {
    pub use crate::engine::{
        run, GenStats, MoeaResult, NsgaConfig, Operators, Repair, RepairMode, Variant,
    };
    pub use crate::hv::hypervolume;
    pub use crate::individual::Individual;
    pub use crate::operators::{
        polynomial_mutation, reset_mutation, sbx, uniform_crossover, PmParams, SbxParams,
    };
    pub use crate::problem::{Evaluation, MoeaProblem};
    pub use crate::quality::{igd, igd_plus, spacing};
    pub use crate::refpoints::das_dennis;
}
