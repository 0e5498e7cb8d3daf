//! # cpo-tabu — tabu search and the constraint-repair operator
//!
//! The paper's contribution hybridises NSGA-III with a tabu search used as
//! a *repair* operator (Figs. 4–6): whenever an individual violates the
//! user constraints, the tabu search scans the servers whose constraints
//! are exceeded and relocates each offending VM to the nearest valid
//! neighbour server. This crate provides:
//!
//! * [`list`] — the classic bounded tabu list (Glover 1986);
//! * [`mod@repair`] — the paper's REPAIR / FINDNEIGHBOR procedures
//!   (Figs. 5–6), generalised to affinity violations and configurable
//!   scan orders (first-fit, nearest-first, best-cost) for ablations;
//! * [`search`] — a standalone tabu-search optimiser over assignments
//!   (relocation neighbourhood, aspiration criterion) used for polishing
//!   and ablation baselines; one serial scan in canonical order,
//!   anytime (deadline-bounded) and observable.
//!
//! ```
//! use cpo_model::prelude::*;
//! use cpo_model::attr::AttrSet;
//! use cpo_tabu::repair::{repair, RepairConfig};
//!
//! let infra = Infrastructure::new(
//!     AttrSet::standard(),
//!     vec![("dc".into(), ServerProfile::commodity(3).build_many(2))],
//! );
//! let mut batch = RequestBatch::new();
//! batch.push_request(vec![vm_spec(20.0, 1.0, 1.0), vm_spec(20.0, 1.0, 1.0)], vec![]);
//! let problem = AllocationProblem::new(infra, batch, None);
//!
//! // Both 20-vCPU VMs on one 28.8-vCPU server: invalid individual.
//! let mut x = Assignment::from_genes(&[0, 0]);
//! let outcome = repair(&problem, &mut x, &RepairConfig::default());
//! assert!(outcome.feasible);
//! ```

#![warn(missing_docs)]

pub mod list;
pub mod repair;
pub mod search;

pub use list::{TabuList, TabuMove};
pub use repair::{
    faulty_vms, find_neighbour, repair, repair_on, RepairConfig, RepairOutcome, ScanOrder,
};
pub use search::{
    score, tabu_search, tabu_search_observed, Neighborhood, NoObserver, Score, Scoring,
    SearchObserver, TabuConfig, TabuResult,
};
