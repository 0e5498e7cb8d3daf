//! # cpo-model — the consumer-and-provider IaaS allocation model
//!
//! Rust implementation of the optimisation model of
//! *Ecarot, Zeghlache, Brandily — "Consumer-and-Provider-oriented efficient
//! IaaS resource allocation" (IEEE IPDPSW 2017)*, Section III.
//!
//! The model describes a provider substrate of `g` datacenters holding `m`
//! servers, a consumer demand of `n` virtual resources over `h` shared
//! attributes, and asks for a placement `X_{ijk}` minimising three
//! monetised objectives (usage+opex, downtime, migration — Eq. 15) under
//! capacity (Eq. 16), completeness (Eq. 17) and affinity/anti-affinity
//! constraints (Eqs. 18–21).
//!
//! ## Layout
//!
//! * [`attr`] — shared attribute descriptors (`H`, Table I)
//! * [`matrix`] — flat row-major matrices backing `P`, `C`, `F`, `L`, `Q`
//! * [`infrastructure`] — datacenters, servers, capacities, cost vectors
//! * [`request`] — consumer VMs, requests, demand matrix `C`
//! * [`affinity`] — the four placement rules (Eqs. 9–12) + linearisation
//! * [`assignment`] — the `X_{ijk}` mapping variable, stored flat
//! * [`load`] — Eq. 25 loads with O(h) incremental updates
//! * [`qos`] — the Eq. 24 piecewise QoS curve
//! * [`cost`] — the Eq. 15 objective vector (Eqs. 22, 23, 26)
//! * [`delta`] — incremental O(h) move scoring for local search
//! * [`eval_pool`] — one reusable [`delta::DeltaEvaluator`] per scorer
//! * [`deadline`] — wall-clock deadlines for anytime solvers
//! * [`fleet`] — packed VM/server-load tables for production-scale replay
//! * [`ilp`] — the explicit 0/1 integer program (Section III's LP view)
//! * [`constraints`] — violation checking and reporting (Fig. 10 metric)
//! * [`problem`] — [`problem::AllocationProblem`] bundling everything
//!
//! ## Quick example
//!
//! ```
//! use cpo_model::prelude::*;
//!
//! // Provider: one datacenter, two commodity servers.
//! let profile = ServerProfile::commodity(3);
//! let infra = Infrastructure::new(
//!     AttrSet::standard(),
//!     vec![("paris-1".into(), profile.build_many(2))],
//! );
//!
//! // Consumer: a two-VM request that must be split across servers.
//! let mut batch = RequestBatch::new();
//! batch.push_request(
//!     vec![vm_spec(4.0, 8192.0, 100.0), vm_spec(4.0, 8192.0, 100.0)],
//!     vec![AffinityRule::new(AffinityKind::DifferentServer, vec![VmId(0), VmId(1)])],
//! );
//! let problem = AllocationProblem::new(infra, batch, None);
//!
//! // Place them and evaluate.
//! let mut x = Assignment::unassigned(2);
//! x.assign(VmId(0), ServerId(0));
//! x.assign(VmId(1), ServerId(1));
//! assert!(problem.is_feasible(&x));
//! let z = problem.evaluate(&x);
//! assert!(z.total() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod affinity;
pub mod assignment;
pub mod attr;
pub mod constraints;
pub mod cost;
pub mod deadline;
pub mod delta;
pub mod eval_pool;
pub mod fleet;
pub mod ilp;
pub mod infrastructure;
pub mod load;
pub mod matrix;
pub mod problem;
pub mod qos;
pub mod request;

/// Convenient glob import of the most-used model types.
pub mod prelude {
    pub use crate::affinity::{AffinityKind, AffinityRule, LinearizedRule, RuleView};
    pub use crate::assignment::Assignment;
    pub use crate::attr::{AttrId, AttrKind, AttrSet};
    pub use crate::constraints::{Violation, ViolationReport};
    pub use crate::cost::ObjectiveVector;
    pub use crate::deadline::Deadline;
    pub use crate::delta::{DeltaEvaluator, MoveScore};
    pub use crate::eval_pool::EvaluatorPool;
    pub use crate::fleet::{ServerLoadTable, VmTable, NO_SLOT};
    pub use crate::infrastructure::{
        Datacenter, DatacenterId, Infrastructure, Server, ServerId, ServerParams, ServerProfile,
    };
    pub use crate::load::{HeadroomCeiling, LoadTracker};
    pub use crate::matrix::Matrix;
    pub use crate::problem::AllocationProblem;
    pub use crate::request::{
        vm_spec, Request, RequestBatch, RequestId, VmId, VmRange, VmSpec, VmTerms,
    };
}
