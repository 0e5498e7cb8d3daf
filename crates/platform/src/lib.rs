//! # cpo-platform — the IaaS platform simulator
//!
//! The paper's scheduler "is aware of the cloud platform status in real
//! time" and batches "all requests within a cyclic time window during the
//! execution of the allocation optimization process". This crate provides
//! that operational substrate:
//!
//! * [`tenant`] — accepted requests living across windows with their
//!   affinity rules and lifetimes, and [`tenant::TenantTable`], the
//!   dense per-tenant storage indexed by tenant id;
//! * [`executor`] — [`executor::WindowExecutor`], the cyclic window loop:
//!   departures → arrivals → solve (any
//!   [`cpo_core::allocator::Allocator`]) → apply reconfiguration plan
//!   (migrations, Eq. 26) → admit/reject, run fixed-step by
//!   [`executor::WindowExecutor::step`];
//! * [`backend`] — [`backend::WindowBackend`], the one window-engine
//!   trait every engine implements and the `cpo-des` scheduler drives,
//!   and the one panic-guarded solve every engine calls;
//! * [`lifecycle`] — `Lifecycle`, the one recorder of tenant lifecycles
//!   both engines share (id minting, flight correlation keys, lifecycle
//!   flight events, window-close metrics), and the append-only
//!   [`lifecycle::EventLog`] `WindowExecutor` keeps;
//! * [`accounting`] — per-window and per-run metrics (provider cost,
//!   downtime, migrations, rejection rate);
//! * [`fleet`] — [`fleet::FleetExecutor`], the memory-lean admission-only
//!   engine for production-scale trace replay (packed tables, residual
//!   headroom, the same lifecycle records but no event log);
//! * [`shard`] — [`shard::ShardedScheduler`], sharded admission over
//!   either engine through the optimistic-commit [`store`].
//!
//! Running tenants are never evicted: if the optimizer's plan drops one,
//! the platform keeps its previous placement and pays only planned
//! migrations. Admission is judged on that applied plan, so nothing is
//! admitted into capacity a kept tenant still holds.
//!
//! ```
//! use cpo_model::prelude::*;
//! use cpo_model::attr::AttrSet;
//! use cpo_platform::prelude::*;
//! use cpo_core::prelude::RoundRobinAllocator;
//!
//! let infra = Infrastructure::new(
//!     AttrSet::standard(),
//!     vec![("dc".into(), ServerProfile::commodity(3).build_many(8))],
//! );
//! let mut sim = WindowExecutor::new(infra, SimConfig::default());
//! let report = sim.run(&RoundRobinAllocator, 5);
//! assert_eq!(report.windows.len(), 5);
//! assert!(sim.verify_state().is_feasible());
//! ```

#![warn(missing_docs)]

pub mod accounting;
pub mod backend;
pub mod executor;
pub mod fleet;
pub mod lifecycle;
pub mod network;
pub mod probe;
pub mod shard;
pub mod sla;
pub mod store;
pub mod tenant;

/// The most-used simulator types.
pub mod prelude {
    pub use crate::accounting::{SimReport, WindowReport};
    pub use crate::backend::WindowBackend;
    pub use crate::executor::{LifetimePolicy, SimConfig, WindowExecutor};
    pub use crate::fleet::FleetExecutor;
    pub use crate::lifecycle::{Event, EventLog, EVENT_LOG_SCHEMA_VERSION};
    pub use crate::network::{FlowAdmission, NetworkModel};
    pub use crate::shard::{PartitionStrategy, ShardBackend, ShardConfig, ShardedScheduler};
    pub use crate::sla::{SlaLedger, SlaRecord};
    pub use crate::store::{
        CommitCtx, ConflictReason, PlacementStore, StoreMetrics, StoreSnapshot,
    };
    pub use crate::tenant::{Tenant, TenantId};
}
