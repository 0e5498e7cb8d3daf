//! # cpo-des — continuous-time discrete-event simulation kernel
//!
//! The fixed-step loop ([`cpo_platform::prelude::WindowExecutor::step`])
//! advances in whole scheduling windows; real platforms live in
//! continuous time, where requests arrive mid-window, tenants hold
//! resources for real-valued durations and the optimiser's own execution
//! time delays everyone behind it. This crate supplies that timeline:
//!
//! * [`time`] — a finite, totally ordered simulation clock;
//! * [`queue`] — the deterministic future-event list: timestamp order
//!   with stable FIFO tie-breaking;
//! * [`sources`] — the [`sources::ArrivalSource`] trait, seeded Poisson
//!   arrivals and MTBF/MTTR failure processes;
//! * [`scheduler`] — [`scheduler::WindowedScheduler`]: accumulates
//!   arrivals into cyclic windows, invokes any
//!   [`cpo_core::prelude::Allocator`] at boundaries through any
//!   [`cpo_platform::prelude::WindowBackend`] (by default the shared
//!   [`cpo_platform::prelude::WindowExecutor`]), and feeds solve latency
//!   back into the timeline (slow solves delay admissions and stretch
//!   the cycle).
//!
//! ```
//! use cpo_des::prelude::*;
//! use cpo_model::attr::AttrSet;
//! use cpo_model::prelude::*;
//! use cpo_platform::prelude::SimConfig;
//! use cpo_scenario::prelude::ArrivalSpec;
//! use cpo_core::prelude::RoundRobinAllocator;
//!
//! let infra = Infrastructure::new(
//!     AttrSet::standard(),
//!     vec![("dc".into(), ServerProfile::commodity(3).build_many(8))],
//! );
//! let arrivals = PoissonArrivals::new(ArrivalSpec { rate: 2.0, ..Default::default() }, 42);
//! let des = DesConfig { latency: LatencyModel::Fixed(0.1), ..Default::default() };
//! let mut sched = WindowedScheduler::new(infra, SimConfig::default(), des, arrivals);
//! let report = sched.run(&RoundRobinAllocator, 20.0);
//! assert!(report.waiting.count > 0);
//! assert!(report.waiting.mean() >= 0.1); // solves take 0.1 time units
//! ```

#![warn(missing_docs)]

pub mod queue;
pub mod scheduler;
pub mod sources;
pub mod time;

/// The most-used kernel types.
pub mod prelude {
    pub use crate::queue::EventQueue;
    pub use crate::scheduler::{
        DesConfig, DesReport, FailureSpec, LatencyModel, WaitingStats, WindowedScheduler,
    };
    pub use crate::sources::{Arrival, ArrivalSource, FailureProcess, PoissonArrivals};
    pub use crate::time::SimTime;
    pub use cpo_platform::prelude::WindowBackend;
}
