//! The one window-engine interface.
//!
//! [`WindowBackend`] is what a window loop needs from a platform. The
//! continuous-time `WindowedScheduler` (in `cpo-des`) is generic over
//! it; [`crate::executor::WindowExecutor`], [`crate::fleet::FleetExecutor`]
//! and [`crate::shard::ShardedScheduler`] implement it.

use crate::accounting::WindowReport;
use crate::tenant::TenantId;
use cpo_core::prelude::{AllocationOutcome, Allocator};
use cpo_model::prelude::{AllocationProblem, RequestBatch, ServerId};
use std::time::{Duration, Instant};

/// The window-engine surface `WindowedScheduler` drives: everything the
/// continuous-time loop needs from a platform, abstracted so the same
/// scheduler runs over the full reconfiguration engine
/// ([`WindowExecutor`](crate::executor::WindowExecutor)) or the streaming
/// admission-only one ([`FleetExecutor`](crate::fleet::FleetExecutor)).
pub trait WindowBackend {
    /// Assigns sequential tenant ids to an arrival batch.
    fn register_arrivals(&mut self, arrivals: &RequestBatch) -> Vec<TenantId>;
    /// Binds tenant ids to flight-recorder correlation keys.
    fn bind_request_keys(&mut self, ids: &[TenantId], keys: &[u64]);
    /// Solves one window over the registered arrivals; departures are
    /// external (the scheduler owns holding times).
    ///
    /// Ordering contract: the returned admitted ids are a subsequence of
    /// `ids`, in arrival order (admitted ⊆ ids, in arrival order). The
    /// scheduler pairs each admitted tenant with its holding time in one
    /// forward walk over both lists and panics when the contract breaks.
    fn execute_window(
        &mut self,
        allocator: &dyn Allocator,
        arrivals: &RequestBatch,
        ids: &[TenantId],
    ) -> (WindowReport, Vec<TenantId>);
    /// Removes one resident tenant; `false` when not resident.
    fn depart_tenant(&mut self, id: TenantId) -> bool;
    /// Marks a server failed; `false` when already offline.
    fn force_failure(&mut self, server: ServerId) -> bool;
    /// Repairs a server; `false` when already healthy.
    fn force_repair(&mut self, server: ServerId) -> bool;
    /// Number of servers `m`.
    fn server_count(&self) -> usize;
    /// Requests currently resident (sizes the window problem for the
    /// per-request latency model).
    fn resident_requests(&self) -> usize;
}

/// Solves one window's problem on the calling thread and times it; with
/// the latency profiler on, the solve is also reported as round 0's
/// single-shard solve phase.
pub(crate) fn timed_solve(
    allocator: &dyn Allocator,
    problem: &AllocationProblem,
    window: u64,
) -> (AllocationOutcome, Duration) {
    let prof_on = cpo_obs::prof::is_enabled();
    let start_us = if prof_on { cpo_obs::now_us() } else { 0 };
    let start = Instant::now();
    let outcome = allocator.allocate(problem);
    let solve_time = start.elapsed();
    if prof_on {
        let shard_us = [solve_time.as_micros() as u64];
        cpo_obs::prof::solve_phase(window, 0, start_us, cpo_obs::now_us(), &shard_us);
    }
    (outcome, solve_time)
}
