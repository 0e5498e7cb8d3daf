//! The one window-engine interface and the one guarded solve.
//!
//! [`WindowBackend`] is what a window loop needs from a platform. The
//! continuous-time `WindowedScheduler` (in `cpo-des`) is generic over
//! it; [`crate::executor::WindowExecutor`], [`crate::fleet::FleetExecutor`]
//! and [`crate::shard::ShardedScheduler`] implement it.
//!
//! Every engine hands its allocator a problem through the crate-private
//! `solve_round`, and only what it accepts reaches platform state. The
//! two native engines solve a one-part round; the sharded scheduler
//! solves one part per shard. The round builds and solves its parts in
//! part order on the calling thread, times each part's `allocate` alone,
//! and reports the round to the latency profiler. An allocator that panics does not abort the
//! run: its part comes back unsolved — every request not accepted — the
//! `platform.solver_panics` counter moves and a
//! [`FlightKind::SolverPanicked`] event records the window and part.
//!
//! Acceptance is judged on the plan the engine applies. A request the
//! allocator did not accept keeps its `previous` servers (a running
//! tenant is never evicted), so acceptance is re-checked against those
//! restored placements until it is stable: an arrival or a moved
//! resident is never admitted into capacity a kept resident still
//! holds. Problems without `previous` get exactly
//! [`AllocationProblem::accepted_mask`].
//!
//! [`FlightKind::SolverPanicked`]: cpo_obs::flight::FlightKind::SolverPanicked

use crate::accounting::WindowReport;
use crate::tenant::TenantId;
use cpo_core::prelude::Allocator;
use cpo_model::prelude::{AllocationProblem, Assignment, RequestBatch, ServerId};
use cpo_obs::flight;
use std::panic::{catch_unwind, AssertUnwindSafe};
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

/// One part of a solve round, as its engine will apply it.
pub(crate) struct Solved<'a> {
    /// The part's problem.
    pub problem: AllocationProblem<'a>,
    /// The allocator's answer; all unplaced when the solve panicked.
    pub assignment: Assignment,
    /// Per request of `problem`: does the applied plan admit it?
    pub accepted: Vec<bool>,
}

/// Solves one round of `parts` problems in part order, `build_part(p)`
/// building part `p` just before it is solved. Returns every part in
/// order plus the round's critical path: the slowest part's `allocate`
/// time, as if the parts had solved side by side.
pub(crate) fn solve_round<'a>(
    allocator: &dyn Allocator,
    window: u64,
    round: u64,
    parts: usize,
    build_part: impl Fn(usize) -> AllocationProblem<'a>,
) -> (Vec<Solved<'a>>, Duration) {
    let prof_on = cpo_obs::prof::is_enabled();
    let start_us = if prof_on { cpo_obs::now_us() } else { 0 };
    let results: Vec<_> = (0..parts)
        .map(|p| solve_part(allocator, build_part(p)))
        .collect();
    if prof_on {
        let part_us: Vec<u64> = results.iter().map(|r| r.1.as_micros() as u64).collect();
        cpo_obs::prof::solve_phase(window, round, start_us, cpo_obs::now_us(), &part_us);
    }
    for (p, _) in results.iter().enumerate().filter(|(_, r)| r.2) {
        cpo_obs::counter_add("platform.solver_panics", 1);
        let kind = flight::FlightKind::SolverPanicked;
        flight::record(kind, flight::NONE, flight::NONE, window, p as u64);
    }
    let critical = results.iter().map(|r| r.1).max().unwrap_or(Duration::ZERO);
    (results.into_iter().map(|r| r.0).collect(), critical)
}

/// Solves one part under the panic guard. Returns it with its `allocate`
/// time and whether the allocator (or its malformed answer) panicked, in
/// which case nothing is accepted.
fn solve_part<'a>(
    allocator: &dyn Allocator,
    problem: AllocationProblem<'a>,
) -> (Solved<'a>, Duration, bool) {
    let mut solve_time = Duration::ZERO;
    let answer = catch_unwind(AssertUnwindSafe(|| {
        let start = Instant::now();
        let assignment = allocator.allocate(&problem).assignment;
        solve_time = start.elapsed();
        let accepted = applied_mask(&problem, &assignment);
        (assignment, accepted)
    }));
    let panicked = answer.is_err();
    let (assignment, accepted) = answer.unwrap_or_else(|_| {
        let batch = problem.batch();
        let unplaced = Assignment::unassigned(batch.vm_count());
        (unplaced, vec![false; batch.request_count()])
    });
    let solved = Solved {
        problem,
        assignment,
        accepted,
    };
    (solved, solve_time, panicked)
}

/// The acceptance mask of the plan an engine applies: requests the
/// allocator did not accept keep their `previous` servers, and a request
/// it did accept stays accepted only while it also fits beside those.
/// Acceptance only ever shrinks, so the loop ends.
fn applied_mask(problem: &AllocationProblem, assignment: &Assignment) -> Vec<bool> {
    let mut accepted = problem.accepted_mask(assignment);
    let Some(previous) = problem.previous() else {
        return accepted;
    };
    loop {
        let mut plan = assignment.clone();
        let requests = problem.batch().requests();
        for (req, _) in requests.iter().zip(&accepted).filter(|(_, &ok)| !ok) {
            for k in req.vms {
                match previous.server_of(k) {
                    Some(j) => plan.assign(k, j),
                    None => plan.unassign(k),
                }
            }
        }
        let mut changed = false;
        for (ok, fits) in accepted.iter_mut().zip(problem.accepted_mask(&plan)) {
            if *ok && !fits {
                *ok = false;
                changed = true;
            }
        }
        if !changed {
            return accepted;
        }
    }
}
