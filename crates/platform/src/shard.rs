//! Sharded window scheduling over the optimistic-commit
//! [`PlacementStore`].
//!
//! [`ShardedScheduler`] partitions each window's arrivals across N
//! worker shards. Every round, each shard solves its slice as an
//! independent admission problem on a shared [`StoreSnapshot`] — with
//! its **own** [`DeltaEvaluator`] for solution scoring, never a shared
//! pool — and the coordinator then replays the proposed placements
//! through [`PlacementStore::try_commit`] in global arrival order:
//!
//! * **committed** → the backend applies the admission (the commit
//!   already reserved the capacity);
//! * **solver-rejected** → final: within one window the residual only
//!   shrinks, so a request the solver could not fit on this round's
//!   snapshot cannot fit later;
//! * **conflicted** → the request bounced off capacity another shard
//!   took first; it is resubmitted for a re-solve on a fresh snapshot
//!   next round, up to [`ShardConfig::retry_budget`] retry rounds, after
//!   which it is force-rejected.
//!
//! Progress is guaranteed: the first commit of every round validates
//! against the very snapshot it was solved on, so each round terminates
//! at least one request. Determinism is by construction — partitioning
//! ([`PartitionStrategy`]: hash-by-region by default, round-robin on
//! arrival order for comparison) is a pure function of (snapshot,
//! remaining order), commits are applied sequentially in arrival order,
//! and shard solves are pure functions of (snapshot, slice) — so a run
//! is bit-reproducible for a fixed seed and shard count whether the
//! shards solved on real threads or serially.
//!
//! Each round's snapshot is a flat copy: two `m × h` capacity matrices
//! plus a reference to the residual's shared static table (see
//! [`Infrastructure`]). Every part solves on its own copy of that
//! residual — a masked part zeroes the servers outside its regions in
//! the copy — which then moves into the part's [`AllocationProblem`],
//! so each part copies the residual exactly once per round.
//!
//! Part 0 solves on the coordinator's own thread; when the host has ≥2
//! CPUs, parts 1..N−1 solve on `std::thread::scope` threads spawned for
//! the round, and on a single CPU all parts run serially. Each solve is
//! timed individually either way, and the *modeled* window service time
//! under the DES clock is the critical path — `max` over shards per
//! round — which is what [`WindowReport::solve_time`] carries for a
//! sharded window.
//!
//! A part whose solve panics does not abort the run: it yields no
//! solution, its requests take the unsolved path (bounce while the part
//! was masked, reject otherwise), the `shard.solver_panics` counter
//! moves and a [`FlightKind::SolverPanicked`] event records the window
//! and part.
//!
//! At `shards = 1` the scheduler is bit-identical to the unsharded
//! path: a [`WindowExecutor`] backend delegates to its native solve
//! (full reconfiguration semantics), while a [`FleetExecutor`] backend
//! still runs the store protocol — one shard solving on a snapshot of a
//! quiescent store commits every accepted request without conflict, and
//! the per-VM commit arithmetic is the same float sequence as the
//! native path (proven by `tests/sharded_equivalence.rs`).
//!
//! [`FlightKind::SolverPanicked`]: cpo_obs::flight::FlightKind::SolverPanicked

use crate::accounting::WindowReport;
use crate::backend::WindowBackend;
use crate::executor::{LifetimePolicy, WindowExecutor, WindowTotals};
use crate::fleet::FleetExecutor;
use crate::store::{CommitCtx, PlacementStore, StoreSnapshot};
use crate::tenant::TenantId;
use cpo_core::prelude::Allocator;
use cpo_model::delta::DeltaEvaluator;
use cpo_model::prelude::*;
use cpo_obs::flight;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// How a round's remaining requests are divided among the shards.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PartitionStrategy {
    /// `remaining[p] → shard p % N`. Spreads every region's demand over
    /// *all* shards — which maximises the chance that two shards race
    /// for the same servers and one of them bounces.
    RoundRobin,
    /// Hash-by-region (the default): each request's likely placement
    /// region is predicted by a greedy first-fit dry run on the
    /// snapshot's residual, and requests predicted into the same region
    /// hash to the same shard. Colocated contenders are then solved
    /// *jointly* by one shard, against a view of the residual masked to
    /// the regions that shard owns this round — so its internally
    /// consistent solution fits the live residual and cannot stray onto
    /// servers another shard's region owns. Shards therefore stop racing
    /// each other at commit time, which is what cuts the conflict rate
    /// at equal shard counts (the `store.conflict_rate` series and the
    /// PR 9 hotspot tables show the before/after). A solver rejection
    /// under a masked view is *not* final — the shard only saw part of
    /// the fleet — so it bounces into the next round like a commit
    /// conflict; the final retry round always solves unmasked, keeping
    /// rejections there genuinely final. The prediction is a pure
    /// function of (snapshot, remaining order), so determinism is
    /// preserved.
    #[default]
    RegionHash,
}

/// Sharding parameters.
#[derive(Clone, Copy, Debug)]
pub struct ShardConfig {
    /// Worker shards per window (1 = unsharded).
    pub shards: usize,
    /// Retry rounds a conflicted request may consume after its first
    /// attempt before it is force-rejected.
    pub retry_budget: usize,
    /// Request-to-shard partitioning.
    pub partition: PartitionStrategy,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            retry_budget: 3,
            partition: PartitionStrategy::default(),
        }
    }
}

/// FNV-1a — tiny, stable, and good enough to spread region keys.
fn fnv1a(key: u64) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in key.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A request's predicted placement region, from the first-fit dry run.
#[derive(Clone, Copy, Debug)]
enum Region {
    /// Fits: predicted into a datacenter (multi-datacenter fleets).
    Dc(usize),
    /// Fits: predicted onto a server (single-datacenter fleets).
    Server(usize),
    /// Fits nowhere whole; carries the arrival index so the hopeless
    /// tail spreads across shards instead of piling onto one.
    Unplaced(usize),
}

impl Region {
    fn shard_key(self) -> u64 {
        match self {
            Region::Dc(d) => fnv1a(d as u64),
            Region::Server(j) => fnv1a(j as u64),
            Region::Unplaced(i) => fnv1a(u64::MAX - i as u64),
        }
    }
}

/// Predicts each remaining request's placement region by a greedy
/// first-fit dry run over a scratch copy of the snapshot residual:
/// demands are subtracted as predicted so successive requests see the
/// space earlier ones are about to take, and a rolling cursor amortises
/// the server scan across requests. The region is the predicted
/// server's datacenter on multi-datacenter fleets (the paper's region
/// notion) and the server itself on single-datacenter ones.
fn region_plan(
    residual: &Infrastructure,
    arrivals: &RequestBatch,
    remaining: &[usize],
) -> Vec<Region> {
    let m = residual.server_count();
    let h = residual.attr_count();
    let by_datacenter = residual.datacenter_count() > 1;
    let mut room = residual.effective_matrix().clone();
    let mut cursor = 0usize;
    let mut demand = vec![0.0f64; h];
    remaining
        .iter()
        .map(|&i| {
            let req = arrivals.request(RequestId(i));
            demand.fill(0.0);
            for &k in &req.vms {
                for (d, x) in demand.iter_mut().zip(&arrivals.vm(k).demand) {
                    *d += x;
                }
            }
            let mut predicted: Option<ServerId> = None;
            for step in 0..m {
                let j = (cursor + step) % m;
                if room.row(j).iter().zip(&demand).all(|(r, d)| d <= r) {
                    for (r, d) in room.row_mut(j).iter_mut().zip(&demand) {
                        *r -= d;
                    }
                    predicted = Some(ServerId(j));
                    cursor = j;
                    break;
                }
            }
            match predicted {
                Some(j) if by_datacenter => Region::Dc(residual.datacenter_of(j).index()),
                Some(j) => Region::Server(j.index()),
                None => Region::Unplaced(i),
            }
        })
        .collect()
}

/// The snapshot residual as one masked shard sees it: an owned copy with
/// the servers outside the regions the shard owns this round zeroed, so
/// its solve cannot stray onto servers another shard's region owns.
fn masked_residual(residual: &Infrastructure, mask: &[bool]) -> Infrastructure {
    let zeros = vec![0.0; residual.attr_count()];
    let mut masked = residual.clone();
    for (j, &keep) in mask.iter().enumerate() {
        if !keep {
            masked.set_capacity(ServerId(j), &zeros);
        }
    }
    masked
}

/// One round's partitioning: the per-part request lists, each remaining
/// request's `(part, local index)` slot, and one optional server mask
/// per part.
type RoundPartition = (Vec<Vec<usize>>, Vec<(usize, usize)>, Vec<Option<Vec<bool>>>);

/// Splits `remaining` into `shard_count` parts and returns, aligned with
/// `remaining`, each request's `(part, local index)` slot — the commit
/// loop uses the slots to find a request's solution regardless of the
/// partitioning shape — plus one optional server mask per part.
///
/// Masks exist only under [`PartitionStrategy::RegionHash`] with more
/// than one shard and `mask_regions` set (the driver clears it on the
/// final retry round): a part whose requests were *all* predicted to
/// fit is masked to the union of its regions, making the shards'
/// solves disjoint by construction; a part holding any
/// [`Region::Unplaced`] request keeps the full fleet view, since the
/// dry run has no region to confine it to.
fn partition_round(
    strategy: PartitionStrategy,
    residual: &Infrastructure,
    arrivals: &RequestBatch,
    remaining: &[usize],
    shard_count: usize,
    mask_regions: bool,
) -> RoundPartition {
    let mut parts: Vec<Vec<usize>> = vec![Vec::new(); shard_count];
    let mut slots: Vec<(usize, usize)> = Vec::with_capacity(remaining.len());
    let mut masks: Vec<Option<Vec<bool>>> = vec![None; shard_count];
    match strategy {
        PartitionStrategy::RoundRobin => {
            for (p, &i) in remaining.iter().enumerate() {
                let part = p % shard_count;
                slots.push((part, parts[part].len()));
                parts[part].push(i);
            }
        }
        PartitionStrategy::RegionHash => {
            let regions = region_plan(residual, arrivals, remaining);
            let m = residual.server_count();
            let mut owned: Vec<Vec<bool>> = vec![vec![false; m]; shard_count];
            let mut confinable: Vec<bool> = vec![true; shard_count];
            for (&i, &region) in remaining.iter().zip(&regions) {
                let part = (region.shard_key() % shard_count as u64) as usize;
                slots.push((part, parts[part].len()));
                parts[part].push(i);
                match region {
                    Region::Dc(d) => {
                        for j in residual.datacenters()[d].servers() {
                            owned[part][j.index()] = true;
                        }
                    }
                    Region::Server(j) => owned[part][j] = true,
                    Region::Unplaced(_) => confinable[part] = false,
                }
            }
            if mask_regions && shard_count > 1 {
                for (p, owned) in owned.into_iter().enumerate() {
                    if confinable[p] && !parts[p].is_empty() {
                        masks[p] = Some(owned);
                    }
                }
            }
        }
    }
    (parts, slots, masks)
}

/// The store-protocol hooks a [`WindowBackend`] adds so that
/// [`ShardedScheduler`] can drive it through snapshot → solve → commit.
/// Implemented by [`FleetExecutor`] (persistent cross-window store) and
/// [`WindowExecutor`] (per-window admission store materialised from
/// live tenant state). Everything else — registration, departures,
/// failures and the unsharded solve — is the backend's
/// [`WindowBackend`] surface.
pub trait ShardBackend: WindowBackend {
    /// Completed windows (the next window's index).
    fn window(&self) -> u64;

    /// Whether `shards = 1` should still run the store protocol.
    /// `FleetExecutor` says yes — its admission-only semantics make the
    /// protocol provably equivalent; `WindowExecutor` says no — its
    /// native path reconfigures residents, which the admission-only
    /// store cannot express, so bit-identity demands delegation to
    /// [`WindowBackend::execute_window`].
    fn store_protocol_at_one(&self) -> bool;

    /// The store this window commits against: the persistent
    /// cross-window store when the backend keeps one, otherwise a fresh
    /// admission-only store materialised from the live state (residents
    /// pinned, offline servers zeroed).
    fn window_store(&self) -> Arc<PlacementStore>;

    /// The flight correlation key bound to a registered tenant.
    fn flight_key_of(&self, tid: TenantId) -> u64;

    /// Applies one committed admission (capacity already reserved by the
    /// store commit). `placement` holds one server per VM of request
    /// `req_index`, in VM order. Returns denied network flows (0 for
    /// backends without a fabric model).
    fn shard_admit(
        &mut self,
        tid: TenantId,
        arrivals: &RequestBatch,
        req_index: usize,
        placement: &[ServerId],
        window: u64,
    ) -> usize;

    /// Applies one final rejection (solver-rejected or retry budget
    /// exhausted).
    fn shard_reject(&mut self, tid: TenantId, window: u64);

    /// Closes the window's books after all admissions/rejections were
    /// applied; advances the backend's window counter.
    fn shard_finish(
        &mut self,
        arrivals: usize,
        admitted: usize,
        rejected: usize,
        denied_flows: usize,
        solve_time: Duration,
    ) -> WindowReport;
}

/// One shard's solved slice of a round.
struct ShardSolution {
    problem: AllocationProblem,
    assignment: Assignment,
    /// Per local request: did the solver accept it?
    accepted: Vec<bool>,
    /// Wall time of this shard's solve, measured individually.
    solve_time: Duration,
}

/// Solves one part against `residual`, which the part owns: it moves
/// straight into the part's [`AllocationProblem`] without another copy.
fn solve_shard(
    allocator: &dyn Allocator,
    arrivals: &RequestBatch,
    residual: Infrastructure,
    indices: &[usize],
    full_batch: bool,
) -> ShardSolution {
    let batch = if full_batch {
        arrivals.clone()
    } else {
        arrivals.subset(indices)
    };
    let problem = AllocationProblem::new(residual, batch, None);
    let start = Instant::now();
    let outcome = allocator.allocate(&problem);
    let solve_time = start.elapsed();
    // Same admission predicate as the native paths.
    let accepted = problem.accepted_mask(&outcome.assignment);
    // Score the shard's solution with its own owned evaluator — each
    // shard gets a private DeltaEvaluator over its private problem, so
    // no lock is ever held across a solve (the Mutex evaluator *pools*
    // in cpo-core remain, but only for intra-solve rayon scoring). The
    // score and the solve count go only to the metrics registry, so the
    // scoring runs only while the registry records.
    if cpo_obs::is_enabled() {
        let ev = DeltaEvaluator::new(&problem, outcome.assignment.clone());
        let score = ev.score();
        cpo_obs::gauge_set("shard.solution_cost", score.total_cost());
        cpo_obs::counter_add("shard.solves", 1);
    }
    ShardSolution {
        assignment: outcome.assignment,
        problem,
        accepted,
        solve_time,
    }
}

/// Whether the host has ≥2 CPUs. Asked once per process: on Linux the
/// query reads cgroup files, which is not worth repeating every round.
fn host_is_parallel() -> bool {
    static PARALLEL: OnceLock<bool> = OnceLock::new();
    *PARALLEL.get_or_init(|| std::thread::available_parallelism().is_ok_and(|p| p.get() >= 2))
}

/// Solves one round's partitions: part 0 on the calling thread and the
/// other N−1 on scoped threads when the host has the cores for it,
/// serially otherwise. Either way each shard's solve is timed
/// individually, so the critical-path (max-over-shards) window service
/// time is honest on any host.
///
/// A part whose solve panics yields `None` instead of aborting the run:
/// the caller treats its requests as unsolved.
fn solve_round(
    allocator: &dyn Allocator,
    arrivals: &RequestBatch,
    snapshot: &StoreSnapshot,
    parts: &[Vec<usize>],
    masks: &[Option<Vec<bool>>],
) -> Vec<Option<ShardSolution>> {
    let full_batch = parts.len() == 1 && parts[0].len() == arrivals.request_count();
    let solve_one = |p: usize| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match &masks[p] {
            Some(mask) => {
                let masked = masked_residual(&snapshot.residual, mask);
                solve_shard(allocator, arrivals, masked, &parts[p], false)
            }
            None => solve_shard(
                allocator,
                arrivals,
                snapshot.residual.clone(),
                &parts[p],
                full_batch,
            ),
        }))
        .ok()
    };
    if parts.len() > 1 && host_is_parallel() {
        std::thread::scope(|s| {
            let handles: Vec<_> = (1..parts.len())
                .map(|p| s.spawn(move || solve_one(p)))
                .collect();
            let mut solutions = Vec::with_capacity(parts.len());
            solutions.push(solve_one(0));
            // `solve_one` catches every panic, so a join cannot fail.
            solutions.extend(handles.into_iter().map(|h| h.join().unwrap_or(None)));
            solutions
        })
    } else {
        (0..parts.len()).map(solve_one).collect()
    }
}

/// Partitions incoming requests across N worker shards solving on store
/// snapshots, resubmitting bounced conflicts with a bounded retry
/// budget. See the module docs for the protocol.
pub struct ShardedScheduler<B> {
    backend: B,
    config: ShardConfig,
}

impl<B: ShardBackend> ShardedScheduler<B> {
    /// Wraps `backend` with sharding `config`.
    pub fn new(backend: B, config: ShardConfig) -> Self {
        Self { backend, config }
    }

    /// The wrapped backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The wrapped backend, mutably.
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// Consumes the scheduler, returning the wrapped backend.
    pub fn into_backend(self) -> B {
        self.backend
    }

    /// The sharding parameters.
    pub fn config(&self) -> &ShardConfig {
        &self.config
    }
}

/// A sharded engine plugs straight into any window loop: the window
/// solve runs the snapshot → solve → optimistic-commit protocol,
/// everything else delegates to the wrapped backend. Under the DES clock
/// the reported solve time is the sharded critical path, so latency
/// feedback and throughput metrics see the parallel speedup even on a
/// serial host.
impl<B: ShardBackend> WindowBackend for ShardedScheduler<B> {
    fn register_arrivals(&mut self, arrivals: &RequestBatch) -> Vec<TenantId> {
        self.backend.register_arrivals(arrivals)
    }

    fn bind_request_keys(&mut self, ids: &[TenantId], keys: &[u64]) {
        self.backend.bind_request_keys(ids, keys)
    }

    /// Executes one window: the backend's own solve when unsharded
    /// (unless it opts into the store protocol at one shard), otherwise
    /// the snapshot → solve → commit/bounce/retry loop. Returns the
    /// report plus admitted tenant ids in arrival order.
    fn execute_window(
        &mut self,
        allocator: &dyn Allocator,
        arrivals: &RequestBatch,
        arrival_tenant_ids: &[TenantId],
    ) -> (WindowReport, Vec<TenantId>) {
        if self.config.shards <= 1 && !self.backend.store_protocol_at_one() {
            return self
                .backend
                .execute_window(allocator, arrivals, arrival_tenant_ids);
        }
        let window = self.backend.window();
        let mut sp = cpo_obs::span!("shard.window", window = window);
        let store = self.backend.window_store();
        let n = arrivals.request_count();
        let metrics_before = store.metrics();

        let mut remaining: Vec<usize> = (0..n).collect();
        let mut admitted_ids: Vec<TenantId> = Vec::new();
        let mut admitted = 0usize;
        let mut rejected = 0usize;
        let mut denied_flows = 0usize;
        let mut solve_critical = Duration::ZERO;
        let mut commit_wall = Duration::ZERO;
        let mut round = 0u64;
        let mut placement: Vec<ServerId> = Vec::new();

        while !remaining.is_empty() {
            let last_round = round >= self.config.retry_budget as u64;
            let snapshot = store.snapshot();
            let shard_count = self.config.shards.clamp(1, remaining.len());
            let (parts, slots, masks) = partition_round(
                self.config.partition,
                &snapshot.residual,
                arrivals,
                &remaining,
                shard_count,
                !last_round,
            );
            let prof_on = cpo_obs::prof::is_enabled();
            let solve_start_us = if prof_on { cpo_obs::now_us() } else { 0 };
            let solutions = solve_round(allocator, arrivals, &snapshot, &parts, &masks);
            for (p, _) in solutions.iter().enumerate().filter(|(_, s)| s.is_none()) {
                cpo_obs::counter_add("shard.solver_panics", 1);
                flight::record(
                    flight::FlightKind::SolverPanicked,
                    flight::NONE,
                    flight::NONE,
                    window,
                    p as u64,
                );
            }
            let solve_time =
                |s: &Option<ShardSolution>| s.as_ref().map_or(Duration::ZERO, |s| s.solve_time);
            if prof_on {
                let shard_us: Vec<u64> = solutions
                    .iter()
                    .map(|s| solve_time(s).as_micros() as u64)
                    .collect();
                cpo_obs::prof::solve_phase(
                    window,
                    round,
                    solve_start_us,
                    cpo_obs::now_us(),
                    &shard_us,
                );
            }
            solve_critical += solutions
                .iter()
                .map(solve_time)
                .max()
                .unwrap_or(Duration::ZERO);

            // Commit phase: decide every remaining request in global
            // arrival order, sequentially against the live store.
            let commit_start = Instant::now();
            let mut bounced: Vec<usize> = Vec::new();
            let mut placements: Vec<(ServerId, &[f64])> = Vec::new();
            for (p, &i) in remaining.iter().enumerate() {
                let (part, local) = slots[p];
                let local = RequestId(local);
                let tid = arrival_tenant_ids[i];
                // A part whose solver panicked solved nothing: its
                // requests take the unsolved path like a rejection.
                let Some(sol) = solutions[part]
                    .as_ref()
                    .filter(|sol| sol.accepted[local.index()])
                else {
                    if masks[part].is_some() {
                        // A masked solve only saw the regions its shard
                        // owns — its rejection is not evidence the fleet
                        // is full. Bounce like a conflict; the final
                        // round solves unmasked and decides for real.
                        bounced.push(i);
                    } else {
                        // Unmasked solver rejection is final: the
                        // residual only shrinks within a window.
                        self.backend.shard_reject(tid, window);
                        rejected += 1;
                    }
                    continue;
                };
                let local_req = sol.problem.batch().request(local);
                placement.clear();
                placement.extend(
                    local_req
                        .vms
                        .iter()
                        .map(|&k| sol.assignment.server_of(k).expect("accepted ⇒ placed")),
                );
                placements.clear();
                placements.extend(
                    local_req
                        .vms
                        .iter()
                        .zip(&placement)
                        .map(|(&k, &j)| (j, sol.problem.batch().vm(k).demand.as_slice())),
                );
                let ctx = CommitCtx {
                    key: self.backend.flight_key_of(tid),
                    tenant: tid.0,
                    window,
                    round,
                };
                match store.try_commit(&placements, &snapshot.versions, &ctx) {
                    Ok(()) => {
                        denied_flows += self
                            .backend
                            .shard_admit(tid, arrivals, i, &placement, window);
                        admitted += 1;
                        admitted_ids.push(tid);
                    }
                    Err(_) if last_round => {
                        self.backend.shard_reject(tid, window);
                        rejected += 1;
                    }
                    Err(_) => bounced.push(i),
                }
            }
            let commit_elapsed = commit_start.elapsed();
            commit_wall += commit_elapsed;
            if prof_on {
                cpo_obs::prof::commit_phase(window, round, commit_elapsed.as_micros() as u64);
            }
            remaining = bounced;
            round += 1;
        }

        let retry_depth_max = round.saturating_sub(1);
        let delta = store.metrics().since(&metrics_before);
        let conflict_rate = delta.conflict_rate();
        cpo_obs::counter_add("store.commits", delta.commits);
        cpo_obs::counter_add("store.conflicts", delta.conflicts);
        cpo_obs::gauge_set("store.conflict_rate", conflict_rate);
        if cpo_obs::series::is_enabled() {
            cpo_obs::series::record("store.commits", window, delta.commits as f64);
            cpo_obs::series::record("store.conflicts", window, delta.conflicts as f64);
            cpo_obs::series::record("store.conflict_rate", window, conflict_rate);
            cpo_obs::series::record("store.retry_depth_max", window, retry_depth_max as f64);
            cpo_obs::series::record_timing(
                "store.commit_latency_us",
                window,
                commit_wall.as_micros() as f64,
            );
        }
        // Admitted ids in arrival order regardless of the round a
        // request finally committed in.
        admitted_ids.sort_by_key(|t| t.0);
        // The window's modeled service time is the critical path: the
        // slowest shard of each round plus the sequential commit phase.
        let service_time = solve_critical + commit_wall;
        let report = self
            .backend
            .shard_finish(n, admitted, rejected, denied_flows, service_time);
        sp.field("admitted", admitted)
            .field("rejected", rejected)
            .field("conflicts", delta.conflicts as usize)
            .field("rounds", round as usize);
        (report, admitted_ids)
    }

    fn depart_tenant(&mut self, id: TenantId) -> bool {
        self.backend.depart_tenant(id)
    }

    fn force_failure(&mut self, server: ServerId) -> bool {
        self.backend.force_failure(server)
    }

    fn force_repair(&mut self, server: ServerId) -> bool {
        self.backend.force_repair(server)
    }

    fn server_count(&self) -> usize {
        self.backend.server_count()
    }

    fn resident_requests(&self) -> usize {
        self.backend.resident_requests()
    }
}

impl ShardBackend for FleetExecutor {
    fn window(&self) -> u64 {
        FleetExecutor::window(self)
    }

    fn store_protocol_at_one(&self) -> bool {
        // Admission-only semantics: the store protocol at one shard is
        // provably bit-identical to the native path, so run it — the
        // equivalence suite pins that claim.
        true
    }

    fn window_store(&self) -> Arc<PlacementStore> {
        Arc::clone(self.store())
    }

    fn flight_key_of(&self, tid: TenantId) -> u64 {
        self.lifecycle.key(tid)
    }

    fn shard_admit(
        &mut self,
        tid: TenantId,
        arrivals: &RequestBatch,
        req_index: usize,
        placement: &[ServerId],
        window: u64,
    ) -> usize {
        let req = arrivals.request(RequestId(req_index));
        // reserve = false: the optimistic commit already carved the
        // placement out of the store.
        self.admit_request(
            tid,
            window,
            arrivals,
            req,
            |local, _| placement[local].index() as u32,
            false,
        );
        0
    }

    fn shard_reject(&mut self, tid: TenantId, window: u64) {
        self.lifecycle.rejected(window, tid);
    }

    fn shard_finish(
        &mut self,
        arrivals: usize,
        admitted: usize,
        rejected: usize,
        _denied_flows: usize,
        solve_time: Duration,
    ) -> WindowReport {
        self.finish_window(arrivals, admitted, rejected, solve_time)
    }
}

impl ShardBackend for WindowExecutor {
    fn window(&self) -> u64 {
        WindowExecutor::window(self)
    }

    fn store_protocol_at_one(&self) -> bool {
        // The native path reconfigures residents (migrations); the
        // admission-only store cannot express that, so bit-identity at
        // one shard demands native delegation.
        false
    }

    fn window_store(&self) -> Arc<PlacementStore> {
        Arc::new(PlacementStore::from_residual(self.admission_residual()))
    }

    fn flight_key_of(&self, tid: TenantId) -> u64 {
        self.lifecycle.key(tid)
    }

    fn shard_admit(
        &mut self,
        tid: TenantId,
        arrivals: &RequestBatch,
        req_index: usize,
        placement: &[ServerId],
        window: u64,
    ) -> usize {
        let req = arrivals.request(RequestId(req_index));
        self.apply_admission(
            tid,
            arrivals,
            req,
            placement.to_vec(),
            LifetimePolicy::External,
            window,
        )
    }

    fn shard_reject(&mut self, tid: TenantId, window: u64) {
        self.log.push(self.lifecycle.rejected(window, tid));
    }

    fn shard_finish(
        &mut self,
        arrivals: usize,
        admitted: usize,
        rejected: usize,
        denied_flows: usize,
        solve_time: Duration,
    ) -> WindowReport {
        // Sharded windows over the resident-pinning store never migrate.
        self.finish_window(WindowTotals {
            arrivals,
            admitted,
            rejected,
            migrations: 0,
            migration_cost: 0.0,
            denied_flows,
            solve_time,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpo_core::prelude::RoundRobinAllocator;
    use cpo_model::attr::AttrSet;

    fn fleet(servers: usize) -> FleetExecutor {
        FleetExecutor::new(Infrastructure::new(
            AttrSet::standard(),
            vec![("dc".into(), ServerProfile::commodity(3).build_many(servers))],
        ))
    }

    fn batch(requests: usize, vms_each: usize) -> RequestBatch {
        let mut b = RequestBatch::new();
        for _ in 0..requests {
            b.push_request(vec![vm_spec(2.0, 4096.0, 40.0); vms_each], vec![]);
        }
        b
    }

    fn run_window(
        sched: &mut ShardedScheduler<FleetExecutor>,
        arrivals: &RequestBatch,
    ) -> (WindowReport, Vec<TenantId>) {
        let ids = sched.backend_mut().register_arrivals(arrivals);
        sched.execute_window(&RoundRobinAllocator, arrivals, &ids)
    }

    #[test]
    fn single_shard_runs_store_protocol_without_conflicts() {
        let mut sched = ShardedScheduler::new(fleet(4), ShardConfig::default());
        let arrivals = batch(3, 2);
        let (report, admitted) = run_window(&mut sched, &arrivals);
        assert_eq!(report.admitted, 3);
        assert_eq!(admitted.len(), 3);
        let m = sched.backend().store().metrics();
        assert_eq!(m.commits, 3);
        assert_eq!(m.conflicts, 0, "one shard never races itself");
        assert!(sched.backend().verify().is_ok());
    }

    #[test]
    fn multi_shard_window_stays_feasible_and_deterministic() {
        let run = |shards: usize| {
            let mut sched = ShardedScheduler::new(
                fleet(3),
                ShardConfig {
                    shards,
                    retry_budget: 3,
                    // Round-robin deliberately: this test exercises the
                    // commit races region hashing is designed to avoid.
                    partition: PartitionStrategy::RoundRobin,
                },
            );
            // More demand than fits: forces both rejections and, with
            // several shards, genuine commit races.
            let arrivals = batch(12, 2);
            let (report, admitted) = run_window(&mut sched, &arrivals);
            assert!(sched.backend().verify().is_ok());
            assert_eq!(report.admitted + report.rejected, 12);
            let ids: Vec<u64> = admitted.iter().map(|t| t.0).collect();
            (report.admitted, ids, sched.backend().store().metrics())
        };
        let (a1, ids1, m1) = run(4);
        let (a2, ids2, m2) = run(4);
        assert_eq!(a1, a2, "double-run determinism");
        assert_eq!(ids1, ids2);
        assert_eq!(m1, m2, "conflict counters are deterministic too");
        let sorted: Vec<u64> = {
            let mut v = ids1.clone();
            v.sort_unstable();
            v
        };
        assert_eq!(ids1, sorted, "admitted ids reported in arrival order");
    }

    #[test]
    fn region_hash_partitioning_cuts_conflicts_versus_round_robin() {
        // Two datacenters, contended servers: round-robin spreads each
        // region's contenders over all shards (maximal racing), while
        // hash-by-region colocates them into one shard that solves them
        // jointly against the snapshot.
        let run = |partition: PartitionStrategy| {
            let infra = Infrastructure::new(
                AttrSet::standard(),
                vec![
                    ("dc0".into(), ServerProfile::commodity(3).build_many(2)),
                    ("dc1".into(), ServerProfile::commodity(3).build_many(2)),
                ],
            );
            let mut sched = ShardedScheduler::new(
                FleetExecutor::new(infra),
                ShardConfig {
                    shards: 4,
                    retry_budget: 3,
                    partition,
                },
            );
            // Demand exactly fills the fleet (5 of these VMs per server,
            // 4 servers): round-robin partitioning has every shard spread
            // from server 0, overdrawing the early servers at commit time
            // even though everything fits; region hashing solves each
            // datacenter's contenders jointly inside its own masked view.
            let mut arrivals = RequestBatch::new();
            for _ in 0..20 {
                arrivals.push_request(vec![vm_spec(4.0, 8_192.0, 40.0)], vec![]);
            }
            let (report, _) = run_window(&mut sched, &arrivals);
            assert!(sched.backend().verify().is_ok());
            let m = sched.backend().store().metrics();
            (report.admitted, m.conflicts)
        };
        let (admitted_rr, conflicts_rr) = run(PartitionStrategy::RoundRobin);
        let (admitted_rh, conflicts_rh) = run(PartitionStrategy::RegionHash);
        assert!(conflicts_rr > 0, "round-robin sharding must actually race");
        assert!(
            admitted_rh >= admitted_rr,
            "region hashing must not lose admissions: {admitted_rh} vs {admitted_rr}"
        );
        assert!(
            conflicts_rh < conflicts_rr,
            "region hashing must bounce less: {conflicts_rh} vs {conflicts_rr}"
        );
    }

    #[test]
    fn region_hash_partitioning_is_deterministic() {
        let run = || {
            let mut sched = ShardedScheduler::new(
                fleet(3),
                ShardConfig {
                    shards: 4,
                    retry_budget: 3,
                    partition: PartitionStrategy::RegionHash,
                },
            );
            let arrivals = batch(12, 2);
            let (report, admitted) = run_window(&mut sched, &arrivals);
            let ids: Vec<u64> = admitted.iter().map(|t| t.0).collect();
            (report.admitted, ids, sched.backend().store().metrics())
        };
        let (a1, ids1, m1) = run();
        let (a2, ids2, m2) = run();
        assert_eq!(a1, a2);
        assert_eq!(ids1, ids2);
        assert_eq!(m1, m2);
    }

    #[test]
    fn conflicted_requests_terminate_within_budget() {
        // One server, many shards, every request wants most of it: a
        // conflict storm. Everyone must terminate as admitted or
        // rejected, and the books must balance.
        let mut sched = ShardedScheduler::new(
            fleet(1),
            ShardConfig {
                shards: 6,
                retry_budget: 2,
                partition: PartitionStrategy::RoundRobin,
            },
        );
        let mut arrivals = RequestBatch::new();
        for _ in 0..12 {
            arrivals.push_request(vec![vm_spec(12.0, 8192.0, 80.0)], vec![]);
        }
        let (report, _) = run_window(&mut sched, &arrivals);
        assert_eq!(report.admitted + report.rejected, 12);
        assert!(report.admitted >= 1, "progress: at least one commit");
        assert!(sched.backend().verify().is_ok());
        let m = sched.backend().store().metrics();
        assert_eq!(m.capacity_conflicts, 0, "no solver-infeasible commits");
    }

    #[test]
    fn window_executor_backend_shards_admission_only() {
        let infra = Infrastructure::new(
            AttrSet::standard(),
            vec![("dc".into(), ServerProfile::commodity(3).build_many(4))],
        );
        let exec = WindowExecutor::new(infra, crate::executor::SimConfig::default());
        let mut sched = ShardedScheduler::new(
            exec,
            ShardConfig {
                shards: 2,
                retry_budget: 2,
                ..ShardConfig::default()
            },
        );
        let arrivals = batch(6, 1);
        let ids = sched.backend_mut().register_arrivals(&arrivals);
        let (report, admitted) = sched.execute_window(&RoundRobinAllocator, &arrivals, &ids);
        assert_eq!(report.migrations, 0, "sharded admission never migrates");
        assert_eq!(report.admitted, admitted.len());
        assert_eq!(report.admitted + report.rejected, 6);
        assert!(sched.backend().verify_state().is_feasible());
        // A second window sees the residents pinned.
        let more = batch(2, 1);
        let ids2 = sched.backend_mut().register_arrivals(&more);
        let (r2, _) = sched.execute_window(&RoundRobinAllocator, &more, &ids2);
        assert_eq!(r2.window, 1);
        assert!(sched.backend().verify_state().is_feasible());
    }
}
