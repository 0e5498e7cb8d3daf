//! Optimistic-commit placement store: the single source of truth for
//! server residual headroom shared by N scheduler shards.
//!
//! The store keeps one *versioned* entry per server — the residual
//! capacity row plus a monotonically increasing version that is bumped by
//! every mutation (commit, reserve, release, failure, repair). Scheduler
//! shards solve on a [`StoreSnapshot`] (a point-in-time clone of the
//! residual infrastructure plus all versions) and then propose their
//! placements back through [`PlacementStore::try_commit`]. The clone is
//! flat: two `m × h` matrices (raw and effective capacity) copied, plus
//! one reference-count bump on the residual's shared static table of
//! attributes, datacenters and per-server parameters.
//!
//! * if every touched server still **fits** the proposed demand, the
//!   commit is applied atomically — per-VM, in order, with the exact same
//!   [`Infrastructure::adjust_capacity`] calls the native (unsharded)
//!   admission path makes, so the residual stays bit-identical to a
//!   sequential execution of the same commit sequence;
//! * otherwise the commit **bounces** with a [`ConflictReason`]:
//!   [`ConflictReason::Stale`] when a touched server changed under the
//!   shard (it lost the race and may win after a re-solve) or
//!   [`ConflictReason::Capacity`] when the placement never fit the
//!   snapshot it was solved on (a solver bug — should not happen).
//!
//! Staleness alone does **not** invalidate a commit: a placement solved
//! on an old snapshot that still fits the current residual is accepted.
//! This keeps the conflict rate proportional to genuine capacity races
//! rather than to snapshot age.
//!
//! Every commit decision is recorded on the flight ring
//! ([`FlightKind::Committed`] / [`FlightKind::Conflicted`], with the
//! request's correlation key, window and retry round) so a request's
//! path scheduler → store → executor is one traceable timeline. A
//! bounce additionally emits [`FlightKind::CommitAttempt`] naming the
//! first server the proposal overdrew and the [`ConflictReason`] tag —
//! the raw material for per-server conflict hotspot attribution.
//!
//! Interior mutability is a single [`Mutex`] around the whole entry
//! table: commits must observe a consistent multi-server state, and the
//! commit critical section is O(touched servers × h) — far smaller than
//! the solve work done outside it. The fit check and the negated
//! per-VM demand use scratch buffers held under the same lock, so a
//! warm commit, reserve or release allocates nothing. The store is
//! `Send + Sync` and is shared via [`std::sync::Arc`].

use cpo_model::prelude::*;
use cpo_obs::flight::{self, FlightKind};
use std::sync::Mutex;
use std::time::Instant;

/// Slack when re-validating a proposed placement against the current
/// residual: absorbs the floating-point disagreement between the
/// solver's own feasibility arithmetic and the store's re-check.
const FIT_EPS: f64 = 1e-9;

/// Why an optimistic commit bounced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConflictReason {
    /// A touched server's version moved since the snapshot and the
    /// proposed demand no longer fits — the shard lost a capacity race
    /// and should re-solve on a fresh snapshot.
    Stale,
    /// The placement does not fit even though no touched server changed:
    /// the proposal was infeasible on its own snapshot. Indicates a
    /// solver bug; surfaced instead of silently oversubscribing.
    Capacity,
}

impl ConflictReason {
    /// Stable label for counters and reports.
    pub fn label(self) -> &'static str {
        match self {
            ConflictReason::Stale => "stale",
            ConflictReason::Capacity => "capacity",
        }
    }

    /// Stable numeric tag carried in the `b` slot of
    /// [`FlightKind::CommitAttempt`] events (0 = stale, 1 = capacity).
    pub fn tag(self) -> u64 {
        match self {
            ConflictReason::Stale => 0,
            ConflictReason::Capacity => 1,
        }
    }
}

/// Correlation context for one commit attempt, threaded onto the flight
/// ring so commits and conflicts are attributable per request.
#[derive(Clone, Copy, Debug)]
pub struct CommitCtx {
    /// Flight correlation key ([`flight::NONE`] when untraced).
    pub key: u64,
    /// Tenant id the request was registered under.
    pub tenant: u64,
    /// Window being scheduled.
    pub window: u64,
    /// Retry round of this attempt (0 = first attempt).
    pub round: u64,
}

/// Point-in-time view a shard solves against: the residual infrastructure
/// plus the per-server versions it was taken at.
#[derive(Clone, Debug)]
pub struct StoreSnapshot {
    /// Residual headroom at snapshot time (factors all 1.0).
    pub residual: Infrastructure,
    /// Per-server versions at snapshot time.
    pub versions: Vec<u64>,
}

/// Cumulative commit statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreMetrics {
    /// Accepted commits.
    pub commits: u64,
    /// Bounced commits (any reason).
    pub conflicts: u64,
    /// Bounces with [`ConflictReason::Capacity`] — should stay zero.
    pub capacity_conflicts: u64,
}

impl StoreMetrics {
    /// Total commit attempts (accepted + bounced).
    pub fn attempts(&self) -> u64 {
        self.commits + self.conflicts
    }

    /// Fraction of attempts that bounced. A run that attempts nothing
    /// (empty window, all-rejected) has no conflicts by definition, so
    /// the rate is 0.0 — never NaN.
    pub fn conflict_rate(&self) -> f64 {
        if self.attempts() == 0 {
            0.0
        } else {
            self.conflicts as f64 / self.attempts() as f64
        }
    }

    /// The per-window delta of `self` over an earlier `baseline`
    /// reading of the same store.
    pub fn since(&self, baseline: &StoreMetrics) -> StoreMetrics {
        StoreMetrics {
            commits: self.commits - baseline.commits,
            conflicts: self.conflicts - baseline.conflicts,
            capacity_conflicts: self.capacity_conflicts - baseline.capacity_conflicts,
        }
    }
}

struct StoreInner {
    residual: Infrastructure,
    versions: Vec<u64>,
    offline: Vec<bool>,
    metrics: StoreMetrics,
    /// Reusable scratch so commits, reserves and releases allocate
    /// nothing once warm.
    scratch: Scratch,
}

/// Per-store working buffers, reused across calls under the store lock.
#[derive(Default)]
struct Scratch {
    /// Touched servers of the current proposal, in first-touch order.
    touched: Vec<usize>,
    /// Flat `touched × h` copy of their residual rows for the fit check.
    rows: Vec<f64>,
    /// One demand negated (`a + (−d)` is bit-identical to `a − d`).
    neg: Vec<f64>,
}

/// Versioned per-server residual store with optimistic atomic commits.
pub struct PlacementStore {
    inner: Mutex<StoreInner>,
}

impl PlacementStore {
    /// A store over the full effective capacity of `infra` (idle fleet).
    pub fn new(infra: &Infrastructure) -> Self {
        Self::from_residual(infra.residual_view())
    }

    /// A store over an explicit residual view — used to materialise a
    /// per-window admission store from live executor state (capacity
    /// rows already reduced by resident load, offline servers zeroed).
    pub fn from_residual(residual: Infrastructure) -> Self {
        let m = residual.server_count();
        Self {
            inner: Mutex::new(StoreInner {
                residual,
                versions: vec![0; m],
                offline: vec![false; m],
                metrics: StoreMetrics::default(),
                scratch: Scratch::default(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, StoreInner> {
        self.inner.lock().expect("placement store poisoned")
    }

    /// Number of servers tracked.
    pub fn server_count(&self) -> usize {
        self.lock().residual.server_count()
    }

    /// Takes a consistent snapshot: residual clone + all versions.
    pub fn snapshot(&self) -> StoreSnapshot {
        let inner = self.lock();
        StoreSnapshot {
            residual: inner.residual.clone(),
            versions: inner.versions.clone(),
        }
    }

    /// Clone of the current residual, without versions — the native
    /// (unsharded) path packs each window's problem against this.
    pub fn residual_clone(&self) -> Infrastructure {
        self.lock().residual.clone()
    }

    /// Current residual row of server `j` (for tests and verification).
    pub fn residual_row(&self, j: ServerId) -> Vec<f64> {
        self.lock().residual.effective_row(j).to_vec()
    }

    /// Current version of server `j`.
    pub fn version(&self, j: ServerId) -> u64 {
        self.lock().versions[j.index()]
    }

    /// Cumulative commit/conflict counts.
    pub fn metrics(&self) -> StoreMetrics {
        self.lock().metrics
    }

    /// Validates `placements` (one `(server, demand)` entry per VM of a
    /// request, in VM order) against the current residual and, if every
    /// touched server still fits, applies them atomically — per VM, in
    /// order, via `adjust_capacity`, exactly as the native sequential
    /// admission path would. Versions of touched servers are bumped once
    /// per applied VM. On a bounce nothing is mutated except the
    /// conflict counters.
    ///
    /// Emits [`FlightKind::Committed`] / [`FlightKind::Conflicted`] with
    /// `ctx`'s correlation key so the decision lands on the request's
    /// timeline, and records the commit latency histogram
    /// (`store.commit_ns`) when telemetry is on.
    pub fn try_commit(
        &self,
        placements: &[(ServerId, &[f64])],
        snapshot_versions: &[u64],
        ctx: &CommitCtx,
    ) -> Result<(), ConflictReason> {
        let start = cpo_obs::is_enabled().then(Instant::now);
        let mut inner = self.lock();
        let result = inner.validate_and_apply(placements, snapshot_versions);
        match result {
            Ok(()) => {
                inner.metrics.commits += 1;
                flight::record(
                    FlightKind::Committed,
                    ctx.key,
                    ctx.tenant,
                    ctx.window,
                    ctx.round,
                );
            }
            Err((reason, server)) => {
                inner.metrics.conflicts += 1;
                if reason == ConflictReason::Capacity {
                    inner.metrics.capacity_conflicts += 1;
                }
                // One attempt-level event per bounce, carrying the first
                // server that no longer fits — the profiler's hot-server
                // tables count these, so their sum equals `conflicts`.
                flight::record(
                    FlightKind::CommitAttempt,
                    ctx.key,
                    ctx.tenant,
                    server.index() as u64,
                    reason.tag(),
                );
                flight::record(
                    FlightKind::Conflicted,
                    ctx.key,
                    ctx.tenant,
                    ctx.window,
                    ctx.round,
                );
            }
        }
        drop(inner);
        if let Some(start) = start {
            cpo_obs::record_value("store.commit_ns", start.elapsed().as_nanos() as u64);
        }
        result.map_err(|(reason, _)| reason)
    }

    /// Carves `demand` out of server `j`'s residual (no-op when the
    /// server is offline — a failed server has no headroom to consume).
    /// This is the native path's per-VM admission hook; it bumps the
    /// version like any other mutation.
    pub fn reserve(&self, j: ServerId, demand: &[f64]) {
        let mut inner = self.lock();
        if inner.offline[j.index()] {
            return;
        }
        inner.consume(j, demand);
    }

    /// Returns `demand` to server `j`'s residual on departure (no-op
    /// when offline — stranded capacity comes back via [`restore`]).
    ///
    /// [`restore`]: PlacementStore::restore
    pub fn release(&self, j: ServerId, demand: &[f64]) {
        let mut inner = self.lock();
        if inner.offline[j.index()] {
            return;
        }
        inner.residual.adjust_capacity(j, demand);
        inner.versions[j.index()] += 1;
    }

    /// Fails server `j`: residual drops to zero so no commit can land
    /// there, and the entry is marked offline.
    pub fn fail(&self, j: ServerId) {
        let mut inner = self.lock();
        let h = inner.residual.attr_count();
        inner.residual.set_capacity(j, &vec![0.0; h]);
        inner.offline[j.index()] = true;
        inner.versions[j.index()] += 1;
    }

    /// Repairs server `j`, restoring its residual to `row` (effective
    /// capacity minus whatever load is still resident).
    pub fn restore(&self, j: ServerId, row: &[f64]) {
        let mut inner = self.lock();
        inner.residual.set_capacity(j, row);
        inner.offline[j.index()] = false;
        inner.versions[j.index()] += 1;
    }

    /// Whether server `j` is marked offline.
    pub fn is_offline(&self, j: ServerId) -> bool {
        self.lock().offline[j.index()]
    }
}

impl StoreInner {
    /// Carves `demand` out of server `j`'s residual and bumps its
    /// version — the one per-VM update both the native reserve and the
    /// optimistic commit make, so their floats agree bit for bit.
    fn consume(&mut self, j: ServerId, demand: &[f64]) {
        let neg = &mut self.scratch.neg;
        neg.clear();
        neg.extend(demand.iter().map(|d| -d));
        self.residual.adjust_capacity(j, neg);
        self.versions[j.index()] += 1;
    }

    /// On a bounce, returns the reason plus the first touched server
    /// (in first-touch order) whose residual the proposal overdraws —
    /// the attribution target for hot-server conflict tables.
    fn validate_and_apply(
        &mut self,
        placements: &[(ServerId, &[f64])],
        snapshot_versions: &[u64],
    ) -> Result<(), (ConflictReason, ServerId)> {
        let h = self.residual.attr_count();
        let Scratch { touched, rows, .. } = &mut self.scratch;
        // Touched servers, deduplicated in first-touch order, with a
        // copy of each one's residual row.
        touched.clear();
        rows.clear();
        for &(j, _) in placements {
            if !touched.contains(&j.index()) {
                touched.push(j.index());
                rows.extend_from_slice(self.residual.effective_row(j));
            }
        }
        let stale = touched.iter().any(|&j| {
            self.offline[j] || self.versions[j] != snapshot_versions.get(j).copied().unwrap_or(0)
        });
        // Fit check: walk the proposed per-VM subtractions over the
        // copied rows; all demands are non-negative, so checking the
        // final rows is equivalent to checking after every VM.
        for &(j, demand) in placements {
            let slot = touched
                .iter()
                .position(|&t| t == j.index())
                .expect("touched");
            for (c, d) in rows[slot * h..(slot + 1) * h].iter_mut().zip(demand) {
                *c -= d;
            }
        }
        if let Some(slot) = rows
            .chunks_exact(h)
            .position(|row| row.iter().any(|&c| c < -FIT_EPS))
        {
            let reason = if stale {
                ConflictReason::Stale
            } else {
                ConflictReason::Capacity
            };
            return Err((reason, ServerId(touched[slot])));
        }
        // Fits now → apply per VM, in order, through the same
        // adjust_capacity calls the sequential path makes, so the
        // residual floats are bit-identical to an unsharded execution of
        // the same admission sequence.
        for &(j, demand) in placements {
            self.consume(j, demand);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpo_model::attr::AttrSet;

    fn infra(servers: usize) -> Infrastructure {
        Infrastructure::new(
            AttrSet::standard(),
            vec![("dc".into(), ServerProfile::commodity(3).build_many(servers))],
        )
    }

    fn ctx() -> CommitCtx {
        CommitCtx {
            key: flight::NONE,
            tenant: 0,
            window: 0,
            round: 0,
        }
    }

    #[test]
    fn commit_reserves_and_bumps_versions() {
        let store = PlacementStore::new(&infra(2));
        let snap = store.snapshot();
        let before = store.residual_row(ServerId(0));
        let demand = vec![2.0, 4096.0, 40.0];
        store
            .try_commit(
                &[(ServerId(0), &demand), (ServerId(0), &demand)],
                &snap.versions,
                &ctx(),
            )
            .expect("fits an idle fleet");
        let after = store.residual_row(ServerId(0));
        for l in 0..3 {
            assert!((before[l] - 2.0 * demand[l] - after[l]).abs() < 1e-12);
        }
        assert_eq!(store.version(ServerId(0)), 2, "one bump per applied VM");
        assert_eq!(store.version(ServerId(1)), 0, "untouched server");
        assert_eq!(store.metrics().commits, 1);
        assert_eq!(store.metrics().conflicts, 0);
    }

    #[test]
    fn snapshot_keeps_its_rows_after_later_mutations() {
        let store = PlacementStore::new(&infra(3));
        let snap = store.snapshot();
        let rows = |infra: &Infrastructure| -> Vec<Vec<f64>> {
            infra
                .server_ids()
                .map(|j| {
                    let mut row = infra.capacity_row(j).to_vec();
                    row.extend_from_slice(infra.effective_row(j));
                    row
                })
                .collect()
        };
        let before = rows(&snap.residual);
        let versions = snap.versions.clone();
        let demand = vec![2.0, 4096.0, 40.0];
        let oversized = vec![1_000.0, 1.0, 1.0];
        store
            .try_commit(&[(ServerId(0), &demand)], &snap.versions, &ctx())
            .unwrap();
        store
            .try_commit(&[(ServerId(1), &oversized)], &snap.versions, &ctx())
            .unwrap_err();
        store.reserve(ServerId(1), &demand);
        store.release(ServerId(2), &demand);
        store.fail(ServerId(2));
        store.restore(ServerId(2), &[1.0, 2.0, 3.0]);
        assert_eq!(rows(&snap.residual), before, "snapshot rows moved");
        assert_eq!(snap.versions, versions, "snapshot versions moved");
        let live = store.residual_clone();
        assert_ne!(rows(&live), before, "the live residual did move");
        assert!(std::ptr::eq(live.servers(), snap.residual.servers()));
    }

    #[test]
    fn stale_but_fitting_commit_is_accepted() {
        let store = PlacementStore::new(&infra(1));
        let snap = store.snapshot();
        // Another shard commits first — the snapshot goes stale.
        let small = vec![1.0, 1024.0, 10.0];
        store
            .try_commit(&[(ServerId(0), &small)], &snap.versions, &ctx())
            .unwrap();
        // The stale proposal still fits → accepted, not bounced.
        store
            .try_commit(&[(ServerId(0), &small)], &snap.versions, &ctx())
            .expect("staleness alone must not bounce a fitting commit");
        assert_eq!(store.metrics().commits, 2);
    }

    #[test]
    fn losing_a_capacity_race_bounces_stale() {
        let store = PlacementStore::new(&infra(1));
        let snap = store.snapshot();
        let row = store.residual_row(ServerId(0));
        // Each proposal alone consumes ~80% of the CPU row.
        let big = vec![row[0] * 0.8, 1024.0, 10.0];
        store
            .try_commit(&[(ServerId(0), &big)], &snap.versions, &ctx())
            .unwrap();
        let err = store
            .try_commit(&[(ServerId(0), &big)], &snap.versions, &ctx())
            .expect_err("second 80% cannot fit");
        assert_eq!(err, ConflictReason::Stale);
        let m = store.metrics();
        assert_eq!((m.commits, m.conflicts, m.capacity_conflicts), (1, 1, 0));
        // The bounce mutated nothing.
        let after = store.residual_row(ServerId(0));
        assert!((after[0] - row[0] * 0.2).abs() < 1e-9);
    }

    #[test]
    fn infeasible_on_fresh_snapshot_is_a_capacity_conflict() {
        let store = PlacementStore::new(&infra(1));
        let snap = store.snapshot();
        let row = store.residual_row(ServerId(0));
        let oversized = vec![row[0] * 2.0, 1024.0, 10.0];
        let err = store
            .try_commit(&[(ServerId(0), &oversized)], &snap.versions, &ctx())
            .expect_err("twice the row cannot fit");
        assert_eq!(err, ConflictReason::Capacity);
        assert_eq!(store.metrics().capacity_conflicts, 1);
    }

    #[test]
    fn failed_server_bounces_until_restored() {
        let store = PlacementStore::new(&infra(1));
        let snap = store.snapshot();
        let demand = vec![1.0, 1024.0, 10.0];
        store.fail(ServerId(0));
        assert!(store.is_offline(ServerId(0)));
        let err = store
            .try_commit(&[(ServerId(0), &demand)], &snap.versions, &ctx())
            .expect_err("offline server has no headroom");
        assert_eq!(err, ConflictReason::Stale);
        // reserve/release are no-ops while offline.
        store.reserve(ServerId(0), &demand);
        store.release(ServerId(0), &demand);
        assert!(store.residual_row(ServerId(0)).iter().all(|&c| c == 0.0));
        store.restore(ServerId(0), &[4.0, 4096.0, 40.0]);
        assert!(!store.is_offline(ServerId(0)));
        store
            .try_commit(&[(ServerId(0), &demand)], &snap.versions, &ctx())
            .expect("restored headroom accepts again");
    }

    #[test]
    fn reserve_matches_commit_arithmetic_bitwise() {
        // The sharded path (try_commit) and the native path (reserve per
        // VM) must leave bit-identical residuals for the same admission
        // sequence — this is the float contract the equivalence suite
        // leans on.
        let committed = PlacementStore::new(&infra(1));
        let reserved = PlacementStore::new(&infra(1));
        let demands = [
            vec![1.5, 3333.0, 17.0],
            vec![0.1, 1.0, 0.3],
            vec![2.25, 4096.0, 40.0],
        ];
        let snap = committed.snapshot();
        let placements: Vec<(ServerId, &[f64])> = demands
            .iter()
            .map(|d| (ServerId(0), d.as_slice()))
            .collect();
        committed
            .try_commit(&placements, &snap.versions, &ctx())
            .unwrap();
        for d in &demands {
            reserved.reserve(ServerId(0), d);
        }
        assert_eq!(
            committed.residual_row(ServerId(0)),
            reserved.residual_row(ServerId(0)),
            "commit and reserve must be the same float sequence"
        );
    }

    #[test]
    fn conflict_rate_of_an_idle_store_is_zero_not_nan() {
        let m = StoreMetrics::default();
        assert_eq!(m.attempts(), 0);
        assert_eq!(m.conflict_rate(), 0.0, "empty window must not yield NaN");
        let busy = StoreMetrics {
            commits: 3,
            conflicts: 1,
            capacity_conflicts: 0,
        };
        assert_eq!(busy.attempts(), 4);
        assert!((busy.conflict_rate() - 0.25).abs() < 1e-12);
        let delta = busy.since(&StoreMetrics {
            commits: 2,
            conflicts: 1,
            capacity_conflicts: 0,
        });
        assert_eq!((delta.commits, delta.conflicts), (1, 0));
        assert_eq!(
            delta.conflict_rate(),
            0.0,
            "all-commit delta has no conflicts"
        );
    }

    #[test]
    fn bounce_emits_a_commit_attempt_naming_the_offending_server() {
        let store = PlacementStore::new(&infra(2));
        let snap = store.snapshot();
        let row = store.residual_row(ServerId(1));
        let small = vec![1.0, 1.0, 1.0];
        let oversized = vec![row[0] * 2.0, 1.0, 1.0];
        flight::enable();
        let err = store
            .try_commit(
                // Server 0 fits; server 1 is the first overdraw.
                &[(ServerId(0), &small), (ServerId(1), &oversized)],
                &snap.versions,
                &CommitCtx {
                    key: 77,
                    tenant: 5,
                    window: 2,
                    round: 0,
                },
            )
            .expect_err("server 1 cannot fit twice its row");
        let events = flight::snapshot().events;
        flight::disable();
        flight::reset();
        assert_eq!(err, ConflictReason::Capacity);
        let attempt = events
            .iter()
            .find(|e| e.kind == FlightKind::CommitAttempt && e.key == 77)
            .expect("bounce must emit a commit_attempt event");
        assert_eq!(attempt.a, 1, "names the first infeasible server");
        assert_eq!(attempt.b, ConflictReason::Capacity.tag());
        assert!(
            events
                .iter()
                .any(|e| e.kind == FlightKind::Conflicted && e.key == 77),
            "round-level conflicted event still follows"
        );
    }

    #[test]
    fn concurrent_commits_never_oversubscribe() {
        // Hammer one hot server from 4 threads, all racing the same
        // snapshot. Total committed demand must fit the original row.
        let store = std::sync::Arc::new(PlacementStore::new(&infra(1)));
        let row = store.residual_row(ServerId(0));
        let snap = store.snapshot();
        let demand = vec![row[0] / 3.0, 1.0, 1.0];
        let mut handles = Vec::new();
        for _ in 0..4 {
            let store = store.clone();
            let versions = snap.versions.clone();
            let demand = demand.clone();
            handles.push(std::thread::spawn(move || {
                let mut wins = 0u32;
                for _ in 0..4 {
                    if store
                        .try_commit(&[(ServerId(0), &demand)], &versions, &ctx())
                        .is_ok()
                    {
                        wins += 1;
                    }
                }
                wins
            }));
        }
        let wins: u32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(wins, 3, "exactly three thirds fit");
        let m = store.metrics();
        assert_eq!(m.commits, 3);
        assert_eq!(m.conflicts, 16 - 3);
        assert_eq!(m.capacity_conflicts, 0, "only Stale bounces expected");
        let after = store.residual_row(ServerId(0));
        assert!(after[0] >= -1e-9, "never oversubscribed: {}", after[0]);
    }
}
