//! Deterministic latency attribution and critical-path profiling.
//!
//! The flight recorder says *what* happened to a request; this module
//! says *where its microseconds went*. While enabled, every flight
//! event is fanned into the profiler (see [`crate::flight::record`]),
//! which steps each request's lifecycle [`Track`] — the grammar the
//! offline timeline validator folds — from `arrived` until it
//! [settles](Track::settled), and decomposes its end-to-end admission
//! latency — `arrived` to its last `placed` (or to `rejected`) — into
//! five exhaustive, non-overlapping stages:
//!
//! | stage        | covers                                                    |
//! |--------------|-----------------------------------------------------------|
//! | `queue_wait` | arrival → start of the first solve round that saw it      |
//! | `solve`      | the wall duration of every solve round the request rode   |
//! | `commit`     | solve end → its commit/bounce/reject decision, per round  |
//! | `bounce_wait`| a bounced attempt → the start of its retry round's solve  |
//! | `placement`  | commit accepted → `admitted` → last per-VM `placed`       |
//!
//! Stage boundaries are *consecutive timestamps of the same request*,
//! so the stage sums equal the end-to-end latency **exactly** — the
//! accounting invariant ([`Profile::accounted_fraction`]) is checked
//! per request at finalization rather than assumed. Aggregation is
//! online and O(in-flight requests): finalized requests fold into
//! fixed-size histograms immediately, so profiling a million-arrival
//! replay does not depend on the flight ring's bounded capacity.
//!
//! On top of the per-request view the profiler keeps:
//!
//! * **per-window critical paths** ([`WindowPath`]): per solve round,
//!   the slowest shard's solve time (the modeled critical path), the
//!   summed solve work (parallelism efficiency), and the sequential
//!   commit tail — fed directly by the sharded scheduler through
//!   [`solve_phase`] / [`commit_phase`];
//! * **conflict hotspot tables** ([`ServerHeat`]): per-server
//!   stale/capacity bounce counts from `commit_attempt` events, with
//!   a deterministic top-K ranking and FNV fingerprint, plus
//!   per-window `prof.hot_server` / `prof.hot_server_conflicts`
//!   series when the series layer is enabled;
//! * **tail exemplars**: the top-K slowest finalized requests with
//!   their full stage breakdown, linkable back to ring timelines by
//!   correlation key;
//! * **flame export** ([`Profile::flame_folded`]): aggregated stage
//!   totals in collapsed-stack format for flamegraph tooling.
//!
//! [`Profile::to_json`] splits the report into a `deterministic`
//! section (pure event counts — byte-identical across same-seed runs)
//! and a `timing` section (microsecond measurements), mirroring the
//! series layer's deterministic/timing split so CI can pin the former
//! exactly.
//!
//! The profiler needs correlation keys on events, so drivers enable
//! the flight recorder alongside it ([`crate::flight::enable`]).

use crate::flight::{FlightKind, NONE};
use crate::histogram::{Histogram, HistogramSummary};
use crate::timeline::{Phase, Track};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Profile JSON schema version.
pub const PROFILE_SCHEMA_VERSION: u64 = 1;

/// Number of attribution stages.
pub const STAGE_COUNT: usize = 5;

/// Hot servers carried in the deterministic JSON section.
const HOT_JSON_CAP: usize = 64;

/// One latency-attribution stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// Arrival → the start of the first solve round that saw the
    /// request.
    QueueWait = 0,
    /// Wall duration of every solve round the request rode (the round
    /// is a barrier: a request waits for the whole round even when its
    /// own shard finished early).
    Solve = 1,
    /// Solve end → the request's commit/bounce/reject decision, one
    /// segment per round.
    Commit = 2,
    /// A bounced attempt → the start of the retry round's solve.
    BounceWait = 3,
    /// Commit accepted → `admitted` → the last per-VM `placed`.
    Placement = 4,
}

impl Stage {
    /// All stages, in attribution order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::QueueWait,
        Stage::Solve,
        Stage::Commit,
        Stage::BounceWait,
        Stage::Placement,
    ];

    /// Stable lower-case label used in JSON and flame output.
    pub fn label(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::Solve => "solve",
            Stage::Commit => "commit",
            Stage::BounceWait => "bounce_wait",
            Stage::Placement => "placement",
        }
    }
}

/// Profiler parameters.
#[derive(Clone, Copy, Debug)]
pub struct ProfConfig {
    /// Slowest finalized requests kept as tail exemplars.
    pub exemplars: usize,
    /// Keep every finalized request's stage breakdown (tests and small
    /// runs only — memory grows with the run).
    pub keep_requests: bool,
}

impl Default for ProfConfig {
    fn default() -> Self {
        Self {
            exemplars: 10,
            keep_requests: false,
        }
    }
}

/// One finalized request's stage decomposition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestProfile {
    /// Flight correlation key.
    pub key: u64,
    /// Tenant id admission bound the request to ([`NONE`] if never
    /// admitted).
    pub tenant: u64,
    /// Whether the request was admitted.
    pub admitted: bool,
    /// End-to-end latency, arrival to final event, in µs.
    pub total_us: u64,
    /// Per-stage µs, indexed by [`Stage`] discriminant.
    pub stage_us: [u64; STAGE_COUNT],
    /// Per-stage segment counts (how many boundary intervals folded
    /// into each stage) — deterministic per seed.
    pub segments: [u64; STAGE_COUNT],
    /// Rejected commit attempts this request survived.
    pub bounces: u64,
}

impl RequestProfile {
    /// Sum of the stage decomposition, which the accounting invariant
    /// compares against [`RequestProfile::total_us`].
    pub fn stage_sum_us(&self) -> u64 {
        self.stage_us.iter().sum()
    }
}

/// Per-server conflict heat from `commit_attempt` events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServerHeat {
    /// Server index.
    pub server: u64,
    /// Total rejected commit attempts that hit this server first.
    pub conflicts: u64,
    /// Bounces with the stale reason (lost a capacity race).
    pub stale: u64,
    /// Bounces with the capacity reason (infeasible on own snapshot).
    pub capacity: u64,
}

/// Per-window critical-path decomposition, fed by the schedulers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WindowPath {
    /// Window index.
    pub window: u64,
    /// Solve rounds the window took (1 = no retries).
    pub rounds: u64,
    /// Largest shard fan-out of any round.
    pub shards: u64,
    /// Critical path of the solves: Σ over rounds of the slowest
    /// shard's µs.
    pub solve_critical_us: u64,
    /// Total solve work: Σ over rounds and shards.
    pub solve_total_us: u64,
    /// Wall µs of the (coordinator-observed) solve phases, barrier to
    /// barrier.
    pub solve_wall_us: u64,
    /// Sequential commit tail: Σ over rounds of the commit loop µs.
    pub commit_us: u64,
}

/// Aggregated per-stage statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageAgg {
    /// Segments folded into this stage (deterministic per seed).
    pub segments: u64,
    /// Total µs across all finalized requests.
    pub total_us: u64,
    /// Distribution of per-request stage µs.
    pub summary: HistogramSummary,
}

/// A point-in-time snapshot of everything the profiler aggregated.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Requests that produced an `arrived` event while profiling.
    pub tracked: u64,
    /// Finalized as admitted (all VMs placed).
    pub admitted: u64,
    /// Finalized as rejected.
    pub rejected: u64,
    /// Still in flight at snapshot time (no decision yet).
    pub in_flight: u64,
    /// Finalized requests whose stage sum covered ≥95% of their
    /// end-to-end latency (by construction this equals `finalized`
    /// unless events were lost).
    pub accounted: u64,
    /// Store commits observed (`committed` events).
    pub commits: u64,
    /// Rejected commit attempts observed (`commit_attempt` events).
    pub bounces: u64,
    /// Bounces with the stale reason.
    pub stale_bounces: u64,
    /// Bounces with the capacity reason.
    pub capacity_bounces: u64,
    /// Requests per bounce count: `retry_depth[i] = (bounces, count)`.
    pub retry_depth: Vec<(u64, u64)>,
    /// Per-stage aggregates, indexed by [`Stage`] discriminant.
    pub stages: [StageAgg; STAGE_COUNT],
    /// End-to-end latency distribution over finalized requests.
    pub total: StageAgg,
    /// Commit-stage µs split by attempt outcome (flame sub-frames).
    pub commit_by_outcome: Vec<(&'static str, u64)>,
    /// Per-server conflict heat, sorted by conflicts desc then server
    /// asc. Complete table — rankings cap it for display.
    pub hot_servers: Vec<ServerHeat>,
    /// Per-window critical paths in window order.
    pub windows: Vec<WindowPath>,
    /// Slowest finalized requests, slowest first.
    pub exemplars: Vec<RequestProfile>,
    /// Every finalized request (only under
    /// [`ProfConfig::keep_requests`]).
    pub requests: Vec<RequestProfile>,
}

impl Profile {
    /// Finalized requests (admitted + rejected).
    pub fn finalized(&self) -> u64 {
        self.admitted + self.rejected
    }

    /// Fraction of finalized requests whose stage sums covered ≥95% of
    /// their end-to-end latency. 1.0 on an empty profile (vacuously
    /// accounted).
    pub fn accounted_fraction(&self) -> f64 {
        let f = self.finalized();
        if f == 0 {
            1.0
        } else {
            self.accounted as f64 / f as f64
        }
    }

    /// Number of stages that folded at least one segment — 5 when the
    /// full sharded pipeline (queue, solve, commit, bounce, placement)
    /// was exercised.
    pub fn stage_coverage(&self) -> u64 {
        self.stages.iter().filter(|s| s.segments > 0).count() as u64
    }

    /// Top-`k` hot servers (already sorted).
    pub fn top_hot_servers(&self, k: usize) -> &[ServerHeat] {
        &self.hot_servers[..self.hot_servers.len().min(k)]
    }

    /// FNV-1a fingerprint of the top-`k` hot-server ranking — a
    /// deterministic, diffable digest of (server, conflicts, stale,
    /// capacity) tuples in rank order.
    pub fn hot_fingerprint(&self, k: usize) -> String {
        let hash = self
            .top_hot_servers(k)
            .iter()
            .flat_map(|s| [s.server, s.conflicts, s.stale, s.capacity])
            .fold(crate::FNV_OFFSET, crate::fnv1a);
        format!("{hash:016x}")
    }

    /// Critical solve path summed over windows, µs.
    pub fn solve_critical_us(&self) -> u64 {
        self.windows.iter().map(|w| w.solve_critical_us).sum()
    }

    /// Sequential commit tail summed over windows, µs.
    pub fn commit_tail_us(&self) -> u64 {
        self.windows.iter().map(|w| w.commit_us).sum()
    }

    /// Collapsed-stack (flamegraph `.folded`) export of the aggregated
    /// stage tree: one `frame;frame value` line per leaf, values in
    /// µs. Request stages nest under `admission;`, scheduler critical
    /// paths under `window;`.
    pub fn flame_folded(&self) -> String {
        let mut out = String::new();
        for stage in Stage::ALL {
            let agg = &self.stages[stage as usize];
            if stage == Stage::Commit {
                for &(outcome, us) in &self.commit_by_outcome {
                    if us > 0 {
                        let _ = writeln!(out, "admission;commit;{outcome} {us}");
                    }
                }
                // Sub-frames may not cover the whole stage (zero-µs
                // outcomes are folded up); emit the remainder so the
                // flame totals match the stage totals.
                let covered: u64 = self.commit_by_outcome.iter().map(|&(_, us)| us).sum();
                if agg.total_us > covered {
                    let _ = writeln!(out, "admission;commit {}", agg.total_us - covered);
                }
            } else if agg.total_us > 0 {
                let _ = writeln!(out, "admission;{} {}", stage.label(), agg.total_us);
            }
        }
        let solve = self.solve_critical_us();
        let commit = self.commit_tail_us();
        if solve > 0 {
            let _ = writeln!(out, "window;solve_critical {solve}");
        }
        if commit > 0 {
            let _ = writeln!(out, "window;commit_tail {commit}");
        }
        out
    }

    /// Renders the profile as one JSON object. The `deterministic`
    /// section holds only event counts and rankings (byte-identical
    /// across same-seed runs); `include_timing` adds the `timing`
    /// section with every microsecond measurement.
    pub fn to_json(&self, include_timing: bool) -> String {
        let mut out = format!(
            "{{\"schema\":\"cpo-profile\",\"schema_version\":{PROFILE_SCHEMA_VERSION},\"deterministic\":{{"
        );
        let _ = write!(
            out,
            "\"requests\":{{\"tracked\":{},\"admitted\":{},\"rejected\":{},\"in_flight\":{},\"finalized\":{},\"accounted\":{},\"accounted_fraction\":{:.6}}}",
            self.tracked,
            self.admitted,
            self.rejected,
            self.in_flight,
            self.finalized(),
            self.accounted,
            self.accounted_fraction()
        );
        let _ = write!(
            out,
            ",\"attempts\":{{\"committed\":{},\"bounced\":{},\"stale\":{},\"capacity\":{}}}",
            self.commits, self.bounces, self.stale_bounces, self.capacity_bounces
        );
        out.push_str(",\"retry_depth\":[");
        for (i, (depth, count)) in self.retry_depth.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{depth},{count}]");
        }
        out.push_str("],\"stages\":[");
        for (i, stage) in Stage::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"stage\":\"{}\",\"segments\":{}}}",
                stage.label(),
                self.stages[*stage as usize].segments
            );
        }
        let _ = write!(out, "],\"stage_coverage\":{}", self.stage_coverage());
        out.push_str(",\"hot_servers\":[");
        for (i, s) in self.top_hot_servers(HOT_JSON_CAP).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"server\":{},\"conflicts\":{},\"stale\":{},\"capacity\":{}}}",
                s.server, s.conflicts, s.stale, s.capacity
            );
        }
        let _ = write!(
            out,
            "],\"hot_fingerprint\":\"{}\"",
            self.hot_fingerprint(16)
        );
        out.push_str(",\"windows\":[");
        for (i, w) in self.windows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"window\":{},\"rounds\":{},\"shards\":{}}}",
                w.window, w.rounds, w.shards
            );
        }
        out.push_str("]}");
        if include_timing {
            out.push_str(",\"timing\":{\"stages\":[");
            for (i, stage) in Stage::ALL.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_stage_timing(&mut out, stage.label(), &self.stages[*stage as usize]);
            }
            out.push_str("],\"total\":");
            write_stage_timing(&mut out, "total", &self.total);
            let _ = write!(
                out,
                ",\"critical_path\":{{\"solve_critical_us\":{},\"commit_tail_us\":{},\"windows\":[",
                self.solve_critical_us(),
                self.commit_tail_us()
            );
            for (i, w) in self.windows.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"window\":{},\"solve_critical_us\":{},\"solve_total_us\":{},\"solve_wall_us\":{},\"commit_us\":{}}}",
                    w.window, w.solve_critical_us, w.solve_total_us, w.solve_wall_us, w.commit_us
                );
            }
            out.push_str("]},\"exemplars\":[");
            for (i, r) in self.exemplars.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_request_json(&mut out, r);
            }
            out.push_str("]}");
        }
        out.push_str("}\n");
        out
    }
}

fn write_stage_timing(out: &mut String, label: &str, agg: &StageAgg) {
    let s = agg.summary;
    let _ = write!(
        out,
        "{{\"stage\":\"{label}\",\"count\":{},\"total_us\":{},\"mean_us\":{:.2},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\"max_us\":{}}}",
        s.count, agg.total_us, s.mean, s.p50, s.p95, s.p99, s.max
    );
}

fn write_request_json(out: &mut String, r: &RequestProfile) {
    let _ = write!(
        out,
        "{{\"key\":{},\"tenant\":{},\"admitted\":{},\"total_us\":{},\"bounces\":{},\"stages\":{{",
        r.key,
        if r.tenant == NONE {
            -1i64
        } else {
            r.tenant as i64
        },
        r.admitted,
        r.total_us,
        r.bounces
    );
    for (i, stage) in Stage::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", stage.label(), r.stage_us[*stage as usize]);
    }
    out.push_str("}}");
}

// --- online state -------------------------------------------------------

/// One in-flight request.
struct ReqRec {
    arrived_ts: u64,
    last_ts: u64,
    /// Last solve phase (by sequence number) folded into this request.
    phase_seq: u64,
    tenant: u64,
    stage_us: [u64; STAGE_COUNT],
    segments: [u64; STAGE_COUNT],
    bounces: u64,
    /// Where the request stands in the lifecycle grammar.
    track: Track,
}

impl ReqRec {
    fn new(ts: u64) -> Self {
        Self {
            arrived_ts: ts,
            last_ts: ts,
            phase_seq: 0,
            tenant: NONE,
            stage_us: [0; STAGE_COUNT],
            segments: [0; STAGE_COUNT],
            bounces: 0,
            track: Track::from_arrival(),
        }
    }

    fn fold(&mut self, stage: Stage, us: u64) {
        self.stage_us[stage as usize] += us;
        self.segments[stage as usize] += 1;
    }

    /// Advances the request's clock to `ts`, folding the elapsed gap
    /// into `stage`.
    fn advance(&mut self, stage: Stage, ts: u64) {
        self.fold(stage, ts.saturating_sub(self.last_ts));
        self.last_ts = self.last_ts.max(ts);
    }
}

/// The coordinator's current solve phase (one per round).
#[derive(Clone, Copy)]
struct SolvePhase {
    seq: u64,
    start_us: u64,
    end_us: u64,
}

#[derive(Default)]
struct CommitOutcomes {
    committed: u64,
    bounce_stale: u64,
    bounce_capacity: u64,
    rejected: u64,
}

struct ProfState {
    config: ProfConfig,
    live: BTreeMap<u64, ReqRec>,
    phase: Option<SolvePhase>,
    phase_seq: u64,
    tracked: u64,
    admitted: u64,
    rejected: u64,
    accounted: u64,
    commits: u64,
    stale_bounces: u64,
    capacity_bounces: u64,
    retry_depth: BTreeMap<u64, u64>,
    stage_us: [u64; STAGE_COUNT],
    stage_segments: [u64; STAGE_COUNT],
    stage_hist: [Histogram; STAGE_COUNT],
    total_hist: Histogram,
    total_us: u64,
    commit_by: CommitOutcomes,
    servers: BTreeMap<u64, ServerHeat>,
    /// Per-server bounce counts of the window in progress, flushed to
    /// series on `window_closed`.
    window_heat: BTreeMap<u64, u64>,
    windows: BTreeMap<u64, WindowPath>,
    exemplars: Vec<RequestProfile>,
    requests: Vec<RequestProfile>,
}

impl ProfState {
    fn new(config: ProfConfig) -> Self {
        Self {
            config,
            live: BTreeMap::new(),
            phase: None,
            phase_seq: 0,
            tracked: 0,
            admitted: 0,
            rejected: 0,
            accounted: 0,
            commits: 0,
            stale_bounces: 0,
            capacity_bounces: 0,
            retry_depth: BTreeMap::new(),
            stage_us: [0; STAGE_COUNT],
            stage_segments: [0; STAGE_COUNT],
            stage_hist: std::array::from_fn(|_| Histogram::new()),
            total_hist: Histogram::new(),
            total_us: 0,
            commit_by: CommitOutcomes::default(),
            servers: BTreeMap::new(),
            window_heat: BTreeMap::new(),
            windows: BTreeMap::new(),
            exemplars: Vec::new(),
            requests: Vec::new(),
        }
    }

    /// Folds the current solve phase into the request, if it has not
    /// ridden it yet: the wait up to the phase start goes to
    /// `queue_wait` (first attempt) or `bounce_wait` (retries), the
    /// phase itself to `solve`.
    fn ride_phase(&mut self, key: u64) {
        let Some(phase) = self.phase else { return };
        let Some(rec) = self.live.get_mut(&key) else {
            return;
        };
        if phase.seq <= rec.phase_seq || phase.start_us < rec.last_ts {
            return;
        }
        let wait_stage = if rec.bounces == 0 {
            Stage::QueueWait
        } else {
            Stage::BounceWait
        };
        rec.advance(wait_stage, phase.start_us);
        rec.advance(Stage::Solve, phase.end_us);
        rec.phase_seq = phase.seq;
    }

    fn commit_segment(&mut self, key: u64, ts: u64, outcome: CommitOutcome) {
        self.ride_phase(key);
        let Some(rec) = self.live.get_mut(&key) else {
            return;
        };
        let before = rec.stage_us[Stage::Commit as usize];
        rec.advance(Stage::Commit, ts);
        let us = rec.stage_us[Stage::Commit as usize] - before;
        match outcome {
            CommitOutcome::Committed => self.commit_by.committed += us,
            CommitOutcome::BounceStale => self.commit_by.bounce_stale += us,
            CommitOutcome::BounceCapacity => self.commit_by.bounce_capacity += us,
            CommitOutcome::Rejected => self.commit_by.rejected += us,
        }
    }

    fn finalize(&mut self, key: u64, admitted: bool) {
        let Some(rec) = self.live.remove(&key) else {
            return;
        };
        let total: u64 = rec.last_ts.saturating_sub(rec.arrived_ts);
        let sum: u64 = rec.stage_us.iter().sum();
        if admitted {
            self.admitted += 1;
        } else {
            self.rejected += 1;
        }
        // ≥95% accounting invariant, integer arithmetic: sum/total ≥
        // 0.95 ⇔ 20·sum ≥ 19·total. Exact coverage (sum == total) is
        // the construction; the band absorbs only clock pathology.
        if sum * 20 >= total * 19 {
            self.accounted += 1;
        }
        *self.retry_depth.entry(rec.bounces).or_insert(0) += 1;
        for i in 0..STAGE_COUNT {
            self.stage_us[i] += rec.stage_us[i];
            self.stage_segments[i] += rec.segments[i];
            self.stage_hist[i].record(rec.stage_us[i]);
        }
        self.total_hist.record(total);
        self.total_us += total;
        let profile = RequestProfile {
            key,
            tenant: rec.tenant,
            admitted,
            total_us: total,
            stage_us: rec.stage_us,
            segments: rec.segments,
            bounces: rec.bounces,
        };
        if self.config.exemplars > 0 {
            let pos = self
                .exemplars
                .partition_point(|e| e.total_us >= profile.total_us);
            if pos < self.config.exemplars {
                self.exemplars.insert(pos, profile.clone());
                self.exemplars.truncate(self.config.exemplars);
            }
        }
        if self.config.keep_requests {
            self.requests.push(profile);
        }
    }

    fn observe(&mut self, ts: u64, kind: FlightKind, key: u64, tenant: u64, a: u64, b: u64) {
        match kind {
            FlightKind::Arrived if key != NONE => {
                self.live.insert(key, ReqRec::new(ts));
                self.tracked += 1;
                return;
            }
            FlightKind::CommitAttempt => {
                // a = first infeasible server, b = reason tag.
                let heat = self.servers.entry(a).or_insert(ServerHeat {
                    server: a,
                    conflicts: 0,
                    stale: 0,
                    capacity: 0,
                });
                heat.conflicts += 1;
                let capacity = b == 1;
                if capacity {
                    heat.capacity += 1;
                    self.capacity_bounces += 1;
                } else {
                    heat.stale += 1;
                    self.stale_bounces += 1;
                }
                *self.window_heat.entry(a).or_insert(0) += 1;
                if key != NONE {
                    self.commit_segment(
                        key,
                        ts,
                        if capacity {
                            CommitOutcome::BounceCapacity
                        } else {
                            CommitOutcome::BounceStale
                        },
                    );
                    if let Some(rec) = self.live.get_mut(&key) {
                        rec.bounces += 1;
                    }
                }
            }
            FlightKind::Committed => {
                self.commits += 1;
                if key != NONE {
                    self.commit_segment(key, ts, CommitOutcome::Committed);
                }
            }
            FlightKind::Rejected if key != NONE => {
                self.commit_segment(key, ts, CommitOutcome::Rejected);
            }
            FlightKind::Admitted if key != NONE => {
                // Native (storeless) paths fold queue+solve here;
                // after a store commit this is a no-op ride and the
                // apply gap lands in `placement`.
                self.ride_phase(key);
                if let Some(rec) = self.live.get_mut(&key) {
                    rec.tenant = tenant;
                    rec.advance(Stage::Placement, ts);
                }
            }
            FlightKind::Placed if key != NONE => {
                if let Some(rec) = self.live.get_mut(&key) {
                    rec.advance(Stage::Placement, ts);
                }
            }
            FlightKind::WindowClosed if !self.window_heat.is_empty() => {
                // a = window. Publish this window's hottest server as
                // deterministic series, then reset the window table.
                if crate::series::is_enabled() {
                    // Ascending iteration + strict > keeps the
                    // smallest server index on count ties.
                    let mut best = (0u64, 0u64);
                    for (&server, &count) in &self.window_heat {
                        if count > best.1 {
                            best = (server, count);
                        }
                    }
                    crate::series::record("prof.hot_server", a, best.0 as f64);
                    crate::series::record("prof.hot_server_conflicts", a, best.1 as f64);
                }
                self.window_heat.clear();
            }
            // Conflicted carries the round for timelines; the paired
            // CommitAttempt above already carries the attribution.
            // Everything else is irrelevant to admission latency.
            _ => {}
        }
        if key != NONE {
            self.step(key, kind, b);
        }
    }

    /// Steps the request's lifecycle [`Track`] and finalizes it the
    /// moment the track first settles. An event the grammar refuses
    /// leaves the request as it was.
    fn step(&mut self, key: u64, kind: FlightKind, b: u64) {
        let Some(rec) = self.live.get_mut(&key) else {
            return;
        };
        if rec.track.step(kind, b).is_ok() && rec.track.settled() {
            let admitted = rec.track.phase() != Phase::Rejected;
            self.finalize(key, admitted);
        }
    }

    fn snapshot(&self) -> Profile {
        let mut hot: Vec<ServerHeat> = self.servers.values().copied().collect();
        hot.sort_by_key(|s| (std::cmp::Reverse(s.conflicts), s.server));
        let mut stages: [StageAgg; STAGE_COUNT] = Default::default();
        for (i, agg) in stages.iter_mut().enumerate() {
            *agg = StageAgg {
                segments: self.stage_segments[i],
                total_us: self.stage_us[i],
                summary: self.stage_hist[i].summary(),
            };
        }
        Profile {
            tracked: self.tracked,
            admitted: self.admitted,
            rejected: self.rejected,
            in_flight: self.live.len() as u64,
            accounted: self.accounted,
            commits: self.commits,
            bounces: self.stale_bounces + self.capacity_bounces,
            stale_bounces: self.stale_bounces,
            capacity_bounces: self.capacity_bounces,
            retry_depth: self.retry_depth.iter().map(|(&d, &c)| (d, c)).collect(),
            stages,
            total: StageAgg {
                segments: self.admitted + self.rejected,
                total_us: self.total_us,
                summary: self.total_hist.summary(),
            },
            commit_by_outcome: vec![
                ("committed", self.commit_by.committed),
                ("bounce_stale", self.commit_by.bounce_stale),
                ("bounce_capacity", self.commit_by.bounce_capacity),
                ("rejected", self.commit_by.rejected),
            ],
            hot_servers: hot,
            windows: self.windows.values().copied().collect(),
            exemplars: self.exemplars.clone(),
            requests: self.requests.clone(),
        }
    }
}

#[derive(Clone, Copy)]
enum CommitOutcome {
    Committed,
    BounceStale,
    BounceCapacity,
    Rejected,
}

// --- global entry points ------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<ProfState>> = Mutex::new(None);

fn with_state<R>(f: impl FnOnce(&mut ProfState) -> R) -> Option<R> {
    let mut guard = STATE.lock().expect("profiler state poisoned");
    guard.as_mut().map(f)
}

/// Turns the profiler on with default parameters. Idempotent; resets
/// any previous aggregation.
pub fn enable() {
    enable_with(ProfConfig::default());
}

/// Turns the profiler on with explicit parameters, resetting any
/// previous aggregation. Pins the shared clock epoch so profiled
/// timestamps correlate with spans and flight events.
pub fn enable_with(config: ProfConfig) {
    crate::now_us();
    *STATE.lock().expect("profiler state poisoned") = Some(ProfState::new(config));
    ENABLED.store(true, Ordering::Release);
}

/// Turns the profiler off. Aggregated data is kept until [`reset`] so
/// a final [`snapshot`] can still be taken.
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Whether the profiler is aggregating.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Drops all profiler state.
pub fn reset() {
    ENABLED.store(false, Ordering::Release);
    *STATE.lock().expect("profiler state poisoned") = None;
}

/// Feeds one flight event into the profiler. Called from
/// [`crate::flight::record`]; drivers never call this directly.
pub(crate) fn observe(ts: u64, kind: FlightKind, key: u64, tenant: u64, a: u64, b: u64) {
    with_state(|s| s.observe(ts, kind, key, tenant, a, b));
}

/// Declares one solve round of `window`: the coordinator-observed wall
/// interval `[start_us, end_us]` (from [`crate::now_us`]) plus each
/// shard's individually measured solve µs. Subsequent per-request
/// decisions ride this phase for their queue/solve attribution, and
/// the window's critical path accumulates the slowest shard.
pub fn solve_phase(window: u64, round: u64, start_us: u64, end_us: u64, shard_us: &[u64]) {
    if !is_enabled() {
        return;
    }
    with_state(|s| {
        s.phase_seq += 1;
        s.phase = Some(SolvePhase {
            seq: s.phase_seq,
            start_us,
            end_us: end_us.max(start_us),
        });
        let w = s.windows.entry(window).or_insert(WindowPath {
            window,
            ..WindowPath::default()
        });
        w.rounds = w.rounds.max(round + 1);
        w.shards = w.shards.max(shard_us.len() as u64);
        w.solve_critical_us += shard_us.iter().copied().max().unwrap_or(0);
        w.solve_total_us += shard_us.iter().sum::<u64>();
        w.solve_wall_us += end_us.saturating_sub(start_us);
    });
}

/// Declares the sequential commit tail of one solve round: `commit_us`
/// wall µs spent replaying the round's proposals against the store.
pub fn commit_phase(window: u64, round: u64, commit_us: u64) {
    if !is_enabled() {
        return;
    }
    with_state(|s| {
        let w = s.windows.entry(window).or_insert(WindowPath {
            window,
            ..WindowPath::default()
        });
        w.rounds = w.rounds.max(round + 1);
        w.commit_us += commit_us;
    });
}

/// Snapshot of everything aggregated so far, or `None` when the
/// profiler was never enabled (a [`disable`]d profiler still
/// snapshots).
pub fn snapshot() -> Option<Profile> {
    with_state(|s| s.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight;
    use crate::test_lock;

    fn feed(ts: u64, kind: FlightKind, key: u64, tenant: u64, a: u64, b: u64) {
        observe(ts, kind, key, tenant, a, b);
    }

    #[test]
    fn sharded_lifecycle_decomposes_exactly() {
        let _g = test_lock();
        enable_with(ProfConfig {
            exemplars: 4,
            keep_requests: true,
        });
        // Request 7 arrives at t=100, round 0 solves [140, 180],
        // bounces off server 3 at t=200, round 1 solves [230, 260],
        // commits at t=270, admitted at t=275, two VMs placed by 290.
        feed(100, FlightKind::Arrived, 7, NONE, 0, 2);
        solve_phase(0, 0, 140, 180, &[40, 25]);
        feed(200, FlightKind::CommitAttempt, 7, NONE, 3, 0);
        feed(200, FlightKind::Conflicted, 7, NONE, 0, 0);
        commit_phase(0, 0, 30);
        solve_phase(0, 1, 230, 260, &[30]);
        feed(270, FlightKind::Committed, 7, NONE, 0, 1);
        feed(275, FlightKind::Admitted, 7, 42, 0, 2);
        feed(280, FlightKind::Placed, 7, 42, 5, 0);
        feed(290, FlightKind::Placed, 7, 42, 6, 1);
        commit_phase(0, 1, 12);
        feed(300, FlightKind::WindowClosed, NONE, NONE, 0, 1);
        let p = snapshot().unwrap();
        reset();

        assert_eq!(p.tracked, 1);
        assert_eq!(p.admitted, 1);
        assert_eq!(p.accounted, 1);
        assert!((p.accounted_fraction() - 1.0).abs() < 1e-12);
        let r = &p.requests[0];
        assert_eq!(r.total_us, 190, "arrived 100 → last placed 290");
        assert_eq!(r.stage_sum_us(), r.total_us, "stages sum to total");
        assert_eq!(r.stage_us[Stage::QueueWait as usize], 40, "100→140");
        assert_eq!(
            r.stage_us[Stage::Solve as usize],
            40 + 30,
            "both rounds' wall"
        );
        assert_eq!(
            r.stage_us[Stage::Commit as usize],
            20 + 10,
            "180→200 bounce, 260→270 commit"
        );
        assert_eq!(r.stage_us[Stage::BounceWait as usize], 30, "200→230");
        assert_eq!(r.stage_us[Stage::Placement as usize], 20, "270→290");
        assert_eq!(r.bounces, 1);
        assert_eq!(p.stage_coverage(), 5);
        assert_eq!(p.retry_depth, vec![(1, 1)]);
        // Hotspots: one stale bounce on server 3.
        assert_eq!(
            p.hot_servers,
            vec![ServerHeat {
                server: 3,
                conflicts: 1,
                stale: 1,
                capacity: 0
            }]
        );
        // Critical path: slowest shard per round, plus commit tails.
        assert_eq!(p.windows.len(), 1);
        let w = &p.windows[0];
        assert_eq!(w.rounds, 2);
        assert_eq!(w.shards, 2);
        assert_eq!(w.solve_critical_us, 40 + 30);
        assert_eq!(w.solve_total_us, 40 + 25 + 30);
        assert_eq!(w.commit_us, 42);
        // Flame export covers every stage with its exact totals.
        let flame = p.flame_folded();
        assert!(flame.contains("admission;queue_wait 40"));
        assert!(flame.contains("admission;commit;bounce_stale 20"));
        assert!(flame.contains("admission;commit;committed 10"));
        assert!(flame.contains("window;solve_critical 70"));
    }

    #[test]
    fn rejected_after_budget_exhaustion_accounts_fully() {
        let _g = test_lock();
        enable_with(ProfConfig {
            exemplars: 2,
            keep_requests: true,
        });
        feed(10, FlightKind::Arrived, 1, NONE, 0, 1);
        solve_phase(0, 0, 20, 30, &[10]);
        feed(35, FlightKind::CommitAttempt, 1, NONE, 0, 0);
        solve_phase(0, 1, 40, 50, &[10]);
        feed(55, FlightKind::CommitAttempt, 1, NONE, 0, 1);
        feed(60, FlightKind::Rejected, 1, 9, 0, 0);
        let p = snapshot().unwrap();
        reset();
        assert_eq!((p.admitted, p.rejected), (0, 1));
        let r = &p.requests[0];
        assert!(!r.admitted);
        assert_eq!(r.total_us, 50);
        assert_eq!(r.stage_sum_us(), 50);
        assert_eq!(r.bounces, 2);
        assert_eq!((p.stale_bounces, p.capacity_bounces), (1, 1));
        // The rejection decision after the last bounce lands in commit.
        assert_eq!(r.stage_us[Stage::Commit as usize], 5 + 5 + 5);
    }

    #[test]
    fn unsharded_path_splits_queue_and_solve_without_a_store() {
        let _g = test_lock();
        enable_with(ProfConfig {
            exemplars: 2,
            keep_requests: true,
        });
        feed(0, FlightKind::Arrived, 4, NONE, 0, 1);
        solve_phase(0, 0, 15, 40, &[25]);
        feed(50, FlightKind::Admitted, 4, 8, 0, 1);
        feed(55, FlightKind::Placed, 4, 8, 2, 0);
        let p = snapshot().unwrap();
        reset();
        let r = &p.requests[0];
        assert_eq!(r.stage_us[Stage::QueueWait as usize], 15);
        assert_eq!(r.stage_us[Stage::Solve as usize], 25);
        assert_eq!(r.stage_us[Stage::Commit as usize], 0);
        assert_eq!(r.stage_us[Stage::Placement as usize], 15, "40→55");
        assert_eq!(r.stage_sum_us(), r.total_us);
    }

    #[test]
    fn deterministic_json_is_stable_and_excludes_timing() {
        let _g = test_lock();
        let run = || {
            enable();
            feed(5, FlightKind::Arrived, 1, NONE, 0, 1);
            solve_phase(0, 0, 10, 20, &[10]);
            feed(25, FlightKind::CommitAttempt, 1, NONE, 7, 0);
            solve_phase(0, 1, 30, 40, &[9]);
            feed(45, FlightKind::Committed, 1, NONE, 0, 1);
            feed(46, FlightKind::Admitted, 1, 0, 0, 1);
            feed(47, FlightKind::Placed, 1, 0, 7, 0);
            let p = snapshot().unwrap();
            reset();
            p
        };
        let a = run();
        let b = run();
        assert_eq!(a.to_json(false), b.to_json(false), "deterministic subset");
        let det = a.to_json(false);
        assert!(!det.contains("timing"), "no timing in the det subset");
        assert!(det.contains("\"hot_fingerprint\""));
        let full = a.to_json(true);
        assert!(full.contains("\"timing\""));
        assert!(full.contains("\"exemplars\""));
        assert!(full.starts_with("{\"schema\":\"cpo-profile\""));
    }

    #[test]
    fn exemplars_keep_the_slowest_requests() {
        let _g = test_lock();
        enable_with(ProfConfig {
            exemplars: 2,
            keep_requests: false,
        });
        for (key, dur) in [(1u64, 10u64), (2, 50), (3, 30), (4, 5)] {
            feed(100 * key, FlightKind::Arrived, key, NONE, 0, 1);
            feed(100 * key + dur, FlightKind::Admitted, key, key, 0, 1);
            feed(100 * key + dur, FlightKind::Placed, key, key, 0, 0);
        }
        let p = snapshot().unwrap();
        reset();
        let totals: Vec<u64> = p.exemplars.iter().map(|e| e.total_us).collect();
        assert_eq!(totals, vec![50, 30], "top-2 slowest, slowest first");
        assert!(p.requests.is_empty(), "keep_requests off");
        assert_eq!(p.tracked, 4);
        assert_eq!(p.in_flight, 0);
    }

    #[test]
    fn disabled_profiler_observes_nothing() {
        let _g = test_lock();
        reset();
        assert!(!is_enabled());
        flight::record(FlightKind::Arrived, 9, NONE, 0, 1);
        solve_phase(0, 0, 0, 10, &[10]);
        assert!(snapshot().is_none());
    }

    #[test]
    fn hot_server_ranking_sorts_by_conflicts_then_index() {
        let _g = test_lock();
        enable();
        for (server, n) in [(5u64, 3), (2, 3), (9, 7)] {
            for _ in 0..n {
                feed(1, FlightKind::CommitAttempt, NONE, NONE, server, 0);
            }
        }
        let p = snapshot().unwrap();
        reset();
        let order: Vec<u64> = p.hot_servers.iter().map(|s| s.server).collect();
        assert_eq!(order, vec![9, 2, 5], "count desc, index asc on ties");
        assert_eq!(p.hot_fingerprint(2).len(), 16);
        assert_ne!(p.hot_fingerprint(1), p.hot_fingerprint(2));
        assert_eq!(p.bounces, 13);
    }
}
