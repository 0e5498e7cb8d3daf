//! Acceptance suite for the latency-attribution profiler
//! (`cpo_obs::prof`) over real sharded runs: per-request stage sums
//! must equal end-to-end latency, the deterministic profile subset must
//! reproduce byte-for-byte across same-seed runs, and the per-server
//! conflict heat must agree with the placement store's own counters.
//!
//! The profiler and the flight hook are global, so every test in this
//! file serialises on one mutex and resets both on the way out.

use cpo_core::prelude::RoundRobinAllocator;
use cpo_des::prelude::*;
use cpo_model::attr::AttrSet;
use cpo_model::prelude::*;
use cpo_obs::flight::{FlightKind, FlightSnapshot};
use cpo_obs::prof::{self, ProfConfig, Profile};
use cpo_obs::timeline;
use cpo_platform::prelude::{
    FleetExecutor, ShardConfig, ShardedScheduler, SimConfig, StoreMetrics, WindowExecutor,
};
use cpo_scenario::prelude::ArrivalSpec;
use cpo_traces::prelude::*;
use std::io::Cursor;
use std::sync::Mutex;

const SAMPLE: &str = include_str!("../examples/data/azure_sample.csv");

/// Serialises profiler-touching tests (flight + prof are process-wide).
static LOCK: Mutex<()> = Mutex::new(());

fn infra(servers: usize) -> Infrastructure {
    Infrastructure::new(
        AttrSet::standard(),
        vec![("dc".into(), ServerProfile::commodity(3).build_many(servers))],
    )
}

/// One profiled sharded trace replay; returns the profile, the store's
/// cumulative commit counters and the flight ring as the run left it.
fn profiled_trace_replay(
    servers: usize,
    shards: usize,
    amplify: usize,
    seed: u64,
    config: ProfConfig,
) -> (Profile, StoreMetrics, FlightSnapshot) {
    let reader = AzureReader::new(Cursor::new(SAMPLE), MalformedPolicy::Fail).expect("sample");
    let amp = Amplifier::new(
        reader,
        AmplifyConfig {
            factor: amplify,
            time_jitter: 30.0,
            demand_jitter: 0.2,
            seed,
        },
    )
    .expect("amplify");
    let horizon = amp.horizon() + 120.0;
    let source = TraceArrivalSource::new(amp, ArrivalSpec::default(), seed);
    let des = DesConfig {
        window_length: 60.0,
        latency: LatencyModel::Fixed(0.0),
        failures: None,
        seed,
        solve_deadline: None,
    };
    cpo_obs::flight::enable();
    prof::enable_with(config);
    let backend = ShardedScheduler::new(
        FleetExecutor::new(infra(servers)),
        ShardConfig {
            shards,
            // Round-robin partitioning on purpose: these tests attribute
            // commit *conflicts*, which region hashing is built to avoid.
            partition: cpo_platform::prelude::PartitionStrategy::RoundRobin,
            ..ShardConfig::default()
        },
    );
    let mut sched = WindowedScheduler::with_backend(backend, des, source);
    sched.run(&RoundRobinAllocator, horizon);
    let metrics = sched.backend().backend().store().metrics();
    let profile = prof::snapshot().expect("profiler enabled");
    let flight = cpo_obs::flight::snapshot();
    prof::disable();
    prof::reset();
    cpo_obs::flight::disable();
    cpo_obs::flight::reset();
    (profile, metrics, flight)
}

/// One profiled sharded Poisson DES run (synthetic arrivals, sharded
/// `WindowExecutor` backend — the `exper des --shards N` path).
fn profiled_des_run(
    servers: usize,
    shards: usize,
    rate: f64,
    horizon: f64,
    seed: u64,
    config: ProfConfig,
) -> Profile {
    let source = PoissonArrivals::new(
        ArrivalSpec {
            rate,
            ..Default::default()
        },
        seed,
    );
    let des = DesConfig {
        latency: LatencyModel::PerRequest {
            base: 0.02,
            per_request: 0.01,
        },
        failures: None,
        seed,
        ..Default::default()
    };
    cpo_obs::flight::enable();
    prof::enable_with(config);
    let backend = ShardedScheduler::new(
        WindowExecutor::new(infra(servers), SimConfig::default()),
        ShardConfig {
            shards,
            // Round-robin partitioning on purpose: these tests attribute
            // commit *conflicts*, which region hashing is built to avoid.
            partition: cpo_platform::prelude::PartitionStrategy::RoundRobin,
            ..ShardConfig::default()
        },
    );
    let mut sched = WindowedScheduler::with_backend(backend, des, source);
    sched.run(&RoundRobinAllocator, horizon);
    let profile = prof::snapshot().expect("profiler enabled");
    prof::disable();
    prof::reset();
    cpo_obs::flight::disable();
    cpo_obs::flight::reset();
    profile
}

#[test]
fn stage_sums_equal_end_to_end_latency_on_a_sharded_trace_replay() {
    let _g = LOCK.lock().unwrap();
    let (profile, _, flight) = profiled_trace_replay(
        48,
        4,
        40,
        42,
        ProfConfig {
            exemplars: 8,
            keep_requests: true,
        },
    );
    assert!(profile.tracked > 0, "replay must track requests");
    assert_eq!(
        profile.finalized(),
        profile.tracked - profile.in_flight,
        "every decided request is finalized"
    );
    // The acceptance invariant asks for ≥95% attribution per admitted
    // request; the segment construction is gap-free, so the sum is in
    // fact exact for every finalized request.
    for r in &profile.requests {
        assert_eq!(
            r.stage_sum_us(),
            r.total_us,
            "request {}: stages {:?} must sum to total {}",
            r.key,
            r.stage_us,
            r.total_us
        );
    }
    assert!(
        profile.accounted_fraction() >= 0.95,
        "accounted fraction {:.4} below the 95% invariant",
        profile.accounted_fraction()
    );
    assert_eq!(
        profile.requests.len() as u64,
        profile.finalized(),
        "keep_requests must retain every finalized request"
    );

    // The profiler and the timeline validator step one lifecycle
    // grammar, so they must agree on the same run: the ring's timelines
    // are defect-free, and the profiler's finalized/in-flight split is
    // exactly the timelines' settled/unsettled split from `arrived` on.
    assert_eq!(flight.overwritten, 0, "this replay must fit in the ring");
    let set = timeline::reconstruct(&flight.events);
    let errors = set.all_errors();
    assert!(errors.is_empty(), "lifecycle defects: {errors:?}");
    let (mut admitted, mut rejected, mut unsettled) = (0, 0, 0);
    for t in &set.timelines {
        if !t.events.iter().any(|e| e.kind == FlightKind::Arrived) {
            continue;
        }
        match (t.track().settled(), t.admitted()) {
            (false, _) => unsettled += 1,
            (true, true) => admitted += 1,
            (true, false) => rejected += 1,
        }
    }
    assert_eq!(profile.admitted, admitted, "settled admitted timelines");
    assert_eq!(profile.rejected, rejected, "settled rejected timelines");
    assert_eq!(profile.in_flight, unsettled, "unsettled timelines");
}

#[test]
fn conflict_hotspots_agree_with_store_metrics() {
    let _g = LOCK.lock().unwrap();
    let (profile, metrics, _) = profiled_trace_replay(32, 4, 40, 7, ProfConfig::default());
    assert!(
        metrics.conflicts > 0,
        "a 4-shard replay on a small fleet must produce conflicts"
    );
    assert_eq!(profile.commits, metrics.commits, "commit counters agree");
    assert_eq!(profile.bounces, metrics.conflicts, "bounce counters agree");
    assert_eq!(
        profile.capacity_bounces, metrics.capacity_conflicts,
        "capacity split agrees"
    );
    let heat: u64 = profile.hot_servers.iter().map(|h| h.conflicts).sum();
    assert_eq!(
        heat, metrics.conflicts,
        "per-server heat must sum to the store's conflict counter"
    );
    // Ranking is conflicts-descending, ties broken by server index.
    for pair in profile.hot_servers.windows(2) {
        assert!(
            (pair[1].conflicts, pair[0].server) <= (pair[0].conflicts, pair[1].server),
            "hot-server ranking out of order: {pair:?}"
        );
    }
    for h in &profile.hot_servers {
        assert_eq!(h.conflicts, h.stale + h.capacity, "reason split is total");
    }
}

#[test]
fn deterministic_profile_subset_is_byte_identical_across_same_seed_runs() {
    let _g = LOCK.lock().unwrap();
    let (a, _, _) = profiled_trace_replay(32, 4, 30, 13, ProfConfig::default());
    let (b, _, _) = profiled_trace_replay(32, 4, 30, 13, ProfConfig::default());
    assert_eq!(
        a.to_json(false),
        b.to_json(false),
        "deterministic profile JSON must reproduce byte-for-byte"
    );
    // A different seed must actually change the deterministic payload —
    // otherwise the byte-identity above proves nothing.
    let (c, _, _) = profiled_trace_replay(32, 4, 30, 14, ProfConfig::default());
    assert_ne!(
        a.to_json(false),
        c.to_json(false),
        "deterministic subset must depend on the run"
    );
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// On randomized sharded Poisson runs, every finalized request's
        /// stage decomposition sums exactly to its end-to-end latency
        /// and the accounting invariant holds.
        #[test]
        fn stage_sums_equal_latency_on_randomized_sharded_runs(
            seed in 0u64..1000,
            servers in 6usize..20,
            shards in 1usize..5,
            rate in 1.0f64..6.0,
        ) {
            let _g = LOCK.lock().unwrap();
            let profile = profiled_des_run(
                servers,
                shards,
                rate,
                30.0,
                seed,
                ProfConfig { exemplars: 4, keep_requests: true },
            );
            for r in &profile.requests {
                prop_assert_eq!(
                    r.stage_sum_us(),
                    r.total_us,
                    "request {}: stages {:?} vs total {}",
                    r.key, r.stage_us, r.total_us
                );
            }
            if profile.finalized() > 0 {
                prop_assert!(profile.accounted_fraction() >= 0.95);
            }
        }
    }
}
