//! Per-engine pin of the flight-recorder lifecycle stream.
//!
//! Each run replays a fixed scenario through `WindowedScheduler` with the
//! flight recorder on and hashes, in ring order, the
//! `(kind, key, tenant, a, b)` tuple of every lifecycle event (admitted,
//! placed, rejected, migrated, departed, SLA violation, server
//! failure/repair, window close). Tickets and timestamps are left out:
//! they depend on the process and the clock, not on the engine. The hash
//! is compared against a constant committed from a known-good run, so
//! any change to which lifecycle events an engine records, to their
//! payloads or to their order shows up here as a mismatch.
//!
//! Three engines are pinned: `WindowExecutor` under MTBF/MTTR failures,
//! `FleetExecutor` on the committed Azure sample, and
//! `ShardedScheduler<FleetExecutor>` at two shards on the same trace.
//!
//! The recorder is process-global, so every test takes `LOCK` first.

use cpo_iaas::core::prelude::*;
use cpo_iaas::des::prelude::*;
use cpo_iaas::model::attr::AttrSet;
use cpo_iaas::obs::flight::{self, FlightKind};
use cpo_iaas::prelude::*;
use cpo_iaas::traces::prelude::*;
use std::io::Cursor;
use std::sync::{Mutex, MutexGuard};

const SAMPLE: &str = include_str!("../examples/data/azure_sample.csv");

static LOCK: Mutex<()> = Mutex::new(());

/// Serialises access to the recorder; a failed test must not poison the
/// others.
fn recorder_guard() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn infra(servers: usize) -> Infrastructure {
    Infrastructure::new(
        AttrSet::standard(),
        vec![("dc".into(), ServerProfile::commodity(3).build_many(servers))],
    )
}

fn is_lifecycle(kind: FlightKind) -> bool {
    matches!(
        kind,
        FlightKind::Admitted
            | FlightKind::Placed
            | FlightKind::Rejected
            | FlightKind::Migrated
            | FlightKind::Departed
            | FlightKind::SlaViolated
            | FlightKind::ServerFailed
            | FlightKind::ServerRepaired
            | FlightKind::WindowClosed
    )
}

/// FNV-1a over the little-endian words of every lifecycle tuple.
fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Runs `scenario` with the recorder on and returns the lifecycle hash
/// plus the number of lifecycle events it covers.
fn lifecycle_hash(scenario: impl FnOnce()) -> (u64, usize) {
    flight::enable();
    flight::reset();
    scenario();
    let snap = flight::snapshot();
    flight::disable();
    assert_eq!(snap.overwritten, 0, "the run must fit in the ring");
    let events: Vec<_> = snap
        .events
        .into_iter()
        .filter(|e| is_lifecycle(e.kind))
        .collect();
    let hash = fnv1a(
        events
            .iter()
            .flat_map(|e| [e.kind as u64, e.key, e.tenant, e.a, e.b]),
    );
    (hash, events.len())
}

/// The committed sample, amplified ×8 on one timeline.
fn trace_source() -> (TraceArrivalSource<Amplifier>, f64) {
    let reader =
        AzureReader::new(Cursor::new(SAMPLE), MalformedPolicy::Fail).expect("sample parses");
    let amp = Amplifier::new(
        reader,
        AmplifyConfig {
            factor: 8,
            time_jitter: 30.0,
            demand_jitter: 0.2,
            seed: 7,
        },
    )
    .expect("sample amplifies");
    let horizon = amp.horizon() + 120.0;
    (
        TraceArrivalSource::new(amp, ArrivalSpec::default(), 7),
        horizon,
    )
}

fn trace_config() -> DesConfig {
    DesConfig {
        window_length: 60.0,
        latency: LatencyModel::Fixed(0.0),
        failures: Some(FailureSpec {
            mtbf: 900.0,
            mttr: 120.0,
        }),
        seed: 7,
        solve_deadline: None,
    }
}

#[test]
fn window_executor_lifecycle_matches_the_pin() {
    let _guard = recorder_guard();
    let (hash, count) = lifecycle_hash(|| {
        let arrivals = PoissonArrivals::new(
            ArrivalSpec {
                rate: 3.0,
                lifetime: (2.0, 6.0),
                ..Default::default()
            },
            11,
        );
        let config = DesConfig {
            window_length: 1.0,
            latency: LatencyModel::Fixed(0.05),
            failures: Some(FailureSpec {
                mtbf: 12.0,
                mttr: 2.5,
            }),
            seed: 11,
            solve_deadline: None,
        };
        let mut sched = WindowedScheduler::new(infra(10), SimConfig::default(), config, arrivals);
        let report = sched.run(&CpAllocator::default(), 30.0);
        assert!(report.total_admitted() > 0);
        assert!(sched.executor().log().failure_count() > 0);
    });
    assert_eq!((hash, count), (0x49c6_144a_1c1a_26bf, 989));
}

#[test]
fn fleet_executor_lifecycle_matches_the_pin() {
    let _guard = recorder_guard();
    let (hash, count) = lifecycle_hash(|| {
        let (source, horizon) = trace_source();
        let mut sched =
            WindowedScheduler::with_backend(FleetExecutor::new(infra(2)), trace_config(), source);
        let report = sched.run(&RoundRobinAllocator, horizon);
        assert!(report.total_admitted() > 0);
        assert!(sched.backend().verify().is_ok());
    });
    assert_eq!((hash, count), (0x96f9_6558_7411_37ed, 1111));
}

#[test]
fn sharded_fleet_lifecycle_matches_the_pin() {
    let _guard = recorder_guard();
    let (hash, count) = lifecycle_hash(|| {
        let (source, horizon) = trace_source();
        let backend = ShardedScheduler::new(
            FleetExecutor::new(infra(2)),
            ShardConfig {
                shards: 2,
                ..ShardConfig::default()
            },
        );
        let mut sched = WindowedScheduler::with_backend(backend, trace_config(), source);
        let report = sched.run(&RoundRobinAllocator, horizon);
        assert!(report.total_admitted() > 0);
        assert!(sched.backend().backend().verify().is_ok());
    });
    assert_eq!((hash, count), (0x720e_1e71_4afc_4123, 1107));
}
