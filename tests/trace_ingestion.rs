//! Cross-crate integration tests for the trace-ingestion pipeline: CSV →
//! reader → amplifier → `TraceArrivalSource` → continuous-time scheduler
//! over the `FleetExecutor`, all through the public `cpo_iaas` facade.

use cpo_iaas::des::prelude::*;
use cpo_iaas::model::attr::AttrSet;
use cpo_iaas::prelude::*;
use cpo_iaas::scenario::prelude::ArrivalSpec;
use cpo_iaas::traces::prelude::*;
use std::io::Write as _;

const SAMPLE: &str = include_str!("../examples/data/azure_sample.csv");

/// The sample trace on disk, written once per process: tests run
/// concurrently, and rewriting a file another test is reading truncates
/// it under the reader. The process id keeps concurrent test binaries
/// apart.
fn sample_path() -> &'static std::path::Path {
    static PATH: std::sync::OnceLock<std::path::PathBuf> = std::sync::OnceLock::new();
    PATH.get_or_init(|| {
        let dir = std::env::temp_dir().join("cpo_trace_ingestion_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("azure_sample_{}.csv", std::process::id()));
        std::fs::write(&path, SAMPLE).unwrap();
        path
    })
}

fn replay(seed: u64, factor: usize) -> Vec<(usize, usize, usize)> {
    let reader = open_dataset(
        &format!("azure:{}", sample_path().display()),
        MalformedPolicy::Fail,
    )
    .unwrap();
    let amp = Amplifier::new(
        reader,
        AmplifyConfig {
            factor,
            time_jitter: 20.0,
            demand_jitter: 0.15,
            seed,
        },
    )
    .unwrap();
    let horizon = amp.horizon() + 120.0;
    let infra = Infrastructure::new(
        AttrSet::standard(),
        vec![("dc".into(), ServerProfile::commodity(3).build_many(48))],
    );
    let source = TraceArrivalSource::new(amp, ArrivalSpec::default(), seed);
    let config = DesConfig {
        window_length: 60.0,
        latency: LatencyModel::Fixed(0.0),
        failures: None,
        seed,
        solve_deadline: None,
    };
    let mut sched = WindowedScheduler::with_backend(FleetExecutor::new(infra), config, source);
    let report = sched.run(&RoundRobinAllocator, horizon);
    assert!(sched.source().error().is_none(), "stream must stay clean");
    sched.backend().verify().expect("fleet books balance");
    report
        .windows
        .iter()
        .map(|w| (w.admitted, w.rejected, w.running_vms))
        .collect()
}

#[test]
fn amplified_replay_is_seed_deterministic() {
    let a = replay(11, 8);
    let b = replay(11, 8);
    assert_eq!(a, b, "same seed must reproduce identical window outcomes");
    assert!(
        a.iter().map(|w| w.0).sum::<usize>() > 0,
        "something admitted"
    );
}

#[test]
fn different_amplifier_seeds_diverge() {
    let a = replay(1, 8);
    let b = replay(2, 8);
    assert_ne!(a, b, "jittered replicas must depend on the seed");
}

#[test]
fn malformed_rows_skip_or_fail_by_policy() {
    let dir = std::env::temp_dir().join("cpo_trace_ingestion_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("malformed.csv");
    let mut f = std::fs::File::create(&path).unwrap();
    writeln!(f, "vm_id,vm_created,vm_deleted,core_count,memory_gb").unwrap();
    writeln!(f, "a,0,100,2,4").unwrap();
    writeln!(f, "b,5,not-a-number,2,4").unwrap();
    writeln!(f, "c,10,100,1,2").unwrap();
    drop(f);
    let spec = format!("azure:{}", path.display());

    let mut skip = open_dataset(&spec, MalformedPolicy::Skip).unwrap();
    let mut good = 0;
    while let Some(event) = skip.next_event() {
        event.unwrap();
        good += 1;
    }
    assert_eq!(good, 2);
    assert_eq!(skip.skipped_rows(), 1);

    let mut fail = open_dataset(&spec, MalformedPolicy::Fail).unwrap();
    let mut saw_error = false;
    while let Some(event) = fail.next_event() {
        if let Err(TraceError::MalformedRow { line, .. }) = event {
            assert_eq!(line, 3);
            saw_error = true;
            break;
        }
    }
    assert!(saw_error, "Fail policy must surface the malformed row");
}

#[test]
fn out_of_order_rows_are_healed_within_the_reorder_window() {
    // vm_created out of order by a bounded amount: the Sorted wrapper that
    // open_dataset installs must emit a non-decreasing stream anyway.
    let dir = std::env::temp_dir().join("cpo_trace_ingestion_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("unordered.csv");
    let mut f = std::fs::File::create(&path).unwrap();
    writeln!(f, "vm_id,vm_created,vm_deleted,core_count,memory_gb").unwrap();
    for (id, created) in [("a", 30), ("b", 10), ("c", 20), ("d", 5)] {
        writeln!(f, "{id},{created},{},2,4", created + 100).unwrap();
    }
    drop(f);
    let mut reader =
        open_dataset(&format!("azure:{}", path.display()), MalformedPolicy::Fail).unwrap();
    let mut times = Vec::new();
    while let Some(event) = reader.next_event() {
        times.push(event.unwrap().at);
    }
    assert_eq!(times, vec![5.0, 10.0, 20.0, 30.0]);
}

#[test]
fn zero_duration_vms_flow_through_and_depart_immediately() {
    // A VM deleted the instant it is created (holding 0) must be admitted
    // and departed without tripping strict accounting.
    let events = vec![
        TraceEvent {
            at: 0.0,
            id: 0,
            vm_count: 1,
            cpu: 2.0,
            ram: 4096.0,
            disk: 20.0,
            holding: 0.0,
        },
        TraceEvent {
            at: 10.0,
            id: 1,
            vm_count: 2,
            cpu: 1.0,
            ram: 2048.0,
            disk: 10.0,
            holding: 50.0,
        },
    ];
    let infra = Infrastructure::new(
        AttrSet::standard(),
        vec![("dc".into(), ServerProfile::commodity(3).build_many(4))],
    );
    let source = TraceArrivalSource::new(VecReader::new(events), ArrivalSpec::default(), 3);
    let config = DesConfig {
        window_length: 20.0,
        latency: LatencyModel::Fixed(0.0),
        failures: None,
        seed: 3,
        solve_deadline: None,
    };
    let mut sched = WindowedScheduler::with_backend(FleetExecutor::new(infra), config, source);
    let report = sched.run(&RoundRobinAllocator, 200.0);
    assert_eq!(report.total_admitted(), 2);
    assert_eq!(report.total_rejected(), 0);
    // Everyone gone by the end: the backend drained back to empty books.
    let last = report.windows.last().unwrap();
    assert_eq!(last.running_vms, 0);
    assert_eq!(last.active_servers, 0);
    sched.backend().verify().unwrap();
}

#[test]
fn amplifier_stream_is_byte_identical_for_the_same_seed() {
    let collect = |seed: u64| -> Vec<(u64, u64, u64)> {
        let reader = AzureReader::new(std::io::Cursor::new(SAMPLE), MalformedPolicy::Fail).unwrap();
        let mut amp = Amplifier::new(
            reader,
            AmplifyConfig {
                factor: 50,
                time_jitter: 40.0,
                demand_jitter: 0.3,
                seed,
            },
        )
        .unwrap();
        let mut out = Vec::new();
        while let Some(event) = amp.next_event() {
            let e = event.unwrap();
            out.push((e.id, e.at.to_bits(), e.cpu.to_bits()));
        }
        out
    };
    let a = collect(9);
    assert_eq!(a.len(), 64 * 50);
    assert_eq!(a, collect(9));
    assert_ne!(a, collect(10));
}
