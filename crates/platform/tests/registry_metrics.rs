//! Registry-only telemetry (metrics registry on, flight recorder and
//! series bus off):
//!
//! * a sharded run reports one `shard.solves` count per part solve;
//! * both engines report their window close under the same
//!   `platform.*` names.
//!
//! The registry is process-global, so every test takes `LOCK` first.

use cpo_core::prelude::{AllocationOutcome, Allocator, RoundRobinAllocator};
use cpo_model::attr::AttrSet;
use cpo_model::prelude::*;
use cpo_platform::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

/// Takes the registry for one test and leaves it empty and enabled with
/// the flight recorder and series bus off.
fn registry_only() -> MutexGuard<'static, ()> {
    let guard = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    cpo_obs::flight::disable();
    cpo_obs::series::disable();
    cpo_obs::enable();
    cpo_obs::reset();
    guard
}

/// Round-robin that counts its `allocate` calls.
#[derive(Default)]
struct CountingAllocator {
    calls: AtomicU64,
}

impl Allocator for CountingAllocator {
    fn name(&self) -> &'static str {
        "counting"
    }

    fn allocate(&self, problem: &AllocationProblem) -> AllocationOutcome {
        self.calls.fetch_add(1, Ordering::Relaxed);
        RoundRobinAllocator.allocate(problem)
    }
}

fn infra(servers: usize) -> Infrastructure {
    Infrastructure::new(
        AttrSet::standard(),
        vec![("dc".into(), ServerProfile::commodity(3).build_many(servers))],
    )
}

fn arrivals(requests: usize) -> RequestBatch {
    let mut batch = RequestBatch::new();
    for i in 0..requests {
        let cpu = 1.0 + (i % 4) as f64;
        batch.push_request(vec![vm_spec(cpu, 4096.0, 40.0); 1 + i % 2], vec![]);
    }
    batch
}

#[test]
fn registry_only_sharded_run_counts_every_part_solve() {
    let _guard = registry_only();
    let allocator = CountingAllocator::default();
    let mut sched = ShardedScheduler::new(
        FleetExecutor::new(infra(3)),
        ShardConfig {
            shards: 2,
            ..ShardConfig::default()
        },
    );
    for _ in 0..4 {
        let batch = arrivals(12);
        let ids = sched.register_arrivals(&batch);
        let (report, _) = sched.execute_window(&allocator, &batch, &ids);
        assert_eq!(report.admitted + report.rejected, 12);
    }
    let solves = allocator.calls.load(Ordering::Relaxed);
    assert!(solves >= 8, "two parts per window at least: {solves}");
    let counted = cpo_obs::snapshot().counters.get("shard.solves").copied();
    assert_eq!(counted, Some(solves));
    cpo_obs::disable();
}

#[test]
fn both_engines_close_windows_under_the_same_names() {
    let _guard = registry_only();
    let mut fleet = FleetExecutor::new(infra(4));
    let mut exec = WindowExecutor::new(infra(4), SimConfig::default());
    let batch = arrivals(6);
    let engines: [&mut dyn WindowBackend; 2] = [&mut fleet, &mut exec];
    for (runs, engine) in engines.into_iter().enumerate() {
        let ids = engine.register_arrivals(&batch);
        let (report, _) = engine.execute_window(&RoundRobinAllocator, &batch, &ids);
        let snap = cpo_obs::snapshot();
        for (name, value) in [
            ("platform.running_tenants", report.running_tenants),
            ("platform.running_vms", report.running_vms),
            ("platform.active_servers", report.active_servers),
        ] {
            assert_eq!(snap.gauges.get(name), Some(&(value as f64)), "{name}");
        }
        for name in ["platform.solve_ns", "span.platform.window.us"] {
            let count = snap.histograms.get(name).map_or(0, |h| h.count);
            assert_eq!(count, runs as u64 + 1, "{name}");
        }
    }
    cpo_obs::disable();
}
