//! Dependency-free micro-benchmark runner: times the hot kernels as a
//! plain binary CI runs on every push, and writes the results as
//! machine-readable JSON.
//!
//! ```text
//! cargo run --release -p cpo-bench --bin bench_micro [out.json]
//! ```
//!
//! Cells:
//! * `micro.config` — the host's core count (`host_cores`);
//! * `cpsolve.{queued,reference}` — the fig8 seed-42 batch CSP under both
//!   propagation engines (wall time, propagator invocations, nodes);
//! * `des.synthetic_churn` — raw event-queue throughput in events/s;
//! * `des.window_departures` — the event queue under trace-native's
//!   departure shape ([`window_departures`]: the 125,056 arrivals of the
//!   sample amplified 1,954 times (seed 42), each departing its own
//!   holding time after the close of its 60 s window, so every
//!   replica's copy of a sample row lands in one burst): wall time,
//!   events popped, events/s and an exact FNV-1a fingerprint of the pop
//!   order;
//! * `tabu.move_scoring.{delta,full}` — the fig8 seed-42 tabu polish
//!   under incremental vs full move scoring (wall time, `eval_work`
//!   model-cell counter), plus the full/delta work ratio;
//! * `tabu.exhaustive_scan` — the same polish under the exhaustive n·m
//!   scan (placement fingerprint and deterministic counters);
//! * `tabu.candidate_list` — candidate-list neighborhood vs the
//!   exhaustive scan (scan reduction, deterministic counters);
//! * `tabu.repair` — the hybrid's tabu repair (`repair_on`, best-cost
//!   scan) on one pooled evaluator over 200 seeded random genomes of
//!   [`reconfig_problem`]: wall time, total moves and an FNV-1a
//!   fingerprint of the repaired assignments;
//! * `nsga3_tabu.allocate` — one serial `Effort::Quick` NSGA-III + tabu
//!   repair `allocate` (seed 42) on [`reconfig_problem`]: wall time,
//!   evaluations and the outcome fingerprint `tests/nsga3_tabu_pin.rs`
//!   pins;
//! * `alloc.round-robin.saturated` — Round Robin on a pre-filled fleet
//!   of 1,000 servers whose residual leaves a tail of VMs that fit
//!   nowhere (seed 42): wall time and the exact admitted and rejected
//!   request counts;
//! * `fleet.tenant_churn` — `FleetExecutor` register → Round Robin
//!   window → depart over a fixed seeded stream of 100,000 single-VM
//!   tenants, about 25,000 resident at a time (seed 42): wall time and
//!   the exact admitted and rejected request counts;
//! * `des.trace_ingest.{native,sharded}` — a warm replay of the committed
//!   sample amplified 1,954 times (125,056 arrivals, the `trace-native`
//!   input) through `WindowedScheduler<TraceArrivalSource, _>` with Round
//!   Robin on 1,250 servers, natively and on 2 shards: the exact
//!   allocation count of the whole process during one replay, the
//!   arrivals, and the wall time (median of 3 more warm replays) with the
//!   arrivals per wall second it gives;
//! * `alloc.<label>.flight_{off,on}` — one allocator sweep with the
//!   flight recorder disabled vs enabled, plus the overhead ratio. The
//!   recorder's acceptance bar is ≤5% overhead when enabled; the ratio
//!   is reported, not asserted, because CI machines are noisy.

use cpo_bench::report::{Cell, Report};
use cpo_bench::{
    admissible_fig8_problem, outcome_fingerprint, reconfig_problem, replay_holdings,
    trace_ingest_replay, window_departures,
};
use cpo_core::cp_alloc::build_batch_csp;
use cpo_core::prelude::{Allocator, EvoAllocator, RoundRobinAllocator};
use cpo_cpsolve::prelude::*;
use cpo_des::queue::synthetic_churn;
use cpo_exper::runner::{scenario_problem, Algorithm, Effort};
use cpo_model::attr::AttrSet;
use cpo_model::prelude::*;
use cpo_moea::prelude::NsgaConfig;
use cpo_obs::flight;
use cpo_platform::prelude::{FleetExecutor, TenantId, WindowBackend};
use cpo_scenario::prelude::ScenarioSize;
use cpo_tabu::repair::{repair_on, RepairConfig, ScanOrder};
use cpo_tabu::{tabu_search, Neighborhood, Scoring, TabuConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Allocations the process has made, for the `des.trace_ingest` cells.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator behind a relaxed count of every allocation.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Median wall time of `reps` runs of `f`, in nanoseconds.
fn median_ns(reps: usize, mut f: impl FnMut()) -> u128 {
    let mut samples: Vec<u128> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn solve_fig8(engine: Engine) -> SearchStats {
    let problem = admissible_fig8_problem();
    let mut csp = build_batch_csp(&problem);
    let config = SearchConfig {
        deadline: None,
        max_nodes: Some(5_000),
        value_order: ValueOrder::Lex,
        engine,
    };
    let (outcome, stats) = solve(&mut csp, &config);
    assert!(
        outcome.solution().is_some(),
        "fig8 cell must be satisfiable"
    );
    stats
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/bench/BENCH_micro.json".into());
    let mut report = Report::new("cpo-bench-micro", 1);
    report.push(Cell::new("micro.config").int("host_cores", cpo_bench::host_cores() as i128));

    // --- cpsolve: queued vs reference propagation engine ------------
    for (name, engine) in [
        ("cpsolve.queued", Engine::Queued),
        ("cpsolve.reference", Engine::Reference),
    ] {
        let mut stats = SearchStats::default();
        let wall_ns = median_ns(3, || stats = solve_fig8(engine));
        println!(
            "{name}: {:.2} ms, {} propagations, {} nodes",
            wall_ns as f64 / 1e6,
            stats.propagations,
            stats.nodes
        );
        report.push(
            Cell::new(name)
                .int("wall_ns", wall_ns as i128)
                .int("propagations", stats.propagations as i128)
                .int("nodes", stats.nodes as i128),
        );
    }

    // --- des: raw event-queue throughput ----------------------------
    let events = 500_000usize;
    let wall_ns = median_ns(3, || {
        assert_eq!(synthetic_churn(events, 1024, 42), events as u64);
    });
    let events_per_sec = events as f64 / (wall_ns as f64 / 1e9);
    println!("des.synthetic_churn: {events_per_sec:.0} events/s");
    report.push(
        Cell::new("des.synthetic_churn")
            .int("wall_ns", wall_ns as i128)
            .int("events", events as i128)
            .float("events_per_sec", events_per_sec),
    );

    // --- des: the event queue under trace-native's departures -------
    let mut totals = (0, 0);
    let arrivals = replay_holdings(1_954, 42);
    let wall_ns = median_ns(3, || totals = window_departures(&arrivals));
    let (events, fingerprint) = totals;
    let events_per_sec = events as f64 / (wall_ns as f64 / 1e9);
    println!(
        "des.window_departures: {events_per_sec:.0} events/s, {events} events, \
         fingerprint {fingerprint:#018x}"
    );
    report.push(
        Cell::new("des.window_departures")
            .int("wall_ns", wall_ns as i128)
            .int("events", events as i128)
            .float("events_per_sec", events_per_sec)
            .int("fingerprint", fingerprint as i128),
    );

    // --- tabu: delta vs full move scoring ---------------------------
    let problem = scenario_problem(&ScenarioSize::with_servers(100), false, 42);
    let mut s = 7u64;
    let genes: Vec<usize> = (0..problem.n())
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as usize % problem.m()
        })
        .collect();
    let start = Assignment::from_genes(&genes);
    let mut works = [0u64; 2];
    for (slot, (name, scoring)) in [
        ("tabu.move_scoring.delta", Scoring::Delta),
        ("tabu.move_scoring.full", Scoring::Full),
    ]
    .into_iter()
    .enumerate()
    {
        let config = TabuConfig {
            tenure: 24,
            max_iterations: 200,
            candidates: 48,
            seed: 42,
            scoring,
            ..TabuConfig::default()
        };
        let mut result = None;
        let wall_ns = median_ns(3, || {
            result = Some(tabu_search(&problem, start.clone(), &config));
        });
        let result = result.expect("tabu ran");
        works[slot] = result.eval_work;
        println!(
            "{name}: {:.2} ms, eval_work {}, {} evals",
            wall_ns as f64 / 1e6,
            result.eval_work,
            result.delta_evals + result.full_evals
        );
        report.push(
            Cell::new(name)
                .int("wall_ns", wall_ns as i128)
                .int("eval_work", result.eval_work as i128)
                .int("delta_evals", result.delta_evals as i128)
                .int("full_evals", result.full_evals as i128),
        );
    }
    let work_ratio = works[1] as f64 / works[0] as f64;
    println!("tabu.move_scoring: full/delta eval-work ratio {work_ratio:.1}");
    report.push(Cell::new("tabu.move_scoring.ratio").float("work_ratio", work_ratio));

    // --- tabu: exhaustive scan ---------------------------------------
    // The fig8 seed-42 polish under the exhaustive n·m scan: the
    // placement fingerprint and every counter are deterministic (Exact
    // in the diff policy), which pins the serial scan's trajectory.
    let scan_config = TabuConfig {
        tenure: 24,
        max_iterations: 60,
        candidates: 48,
        seed: 42,
        scoring: Scoring::Delta,
        neighborhood: Neighborhood::Exhaustive,
        ..TabuConfig::default()
    };
    let fingerprint = |a: &Assignment| -> i128 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for k in 0..a.len() {
            let v = a.server_of(VmId(k)).map_or(u64::MAX, |j| j.index() as u64);
            hash ^= v.wrapping_add(1);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash as i128
    };
    let exhaustive_scanned = {
        let mut result = None;
        let wall_ns = median_ns(3, || {
            result = Some(tabu_search(&problem, start.clone(), &scan_config));
        });
        let result = result.expect("tabu ran");
        println!(
            "tabu.exhaustive_scan: {:.2} ms, {} scanned, eval_work {}",
            wall_ns as f64 / 1e6,
            result.candidates_scanned,
            result.eval_work
        );
        report.push(
            Cell::new("tabu.exhaustive_scan")
                .int("wall_ns", wall_ns as i128)
                .int("fingerprint", fingerprint(&result.best))
                .int("eval_work", result.eval_work as i128)
                .int("delta_evals", result.delta_evals as i128)
                .int("candidates_scanned", result.candidates_scanned as i128),
        );
        result.candidates_scanned
    };

    // --- tabu: candidate lists vs the exhaustive scan ---------------
    // Same polish, candidate-list neighborhood: the point is reaching a
    // comparable incumbent while scanning far fewer moves. Scanned and
    // eval-work counts are deterministic (Exact in the diff policy);
    // the scan-reduction ratio is derived.
    {
        let config = TabuConfig {
            neighborhood: Neighborhood::Candidates { refresh: 16 },
            ..scan_config
        };
        let mut result = None;
        let wall_ns = median_ns(3, || {
            result = Some(tabu_search(&problem, start.clone(), &config));
        });
        let result = result.expect("tabu ran");
        let scan_reduction = exhaustive_scanned as f64 / result.candidates_scanned.max(1) as f64;
        println!(
            "tabu.candidate_list: {:.2} ms, {} scanned ({scan_reduction:.1}× fewer), eval_work {}",
            wall_ns as f64 / 1e6,
            result.candidates_scanned,
            result.eval_work
        );
        report.push(
            Cell::new("tabu.candidate_list")
                .int("wall_ns", wall_ns as i128)
                .int("fingerprint", fingerprint(&result.best))
                .int("eval_work", result.eval_work as i128)
                .int("delta_evals", result.delta_evals as i128)
                .int("candidates_scanned", result.candidates_scanned as i128)
                .float("scan_reduction", scan_reduction),
        );
    }

    // --- the hybrid's repair operator on one pooled evaluator --------
    // Every genome is repaired on the same evaluator, as the GA adapter's
    // pool does; moves and the fingerprint are deterministic.
    {
        let problem = reconfig_problem();
        let mut rng = SmallRng::seed_from_u64(42);
        let genomes: Vec<Assignment> = (0..200)
            .map(|_| {
                let mut a = Assignment::unassigned(problem.n());
                for k in 0..problem.n() {
                    a.assign(VmId(k), ServerId(rng.gen_range(0..problem.m())));
                }
                a
            })
            .collect();
        let config = RepairConfig {
            scan: ScanOrder::BestCost,
            ..RepairConfig::default()
        };
        let mut ev = problem.delta_evaluator(Assignment::unassigned(problem.n()));
        let mut totals = (0usize, 0u64);
        let wall_ns = median_ns(5, || {
            let mut moves = 0usize;
            let mut hash = cpo_obs::FNV_OFFSET;
            for genome in &genomes {
                ev.reset(genome.clone());
                moves += repair_on(&mut ev, &config).moves;
                let a = ev.assignment();
                hash = (0..a.len())
                    .map(|k| a.server_of(VmId(k)).map_or(u64::MAX, |j| j.index() as u64))
                    .fold(hash, cpo_obs::fnv1a);
            }
            totals = (moves, hash);
        });
        let (moves, fingerprint) = totals;
        println!(
            "tabu.repair: {:.2} ms, {moves} moves, fingerprint {fingerprint:#018x}",
            wall_ns as f64 / 1e6
        );
        report.push(
            Cell::new("tabu.repair")
                .int("wall_ns", wall_ns as i128)
                .int("moves", moves as i128)
                .int("fingerprint", fingerprint as i128),
        );
    }

    // --- the paper's hybrid: one NSGA-III + tabu repair solve --------
    {
        let problem = reconfig_problem();
        let allocator = EvoAllocator::nsga3_tabu(NsgaConfig {
            parallel_eval: false,
            ..Effort::Quick.nsga_config()
        })
        .with_seed(42);
        let mut outcome = None;
        let wall_ns = median_ns(5, || outcome = Some(allocator.allocate(&problem)));
        let outcome = outcome.expect("nsga3-tabu ran");
        let fingerprint = outcome_fingerprint(&outcome);
        println!(
            "nsga3_tabu.allocate: {:.2} ms, {} evaluations, fingerprint {fingerprint:#018x}",
            wall_ns as f64 / 1e6,
            outcome.evaluations
        );
        report.push(
            Cell::new("nsga3_tabu.allocate")
                .int("wall_ns", wall_ns as i128)
                .int("evaluations", outcome.evaluations as i128)
                .int("fingerprint", fingerprint as i128),
        );
    }

    // --- Round Robin on a saturated fleet ------------------------------
    // Each server keeps 0–40 % of its capacity as residual, and 4,000
    // single-VM requests of 1–8 vCPUs arrive: once the fleet fills, the
    // larger VMs fit nowhere, which is where a full-fleet scan per VM
    // used to go.
    {
        let mut rng = SmallRng::seed_from_u64(42);
        let mut infra = Infrastructure::new(
            AttrSet::standard(),
            vec![("dc".into(), ServerProfile::commodity(3).build_many(1_000))],
        );
        for j in infra.server_ids().collect::<Vec<_>>() {
            let fill = rng.gen_range(0.6..1.0);
            let load: Vec<f64> = infra.capacity_row(j).iter().map(|c| -c * fill).collect();
            infra.adjust_capacity(j, &load);
        }
        let mut batch = RequestBatch::new();
        for _ in 0..4_000 {
            let cpu = f64::from(rng.gen_range(1..=8u32));
            let spec = vm_spec(cpu, 2_048.0 * cpu, rng.gen_range(10.0..100.0));
            batch.push_request(vec![spec], vec![]);
        }
        let problem = AllocationProblem::new(infra, batch, None);
        let mut outcome = None;
        let wall_ns = median_ns(5, || outcome = Some(RoundRobinAllocator.allocate(&problem)));
        let rejected = outcome.expect("round robin ran").rejected.len();
        let admitted = problem.batch().request_count() - rejected;
        println!(
            "alloc.round-robin.saturated: {:.2} ms, {admitted} admitted, {rejected} rejected",
            wall_ns as f64 / 1e6
        );
        report.push(
            Cell::new("alloc.round-robin.saturated")
                .int("wall_ns", wall_ns as i128)
                .int("admitted", admitted as i128)
                .int("rejected", rejected as i128),
        );
    }

    // --- fleet: tenant churn through the packed tables ----------------
    // 400 windows of 250 single-VM requests (100,000 tenants) on 1,200
    // servers. Each admitted tenant stays 1–199 windows, so about 25,000
    // are resident once the fleet warms up and every window admits,
    // rejects and departs through the per-tenant tables.
    {
        let mut rng = SmallRng::seed_from_u64(42);
        let stream: Vec<(RequestBatch, Vec<usize>)> = (0..400)
            .map(|_| {
                let mut batch = RequestBatch::new();
                let mut stays = Vec::new();
                for _ in 0..250 {
                    let cpu = f64::from(rng.gen_range(1..=2u32));
                    let spec = vm_spec(cpu, 2_048.0 * cpu, rng.gen_range(10.0..100.0));
                    batch.push_request(vec![spec], vec![]);
                    stays.push(rng.gen_range(1..200));
                }
                (batch, stays)
            })
            .collect();
        let infra = Infrastructure::new(
            AttrSet::standard(),
            vec![("dc".into(), ServerProfile::commodity(3).build_many(1_200))],
        );
        let mut totals = (0usize, 0usize);
        let wall_ns = median_ns(5, || {
            let mut fleet = FleetExecutor::new(infra.clone());
            let mut due: Vec<Vec<TenantId>> = vec![Vec::new(); stream.len() + 200];
            let (mut admitted, mut rejected) = (0, 0);
            for (w, (batch, stays)) in stream.iter().enumerate() {
                for id in std::mem::take(&mut due[w]) {
                    assert!(fleet.depart_tenant(id), "resident tenant departs");
                }
                let ids = fleet.register_arrivals(batch);
                let (report, accepted) = fleet.execute_window(&RoundRobinAllocator, batch, &ids);
                admitted += report.admitted;
                rejected += report.rejected;
                for id in accepted {
                    due[w + stays[(id.0 - ids[0].0) as usize]].push(id);
                }
            }
            totals = (admitted, rejected);
        });
        let (admitted, rejected) = totals;
        println!(
            "fleet.tenant_churn: {:.2} ms, {admitted} admitted, {rejected} rejected",
            wall_ns as f64 / 1e6
        );
        report.push(
            Cell::new("fleet.tenant_churn")
                .int("wall_ns", wall_ns as i128)
                .int("admitted", admitted as i128)
                .int("rejected", rejected as i128),
        );
    }

    // --- des: the trace arrival path: allocations and wall time ----
    for (name, shards) in [
        ("des.trace_ingest.native", 1),
        ("des.trace_ingest.sharded", 2),
    ] {
        // The first replay sets up whatever the process initialises once.
        trace_ingest_replay(1_954, 1_250, shards);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let arrivals = trace_ingest_replay(1_954, 1_250, shards);
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        let wall_ns = median_ns(3, || {
            trace_ingest_replay(1_954, 1_250, shards);
        });
        let events_per_sec = arrivals as f64 / (wall_ns as f64 / 1e9);
        println!(
            "{name}: {allocations} allocations for {arrivals} arrivals ({:.3} per arrival), \
             {:.2} ms ({events_per_sec:.0} arrivals/s)",
            allocations as f64 / arrivals as f64,
            wall_ns as f64 / 1e6
        );
        report.push(
            Cell::new(name)
                .int("shards", shards as i128)
                .int("arrivals", arrivals as i128)
                .int("allocations", allocations as i128)
                .int("wall_ns", wall_ns as i128)
                .float("events_per_sec", events_per_sec),
        );
    }

    // --- allocator sweep: flight recorder off vs on -----------------
    let problem = scenario_problem(&ScenarioSize::with_servers(15), false, 42);
    for algorithm in [Algorithm::RoundRobin, Algorithm::ConstraintProgramming] {
        let label = algorithm.label();
        flight::disable();
        let off_ns = median_ns(5, || {
            let _ = algorithm.build(Effort::Quick, 42).allocate(&problem);
        });
        flight::enable();
        flight::reset();
        let on_ns = median_ns(5, || {
            let _ = algorithm.build(Effort::Quick, 42).allocate(&problem);
        });
        flight::disable();
        let ratio = on_ns as f64 / off_ns as f64;
        println!("alloc.{label}: off {off_ns} ns, on {on_ns} ns, ratio {ratio:.3}");
        report.push(Cell::new(format!("alloc.{label}.flight_off")).int("wall_ns", off_ns as i128));
        report.push(
            Cell::new(format!("alloc.{label}.flight_on"))
                .int("wall_ns", on_ns as i128)
                .float("overhead_ratio", ratio),
        );
    }

    report.write(&out_path).expect("write BENCH_micro.json");
    println!("wrote {out_path}");
}
