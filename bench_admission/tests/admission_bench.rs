//! Runs all four workloads at about 1 % of their size through the
//! library and checks what the benchmark promises: every metric
//! `BENCHMARK.json` names is emitted with its unit, the correctness
//! checks pass, the ledger sums to `run` wall, and the traced runs
//! reproduce the untraced outcome.
//!
//! `cargo test --release --manifest-path bench_admission/Cargo.toml`

use cpo_bench_admission::admission::{
    end_to_end, host_cores, measure, per_layer, run_rep, Ledger, Metric, Mode,
};
use cpo_bench_admission::workload::{Engine, Input, Solver, Workload, NAMES};
use cpo_obs::json::{parse, Value};
use std::time::Duration;

fn load(relative: &str) -> Value {
    let path = format!("{}/{relative}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(benchmark: &Value, section: &str) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = benchmark
        .get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect();
    out.sort();
    out
}

fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    out.sort();
    out
}

#[test]
fn every_workload_meets_the_benchmark_contract_at_one_percent_scale() {
    let benchmark = load("../BENCHMARK.json");
    let workloads: Vec<&str> = benchmark
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, NAMES);

    for name in NAMES {
        let workload = Workload::named(name, host_cores())
            .expect("a named workload")
            .scaled(0.01);
        let m = measure(&workload, 42, Duration::ZERO, true);
        assert!(m.correct(), "{name}: {:?}", m.failures);
        assert_eq!(m.failed(), 0, "{name}: undecided arrivals");

        assert_eq!(
            emitted(&end_to_end(&m)),
            declared(&benchmark, "end_to_end"),
            "{name}: end-to-end metrics"
        );
        let layers = per_layer(&m).expect("a traced run").expect("a ledger");
        assert_eq!(
            emitted(&layers),
            declared(&benchmark, "per_layer"),
            "{name}: per-layer metrics"
        );
        for metric in end_to_end(&m).iter().chain(&layers) {
            assert!(metric.value.is_finite(), "{name}: {metric:?}");
        }

        for traced in &m.traced {
            let ledger = Ledger::of(traced).expect("solves nest in windows");
            ledger
                .check()
                .unwrap_or_else(|e| panic!("{name}: {e}: {ledger:?}"));
            assert_eq!(
                traced.fingerprint(),
                m.reps[0].fingerprint(),
                "{name}: tracing changed the outcome"
            );
        }
    }
}

/// At the configuration of the committed `bench_trace` baseline, the
/// trace-native replay reproduces that baseline's fingerprint: both
/// binaries replay the same input.
#[test]
fn trace_replay_matches_the_bench_trace_baseline() {
    let baseline = load("../results/baselines/BENCH_trace.json");
    let cell = |name: &str| {
        baseline
            .get("cells")
            .and_then(Value::as_array)
            .expect("cells")
            .iter()
            .find(|c| c.get("name").and_then(Value::as_str) == Some(name))
            .unwrap_or_else(|| panic!("baseline cell {name}"))
            .clone()
    };
    let config = cell("trace.config");
    let int = |key: &str| config.get(key).and_then(Value::as_u64).expect(key);
    let workload = Workload {
        name: "trace-native",
        input: Input::Trace {
            amplify: int("amplify_factor") as usize,
        },
        servers: int("servers") as usize,
        window: config
            .get("window_length")
            .and_then(Value::as_f64)
            .expect("window_length"),
        engine: Engine::Fleet,
        solver: Solver::RoundRobin,
    };
    let allocator = workload.solver.build();
    let rep = run_rep(&workload, int("seed"), allocator.as_ref(), Mode::Untraced)
        .expect("the replay passes its checks");
    let expected = cell("trace.replay")
        .get("fingerprint")
        .and_then(Value::as_str)
        .expect("fingerprint")
        .to_string();
    assert_eq!(format!("{:#018x}", rep.fingerprint()), expected);
    assert_eq!(rep.emitted, int("arrivals"));
}
