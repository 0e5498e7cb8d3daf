//! The benchmark's four workloads and the trace-replay input builders.
//!
//! The trace builders use the parameters of `bench_trace`
//! (`crates/bench/src/bin/bench_trace.rs`): the committed 64-row
//! Azure-style sample, amplified with 30 s time jitter and 20 % demand
//! jitter, on a single datacenter of commodity servers. At equal
//! arrivals, servers, window and seed both binaries therefore replay
//! the same input, and [`fingerprint`] hashes the same window fields.

use cpo_core::prelude::{
    Allocator, EvoAllocator, NsgaConfig, RoundRobinAllocator, TabuSearchAllocator,
};
use cpo_des::prelude::FailureSpec;
use cpo_exper::runner::Effort;
use cpo_model::attr::AttrSet;
use cpo_model::prelude::{Infrastructure, ServerProfile};
use cpo_platform::prelude::WindowReport;
use cpo_traces::prelude::{Amplifier, AmplifyConfig, AzureReader, MalformedPolicy};
use std::io::Cursor;

/// The committed 64-row Azure-style seed trace (3600 s span).
pub const SAMPLE: &str = include_str!("../../examples/data/azure_sample.csv");

/// Seed of the allocators' own randomness. Fixed, so that `--seed`
/// changes only the generated inputs.
pub const ALLOCATOR_SEED: u64 = 42;

/// Seed of the `reconfig-paper` arrival stream. The stream is fixed,
/// as the committed sample is for the trace workloads, and `--seed`
/// drives the failure process. With a fresh stream per seed, the handful
/// of its ~150 requests that one datacenter cannot satisfy
/// (different-datacenter rules), and with them `rejected_frac`, vary
/// more from seed to seed than any bound the benchmark could hold.
pub const POISSON_SEED: u64 = 42;

/// Rows of [`SAMPLE`].
pub fn sample_rows() -> usize {
    SAMPLE.lines().count() - 1
}

/// One datacenter of `servers` commodity servers.
pub fn fleet(servers: usize) -> Infrastructure {
    Infrastructure::new(
        AttrSet::standard(),
        vec![("dc".into(), ServerProfile::commodity(3).build_many(servers))],
    )
}

/// [`SAMPLE`] amplified `factor` times, jittered by `seed`.
pub fn amplifier(factor: usize, seed: u64) -> Amplifier {
    let reader = AzureReader::new(Cursor::new(SAMPLE), MalformedPolicy::Fail)
        .expect("embedded sample parses");
    Amplifier::new(
        reader,
        AmplifyConfig {
            factor,
            time_jitter: 30.0,
            demand_jitter: 0.2,
            seed,
        },
    )
    .expect("embedded sample amplifies")
}

/// FNV-1a over the per-window allocation outcomes.
pub fn fingerprint(windows: &[WindowReport]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    for w in windows {
        mix(w.window);
        mix(w.arrivals as u64);
        mix(w.admitted as u64);
        mix(w.rejected as u64);
        mix(w.active_servers as u64);
        mix(w.running_vms as u64);
    }
    h
}

/// Where a workload's arrivals come from.
#[derive(Clone, Copy, Debug)]
pub enum Input {
    /// [`SAMPLE`] amplified `amplify` times and replayed on its own
    /// timestamps.
    Trace {
        /// Amplification factor.
        amplify: usize,
    },
    /// Open-loop Poisson arrivals of the default request spec (affinity
    /// rules included) drawn from [`POISSON_SEED`], with server failures
    /// and repairs drawn from the run's seed.
    Poisson {
        /// Arrivals per sim-time unit.
        rate: f64,
        /// Sim-time the run covers.
        horizon: f64,
        /// Per-server failure and repair process.
        failures: FailureSpec,
    },
}

/// The window engine behind the scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// The admission-only `FleetExecutor`.
    Fleet,
    /// `ShardedScheduler<FleetExecutor>` with region-hash partitioning.
    Sharded {
        /// Worker shards, never more than the host's cores.
        shards: usize,
    },
    /// The full-reconfiguration `WindowExecutor`.
    Reconfig,
}

/// The allocator under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Solver {
    /// `RoundRobinAllocator`.
    RoundRobin,
    /// `TabuSearchAllocator::default()`.
    TabuSearch,
    /// NSGA-III with tabu repair at `Effort::Quick`, evaluating each
    /// population serially.
    Nsga3Tabu,
}

impl Solver {
    /// Builds the allocator.
    pub fn build(self) -> Box<dyn Allocator> {
        match self {
            Solver::RoundRobin => Box::new(RoundRobinAllocator),
            Solver::TabuSearch => Box::<TabuSearchAllocator>::default(),
            // Serial evaluation: the vendored rayon spawns fresh threads
            // for every generation, which on a 2-core host made the
            // parallel path 22 % slower than serial and its spread over
            // ten seeds 30 % instead of 6 %.
            Solver::Nsga3Tabu => Box::new(
                EvoAllocator::nsga3_tabu(NsgaConfig {
                    parallel_eval: false,
                    ..Effort::Quick.nsga_config()
                })
                .with_seed(ALLOCATOR_SEED),
            ),
        }
    }

    /// Stable label for manifests.
    pub fn label(self) -> &'static str {
        match self {
            Solver::RoundRobin => "round-robin",
            Solver::TabuSearch => "tabu-search",
            Solver::Nsga3Tabu => "nsga3-tabu(quick,serial-eval)",
        }
    }
}

/// One benchmark workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// Arrival input.
    pub input: Input,
    /// Servers in the fleet.
    pub servers: usize,
    /// Window length in sim-time units.
    pub window: f64,
    /// Window engine.
    pub engine: Engine,
    /// Allocator under test.
    pub solver: Solver,
}

/// Names of the workloads, in the order `--workload all` runs them.
/// `README.md` says why the benchmark has each one.
pub const NAMES: [&str; 4] = [
    "trace-native",
    "trace-sharded",
    "search-tight",
    "reconfig-paper",
];

impl Workload {
    /// The workload called `name`, with shard counts capped at
    /// `host_cores`.
    pub fn named(name: &str, host_cores: usize) -> Option<Workload> {
        let trace = Input::Trace { amplify: 1_954 };
        let w = match name {
            "trace-native" => Workload {
                name: "trace-native",
                input: trace,
                servers: 1_250,
                window: 60.0,
                engine: Engine::Fleet,
                solver: Solver::RoundRobin,
            },
            "trace-sharded" => Workload {
                name: "trace-sharded",
                input: trace,
                servers: 1_250,
                window: 60.0,
                engine: Engine::Sharded {
                    shards: 2.min(host_cores),
                },
                solver: Solver::RoundRobin,
            },
            "search-tight" => Workload {
                name: "search-tight",
                input: Input::Trace { amplify: 32 },
                servers: 16,
                window: 15.0,
                engine: Engine::Fleet,
                solver: Solver::TabuSearch,
            },
            "reconfig-paper" => Workload {
                name: "reconfig-paper",
                input: Input::Poisson {
                    rate: 6.0,
                    horizon: 25.0,
                    failures: FailureSpec {
                        mtbf: 10.0,
                        mttr: 2.0,
                    },
                },
                servers: 24,
                window: 1.0,
                engine: Engine::Reconfig,
                solver: Solver::Nsga3Tabu,
            },
            _ => return None,
        };
        Some(w)
    }

    /// The same workload with its input size (arrivals, servers, Poisson
    /// horizon) multiplied by `factor`, for quick runs in tests.
    pub fn scaled(&self, factor: f64) -> Workload {
        let scale = |n: usize, min: usize| ((n as f64 * factor).round() as usize).max(min);
        let input = match self.input {
            Input::Trace { amplify } => Input::Trace {
                amplify: scale(amplify, 1),
            },
            Input::Poisson {
                rate,
                horizon,
                failures,
            } => Input::Poisson {
                rate,
                horizon: (horizon * factor).round().max(5.0),
                failures,
            },
        };
        Workload {
            input,
            servers: scale(self.servers, 4),
            ..self.clone()
        }
    }

    /// Sim-time the run covers: the trace's last departure plus two
    /// windows, so every trace arrival meets a window boundary.
    pub fn horizon(&self) -> f64 {
        match self.input {
            Input::Trace { .. } => amplifier(1, 0).horizon() + 2.0 * self.window,
            Input::Poisson { horizon, .. } => horizon,
        }
    }

    /// Arrivals the input holds (for Poisson input, the expected count).
    pub fn arrivals(&self) -> usize {
        match self.input {
            Input::Trace { amplify } => amplify * sample_rows(),
            Input::Poisson { rate, horizon, .. } => (rate * horizon).round() as usize,
        }
    }
}
