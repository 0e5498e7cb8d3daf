//! Event sources: seeded arrival processes and server failure/repair.
//!
//! [`PoissonArrivals`] is an open-loop Poisson process over an
//! [`ArrivalSpec`]: exponential interarrivals at rate λ, each arrival a
//! deterministic single-request draw from the spec's template.
//! Production traces enter through the same [`ArrivalSource`] trait
//! (`cpo_traces::TraceArrivalSource`).
//!
//! [`FailureProcess`] samples exponential uptimes (MTBF) and downtimes
//! (MTTR) for server failure/repair event chains.

use crate::time::SimTime;
use cpo_model::prelude::RequestBatch;
use cpo_scenario::arrival_gen::ArrivalSpec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Draws an exponential variate with the given mean.
fn exponential(rng: &mut SmallRng, mean: f64) -> f64 {
    debug_assert!(mean > 0.0);
    let u: f64 = rng.gen();
    // u ∈ [0, 1) ⇒ 1 − u ∈ (0, 1] ⇒ ln is finite.
    -mean * (1.0 - u).ln()
}

/// One timestamped request emitted by an [`ArrivalSource`].
#[derive(Clone, Debug)]
pub struct Arrival {
    /// Absolute arrival time.
    pub at: SimTime,
    /// The (single-request) batch.
    pub batch: RequestBatch,
    /// Tenant holding time in sim-time units.
    pub holding: f64,
    /// Flight-recorder correlation key: the request's uid, stable from
    /// generation through admission to departure. Sources assign their
    /// stream index, so the `i`-th arrival is always request `i`.
    pub key: u64,
}

/// A stream of timestamped requests. Sources own their clock: arrival
/// times are non-decreasing (the event queue breaks simultaneous
/// arrivals FIFO by insertion order).
pub trait ArrivalSource {
    /// The next arrival, or `None` when the stream is exhausted.
    fn next_arrival(&mut self) -> Option<Arrival>;
}

/// Open-loop Poisson arrivals over an [`ArrivalSpec`].
pub struct PoissonArrivals {
    spec: ArrivalSpec,
    seed: u64,
    rng: SmallRng,
    index: u64,
    clock: f64,
}

impl PoissonArrivals {
    /// A fresh stream; `seed` fixes both the interarrival draws and the
    /// request bodies.
    pub fn new(spec: ArrivalSpec, seed: u64) -> Self {
        assert!(spec.rate > 0.0, "arrival rate must be positive");
        Self {
            spec,
            seed,
            rng: SmallRng::seed_from_u64(seed ^ 0x0a11_4a15_5e0f_ace5),
            index: 0,
            clock: 0.0,
        }
    }
}

impl ArrivalSource for PoissonArrivals {
    fn next_arrival(&mut self) -> Option<Arrival> {
        self.clock += exponential(&mut self.rng, 1.0 / self.spec.rate);
        // `request_at` records the `generated` flight event under key
        // `index`, so the stream index is the lifecycle correlation key.
        let batch = self.spec.request_at(self.seed, self.index);
        let holding = self.spec.lifetime_at(self.seed, self.index);
        let key = self.index;
        self.index += 1;
        Some(Arrival {
            at: SimTime::new(self.clock),
            batch,
            holding,
            key,
        })
    }
}

/// Exponential server uptime/downtime sampling (MTBF / MTTR).
pub struct FailureProcess {
    mtbf: f64,
    mttr: f64,
    rng: SmallRng,
}

impl FailureProcess {
    /// A per-fleet process: mean time between failures and mean time to
    /// repair, in sim-time units.
    pub fn new(mtbf: f64, mttr: f64, seed: u64) -> Self {
        assert!(mtbf > 0.0 && mttr > 0.0);
        Self {
            mtbf,
            mttr,
            rng: SmallRng::seed_from_u64(seed ^ 0xfa11_0ff5_e7d0_0d1e),
        }
    }

    /// Time until the next failure of a healthy server.
    pub fn next_uptime(&mut self) -> f64 {
        exponential(&mut self.rng, self.mtbf)
    }

    /// Time until a failed server is repaired.
    pub fn next_downtime(&mut self) -> f64 {
        exponential(&mut self.rng, self.mttr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_interarrivals_are_positive_and_mean_tracks_rate() {
        let spec = ArrivalSpec {
            rate: 2.0,
            ..Default::default()
        };
        let mut src = PoissonArrivals::new(spec, 5);
        let mut last = 0.0;
        let mut times = Vec::new();
        for i in 0..2_000u64 {
            let arr = src.next_arrival().unwrap();
            assert!(arr.at.as_f64() > last);
            assert_eq!(arr.batch.request_count(), 1);
            assert!(arr.holding >= 0.0);
            assert_eq!(arr.key, i, "keys are the stream index");
            times.push(arr.at.as_f64() - last);
            last = arr.at.as_f64();
        }
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        // λ = 2 ⇒ mean interarrival 0.5; allow generous sampling noise.
        assert!((0.4..0.6).contains(&mean), "{mean}");
    }

    #[test]
    fn poisson_stream_is_deterministic() {
        let spec = ArrivalSpec::default();
        let mut a = PoissonArrivals::new(spec.clone(), 9);
        let mut b = PoissonArrivals::new(spec, 9);
        for _ in 0..50 {
            let x = a.next_arrival().unwrap();
            let y = b.next_arrival().unwrap();
            assert_eq!(x.at, y.at);
            assert_eq!(x.holding, y.holding);
            assert_eq!(x.key, y.key);
            assert_eq!(x.batch.vm_count(), y.batch.vm_count());
        }
    }

    #[test]
    fn failure_process_samples_positive() {
        let mut f = FailureProcess::new(100.0, 5.0, 3);
        for _ in 0..100 {
            assert!(f.next_uptime() > 0.0);
            assert!(f.next_downtime() > 0.0);
        }
    }
}
