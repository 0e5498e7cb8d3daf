//! Continuous-time arrival specifications.
//!
//! The fixed-step simulator consumes one [`RequestSpec`] batch per window;
//! a continuous-time driver instead needs *individual* requests with
//! real-valued arrival times and holding times. [`ArrivalSpec`] describes
//! such an open-loop arrival process: Poisson arrivals at `rate` requests
//! per unit sim-time, each request shaped by the same [`RequestSpec`]
//! template the batch generator uses (its `total_vms` budget is ignored),
//! holding the platform for a uniform `lifetime` draw.
//!
//! Generation is deterministic: the `i`-th arrival of a given seed is
//! always the same request, independent of how the driver interleaves
//! other event sources.

use crate::request_gen::{generate_requests, RequestSpec};
use cpo_model::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// An open-loop continuous-time arrival process.
#[derive(Clone, Debug)]
pub struct ArrivalSpec {
    /// Mean request arrivals per unit sim-time (Poisson intensity λ).
    pub rate: f64,
    /// Shape of each individual request — sizes, rules, costs, demand
    /// scale. `total_vms` is ignored: each arrival is exactly one request.
    pub request: RequestSpec,
    /// Tenant holding-time range in sim-time units, inclusive (uniform).
    pub lifetime: (f64, f64),
}

impl Default for ArrivalSpec {
    fn default() -> Self {
        Self {
            rate: 1.0,
            request: RequestSpec::default(),
            lifetime: (3.0, 8.0),
        }
    }
}

impl ArrivalSpec {
    /// Draws the `i`-th request of stream `seed` — a single-request batch.
    /// Deterministic in `(seed, i)`. The arrival index `i` doubles as the
    /// request's flight-recorder correlation key: a `generated` event is
    /// dropped into the recorder (no-op when it is disabled), the first
    /// link of the per-request lifecycle timeline.
    pub fn request_at(&self, seed: u64, i: u64) -> RequestBatch {
        let batch = generate_single_request(&self.request, arrival_seed(seed, i));
        mint_generated(i, &batch);
        batch
    }

    /// Builds the `i`-th request of stream `seed` from an *exact* demand
    /// vector — the production-trace path. The trace dictates shape
    /// (`demand`, in the model's standard attribute order) and fan-out
    /// (`vm_count` identical VMs, no affinity rules — per-VM traces carry
    /// no placement constraints); the template's cost ranges supply the
    /// QoS/cost parameters the trace does not record, and the price
    /// follows the shape via [`crate::flavors::flavor_revenue`].
    /// Deterministic in `(seed, i)` and minted into the flight recorder
    /// exactly like [`ArrivalSpec::request_at`].
    pub fn trace_request_at(
        &self,
        seed: u64,
        i: u64,
        demand: &[f64],
        vm_count: usize,
    ) -> RequestBatch {
        assert!(vm_count >= 1, "a request needs at least one VM");
        let mut rng = SmallRng::seed_from_u64(arrival_seed(seed, i));
        let range = |(lo, hi): (f64, f64), rng: &mut SmallRng| {
            if hi > lo {
                lo + (hi - lo) * rng.gen::<f64>()
            } else {
                lo
            }
        };
        let costs = &self.request.costs;
        let revenue = crate::flavors::flavor_revenue(
            demand.first().copied().unwrap_or(0.0),
            demand.get(1).copied().unwrap_or(0.0),
        );
        let vms: Vec<VmSpec> = (0..vm_count)
            .map(|_| VmSpec {
                demand: demand.to_vec(),
                qos_guarantee: range(costs.qos_guarantee, &mut rng),
                downtime_cost: range(costs.downtime_cost, &mut rng),
                migration_cost: range(costs.migration_cost, &mut rng),
                revenue,
            })
            .collect();
        let mut batch = RequestBatch::new();
        batch.push_request(vms, Vec::new());
        mint_generated(i, &batch);
        batch
    }

    /// Draws the `i`-th holding time of stream `seed`.
    pub fn lifetime_at(&self, seed: u64, i: u64) -> f64 {
        let (lo, hi) = self.lifetime;
        assert!(lo <= hi && lo >= 0.0, "invalid lifetime range");
        let mut rng = SmallRng::seed_from_u64(arrival_seed(seed, i) ^ 0x5bd1_e995_97f4_a7c5);
        rng.gen_range(lo..=hi)
    }
}

/// Per-arrival sub-seed: decorrelates consecutive arrivals of one stream.
fn arrival_seed(seed: u64, i: u64) -> u64 {
    seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17)
}

/// Drops the `generated` lifecycle event for arrival `i` into the flight
/// recorder (no-op when disabled) — the first link of the per-request
/// timeline, shared by the live, replayed, and trace paths.
fn mint_generated(i: u64, batch: &RequestBatch) {
    cpo_obs::flight::record(
        cpo_obs::flight::FlightKind::Generated,
        i,
        cpo_obs::flight::NONE,
        batch.vm_count() as u64,
        0,
    );
}

/// Generates exactly one request from the template: the size is drawn
/// from `spec.request_size`, then the batch generator runs with a budget
/// of exactly that size. Deterministic under `seed`.
pub fn generate_single_request(spec: &RequestSpec, seed: u64) -> RequestBatch {
    let mut rng = SmallRng::seed_from_u64(seed);
    let size = rng.gen_range(spec.request_size.0..=spec.request_size.1);
    let one = RequestSpec {
        total_vms: size,
        request_size: (size, size),
        ..spec.clone()
    };
    let batch = generate_requests(&one, seed ^ 0xa5a5_5a5a_c01d_beef);
    debug_assert_eq!(batch.request_count(), 1);
    batch
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_request_is_single_and_deterministic() {
        let spec = RequestSpec::default();
        for seed in 0..20 {
            let a = generate_single_request(&spec, seed);
            assert_eq!(a.request_count(), 1);
            let size = a.requests()[0].vms.len();
            assert!((spec.request_size.0..=spec.request_size.1).contains(&size));
            let b = generate_single_request(&spec, seed);
            assert_eq!(a.vm_count(), b.vm_count());
            for (x, y) in a.vms().iter().zip(b.vms()) {
                assert_eq!(x, y);
            }
        }
    }

    #[test]
    fn arrival_stream_varies_by_index_but_not_by_call() {
        let spec = ArrivalSpec::default();
        let sizes: Vec<usize> = (0..32).map(|i| spec.request_at(7, i).vm_count()).collect();
        let again: Vec<usize> = (0..32).map(|i| spec.request_at(7, i).vm_count()).collect();
        assert_eq!(sizes, again);
        // Not all arrivals are identical (the stream actually varies).
        assert!(sizes.iter().any(|&s| s != sizes[0]));
    }

    #[test]
    fn trace_request_uses_exact_demand_and_template_costs() {
        let spec = ArrivalSpec::default();
        let demand = [3.0, 6144.0, 55.0];
        let a = spec.trace_request_at(5, 9, &demand, 2);
        assert_eq!(a.request_count(), 1);
        assert_eq!(a.vm_count(), 2);
        for vm in a.vms() {
            assert_eq!(vm.demand, demand.to_vec());
            let c = &spec.request.costs;
            assert!((c.qos_guarantee.0..=c.qos_guarantee.1).contains(&vm.qos_guarantee));
            assert!((c.downtime_cost.0..=c.downtime_cost.1).contains(&vm.downtime_cost));
            assert_eq!(vm.revenue, crate::flavors::flavor_revenue(3.0, 6144.0));
        }
        assert!(a.requests()[0].rules.is_empty(), "traces carry no rules");
        // Deterministic in (seed, i).
        let b = spec.trace_request_at(5, 9, &demand, 2);
        assert_eq!(a.vms(), b.vms());
        // A different index draws different costs.
        let c = spec.trace_request_at(5, 10, &demand, 2);
        assert!(a.vms()[0].qos_guarantee != c.vms()[0].qos_guarantee);
    }

    #[test]
    fn lifetimes_stay_in_range() {
        let spec = ArrivalSpec {
            lifetime: (2.0, 4.0),
            ..Default::default()
        };
        for i in 0..100 {
            let l = spec.lifetime_at(3, i);
            assert!((2.0..=4.0).contains(&l), "{l}");
        }
    }
}
