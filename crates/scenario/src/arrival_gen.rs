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

use crate::flavors::VmCostParams;
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
        mint_generated(i, batch.vm_count());
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
    /// exactly like [`ArrivalSpec::request_at`]. A one-request batch
    /// written by the same writer as [`TraceRequest::write_into`].
    pub fn trace_request_at(
        &self,
        seed: u64,
        i: u64,
        demand: &[f64],
        vm_count: usize,
    ) -> RequestBatch {
        let mut batch = RequestBatch::new();
        write_trace_request(
            &mut batch,
            demand,
            vm_count,
            arrival_seed(seed, i),
            &self.request.costs,
        );
        mint_generated(i, vm_count);
        batch
    }

    /// The `i`-th request of stream `seed` as a heap-free
    /// [`TraceRequest`] record: what [`Self::trace_request_at`] builds,
    /// kept unwritten until the caller has a batch to write it into.
    /// Minted into the flight recorder here, at generation.
    pub fn trace_record(
        &self,
        seed: u64,
        i: u64,
        demand: [f64; 3],
        vm_count: usize,
    ) -> TraceRequest {
        assert!(vm_count >= 1, "a request needs at least one VM");
        mint_generated(i, vm_count);
        TraceRequest {
            demand,
            vm_count,
            seed: arrival_seed(seed, i),
            costs: self.request.costs,
        }
    }

    /// Draws the `i`-th holding time of stream `seed`.
    pub fn lifetime_at(&self, seed: u64, i: u64) -> f64 {
        let (lo, hi) = self.lifetime;
        assert!(lo <= hi && lo >= 0.0, "invalid lifetime range");
        let mut rng = SmallRng::seed_from_u64(arrival_seed(seed, i) ^ 0x5bd1_e995_97f4_a7c5);
        rng.gen_range(lo..=hi)
    }
}

/// One trace row's request, unwritten: `vm_count` identical VMs of
/// `demand` (CPU cores, RAM MiB, disk GiB) whose QoS guarantee, downtime
/// and migration costs are drawn from `costs` under the per-arrival
/// sub-seed `seed`. Plain data, so an arrival can carry it without a heap
/// allocation and the scheduler can write it straight into its window
/// batch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceRequest {
    /// Demand row of every VM.
    pub demand: [f64; 3],
    /// Number of identical VMs.
    pub vm_count: usize,
    /// Per-arrival sub-seed of the cost draws.
    pub seed: u64,
    /// Cost template the draws come from.
    pub costs: VmCostParams,
}

impl TraceRequest {
    /// Writes the request onto the end of `batch`; returns its id.
    pub fn write_into(&self, batch: &mut RequestBatch) -> RequestId {
        write_trace_request(batch, &self.demand, self.vm_count, self.seed, &self.costs)
    }
}

/// The trace-request writer: appends `vm_count` VMs of `demand` to
/// `batch` as one rule-free request, drawing each VM's QoS guarantee,
/// downtime cost and migration cost, in that order, from `costs` under
/// `seed`; the price follows the shape.
fn write_trace_request(
    batch: &mut RequestBatch,
    demand: &[f64],
    vm_count: usize,
    seed: u64,
    costs: &VmCostParams,
) -> RequestId {
    assert!(vm_count >= 1, "a request needs at least one VM");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut range = |(lo, hi): (f64, f64)| {
        if hi > lo {
            lo + (hi - lo) * rng.gen::<f64>()
        } else {
            lo
        }
    };
    let revenue = crate::flavors::flavor_revenue(
        demand.first().copied().unwrap_or(0.0),
        demand.get(1).copied().unwrap_or(0.0),
    );
    let rows = (0..vm_count).map(|_| {
        let terms = VmTerms {
            qos_guarantee: range(costs.qos_guarantee),
            downtime_cost: range(costs.downtime_cost),
            migration_cost: range(costs.migration_cost),
            revenue,
        };
        (demand, terms)
    });
    batch.push_request_rows(rows, Vec::new())
}

/// Per-arrival sub-seed: decorrelates consecutive arrivals of one stream.
fn arrival_seed(seed: u64, i: u64) -> u64 {
    seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17)
}

/// Drops the `generated` lifecycle event for arrival `i` into the flight
/// recorder (no-op when disabled) — the first link of the per-request
/// timeline, shared by the live, replayed, and trace paths.
fn mint_generated(i: u64, vm_count: usize) {
    cpo_obs::flight::record(
        cpo_obs::flight::FlightKind::Generated,
        i,
        cpo_obs::flight::NONE,
        vm_count as u64,
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
            assert_eq!(a, b);
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
        for k in a.vm_ids() {
            assert_eq!(a.demand(k), &demand);
            let vm = a.terms(k);
            let c = &spec.request.costs;
            assert!((c.qos_guarantee.0..=c.qos_guarantee.1).contains(&vm.qos_guarantee));
            assert!((c.downtime_cost.0..=c.downtime_cost.1).contains(&vm.downtime_cost));
            assert_eq!(vm.revenue, crate::flavors::flavor_revenue(3.0, 6144.0));
        }
        assert!(a.requests()[0].rules.is_empty(), "traces carry no rules");
        // Deterministic in (seed, i).
        let b = spec.trace_request_at(5, 9, &demand, 2);
        assert_eq!(a, b);
        // A different index draws different costs.
        let c = spec.trace_request_at(5, 10, &demand, 2);
        assert!(a.terms(VmId(0)).qos_guarantee != c.terms(VmId(0)).qos_guarantee);
    }

    /// `(qos_guarantee, downtime_cost, migration_cost, revenue)` of every
    /// VM of `batch`, as raw bits.
    fn term_bits(batch: &RequestBatch) -> Vec<[u64; 4]> {
        batch
            .vm_ids()
            .map(|k| {
                let t = batch.terms(k);
                [
                    t.qos_guarantee,
                    t.downtime_cost,
                    t.migration_cost,
                    t.revenue,
                ]
                .map(f64::to_bits)
            })
            .collect()
    }

    /// The exact draws of both constructors, captured from the
    /// per-`VmSpec` builders they replaced: a writer that reorders or
    /// drops an RNG draw changes these bits.
    #[test]
    fn draws_match_the_golden_bits() {
        let spec = ArrivalSpec::default();
        let trace = spec.trace_request_at(5, 9, &[2.0, 4096.0, 40.0], 2);
        assert_eq!(
            term_bits(&trace),
            vec![
                [
                    0x3fed_7dfd_cb7c_5186,
                    0x401e_fb01_c2b0_40f6,
                    0x4000_0710_d81d_8ac0,
                    0x4018_0000_0000_0000,
                ],
                [
                    0x3fee_9302_8a5f_95ea,
                    0x401d_bd74_ec07_1db3,
                    0x3ff3_a110_e2b0_a662,
                    0x4018_0000_0000_0000,
                ],
            ]
        );
        let generated = spec.request_at(5, 9);
        assert_eq!(
            generated.demand_rows(generated.requests()[0].vms),
            &[1.0, 2048.0, 20.0]
        );
        assert_eq!(
            term_bits(&generated),
            vec![[
                0x3fee_d843_0c35_9537,
                0x400c_babd_e50c_b038,
                0x3fe2_aa17_d224_990b,
                0x4010_0000_0000_0000,
            ]]
        );
    }

    #[test]
    fn a_trace_record_writes_what_trace_request_at_builds() {
        let spec = ArrivalSpec::default();
        let record = spec.trace_record(5, 9, [2.0, 4096.0, 40.0], 2);
        let mut batch = RequestBatch::new();
        batch.push_request(vec![vm_spec(1.0, 1.0, 1.0)], Vec::new());
        assert_eq!(record.write_into(&mut batch), RequestId(1));
        let mut expected = RequestBatch::new();
        expected.push_request(vec![vm_spec(1.0, 1.0, 1.0)], Vec::new());
        expected.append(spec.trace_request_at(5, 9, &[2.0, 4096.0, 40.0], 2));
        assert_eq!(batch, expected);
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
