//! Random consumer request batches: multi-VM requests carrying
//! affinity/anti-affinity rules with configurable probabilities.

use crate::flavors::{default_catalog, sample, vm_from_flavor, Flavor, VmCostParams};
use cpo_model::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Request generation parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestSpec {
    /// Total number of virtual resources `n` to generate (requests are
    /// drawn until the budget is filled; the last request may be smaller).
    pub total_vms: usize,
    /// Request size range `[lo, hi]` (VMs per request).
    pub request_size: (usize, usize),
    /// Probability that a multi-VM request carries a rule of each kind
    /// (independent draws; at most one rule per kind per request).
    pub p_same_server: f64,
    /// Probability of a same-datacenter rule.
    pub p_same_datacenter: f64,
    /// Probability of a different-server rule.
    pub p_different_server: f64,
    /// Probability of a different-datacenter rule.
    pub p_different_datacenter: f64,
    /// Cost parameter ranges.
    pub costs: VmCostParams,
    /// Uniform multiplier applied to every generated demand vector — the
    /// utilisation knob of the sweeps (1.0 = the light default mix).
    pub demand_scale: f64,
}

impl Default for RequestSpec {
    fn default() -> Self {
        Self {
            total_vms: 40,
            request_size: (1, 4),
            p_same_server: 0.10,
            p_same_datacenter: 0.15,
            p_different_server: 0.20,
            p_different_datacenter: 0.05,
            costs: VmCostParams::default(),
            demand_scale: 1.0,
        }
    }
}

impl RequestSpec {
    /// A spec with all affinity probabilities zeroed (pure bin packing).
    pub fn without_affinity(mut self) -> Self {
        self.p_same_server = 0.0;
        self.p_same_datacenter = 0.0;
        self.p_different_server = 0.0;
        self.p_different_datacenter = 0.0;
        self
    }
}

/// Rules that can coexist in one request without being contradictory:
/// `SameServer` conflicts with `DifferentServer` and with
/// `DifferentDatacenter`; `SameDatacenter` conflicts with
/// `DifferentDatacenter`. This mirrors what a real API would reject.
fn compatible(kind: AffinityKind, chosen: &[AffinityKind]) -> bool {
    use AffinityKind::*;
    chosen.iter().all(|&c| {
        !matches!(
            (kind, c),
            (SameServer, DifferentServer)
                | (DifferentServer, SameServer)
                | (SameServer, DifferentDatacenter)
                | (DifferentDatacenter, SameServer)
                | (SameDatacenter, DifferentDatacenter)
                | (DifferentDatacenter, SameDatacenter)
        )
    })
}

/// Generates a request batch deterministically under `seed`.
pub fn generate_requests(spec: &RequestSpec, seed: u64) -> RequestBatch {
    generate_requests_with_catalog(spec, &default_catalog(), seed)
}

/// As [`generate_requests`] with a custom flavour catalogue.
pub fn generate_requests_with_catalog(
    spec: &RequestSpec,
    catalog: &[Flavor],
    seed: u64,
) -> RequestBatch {
    assert!(spec.request_size.0 >= 1 && spec.request_size.0 <= spec.request_size.1);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut batch = RequestBatch::new();
    let mut produced = 0usize;
    while produced < spec.total_vms {
        let size = rng
            .gen_range(spec.request_size.0..=spec.request_size.1)
            .min(spec.total_vms - produced);
        let vms: Vec<VmSpec> = (0..size)
            .map(|_| {
                let f = sample(catalog, &mut rng);
                let mut vm = vm_from_flavor(f, &spec.costs, &mut rng);
                for d in &mut vm.demand {
                    *d *= spec.demand_scale;
                }
                // A scaled VM sells proportionally more resources.
                vm.revenue *= spec.demand_scale;
                vm
            })
            .collect();
        let first_vm = produced;
        let vm_ids: Vec<VmId> = (first_vm..first_vm + size).map(VmId).collect();
        let mut rules = Vec::new();
        if size >= 2 {
            let mut chosen: Vec<AffinityKind> = Vec::new();
            for (kind, p) in [
                (AffinityKind::SameServer, spec.p_same_server),
                (AffinityKind::SameDatacenter, spec.p_same_datacenter),
                (AffinityKind::DifferentServer, spec.p_different_server),
                (
                    AffinityKind::DifferentDatacenter,
                    spec.p_different_datacenter,
                ),
            ] {
                if rng.gen::<f64>() < p && compatible(kind, &chosen) {
                    chosen.push(kind);
                    rules.push(AffinityRule::new(kind, vm_ids.clone()));
                }
            }
        }
        batch.push_request(vms, rules);
        produced += size;
    }
    batch
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_has_exact_vm_budget() {
        let spec = RequestSpec {
            total_vms: 57,
            ..Default::default()
        };
        let b = generate_requests(&spec, 9);
        assert_eq!(b.vm_count(), 57);
        assert!(b.request_count() >= 57 / 4);
        assert!(b.validate(3).is_ok());
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = RequestSpec::default();
        let a = generate_requests(&spec, 4);
        let b = generate_requests(&spec, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn rules_reference_only_own_vms() {
        let spec = RequestSpec {
            total_vms: 100,
            p_same_server: 0.5,
            p_different_server: 0.5,
            ..Default::default()
        };
        let b = generate_requests(&spec, 17);
        for req in b.requests() {
            for rule in &req.rules {
                for vm in rule.vms() {
                    assert!(req.vms.contains(*vm));
                }
            }
        }
    }

    #[test]
    fn no_contradictory_rule_pairs() {
        let spec = RequestSpec {
            total_vms: 400,
            request_size: (2, 5),
            p_same_server: 0.9,
            p_same_datacenter: 0.9,
            p_different_server: 0.9,
            p_different_datacenter: 0.9,
            ..Default::default()
        };
        let b = generate_requests(&spec, 23);
        use AffinityKind::*;
        for req in b.requests() {
            let kinds: Vec<_> = req.rules.iter().map(|r| r.kind()).collect();
            let has = |k: AffinityKind| kinds.contains(&k);
            assert!(!(has(SameServer) && has(DifferentServer)), "{kinds:?}");
            assert!(!(has(SameServer) && has(DifferentDatacenter)), "{kinds:?}");
            assert!(
                !(has(SameDatacenter) && has(DifferentDatacenter)),
                "{kinds:?}"
            );
        }
    }

    #[test]
    fn without_affinity_produces_no_rules() {
        let spec = RequestSpec {
            total_vms: 60,
            ..Default::default()
        }
        .without_affinity();
        let b = generate_requests(&spec, 2);
        assert!(b.requests().iter().all(|r| r.rules.is_empty()));
    }

    #[test]
    fn singleton_requests_never_carry_rules() {
        let spec = RequestSpec {
            total_vms: 30,
            request_size: (1, 1),
            p_same_server: 1.0,
            p_different_server: 1.0,
            ..Default::default()
        };
        let b = generate_requests(&spec, 5);
        assert_eq!(b.request_count(), 30);
        assert!(b.requests().iter().all(|r| r.rules.is_empty()));
    }

    #[test]
    fn affinity_probabilities_bite() {
        let spec = RequestSpec {
            total_vms: 600,
            request_size: (2, 4),
            p_same_server: 0.0,
            p_same_datacenter: 0.0,
            p_different_server: 1.0,
            p_different_datacenter: 0.0,
            ..Default::default()
        };
        let b = generate_requests(&spec, 8);
        // The final request may shrink to one VM when the budget runs out;
        // every *multi-VM* request must carry the p=1 rule.
        for req in b.requests() {
            if req.vms.len() >= 2 {
                assert!(
                    !req.rules.is_empty(),
                    "multi-VM request without the p=1 rule"
                );
            } else {
                assert!(req.rules.is_empty());
            }
        }
    }
}
