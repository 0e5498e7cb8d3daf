//! VM flavour catalogue — EC2-like shapes giving the consumer demand
//! distributions. The paper only says its requests are "randomly generated
//! with parameter configurations that reflect typical infrastructure sizes
//! and cloud provider practices"; typical practice is a small set of
//! flavours, heavily skewed towards small instances.

use cpo_model::prelude::VmSpec;
use rand::Rng;

/// A named VM flavour with standard attributes (vCPU, RAM MiB, disk GiB).
#[derive(Clone, Debug, PartialEq)]
pub struct Flavor {
    /// Flavour name (reports only).
    pub name: &'static str,
    /// vCPU cores.
    pub cpu: f64,
    /// RAM in MiB.
    pub ram: f64,
    /// Disk in GiB.
    pub disk: f64,
    /// Relative weight in the sampling distribution.
    pub weight: f64,
}

/// The default flavour catalogue (shapes after common public-cloud
/// offerings, weights skewed to small instances as in production traces).
pub fn default_catalog() -> Vec<Flavor> {
    vec![
        Flavor {
            name: "micro",
            cpu: 1.0,
            ram: 1_024.0,
            disk: 10.0,
            weight: 0.25,
        },
        Flavor {
            name: "small",
            cpu: 1.0,
            ram: 2_048.0,
            disk: 20.0,
            weight: 0.25,
        },
        Flavor {
            name: "medium",
            cpu: 2.0,
            ram: 4_096.0,
            disk: 40.0,
            weight: 0.20,
        },
        Flavor {
            name: "large",
            cpu: 4.0,
            ram: 8_192.0,
            disk: 80.0,
            weight: 0.15,
        },
        Flavor {
            name: "xlarge",
            cpu: 8.0,
            ram: 16_384.0,
            disk: 160.0,
            weight: 0.08,
        },
        Flavor {
            name: "c-heavy",
            cpu: 16.0,
            ram: 8_192.0,
            disk: 80.0,
            weight: 0.04,
        },
        Flavor {
            name: "m-heavy",
            cpu: 4.0,
            ram: 32_768.0,
            disk: 80.0,
            weight: 0.03,
        },
    ]
}

/// Samples one flavour from the catalogue by weight.
pub fn sample<'a>(catalog: &'a [Flavor], rng: &mut impl Rng) -> &'a Flavor {
    assert!(!catalog.is_empty(), "empty flavour catalogue");
    let total: f64 = catalog.iter().map(|f| f.weight).sum();
    let mut pick = rng.gen::<f64>() * total;
    for f in catalog {
        pick -= f.weight;
        if pick <= 0.0 {
            return f;
        }
    }
    catalog.last().expect("non-empty")
}

/// Cost/QoS parameter ranges for generated VM specs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VmCostParams {
    /// QoS guarantee range `[lo, hi]` (paper: C^Q_k).
    pub qos_guarantee: (f64, f64),
    /// Downtime penalty range (C^U_k).
    pub downtime_cost: (f64, f64),
    /// Migration cost range (M_k).
    pub migration_cost: (f64, f64),
}

impl Default for VmCostParams {
    fn default() -> Self {
        Self {
            qos_guarantee: (0.90, 0.99),
            downtime_cost: (2.0, 10.0),
            migration_cost: (0.5, 3.0),
        }
    }
}

/// The standard per-window price of a VM shape: cloud pricing is roughly
/// linear in vCPU + memory. Shared by flavour sampling and trace replay,
/// so a trace-fed VM of a given shape sells for the same price as a
/// synthetic one.
pub fn flavor_revenue(cpu: f64, ram_mib: f64) -> f64 {
    2.0 + cpu * 1.5 + ram_mib / 4096.0
}

/// Materialises a [`VmSpec`] from a sampled flavour and cost parameters.
pub fn vm_from_flavor(f: &Flavor, params: &VmCostParams, rng: &mut impl Rng) -> VmSpec {
    let range = |(lo, hi): (f64, f64), rng: &mut dyn rand::RngCore| {
        if hi > lo {
            lo + (hi - lo) * rand::Rng::gen::<f64>(rng)
        } else {
            lo
        }
    };
    let demand = vec![f.cpu, f.ram, f.disk];
    // Cost ranges are jittered per VM; the price follows the shape.
    let revenue = flavor_revenue(f.cpu, f.ram);
    VmSpec {
        demand,
        qos_guarantee: range(params.qos_guarantee, rng),
        downtime_cost: range(params.downtime_cost, rng),
        migration_cost: range(params.migration_cost, rng),
        revenue,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn catalog_weights_sum_to_one() {
        let total: f64 = default_catalog().iter().map(|f| f.weight).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sampling_respects_weights_roughly() {
        let catalog = default_catalog();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut micro = 0usize;
        let n = 20_000;
        for _ in 0..n {
            if sample(&catalog, &mut rng).name == "micro" {
                micro += 1;
            }
        }
        let frac = micro as f64 / n as f64;
        assert!((0.22..0.28).contains(&frac), "micro fraction {frac}");
    }

    #[test]
    fn vm_from_flavor_stays_in_ranges() {
        let catalog = default_catalog();
        let params = VmCostParams::default();
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..500 {
            let f = sample(&catalog, &mut rng);
            let vm = vm_from_flavor(f, &params, &mut rng);
            assert!(vm.validate(3).is_ok());
            assert!((0.90..=0.99).contains(&vm.qos_guarantee));
            assert!((2.0..=10.0).contains(&vm.downtime_cost));
            assert!((0.5..=3.0).contains(&vm.migration_cost));
            assert_eq!(vm.demand[0], f.cpu);
        }
    }

    #[test]
    fn degenerate_range_is_constant() {
        let f = &default_catalog()[0];
        let params = VmCostParams {
            qos_guarantee: (0.95, 0.95),
            downtime_cost: (5.0, 5.0),
            migration_cost: (1.0, 1.0),
        };
        let mut rng = SmallRng::seed_from_u64(3);
        let vm = vm_from_flavor(f, &params, &mut rng);
        assert_eq!(vm.qos_guarantee, 0.95);
        assert_eq!(vm.downtime_cost, 5.0);
    }
}
