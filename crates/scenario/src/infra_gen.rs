//! Random provider infrastructures: heterogeneous servers laid out in
//! spine-leaf datacenters.

use cpo_model::attr::AttrSet;
use cpo_model::prelude::{Infrastructure, Server};
use cpo_topology::{build_spine_leaf, BuiltPod, SpineLeafSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Host hardware classes with their capacity vectors and cost profiles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostClass {
    /// 16 vCPU / 64 GiB / 1 TiB — cheap edge host.
    Small,
    /// 32 vCPU / 128 GiB / 2 TiB — the commodity workhorse.
    Medium,
    /// 64 vCPU / 256 GiB / 4 TiB — consolidation host.
    Large,
}

impl HostClass {
    fn capacity(self) -> [f64; 3] {
        match self {
            HostClass::Small => [16.0, 65_536.0, 1_024.0],
            HostClass::Medium => [32.0, 131_072.0, 2_048.0],
            HostClass::Large => [64.0, 262_144.0, 4_096.0],
        }
    }

    fn base_opex(self) -> f64 {
        match self {
            HostClass::Small => 6.0,
            HostClass::Medium => 10.0,
            HostClass::Large => 18.0,
        }
    }

    fn base_usage(self) -> f64 {
        match self {
            HostClass::Small => 1.2,
            HostClass::Medium => 1.0,
            HostClass::Large => 0.9,
        }
    }
}

/// Infrastructure generation parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct InfraSpec {
    /// Number of datacenters `g`.
    pub datacenters: usize,
    /// Total number of servers `m` (split evenly across datacenters; the
    /// remainder goes to the first datacenters).
    pub servers: usize,
    /// Mix of host classes `(small, medium, large)` — weights.
    pub class_mix: (f64, f64, f64),
    /// Relative jitter applied to costs (0.1 = ±10 %).
    pub cost_jitter: f64,
    /// Virtual-to-physical capacity factor range (paper's `F`, Eq. 3).
    pub factor: (f64, f64),
    /// QoS knee range (`L^M`, Eq. 8).
    pub max_load: (f64, f64),
    /// Max QoS range (`Q^M`, Eq. 8).
    pub max_qos: (f64, f64),
}

impl Default for InfraSpec {
    fn default() -> Self {
        Self {
            datacenters: 2,
            servers: 20,
            class_mix: (0.3, 0.5, 0.2),
            cost_jitter: 0.15,
            factor: (0.85, 0.95),
            max_load: (0.7, 0.85),
            max_qos: (0.95, 0.999),
        }
    }
}

fn pick_class(mix: (f64, f64, f64), rng: &mut impl Rng) -> HostClass {
    let total = mix.0 + mix.1 + mix.2;
    let r = rng.gen::<f64>() * total;
    if r < mix.0 {
        HostClass::Small
    } else if r < mix.0 + mix.1 {
        HostClass::Medium
    } else {
        HostClass::Large
    }
}

fn jitter(base: f64, rel: f64, rng: &mut impl Rng) -> f64 {
    base * (1.0 + rel * (rng.gen::<f64>() * 2.0 - 1.0))
}

fn gen_server(spec: &InfraSpec, rng: &mut impl Rng) -> Server {
    let class = pick_class(spec.class_mix, rng);
    let cap = class.capacity();
    let factor = rng.gen_range(spec.factor.0..=spec.factor.1);
    let max_load = rng.gen_range(spec.max_load.0..=spec.max_load.1);
    let max_qos = rng.gen_range(spec.max_qos.0..=spec.max_qos.1);
    Server {
        capacity: cap.to_vec(),
        factor: vec![factor; 3],
        opex: jitter(class.base_opex(), spec.cost_jitter, rng),
        usage_cost: jitter(class.base_usage(), spec.cost_jitter, rng),
        max_load: vec![max_load; 3],
        max_qos: vec![max_qos; 3],
    }
}

/// A generated infrastructure plus the per-datacenter network pods.
#[derive(Clone, Debug)]
pub struct GeneratedInfra {
    /// The model-level infrastructure (what the solvers consume).
    pub infra: Infrastructure,
    /// One spine-leaf pod per datacenter (network substrate).
    pub pods: Vec<BuiltPod>,
}

/// Generates a random infrastructure from the spec, deterministically
/// under `seed`.
pub fn generate_infra(spec: &InfraSpec, seed: u64) -> GeneratedInfra {
    assert!(spec.datacenters >= 1, "need at least one datacenter");
    assert!(
        spec.servers >= spec.datacenters,
        "need at least one server per datacenter"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let base = spec.servers / spec.datacenters;
    let extra = spec.servers % spec.datacenters;
    let mut dcs = Vec::with_capacity(spec.datacenters);
    let mut pods = Vec::with_capacity(spec.datacenters);
    for d in 0..spec.datacenters {
        let count = base + usize::from(d < extra);
        let servers: Vec<Server> = (0..count).map(|_| gen_server(spec, &mut rng)).collect();
        dcs.push((format!("dc{d}"), servers));
        pods.push(build_spine_leaf(&SpineLeafSpec::for_server_count(count)));
    }
    GeneratedInfra {
        infra: Infrastructure::new(AttrSet::standard(), dcs),
        pods,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_infra_has_requested_shape() {
        let spec = InfraSpec {
            datacenters: 3,
            servers: 10,
            ..Default::default()
        };
        let g = generate_infra(&spec, 42);
        assert_eq!(g.infra.datacenter_count(), 3);
        assert_eq!(g.infra.server_count(), 10);
        // 10 = 4 + 3 + 3
        assert_eq!(g.infra.datacenters()[0].server_count, 4);
        assert_eq!(g.infra.datacenters()[1].server_count, 3);
        assert_eq!(g.pods.len(), 3);
        assert!(g.pods[0].servers.len() >= 4);
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = InfraSpec::default();
        let a = generate_infra(&spec, 7);
        let b = generate_infra(&spec, 7);
        for j in a.infra.server_ids() {
            assert_eq!(a.infra.server_spec(j), b.infra.server_spec(j));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let spec = InfraSpec::default();
        let a = generate_infra(&spec, 1);
        let b = generate_infra(&spec, 2);
        let same = a
            .infra
            .server_ids()
            .all(|j| a.infra.server_spec(j) == b.infra.server_spec(j));
        assert!(!same);
    }

    #[test]
    fn all_servers_validate() {
        let spec = InfraSpec {
            datacenters: 2,
            servers: 50,
            ..Default::default()
        };
        let g = generate_infra(&spec, 3);
        for j in g.infra.server_ids() {
            assert!(g.infra.server_spec(j).validate(3).is_ok());
        }
    }

    #[test]
    fn class_mix_produces_heterogeneity() {
        let spec = InfraSpec {
            servers: 200,
            ..Default::default()
        };
        let g = generate_infra(&spec, 11);
        let mut caps: Vec<u64> = g
            .infra
            .server_ids()
            .map(|j| g.infra.capacity_row(j)[0] as u64)
            .collect();
        caps.sort_unstable();
        caps.dedup();
        assert!(caps.len() >= 2, "expected mixed host classes, got {caps:?}");
    }

    #[test]
    fn pure_class_mix_is_homogeneous() {
        let spec = InfraSpec {
            class_mix: (0.0, 1.0, 0.0),
            servers: 30,
            ..Default::default()
        };
        let g = generate_infra(&spec, 5);
        assert!(g
            .infra
            .server_ids()
            .all(|j| g.infra.capacity_row(j)[0] == 32.0));
    }

    #[test]
    #[should_panic(expected = "at least one server per datacenter")]
    fn too_few_servers_rejected() {
        let spec = InfraSpec {
            datacenters: 5,
            servers: 3,
            ..Default::default()
        };
        let _ = generate_infra(&spec, 0);
    }
}
