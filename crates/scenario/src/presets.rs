//! Scenario presets reproducing the paper's evaluation sweeps.
//!
//! The evaluation compares the algorithms on randomly generated scenarios
//! "involving up to 800 servers and 1600 virtual machines", averaged over
//! 100 runs. Two regimes appear:
//!
//! * **few resources** (Fig. 7) — small clusters where Round Robin and CP
//!   are fastest;
//! * **many resources** (Fig. 8) — the scalability regime where the
//!   constraint-propagation approaches stop scaling.

use crate::infra_gen::{generate_infra, InfraSpec};
use crate::request_gen::{generate_requests, RequestSpec};
use cpo_model::prelude::AllocationProblem;

/// One point of a problem-size sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSize {
    /// Number of servers `m`.
    pub servers: usize,
    /// Number of requested VMs `n`.
    pub vms: usize,
    /// Number of datacenters `g`.
    pub datacenters: usize,
}

impl ScenarioSize {
    /// The paper's sizing rule: VMs = 2 × servers (800 servers ↔ 1600 VMs),
    /// with a datacenter per ~200 servers (min 2).
    pub fn with_servers(servers: usize) -> Self {
        Self {
            servers,
            vms: servers * 2,
            datacenters: (servers / 200).max(2),
        }
    }

    /// A short label for reports (e.g. `"m=100 n=200"`).
    pub fn label(&self) -> String {
        format!("m={} n={}", self.servers, self.vms)
    }
}

/// The "few resources" sweep of Fig. 7.
pub fn few_resources_sweep() -> Vec<ScenarioSize> {
    [10, 20, 40, 60, 80, 100]
        .into_iter()
        .map(ScenarioSize::with_servers)
        .collect()
}

/// The "many resources" sweep of Fig. 8 (up to 800 servers / 1600 VMs).
pub fn many_resources_sweep() -> Vec<ScenarioSize> {
    [100, 200, 400, 600, 800]
        .into_iter()
        .map(ScenarioSize::with_servers)
        .collect()
}

/// The joint sweep used by Figs. 9–11 (rejection, violations, cost).
pub fn quality_sweep() -> Vec<ScenarioSize> {
    [20, 50, 100, 200, 400]
        .into_iter()
        .map(ScenarioSize::with_servers)
        .collect()
}

/// Fully-specified scenario parameters.
#[derive(Clone, Debug)]
pub struct ScenarioSpec {
    /// Infrastructure parameters.
    pub infra: InfraSpec,
    /// Request parameters.
    pub requests: RequestSpec,
}

impl ScenarioSpec {
    /// Builds the spec for a sweep point with default distributions.
    ///
    /// The VM budget targets moderate utilisation (the generated demand is
    /// ~40–60 % of capacity), which admits feasible placements while
    /// forcing consolidation choices — the regime where the algorithms
    /// differ most.
    pub fn for_size(size: &ScenarioSize) -> Self {
        Self {
            infra: InfraSpec {
                datacenters: size.datacenters,
                servers: size.servers,
                ..Default::default()
            },
            requests: RequestSpec {
                total_vms: size.vms,
                ..Default::default()
            },
        }
    }

    /// Same spec with heavier affinity pressure and tighter capacity (used
    /// by the rejection/violation/cost figures, where rules and packing
    /// pressure are what separate the algorithms): larger requests, more
    /// rules, and demand scaled to ~80-90 % CPU utilisation so greedy
    /// placement runs into fragmentation.
    pub fn with_heavy_affinity(mut self) -> Self {
        self.requests.request_size = (2, 5);
        self.requests.p_same_server = 0.25;
        self.requests.p_same_datacenter = 0.25;
        self.requests.p_different_server = 0.35;
        self.requests.p_different_datacenter = 0.10;
        self.requests.demand_scale = 4.5;
        self
    }

    /// Generates the [`AllocationProblem`] for run index `run` (each run
    /// re-derives both infrastructure and requests from the seed).
    pub fn generate(&self, seed: u64) -> AllocationProblem<'static> {
        let infra = generate_infra(&self.infra, seed ^ 0x9e37_79b9_7f4a_7c15);
        let batch = generate_requests(&self.requests, seed.wrapping_mul(0x2545_f491_4f6c_dd1d));
        AllocationProblem::new(infra.infra, batch, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shapes_match_the_paper() {
        let few = few_resources_sweep();
        assert!(few.iter().all(|s| s.servers <= 100));
        let many = many_resources_sweep();
        assert_eq!(many.last().unwrap().servers, 800);
        assert_eq!(many.last().unwrap().vms, 1600);
    }

    #[test]
    fn with_servers_applies_sizing_rule() {
        let s = ScenarioSize::with_servers(400);
        assert_eq!(s.vms, 800);
        assert_eq!(s.datacenters, 2);
        let big = ScenarioSize::with_servers(800);
        assert_eq!(big.datacenters, 4);
        assert_eq!(big.label(), "m=800 n=1600");
    }

    #[test]
    fn generated_problem_matches_size() {
        let size = ScenarioSize::with_servers(20);
        let p = ScenarioSpec::for_size(&size).generate(1);
        assert_eq!(p.m(), 20);
        assert_eq!(p.n(), 40);
        assert_eq!(p.g(), 2);
        assert_eq!(p.h(), 3);
    }

    #[test]
    fn generated_demand_is_moderate() {
        let size = ScenarioSize::with_servers(50);
        let p = ScenarioSpec::for_size(&size).generate(3);
        let cap = p.infra().total_effective_capacity();
        let dem = p.batch().total_demand(3);
        for l in 0..3 {
            let util = dem[l] / cap[l];
            assert!(
                (0.005..0.9).contains(&util),
                "attribute {l} utilisation {util} out of sane band"
            );
        }
    }

    #[test]
    fn scenarios_are_deterministic_and_seed_sensitive() {
        let size = ScenarioSize::with_servers(10);
        let spec = ScenarioSpec::for_size(&size);
        let a = spec.generate(5);
        let b = spec.generate(5);
        let c = spec.generate(6);
        assert_eq!(a.batch(), b.batch());
        assert_ne!(a.batch().total_demand(3)[0], c.batch().total_demand(3)[0]);
    }

    #[test]
    fn heavy_affinity_raises_rule_density() {
        let size = ScenarioSize::with_servers(50);
        let base = ScenarioSpec::for_size(&size).generate(2);
        let heavy = ScenarioSpec::for_size(&size)
            .with_heavy_affinity()
            .generate(2);
        let count = |p: &AllocationProblem| {
            p.batch()
                .requests()
                .iter()
                .map(|r| r.rules.len())
                .sum::<usize>()
        };
        assert!(count(&heavy) > count(&base));
    }
}
