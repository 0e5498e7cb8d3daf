//! Persist scenario *specifications* as JSON so experiments can be
//! shared, versioned and replayed exactly (spec + seed ⇒ identical
//! problem instance).
//!
//! Only the generator parameters are serialised, never the expanded
//! problem: a few hundred bytes of JSON regenerate any instance.

use crate::arrival_gen::ArrivalSpec;
use crate::flavors::VmCostParams;
use crate::infra_gen::InfraSpec;
use crate::presets::ScenarioSpec;
use crate::request_gen::RequestSpec;
use serde::{Deserialize, Serialize};

/// A self-contained, serialisable experiment description.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct ScenarioFile {
    /// Free-form name.
    pub name: String,
    /// Generator seed.
    pub seed: u64,
    /// Infrastructure parameters.
    pub infra: InfraSpecDto,
    /// Request parameters.
    pub requests: RequestSpecDto,
}

/// Serialisable mirror of [`InfraSpec`].
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct InfraSpecDto {
    /// Number of datacenters.
    pub datacenters: usize,
    /// Total servers.
    pub servers: usize,
    /// Host-class weights (small, medium, large).
    pub class_mix: (f64, f64, f64),
    /// Cost jitter.
    pub cost_jitter: f64,
    /// Capacity factor range.
    pub factor: (f64, f64),
    /// QoS knee range.
    pub max_load: (f64, f64),
    /// Max QoS range.
    pub max_qos: (f64, f64),
}

/// Serialisable mirror of [`RequestSpec`].
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct RequestSpecDto {
    /// Total VMs.
    pub total_vms: usize,
    /// Request size range.
    pub request_size: (usize, usize),
    /// Rule probabilities (same-server, same-dc, diff-server, diff-dc).
    pub rule_probs: (f64, f64, f64, f64),
    /// QoS guarantee range.
    pub qos_guarantee: (f64, f64),
    /// Downtime cost range.
    pub downtime_cost: (f64, f64),
    /// Migration cost range.
    pub migration_cost: (f64, f64),
    /// Demand multiplier.
    pub demand_scale: f64,
}

impl From<&InfraSpec> for InfraSpecDto {
    fn from(s: &InfraSpec) -> Self {
        Self {
            datacenters: s.datacenters,
            servers: s.servers,
            class_mix: s.class_mix,
            cost_jitter: s.cost_jitter,
            factor: s.factor,
            max_load: s.max_load,
            max_qos: s.max_qos,
        }
    }
}

impl From<&InfraSpecDto> for InfraSpec {
    fn from(d: &InfraSpecDto) -> Self {
        Self {
            datacenters: d.datacenters,
            servers: d.servers,
            class_mix: d.class_mix,
            cost_jitter: d.cost_jitter,
            factor: d.factor,
            max_load: d.max_load,
            max_qos: d.max_qos,
        }
    }
}

impl From<&RequestSpec> for RequestSpecDto {
    fn from(s: &RequestSpec) -> Self {
        Self {
            total_vms: s.total_vms,
            request_size: s.request_size,
            rule_probs: (
                s.p_same_server,
                s.p_same_datacenter,
                s.p_different_server,
                s.p_different_datacenter,
            ),
            qos_guarantee: s.costs.qos_guarantee,
            downtime_cost: s.costs.downtime_cost,
            migration_cost: s.costs.migration_cost,
            demand_scale: s.demand_scale,
        }
    }
}

impl From<&RequestSpecDto> for RequestSpec {
    fn from(d: &RequestSpecDto) -> Self {
        Self {
            total_vms: d.total_vms,
            request_size: d.request_size,
            p_same_server: d.rule_probs.0,
            p_same_datacenter: d.rule_probs.1,
            p_different_server: d.rule_probs.2,
            p_different_datacenter: d.rule_probs.3,
            costs: VmCostParams {
                qos_guarantee: d.qos_guarantee,
                downtime_cost: d.downtime_cost,
                migration_cost: d.migration_cost,
            },
            demand_scale: d.demand_scale,
        }
    }
}

/// Serialisable mirror of [`ArrivalSpec`] — lets continuous-time and
/// trace-replay experiments persist their arrival templates next to the
/// scenario knobs.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct ArrivalSpecDto {
    /// Poisson intensity λ (ignored by trace replay).
    pub rate: f64,
    /// Holding-time range.
    pub lifetime: (f64, f64),
    /// Per-request template.
    pub request: RequestSpecDto,
}

impl From<&ArrivalSpec> for ArrivalSpecDto {
    fn from(s: &ArrivalSpec) -> Self {
        Self {
            rate: s.rate,
            lifetime: s.lifetime,
            request: (&s.request).into(),
        }
    }
}

impl From<&ArrivalSpecDto> for ArrivalSpec {
    fn from(d: &ArrivalSpecDto) -> Self {
        Self {
            rate: d.rate,
            request: (&d.request).into(),
            lifetime: d.lifetime,
        }
    }
}

impl ArrivalSpecDto {
    /// Serialises to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("arrival specs always serialise")
    }

    /// Parses from JSON.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| format!("invalid arrival spec: {e}"))
    }
}

impl ScenarioFile {
    /// Captures a spec + seed under a name.
    pub fn capture(name: impl Into<String>, spec: &ScenarioSpec, seed: u64) -> Self {
        Self {
            name: name.into(),
            seed,
            infra: (&spec.infra).into(),
            requests: (&spec.requests).into(),
        }
    }

    /// Rebuilds the generator spec.
    pub fn to_spec(&self) -> ScenarioSpec {
        ScenarioSpec {
            infra: (&self.infra).into(),
            requests: (&self.requests).into(),
        }
    }

    /// Serialises to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("scenario specs always serialise")
    }

    /// Parses from JSON.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| format!("invalid scenario file: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::ScenarioSize;

    #[test]
    fn json_roundtrip_is_lossless() {
        let size = ScenarioSize::with_servers(30);
        let spec = ScenarioSpec::for_size(&size).with_heavy_affinity();
        let file = ScenarioFile::capture("heavy-30", &spec, 99);
        let json = file.to_json();
        let back = ScenarioFile::from_json(&json).unwrap();
        assert_eq!(file, back);
    }

    #[test]
    fn reloaded_spec_generates_identical_problems() {
        let size = ScenarioSize::with_servers(12);
        let spec = ScenarioSpec::for_size(&size);
        let file = ScenarioFile::capture("t", &spec, 5);
        let reloaded = ScenarioFile::from_json(&file.to_json()).unwrap();
        let a = spec.generate(file.seed);
        let b = reloaded.to_spec().generate(reloaded.seed);
        assert_eq!(a.n(), b.n());
        assert_eq!(a.m(), b.m());
        for (x, y) in a.batch().vms().iter().zip(b.batch().vms()) {
            assert_eq!(x, y);
        }
        for j in a.infra().server_ids() {
            assert_eq!(a.infra().server_spec(j), b.infra().server_spec(j));
        }
    }

    #[test]
    fn invalid_json_is_reported() {
        assert!(ScenarioFile::from_json("{nope").is_err());
        assert!(ScenarioFile::from_json("{}").is_err());
    }

    #[test]
    fn arrival_spec_roundtrips_through_dto() {
        let spec = ArrivalSpec {
            rate: 3.5,
            lifetime: (2.0, 40.0),
            ..Default::default()
        };
        let dto: ArrivalSpecDto = (&spec).into();
        let back: ArrivalSpec = (&ArrivalSpecDto::from_json(&dto.to_json()).unwrap()).into();
        let redto: ArrivalSpecDto = (&back).into();
        assert_eq!(dto, redto);
        assert!(ArrivalSpecDto::from_json("{broken").is_err());
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn arb_arrival_spec() -> impl Strategy<Value = ArrivalSpec> {
            (
                0.1f64..50.0,
                (0.5f64..10.0, 10.0f64..500.0),
                (1usize..200, 1usize..8),
                (0.0f64..0.4, 0.0f64..0.4, 0.0f64..0.2),
                0.1f64..4.0,
            )
                .prop_map(|(rate, lifetime, (total, size_hi), (p1, p2, p3), scale)| {
                    let mut request = RequestSpec {
                        total_vms: total,
                        request_size: (1, size_hi),
                        demand_scale: scale,
                        ..Default::default()
                    };
                    request.p_same_server = p1;
                    request.p_same_datacenter = p2;
                    request.p_different_server = p3;
                    ArrivalSpec {
                        rate,
                        request,
                        lifetime,
                    }
                })
        }

        proptest! {
            #[test]
            fn json_roundtrip_preserves_every_field(spec in arb_arrival_spec()) {
                let dto: ArrivalSpecDto = (&spec).into();
                let parsed = ArrivalSpecDto::from_json(&dto.to_json()).unwrap();
                prop_assert_eq!(&dto, &parsed);
                // And a full there-and-back through the runtime type.
                let back: ArrivalSpec = (&parsed).into();
                let redto: ArrivalSpecDto = (&back).into();
                prop_assert_eq!(dto, redto);
            }
        }
    }

    #[test]
    fn json_contains_the_knobs() {
        let size = ScenarioSize::with_servers(10);
        let spec = ScenarioSpec::for_size(&size).with_heavy_affinity();
        let json = ScenarioFile::capture("x", &spec, 1).to_json();
        assert!(json.contains("demand_scale"));
        assert!(json.contains("rule_probs"));
        assert!(json.contains("class_mix"));
    }
}
