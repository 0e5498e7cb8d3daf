//! Persist scenario *specifications* as JSON so experiments can be
//! shared, versioned and replayed exactly (spec + seed ⇒ identical
//! problem instance).
//!
//! Only the generator parameters are serialised, never the expanded
//! problem: a few hundred bytes of JSON regenerate any instance.

use crate::flavors::VmCostParams;
use crate::infra_gen::InfraSpec;
use crate::presets::ScenarioSpec;
use crate::request_gen::RequestSpec;
use cpo_obs::json::{self, Value};

/// A self-contained, serialisable experiment description.
///
/// The JSON layout names each generator knob once; the four rule
/// probabilities sit in one `requests.rule_probs` array (same-server,
/// same-dc, diff-server, diff-dc).
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioFile {
    /// Free-form name.
    pub name: String,
    /// Generator seed.
    pub seed: u64,
    /// Infrastructure parameters.
    pub infra: InfraSpec,
    /// Request parameters.
    pub requests: RequestSpec,
}

impl ScenarioFile {
    /// Captures a spec + seed under a name.
    pub fn capture(name: impl Into<String>, spec: &ScenarioSpec, seed: u64) -> Self {
        Self {
            name: name.into(),
            seed,
            infra: spec.infra.clone(),
            requests: spec.requests.clone(),
        }
    }

    /// Rebuilds the generator spec.
    pub fn to_spec(&self) -> ScenarioSpec {
        ScenarioSpec {
            infra: self.infra.clone(),
            requests: self.requests.clone(),
        }
    }

    /// Serialises to pretty JSON.
    pub fn to_json(&self) -> String {
        let (i, r) = (&self.infra, &self.requests);
        let obj = |fields: Vec<(&str, Value)>| {
            Value::Obj(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        };
        let size = |n: usize| Value::UInt(n as u64);
        let floats = |xs: &[f64]| Value::Arr(xs.iter().map(|&x| Value::Float(x)).collect());
        let pair = |(lo, hi): (f64, f64)| floats(&[lo, hi]);
        let file = obj(vec![
            ("name", Value::Str(self.name.clone())),
            ("seed", Value::UInt(self.seed)),
            (
                "infra",
                obj(vec![
                    ("datacenters", size(i.datacenters)),
                    ("servers", size(i.servers)),
                    (
                        "class_mix",
                        floats(&[i.class_mix.0, i.class_mix.1, i.class_mix.2]),
                    ),
                    ("cost_jitter", Value::Float(i.cost_jitter)),
                    ("factor", pair(i.factor)),
                    ("max_load", pair(i.max_load)),
                    ("max_qos", pair(i.max_qos)),
                ]),
            ),
            (
                "requests",
                obj(vec![
                    ("total_vms", size(r.total_vms)),
                    (
                        "request_size",
                        Value::Arr(vec![size(r.request_size.0), size(r.request_size.1)]),
                    ),
                    (
                        "rule_probs",
                        floats(&[
                            r.p_same_server,
                            r.p_same_datacenter,
                            r.p_different_server,
                            r.p_different_datacenter,
                        ]),
                    ),
                    ("qos_guarantee", pair(r.costs.qos_guarantee)),
                    ("downtime_cost", pair(r.costs.downtime_cost)),
                    ("migration_cost", pair(r.costs.migration_cost)),
                    ("demand_scale", Value::Float(r.demand_scale)),
                ]),
            ),
        ]);
        let mut out = String::new();
        json::write_pretty(&file, &mut out);
        out
    }

    /// Parses from JSON.
    pub fn from_json(json: &str) -> Result<Self, String> {
        json::parse(json)
            .and_then(|v| Self::from_value(&v))
            .map_err(|e| format!("invalid scenario file: {e}"))
    }

    fn from_value(v: &Value) -> Result<Self, String> {
        let (i, r) = (member(v, "infra", Some)?, member(v, "requests", Some)?);
        let pair = |obj: &Value, key: &str| -> Result<(f64, f64), String> {
            let [lo, hi] = array(obj, key, Value::as_f64)?;
            Ok((lo, hi))
        };
        let [small, medium, large] = array(i, "class_mix", Value::as_f64)?;
        let [size_lo, size_hi] = array(r, "request_size", as_usize)?;
        let [same_server, same_dc, diff_server, diff_dc] = array(r, "rule_probs", Value::as_f64)?;
        Ok(Self {
            name: member(v, "name", Value::as_str)?.to_string(),
            seed: member(v, "seed", Value::as_u64)?,
            infra: InfraSpec {
                datacenters: member(i, "datacenters", as_usize)?,
                servers: member(i, "servers", as_usize)?,
                class_mix: (small, medium, large),
                cost_jitter: member(i, "cost_jitter", Value::as_f64)?,
                factor: pair(i, "factor")?,
                max_load: pair(i, "max_load")?,
                max_qos: pair(i, "max_qos")?,
            },
            requests: RequestSpec {
                total_vms: member(r, "total_vms", as_usize)?,
                request_size: (size_lo, size_hi),
                p_same_server: same_server,
                p_same_datacenter: same_dc,
                p_different_server: diff_server,
                p_different_datacenter: diff_dc,
                costs: VmCostParams {
                    qos_guarantee: pair(r, "qos_guarantee")?,
                    downtime_cost: pair(r, "downtime_cost")?,
                    migration_cost: pair(r, "migration_cost")?,
                },
                demand_scale: member(r, "demand_scale", Value::as_f64)?,
            },
        })
    }
}

/// Object `v`'s member `key`, read by `read`.
fn member<'v, T>(
    v: &'v Value,
    key: &str,
    read: impl Fn(&'v Value) -> Option<T>,
) -> Result<T, String> {
    v.get(key)
        .and_then(read)
        .ok_or_else(|| format!("missing or mistyped field `{key}`"))
}

/// Object `v`'s `N`-element array member `key`, each element read by `read`.
fn array<T, const N: usize>(
    v: &Value,
    key: &str,
    read: fn(&Value) -> Option<T>,
) -> Result<[T; N], String> {
    member(v, key, |a| {
        let items: Vec<T> = a.as_array()?.iter().map(read).collect::<Option<_>>()?;
        items.try_into().ok()
    })
}

fn as_usize(v: &Value) -> Option<usize> {
    usize::try_from(v.as_u64()?).ok()
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
        assert_eq!(a.batch(), b.batch());
        for j in a.infra().server_ids() {
            assert_eq!(a.infra().server_spec(j), b.infra().server_spec(j));
        }
    }

    #[test]
    fn invalid_json_is_reported() {
        assert!(ScenarioFile::from_json("{nope").is_err());
        assert!(ScenarioFile::from_json("{}").is_err());
    }

    /// Saved scenario files must keep loading: this one was written by
    /// the earlier serde-based codec, and the writer still reproduces it
    /// byte for byte.
    #[test]
    fn files_in_the_original_format_still_load() {
        let golden = r#"{
  "name": "x",
  "seed": 1,
  "infra": {
    "datacenters": 2,
    "servers": 10,
    "class_mix": [
      0.3,
      0.5,
      0.2
    ],
    "cost_jitter": 0.15,
    "factor": [
      0.85,
      0.95
    ],
    "max_load": [
      0.7,
      0.85
    ],
    "max_qos": [
      0.95,
      0.999
    ]
  },
  "requests": {
    "total_vms": 20,
    "request_size": [
      1,
      4
    ],
    "rule_probs": [
      0.1,
      0.15,
      0.2,
      0.05
    ],
    "qos_guarantee": [
      0.9,
      0.99
    ],
    "downtime_cost": [
      2.0,
      10.0
    ],
    "migration_cost": [
      0.5,
      3.0
    ],
    "demand_scale": 1.0
  }
}"#;
        let spec = ScenarioSpec::for_size(&ScenarioSize::with_servers(10));
        let file = ScenarioFile::capture("x", &spec, 1);
        assert_eq!(ScenarioFile::from_json(golden).unwrap(), file);
        assert_eq!(file.to_json(), golden);
    }

    #[test]
    fn mistyped_fields_are_named() {
        let json = ScenarioFile::capture(
            "x",
            &ScenarioSpec::for_size(&ScenarioSize::with_servers(20)),
            1,
        )
        .to_json()
        .replace("\"servers\": 20", "\"servers\": \"20\"");
        let err = ScenarioFile::from_json(&json).unwrap_err();
        assert!(err.contains("`servers`"), "{err}");
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn arb_file() -> impl Strategy<Value = ScenarioFile> {
            (
                (0u64..u64::MAX, 1usize..8, 1usize..10_000),
                (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1e-6, 1e9f64..1e20),
                (1usize..200, 1usize..8),
                (0.0f64..0.4, 0.0f64..0.4, 0.0f64..0.2, 0.0f64..0.2),
                0.1f64..4.0,
            )
                .prop_map(
                    |(
                        (seed, dcs, servers),
                        (a, b, tiny, huge),
                        (total, size_hi),
                        (p1, p2, p3, p4),
                        scale,
                    )| {
                        let spec = ScenarioSpec {
                            infra: InfraSpec {
                                datacenters: dcs,
                                servers,
                                class_mix: (a, b, tiny),
                                factor: (tiny, huge),
                                ..Default::default()
                            },
                            requests: RequestSpec {
                                total_vms: total,
                                request_size: (1, size_hi),
                                p_same_server: p1,
                                p_same_datacenter: p2,
                                p_different_server: p3,
                                p_different_datacenter: p4,
                                demand_scale: scale,
                                ..Default::default()
                            },
                        };
                        ScenarioFile::capture(format!("n\"{seed}\\\n→"), &spec, seed)
                    },
                )
        }

        proptest! {
            #[test]
            fn json_roundtrip_preserves_every_field(file in arb_file()) {
                let parsed = ScenarioFile::from_json(&file.to_json()).unwrap();
                prop_assert_eq!(file, parsed);
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
