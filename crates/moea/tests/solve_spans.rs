//! The engine's per-generation spans: every `nsga3.generation` span holds
//! exactly one `moea.mate` (carrying a `repairs` field), one
//! `moea.evaluate` and one `moea.select`, in that order, one level below
//! it. Own binary: mutates the global registry.

use cpo_moea::prelude::*;
use cpo_obs::{FieldValue, TraceKind};

/// Two objectives (x, y) on the unit square, feasible when x + y ≥ 1.
struct HalfPlane;

impl MoeaProblem for HalfPlane {
    fn n_vars(&self) -> usize {
        2
    }
    fn n_objectives(&self) -> usize {
        2
    }
    fn bounds(&self, _i: usize) -> (f64, f64) {
        (0.0, 1.0)
    }
    fn evaluate(&self, g: &[f64]) -> Evaluation {
        Evaluation {
            objectives: vec![g[0], g[1]],
            violation: (1.0 - (g[0] + g[1])).max(0.0),
        }
    }
}

#[test]
fn every_generation_records_mate_evaluate_and_select() {
    cpo_obs::enable();
    cpo_obs::reset();
    let config = NsgaConfig {
        population_size: 12,
        max_evaluations: 12 * 6,
        parallel_eval: false,
        ..NsgaConfig::paper_defaults(Variant::Nsga3)
    }
    .with_repair(RepairMode::Both);
    // Raise x until x + y = 1 (the engine clamps to bounds afterwards).
    let repair = |g: &mut [f64]| -> Option<Evaluation> {
        g[0] = g[0].max(1.0 - g[1]);
        None
    };
    let result = run(&HalfPlane, &config, Some(&repair));
    cpo_obs::disable();
    let snap = cpo_obs::snapshot();
    cpo_obs::reset();

    // Spans record when they close, so a generation's children come
    // right before the generation itself.
    let spans: Vec<_> = snap
        .events
        .iter()
        .filter(|e| e.kind == TraceKind::Span)
        .collect();
    let mut children = Vec::new();
    let mut generations = 0;
    for event in spans {
        if event.name == "nsga3.generation" {
            generations += 1;
            let names: Vec<&str> = children
                .iter()
                .map(|c: &&cpo_obs::TraceEvent| c.name.as_str())
                .collect();
            assert_eq!(
                names,
                ["moea.mate", "moea.evaluate", "moea.select"],
                "generation {generations}"
            );
            for child in &children {
                assert_eq!(child.depth, event.depth + 1);
                assert_eq!(child.tid, event.tid);
            }
            assert!(
                matches!(children[0].field("repairs"), Some(FieldValue::U64(r)) if *r > 0),
                "moea.mate must report the generation's repair calls"
            );
            children.clear();
        } else if event.name.starts_with("moea.") && event.name != "moea.run" {
            children.push(event);
        }
    }
    assert!(result.generations > 0);
    assert_eq!(generations, result.generations);
}
