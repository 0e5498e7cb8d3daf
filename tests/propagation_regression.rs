//! Regression guard for the event-driven propagation engine, pinned on the
//! fig8 (many-resources sweep) cell at the canonical seed 42.
//!
//! The batch-level CSP of that cell — one packing constraint over all VMs
//! plus one propagator per affinity rule — is where the watcher lists
//! matter: a branching decision touches one request, yet the full-fixpoint
//! loop re-runs every rule of every request each round. The guard demands
//! the queued engine reach the identical outcome with ≥ 5× fewer
//! propagator invocations, and stay under a pinned absolute budget so a
//! future change silently reverting to full fixpoint fails CI here.

use cpo_iaas::core::cp_alloc::build_batch_csp;
use cpo_iaas::cpsolve::prelude::*;
use cpo_iaas::model::prelude::*;
use cpo_iaas::scenario::prelude::{ScenarioSize, ScenarioSpec};

/// The fig8 seed-42 cell, restricted to admissible requests: batch
/// admission is all-or-nothing, so requests whose rules are structurally
/// unsatisfiable on this infrastructure (a different-datacenter rule
/// spanning more VMs than there are datacenters) are dropped upfront —
/// exactly what an admission check rejects before solving.
fn fig8_problem() -> AllocationProblem<'static> {
    let raw = ScenarioSpec::for_size(&ScenarioSize::with_servers(100)).generate(42);
    let g = raw.g();
    let mut batch = RequestBatch::new();
    for req in raw.batch().requests() {
        let admissible = req
            .rules
            .iter()
            .all(|r| r.kind() != AffinityKind::DifferentDatacenter || r.vms().len() <= g);
        if !admissible {
            continue;
        }
        let base = batch.vm_count();
        let vms: Vec<VmSpec> = req.vms.iter().map(|k| raw.batch().spec(k)).collect();
        let rules: Vec<AffinityRule> = req
            .rules
            .iter()
            .map(|r| {
                let remapped: Vec<VmId> = r
                    .vms()
                    .iter()
                    .map(|k| {
                        let pos = req.vms.position(*k).expect("rule vm");
                        VmId(base + pos)
                    })
                    .collect();
                AffinityRule::new(r.kind(), remapped)
            })
            .collect();
        batch.push_request(vms, rules);
    }
    AllocationProblem::new(raw.infra().clone(), batch, None)
}

/// Solves the fig8 seed-42 batch CSP with the given engine.
fn run_cell(engine: Engine) -> (Outcome, SearchStats) {
    let problem = fig8_problem();
    let mut csp = build_batch_csp(&problem);
    let config = SearchConfig {
        deadline: None, // wall-clock budgets are nondeterministic
        max_nodes: Some(5_000),
        value_order: ValueOrder::Lex,
        engine,
    };
    solve(&mut csp, &config)
}

#[test]
fn queued_engine_saves_5x_propagations_on_fig8_cell() {
    let (queued_outcome, queued) = run_cell(Engine::Queued);
    let (reference_outcome, reference) = run_cell(Engine::Reference);

    assert_eq!(
        queued_outcome, reference_outcome,
        "engines must solve the fig8 cell identically"
    );
    assert!(
        queued_outcome.solution().is_some(),
        "the fig8 cell must be satisfiable: {queued_outcome:?}"
    );
    assert_eq!(queued.nodes, reference.nodes, "tree shapes diverged");
    assert!(
        reference.propagations >= 5 * queued.propagations,
        "expected ≥5× saving: queued {} vs reference {}",
        queued.propagations,
        reference.propagations
    );

    // Absolute pin, well below the reference count on this fixed seed: a
    // silent revert to full-fixpoint behaviour lands at the reference
    // count and fails. Headroom over the measured value covers benign
    // heuristic tweaks, not an engine regression.
    const PINNED_MAX_QUEUED: u64 = 800; // measured 533 on 2026-08-05
    assert!(
        queued.propagations <= PINNED_MAX_QUEUED,
        "queued propagations regressed past the pin: {} > {}",
        queued.propagations,
        PINNED_MAX_QUEUED
    );
    println!(
        "queued={} reference={} wakeups={}",
        queued.propagations, reference.propagations, queued.wakeups
    );
}
