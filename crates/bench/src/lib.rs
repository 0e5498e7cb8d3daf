//! Shared helpers for the benchmark suite.
//!
//! Each `benches/figN_*.rs` target regenerates one figure of the paper:
//! it prints the figure's data table (the same rows `exper figN` emits)
//! and then lets criterion time the representative cells. The
//! `ablation_*` targets benchmark the design choices DESIGN.md calls out;
//! the `micro_*` targets profile the hot kernels.

pub mod diff;
pub mod report;

use cpo_exper::runner::{Algorithm, Effort};
use cpo_model::prelude::AllocationProblem;
use cpo_scenario::prelude::{ScenarioSize, ScenarioSpec};

/// Cores available to this process (`available_parallelism`, 1 when
/// unknown): the `host_cores` key each bench's config cell records.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Deterministic scenario for a bench cell.
pub fn bench_problem(servers: usize, heavy: bool, seed: u64) -> AllocationProblem {
    let size = ScenarioSize::with_servers(servers);
    let spec = if heavy {
        ScenarioSpec::for_size(&size).with_heavy_affinity()
    } else {
        ScenarioSpec::for_size(&size)
    };
    spec.generate(seed)
}

/// Prints one figure's data table by calling the exper harness with a
/// small run count — the rows `cargo bench` leaves in its log are the
/// regenerated figure.
pub fn print_figure(id: &str) {
    use cpo_exper::figures;
    use cpo_exper::report::{render_figure, shape_summary};
    let runs = 2;
    let seed = 42;
    let fig = match id {
        "fig7" => figures::fig7(Effort::Quick, runs, seed),
        "fig8" => figures::fig8(Effort::Quick, runs, seed),
        "fig9" => figures::fig9(Effort::Quick, runs, seed),
        "fig10" => figures::fig10(Effort::Quick, runs, seed),
        "fig11" => figures::fig11(Effort::Quick, runs, seed),
        other => panic!("unknown figure {other}"),
    };
    println!("\n=== regenerated {id} ===");
    print!("{}", render_figure(&fig));
    print!("{}", shape_summary(&fig));
    println!("========================\n");
}

/// The algorithm set for timing cells.
pub fn timed_algorithms() -> [Algorithm; 6] {
    Algorithm::all()
}

/// The fig8 seed-42 cell restricted to admissible requests — the same
/// batch-level CSP the propagation regression test pins. Requests whose
/// rules are structurally unsatisfiable on this infrastructure (a
/// different-datacenter rule spanning more VMs than there are
/// datacenters) are dropped upfront, exactly as batch admission would.
pub fn admissible_fig8_problem() -> AllocationProblem {
    use cpo_model::prelude::*;
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
        let base = batch.vms().len();
        let vms: Vec<VmSpec> = req.vms.iter().map(|&k| raw.batch().vm(k).clone()).collect();
        let rules: Vec<AffinityRule> = req
            .rules
            .iter()
            .map(|r| {
                let remapped: Vec<VmId> = r
                    .vms()
                    .iter()
                    .map(|k| {
                        let pos = req.vms.iter().position(|v| v == k).expect("rule vm");
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_problem_is_deterministic() {
        let a = bench_problem(8, true, 1);
        let b = bench_problem(8, true, 1);
        assert_eq!(a.n(), b.n());
        assert_eq!(a.m(), 8);
    }
}
