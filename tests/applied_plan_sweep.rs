//! The fixed-step loop applies only feasible plans: after every window
//! the live platform state satisfies capacity (Eqs. 4/16), placement and
//! affinity (Eqs. 9–14).
//!
//! A window plan may drop a running tenant (it then keeps its previous
//! servers) while it places an arrival or a moved resident into the
//! capacity that tenant still holds. Each case below is a contested
//! configuration in which an allocator produces such a plan within a few
//! windows; the platform must reject the request that does not fit
//! beside the kept tenant instead of overloading the server.

use cpo_iaas::exper::runner::{Algorithm, Effort};
use cpo_iaas::model::attr::AttrSet;
use cpo_iaas::prelude::*;
use cpo_iaas::scenario::request_gen::RequestSpec;

const WINDOWS: u64 = 8;

fn run_checked(algorithm: Algorithm, seed: u64, servers: usize, vms: usize) {
    let infra = Infrastructure::new(
        AttrSet::standard(),
        vec![("dc".into(), ServerProfile::commodity(3).build_many(servers))],
    );
    let config = SimConfig {
        arrivals: RequestSpec {
            total_vms: vms,
            ..Default::default()
        },
        lifetime: (2, 5),
        seed,
        server_failure_prob: 0.0,
        ..Default::default()
    };
    let allocator = algorithm.build(Effort::Quick, seed);
    let mut sim = WindowExecutor::new(infra, config);
    for window in 0..WINDOWS {
        let report = sim.step(allocator.as_ref());
        assert_eq!(report.arrivals, report.admitted + report.rejected);
        let state = sim.verify_state();
        assert!(
            state.is_feasible(),
            "{} (seed {seed}, {servers} servers, {vms} VMs/window) window {window}: {state:?}",
            algorithm.label()
        );
    }
}

#[test]
fn filtering_keeps_the_live_state_feasible() {
    run_checked(Algorithm::Filtering, 7, 4, 14);
}

#[test]
fn tabu_search_keeps_the_live_state_feasible() {
    run_checked(Algorithm::TabuSearch, 1, 4, 14);
}

#[test]
fn nsga3_tabu_keeps_the_live_state_feasible() {
    run_checked(Algorithm::Nsga3Tabu, 1, 6, 20);
}
