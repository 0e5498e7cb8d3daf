//! Operate a live IaaS platform over cyclic scheduling windows: requests
//! arrive, tenants live and depart, the allocator replans each window and
//! the reconfiguration plan (Eq. 26) migrates running resources.
//!
//! ```text
//! cargo run --release --example platform_timeline [windows]
//! ```

use cpo_iaas::model::attr::AttrSet;
use cpo_iaas::prelude::*;
use cpo_iaas::scenario::request_gen::RequestSpec;

fn main() {
    let windows: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);

    let infra = Infrastructure::new(
        AttrSet::standard(),
        vec![
            ("dc-a".into(), ServerProfile::commodity(3).build_many(12)),
            ("dc-b".into(), ServerProfile::commodity(3).build_many(12)),
        ],
    );
    let config = SimConfig {
        arrivals: RequestSpec {
            total_vms: 16,
            request_size: (1, 3),
            ..Default::default()
        },
        lifetime: (3, 7),
        seed: 2024,
        ..Default::default()
    };
    let mut sim = WindowExecutor::new(infra, config);

    // A cheap allocator keeps the window latency low; swap in
    // EvoAllocator::nsga3_tabu(...) to see the optimiser replan live.
    let allocator = CpAllocator::default();

    println!(
        "{:>7} {:>9} {:>9} {:>9} {:>11} {:>9} {:>9} {:>11} {:>12}",
        "window",
        "arrivals",
        "admitted",
        "rejected",
        "migrations",
        "tenants",
        "vms",
        "servers",
        "cost"
    );
    for _ in 0..windows {
        let r = sim.step(&allocator);
        println!(
            "{:>7} {:>9} {:>9} {:>9} {:>11} {:>9} {:>9} {:>11} {:>12.1}",
            r.window,
            r.arrivals,
            r.admitted,
            r.rejected,
            r.migrations,
            r.running_tenants,
            r.running_vms,
            r.active_servers,
            r.provider_cost,
        );
        // Invariant: the live platform never violates capacity or rules.
        let report = sim.verify_state();
        assert!(report.is_feasible(), "platform corrupted: {report:?}");
    }

    let log = sim.log();
    println!(
        "\ntotals: {} migrations, {} rejections over {} windows; state feasible ✓",
        log.migration_count(),
        log.rejection_count(),
        windows
    );
}
