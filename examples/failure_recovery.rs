//! Platform failures (the paper's future-work events): servers fail at
//! random, the scheduler sees them with zero capacity and the next
//! window's reconfiguration plan evacuates their tenants; repair brings
//! the hosts back a few windows later.
//!
//! ```text
//! cargo run --release --example failure_recovery [windows]
//! ```

use cpo_iaas::model::attr::AttrSet;
use cpo_iaas::platform::prelude::*;
use cpo_iaas::prelude::*;
use cpo_iaas::scenario::request_gen::RequestSpec;

fn main() {
    let windows: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(12);

    let infra = Infrastructure::new(
        AttrSet::standard(),
        vec![("dc".into(), ServerProfile::commodity(3).build_many(10))],
    );
    let config = SimConfig {
        arrivals: RequestSpec {
            total_vms: 10,
            request_size: (1, 2),
            ..Default::default()
        },
        lifetime: (4, 9),
        seed: 7,
        server_failure_prob: 0.5, // a busy failure season
        repair_windows: 3,
    };
    let mut sim = WindowExecutor::new(infra, config);
    let allocator = CpAllocator::default();

    println!(
        "{:>7} {:>9} {:>9} {:>10} {:>10} {:>11} {:>9}",
        "window", "admitted", "rejected", "offline", "stranded", "migrations", "tenants"
    );
    for _ in 0..windows {
        let r = sim.step(&allocator);
        println!(
            "{:>7} {:>9} {:>9} {:>10} {:>10} {:>11} {:>9}",
            r.window,
            r.admitted,
            r.rejected,
            r.offline_servers,
            r.stranded_vms,
            r.migrations,
            r.running_tenants,
        );
    }

    let log = sim.log();
    let failures = log.failure_count();
    let repairs = log
        .events()
        .iter()
        .filter(|e| matches!(e, Event::ServerRepaired { .. }))
        .count();
    println!(
        "\n{failures} failures, {repairs} repairs, {} migrations (evacuations included)",
        log.migration_count()
    );
    assert!(
        failures > 0,
        "with p=0.5 over {windows} windows a failure is expected"
    );

    // The event log exports as a JSON-lines trace for ops tooling.
    let trace = log.to_json_lines();
    println!("\ntrace sample (last 3 of {} events):", log.events().len());
    for line in trace
        .lines()
        .rev()
        .take(3)
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
    {
        println!("  {line}");
    }
    let replayed =
        cpo_iaas::platform::prelude::EventLog::from_json_lines(&trace).expect("round-trip");
    assert_eq!(replayed.events().len(), log.events().len());
}
