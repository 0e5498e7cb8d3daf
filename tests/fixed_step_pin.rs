//! Fingerprint pin for the fixed-step window loop
//! (`WindowExecutor::run`, i.e. `step` once per window).
//!
//! Every scenario's per-window outcome and an FNV-1a hash of its event
//! log are compared against constants committed from a known-good run.
//! Any change to the phase order (failures → departures → generated
//! arrivals → solve/apply), to the RNG draw order or to the window
//! accounting shows up here as a mismatch.

use cpo_iaas::model::attr::AttrSet;
use cpo_iaas::prelude::*;
use cpo_iaas::scenario::request_gen::RequestSpec;

/// One window's pinned fields: arrivals, admitted, rejected, migrations,
/// running tenants, offline servers, stranded VMs and the bit pattern of
/// the provider cost.
type Row = (usize, usize, usize, usize, usize, usize, usize, u64);

fn infra(servers: usize) -> Infrastructure {
    Infrastructure::new(
        AttrSet::standard(),
        vec![("dc".into(), ServerProfile::commodity(3).build_many(servers))],
    )
}

fn config(vms: usize, seed: u64, failure_prob: f64) -> SimConfig {
    SimConfig {
        arrivals: RequestSpec {
            total_vms: vms,
            ..Default::default()
        },
        lifetime: (2, 5),
        seed,
        server_failure_prob: failure_prob,
        repair_windows: 2,
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Runs `windows` fixed steps and returns the pinned rows plus the
/// event-log hash.
fn run(servers: usize, cfg: SimConfig, allocator: &dyn Allocator, windows: u64) -> (Vec<Row>, u64) {
    let mut sim = WindowExecutor::new(infra(servers), cfg);
    let report = sim.run(allocator, windows);
    let rows = report
        .windows
        .iter()
        .map(|w| {
            (
                w.arrivals,
                w.admitted,
                w.rejected,
                w.migrations,
                w.running_tenants,
                w.offline_servers,
                w.stranded_vms,
                w.provider_cost.to_bits(),
            )
        })
        .collect();
    (rows, fnv1a(sim.log().to_json_lines().as_bytes()))
}

const ROUND_ROBIN: [(u64, [Row; 8], u64); 3] = [
    (
        1,
        [
            (2, 2, 0, 0, 2, 0, 0, 0x4056000000000000),
            (3, 3, 0, 0, 5, 0, 0, 0x4058000000000000),
            (3, 3, 0, 0, 8, 0, 0, 0x405a000000000000),
            (3, 3, 0, 12, 9, 0, 0, 0x405b000000000000),
            (4, 4, 0, 20, 12, 0, 0, 0x405c000000000000),
            (5, 5, 0, 9, 13, 0, 0, 0x405a400000000000),
            (4, 4, 0, 9, 13, 0, 0, 0x405a400000000000),
            (3, 3, 0, 1, 12, 0, 0, 0x405a000000000000),
        ],
        0xf7fe6892079abbeb,
    ),
    (
        7,
        [
            (5, 5, 0, 0, 5, 0, 0, 0x4056000000000000),
            (4, 4, 0, 0, 9, 0, 0, 0x4058000000000000),
            (3, 3, 0, 13, 10, 0, 0, 0x4059400000000000),
            (3, 3, 0, 17, 12, 0, 0, 0x405a800000000000),
            (4, 4, 0, 13, 10, 0, 0, 0x4059400000000000),
            (4, 4, 0, 15, 11, 0, 0, 0x4059c00000000000),
            (5, 5, 0, 10, 10, 0, 0, 0x4058800000000000),
            (7, 7, 0, 16, 16, 0, 0, 0x405a000000000000),
        ],
        0x6a6840d04347ad8c,
    ),
    (
        42,
        [
            (2, 2, 0, 0, 2, 0, 0, 0x404d000000000000),
            (2, 2, 0, 0, 4, 0, 0, 0x4058000000000000),
            (4, 4, 0, 0, 8, 0, 0, 0x405a000000000000),
            (3, 2, 1, 16, 9, 0, 0, 0x405a000000000000),
            (4, 4, 0, 5, 12, 0, 0, 0x405b400000000000),
            (5, 5, 0, 9, 14, 0, 0, 0x405a800000000000),
            (4, 4, 0, 15, 14, 0, 0, 0x4059c00000000000),
            (2, 2, 0, 17, 13, 0, 0, 0x405a400000000000),
        ],
        0x09e16addf673ba22,
    ),
];

const CP_UNDER_FAILURES: [Row; 6] = [
    (4, 4, 0, 0, 4, 1, 0, 0x403a000000000000),
    (3, 3, 0, 6, 7, 2, 0, 0x4045000000000000),
    (2, 2, 0, 12, 9, 1, 0, 0x4048000000000000),
    (4, 4, 0, 11, 10, 1, 0, 0x4049000000000000),
    (4, 4, 0, 0, 13, 2, 0, 0x4050400000000000),
    (3, 3, 0, 17, 12, 1, 0, 0x404f800000000000),
];

const CP_UNDER_FAILURES_LOG: u64 = 0x3a0da8d2f287f44f;

#[test]
fn round_robin_fixed_steps_match_the_pin() {
    for (seed, rows, log) in ROUND_ROBIN {
        let (got, got_log) = run(8, config(8, seed, 0.0), &RoundRobinAllocator, 8);
        assert_eq!(got, rows, "seed {seed}: per-window outcomes");
        assert_eq!(got_log, log, "seed {seed}: event-log hash");
    }
}

#[test]
fn cp_fixed_steps_under_failures_match_the_pin() {
    let (got, got_log) = run(6, config(6, 13, 0.6), &CpAllocator::default(), 6);
    assert_eq!(got, CP_UNDER_FAILURES, "per-window outcomes");
    assert_eq!(got_log, CP_UNDER_FAILURES_LOG, "event-log hash");
}
