//! Release-mode throughput gate: the kernel queue must sustain at least
//! one million synthetic events per second (`bench_micro`'s
//! `des.synthetic_churn` cell measures the same loop). Debug builds run
//! the churn for correctness but skip the rate assertion; CI runs this
//! crate's tests in release too.

use cpo_des::queue::synthetic_churn;
use std::time::Instant;

#[test]
fn queue_sustains_a_million_events_per_second() {
    // Warm up allocator and caches.
    synthetic_churn(100_000, 1024, 0x5eed);

    let n = 1_000_000usize;
    let start = Instant::now();
    let processed = synthetic_churn(n, 1024, 0x5eed);
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(processed, n as u64);

    let rate = n as f64 / secs;
    eprintln!("synthetic churn: {rate:.0} events/sec");
    if cfg!(debug_assertions) {
        return; // the bar is a release-mode bar
    }
    assert!(
        rate >= 1_000_000.0,
        "kernel throughput {rate:.0} events/sec is below the 1M bar"
    );
}
