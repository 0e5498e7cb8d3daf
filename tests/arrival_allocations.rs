//! The trace arrival path allocates less than once per arrival: a warm
//! replay of the amplified committed sample through
//! `WindowedScheduler<TraceArrivalSource, FleetExecutor>` with Round
//! Robin reads each trace row into a heap-free record, writes it into a
//! window batch the scheduler clears and reuses, and places it with
//! buffers one `allocate` call owns. What is left is per window (the
//! window's id and admission lists, the solve's assignment and load
//! tables), so the count per arrival stays under one. This test installs
//! a counting global allocator and pins that, and that setting up an
//! event queue allocates nothing. It counts only the measuring thread's
//! allocations, so the test harness's threads cannot bump it.

use cpo_bench::trace_ingest_replay;
use cpo_iaas::des::prelude::EventQueue;
use cpo_iaas::obs::flight;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Const-initialised and drop-free,
    /// so touching it from inside the allocator never allocates; being
    /// per thread, the test harness's own threads cannot bump it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on the calling thread.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn a_warm_trace_replay_allocates_less_than_once_per_arrival() {
    assert!(!cpo_iaas::obs::is_enabled(), "telemetry must be off");
    assert!(!flight::is_enabled(), "flight recording must be off");
    // The sample amplified 300 times: 19,200 arrivals on 200 servers.
    let (factor, servers) = (300, 200);
    // The first replay initialises whatever the process sets up once.
    trace_ingest_replay(factor, servers, 1);
    let mut arrivals = 0;
    let allocations = allocations_during(|| arrivals = trace_ingest_replay(factor, servers, 1));
    assert_eq!(arrivals, 19_200);
    assert!(
        allocations <= arrivals,
        "{allocations} allocations for {arrivals} arrivals ({:.3} per arrival)",
        allocations as f64 / arrivals as f64
    );
}

#[test]
fn an_event_queue_allocates_nothing_until_events_arrive() {
    // A scheduler builds its queue per run; setting one up must cost no
    // heap work, whatever its bucket width.
    let allocations = allocations_during(|| {
        std::hint::black_box(EventQueue::<u64>::new());
        std::hint::black_box(EventQueue::<u64>::with_bucket_width(1e-3));
        std::hint::black_box(EventQueue::<u64>::for_window(60.0));
    });
    assert_eq!(allocations, 0);
}
