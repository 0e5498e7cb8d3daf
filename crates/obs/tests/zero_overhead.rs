//! Disabled-mode instrumentation must not allocate: the whole point of
//! compiling cpo-obs into every hot path is that it costs one relaxed
//! atomic load until someone calls `enable()`. This test installs a
//! counting global allocator and asserts the disabled paths perform
//! zero heap allocations. It lives in its own integration-test binary
//! so the allocator hook and the never-enabled registry can't interfere
//! with other tests.

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
fn disabled_instrumentation_never_allocates() {
    assert!(!cpo_obs::is_enabled(), "registry must start disabled");

    let spans = allocations_during(|| {
        for g in 0..1_000u64 {
            let mut sp = cpo_obs::span!("nsga3.generation", gen = g);
            sp.field("feasible", 12u64).field("algo", "nsga3/tabu");
        }
    });
    assert_eq!(spans, 0, "disabled spans allocated {spans} times");

    let counters = allocations_during(|| {
        for _ in 0..1_000 {
            cpo_obs::counter_add("cp.propagations", 17);
        }
    });
    assert_eq!(counters, 0, "disabled counters allocated {counters} times");

    let gauges = allocations_during(|| {
        for _ in 0..1_000 {
            cpo_obs::gauge_set("des.queue_depth", 4.0);
        }
    });
    assert_eq!(gauges, 0, "disabled gauges allocated {gauges} times");

    let histograms = allocations_during(|| {
        for v in 0..1_000u64 {
            cpo_obs::record_value("platform.solve_ns", v * 1024);
        }
    });
    assert_eq!(
        histograms, 0,
        "disabled histograms allocated {histograms} times"
    );
}
