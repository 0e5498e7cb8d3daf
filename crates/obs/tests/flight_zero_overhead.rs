//! The always-on flight recorder must be free until enabled: one relaxed
//! atomic load per `record()` call and zero heap allocations. Same
//! counting-allocator technique as `zero_overhead.rs`, in its own test
//! binary so the never-enabled recorder can't be flipped on by another
//! test in the same process.

use cpo_obs::flight::{self, FlightKind};
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
fn disabled_recorder_never_allocates() {
    assert!(!flight::is_enabled(), "recorder must start disabled");

    let records = allocations_during(|| {
        for i in 0..100_000u64 {
            flight::record(FlightKind::Placed, i, i, i % 64, i % 7);
        }
    });
    assert_eq!(records, 0, "disabled record() allocated {records} times");

    let markers = allocations_during(|| {
        for i in 0..10_000u64 {
            flight::marker(i, 0);
        }
    });
    assert_eq!(markers, 0, "disabled marker() allocated {markers} times");

    // Nothing was recorded either.
    assert_eq!(flight::snapshot().recorded, 0);
}
