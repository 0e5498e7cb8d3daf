//! The optimistic commit path is allocation-free once warm: with
//! telemetry off, a steady-state `PlacementStore::try_commit` (accepted
//! or bounced) and the native `reserve`/`release` hooks work entirely in
//! the store's own scratch buffers. This test installs a counting global
//! allocator and pins that at zero. It counts only the measuring
//! thread's allocations, so the test harness's threads cannot bump it.

use cpo_model::attr::AttrSet;
use cpo_model::prelude::*;
use cpo_obs::flight;
use cpo_platform::prelude::{CommitCtx, PlacementStore};
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
fn steady_state_commit_reserve_and_release_never_allocate() {
    assert!(!cpo_obs::is_enabled(), "telemetry must be off");
    assert!(!flight::is_enabled(), "flight recording must be off");
    let infra = Infrastructure::new(
        AttrSet::standard(),
        vec![("dc".into(), ServerProfile::commodity(3).build_many(4))],
    );
    let store = PlacementStore::new(&infra);
    let ctx = CommitCtx {
        key: flight::NONE,
        tenant: 0,
        window: 0,
        round: 0,
    };
    let small = [1.0, 1024.0, 10.0];
    let huge = [1_000.0, 1024.0, 10.0];
    // A three-VM request over two servers, and one that cannot fit.
    let fits: [(ServerId, &[f64]); 3] = [
        (ServerId(0), &small),
        (ServerId(1), &small),
        (ServerId(0), &small),
    ];
    let overdraws: [(ServerId, &[f64]); 2] = [(ServerId(2), &small), (ServerId(3), &huge)];
    let versions = vec![0u64; 4];

    // One round of everything grows the scratch buffers to size.
    let round = || {
        store.try_commit(&fits, &versions, &ctx).expect("fits");
        assert!(store.try_commit(&overdraws, &versions, &ctx).is_err());
        for &(j, demand) in &fits {
            store.release(j, demand);
        }
        store.reserve(ServerId(3), &small);
        store.release(ServerId(3), &small);
    };
    round();

    let steady = allocations_during(|| {
        for _ in 0..1_000 {
            round();
        }
    });
    assert_eq!(
        steady, 0,
        "steady-state store calls allocated {steady} times"
    );
    let m = store.metrics();
    assert_eq!((m.commits, m.conflicts), (1_001, 1_001));
}
