//! Span nesting must stay coherent when threads record in parallel:
//! depth is tracked per thread, so a span opened on a spawned thread is
//! a root (depth 0) there while spans opened inside it nest below it,
//! and events from different threads carry distinct tids.
//! Own binary: mutates the global registry.

use std::collections::BTreeSet;

const THREADS: u64 = 4;
const SPANS_PER_THREAD: u64 = 16;

#[test]
fn spans_nest_per_thread() {
    cpo_obs::enable();
    cpo_obs::reset();

    {
        let _root = cpo_obs::span!("exper.run", run = 0u64);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                s.spawn(move || {
                    for i in t * SPANS_PER_THREAD..(t + 1) * SPANS_PER_THREAD {
                        let _outer = cpo_obs::span!("nsga3.generation", gen = i);
                        {
                            let _inner = cpo_obs::span!("moea.hypervolume");
                            std::hint::black_box(i * i);
                        }
                    }
                });
            }
        });
    }

    cpo_obs::disable();
    let snap = cpo_obs::snapshot();

    let gens: Vec<_> = snap
        .events
        .iter()
        .filter(|e| e.name == "nsga3.generation")
        .collect();
    let hvs: Vec<_> = snap
        .events
        .iter()
        .filter(|e| e.name == "moea.hypervolume")
        .collect();
    assert_eq!(gens.len(), (THREADS * SPANS_PER_THREAD) as usize);
    assert_eq!(hvs.len(), (THREADS * SPANS_PER_THREAD) as usize);

    // Each spawned thread records under its own tid, and its spans are
    // roots there: the calling thread's open span does not reach it.
    let worker_tids: BTreeSet<u64> = gens.iter().map(|g| g.tid).collect();
    assert_eq!(worker_tids.len(), THREADS as usize);
    assert!(gens.iter().all(|g| g.depth == 0));

    // Per-thread nesting: every hypervolume span sits exactly one level
    // below the generation span of the same thread.
    for hv in &hvs {
        assert!(worker_tids.contains(&hv.tid));
        assert_eq!(
            hv.depth, 1,
            "hypervolume span on tid {} must nest under its generation span",
            hv.tid
        );
    }

    // Spans record on drop, so the inner span's window lies within the
    // outer one on the same thread.
    for hv in &hvs {
        let owner = gens.iter().any(|g| {
            g.tid == hv.tid && g.ts_us <= hv.ts_us && hv.ts_us + hv.dur_us <= g.ts_us + g.dur_us
        });
        assert!(owner, "hypervolume span not contained in any generation");
    }

    // The root span on the calling thread is depth 0 and closed last.
    let root = snap
        .events
        .iter()
        .find(|e| e.name == "exper.run")
        .expect("root span recorded");
    assert_eq!(root.depth, 0);
    assert!(!worker_tids.contains(&root.tid));

    cpo_obs::reset();
}
