//! Property tests for the kernel's determinism guarantees. The oracle is
//! a plain binary heap over `(time, seq)`; the queue under test runs at a
//! drawn bucket width, from far below the stamp spacing (one unit) to far
//! above it, because any width must give the same order.

use cpo_des::prelude::*;
use cpo_des::queue::EventKey;
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Bucket widths from 2⁻¹⁰ to 2⁶ time units. At the narrow end a few
/// hundred units of stamps already span more buckets than the ring holds.
fn bucket_width() -> impl Strategy<Value = f64> {
    (-10i32..=6).prop_map(|k| 2f64.powi(k))
}

/// Far enough ahead to lie past the ring's end at every drawn width, and
/// small enough that sums of a few hundred stay exact in an `f64`.
const FAR: u64 = 1 << 40;

/// Drives `ops` through a queue of bucket `width` that keeps at most one
/// event outside it (reserved, peeked against the head, advanced to),
/// and through a plain binary heap over `(time, seq)` holding every
/// event. Each op is `(kind, dt, copies)`: kinds 0 and 1 schedule
/// `copies` events at `now + dt`, kind 2 reserves a kept event at
/// `now + dt` when none is kept, and any other kind handles whichever
/// comes first, the kept event or the queue head. Both must handle the
/// same events in the same order.
fn merges_like_a_heap(width: f64, ops: &[(u8, u64, u8)]) -> Result<(), TestCaseError> {
    let mut q: EventQueue<u64> = EventQueue::with_bucket_width(width);
    let mut model: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut kept: Option<EventKey> = None;
    let mut now = 0u64;
    let mut seq = 0u64;
    // Handles whichever comes first: the kept event or the queue head.
    let handle = |q: &mut EventQueue<u64>, kept: &mut Option<EventKey>| {
        let head = q.peek_key();
        match kept.take_if(|k| head.is_none_or(|h| *k < h)) {
            Some(k) => {
                q.advance(k);
                Some((k.time.as_f64() as u64, k.seq))
            }
            None => q.pop().map(|(t, s)| (t.as_f64() as u64, s)),
        }
    };
    for &(kind, dt, copies) in ops {
        let at = now + dt;
        match kind {
            0 | 1 => {
                for _ in 0..copies {
                    q.schedule(SimTime::new(at as f64), seq);
                    model.push(Reverse((at, seq)));
                    seq += 1;
                }
            }
            2 if kept.is_none() => {
                let key = q.reserve(SimTime::new(at as f64));
                prop_assert_eq!(key.seq, seq);
                kept = Some(key);
                model.push(Reverse((at, seq)));
                seq += 1;
            }
            _ => {
                let got = handle(&mut q, &mut kept);
                let want = model.pop().map(|Reverse(e)| e);
                prop_assert_eq!(got, want);
                if let Some((t, _)) = want {
                    now = t;
                    prop_assert_eq!(q.now(), SimTime::new(t as f64));
                }
            }
        }
        prop_assert_eq!(q.len() + usize::from(kept.is_some()), model.len());
    }
    while let Some(Reverse(want)) = model.pop() {
        prop_assert_eq!(handle(&mut q, &mut kept), Some(want));
    }
    prop_assert!(kept.is_none() && q.is_empty());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary interleavings of a few distinct timestamps pop in
    /// timestamp order, FIFO among equal stamps — i.e. exactly a stable
    /// sort of the insertion sequence by time.
    #[test]
    fn same_timestamp_events_pop_fifo(width in bucket_width(), stamps in vec(0u8..5, 1..120)) {
        let mut q = EventQueue::with_bucket_width(width);
        for (i, &s) in stamps.iter().enumerate() {
            q.schedule(SimTime::new(f64::from(s)), (s, i));
        }
        let mut expected: Vec<(u8, usize)> =
            stamps.iter().copied().enumerate().map(|(i, s)| (s, i)).collect();
        expected.sort_by_key(|&(s, _)| s); // stable: preserves insertion order per stamp
        let popped: Vec<(u8, usize)> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        prop_assert_eq!(popped, expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Interleaved schedules and pops, on a handful of integer stamps so
    /// ties are common and many events land at the current clock, pop
    /// exactly as a plain binary heap over `(time, seq)` does.
    #[test]
    fn interleaved_schedule_and_pop_match_a_plain_heap(
        width in bucket_width(),
        ops in vec((0u8..3, 0u8..4), 1..200),
    ) {
        let mut q = EventQueue::with_bucket_width(width);
        let mut model: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        let pop_both = |q: &mut EventQueue<u64>, model: &mut BinaryHeap<Reverse<(u64, u64)>>| {
            let got = q.pop().map(|(t, s)| (t.as_f64() as u64, s));
            (got, model.pop().map(|Reverse(e)| e))
        };
        for &(kind, dt) in &ops {
            if kind < 2 {
                // Offset 0 schedules at the current clock.
                let at = now + u64::from(dt);
                q.schedule(SimTime::new(at as f64), seq);
                model.push(Reverse((at, seq)));
                seq += 1;
            } else {
                let (got, want) = pop_both(&mut q, &mut model);
                prop_assert_eq!(got, want);
                if let Some((t, _)) = want {
                    now = t;
                    prop_assert_eq!(q.now(), SimTime::new(t as f64));
                }
            }
            prop_assert_eq!(q.len(), model.len());
            let peek = model.peek().map(|Reverse((t, _))| SimTime::new(*t as f64));
            prop_assert_eq!(q.peek_key().map(|k| k.time), peek);
        }
        while !model.is_empty() {
            let (got, want) = pop_both(&mut q, &mut model);
            prop_assert_eq!(got, want);
        }
        prop_assert!(q.is_empty());
        prop_assert!(q.pop().is_none());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Queued events interleaved with one event the caller keeps outside
    /// the queue (reserved, peeked against the head, advanced to) are
    /// handled exactly as a plain binary heap over `(time, seq)` holding
    /// every event pops them. Few distinct stamps make ties common, and
    /// offset 0 schedules or reserves at the current clock.
    #[test]
    fn a_kept_event_merges_like_a_queued_one(
        width in bucket_width(),
        ops in vec((0u8..4, 0u64..3), 1..200),
    ) {
        let ops: Vec<(u8, u64, u8)> = ops.into_iter().map(|(kind, dt)| (kind, dt, 1)).collect();
        merges_like_a_heap(width, &ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The same merge with stamps far past the ring's end, so events
    /// overflow and the ring is rebased onto them, mixed with bursts of
    /// equal stamps, schedules at the current clock, near schedules that
    /// land before an open bucket a far refill moved ahead of the clock,
    /// and offsets of 5 units, just past the ring's end at the narrowest
    /// width.
    #[test]
    fn far_future_events_overflow_and_rebase_in_order(
        width in bucket_width(),
        ops in vec((0u8..4, (0usize..5).prop_map(|i| [0, 1, 2, 5, FAR][i]), 1u8..4), 1..200),
    ) {
        merges_like_a_heap(width, &ops)?;
    }
}
