//! The timestamp-ordered event queue — the kernel's substrate.
//!
//! A calendar queue (R. Brown, "Calendar Queues", CACM 31(10), 1988)
//! keyed on `(time, sequence)`: events pop in timestamp order, and events
//! scheduled for the *same* timestamp pop in the order they were
//! scheduled (stable FIFO tie-breaking via a monotonically increasing
//! sequence number). Determinism is the whole point: two runs that
//! schedule the same events in the same order observe the same history,
//! whatever the mix of tied timestamps.
//!
//! Time is cut into buckets of a fixed width, [`BUCKETS_PER_WINDOW`] to
//! a scheduling window. The *open* bucket, the one the queue head lies
//! in, is sorted once, latest first, when it opens, so a pop is a
//! `Vec::pop`. An event scheduled into the open bucket (or before it)
//! after that sort waits in a small side heap, and the head is the
//! earlier of the two. Later buckets are unsorted `Vec`s in a ring that
//! grows as events land in it, up to 4,096 buckets from where it last
//! started; events beyond the ring's end wait in an overflow list that
//! is redistributed only once the ring drains, so a far-future event
//! costs no storage per empty bucket.
//!
//! An event the caller keeps outside the queue joins the same order:
//! [`EventQueue::reserve`] hands it the next sequence number without
//! queueing anything, the caller handles it when its [`EventKey`]
//! precedes [`EventQueue::peek_key`], and [`EventQueue::advance`] moves
//! the clock to it as [`EventQueue::pop`] would have. The scheduler keeps
//! its one parked arrival this way, so arrivals never enter the queue of
//! pending departures.

use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

/// Buckets per scheduling window: the one bucket-width rule.
pub const BUCKETS_PER_WINDOW: f64 = 16.0;

/// The most buckets the ring spans from where it last started; later
/// events overflow.
const RING_BUCKETS: usize = 4096;

/// An event's place in the queue order: earlier `time` first, and among
/// equal times the one scheduled (or reserved) first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// When the event is due.
    pub time: SimTime,
    /// Its schedule order.
    pub seq: u64,
}

/// One scheduled entry, ordered by its key alone.
struct Entry<E> {
    key: EventKey,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

/// A deterministic future-event list.
///
/// ```
/// use cpo_des::prelude::*;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::new(2.0), "late");
/// q.schedule(SimTime::new(1.0), "early");
/// q.schedule(SimTime::new(1.0), "early-too"); // same stamp: FIFO
/// assert_eq!(q.pop().unwrap().1, "early");
/// assert_eq!(q.pop().unwrap().1, "early-too");
/// assert_eq!(q.pop().unwrap().1, "late");
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    /// Buckets per time unit: a stamp `t` lies in bucket
    /// `⌊t · per_unit⌋`.
    per_unit: f64,
    /// The open bucket's number. Every queued event in a later bucket is
    /// in `ring` or `overflow`, every other one in `open` or `late`.
    open_bucket: u64,
    /// The open bucket's entries as sorted when it opened, latest first.
    open: Vec<Entry<E>>,
    /// Entries due in or before the open bucket, scheduled after it
    /// opened.
    late: BinaryHeap<Reverse<Entry<E>>>,
    /// `ring[i]` holds bucket `open_bucket + 1 + i`, unsorted.
    ring: VecDeque<Vec<Entry<E>>>,
    /// The last bucket the ring may hold until it drains.
    ring_end: u64,
    /// Entries in buckets past `ring_end`, unsorted.
    overflow: Vec<Entry<E>>,
    len: usize,
    seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at the epoch, for events spaced on the order of one
    /// time unit: it takes one unit as its window.
    pub fn new() -> Self {
        Self::for_window(1.0)
    }

    /// An empty queue whose buckets cut `window` time units into
    /// [`BUCKETS_PER_WINDOW`].
    pub fn for_window(window: f64) -> Self {
        Self::with_bucket_width(window / BUCKETS_PER_WINDOW)
    }

    /// An empty queue with buckets `width` time units wide. Any width
    /// gives the same order; it only sets the cost.
    ///
    /// # Panics
    /// When `width` is not positive or too small to invert.
    pub fn with_bucket_width(width: f64) -> Self {
        let per_unit = width.recip();
        assert!(
            width > 0.0 && per_unit.is_finite(),
            "invalid bucket width: {width}"
        );
        Self {
            per_unit,
            open_bucket: 0,
            open: Vec::new(),
            late: BinaryHeap::new(),
            ring: VecDeque::new(),
            ring_end: RING_BUCKETS as u64,
            overflow: Vec::new(),
            len: 0,
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current clock — the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// When `at` lies before the current clock — the past is immutable.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let key = self.reserve(at);
        let entry = Entry { key, event };
        let bucket = bucket_of(at, self.per_unit);
        self.len += 1;
        if bucket <= self.open_bucket {
            self.late.push(Reverse(entry));
            return;
        }
        if bucket <= self.ring_end {
            self.push_later((bucket - self.open_bucket - 1) as usize, entry);
        } else {
            self.overflow.push(entry);
        }
        if self.open.is_empty() && self.late.is_empty() {
            self.open_next();
        }
    }

    /// Adds `entry` to ring bucket `i`, growing the ring to reach it.
    fn push_later(&mut self, i: usize, entry: Entry<E>) {
        if i >= self.ring.len() {
            self.ring.resize_with(i + 1, Vec::new);
        }
        self.ring[i].push(entry);
    }

    /// Takes the next sequence number for an event at `at` that the
    /// caller keeps outside the queue: it ranks against queued events
    /// exactly as if it had been scheduled here.
    ///
    /// # Panics
    /// When `at` lies before the current clock.
    pub fn reserve(&mut self, at: SimTime) -> EventKey {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        EventKey { time: at, seq }
    }

    /// The key of the next queued event without popping it.
    pub fn peek_key(&self) -> Option<EventKey> {
        let open = self.open.last().map(|e| e.key);
        let late = self.late.peek().map(|Reverse(e)| e.key);
        match (open, late) {
            (Some(o), Some(l)) => Some(o.min(l)),
            (o, l) => o.or(l),
        }
    }

    /// Advances the clock to a [`reserve`](Self::reserve)d event the
    /// caller is handling now, as [`pop`](Self::pop) does for a queued
    /// one. The caller handles it only while its key precedes
    /// [`peek_key`](Self::peek_key).
    pub fn advance(&mut self, key: EventKey) {
        debug_assert!(key.time >= self.now, "the clock never runs back");
        debug_assert!(
            self.peek_key().is_none_or(|head| key < head),
            "a kept event is handled only while it precedes the queue head"
        );
        self.now = key.time;
    }

    /// Pops the earliest event (FIFO among ties) and advances the clock
    /// to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let from_late = match (self.open.last(), self.late.peek()) {
            (Some(o), Some(Reverse(l))) => l.key < o.key,
            (open, _) => open.is_none(),
        };
        let entry = if from_late {
            self.late.pop().map(|Reverse(e)| e)
        } else {
            self.open.pop()
        }?;
        self.len -= 1;
        self.now = entry.key.time;
        if self.open.is_empty() && self.late.is_empty() && self.len > 0 {
            self.open_next();
        }
        Some((entry.key.time, entry.event))
    }

    /// Opens the next bucket that holds events, once the open bucket and
    /// the side heap have drained. The ring's front buckets open in turn;
    /// once the ring is empty the overflow is redistributed over a ring
    /// starting at its earliest bucket.
    fn open_next(&mut self) {
        debug_assert!(self.open.is_empty() && self.late.is_empty() && self.len > 0);
        loop {
            let Some(bucket) = self.ring.pop_front() else {
                self.rebase();
                continue;
            };
            self.open_bucket += 1;
            if !bucket.is_empty() {
                self.open = bucket;
                self.open.sort_unstable_by_key(|e| Reverse(e.key));
                return;
            }
        }
    }

    /// Moves the ring to start at the overflow's earliest bucket and
    /// redistributes the overflow entries it now covers.
    fn rebase(&mut self) {
        let per_unit = self.per_unit;
        let first = self
            .overflow
            .iter()
            .map(|e| bucket_of(e.key.time, per_unit))
            .min()
            .expect("pending events are in the overflow once the ring drains");
        // Overflow buckets lie past `ring_end`, so `first` is at least 1.
        self.open_bucket = first - 1;
        self.ring_end = self.open_bucket.saturating_add(RING_BUCKETS as u64);
        let ring_end = self.ring_end;
        let mut overflow = std::mem::take(&mut self.overflow);
        for entry in overflow.extract_if(.., |e| bucket_of(e.key.time, per_unit) <= ring_end) {
            let bucket = bucket_of(entry.key.time, per_unit);
            self.push_later((bucket - self.open_bucket - 1) as usize, entry);
        }
        self.overflow = overflow;
    }
}

/// The bucket `time` lies in at `per_unit` buckets per time unit.
/// Monotone in `time`; the cast saturates, so stamps past `u64::MAX`
/// buckets share the last one.
fn bucket_of(time: SimTime, per_unit: f64) -> u64 {
    (time.as_f64() * per_unit) as u64
}

/// Synthetic schedule/pop churn for throughput measurement: keeps a
/// steady population of `pending` events in flight and processes `n` of
/// them, rescheduling a successor for each pop at a pseudo-random offset
/// in `(0, 1]` (SplitMix64 — no external RNG in the hot loop) on a
/// [`EventQueue::new`] queue, whose window is one time unit. Returns the
/// number of events processed; used by `bench_micro`'s
/// `des.synthetic_churn` cell and the release throughput gate (≥ 1M
/// events/sec).
pub fn synthetic_churn(n: usize, pending: usize, seed: u64) -> u64 {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    // Offsets in (0, 1]: 21 random bits are plenty for a spread of stamps
    // and keep every value exactly representable.
    let mut offset = move || ((next() >> 43) + 1) as f64 * (1.0 / (1u64 << 21) as f64);

    let mut q: EventQueue<u32> = EventQueue::new();
    for i in 0..pending {
        let at = SimTime::new(offset());
        q.schedule(at, i as u32);
    }
    let mut processed = 0u64;
    while processed < n as u64 {
        let (now, id) = q.pop().expect("population never drains early");
        q.schedule(now + offset(), id);
        processed += 1;
    }
    processed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_timestamp_order() {
        let mut q = EventQueue::new();
        for &t in &[5.0, 1.0, 3.0, 2.0, 4.0] {
            q.schedule(SimTime::new(t), t as u32);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::new(1.0);
        for i in 0..100u32 {
            q.schedule(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::new(2.0), ());
        q.schedule(SimTime::new(7.0), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::new(2.0));
        q.schedule(q.now() + 1.0, ());
        assert_eq!(q.peek_key().map(|k| k.time), Some(SimTime::new(3.0)));
    }

    #[test]
    fn a_reserved_key_ranks_like_a_scheduled_event() {
        let mut q = EventQueue::new();
        let t = SimTime::new(1.0);
        q.schedule(t, "queued-before");
        let kept = q.reserve(t);
        q.schedule(t, "queued-after");
        let head = q.peek_key().unwrap();
        assert!(head < kept, "FIFO: the earlier schedule goes first");
        assert_eq!(q.pop().unwrap().1, "queued-before");
        assert!(kept < q.peek_key().unwrap());
        q.advance(kept);
        assert_eq!(q.now(), t);
        assert_eq!(q.pop().unwrap().1, "queued-after");
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::new(5.0), ());
        q.pop();
        q.schedule(SimTime::new(4.0), ());
    }

    #[test]
    fn a_far_future_event_overflows_instead_of_growing_the_ring() {
        let mut q = EventQueue::with_bucket_width(1e-3);
        q.schedule(SimTime::ZERO, "now");
        q.schedule(SimTime::new(1e9), "far");
        assert!(q.ring.len() <= RING_BUCKETS);
        assert_eq!(q.overflow.len(), 1, "1e12 buckets out is past the ring");
        assert_eq!(q.pop(), Some((SimTime::ZERO, "now")));
        assert!(q.ring.len() <= RING_BUCKETS);
        assert_eq!(q.pop(), Some((SimTime::new(1e9), "far")));
        assert!(q.ring.len() <= RING_BUCKETS);
        assert!(q.pop().is_none());
    }

    #[test]
    fn the_ring_never_grows_past_its_cap() {
        // Stamps one bucket apart, spanning three rings' worth of buckets:
        // the ring fills to its cap, the rest overflows and is rebased
        // twice.
        let mut q = EventQueue::with_bucket_width(1.0);
        let span = 3 * RING_BUCKETS as u32;
        for t in 0..span {
            q.schedule(SimTime::new(f64::from(t) + 0.5), t);
            assert!(q.ring.len() <= RING_BUCKETS);
        }
        for t in 0..span {
            assert_eq!(q.pop().map(|(_, e)| e), Some(t));
            assert!(q.ring.len() <= RING_BUCKETS);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn an_event_before_the_open_bucket_pops_first() {
        let mut q = EventQueue::with_bucket_width(1.0);
        q.schedule(SimTime::new(1.5), 'a');
        q.schedule(SimTime::new(9.5), 'c');
        assert_eq!(q.pop(), Some((SimTime::new(1.5), 'a')));
        // The head moved to bucket 9; a schedule at 3 lands before it.
        q.schedule(SimTime::new(3.0), 'b');
        assert_eq!(q.peek_key().map(|k| k.time), Some(SimTime::new(3.0)));
        assert_eq!(q.pop(), Some((SimTime::new(3.0), 'b')));
        assert_eq!(q.pop(), Some((SimTime::new(9.5), 'c')));
    }

    #[test]
    #[should_panic(expected = "invalid bucket width")]
    fn a_zero_bucket_width_panics() {
        EventQueue::<()>::with_bucket_width(0.0);
    }

    #[test]
    fn synthetic_churn_processes_exactly_n() {
        assert_eq!(synthetic_churn(10_000, 256, 1), 10_000);
        // Deterministic per seed (the count trivially is; run twice to
        // exercise the path).
        assert_eq!(synthetic_churn(10_000, 256, 1), 10_000);
    }
}
