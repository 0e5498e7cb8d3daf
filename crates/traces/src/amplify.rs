//! The deterministic synthetic trace amplifier.
//!
//! Committed sample traces are a few dozen rows; the macro-benchmark
//! needs millions of arrivals. [`Amplifier`] scales a seed trace by
//! interleaving `factor` **replicas** of it on the same timeline, each
//! replica's events jittered in time and demand so the amplified stream
//! is not a lock-step chorus:
//!
//! * the seed trace is materialised once (it is small by construction);
//!   the amplified stream itself is lazy — a `factor`-way merge over
//!   per-replica cursors, O(factor) memory regardless of output length;
//! * jitter is **hash-based**, a pure function of `(seed, replica,
//!   index)` (SplitMix64), never a sequential RNG — so the stream is
//!   byte-identical for a given seed no matter how it is consumed, and
//!   replicas can be cursored independently;
//! * each replica's timestamps are clamped monotone after jitter, and
//!   the merge breaks timestamp ties by replica id, so the output is a
//!   deterministic, globally non-decreasing event stream.
//!
//! Replica 0 carries zero jitter: the original trace is always embedded
//! verbatim in the amplified stream.

use crate::event::{TraceError, TraceEvent};
use crate::reader::DatasetReader;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Amplification parameters.
#[derive(Clone, Copy, Debug)]
pub struct AmplifyConfig {
    /// Number of interleaved replicas (≥ 1); output length is
    /// `factor × seed-trace length`.
    pub factor: usize,
    /// Maximum absolute timestamp jitter in seconds (uniform in
    /// `[-time_jitter, +time_jitter]`).
    pub time_jitter: f64,
    /// Maximum relative demand jitter (each attribute scales by a factor
    /// in `[1 - demand_jitter, 1 + demand_jitter]`).
    pub demand_jitter: f64,
    /// Jitter seed — the whole stream is a pure function of it.
    pub seed: u64,
}

impl Default for AmplifyConfig {
    fn default() -> Self {
        Self {
            factor: 1,
            time_jitter: 0.0,
            demand_jitter: 0.0,
            seed: 0,
        }
    }
}

/// SplitMix64 — the repo's standard allocation-free hash chain.
pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[-1, 1]` from a hash of `(seed, replica, index,
/// lane)` — pure, order-independent.
fn unit_jitter(seed: u64, replica: u64, index: u64, lane: u64) -> f64 {
    let h = splitmix(
        seed ^ replica.wrapping_mul(0x2545_F491_4F6C_DD1D)
            ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ lane.wrapping_mul(0xD6E8_FEB8_6659_FD93),
    );
    // 53 mantissa-exact bits → [0, 1) → [-1, 1].
    (h >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0
}

/// One replica's next pending event in the merge heap, ordered by
/// `(at, replica)` — the replica id breaks ties deterministically.
struct Cursor {
    at: f64,
    replica: u32,
    pos: usize,
    event: TraceEvent,
}

impl PartialEq for Cursor {
    fn eq(&self, other: &Self) -> bool {
        self.at.total_cmp(&other.at) == Ordering::Equal && self.replica == other.replica
    }
}
impl Eq for Cursor {}
impl PartialOrd for Cursor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Cursor {
    fn cmp(&self, other: &Self) -> Ordering {
        self.at
            .total_cmp(&other.at)
            .then_with(|| self.replica.cmp(&other.replica))
    }
}

/// Lazily merges `factor` jittered replicas of a materialised seed
/// trace. Implements [`DatasetReader`], so it slots anywhere a plain
/// reader does.
pub struct Amplifier {
    base: Vec<TraceEvent>,
    config: AmplifyConfig,
    heap: BinaryHeap<Reverse<Cursor>>,
    /// Per-replica emitted-time watermark (monotone clamp after jitter).
    watermark: Vec<f64>,
    arrival_span: f64,
    horizon: f64,
}

impl Amplifier {
    /// Drains `inner` into the seed trace and prepares the merge. The
    /// first reader error aborts construction.
    pub fn new<D: DatasetReader>(mut inner: D, config: AmplifyConfig) -> Result<Self, TraceError> {
        assert!(config.factor >= 1, "amplification factor must be >= 1");
        assert!(
            config.time_jitter >= 0.0 && config.demand_jitter >= 0.0,
            "jitter magnitudes must be non-negative"
        );
        assert!(
            config.demand_jitter < 1.0,
            "demand jitter must stay below 1 (demands must stay positive)"
        );
        let mut base = Vec::new();
        while let Some(item) = inner.next_event() {
            base.push(item?);
        }
        let arrival_span = base.iter().fold(0.0f64, |m, e| m.max(e.at));
        let horizon = base.iter().fold(0.0f64, |m, e| m.max(e.at + e.holding));
        let mut amp = Self {
            base,
            config,
            heap: BinaryHeap::with_capacity(config.factor),
            watermark: vec![0.0; config.factor],
            arrival_span,
            horizon,
        };
        for r in 0..config.factor as u32 {
            amp.push_cursor(r, 0);
        }
        Ok(amp)
    }

    /// Events in the seed trace.
    pub fn base_len(&self) -> usize {
        self.base.len()
    }

    /// Total events the amplified stream will emit.
    pub fn len(&self) -> usize {
        self.base.len() * self.config.factor
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }

    /// Latest arrival time in the seed trace (the amplified stream's
    /// arrivals also end within `time_jitter` of this).
    pub fn arrival_span(&self) -> f64 {
        self.arrival_span
    }

    /// Latest departure time (`at + holding`) in the seed trace.
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// Jitters base event `pos` for `replica` and advances the replica
    /// watermark. Replica 0 is the verbatim original.
    fn push_cursor(&mut self, replica: u32, pos: usize) {
        let Some(&base) = self.base.get(pos) else {
            return;
        };
        let mut event = base;
        if replica > 0 {
            let (seed, r, i) = (self.config.seed, u64::from(replica), pos as u64);
            let at = base.at + self.config.time_jitter * unit_jitter(seed, r, i, 0);
            event.at = at.max(0.0);
            let dj = self.config.demand_jitter;
            if dj > 0.0 {
                event.cpu *= 1.0 + dj * unit_jitter(seed, r, i, 1);
                event.ram *= 1.0 + dj * unit_jitter(seed, r, i, 2);
                event.disk *= 1.0 + dj * unit_jitter(seed, r, i, 3);
            }
        }
        // Clamp the replica's stream monotone *before* merging, so the
        // heap always holds final timestamps and the merge output is
        // globally non-decreasing.
        let w = &mut self.watermark[replica as usize];
        event.at = event.at.max(*w);
        *w = event.at;
        event.id = u64::from(replica) * self.base.len() as u64 + pos as u64;
        self.heap.push(Reverse(Cursor {
            at: event.at,
            replica,
            pos,
            event,
        }));
    }
}

impl DatasetReader for Amplifier {
    fn next_event(&mut self) -> Option<Result<TraceEvent, TraceError>> {
        let Reverse(cursor) = self.heap.pop()?;
        self.push_cursor(cursor.replica, cursor.pos + 1);
        Some(Ok(cursor.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::VecReader;

    fn base() -> Vec<TraceEvent> {
        (0..8)
            .map(|i| TraceEvent {
                at: i as f64 * 10.0,
                id: i,
                vm_count: 1,
                cpu: 2.0,
                ram: 2048.0,
                disk: 20.0,
                holding: 35.0,
            })
            .collect()
    }

    fn drain(mut a: Amplifier) -> Vec<TraceEvent> {
        std::iter::from_fn(move || a.next_event())
            .map(Result::unwrap)
            .collect()
    }

    #[test]
    fn factor_one_zero_jitter_is_the_identity() {
        let cfg = AmplifyConfig::default();
        let out = drain(Amplifier::new(VecReader::new(base()), cfg).unwrap());
        assert_eq!(out, base());
    }

    #[test]
    fn output_length_and_span_scale_with_factor() {
        let cfg = AmplifyConfig {
            factor: 25,
            time_jitter: 3.0,
            demand_jitter: 0.2,
            seed: 7,
        };
        let amp = Amplifier::new(VecReader::new(base()), cfg).unwrap();
        assert_eq!(amp.len(), 200);
        assert_eq!(amp.base_len(), 8);
        assert_eq!(amp.arrival_span(), 70.0);
        assert_eq!(amp.horizon(), 105.0);
        let out = drain(amp);
        assert_eq!(out.len(), 200, "every replica event is emitted");
        // Arrivals stay near the seed span: same wall-clock, 25× rate.
        let last = out.last().unwrap().at;
        assert!(last <= 73.0 + 1e-9, "span must not stretch beyond jitter");
    }

    #[test]
    fn stream_is_non_decreasing_with_unique_ids() {
        let cfg = AmplifyConfig {
            factor: 13,
            time_jitter: 25.0, // deliberately larger than the event gap
            demand_jitter: 0.3,
            seed: 42,
        };
        let out = drain(Amplifier::new(VecReader::new(base()), cfg).unwrap());
        let mut ids = std::collections::HashSet::new();
        let mut last = 0.0f64;
        for e in &out {
            assert!(e.at >= last, "timeline regressed: {} < {last}", e.at);
            assert!(e.validate().is_ok());
            assert!(ids.insert(e.id), "duplicate id {}", e.id);
            last = e.at;
        }
    }

    #[test]
    fn same_seed_is_byte_identical() {
        let cfg = AmplifyConfig {
            factor: 9,
            time_jitter: 5.0,
            demand_jitter: 0.25,
            seed: 1234,
        };
        let a = drain(Amplifier::new(VecReader::new(base()), cfg).unwrap());
        let b = drain(Amplifier::new(VecReader::new(base()), cfg).unwrap());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            // Bit-level equality, not approximate: the stream must be
            // byte-identical for the macro-bench determinism gate.
            assert_eq!(x.at.to_bits(), y.at.to_bits());
            assert_eq!(x.cpu.to_bits(), y.cpu.to_bits());
            assert_eq!(x.ram.to_bits(), y.ram.to_bits());
            assert_eq!(x.disk.to_bits(), y.disk.to_bits());
            assert_eq!(x.id, y.id);
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mk = |seed| AmplifyConfig {
            factor: 4,
            time_jitter: 5.0,
            demand_jitter: 0.2,
            seed,
        };
        let a = drain(Amplifier::new(VecReader::new(base()), mk(1)).unwrap());
        let b = drain(Amplifier::new(VecReader::new(base()), mk(2)).unwrap());
        assert!(
            a.iter()
                .zip(&b)
                .any(|(x, y)| x.at != y.at || x.cpu != y.cpu),
            "different seeds must produce different jitter"
        );
    }

    #[test]
    fn replica_zero_embeds_the_original_trace() {
        let cfg = AmplifyConfig {
            factor: 6,
            time_jitter: 4.0,
            demand_jitter: 0.3,
            seed: 99,
        };
        let out = drain(Amplifier::new(VecReader::new(base()), cfg).unwrap());
        let originals: Vec<&TraceEvent> = out.iter().filter(|e| e.id < 8).collect();
        for (orig, seed_event) in originals.iter().zip(base().iter()) {
            assert_eq!(orig.at, seed_event.at);
            assert_eq!(orig.cpu, seed_event.cpu);
        }
    }

    #[test]
    fn reader_errors_abort_construction() {
        struct Failing;
        impl DatasetReader for Failing {
            fn next_event(&mut self) -> Option<Result<TraceEvent, TraceError>> {
                Some(Err(TraceError::Io("boom".into())))
            }
        }
        assert!(Amplifier::new(Failing, AmplifyConfig::default()).is_err());
    }
}
