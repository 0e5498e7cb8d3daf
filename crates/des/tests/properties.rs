//! Property tests for the kernel's determinism guarantees.

use cpo_des::prelude::*;
use proptest::collection::vec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary interleavings of a few distinct timestamps pop in
    /// timestamp order, FIFO among equal stamps — i.e. exactly a stable
    /// sort of the insertion sequence by time.
    #[test]
    fn same_timestamp_events_pop_fifo(stamps in vec(0u8..5, 1..120)) {
        let mut q = EventQueue::new();
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
