//! `TenantTable` against a `HashMap` model: random sequences of minting,
//! inserts (below, inside and far beyond the held span), removes and
//! lookups (any `u64` id) must agree on every value returned, and the
//! table must hold exactly the slots from its lowest stored id to its
//! highest.

use cpo_platform::tenant::{TenantId, TenantTable};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn table_matches_a_hash_map(ops in vec((0u8..6, 0u64..u64::MAX), 1..300)) {
        let mut table = TenantTable::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        // Ids minted so far: 0..minted.
        let mut minted = 0u64;
        for (step, &(kind, r)) in ops.iter().enumerate() {
            let value = step as u64;
            match kind {
                0 => minted += 1 + r % 8,
                // Insert a minted id, mostly a recent one.
                1 | 2 => {
                    let id = minted.saturating_sub(1 + r % 16);
                    prop_assert_eq!(
                        table.insert(TenantId(id), value),
                        model.insert(id, value)
                    );
                }
                // Remove a stored id, or any minted one.
                3 => {
                    let mut live: Vec<u64> = model.keys().copied().collect();
                    live.sort_unstable();
                    let id = if live.is_empty() || r % 4 == 0 {
                        r % (minted + 1)
                    } else {
                        live[(r % live.len() as u64) as usize]
                    };
                    prop_assert_eq!(table.remove(TenantId(id)), model.remove(&id));
                }
                // Insert far beyond the stored ids and the minted ones.
                4 => {
                    let id = minted + 1_000 + r % 4_000;
                    minted = id + 1;
                    prop_assert_eq!(
                        table.insert(TenantId(id), value),
                        model.insert(id, value)
                    );
                }
                // Look up any id at all.
                _ => {
                    for id in [r, r % (minted + 2), u64::MAX] {
                        prop_assert_eq!(table.get(TenantId(id)), model.get(&id));
                    }
                }
            }
            prop_assert_eq!(table.len(), model.len());
            prop_assert_eq!(table.is_empty(), model.is_empty());
            let span = match (model.keys().min(), model.keys().max()) {
                (Some(lo), Some(hi)) => (hi - lo + 1) as usize,
                _ => 0,
            };
            prop_assert_eq!(table.span(), span);
        }
        for (&id, value) in &model {
            prop_assert_eq!(table.get(TenantId(id)), Some(value));
        }
    }
}
