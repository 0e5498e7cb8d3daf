//! Clone isolation of [`Infrastructure`]: a clone shares the static
//! per-server table with its original but owns its capacity matrices, so
//! after ANY sequence of `adjust_capacity`/`set_capacity` calls on either
//! side, the other side's capacity and effective rows are untouched and
//! both still read the same static parameters.

use cpo_model::attr::AttrSet;
use cpo_model::prelude::*;
use proptest::prelude::*;

fn fleet() -> Infrastructure {
    let big = ServerProfile::commodity(3);
    let mut small = ServerProfile::commodity(3);
    small.capacity = vec![8.0, 16_384.0, 256.0];
    small.factor = vec![0.75, 0.8, 0.95];
    Infrastructure::new(
        AttrSet::standard(),
        vec![
            ("dc0".into(), big.build_many(3)),
            ("dc1".into(), small.build_many(2)),
        ],
    )
}

/// Every capacity and effective cell, as bits.
fn rows(infra: &Infrastructure) -> Vec<u64> {
    infra
        .server_ids()
        .flat_map(|j| {
            infra
                .capacity_row(j)
                .iter()
                .chain(infra.effective_row(j))
                .map(|x| x.to_bits())
                .collect::<Vec<_>>()
        })
        .collect()
}

/// One mutation: (side 0 = original / 1 = clone, 0 = adjust / 1 = set,
/// server, per-attribute values).
type Op = (u8, u8, usize, f64, f64, f64);

fn op() -> impl Strategy<Value = Op> {
    (
        0u8..2,
        0u8..2,
        0usize..5,
        -40.0f64..40.0,
        -40_000.0f64..40_000.0,
        -400.0f64..400.0,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn mutating_one_side_never_moves_the_other(ops in collection::vec(op(), 1..40)) {
        let mut original = fleet();
        let mut clone = original.clone();
        let statics = original.servers().to_vec();
        for (side, kind, j, c, m, d) in ops {
            let (target, other) = if side == 0 {
                (&mut original, &clone)
            } else {
                (&mut clone, &original)
            };
            let other_before = rows(other);
            let j = ServerId(j);
            if kind == 0 {
                target.adjust_capacity(j, &[c, m, d]);
            } else {
                target.set_capacity(j, &[c, m, d]);
            }
            prop_assert_eq!(rows(other), other_before);
            // The target's effective row follows its own live capacity.
            let factor = &target.server(j).factor;
            for (l, (&cap, &eff)) in target
                .capacity_row(j)
                .iter()
                .zip(target.effective_row(j))
                .enumerate()
            {
                prop_assert!(cap >= 0.0);
                prop_assert_eq!(eff.to_bits(), (cap * factor[l]).to_bits());
            }
        }
        prop_assert!(std::ptr::eq(original.servers(), clone.servers()), "statics shared");
        prop_assert_eq!(original.servers(), statics.as_slice());
        prop_assert_eq!(clone.servers(), statics.as_slice());
    }

    #[test]
    fn residual_view_starts_at_effective_capacity(ops in collection::vec(op(), 0..20)) {
        let mut infra = fleet();
        for (_, kind, j, c, m, d) in ops {
            if kind == 0 {
                infra.adjust_capacity(ServerId(j), &[c, m, d]);
            } else {
                infra.set_capacity(ServerId(j), &[c, m, d]);
            }
        }
        let residual = infra.residual_view();
        for j in infra.server_ids() {
            prop_assert_eq!(residual.capacity_row(j), infra.effective_row(j));
            prop_assert_eq!(residual.effective_row(j), infra.effective_row(j));
            let (r, s) = (residual.server(j), infra.server(j));
            prop_assert!(r.factor.iter().all(|&f| f == 1.0));
            prop_assert_eq!((r.opex, r.usage_cost), (s.opex, s.usage_cost));
            prop_assert_eq!(&r.max_load, &s.max_load);
            prop_assert_eq!(&r.max_qos, &s.max_qos);
            prop_assert_eq!(residual.datacenter_of(j), infra.datacenter_of(j));
        }
    }
}
