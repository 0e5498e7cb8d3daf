//! Differential property test for the delta evaluator: after ANY sequence
//! of apply / unassign / peek / undo operations on a randomised problem
//! (mixed rule kinds, QoS-sensitive VMs, optional previous allocation),
//! the evaluator's score must be *bit-identical* to the model's full
//! check/evaluate pair, and its maintained state (tracker cells, hosted
//! counts, feasibility flags, faulty set) must match a from-scratch
//! [`DeltaEvaluator::rebuild`].

use cpo_model::attr::AttrSet;
use cpo_model::delta::{DeltaEvaluator, MoveScore};
use cpo_model::prelude::*;
use proptest::prelude::*;

/// Bit patterns of a score: the comparison currency of this suite.
fn bits(s: &MoveScore) -> [u64; 4] {
    let z = s.objectives.as_array();
    [
        s.violation.to_bits(),
        z[0].to_bits(),
        z[1].to_bits(),
        z[2].to_bits(),
    ]
}

/// Strategy: a small rule-rich problem. Roughly half the VMs carry a QoS
/// guarantee (exercising the downtime-penalty cache), migration costs are
/// nonzero, and problems optionally have a partial previous allocation
/// (exercising the moved-set and the -0.0 fold of `migration_cost`).
fn problem_strategy() -> impl Strategy<Value = AllocationProblem<'static>> {
    (2usize..4, 2usize..5, 1u64..10_000, 0u8..2).prop_map(|(m_per_dc, reqs, seed, prev_flag)| {
        let with_prev = prev_flag == 1;
        let profile = ServerProfile::commodity(3);
        let infra = Infrastructure::new(
            AttrSet::standard(),
            vec![
                ("dc0".into(), profile.build_many(m_per_dc)),
                ("dc1".into(), profile.build_many(m_per_dc)),
            ],
        );
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as usize
        };
        let kinds = [
            AffinityKind::SameServer,
            AffinityKind::SameDatacenter,
            AffinityKind::DifferentServer,
            AffinityKind::DifferentDatacenter,
        ];
        let mut batch = RequestBatch::new();
        for _ in 0..reqs {
            let n_vms = 1 + next() % 3;
            let base = batch.vm_count();
            let mut vms = Vec::new();
            for _ in 0..n_vms {
                let cpu = 1.0 + (next() % 8) as f64;
                let mut spec = vm_spec(cpu, cpu * 512.0, cpu * 10.0);
                if next() % 2 == 0 {
                    spec.qos_guarantee = 0.9 + (next() % 10) as f64 / 100.0;
                    spec.downtime_cost = (next() % 9) as f64;
                }
                spec.migration_cost = (next() % 5) as f64;
                vms.push(spec);
            }
            let mut rules = Vec::new();
            if n_vms >= 2 && next() % 2 == 0 {
                rules.push(AffinityRule::new(
                    kinds[next() % kinds.len()],
                    vec![VmId(base), VmId(base + 1)],
                ));
            }
            batch.push_request(vms, rules);
        }
        let n = batch.vm_count();
        let m = 2 * m_per_dc;
        let previous = with_prev.then(|| {
            let mut prev = Assignment::unassigned(n);
            for k in 0..n {
                if next() % 4 != 0 {
                    prev.assign(VmId(k), ServerId(next() % m));
                }
            }
            prev
        });
        AllocationProblem::new(infra, batch, previous)
    })
}

/// Strategy: a problem, a (possibly partial) starting assignment encoded
/// as genes where `m` means unassigned, and an operation walk. Walk ops:
/// 0 = apply, 1 = unassign, 2 = peek-then-apply-then-undo, 3+ = undo.
#[allow(clippy::type_complexity)]
fn scenario() -> impl Strategy<
    Value = (
        AllocationProblem<'static>,
        Vec<usize>,
        Vec<(u8, usize, usize)>,
    ),
> {
    problem_strategy().prop_flat_map(|p| {
        let (m, n) = (p.m(), p.n());
        (
            Just(p),
            proptest::collection::vec(0usize..=m, n),
            proptest::collection::vec((0u8..4, 0usize..n, 0usize..m), 0..40),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The delta path is a bit-exact replacement for the full recompute:
    /// after any operation walk, score == oracle and state == rebuild.
    #[test]
    fn delta_walk_is_bit_identical_to_full_recompute(
        (p, genes, walk) in scenario()
    ) {
        let m = p.m();
        let mut start = Assignment::unassigned(p.n());
        for (k, &g) in genes.iter().enumerate() {
            if g < m {
                start.assign(VmId(k), ServerId(g));
            }
        }
        let mut ev = DeltaEvaluator::new(&p, start);

        for &(op, k, j) in &walk {
            let (k, j) = (VmId(k), ServerId(j));
            match op {
                0 => {
                    ev.apply(k, j);
                }
                1 => {
                    ev.unassign_vm(k);
                }
                2 => {
                    // peek must predict the post-apply score exactly and
                    // leave no trace after the undo.
                    let before = ev.score();
                    let peek = ev.peek_relocate(k, j);
                    prop_assert_eq!(bits(&before), bits(&ev.score()), "peek disturbed state");
                    ev.apply(k, j);
                    prop_assert_eq!(bits(&peek), bits(&ev.score()), "peek != apply");
                    prop_assert!(ev.undo());
                    prop_assert_eq!(bits(&before), bits(&ev.score()), "undo did not restore");
                }
                _ => {
                    ev.undo();
                }
            }
        }

        // Oracle: the model's full check/evaluate pair on the final state.
        let a = ev.assignment().clone();
        let tracker = p.tracker(&a);
        let z = p.evaluate_with_tracker(&a, &tracker);
        let report = p.check_with_tracker(&a, &tracker);
        let score = ev.score();
        prop_assert_eq!(
            score.violation.to_bits(),
            report.degree().to_bits(),
            "violation bits: delta {} vs full {}",
            score.violation,
            report.degree()
        );
        let full = z.as_array();
        for (i, (d, f)) in score.objectives.as_array().iter().zip(full.iter()).enumerate() {
            prop_assert_eq!(d.to_bits(), f.to_bits(), "objective {}: delta {} vs full {}", i, d, f);
        }

        // State: bit-equal to a from-scratch rebuild.
        let rebuilt = ev.rebuild();
        prop_assert_eq!(bits(&score), bits(&rebuilt.score()));
        for j in p.infra().server_ids() {
            prop_assert_eq!(ev.tracker().hosted(j), rebuilt.tracker().hosted(j));
            for l in p.infra().attrs().ids() {
                prop_assert_eq!(
                    ev.tracker().used(j, l).to_bits(),
                    rebuilt.tracker().used(j, l).to_bits(),
                    "tracker cell ({:?}, {:?})", j, l
                );
            }
        }
        prop_assert_eq!(ev.is_feasible(), rebuilt.is_feasible());
        prop_assert_eq!(ev.faulty_vms(), rebuilt.faulty_vms());
        prop_assert_eq!(ev.is_feasible(), p.is_feasible(ev.assignment()));
    }
}

/// Strategy: a problem, a (possibly partial) starting assignment (gene
/// `m` = unassigned), a group of distinct VMs and a target (`m` = evict).
#[allow(clippy::type_complexity)]
fn group_scenario(
) -> impl Strategy<Value = (AllocationProblem<'static>, Vec<usize>, Vec<usize>, usize)> {
    problem_strategy().prop_flat_map(|p| {
        let (m, n) = (p.m(), p.n());
        (
            Just(p),
            proptest::collection::vec(0usize..=m, n),
            proptest::collection::vec(0usize..n, 1..6),
            0usize..=m,
        )
    })
}

/// Every maintained fact the public API exposes, plus the score bits, as
/// one word list: each VM's server (`u64::MAX` = unplaced), each server's
/// hosted count, occupants and tracker cells, the overloaded servers, the
/// faulty VMs, feasibility and the score.
fn observed(ev: &DeltaEvaluator<'_>) -> Vec<u64> {
    let p = ev.problem();
    let a = ev.assignment();
    let mut words: Vec<u64> = (0..a.len())
        .map(|k| a.server_of(VmId(k)).map_or(u64::MAX, |j| j.index() as u64))
        .collect();
    for j in p.infra().server_ids() {
        words.push(ev.tracker().hosted(j) as u64);
        words.extend(ev.occupants(j).iter().map(|k| k.index() as u64));
        for l in p.infra().attrs().ids() {
            words.push(ev.tracker().used(j, l).to_bits());
        }
    }
    words.extend(ev.overloaded_server_ids().iter().map(|j| j.index() as u64));
    words.extend(ev.faulty_vms().iter().map(|k| k.index() as u64));
    words.push(u64::from(ev.is_feasible()));
    words.extend(bits(&ev.score()));
    words
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `apply_group` equals moving the members one by one with `apply` /
    /// `unassign_vm` and a from-scratch rebuild, and undoing its history
    /// restores the starting state.
    #[test]
    fn group_move_is_bit_identical_to_sequential_moves(
        (p, genes, group, target) in group_scenario()
    ) {
        let m = p.m();
        let mut start = Assignment::unassigned(p.n());
        for (k, &g) in genes.iter().enumerate() {
            if g < m {
                start.assign(VmId(k), ServerId(g));
            }
        }
        // Distinct members, in the drawn (unsorted) order.
        let mut seen = vec![false; p.n()];
        let group: Vec<VmId> = group
            .into_iter()
            .filter(|&k| !std::mem::replace(&mut seen[k], true))
            .map(VmId)
            .collect();
        let to = (target < m).then_some(ServerId(target));

        let mut batched = DeltaEvaluator::new(&p, start.clone());
        let before = observed(&batched);
        batched.apply_group(&group, to);
        prop_assert_eq!(batched.history_len(), group.len());

        let mut sequential = DeltaEvaluator::new(&p, start);
        for &k in &group {
            match to {
                Some(j) => sequential.apply(k, j),
                None => sequential.unassign_vm(k),
            }
        }
        let after = observed(&batched);
        prop_assert_eq!(&after, &observed(&sequential));
        prop_assert_eq!(&after, &observed(&batched.rebuild()));

        while batched.undo() {}
        prop_assert_eq!(&observed(&batched), &before);
    }
}
