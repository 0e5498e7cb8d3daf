//! Property-based tests over the model and the repair operators:
//! randomised problems and assignments, with the paper's invariants as
//! properties.

use cpo_iaas::core::prelude::AllocMoeaProblem;
use cpo_iaas::model::attr::AttrSet;
use cpo_iaas::model::delta::DeltaEvaluator;
use cpo_iaas::moea::prelude::MoeaProblem;
use cpo_iaas::prelude::*;
use cpo_iaas::tabu::repair::{repair, repair_on, RepairConfig, ScanOrder};
use proptest::prelude::*;

/// Strategy: a small random problem (infrastructure + batch, no rules).
fn problem_strategy() -> impl Strategy<Value = AllocationProblem<'static>> {
    (2usize..6, 1usize..10, 1u64..1_000).prop_map(|(m, reqs, seed)| {
        let profile = ServerProfile::commodity(3);
        let infra = Infrastructure::new(
            AttrSet::standard(),
            vec![("dc".into(), profile.build_many(m))],
        );
        let mut batch = RequestBatch::new();
        let mut s = seed;
        for _ in 0..reqs {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let cpu = 1.0 + (s >> 33) as f64 % 8.0;
            batch.push_request(vec![vm_spec(cpu, cpu * 1024.0, cpu * 10.0)], vec![]);
        }
        AllocationProblem::new(infra, batch, None)
    })
}

/// Strategy: a problem plus a complete random assignment.
fn problem_and_assignment() -> impl Strategy<Value = (AllocationProblem<'static>, Assignment)> {
    problem_strategy().prop_flat_map(|p| {
        let (m, n) = (p.m(), p.n());
        (Just(p), proptest::collection::vec(0usize..m, n))
            .prop_map(|(p, genes)| (p, Assignment::from_genes(&genes)))
    })
}

/// Strategy: a problem over two datacenters with one rule-carrying pair
/// and a few loose VMs of random size, with or without a running
/// allocation, plus two complete assignments: one to dirty a pooled
/// evaluator with, one to repair on it.
fn pooled_repair_case(
) -> impl Strategy<Value = (AllocationProblem<'static>, Assignment, Assignment)> {
    (1usize..4, 0usize..4, 1usize..6, 1u64..1_000, 0u8..2).prop_flat_map(
        |(m_per_dc, kind_idx, loose, seed, with_previous)| {
            let profile = ServerProfile::commodity(3);
            let infra = Infrastructure::new(
                AttrSet::standard(),
                vec![
                    ("dc0".into(), profile.build_many(m_per_dc)),
                    ("dc1".into(), profile.build_many(m_per_dc)),
                ],
            );
            let kinds = [
                AffinityKind::SameServer,
                AffinityKind::SameDatacenter,
                AffinityKind::DifferentServer,
                AffinityKind::DifferentDatacenter,
            ];
            let mut s = seed;
            let mut next = move || {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                s >> 33
            };
            let mut batch = RequestBatch::new();
            let cpu = 1.0 + (next() % 14) as f64;
            batch.push_request(
                vec![vm_spec(cpu, 1024.0, 10.0); 2],
                vec![AffinityRule::new(kinds[kind_idx], vec![VmId(0), VmId(1)])],
            );
            for _ in 0..loose {
                let cpu = 1.0 + (next() % 20) as f64;
                batch.push_request(vec![vm_spec(cpu, 1024.0, 10.0)], vec![]);
            }
            let m = 2 * m_per_dc;
            let previous = (with_previous == 1).then(|| {
                let genes: Vec<usize> =
                    (0..batch.vm_count()).map(|_| next() as usize % m).collect();
                Assignment::from_genes(&genes)
            });
            let n = batch.vm_count();
            let p = AllocationProblem::new(infra, batch, previous);
            (
                Just(p),
                proptest::collection::vec(0usize..m, n),
                proptest::collection::vec(0usize..m, n),
            )
                .prop_map(|(p, dirt, genes)| {
                    (
                        p,
                        Assignment::from_genes(&dirt),
                        Assignment::from_genes(&genes),
                    )
                })
        },
    )
}

/// Strategy: a problem over two datacenters whose multi-VM requests carry
/// affinity rules, plus a partial assignment (some VMs unplaced) — every
/// way a request can fail acceptance.
fn ruled_problem_and_partial_assignment(
) -> impl Strategy<Value = (AllocationProblem<'static>, Assignment)> {
    let kinds = [
        AffinityKind::SameServer,
        AffinityKind::SameDatacenter,
        AffinityKind::DifferentServer,
        AffinityKind::DifferentDatacenter,
    ];
    (
        1usize..4,
        proptest::collection::vec((1usize..4, 0usize..5, 1.0f64..12.0), 1..8),
    )
        .prop_map(move |(per_dc, shapes)| {
            let profile = ServerProfile::commodity(3);
            let infra = Infrastructure::new(
                AttrSet::standard(),
                vec![
                    ("dc0".into(), profile.build_many(per_dc)),
                    ("dc1".into(), profile.build_many(per_dc)),
                ],
            );
            let mut batch = RequestBatch::new();
            for (vms, kind, cpu) in shapes {
                let first = batch.vm_count();
                let rules = if vms >= 2 && kind < kinds.len() {
                    vec![AffinityRule::new(
                        kinds[kind],
                        vec![VmId(first + vms - 1), VmId(first)],
                    )]
                } else {
                    vec![]
                };
                batch.push_request(vec![vm_spec(cpu, cpu * 1024.0, cpu * 10.0); vms], rules);
            }
            AllocationProblem::new(infra, batch, None)
        })
        .prop_flat_map(|p| {
            let (m, n) = (p.m(), p.n());
            // Server index m stands for "unplaced".
            (Just(p), proptest::collection::vec(0usize..=m, n)).prop_map(move |(p, genes)| {
                let placements = genes
                    .iter()
                    .map(|&j| (j < m).then_some(ServerId(j)))
                    .collect();
                (p, Assignment::from_placements(placements))
            })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `accepted_mask` marks exactly the requests the Fig. 9 predicate
    /// accepts (every VM placed, no overloaded host, every rule held),
    /// and `revenue_of` sums their revenue bit-for-bit in the order the
    /// per-request fold over `accepted_requests` does.
    #[test]
    fn accepted_mask_matches_the_acceptance_predicate(
        (p, a) in ruled_problem_and_partial_assignment()
    ) {
        let overloaded = p.tracker(&a).exceeding_servers(p.infra());
        let reference: Vec<RequestId> = p
            .batch()
            .requests()
            .iter()
            .filter(|req| {
                req.vms
                    .iter()
                    .all(|k| a.server_of(k).is_some_and(|j| !overloaded.contains(&j)))
                    && req.rules.iter().all(|r| r.is_satisfied(&a, p.infra()))
            })
            .map(|req| req.id)
            .collect();
        let mask = p.accepted_mask(&a);
        prop_assert_eq!(mask.len(), p.batch().request_count());
        let marked: Vec<RequestId> = p.batch().request_ids().filter(|r| mask[r.index()]).collect();
        prop_assert_eq!(&marked, &reference);
        prop_assert_eq!(&p.accepted_requests(&a), &reference);

        let folded: f64 = reference
            .iter()
            .flat_map(|&r| p.batch().request(r).vms.iter())
            .map(|k| p.batch().terms(k).revenue)
            .sum();
        prop_assert_eq!(p.revenue_of(&mask).to_bits(), folded.to_bits());
        prop_assert_eq!(p.gross_revenue(&a).to_bits(), folded.to_bits());
        prop_assert_eq!(p.rejection_rate_of(&mask).to_bits(), p.rejection_rate(&a).to_bits());
    }

    /// Violation degree is zero exactly when the assignment is feasible.
    #[test]
    fn degree_zero_iff_feasible((p, a) in problem_and_assignment()) {
        let report = p.check(&a);
        prop_assert_eq!(report.degree() == 0.0, p.is_feasible(&a));
        prop_assert_eq!(report.count() == 0, p.is_feasible(&a));
    }

    /// The incremental load tracker agrees with a from-scratch rebuild
    /// after any sequence of assigns.
    #[test]
    fn incremental_tracker_matches_rebuild((p, a) in problem_and_assignment()) {
        let mut inc = LoadTracker::new(p.m(), p.h());
        for (k, j) in a.iter_assigned() {
            inc.add(k, j, p.batch());
        }
        let rebuilt = p.tracker(&a);
        for j in p.infra().server_ids() {
            for l in p.infra().attrs().ids() {
                prop_assert!((inc.used(j, l) - rebuilt.used(j, l)).abs() < 1e-9);
            }
            prop_assert_eq!(inc.hosted(j), rebuilt.hosted(j));
        }
    }

    /// Objectives are finite and non-negative for any complete assignment.
    #[test]
    fn objectives_are_finite_and_nonnegative((p, a) in problem_and_assignment()) {
        let z = p.evaluate(&a);
        for v in z.as_array() {
            prop_assert!(v.is_finite());
            prop_assert!(v >= 0.0);
        }
        prop_assert!(z.total() >= z.usage_opex);
    }

    /// The X_ijk tensor view holds exactly one true cell per assigned VM.
    #[test]
    fn xijk_is_a_function_of_vms((p, a) in problem_and_assignment()) {
        for k in p.batch().vm_ids() {
            let count = p
                .infra()
                .datacenter_ids()
                .flat_map(|i| p.infra().server_ids().map(move |j| (i, j)))
                .filter(|&(i, j)| a.xijk(i, j, k, p.infra()))
                .count();
            prop_assert_eq!(count, usize::from(a.server_of(k).is_some()));
        }
    }

    /// Repair never breaks a feasible assignment and never increases the
    /// violation degree of an infeasible one.
    #[test]
    fn repair_is_monotone((p, mut a) in problem_and_assignment()) {
        let before = p.check(&a).degree();
        let _ = repair(&p, &mut a, &RepairConfig::default());
        let after = p.check(&a).degree();
        prop_assert!(after <= before + 1e-9, "repair worsened {before} -> {after}");
    }

    /// The pooled repair is the fresh repair: on an evaluator already
    /// dirtied by a repair of another assignment, `repair_on` yields the
    /// same assignment and outcome as `repair` on a fresh one, and the
    /// evaluator's final score is the engine's evaluation of the
    /// re-encoded genome, bit for bit.
    #[test]
    fn pooled_repair_matches_fresh_repair((p, dirt, a) in pooled_repair_case()) {
        let adapter = AllocMoeaProblem::new(&p);
        for scan in [ScanOrder::BestCost, ScanOrder::NearestFirst, ScanOrder::FirstFit] {
            let config = RepairConfig { scan, ..RepairConfig::default() };
            let mut fresh = a.clone();
            let fresh_outcome = repair(&p, &mut fresh, &config);

            let mut ev = DeltaEvaluator::new(&p, dirt.clone());
            let _ = repair_on(&mut ev, &config);
            ev.reset(a.clone());
            let pooled_outcome = repair_on(&mut ev, &config);
            prop_assert_eq!(pooled_outcome, fresh_outcome);
            prop_assert_eq!(ev.assignment(), &fresh);

            let want = adapter.evaluate(&adapter.codec().encode(&fresh));
            let got = ev.score();
            prop_assert_eq!(got.violation.to_bits(), want.violation.to_bits());
            let got_bits: Vec<u64> = got.objectives.as_array().iter().map(|o| o.to_bits()).collect();
            let want_bits: Vec<u64> = want.objectives.iter().map(|o| o.to_bits()).collect();
            prop_assert_eq!(got_bits, want_bits);
        }
    }

    /// Migration cost is zero against itself and symmetric in count.
    #[test]
    fn migrations_are_a_metric_like_diff((p, a) in problem_and_assignment()) {
        prop_assert_eq!(a.migrations_from(&a).len(), 0);
        let mut b = a.clone();
        if p.n() > 0 && p.m() > 1 {
            // Move the first assigned VM somewhere else.
            if let Some((k, j)) = a.iter_assigned().next() {
                let other = ServerId((j.index() + 1) % p.m());
                b.assign(k, other);
                prop_assert_eq!(b.migrations_from(&a).len(), 1);
                prop_assert_eq!(a.migrations_from(&b).len(), 1);
            }
        }
    }

    /// Rejection rate is consistent with accepted_requests.
    #[test]
    fn rejection_rate_matches_acceptance((p, a) in problem_and_assignment()) {
        let accepted = p.accepted_requests(&a).len();
        let total = p.batch().request_count();
        let expected = (total - accepted) as f64 / total as f64;
        prop_assert!((p.rejection_rate(&a) - expected).abs() < 1e-12);
    }

    /// Consolidating two VMs onto one server never increases usage+opex
    /// versus hosting them on two servers with equal parameters.
    #[test]
    fn consolidation_never_costs_more(seed in 0u64..500) {
        let profile = ServerProfile::commodity(3);
        let infra = Infrastructure::new(
            AttrSet::standard(),
            vec![("dc".into(), profile.build_many(2))],
        );
        let mut batch = RequestBatch::new();
        let cpu = 1.0 + (seed % 10) as f64;
        batch.push_request(vec![vm_spec(cpu, 1024.0, 10.0); 2], vec![]);
        let p = AllocationProblem::new(infra, batch, None);
        let packed = Assignment::from_genes(&[0, 0]);
        let spread = Assignment::from_genes(&[0, 1]);
        let zp = p.evaluate(&packed);
        let zs = p.evaluate(&spread);
        prop_assert!(zp.usage_opex <= zs.usage_opex);
    }
}

/// Strategy: a rule-rich problem plus a complete random assignment.
fn ruled_problem_and_assignment() -> impl Strategy<Value = (AllocationProblem<'static>, Assignment)>
{
    use cpo_iaas::model::prelude::{AffinityKind, AffinityRule};
    (2usize..5, 0usize..4, 1u64..1_000).prop_flat_map(|(m_per_dc, kind_idx, seed)| {
        let profile = ServerProfile::commodity(3);
        let infra = Infrastructure::new(
            AttrSet::standard(),
            vec![
                ("dc0".into(), profile.build_many(m_per_dc)),
                ("dc1".into(), profile.build_many(m_per_dc)),
            ],
        );
        let kinds = [
            AffinityKind::SameServer,
            AffinityKind::SameDatacenter,
            AffinityKind::DifferentServer,
            AffinityKind::DifferentDatacenter,
        ];
        let mut batch = RequestBatch::new();
        let cpu = 1.0 + (seed % 12) as f64;
        batch.push_request(
            vec![vm_spec(cpu, 1024.0, 10.0); 2],
            vec![AffinityRule::new(kinds[kind_idx], vec![VmId(0), VmId(1)])],
        );
        batch.push_request(vec![vm_spec(cpu, 1024.0, 10.0)], vec![]);
        let p = AllocationProblem::new(infra, batch, None);
        let m = p.m();
        (Just(p), proptest::collection::vec(0usize..m, 3))
            .prop_map(|(p, genes)| (p, Assignment::from_genes(&genes)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The explicit ILP of Section III and the executable model agree on
    /// feasibility and on the linear (usage+opex) objective for every
    /// assignment, across all four rule kinds.
    #[test]
    fn ilp_and_model_agree((p, a) in ruled_problem_and_assignment()) {
        use cpo_iaas::model::ilp::IlpFormulation;
        let ilp = IlpFormulation::from_problem(&p);
        let solution = ilp.solution_of(&a);
        prop_assert_eq!(ilp.is_feasible(&solution), p.is_feasible(&a));
        let model_cost = p.evaluate(&a).usage_opex;
        prop_assert!((ilp.objective_value(&solution) - model_cost).abs() < 1e-9);
    }
}

// Gene encoding round-trips for every complete assignment.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn genome_roundtrip(genes in proptest::collection::vec(0usize..7, 1..30)) {
        let codec = cpo_iaas::core::prelude::GenomeCodec::new(7, genes.len());
        let a = Assignment::from_genes(&genes);
        let encoded = codec.encode(&a);
        let decoded = codec.decode(&encoded);
        prop_assert_eq!(decoded, a);
    }
}

/// The per-pair rule check `AllocationProblem::rules_allow` ran before
/// rule views: walk every rule of `k`'s request that names `k` and test
/// `j` against each placed partner. Kept as the oracle of `rule_view`.
fn rules_allow_oracle(p: &AllocationProblem, a: &Assignment, k: VmId, j: ServerId) -> bool {
    let req = p.batch().request(p.batch().request_of(k));
    let dc_j = p.infra().datacenter_of(j);
    for rule in &req.rules {
        if !rule.vms().contains(&k) {
            continue;
        }
        for &other in rule.vms() {
            if other == k {
                continue;
            }
            let Some(s_other) = a.server_of(other) else {
                continue;
            };
            let same_server = s_other == j;
            let same_dc = p.infra().datacenter_of(s_other) == dc_j;
            let ok = match rule.kind() {
                AffinityKind::SameServer => same_server,
                AffinityKind::SameDatacenter => same_dc,
                AffinityKind::DifferentServer => !same_server,
                AffinityKind::DifferentDatacenter => !same_dc,
            };
            if !ok {
                return false;
            }
        }
    }
    true
}

/// The sort-based `AffinityRule::violation_degree` body the in-place count
/// replaced, kept as its oracle.
fn violation_degree_oracle(rule: &AffinityRule, a: &Assignment, infra: &Infrastructure) -> usize {
    let vms = rule.vms();
    match rule.kind() {
        AffinityKind::SameServer => {
            let mut counts: Vec<(usize, usize)> = Vec::new();
            for &k in vms {
                if let Some(s) = a.server_of(k) {
                    if let Some(e) = counts.iter_mut().find(|(sv, _)| *sv == s.index()) {
                        e.1 += 1;
                    } else {
                        counts.push((s.index(), 1));
                    }
                }
            }
            let majority = counts.iter().map(|&(_, c)| c).max().unwrap_or(0);
            vms.len() - majority
        }
        AffinityKind::SameDatacenter => {
            let mut counts: Vec<(usize, usize)> = Vec::new();
            let mut unassigned = 0usize;
            for &k in vms {
                match a.server_of(k) {
                    None => unassigned += 1,
                    Some(s) => {
                        let dc = infra.datacenter_of(s).index();
                        if let Some(e) = counts.iter_mut().find(|(d, _)| *d == dc) {
                            e.1 += 1;
                        } else {
                            counts.push((dc, 1));
                        }
                    }
                }
            }
            let majority = counts.iter().map(|&(_, c)| c).max().unwrap_or(0);
            if majority == 0 {
                unassigned
            } else {
                vms.len() - majority
            }
        }
        AffinityKind::DifferentServer | AffinityKind::DifferentDatacenter => {
            let mut keys: Vec<usize> = Vec::new();
            let mut degree = 0usize;
            for &k in vms {
                match a.server_of(k) {
                    None => degree += 1,
                    Some(s) if rule.kind() == AffinityKind::DifferentServer => keys.push(s.index()),
                    Some(s) => keys.push(infra.datacenter_of(s).index()),
                }
            }
            keys.sort_unstable();
            let mut i = 0;
            while i < keys.len() {
                let mut j = i + 1;
                while j < keys.len() && keys[j] == keys[i] {
                    j += 1;
                }
                degree += j - i - 1;
                i = j;
            }
            degree
        }
    }
}

/// Strategy: a fleet of one to ten datacenters of uneven size, requests
/// of 2–20 VMs each carrying random rules of all four kinds over random
/// member subsets (overlapping rules of one kind included), and a partial
/// assignment. Large separation rules overflow `RuleView`'s inline lists.
fn rule_view_case() -> impl Strategy<Value = (AllocationProblem<'static>, Assignment)> {
    (
        proptest::collection::vec(1usize..4, 1..11),
        1usize..4,
        0u64..1_000_000,
    )
        .prop_map(|(dc_sizes, reqs, seed)| {
            let mut s = seed;
            let mut next = move |bound: usize| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (s >> 33) as usize % bound
            };
            let profile = ServerProfile::commodity(3);
            let infra = Infrastructure::new(
                AttrSet::standard(),
                dc_sizes
                    .iter()
                    .enumerate()
                    .map(|(i, &size)| (format!("dc{i}"), profile.build_many(size)))
                    .collect(),
            );
            let kinds = [
                AffinityKind::SameServer,
                AffinityKind::SameDatacenter,
                AffinityKind::DifferentServer,
                AffinityKind::DifferentDatacenter,
            ];
            let mut batch = RequestBatch::new();
            for _ in 0..reqs {
                let first = batch.vm_count();
                let size = 2 + next(19);
                let mut rules = Vec::new();
                for _ in 0..next(4) {
                    // Half the rules span the whole request.
                    let whole = next(2) == 0;
                    let members: Vec<VmId> = (first..first + size)
                        .filter(|_| whole || next(3) != 0)
                        .map(VmId)
                        .collect();
                    if members.len() >= 2 {
                        rules.push(AffinityRule::new(kinds[next(4)], members));
                    }
                }
                batch.push_request(vec![vm_spec(1.0, 512.0, 5.0); size], rules);
            }
            let m = infra.server_count();
            let n = batch.vm_count();
            let mut a = Assignment::unassigned(n);
            for k in 0..n {
                // One VM in four stays unplaced.
                let g = next(m + m / 3 + 1);
                if g < m {
                    a.assign(VmId(k), ServerId(g));
                }
            }
            (AllocationProblem::new(infra, batch, None), a)
        })
}

/// Strategy: one rule of 2–6 members over a multi-datacenter fleet and a
/// partial assignment of its members.
fn degree_case() -> impl Strategy<Value = (Infrastructure, AffinityRule, Assignment)> {
    (
        proptest::collection::vec(1usize..4, 1..4),
        0usize..4,
        2usize..7,
        proptest::collection::vec(0usize..16, 6),
    )
        .prop_map(|(dc_sizes, kind, len, genes)| {
            let profile = ServerProfile::commodity(3);
            let infra = Infrastructure::new(
                AttrSet::standard(),
                dc_sizes
                    .iter()
                    .enumerate()
                    .map(|(i, &size)| (format!("dc{i}"), profile.build_many(size)))
                    .collect(),
            );
            let kinds = [
                AffinityKind::SameServer,
                AffinityKind::SameDatacenter,
                AffinityKind::DifferentServer,
                AffinityKind::DifferentDatacenter,
            ];
            // Members listed out of id order, as rules may be.
            let rule = AffinityRule::new(kinds[kind], (0..len).rev().map(VmId).collect());
            let m = infra.server_count();
            let mut a = Assignment::unassigned(len);
            for (k, &g) in genes.iter().take(len).enumerate() {
                if g < m {
                    a.assign(VmId(k), ServerId(g));
                }
            }
            (infra, rule, a)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `rule_view(a, k).allows(j)` and `rules_allow` agree with the
    /// per-pair oracle for every VM and server, and `hopeless()` holds
    /// exactly when no server is allowed.
    #[test]
    fn rule_view_matches_the_per_pair_check((p, a) in rule_view_case()) {
        for k in p.batch().vm_ids() {
            let view = p.rule_view(&a, k);
            let mut any_allowed = false;
            for j in p.infra().server_ids() {
                let want = rules_allow_oracle(&p, &a, k, j);
                prop_assert_eq!(view.allows(j), want, "vm {:?} server {:?}", k, j);
                prop_assert_eq!(p.rules_allow(&a, k, j), want);
                any_allowed |= want;
            }
            prop_assert_eq!(view.hopeless(), !any_allowed, "vm {:?}", k);
        }
    }

    /// The in-place `violation_degree` equals the sort-based count it
    /// replaced, for every rule kind, with unplaced members.
    #[test]
    fn violation_degree_matches_the_sort_based_count((infra, rule, a) in degree_case()) {
        prop_assert_eq!(
            rule.violation_degree(&a, &infra),
            violation_degree_oracle(&rule, &a, &infra)
        );
    }
}
