//! Property-based tests of the evolutionary engine's kernels.

use cpo_moea::crowding::assign_crowding_distance;
use cpo_moea::individual::{dominates, Individual};
use cpo_moea::nsga3::{associate, normalize, perpendicular_distance};
use cpo_moea::operators::{polynomial_mutation, sbx, PmParams, SbxParams};
use cpo_moea::problem::{Evaluation, MoeaProblem};
use cpo_moea::refpoints::{das_dennis, das_dennis_count};
use cpo_moea::sort::fast_non_dominated_sort;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

struct BoxProblem {
    vars: usize,
    lo: f64,
    hi: f64,
}

impl MoeaProblem for BoxProblem {
    fn n_vars(&self) -> usize {
        self.vars
    }
    fn n_objectives(&self) -> usize {
        2
    }
    fn bounds(&self, _: usize) -> (f64, f64) {
        (self.lo, self.hi)
    }
    fn evaluate(&self, _g: &[f64]) -> Evaluation {
        Evaluation::feasible(vec![0.0, 0.0])
    }
}

fn population(objs: &[Vec<f64>]) -> Vec<Individual> {
    objs.iter()
        .map(|o| {
            let mut i = Individual::new(vec![0.0]);
            i.set_evaluation(Evaluation::feasible(o.clone()));
            i
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Dominance is irreflexive and asymmetric.
    #[test]
    fn dominance_axioms(a in proptest::collection::vec(0.0_f64..10.0, 3),
                        b in proptest::collection::vec(0.0_f64..10.0, 3)) {
        prop_assert!(!dominates(&a, &a));
        prop_assert!(!(dominates(&a, &b) && dominates(&b, &a)));
    }

    /// Fronts partition the population and respect dominance: nobody in a
    /// front is dominated by someone in the same or a later front.
    #[test]
    fn sort_fronts_are_a_dominance_partition(
        objs in proptest::collection::vec(proptest::collection::vec(0.0_f64..10.0, 2), 2..40)
    ) {
        let mut pop = population(&objs);
        let fronts = fast_non_dominated_sort(&mut pop);
        let total: usize = fronts.iter().map(Vec::len).sum();
        prop_assert_eq!(total, pop.len());
        // Rank of a dominated individual is strictly greater than the
        // rank of any individual dominating it.
        for x in 0..pop.len() {
            for y in 0..pop.len() {
                if pop[x].constrained_dominates(&pop[y]) {
                    prop_assert!(pop[x].rank < pop[y].rank,
                        "dominator rank {} !< dominated rank {}", pop[x].rank, pop[y].rank);
                }
            }
        }
    }

    /// Crowding distances are non-negative and boundary points infinite.
    #[test]
    fn crowding_distances_are_sane(
        objs in proptest::collection::vec(proptest::collection::vec(0.0_f64..10.0, 2), 3..30)
    ) {
        let mut pop = population(&objs);
        let front: Vec<usize> = (0..pop.len()).collect();
        assign_crowding_distance(&mut pop, &front);
        for i in &pop {
            prop_assert!(i.crowding >= 0.0);
            prop_assert!(!i.crowding.is_nan());
        }
    }

    /// SBX children always stay in the box and preserve the per-gene sum
    /// when far from the bounds.
    #[test]
    fn sbx_children_in_bounds(seed in 0u64..10_000, vars in 1usize..20) {
        let p = BoxProblem { vars, lo: -5.0, hi: 5.0 };
        let mut rng = SmallRng::seed_from_u64(seed);
        let p1 = vec![-4.0; vars];
        let p2 = vec![4.0; vars];
        let (c1, c2) = sbx(&p, SbxParams::default(), &p1, &p2, &mut rng);
        for g in c1.iter().chain(&c2) {
            prop_assert!((-5.0..=5.0).contains(g));
        }
    }

    /// Polynomial mutation never leaves the box.
    #[test]
    fn pm_stays_in_bounds(seed in 0u64..10_000, vars in 1usize..20) {
        let p = BoxProblem { vars, lo: 0.0, hi: 1.0 };
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut g = vec![0.5; vars];
        polynomial_mutation(&p, PmParams { rate: 1.0, distribution_index: 15.0 }, &mut g, &mut rng);
        for v in &g {
            prop_assert!((0.0..=1.0).contains(v));
        }
    }

    /// Das–Dennis lattices lie on the simplex and match the closed-form
    /// count.
    #[test]
    fn das_dennis_lattice_properties(m in 2usize..5, d in 1usize..7) {
        let pts = das_dennis(m, d);
        prop_assert_eq!(pts.len(), das_dennis_count(m, d));
        for p in &pts {
            let s: f64 = p.iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-9);
        }
    }

    /// Perpendicular distance is zero exactly on the ray and otherwise
    /// bounded by the point's norm.
    #[test]
    fn perpendicular_distance_bounds(
        p in proptest::collection::vec(0.01_f64..10.0, 3),
        w in proptest::collection::vec(0.01_f64..1.0, 3),
    ) {
        let d = perpendicular_distance(&p, &w);
        let norm = p.iter().map(|x| x * x).sum::<f64>().sqrt();
        prop_assert!(d >= -1e-12);
        prop_assert!(d <= norm + 1e-9);
        // Scaling the point along the ray leaves distance 0.
        let t = 2.5;
        let on_ray: Vec<f64> = w.iter().map(|x| x * t).collect();
        prop_assert!(perpendicular_distance(&on_ray, &w) < 1e-9);
    }

    /// Normalisation maps candidates into the non-negative orthant and
    /// association always picks the argmin direction.
    #[test]
    fn normalize_and_associate_consistency(
        objs in proptest::collection::vec(proptest::collection::vec(0.0_f64..100.0, 3), 4..25)
    ) {
        let pop = population(&objs);
        let candidates: Vec<usize> = (0..pop.len()).collect();
        let normalized = normalize(&pop, &candidates);
        for n in &normalized {
            for v in n {
                prop_assert!(*v >= -1e-9, "normalised objective negative: {v}");
                prop_assert!(v.is_finite());
            }
        }
        let refs = das_dennis(3, 4);
        let assoc = associate(&normalized, &refs);
        for (i, a) in assoc.iter().enumerate() {
            for (r, w) in refs.iter().enumerate() {
                let d = perpendicular_distance(&normalized[i], w);
                prop_assert!(a.distance <= d + 1e-9,
                    "candidate {i}: chose ref {} at {:.6} but ref {r} is at {d:.6}",
                    a.ref_idx, a.distance);
            }
        }
    }
}

/// The fast non-dominated sort as it was before its domination lists moved
/// into one flat n×n buffer: one growing `Vec` per individual. Kept as the
/// oracle of the flat-buffer sort.
fn vec_of_vecs_sort(pop: &mut [Individual]) -> Vec<Vec<usize>> {
    let n = pop.len();
    if n == 0 {
        return Vec::new();
    }
    let mut dominated: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut count = vec![0usize; n];
    for p in 0..n {
        for q in (p + 1)..n {
            if pop[p].constrained_dominates(&pop[q]) {
                dominated[p].push(q);
                count[q] += 1;
            } else if pop[q].constrained_dominates(&pop[p]) {
                dominated[q].push(p);
                count[p] += 1;
            }
        }
    }
    let mut fronts: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = (0..n).filter(|&p| count[p] == 0).collect();
    let mut rank = 0usize;
    while !current.is_empty() {
        for &p in &current {
            pop[p].rank = rank;
        }
        let mut next = Vec::new();
        for &p in &current {
            for &q in &dominated[p] {
                count[q] -= 1;
                if count[q] == 0 {
                    next.push(q);
                }
            }
        }
        fronts.push(std::mem::take(&mut current));
        current = next;
        rank += 1;
    }
    fronts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The flat-buffer sort returns the oracle's fronts, in the same
    /// order, and the same ranks, on populations mixing feasible and
    /// infeasible individuals (coarse grids make ties and duplicates).
    #[test]
    fn flat_buffer_sort_matches_the_vec_of_vecs_sort(
        points in proptest::collection::vec(
            (proptest::collection::vec(0u8..6, 3), 0u8..4),
            0..60,
        )
    ) {
        let mut pop: Vec<Individual> = points
            .iter()
            .map(|(obj, v)| {
                let mut i = Individual::new(vec![0.0]);
                i.set_evaluation(Evaluation {
                    objectives: obj.iter().map(|&x| f64::from(x)).collect(),
                    violation: f64::from(*v) * 0.5,
                });
                i
            })
            .collect();
        let mut oracle = pop.clone();
        let fronts = fast_non_dominated_sort(&mut pop);
        prop_assert_eq!(&fronts, &vec_of_vecs_sort(&mut oracle));
        let ranks: Vec<usize> = pop.iter().map(|i| i.rank).collect();
        let oracle_ranks: Vec<usize> = oracle.iter().map(|i| i.rank).collect();
        prop_assert_eq!(ranks, oracle_ranks);
    }
}
