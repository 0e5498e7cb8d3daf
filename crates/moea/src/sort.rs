//! Fast non-dominated sorting (Deb et al. 2002) with constraint-domination.
//!
//! O(M·N²) as in the NSGA-II paper; `N = |population|`, `M = objectives`.
//! Sets each individual's `rank` and returns the fronts as index lists.

use crate::individual::Individual;

/// Sorts the population into non-domination fronts under
/// constraint-domination, writing `rank` into each individual and
/// returning front membership (`fronts[0]` = best front).
pub fn fast_non_dominated_sort(pop: &mut [Individual]) -> Vec<Vec<usize>> {
    let n = pop.len();
    if n == 0 {
        return Vec::new();
    }
    // Row p of the flat n×n `dominated` buffer lists, in discovery order,
    // the individuals p dominates; its first `dominated_len[p]` cells are
    // live. `count[p]` = how many dominate p.
    let mut dominated = vec![0u32; n * n];
    let mut dominated_len = vec![0usize; n];
    let mut count = vec![0usize; n];
    for p in 0..n {
        for q in (p + 1)..n {
            let (winner, loser) = if pop[p].constrained_dominates(&pop[q]) {
                (p, q)
            } else if pop[q].constrained_dominates(&pop[p]) {
                (q, p)
            } else {
                continue;
            };
            dominated[winner * n + dominated_len[winner]] = loser as u32;
            dominated_len[winner] += 1;
            count[loser] += 1;
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
            for &q in &dominated[p * n..p * n + dominated_len[p]] {
                let q = q as usize;
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
    debug_assert_eq!(fronts.iter().map(Vec::len).sum::<usize>(), n);
    fronts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Evaluation;

    fn ind(obj: Vec<f64>, violation: f64) -> Individual {
        let mut i = Individual::new(vec![0.0]);
        i.set_evaluation(Evaluation {
            objectives: obj,
            violation,
        });
        i
    }

    #[test]
    fn empty_population_yields_no_fronts() {
        let mut pop: Vec<Individual> = vec![];
        assert!(fast_non_dominated_sort(&mut pop).is_empty());
    }

    #[test]
    fn mutually_nondominated_points_share_front_zero() {
        let mut pop = vec![
            ind(vec![1.0, 4.0], 0.0),
            ind(vec![2.0, 3.0], 0.0),
            ind(vec![4.0, 1.0], 0.0),
        ];
        let fronts = fast_non_dominated_sort(&mut pop);
        assert_eq!(fronts.len(), 1);
        assert!(pop.iter().all(|i| i.rank == 0));
    }

    #[test]
    fn dominated_points_fall_to_later_fronts() {
        let mut pop = vec![
            ind(vec![1.0, 1.0], 0.0), // front 0 (dominates everything)
            ind(vec![2.0, 2.0], 0.0), // front 1
            ind(vec![3.0, 3.0], 0.0), // front 2
            ind(vec![1.0, 3.0], 0.0), // dominated by (1,1); nondominated vs (2,2) → front 1
        ];
        let fronts = fast_non_dominated_sort(&mut pop);
        assert_eq!(pop[0].rank, 0);
        assert_eq!(pop[3].rank, 1);
        assert_eq!(pop[1].rank, 1);
        assert_eq!(pop[2].rank, 2);
        assert_eq!(fronts[0].len(), 1);
        assert_eq!(fronts[1].len(), 2);
    }

    #[test]
    fn infeasible_individuals_rank_behind_feasible() {
        let mut pop = vec![
            ind(vec![9.0, 9.0], 0.0), // feasible, poor objectives
            ind(vec![0.0, 0.0], 0.5), // infeasible, perfect objectives
            ind(vec![0.0, 0.0], 0.1), // less infeasible
        ];
        let _ = fast_non_dominated_sort(&mut pop);
        assert_eq!(pop[0].rank, 0);
        assert_eq!(pop[2].rank, 1);
        assert_eq!(pop[1].rank, 2);
    }

    #[test]
    fn fronts_partition_population() {
        let mut pop: Vec<Individual> = (0..20)
            .map(|i| ind(vec![(i % 5) as f64, (i / 5) as f64], 0.0))
            .collect();
        let fronts = fast_non_dominated_sort(&mut pop);
        let total: usize = fronts.iter().map(Vec::len).sum();
        assert_eq!(total, 20);
        // Ranks must be consistent with front index.
        for (f, members) in fronts.iter().enumerate() {
            for &m in members {
                assert_eq!(pop[m].rank, f);
            }
        }
    }

    #[test]
    fn no_front_member_dominates_another_in_same_front() {
        let mut pop: Vec<Individual> = (0..30)
            .map(|i| {
                let x = (i as f64 * 0.37).sin().abs() * 10.0;
                let y = (i as f64 * 0.73).cos().abs() * 10.0;
                ind(vec![x, y], 0.0)
            })
            .collect();
        let fronts = fast_non_dominated_sort(&mut pop);
        for members in &fronts {
            for &a in members {
                for &b in members {
                    if a != b {
                        assert!(
                            !pop[a].constrained_dominates(&pop[b]),
                            "front member dominates sibling"
                        );
                    }
                }
            }
        }
    }
}
