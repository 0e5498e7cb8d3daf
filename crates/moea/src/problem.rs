//! The problem abstraction consumed by the evolutionary engine.

/// Result of evaluating one genome: objective values (all minimised) and a
/// graded constraint-violation measure (0 = feasible).
#[derive(Clone, Debug, PartialEq)]
pub struct Evaluation {
    /// Objective values, to be minimised.
    pub objectives: Vec<f64>,
    /// Total constraint violation degree; `0.0` means feasible. Used by
    /// Deb's constraint-domination rules.
    pub violation: f64,
}

impl Evaluation {
    /// A feasible evaluation.
    pub fn feasible(objectives: Vec<f64>) -> Self {
        Self {
            objectives,
            violation: 0.0,
        }
    }

    /// `true` when no constraint is violated.
    #[inline]
    pub fn is_feasible(&self) -> bool {
        self.violation <= 0.0
    }
}

/// A real-coded multi-objective minimisation problem.
///
/// Genomes are `Vec<f64>` with per-variable box bounds; discrete problems
/// (like server indices) decode by flooring, the standard real-coding trick
/// the paper's SBX/PM operators ("SBX and PM standard") assume.
pub trait MoeaProblem {
    /// Number of decision variables (genes).
    fn n_vars(&self) -> usize;

    /// Number of objectives.
    fn n_objectives(&self) -> usize;

    /// Inclusive lower / exclusive-ish upper bound of variable `i`.
    fn bounds(&self, i: usize) -> (f64, f64);

    /// Evaluates a genome.
    fn evaluate(&self, genes: &[f64]) -> Evaluation;

    /// Optional name for reports.
    fn name(&self) -> &str {
        "unnamed"
    }
}

/// Clamps every gene into its box bounds (operators can overshoot).
pub fn clamp_genes(problem: &dyn MoeaProblem, genes: &mut [f64]) {
    for (i, g) in genes.iter_mut().enumerate() {
        let (lo, hi) = problem.bounds(i);
        *g = g.clamp(lo, hi);
    }
}

#[cfg(test)]
pub(crate) mod test_problems {
    use super::*;

    /// The classic 2-objective SCH problem: f1 = x², f2 = (x−2)²;
    /// Pareto front at x ∈ [0, 2].
    pub struct Sch;

    impl MoeaProblem for Sch {
        fn n_vars(&self) -> usize {
            1
        }
        fn n_objectives(&self) -> usize {
            2
        }
        fn bounds(&self, _i: usize) -> (f64, f64) {
            (-1000.0, 1000.0)
        }
        fn evaluate(&self, genes: &[f64]) -> Evaluation {
            let x = genes[0];
            Evaluation::feasible(vec![x * x, (x - 2.0) * (x - 2.0)])
        }
        fn name(&self) -> &str {
            "SCH"
        }
    }

    /// DTLZ2 with 3 objectives — the standard NSGA-III sanity problem; the
    /// Pareto front is the unit-sphere octant Σ f_i² = 1.
    pub struct Dtlz2 {
        pub n_vars: usize,
    }

    impl MoeaProblem for Dtlz2 {
        fn n_vars(&self) -> usize {
            self.n_vars
        }
        fn n_objectives(&self) -> usize {
            3
        }
        fn bounds(&self, _i: usize) -> (f64, f64) {
            (0.0, 1.0)
        }
        fn evaluate(&self, x: &[f64]) -> Evaluation {
            let m = 3usize;
            let k = self.n_vars - (m - 1);
            let g: f64 = x[self.n_vars - k..]
                .iter()
                .map(|v| (v - 0.5) * (v - 0.5))
                .sum();
            let mut f = vec![1.0 + g; m];
            for (i, fi) in f.iter_mut().enumerate() {
                for v in x.iter().take(m - 1 - i) {
                    *fi *= (v * std::f64::consts::FRAC_PI_2).cos();
                }
                if i > 0 {
                    *fi *= (x[m - 1 - i] * std::f64::consts::FRAC_PI_2).sin();
                }
            }
            Evaluation::feasible(f)
        }
        fn name(&self) -> &str {
            "DTLZ2"
        }
    }

    /// Constrained problem: minimise (x, y) subject to x + y ≥ 1.
    pub struct ConstrainedSum;

    impl MoeaProblem for ConstrainedSum {
        fn n_vars(&self) -> usize {
            2
        }
        fn n_objectives(&self) -> usize {
            2
        }
        fn bounds(&self, _i: usize) -> (f64, f64) {
            (0.0, 1.0)
        }
        fn evaluate(&self, g: &[f64]) -> Evaluation {
            let violation = (1.0 - (g[0] + g[1])).max(0.0);
            Evaluation {
                objectives: vec![g[0], g[1]],
                violation,
            }
        }
        fn name(&self) -> &str {
            "constrained-sum"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_problems::*;
    use super::*;

    #[test]
    fn sch_evaluates_known_points() {
        let e = Sch.evaluate(&[0.0]);
        assert_eq!(e.objectives, vec![0.0, 4.0]);
        assert!(e.is_feasible());
        let e = Sch.evaluate(&[2.0]);
        assert_eq!(e.objectives, vec![4.0, 0.0]);
    }

    #[test]
    fn dtlz2_optimum_lies_on_unit_sphere() {
        let p = Dtlz2 { n_vars: 7 };
        // x_{m..} = 0.5 zeroes g; then Σ f² = 1.
        let mut x = vec![0.3, 0.7];
        x.extend(vec![0.5; 5]);
        let e = p.evaluate(&x);
        let norm: f64 = e.objectives.iter().map(|f| f * f).sum();
        assert!((norm - 1.0).abs() < 1e-9, "norm {norm}");
    }

    #[test]
    fn constrained_sum_reports_violation() {
        let e = ConstrainedSum.evaluate(&[0.2, 0.3]);
        assert!((e.violation - 0.5).abs() < 1e-12);
        assert!(!e.is_feasible());
        let ok = ConstrainedSum.evaluate(&[0.6, 0.6]);
        assert!(ok.is_feasible());
    }

    #[test]
    fn clamp_genes_respects_bounds() {
        let p = ConstrainedSum;
        let mut g = vec![-0.5, 1.7];
        clamp_genes(&p, &mut g);
        assert_eq!(g, vec![0.0, 1.0]);
    }
}
