//! The integer-linear-programming formulation of Section III, made
//! explicit: "we first express the problem using a linear programming
//! approach" (paper). This module materialises the exact variable set,
//! constraint matrix and linearised objective the equations describe, and
//! cross-checks them against the executable model — every solver in the
//! workspace is, formally, solving *this* program.
//!
//! ## Variables
//!
//! * `x_{jk} ∈ {0,1}` — VM `k` hosted on server `j`. The paper's tensor
//!   `X_{ijk}` collapses to `x_{jk}` because the datacenter index `i` is
//!   a function of `j`; the datacenter-level constraints below re-expand
//!   it where Eqs. 9/11 need it.
//! * `y_j ∈ {0,1}` — server `j` is active. This is the standard
//!   facility-location linearisation of the opex term of Eq. 22 (a
//!   server pays `E_j` once iff it hosts anything), linked by
//!   `x_{jk} ≤ y_j`.
//!
//! ## Constraints
//!
//! | paper | here |
//! |---|---|
//! | Eq. 17 (assignment) | `Σ_j x_{jk} = 1` per VM |
//! | Eq. 16 (capacity)   | `Σ_k C_{kl} x_{jk} ≤ P_{jl} F_{jl}` per server & attribute |
//! | Eq. 10 (same server, via Eqs. 13–14) | `x_{j,a} − x_{j,b} = 0` per server & rule pair |
//! | Eq. 9 (same datacenter) | `Σ_{j∈i} x_{j,a} − Σ_{j∈i} x_{j,b} = 0` per datacenter & rule pair |
//! | Eq. 12 (different servers) | `Σ_{k∈rule} x_{jk} ≤ 1` per server |
//! | Eq. 11 (different datacenters) | `Σ_{k∈rule} Σ_{j∈i} x_{jk} ≤ 1` per datacenter |
//! | activation | `x_{jk} − y_j ≤ 0` per server & VM |
//!
//! ## Objective
//!
//! The linear part of Eq. 15/22: `min Σ_j E_j y_j + Σ_{jk} U_j x_{jk}`.
//! The downtime term (Eq. 23) is piecewise-exponential and the migration
//! term (Eq. 26) depends on `X^t`; both stay in the executable model —
//! which is exactly why the paper moves beyond a pure LP solver.

use crate::affinity::AffinityKind;
use crate::assignment::Assignment;
use crate::infrastructure::ServerId;
use crate::problem::AllocationProblem;
use crate::request::VmId;

/// Comparison operator of a linear constraint.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Relation {
    /// `Σ terms ≤ rhs`
    Le,
    /// `Σ terms = rhs`
    Eq,
}

/// Which model equation a constraint row encodes (for reporting).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RowKind {
    /// Eq. 17 — every VM assigned exactly once.
    Assignment,
    /// Eq. 16 — per-server, per-attribute capacity.
    Capacity,
    /// Eqs. 10/13–14 — co-location on the same server.
    SameServer,
    /// Eq. 9 — co-location in the same datacenter.
    SameDatacenter,
    /// Eq. 12 — separation across servers.
    DifferentServer,
    /// Eq. 11 — separation across datacenters.
    DifferentDatacenter,
    /// `x ≤ y` server-activation link (opex linearisation).
    Activation,
}

/// One row of the constraint matrix: sparse `terms · vars (≤|=) rhs`.
#[derive(Clone, Debug)]
pub struct LinearConstraint {
    /// Sparse coefficients: `(variable index, coefficient)`.
    pub terms: Vec<(usize, f64)>,
    /// The relation.
    pub relation: Relation,
    /// Right-hand side.
    pub rhs: f64,
    /// Which equation this row encodes.
    pub kind: RowKind,
}

impl LinearConstraint {
    /// Evaluates the left-hand side on a 0/1 solution vector.
    pub fn lhs(&self, solution: &[f64]) -> f64 {
        self.terms.iter().map(|&(v, c)| c * solution[v]).sum()
    }

    /// Is the row satisfied (with a small tolerance)?
    pub fn is_satisfied(&self, solution: &[f64]) -> bool {
        let lhs = self.lhs(solution);
        match self.relation {
            Relation::Le => lhs <= self.rhs + 1e-9,
            Relation::Eq => (lhs - self.rhs).abs() <= 1e-9,
        }
    }
}

/// The full 0/1 integer program of Section III.
#[derive(Clone, Debug)]
pub struct IlpFormulation {
    /// Servers `m`.
    pub m: usize,
    /// VMs `n`.
    pub n: usize,
    /// Total variables: `m·n` placement vars `x_{jk}` followed by `m`
    /// activation vars `y_j`.
    pub n_vars: usize,
    /// Linear objective coefficients per variable (minimised).
    pub objective: Vec<f64>,
    /// The constraint rows.
    pub constraints: Vec<LinearConstraint>,
}

impl IlpFormulation {
    /// Index of `x_{jk}`.
    #[inline]
    pub fn x(&self, j: ServerId, k: VmId) -> usize {
        j.index() * self.n + k.index()
    }

    /// Index of `y_j`.
    #[inline]
    pub fn y(&self, j: ServerId) -> usize {
        self.m * self.n + j.index()
    }

    /// Builds the program from a problem instance.
    pub fn from_problem(problem: &AllocationProblem) -> Self {
        let m = problem.m();
        let n = problem.n();
        let infra = problem.infra();
        let batch = problem.batch();
        let n_vars = m * n + m;

        let mut ilp = Self {
            m,
            n,
            n_vars,
            objective: vec![0.0; n_vars],
            constraints: Vec::new(),
        };

        // Objective: Σ E_j y_j + Σ U_j x_{jk} (the linear part of Eq. 22).
        for j in infra.server_ids() {
            let s = infra.server(j);
            let yj = ilp.y(j);
            ilp.objective[yj] = s.opex;
            for k in batch.vm_ids() {
                let xjk = ilp.x(j, k);
                ilp.objective[xjk] = s.usage_cost;
            }
        }

        // Eq. 17: Σ_j x_{jk} = 1.
        for k in batch.vm_ids() {
            let terms = infra.server_ids().map(|j| (ilp.x(j, k), 1.0)).collect();
            ilp.constraints.push(LinearConstraint {
                terms,
                relation: Relation::Eq,
                rhs: 1.0,
                kind: RowKind::Assignment,
            });
        }

        // Eq. 16: Σ_k C_{kl} x_{jk} ≤ P_{jl} F_{jl}.
        for j in infra.server_ids() {
            for l in infra.attrs().ids() {
                let terms: Vec<(usize, f64)> = batch
                    .vm_ids()
                    .map(|k| (ilp.x(j, k), batch.demand(k)[l.index()]))
                    .filter(|&(_, c)| c != 0.0)
                    .collect();
                ilp.constraints.push(LinearConstraint {
                    terms,
                    relation: Relation::Le,
                    rhs: infra.effective_capacity(j, l),
                    kind: RowKind::Capacity,
                });
            }
        }
        // Activation link: x_{jk} − y_j ≤ 0.
        for j in infra.server_ids() {
            for k in batch.vm_ids() {
                ilp.constraints.push(LinearConstraint {
                    terms: vec![(ilp.x(j, k), 1.0), (ilp.y(j), -1.0)],
                    relation: Relation::Le,
                    rhs: 0.0,
                    kind: RowKind::Activation,
                });
            }
        }

        // Affinity rules (Eqs. 9–14).
        for req in batch.requests() {
            for rule in &req.rules {
                let vms = rule.vms();
                match rule.kind() {
                    AffinityKind::SameServer => {
                        let anchor = vms[0];
                        for &other in &vms[1..] {
                            for j in infra.server_ids() {
                                ilp.constraints.push(LinearConstraint {
                                    terms: vec![(ilp.x(j, anchor), 1.0), (ilp.x(j, other), -1.0)],
                                    relation: Relation::Eq,
                                    rhs: 0.0,
                                    kind: RowKind::SameServer,
                                });
                            }
                        }
                    }
                    AffinityKind::SameDatacenter => {
                        let anchor = vms[0];
                        for &other in &vms[1..] {
                            for dc in infra.datacenters() {
                                let mut terms = Vec::new();
                                for j in dc.servers() {
                                    terms.push((ilp.x(j, anchor), 1.0));
                                    terms.push((ilp.x(j, other), -1.0));
                                }
                                ilp.constraints.push(LinearConstraint {
                                    terms,
                                    relation: Relation::Eq,
                                    rhs: 0.0,
                                    kind: RowKind::SameDatacenter,
                                });
                            }
                        }
                    }
                    AffinityKind::DifferentServer => {
                        for j in infra.server_ids() {
                            let terms = vms.iter().map(|&k| (ilp.x(j, k), 1.0)).collect();
                            ilp.constraints.push(LinearConstraint {
                                terms,
                                relation: Relation::Le,
                                rhs: 1.0,
                                kind: RowKind::DifferentServer,
                            });
                        }
                    }
                    AffinityKind::DifferentDatacenter => {
                        for dc in infra.datacenters() {
                            let mut terms = Vec::new();
                            for j in dc.servers() {
                                for &k in vms {
                                    terms.push((ilp.x(j, k), 1.0));
                                }
                            }
                            ilp.constraints.push(LinearConstraint {
                                terms,
                                relation: Relation::Le,
                                rhs: 1.0,
                                kind: RowKind::DifferentDatacenter,
                            });
                        }
                    }
                }
            }
        }

        ilp
    }

    /// Converts a (complete) assignment into a 0/1 solution vector with
    /// the implied activation variables.
    pub fn solution_of(&self, assignment: &Assignment) -> Vec<f64> {
        let mut solution = vec![0.0; self.n_vars];
        for (k, j) in assignment.iter_assigned() {
            solution[self.x(j, k)] = 1.0;
            solution[self.y(j)] = 1.0;
        }
        solution
    }

    /// All violated rows for a solution.
    pub fn violated_rows(&self, solution: &[f64]) -> Vec<&LinearConstraint> {
        self.constraints
            .iter()
            .filter(|c| !c.is_satisfied(solution))
            .collect()
    }

    /// Is the solution feasible for the program?
    pub fn is_feasible(&self, solution: &[f64]) -> bool {
        self.constraints.iter().all(|c| c.is_satisfied(solution))
    }

    /// Linear objective value.
    pub fn objective_value(&self, solution: &[f64]) -> f64 {
        self.objective
            .iter()
            .zip(solution)
            .map(|(c, x)| c * x)
            .sum()
    }

    /// Counts rows per kind — the shape summary used in reports.
    pub fn row_counts(&self) -> Vec<(RowKind, usize)> {
        let kinds = [
            RowKind::Assignment,
            RowKind::Capacity,
            RowKind::SameServer,
            RowKind::SameDatacenter,
            RowKind::DifferentServer,
            RowKind::DifferentDatacenter,
            RowKind::Activation,
        ];
        kinds
            .into_iter()
            .map(|kind| {
                (
                    kind,
                    self.constraints.iter().filter(|c| c.kind == kind).count(),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affinity::AffinityRule;
    use crate::attr::AttrSet;
    use crate::infrastructure::{Infrastructure, ServerProfile};
    use crate::request::{vm_spec, RequestBatch};

    fn problem_with_rules() -> AllocationProblem<'static> {
        let profile = ServerProfile::commodity(3);
        let infra = Infrastructure::new(
            AttrSet::standard(),
            vec![
                ("dc0".into(), profile.build_many(2)),
                ("dc1".into(), profile.build_many(2)),
            ],
        );
        let mut batch = RequestBatch::new();
        batch.push_request(
            vec![vm_spec(2.0, 1024.0, 10.0); 2],
            vec![AffinityRule::new(
                AffinityKind::SameServer,
                vec![VmId(0), VmId(1)],
            )],
        );
        batch.push_request(
            vec![vm_spec(2.0, 1024.0, 10.0); 2],
            vec![AffinityRule::new(
                AffinityKind::DifferentDatacenter,
                vec![VmId(2), VmId(3)],
            )],
        );
        AllocationProblem::new(infra, batch, None)
    }

    #[test]
    fn dimensions_and_row_counts() {
        let p = problem_with_rules();
        let ilp = IlpFormulation::from_problem(&p);
        // 4 servers × 4 VMs placement + 4 activation.
        assert_eq!(ilp.n_vars, 16 + 4);
        let counts: std::collections::HashMap<_, _> = ilp.row_counts().into_iter().collect();
        assert_eq!(counts[&RowKind::Assignment], 4); // one per VM
        assert_eq!(counts[&RowKind::Capacity], 12); // m * h
        assert_eq!(counts[&RowKind::Activation], 16); // m * n
        assert_eq!(counts[&RowKind::SameServer], 4); // one pair × m servers
        assert_eq!(counts[&RowKind::DifferentDatacenter], 2); // per dc
    }

    #[test]
    fn ilp_feasibility_matches_model_feasibility() {
        let p = problem_with_rules();
        let ilp = IlpFormulation::from_problem(&p);
        // Exhaustively sweep all 4^4 = 256 assignments.
        for code in 0..256usize {
            let genes: Vec<usize> = (0..4).map(|k| (code >> (2 * k)) & 0b11).collect();
            let a = Assignment::from_genes(&genes);
            let solution = ilp.solution_of(&a);
            assert_eq!(
                ilp.is_feasible(&solution),
                p.is_feasible(&a),
                "disagreement on genes {genes:?}: ilp rows {:?}",
                ilp.violated_rows(&solution)
                    .iter()
                    .map(|c| c.kind)
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn ilp_objective_matches_usage_opex() {
        let p = problem_with_rules();
        let ilp = IlpFormulation::from_problem(&p);
        for code in [0usize, 27, 99, 255] {
            let genes: Vec<usize> = (0..4).map(|k| (code >> (2 * k)) & 0b11).collect();
            let a = Assignment::from_genes(&genes);
            let solution = ilp.solution_of(&a);
            let model_cost = p.evaluate(&a).usage_opex;
            let ilp_cost = ilp.objective_value(&solution);
            assert!(
                (model_cost - ilp_cost).abs() < 1e-9,
                "genes {genes:?}: model {model_cost} vs ilp {ilp_cost}"
            );
        }
    }

    #[test]
    fn incomplete_assignment_fails_assignment_rows() {
        let p = problem_with_rules();
        let ilp = IlpFormulation::from_problem(&p);
        let a = Assignment::unassigned(4);
        let solution = ilp.solution_of(&a);
        assert!(!ilp.is_feasible(&solution));
        assert!(ilp
            .violated_rows(&solution)
            .iter()
            .all(|c| c.kind == RowKind::Assignment));
    }

    #[test]
    fn activation_rows_force_y_when_x_set() {
        let p = problem_with_rules();
        let ilp = IlpFormulation::from_problem(&p);
        let mut a = Assignment::unassigned(4);
        for k in 0..4 {
            a.assign(VmId(k), ServerId(0));
        }
        let mut solution = ilp.solution_of(&a);
        // Tamper: clear the activation bit while x stays set.
        solution[ilp.y(ServerId(0))] = 0.0;
        assert!(!ilp.is_feasible(&solution));
        assert!(ilp
            .violated_rows(&solution)
            .iter()
            .any(|c| c.kind == RowKind::Activation));
    }
}
