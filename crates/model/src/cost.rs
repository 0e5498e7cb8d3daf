//! The three monetised objectives of Eq. 15 and their aggregate.
//!
//! 1. **Usage and operating cost** (Eq. 22): `Σ_j E_j·active(j) + Σ_k U_j(k)`
//!    — each server that hosts at least one consumer resource incurs its
//!    opex `E_j` once, and each hosted resource incurs the server's usage
//!    cost `U_j`.
//! 2. **Downtime cost** (Eq. 23): the provider pays `C^U_k` scaled by how
//!    far the experienced QoS falls below the guarantee `C^Q_k`.
//! 3. **Migration cost** (Eq. 26): `Σ_k M_k` over VMs whose placement
//!    changed between `X^t` and `X^{t+1}`.
//!
//! *Reading of Eq. 23.* The paper writes the downtime term as
//! `C^U_k · (Q_jl / C^Q_k) · X_ijk`, but prose defines it as the penalty paid
//! "when the quality of service guarantee C^Q_k is not respected" — taken
//! literally the formula would charge *more* the *better* the QoS, which
//! contradicts the prose. We implement the prose: no penalty while
//! `Q ≥ C^Q_k`, and a shortfall-proportional penalty
//! `C^U_k · (1 − Q/C^Q_k)` once the guarantee is broken, which reduces to
//! the paper's ratio term up to an affine flip and preserves its behaviour
//! (monotone in QoS degradation, bounded by `C^U_k`). Recorded in DESIGN.md.

use crate::assignment::Assignment;
use crate::infrastructure::Infrastructure;
use crate::load::LoadTracker;
use crate::qos::worst_qos;
use crate::request::RequestBatch;

/// The three objective values (all monetised, lower is better).
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct ObjectiveVector {
    /// Usage + operating cost (Eq. 22).
    pub usage_opex: f64,
    /// Downtime / QoS-violation penalty (Eq. 23).
    pub downtime: f64,
    /// Reconfiguration-plan cost (Eq. 26).
    pub migration: f64,
}

impl ObjectiveVector {
    /// Equal-weight aggregate of Eq. 15 ("without loss of generality we
    /// assign equal weights to these objectives").
    pub fn total(&self) -> f64 {
        self.usage_opex + self.downtime + self.migration
    }

    /// The vector as a fixed array, in the paper's term order.
    pub fn as_array(&self) -> [f64; 3] {
        [self.usage_opex, self.downtime, self.migration]
    }

    /// Weighted aggregate for stakeholders that tune the objective weights.
    pub fn weighted(&self, w: [f64; 3]) -> f64 {
        self.usage_opex * w[0] + self.downtime * w[1] + self.migration * w[2]
    }

    /// Pareto dominance: `self` dominates `other` when it is no worse in
    /// every component and strictly better in at least one.
    pub fn dominates(&self, other: &ObjectiveVector) -> bool {
        let a = self.as_array();
        let b = other.as_array();
        let mut strictly = false;
        for (x, y) in a.iter().zip(&b) {
            if x > y {
                return false;
            }
            if x < y {
                strictly = true;
            }
        }
        strictly
    }
}

/// Usage and operating cost (Eq. 22) from tracked loads.
pub fn usage_opex_cost(tracker: &LoadTracker, infra: &Infrastructure) -> f64 {
    let mut cost = 0.0;
    for j in infra.server_ids() {
        let hosted = tracker.hosted(j);
        if hosted > 0 {
            let s = infra.server(j);
            cost += s.opex + s.usage_cost * hosted as f64;
        }
    }
    cost
}

/// The Eq. 23 penalty one resource pays given the worst QoS `q` of its
/// server — zero while the guarantee holds. Factored out so the full
/// evaluation and the incremental [`DeltaEvaluator`] compute the exact
/// same expression and stay bit-identical by construction.
///
/// [`DeltaEvaluator`]: crate::delta::DeltaEvaluator
#[inline]
pub fn downtime_penalty(terms: &crate::request::VmTerms, q: f64) -> f64 {
    let guarantee = terms.qos_guarantee;
    if guarantee > 0.0 && q < guarantee {
        terms.downtime_cost * (1.0 - q / guarantee)
    } else {
        0.0
    }
}

/// Downtime cost (Eq. 23, prose reading — see module docs).
pub fn downtime_cost(
    assignment: &Assignment,
    tracker: &LoadTracker,
    batch: &RequestBatch,
    infra: &Infrastructure,
) -> f64 {
    let mut per_server_qos: Vec<Option<f64>> = vec![None; infra.server_count()];
    let mut cost = 0.0;
    for (k, j) in assignment.iter_assigned() {
        let q = *per_server_qos[j.index()].get_or_insert_with(|| worst_qos(tracker, j, infra));
        cost += downtime_penalty(batch.terms(k), q);
    }
    cost
}

/// Migration (reconfiguration-plan) cost (Eq. 26): `Σ M_k` over moved VMs.
pub fn migration_cost(next: &Assignment, previous: &Assignment, batch: &RequestBatch) -> f64 {
    next.migrations_from(previous)
        .into_iter()
        .map(|k| batch.terms(k).migration_cost)
        .sum()
}

/// Evaluates the full objective vector of Eq. 15 for an assignment.
///
/// `previous` is the currently-running allocation `X^t`; pass `None` for an
/// initial placement (migration term is then zero).
pub fn evaluate(
    assignment: &Assignment,
    batch: &RequestBatch,
    infra: &Infrastructure,
    previous: Option<&Assignment>,
) -> ObjectiveVector {
    let tracker = LoadTracker::from_assignment(assignment, batch, infra);
    evaluate_with_tracker(assignment, &tracker, batch, infra, previous)
}

/// As [`evaluate`] but reuses an existing [`LoadTracker`] (hot path for the
/// evolutionary engine which keeps trackers per individual).
pub fn evaluate_with_tracker(
    assignment: &Assignment,
    tracker: &LoadTracker,
    batch: &RequestBatch,
    infra: &Infrastructure,
    previous: Option<&Assignment>,
) -> ObjectiveVector {
    ObjectiveVector {
        usage_opex: usage_opex_cost(tracker, infra),
        downtime: downtime_cost(assignment, tracker, batch, infra),
        migration: previous.map_or(0.0, |prev| migration_cost(assignment, prev, batch)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrSet;
    use crate::infrastructure::{Infrastructure, ServerId, ServerProfile};
    use crate::request::{vm_spec, VmId};

    fn infra(n_servers: usize) -> Infrastructure {
        let p = ServerProfile::commodity(3); // opex 10, usage 1
        Infrastructure::new(
            AttrSet::standard(),
            vec![("dc".into(), p.build_many(n_servers))],
        )
    }

    #[test]
    fn usage_opex_charges_active_servers_once_and_per_vm() {
        let infra = infra(3);
        let mut batch = RequestBatch::new();
        batch.push_request(vec![vm_spec(1.0, 10.0, 1.0); 3], vec![]);
        let mut a = Assignment::unassigned(3);
        a.assign(VmId(0), ServerId(0));
        a.assign(VmId(1), ServerId(0));
        a.assign(VmId(2), ServerId(1));
        let t = LoadTracker::from_assignment(&a, &batch, &infra);
        // server0: opex 10 + 2 VMs * 1; server1: opex 10 + 1; server2 idle.
        assert_eq!(usage_opex_cost(&t, &infra), 10.0 + 2.0 + 10.0 + 1.0);
    }

    #[test]
    fn consolidation_is_cheaper_than_spreading() {
        let infra = infra(2);
        let mut batch = RequestBatch::new();
        batch.push_request(vec![vm_spec(1.0, 10.0, 1.0); 2], vec![]);
        let mut spread = Assignment::unassigned(2);
        spread.assign(VmId(0), ServerId(0));
        spread.assign(VmId(1), ServerId(1));
        let mut packed = Assignment::unassigned(2);
        packed.assign(VmId(0), ServerId(0));
        packed.assign(VmId(1), ServerId(0));
        let c_spread = evaluate(&spread, &batch, &infra, None);
        let c_packed = evaluate(&packed, &batch, &infra, None);
        assert!(c_packed.usage_opex < c_spread.usage_opex);
    }

    #[test]
    fn downtime_zero_when_guarantee_met() {
        let infra = infra(1);
        let mut batch = RequestBatch::new();
        batch.push_request(vec![vm_spec(1.0, 10.0, 1.0)], vec![]);
        let mut a = Assignment::unassigned(1);
        a.assign(VmId(0), ServerId(0));
        let t = LoadTracker::from_assignment(&a, &batch, &infra);
        // Tiny load: QoS = 0.99 ≥ guarantee 0.95 → no penalty.
        assert_eq!(downtime_cost(&a, &t, &batch, &infra), 0.0);
    }

    #[test]
    fn downtime_grows_with_overload() {
        let infra = infra(1);
        let mut batch = RequestBatch::new();
        // Load CPU to ~0.90 (26/28.8) then ~0.97 (28/28.8): QoS degrades.
        let mut hot = vm_spec(26.0, 10.0, 1.0);
        hot.qos_guarantee = 0.98;
        let mut hotter = vm_spec(2.0, 10.0, 1.0);
        hotter.qos_guarantee = 0.98;
        batch.push_request(vec![hot, hotter], vec![]);
        let mut a1 = Assignment::unassigned(2);
        a1.assign(VmId(0), ServerId(0));
        let t1 = LoadTracker::from_assignment(&a1, &batch, &infra);
        let d1 = downtime_cost(&a1, &t1, &batch, &infra);
        let mut a2 = a1.clone();
        a2.assign(VmId(1), ServerId(0));
        let t2 = LoadTracker::from_assignment(&a2, &batch, &infra);
        let d2 = downtime_cost(&a2, &t2, &batch, &infra);
        assert!(d1 > 0.0, "past-knee load must incur a penalty, got {d1}");
        assert!(d2 > d1, "higher load must cost more ({d2} vs {d1})");
    }

    #[test]
    fn downtime_bounded_by_cu() {
        let infra = infra(1);
        let mut batch = RequestBatch::new();
        let mut vm = vm_spec(28.0, 10.0, 1.0);
        vm.qos_guarantee = 0.99;
        vm.downtime_cost = 5.0;
        batch.push_request(vec![vm], vec![]);
        let mut a = Assignment::unassigned(1);
        a.assign(VmId(0), ServerId(0));
        let t = LoadTracker::from_assignment(&a, &batch, &infra);
        let d = downtime_cost(&a, &t, &batch, &infra);
        assert!(d > 0.0 && d <= 5.0);
    }

    #[test]
    fn migration_cost_sums_moved_vms() {
        let infra = infra(2);
        let mut batch = RequestBatch::new();
        let mut v0 = vm_spec(1.0, 1.0, 1.0);
        v0.migration_cost = 3.0;
        let mut v1 = vm_spec(1.0, 1.0, 1.0);
        v1.migration_cost = 7.0;
        batch.push_request(vec![v0, v1], vec![]);
        let mut before = Assignment::unassigned(2);
        before.assign(VmId(0), ServerId(0));
        before.assign(VmId(1), ServerId(0));
        let mut after = before.clone();
        after.assign(VmId(1), ServerId(1)); // move only VM 1
        assert_eq!(migration_cost(&after, &before, &batch), 7.0);
        let _ = infra;
    }

    #[test]
    fn evaluate_composes_three_terms() {
        let infra = infra(2);
        let mut batch = RequestBatch::new();
        batch.push_request(vec![vm_spec(1.0, 10.0, 1.0); 2], vec![]);
        let mut before = Assignment::unassigned(2);
        before.assign(VmId(0), ServerId(0));
        before.assign(VmId(1), ServerId(0));
        let mut after = before.clone();
        after.assign(VmId(1), ServerId(1));
        let obj = evaluate(&after, &batch, &infra, Some(&before));
        assert_eq!(obj.migration, 1.0);
        assert_eq!(obj.usage_opex, 22.0); // two active servers, one VM each
        assert_eq!(obj.downtime, 0.0);
        assert_eq!(obj.total(), 23.0);
        assert_eq!(obj.as_array(), [22.0, 0.0, 1.0]);
    }

    #[test]
    fn dominance_is_strict_pareto() {
        let a = ObjectiveVector {
            usage_opex: 1.0,
            downtime: 1.0,
            migration: 1.0,
        };
        let b = ObjectiveVector {
            usage_opex: 2.0,
            downtime: 1.0,
            migration: 1.0,
        };
        let c = ObjectiveVector {
            usage_opex: 0.5,
            downtime: 2.0,
            migration: 1.0,
        };
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&a)); // no strict improvement
        assert!(!a.dominates(&c) && !c.dominates(&a)); // incomparable
    }

    #[test]
    fn weighted_aggregate_applies_weights() {
        let v = ObjectiveVector {
            usage_opex: 1.0,
            downtime: 2.0,
            migration: 3.0,
        };
        assert_eq!(v.weighted([1.0, 1.0, 1.0]), v.total());
        assert_eq!(v.weighted([2.0, 0.0, 1.0]), 5.0);
    }
}
