//! Server load computation (Eq. 25) with incremental updates.
//!
//! The paper defines the load of attribute `l` on server `j` as
//! `L_{jl} = Σ_k C_{kl}·X_{ijk} / P_{jl}`. Because the capacity constraint
//! (Eq. 4/16) bounds usage by the *effective* capacity `P_{jl}·F_{jl}`, we
//! normalise by the effective capacity so that `L = 1` exactly at the
//! admission limit; this keeps the QoS knee `L^M ∈ [0,1)` meaningful.
//!
//! [`LoadTracker`] supports O(h) incremental add/remove of a VM, which is
//! what makes the tabu-search repair loop and the CP packing propagator
//! cheap: neither ever recomputes a full `m × h` matrix per move.

use crate::assignment::Assignment;
use crate::attr::AttrId;
use crate::infrastructure::{Infrastructure, ServerId};
use crate::matrix::Matrix;
use crate::request::{RequestBatch, VmId};

/// Tracks per-server, per-attribute resource usage and derived load.
#[derive(Clone, Debug)]
pub struct LoadTracker {
    /// `m × h` absolute usage (sum of hosted demands).
    used: Matrix<f64>,
    /// Number of VMs hosted per server (for opex activation and usage cost).
    hosted: Vec<usize>,
}

impl LoadTracker {
    /// An empty tracker for `m` servers and `h` attributes.
    pub fn new(m: usize, h: usize) -> Self {
        Self {
            used: Matrix::zeros(m, h),
            hosted: vec![0; m],
        }
    }

    /// Builds a tracker reflecting a full assignment.
    pub fn from_assignment(
        assignment: &Assignment,
        batch: &RequestBatch,
        infra: &Infrastructure,
    ) -> Self {
        let mut t = Self::new(infra.server_count(), infra.attr_count());
        for (k, j) in assignment.iter_assigned() {
            t.add(k, j, batch);
        }
        t
    }

    /// Accounts VM `k`'s demand onto server `j`.
    #[inline]
    pub fn add(&mut self, k: VmId, j: ServerId, batch: &RequestBatch) {
        let demand = batch.demand(k);
        let row = self.used.row_mut(j.index());
        for (u, d) in row.iter_mut().zip(demand) {
            *u += d;
        }
        self.hosted[j.index()] += 1;
    }

    /// Removes VM `k`'s demand from server `j`.
    #[inline]
    pub fn remove(&mut self, k: VmId, j: ServerId, batch: &RequestBatch) {
        let demand = batch.demand(k);
        let row = self.used.row_mut(j.index());
        for (u, d) in row.iter_mut().zip(demand) {
            *u = (*u - d).max(0.0); // clamp fp noise
        }
        debug_assert!(self.hosted[j.index()] > 0, "removing from empty server");
        self.hosted[j.index()] -= 1;
    }

    /// Absolute usage of attribute `l` on server `j`.
    #[inline]
    pub fn used(&self, j: ServerId, l: AttrId) -> f64 {
        *self.used.get(j.index(), l.index())
    }

    /// Usage row of server `j`.
    #[inline]
    pub fn used_row(&self, j: ServerId) -> &[f64] {
        self.used.row(j.index())
    }

    /// Relative load `L_{jl}` (Eq. 25, normalised by effective capacity).
    /// Returns `f64::INFINITY` when a zero-capacity attribute has usage.
    #[inline]
    pub fn load(&self, j: ServerId, l: AttrId, infra: &Infrastructure) -> f64 {
        let cap = infra.effective_capacity(j, l);
        let used = self.used(j, l);
        if cap > 0.0 {
            used / cap
        } else if used > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    }

    /// Number of VMs hosted on server `j`.
    #[inline]
    pub fn hosted(&self, j: ServerId) -> usize {
        self.hosted[j.index()]
    }

    /// `true` when server `j` hosts at least one VM (activates opex `E_j`).
    #[inline]
    pub fn is_active(&self, j: ServerId) -> bool {
        self.hosted[j.index()] > 0
    }

    /// Would placing VM `k` on server `j` keep every attribute within the
    /// capacity constraint (Eq. 4/16)? O(h).
    pub fn fits(&self, k: VmId, j: ServerId, batch: &RequestBatch, infra: &Infrastructure) -> bool {
        let demand = batch.demand(k);
        let used = self.used.row(j.index());
        let cap = infra.effective_row(j);
        used.iter()
            .zip(demand)
            .zip(cap)
            .all(|((u, d), c)| u + d <= c + 1e-9)
    }

    /// Attributes of server `j` whose usage exceeds effective capacity,
    /// with the excess amount. Empty when the server satisfies Eq. 4/16.
    pub fn overloads(&self, j: ServerId, infra: &Infrastructure) -> Vec<(AttrId, f64)> {
        let mut out = Vec::new();
        self.overloads_into(j, infra, &mut out);
        out
    }

    /// As [`overloads`](Self::overloads) but writing into a caller-owned
    /// buffer — the allocation-free form the delta evaluator refreshes
    /// touched servers with.
    pub fn overloads_into(
        &self,
        j: ServerId,
        infra: &Infrastructure,
        out: &mut Vec<(AttrId, f64)>,
    ) {
        out.clear();
        let used = self.used.row(j.index());
        let cap = infra.effective_row(j);
        for (l, (u, c)) in used.iter().zip(cap).enumerate() {
            if u - c > 1e-9 {
                out.push((AttrId(l), u - c));
            }
        }
    }

    /// Recomputes server `j`'s usage row exactly from the VMs it hosts,
    /// added in slice order. Feeding the hosted VMs in ascending [`VmId`]
    /// order reproduces, bit for bit, the row [`from_assignment`] would
    /// build — which is what lets the delta evaluator stay bit-identical
    /// to a from-scratch rebuild after any apply/undo history.
    ///
    /// [`from_assignment`]: Self::from_assignment
    pub fn recompute_server(&mut self, j: ServerId, vms: &[VmId], batch: &RequestBatch) {
        let row = self.used.row_mut(j.index());
        row.fill(0.0);
        for &k in vms {
            let demand = batch.demand(k);
            for (u, d) in row.iter_mut().zip(demand) {
                *u += d;
            }
        }
        self.hosted[j.index()] = vms.len();
    }

    /// Servers violating the capacity constraint — the paper's
    /// `exceedingDetection` step of the tabu repair (Fig. 5, line 2).
    pub fn exceeding_servers(&self, infra: &Infrastructure) -> Vec<ServerId> {
        infra
            .server_ids()
            .filter(|&j| !self.overloads(j, infra).is_empty())
            .collect()
    }

    /// The full `m × h` relative load matrix (Eq. 25), materialised.
    pub fn load_matrix(&self, infra: &Infrastructure) -> Matrix<f64> {
        Matrix::from_fn(self.used.rows(), self.used.cols(), |j, l| {
            self.load(ServerId(j), AttrId(l), infra)
        })
    }

    /// Number of active (non-empty) servers.
    pub fn active_servers(&self) -> usize {
        self.hosted.iter().filter(|&&c| c > 0).count()
    }

    /// The exact ceiling for [`fits`](Self::fits) now: per attribute the
    /// largest headroom `c − u` over every server, with a slack that
    /// makes [`HeadroomCeiling::excludes`] imply that `fits` fails on
    /// every server. O(m·h).
    ///
    /// The slack is `fits`'s own tolerance `1e-9` plus a rounding guard
    /// of `1e-12·(1 + A)`, with `A` the attribute's largest `|c|`. Usage
    /// and demand are never negative (validated demands; `remove`
    /// clamps at zero). If a demand `d` fits on a server, `u + d` is at
    /// most about `A + 1e-9`, so every operand the two sides round —
    /// `c − u` here, `u + d` and `c + 1e-9` in `fits`, and the bound
    /// plus the slack in `excludes` — is at most `2(A + 1)` in
    /// magnitude. Each rounding then moves a side by at most
    /// `2⁻⁵³·2(A + 1)`, and all of them together by under `1e-15·(A + 1)`.
    /// A demand above the bound by more than the slack is therefore
    /// above every server's `c + 1e-9 − u` even after rounding, a
    /// thousandfold margin.
    pub fn headroom_ceiling(&self, infra: &Infrastructure) -> HeadroomCeiling {
        let h = self.used.cols();
        let mut largest = vec![0.0f64; h];
        let mut ceiling = HeadroomCeiling::over(h, []);
        for j in infra.server_ids() {
            for (a, c) in largest.iter_mut().zip(infra.effective_row(j)) {
                *a = a.max(c.abs());
            }
            self.raise_ceiling(&mut ceiling, j, infra);
        }
        ceiling.slack = largest.iter().map(|a| 1e-9 + 1e-12 * (1.0 + a)).collect();
        ceiling
    }

    /// Raises `ceiling` to cover server `j`'s headroom now — what a
    /// [`remove`](Self::remove) that frees room on `j` calls for. O(h).
    pub fn raise_ceiling(
        &self,
        ceiling: &mut HeadroomCeiling,
        j: ServerId,
        infra: &Infrastructure,
    ) {
        let used = self.used.row(j.index());
        let cap = infra.effective_row(j);
        ceiling.raise(cap.iter().zip(used).map(|(c, u)| c - u));
    }
}

/// A per-attribute upper bound on every server's headroom, so that a
/// demand no server can take is decided in O(h) instead of by an O(m)
/// scan that finds nothing.
///
/// The ceiling starts unbounded and excludes nothing. A caller sets it
/// exact after a scan that found no server, lets it stand while
/// headroom only shrinks, and raises it when a server's headroom grows.
/// A demand above the bound by more than the slack in some attribute
/// then fits on no server: a scan would find nothing, so skipping it
/// changes no decision.
#[derive(Clone, Debug)]
pub struct HeadroomCeiling {
    /// Per attribute, at least the headroom of every server.
    bound: Vec<f64>,
    /// Per attribute, how far a demand must exceed `bound` before no
    /// server can take it.
    slack: Vec<f64>,
}

impl HeadroomCeiling {
    /// No bound yet: excludes nothing.
    pub fn unbounded(h: usize) -> Self {
        Self {
            bound: vec![f64::INFINITY; h],
            slack: vec![0.0; h],
        }
    }

    /// The exact ceiling of `rows`, each one server's headroom per
    /// attribute, for a test that admits demand `d` on headroom `r` iff
    /// `d <= r` in every attribute: no slack, no rounding.
    pub fn over<'r>(h: usize, rows: impl IntoIterator<Item = &'r [f64]>) -> Self {
        let mut ceiling = Self {
            bound: vec![f64::NEG_INFINITY; h],
            slack: vec![0.0; h],
        };
        for row in rows {
            ceiling.raise(row.iter().copied());
        }
        ceiling
    }

    /// Raises the bound to cover one server's headroom.
    #[inline]
    pub fn raise(&mut self, headroom: impl IntoIterator<Item = f64>) {
        for (b, r) in self.bound.iter_mut().zip(headroom) {
            *b = b.max(r);
        }
    }

    /// Does `demand` exceed the bound by more than the slack in some
    /// attribute, so that it fits on no server? O(h).
    #[inline]
    pub fn excludes(&self, demand: &[f64]) -> bool {
        demand
            .iter()
            .zip(&self.bound)
            .zip(&self.slack)
            .any(|((d, b), s)| *d > b + s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrSet;
    use crate::infrastructure::{Infrastructure, ServerProfile};
    use crate::request::vm_spec;

    fn setup() -> (Infrastructure, RequestBatch) {
        let p = ServerProfile::commodity(3); // 32 cpu * 0.9 = 28.8 effective
        let infra = Infrastructure::new(AttrSet::standard(), vec![("dc0".into(), p.build_many(2))]);
        let mut batch = RequestBatch::new();
        batch.push_request(
            vec![vm_spec(4.0, 8192.0, 100.0), vm_spec(8.0, 16384.0, 200.0)],
            vec![],
        );
        (infra, batch)
    }

    #[test]
    fn add_remove_is_inverse() {
        let (infra, batch) = setup();
        let mut t = LoadTracker::new(2, 3);
        t.add(VmId(0), ServerId(0), &batch);
        t.add(VmId(1), ServerId(0), &batch);
        assert_eq!(t.used(ServerId(0), AttrId(0)), 12.0);
        assert_eq!(t.hosted(ServerId(0)), 2);
        t.remove(VmId(0), ServerId(0), &batch);
        assert_eq!(t.used(ServerId(0), AttrId(0)), 8.0);
        t.remove(VmId(1), ServerId(0), &batch);
        assert_eq!(t.used(ServerId(0), AttrId(0)), 0.0);
        assert!(!t.is_active(ServerId(0)));
        let _ = infra;
    }

    #[test]
    fn load_is_usage_over_effective_capacity() {
        let (infra, batch) = setup();
        let mut t = LoadTracker::new(2, 3);
        t.add(VmId(0), ServerId(0), &batch);
        // 4 vCPU over 28.8 effective
        assert!((t.load(ServerId(0), AttrId(0), &infra) - 4.0 / 28.8).abs() < 1e-12);
        assert_eq!(t.load(ServerId(1), AttrId(0), &infra), 0.0);
    }

    #[test]
    fn fits_respects_capacity_boundary() {
        let (infra, mut batch) = setup();
        // a VM demanding exactly the remaining effective CPU
        batch.push_request(vec![vm_spec(28.8, 1.0, 1.0)], vec![]);
        batch.push_request(vec![vm_spec(28.9, 1.0, 1.0)], vec![]);
        let t = LoadTracker::new(2, 3);
        assert!(t.fits(VmId(2), ServerId(0), &batch, &infra)); // exactly fits
        assert!(!t.fits(VmId(3), ServerId(0), &batch, &infra)); // exceeds
    }

    #[test]
    fn overloads_and_exceeding_servers_detect_violations() {
        let (infra, mut batch) = setup();
        batch.push_request(vec![vm_spec(30.0, 1.0, 1.0)], vec![]);
        let mut t = LoadTracker::new(2, 3);
        t.add(VmId(2), ServerId(1), &batch);
        let over = t.overloads(ServerId(1), &infra);
        assert_eq!(over.len(), 1);
        assert_eq!(over[0].0, AttrId(0));
        assert!((over[0].1 - (30.0 - 28.8)).abs() < 1e-9);
        assert_eq!(t.exceeding_servers(&infra), vec![ServerId(1)]);
        assert!(t.overloads(ServerId(0), &infra).is_empty());
    }

    #[test]
    fn from_assignment_matches_incremental() {
        let (infra, batch) = setup();
        let mut a = Assignment::unassigned(2);
        a.assign(VmId(0), ServerId(0));
        a.assign(VmId(1), ServerId(1));
        let t = LoadTracker::from_assignment(&a, &batch, &infra);
        assert_eq!(t.used(ServerId(0), AttrId(0)), 4.0);
        assert_eq!(t.used(ServerId(1), AttrId(0)), 8.0);
        assert_eq!(t.active_servers(), 2);
    }

    #[test]
    fn zero_capacity_attribute_yields_infinite_load_when_used() {
        let attrs = AttrSet::standard();
        let mut profile = ServerProfile::commodity(3);
        profile.capacity[2] = 0.0;
        let infra = Infrastructure::new(attrs, vec![("dc".into(), vec![profile.build()])]);
        let mut batch = RequestBatch::new();
        batch.push_request(vec![vm_spec(1.0, 1.0, 1.0)], vec![]);
        let mut t = LoadTracker::new(1, 3);
        t.add(VmId(0), ServerId(0), &batch);
        assert!(t.load(ServerId(0), AttrId(2), &infra).is_infinite());
    }

    #[test]
    fn load_matrix_has_model_shape() {
        let (infra, batch) = setup();
        let mut t = LoadTracker::new(2, 3);
        t.add(VmId(0), ServerId(0), &batch);
        let l = t.load_matrix(&infra);
        assert_eq!((l.rows(), l.cols()), (2, 3));
        assert!(l.is_nonnegative());
    }
}
