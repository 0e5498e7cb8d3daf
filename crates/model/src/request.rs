//! Consumer-side demand: requested virtual resources `N = {1, …, n}` with
//! their demand matrix `C` (Eq. 2), QoS guarantees `C^Q_k`, downtime
//! penalties `C^U_k` and migration costs `M_k` (Table I), grouped into user
//! *requests* that carry affinity/anti-affinity rules.

use crate::affinity::AffinityRule;
use crate::matrix::Matrix;

/// Global index of a requested virtual resource (the paper's `k ∈ N`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VmId(pub usize);

impl VmId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Index of a user request within a batch.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct RequestId(pub usize);

impl RequestId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// One requested virtual resource (VM, container, storage volume, …).
#[derive(Clone, Debug, PartialEq)]
pub struct VmSpec {
    /// Demand per attribute — row `k` of the paper's `C` matrix.
    pub demand: Vec<f64>,
    /// Quality-of-service level guaranteed to the consumer (`C^Q_k`,
    /// in `(0, 1)`): the minimum per-attribute QoS the provider promised.
    pub qos_guarantee: f64,
    /// Downtime penalty `C^U_k` paid by the provider when the guarantee is
    /// not respected.
    pub downtime_cost: f64,
    /// Cost `M_k` of migrating this resource in a reconfiguration plan.
    pub migration_cost: f64,
    /// Revenue the provider earns per window for hosting this resource —
    /// the consumer's price. Not in the paper's symbol table, but its
    /// evaluation argues in revenue terms ("designed to generate the
    /// largest revenues for the providers"); this field makes that claim
    /// measurable (net revenue = Σ revenue over accepted − Eq. 15 costs).
    pub revenue: f64,
}

impl VmSpec {
    /// Validates the spec against an attribute count `h`.
    pub fn validate(&self, h: usize) -> Result<(), String> {
        if self.demand.len() != h {
            return Err(format!(
                "demand must have {h} attributes, got {}",
                self.demand.len()
            ));
        }
        for &d in &self.demand {
            if !d.is_finite() || d < 0.0 {
                return Err(format!("demand must be finite and >= 0, got {d}"));
            }
        }
        if !(0.0..=1.0).contains(&self.qos_guarantee) {
            return Err(format!(
                "qos guarantee must be in [0,1], got {}",
                self.qos_guarantee
            ));
        }
        if !self.downtime_cost.is_finite() || self.downtime_cost < 0.0 {
            return Err(format!(
                "downtime cost must be >= 0, got {}",
                self.downtime_cost
            ));
        }
        if !self.migration_cost.is_finite() || self.migration_cost < 0.0 {
            return Err(format!(
                "migration cost must be >= 0, got {}",
                self.migration_cost
            ));
        }
        if !self.revenue.is_finite() || self.revenue < 0.0 {
            return Err(format!("revenue must be >= 0, got {}", self.revenue));
        }
        Ok(())
    }
}

/// A user request: a set of virtual resources plus the affinity and
/// anti-affinity rules that bind them (Section III of the paper).
///
/// A request is the unit of acceptance/rejection in the evaluation: either
/// all its resources are placed respecting every rule, or the request is
/// rejected as a whole.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Stable identifier within the batch.
    pub id: RequestId,
    /// The virtual resources belonging to this request.
    pub vms: Vec<VmId>,
    /// Affinity / anti-affinity rules over those resources.
    pub rules: Vec<AffinityRule>,
}

/// A batch of user requests processed inside one cyclic time window.
#[derive(Clone, Debug, Default)]
pub struct RequestBatch {
    vms: Vec<VmSpec>,
    requests: Vec<Request>,
    /// `vm_request[k]` = owning request of VM `k`.
    vm_request: Vec<RequestId>,
}

impl RequestBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a request made of `vms` with `rules`; returns its id.
    ///
    /// Rules may only reference the VMs being added here; this is checked.
    pub fn push_request(&mut self, vms: Vec<VmSpec>, rules: Vec<AffinityRule>) -> RequestId {
        assert!(
            !vms.is_empty(),
            "a request must contain at least one resource"
        );
        let id = RequestId(self.requests.len());
        let first = self.vms.len();
        let vm_ids: Vec<VmId> = (first..first + vms.len()).map(VmId).collect();
        for rule in &rules {
            for vm in rule.vms() {
                assert!(
                    vm_ids.contains(vm),
                    "rule references VM {vm:?} outside of request {id:?}"
                );
            }
        }
        for spec in vms {
            self.vms.push(spec);
            self.vm_request.push(id);
        }
        self.requests.push(Request {
            id,
            vms: vm_ids,
            rules,
        });
        id
    }

    /// Moves every request of `other` onto the end of this batch, in
    /// order: VM ids shift by this batch's VM count, request ids by its
    /// request count, and each rule is rebased by the same VM offset. No
    /// spec is cloned. Equivalent to re-pushing each of `other`'s
    /// requests with [`Self::push_request`], because a batch's requests
    /// own contiguous VM ranges in request order.
    pub fn append(&mut self, other: RequestBatch) {
        let vm_base = self.vms.len();
        let request_base = self.requests.len();
        self.vms.extend(other.vms);
        self.vm_request.extend(
            other
                .vm_request
                .into_iter()
                .map(|r| RequestId(r.0 + request_base)),
        );
        self.requests
            .extend(other.requests.into_iter().map(|mut req| {
                req.id = RequestId(req.id.0 + request_base);
                for k in &mut req.vms {
                    k.0 += vm_base;
                }
                for rule in &mut req.rules {
                    rule.rebase_vms(0, vm_base);
                }
                req
            }));
    }

    /// Total number of requested virtual resources `n`.
    #[inline]
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// Number of user requests in the batch.
    #[inline]
    pub fn request_count(&self) -> usize {
        self.requests.len()
    }

    /// Spec of VM `k`.
    #[inline]
    pub fn vm(&self, k: VmId) -> &VmSpec {
        &self.vms[k.index()]
    }

    /// All VM specs, indexed by [`VmId`].
    pub fn vms(&self) -> &[VmSpec] {
        &self.vms
    }

    /// All requests.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Request `r`.
    #[inline]
    pub fn request(&self, r: RequestId) -> &Request {
        &self.requests[r.index()]
    }

    /// Owning request of VM `k`.
    #[inline]
    pub fn request_of(&self, k: VmId) -> RequestId {
        self.vm_request[k.index()]
    }

    /// Iterator over all VM ids.
    pub fn vm_ids(&self) -> impl Iterator<Item = VmId> {
        (0..self.vms.len()).map(VmId)
    }

    /// Iterator over all request ids.
    pub fn request_ids(&self) -> impl Iterator<Item = RequestId> {
        (0..self.requests.len()).map(RequestId)
    }

    /// Materialises the consumer demand matrix `C` (`n × h`).
    ///
    /// # Panics
    /// Panics if the batch is empty or VMs disagree on attribute count.
    pub fn demand_matrix(&self) -> Matrix<f64> {
        assert!(!self.vms.is_empty(), "empty batch has no demand matrix");
        let h = self.vms[0].demand.len();
        Matrix::from_fn(self.vms.len(), h, |k, l| self.vms[k].demand[l])
    }

    /// Validates every VM spec against attribute count `h`.
    pub fn validate(&self, h: usize) -> Result<(), String> {
        for (k, vm) in self.vms.iter().enumerate() {
            vm.validate(h).map_err(|e| format!("vm {k}: {e}"))?;
        }
        Ok(())
    }

    /// Builds a new batch containing only the requests at `indices`, in
    /// that order. VM ids and request ids are renumbered densely from 0;
    /// affinity rules are rebased onto the new [`VmId`]s. Used by the
    /// sharded scheduler to hand each shard its slice of a window's
    /// arrivals as a self-contained batch.
    ///
    /// Every request owns a contiguous VM range (see
    /// [`Self::push_request`] and [`Self::append`]), so each request's
    /// specs are cloned as one run and its rules move by one offset.
    ///
    /// # Panics
    /// Panics if an index is out of range or repeated.
    pub fn subset(&self, indices: &[usize]) -> RequestBatch {
        let vm_total = indices
            .iter()
            .filter_map(|&r| self.requests.get(r))
            .map(|req| req.vms.len())
            .sum();
        let mut out = RequestBatch {
            vms: Vec::with_capacity(vm_total),
            requests: Vec::with_capacity(indices.len()),
            vm_request: Vec::with_capacity(vm_total),
        };
        let mut seen = vec![false; self.requests.len()];
        for &r in indices {
            assert!(r < self.requests.len(), "request index {r} out of range");
            assert!(!seen[r], "request index {r} repeated in subset");
            seen[r] = true;
            let req = &self.requests[r];
            let id = RequestId(out.requests.len());
            let (first, base) = (req.vms[0].index(), out.vms.len());
            let range = first..first + req.vms.len();
            let rules = req
                .rules
                .iter()
                .map(|rule| {
                    assert!(
                        rule.vms().iter().all(|v| range.contains(&v.index())),
                        "rule references VM outside its request"
                    );
                    let mut rebased = rule.clone();
                    rebased.rebase_vms(first, base);
                    rebased
                })
                .collect();
            out.vms.extend_from_slice(&self.vms[range.clone()]);
            out.vm_request.resize(out.vms.len(), id);
            out.requests.push(Request {
                id,
                vms: (base..out.vms.len()).map(VmId).collect(),
                rules,
            });
        }
        out
    }

    /// Total demand across the batch per attribute — used by scenario
    /// generators to target utilisation.
    pub fn total_demand(&self, h: usize) -> Vec<f64> {
        let mut tot = vec![0.0; h];
        for vm in &self.vms {
            for (l, t) in tot.iter_mut().enumerate() {
                *t += vm.demand.get(l).copied().unwrap_or(0.0);
            }
        }
        tot
    }
}

/// Convenience constructor for a VM spec with standard attributes
/// (CPU cores, RAM MiB, disk GiB) and typical cost parameters.
pub fn vm_spec(cpu: f64, ram: f64, disk: f64) -> VmSpec {
    VmSpec {
        demand: vec![cpu, ram, disk],
        qos_guarantee: 0.95,
        downtime_cost: 5.0,
        migration_cost: 1.0,
        // Simple linear price dominated by CPU, floored above typical
        // usage cost so hosting is profitable by default.
        revenue: 2.0 + cpu * 1.5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affinity::{AffinityKind, AffinityRule};
    use proptest::prelude::*;

    #[test]
    fn push_request_assigns_global_vm_ids() {
        let mut b = RequestBatch::new();
        let r0 = b.push_request(vec![vm_spec(1.0, 1024.0, 10.0); 2], vec![]);
        let r1 = b.push_request(vec![vm_spec(2.0, 2048.0, 20.0); 3], vec![]);
        assert_eq!(b.vm_count(), 5);
        assert_eq!(b.request(r0).vms, vec![VmId(0), VmId(1)]);
        assert_eq!(b.request(r1).vms, vec![VmId(2), VmId(3), VmId(4)]);
        assert_eq!(b.request_of(VmId(3)), r1);
    }

    #[test]
    fn rules_must_reference_own_vms() {
        let mut b = RequestBatch::new();
        b.push_request(vec![vm_spec(1.0, 1.0, 1.0)], vec![]);
        let rule = AffinityRule::new(AffinityKind::SameServer, vec![VmId(0), VmId(1)]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.push_request(vec![vm_spec(1.0, 1.0, 1.0)], vec![rule]);
        }));
        assert!(result.is_err(), "cross-request rule should panic");
    }

    #[test]
    fn demand_matrix_matches_specs() {
        let mut b = RequestBatch::new();
        b.push_request(
            vec![vm_spec(1.0, 1024.0, 10.0), vm_spec(2.0, 2048.0, 20.0)],
            vec![],
        );
        let c = b.demand_matrix();
        assert_eq!((c.rows(), c.cols()), (2, 3));
        assert_eq!(c[(1, 1)], 2048.0);
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut spec = vm_spec(1.0, 1.0, 1.0);
        spec.qos_guarantee = 1.5;
        assert!(spec.validate(3).is_err());
        let mut spec2 = vm_spec(1.0, 1.0, 1.0);
        spec2.demand[0] = -1.0;
        assert!(spec2.validate(3).is_err());
        assert!(vm_spec(1.0, 1.0, 1.0).validate(2).is_err());
    }

    #[test]
    fn total_demand_sums_attributes() {
        let mut b = RequestBatch::new();
        b.push_request(
            vec![vm_spec(1.0, 10.0, 100.0), vm_spec(2.0, 20.0, 200.0)],
            vec![],
        );
        assert_eq!(b.total_demand(3), vec![3.0, 30.0, 300.0]);
    }

    #[test]
    #[should_panic(expected = "at least one resource")]
    fn empty_request_rejected() {
        let mut b = RequestBatch::new();
        b.push_request(vec![], vec![]);
    }

    #[test]
    fn subset_renumbers_vms_and_rebases_rules() {
        let mut b = RequestBatch::new();
        b.push_request(vec![vm_spec(1.0, 1.0, 1.0); 2], vec![]);
        b.push_request(
            vec![vm_spec(2.0, 2.0, 2.0); 3],
            vec![AffinityRule::new(
                AffinityKind::DifferentServer,
                vec![VmId(2), VmId(4)],
            )],
        );
        b.push_request(vec![vm_spec(3.0, 3.0, 3.0)], vec![]);

        // Take requests 2 and 1, in that order.
        let s = b.subset(&[2, 1]);
        assert_eq!(s.request_count(), 2);
        assert_eq!(s.vm_count(), 4);
        assert_eq!(s.request(RequestId(0)).vms, vec![VmId(0)]);
        assert_eq!(s.vm(VmId(0)).demand, vec![3.0, 3.0, 3.0]);
        assert_eq!(s.request(RequestId(1)).vms, vec![VmId(1), VmId(2), VmId(3)]);
        // Old rule over VmId(2)/VmId(4) (positions 0 and 2 within its
        // request) must now point at VmId(1)/VmId(3).
        let rule = &s.request(RequestId(1)).rules[0];
        assert_eq!(rule.kind(), AffinityKind::DifferentServer);
        assert_eq!(rule.vms(), &[VmId(1), VmId(3)]);
        assert_eq!(s.request_of(VmId(3)), RequestId(1));
    }

    #[test]
    fn subset_of_everything_matches_original_shape() {
        let mut b = RequestBatch::new();
        b.push_request(vec![vm_spec(1.0, 10.0, 100.0)], vec![]);
        b.push_request(vec![vm_spec(2.0, 20.0, 200.0); 2], vec![]);
        let s = b.subset(&[0, 1]);
        assert_eq!(s.vm_count(), b.vm_count());
        assert_eq!(s.request_count(), b.request_count());
        assert_eq!(s.total_demand(3), b.total_demand(3));
    }

    /// A two-request batch with a rule on the second request.
    fn ruled_batch(cpu: f64) -> RequestBatch {
        let mut b = RequestBatch::new();
        b.push_request(vec![vm_spec(cpu, 1.0, 1.0); 2], vec![]);
        b.push_request(
            vec![vm_spec(cpu + 1.0, 2.0, 2.0); 3],
            vec![
                AffinityRule::new(AffinityKind::DifferentServer, vec![VmId(4), VmId(2)]),
                AffinityRule::new(AffinityKind::SameDatacenter, vec![VmId(3), VmId(4)]),
            ],
        );
        b
    }

    #[test]
    fn append_shifts_ids_and_rebases_rules() {
        let mut b = ruled_batch(1.0);
        b.append(ruled_batch(5.0));
        assert_eq!((b.request_count(), b.vm_count()), (4, 10));
        let r2 = b.request(RequestId(2));
        assert_eq!(r2.id, RequestId(2));
        assert_eq!(r2.vms, vec![VmId(5), VmId(6)]);
        let r3 = b.request(RequestId(3));
        assert_eq!(r3.id, RequestId(3));
        assert_eq!(r3.vms, vec![VmId(7), VmId(8), VmId(9)]);
        // Rules keep their kind and their (unsorted) resource order.
        assert_eq!(r3.rules[0].kind(), AffinityKind::DifferentServer);
        assert_eq!(r3.rules[0].vms(), &[VmId(9), VmId(7)]);
        assert_eq!(r3.rules[1].vms(), &[VmId(8), VmId(9)]);
        let owners: Vec<usize> = b.vm_ids().map(|k| b.request_of(k).index()).collect();
        assert_eq!(owners, vec![0, 0, 1, 1, 1, 2, 2, 3, 3, 3]);
        assert_eq!(b.vm(VmId(5)).demand, vec![5.0, 1.0, 1.0]);
        assert_eq!(b.vm(VmId(9)).demand, vec![6.0, 2.0, 2.0]);
    }

    #[test]
    fn append_matches_request_by_request_rebuild() {
        // The clone-and-rebase construction `append` replaces: re-push
        // every request of every part, mapping rule VMs to their position
        // within the request plus the merged batch's VM count.
        let parts = [ruled_batch(1.0), RequestBatch::new(), ruled_batch(3.0)];
        let mut expected = RequestBatch::new();
        for part in &parts {
            for req in part.requests() {
                let base = expected.vm_count();
                let vms = req.vms.iter().map(|&k| part.vm(k).clone()).collect();
                let rules = req
                    .rules
                    .iter()
                    .map(|rule| {
                        let local = |v: &VmId| req.vms.iter().position(|k| k == v).unwrap();
                        let rebased = rule.vms().iter().map(|v| VmId(base + local(v)));
                        AffinityRule::new(rule.kind(), rebased.collect())
                    })
                    .collect();
                expected.push_request(vms, rules);
            }
        }
        let mut merged = RequestBatch::new();
        for part in parts {
            merged.append(part);
        }
        assert_eq!(merged.vms(), expected.vms());
        assert_eq!(merged.requests(), expected.requests());
        assert_eq!(merged.vm_request, expected.vm_request);
    }

    #[test]
    #[should_panic(expected = "repeated in subset")]
    fn subset_rejects_duplicates() {
        let mut b = RequestBatch::new();
        b.push_request(vec![vm_spec(1.0, 1.0, 1.0)], vec![]);
        b.subset(&[0, 0]);
    }

    /// `subset` as it was built before the copy-light loop: re-push each
    /// request, finding every rule VM's position by a linear search.
    fn subset_by_repush(batch: &RequestBatch, indices: &[usize]) -> RequestBatch {
        let mut out = RequestBatch::new();
        for &r in indices {
            let req = &batch.requests[r];
            let base = out.vms.len();
            let vms = req
                .vms
                .iter()
                .map(|&k| batch.vms[k.index()].clone())
                .collect();
            let rules = req
                .rules
                .iter()
                .map(|rule| {
                    let pos = |v: &VmId| req.vms.iter().position(|k| k == v).unwrap();
                    let rebased = rule.vms().iter().map(|v| VmId(base + pos(v)));
                    AffinityRule::new(rule.kind(), rebased.collect())
                })
                .collect();
            out.push_request(vms, rules);
        }
        out
    }

    /// One generated request: its VM count and `(kind, member bits,
    /// rotation)` per candidate rule.
    type RequestShape = (usize, Vec<(usize, u32, usize)>);

    fn request_shape() -> impl Strategy<Value = RequestShape> {
        (
            1usize..6,
            collection::vec((0usize..4, 0u32..64, 0usize..6), 0..4),
        )
    }

    /// Builds a batch from shapes: VM `k` demands `k + 1` CPUs so every
    /// spec is distinct, and each rule binds the VMs its bits select (two
    /// or more), rotated so rule order differs from VM order.
    fn shaped_batch(shapes: &[RequestShape]) -> RequestBatch {
        const KINDS: [AffinityKind; 4] = [
            AffinityKind::SameDatacenter,
            AffinityKind::SameServer,
            AffinityKind::DifferentDatacenter,
            AffinityKind::DifferentServer,
        ];
        let mut b = RequestBatch::new();
        for (vm_count, rules) in shapes {
            let first = b.vm_count();
            let vms = (first..first + vm_count)
                .map(|k| vm_spec(k as f64 + 1.0, 512.0, 8.0))
                .collect();
            let rules = rules
                .iter()
                .filter_map(|&(kind, bits, rotation)| {
                    let mut members: Vec<VmId> = (0..*vm_count)
                        .filter(|i| bits & (1 << i) != 0)
                        .map(|i| VmId(first + i))
                        .collect();
                    if members.len() < 2 {
                        return None;
                    }
                    let turn = rotation % members.len();
                    members.rotate_left(turn);
                    Some(AffinityRule::new(KINDS[kind], members))
                })
                .collect();
            b.push_request(vms, rules);
        }
        b
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn subset_equals_the_repush_oracle(
            shapes in collection::vec(request_shape(), 1..12),
            keys in collection::vec((0u64..1_000, 0u8..3), 12),
        ) {
            let batch = shaped_batch(&shapes);
            // A random order over a random selection (about two thirds).
            let mut indices: Vec<usize> = (0..batch.request_count())
                .filter(|&r| keys[r].1 != 0)
                .collect();
            indices.sort_by_key(|&r| keys[r].0);
            let fast = batch.subset(&indices);
            let oracle = subset_by_repush(&batch, &indices);
            prop_assert_eq!(fast.vms(), oracle.vms());
            prop_assert_eq!(fast.requests(), oracle.requests());
            prop_assert_eq!(&fast.vm_request, &oracle.vm_request);
        }
    }
}
