//! Consumer-side demand: requested virtual resources `N = {1, …, n}` with
//! their demand matrix `C` (Eq. 2), QoS guarantees `C^Q_k`, downtime
//! penalties `C^U_k` and migration costs `M_k` (Table I), grouped into user
//! *requests* that carry affinity/anti-affinity rules.
//!
//! A [`RequestBatch`] stores its VMs flat: `C` as one row-major `n × h`
//! matrix and one plain-data [`VmTerms`] record per VM, and each
//! [`Request`] owns a contiguous [`VmRange`]. Appending a request writes
//! its rows in place, and [`RequestBatch::append`]/[`RequestBatch::subset`]
//! are slice copies, so a batch that is cleared and refilled (the
//! scheduler's window batch) stops allocating once it has grown to size.
//! [`VmSpec`] is the input form a request is pushed from.

use crate::affinity::AffinityRule;

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

/// The per-VM scalar terms of a request: what the consumer is guaranteed
/// and what hosting the resource earns and risks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VmTerms {
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

impl VmTerms {
    /// Validates the terms: a guarantee in `[0, 1]`, finite non-negative
    /// costs and revenue.
    pub fn validate(&self) -> Result<(), String> {
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

/// Validates one demand row against an attribute count `h`.
fn validate_demand(demand: &[f64], h: usize) -> Result<(), String> {
    if demand.len() != h {
        return Err(format!(
            "demand must have {h} attributes, got {}",
            demand.len()
        ));
    }
    for &d in demand {
        if !d.is_finite() || d < 0.0 {
            return Err(format!("demand must be finite and >= 0, got {d}"));
        }
    }
    Ok(())
}

/// One requested virtual resource (VM, container, storage volume, …), the
/// input form of [`RequestBatch::push_request`].
#[derive(Clone, Debug, PartialEq)]
pub struct VmSpec {
    /// Demand per attribute — row `k` of the paper's `C` matrix.
    pub demand: Vec<f64>,
    /// See [`VmTerms::qos_guarantee`].
    pub qos_guarantee: f64,
    /// See [`VmTerms::downtime_cost`].
    pub downtime_cost: f64,
    /// See [`VmTerms::migration_cost`].
    pub migration_cost: f64,
    /// See [`VmTerms::revenue`].
    pub revenue: f64,
}

impl VmSpec {
    /// The spec's scalar terms.
    pub fn terms(&self) -> VmTerms {
        VmTerms {
            qos_guarantee: self.qos_guarantee,
            downtime_cost: self.downtime_cost,
            migration_cost: self.migration_cost,
            revenue: self.revenue,
        }
    }

    /// Validates the spec against an attribute count `h`.
    pub fn validate(&self, h: usize) -> Result<(), String> {
        validate_demand(&self.demand, h)?;
        self.terms().validate()
    }
}

/// The contiguous range of [`VmId`]s one request owns within its batch.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct VmRange {
    start: usize,
    end: usize,
}

impl VmRange {
    /// VMs `start..end`.
    pub fn new(start: usize, end: usize) -> Self {
        assert!(start <= end, "VM range {start}..{end} is reversed");
        Self { start, end }
    }

    /// Number of VMs.
    #[inline]
    pub fn len(self) -> usize {
        self.end - self.start
    }

    /// `true` when the range holds no VM.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }

    /// The `i`-th VM of the range.
    #[inline]
    pub fn at(self, i: usize) -> VmId {
        assert!(i < self.len(), "VM {i} of a {}-VM range", self.len());
        VmId(self.start + i)
    }

    /// Does the range hold `k`?
    #[inline]
    pub fn contains(self, k: VmId) -> bool {
        (self.start..self.end).contains(&k.0)
    }

    /// Position of `k` within the range.
    #[inline]
    pub fn position(self, k: VmId) -> Option<usize> {
        self.contains(k).then(|| k.0 - self.start)
    }

    /// Raw VM indices.
    #[inline]
    pub fn indices(self) -> std::ops::Range<usize> {
        self.start..self.end
    }

    /// The VMs, in order.
    #[inline]
    pub fn iter(self) -> VmIter {
        self.into_iter()
    }
}

impl IntoIterator for VmRange {
    type Item = VmId;
    type IntoIter = VmIter;

    fn into_iter(self) -> VmIter {
        VmIter(self.indices())
    }
}

/// The VMs of a [`VmRange`], in order.
#[derive(Clone, Debug)]
pub struct VmIter(std::ops::Range<usize>);

impl Iterator for VmIter {
    type Item = VmId;

    #[inline]
    fn next(&mut self) -> Option<VmId> {
        self.0.next().map(VmId)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for VmIter {}

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
    pub vms: VmRange,
    /// Affinity / anti-affinity rules over those resources.
    pub rules: Vec<AffinityRule>,
}

/// A batch of user requests processed inside one cyclic time window.
///
/// Requests own contiguous VM ranges in request order, so VM `k`'s demand
/// row, terms and owning request sit at index `k` of flat columns.
#[derive(Clone, Debug, Default)]
pub struct RequestBatch {
    /// Attributes per VM (`h`); fixed by the first VM pushed.
    h: usize,
    /// The demand matrix `C`, row-major `n × h`.
    demand: Vec<f64>,
    /// `terms[k]` = scalar terms of VM `k`.
    terms: Vec<VmTerms>,
    requests: Vec<Request>,
    /// `vm_request[k]` = owning request of VM `k`.
    vm_request: Vec<RequestId>,
}

/// Batches are equal when they hold the same requests over the same VMs
/// (the attribute count follows from the rows).
impl PartialEq for RequestBatch {
    fn eq(&self, other: &Self) -> bool {
        self.demand == other.demand
            && self.terms == other.terms
            && self.requests == other.requests
            && self.vm_request == other.vm_request
    }
}

impl RequestBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the batch, keeping its storage for the next fill.
    pub fn clear(&mut self) {
        self.demand.clear();
        self.terms.clear();
        self.requests.clear();
        self.vm_request.clear();
    }

    /// Appends a request made of `vms` with `rules`; returns its id.
    ///
    /// # Panics
    /// Panics if `vms` is empty, a demand row's length differs from the
    /// batch's, or a rule references a VM outside this request.
    pub fn push_request(&mut self, vms: Vec<VmSpec>, rules: Vec<AffinityRule>) -> RequestId {
        self.push_request_rows(
            vms.iter()
                .map(|spec| (spec.demand.as_slice(), spec.terms())),
            rules,
        )
    }

    /// Appends a request whose VMs are `rows` of `(demand row, terms)`,
    /// written straight into the flat columns (no per-VM allocation);
    /// returns its id. The rows are consumed in order, so an iterator
    /// that draws each VM's terms draws them in VM order.
    ///
    /// # Panics
    /// As [`Self::push_request`].
    pub fn push_request_rows<'a>(
        &mut self,
        rows: impl IntoIterator<Item = (&'a [f64], VmTerms)>,
        rules: Vec<AffinityRule>,
    ) -> RequestId {
        let id = RequestId(self.requests.len());
        let first = self.vm_count();
        for (demand, terms) in rows {
            if self.terms.is_empty() {
                self.h = demand.len();
            }
            assert_eq!(
                demand.len(),
                self.h,
                "demand rows of one batch must share one attribute count"
            );
            self.demand.extend_from_slice(demand);
            self.terms.push(terms);
            self.vm_request.push(id);
        }
        let vms = VmRange::new(first, self.vm_count());
        assert!(
            !vms.is_empty(),
            "a request must contain at least one resource"
        );
        let stray = rules
            .iter()
            .flat_map(|rule| rule.vms())
            .find(|&&k| !vms.contains(k));
        if let Some(k) = stray {
            // Leave the batch as it was before the call.
            self.demand.truncate(first * self.h);
            self.terms.truncate(first);
            self.vm_request.truncate(first);
            panic!("rule references VM {k:?} outside of request {id:?}");
        }
        self.requests.push(Request { id, vms, rules });
        id
    }

    /// Moves every request of `other` onto the end of this batch, in
    /// order: VM ids shift by this batch's VM count, request ids by its
    /// request count, and each rule is rebased by the same VM offset. The
    /// VM columns are slice copies and the rules move, so this is
    /// equivalent to re-pushing each of `other`'s requests with
    /// [`Self::push_request`].
    ///
    /// # Panics
    /// Panics if both batches hold VMs of different attribute counts.
    pub fn append(&mut self, other: RequestBatch) {
        if other.terms.is_empty() {
            return;
        }
        if self.terms.is_empty() {
            self.h = other.h;
        }
        assert_eq!(
            self.h, other.h,
            "appended batch has another attribute count"
        );
        let vm_base = self.vm_count();
        let request_base = self.requests.len();
        self.demand.extend_from_slice(&other.demand);
        self.terms.extend_from_slice(&other.terms);
        self.vm_request.extend(
            other
                .vm_request
                .iter()
                .map(|r| RequestId(r.0 + request_base)),
        );
        self.requests
            .extend(other.requests.into_iter().map(|mut req| {
                req.id = RequestId(req.id.0 + request_base);
                req.vms = VmRange::new(req.vms.start + vm_base, req.vms.end + vm_base);
                for rule in &mut req.rules {
                    rule.rebase_vms(0, vm_base);
                }
                req
            }));
    }

    /// Total number of requested virtual resources `n`.
    #[inline]
    pub fn vm_count(&self) -> usize {
        self.terms.len()
    }

    /// Number of user requests in the batch.
    #[inline]
    pub fn request_count(&self) -> usize {
        self.requests.len()
    }

    /// Demand row of VM `k` (row `k` of `C`).
    #[inline]
    pub fn demand(&self, k: VmId) -> &[f64] {
        let base = k.index() * self.h;
        &self.demand[base..base + self.h]
    }

    /// The demand rows of `vms`, row-major and contiguous.
    #[inline]
    pub fn demand_rows(&self, vms: VmRange) -> &[f64] {
        &self.demand[vms.start * self.h..vms.end * self.h]
    }

    /// Scalar terms of VM `k`.
    #[inline]
    pub fn terms(&self, k: VmId) -> &VmTerms {
        &self.terms[k.index()]
    }

    /// VM `k` rebuilt as a standalone [`VmSpec`] (allocates its demand
    /// row), for state that outlives the batch.
    pub fn spec(&self, k: VmId) -> VmSpec {
        let terms = self.terms(k);
        VmSpec {
            demand: self.demand(k).to_vec(),
            qos_guarantee: terms.qos_guarantee,
            downtime_cost: terms.downtime_cost,
            migration_cost: terms.migration_cost,
            revenue: terms.revenue,
        }
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
        (0..self.vm_count()).map(VmId)
    }

    /// Iterator over all request ids.
    pub fn request_ids(&self) -> impl Iterator<Item = RequestId> {
        (0..self.requests.len()).map(RequestId)
    }

    /// Validates every VM against attribute count `h`.
    pub fn validate(&self, h: usize) -> Result<(), String> {
        for k in self.vm_ids() {
            validate_demand(self.demand(k), h)
                .and_then(|()| self.terms(k).validate())
                .map_err(|e| format!("vm {}: {e}", k.index()))?;
        }
        Ok(())
    }

    /// Builds a new batch containing only the requests at `indices`, in
    /// that order. VM ids and request ids are renumbered densely from 0;
    /// affinity rules are rebased onto the new [`VmId`]s. Used by the
    /// sharded scheduler to hand each shard its slice of a window's
    /// arrivals as a self-contained batch.
    ///
    /// Every request owns a contiguous VM range, so each request's rows
    /// and terms are copied as one run and its rules move by one offset.
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
            h: self.h,
            demand: Vec::with_capacity(vm_total * self.h),
            terms: Vec::with_capacity(vm_total),
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
            let (first, base) = (req.vms.start, out.vm_count());
            let rules = req
                .rules
                .iter()
                .map(|rule| {
                    assert!(
                        rule.vms().iter().all(|&v| req.vms.contains(v)),
                        "rule references VM outside its request"
                    );
                    let mut rebased = rule.clone();
                    rebased.rebase_vms(first, base);
                    rebased
                })
                .collect();
            out.demand.extend_from_slice(self.demand_rows(req.vms));
            out.terms.extend_from_slice(&self.terms[req.vms.indices()]);
            out.vm_request.resize(out.terms.len(), id);
            out.requests.push(Request {
                id,
                vms: VmRange::new(base, out.vm_count()),
                rules,
            });
        }
        out
    }

    /// Total demand across the batch per attribute — used by scenario
    /// generators to target utilisation.
    pub fn total_demand(&self, h: usize) -> Vec<f64> {
        let mut tot = vec![0.0; h];
        for k in self.vm_ids() {
            for (t, d) in tot.iter_mut().zip(self.demand(k)) {
                *t += d;
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
        assert_eq!(b.request(r0).vms, VmRange::new(0, 2));
        assert_eq!(b.request(r1).vms, VmRange::new(2, 5));
        let ids: Vec<VmId> = b.request(r1).vms.into_iter().collect();
        assert_eq!(ids, vec![VmId(2), VmId(3), VmId(4)]);
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
        // The failed push left the batch as it was.
        let mut expected = RequestBatch::new();
        expected.push_request(vec![vm_spec(1.0, 1.0, 1.0)], vec![]);
        assert_eq!(b, expected);
        assert_eq!(b.demand_rows(VmRange::new(0, 1)), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn flat_rows_match_the_pushed_specs() {
        let mut b = RequestBatch::new();
        let specs = vec![vm_spec(1.0, 1024.0, 10.0), vm_spec(2.0, 2048.0, 20.0)];
        let r = b.push_request(specs.clone(), vec![]);
        assert_eq!(b.demand(VmId(1)), &[2.0, 2048.0, 20.0]);
        assert_eq!(
            b.demand_rows(b.request(r).vms),
            &[1.0, 1024.0, 10.0, 2.0, 2048.0, 20.0]
        );
        assert_eq!(b.terms(VmId(0)), &specs[0].terms());
        assert_eq!(b.spec(VmId(1)), specs[1]);
    }

    #[test]
    fn a_cleared_batch_refills_like_a_fresh_one() {
        let mut reused = ruled_batch(1.0);
        reused.clear();
        assert_eq!((reused.vm_count(), reused.request_count()), (0, 0));
        assert_eq!(reused, RequestBatch::new());
        reused.append(ruled_batch(4.0));
        assert_eq!(reused, ruled_batch(4.0));
    }

    #[test]
    #[should_panic(expected = "share one attribute count")]
    fn mixed_attribute_counts_are_rejected() {
        let mut b = RequestBatch::new();
        b.push_request(vec![vm_spec(1.0, 1.0, 1.0)], vec![]);
        let mut two = vm_spec(1.0, 1.0, 1.0);
        two.demand.pop();
        b.push_request(vec![two], vec![]);
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
        assert_eq!(s.request(RequestId(0)).vms, VmRange::new(0, 1));
        assert_eq!(s.demand(VmId(0)), &[3.0, 3.0, 3.0]);
        assert_eq!(s.request(RequestId(1)).vms, VmRange::new(1, 4));
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
        assert_eq!(r2.vms, VmRange::new(5, 7));
        let r3 = b.request(RequestId(3));
        assert_eq!(r3.id, RequestId(3));
        assert_eq!(r3.vms, VmRange::new(7, 10));
        // Rules keep their kind and their (unsorted) resource order.
        assert_eq!(r3.rules[0].kind(), AffinityKind::DifferentServer);
        assert_eq!(r3.rules[0].vms(), &[VmId(9), VmId(7)]);
        assert_eq!(r3.rules[1].vms(), &[VmId(8), VmId(9)]);
        let owners: Vec<usize> = b.vm_ids().map(|k| b.request_of(k).index()).collect();
        assert_eq!(owners, vec![0, 0, 1, 1, 1, 2, 2, 3, 3, 3]);
        assert_eq!(b.demand(VmId(5)), &[5.0, 1.0, 1.0]);
        assert_eq!(b.demand(VmId(9)), &[6.0, 2.0, 2.0]);
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
                let vms = req.vms.iter().map(|k| part.spec(k)).collect();
                let rules = req
                    .rules
                    .iter()
                    .map(|rule| {
                        let local = |v: &VmId| req.vms.position(*v).unwrap();
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
        assert_eq!(merged, expected);
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
            let base = out.vm_count();
            let vms = req.vms.iter().map(|k| batch.spec(k)).collect();
            let rules = req
                .rules
                .iter()
                .map(|rule| {
                    let pos = |v: &VmId| req.vms.iter().position(|k| k == *v).unwrap();
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
            prop_assert_eq!(fast, oracle);
        }
    }
}
