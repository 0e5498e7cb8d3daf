//! The paper's four affinity / anti-affinity relationships (Section III,
//! Eqs. 9–12) and their linearisation (Eqs. 13–14).
//!
//! * **Co-localization in same datacenter** — all resources of the rule in
//!   one datacenter (Eq. 9);
//! * **Co-localization on same server** — all resources on one server
//!   (Eq. 10);
//! * **Separation in different datacenters** — pairwise distinct
//!   datacenters (Eq. 11);
//! * **Separation on different servers** — pairwise distinct servers,
//!   same datacenter allowed (Eq. 12).

use crate::assignment::Assignment;
use crate::infrastructure::{DatacenterId, Infrastructure, ServerId};
use crate::request::VmId;

/// The four placement relationships from the paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AffinityKind {
    /// All resources of the rule must land in the same datacenter (Eq. 9).
    SameDatacenter,
    /// All resources of the rule must land on the same server (Eq. 10) —
    /// the strongest co-location; implies `SameDatacenter`.
    SameServer,
    /// Every pair of resources must land in different datacenters (Eq. 11).
    DifferentDatacenter,
    /// Every pair of resources must land on different servers (Eq. 12);
    /// the same datacenter is allowed.
    DifferentServer,
}

impl AffinityKind {
    /// Human-readable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            AffinityKind::SameDatacenter => "same-datacenter",
            AffinityKind::SameServer => "same-server",
            AffinityKind::DifferentDatacenter => "different-datacenter",
            AffinityKind::DifferentServer => "different-server",
        }
    }

    /// `true` for the two anti-affinity (separation) kinds.
    pub fn is_anti_affinity(self) -> bool {
        matches!(
            self,
            AffinityKind::DifferentDatacenter | AffinityKind::DifferentServer
        )
    }
}

/// One affinity rule over a set of VMs belonging to the same request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AffinityRule {
    kind: AffinityKind,
    vms: Vec<VmId>,
}

impl AffinityRule {
    /// Builds a rule; duplicates in `vms` are rejected.
    ///
    /// # Panics
    /// Panics if fewer than two VMs are given (a rule over one VM is
    /// vacuous) or the list has duplicates.
    pub fn new(kind: AffinityKind, vms: Vec<VmId>) -> Self {
        assert!(vms.len() >= 2, "affinity rule needs at least two resources");
        let mut sorted = vms.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            vms.len(),
            "affinity rule has duplicate resources"
        );
        Self { kind, vms }
    }

    /// The rule kind.
    #[inline]
    pub fn kind(&self) -> AffinityKind {
        self.kind
    }

    /// The resources bound by the rule.
    #[inline]
    pub fn vms(&self) -> &[VmId] {
        &self.vms
    }

    /// Moves every bound resource id from a request whose VMs start at
    /// `from` to the same position in one starting at `to` (a batch
    /// append or subset renumbering the request). Order and distinctness
    /// are preserved, so the rule stays valid. Every id must be ≥ `from`.
    pub(crate) fn rebase_vms(&mut self, from: usize, to: usize) {
        for k in &mut self.vms {
            k.0 = k.0 - from + to;
        }
    }

    /// Checks the rule against an assignment. Unassigned VMs make the rule
    /// unsatisfied (the paper requires full placement, Eq. 5).
    pub fn is_satisfied(&self, assignment: &Assignment, infra: &Infrastructure) -> bool {
        match self.kind {
            AffinityKind::SameServer => {
                let mut first = None;
                for &k in &self.vms {
                    match assignment.server_of(k) {
                        None => return false,
                        Some(s) => match first {
                            None => first = Some(s),
                            Some(f) if f != s => return false,
                            _ => {}
                        },
                    }
                }
                true
            }
            AffinityKind::SameDatacenter => {
                let mut first = None;
                for &k in &self.vms {
                    match assignment.server_of(k) {
                        None => return false,
                        Some(s) => {
                            let dc = infra.datacenter_of(s);
                            match first {
                                None => first = Some(dc),
                                Some(f) if f != dc => return false,
                                _ => {}
                            }
                        }
                    }
                }
                true
            }
            AffinityKind::DifferentServer => {
                // Pairwise distinct servers. With ≤ a few dozen VMs per rule
                // a sort beats a HashSet; rules are small by construction.
                let mut servers = Vec::with_capacity(self.vms.len());
                for &k in &self.vms {
                    match assignment.server_of(k) {
                        None => return false,
                        Some(s) => servers.push(s),
                    }
                }
                servers.sort_unstable();
                servers.windows(2).all(|w| w[0] != w[1])
            }
            AffinityKind::DifferentDatacenter => {
                let mut dcs = Vec::with_capacity(self.vms.len());
                for &k in &self.vms {
                    match assignment.server_of(k) {
                        None => return false,
                        Some(s) => dcs.push(infra.datacenter_of(s)),
                    }
                }
                dcs.sort_unstable();
                dcs.windows(2).all(|w| w[0] != w[1])
            }
        }
    }

    /// Counts how many *pairs/resources* violate the rule — a graded measure
    /// used by the evolutionary algorithms' constraint-domination and by the
    /// violation figures (Fig. 10). Zero means satisfied.
    ///
    /// Co-location rules count the resources off the majority server
    /// (datacenter); separation rules count every resource beyond the first
    /// on each server (datacenter). Unassigned resources count in both.
    /// Computed in place, O(members²) with no allocation: rules are small
    /// and this runs on every rule refresh of the delta evaluator.
    pub fn violation_degree(&self, assignment: &Assignment, infra: &Infrastructure) -> usize {
        let anti = self.kind.is_anti_affinity();
        let by_server = matches!(
            self.kind,
            AffinityKind::SameServer | AffinityKind::DifferentServer
        );
        let key = |k: VmId| {
            assignment.server_of(k).map(|s| {
                if by_server {
                    s.index()
                } else {
                    infra.datacenter_of(s).index()
                }
            })
        };
        // Distinct placed keys and the largest group sharing one key.
        let (mut distinct, mut majority) = (0usize, 0usize);
        for (i, &k) in self.vms.iter().enumerate() {
            let Some(x) = key(k) else { continue };
            if self.vms[..i].iter().any(|&e| key(e) == Some(x)) {
                continue;
            }
            distinct += 1;
            if !anti {
                let count = self.vms[i..].iter().filter(|&&e| key(e) == Some(x)).count();
                majority = majority.max(count);
            }
        }
        self.vms.len() - if anti { distinct } else { majority }
    }
}

/// What one VM's placed rule partners demand of its server, collected once
/// from a partial assignment by [`AllocationProblem::rule_view`]: the
/// server every same-server partner sits on, the datacenter every
/// same-datacenter partner sits in, and the servers and datacenters that
/// separation partners already occupy. Unplaced partners constrain
/// nothing.
///
/// [`allows`](Self::allows) answers "may the VM go to server `j`" with a
/// few comparisons instead of re-walking the rules, and
/// [`hopeless`](Self::hopeless) says up front that no server may take it
/// — e.g. a different-datacenter rule whose partner already holds the
/// only datacenter. Building a view is O(partners) and allocation-free
/// while each separation list stays within its inline capacity.
///
/// [`AllocationProblem::rule_view`]: crate::problem::AllocationProblem::rule_view
#[derive(Clone, Debug)]
pub struct RuleView<'a> {
    infra: &'a Infrastructure,
    server: Option<ServerId>,
    datacenter: Option<DatacenterId>,
    forbidden_servers: IndexSet,
    forbidden_dcs: IndexSet,
    /// Two co-location partners disagree, so no server can satisfy both.
    conflict: bool,
}

impl<'a> RuleView<'a> {
    /// Collects the demands of VM `k`'s placed partners under `rules` (the
    /// rules of `k`'s request; those not naming `k` are skipped).
    pub(crate) fn collect(
        infra: &'a Infrastructure,
        rules: &[AffinityRule],
        assignment: &Assignment,
        k: VmId,
    ) -> Self {
        let mut view = Self {
            infra,
            server: None,
            datacenter: None,
            forbidden_servers: IndexSet::default(),
            forbidden_dcs: IndexSet::default(),
            conflict: false,
        };
        for rule in rules.iter().filter(|r| r.vms.contains(&k)) {
            for &other in rule.vms.iter().filter(|&&o| o != k) {
                let Some(s) = assignment.server_of(other) else {
                    continue;
                };
                match rule.kind {
                    AffinityKind::SameServer => view.conflict |= *view.server.get_or_insert(s) != s,
                    AffinityKind::SameDatacenter => {
                        let dc = infra.datacenter_of(s);
                        view.conflict |= *view.datacenter.get_or_insert(dc) != dc
                    }
                    AffinityKind::DifferentServer => view.forbidden_servers.insert(s.index()),
                    AffinityKind::DifferentDatacenter => {
                        view.forbidden_dcs.insert(infra.datacenter_of(s).index())
                    }
                }
            }
        }
        view
    }

    /// `true` when placing the VM on server `j` respects every rule it
    /// shares with a placed partner.
    #[inline]
    pub fn allows(&self, j: ServerId) -> bool {
        !self.conflict && self.server.is_none_or(|t| t == j) && self.open(j)
    }

    /// `true` exactly when no server of the fleet is
    /// [`allowed`](Self::allows). O(datacenters + |forbidden servers| ·
    /// |forbidden datacenters|).
    pub fn hopeless(&self) -> bool {
        if self.conflict {
            return true;
        }
        if let Some(target) = self.server {
            return !self.open(target);
        }
        let dcs = self.infra.datacenters();
        let dc_open = |x: usize| {
            self.datacenter.is_none_or(|d| d.index() == x) && !self.forbidden_dcs.contains(x)
        };
        let open_servers: usize = (0..dcs.len())
            .filter(|&x| dc_open(x))
            .map(|x| dcs[x].server_count)
            .sum();
        let closed = self
            .forbidden_servers
            .iter()
            .filter(|&s| dc_open(self.infra.datacenter_of(ServerId(s)).index()))
            .count();
        open_servers == closed
    }

    /// The datacenter and separation demands (everything but the
    /// same-server target).
    fn open(&self, j: ServerId) -> bool {
        let dc = self.infra.datacenter_of(j);
        self.datacenter.is_none_or(|d| d == dc)
            && !self.forbidden_dcs.contains(dc.index())
            && !self.forbidden_servers.contains(j.index())
    }
}

/// A set of indices held inline up to eight entries and spilled to the
/// heap beyond — separation rules name a handful of partners, so building
/// a [`RuleView`] normally touches no allocator.
#[derive(Clone, Debug, Default)]
struct IndexSet {
    inline: [usize; 8],
    len: usize,
    spill: Vec<usize>,
}

impl IndexSet {
    fn insert(&mut self, x: usize) {
        if self.contains(x) {
            return;
        }
        match self.inline.get_mut(self.len) {
            Some(slot) => {
                *slot = x;
                self.len += 1;
            }
            None => self.spill.push(x),
        }
    }

    fn contains(&self, x: usize) -> bool {
        self.inline[..self.len].contains(&x) || self.spill.contains(&x)
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.inline[..self.len].iter().chain(&self.spill).copied()
    }
}

/// A linear(ised) view of an affinity rule, mirroring the paper's
/// linearisation of the non-linear product constraints (Eqs. 13–14).
///
/// The CP solver consumes this form; the documentation value is that it
/// makes the integer-programming shape of each rule explicit:
///
/// * `AllEqual(vars)` — the auxiliary-variable trick of Eq. 13/14 reduces
///   "product of indicator sums equals one" to "all placement variables
///   take the same value";
/// * `AllDifferent(vars)` — separation rules are `alldifferent` over the
///   server (or datacenter) variables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LinearizedRule {
    /// All the listed VMs' *server* variables must be equal.
    AllEqualServer(Vec<VmId>),
    /// All the listed VMs' *datacenter* variables must be equal.
    AllEqualDatacenter(Vec<VmId>),
    /// All the listed VMs' *server* variables must be pairwise different.
    AllDifferentServer(Vec<VmId>),
    /// All the listed VMs' *datacenter* variables must be pairwise different.
    AllDifferentDatacenter(Vec<VmId>),
}

impl AffinityRule {
    /// Produces the linearised (Eqs. 13–14) form of the rule.
    pub fn linearize(&self) -> LinearizedRule {
        match self.kind {
            AffinityKind::SameServer => LinearizedRule::AllEqualServer(self.vms.clone()),
            AffinityKind::SameDatacenter => LinearizedRule::AllEqualDatacenter(self.vms.clone()),
            AffinityKind::DifferentServer => LinearizedRule::AllDifferentServer(self.vms.clone()),
            AffinityKind::DifferentDatacenter => {
                LinearizedRule::AllDifferentDatacenter(self.vms.clone())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrSet;
    use crate::infrastructure::{Infrastructure, ServerId, ServerProfile};

    fn infra_2dc_2srv() -> Infrastructure {
        let p = ServerProfile::commodity(3);
        Infrastructure::new(
            AttrSet::standard(),
            vec![
                ("dc0".into(), p.build_many(2)),
                ("dc1".into(), p.build_many(2)),
            ],
        )
    }

    fn assign(pairs: &[(usize, usize)], n: usize) -> Assignment {
        let mut a = Assignment::unassigned(n);
        for &(k, j) in pairs {
            a.assign(VmId(k), ServerId(j));
        }
        a
    }

    #[test]
    fn same_server_satisfied_only_when_colocated() {
        let infra = infra_2dc_2srv();
        let rule = AffinityRule::new(AffinityKind::SameServer, vec![VmId(0), VmId(1)]);
        assert!(rule.is_satisfied(&assign(&[(0, 1), (1, 1)], 2), &infra));
        assert!(!rule.is_satisfied(&assign(&[(0, 0), (1, 1)], 2), &infra));
        assert!(!rule.is_satisfied(&assign(&[(0, 0)], 2), &infra)); // unassigned
    }

    #[test]
    fn same_datacenter_allows_different_servers() {
        let infra = infra_2dc_2srv();
        let rule = AffinityRule::new(AffinityKind::SameDatacenter, vec![VmId(0), VmId(1)]);
        assert!(rule.is_satisfied(&assign(&[(0, 0), (1, 1)], 2), &infra)); // both dc0
        assert!(!rule.is_satisfied(&assign(&[(0, 0), (1, 2)], 2), &infra)); // dc0 vs dc1
    }

    #[test]
    fn different_server_rejects_colocation() {
        let infra = infra_2dc_2srv();
        let rule = AffinityRule::new(
            AffinityKind::DifferentServer,
            vec![VmId(0), VmId(1), VmId(2)],
        );
        assert!(rule.is_satisfied(&assign(&[(0, 0), (1, 1), (2, 2)], 3), &infra));
        assert!(!rule.is_satisfied(&assign(&[(0, 0), (1, 0), (2, 2)], 3), &infra));
    }

    #[test]
    fn different_datacenter_requires_distinct_dcs() {
        let infra = infra_2dc_2srv();
        let rule = AffinityRule::new(AffinityKind::DifferentDatacenter, vec![VmId(0), VmId(1)]);
        assert!(rule.is_satisfied(&assign(&[(0, 0), (1, 2)], 2), &infra));
        assert!(!rule.is_satisfied(&assign(&[(0, 0), (1, 1)], 2), &infra)); // both dc0
    }

    #[test]
    fn violation_degree_zero_iff_satisfied() {
        let infra = infra_2dc_2srv();
        for kind in [
            AffinityKind::SameServer,
            AffinityKind::SameDatacenter,
            AffinityKind::DifferentServer,
            AffinityKind::DifferentDatacenter,
        ] {
            let rule = AffinityRule::new(kind, vec![VmId(0), VmId(1)]);
            for placements in [
                vec![(0, 0), (1, 0)],
                vec![(0, 0), (1, 1)],
                vec![(0, 0), (1, 2)],
                vec![(0, 1), (1, 3)],
            ] {
                let a = assign(&placements, 2);
                assert_eq!(
                    rule.violation_degree(&a, &infra) == 0,
                    rule.is_satisfied(&a, &infra),
                    "kind {kind:?} placements {placements:?}"
                );
            }
        }
    }

    #[test]
    fn violation_degree_counts_offenders() {
        let infra = infra_2dc_2srv();
        // 3 VMs that must share a server: two on s0, one on s1 → 1 offender.
        let rule = AffinityRule::new(AffinityKind::SameServer, vec![VmId(0), VmId(1), VmId(2)]);
        assert_eq!(
            rule.violation_degree(&assign(&[(0, 0), (1, 0), (2, 1)], 3), &infra),
            1
        );
        // 3 VMs that must be separated: all on s0 → 2 duplicates.
        let sep = AffinityRule::new(
            AffinityKind::DifferentServer,
            vec![VmId(0), VmId(1), VmId(2)],
        );
        assert_eq!(
            sep.violation_degree(&assign(&[(0, 0), (1, 0), (2, 0)], 3), &infra),
            2
        );
    }

    #[test]
    fn unassigned_vms_count_as_violations() {
        let infra = infra_2dc_2srv();
        let rule = AffinityRule::new(AffinityKind::DifferentServer, vec![VmId(0), VmId(1)]);
        let a = assign(&[(0, 0)], 2);
        assert_eq!(rule.violation_degree(&a, &infra), 1);
    }

    #[test]
    fn linearize_maps_kinds() {
        let vms = vec![VmId(0), VmId(1)];
        assert_eq!(
            AffinityRule::new(AffinityKind::SameServer, vms.clone()).linearize(),
            LinearizedRule::AllEqualServer(vms.clone())
        );
        assert_eq!(
            AffinityRule::new(AffinityKind::DifferentDatacenter, vms.clone()).linearize(),
            LinearizedRule::AllDifferentDatacenter(vms)
        );
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_vm_rule_rejected() {
        let _ = AffinityRule::new(AffinityKind::SameServer, vec![VmId(0)]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_vm_rule_rejected() {
        let _ = AffinityRule::new(AffinityKind::SameServer, vec![VmId(0), VmId(0)]);
    }
}
