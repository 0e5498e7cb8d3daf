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
use crate::infrastructure::Infrastructure;
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

    /// Shifts every bound resource id up by `by` (a batch append moving
    /// the rule's request behind `by` existing VMs). Order and
    /// distinctness are preserved, so the rule stays valid.
    pub(crate) fn shift_vms(&mut self, by: usize) {
        for k in &mut self.vms {
            k.0 += by;
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
    pub fn violation_degree(&self, assignment: &Assignment, infra: &Infrastructure) -> usize {
        match self.kind {
            AffinityKind::SameServer => {
                // Resources not on the majority server count as violations.
                let mut counts: Vec<(usize, usize)> = Vec::new(); // (server, count)
                for &k in &self.vms {
                    if let Some(s) = assignment.server_of(k) {
                        if let Some(e) = counts.iter_mut().find(|(sv, _)| *sv == s.index()) {
                            e.1 += 1;
                        } else {
                            counts.push((s.index(), 1));
                        }
                    }
                }
                // Unassigned VMs never join the majority, so they are
                // automatically counted by len() - majority.
                let majority = counts.iter().map(|&(_, c)| c).max().unwrap_or(0);
                self.vms.len() - majority
            }
            AffinityKind::SameDatacenter => {
                let mut counts: Vec<(usize, usize)> = Vec::new();
                let mut unassigned = 0usize;
                for &k in &self.vms {
                    match assignment.server_of(k) {
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
                    self.vms.len() - majority
                }
            }
            AffinityKind::DifferentServer => {
                let mut servers: Vec<usize> = Vec::new();
                let mut degree = 0usize;
                for &k in &self.vms {
                    match assignment.server_of(k) {
                        None => degree += 1,
                        Some(s) => servers.push(s.index()),
                    }
                }
                servers.sort_unstable();
                let mut i = 0;
                while i < servers.len() {
                    let mut j = i + 1;
                    while j < servers.len() && servers[j] == servers[i] {
                        j += 1;
                    }
                    degree += j - i - 1; // every duplicate beyond the first
                    i = j;
                }
                degree
            }
            AffinityKind::DifferentDatacenter => {
                let mut dcs: Vec<usize> = Vec::new();
                let mut degree = 0usize;
                for &k in &self.vms {
                    match assignment.server_of(k) {
                        None => degree += 1,
                        Some(s) => dcs.push(infra.datacenter_of(s).index()),
                    }
                }
                dcs.sort_unstable();
                let mut i = 0;
                while i < dcs.len() {
                    let mut j = i + 1;
                    while j < dcs.len() && dcs[j] == dcs[i] {
                        j += 1;
                    }
                    degree += j - i - 1;
                    i = j;
                }
                degree
            }
        }
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
