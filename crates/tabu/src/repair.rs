//! The paper's repair operator (Figs. 5–6): make an invalid individual
//! comply with the constraints by relocating offending VMs.
//!
//! ```text
//! procedure REPAIR(I)
//!   serversError ← exceedingDetection(I)
//!   for i in numberOfVM():
//!     if getServerOfVM(I, i) ∈ serversError:
//!       I(i) ← findNeighbour(I, i)
//!
//! procedure FINDNEIGHBOR(I, i)
//!   for j in numberOfServer(I):
//!     if isValidAllocation(i, j): return j
//! ```
//!
//! We extend `exceedingDetection` beyond capacity to affinity violations
//! (the paper's repair targets "every faulty gene found within an
//! individual") and make `findNeighbour` scan outward from the VM's
//! current server so fixes stay local — the "nearest valid neighbor" of
//! Fig. 6's caption.

use crate::list::{TabuList, TabuMove};
use cpo_model::delta::DeltaEvaluator;
use cpo_model::prelude::*;

/// Configuration of the repair pass.
#[derive(Clone, Copy, Debug)]
pub struct RepairConfig {
    /// Tabu tenure: forbids ping-ponging a VM back to a server it just
    /// left within the same repair invocation.
    pub tenure: usize,
    /// Maximum full passes over the individual before giving up.
    pub max_passes: usize,
    /// Neighbour scan order.
    pub scan: ScanOrder,
}

impl Default for RepairConfig {
    fn default() -> Self {
        Self {
            tenure: 16,
            max_passes: 4,
            scan: ScanOrder::NearestFirst,
        }
    }
}

/// How `findNeighbour` walks the server list.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScanOrder {
    /// Ring scan outward from the VM's current server (nearest first).
    NearestFirst,
    /// Plain `0..m` scan (the literal Fig. 6 pseudo-code).
    FirstFit,
    /// Scan servers by ascending projected cost (best-fit by opex+usage).
    BestCost,
}

/// Outcome of a repair invocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RepairOutcome {
    /// Number of VMs moved.
    pub moves: usize,
    /// Whether the assignment is feasible after repair.
    pub feasible: bool,
    /// Full passes over the individual actually performed.
    pub passes: usize,
}

/// Is placing `k` on `j` valid *right now*: capacity (with `k` added) and
/// the affinity rules of `k`'s request — the paper's `isValidAllocation`.
pub fn is_valid_allocation(
    problem: &AllocationProblem,
    assignment: &Assignment,
    tracker: &LoadTracker,
    k: VmId,
    j: ServerId,
) -> bool {
    tracker.fits(k, j, problem.batch(), problem.infra()) && problem.rules_allow(assignment, k, j)
}

fn scan_candidates(
    problem: &AllocationProblem,
    current: Option<ServerId>,
    order: ScanOrder,
) -> Vec<ServerId> {
    let m = problem.m();
    match order {
        ScanOrder::FirstFit => (0..m).map(ServerId).collect(),
        ScanOrder::NearestFirst => {
            let c = current.map_or(0, |s| s.index());
            // Ring: c+1, c-1, c+2, c-2, … wrapping, ending with c itself.
            let mut out = Vec::with_capacity(m);
            let mut seen = vec![false; m];
            for d in 1..m {
                for idx in [(c + d) % m, (c + m - d % m) % m] {
                    if !seen[idx] && idx != c {
                        seen[idx] = true;
                        out.push(ServerId(idx));
                    }
                }
            }
            out.push(ServerId(c));
            out
        }
        ScanOrder::BestCost => {
            let mut servers: Vec<ServerId> = (0..m).map(ServerId).collect();
            servers.sort_by(|&a, &b| {
                let ca = problem.infra().server(a);
                let cb = problem.infra().server(b);
                (ca.opex + ca.usage_cost)
                    .partial_cmp(&(cb.opex + cb.usage_cost))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            servers
        }
    }
}

/// `findNeighbour` (Fig. 6): the first server that validly hosts `k`,
/// skipping tabu placements. Returns `None` if no server qualifies.
pub fn find_neighbour(
    problem: &AllocationProblem,
    assignment: &Assignment,
    tracker: &LoadTracker,
    tabu: &TabuList,
    k: VmId,
    order: ScanOrder,
) -> Option<ServerId> {
    let candidates = scan_candidates(problem, assignment.server_of(k), order);
    find_neighbour_in(problem, assignment, tracker, tabu, k, &candidates)
}

/// [`find_neighbour`] over a precomputed candidate order — the hot path
/// used by [`repair`], which computes position-independent scan orders
/// (first-fit, best-cost) once per invocation instead of once per VM.
///
/// `k`'s rules are read once per scan into a [`RuleView`]: a hopeless
/// view ends the scan before any candidate is tried, and each candidate
/// is checked against the view before capacity and the tabu list. All
/// three checks are pure, so the first match is the first server
/// [`is_valid_allocation`] accepts.
pub fn find_neighbour_in(
    problem: &AllocationProblem,
    assignment: &Assignment,
    tracker: &LoadTracker,
    tabu: &TabuList,
    k: VmId,
    candidates: &[ServerId],
) -> Option<ServerId> {
    let rules = problem.rule_view(assignment, k);
    if rules.hopeless() {
        return None;
    }
    let current = assignment.server_of(k);
    candidates.iter().copied().find(|&j| {
        Some(j) != current
            && rules.allows(j)
            && tracker.fits(k, j, problem.batch(), problem.infra())
            && !tabu.is_tabu(k, j)
    })
}

/// VMs that currently sit on a faulty gene: on an overloaded server, on no
/// server, or party to a violated affinity rule — the generalised
/// `exceedingDetection` (Fig. 5, line 2).
pub fn faulty_vms(problem: &AllocationProblem, assignment: &Assignment) -> Vec<VmId> {
    let tracker = problem.tracker(assignment);
    let exceeding = tracker.exceeding_servers(problem.infra());
    let mut faulty = vec![false; problem.n()];
    for k in problem.batch().vm_ids() {
        match assignment.server_of(k) {
            None => faulty[k.index()] = true,
            Some(j) => {
                if exceeding.contains(&j) {
                    faulty[k.index()] = true;
                }
            }
        }
    }
    for req in problem.batch().requests() {
        for rule in &req.rules {
            if !rule.is_satisfied(assignment, problem.infra()) {
                for &k in rule.vms() {
                    faulty[k.index()] = true;
                }
            }
        }
    }
    faulty
        .iter()
        .enumerate()
        .filter_map(|(k, &f)| f.then_some(VmId(k)))
        .collect()
}

/// The same-server co-location group of VM `k` within its request (the
/// union of same-server rules containing `k`), or `None` when `k` is
/// unpinned. A pinned VM cannot move alone — the whole group must move.
pub fn same_server_group(problem: &AllocationProblem, k: VmId) -> Option<Vec<VmId>> {
    let req = problem.batch().request(problem.batch().request_of(k));
    let mut group: Vec<VmId> = Vec::new();
    for rule in &req.rules {
        if rule.kind() == AffinityKind::SameServer && rule.vms().contains(&k) {
            for &v in rule.vms() {
                if !group.contains(&v) {
                    group.push(v);
                }
            }
        }
    }
    (group.len() >= 2).then_some(group)
}

/// Attempts to move an entire same-server group to the first server of
/// `order` that can take it whole. Restores the original placement (via
/// the evaluator's undo stack) on failure. Expects an empty undo history
/// on entry.
fn try_group_move(
    problem: &AllocationProblem,
    ev: &mut DeltaEvaluator<'_>,
    group: &[VmId],
    order: &[ServerId],
) -> bool {
    debug_assert_eq!(ev.history_len(), 0, "caller must clear history");
    let batch = problem.batch();
    // Detach the group (recorded on the undo stack).
    ev.apply_group(group, None);
    // Total group demand per attribute.
    let h = problem.h();
    let mut total = vec![0.0_f64; h];
    for &k in group {
        for (l, t) in total.iter_mut().enumerate() {
            *t += batch.demand(k)[l];
        }
    }
    // Rules vs VMs outside the group (intra-group same-server holds by
    // construction once all land on one server), read once per member.
    let views: Vec<RuleView<'_>> = group
        .iter()
        .map(|&k| problem.rule_view(ev.assignment(), k))
        .collect();
    let target = if views.iter().any(RuleView::hopeless) {
        None
    } else {
        order.iter().copied().find(|&j| {
            // Whole-group capacity check.
            let used = ev.tracker().used_row(j);
            let cap = problem.infra().effective_row(j);
            let fits = used
                .iter()
                .zip(&total)
                .zip(cap)
                .all(|((u, t), c)| u + t <= c + 1e-9);
            fits && views.iter().all(|v| v.allows(j))
        })
    };
    match target {
        Some(j) => {
            ev.apply_group(group, Some(j));
            ev.clear_history();
            true
        }
        None => {
            // Restore the original placement.
            while ev.undo() {}
            false
        }
    }
}

/// The paper's REPAIR procedure (Fig. 5), generalised and iterated: scans
/// for faulty VMs and relocates each to its nearest valid neighbour,
/// repeating up to `config.max_passes` times (moving one VM can fix or
/// break others, e.g. in same-server groups). VMs pinned by a same-server
/// rule move as a whole group when a lone move is impossible.
///
/// A wrapper over [`repair_on`] on a fresh evaluator that takes over the
/// caller's assignment for the duration of the repair.
pub fn repair(
    problem: &AllocationProblem,
    assignment: &mut Assignment,
    config: &RepairConfig,
) -> RepairOutcome {
    let owned = std::mem::replace(assignment, Assignment::unassigned(0));
    let mut ev = DeltaEvaluator::new(problem, owned);
    let outcome = repair_on(&mut ev, config);
    *assignment = ev.into_assignment();
    outcome
}

/// [`repair`] on a caller-owned evaluator: repairs `ev`'s assignment in
/// place and leaves the evaluator holding the result, so `ev.score()` is
/// the repaired assignment's score with no re-decode or rebuild. The
/// evaluator's maintained state answers "is this VM still faulty" and
/// "is the result feasible" in O(1)/O(rules(k)). Any undo history on
/// entry is dropped. A pure function of the assignment: the same input
/// yields the same assignment and [`RepairOutcome`] on a fresh evaluator
/// or on a pooled one last used for anything else.
pub fn repair_on(ev: &mut DeltaEvaluator<'_>, config: &RepairConfig) -> RepairOutcome {
    let problem = ev.problem();
    let mut tabu = TabuList::new(config.tenure);
    ev.clear_history();
    let mut moves = 0usize;

    // Position-independent scan orders are computed once; NearestFirst
    // depends on each VM's current server and stays per-VM.
    let cached_order: Option<Vec<ServerId>> = match config.scan {
        ScanOrder::NearestFirst => None,
        order => Some(scan_candidates(problem, None, order)),
    };

    let mut passes = 0usize;
    for _pass in 0..config.max_passes {
        if ev.is_feasible() {
            break;
        }
        let faulty = ev.faulty_vms();
        if faulty.is_empty() {
            break;
        }
        passes += 1;
        let mut progressed = false;
        for k in faulty {
            // Skip VMs whose situation got fixed by an earlier move in
            // this pass.
            let still_faulty = match ev.assignment().server_of(k) {
                None => true,
                Some(j) => {
                    ev.server_overloaded(j)
                        || !problem.rules_allow(ev.assignment(), k, j)
                        || ev.vm_has_broken_rule(k)
                }
            };
            if !still_faulty {
                continue;
            }
            let found = match &cached_order {
                Some(order) => {
                    find_neighbour_in(problem, ev.assignment(), ev.tracker(), &tabu, k, order)
                }
                None => find_neighbour(
                    problem,
                    ev.assignment(),
                    ev.tracker(),
                    &tabu,
                    k,
                    config.scan,
                ),
            };
            match found {
                Some(target) => {
                    if let Some(from) = ev.assignment().server_of(k) {
                        tabu.push(TabuMove { vm: k, from });
                    }
                    ev.apply(k, target);
                    ev.clear_history();
                    moves += 1;
                    progressed = true;
                }
                None => {
                    // A VM pinned by a same-server rule cannot move alone:
                    // relocate the whole co-location group.
                    if let Some(group) = same_server_group(problem, k) {
                        let ring;
                        let order = match &cached_order {
                            Some(order) => order.as_slice(),
                            None => {
                                let anchor = ev.assignment().server_of(group[0]);
                                ring = scan_candidates(problem, anchor, config.scan);
                                &ring
                            }
                        };
                        if try_group_move(problem, ev, &group, order) {
                            moves += group.len();
                            progressed = true;
                        }
                    }
                }
            }
        }
        if !progressed {
            break;
        }
    }

    let feasible = ev.is_feasible();
    cpo_obs::counter_add("tabu.repair_calls", 1);
    cpo_obs::counter_add("tabu.repair_moves", moves as u64);
    cpo_obs::counter_add("tabu.repair_passes", passes as u64);
    RepairOutcome {
        moves,
        feasible,
        passes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpo_model::attr::AttrSet;

    fn problem_with(
        servers_per_dc: &[usize],
        requests: Vec<(Vec<VmSpec>, Vec<AffinityRule>)>,
    ) -> AllocationProblem<'static> {
        let profile = ServerProfile::commodity(3);
        let dcs = servers_per_dc
            .iter()
            .enumerate()
            .map(|(i, &n)| (format!("dc{i}"), profile.build_many(n)))
            .collect();
        let infra = Infrastructure::new(AttrSet::standard(), dcs);
        let mut batch = RequestBatch::new();
        for (vms, rules) in requests {
            batch.push_request(vms, rules);
        }
        AllocationProblem::new(infra, batch, None)
    }

    #[test]
    fn repair_fixes_capacity_overload() {
        // Two VMs of 20 cpu each on one 28.8-effective server: overloaded.
        let p = problem_with(
            &[2],
            vec![(
                vec![vm_spec(20.0, 1024.0, 10.0), vm_spec(20.0, 1024.0, 10.0)],
                vec![],
            )],
        );
        let mut a = Assignment::unassigned(2);
        a.assign(VmId(0), ServerId(0));
        a.assign(VmId(1), ServerId(0));
        assert!(!p.is_feasible(&a));
        let outcome = repair(&p, &mut a, &RepairConfig::default());
        assert!(outcome.feasible, "repair must spread the VMs");
        assert!(outcome.moves >= 1);
        assert_ne!(a.server_of(VmId(0)), a.server_of(VmId(1)));
    }

    #[test]
    fn repair_places_unassigned_vms() {
        let p = problem_with(&[2], vec![(vec![vm_spec(1.0, 1.0, 1.0); 2], vec![])]);
        let mut a = Assignment::unassigned(2);
        let outcome = repair(&p, &mut a, &RepairConfig::default());
        assert!(outcome.feasible);
        assert!(a.is_complete());
    }

    #[test]
    fn repair_fixes_separation_rule() {
        let p = problem_with(
            &[3],
            vec![(
                vec![vm_spec(1.0, 1.0, 1.0); 2],
                vec![AffinityRule::new(
                    AffinityKind::DifferentServer,
                    vec![VmId(0), VmId(1)],
                )],
            )],
        );
        let mut a = Assignment::unassigned(2);
        a.assign(VmId(0), ServerId(1));
        a.assign(VmId(1), ServerId(1)); // violates separation
        let outcome = repair(&p, &mut a, &RepairConfig::default());
        assert!(outcome.feasible);
        assert_ne!(a.server_of(VmId(0)), a.server_of(VmId(1)));
    }

    #[test]
    fn repair_fixes_same_datacenter_rule() {
        let p = problem_with(
            &[2, 2],
            vec![(
                vec![vm_spec(1.0, 1.0, 1.0); 2],
                vec![AffinityRule::new(
                    AffinityKind::SameDatacenter,
                    vec![VmId(0), VmId(1)],
                )],
            )],
        );
        let mut a = Assignment::unassigned(2);
        a.assign(VmId(0), ServerId(0)); // dc0
        a.assign(VmId(1), ServerId(2)); // dc1 — violation
        let outcome = repair(&p, &mut a, &RepairConfig::default());
        assert!(outcome.feasible, "same-dc rule must be repaired");
        let dc0 = p.infra().datacenter_of(a.server_of(VmId(0)).unwrap());
        let dc1 = p.infra().datacenter_of(a.server_of(VmId(1)).unwrap());
        assert_eq!(dc0, dc1);
    }

    #[test]
    fn repair_reports_infeasible_when_capacity_is_short() {
        // One server, two VMs that can never share it.
        let p = problem_with(
            &[1],
            vec![(
                vec![vm_spec(20.0, 1.0, 1.0), vm_spec(20.0, 1.0, 1.0)],
                vec![],
            )],
        );
        let mut a = Assignment::unassigned(2);
        a.assign(VmId(0), ServerId(0));
        a.assign(VmId(1), ServerId(0));
        let outcome = repair(&p, &mut a, &RepairConfig::default());
        assert!(!outcome.feasible, "no repair exists on one server");
    }

    #[test]
    fn feasible_input_is_untouched() {
        let p = problem_with(&[2], vec![(vec![vm_spec(1.0, 1.0, 1.0); 2], vec![])]);
        let mut a = Assignment::unassigned(2);
        a.assign(VmId(0), ServerId(0));
        a.assign(VmId(1), ServerId(1));
        let before = a.clone();
        let outcome = repair(&p, &mut a, &RepairConfig::default());
        assert_eq!(outcome.moves, 0);
        assert_eq!(a, before);
    }

    #[test]
    fn find_neighbour_skips_tabu_servers() {
        let p = problem_with(&[3], vec![(vec![vm_spec(1.0, 1.0, 1.0)], vec![])]);
        let a = {
            let mut a = Assignment::unassigned(1);
            a.assign(VmId(0), ServerId(0));
            a
        };
        let tracker = p.tracker(&a);
        let mut tabu = TabuList::new(4);
        tabu.push(TabuMove {
            vm: VmId(0),
            from: ServerId(1),
        });
        let found = find_neighbour(&p, &a, &tracker, &tabu, VmId(0), ScanOrder::FirstFit)
            .expect("server 2 remains");
        assert_eq!(found, ServerId(2));
    }

    #[test]
    fn scan_orders_cover_all_servers() {
        let p = problem_with(&[5], vec![(vec![vm_spec(1.0, 1.0, 1.0)], vec![])]);
        for order in [
            ScanOrder::FirstFit,
            ScanOrder::NearestFirst,
            ScanOrder::BestCost,
        ] {
            let c = scan_candidates(&p, Some(ServerId(2)), order);
            let mut sorted: Vec<usize> = c.iter().map(|s| s.index()).collect();
            sorted.sort_unstable();
            assert_eq!(
                sorted,
                vec![0, 1, 2, 3, 4],
                "order {order:?} must cover all"
            );
        }
    }

    #[test]
    fn nearest_first_prefers_adjacent_servers() {
        let p = problem_with(&[10], vec![(vec![vm_spec(1.0, 1.0, 1.0)], vec![])]);
        let c = scan_candidates(&p, Some(ServerId(5)), ScanOrder::NearestFirst);
        assert_eq!(c[0], ServerId(6));
        assert_eq!(c[1], ServerId(4));
    }

    #[test]
    fn best_cost_prefers_cheap_servers() {
        let profile = ServerProfile::commodity(3);
        let mut cheap = profile.build();
        cheap.opex = 1.0;
        let mut dear = profile.build();
        dear.opex = 100.0;
        let infra =
            Infrastructure::new(AttrSet::standard(), vec![("dc".into(), vec![dear, cheap])]);
        let mut batch = RequestBatch::new();
        batch.push_request(vec![vm_spec(1.0, 1.0, 1.0)], vec![]);
        let p = AllocationProblem::new(infra, batch, None);
        let c = scan_candidates(&p, None, ScanOrder::BestCost);
        assert_eq!(c[0], ServerId(1), "cheap server first");
    }

    #[test]
    fn pinned_same_server_group_moves_as_a_unit() {
        // A 2-VM same-server group plus a fat VM overload server 0; the
        // group members cannot move alone (the rule pins them), so the
        // repair must relocate the whole group.
        let p = problem_with(
            &[2],
            vec![
                (
                    vec![vm_spec(8.0, 1.0, 1.0), vm_spec(8.0, 1.0, 1.0)],
                    vec![AffinityRule::new(
                        AffinityKind::SameServer,
                        vec![VmId(0), VmId(1)],
                    )],
                ),
                (vec![vm_spec(20.0, 1.0, 1.0)], vec![]),
            ],
        );
        let mut a = Assignment::from_genes(&[0, 0, 0]); // 36 cpu on 28.8
        assert!(!p.is_feasible(&a));
        let outcome = repair(&p, &mut a, &RepairConfig::default());
        assert!(outcome.feasible, "group or fat VM must relocate: {a:?}");
        assert_eq!(
            a.server_of(VmId(0)),
            a.server_of(VmId(1)),
            "rule must survive the repair"
        );
    }

    #[test]
    fn same_server_group_lookup() {
        let p = problem_with(
            &[2],
            vec![(
                vec![vm_spec(1.0, 1.0, 1.0); 3],
                vec![AffinityRule::new(
                    AffinityKind::SameServer,
                    vec![VmId(0), VmId(2)],
                )],
            )],
        );
        assert_eq!(same_server_group(&p, VmId(0)), Some(vec![VmId(0), VmId(2)]));
        assert_eq!(same_server_group(&p, VmId(1)), None);
    }

    #[test]
    fn faulty_vms_flags_all_offenders() {
        let p = problem_with(
            &[2],
            vec![
                (
                    vec![vm_spec(20.0, 1.0, 1.0), vm_spec(20.0, 1.0, 1.0)],
                    vec![],
                ),
                (vec![vm_spec(1.0, 1.0, 1.0)], vec![]),
            ],
        );
        let mut a = Assignment::unassigned(3);
        a.assign(VmId(0), ServerId(0));
        a.assign(VmId(1), ServerId(0)); // overloads server 0
                                        // VmId(2) unassigned.
        let faulty = faulty_vms(&p, &a);
        assert_eq!(faulty, vec![VmId(0), VmId(1), VmId(2)]);
    }
}
