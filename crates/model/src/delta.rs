//! Incremental (delta) evaluation of single-VM relocations.
//!
//! Every local-search consumer in the workspace — the tabu allocator, the
//! tabu repair, the CP repair and the evolutionary adapters — ultimately
//! scores assignments through [`check`](crate::constraints::check) and
//! [`evaluate`](crate::cost::evaluate), each of which rebuilds a
//! [`LoadTracker`] and re-walks all `n` VMs, all `m × h` capacity cells and
//! every affinity rule: O(n·h + m·h + rules) per candidate, when a
//! relocation only touches one VM, at most two servers, and the rules that
//! name that VM.
//!
//! [`DeltaEvaluator`] owns an [`Assignment`] plus all derived state the
//! score depends on, keeps that state consistent under single-VM moves in
//! O(occupancy·h + rules(k)), and produces scores by *canonical
//! resummation* of cached per-unit terms — replaying the exact left-to-right
//! floating-point summation order of the full recompute, so the delta score
//! equals the from-scratch score **bit for bit** (pinned by the proptest
//! differential layer in `tests/delta_props.rs` and the workspace-level
//! `tests/delta_differential.rs`).
//!
//! Why resummation instead of running `+=`/`-=` sums: floating-point
//! addition is not associative, so a maintained running total drifts away
//! (in the last ulps) from the sum the oracle computes, and "score equality"
//! would degrade into an epsilon comparison that masks real bugs. The
//! per-unit terms (a server's usage row, a VM's downtime penalty, a rule's
//! degree) *are* maintained incrementally — recomputed only for the touched
//! servers/VM/rules — while the final score sums those cached terms in the
//! oracle's order. That keeps per-move cost at O(touched) model work plus an
//! O(n + m) cached-f64 sweep whose cells cost one load and one add each.
//!
//! The *evaluation work* counter ([`DeltaEvaluator::work`]) counts the
//! heavy model-cell operations — tracker cell writes, capacity-cell scans,
//! QoS curve evaluations, per-VM cost-term computations and rule-member
//! visits — mirroring how PR 3's propagation counter measures solver work.
//! [`DeltaEvaluator::full_eval_work`] is the analytic cost of one
//! tracker-rebuilding full evaluation on the same state, the denominator of
//! the ≥5× regression pin in `tests/delta_eval_regression.rs`.

use crate::assignment::Assignment;
use crate::attr::AttrId;
use crate::constraints::capacity_degree_term;
use crate::cost::{self, ObjectiveVector};
use crate::infrastructure::ServerId;
use crate::load::LoadTracker;
use crate::problem::AllocationProblem;
use crate::qos::worst_qos;
use crate::request::{RequestId, VmId};

/// The score of an assignment as local search ranks it: constraint
/// violation degree first, then the Eq. 15 objective vector.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MoveScore {
    /// Graded constraint-violation degree ([`ViolationReport::degree`]);
    /// `0.0` iff the assignment is feasible.
    ///
    /// [`ViolationReport::degree`]: crate::constraints::ViolationReport::degree
    pub violation: f64,
    /// The three monetised objectives of Eq. 15.
    pub objectives: ObjectiveVector,
}

impl MoveScore {
    /// Equal-weight Eq. 15 aggregate.
    pub fn total_cost(&self) -> f64 {
        self.objectives.total()
    }

    /// `true` when no hard constraint is violated.
    pub fn is_feasible(&self) -> bool {
        self.violation == 0.0
    }
}

/// Locates one affinity rule inside the batch: `rules[rule]` of
/// `request(request)`.
#[derive(Clone, Copy, Debug)]
struct RuleRef {
    request: usize,
    rule: usize,
}

/// Incrementally-maintained evaluation state for one [`AllocationProblem`].
///
/// See the [module docs](self) for the design; in short:
///
/// * [`peek_relocate`](Self::peek_relocate) scores "move VM `k` to server
///   `j`" without changing the observable assignment;
/// * [`apply`](Self::apply) / [`unassign_vm`](Self::unassign_vm) commit a
///   move and push it onto the undo stack; [`undo`](Self::undo) reverts the
///   most recent one;
/// * [`apply_group`](Self::apply_group) commits one move per group member
///   but refreshes each touched server and rule once;
/// * [`rebuild`](Self::rebuild) constructs a fresh evaluator from the
///   current assignment — the slow-path oracle the differential tests
///   compare against;
/// * [`score`](Self::score) is bit-identical to
///   `problem.check(a).degree()` + `problem.evaluate(a)`.
pub struct DeltaEvaluator<'p> {
    problem: &'p AllocationProblem<'p>,
    /// All affinity rules of the batch, flattened in request order —
    /// the order [`check`](crate::constraints::check) visits them.
    rules: Vec<RuleRef>,
    /// VM → indices into `rules` naming that VM. Built once per evaluator.
    vm_rules: Vec<Vec<u32>>,
    /// Σ rule member counts — the affinity share of one full check.
    total_rule_vms: u64,

    assignment: Assignment,
    tracker: LoadTracker,
    /// VMs hosted per server, ascending `VmId` — the order
    /// [`LoadTracker::from_assignment`] accumulates in, which is what makes
    /// [`LoadTracker::recompute_server`] reproduce its rows bit for bit.
    per_server: Vec<Vec<VmId>>,
    /// Per-server capacity-overload entries (attr ascending), maintained by
    /// [`refresh_server`](Self::refresh_server); buffers are reused.
    overloads: Vec<Vec<(AttrId, f64)>>,
    /// Worst QoS per server (meaningless for empty servers, never read).
    qos: Vec<f64>,
    /// Cached Eq. 23 penalty per VM; `0.0` when unassigned or within
    /// guarantee.
    penalty: Vec<f64>,
    /// Whether each VM counts as migrated relative to `problem.previous()`.
    moved: Vec<bool>,
    /// Cached violation degree per rule (same order as `rules`).
    rule_degree: Vec<usize>,
    /// Number of overloaded servers / broken rules, for O(1) feasibility.
    overloaded_servers: usize,
    broken_rules: usize,
    unassigned: usize,

    /// Undo stack of `(vm, server it was on before the move)`.
    undo: Vec<(VmId, Option<ServerId>)>,
    /// Scratch lists of the servers and rules one
    /// [`apply_group`](Self::apply_group) touches; buffers are reused.
    touched_servers: Vec<ServerId>,
    touched_rules: Vec<u32>,
    /// Heavy model-cell operations performed so far (see module docs).
    work: u64,
}

impl<'p> DeltaEvaluator<'p> {
    /// Builds an evaluator owning `assignment`.
    ///
    /// # Panics
    /// Panics when `assignment` does not cover exactly `problem.n()` VMs.
    pub fn new(problem: &'p AllocationProblem<'p>, assignment: Assignment) -> Self {
        let (_, m, n, _) = problem.dims();
        let mut rules = Vec::new();
        let mut vm_rules = vec![Vec::new(); n];
        let mut total_rule_vms = 0u64;
        for req in problem.batch().requests() {
            for (ri, rule) in req.rules.iter().enumerate() {
                let idx = rules.len() as u32;
                for &k in rule.vms() {
                    vm_rules[k.index()].push(idx);
                }
                total_rule_vms += rule.vms().len() as u64;
                rules.push(RuleRef {
                    request: req.id.index(),
                    rule: ri,
                });
            }
        }
        let n_rules = rules.len();
        let mut ev = Self {
            problem,
            rules,
            vm_rules,
            total_rule_vms,
            assignment: Assignment::unassigned(0),
            tracker: LoadTracker::new(m, problem.h()),
            per_server: vec![Vec::new(); m],
            overloads: vec![Vec::new(); m],
            qos: vec![0.0; m],
            penalty: vec![0.0; n],
            moved: vec![false; n],
            rule_degree: vec![0; n_rules],
            overloaded_servers: 0,
            broken_rules: 0,
            unassigned: 0,
            undo: Vec::new(),
            touched_servers: Vec::new(),
            touched_rules: Vec::new(),
            work: 0,
        };
        ev.reset(assignment);
        ev
    }

    /// Replaces the owned assignment and rebuilds all derived state,
    /// reusing every buffer — the zero-allocation reset path the MOEA
    /// evaluator pool relies on. Clears the undo history.
    ///
    /// # Panics
    /// Panics when `assignment` does not cover exactly `problem.n()` VMs.
    pub fn reset(&mut self, assignment: Assignment) {
        assert_eq!(
            assignment.len(),
            self.problem.n(),
            "assignment covers {} VMs, problem has {}",
            assignment.len(),
            self.problem.n()
        );
        self.assignment = assignment;
        self.undo.clear();
        for list in &mut self.per_server {
            list.clear();
        }
        // iter_assigned yields ascending VmId, so each list lands sorted.
        for (k, j) in self.assignment.iter_assigned() {
            self.per_server[j.index()].push(k);
        }
        self.unassigned = self.assignment.len() - self.assignment.assigned_count();
        self.penalty.fill(0.0);
        self.overloaded_servers = 0;
        self.broken_rules = 0;
        // refresh_server adjusts the overload count relative to the stored
        // buffer, so clear the buffers to match the zeroed count first.
        for buf in &mut self.overloads {
            buf.clear();
        }
        self.rule_degree.fill(0);
        for j in 0..self.problem.m() {
            self.refresh_server(ServerId(j));
        }
        for k in 0..self.problem.n() {
            self.refresh_migration(VmId(k));
        }
        for i in 0..self.rules.len() {
            self.refresh_rule(i);
        }
    }

    /// The problem this evaluator scores against.
    #[inline]
    pub fn problem(&self) -> &'p AllocationProblem<'p> {
        self.problem
    }

    /// The current assignment.
    #[inline]
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// The maintained load tracker (always consistent with
    /// [`assignment`](Self::assignment)).
    #[inline]
    pub fn tracker(&self) -> &LoadTracker {
        &self.tracker
    }

    /// Consumes the evaluator, returning the owned assignment.
    pub fn into_assignment(self) -> Assignment {
        self.assignment
    }

    /// Heavy model-cell operations performed so far (module docs define the
    /// unit). Monotone; compare before/after a search to measure its
    /// evaluation work.
    #[inline]
    pub fn work(&self) -> u64 {
        self.work
    }

    /// Analytic model-cell cost of ONE full (tracker-rebuilding)
    /// check + evaluate on the current state, in the same unit as
    /// [`work`](Self::work): tracker build (`assigned·h`) + capacity scan
    /// (`m·h`) + affinity degrees (Σ rule members) + unassigned scan (`n`)
    /// + usage/opex sweep (`m`) + downtime (`active·h` QoS evaluations +
    ///   `assigned` per-VM terms) + migration scan (`n`, when a previous
    ///   allocation exists).
    pub fn full_eval_work(&self) -> u64 {
        let (_, m, n, h) = self.problem.dims();
        let assigned = n - self.unassigned;
        let active = self.tracker.active_servers();
        let mut w = (assigned * h) as u64;
        w += (m * h) as u64;
        w += self.total_rule_vms;
        w += n as u64;
        w += m as u64;
        w += (active * h + assigned) as u64;
        if self.problem.previous().is_some() {
            w += n as u64;
        }
        w
    }

    /// O(1) feasibility of the current assignment.
    #[inline]
    pub fn is_feasible(&self) -> bool {
        self.unassigned == 0 && self.overloaded_servers == 0 && self.broken_rules == 0
    }

    /// `true` when server `j` currently violates the capacity constraint.
    #[inline]
    pub fn server_overloaded(&self, j: ServerId) -> bool {
        !self.overloads[j.index()].is_empty()
    }

    /// VMs currently hosted on server `j`, ascending `VmId` — the
    /// maintained occupant list candidate-generation strategies read
    /// instead of re-deriving occupancy from the assignment.
    #[inline]
    pub fn occupants(&self, j: ServerId) -> &[VmId] {
        &self.per_server[j.index()]
    }

    /// Number of VMs hosted on server `j` (O(1) from the occupant list).
    #[inline]
    pub fn occupancy(&self, j: ServerId) -> usize {
        self.per_server[j.index()].len()
    }

    /// Servers currently violating the capacity constraint, ascending id
    /// — read off the maintained overload buffers without a tracker
    /// rebuild.
    pub fn overloaded_server_ids(&self) -> Vec<ServerId> {
        self.overloads
            .iter()
            .enumerate()
            .filter_map(|(j, per)| (!per.is_empty()).then_some(ServerId(j)))
            .collect()
    }

    /// `true` when VM `k` is named by at least one currently-broken rule.
    pub fn vm_has_broken_rule(&self, k: VmId) -> bool {
        self.vm_rules[k.index()]
            .iter()
            .any(|&i| self.rule_degree[i as usize] > 0)
    }

    /// VMs implicated in any violation — unplaced, hosted on an overloaded
    /// server, or party to a broken rule. Same set as
    /// `tabu::faulty_vms`, computed from maintained state without a
    /// tracker rebuild.
    pub fn faulty_vms(&self) -> Vec<VmId> {
        let n = self.problem.n();
        let mut flag = vec![false; n];
        for (k, f) in flag.iter_mut().enumerate() {
            *f = match self.assignment.server_of(VmId(k)) {
                None => true,
                Some(j) => self.server_overloaded(j),
            };
        }
        for (i, r) in self.rules.iter().enumerate() {
            if self.rule_degree[i] > 0 {
                let req = &self.problem.batch().requests()[r.request];
                for &k in req.rules[r.rule].vms() {
                    flag[k.index()] = true;
                }
            }
        }
        flag.iter()
            .enumerate()
            .filter_map(|(k, &f)| f.then_some(VmId(k)))
            .collect()
    }

    /// Scores the current assignment by canonical resummation of the
    /// maintained per-unit terms — bit-identical to
    /// `problem.check(a).degree()` and `problem.evaluate(a)` (module docs
    /// explain the order replay).
    pub fn score(&self) -> MoveScore {
        let infra = self.problem.infra();
        let batch = self.problem.batch();

        // Violation degree, in ViolationReport order: unassigned VMs
        // (1.0 each — exact, sum of u ones is u), then capacity entries
        // (server asc, attr asc), then affinity degrees (request order).
        // `Iterator::sum::<f64>()` folds from -0.0, so an empty report's
        // degree is -0.0; every individual term is ≥ 1.0, which makes the
        // nonempty left-to-right sums below bit-identical to the fold.
        let mut violation = self.unassigned as f64;
        let mut any_violation = self.unassigned > 0;
        for per in &self.overloads {
            for &(_, excess) in per {
                violation += capacity_degree_term(excess);
                any_violation = true;
            }
        }
        for &d in &self.rule_degree {
            if d > 0 {
                violation += d as f64;
                any_violation = true;
            }
        }
        if !any_violation {
            violation = -0.0;
        }

        // Eq. 22 is an O(m) sweep of maintained hosted counts; run the
        // real thing rather than caching per-server terms.
        let usage_opex = cost::usage_opex_cost(&self.tracker, infra);

        // Eq. 23: replay iter_assigned order over cached penalties. The
        // full path only adds terms for assigned VMs; skipping exact-zero
        // penalties is bit-safe because the accumulator is never -0.0.
        let mut downtime = 0.0;
        for (k, _) in self.assignment.iter_assigned() {
            let p = self.penalty[k.index()];
            if p != 0.0 {
                downtime += p;
            }
        }

        // Eq. 26: replay migrations_from order (ascending VmId) over the
        // maintained moved set. migration_cost() is a .sum() — it folds
        // from -0.0 and adds every moved VM's cost (zeros included), so
        // mirror that exactly; without a previous allocation the full
        // path substitutes a literal 0.0 instead.
        let mut migration = 0.0;
        if self.problem.previous().is_some() {
            migration = -0.0;
            for (k, moved) in self.moved.iter().enumerate() {
                if *moved {
                    migration += batch.terms(VmId(k)).migration_cost;
                }
            }
        }

        MoveScore {
            violation,
            objectives: ObjectiveVector {
                usage_opex,
                downtime,
                migration,
            },
        }
    }

    /// Scores "relocate VM `k` to server `j`" without observably changing
    /// the evaluator: the move is applied, scored, and reverted.
    /// O(occupancy(from,j)·h + rules(k)) model work plus the cached-term
    /// resummation.
    pub fn peek_relocate(&mut self, k: VmId, j: ServerId) -> MoveScore {
        let from = self.assignment.server_of(k);
        self.relocate(k, Some(j));
        let score = self.score();
        self.relocate(k, from);
        score
    }

    /// Commits "relocate VM `k` to server `j`" and records it for
    /// [`undo`](Self::undo).
    pub fn apply(&mut self, k: VmId, j: ServerId) {
        let from = self.assignment.server_of(k);
        self.undo.push((k, from));
        self.relocate(k, Some(j));
    }

    /// Commits "evict VM `k`" and records it for [`undo`](Self::undo).
    pub fn unassign_vm(&mut self, k: VmId) {
        let from = self.assignment.server_of(k);
        self.undo.push((k, from));
        self.relocate(k, None);
    }

    /// Commits "move every VM of `group` to `to`" (`None` = evict) as one
    /// batch. Each member is recorded for [`undo`](Self::undo) exactly as
    /// [`apply`](Self::apply) / [`unassign_vm`](Self::unassign_vm) would,
    /// but every touched server and rule is refreshed once, after all
    /// members moved, instead of once per member. The result is
    /// bit-identical to the one-by-one moves because every maintained cell
    /// is a pure function of the sorted occupant lists and the assignment.
    pub fn apply_group(&mut self, group: &[VmId], to: Option<ServerId>) {
        let mut servers = std::mem::take(&mut self.touched_servers);
        let mut rules = std::mem::take(&mut self.touched_rules);
        for &k in group {
            let from = self.assignment.server_of(k);
            self.undo.push((k, from));
            if from == to {
                continue;
            }
            self.shift(k, from, to);
            servers.extend(from.into_iter().chain(to));
            self.refresh_migration(k);
            rules.extend_from_slice(&self.vm_rules[k.index()]);
        }
        servers.sort_unstable();
        servers.dedup();
        rules.sort_unstable();
        rules.dedup();
        for &j in &servers {
            self.refresh_server(j);
        }
        for &i in &rules {
            self.refresh_rule(i as usize);
        }
        servers.clear();
        rules.clear();
        self.touched_servers = servers;
        self.touched_rules = rules;
    }

    /// Reverts the most recent committed move. Returns `false` when the
    /// history is empty.
    pub fn undo(&mut self) -> bool {
        match self.undo.pop() {
            Some((k, to)) => {
                self.relocate(k, to);
                true
            }
            None => false,
        }
    }

    /// Number of committed moves available to [`undo`](Self::undo).
    #[inline]
    pub fn history_len(&self) -> usize {
        self.undo.len()
    }

    /// Forgets the undo history (the state is kept).
    pub fn clear_history(&mut self) {
        self.undo.clear();
    }

    /// Slow-path oracle: a fresh evaluator built from the current
    /// assignment. The differential tests assert `self` and the rebuild
    /// agree on every maintained cell and on [`score`](Self::score).
    pub fn rebuild(&self) -> DeltaEvaluator<'p> {
        DeltaEvaluator::new(self.problem, self.assignment.clone())
    }

    /// Moves VM `k` to `to` (`None` = evict) and refreshes exactly the
    /// state the move touches.
    fn relocate(&mut self, k: VmId, to: Option<ServerId>) {
        let from = self.assignment.server_of(k);
        if from == to {
            return;
        }
        self.shift(k, from, to);
        if let Some(a) = from {
            self.refresh_server(a);
        }
        if let Some(b) = to {
            self.refresh_server(b);
        }
        self.refresh_migration(k);
        for t in 0..self.vm_rules[k.index()].len() {
            let i = self.vm_rules[k.index()][t] as usize;
            self.refresh_rule(i);
        }
    }

    /// Moves VM `k` from `from` to `to` (distinct) in the assignment, the
    /// occupant lists and the unassigned count, leaving every derived cell
    /// for the caller to refresh.
    fn shift(&mut self, k: VmId, from: Option<ServerId>, to: Option<ServerId>) {
        match to {
            Some(j) => self.assignment.assign(k, j),
            None => self.assignment.unassign(k),
        }
        match from {
            Some(a) => {
                let list = &mut self.per_server[a.index()];
                let pos = list
                    .binary_search(&k)
                    .expect("vm must be on its server's list");
                list.remove(pos);
            }
            None => self.unassigned -= 1,
        }
        match to {
            Some(b) => {
                let list = &mut self.per_server[b.index()];
                let pos = list
                    .binary_search(&k)
                    .expect_err("vm cannot already be on the target list");
                list.insert(pos, k);
            }
            None => {
                self.unassigned += 1;
                self.penalty[k.index()] = 0.0;
            }
        }
    }

    /// Recomputes every maintained fact about server `j` from its (sorted)
    /// occupant list: tracker row, overload entries, worst QoS, and the
    /// downtime penalty of each hosted VM. O((occupancy + 2)·h + occupancy).
    fn refresh_server(&mut self, j: ServerId) {
        let batch = self.problem.batch();
        let infra = self.problem.infra();
        let vms = &self.per_server[j.index()];
        self.tracker.recompute_server(j, vms, batch);
        let was_overloaded = !self.overloads[j.index()].is_empty();
        self.tracker
            .overloads_into(j, infra, &mut self.overloads[j.index()]);
        let is_overloaded = !self.overloads[j.index()].is_empty();
        match (was_overloaded, is_overloaded) {
            (false, true) => self.overloaded_servers += 1,
            (true, false) => self.overloaded_servers -= 1,
            _ => {}
        }
        let q = worst_qos(&self.tracker, j, infra);
        self.qos[j.index()] = q;
        for &k in vms {
            self.penalty[k.index()] = cost::downtime_penalty(batch.terms(k), q);
        }
        let h = infra.attr_count();
        self.work += ((vms.len() + 2) * h + vms.len()) as u64;
    }

    /// Refreshes VM `k`'s membership in the Eq. 26 migration set.
    fn refresh_migration(&mut self, k: VmId) {
        if let Some(prev) = self.problem.previous() {
            self.moved[k.index()] = match (prev.server_of(k), self.assignment.server_of(k)) {
                (Some(b), Some(n)) => b != n,
                (Some(_), None) => true, // eviction counts as a move
                _ => false,
            };
            self.work += 1;
        }
    }

    /// Recomputes rule `i`'s violation degree. O(rule members).
    fn refresh_rule(&mut self, i: usize) {
        let r = self.rules[i];
        let req = &self.problem.batch().requests()[r.request];
        let rule = &req.rules[r.rule];
        let degree = rule.violation_degree(&self.assignment, self.problem.infra());
        let was_broken = self.rule_degree[i] > 0;
        let is_broken = degree > 0;
        match (was_broken, is_broken) {
            (false, true) => self.broken_rules += 1,
            (true, false) => self.broken_rules -= 1,
            _ => {}
        }
        self.rule_degree[i] = degree;
        self.work += rule.vms().len() as u64;
    }

    /// Requests having at least one faulty VM, in id order — the set the
    /// CP repair re-solves.
    pub fn offending_requests(&self) -> Vec<RequestId> {
        let batch = self.problem.batch();
        let mut flags = vec![false; batch.request_count()];
        for k in self.faulty_vms() {
            flags[batch.request_of(k).index()] = true;
        }
        flags
            .iter()
            .enumerate()
            .filter_map(|(r, &f)| f.then_some(RequestId(r)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affinity::{AffinityKind, AffinityRule};
    use crate::attr::AttrSet;
    use crate::infrastructure::{Infrastructure, ServerProfile};
    use crate::request::{vm_spec, RequestBatch};

    /// Two datacenters × two commodity servers, six VMs in three requests
    /// with one affinity and one anti-affinity rule, plus a previous
    /// allocation so all three objective terms are live.
    fn problem() -> AllocationProblem<'static> {
        let p = ServerProfile::commodity(3);
        let infra = Infrastructure::new(
            AttrSet::standard(),
            vec![
                ("dc0".into(), p.build_many(2)),
                ("dc1".into(), p.build_many(2)),
            ],
        );
        let mut batch = RequestBatch::new();
        let mut hot = vm_spec(20.0, 4096.0, 100.0);
        hot.qos_guarantee = 0.98;
        hot.downtime_cost = 7.0;
        hot.migration_cost = 3.0;
        batch.push_request(vec![hot.clone(), hot], vec![]);
        batch.push_request(
            vec![vm_spec(4.0, 2048.0, 50.0); 2],
            vec![AffinityRule::new(
                AffinityKind::SameServer,
                vec![VmId(2), VmId(3)],
            )],
        );
        batch.push_request(
            vec![vm_spec(2.0, 1024.0, 20.0); 2],
            vec![AffinityRule::new(
                AffinityKind::DifferentServer,
                vec![VmId(4), VmId(5)],
            )],
        );
        let mut previous = Assignment::unassigned(6);
        previous.assign(VmId(0), ServerId(0));
        previous.assign(VmId(1), ServerId(1));
        previous.assign(VmId(4), ServerId(2));
        AllocationProblem::new(infra, batch, Some(previous))
    }

    fn full_score(p: &AllocationProblem, a: &Assignment) -> MoveScore {
        MoveScore {
            violation: p.check(a).degree(),
            objectives: p.evaluate(a),
        }
    }

    fn assert_scores_bit_equal(d: &MoveScore, f: &MoveScore) {
        assert_eq!(d.violation.to_bits(), f.violation.to_bits(), "violation");
        for (i, (x, y)) in d
            .objectives
            .as_array()
            .iter()
            .zip(f.objectives.as_array())
            .enumerate()
        {
            assert_eq!(x.to_bits(), y.to_bits(), "objective component {i}");
        }
    }

    #[test]
    fn score_matches_full_recompute_bitwise() {
        let p = problem();
        let mut a = Assignment::unassigned(6);
        a.assign(VmId(0), ServerId(0));
        a.assign(VmId(1), ServerId(0)); // overloads cpu, degrades qos
        a.assign(VmId(2), ServerId(1));
        a.assign(VmId(3), ServerId(2)); // breaks same-server rule
        a.assign(VmId(4), ServerId(3)); // migrated from server 2
                                        // VmId(5) unassigned
        let ev = DeltaEvaluator::new(&p, a.clone());
        assert_scores_bit_equal(&ev.score(), &full_score(&p, &a));
        assert!(!ev.is_feasible());
    }

    #[test]
    fn peek_does_not_disturb_state_and_matches_oracle() {
        let p = problem();
        let mut a = Assignment::unassigned(6);
        for k in 0..6 {
            a.assign(VmId(k), ServerId(k % 4));
        }
        let mut ev = DeltaEvaluator::new(&p, a.clone());
        let before = ev.score();
        for k in 0..6 {
            for j in 0..4 {
                let peeked = ev.peek_relocate(VmId(k), ServerId(j));
                let mut moved = a.clone();
                moved.assign(VmId(k), ServerId(j));
                assert_scores_bit_equal(&peeked, &full_score(&p, &moved));
            }
        }
        assert_scores_bit_equal(&ev.score(), &before);
        assert_eq!(ev.assignment(), &a);
    }

    #[test]
    fn apply_undo_restores_bitwise_state() {
        let p = problem();
        let mut a = Assignment::unassigned(6);
        for k in 0..6 {
            a.assign(VmId(k), ServerId(k % 4));
        }
        let mut ev = DeltaEvaluator::new(&p, a.clone());
        let before = ev.score();
        ev.apply(VmId(0), ServerId(3));
        ev.unassign_vm(VmId(4));
        ev.apply(VmId(2), ServerId(0));
        assert_eq!(ev.history_len(), 3);
        assert_scores_bit_equal(&ev.score(), &full_score(&p, ev.assignment()));
        while ev.undo() {}
        assert_eq!(ev.assignment(), &a);
        assert_scores_bit_equal(&ev.score(), &before);
    }

    #[test]
    fn maintained_state_matches_rebuild_after_moves() {
        let p = problem();
        let mut a = Assignment::unassigned(6);
        for k in 0..6 {
            a.assign(VmId(k), ServerId(3 - k % 4));
        }
        let mut ev = DeltaEvaluator::new(&p, a);
        ev.apply(VmId(1), ServerId(2));
        ev.unassign_vm(VmId(3));
        ev.apply(VmId(5), ServerId(0));
        ev.apply(VmId(1), ServerId(0));
        assert_same_cells(&ev, &ev.rebuild());
    }

    #[test]
    fn faulty_vms_matches_feasibility_facts() {
        let p = problem();
        let mut a = Assignment::unassigned(6);
        a.assign(VmId(0), ServerId(0));
        a.assign(VmId(1), ServerId(0)); // cpu overload on server 0
        a.assign(VmId(2), ServerId(1));
        a.assign(VmId(3), ServerId(2)); // same-server rule broken
        a.assign(VmId(4), ServerId(3));
        // VmId(5): unassigned AND party to the different-server rule
        let ev = DeltaEvaluator::new(&p, a);
        let faulty = ev.faulty_vms();
        assert_eq!(
            faulty,
            vec![VmId(0), VmId(1), VmId(2), VmId(3), VmId(4), VmId(5)]
        );
        // (VM 4 is faulty because rule {4,5} is broken by 5's absence.)
        assert!(ev.server_overloaded(ServerId(0)));
        assert!(!ev.server_overloaded(ServerId(1)));
        assert!(ev.vm_has_broken_rule(VmId(2)));
        assert!(!ev.vm_has_broken_rule(VmId(0)));
        assert_eq!(
            ev.offending_requests(),
            vec![RequestId(0), RequestId(1), RequestId(2)]
        );
    }

    #[test]
    fn feasible_state_scores_zero_violation() {
        let p = problem();
        let mut a = Assignment::unassigned(6);
        a.assign(VmId(0), ServerId(0));
        a.assign(VmId(1), ServerId(1));
        a.assign(VmId(2), ServerId(2));
        a.assign(VmId(3), ServerId(2));
        a.assign(VmId(4), ServerId(2));
        a.assign(VmId(5), ServerId(3));
        let ev = DeltaEvaluator::new(&p, a);
        assert!(ev.is_feasible());
        let s = ev.score();
        assert_eq!(s.violation, 0.0);
        assert!(s.is_feasible());
        assert!(s.total_cost() > 0.0);
    }

    #[test]
    fn work_counter_grows_slower_than_full_recompute() {
        let p = problem();
        let mut a = Assignment::unassigned(6);
        for k in 0..6 {
            a.assign(VmId(k), ServerId(k % 4));
        }
        let mut ev = DeltaEvaluator::new(&p, a);
        let w0 = ev.work();
        let _ = ev.peek_relocate(VmId(0), ServerId(3));
        let per_peek = ev.work() - w0;
        assert!(per_peek > 0, "peek must be accounted");
        assert!(
            per_peek < ev.full_eval_work(),
            "one peek ({per_peek}) must cost less than one full eval ({})",
            ev.full_eval_work()
        );
    }

    #[test]
    fn reset_reuses_buffers_and_matches_fresh_build() {
        let p = problem();
        let mut a1 = Assignment::unassigned(6);
        for k in 0..6 {
            a1.assign(VmId(k), ServerId(k % 4));
        }
        let mut a2 = Assignment::unassigned(6);
        a2.assign(VmId(0), ServerId(1));
        a2.assign(VmId(3), ServerId(1));
        let mut ev = DeltaEvaluator::new(&p, a1);
        ev.apply(VmId(2), ServerId(3));
        ev.reset(a2.clone());
        assert_eq!(ev.history_len(), 0);
        let fresh = DeltaEvaluator::new(&p, a2);
        assert_scores_bit_equal(&ev.score(), &fresh.score());
        assert_eq!(ev.unassigned, fresh.unassigned);
        assert_eq!(ev.overloaded_servers, fresh.overloaded_servers);
        assert_eq!(ev.broken_rules, fresh.broken_rules);
    }

    /// Every maintained cell of `a` equals `b`'s, floats bit for bit.
    fn assert_same_cells(a: &DeltaEvaluator<'_>, b: &DeltaEvaluator<'_>) {
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.per_server, b.per_server);
        for j in 0..a.problem.m() {
            let j = ServerId(j);
            let bits = |ev: &DeltaEvaluator<'_>| -> Vec<u64> {
                ev.tracker.used_row(j).iter().map(|u| u.to_bits()).collect()
            };
            assert_eq!(bits(a), bits(b), "tracker row {j:?}");
            assert_eq!(a.tracker.hosted(j), b.tracker.hosted(j));
        }
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        assert_eq!(a.overloads, b.overloads);
        assert_eq!(a.qos.len(), b.qos.len());
        for j in 0..a.problem.m() {
            if !a.per_server[j].is_empty() {
                assert_eq!(a.qos[j].to_bits(), b.qos[j].to_bits(), "qos of server {j}");
            }
        }
        assert_eq!(bits(&a.penalty), bits(&b.penalty));
        assert_eq!(a.moved, b.moved);
        assert_eq!(a.rule_degree, b.rule_degree);
        assert_eq!(a.overloaded_servers, b.overloaded_servers);
        assert_eq!(a.broken_rules, b.broken_rules);
        assert_eq!(a.unassigned, b.unassigned);
        assert_scores_bit_equal(&a.score(), &b.score());
    }

    #[test]
    fn group_move_matches_sequential_moves_cell_for_cell() {
        let p = problem();
        let mut a = Assignment::unassigned(6);
        for k in 0..5 {
            a.assign(VmId(k), ServerId(k % 4));
        }
        // Members on different servers, one unplaced, one already on the
        // target, listed out of id order.
        let group = [VmId(5), VmId(2), VmId(3), VmId(0)];
        for to in [Some(ServerId(3)), Some(ServerId(0)), None] {
            let mut batched = DeltaEvaluator::new(&p, a.clone());
            batched.apply_group(&group, to);
            let mut sequential = DeltaEvaluator::new(&p, a.clone());
            for &k in &group {
                match to {
                    Some(j) => sequential.apply(k, j),
                    None => sequential.unassign_vm(k),
                }
            }
            assert_same_cells(&batched, &sequential);
            assert_same_cells(&batched, &batched.rebuild());
            assert_eq!(batched.history_len(), group.len());
            while batched.undo() {}
            assert_same_cells(&batched, &DeltaEvaluator::new(&p, a.clone()));
        }
    }

    #[test]
    fn noop_relocate_to_same_server_is_free_and_stable() {
        let p = problem();
        let mut a = Assignment::unassigned(6);
        for k in 0..6 {
            a.assign(VmId(k), ServerId(k % 4));
        }
        let mut ev = DeltaEvaluator::new(&p, a.clone());
        let before = ev.score();
        ev.apply(VmId(1), ServerId(1)); // already there
        assert_scores_bit_equal(&ev.score(), &before);
        assert!(ev.undo());
        assert_eq!(ev.assignment(), &a);
    }
}
