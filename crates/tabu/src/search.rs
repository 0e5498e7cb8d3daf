//! A standalone tabu-search optimiser over assignments (Glover 1986) —
//! the "local heuristic search procedure (guided) to explore the solution
//! space beyond local optimality by moving virtual machines on different
//! servers" the paper embeds in its hybrid; usable on its own for
//! ablations and as a post-optimisation polish.
//!
//! Candidate relocations are scored through
//! [`DeltaEvaluator`] by default —
//! O(occupancy·h + rules(vm)) per candidate instead of a from-scratch
//! O(n·h + m·h + rules) recompute — with [`Scoring::Full`] kept as the
//! differential oracle. Delta scores are bit-identical to full scores, so
//! the two modes walk the exact same trajectory (pinned by
//! `tests/delta_differential.rs`).
//!
//! Every neighborhood is scanned serially in canonical order, and the
//! first strictly-best admissible candidate wins, so a run is a pure
//! function of its configuration. The search is *anytime*:
//! [`TabuConfig::deadline`] cuts it at the next iteration boundary and
//! the best incumbent so far is returned (pinned by
//! `tests/parallel_search_differential.rs`).

use crate::list::{TabuList, TabuMove};
use cpo_model::deadline::Deadline;
use cpo_model::delta::{DeltaEvaluator, MoveScore};
use cpo_model::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// How candidate relocations are scored.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Scoring {
    /// Incremental delta evaluation (the fast path and the default).
    #[default]
    Delta,
    /// From-scratch check + evaluate per candidate, sharing one
    /// [`LoadTracker`] between the two — the slow-path oracle the
    /// differential tests compare against.
    Full,
}

/// How the per-iteration candidate set is generated.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Neighborhood {
    /// `candidates` random `(vm, server)` draws per iteration (the
    /// paper's sampling scheme).
    #[default]
    Sampled,
    /// Deterministic scan of all `n·m` relocations per iteration — no
    /// RNG involved; affordable now that scoring is incremental.
    Exhaustive,
    /// Deterministic *candidate-list* scan: only pairs the evaluator's
    /// maintained caches implicate (faulty VMs while infeasible, the
    /// least-occupied quartile of active servers once feasible — see
    /// `candidate_pairs`) are scored, with a full exhaustive scan every
    /// `refresh` iterations (and whenever the list comes back empty) so
    /// the restricted neighborhood cannot hide improving moves forever.
    Candidates {
        /// Period of the exhaustive refresh scan, in iterations
        /// (clamped to ≥ 1; `1` degenerates to [`Self::Exhaustive`]).
        refresh: usize,
    },
}

/// Tabu-search configuration.
#[derive(Clone, Copy, Debug)]
pub struct TabuConfig {
    /// Tabu tenure.
    pub tenure: usize,
    /// Iteration budget (one move per iteration).
    pub max_iterations: usize,
    /// Candidate moves sampled per iteration (ignored by
    /// [`Neighborhood::Exhaustive`]).
    pub candidates: usize,
    /// RNG seed.
    pub seed: u64,
    /// Candidate scoring mode.
    pub scoring: Scoring,
    /// Candidate generation mode.
    pub neighborhood: Neighborhood,
    /// Wall-clock bound checked at iteration boundaries; on expiry the
    /// search stops and returns the best incumbent found so far
    /// ([`TabuResult::deadline_hit`] is set). [`Deadline::never`]
    /// (the default) leaves the trajectory untouched.
    pub deadline: Deadline,
}

impl Default for TabuConfig {
    fn default() -> Self {
        Self {
            tenure: 24,
            max_iterations: 500,
            candidates: 32,
            seed: 0,
            scoring: Scoring::Delta,
            neighborhood: Neighborhood::Sampled,
            deadline: Deadline::never(),
        }
    }
}

/// Search quality of an assignment: infeasibility first, then Eq. 15 total.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Score {
    /// Total constraint-violation degree (0 = feasible).
    pub violation: f64,
    /// Aggregate objective (Eq. 15 equal weights).
    pub total_cost: f64,
}

impl Score {
    /// Lexicographic comparison: less violating wins; ties by cost.
    pub fn better_than(&self, other: &Score) -> bool {
        if self.violation != other.violation {
            return self.violation < other.violation;
        }
        self.total_cost < other.total_cost
    }
}

impl From<MoveScore> for Score {
    fn from(ms: MoveScore) -> Self {
        Score {
            violation: ms.violation,
            total_cost: ms.total_cost(),
        }
    }
}

/// Scores an assignment from scratch, building ONE tracker shared by the
/// constraint check and the objective evaluation (each used to build its
/// own — a silent 2× on the hot path).
pub fn score(problem: &AllocationProblem, assignment: &Assignment) -> Score {
    let tracker = problem.tracker(assignment);
    Score {
        violation: problem.check_with_tracker(assignment, &tracker).degree(),
        total_cost: problem.evaluate_with_tracker(assignment, &tracker).total(),
    }
}

/// Result of a tabu-search run.
#[derive(Clone, Debug)]
pub struct TabuResult {
    /// Best assignment found.
    pub best: Assignment,
    /// Score of the best assignment.
    pub best_score: Score,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Moves accepted.
    pub accepted_moves: usize,
    /// Tabu moves accepted via the aspiration criterion.
    pub aspiration_hits: usize,
    /// Distinct candidate relocations scored across all iterations
    /// (duplicate draws within an iteration are deduplicated).
    pub candidates_scanned: usize,
    /// Candidates scored through the delta evaluator.
    pub delta_evals: usize,
    /// Candidates scored by full recompute.
    pub full_evals: usize,
    /// Heavy model-cell operations spent scoring (the unit
    /// [`DeltaEvaluator::work`] defines) — the quantity the ≥5×
    /// delta-vs-full regression test pins.
    pub eval_work: u64,
    /// `true` when [`TabuConfig::deadline`] expired before the
    /// iteration budget did; `best` is then the anytime incumbent.
    pub deadline_hit: bool,
}

/// Callback surface for anytime consumers of the search: the driver
/// reports every incumbent improvement as it happens, so a caller racing
/// a deadline can harvest the trajectory without waiting for the run to
/// finish. `tests/parallel_search_differential.rs` uses it to prove the
/// incumbent sequence is strictly improving (anytime monotonicity).
pub trait SearchObserver {
    /// The incumbent improved at `iteration` (`0` reports the starting
    /// assignment's score before any move).
    fn on_incumbent(&mut self, iteration: usize, score: Score);
}

/// The do-nothing observer behind plain [`tabu_search`].
pub struct NoObserver;

impl SearchObserver for NoObserver {
    fn on_incumbent(&mut self, _iteration: usize, _score: Score) {}
}

/// The two scoring backends behind one interface. `Delta` owns the current
/// assignment inside the evaluator; `Full` carries it alongside.
enum ScoreEngine<'p> {
    Delta {
        ev: Box<DeltaEvaluator<'p>>,
        /// Work already booked when the engine was built (the initial
        /// state construction), excluded from `eval_work`.
        base_work: u64,
        evals: usize,
    },
    Full {
        problem: &'p AllocationProblem<'p>,
        current: Assignment,
        /// Σ rule member counts, for the analytic per-eval work cost.
        total_rule_vms: u64,
        work: u64,
        evals: usize,
    },
}

impl<'p> ScoreEngine<'p> {
    fn new(problem: &'p AllocationProblem<'p>, start: Assignment, scoring: Scoring) -> Self {
        match scoring {
            Scoring::Delta => {
                let ev = Box::new(DeltaEvaluator::new(problem, start));
                let base_work = ev.work();
                ScoreEngine::Delta {
                    ev,
                    base_work,
                    evals: 0,
                }
            }
            Scoring::Full => {
                let total_rule_vms = problem
                    .batch()
                    .requests()
                    .iter()
                    .flat_map(|r| r.rules.iter())
                    .map(|rule| rule.vms().len() as u64)
                    .sum();
                ScoreEngine::Full {
                    problem,
                    current: start,
                    total_rule_vms,
                    work: 0,
                    evals: 0,
                }
            }
        }
    }

    fn server_of(&self, k: VmId) -> Option<ServerId> {
        match self {
            ScoreEngine::Delta { ev, .. } => ev.assignment().server_of(k),
            ScoreEngine::Full { current, .. } => current.server_of(k),
        }
    }

    fn current(&self) -> &Assignment {
        match self {
            ScoreEngine::Delta { ev, .. } => ev.assignment(),
            ScoreEngine::Full { current, .. } => current,
        }
    }

    /// Scores the current assignment (start-of-search baseline).
    fn score_current(&mut self) -> Score {
        match self {
            ScoreEngine::Delta { ev, .. } => ev.score().into(),
            ScoreEngine::Full {
                problem,
                current,
                total_rule_vms,
                work,
                evals,
            } => {
                *evals += 1;
                let (s, w) = full_score_with_work(problem, current, *total_rule_vms);
                *work += w;
                s
            }
        }
    }

    /// Scores "relocate `k` to `j`" without changing the current state.
    fn peek(&mut self, k: VmId, j: ServerId) -> Score {
        match self {
            ScoreEngine::Delta { ev, evals, .. } => {
                *evals += 1;
                ev.peek_relocate(k, j).into()
            }
            ScoreEngine::Full {
                problem,
                current,
                total_rule_vms,
                work,
                evals,
            } => {
                *evals += 1;
                let old = current.server_of(k);
                current.assign(k, j);
                let (s, w) = full_score_with_work(problem, current, *total_rule_vms);
                *work += w;
                match old {
                    Some(o) => current.assign(k, o),
                    None => current.unassign(k),
                }
                s
            }
        }
    }

    /// Commits "relocate `k` to `j`".
    fn commit(&mut self, k: VmId, j: ServerId) {
        match self {
            ScoreEngine::Delta { ev, .. } => {
                ev.apply(k, j);
                ev.clear_history(); // accepted moves are never undone
            }
            ScoreEngine::Full { current, .. } => current.assign(k, j),
        }
    }

    /// `(delta_evals, full_evals, eval_work)` so far.
    fn stats(&self) -> (usize, usize, u64) {
        match self {
            ScoreEngine::Delta {
                ev,
                base_work,
                evals,
            } => (*evals, 0, ev.work() - base_work),
            ScoreEngine::Full { work, evals, .. } => (0, *evals, *work),
        }
    }

    /// VMs implicated in the current violations. Both variants return
    /// the same ascending-id set (an over-`0..n` flag scan in each), so
    /// candidate lists built from it are identical across scoring modes
    /// — the property the candidate-list differential test relies on.
    fn faulty_vms(&self) -> Vec<VmId> {
        match self {
            ScoreEngine::Delta { ev, .. } => ev.faulty_vms(),
            ScoreEngine::Full {
                problem, current, ..
            } => crate::repair::faulty_vms(problem, current),
        }
    }

    /// Per-server VM counts. `Delta` reads the maintained occupant
    /// lists in O(m); `Full` rebuilds the histogram from the assignment
    /// in O(n + m) — same values either way.
    fn occupancies(&self) -> Vec<usize> {
        match self {
            ScoreEngine::Delta { ev, .. } => {
                let m = ev.problem().m();
                (0..m).map(|j| ev.occupancy(ServerId(j))).collect()
            }
            ScoreEngine::Full {
                problem, current, ..
            } => {
                let mut occ = vec![0usize; problem.m()];
                for k in (0..problem.n()).map(VmId) {
                    if let Some(j) = current.server_of(k) {
                        occ[j.index()] += 1;
                    }
                }
                occ
            }
        }
    }
}

/// One full (tracker-rebuilding) score plus its analytic model-cell cost,
/// in the unit `DeltaEvaluator::work` defines (see its `full_eval_work`).
fn full_score_with_work(
    problem: &AllocationProblem,
    assignment: &Assignment,
    total_rule_vms: u64,
) -> (Score, u64) {
    let tracker = problem.tracker(assignment);
    let s = Score {
        violation: problem.check_with_tracker(assignment, &tracker).degree(),
        total_cost: problem.evaluate_with_tracker(assignment, &tracker).total(),
    };
    let (_, m, n, h) = problem.dims();
    let assigned = assignment.assigned_count();
    let active = tracker.active_servers();
    let mut w = (assigned * h + m * h + n + m + active * h + assigned) as u64 + total_rule_vms;
    if problem.previous().is_some() {
        w += n as u64;
    }
    (s, w)
}

/// A candidate move the scan considers: `(vm, target server, score,
/// accepted-via-aspiration)`.
type Candidate = (VmId, ServerId, Score, bool);

/// The candidate pairs one deterministic scan covers, in canonical order.
enum ScanSet<'s> {
    /// The full `n·m` relocation scan, VM-major (no-ops skipped inline).
    Flat {
        /// VM count.
        n: usize,
        /// Server count.
        m: usize,
    },
    /// An explicit candidate list (already canonically ordered by
    /// `candidate_pairs`).
    Pairs(&'s [(VmId, ServerId)]),
}

impl ScanSet<'_> {
    fn len(&self) -> usize {
        match self {
            ScanSet::Flat { n, m } => n * m,
            ScanSet::Pairs(p) => p.len(),
        }
    }

    #[inline]
    fn pair(&self, idx: usize) -> (VmId, ServerId) {
        match self {
            ScanSet::Flat { m, .. } => (VmId(idx / m), ServerId(idx % m)),
            ScanSet::Pairs(p) => p[idx],
        }
    }
}

/// Scores `(k, j)` and folds it into the running best candidate, honouring
/// the tabu list and the aspiration criterion.
fn consider_candidate(
    engine: &mut ScoreEngine<'_>,
    tabu: &TabuList,
    k: VmId,
    j: ServerId,
    best_score: &Score,
    best_cand: &mut Option<Candidate>,
    candidates_scanned: &mut usize,
) {
    *candidates_scanned += 1;
    let is_tabu = tabu.is_tabu(k, j);
    let s = engine.peek(k, j);
    let aspirated = is_tabu && s.better_than(best_score);
    if is_tabu && !aspirated {
        return;
    }
    let better = match best_cand {
        None => true,
        Some((_, _, cs, _)) => s.better_than(cs),
    };
    if better {
        *best_cand = Some((k, j, s, aspirated));
    }
}

/// Builds one iteration's candidate list from the engine's maintained
/// state, in canonical (vm-major, server-minor ascending) order:
///
/// * **infeasible** (`violation > 0`) — only relocations of implicated
///   VMs can reduce the violation, so sources are [`ScoreEngine::faulty_vms`]
///   and targets are *all* servers;
/// * **feasible** — consolidation: sources are the VMs on the
///   least-occupied quartile (`ceil(active/4)`, ties by server id) of
///   active servers, targets the active servers — draining light hosts
///   into the rest is where the Eq. 15 cost decreases live.
///
/// No-op pairs (`server_of(k) == j`) may appear; every scan skips them
/// before scoring, so they cost nothing and never count. An empty list
/// makes the caller fall back to a full exhaustive scan this iteration.
fn candidate_pairs(
    engine: &ScoreEngine<'_>,
    current_score: &Score,
    n: usize,
    m: usize,
) -> Vec<(VmId, ServerId)> {
    if current_score.violation > 0.0 {
        let sources = engine.faulty_vms();
        let mut pairs = Vec::with_capacity(sources.len() * m);
        for &k in &sources {
            for j in (0..m).map(ServerId) {
                pairs.push((k, j));
            }
        }
        return pairs;
    }
    let occ = engine.occupancies();
    let active: Vec<ServerId> = (0..m)
        .map(ServerId)
        .filter(|j| occ[j.index()] > 0)
        .collect();
    if active.len() < 2 {
        return Vec::new();
    }
    let mut by_load = active.clone();
    by_load.sort_by_key(|j| (occ[j.index()], j.index()));
    let mut is_drain = vec![false; m];
    for &j in &by_load[..active.len().div_ceil(4)] {
        is_drain[j.index()] = true;
    }
    let mut pairs = Vec::new();
    for k in (0..n).map(VmId) {
        if let Some(s) = engine.server_of(k) {
            if is_drain[s.index()] {
                for &j in &active {
                    pairs.push((k, j));
                }
            }
        }
    }
    pairs
}

/// Scans a [`ScanSet`] through the engine in canonical order, sharing
/// `consider_candidate` with the sampled path. Ties keep the earliest
/// pair ([`Score::better_than`] is strict).
fn scan_set_serial(
    engine: &mut ScoreEngine<'_>,
    tabu: &TabuList,
    set: &ScanSet<'_>,
    best_score: &Score,
    best_cand: &mut Option<Candidate>,
    candidates_scanned: &mut usize,
) {
    for idx in 0..set.len() {
        let (k, j) = set.pair(idx);
        if engine.server_of(k) == Some(j) {
            continue;
        }
        consider_candidate(
            engine,
            tabu,
            k,
            j,
            best_score,
            best_cand,
            candidates_scanned,
        );
    }
}

/// Runs tabu search from `start`, relocating one VM per iteration.
///
/// Per iteration, the candidate set (random samples, the exhaustive
/// `n·m` scan, or a cache-driven candidate list, per
/// [`TabuConfig::neighborhood`]) is scored incrementally; the best
/// non-tabu candidate (or a tabu one that beats the best known — the
/// aspiration criterion) is applied.
pub fn tabu_search(
    problem: &AllocationProblem,
    start: Assignment,
    config: &TabuConfig,
) -> TabuResult {
    tabu_search_observed(problem, start, config, &mut NoObserver)
}

/// [`tabu_search`] with an incumbent-reporting [`SearchObserver`] — the
/// anytime entry point.
pub fn tabu_search_observed(
    problem: &AllocationProblem,
    start: Assignment,
    config: &TabuConfig,
    observer: &mut dyn SearchObserver,
) -> TabuResult {
    let n = problem.n();
    let m = problem.m();
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut tabu = TabuList::new(config.tenure);

    let mut engine = ScoreEngine::new(problem, start, config.scoring);
    let mut current_score = engine.score_current();
    let mut best = engine.current().clone();
    let mut best_score = current_score;
    let mut accepted = 0usize;
    let mut iterations = 0usize;
    let mut aspiration_hits = 0usize;
    let mut candidates_scanned = 0usize;
    let mut deadline_hit = false;

    let mut sp = cpo_obs::span!("tabu.search", vms = n, servers = m);

    observer.on_incumbent(0, best_score);

    if n == 0 || m < 2 {
        let (delta_evals, full_evals, eval_work) = engine.stats();
        return TabuResult {
            best,
            best_score,
            iterations,
            accepted_moves: accepted,
            aspiration_hits,
            candidates_scanned,
            delta_evals,
            full_evals,
            eval_work,
            deadline_hit,
        };
    }

    // Dedupe buffer for sampled candidates: the same (vm, server) pair can
    // be drawn more than once per iteration; scoring it again cannot change
    // the selection (better_than is strict), so only the first draw is
    // scored. The RNG is still advanced per draw to keep trajectories
    // comparable across configurations.
    let mut seen: Vec<(VmId, ServerId)> = Vec::with_capacity(config.candidates);
    let mut pairs: Vec<(VmId, ServerId)> = Vec::new();

    for _ in 0..config.max_iterations {
        if config.deadline.expired() {
            deadline_hit = true;
            break;
        }
        iterations += 1;
        let mut best_cand: Option<Candidate> = None;
        // `None` = sampled path; `Some(set)` = deterministic scan.
        let scan_set = match config.neighborhood {
            Neighborhood::Sampled => None,
            Neighborhood::Exhaustive => Some(ScanSet::Flat { n, m }),
            Neighborhood::Candidates { refresh } => {
                let full_scan = (iterations - 1).is_multiple_of(refresh.max(1));
                if !full_scan {
                    pairs = candidate_pairs(&engine, &current_score, n, m);
                }
                if full_scan || pairs.is_empty() {
                    Some(ScanSet::Flat { n, m })
                } else {
                    Some(ScanSet::Pairs(&pairs))
                }
            }
        };
        match scan_set {
            None => {
                seen.clear();
                for _ in 0..config.candidates {
                    let k = VmId(rng.gen_range(0..n));
                    let j = ServerId(rng.gen_range(0..m));
                    if engine.server_of(k) == Some(j) {
                        continue;
                    }
                    if seen.contains(&(k, j)) {
                        continue;
                    }
                    seen.push((k, j));
                    consider_candidate(
                        &mut engine,
                        &tabu,
                        k,
                        j,
                        &best_score,
                        &mut best_cand,
                        &mut candidates_scanned,
                    );
                }
            }
            Some(set) => scan_set_serial(
                &mut engine,
                &tabu,
                &set,
                &best_score,
                &mut best_cand,
                &mut candidates_scanned,
            ),
        }
        let Some((k, j, s, cand_aspirated)) = best_cand else {
            continue;
        };
        if cand_aspirated {
            aspiration_hits += 1;
        }
        if let Some(from) = engine.server_of(k) {
            tabu.push(TabuMove { vm: k, from });
        }
        engine.commit(k, j);
        current_score = s;
        accepted += 1;
        if current_score.better_than(&best_score) {
            best = engine.current().clone();
            best_score = current_score;
            observer.on_incumbent(iterations, best_score);
        }
        // Early exit once feasible and stagnating is handled by budget;
        // a perfect zero-cost solution cannot exist (opex > 0), so run on.
    }

    let (delta_evals, full_evals, eval_work) = engine.stats();
    sp.field("iterations", iterations)
        .field("accepted", accepted)
        .field("aspiration_hits", aspiration_hits);
    cpo_obs::counter_add("tabu.iterations", iterations as u64);
    cpo_obs::counter_add("tabu.accepted_moves", accepted as u64);
    cpo_obs::counter_add("tabu.aspiration_hits", aspiration_hits as u64);
    cpo_obs::counter_add("tabu.candidates_scanned", candidates_scanned as u64);
    cpo_obs::counter_add("tabu.delta_evals", delta_evals as u64);
    cpo_obs::counter_add("tabu.full_evals", full_evals as u64);
    cpo_obs::counter_add("tabu.deadline_hits", deadline_hit as u64);
    TabuResult {
        best,
        best_score,
        iterations,
        accepted_moves: accepted,
        aspiration_hits,
        candidates_scanned,
        delta_evals,
        full_evals,
        eval_work,
        deadline_hit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpo_model::attr::AttrSet;

    fn problem(servers: usize, vms: usize) -> AllocationProblem<'static> {
        let profile = ServerProfile::commodity(3);
        let infra = Infrastructure::new(
            AttrSet::standard(),
            vec![("dc".into(), profile.build_many(servers))],
        );
        let mut batch = RequestBatch::new();
        for _ in 0..vms {
            batch.push_request(vec![vm_spec(4.0, 4096.0, 50.0)], vec![]);
        }
        AllocationProblem::new(infra, batch, None)
    }

    #[test]
    fn score_orders_by_violation_then_cost() {
        let a = Score {
            violation: 0.0,
            total_cost: 100.0,
        };
        let b = Score {
            violation: 1.0,
            total_cost: 1.0,
        };
        let c = Score {
            violation: 0.0,
            total_cost: 50.0,
        };
        assert!(a.better_than(&b));
        assert!(c.better_than(&a));
        assert!(!b.better_than(&c));
    }

    #[test]
    fn search_reaches_feasibility_from_overload() {
        // Ten 4-vCPU VMs piled on one 28.8-effective-vCPU server: overloaded.
        let p = problem(4, 10);
        let mut start = Assignment::unassigned(10);
        for k in 0..10 {
            start.assign(VmId(k), ServerId(0));
        }
        assert!(!p.is_feasible(&start));
        let result = tabu_search(&p, start, &TabuConfig::default());
        assert_eq!(
            result.best_score.violation, 0.0,
            "search must reach feasibility"
        );
        assert!(p.is_feasible(&result.best));
        assert!(result.accepted_moves > 0);
        assert!(result.delta_evals > 0);
        assert_eq!(result.full_evals, 0);
    }

    #[test]
    fn search_reduces_cost_of_feasible_start() {
        // Spread VMs over expensive many servers; packing is cheaper.
        let p = problem(6, 6);
        let mut start = Assignment::unassigned(6);
        for k in 0..6 {
            start.assign(VmId(k), ServerId(k));
        }
        let initial = score(&p, &start);
        let result = tabu_search(
            &p,
            start,
            &TabuConfig {
                max_iterations: 800,
                ..Default::default()
            },
        );
        assert!(
            result.best_score.total_cost < initial.total_cost,
            "tabu should consolidate: {} -> {}",
            initial.total_cost,
            result.best_score.total_cost
        );
        assert_eq!(result.best_score.violation, 0.0);
    }

    #[test]
    fn search_is_deterministic_per_seed() {
        let p = problem(4, 8);
        let start = Assignment::from_genes(&[0; 8]);
        let r1 = tabu_search(&p, start.clone(), &TabuConfig::default());
        let r2 = tabu_search(&p, start, &TabuConfig::default());
        assert_eq!(r1.best, r2.best);
        assert_eq!(r1.accepted_moves, r2.accepted_moves);
        assert_eq!(r1.candidates_scanned, r2.candidates_scanned);
        assert_eq!(r1.eval_work, r2.eval_work);
    }

    #[test]
    fn delta_and_full_scoring_walk_the_same_trajectory() {
        // Delta scores are bit-identical to full scores, so every
        // candidate comparison — and therefore the whole search — must
        // agree between the two modes.
        let p = problem(5, 12);
        let mut start = Assignment::unassigned(12);
        for k in 0..12 {
            start.assign(VmId(k), ServerId(0));
        }
        let mut runs = Vec::new();
        for scoring in [Scoring::Delta, Scoring::Full] {
            runs.push(tabu_search(
                &p,
                start.clone(),
                &TabuConfig {
                    max_iterations: 120,
                    scoring,
                    ..Default::default()
                },
            ));
        }
        let (d, f) = (&runs[0], &runs[1]);
        assert_eq!(d.best, f.best);
        assert_eq!(
            d.best_score.violation.to_bits(),
            f.best_score.violation.to_bits()
        );
        assert_eq!(
            d.best_score.total_cost.to_bits(),
            f.best_score.total_cost.to_bits()
        );
        assert_eq!(d.accepted_moves, f.accepted_moves);
        assert_eq!(d.aspiration_hits, f.aspiration_hits);
        assert_eq!(d.candidates_scanned, f.candidates_scanned);
        assert!(d.full_evals == 0 && f.delta_evals == 0);
        assert!(
            d.eval_work < f.eval_work,
            "delta work {} must undercut full work {}",
            d.eval_work,
            f.eval_work
        );
    }

    #[test]
    fn exhaustive_neighborhood_is_deterministic_and_ignores_the_seed() {
        let p = problem(4, 8);
        let start = Assignment::from_genes(&[0; 8]);
        let cfg = |seed| TabuConfig {
            max_iterations: 40,
            neighborhood: Neighborhood::Exhaustive,
            seed,
            ..Default::default()
        };
        let r1 = tabu_search(&p, start.clone(), &cfg(0));
        let r2 = tabu_search(&p, start.clone(), &cfg(12345));
        assert_eq!(r1.best, r2.best);
        assert_eq!(r1.candidates_scanned, r2.candidates_scanned);
        // Full scan considers every non-noop pair each iteration.
        assert!(r1.candidates_scanned >= 40 * (8 * 3));
        assert_eq!(r1.best_score.violation, 0.0);
    }

    #[test]
    fn empty_problem_is_a_noop() {
        let profile = ServerProfile::commodity(3);
        let infra = Infrastructure::new(
            AttrSet::standard(),
            vec![("dc".into(), profile.build_many(1))],
        );
        let p = AllocationProblem::new(infra, RequestBatch::new(), None);
        let r = tabu_search(&p, Assignment::unassigned(0), &TabuConfig::default());
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn candidate_list_reaches_feasibility_with_less_scanning() {
        let p = problem(4, 10);
        let mut start = Assignment::unassigned(10);
        for k in 0..10 {
            start.assign(VmId(k), ServerId(0));
        }
        let exhaustive = tabu_search(
            &p,
            start.clone(),
            &TabuConfig {
                max_iterations: 60,
                neighborhood: Neighborhood::Exhaustive,
                ..Default::default()
            },
        );
        let candidates = tabu_search(
            &p,
            start,
            &TabuConfig {
                max_iterations: 60,
                neighborhood: Neighborhood::Candidates { refresh: 16 },
                ..Default::default()
            },
        );
        assert_eq!(candidates.best_score.violation, 0.0);
        assert!(p.is_feasible(&candidates.best));
        assert!(
            candidates.candidates_scanned < exhaustive.candidates_scanned,
            "candidate list must scan less: {} vs {}",
            candidates.candidates_scanned,
            exhaustive.candidates_scanned
        );
    }

    #[test]
    fn candidate_list_is_identical_across_scoring_modes() {
        let p = problem(5, 12);
        let mut start = Assignment::unassigned(12);
        for k in 0..12 {
            start.assign(VmId(k), ServerId(0));
        }
        let cfg = |scoring| TabuConfig {
            max_iterations: 80,
            neighborhood: Neighborhood::Candidates { refresh: 10 },
            scoring,
            ..Default::default()
        };
        let d = tabu_search(&p, start.clone(), &cfg(Scoring::Delta));
        let f = tabu_search(&p, start, &cfg(Scoring::Full));
        assert_eq!(d.best, f.best);
        assert_eq!(d.accepted_moves, f.accepted_moves);
        assert_eq!(d.candidates_scanned, f.candidates_scanned);
        assert_eq!(
            d.best_score.total_cost.to_bits(),
            f.best_score.total_cost.to_bits()
        );
    }

    #[test]
    fn unbounded_deadline_never_fires_and_expired_deadline_stops_at_once() {
        let p = problem(4, 8);
        let start = Assignment::from_genes(&[0; 8]);
        let r = tabu_search(&p, start.clone(), &TabuConfig::default());
        assert!(!r.deadline_hit);
        let expired = tabu_search(
            &p,
            start.clone(),
            &TabuConfig {
                deadline: Deadline::within(std::time::Duration::ZERO),
                ..Default::default()
            },
        );
        assert!(expired.deadline_hit);
        assert_eq!(expired.iterations, 0, "no iteration may start past expiry");
        // Anytime contract: the incumbent is still the (scored) start.
        assert_eq!(expired.best, start);
    }

    #[test]
    fn observer_sees_a_strictly_improving_incumbent_sequence() {
        struct Recorder(Vec<(usize, Score)>);
        impl SearchObserver for Recorder {
            fn on_incumbent(&mut self, iteration: usize, score: Score) {
                self.0.push((iteration, score));
            }
        }
        let p = problem(4, 10);
        let mut start = Assignment::unassigned(10);
        for k in 0..10 {
            start.assign(VmId(k), ServerId(0));
        }
        let mut rec = Recorder(Vec::new());
        let r = tabu_search_observed(
            &p,
            start,
            &TabuConfig {
                max_iterations: 120,
                neighborhood: Neighborhood::Candidates { refresh: 12 },
                ..Default::default()
            },
            &mut rec,
        );
        assert!(rec.0.len() >= 2, "search must improve at least once");
        assert_eq!(rec.0[0].0, 0, "first report is the start");
        for w in rec.0.windows(2) {
            assert!(w[1].0 > w[0].0, "iterations strictly increase");
            assert!(w[1].1.better_than(&w[0].1), "incumbents strictly improve");
        }
        let last = rec.0.last().unwrap().1;
        assert_eq!(last.total_cost.to_bits(), r.best_score.total_cost.to_bits());
    }

    #[test]
    fn best_never_worse_than_start() {
        let p = problem(5, 10);
        let start = Assignment::from_genes(&[0, 1, 2, 3, 4, 0, 1, 2, 3, 4]);
        let s0 = score(&p, &start);
        let r = tabu_search(
            &p,
            start,
            &TabuConfig {
                max_iterations: 100,
                ..Default::default()
            },
        );
        assert!(
            r.best_score.better_than(&s0) || r.best_score == s0,
            "tabu must never return worse than its start"
        );
    }
}
