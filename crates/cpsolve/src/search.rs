//! Depth-first search with event-driven constraint propagation: per-variable
//! watcher lists, a deduplicated propagation queue drained to fixpoint,
//! first-fail variable order, configurable value order, optional
//! branch-and-bound optimisation and a wall-clock deadline (the paper
//! aborts CP past its response-time budget).
//!
//! Two interchangeable engines drive propagation:
//!
//! * [`Engine::Queued`] (default) — only propagators watching a variable
//!   that actually changed are (re-)queued, with an in-queue bitmask
//!   deduplicating wakeups and per-propagator event filters
//!   ([`crate::propagator::WakeOn`]) skipping wakeups that provably
//!   cannot prune. After a branching decision, the queue is seeded from
//!   the trail delta, so a node costs work proportional to what the
//!   decision disturbed.
//! * [`Engine::Reference`] — the original full-fixpoint loop: every
//!   propagator re-runs in every round until a whole round changes
//!   nothing. Kept verbatim so the differential test suite can prove the
//!   queued engine reaches bit-identical fixpoints and solve outcomes.

use crate::propagator::{Propagation, Propagator, WakeOn};
use crate::store::{Store, VarId};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Value-ordering heuristic for branching.
#[derive(Clone, Debug)]
pub enum ValueOrder {
    /// Ascending value index.
    Lex,
    /// Ascending per-(var,value) cost; `cost[var][value]`.
    ByCost(Vec<Vec<f64>>),
    /// Deterministic pseudo-random order per (variable, restart) — the
    /// diversification used by [`solve_with_restarts`].
    Shuffled {
        /// Base seed; combined with the variable index per decision.
        seed: u64,
    },
}

/// Which propagation engine drives the search.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub enum Engine {
    /// Event-driven: watcher lists + deduplicated propagation queue.
    #[default]
    Queued,
    /// The pre-event full-fixpoint loop (every propagator, every round).
    /// Exists for the differential test layer; not for production use.
    Reference,
}

/// Search configuration.
#[derive(Clone, Debug)]
pub struct SearchConfig {
    /// Wall-clock budget; `None` = unlimited.
    pub deadline: Option<Duration>,
    /// Value ordering.
    pub value_order: ValueOrder,
    /// Node expansion budget; `None` = unlimited.
    pub max_nodes: Option<usize>,
    /// Propagation engine.
    pub engine: Engine,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            deadline: None,
            value_order: ValueOrder::Lex,
            max_nodes: None,
            engine: Engine::Queued,
        }
    }
}

/// Outcome of a search.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// A (first or best) solution was found: values per variable.
    Solution(Vec<usize>),
    /// The problem was proven infeasible.
    Infeasible,
    /// Deadline or node budget hit before an answer.
    Timeout,
}

impl Outcome {
    /// The solution values, if any.
    pub fn solution(&self) -> Option<&[usize]> {
        match self {
            Outcome::Solution(s) => Some(s),
            _ => None,
        }
    }
}

/// A CSP: a store, its propagators and the event-driven propagation state
/// (watcher lists, wake queue, trail cursor).
pub struct Csp {
    /// The variable store.
    pub store: Store,
    /// The constraint propagators.
    propagators: Vec<Box<dyn Propagator>>,
    /// `watchers[var]` — indices of propagators watching `var`.
    watchers: Vec<Vec<u32>>,
    /// `wake_on[p]` — cached event filter of propagator `p`: propagators
    /// subscribed to [`WakeOn::Fix`] are only woken by a trail entry whose
    /// variable is (now) fixed.
    wake_on: Vec<WakeOn>,
    /// Pending wakeups (propagator indices), deduplicated by `in_queue`.
    queue: VecDeque<u32>,
    /// In-queue bitmask: `in_queue[p]` ⇔ `p` is already enqueued.
    in_queue: Vec<bool>,
    /// Trail cursor: everything in `store.trail[seen..]` is dirty.
    seen: usize,
    /// Individual propagator invocations performed so far.
    propagations: u64,
    /// Propagator enqueue events (queued engine).
    wakeups: u64,
    /// Fixpoint computations started (queue drains / reference rounds).
    rounds: u64,
}

impl Csp {
    /// Creates a CSP over `n_vars` variables with domains `0..n_values`.
    pub fn new(n_vars: usize, n_values: usize) -> Self {
        Self {
            store: Store::new(n_vars, n_values),
            propagators: Vec::new(),
            watchers: vec![Vec::new(); n_vars],
            wake_on: Vec::new(),
            queue: VecDeque::new(),
            in_queue: Vec::new(),
            seen: 0,
            propagations: 0,
            wakeups: 0,
            rounds: 0,
        }
    }

    /// Adds a propagator and registers it on the watcher list of every
    /// variable it constrains.
    pub fn add(&mut self, p: Box<dyn Propagator>) {
        let idx = self.propagators.len() as u32;
        for &v in p.vars() {
            self.watchers[v.index()].push(idx);
        }
        self.wake_on.push(p.wake_on());
        self.propagators.push(p);
        self.in_queue.push(false);
    }

    /// Total propagator invocations performed on this CSP so far (across
    /// all searches run on it).
    pub fn propagations(&self) -> u64 {
        self.propagations
    }

    /// Total propagator enqueue events (queued engine only).
    pub fn wakeups(&self) -> u64 {
        self.wakeups
    }

    /// Total fixpoint computations started (queue drains and reference
    /// rounds both count once per `propagate*` call).
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Pushes a backtracking checkpoint (store checkpoint + engine sync).
    pub fn push(&mut self) {
        self.store.push();
    }

    /// Pops to the last checkpoint: restores the store and resets the
    /// engine's queue and trail cursor (undone changes need no wakeups).
    pub fn pop(&mut self) {
        self.store.pop();
        self.clear_queue();
        self.seen = self.store.trail_len();
    }

    fn clear_queue(&mut self) {
        for idx in self.queue.drain(..) {
            self.in_queue[idx as usize] = false;
        }
    }

    fn enqueue(&mut self, idx: u32) {
        if !self.in_queue[idx as usize] {
            self.in_queue[idx as usize] = true;
            self.queue.push_back(idx);
            self.wakeups += 1;
        }
    }

    /// Wakes every propagator watching a variable touched on the trail
    /// since the cursor.
    fn seed_from_trail(&mut self) {
        let from = self.seen.min(self.store.trail_len());
        self.seed_from_trail_from(from);
    }

    /// Drains the wake queue to fixpoint. Returns `false` on failure.
    fn drain(&mut self) -> bool {
        self.rounds += 1;
        while let Some(idx) = self.queue.pop_front() {
            self.in_queue[idx as usize] = false;
            self.propagations += 1;
            let before = self.store.trail_len();
            let result = self.propagators[idx as usize].propagate(&mut self.store);
            match result {
                Propagation::Infeasible => {
                    self.clear_queue();
                    self.seen = self.store.trail_len();
                    return false;
                }
                Propagation::Changed | Propagation::Stable => {
                    // Wake watchers of everything that changed — including
                    // this propagator itself, so a single call need not
                    // reach its own fixpoint.
                    if self.store.trail_len() > before {
                        self.seed_from_trail_from(before);
                    }
                }
            }
        }
        self.seen = self.store.trail_len();
        true
    }

    fn seed_from_trail_from(&mut self, from: usize) {
        let len = self.store.trail_len();
        for t in from..len {
            let var = self.store.trail_var(t);
            // Domains only shrink between checkpoints, so "fixed now" is
            // exactly "became fixed by (or before) this entry's removal" —
            // the fix event [`WakeOn::Fix`] subscribers wait for.
            let fixed = self.store.is_fixed(VarId(var));
            for w in 0..self.watchers[var].len() {
                let idx = self.watchers[var][w];
                if self.wake_on[idx as usize] == WakeOn::Fix && !fixed {
                    continue;
                }
                self.enqueue(idx);
            }
        }
        self.seen = len;
    }

    /// Runs propagation to fixpoint with a full wake of every propagator
    /// (correct regardless of how the store was manipulated). Returns
    /// `false` on failure.
    pub fn propagate(&mut self) -> bool {
        for idx in 0..self.propagators.len() as u32 {
            self.enqueue(idx);
        }
        self.seen = self.store.trail_len();
        self.drain()
    }

    /// Runs propagation to fixpoint waking only propagators whose watched
    /// variables changed since the last propagation (the per-node hot
    /// path after a branching decision). Returns `false` on failure.
    pub fn propagate_dirty(&mut self) -> bool {
        self.seed_from_trail();
        self.drain()
    }

    /// The original full-fixpoint loop: every propagator re-runs in every
    /// round until a whole round changes nothing. Reference semantics for
    /// the differential tests. Returns `false` on failure.
    pub fn propagate_reference(&mut self) -> bool {
        self.rounds += 1;
        loop {
            let mut any_change = false;
            for p in &self.propagators {
                self.propagations += 1;
                match p.propagate_reference(&mut self.store) {
                    Propagation::Infeasible => {
                        self.seen = self.store.trail_len();
                        return false;
                    }
                    Propagation::Changed => any_change = true,
                    Propagation::Stable => {}
                }
            }
            if !any_change {
                self.seen = self.store.trail_len();
                return true;
            }
        }
    }

    /// Fixpoint propagation under the given engine, seeding from the
    /// trail delta when `dirty` (only meaningful for the queued engine —
    /// the reference engine always re-runs everything).
    fn propagate_with(&mut self, engine: Engine, dirty: bool) -> bool {
        match engine {
            Engine::Queued if dirty => self.propagate_dirty(),
            Engine::Queued => self.propagate(),
            Engine::Reference => self.propagate_reference(),
        }
    }
}

/// Search statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Nodes expanded.
    pub nodes: usize,
    /// Backtracks performed.
    pub backtracks: usize,
    /// Solutions encountered (B&B may pass several).
    pub solutions: usize,
    /// Propagator invocations during this search.
    pub propagations: u64,
    /// Propagator enqueue events during this search (queued engine).
    pub wakeups: u64,
}

fn ordered_values(store: &Store, var: VarId, order: &ValueOrder) -> Vec<usize> {
    let mut values: Vec<usize> = store.iter_domain(var).collect();
    match order {
        ValueOrder::Lex => {}
        ValueOrder::ByCost(cost) => {
            values.sort_by(|&a, &b| {
                cost[var.index()][a]
                    .partial_cmp(&cost[var.index()][b])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        }
        ValueOrder::Shuffled { seed } => {
            // SplitMix-style keyed shuffle: sort by a hash of
            // (seed, var, value). Deterministic, allocation-free ordering
            // key, different per restart seed.
            let key = |v: usize| {
                let mut z = seed
                    .wrapping_add(var.index() as u64)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(v as u64 + 1);
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            values.sort_by_key(|&v| key(v));
        }
    }
    values
}

/// Restarted search: run [`solve`] up to `restarts` times with shuffled
/// value orders and a per-attempt node budget (Luby-free geometric
/// schedule: the budget doubles each restart). Diversification rescues
/// instances where one unlucky ordering thrashes — the classic
/// heavy-tailed-runtime remedy.
pub fn solve_with_restarts(
    csp: &mut Csp,
    restarts: usize,
    base_nodes: usize,
    deadline: Option<Duration>,
    base_seed: u64,
) -> (Outcome, SearchStats) {
    let start = Instant::now();
    let mut total = SearchStats::default();
    let mut nodes = base_nodes.max(1);
    for attempt in 0..restarts.max(1) {
        let remaining = deadline.map(|d| d.saturating_sub(start.elapsed()));
        if remaining == Some(Duration::ZERO) {
            return (Outcome::Timeout, total);
        }
        let config = SearchConfig {
            deadline: remaining,
            max_nodes: Some(nodes),
            value_order: ValueOrder::Shuffled {
                seed: base_seed.wrapping_add(attempt as u64),
            },
            ..Default::default()
        };
        let (outcome, stats) = solve(csp, &config);
        total.nodes += stats.nodes;
        total.backtracks += stats.backtracks;
        total.solutions += stats.solutions;
        total.propagations += stats.propagations;
        total.wakeups += stats.wakeups;
        match outcome {
            Outcome::Timeout => {
                nodes = nodes.saturating_mul(2);
                continue;
            }
            decided => return (decided, total),
        }
    }
    (Outcome::Timeout, total)
}

/// Finds the first feasible solution.
pub fn solve(csp: &mut Csp, config: &SearchConfig) -> (Outcome, SearchStats) {
    let mut sp = cpo_obs::span!("cp.solve", mode = "satisfy");
    let start = Instant::now();
    let mut stats = SearchStats::default();
    let before = csp.propagations;
    let before_wake = csp.wakeups;
    let outcome = if !csp.propagate_with(config.engine, false) {
        Outcome::Infeasible
    } else {
        dfs_first(csp, config, start, &mut stats)
    };
    stats.propagations = csp.propagations - before;
    stats.wakeups = csp.wakeups - before_wake;
    report_search(&mut sp, outcome_label(&outcome), &stats);
    (outcome, stats)
}

fn outcome_label(outcome: &Outcome) -> &'static str {
    match outcome {
        Outcome::Solution(_) => "solution",
        Outcome::Infeasible => "infeasible",
        Outcome::Timeout => "timeout",
    }
}

fn report_search(sp: &mut cpo_obs::SpanGuard, outcome: &str, stats: &SearchStats) {
    sp.field("outcome", outcome)
        .field("nodes", stats.nodes)
        .field("backtracks", stats.backtracks)
        .field("propagations", stats.propagations)
        .field("wakeups", stats.wakeups);
    cpo_obs::counter_add("cp.propagations", stats.propagations);
    cpo_obs::counter_add("cp.wakeups", stats.wakeups);
    cpo_obs::counter_add("cp.backtracks", stats.backtracks as u64);
    cpo_obs::counter_add("cp.decisions", stats.nodes as u64);
}

fn budget_exceeded(config: &SearchConfig, start: Instant, stats: &SearchStats) -> bool {
    if let Some(d) = config.deadline {
        if start.elapsed() >= d {
            return true;
        }
    }
    if let Some(n) = config.max_nodes {
        if stats.nodes >= n {
            return true;
        }
    }
    false
}

fn dfs_first(
    csp: &mut Csp,
    config: &SearchConfig,
    start: Instant,
    stats: &mut SearchStats,
) -> Outcome {
    if budget_exceeded(config, start, stats) {
        return Outcome::Timeout;
    }
    let Some(var) = csp.store.first_fail_var() else {
        stats.solutions += 1;
        return Outcome::Solution(csp.store.solution().expect("all fixed"));
    };
    stats.nodes += 1;
    let values = ordered_values(&csp.store, var, &config.value_order);
    let mut timed_out = false;
    for value in values {
        csp.push();
        csp.store.fix(var, value);
        if csp.propagate_with(config.engine, true) {
            match dfs_first(csp, config, start, stats) {
                Outcome::Solution(s) => {
                    csp.pop();
                    return Outcome::Solution(s);
                }
                Outcome::Timeout => timed_out = true,
                Outcome::Infeasible => {}
            }
        }
        csp.pop();
        stats.backtracks += 1;
        if timed_out || budget_exceeded(config, start, stats) {
            return Outcome::Timeout;
        }
    }
    Outcome::Infeasible
}

/// Branch-and-bound minimisation of a separable cost `Σ cost[var][value]`.
///
/// The lower bound at a node is the cost of fixed variables plus each open
/// variable's cheapest remaining value — admissible for non-negative
/// costs. Returns the best solution found within the budget and whether
/// optimality was proven.
pub fn optimize(
    csp: &mut Csp,
    cost: &[Vec<f64>],
    config: &SearchConfig,
) -> (Option<(Vec<usize>, f64)>, bool, SearchStats) {
    let mut sp = cpo_obs::span!("cp.solve", mode = "optimize");
    let start = Instant::now();
    let mut stats = SearchStats::default();
    let before = csp.propagations;
    let before_wake = csp.wakeups;
    if !csp.propagate_with(config.engine, false) {
        stats.propagations = csp.propagations - before;
        stats.wakeups = csp.wakeups - before_wake;
        report_search(&mut sp, "infeasible", &stats);
        return (None, true, stats); // proven infeasible
    }
    let mut best: Option<(Vec<usize>, f64)> = None;
    let complete = bnb(csp, cost, config, start, &mut stats, &mut best);
    stats.propagations = csp.propagations - before;
    stats.wakeups = csp.wakeups - before_wake;
    let label = match (&best, complete) {
        (Some(_), true) => "optimal",
        (Some(_), false) => "feasible",
        (None, true) => "infeasible",
        (None, false) => "timeout",
    };
    report_search(&mut sp, label, &stats);
    (best, complete, stats)
}

fn lower_bound(store: &Store, cost: &[Vec<f64>]) -> f64 {
    (0..store.n_vars())
        .map(|v| {
            store
                .iter_domain(VarId(v))
                .map(|val| cost[v][val])
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// Returns `true` when the subtree was fully explored (no budget cut).
fn bnb(
    csp: &mut Csp,
    cost: &[Vec<f64>],
    config: &SearchConfig,
    start: Instant,
    stats: &mut SearchStats,
    best: &mut Option<(Vec<usize>, f64)>,
) -> bool {
    if budget_exceeded(config, start, stats) {
        return false;
    }
    let lb = lower_bound(&csp.store, cost);
    if let Some((_, ub)) = best {
        if lb >= *ub - 1e-12 {
            return true; // pruned: cannot improve
        }
    }
    let Some(var) = csp.store.first_fail_var() else {
        let solution = csp.store.solution().expect("all fixed");
        let c: f64 = solution
            .iter()
            .enumerate()
            .map(|(v, &val)| cost[v][val])
            .sum();
        stats.solutions += 1;
        if best.as_ref().is_none_or(|(_, ub)| c < *ub) {
            *best = Some((solution, c));
        }
        return true;
    };
    stats.nodes += 1;
    let values = ordered_values(&csp.store, var, &config.value_order);
    let mut complete = true;
    for value in values {
        csp.push();
        csp.store.fix(var, value);
        if csp.propagate_with(config.engine, true) {
            complete &= bnb(csp, cost, config, start, stats, best);
        }
        csp.pop();
        stats.backtracks += 1;
        if budget_exceeded(config, start, stats) {
            return false;
        }
    }
    complete
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagator::{AllDifferent, AllEqual, Pack};

    #[test]
    fn trivial_problem_solves() {
        let mut csp = Csp::new(2, 3);
        let (outcome, stats) = solve(&mut csp, &SearchConfig::default());
        let s = outcome.solution().expect("feasible");
        assert_eq!(s.len(), 2);
        assert!(stats.solutions == 1);
    }

    #[test]
    fn all_different_permutation() {
        let mut csp = Csp::new(3, 3);
        csp.add(Box::new(AllDifferent {
            vars: vec![VarId(0), VarId(1), VarId(2)],
        }));
        let (outcome, _) = solve(&mut csp, &SearchConfig::default());
        let s = outcome.solution().expect("3-perm exists").to_vec();
        let mut sorted = s.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn infeasible_is_proven() {
        let mut csp = Csp::new(3, 2);
        csp.add(Box::new(AllDifferent {
            vars: vec![VarId(0), VarId(1), VarId(2)],
        }));
        let (outcome, _) = solve(&mut csp, &SearchConfig::default());
        assert_eq!(outcome, Outcome::Infeasible);
    }

    #[test]
    fn combined_constraints() {
        // vars 0,1 equal; vars 1,2 different; 2 values.
        let mut csp = Csp::new(3, 2);
        csp.add(Box::new(AllEqual {
            vars: vec![VarId(0), VarId(1)],
        }));
        csp.add(Box::new(AllDifferent {
            vars: vec![VarId(1), VarId(2)],
        }));
        let (outcome, _) = solve(&mut csp, &SearchConfig::default());
        let s = outcome.solution().unwrap();
        assert_eq!(s[0], s[1]);
        assert_ne!(s[1], s[2]);
    }

    #[test]
    fn packing_respects_capacity() {
        // Three items of demand 6 on two bins of capacity 10: one bin gets
        // one item, the other two → but 12 > 10, so actually infeasible?
        // 6+6=12 > 10 → at most one item per bin → 3 items need 3 bins.
        let mut csp = Csp::new(3, 2);
        csp.add(Box::new(Pack::new(
            vec![VarId(0), VarId(1), VarId(2)],
            vec![vec![6.0]; 3],
            vec![vec![10.0]; 2],
        )));
        let (outcome, _) = solve(&mut csp, &SearchConfig::default());
        assert_eq!(outcome, Outcome::Infeasible);
        // With capacity 12, two fit in one bin.
        let mut csp = Csp::new(3, 2);
        csp.add(Box::new(Pack::new(
            vec![VarId(0), VarId(1), VarId(2)],
            vec![vec![6.0]; 3],
            vec![vec![12.0]; 2],
        )));
        let (outcome, _) = solve(&mut csp, &SearchConfig::default());
        assert!(outcome.solution().is_some());
    }

    #[test]
    fn node_budget_times_out() {
        let mut csp = Csp::new(8, 8);
        csp.add(Box::new(AllDifferent {
            vars: (0..8).map(VarId).collect(),
        }));
        // Force exploration with an impossible extra constraint? Instead
        // cap nodes below what the first solution needs.
        let cfg = SearchConfig {
            max_nodes: Some(0),
            ..Default::default()
        };
        let (outcome, _) = solve(&mut csp, &cfg);
        // With zero node budget we either got lucky (all fixed by
        // propagation — impossible here) or timed out.
        assert_eq!(outcome, Outcome::Timeout);
    }

    #[test]
    fn bycost_value_order_prefers_cheap() {
        let mut csp = Csp::new(1, 3);
        let cost = vec![vec![5.0, 1.0, 3.0]];
        let cfg = SearchConfig {
            value_order: ValueOrder::ByCost(cost),
            ..Default::default()
        };
        let (outcome, _) = solve(&mut csp, &cfg);
        assert_eq!(outcome.solution().unwrap(), &[1], "cheapest value first");
    }

    #[test]
    fn optimize_finds_minimum() {
        // 2 vars, 3 values, all-different; costs chosen so optimum is
        // var0=2 (1.0), var1=0 (0.5) → 1.5.
        let mut csp = Csp::new(2, 3);
        csp.add(Box::new(AllDifferent {
            vars: vec![VarId(0), VarId(1)],
        }));
        let cost = vec![vec![9.0, 4.0, 1.0], vec![0.5, 2.0, 8.0]];
        let (best, complete, _) = optimize(&mut csp, &cost, &SearchConfig::default());
        let (solution, c) = best.expect("feasible");
        assert!(complete, "small tree must be fully explored");
        assert_eq!(solution, vec![2, 0]);
        assert!((c - 1.5).abs() < 1e-12);
    }

    #[test]
    fn optimize_proves_infeasible() {
        let mut csp = Csp::new(3, 2);
        csp.add(Box::new(AllDifferent {
            vars: vec![VarId(0), VarId(1), VarId(2)],
        }));
        let cost = vec![vec![1.0, 1.0]; 3];
        let (best, complete, _) = optimize(&mut csp, &cost, &SearchConfig::default());
        assert!(best.is_none());
        assert!(complete);
    }

    #[test]
    fn optimize_respects_deadline() {
        // A large all-different tree with uniform costs explores a lot;
        // a zero deadline must cut immediately but may keep a first answer.
        let mut csp = Csp::new(9, 9);
        csp.add(Box::new(AllDifferent {
            vars: (0..9).map(VarId).collect(),
        }));
        let cost = vec![vec![1.0; 9]; 9];
        let cfg = SearchConfig {
            deadline: Some(Duration::from_millis(0)),
            ..Default::default()
        };
        let (_, complete, stats) = optimize(&mut csp, &cost, &cfg);
        assert!(!complete);
        assert_eq!(stats.nodes, 0);
    }

    #[test]
    fn shuffled_order_is_deterministic_and_complete() {
        let run = |seed: u64| {
            let mut csp = Csp::new(3, 4);
            csp.add(Box::new(AllDifferent {
                vars: (0..3).map(VarId).collect(),
            }));
            let cfg = SearchConfig {
                value_order: ValueOrder::Shuffled { seed },
                ..Default::default()
            };
            let (outcome, _) = solve(&mut csp, &cfg);
            outcome.solution().map(<[usize]>::to_vec)
        };
        let a = run(1).expect("feasible");
        let b = run(1).expect("feasible");
        assert_eq!(a, b, "same seed, same branching");
        // Different seeds may land on different (valid) solutions.
        let c = run(7).expect("feasible");
        let mut sc = c.clone();
        sc.sort_unstable();
        sc.dedup();
        assert_eq!(sc.len(), 3, "all-different must hold: {c:?}");
    }

    #[test]
    fn restarts_eventually_solve_with_growing_budget() {
        // base budget 0 nodes: attempt 1 times out instantly; the doubled
        // budgets must eventually finish this small tree.
        let mut csp = Csp::new(4, 4);
        csp.add(Box::new(AllDifferent {
            vars: (0..4).map(VarId).collect(),
        }));
        let (outcome, stats) = solve_with_restarts(&mut csp, 12, 1, None, 3);
        assert!(
            outcome.solution().is_some(),
            "restarts must converge: {outcome:?}"
        );
        assert!(stats.nodes > 0);
    }

    #[test]
    fn restarts_report_infeasible_immediately() {
        let mut csp = Csp::new(3, 2);
        csp.add(Box::new(AllDifferent {
            vars: (0..3).map(VarId).collect(),
        }));
        let (outcome, _) = solve_with_restarts(&mut csp, 5, 100, None, 0);
        assert_eq!(outcome, Outcome::Infeasible);
    }

    #[test]
    fn first_solution_lex_is_smallest() {
        let mut csp = Csp::new(2, 3);
        let (outcome, _) = solve(&mut csp, &SearchConfig::default());
        assert_eq!(outcome.solution().unwrap(), &[0, 0]);
    }

    #[test]
    fn reference_engine_agrees_on_every_small_outcome() {
        // Same problems as above under Engine::Reference: identical
        // solutions, node counts and backtracks (only propagation effort
        // may differ).
        let build = || {
            let mut csp = Csp::new(4, 4);
            csp.add(Box::new(AllDifferent {
                vars: (0..3).map(VarId).collect(),
            }));
            csp.add(Box::new(Pack::new(
                (0..4).map(VarId).collect(),
                vec![vec![2.0]; 4],
                vec![vec![5.0]; 4],
            )));
            csp
        };
        let queued_cfg = SearchConfig::default();
        let reference_cfg = SearchConfig {
            engine: Engine::Reference,
            ..Default::default()
        };
        let (oq, sq) = solve(&mut build(), &queued_cfg);
        let (orf, sr) = solve(&mut build(), &reference_cfg);
        assert_eq!(oq, orf);
        assert_eq!(sq.nodes, sr.nodes);
        assert_eq!(sq.backtracks, sr.backtracks);
        assert!(
            sq.propagations <= sr.propagations,
            "queued ({}) must not exceed reference ({})",
            sq.propagations,
            sr.propagations
        );
    }

    #[test]
    fn queued_engine_skips_unrelated_propagators() {
        // Two disjoint constraints: branching on vars of one must not wake
        // the other after the root fixpoint.
        let mut csp = Csp::new(6, 6);
        csp.add(Box::new(AllDifferent {
            vars: (0..3).map(VarId).collect(),
        }));
        csp.add(Box::new(AllDifferent {
            vars: (3..6).map(VarId).collect(),
        }));
        assert!(csp.propagate());
        let after_root = csp.propagations();
        csp.push();
        csp.store.fix(VarId(0), 0);
        assert!(csp.propagate_dirty());
        // Only the first all-different (+ its self-wakes) may run: the
        // second watches none of the dirty vars.
        let per_node = csp.propagations() - after_root;
        assert!(
            per_node <= 3,
            "disjoint propagator was woken: {per_node} invocations"
        );
        csp.pop();
    }
}
