//! Propagators: the constraint-specific pruning rules.
//!
//! Each propagator inspects the [`Store`] and removes inconsistent values.
//! All five constraint shapes of the paper's model are covered: vector
//! packing (capacity, Eq. 16), all-equal over servers / datacenter groups
//! (co-location, Eqs. 9–10) and all-different over servers / groups
//! (separation, Eqs. 11–12).
//!
//! Every propagator carries **two** pruning entry points:
//!
//! * [`Propagator::propagate`] — the production path. May keep
//!   incremental state between calls (the [`Pack`] propagator maintains
//!   running committed-load sums) and may use word-wise bitset operations
//!   ([`AllEqual`] intersects whole domain words). Driven by the
//!   event-driven engine in [`crate::search::Csp`], which only wakes a
//!   propagator when one of its watched [`Propagator::vars`] changed.
//! * [`Propagator::propagate_reference`] — the stateless from-scratch
//!   rule, exactly the pre-event-engine implementation. The reference
//!   engine ([`crate::search::Engine::Reference`]) runs *only* this path;
//!   the differential test suite proves both reach bit-identical
//!   fixpoints.

use crate::store::{Store, VarId};

/// Result of one propagation step.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Propagation {
    /// Nothing removed.
    Stable,
    /// At least one value removed; re-run the fixpoint loop.
    Changed,
    /// A domain was wiped out: the current node is infeasible.
    Infeasible,
}

/// Which domain events on a watched variable require re-running a
/// propagator. Sound filtering needs a simple property: re-running the
/// propagator after an ignored event must be a no-op (no pruning, same
/// verdict).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WakeOn {
    /// Any value removal from a watched variable.
    Removal,
    /// Only when a watched variable becomes fixed (domain size 1).
    /// Correct for propagators whose pruning and verdicts depend solely
    /// on which variables are fixed to what — like capacity forward
    /// checking, where plain removals never change committed loads.
    Fix,
}

/// A constraint with a pruning rule.
pub trait Propagator: Send + Sync {
    /// Stateless from-scratch pruning — the reference semantics every
    /// production path must agree with.
    fn propagate_reference(&self, store: &mut Store) -> Propagation;

    /// Production pruning; may exploit incremental state. The engine
    /// guarantees it is re-invoked whenever one of [`Propagator::vars`]
    /// sees an event matching [`Propagator::wake_on`] (including changes
    /// the propagator itself made, so a single call need not reach its
    /// own fixpoint). Defaults to the reference rule for stateless
    /// propagators.
    fn propagate(&mut self, store: &mut Store) -> Propagation {
        self.propagate_reference(store)
    }

    /// The variables this propagator watches: the event-driven engine
    /// wakes it exactly when one of these loses a value (filtered by
    /// [`Propagator::wake_on`]).
    fn vars(&self) -> &[VarId];

    /// Event filter for wakeups. Defaults to [`WakeOn::Removal`] (always
    /// sound); override with [`WakeOn::Fix`] only when ignored removals
    /// provably make re-running a no-op.
    fn wake_on(&self) -> WakeOn {
        WakeOn::Removal
    }

    /// Constraint name for debugging.
    fn name(&self) -> &str;
}

fn check_empty(store: &Store, vars: &[VarId]) -> bool {
    vars.iter().any(|&v| store.is_empty(v))
}

/// All variables take the same value (linearised co-location on same
/// server, Eq. 10/13–14): each value must survive in *every* domain.
pub struct AllEqual {
    /// The constrained variables.
    pub vars: Vec<VarId>,
}

impl Propagator for AllEqual {
    fn propagate_reference(&self, store: &mut Store) -> Propagation {
        let mut changed = false;
        // Intersect: remove from each var any value missing from another.
        for value in 0..store.n_values() {
            let everywhere = self.vars.iter().all(|&v| store.contains(v, value));
            if !everywhere {
                for &v in &self.vars {
                    if store.remove(v, value) {
                        changed = true;
                    }
                }
            }
        }
        if check_empty(store, &self.vars) {
            Propagation::Infeasible
        } else if changed {
            Propagation::Changed
        } else {
            Propagation::Stable
        }
    }

    /// Word-wise production path: AND all domains into an intersection
    /// mask, then retain it in each domain — O(vars × words) instead of
    /// O(vars × values).
    fn propagate(&mut self, store: &mut Store) -> Propagation {
        let Some(&first) = self.vars.first() else {
            return Propagation::Stable;
        };
        let mut inter: Vec<u64> = store.domain_words(first).to_vec();
        for &v in &self.vars[1..] {
            for (a, &b) in inter.iter_mut().zip(store.domain_words(v)) {
                *a &= b;
            }
        }
        let mut changed = false;
        for &v in &self.vars {
            if store.retain_words(v, &inter) {
                changed = true;
            }
        }
        if check_empty(store, &self.vars) {
            Propagation::Infeasible
        } else if changed {
            Propagation::Changed
        } else {
            Propagation::Stable
        }
    }

    fn vars(&self) -> &[VarId] {
        &self.vars
    }

    fn name(&self) -> &str {
        "all-equal"
    }
}

/// All variables take pairwise different values (separation on servers,
/// Eq. 12): forward checking — a fixed value is pruned from siblings.
pub struct AllDifferent {
    /// The constrained variables.
    pub vars: Vec<VarId>,
}

impl Propagator for AllDifferent {
    fn propagate_reference(&self, store: &mut Store) -> Propagation {
        let mut changed = false;
        for (i, &v) in self.vars.iter().enumerate() {
            if !store.is_fixed(v) {
                continue;
            }
            let value = store.value(v);
            for (j, &w) in self.vars.iter().enumerate() {
                if i != j && store.remove(w, value) {
                    changed = true;
                }
            }
        }
        // Pigeonhole: more vars than remaining distinct values → fail.
        let mut union = vec![false; store.n_values()];
        let mut distinct = 0usize;
        for &v in &self.vars {
            for value in store.iter_domain(v) {
                if !union[value] {
                    union[value] = true;
                    distinct += 1;
                }
            }
        }
        if distinct < self.vars.len() || check_empty(store, &self.vars) {
            return Propagation::Infeasible;
        }
        if changed {
            Propagation::Changed
        } else {
            Propagation::Stable
        }
    }

    fn vars(&self) -> &[VarId] {
        &self.vars
    }

    fn name(&self) -> &str {
        "all-different"
    }
}

/// All variables' values map to the same *group* (co-location in the same
/// datacenter, Eq. 9: values are servers, groups are datacenters).
pub struct GroupAllEqual {
    /// The constrained variables.
    pub vars: Vec<VarId>,
    /// `group[value]` — the group of each value.
    pub group: Vec<usize>,
}

impl Propagator for GroupAllEqual {
    fn propagate_reference(&self, store: &mut Store) -> Propagation {
        let n_groups = self.group.iter().copied().max().map_or(0, |g| g + 1);
        // Groups reachable by every variable.
        let mut allowed = vec![true; n_groups];
        for &v in &self.vars {
            let mut reach = vec![false; n_groups];
            for value in store.iter_domain(v) {
                reach[self.group[value]] = true;
            }
            for g in 0..n_groups {
                allowed[g] &= reach[g];
            }
        }
        let mut changed = false;
        for &v in &self.vars {
            let to_remove: Vec<usize> = store
                .iter_domain(v)
                .filter(|&value| !allowed[self.group[value]])
                .collect();
            for value in to_remove {
                if store.remove(v, value) {
                    changed = true;
                }
            }
        }
        if check_empty(store, &self.vars) {
            Propagation::Infeasible
        } else if changed {
            Propagation::Changed
        } else {
            Propagation::Stable
        }
    }

    fn vars(&self) -> &[VarId] {
        &self.vars
    }

    fn name(&self) -> &str {
        "group-all-equal"
    }
}

/// All variables' values map to pairwise different groups (separation in
/// different datacenters, Eq. 11).
pub struct GroupAllDifferent {
    /// The constrained variables.
    pub vars: Vec<VarId>,
    /// `group[value]` — the group of each value.
    pub group: Vec<usize>,
}

impl Propagator for GroupAllDifferent {
    fn propagate_reference(&self, store: &mut Store) -> Propagation {
        let n_groups = self.group.iter().copied().max().map_or(0, |g| g + 1);
        let mut changed = false;
        // A variable whose whole domain sits in one group fixes that group.
        for (i, &v) in self.vars.iter().enumerate() {
            let mut the_group: Option<usize> = None;
            let mut single = true;
            for value in store.iter_domain(v) {
                match the_group {
                    None => the_group = Some(self.group[value]),
                    Some(g) if g != self.group[value] => {
                        single = false;
                        break;
                    }
                    _ => {}
                }
            }
            if !single {
                continue;
            }
            let Some(g) = the_group else {
                return Propagation::Infeasible;
            };
            for (j, &w) in self.vars.iter().enumerate() {
                if i == j {
                    continue;
                }
                let to_remove: Vec<usize> = store
                    .iter_domain(w)
                    .filter(|&value| self.group[value] == g)
                    .collect();
                for value in to_remove {
                    if store.remove(w, value) {
                        changed = true;
                    }
                }
            }
        }
        // Pigeonhole on groups.
        let mut union = vec![false; n_groups];
        let mut distinct = 0;
        for &v in &self.vars {
            for value in store.iter_domain(v) {
                let g = self.group[value];
                if !union[g] {
                    union[g] = true;
                    distinct += 1;
                }
            }
        }
        if distinct < self.vars.len() || check_empty(store, &self.vars) {
            return Propagation::Infeasible;
        }
        if changed {
            Propagation::Changed
        } else {
            Propagation::Stable
        }
    }

    fn vars(&self) -> &[VarId] {
        &self.vars
    }

    fn name(&self) -> &str {
        "group-all-different"
    }
}

/// Multi-dimensional vector packing (the capacity constraint, Eq. 16):
/// items (variables) with `h`-dimensional demands placed onto values
/// (servers) with `h`-dimensional capacities.
///
/// Forward checking: for each value, sum the demands of items fixed to it;
/// prune the value from any unfixed item that would overflow a dimension.
///
/// The production path is **incremental**: committed-load sums are cached
/// between calls and reconciled against the store each wake-up, so a call
/// costs O(items) plus work proportional to what actually changed — not
/// O(values × dims) from scratch. Reconciliation compares the cached
/// commitment of every item with its current fixed value, which makes the
/// cache self-healing across arbitrary push/pop backtracking without any
/// trail hooks. Touched sums are recomputed by the same ascending-item
/// summation the reference path uses, so cached and from-scratch loads are
/// bit-identical (no floating-point drift).
pub struct Pack {
    vars: Vec<VarId>,
    /// Row-major `items × h`: row `i` is the demand of `vars[i]`.
    demand: Vec<f64>,
    capacity: Vec<Vec<f64>>,
    h: usize,
    /// `committed[i]` — value item `i` was last seen fixed to.
    committed: Vec<Option<usize>>,
    /// `used[value * h + l]` — cached committed load.
    used: Vec<f64>,
    /// Whether a successful full sweep established the fits-invariant.
    primed: bool,
    /// [`Store::pop_count`] at the last successful call. A pop since then
    /// invalidates delta reasoning: the current branch may re-fix the same
    /// items to the same values the stale cache already recorded, hiding
    /// genuine load growth relative to this branch's last fixpoint.
    synced_pops: u64,
    /// Set when the previous call returned `Infeasible`: its early return
    /// skipped pruning, so the next call must sweep fully even if no pop
    /// intervened.
    poisoned: bool,
}

impl Pack {
    /// Creates the packing constraint: `demand[i]` is the demand vector of
    /// `vars[i]`, `capacity[value]` the capacity vector of each value.
    pub fn new(vars: Vec<VarId>, demand: Vec<Vec<f64>>, capacity: Vec<Vec<f64>>) -> Self {
        let h = capacity.first().map_or(0, Vec::len);
        assert_eq!(vars.len(), demand.len(), "one demand row per variable");
        assert!(
            demand.iter().all(|d| d.len() == h),
            "demand rows must match capacity dimensionality"
        );
        Self::from_rows(vars, &demand.concat(), capacity)
    }

    /// As [`Pack::new`], with the demand rows given row-major in one
    /// slice: row `i` (`demand[i * h..(i + 1) * h]`) belongs to `vars[i]`.
    pub fn from_rows(vars: Vec<VarId>, demand: &[f64], capacity: Vec<Vec<f64>>) -> Self {
        let h = capacity.first().map_or(0, Vec::len);
        assert_eq!(
            vars.len() * h,
            demand.len(),
            "one demand row of the capacity dimensionality per variable"
        );
        let n_items = vars.len();
        let n_values = capacity.len();
        Self {
            vars,
            demand: demand.to_vec(),
            capacity,
            h,
            committed: vec![None; n_items],
            used: vec![0.0; n_values * h],
            primed: false,
            synced_pops: 0,
            poisoned: false,
        }
    }

    /// Recomputes the cached load of `value` exactly as the reference path
    /// would: ascending-item summation over committed items.
    fn recompute_used(&mut self, value: usize) {
        let h = self.h;
        self.used[value * h..(value + 1) * h].fill(0.0);
        for (i, committed) in self.committed.iter().enumerate() {
            if *committed == Some(value) {
                for l in 0..h {
                    self.used[value * h + l] += self.demand[i * h + l];
                }
            }
        }
    }

    /// Does `value` overflow on some dimension if item `i` is added on top
    /// of the cached committed load?
    #[inline]
    fn overflows(&self, i: usize, value: usize) -> bool {
        let h = self.h;
        (0..h).any(|l| {
            self.used[value * h + l] + self.demand[i * h + l] > self.capacity[value][l] + 1e-9
        })
    }
}

impl Propagator for Pack {
    fn propagate_reference(&self, store: &mut Store) -> Propagation {
        let h = self.h;
        let n_values = store.n_values();
        // Committed usage per value.
        let mut used = vec![vec![0.0_f64; h]; n_values];
        for (i, &v) in self.vars.iter().enumerate() {
            if store.is_fixed(v) {
                let value = store.value(v);
                for (l, u) in used[value].iter_mut().enumerate() {
                    *u += self.demand[i * h + l];
                }
            }
        }
        // Committed overflow → infeasible.
        for (value, u) in used.iter().enumerate() {
            for (ul, cl) in u.iter().zip(&self.capacity[value]) {
                if *ul > cl + 1e-9 {
                    return Propagation::Infeasible;
                }
            }
        }
        // Prune values that cannot take an unfixed item.
        let mut changed = false;
        for (i, &v) in self.vars.iter().enumerate() {
            if store.is_fixed(v) {
                continue;
            }
            let to_remove: Vec<usize> = store
                .iter_domain(v)
                .filter(|&value| {
                    (0..h).any(|l| {
                        used[value][l] + self.demand[i * h + l] > self.capacity[value][l] + 1e-9
                    })
                })
                .collect();
            for value in to_remove {
                if store.remove(v, value) {
                    changed = true;
                }
            }
            if store.is_empty(v) {
                return Propagation::Infeasible;
            }
        }
        if changed {
            Propagation::Changed
        } else {
            Propagation::Stable
        }
    }

    fn propagate(&mut self, store: &mut Store) -> Propagation {
        // 1. Reconcile the cache with the store. Exact in both directions:
        //    newly fixed items are added, unfixed (backtracked) or re-fixed
        //    items are corrected.
        let mut touched: Vec<usize> = Vec::new();
        let mut grew: Vec<usize> = Vec::new();
        for (i, &v) in self.vars.iter().enumerate() {
            let now = store.is_fixed(v).then(|| store.value(v));
            if now != self.committed[i] {
                if let Some(old) = self.committed[i] {
                    touched.push(old);
                }
                if let Some(new) = now {
                    touched.push(new);
                    grew.push(new);
                }
                self.committed[i] = now;
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for &value in &touched {
            self.recompute_used(value);
        }
        grew.sort_unstable();
        grew.dedup();
        // 2. Delta reasoning is only sound while the store has strictly
        //    deepened since the last *successful* call: `grew` is computed
        //    against the cached commitments, and after a rewind the
        //    current branch can re-fix the same items to the same values,
        //    hiding growth relative to this branch's last fixpoint.
        let full = !self.primed || self.poisoned || store.pop_count() != self.synced_pops;
        // 3. Committed overflow: everywhere on a full sweep, else only
        //    where load grew since the (trustworthy) previous call.
        let h = self.h;
        let overflow_candidates: Box<dyn Iterator<Item = usize>> = if full {
            Box::new(0..self.capacity.len())
        } else {
            Box::new(grew.iter().copied())
        };
        for value in overflow_candidates {
            for l in 0..h {
                if self.used[value * h + l] > self.capacity[value][l] + 1e-9 {
                    self.poisoned = true;
                    return Propagation::Infeasible;
                }
            }
        }
        // 4. Prune unfixed items: every domain value on a full sweep,
        //    grown values only otherwise.
        let mut changed = false;
        for (i, &v) in self.vars.iter().enumerate() {
            if store.is_fixed(v) {
                continue;
            }
            if full {
                let to_remove: Vec<usize> = store
                    .iter_domain(v)
                    .filter(|&value| self.overflows(i, value))
                    .collect();
                for value in to_remove {
                    if store.remove(v, value) {
                        changed = true;
                    }
                }
            } else {
                for &value in &grew {
                    if store.contains(v, value) && self.overflows(i, value) {
                        store.remove(v, value);
                        changed = true;
                    }
                }
            }
            if store.is_empty(v) {
                self.poisoned = true;
                return Propagation::Infeasible;
            }
        }
        // The fits-invariant now holds for this exact store state.
        self.primed = true;
        self.poisoned = false;
        self.synced_pops = store.pop_count();
        if changed {
            Propagation::Changed
        } else {
            Propagation::Stable
        }
    }

    fn vars(&self) -> &[VarId] {
        &self.vars
    }

    /// Packing only reacts to fixedness: committed loads — the sole input
    /// to both the overflow verdict and the prune rule — change exactly
    /// when an item becomes fixed. After a non-fixing removal the
    /// fits-invariant from the last run still covers the (smaller)
    /// domains, so a re-run would prune nothing.
    fn wake_on(&self) -> WakeOn {
        WakeOn::Fix
    }

    fn name(&self) -> &str {
        "pack"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_equal_intersects_domains() {
        let mut s = Store::new(2, 4);
        s.remove(VarId(0), 0);
        s.remove(VarId(1), 3);
        let mut p = AllEqual {
            vars: vec![VarId(0), VarId(1)],
        };
        assert_eq!(p.propagate(&mut s), Propagation::Changed);
        for v in [VarId(0), VarId(1)] {
            let vals: Vec<_> = s.iter_domain(v).collect();
            assert_eq!(vals, vec![1, 2]);
        }
        assert_eq!(p.propagate(&mut s), Propagation::Stable);
    }

    #[test]
    fn all_equal_detects_disjoint_domains() {
        let mut s = Store::new(2, 2);
        s.fix(VarId(0), 0);
        s.fix(VarId(1), 1);
        let mut p = AllEqual {
            vars: vec![VarId(0), VarId(1)],
        };
        assert_eq!(p.propagate(&mut s), Propagation::Infeasible);
    }

    #[test]
    fn all_different_forward_checks() {
        let mut s = Store::new(3, 3);
        s.fix(VarId(0), 1);
        let mut p = AllDifferent {
            vars: vec![VarId(0), VarId(1), VarId(2)],
        };
        assert_eq!(p.propagate(&mut s), Propagation::Changed);
        assert!(!s.contains(VarId(1), 1));
        assert!(!s.contains(VarId(2), 1));
    }

    #[test]
    fn all_different_pigeonhole() {
        let mut s = Store::new(3, 2); // 3 vars, 2 values: impossible
        let mut p = AllDifferent {
            vars: vec![VarId(0), VarId(1), VarId(2)],
        };
        assert_eq!(p.propagate(&mut s), Propagation::Infeasible);
    }

    #[test]
    fn group_all_equal_prunes_unreachable_groups() {
        // Values 0,1 → group 0; values 2,3 → group 1.
        let group = vec![0, 0, 1, 1];
        let mut s = Store::new(2, 4);
        // Var 0 can only reach group 0.
        s.remove(VarId(0), 2);
        s.remove(VarId(0), 3);
        let mut p = GroupAllEqual {
            vars: vec![VarId(0), VarId(1)],
            group,
        };
        assert_eq!(p.propagate(&mut s), Propagation::Changed);
        let vals: Vec<_> = s.iter_domain(VarId(1)).collect();
        assert_eq!(vals, vec![0, 1], "var 1 must shed group-1 values");
    }

    #[test]
    fn group_all_different_excludes_fixed_group() {
        let group = vec![0, 0, 1, 1];
        let mut s = Store::new(2, 4);
        s.fix(VarId(0), 1); // group 0
        let mut p = GroupAllDifferent {
            vars: vec![VarId(0), VarId(1)],
            group,
        };
        assert_eq!(p.propagate(&mut s), Propagation::Changed);
        let vals: Vec<_> = s.iter_domain(VarId(1)).collect();
        assert_eq!(vals, vec![2, 3]);
    }

    #[test]
    fn group_all_different_pigeonhole_on_groups() {
        let group = vec![0, 0, 0, 0]; // one group only
        let mut s = Store::new(2, 4);
        let mut p = GroupAllDifferent {
            vars: vec![VarId(0), VarId(1)],
            group,
        };
        assert_eq!(p.propagate(&mut s), Propagation::Infeasible);
    }

    #[test]
    fn pack_prunes_overflowing_values() {
        // Two servers with capacity [10]; item0 fixed to server0 with
        // demand [8]; item1 demand [5] no longer fits server0.
        let mut s = Store::new(2, 2);
        s.fix(VarId(0), 0);
        let mut p = Pack::new(
            vec![VarId(0), VarId(1)],
            vec![vec![8.0], vec![5.0]],
            vec![vec![10.0], vec![10.0]],
        );
        assert_eq!(p.propagate(&mut s), Propagation::Changed);
        let vals: Vec<_> = s.iter_domain(VarId(1)).collect();
        assert_eq!(vals, vec![1]);
    }

    #[test]
    fn pack_detects_committed_overflow() {
        let mut s = Store::new(2, 1);
        s.fix(VarId(0), 0);
        s.fix(VarId(1), 0);
        let mut p = Pack::new(
            vec![VarId(0), VarId(1)],
            vec![vec![8.0], vec![5.0]],
            vec![vec![10.0]],
        );
        assert_eq!(p.propagate(&mut s), Propagation::Infeasible);
    }

    #[test]
    fn pack_multidimensional() {
        // Item fits on CPU but not RAM → pruned.
        let mut s = Store::new(2, 2);
        s.fix(VarId(0), 0);
        let mut p = Pack::new(
            vec![VarId(0), VarId(1)],
            vec![vec![1.0, 9.0], vec![1.0, 2.0]],
            vec![vec![10.0, 10.0], vec![10.0, 10.0]],
        );
        assert_eq!(p.propagate(&mut s), Propagation::Changed);
        let vals: Vec<_> = s.iter_domain(VarId(1)).collect();
        assert_eq!(vals, vec![1]);
    }

    #[test]
    fn pack_incremental_cache_survives_backtracking() {
        // Fix, propagate, pop, re-fix elsewhere: the reconciled cache must
        // agree with the reference path at every step.
        let mk = || {
            Pack::new(
                vec![VarId(0), VarId(1), VarId(2)],
                vec![vec![6.0], vec![6.0], vec![3.0]],
                vec![vec![10.0], vec![10.0], vec![10.0]],
            )
        };
        let mut inc = mk();
        let mut s = Store::new(3, 3);
        assert_eq!(inc.propagate(&mut s), Propagation::Stable); // primes at root

        s.push();
        s.fix(VarId(0), 0);
        assert_eq!(inc.propagate(&mut s), Propagation::Changed);
        assert!(!s.contains(VarId(1), 0), "6+6 > 10 must prune");
        s.pop();
        assert!(s.contains(VarId(1), 0), "pop restores the pruned value");

        s.push();
        s.fix(VarId(0), 1);
        assert_eq!(inc.propagate(&mut s), Propagation::Changed);
        assert!(!s.contains(VarId(1), 1));
        assert!(s.contains(VarId(1), 0), "server 0 is free again");

        // Cross-check the final domains against a fresh reference run.
        let reference = mk();
        let mut s2 = Store::new(3, 3);
        s2.fix(VarId(0), 1);
        while reference.propagate_reference(&mut s2) == Propagation::Changed {}
        for v in 0..3 {
            let a: Vec<_> = s.iter_domain(VarId(v)).collect();
            let b: Vec<_> = s2.iter_domain(VarId(v)).collect();
            assert_eq!(a, b, "var {v} diverged from reference");
        }
    }

    #[test]
    fn production_paths_match_reference_fixpoints() {
        // Run each stateless propagator's production and reference paths
        // on identical stores; domains must match exactly.
        let scenarios: Vec<(Box<dyn Propagator>, Box<dyn Propagator>)> = vec![
            (
                Box::new(AllEqual {
                    vars: vec![VarId(0), VarId(1)],
                }),
                Box::new(AllEqual {
                    vars: vec![VarId(0), VarId(1)],
                }),
            ),
            (
                Box::new(GroupAllEqual {
                    vars: vec![VarId(0), VarId(1)],
                    group: vec![0, 0, 1, 1, 1],
                }),
                Box::new(GroupAllEqual {
                    vars: vec![VarId(0), VarId(1)],
                    group: vec![0, 0, 1, 1, 1],
                }),
            ),
        ];
        for (mut prod, reference) in scenarios {
            let mut a = Store::new(2, 5);
            let mut b = Store::new(2, 5);
            for s in [&mut a, &mut b] {
                s.remove(VarId(0), 0);
                s.remove(VarId(1), 4);
            }
            while prod.propagate(&mut a) == Propagation::Changed {}
            while reference.propagate_reference(&mut b) == Propagation::Changed {}
            for v in 0..2 {
                let da: Vec<_> = a.iter_domain(VarId(v)).collect();
                let db: Vec<_> = b.iter_domain(VarId(v)).collect();
                assert_eq!(da, db, "{} var {v}", prod.name());
            }
        }
    }
}
