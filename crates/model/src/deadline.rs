//! Wall-clock deadlines for anytime solvers.
//!
//! A [`Deadline`] is a copyable "solve until" point shared by every
//! deadline-aware component: the tabu engine checks it at
//! iteration boundaries, the CP admission loop caps each per-request
//! budget by the remaining time, and the racing portfolio hands one
//! deadline to every member it races. The unbounded case is a
//! first-class value ([`Deadline::never`]) so call sites never branch on
//! an `Option` — an expired check against `never` is simply `false`.
//!
//! Semantics contract (DESIGN.md §13): a deadline bounds *when a solver
//! may start more work*, not how long in-flight work may run. Solvers
//! check at natural cut points (a search iteration, a CP request, a
//! portfolio member) and return their best incumbent on expiry, so the
//! granularity of the overshoot is one unit of the solver's inner work.

use std::time::{Duration, Instant};

/// A point in wall-clock time after which an anytime solver must wrap
/// up and return its incumbent. `Copy`, so it threads freely through
/// configs and across scoped threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Deadline(Option<Instant>);

impl Deadline {
    /// The unbounded deadline: never expires.
    pub const fn never() -> Self {
        Deadline(None)
    }

    /// A deadline `budget` from now.
    pub fn within(budget: Duration) -> Self {
        Deadline(Some(Instant::now() + budget))
    }

    /// A deadline at an explicit instant.
    pub const fn at(t: Instant) -> Self {
        Deadline(Some(t))
    }

    /// `true` when bounded (not [`never`](Self::never)).
    pub const fn is_bounded(&self) -> bool {
        self.0.is_some()
    }

    /// `true` once the wall clock has passed the deadline. Always
    /// `false` for an unbounded deadline.
    pub fn expired(&self) -> bool {
        match self.0 {
            Some(t) => Instant::now() >= t,
            None => false,
        }
    }

    /// Time left before expiry: `None` when unbounded, `Some(ZERO)` when
    /// already expired.
    pub fn remaining(&self) -> Option<Duration> {
        self.0.map(|t| t.saturating_duration_since(Instant::now()))
    }

    /// The earlier of two deadlines — how a wrapper's window budget
    /// composes with a caller-supplied deadline.
    pub fn earliest(self, other: Deadline) -> Deadline {
        match (self.0, other.0) {
            (Some(a), Some(b)) => Deadline(Some(a.min(b))),
            (Some(a), None) => Deadline(Some(a)),
            (None, b) => Deadline(b),
        }
    }
}

impl Default for Deadline {
    fn default() -> Self {
        Deadline::never()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_never_expires() {
        let d = Deadline::never();
        assert!(!d.is_bounded());
        assert!(!d.expired());
        assert_eq!(d.remaining(), None);
    }

    #[test]
    fn elapsed_budget_expires() {
        let d = Deadline::within(Duration::ZERO);
        assert!(d.is_bounded());
        assert!(d.expired());
        assert_eq!(d.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn generous_budget_does_not_expire() {
        let d = Deadline::within(Duration::from_secs(3600));
        assert!(!d.expired());
        assert!(d.remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn earliest_picks_the_tighter_bound() {
        let now = Instant::now();
        let soon = Deadline::at(now + Duration::from_millis(1));
        let late = Deadline::at(now + Duration::from_secs(60));
        assert_eq!(soon.earliest(late), soon);
        assert_eq!(late.earliest(soon), soon);
        assert_eq!(soon.earliest(Deadline::never()), soon);
        assert_eq!(Deadline::never().earliest(soon), soon);
        assert_eq!(
            Deadline::never().earliest(Deadline::never()),
            Deadline::never()
        );
    }
}
