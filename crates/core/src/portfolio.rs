//! A portfolio meta-allocator: run several algorithms on the same
//! problem and keep the best outcome under a configurable criterion.
//!
//! This is the practical deployment the paper's comparison implies — the
//! scheduler does not have to commit to one algorithm; on small problems
//! CP wins outright (Fig. 7), on large ones the hybrid does (Figs. 8–9),
//! and a portfolio gets both, at the price of running its members
//! (optionally bounded by their own deadlines).

use crate::allocator::{AllocationOutcome, Allocator};
use cpo_model::deadline::Deadline;
use cpo_model::prelude::AllocationProblem;
use std::time::{Duration, Instant};

/// What the portfolio optimises when ranking member outcomes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PortfolioCriterion {
    /// Fewest rejections, ties by provider cost — the paper's joint
    /// consumer/provider stance (violating outcomes always rank last).
    AcceptanceThenCost,
    /// Highest net revenue (violating outcomes always rank last).
    NetRevenue,
}

/// How the portfolio runs its members.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PortfolioMode {
    /// Members run one after another; the portfolio's wall-clock is the
    /// sum of the members'. Under a deadline, members still to start are
    /// skipped once it expires (the first member always runs, so the
    /// portfolio returns a placement).
    #[default]
    Sequential,
    /// Members race on scoped threads, every one handed the same
    /// deadline; the portfolio's wall-clock is the slowest member (on
    /// enough cores, the slowest *anytime-cut* member). Reduction stays
    /// in member order, so with a deadline generous enough for every
    /// member to finish its budget the pick is deterministic.
    Racing,
}

/// The portfolio allocator.
pub struct PortfolioAllocator {
    /// Member algorithms, tried in order.
    pub members: Vec<Box<dyn Allocator>>,
    /// Ranking criterion.
    pub criterion: PortfolioCriterion,
    /// Member execution mode.
    pub mode: PortfolioMode,
    /// Per-call wall-clock budget imposed on the members *in addition*
    /// to any deadline the caller passes (whichever expires first wins).
    pub budget: Option<Duration>,
}

impl PortfolioAllocator {
    /// Builds a sequential, unbudgeted portfolio.
    ///
    /// # Panics
    /// Panics when `members` is empty.
    pub fn new(members: Vec<Box<dyn Allocator>>, criterion: PortfolioCriterion) -> Self {
        assert!(!members.is_empty(), "a portfolio needs at least one member");
        Self {
            members,
            criterion,
            mode: PortfolioMode::Sequential,
            budget: None,
        }
    }

    /// Builds a deadline-racing portfolio: members run concurrently,
    /// each bounded by `budget` from call time (tightened further by any
    /// caller-passed deadline).
    ///
    /// # Panics
    /// Panics when `members` is empty.
    pub fn racing(
        members: Vec<Box<dyn Allocator>>,
        criterion: PortfolioCriterion,
        budget: Option<Duration>,
    ) -> Self {
        let mut p = Self::new(members, criterion);
        p.mode = PortfolioMode::Racing;
        p.budget = budget;
        p
    }

    fn effective_deadline(&self, outer: Deadline) -> Deadline {
        match self.budget {
            Some(b) => outer.earliest(Deadline::within(b)),
            None => outer,
        }
    }

    fn better(&self, a: &AllocationOutcome, b: &AllocationOutcome) -> bool {
        // Invalid placements lose to clean ones regardless of criterion.
        match (a.is_clean(), b.is_clean()) {
            (true, false) => return true,
            (false, true) => return false,
            _ => {}
        }
        match self.criterion {
            PortfolioCriterion::AcceptanceThenCost => {
                (a.rejection_rate, a.provider_cost()) < (b.rejection_rate, b.provider_cost())
            }
            PortfolioCriterion::NetRevenue => a.net_revenue() > b.net_revenue(),
        }
    }
}

impl Allocator for PortfolioAllocator {
    fn name(&self) -> &'static str {
        match self.mode {
            PortfolioMode::Sequential => "portfolio",
            PortfolioMode::Racing => "portfolio-race",
        }
    }

    fn allocate(&self, problem: &AllocationProblem) -> AllocationOutcome {
        self.allocate_with_deadline(problem, Deadline::never())
    }

    fn allocate_with_deadline(
        &self,
        problem: &AllocationProblem,
        deadline: Deadline,
    ) -> AllocationOutcome {
        let mut sp = cpo_obs::span!("allocator.allocate", algo = self.name());
        let start = Instant::now();
        let deadline = self.effective_deadline(deadline);
        let outcomes: Vec<AllocationOutcome> = match self.mode {
            PortfolioMode::Sequential => {
                let mut outs = Vec::with_capacity(self.members.len());
                for member in &self.members {
                    // Budget enforcement between members: once the
                    // deadline has expired, a member not yet started
                    // would only be cut immediately — skip it. The first
                    // member always runs so the portfolio returns a
                    // placement; *within* a member the deadline is the
                    // member's own anytime cut.
                    if !outs.is_empty() && deadline.expired() {
                        break;
                    }
                    outs.push(member.allocate_with_deadline(problem, deadline));
                }
                outs
            }
            PortfolioMode::Racing => std::thread::scope(|s| {
                let handles: Vec<_> = self
                    .members
                    .iter()
                    .map(|member| s.spawn(move || member.allocate_with_deadline(problem, deadline)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("portfolio member panicked"))
                    .collect()
            }),
        };
        let mut best: Option<AllocationOutcome> = None;
        for outcome in outcomes {
            best = Some(match best {
                None => outcome,
                Some(current) => {
                    if self.better(&outcome, &current) {
                        outcome
                    } else {
                        current
                    }
                }
            });
        }
        let mut outcome = best.expect("at least one member");
        // Sequential wall-clock is the sum of the members' runs; racing
        // wall-clock is the slowest member.
        outcome.elapsed = start.elapsed();
        crate::allocator::observe_outcome(&mut sp, self.name(), &outcome);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cp_alloc::CpAllocator;
    use crate::filtering::FilteringAllocator;
    use crate::round_robin::RoundRobinAllocator;
    use cpo_model::attr::AttrSet;
    use cpo_model::prelude::*;

    fn problem() -> AllocationProblem<'static> {
        let infra = Infrastructure::new(
            AttrSet::standard(),
            vec![("dc".into(), ServerProfile::commodity(3).build_many(4))],
        );
        let mut batch = RequestBatch::new();
        for _ in 0..4 {
            batch.push_request(vec![vm_spec(2.0, 2048.0, 20.0)], vec![]);
        }
        AllocationProblem::new(infra, batch, None)
    }

    fn portfolio(criterion: PortfolioCriterion) -> PortfolioAllocator {
        PortfolioAllocator::new(
            vec![
                Box::new(RoundRobinAllocator),
                Box::new(FilteringAllocator),
                Box::new(CpAllocator::default()),
            ],
            criterion,
        )
    }

    #[test]
    fn portfolio_is_at_least_as_good_as_each_member() {
        let p = problem();
        let out = portfolio(PortfolioCriterion::AcceptanceThenCost).allocate(&p);
        for member in [
            RoundRobinAllocator.allocate(&p),
            FilteringAllocator.allocate(&p),
            CpAllocator::default().allocate(&p),
        ] {
            assert!(
                (out.rejection_rate, out.provider_cost())
                    <= (member.rejection_rate, member.provider_cost() + 1e-9),
                "portfolio must not lose to a member"
            );
        }
    }

    #[test]
    fn criterion_changes_the_pick() {
        // On this sparse problem RR spreads (high cost) while filtering/CP
        // consolidate; under AcceptanceThenCost the consolidators win.
        let p = problem();
        let out = portfolio(PortfolioCriterion::AcceptanceThenCost).allocate(&p);
        let rr = RoundRobinAllocator.allocate(&p);
        assert!(out.provider_cost() < rr.provider_cost());
    }

    #[test]
    fn net_revenue_criterion_prefers_earning() {
        let p = problem();
        let out = portfolio(PortfolioCriterion::NetRevenue).allocate(&p);
        let rr = RoundRobinAllocator.allocate(&p);
        assert!(out.net_revenue() >= rr.net_revenue() - 1e-9);
    }

    #[test]
    fn elapsed_covers_all_members() {
        let p = problem();
        let out = portfolio(PortfolioCriterion::AcceptanceThenCost).allocate(&p);
        let cp = CpAllocator::default().allocate(&p);
        // Portfolio time includes at least the slowest member's order of
        // magnitude (sanity, not a strict bound).
        assert!(out.elapsed >= cp.elapsed / 4);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_portfolio_rejected() {
        let _ = PortfolioAllocator::new(vec![], PortfolioCriterion::NetRevenue);
    }

    #[test]
    fn racing_portfolio_is_at_least_as_good_as_each_member() {
        // A generous budget lets every member finish, so the race picks
        // exactly what the sequential reduction would.
        let p = problem();
        let race = PortfolioAllocator::racing(
            vec![
                Box::new(RoundRobinAllocator),
                Box::new(FilteringAllocator),
                Box::new(CpAllocator::default()),
            ],
            PortfolioCriterion::AcceptanceThenCost,
            Some(std::time::Duration::from_secs(60)),
        );
        assert_eq!(race.name(), "portfolio-race");
        let out = race.allocate(&p);
        for member in [
            RoundRobinAllocator.allocate(&p),
            FilteringAllocator.allocate(&p),
            CpAllocator::default().allocate(&p),
        ] {
            assert!(
                (out.rejection_rate, out.provider_cost())
                    <= (member.rejection_rate, member.provider_cost() + 1e-9),
                "racing portfolio must not lose to a member"
            );
        }
    }

    #[test]
    fn expired_deadline_skips_members_past_the_first() {
        let p = problem();
        let seq = portfolio(PortfolioCriterion::AcceptanceThenCost);
        let out = seq.allocate_with_deadline(
            &p,
            cpo_model::deadline::Deadline::within(std::time::Duration::ZERO),
        );
        // The first member (round-robin) still ran and fully places this
        // easy batch; the expensive tail members were never started.
        assert_eq!(out.rejected.len(), 0);
        let rr = RoundRobinAllocator.allocate(&p);
        assert_eq!(out.provider_cost(), rr.provider_cost());
    }
}
