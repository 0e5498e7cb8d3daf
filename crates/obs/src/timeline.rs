//! Per-request lifecycles: the grammar every request's flight events
//! follow ([`Track`]), and the per-request [`Timeline`]s reconstructed
//! from a flight snapshot or dump.
//!
//! Every request drawn from an arrival stream carries a correlation key
//! (its uid) from generation onwards; admission binds the key to a
//! tenant id, and from then on platform events (placement, migration,
//! SLA breaches, departure) are attributed to the tenant.
//! [`reconstruct`] joins the two views back into one [`Timeline`] per
//! request, and [`Timeline::lifecycle_errors`] folds its events through
//! a [`Track`] so tests can demand gap-free, orphan-free coverage of a
//! whole run. The latency profiler ([`crate::prof`]) steps the same
//! [`Track`] online from `arrived` on and finalizes a request once it is
//! [`Track::settled`], so the two consumers cannot disagree on the
//! grammar. Timelines are not written to disk: the flight dump
//! (`flight.jsonl`) holds every event, and `exper timeline <dump>`
//! rebuilds them from it.

use crate::flight::{FlightEvent, FlightKind, NONE};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Where a request stands in its lifecycle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Phase {
    /// No event yet.
    #[default]
    Start,
    /// Drawn from an arrival stream.
    Generated,
    /// Reached the simulator; store commit traffic may follow.
    Arrived,
    /// Admitted by admission control.
    Admitted {
        /// VMs the admission carries.
        vms: u64,
        /// VMs placed so far.
        placed: u64,
    },
    /// Rejected by admission control.
    Rejected,
    /// Released its resources.
    Departed,
}

/// One request's position in the lifecycle grammar:
///
/// ```text
/// generated → arrived → (committed | conflicted | commit_attempt)*
///           → admitted → placed × vms, interleaved with
///                        (migrated | sla_violated)* → departed?
///           | rejected
/// ```
///
/// Commit traffic before the decision is legal because a sharded
/// scheduler may bounce a request several times before it is admitted
/// or rejected; a `committed` reserves capacity, so a request that saw
/// one must end up admitted. A stream may stop anywhere (a run ends
/// with requests undecided, waiting or running) except between an
/// admission and its last placement, which [`Track::finish`] checks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Track {
    phase: Phase,
    committed: bool,
}

impl Track {
    /// A request first seen at its `arrived` event — where the profiler
    /// starts tracking.
    pub fn from_arrival() -> Self {
        Self {
            phase: Phase::Arrived,
            committed: false,
        }
    }

    /// The current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Advances over one event of `kind`; `b` is the event's second
    /// payload word, read only on `admitted` (the VM count). An event
    /// the grammar does not allow here leaves the track unchanged and
    /// returns the defect.
    pub fn step(&mut self, kind: FlightKind, b: u64) -> Result<(), String> {
        use FlightKind as K;
        use Phase as P;
        self.phase = match (self.phase, kind) {
            (P::Start, K::Generated) => P::Generated,
            (P::Generated, K::Arrived) => P::Arrived,
            (P::Arrived, K::Committed) => {
                self.committed = true;
                P::Arrived
            }
            (P::Arrived, K::Conflicted | K::CommitAttempt) => P::Arrived,
            (P::Arrived, K::Admitted) => P::Admitted { vms: b, placed: 0 },
            (P::Arrived, K::Rejected) if !self.committed => P::Rejected,
            (P::Admitted { vms, placed }, K::Placed) if placed < vms => P::Admitted {
                vms,
                placed: placed + 1,
            },
            (phase @ P::Admitted { .. }, K::Migrated | K::SlaViolated) => phase,
            (P::Admitted { vms, placed }, K::Departed) if placed == vms => P::Departed,
            (phase, kind) => return Err(defect(phase, kind)),
        };
        Ok(())
    }

    /// Whether the admission decision is complete: rejected, or
    /// admitted with every VM placed.
    pub fn settled(&self) -> bool {
        match self.phase {
            Phase::Rejected | Phase::Departed => true,
            Phase::Admitted { vms, placed } => placed == vms,
            _ => false,
        }
    }

    /// The end-of-stream check: every state is a legal place for a run
    /// to stop except an admission whose placements are incomplete.
    pub fn finish(&self) -> Result<(), String> {
        match self.phase {
            Phase::Admitted { vms, placed } if placed < vms => {
                Err(format!("admitted {vms} vms but placed {placed}"))
            }
            _ => Ok(()),
        }
    }
}

/// Why an event of `kind` cannot follow `phase`.
fn defect(phase: Phase, kind: FlightKind) -> String {
    use FlightKind as K;
    use Phase as P;
    let name = kind.name();
    match (phase, kind) {
        (P::Rejected, _) => format!("rejected yet has {name} events"),
        // The only refused decision at `arrived`.
        (P::Arrived, K::Rejected) => "rejected yet has committed events".into(),
        (P::Departed, _) => "events recorded after departure".into(),
        (P::Start, K::Arrived) => "arrived without generation".into(),
        (P::Start, _) => "does not start with generated".into(),
        (_, K::Generated | K::Arrived) => format!("expected at most one {name} event"),
        (P::Generated, K::Admitted | K::Rejected) => "decided without an arrived event".into(),
        (P::Generated, _) => format!("{name} before arrival"),
        (P::Arrived, _) => format!("{name} before an admission decision"),
        (P::Admitted { .. }, K::Admitted | K::Rejected) => {
            "more than one admission decision".into()
        }
        (P::Admitted { vms, .. }, K::Placed) => format!("more than {vms} vms placed"),
        (P::Admitted { vms, placed }, K::Departed) => {
            format!("departed with {placed} of {vms} vms placed")
        }
        (P::Admitted { .. }, _) => format!("{name} after the admission decision"),
    }
}

/// The reconstructed lifecycle of one request.
#[derive(Clone, Debug, PartialEq)]
pub struct Timeline {
    /// The request's correlation key (generation-time uid).
    pub key: u64,
    /// The tenant id admission bound the request to, if admitted.
    pub tenant: Option<u64>,
    /// The request's events in ticket order.
    pub events: Vec<FlightEvent>,
}

impl Timeline {
    /// Whether the request was admitted.
    pub fn admitted(&self) -> bool {
        self.events.iter().any(|e| e.kind == FlightKind::Admitted)
    }

    /// Whether the request was rejected.
    pub fn rejected(&self) -> bool {
        self.events.iter().any(|e| e.kind == FlightKind::Rejected)
    }

    /// Whether the tenant departed (released its resources).
    pub fn departed(&self) -> bool {
        self.events.iter().any(|e| e.kind == FlightKind::Departed)
    }

    /// The request's [`Track`] after every event it accepts (defective
    /// events are skipped, as [`Track::step`] leaves them).
    pub fn track(&self) -> Track {
        let mut track = Track::default();
        for e in &self.events {
            let _ = track.step(e.kind, e.b);
        }
        track
    }

    /// Validates the event sequence against the lifecycle grammar: a
    /// fold of [`Track::step`] over the events, then [`Track::finish`],
    /// plus a ticket-order check. Returns one message per defect; empty
    /// means the timeline is complete and ordered. Requests cut short by
    /// the end of a run are complete; what is never legitimate is a
    /// *later* stage without its earlier ones.
    pub fn lifecycle_errors(&self) -> Vec<String> {
        let mut track = Track::default();
        let mut errors: Vec<String> = self
            .events
            .iter()
            .filter_map(|e| track.step(e.kind, e.b).err())
            .collect();
        errors.extend(track.finish().err());
        if self.events.windows(2).any(|w| w[1].ticket < w[0].ticket) {
            errors.push("tickets out of order".into());
        }
        errors
            .into_iter()
            .map(|m| format!("request {}: {m}", self.key))
            .collect()
    }

    /// Renders the timeline as a human-readable multi-line string.
    pub fn render(&self) -> String {
        let mut out = format!(
            "request {} — {}{}\n",
            self.key,
            match (self.admitted(), self.rejected()) {
                (true, _) => "admitted",
                (_, true) => "rejected",
                _ => "undecided",
            },
            self.tenant
                .map(|t| format!(" (tenant {t})"))
                .unwrap_or_default()
        );
        for e in &self.events {
            let what = match e.kind {
                FlightKind::Generated => format!("generated ({} vms)", e.a),
                FlightKind::Arrived => format!("arrived at sim t={}µ ({} vms)", e.a, e.b),
                FlightKind::Admitted => format!("admitted in window {} ({} vms)", e.a, e.b),
                FlightKind::Rejected => format!("rejected in window {}", e.a),
                FlightKind::Placed => format!("vm {} placed on server {}", e.b, e.a),
                FlightKind::Migrated => format!("migrated from server {} to server {}", e.a, e.b),
                FlightKind::Departed => format!("departed in window {}", e.a),
                FlightKind::SlaViolated => {
                    format!("SLA breach in window {} (credit {}µ)", e.a, e.b)
                }
                FlightKind::Committed => {
                    format!("commit accepted in window {} (round {})", e.a, e.b)
                }
                FlightKind::Conflicted => {
                    format!("commit bounced in window {} (round {})", e.a, e.b)
                }
                FlightKind::CommitAttempt => {
                    let reason = if e.b == 0 { "stale" } else { "capacity" };
                    format!("commit attempt bounced off server {} ({reason})", e.a)
                }
                _ => format!("{} a={} b={}", e.kind.name(), e.a, e.b),
            };
            let _ = writeln!(out, "  [{:>8}] t={:>10}us  {}", e.ticket, e.ts_us, what);
        }
        out
    }
}

/// The full reconstruction of one run.
#[derive(Clone, Debug, Default)]
pub struct TimelineSet {
    /// One timeline per request key, sorted by key.
    pub timelines: Vec<Timeline>,
    /// Tenant-scoped events whose tenant was never bound to a request
    /// key (e.g. fixed-step tenants admitted outside a traced stream).
    pub orphans: Vec<FlightEvent>,
}

impl TimelineSet {
    /// The timeline of one request, if present.
    pub fn timeline(&self, key: u64) -> Option<&Timeline> {
        self.timelines.iter().find(|t| t.key == key)
    }

    /// Every lifecycle defect across all timelines.
    pub fn all_errors(&self) -> Vec<String> {
        self.timelines
            .iter()
            .flat_map(Timeline::lifecycle_errors)
            .collect()
    }
}

/// Joins flight events into per-request timelines. Events carrying a
/// key are attributed directly; events carrying only a tenant id are
/// joined through the key↔tenant binding established by admission
/// events. Infrastructure-scoped events (server failures/repairs,
/// window markers, monitor violations) belong to no request and are
/// ignored here.
pub fn reconstruct(events: &[FlightEvent]) -> TimelineSet {
    // Infrastructure-scoped kinds never belong to a request; `violation`
    // and `marker` reuse the key slot for other payloads, so they must be
    // excluded *before* key attribution.
    let request_scoped = |e: &FlightEvent| {
        !matches!(
            e.kind,
            FlightKind::ServerFailed
                | FlightKind::ServerRepaired
                | FlightKind::WindowClosed
                | FlightKind::Violation
                | FlightKind::Marker
        )
    };
    // Pass 1: tenant → key bindings from any event carrying both.
    let mut binding: BTreeMap<u64, u64> = BTreeMap::new();
    for e in events.iter().filter(|e| request_scoped(e)) {
        if e.key != NONE && e.tenant != NONE {
            binding.insert(e.tenant, e.key);
        }
    }
    // Pass 2: attribute every request-scoped event.
    let mut by_key: BTreeMap<u64, Timeline> = BTreeMap::new();
    let mut orphans = Vec::new();
    for e in events.iter().filter(|e| request_scoped(e)) {
        let key = if e.key != NONE {
            Some(e.key)
        } else if e.tenant != NONE {
            binding.get(&e.tenant).copied()
        } else {
            None
        };
        match key {
            Some(k) => {
                let t = by_key.entry(k).or_insert_with(|| Timeline {
                    key: k,
                    tenant: None,
                    events: Vec::new(),
                });
                if e.tenant != NONE {
                    t.tenant = Some(e.tenant);
                }
                t.events.push(*e);
            }
            None if e.tenant != NONE => orphans.push(*e),
            None => {} // infrastructure-scoped
        }
    }
    let mut timelines: Vec<Timeline> = by_key.into_values().collect();
    for t in &mut timelines {
        t.events.sort_by_key(|e| e.ticket);
    }
    TimelineSet { timelines, orphans }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ticket: u64, kind: FlightKind, key: u64, tenant: u64, a: u64, b: u64) -> FlightEvent {
        FlightEvent {
            ticket,
            ts_us: ticket * 10,
            kind,
            key,
            tenant,
            a,
            b,
        }
    }

    fn lifecycle() -> Vec<FlightEvent> {
        vec![
            ev(0, FlightKind::Generated, 7, NONE, 2, 0),
            ev(1, FlightKind::Arrived, 7, NONE, 1500, 2),
            ev(2, FlightKind::Admitted, 7, 3, 1, 2),
            ev(3, FlightKind::Placed, 7, 3, 0, 0),
            ev(4, FlightKind::Placed, 7, 3, 1, 1),
            ev(5, FlightKind::Migrated, NONE, 3, 0, 4), // tenant-only: joined
            ev(6, FlightKind::Departed, NONE, 3, 5, 0),
        ]
    }

    #[test]
    fn complete_lifecycle_reconstructs_without_errors() {
        let set = reconstruct(&lifecycle());
        assert_eq!(set.timelines.len(), 1);
        assert!(set.orphans.is_empty());
        let t = &set.timelines[0];
        assert_eq!(t.key, 7);
        assert_eq!(t.tenant, Some(3));
        assert_eq!(t.events.len(), 7);
        assert!(t.admitted() && !t.rejected() && t.departed());
        assert_eq!(t.lifecycle_errors(), Vec::<String>::new());
        let text = t.render();
        assert!(text.contains("request 7"));
        assert!(text.contains("migrated from server 0 to server 4"));
    }

    #[test]
    fn unbound_tenant_events_are_orphans() {
        let events = vec![ev(0, FlightKind::Placed, NONE, 99, 0, 0)];
        let set = reconstruct(&events);
        assert!(set.timelines.is_empty());
        assert_eq!(set.orphans.len(), 1);
    }

    #[test]
    fn infrastructure_events_are_ignored() {
        let events = vec![
            ev(0, FlightKind::ServerFailed, NONE, NONE, 4, 1),
            ev(1, FlightKind::WindowClosed, NONE, NONE, 1, 0),
        ];
        let set = reconstruct(&events);
        assert!(set.timelines.is_empty() && set.orphans.is_empty());
    }

    #[test]
    fn missing_arrival_is_a_lifecycle_error() {
        let events = vec![
            ev(0, FlightKind::Generated, 1, NONE, 1, 0),
            ev(1, FlightKind::Admitted, 1, 8, 0, 1),
            ev(2, FlightKind::Placed, 1, 8, 0, 0),
        ];
        let set = reconstruct(&events);
        let errors = set.all_errors();
        assert!(errors.iter().any(|e| e.contains("arrived")), "{errors:?}");
    }

    #[test]
    fn rejected_request_with_placement_is_flagged() {
        let events = vec![
            ev(0, FlightKind::Generated, 1, NONE, 1, 0),
            ev(1, FlightKind::Arrived, 1, NONE, 10, 1),
            ev(2, FlightKind::Rejected, 1, 8, 0, 0),
            ev(3, FlightKind::Placed, 1, 8, 0, 0),
        ];
        let errors = reconstruct(&events).all_errors();
        assert!(errors.iter().any(|e| e.contains("rejected yet has placed")));
    }

    #[test]
    fn bounced_then_admitted_request_is_a_legal_lifecycle() {
        let events = vec![
            ev(0, FlightKind::Generated, 4, NONE, 1, 0),
            ev(1, FlightKind::Arrived, 4, NONE, 900, 1),
            ev(2, FlightKind::CommitAttempt, 4, NONE, 17, 1),
            ev(3, FlightKind::Conflicted, 4, NONE, 0, 0),
            ev(4, FlightKind::CommitAttempt, 4, NONE, 23, 0),
            ev(5, FlightKind::Conflicted, 4, NONE, 0, 1),
            ev(6, FlightKind::Committed, 4, NONE, 0, 2),
            ev(7, FlightKind::Admitted, 4, 11, 0, 1),
            ev(8, FlightKind::Placed, 4, 11, 23, 0),
        ];
        let set = reconstruct(&events);
        let t = set.timeline(4).unwrap();
        assert!(t.admitted());
        assert_eq!(t.lifecycle_errors(), Vec::<String>::new());
        let text = t.render();
        assert!(text.contains("commit attempt bounced off server 17 (capacity)"));
        assert!(text.contains("commit attempt bounced off server 23 (stale)"));
    }

    #[test]
    fn bounced_then_rejected_request_is_a_legal_lifecycle() {
        // Retry-budget exhaustion: every round bounces, the last round
        // force-rejects. No commit may survive on a rejected timeline,
        // but per-attempt bounces and round-level conflicts must.
        let events = vec![
            ev(0, FlightKind::Generated, 5, NONE, 1, 0),
            ev(1, FlightKind::Arrived, 5, NONE, 950, 1),
            ev(2, FlightKind::CommitAttempt, 5, NONE, 8, 1),
            ev(3, FlightKind::Conflicted, 5, NONE, 0, 0),
            ev(4, FlightKind::CommitAttempt, 5, NONE, 8, 1),
            ev(5, FlightKind::Conflicted, 5, NONE, 0, 1),
            ev(6, FlightKind::Rejected, 5, NONE, 0, 0),
        ];
        let set = reconstruct(&events);
        let t = set.timeline(5).unwrap();
        assert!(t.rejected() && !t.admitted());
        assert_eq!(t.lifecycle_errors(), Vec::<String>::new());
    }

    #[test]
    fn undecided_request_with_commit_attempts_is_not_stage_skipping() {
        // A run cut off mid-window may leave a request bounced but not
        // yet decided; that must not trip the "before an admission
        // decision" defect.
        let events = vec![
            ev(0, FlightKind::Generated, 6, NONE, 1, 0),
            ev(1, FlightKind::Arrived, 6, NONE, 10, 1),
            ev(2, FlightKind::CommitAttempt, 6, NONE, 3, 0),
            ev(3, FlightKind::Conflicted, 6, NONE, 0, 0),
        ];
        let errors = reconstruct(&events).all_errors();
        assert_eq!(errors, Vec::<String>::new());
    }

    #[test]
    fn a_track_settles_once_every_vm_is_placed() {
        let mut track = Track::from_arrival();
        assert!(!track.settled());
        track.step(FlightKind::Admitted, 2).unwrap();
        track.step(FlightKind::Placed, 0).unwrap();
        assert!(!track.settled(), "one of two vms placed");
        track.step(FlightKind::Placed, 1).unwrap();
        assert!(track.settled());
        let err = track.step(FlightKind::Placed, 2).unwrap_err();
        assert!(err.contains("more than 2 vms placed"), "{err}");
        assert_eq!(
            track.phase(),
            Phase::Admitted { vms: 2, placed: 2 },
            "a refused event leaves the track unchanged"
        );
        track.step(FlightKind::Departed, 0).unwrap();
        assert!(track.settled() && track.finish().is_ok());
    }

    #[test]
    fn incomplete_placement_and_committed_rejection_are_defects() {
        let events = vec![
            ev(0, FlightKind::Generated, 1, NONE, 2, 0),
            ev(1, FlightKind::Arrived, 1, NONE, 10, 2),
            ev(2, FlightKind::Admitted, 1, 8, 0, 2),
            ev(3, FlightKind::Placed, 1, 8, 0, 0),
            ev(4, FlightKind::Generated, 2, NONE, 1, 0),
            ev(5, FlightKind::Arrived, 2, NONE, 10, 1),
            ev(6, FlightKind::Committed, 2, NONE, 0, 0),
            ev(7, FlightKind::Rejected, 2, NONE, 0, 0),
        ];
        let set = reconstruct(&events);
        assert_eq!(
            set.timeline(1).unwrap().lifecycle_errors(),
            vec!["request 1: admitted 2 vms but placed 1".to_string()]
        );
        assert!(!set.timeline(1).unwrap().track().settled());
        assert_eq!(
            set.timeline(2).unwrap().lifecycle_errors(),
            vec!["request 2: rejected yet has committed events".to_string()]
        );
    }
}
