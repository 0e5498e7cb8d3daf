//! Tenant lifecycle recording and the platform event log.
//!
//! A tenant's lifecycle — arrive → admit/reject → place → migrate →
//! depart — plus server failures/repairs and window closes is recorded
//! in one place: `Lifecycle`. It mints tenant ids, keeps the
//! tenant → flight-correlation-key map, makes the platform's only
//! lifecycle [`flight::record`] calls and sets the per-window registry
//! metrics. Every transition method returns the typed [`Event`];
//! [`crate::executor::WindowExecutor`] appends it to its [`EventLog`],
//! [`crate::fleet::FleetExecutor`] drops it.
//!
//! The log cannot be derived from the flight ring after the fact: the
//! ring is process-global, off by default and bounded, while the event
//! log is exact and per executor.

use crate::accounting::WindowReport;
use crate::tenant::{TenantId, TenantTable};
use cpo_model::prelude::ServerId;
use cpo_obs::flight::{self, FlightKind};
use std::fmt::Write;

/// Version of the JSON-lines trace schema written by
/// [`EventLog::to_json_lines`]. Bump when an [`Event`] variant changes
/// shape.
pub const EVENT_LOG_SCHEMA_VERSION: u32 = 1;

/// One platform event, stamped with the window index it occurred in.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A new request arrived in the window's batch.
    RequestArrived {
        /// Window index.
        window: u64,
        /// Tentative tenant id the request would get.
        tenant: TenantId,
        /// Number of resources requested.
        vms: usize,
    },
    /// A request was accepted and placed.
    TenantAdmitted {
        /// Window index.
        window: u64,
        /// The new tenant.
        tenant: TenantId,
    },
    /// A request was rejected by the allocator.
    RequestRejected {
        /// Window index.
        window: u64,
        /// The rejected (never-admitted) tenant id.
        tenant: TenantId,
    },
    /// A running resource was migrated by a reconfiguration plan.
    VmMigrated {
        /// Window index.
        window: u64,
        /// Owning tenant.
        tenant: TenantId,
        /// Local VM index within the tenant.
        vm: usize,
        /// Source server.
        from: ServerId,
        /// Destination server.
        to: ServerId,
    },
    /// A tenant's lifetime expired and its resources were released.
    TenantDeparted {
        /// Window index.
        window: u64,
        /// The departing tenant.
        tenant: TenantId,
    },
    /// A physical server failed (future-work platform events).
    ServerFailed {
        /// Window index.
        window: u64,
        /// The failed server.
        server: ServerId,
    },
    /// A failed server came back after repair.
    ServerRepaired {
        /// Window index.
        window: u64,
        /// The repaired server.
        server: ServerId,
    },
    /// A scheduling window closed.
    WindowClosed {
        /// Window index.
        window: u64,
        /// Tenants running at close.
        running_tenants: usize,
        /// Active (non-empty) servers at close.
        active_servers: usize,
    },
}

impl Event {
    /// The window the event belongs to.
    pub fn window(&self) -> u64 {
        match self {
            Event::RequestArrived { window, .. }
            | Event::TenantAdmitted { window, .. }
            | Event::RequestRejected { window, .. }
            | Event::VmMigrated { window, .. }
            | Event::TenantDeparted { window, .. }
            | Event::ServerFailed { window, .. }
            | Event::ServerRepaired { window, .. }
            | Event::WindowClosed { window, .. } => *window,
        }
    }

    /// Appends the event as one compact JSON line: the snake-case
    /// variant name as the `event` tag, then the fields in declaration
    /// order.
    fn write_json_line(&self, out: &mut String) {
        let _ = match *self {
            Event::RequestArrived {
                window,
                tenant: TenantId(t),
                vms,
            } => write!(
                out,
                r#"{{"event":"request_arrived","window":{window},"tenant":{t},"vms":{vms}}}"#
            ),
            Event::TenantAdmitted {
                window,
                tenant: TenantId(t),
            } => write!(
                out,
                r#"{{"event":"tenant_admitted","window":{window},"tenant":{t}}}"#
            ),
            Event::RequestRejected {
                window,
                tenant: TenantId(t),
            } => write!(
                out,
                r#"{{"event":"request_rejected","window":{window},"tenant":{t}}}"#
            ),
            Event::VmMigrated {
                window,
                tenant: TenantId(t),
                vm,
                from: ServerId(from),
                to: ServerId(to),
            } => write!(
                out,
                r#"{{"event":"vm_migrated","window":{window},"tenant":{t},"vm":{vm},"from":{from},"to":{to}}}"#
            ),
            Event::TenantDeparted {
                window,
                tenant: TenantId(t),
            } => write!(
                out,
                r#"{{"event":"tenant_departed","window":{window},"tenant":{t}}}"#
            ),
            Event::ServerFailed {
                window,
                server: ServerId(s),
            } => write!(
                out,
                r#"{{"event":"server_failed","window":{window},"server":{s}}}"#
            ),
            Event::ServerRepaired {
                window,
                server: ServerId(s),
            } => write!(
                out,
                r#"{{"event":"server_repaired","window":{window},"server":{s}}}"#
            ),
            Event::WindowClosed {
                window,
                running_tenants,
                active_servers,
            } => write!(
                out,
                r#"{{"event":"window_closed","window":{window},"running_tenants":{running_tenants},"active_servers":{active_servers}}}"#
            ),
        };
        out.push('\n');
    }
}

/// An append-only event log with typed queries.
#[derive(Clone, Debug, Default)]
pub struct EventLog {
    events: Vec<Event>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    pub fn push(&mut self, e: Event) {
        self.events.push(e);
    }

    /// All events in order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events of one window.
    pub fn window_events(&self, window: u64) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.window() == window)
    }

    /// Total migrations recorded.
    pub fn migration_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, Event::VmMigrated { .. }))
            .count()
    }

    /// Total rejections recorded.
    pub fn rejection_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, Event::RequestRejected { .. }))
            .count()
    }

    /// Total server failures recorded.
    pub fn failure_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, Event::ServerFailed { .. }))
            .count()
    }

    /// Serialises the log as JSON lines — a schema-version header line
    /// followed by one event object per line — the trace format ops
    /// tooling reads.
    pub fn to_json_lines(&self) -> String {
        let mut out = format!("{{\"schema_version\":{EVENT_LOG_SCHEMA_VERSION}}}\n");
        for e in &self.events {
            e.write_json_line(&mut out);
        }
        out
    }
}

/// The lifecycle recorder an engine owns: tenant-id minting, the
/// tenant → flight-correlation-key map, and every lifecycle flight event.
#[derive(Debug, Default)]
pub(crate) struct Lifecycle {
    /// The next tenant id to mint; ids start at 0.
    next_tenant: u64,
    /// Tenant → flight-recorder correlation key (the request uid). Bound
    /// by [`Lifecycle::bind_keys`], which the scheduler calls only while
    /// the recorder is on; dropped when the request is rejected or the
    /// tenant departs.
    keys: TenantTable<u64>,
}

impl Lifecycle {
    /// Mints the next sequential tenant id for an arriving request of
    /// `vms` resources.
    pub fn arrived(&mut self, window: u64, vms: usize) -> (TenantId, Event) {
        let tenant = TenantId(self.next_tenant);
        self.next_tenant += 1;
        (
            tenant,
            Event::RequestArrived {
                window,
                tenant,
                vms,
            },
        )
    }

    /// Associates minted tenant ids with flight correlation keys. `ids`
    /// and `keys` are parallel; entries with the [`flight::NONE`]
    /// sentinel are skipped.
    pub fn bind_keys(&mut self, ids: &[TenantId], keys: &[u64]) {
        for (&id, &key) in ids.iter().zip(keys) {
            if key != flight::NONE {
                self.keys.insert(id, key);
            }
        }
    }

    /// The correlation key bound to a tenant, or [`flight::NONE`].
    pub fn key(&self, tenant: TenantId) -> u64 {
        self.keys.get(tenant).copied().unwrap_or(flight::NONE)
    }

    /// An admission: the `admitted` flight event (binding key ↔ tenant in
    /// the timeline) followed by one `placed` event per resource, in VM
    /// order. `servers` yields each resource's server index and is only
    /// walked while the recorder is on.
    pub fn admitted(
        &self,
        window: u64,
        tenant: TenantId,
        servers: impl ExactSizeIterator<Item = usize>,
    ) -> Event {
        if flight::is_enabled() {
            let key = self.key(tenant);
            let vms = servers.len() as u64;
            flight::record(FlightKind::Admitted, key, tenant.0, window, vms);
            for (local, j) in servers.enumerate() {
                flight::record(FlightKind::Placed, key, tenant.0, j as u64, local as u64);
            }
        }
        Event::TenantAdmitted { window, tenant }
    }

    /// A rejection; the correlation key is dropped.
    pub fn rejected(&mut self, window: u64, tenant: TenantId) -> Event {
        let key = self.keys.remove(tenant).unwrap_or(flight::NONE);
        flight::record(FlightKind::Rejected, key, tenant.0, window, 0);
        Event::RequestRejected { window, tenant }
    }

    /// A departure; the correlation key is dropped.
    pub fn departed(&mut self, window: u64, tenant: TenantId) -> Event {
        let key = self.keys.remove(tenant).unwrap_or(flight::NONE);
        flight::record(FlightKind::Departed, key, tenant.0, window, 0);
        Event::TenantDeparted { window, tenant }
    }

    /// One resource of `tenant` (local index `vm`) moved servers.
    pub fn migrated(
        &self,
        window: u64,
        tenant: TenantId,
        vm: usize,
        from: ServerId,
        to: ServerId,
    ) -> Event {
        flight::record(
            FlightKind::Migrated,
            self.key(tenant),
            tenant.0,
            from.0 as u64,
            to.0 as u64,
        );
        Event::VmMigrated {
            window,
            tenant,
            vm,
            from,
            to,
        }
    }

    /// A window's QoS fell below the tenant's guarantee. The credit
    /// travels in integer micro-units, an exact round trip through the
    /// `u64` payload. The event log has no SLA variant, so nothing is
    /// returned.
    pub fn sla_violated(&self, window: u64, tenant: TenantId, credit: f64) {
        flight::record(
            FlightKind::SlaViolated,
            self.key(tenant),
            tenant.0,
            window,
            (credit * 1e6).round() as u64,
        );
    }

    /// A server went down.
    pub fn server_failed(&self, window: u64, server: ServerId) -> Event {
        let j = server.0 as u64;
        flight::record(
            FlightKind::ServerFailed,
            flight::NONE,
            flight::NONE,
            j,
            window,
        );
        Event::ServerFailed { window, server }
    }

    /// A server came back.
    pub fn server_repaired(&self, window: u64, server: ServerId) -> Event {
        let j = server.0 as u64;
        flight::record(
            FlightKind::ServerRepaired,
            flight::NONE,
            flight::NONE,
            j,
            window,
        );
        Event::ServerRepaired { window, server }
    }

    /// A window closed: the `window_closed` flight event plus the
    /// per-window registry metrics every engine reports under the same
    /// names — `platform.solve_ns`, `platform.running_tenants`,
    /// `platform.running_vms` and `platform.active_servers`.
    pub fn window_closed(&self, report: &WindowReport) -> Event {
        let window = report.window;
        flight::record(
            FlightKind::WindowClosed,
            flight::NONE,
            flight::NONE,
            window,
            report.running_tenants as u64,
        );
        cpo_obs::record_value("platform.solve_ns", report.solve_time.as_nanos() as u64);
        cpo_obs::gauge_set("platform.running_tenants", report.running_tenants as f64);
        cpo_obs::gauge_set("platform.running_vms", report.running_vms as f64);
        cpo_obs::gauge_set("platform.active_servers", report.active_servers as f64);
        Event::WindowClosed {
            window,
            running_tenants: report.running_tenants,
            active_servers: report.active_servers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_counts_and_filters() {
        let mut log = EventLog::new();
        log.push(Event::RequestArrived {
            window: 0,
            tenant: TenantId(1),
            vms: 2,
        });
        log.push(Event::TenantAdmitted {
            window: 0,
            tenant: TenantId(1),
        });
        log.push(Event::RequestRejected {
            window: 1,
            tenant: TenantId(2),
        });
        log.push(Event::VmMigrated {
            window: 1,
            tenant: TenantId(1),
            vm: 0,
            from: ServerId(0),
            to: ServerId(1),
        });
        assert_eq!(log.events().len(), 4);
        assert_eq!(log.window_events(1).count(), 2);
        assert_eq!(log.migration_count(), 1);
        assert_eq!(log.rejection_count(), 1);
        assert_eq!(log.events()[3].window(), 1);
    }

    #[test]
    fn json_lines_roundtrip() {
        let mut log = EventLog::new();
        log.push(Event::TenantAdmitted {
            window: 0,
            tenant: TenantId(1),
        });
        log.push(Event::ServerFailed {
            window: 2,
            server: ServerId(4),
        });
        log.push(Event::WindowClosed {
            window: 2,
            running_tenants: 1,
            active_servers: 3,
        });
        let trace = log.to_json_lines();
        assert_eq!(trace.lines().count(), 4, "schema header + 3 events");
        assert!(trace.starts_with("{\"schema_version\":1}\n"));
        assert!(trace.contains("\"event\":\"server_failed\""));
    }

    /// Every variant's line, byte for byte as the earlier serde-based
    /// writer produced it, so saved traces and the fixed-step pin's hash
    /// stay valid.
    #[test]
    fn json_lines_match_the_golden_format() {
        let mut log = EventLog::new();
        for e in [
            Event::RequestArrived {
                window: 0,
                tenant: TenantId(1),
                vms: 2,
            },
            Event::TenantAdmitted {
                window: 0,
                tenant: TenantId(1),
            },
            Event::RequestRejected {
                window: 1,
                tenant: TenantId(2),
            },
            Event::VmMigrated {
                window: 1,
                tenant: TenantId(1),
                vm: 3,
                from: ServerId(4),
                to: ServerId(5),
            },
            Event::TenantDeparted {
                window: 2,
                tenant: TenantId(1),
            },
            Event::ServerFailed {
                window: 3,
                server: ServerId(6),
            },
            Event::ServerRepaired {
                window: 5,
                server: ServerId(6),
            },
            Event::WindowClosed {
                window: 7,
                running_tenants: 2,
                active_servers: 3,
            },
            Event::VmMigrated {
                window: u64::MAX,
                tenant: TenantId(u64::MAX),
                vm: usize::MAX,
                from: ServerId(0),
                to: ServerId(usize::MAX),
            },
        ] {
            log.push(e);
        }
        let golden = r#"{"schema_version":1}
{"event":"request_arrived","window":0,"tenant":1,"vms":2}
{"event":"tenant_admitted","window":0,"tenant":1}
{"event":"request_rejected","window":1,"tenant":2}
{"event":"vm_migrated","window":1,"tenant":1,"vm":3,"from":4,"to":5}
{"event":"tenant_departed","window":2,"tenant":1}
{"event":"server_failed","window":3,"server":6}
{"event":"server_repaired","window":5,"server":6}
{"event":"window_closed","window":7,"running_tenants":2,"active_servers":3}
{"event":"vm_migrated","window":18446744073709551615,"tenant":18446744073709551615,"vm":18446744073709551615,"from":0,"to":18446744073709551615}
"#;
        assert_eq!(log.to_json_lines(), golden);
    }

    #[test]
    fn tenant_ids_are_sequential_and_keys_drop_on_exit() {
        let mut lc = Lifecycle::default();
        let ids: Vec<TenantId> = (0..3).map(|_| lc.arrived(0, 1).0).collect();
        assert_eq!(ids, vec![TenantId(0), TenantId(1), TenantId(2)]);
        lc.bind_keys(&ids, &[10, flight::NONE, 12]);
        assert_eq!(
            (lc.key(ids[0]), lc.key(ids[1]), lc.key(ids[2])),
            (10, flight::NONE, 12)
        );
        assert_eq!(
            lc.rejected(0, ids[0]),
            Event::RequestRejected {
                window: 0,
                tenant: ids[0]
            }
        );
        assert_eq!(
            lc.departed(3, ids[2]),
            Event::TenantDeparted {
                window: 3,
                tenant: ids[2]
            }
        );
        assert_eq!(
            (lc.key(ids[0]), lc.key(ids[2])),
            (flight::NONE, flight::NONE)
        );
    }
}
