//! The reusable window engine behind [`crate::sim::PlatformSim`].
//!
//! [`WindowExecutor`] owns the live platform state (infrastructure,
//! running tenants, event log, RNG, offline servers, optional network and
//! SLA ledger) and exposes the window loop as separate phases so that
//! different drivers can sequence them:
//!
//! * [`crate::sim::PlatformSim`] runs the classic fixed-step loop —
//!   failures → departures → generated arrivals → solve/apply — once per
//!   `step`;
//! * a continuous-time driver (the `cpo-des` crate) injects arrivals and
//!   departures from an event queue and calls [`WindowExecutor::execute`]
//!   at window boundaries.
//!
//! Both drivers share the same RNG stream discipline: phase methods draw
//! from the executor RNG in a fixed order, so a fixed-window event-driven
//! run reproduces `PlatformSim` exactly for the same seed.

use crate::accounting::WindowReport;
use crate::events::{Event, EventLog};
use crate::network::NetworkModel;
use crate::sla::SlaLedger;
use crate::tenant::{rebase_rules, Tenant, TenantId};
use cpo_core::prelude::Allocator;
use cpo_model::cost;
use cpo_model::prelude::*;
use cpo_obs::flight::{self, FlightKind};
use cpo_scenario::request_gen::{generate_requests, RequestSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Simulation configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Arrival process per window (a fresh batch from this spec).
    pub arrivals: RequestSpec,
    /// Tenant lifetime range in windows, inclusive.
    pub lifetime: (u32, u32),
    /// Master seed (per-window batches derive from it).
    pub seed: u64,
    /// Per-window probability that one running server fails (the paper's
    /// future-work "platform failures" events). A failed server's VMs
    /// must be re-placed by the window's reconfiguration plan.
    pub server_failure_prob: f64,
    /// Windows a failed server stays offline before repair brings it back.
    pub repair_windows: u32,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            arrivals: RequestSpec {
                total_vms: 12,
                ..Default::default()
            },
            lifetime: (3, 8),
            seed: 0,
            server_failure_prob: 0.0,
            repair_windows: 3,
        }
    }
}

/// How admitted tenants receive their lifetime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LifetimePolicy {
    /// Draw `remaining_windows` from `SimConfig::lifetime` using the
    /// executor RNG (the classic fixed-step behaviour).
    DrawnWindows,
    /// Leave the tenant resident until [`WindowExecutor::depart_tenant`]
    /// removes it — the driver owns departures (continuous-time mode).
    /// No RNG draw is made.
    External,
}

/// Per-window totals handed to [`WindowExecutor::finish_window`] by
/// whichever path (native solve or sharded store commits) decided the
/// window's admissions.
pub(crate) struct WindowTotals {
    pub arrivals: usize,
    pub admitted: usize,
    pub rejected: usize,
    pub migrations: usize,
    pub migration_cost: f64,
    pub denied_flows: usize,
    pub solve_time: Duration,
}

/// The live platform: infrastructure + running tenants + event history,
/// decomposed into window phases a driver sequences.
pub struct WindowExecutor {
    infra: Infrastructure,
    config: SimConfig,
    tenants: Vec<Tenant>,
    next_tenant: u64,
    window: u64,
    log: EventLog,
    rng: SmallRng,
    /// `offline_until[j]` — window index at which server `j` returns, or 0.
    offline_until: Vec<u64>,
    /// Optional east-west network model (spine-leaf pods).
    network: Option<NetworkModel>,
    /// Per-tenant SLA ledger (Eq. 23 accumulated over windows).
    sla: SlaLedger,
    /// Tenant → flight-recorder correlation key (the request uid assigned
    /// at generation). Populated by [`WindowExecutor::bind_request_keys`];
    /// entries are dropped when the tenant departs or its request is
    /// rejected.
    flight_keys: HashMap<TenantId, u64>,
}

impl WindowExecutor {
    /// Creates an idle executor.
    pub fn new(infra: Infrastructure, config: SimConfig) -> Self {
        let rng = SmallRng::seed_from_u64(config.seed);
        let m = infra.server_count();
        Self {
            infra,
            config,
            tenants: Vec::new(),
            next_tenant: 0,
            window: 0,
            log: EventLog::new(),
            rng,
            offline_until: vec![0; m],
            network: None,
            sla: SlaLedger::new(),
            flight_keys: HashMap::new(),
        }
    }

    /// Associates registered arrival tenant ids with their flight-recorder
    /// correlation keys (request uids). `ids` and `keys` are parallel;
    /// entries with the [`flight::NONE`] sentinel are skipped. Event-driven
    /// drivers call this between [`WindowExecutor::register_arrivals`] and
    /// [`WindowExecutor::execute`] so lifecycle events carry the uid.
    pub fn bind_request_keys(&mut self, ids: &[TenantId], keys: &[u64]) {
        for (&id, &key) in ids.iter().zip(keys) {
            if key != flight::NONE {
                self.flight_keys.insert(id, key);
            }
        }
    }

    /// The correlation key bound to a tenant, or [`flight::NONE`].
    pub(crate) fn flight_key(&self, id: TenantId) -> u64 {
        self.flight_keys.get(&id).copied().unwrap_or(flight::NONE)
    }

    /// Attaches a network model (see [`crate::sim::PlatformSim::with_network`]).
    pub fn set_network(&mut self, network: NetworkModel) {
        self.network = Some(network);
    }

    /// The attached network model, if any.
    pub fn network(&self) -> Option<&NetworkModel> {
        self.network.as_ref()
    }

    /// The per-tenant SLA ledger.
    pub fn sla(&self) -> &SlaLedger {
        &self.sla
    }

    /// Running tenants.
    pub fn tenants(&self) -> &[Tenant] {
        &self.tenants
    }

    /// The event log.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// Current window index (number of completed windows).
    pub fn window(&self) -> u64 {
        self.window
    }

    /// The infrastructure.
    pub fn infra(&self) -> &Infrastructure {
        &self.infra
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Servers currently offline (failed, awaiting repair).
    pub fn offline_servers(&self) -> Vec<ServerId> {
        self.offline_until
            .iter()
            .enumerate()
            .filter_map(|(j, &until)| (until > self.window).then_some(ServerId(j)))
            .collect()
    }

    /// The infrastructure as the scheduler must see it this window:
    /// offline servers get zero capacity, forcing the optimiser to move
    /// their tenants and to place nothing new there. Borrows when every
    /// server is healthy (the common case); clones only when a capacity
    /// mask must be applied.
    pub fn effective_infra(&self) -> Cow<'_, Infrastructure> {
        if self.offline_until.iter().all(|&u| u <= self.window) {
            return Cow::Borrowed(&self.infra);
        }
        let h = self.infra.attr_count();
        let dcs = self
            .infra
            .datacenters()
            .iter()
            .map(|dc| {
                let servers = dc
                    .servers()
                    .map(|j| {
                        let mut s = self.infra.server(j).clone();
                        if self.offline_until[j.index()] > self.window {
                            s.capacity = vec![0.0; h];
                        }
                        s
                    })
                    .collect();
                (dc.name.clone(), servers)
            })
            .collect();
        Cow::Owned(Infrastructure::new(self.infra.attrs().clone(), dcs))
    }

    /// Phase 1 — failures and repairs. Draws at most two RNG values (the
    /// failure coin and the victim index) exactly as the fixed-step loop
    /// always has.
    pub fn inject_failures(&mut self) {
        let window = self.window;
        if self.config.server_failure_prob > 0.0
            && self.rng.gen::<f64>() < self.config.server_failure_prob
        {
            let healthy: Vec<usize> = self
                .offline_until
                .iter()
                .enumerate()
                .filter_map(|(j, &u)| (u <= window).then_some(j))
                .collect();
            if !healthy.is_empty() {
                let j = healthy[self.rng.gen_range(0..healthy.len())];
                self.offline_until[j] = window + u64::from(self.config.repair_windows);
                self.log.push(Event::ServerFailed {
                    window,
                    server: ServerId(j),
                });
                flight::record(
                    FlightKind::ServerFailed,
                    flight::NONE,
                    flight::NONE,
                    j as u64,
                    window,
                );
            }
        }

        for j in 0..self.offline_until.len() {
            if self.offline_until[j] == window && window > 0 {
                self.log.push(Event::ServerRepaired {
                    window,
                    server: ServerId(j),
                });
                flight::record(
                    FlightKind::ServerRepaired,
                    flight::NONE,
                    flight::NONE,
                    j as u64,
                    window,
                );
                self.offline_until[j] = 0;
            }
        }
    }

    /// Marks one server failed without an RNG draw — the continuous-time
    /// driver chooses victims from its own failure process and owns the
    /// repair instant ([`WindowExecutor::force_repair`]); the server stays
    /// down until then. No-op (returning `false`) if already offline.
    pub fn force_failure(&mut self, server: ServerId) -> bool {
        let j = server.index();
        if self.offline_until[j] > self.window {
            return false;
        }
        self.offline_until[j] = u64::MAX;
        self.log.push(Event::ServerFailed {
            window: self.window,
            server,
        });
        flight::record(
            FlightKind::ServerFailed,
            flight::NONE,
            flight::NONE,
            j as u64,
            self.window,
        );
        true
    }

    /// Repairs one server immediately (continuous-time driver owns MTTR).
    /// No-op (returning `false`) if the server is already healthy.
    pub fn force_repair(&mut self, server: ServerId) -> bool {
        let j = server.index();
        if self.offline_until[j] <= self.window {
            return false;
        }
        self.offline_until[j] = 0;
        self.log.push(Event::ServerRepaired {
            window: self.window,
            server,
        });
        flight::record(
            FlightKind::ServerRepaired,
            flight::NONE,
            flight::NONE,
            j as u64,
            self.window,
        );
        true
    }

    /// Phase 2 — decrements every tenant's remaining windows and removes
    /// the expired ones, returning their ids.
    pub fn tick_departures(&mut self) -> Vec<TenantId> {
        let window = self.window;
        let mut departing = Vec::new();
        for t in &mut self.tenants {
            t.remaining_windows = t.remaining_windows.saturating_sub(1);
            if t.remaining_windows == 0 {
                departing.push(t.id);
            }
        }
        for id in &departing {
            self.log.push(Event::TenantDeparted {
                window,
                tenant: *id,
            });
            flight::record(FlightKind::Departed, self.flight_key(*id), id.0, window, 0);
            self.flight_keys.remove(id);
            if let Some(net) = &mut self.network {
                net.release_tenant(*id);
            }
        }
        self.tenants.retain(|t| t.remaining_windows > 0);
        departing
    }

    /// Removes one tenant by id (a continuous-time departure event).
    /// Returns `false` when the tenant is not resident (e.g. it was
    /// rejected at admission).
    pub fn depart_tenant(&mut self, id: TenantId) -> bool {
        let Some(pos) = self.tenants.iter().position(|t| t.id == id) else {
            return false;
        };
        self.log.push(Event::TenantDeparted {
            window: self.window,
            tenant: id,
        });
        flight::record(
            FlightKind::Departed,
            self.flight_key(id),
            id.0,
            self.window,
            0,
        );
        self.flight_keys.remove(&id);
        if let Some(net) = &mut self.network {
            net.release_tenant(id);
        }
        self.tenants.remove(pos);
        true
    }

    /// Phase 3 (fixed-step form) — generates this window's arrival batch
    /// from the configured spec and registers it.
    pub fn generate_window_arrivals(&mut self) -> (RequestBatch, Vec<TenantId>) {
        let arrivals = generate_requests(
            &self.config.arrivals,
            self.config.seed ^ (self.window.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        );
        let ids = self.register_arrivals(&arrivals);
        (arrivals, ids)
    }

    /// Phase 3 (event-driven form) — assigns tenant ids to an externally
    /// collected arrival batch and logs the arrivals. Draws no RNG values,
    /// so id assignment matches the fixed-step loop for identical batches.
    pub fn register_arrivals(&mut self, arrivals: &RequestBatch) -> Vec<TenantId> {
        let window = self.window;
        let ids: Vec<TenantId> = (0..arrivals.request_count())
            .map(|i| TenantId(self.next_tenant + i as u64))
            .collect();
        for (req, &tid) in arrivals.requests().iter().zip(&ids) {
            self.log.push(Event::RequestArrived {
                window,
                tenant: tid,
                vms: req.vms.len(),
            });
        }
        self.next_tenant += arrivals.request_count() as u64;
        ids
    }

    /// Builds the combined window problem: one request per running tenant
    /// (placed, in `previous`) followed by the new arrivals (unplaced).
    /// Returns the problem plus the number of running requests.
    pub fn build_window_problem(&self, arrivals: &RequestBatch) -> (AllocationProblem, usize) {
        let mut batch = RequestBatch::new();
        let mut previous_placements: Vec<Option<ServerId>> = Vec::new();
        for t in &self.tenants {
            let base = previous_placements.len();
            let rules = t
                .rules
                .iter()
                .map(|(kind, locals)| {
                    AffinityRule::new(*kind, locals.iter().map(|&l| VmId(base + l)).collect())
                })
                .collect();
            batch.push_request(t.vms.clone(), rules);
            previous_placements.extend(t.placement.iter().map(|&s| Some(s)));
        }
        let running_requests = self.tenants.len();
        for req in arrivals.requests() {
            let base = previous_placements.len();
            let vms: Vec<VmSpec> = req.vms.iter().map(|&k| arrivals.vm(k).clone()).collect();
            let rules = rebase_rules(req)
                .into_iter()
                .map(|(kind, locals)| {
                    AffinityRule::new(kind, locals.iter().map(|&l| VmId(base + l)).collect())
                })
                .collect();
            batch.push_request(vms, rules);
            previous_placements.extend(std::iter::repeat_n(None, req.vms.len()));
        }
        let previous = Assignment::from_placements(previous_placements);
        (
            AllocationProblem::new(self.effective_infra().into_owned(), batch, Some(previous)),
            running_requests,
        )
    }

    /// Phase 4 — solves the window problem, applies the reconfiguration
    /// plan to running tenants (never evicted), admits or rejects the
    /// registered arrivals, closes the books and advances the window.
    /// Returns the report plus the admitted tenant ids (in arrival order)
    /// so an event-driven caller can schedule their departures.
    pub fn execute(
        &mut self,
        allocator: &dyn Allocator,
        arrivals: &RequestBatch,
        arrival_tenant_ids: &[TenantId],
        lifetime: LifetimePolicy,
    ) -> (WindowReport, Vec<TenantId>) {
        let window = self.window;
        let mut sp = cpo_obs::span!("platform.window", window = window);
        let (problem, running_requests) = self.build_window_problem(arrivals);
        let prof_on = cpo_obs::prof::is_enabled();
        let solve_start_us = if prof_on { cpo_obs::now_us() } else { 0 };
        let solve_start = Instant::now();
        let outcome = allocator.allocate(&problem);
        let solve_time = solve_start.elapsed();
        if prof_on {
            cpo_obs::prof::solve_phase(
                window,
                0,
                solve_start_us,
                cpo_obs::now_us(),
                &[solve_time.as_micros() as u64],
            );
        }
        let accepted = problem.accepted_mask(&outcome.assignment);

        // --- Apply to running tenants (never evicted: a tenant whose
        //     request the allocator failed keeps its old placement). ---
        let mut migrations = 0usize;
        let mut migration_cost = 0.0;
        let mut denied_flows = 0usize;
        let mut vm_base = 0usize;
        let mut moved_tenants: Vec<usize> = Vec::new();
        for (idx, t) in self.tenants.iter_mut().enumerate() {
            let n = t.vms.len();
            if accepted[idx] {
                let mut moved = false;
                for local in 0..n {
                    let k = VmId(vm_base + local);
                    let new_server = outcome.assignment.server_of(k).expect("accepted ⇒ placed");
                    let old_server = t.placement[local];
                    if new_server != old_server {
                        migrations += 1;
                        migration_cost += t.vms[local].migration_cost;
                        self.log.push(Event::VmMigrated {
                            window,
                            tenant: t.id,
                            vm: local,
                            from: old_server,
                            to: new_server,
                        });
                        flight::record(
                            FlightKind::Migrated,
                            self.flight_keys.get(&t.id).copied().unwrap_or(flight::NONE),
                            t.id.0,
                            old_server.0 as u64,
                            new_server.0 as u64,
                        );
                        t.placement[local] = new_server;
                        moved = true;
                    }
                }
                if moved {
                    moved_tenants.push(idx);
                }
            }
            vm_base += n;
        }
        if let Some(net) = &mut self.network {
            for &idx in &moved_tenants {
                denied_flows += net.readmit_tenant(&self.tenants[idx]).denied;
            }
        }

        // --- Admit / reject arrivals. ---
        let mut admitted = 0usize;
        let mut rejected = 0usize;
        let mut admitted_ids = Vec::new();
        for (i, req) in arrivals.requests().iter().enumerate() {
            let req_id = RequestId(running_requests + i);
            let tid = arrival_tenant_ids[i];
            if accepted[req_id.index()] {
                // Global VM ids of this request within the window problem.
                let first = problem
                    .batch()
                    .request(req_id)
                    .vms
                    .first()
                    .copied()
                    .expect("non-empty request");
                let placement: Vec<ServerId> = (0..req.vms.len())
                    .map(|l| {
                        outcome
                            .assignment
                            .server_of(VmId(first.index() + l))
                            .expect("accepted ⇒ placed")
                    })
                    .collect();
                denied_flows +=
                    self.apply_admission(tid, arrivals, req, placement, lifetime, window);
                admitted += 1;
                admitted_ids.push(tid);
            } else {
                self.apply_rejection(tid, window);
                rejected += 1;
            }
        }

        let report = self.finish_window(WindowTotals {
            arrivals: arrivals.request_count(),
            admitted,
            rejected,
            migrations,
            migration_cost,
            denied_flows,
            solve_time,
        });
        sp.field("admitted", admitted)
            .field("rejected", rejected)
            .field("migrations", migrations);
        (report, admitted_ids)
    }

    /// Admits one accepted arrival: tenant pushed with its placement,
    /// network flows admitted, `tenant_admitted` log entry, `admitted` +
    /// per-VM `placed` flight events (in that order — `admitted` binds
    /// key↔tenant in the timeline). Returns the number of denied network
    /// flows. Shared by the native solve path and the sharded
    /// store-commit path.
    pub(crate) fn apply_admission(
        &mut self,
        tid: TenantId,
        arrivals: &RequestBatch,
        req: &Request,
        placement: Vec<ServerId>,
        lifetime: LifetimePolicy,
        window: u64,
    ) -> usize {
        let mut denied_flows = 0usize;
        let remaining_windows = match lifetime {
            LifetimePolicy::DrawnWindows => self
                .rng
                .gen_range(self.config.lifetime.0..=self.config.lifetime.1)
                .max(1),
            LifetimePolicy::External => u32::MAX,
        };
        self.tenants.push(Tenant {
            id: tid,
            vms: req.vms.iter().map(|&k| arrivals.vm(k).clone()).collect(),
            rules: rebase_rules(req),
            placement,
            remaining_windows,
        });
        if let Some(net) = &mut self.network {
            denied_flows += net
                .admit_tenant(self.tenants.last().expect("just pushed"))
                .denied;
        }
        self.log.push(Event::TenantAdmitted {
            window,
            tenant: tid,
        });
        if flight::is_enabled() {
            let key = self.flight_key(tid);
            flight::record(
                FlightKind::Admitted,
                key,
                tid.0,
                window,
                req.vms.len() as u64,
            );
            let placed = self.tenants.last().expect("just pushed");
            for (local, &server) in placed.placement.iter().enumerate() {
                flight::record(
                    FlightKind::Placed,
                    key,
                    tid.0,
                    server.0 as u64,
                    local as u64,
                );
            }
        }
        denied_flows
    }

    /// Rejects one arrival: `request_rejected` log entry, `rejected`
    /// flight event, correlation key dropped.
    pub(crate) fn apply_rejection(&mut self, tid: TenantId, window: u64) {
        self.log.push(Event::RequestRejected {
            window,
            tenant: tid,
        });
        flight::record(FlightKind::Rejected, self.flight_key(tid), tid.0, window, 0);
        self.flight_keys.remove(&tid);
    }

    /// Residual-headroom view of the live platform for admission-only
    /// sharded scheduling: effective capacity (offline servers zeroed)
    /// minus every resident VM's demand, as a fresh infrastructure with
    /// unit factors. Resident placements are pinned — the sharded path
    /// never migrates — so this is exactly the capacity a new arrival
    /// may consume.
    pub(crate) fn admission_residual(&self) -> Infrastructure {
        let mut residual = crate::store::residual_view(&self.effective_infra());
        for t in &self.tenants {
            for (vm, &server) in t.vms.iter().zip(&t.placement) {
                let neg: Vec<f64> = vm.demand.iter().map(|d| -d).collect();
                residual.adjust_capacity(server, &neg);
            }
        }
        residual
    }

    /// Post-admission window close shared by the native and sharded
    /// paths: SLA observation, online invariant monitors, provider and
    /// downtime cost on the real platform state, report, log +
    /// `window_closed` flight event, fleet probe, gauges; advances the
    /// window counter.
    pub(crate) fn finish_window(&mut self, totals: WindowTotals) -> WindowReport {
        let window = self.window;
        let WindowTotals {
            arrivals,
            admitted,
            rejected,
            migrations,
            migration_cost,
            denied_flows,
            solve_time,
        } = totals;
        // --- Post-window accounting on the real platform state. ---
        let (state_batch, state_assignment) = self.snapshot();
        let tracker = LoadTracker::from_assignment(&state_assignment, &state_batch, &self.infra);
        if state_batch.vm_count() > 0 {
            let breaches =
                self.sla
                    .observe_window(&self.tenants, &state_batch, &tracker, &self.infra);
            if !breaches.is_empty() {
                cpo_obs::counter_add("monitor.sla_breaches", breaches.len() as u64);
                for (tid, credit) in &breaches {
                    // Credit in integer micro-units: exact round trip
                    // through the u64 event payload.
                    flight::record(
                        FlightKind::SlaViolated,
                        self.flight_key(*tid),
                        tid.0,
                        window,
                        (credit * 1e6).round() as u64,
                    );
                }
            }
            // Online invariant monitors (Eqs. 4/16 capacity, 5/17
            // placement, 9–14 affinity) over the *live* platform state.
            // Running tenants are never evicted and were feasible at
            // admission, so any violation here is a platform bug or a
            // failure-induced capacity loss worth flagging.
            if flight::is_enabled() {
                let report =
                    cpo_model::constraints::check(&state_assignment, &state_batch, &self.infra);
                for v in report.violations() {
                    cpo_core::monitor::record_violation("platform", v);
                }
            }
        }
        let provider_cost = cost::usage_opex_cost(&tracker, &self.infra);
        let downtime_cost =
            cost::downtime_cost(&state_assignment, &tracker, &state_batch, &self.infra);
        let offline = self.offline_servers();
        let stranded_vms = self
            .tenants
            .iter()
            .flat_map(|t| t.placement.iter())
            .filter(|j| offline.contains(j))
            .count();
        let report = WindowReport {
            window,
            arrivals,
            admitted,
            rejected,
            migrations,
            migration_cost,
            provider_cost,
            downtime_cost,
            running_tenants: self.tenants.len(),
            running_vms: self.tenants.iter().map(Tenant::size).sum(),
            active_servers: tracker.active_servers(),
            offline_servers: offline.len(),
            stranded_vms,
            fabric_peak_utilization: self
                .network
                .as_ref()
                .map_or(0.0, NetworkModel::peak_utilization),
            denied_flows,
            solve_time,
        };
        self.log.push(Event::WindowClosed {
            window,
            running_tenants: self.tenants.len(),
            active_servers: tracker.active_servers(),
        });
        flight::record(
            FlightKind::WindowClosed,
            flight::NONE,
            flight::NONE,
            window,
            self.tenants.len() as u64,
        );
        crate::probe::emit(
            &self.infra,
            (0..self.offline_until.len()).filter(|&j| self.offline_until[j] <= window),
            |j| tracker.used_row(ServerId(j)),
            crate::probe::ProbeStats {
                window,
                arrivals: report.arrivals,
                admitted,
                active_vms: report.running_vms,
                active_servers: report.active_servers,
                solve_latency_us: solve_time.as_micros() as u64,
            },
        );
        cpo_obs::record_value("platform.solve_ns", solve_time.as_nanos() as u64);
        cpo_obs::gauge_set("platform.running_tenants", self.tenants.len() as f64);
        cpo_obs::gauge_set("platform.active_servers", tracker.active_servers() as f64);
        self.window += 1;
        report
    }

    /// Snapshot of the running platform as (batch, assignment) — the state
    /// the accounting evaluates.
    pub fn snapshot(&self) -> (RequestBatch, Assignment) {
        let mut batch = RequestBatch::new();
        let mut placements = Vec::new();
        for t in &self.tenants {
            let base = placements.len();
            let rules = t
                .rules
                .iter()
                .map(|(kind, locals)| {
                    AffinityRule::new(*kind, locals.iter().map(|&l| VmId(base + l)).collect())
                })
                .collect();
            batch.push_request(t.vms.clone(), rules);
            placements.extend(t.placement.iter().map(|&s| Some(s)));
        }
        (batch, Assignment::from_placements(placements))
    }

    /// Consistency check: the running platform state never violates
    /// capacity or the tenants' own rules. Returns the violation report.
    pub fn verify_state(&self) -> cpo_model::constraints::ViolationReport {
        let (batch, assignment) = self.snapshot();
        cpo_model::constraints::check(&assignment, &batch, &self.infra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpo_core::prelude::RoundRobinAllocator;
    use cpo_model::attr::AttrSet;

    fn executor(servers: usize, vms_per_window: usize) -> WindowExecutor {
        let infra = Infrastructure::new(
            AttrSet::standard(),
            vec![("dc".into(), ServerProfile::commodity(3).build_many(servers))],
        );
        let config = SimConfig {
            arrivals: RequestSpec {
                total_vms: vms_per_window,
                ..Default::default()
            },
            lifetime: (2, 4),
            seed: 11,
            ..Default::default()
        };
        WindowExecutor::new(infra, config)
    }

    #[test]
    fn effective_infra_borrows_when_all_healthy() {
        let exec = executor(4, 4);
        assert!(matches!(exec.effective_infra(), Cow::Borrowed(_)));
    }

    #[test]
    fn effective_infra_masks_offline_capacity() {
        let mut exec = executor(4, 4);
        assert!(exec.force_failure(ServerId(2)));
        let eff = exec.effective_infra();
        assert!(matches!(eff, Cow::Owned(_)));
        assert!(eff.server(ServerId(2)).capacity.iter().all(|&c| c == 0.0));
        assert!(eff.server(ServerId(0)).capacity.iter().any(|&c| c > 0.0));
        assert!(exec.force_repair(ServerId(2)));
        assert!(matches!(exec.effective_infra(), Cow::Borrowed(_)));
    }

    #[test]
    fn force_failure_and_repair_are_idempotent() {
        let mut exec = executor(3, 2);
        assert!(exec.force_failure(ServerId(1)));
        assert!(!exec.force_failure(ServerId(1)), "already offline");
        assert_eq!(exec.offline_servers(), vec![ServerId(1)]);
        assert!(exec.force_repair(ServerId(1)));
        assert!(!exec.force_repair(ServerId(1)), "already healthy");
        assert!(exec.offline_servers().is_empty());
    }

    #[test]
    fn external_lifetime_tenants_outlive_window_ticks() {
        let mut exec = executor(8, 5);
        let (arrivals, ids) = exec.generate_window_arrivals();
        let (report, admitted) = exec.execute(
            &RoundRobinAllocator,
            &arrivals,
            &ids,
            LifetimePolicy::External,
        );
        assert!(report.admitted > 0);
        assert_eq!(admitted.len(), report.admitted);
        // Window ticks must never expire externally-managed tenants.
        for _ in 0..50 {
            exec.tick_departures();
        }
        assert_eq!(exec.tenants().len(), report.admitted);
        // The driver departs them explicitly.
        for id in &admitted {
            assert!(exec.depart_tenant(*id));
            assert!(!exec.depart_tenant(*id), "already departed");
        }
        assert!(exec.tenants().is_empty());
    }

    #[test]
    fn register_arrivals_assigns_sequential_ids() {
        let mut exec = executor(8, 4);
        let (a1, ids1) = exec.generate_window_arrivals();
        assert_eq!(ids1.len(), a1.request_count());
        let ids2 = exec.register_arrivals(&a1);
        assert_eq!(ids2[0].0, ids1.last().unwrap().0 + 1);
    }
}
