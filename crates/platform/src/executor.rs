//! The cyclic time-window scheduler: "our idea is to directly include all
//! requests within a cyclic time window during the execution of the
//! allocation optimization process" (paper, Section III), with the
//! reconfiguration plan (Eq. 26) connecting consecutive windows.
//!
//! [`WindowExecutor`] owns the live platform state (infrastructure,
//! running tenants, event log, RNG, offline servers, optional network and
//! SLA ledger) and exposes the window loop as separate phases that two
//! drivers sequence:
//!
//! * [`WindowExecutor::step`] is the classic fixed-step loop — failures →
//!   departures → generated arrivals → solve/apply — once per window, and
//!   [`WindowExecutor::run`] repeats it;
//! * the continuous-time `WindowedScheduler` (the `cpo-des` crate)
//!   injects arrivals, departures and failures from an event queue and
//!   calls [`WindowBackend::execute_window`] at window boundaries.
//!
//! Phase methods draw from the executor RNG in a fixed order, so a
//! fixed-step run is bit-reproducible for a seed; `tests/fixed_step_pin.rs`
//! pins its per-window outcomes and event log.

use crate::accounting::{SimReport, WindowReport};
use crate::backend::{timed_solve, WindowBackend};
use crate::lifecycle::{EventLog, Lifecycle};
use crate::network::NetworkModel;
use crate::sla::SlaLedger;
use crate::tenant::{rebase_rules, Tenant, TenantId};
use cpo_core::prelude::Allocator;
use cpo_model::cost;
use cpo_model::prelude::*;
use cpo_obs::flight;
use cpo_scenario::request_gen::{generate_requests, RequestSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::time::Duration;

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
    window: u64,
    pub(crate) lifecycle: Lifecycle,
    pub(crate) log: EventLog,
    rng: SmallRng,
    /// `offline_until[j]` — window index at which server `j` returns, or 0.
    offline_until: Vec<u64>,
    /// Optional east-west network model (spine-leaf pods).
    network: Option<NetworkModel>,
    /// Per-tenant SLA ledger (Eq. 23 accumulated over windows).
    sla: SlaLedger,
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
            window: 0,
            lifecycle: Lifecycle::default(),
            log: EventLog::new(),
            rng,
            offline_until: vec![0; m],
            network: None,
            sla: SlaLedger::new(),
        }
    }

    /// Attaches a network model: one spine-leaf pod per datacenter plus a
    /// per-VM-pair bandwidth. Tenant flows are admitted on placement,
    /// re-routed on migration and released on departure.
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
    /// server is healthy (the common case); otherwise a cheap clone
    /// (shared static table, copied capacity matrices) with the offline
    /// rows zeroed.
    pub fn effective_infra(&self) -> Cow<'_, Infrastructure> {
        if self.offline_until.iter().all(|&u| u <= self.window) {
            return Cow::Borrowed(&self.infra);
        }
        let zeros = vec![0.0; self.infra.attr_count()];
        let mut masked = self.infra.clone();
        for (j, &until) in self.offline_until.iter().enumerate() {
            if until > self.window {
                masked.set_capacity(ServerId(j), &zeros);
            }
        }
        Cow::Owned(masked)
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
                self.log
                    .push(self.lifecycle.server_failed(window, ServerId(j)));
            }
        }

        for j in 0..self.offline_until.len() {
            if self.offline_until[j] == window && window > 0 {
                self.log
                    .push(self.lifecycle.server_repaired(window, ServerId(j)));
                self.offline_until[j] = 0;
            }
        }
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
        for &id in &departing {
            self.log.push(self.lifecycle.departed(window, id));
            if let Some(net) = &mut self.network {
                net.release_tenant(id);
            }
        }
        self.tenants.retain(|t| t.remaining_windows > 0);
        departing
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

    /// Builds the combined window problem: one request per running tenant
    /// (placed, in `previous`) followed by the new arrivals (unplaced).
    /// Returns the problem plus the number of running requests.
    pub fn build_window_problem(&self, arrivals: &RequestBatch) -> (AllocationProblem, usize) {
        let (mut batch, mut previous) = self.resident_batch();
        batch.append(arrivals.clone());
        previous.extend(std::iter::repeat_n(None, arrivals.vm_count()));
        let previous = Assignment::from_placements(previous);
        (
            AllocationProblem::new(self.effective_infra().into_owned(), batch, Some(previous)),
            self.tenants.len(),
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
        let (outcome, solve_time) = timed_solve(allocator, &problem, window);
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
                        self.log.push(
                            self.lifecycle
                                .migrated(window, t.id, local, old_server, new_server),
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
                // The request's VMs under their window-problem ids.
                let vms = &problem.batch().request(req_id).vms;
                let placement: Vec<ServerId> = vms
                    .iter()
                    .map(|&k| outcome.assignment.server_of(k).expect("accepted ⇒ placed"))
                    .collect();
                denied_flows +=
                    self.apply_admission(tid, arrivals, req, placement, lifetime, window);
                admitted += 1;
                admitted_ids.push(tid);
            } else {
                self.log.push(self.lifecycle.rejected(window, tid));
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

    /// Runs one fixed-step scheduling window with the given allocator:
    /// failures → repairs → departures → generated arrivals →
    /// solve/apply/admit.
    pub fn step(&mut self, allocator: &dyn Allocator) -> WindowReport {
        self.inject_failures();
        self.tick_departures();
        let (arrivals, ids) = self.generate_window_arrivals();
        self.execute(allocator, &arrivals, &ids, LifetimePolicy::DrawnWindows)
            .0
    }

    /// Runs `windows` fixed steps, returning the aggregate report.
    pub fn run(&mut self, allocator: &dyn Allocator, windows: u64) -> SimReport {
        let mut report = SimReport::default();
        for _ in 0..windows {
            report.windows.push(self.step(allocator));
        }
        report
    }

    /// Admits one accepted arrival: tenant pushed with its placement,
    /// network flows admitted, admission recorded and logged. Returns the
    /// number of denied network flows. Shared by the native solve path
    /// and the sharded store-commit path.
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
        let placed = self.tenants.last().expect("just pushed");
        let servers = placed.placement.iter().map(|s| s.index());
        self.log.push(self.lifecycle.admitted(window, tid, servers));
        denied_flows
    }

    /// Residual-headroom view of the live platform for admission-only
    /// sharded scheduling: effective capacity (offline servers zeroed)
    /// minus every resident VM's demand, as a fresh infrastructure with
    /// unit factors. Resident placements are pinned — the sharded path
    /// never migrates — so this is exactly the capacity a new arrival
    /// may consume.
    pub(crate) fn admission_residual(&self) -> Infrastructure {
        let mut residual = self.effective_infra().residual_view();
        let mut neg = Vec::with_capacity(residual.attr_count());
        for t in &self.tenants {
            for (vm, &server) in t.vms.iter().zip(&t.placement) {
                neg.clear();
                neg.extend(vm.demand.iter().map(|d| -d));
                residual.adjust_capacity(server, &neg);
            }
        }
        residual
    }

    /// Post-admission window close shared by the native and sharded
    /// paths: SLA observation, online invariant monitors, provider and
    /// downtime cost on the real platform state, report, window-close
    /// record and log entry, fleet probe; advances the window counter.
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
                for &(tid, credit) in &breaches {
                    self.lifecycle.sla_violated(window, tid, credit);
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
        self.log.push(self.lifecycle.window_closed(&report));
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
        self.window += 1;
        report
    }

    /// Snapshot of the running platform as (batch, assignment) — the state
    /// the accounting evaluates.
    pub fn snapshot(&self) -> (RequestBatch, Assignment) {
        let (batch, placements) = self.resident_batch();
        (batch, Assignment::from_placements(placements))
    }

    /// The running tenants as one batch, rules rebased onto batch-global
    /// VM ids, plus each VM's current server.
    fn resident_batch(&self) -> (RequestBatch, Vec<Option<ServerId>>) {
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
        (batch, placements)
    }

    /// Consistency check: the running platform state never violates
    /// capacity or the tenants' own rules. Returns the violation report.
    pub fn verify_state(&self) -> cpo_model::constraints::ViolationReport {
        let (batch, assignment) = self.snapshot();
        cpo_model::constraints::check(&assignment, &batch, &self.infra)
    }
}

impl WindowBackend for WindowExecutor {
    /// Phase 3 (event-driven form) — assigns tenant ids to an externally
    /// collected arrival batch and logs the arrivals. Draws no RNG values,
    /// so id assignment matches the fixed-step loop for identical batches.
    fn register_arrivals(&mut self, arrivals: &RequestBatch) -> Vec<TenantId> {
        let window = self.window;
        arrivals
            .requests()
            .iter()
            .map(|req| {
                let (tid, event) = self.lifecycle.arrived(window, req.vms.len());
                self.log.push(event);
                tid
            })
            .collect()
    }

    fn bind_request_keys(&mut self, ids: &[TenantId], keys: &[u64]) {
        self.lifecycle.bind_keys(ids, keys);
    }

    fn execute_window(
        &mut self,
        allocator: &dyn Allocator,
        arrivals: &RequestBatch,
        ids: &[TenantId],
    ) -> (WindowReport, Vec<TenantId>) {
        self.execute(allocator, arrivals, ids, LifetimePolicy::External)
    }

    /// Removes one tenant by id (a continuous-time departure event).
    fn depart_tenant(&mut self, id: TenantId) -> bool {
        let Some(pos) = self.tenants.iter().position(|t| t.id == id) else {
            return false;
        };
        self.log.push(self.lifecycle.departed(self.window, id));
        if let Some(net) = &mut self.network {
            net.release_tenant(id);
        }
        self.tenants.remove(pos);
        true
    }

    /// Marks one server failed without an RNG draw — the continuous-time
    /// driver chooses victims from its own failure process and owns the
    /// repair instant; the server stays down until
    /// [`WindowBackend::force_repair`].
    fn force_failure(&mut self, server: ServerId) -> bool {
        let j = server.index();
        if self.offline_until[j] > self.window {
            return false;
        }
        self.offline_until[j] = u64::MAX;
        self.log
            .push(self.lifecycle.server_failed(self.window, server));
        true
    }

    /// Repairs one server immediately (the continuous-time driver owns
    /// MTTR).
    fn force_repair(&mut self, server: ServerId) -> bool {
        let j = server.index();
        if self.offline_until[j] <= self.window {
            return false;
        }
        self.offline_until[j] = 0;
        self.log
            .push(self.lifecycle.server_repaired(self.window, server));
        true
    }

    fn server_count(&self) -> usize {
        self.infra.server_count()
    }

    fn resident_requests(&self) -> usize {
        self.tenants.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::Event;
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
        assert!(eff.capacity_row(ServerId(2)).iter().all(|&c| c == 0.0));
        assert!(eff.capacity_row(ServerId(0)).iter().any(|&c| c > 0.0));
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

    #[test]
    fn single_window_admits_and_accounts() {
        let mut exec = executor(8, 6);
        let report = exec.step(&RoundRobinAllocator);
        assert_eq!(report.window, 0);
        assert!(report.arrivals >= 2);
        assert_eq!(report.admitted + report.rejected, report.arrivals);
        assert!(report.running_tenants == report.admitted);
        assert!(report.provider_cost > 0.0 || report.admitted == 0);
        assert!(
            exec.verify_state().is_feasible(),
            "{:?}",
            exec.verify_state()
        );
    }

    #[test]
    fn tenants_depart_after_lifetime() {
        let mut exec = executor(8, 4);
        let mut max_running = 0usize;
        for _ in 0..12 {
            let r = exec.step(&RoundRobinAllocator);
            max_running = max_running.max(r.running_tenants);
        }
        // Lifetimes are 2–4 windows: the population must plateau, not grow
        // linearly with 12 windows of arrivals.
        let departures = exec
            .log()
            .events()
            .iter()
            .filter(|e| matches!(e, Event::TenantDeparted { .. }))
            .count();
        assert!(departures > 0, "tenants must depart");
        assert!(
            max_running < 40,
            "population must plateau, got {max_running}"
        );
    }

    #[test]
    fn state_stays_feasible_over_many_windows() {
        let mut exec = executor(6, 8);
        for _ in 0..10 {
            exec.step(&RoundRobinAllocator);
            let report = exec.verify_state();
            assert!(report.is_feasible(), "window {}: {report:?}", exec.window());
        }
    }

    #[test]
    fn run_aggregates_windows() {
        let mut exec = executor(8, 5);
        let report = exec.run(&RoundRobinAllocator, 5);
        assert_eq!(report.windows.len(), 5);
        assert_eq!(
            report.total_arrivals(),
            report.windows.iter().map(|w| w.arrivals).sum::<usize>()
        );
        assert!(report.rejection_rate() <= 1.0);
    }

    #[test]
    fn saturated_platform_rejects() {
        // Tiny platform, heavy arrivals: rejections must appear.
        let mut exec = executor(1, 30);
        let report = exec.run(&RoundRobinAllocator, 3);
        assert!(report.total_rejected() > 0);
        assert!(exec.verify_state().is_feasible());
    }

    #[test]
    fn event_log_is_consistent_with_reports() {
        let mut exec = executor(6, 6);
        let report = exec.run(&RoundRobinAllocator, 4);
        assert_eq!(exec.log().rejection_count(), report.total_rejected());
        assert_eq!(exec.log().migration_count(), report.total_migrations());
    }

    #[test]
    fn server_failures_strand_or_migrate_vms() {
        let infra = Infrastructure::new(
            AttrSet::standard(),
            vec![("dc".into(), ServerProfile::commodity(3).build_many(4))],
        );
        let config = SimConfig {
            arrivals: RequestSpec {
                total_vms: 6,
                ..Default::default()
            },
            lifetime: (5, 8),
            seed: 3,
            server_failure_prob: 1.0, // one failure per window, guaranteed
            repair_windows: 2,
        };
        let mut exec = WindowExecutor::new(infra, config);
        let mut saw_offline = false;
        for _ in 0..6 {
            let r = exec.step(&cpo_core::prelude::CpAllocator::default());
            saw_offline |= r.offline_servers > 0;
            // Stranded VMs are possible but must never exceed running VMs.
            assert!(r.stranded_vms <= r.running_vms);
        }
        assert!(
            exec.log().failure_count() > 0,
            "forced failures must be logged"
        );
        assert!(saw_offline, "offline servers must appear in reports");
        // Repairs must also be logged once the repair window elapses.
        let repaired = exec
            .log()
            .events()
            .iter()
            .any(|e| matches!(e, Event::ServerRepaired { .. }));
        assert!(repaired, "servers must come back after repair_windows");
    }

    #[test]
    fn failed_server_receives_no_new_vms() {
        let infra = Infrastructure::new(
            AttrSet::standard(),
            vec![("dc".into(), ServerProfile::commodity(3).build_many(3))],
        );
        let config = SimConfig {
            arrivals: RequestSpec {
                total_vms: 6,
                ..Default::default()
            },
            lifetime: (8, 8),
            seed: 1,
            server_failure_prob: 1.0,
            repair_windows: 10, // stays down for the whole test
        };
        let mut exec = WindowExecutor::new(infra, config);
        for step in 0..4u64 {
            let before_count = exec.tenants().len();
            exec.step(&cpo_core::prelude::CpAllocator::default());
            let offline = exec.offline_servers();
            // Tenants admitted *this* window must avoid the servers that
            // were offline during the window.
            for t in exec.tenants().iter().skip(before_count) {
                for j in &t.placement {
                    assert!(
                        !offline.contains(j),
                        "window {step}: new tenant {:?} placed on offline {j:?}",
                        t.id
                    );
                }
            }
        }
        assert!(exec.log().failure_count() >= 1);
    }

    #[test]
    fn sla_ledger_tracks_tenants_over_windows() {
        let mut exec = executor(8, 6);
        exec.run(&RoundRobinAllocator, 4);
        let ledger = exec.sla();
        // Every still-running tenant has been observed at least once.
        for t in exec.tenants() {
            let r = ledger.record(t.id).expect("running tenant observed");
            assert!(r.observed_windows >= 1);
            assert!(r.worst_qos_seen <= 1.0);
        }
        assert!(ledger.total_credit() >= 0.0);
    }

    #[test]
    fn networked_sim_accounts_fabric_utilisation() {
        use cpo_topology::{build_spine_leaf, SpineLeafSpec};
        let profile = ServerProfile::commodity(3);
        let infra = Infrastructure::new(
            AttrSet::standard(),
            vec![("dc".into(), profile.build_many(6))],
        );
        let pods = vec![build_spine_leaf(&SpineLeafSpec::for_server_count(6))];
        let net = NetworkModel::new(&infra, pods, 500.0);
        let config = SimConfig {
            arrivals: RequestSpec {
                total_vms: 9,
                request_size: (2, 3), // multi-VM tenants create traffic
                ..Default::default()
            },
            lifetime: (3, 5),
            seed: 21,
            ..Default::default()
        };
        let mut exec = WindowExecutor::new(infra, config);
        exec.set_network(net);
        let mut saw_traffic = false;
        for _ in 0..6 {
            let r = exec.step(&cpo_core::prelude::RoundRobinAllocator);
            saw_traffic |= r.fabric_peak_utilization > 0.0;
            assert!(r.fabric_peak_utilization <= 1.0);
        }
        assert!(
            saw_traffic,
            "multi-VM tenants spread by round-robin must use the fabric"
        );
        // Flows must not leak: utilisation is bounded by live tenants.
        let live_pairs: usize = exec
            .tenants()
            .iter()
            .map(|t| t.size() * t.size().saturating_sub(1) / 2)
            .sum();
        if live_pairs == 0 {
            assert_eq!(exec.network().unwrap().peak_utilization(), 0.0);
        }
    }

    #[test]
    fn windows_are_deterministic_per_seed() {
        let mut a = executor(6, 6);
        let mut b = executor(6, 6);
        let ra = a.run(&RoundRobinAllocator, 4);
        let rb = b.run(&RoundRobinAllocator, 4);
        for (x, y) in ra.windows.iter().zip(&rb.windows) {
            assert_eq!(x.admitted, y.admitted);
            assert_eq!(x.migrations, y.migrations);
        }
    }
}
