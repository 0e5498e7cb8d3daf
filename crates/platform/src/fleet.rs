//! Memory-lean fleet executor for production-scale trace replay.
//!
//! [`crate::executor::WindowExecutor`] re-materialises the *entire*
//! resident platform into each window's problem (every running tenant
//! becomes a movable request) and keeps a boxed `VmSpec` per VM plus an
//! append-only event log. That is the right engine for paper-scale
//! reconfiguration studies; at trace scale — tens of thousands of
//! servers, hundreds of thousands of resident VMs, millions of arrivals
//! — both the per-window problem and the per-VM footprint are ruinous.
//!
//! [`FleetExecutor`] is the streaming counterpart:
//!
//! * **admission-only** — each window's problem contains just the new
//!   arrivals, packed against a *residual* infrastructure whose capacity
//!   rows are the live headroom (effective capacity minus resident
//!   load). Resident VMs are never re-placed, so `migrations`,
//!   `migration_cost` and `downtime_cost` are structurally zero in its
//!   reports;
//! * **packed state** — resident VMs live in a
//!   [`cpo_model::fleet::VmTable`] (flat slot-recycled rows, intrusive
//!   per-tenant chains) and per-server loads in a
//!   [`cpo_model::fleet::ServerLoadTable`], maintained incrementally in
//!   O(h) per admit/depart;
//! * **no event log** — its `Lifecycle` records the same flight
//!   events in the same order as `WindowExecutor`'s (`admitted`, binding
//!   key↔tenant, precedes the per-VM `placed` events) and the typed
//!   events it returns are dropped.
//!
//! Provider cost is maintained incrementally: a server's opex enters the
//! sum when it transitions idle→active and leaves at active→idle; each
//! hosted VM contributes the server's usage cost.

use crate::accounting::WindowReport;
use crate::backend::{timed_solve, WindowBackend};
use crate::lifecycle::Lifecycle;
use crate::store::PlacementStore;
use crate::tenant::TenantId;
use cpo_core::prelude::Allocator;
use cpo_model::fleet::{ServerLoadTable, VmTable, NO_SLOT};
use cpo_model::prelude::*;
use cpo_obs::flight;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Streaming admission-only window executor over packed fleet tables.
pub struct FleetExecutor {
    infra: Infrastructure,
    /// Live headroom behind the optimistic-commit store: effective
    /// capacity minus resident load (zeroed for offline servers). Shared
    /// with scheduler shards via [`Arc`]; the native path goes through
    /// [`PlacementStore::reserve`]/[`PlacementStore::release`].
    store: Arc<PlacementStore>,
    vms: VmTable,
    loads: ServerLoadTable,
    /// Tenant → head slot of its VM chain.
    heads: HashMap<u64, u32>,
    pub(crate) lifecycle: Lifecycle,
    window: u64,
    offline: Vec<bool>,
    /// Incremental Σ_active (opex + usage_cost × hosted).
    provider_cost: f64,
}

impl FleetExecutor {
    /// An idle fleet over `infra`.
    pub fn new(infra: Infrastructure) -> Self {
        let m = infra.server_count();
        let h = infra.attr_count();
        let store = Arc::new(PlacementStore::new(&infra));
        Self {
            infra,
            store,
            vms: VmTable::new(h),
            loads: ServerLoadTable::new(m, h),
            heads: HashMap::new(),
            lifecycle: Lifecycle::default(),
            window: 0,
            offline: vec![false; m],
            provider_cost: 0.0,
        }
    }

    /// The real substrate.
    pub fn infra(&self) -> &Infrastructure {
        &self.infra
    }

    /// The shared placement store holding the live residual headroom the
    /// allocator packs against.
    pub fn store(&self) -> &Arc<PlacementStore> {
        &self.store
    }

    /// Current residual-headroom row of server `j` (convenience over
    /// [`Self::store`]).
    pub fn residual_row(&self, j: ServerId) -> Vec<f64> {
        self.store.residual_row(j)
    }

    /// Resident VMs.
    pub fn live_vms(&self) -> usize {
        self.vms.live()
    }

    /// Completed windows.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Admits one accepted request into the packed tables, after its
    /// `admitted` and per-VM `placed` lifecycle events. When `reserve` is
    /// set the residual store is charged per VM (the native path); the
    /// sharded path passes `false` because its optimistic commit has
    /// already reserved the capacity. `server_of` maps a VM's index
    /// within the request and its batch id to the hosting server.
    pub(crate) fn admit_request(
        &mut self,
        tid: TenantId,
        window: u64,
        arrivals: &RequestBatch,
        req: &Request,
        server_of: impl Fn(usize, VmId) -> u32,
        reserve: bool,
    ) {
        let servers = req.vms.iter().enumerate();
        self.lifecycle
            .admitted(window, tid, servers.map(|(l, &k)| server_of(l, k) as usize));
        let mut head = NO_SLOT;
        for (local, &k) in req.vms.iter().enumerate() {
            let j = server_of(local, k);
            let vm = arrivals.vm(k);
            head = self.vms.insert(tid.0, j, &vm.demand, vm.revenue, head);
            self.admit_load(j, &vm.demand, reserve);
        }
        self.heads.insert(tid.0, head);
    }

    /// Post-admission window close shared by the native and sharded
    /// paths: capacity monitor, report, window-close lifecycle record,
    /// fleet probe; advances the window counter.
    pub(crate) fn finish_window(
        &mut self,
        arrivals: usize,
        admitted: usize,
        rejected: usize,
        solve_time: Duration,
    ) -> WindowReport {
        let window = self.window;
        // Online capacity monitor over the packed state (cheap: O(m·h)).
        if flight::is_enabled() {
            for v in self.capacity_violations() {
                cpo_core::monitor::record_violation("fleet", &v);
            }
        }

        let stranded_vms: usize = self
            .offline
            .iter()
            .enumerate()
            .filter(|&(_, &down)| down)
            .map(|(j, _)| self.loads.hosted(j as u32) as usize)
            .sum();
        let report = WindowReport {
            window,
            arrivals,
            admitted,
            rejected,
            migrations: 0,
            migration_cost: 0.0,
            provider_cost: self.provider_cost,
            downtime_cost: 0.0,
            running_tenants: self.heads.len(),
            running_vms: self.vms.live(),
            active_servers: self.loads.active_servers(),
            offline_servers: self.offline.iter().filter(|&&d| d).count(),
            stranded_vms,
            fabric_peak_utilization: 0.0,
            denied_flows: 0,
            solve_time,
        };
        self.lifecycle.window_closed(&report);
        crate::probe::emit(
            &self.infra,
            (0..self.offline.len()).filter(|&j| !self.offline[j]),
            |j| self.loads.used(j as u32),
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

    /// Accounts one admitted VM onto server `j`: load, incremental
    /// provider cost and — when `reserve` is set — the residual store.
    fn admit_load(&mut self, j: u32, demand: &[f64], reserve: bool) {
        let server = self.infra.server(ServerId(j as usize));
        if self.loads.add(j, demand) {
            self.provider_cost += server.opex;
        }
        self.provider_cost += server.usage_cost;
        if reserve {
            self.store.reserve(ServerId(j as usize), demand);
        }
    }

    /// Capacity violations of the packed state: servers (offline ones
    /// included — their load is stranded, not licensed) whose resident
    /// load exceeds effective capacity.
    pub fn capacity_violations(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        let eps = 1e-9;
        for j in 0..self.infra.server_count() {
            if self.offline[j] {
                // A failed server's VMs are stranded by design; the
                // overload monitor only guards admission decisions.
                continue;
            }
            let used = self.loads.used(j as u32);
            let eff = self.infra.effective_row(ServerId(j));
            for (l, (&u, &e)) in used.iter().zip(eff).enumerate() {
                if u > e + eps {
                    out.push(Violation::Capacity {
                        server: ServerId(j),
                        attr: AttrId(l),
                        excess: u - e,
                    });
                }
            }
        }
        out
    }

    /// Internal-consistency check for tests: healthy servers' residual +
    /// used must equal effective capacity, and no server may be
    /// overloaded.
    pub fn verify(&self) -> Result<(), String> {
        let eps = 1e-6;
        for j in 0..self.infra.server_count() {
            if self.offline[j] {
                continue;
            }
            let used = self.loads.used(j as u32);
            let eff = self.infra.effective_row(ServerId(j));
            let res = self.store.residual_row(ServerId(j));
            for l in 0..used.len() {
                if used[l] > eff[l] + eps {
                    return Err(format!(
                        "server {j} attr {l}: used {} > effective {}",
                        used[l], eff[l]
                    ));
                }
                if (res[l] + used[l] - eff[l]).abs() > eps.max(eff[l] * 1e-9) {
                    return Err(format!(
                        "server {j} attr {l}: residual {} + used {} != effective {}",
                        res[l], used[l], eff[l]
                    ));
                }
            }
        }
        Ok(())
    }
}

impl WindowBackend for FleetExecutor {
    fn register_arrivals(&mut self, arrivals: &RequestBatch) -> Vec<TenantId> {
        let window = self.window;
        arrivals
            .requests()
            .iter()
            .map(|req| self.lifecycle.arrived(window, req.vms.len()).0)
            .collect()
    }

    fn bind_request_keys(&mut self, ids: &[TenantId], keys: &[u64]) {
        self.lifecycle.bind_keys(ids, keys);
    }

    /// Solves one admission-only window: packs `arrivals` against the
    /// residual headroom, admits the accepted requests into the packed
    /// tables and rejects the rest.
    fn execute_window(
        &mut self,
        allocator: &dyn Allocator,
        arrivals: &RequestBatch,
        arrival_tenant_ids: &[TenantId],
    ) -> (WindowReport, Vec<TenantId>) {
        let window = self.window;
        let mut sp = cpo_obs::span!("platform.window", window = window);
        let problem = AllocationProblem::new(self.store.residual_clone(), arrivals.clone(), None);
        let (outcome, solve_time) = timed_solve(allocator, &problem, window);
        let accepted = problem.accepted_mask(&outcome.assignment);

        let mut admitted = 0usize;
        let mut rejected = 0usize;
        let mut admitted_ids = Vec::new();
        for (i, req) in arrivals.requests().iter().enumerate() {
            let tid = arrival_tenant_ids[i];
            if accepted[i] {
                let server_of = |_, k| {
                    let j = outcome.assignment.server_of(k);
                    j.expect("accepted ⇒ placed").index() as u32
                };
                self.admit_request(tid, window, arrivals, req, server_of, true);
                admitted += 1;
                admitted_ids.push(tid);
            } else {
                self.lifecycle.rejected(window, tid);
                rejected += 1;
            }
        }

        let report = self.finish_window(arrivals.request_count(), admitted, rejected, solve_time);
        sp.field("admitted", admitted).field("rejected", rejected);
        (report, admitted_ids)
    }

    /// Departs one tenant, walking its chain and returning every VM's
    /// demand to the residual headroom (unless the hosting server is
    /// offline — a failed server has no headroom to return to).
    fn depart_tenant(&mut self, id: TenantId) -> bool {
        let Some(head) = self.heads.remove(&id.0) else {
            return false;
        };
        let mut slot = head;
        while slot != NO_SLOT {
            let next = self.vms.next(slot);
            let j = self.vms.server(slot);
            // `vms` is disjoint from `loads` and `store`, so the demand
            // stays borrowed across both updates.
            let demand = self.vms.demand(slot);
            let server = self.infra.server(ServerId(j as usize));
            if self.loads.remove(j, demand) {
                self.provider_cost -= server.opex;
            }
            self.provider_cost -= server.usage_cost;
            self.store.release(ServerId(j as usize), demand);
            self.vms.remove(slot);
            slot = next;
        }
        self.lifecycle.departed(self.window, id);
        true
    }

    /// Fails one server: its residual headroom drops to zero so nothing
    /// new lands there. Resident VMs stay (counted as stranded).
    fn force_failure(&mut self, server: ServerId) -> bool {
        let j = server.index();
        if self.offline[j] {
            return false;
        }
        self.offline[j] = true;
        self.store.fail(server);
        self.lifecycle.server_failed(self.window, server);
        true
    }

    /// Repairs one server, restoring its residual headroom to effective
    /// capacity minus the load still resident there.
    fn force_repair(&mut self, server: ServerId) -> bool {
        let j = server.index();
        if !self.offline[j] {
            return false;
        }
        self.offline[j] = false;
        let used = self.loads.used(j as u32);
        let restored: Vec<f64> = self
            .infra
            .effective_row(server)
            .iter()
            .zip(used)
            .map(|(e, u)| (e - u).max(0.0))
            .collect();
        self.store.restore(server, &restored);
        self.lifecycle.server_repaired(self.window, server);
        true
    }

    fn server_count(&self) -> usize {
        self.infra.server_count()
    }

    fn resident_requests(&self) -> usize {
        self.heads.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpo_core::prelude::RoundRobinAllocator;
    use cpo_model::attr::AttrSet;

    fn fleet(servers: usize) -> FleetExecutor {
        FleetExecutor::new(Infrastructure::new(
            AttrSet::standard(),
            vec![("dc".into(), ServerProfile::commodity(3).build_many(servers))],
        ))
    }

    fn batch(requests: usize, vms_each: usize) -> RequestBatch {
        let mut b = RequestBatch::new();
        for _ in 0..requests {
            b.push_request(vec![vm_spec(2.0, 4096.0, 40.0); vms_each], vec![]);
        }
        b
    }

    #[test]
    fn admit_then_depart_returns_to_idle() {
        let mut f = fleet(4);
        let arrivals = batch(3, 2);
        let ids = f.register_arrivals(&arrivals);
        let (report, admitted) = f.execute_window(&RoundRobinAllocator, &arrivals, &ids);
        assert_eq!(report.admitted, 3);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.running_vms, 6);
        assert_eq!(report.migrations, 0, "admission-only engine");
        assert!(report.provider_cost > 0.0);
        assert!(f.verify().is_ok());
        for id in &admitted {
            assert!(f.depart_tenant(*id));
            assert!(!f.depart_tenant(*id), "already departed");
        }
        assert_eq!(f.live_vms(), 0);
        assert_eq!(f.resident_requests(), 0);
        assert!(f.provider_cost.abs() < 1e-9, "cost returns to zero");
        assert!(f.verify().is_ok());
        // Headroom fully restored: the residual equals a fresh fleet's.
        let fresh = fleet(4);
        for j in 0..4 {
            assert_eq!(f.residual_row(ServerId(j)), fresh.residual_row(ServerId(j)));
        }
    }

    #[test]
    fn overload_is_rejected_not_overpacked() {
        let mut f = fleet(1);
        // One commodity server: 28.8 effective cores. 20 requests of one
        // 4-core VM each can host at most 7.
        let mut arrivals = RequestBatch::new();
        for _ in 0..20 {
            arrivals.push_request(vec![vm_spec(4.0, 8192.0, 80.0)], vec![]);
        }
        let ids = f.register_arrivals(&arrivals);
        let (report, _) = f.execute_window(&RoundRobinAllocator, &arrivals, &ids);
        assert_eq!(report.admitted + report.rejected, 20);
        assert!(report.admitted <= 7);
        assert!(report.rejected >= 13);
        assert!(f.verify().is_ok());
        assert!(f.capacity_violations().is_empty());
    }

    #[test]
    fn residual_carries_across_windows() {
        let mut f = fleet(1);
        // Fill most of the single server in window 0...
        let mut big = RequestBatch::new();
        big.push_request(vec![vm_spec(24.0, 65536.0, 1000.0)], vec![]);
        let ids = f.register_arrivals(&big);
        let (r0, admitted) = f.execute_window(&RoundRobinAllocator, &big, &ids);
        assert_eq!(r0.admitted, 1);
        // ...so an 8-core request no longer fits in window 1 (4.8 left).
        let mut small = RequestBatch::new();
        small.push_request(vec![vm_spec(8.0, 8192.0, 80.0)], vec![]);
        let ids1 = f.register_arrivals(&small);
        let (r1, _) = f.execute_window(&RoundRobinAllocator, &small, &ids1);
        assert_eq!(r1.rejected, 1, "residual headroom must gate admission");
        // After departure it fits again.
        assert!(f.depart_tenant(admitted[0]));
        let ids2 = f.register_arrivals(&small);
        let (r2, _) = f.execute_window(&RoundRobinAllocator, &small, &ids2);
        assert_eq!(r2.admitted, 1);
        assert!(f.verify().is_ok());
    }

    #[test]
    fn failure_blocks_admission_and_repair_restores_headroom() {
        let mut f = fleet(2);
        let one = batch(1, 1);
        let ids = f.register_arrivals(&one);
        let (r0, _) = f.execute_window(&RoundRobinAllocator, &one, &ids);
        assert_eq!(r0.admitted, 1);
        assert!(f.force_failure(ServerId(0)));
        assert!(!f.force_failure(ServerId(0)));
        assert!(f.residual_row(ServerId(0)).iter().all(|&c| c == 0.0));
        assert!(f.force_repair(ServerId(0)));
        assert!(!f.force_repair(ServerId(0)));
        // Headroom restored minus whatever is resident on server 0.
        let res = f.residual_row(ServerId(0));
        let eff = f.infra().effective_row(ServerId(0));
        let used = f.loads.used(0);
        for l in 0..3 {
            assert!((res[l] + used[l] - eff[l]).abs() < 1e-9);
        }
        assert!(f.verify().is_ok());
    }

    #[test]
    fn departures_on_offline_servers_do_not_resurrect_headroom() {
        let mut f = fleet(1);
        let one = batch(1, 1);
        let ids = f.register_arrivals(&one);
        let (_, admitted) = f.execute_window(&RoundRobinAllocator, &one, &ids);
        f.force_failure(ServerId(0));
        assert!(f.depart_tenant(admitted[0]));
        assert!(
            f.residual_row(ServerId(0)).iter().all(|&c| c == 0.0),
            "an offline server has no headroom to return to"
        );
        // Repair restores the full effective capacity (nothing resident).
        f.force_repair(ServerId(0));
        assert_eq!(
            f.residual_row(ServerId(0)),
            f.infra().effective_row(ServerId(0))
        );
    }

    #[test]
    fn admit_request_places_vms_by_local_index() {
        let mut f = fleet(3);
        // The second request's VMs have batch ids 1..4, so a mapping that
        // confused batch ids with local indices would misplace them.
        let mut arrivals = RequestBatch::new();
        arrivals.push_request(vec![vm_spec(1.0, 1024.0, 10.0)], vec![]);
        arrivals.push_request(
            vec![
                vm_spec(2.0, 1024.0, 10.0),
                vm_spec(3.0, 1024.0, 10.0),
                vm_spec(4.0, 1024.0, 10.0),
            ],
            vec![],
        );
        let ids = f.register_arrivals(&arrivals);
        let req = arrivals.request(RequestId(1));
        let servers = [2u32, 0, 1];
        f.admit_request(ids[1], 0, &arrivals, req, |local, _| servers[local], true);
        let cpu = |j: u32| f.loads.used(j)[0];
        assert_eq!((cpu(2), cpu(0), cpu(1)), (2.0, 3.0, 4.0));
        assert!(f.verify().is_ok());
    }

    #[test]
    fn tenant_ids_are_sequential_across_windows() {
        let mut f = fleet(4);
        let a = batch(2, 1);
        let ids0 = f.register_arrivals(&a);
        let ids1 = f.register_arrivals(&a);
        assert_eq!(ids0, vec![TenantId(0), TenantId(1)]);
        assert_eq!(ids1, vec![TenantId(2), TenantId(3)]);
    }
}
