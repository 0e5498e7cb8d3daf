//! Per-tenant SLA accounting over time: the Eq. 23 downtime penalty is a
//! *flow* cost — the provider pays it every window the guarantee is
//! broken. This ledger accumulates it per tenant so operators can see who
//! is being hurt and what the violations cost cumulatively, and computes
//! the SLA credit owed (the monetised penalty, capped per window at the
//! tenant's `C^U_k` per resource as in the model).

use crate::tenant::{Tenant, TenantId};
use cpo_model::prelude::{Infrastructure, LoadTracker, RequestBatch, VmId};
use cpo_model::qos::worst_qos;
use std::collections::HashMap;

/// Cumulative SLA record of one tenant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SlaRecord {
    /// Windows during which at least one resource ran below its
    /// guarantee.
    pub degraded_windows: u64,
    /// Total windows observed.
    pub observed_windows: u64,
    /// Accumulated monetised penalty (Σ per-window Eq. 23 terms).
    pub credit_owed: f64,
    /// Worst QoS ever experienced by any resource of the tenant.
    pub worst_qos_seen: f64,
}

impl Default for SlaRecord {
    /// A fresh record: nothing observed yet, so the worst QoS seen is the
    /// perfect 1.0.
    fn default() -> Self {
        Self {
            degraded_windows: 0,
            observed_windows: 0,
            credit_owed: 0.0,
            worst_qos_seen: 1.0,
        }
    }
}

impl SlaRecord {
    /// Fraction of observed windows with degraded service.
    pub fn degradation_ratio(&self) -> f64 {
        if self.observed_windows == 0 {
            0.0
        } else {
            self.degraded_windows as f64 / self.observed_windows as f64
        }
    }
}

/// The SLA ledger across all tenants.
#[derive(Clone, Debug, Default)]
pub struct SlaLedger {
    records: HashMap<TenantId, SlaRecord>,
}

impl SlaLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes one window of the running platform: `batch`/`assignment`
    /// is the tenant snapshot ([`crate::executor::WindowExecutor::snapshot`]
    /// layout: tenants in order, VMs contiguous). Returns the tenants
    /// whose guarantee was breached this window together with the credit
    /// accrued, so the caller can attribute SLA/QoS breaches to requests
    /// (flight-recorder `sla_violated` events).
    pub fn observe_window(
        &mut self,
        tenants: &[Tenant],
        batch: &RequestBatch,
        tracker: &LoadTracker,
        infra: &Infrastructure,
    ) -> Vec<(TenantId, f64)> {
        let mut breaches = Vec::new();
        let mut vm_base = 0usize;
        for t in tenants {
            let record = self.records.entry(t.id).or_default();
            record.observed_windows += 1;
            let mut window_credit = 0.0;
            let mut degraded = false;
            for (local, &server) in t.placement.iter().enumerate() {
                let q = worst_qos(tracker, server, infra);
                record.worst_qos_seen = record.worst_qos_seen.min(q);
                let spec = batch.terms(VmId(vm_base + local));
                if spec.qos_guarantee > 0.0 && q < spec.qos_guarantee {
                    degraded = true;
                    window_credit += spec.downtime_cost * (1.0 - q / spec.qos_guarantee);
                }
            }
            if degraded {
                record.degraded_windows += 1;
                record.credit_owed += window_credit;
                breaches.push((t.id, window_credit));
            }
            vm_base += t.vms.len();
        }
        breaches
    }

    /// Record of one tenant, if observed.
    pub fn record(&self, id: TenantId) -> Option<&SlaRecord> {
        self.records.get(&id)
    }

    /// Total credit owed across all tenants.
    pub fn total_credit(&self) -> f64 {
        self.records.values().map(|r| r.credit_owed).sum()
    }

    /// Tenants sorted by owed credit, highest first.
    pub fn worst_tenants(&self, count: usize) -> Vec<(TenantId, SlaRecord)> {
        let mut all: Vec<(TenantId, SlaRecord)> =
            self.records.iter().map(|(&id, &r)| (id, r)).collect();
        all.sort_by(|a, b| {
            b.1.credit_owed
                .partial_cmp(&a.1.credit_owed)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        all.truncate(count);
        all
    }

    /// Number of tenants ever observed.
    pub fn tenant_count(&self) -> usize {
        self.records.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpo_model::attr::AttrSet;
    use cpo_model::prelude::*;

    fn setup(cpu: f64, guarantee: f64) -> (Infrastructure, RequestBatch, Vec<Tenant>) {
        let infra = Infrastructure::new(
            AttrSet::standard(),
            vec![("dc".into(), ServerProfile::commodity(3).build_many(1))],
        );
        let mut spec = vm_spec(cpu, 1024.0, 10.0);
        spec.qos_guarantee = guarantee;
        spec.downtime_cost = 4.0;
        let mut batch = RequestBatch::new();
        batch.push_request(vec![spec.clone()], vec![]);
        let tenants = vec![Tenant {
            id: TenantId(1),
            vms: vec![spec],
            rules: vec![],
            placement: vec![ServerId(0)],
            remaining_windows: 5,
        }];
        (infra, batch, tenants)
    }

    fn observe(
        ledger: &mut SlaLedger,
        infra: &Infrastructure,
        batch: &RequestBatch,
        tenants: &[Tenant],
    ) {
        let mut assignment = Assignment::unassigned(batch.vm_count());
        let mut k = 0;
        for t in tenants {
            for &s in &t.placement {
                assignment.assign(VmId(k), s);
                k += 1;
            }
        }
        let tracker = LoadTracker::from_assignment(&assignment, batch, infra);
        ledger.observe_window(tenants, batch, &tracker, infra);
    }

    #[test]
    fn healthy_tenant_accrues_no_credit() {
        // Low load: QoS = 0.99 ≥ guarantee 0.95.
        let (infra, batch, tenants) = setup(1.0, 0.95);
        let mut ledger = SlaLedger::new();
        for _ in 0..3 {
            observe(&mut ledger, &infra, &batch, &tenants);
        }
        let r = ledger.record(TenantId(1)).unwrap();
        assert_eq!(r.observed_windows, 3);
        assert_eq!(r.degraded_windows, 0);
        assert_eq!(r.credit_owed, 0.0);
        assert_eq!(r.degradation_ratio(), 0.0);
    }

    #[test]
    fn overloaded_tenant_accrues_credit_every_window() {
        // 28 cpu of 28.8 effective → load 0.97 > knee 0.8 → QoS below 0.99
        // guarantee.
        let (infra, batch, tenants) = setup(28.0, 0.99);
        let mut ledger = SlaLedger::new();
        for _ in 0..4 {
            observe(&mut ledger, &infra, &batch, &tenants);
        }
        let r = ledger.record(TenantId(1)).unwrap();
        assert_eq!(r.degraded_windows, 4);
        assert!(r.credit_owed > 0.0);
        assert!(r.worst_qos_seen < 0.99);
        assert_eq!(r.degradation_ratio(), 1.0);
        assert!((ledger.total_credit() - r.credit_owed).abs() < 1e-12);
    }

    #[test]
    fn worst_tenants_sorted_by_credit() {
        let (infra, batch, tenants) = setup(28.0, 0.99);
        let mut ledger = SlaLedger::new();
        observe(&mut ledger, &infra, &batch, &tenants);
        // A second, healthy tenant observed via a different ledger entry.
        ledger.records.insert(TenantId(2), SlaRecord::default());
        let worst = ledger.worst_tenants(2);
        assert_eq!(worst.len(), 2);
        assert_eq!(worst[0].0, TenantId(1));
        assert!(worst[0].1.credit_owed >= worst[1].1.credit_owed);
        assert_eq!(ledger.tenant_count(), 2);
    }
}
