//! Tenants: accepted requests living on the platform across windows.

use cpo_model::prelude::*;

/// Identifier of a tenant (an accepted, still-running request).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TenantId(pub u64);

/// One running tenant: the request's resources, rules, placements and
/// remaining lifetime.
#[derive(Clone, Debug)]
pub struct Tenant {
    /// Stable platform-wide id.
    pub id: TenantId,
    /// The resources (specs preserved from the original request).
    pub vms: Vec<VmSpec>,
    /// The request's affinity rules, expressed over *local* VM indices
    /// `0..vms.len()` (rebased from the original batch).
    pub rules: Vec<(AffinityKind, Vec<usize>)>,
    /// Current server of each resource (always complete for a tenant).
    pub placement: Vec<ServerId>,
    /// Remaining lifetime in windows; the tenant departs when it hits 0.
    pub remaining_windows: u32,
}

impl Tenant {
    /// Number of resources.
    pub fn size(&self) -> usize {
        self.vms.len()
    }
}

/// Rebases a request's rules from batch-global [`VmId`]s to local indices.
pub fn rebase_rules(req: &Request) -> Vec<(AffinityKind, Vec<usize>)> {
    req.rules
        .iter()
        .map(|rule| {
            let locals = rule
                .vms()
                .iter()
                .map(|vm| {
                    req.vms
                        .iter()
                        .position(|&k| k == *vm)
                        .expect("rule vms belong to the request")
                })
                .collect();
            (rule.kind(), locals)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rebase_maps_to_local_indices() {
        let mut batch = RequestBatch::new();
        batch.push_request(vec![vm_spec(1.0, 1.0, 1.0)], vec![]);
        let rule = AffinityRule::new(AffinityKind::SameServer, vec![VmId(1), VmId(3)]);
        batch.push_request(vec![vm_spec(1.0, 1.0, 1.0); 3], vec![rule]);
        let req = batch.request(RequestId(1));
        let rebased = rebase_rules(req);
        assert_eq!(rebased, vec![(AffinityKind::SameServer, vec![0, 2])]);
    }

    #[test]
    fn tenant_size() {
        let t = Tenant {
            id: TenantId(1),
            vms: vec![vm_spec(1.0, 1.0, 1.0); 2],
            rules: vec![],
            placement: vec![ServerId(0), ServerId(1)],
            remaining_windows: 3,
        };
        assert_eq!(t.size(), 2);
    }
}
