//! East-west network accounting: maps the model's servers onto the
//! spine-leaf pods (cpo-topology) and admits a bandwidth flow between
//! every pair of a tenant's VMs that land on different servers of the
//! same datacenter — the traffic the paper's co-location rules exist to
//! manage. Cross-datacenter pairs are tallied as WAN traffic (not
//! admitted against the fabric).

use crate::tenant::{Tenant, TenantId, TenantTable};
use cpo_model::prelude::{Infrastructure, ServerId};
use cpo_topology::{BuiltPod, LinkId, NodeId};

/// One admitted fabric flow.
#[derive(Clone, Debug)]
struct Flow {
    pod: usize,
    path: Vec<LinkId>,
    bandwidth: f64,
}

/// Result of admitting a tenant's flows.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowAdmission {
    /// Intra-datacenter flows successfully reserved.
    pub admitted: usize,
    /// Flows that did not fit the fabric (congestion).
    pub denied: usize,
    /// Cross-datacenter pairs (WAN, not reserved).
    pub wan_pairs: usize,
}

/// The network model: pods + server mapping + per-tenant flows.
pub struct NetworkModel {
    pods: Vec<BuiltPod>,
    /// Global server id → (pod index, node in that pod).
    server_node: Vec<(usize, NodeId)>,
    /// Bandwidth reserved per VM pair (Mbit/s).
    per_pair_bw: f64,
    flows: TenantTable<Vec<Flow>>,
}

impl NetworkModel {
    /// Builds the mapping. Each pod must have at least as many server
    /// slots as its datacenter has servers.
    ///
    /// # Panics
    /// Panics when a pod is too small for its datacenter.
    pub fn new(infra: &Infrastructure, pods: Vec<BuiltPod>, per_pair_bw: f64) -> Self {
        assert_eq!(
            infra.datacenter_count(),
            pods.len(),
            "one pod per datacenter"
        );
        let mut server_node = Vec::with_capacity(infra.server_count());
        for (p, dc) in infra.datacenters().iter().enumerate() {
            assert!(
                pods[p].servers.len() >= dc.server_count,
                "pod {p} has {} slots for {} servers",
                pods[p].servers.len(),
                dc.server_count
            );
            for s in 0..dc.server_count {
                server_node.push((p, pods[p].servers[s]));
            }
        }
        Self {
            pods,
            server_node,
            per_pair_bw,
            flows: TenantTable::new(),
        }
    }

    /// Admits flows for every cross-server VM pair of a tenant.
    pub fn admit_tenant(&mut self, tenant: &Tenant) -> FlowAdmission {
        let mut admission = FlowAdmission::default();
        let mut flows = Vec::new();
        for (a, &ja) in tenant.placement.iter().enumerate() {
            for &jb in tenant.placement.iter().skip(a + 1) {
                if ja == jb {
                    continue; // same host: memory-speed, no fabric traffic
                }
                let (pa, na) = self.node_of(ja);
                let (pb, nb) = self.node_of(jb);
                if pa != pb {
                    admission.wan_pairs += 1;
                    continue;
                }
                match self.pods[pa].fabric.admit_flow(na, nb, self.per_pair_bw) {
                    Some(path) => {
                        flows.push(Flow {
                            pod: pa,
                            path,
                            bandwidth: self.per_pair_bw,
                        });
                        admission.admitted += 1;
                    }
                    None => admission.denied += 1,
                }
            }
        }
        if !flows.is_empty() {
            self.flows.insert(tenant.id, flows);
        }
        admission
    }

    /// Releases all flows of a tenant (departure or pre-migration).
    pub fn release_tenant(&mut self, id: TenantId) {
        if let Some(flows) = self.flows.remove(id) {
            for f in flows {
                self.pods[f.pod].fabric.release_path(&f.path, f.bandwidth);
            }
        }
    }

    /// Re-admits a tenant after its placement changed.
    pub fn readmit_tenant(&mut self, tenant: &Tenant) -> FlowAdmission {
        self.release_tenant(tenant.id);
        self.admit_tenant(tenant)
    }

    fn node_of(&self, j: ServerId) -> (usize, NodeId) {
        self.server_node[j.index()]
    }

    /// Peak link utilisation across all pods.
    pub fn peak_utilization(&self) -> f64 {
        self.pods
            .iter()
            .map(|p| p.fabric.peak_utilization())
            .fold(0.0, f64::max)
    }

    /// Mean link utilisation across all pods.
    pub fn mean_utilization(&self) -> f64 {
        if self.pods.is_empty() {
            return 0.0;
        }
        self.pods
            .iter()
            .map(|p| p.fabric.mean_utilization())
            .sum::<f64>()
            / self.pods.len() as f64
    }

    /// Number of tenants with reserved flows.
    pub fn tenants_with_flows(&self) -> usize {
        self.flows.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpo_model::attr::AttrSet;
    use cpo_model::prelude::{vm_spec, Infrastructure, ServerProfile};
    use cpo_topology::{build_spine_leaf, SpineLeafSpec};

    fn setup() -> (Infrastructure, Vec<BuiltPod>) {
        let profile = ServerProfile::commodity(3);
        let infra = Infrastructure::new(
            AttrSet::standard(),
            vec![
                ("dc0".into(), profile.build_many(4)),
                ("dc1".into(), profile.build_many(4)),
            ],
        );
        let pods = vec![
            build_spine_leaf(&SpineLeafSpec::for_server_count(4)),
            build_spine_leaf(&SpineLeafSpec::for_server_count(4)),
        ];
        (infra, pods)
    }

    fn tenant(id: u64, placement: Vec<usize>) -> Tenant {
        Tenant {
            id: TenantId(id),
            vms: vec![vm_spec(1.0, 1.0, 1.0); placement.len()],
            rules: vec![],
            placement: placement.into_iter().map(ServerId).collect(),
            remaining_windows: 5,
        }
    }

    #[test]
    fn same_server_pairs_need_no_fabric() {
        let (infra, pods) = setup();
        let mut net = NetworkModel::new(&infra, pods, 1_000.0);
        let a = net.admit_tenant(&tenant(1, vec![0, 0, 0]));
        assert_eq!(
            a,
            FlowAdmission {
                admitted: 0,
                denied: 0,
                wan_pairs: 0
            }
        );
        assert_eq!(net.peak_utilization(), 0.0);
    }

    #[test]
    fn cross_server_pairs_reserve_bandwidth() {
        let (infra, pods) = setup();
        let mut net = NetworkModel::new(&infra, pods, 1_000.0);
        let a = net.admit_tenant(&tenant(1, vec![0, 1, 2]));
        assert_eq!(a.admitted, 3); // all three pairs distinct servers, same dc
        assert!(net.peak_utilization() > 0.0);
        assert_eq!(net.tenants_with_flows(), 1);
    }

    #[test]
    fn cross_datacenter_pairs_are_wan() {
        let (infra, pods) = setup();
        let mut net = NetworkModel::new(&infra, pods, 1_000.0);
        // Servers 0..4 are dc0, 4..8 dc1.
        let a = net.admit_tenant(&tenant(1, vec![0, 5]));
        assert_eq!(
            a,
            FlowAdmission {
                admitted: 0,
                denied: 0,
                wan_pairs: 1
            }
        );
        assert_eq!(net.peak_utilization(), 0.0);
    }

    #[test]
    fn release_frees_all_bandwidth() {
        let (infra, pods) = setup();
        let mut net = NetworkModel::new(&infra, pods, 2_000.0);
        net.admit_tenant(&tenant(1, vec![0, 1]));
        assert!(net.peak_utilization() > 0.0);
        net.release_tenant(TenantId(1));
        assert_eq!(net.peak_utilization(), 0.0);
        assert_eq!(net.tenants_with_flows(), 0);
    }

    #[test]
    fn congestion_denies_flows() {
        let (infra, pods) = setup();
        // Access links are 10 G; each pair takes 6 G.
        let mut net = NetworkModel::new(&infra, pods, 6_000.0);
        let a1 = net.admit_tenant(&tenant(1, vec![0, 1]));
        assert_eq!(a1.admitted, 1);
        // Second tenant between the same two servers: access link full.
        let a2 = net.admit_tenant(&tenant(2, vec![0, 1]));
        assert_eq!(a2.denied, 1);
    }

    #[test]
    fn readmit_moves_reservations() {
        let (infra, pods) = setup();
        let mut net = NetworkModel::new(&infra, pods, 1_000.0);
        let mut t = tenant(1, vec![0, 1]);
        net.admit_tenant(&t);
        let before = net.mean_utilization();
        // Migrate VM 1 onto VM 0's host: traffic disappears.
        t.placement[1] = ServerId(0);
        net.readmit_tenant(&t);
        assert_eq!(net.peak_utilization(), 0.0);
        assert!(before > 0.0);
    }

    #[test]
    #[should_panic(expected = "one pod per datacenter")]
    fn pod_count_must_match() {
        let (infra, mut pods) = setup();
        pods.pop();
        let _ = NetworkModel::new(&infra, pods, 1.0);
    }
}
