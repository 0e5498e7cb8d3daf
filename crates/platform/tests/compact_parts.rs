//! A masked shard part solves on the sub-fleet of the servers it owns
//! ([`Infrastructure::restrict`]). The sharded scheduler used to solve it
//! on the whole fleet with every other server's capacity zeroed. For
//! Round Robin the two must decide identically: a zeroed server never
//! fits a VM with positive demand, and the owned servers keep their
//! order, so the cursor lands on the same servers.
//!
//! The property drives both over random fleets (1–3 datacenters, partly
//! used capacity), random owned-server sets and random batches carrying
//! rules of all four kinds, and compares placements (mapped back to
//! global ids), acceptance masks and rejected request ids.

use cpo_core::prelude::{Allocator, RoundRobinAllocator};
use cpo_model::attr::AttrSet;
use cpo_model::prelude::*;
use proptest::prelude::*;

/// The masked view the scheduler used to build: a copy of the whole
/// residual with every server outside `mask` zeroed.
fn masked_residual(residual: &Infrastructure, mask: &[bool]) -> Infrastructure {
    let zeros = vec![0.0; residual.attr_count()];
    let mut masked = residual.clone();
    for (j, &keep) in mask.iter().enumerate() {
        if !keep {
            masked.set_capacity(ServerId(j), &zeros);
        }
    }
    masked
}

/// Datacenter sizes (1–4 servers each, 1–3 datacenters) and, per
/// server, the fraction of its capacity already used.
fn fleet() -> impl Strategy<Value = (Vec<usize>, Vec<f64>)> {
    (
        collection::vec(1usize..5, 1..4),
        collection::vec(0.0f64..0.9, 12),
    )
}

fn build_fleet(sizes: &[usize], used: &[f64]) -> Infrastructure {
    let profile = ServerProfile::commodity(3);
    let dcs = sizes
        .iter()
        .enumerate()
        .map(|(d, &n)| (format!("dc{d}"), profile.build_many(n)))
        .collect();
    let mut infra = Infrastructure::new(AttrSet::standard(), dcs);
    for (j, used) in used.iter().enumerate().take(infra.server_count()) {
        let left: Vec<f64> = infra
            .capacity_row(ServerId(j))
            .iter()
            .map(|c| c * (1.0 - used))
            .collect();
        infra.set_capacity(ServerId(j), &left);
    }
    infra
}

/// One request: per VM a positive `(cpu, ram, disk)` demand, and per
/// candidate rule `(kind, member bits)`.
type RequestShape = (Vec<(f64, f64, f64)>, Vec<(usize, u32)>);

fn request() -> impl Strategy<Value = RequestShape> {
    (
        collection::vec((0.5f64..12.0, 256.0f64..40_000.0, 1.0f64..600.0), 1..5),
        collection::vec((0usize..4, 0u32..16), 0..3),
    )
}

fn build_batch(shapes: &[RequestShape]) -> RequestBatch {
    const KINDS: [AffinityKind; 4] = [
        AffinityKind::SameDatacenter,
        AffinityKind::SameServer,
        AffinityKind::DifferentDatacenter,
        AffinityKind::DifferentServer,
    ];
    let mut batch = RequestBatch::new();
    for (demands, rules) in shapes {
        let first = batch.vm_count();
        let vms = demands
            .iter()
            .map(|&(cpu, ram, disk)| vm_spec(cpu, ram, disk))
            .collect();
        let rules = rules
            .iter()
            .filter_map(|&(kind, bits)| {
                let members: Vec<VmId> = (0..demands.len())
                    .filter(|i| bits & (1 << i) != 0)
                    .map(|i| VmId(first + i))
                    .collect();
                (members.len() >= 2).then(|| AffinityRule::new(KINDS[kind], members))
            })
            .collect();
        batch.push_request(vms, rules);
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn round_robin_decides_the_same_on_the_compact_and_the_masked_view(
        (sizes, used) in fleet(),
        owned_bits in 1u32..4096,
        shapes in collection::vec(request(), 1..10),
    ) {
        let residual = build_fleet(&sizes, &used);
        let m = residual.server_count();
        let mut mask: Vec<bool> = (0..m).map(|j| owned_bits & (1 << j) != 0).collect();
        if !mask.contains(&true) {
            mask[owned_bits as usize % m] = true;
        }
        let owned: Vec<ServerId> = (0..m).filter(|&j| mask[j]).map(ServerId).collect();
        let batch = build_batch(&shapes);

        let masked = AllocationProblem::new(masked_residual(&residual, &mask), batch.clone(), None);
        let compact = AllocationProblem::new(residual.restrict(&owned), batch, None);
        let on_mask = RoundRobinAllocator.allocate(&masked);
        let on_compact = RoundRobinAllocator.allocate(&compact);

        for k in masked.batch().vm_ids() {
            let global = on_compact.assignment.server_of(k).map(|j| owned[j.index()]);
            prop_assert_eq!(on_mask.assignment.server_of(k), global);
        }
        prop_assert_eq!(
            masked.accepted_mask(&on_mask.assignment),
            compact.accepted_mask(&on_compact.assignment)
        );
        prop_assert_eq!(&on_mask.rejected, &on_compact.rejected);
    }
}
