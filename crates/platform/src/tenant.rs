//! Tenants: accepted requests living on the platform across windows,
//! and [`TenantTable`], the dense per-tenant storage both engines key by
//! [`TenantId`].

use cpo_model::prelude::*;
use std::collections::VecDeque;

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
                .map(|&vm| {
                    req.vms
                        .position(vm)
                        .expect("rule vms belong to the request")
                })
                .collect();
            (rule.kind(), locals)
        })
        .collect()
}

/// Dense per-tenant storage indexed by [`TenantId`].
///
/// Tenant ids are minted sequentially from 0, so the live ones always lie
/// between the oldest live tenant and the newest. The table keeps one
/// slot per id in that span and drops vacated slots at both ends as
/// tenants leave, so it holds at most `newest − oldest + 1` slots however
/// many ids were minted before (its allocation is the widest span it has
/// held). Insert, remove and lookup index a ring buffer: no hashing, and
/// no rehash when the live count grows.
///
/// An id may be inserted anywhere, below the span included; an id far
/// from the live ones widens the span to reach it.
#[derive(Clone, Debug)]
pub struct TenantTable<T> {
    /// The id stored in `slots[0]`.
    base: u64,
    /// Ids `base..base + slots.len()`. Unless empty, the first and last
    /// slots are occupied.
    slots: VecDeque<Option<T>>,
    /// Occupied slots.
    len: usize,
}

impl<T> Default for TenantTable<T> {
    fn default() -> Self {
        Self {
            base: 0,
            slots: VecDeque::new(),
            len: 0,
        }
    }
}

impl<T> TenantTable<T> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tenants stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no tenant is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slots held: the ids from the lowest stored to the highest, or 0
    /// when empty. This is the table's memory bound.
    pub fn span(&self) -> usize {
        self.slots.len()
    }

    /// The slot index of `id`, if it lies in the held span.
    fn index(&self, id: TenantId) -> Option<usize> {
        let offset = id.0.checked_sub(self.base)?;
        usize::try_from(offset)
            .ok()
            .filter(|&i| i < self.slots.len())
    }

    /// The value stored for `id`.
    pub fn get(&self, id: TenantId) -> Option<&T> {
        self.slots[self.index(id)?].as_ref()
    }

    /// Stores `value` for `id`, returning the value it replaces.
    pub fn insert(&mut self, id: TenantId, value: T) -> Option<T> {
        if self.slots.is_empty() {
            self.base = id.0;
        } else if id.0 < self.base {
            let gap = usize::try_from(self.base - id.0).expect("tenant span fits in memory");
            self.slots.reserve(gap);
            for _ in 0..gap {
                self.slots.push_front(None);
            }
            self.base = id.0;
        }
        let i = usize::try_from(id.0 - self.base).expect("tenant span fits in memory");
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let old = self.slots[i].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes and returns the value stored for `id`, then drops the
    /// vacated slots at either end of the span.
    pub fn remove(&mut self, id: TenantId) -> Option<T> {
        let i = self.index(id)?;
        let old = self.slots[i].take()?;
        self.len -= 1;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        while let Some(None) = self.slots.back() {
            self.slots.pop_back();
        }
        Some(old)
    }
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

    #[test]
    fn table_trims_vacated_ends() {
        let mut t = TenantTable::new();
        for id in 0..5 {
            assert_eq!(t.insert(TenantId(id), id * 10), None);
        }
        assert_eq!((t.len(), t.span()), (5, 5));
        assert_eq!(t.remove(TenantId(1)), Some(10));
        assert_eq!(t.span(), 5, "an interior hole keeps its slot");
        assert_eq!(t.remove(TenantId(0)), Some(0));
        assert_eq!(t.span(), 3, "the vacated prefix is dropped");
        assert_eq!(t.remove(TenantId(4)), Some(40));
        assert_eq!(t.span(), 2, "the vacated suffix is dropped");
        assert_eq!(t.get(TenantId(2)), Some(&20));
        assert_eq!(t.get(TenantId(0)), None);
        assert_eq!(t.get(TenantId(u64::MAX)), None);
        assert_eq!(t.insert(TenantId(0), 7), None, "below the span");
        assert_eq!((t.len(), t.span()), (3, 4));
        assert_eq!(t.insert(TenantId(0), 8), Some(7));
        for id in [0, 2, 3] {
            assert!(t.remove(TenantId(id)).is_some());
        }
        assert!(t.is_empty());
        assert_eq!(t.span(), 0);
        assert_eq!(t.remove(TenantId(2)), None);
        assert_eq!(
            t.insert(TenantId(1 << 40), 1),
            None,
            "an empty table rebases"
        );
        assert_eq!(t.span(), 1);
    }
}
