//! Resource attributes (`H = {1, …, h}` in the paper, Table I).
//!
//! The paper focuses on CPU, RAM and disk but requires the model to be
//! extensible to arbitrary provider attributes, with the consumer and
//! provider attribute sets identical (`h = h'`). [`AttrSet`] enforces that
//! symmetry: one shared set of descriptors indexes both the provider
//! capacity matrix `P` and the consumer demand matrix `C`.

use std::fmt;

/// Index of an attribute within an [`AttrSet`] (the paper's `l`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct AttrId(pub usize);

impl AttrId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// The kind of a resource attribute.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AttrKind {
    /// Virtual CPU cores.
    Cpu,
    /// Memory in MiB.
    Ram,
    /// Local disk in GiB.
    Disk,
    /// Network bandwidth in Mbit/s.
    NetBandwidth,
    /// Provider-specific attribute (GPU units, IOPS, licences, …).
    Custom(u32),
}

impl AttrKind {
    /// Short human-readable label used in reports.
    pub fn label(&self) -> String {
        match self {
            AttrKind::Cpu => "cpu".to_string(),
            AttrKind::Ram => "ram".to_string(),
            AttrKind::Disk => "disk".to_string(),
            AttrKind::NetBandwidth => "net".to_string(),
            AttrKind::Custom(n) => format!("custom{n}"),
        }
    }
}

impl fmt::Display for AttrKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// The ordered set of attributes shared by provider and consumer resources.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AttrSet {
    kinds: Vec<AttrKind>,
}

impl AttrSet {
    /// Builds an attribute set from an ordered list of kinds.
    ///
    /// # Panics
    /// Panics if `kinds` is empty (the model needs `h ≥ 1`) or contains
    /// duplicate kinds.
    pub fn new(kinds: Vec<AttrKind>) -> Self {
        assert!(!kinds.is_empty(), "attribute set must not be empty");
        for (i, a) in kinds.iter().enumerate() {
            for b in &kinds[i + 1..] {
                assert_ne!(a, b, "duplicate attribute kind {a:?}");
            }
        }
        Self { kinds }
    }

    /// The paper's default three attributes: CPU, RAM, disk.
    pub fn standard() -> Self {
        Self::new(vec![AttrKind::Cpu, AttrKind::Ram, AttrKind::Disk])
    }

    /// Number of attributes (`h`).
    #[inline]
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// `false` always — the constructor rejects empty sets — but provided
    /// for idiomatic pairing with [`AttrSet::len`].
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Kind of attribute `id`.
    #[inline]
    pub fn kind(&self, id: AttrId) -> AttrKind {
        self.kinds[id.0]
    }

    /// Iterator over attribute ids `0..h`.
    pub fn ids(&self) -> impl Iterator<Item = AttrId> {
        (0..self.kinds.len()).map(AttrId)
    }

    /// Looks up the id of a kind, if present.
    pub fn find(&self, kind: AttrKind) -> Option<AttrId> {
        self.kinds.iter().position(|k| *k == kind).map(AttrId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_set_is_cpu_ram_disk() {
        let s = AttrSet::standard();
        assert_eq!(s.len(), 3);
        assert_eq!(s.kind(AttrId(0)), AttrKind::Cpu);
        assert_eq!(s.kind(AttrId(1)), AttrKind::Ram);
        assert_eq!(s.kind(AttrId(2)), AttrKind::Disk);
    }

    #[test]
    fn find_locates_kinds() {
        let s = AttrSet::standard();
        assert_eq!(s.find(AttrKind::Ram), Some(AttrId(1)));
        assert_eq!(s.find(AttrKind::NetBandwidth), None);
    }

    #[test]
    fn ids_cover_the_range() {
        let s = AttrSet::standard();
        let ids: Vec<_> = s.ids().map(|a| a.index()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn custom_attributes_are_supported() {
        let s = AttrSet::new(vec![AttrKind::Cpu, AttrKind::Custom(7)]);
        assert_eq!(s.kind(AttrId(1)).label(), "custom7");
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_kinds_rejected() {
        let _ = AttrSet::new(vec![AttrKind::Cpu, AttrKind::Cpu]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_set_rejected() {
        let _ = AttrSet::new(vec![]);
    }
}
