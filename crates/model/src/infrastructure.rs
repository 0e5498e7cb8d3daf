//! Provider-side substrate: datacenters `G`, servers `M`, the capacity
//! matrix `P` (Eq. 1), the capacity-factor matrix `F` (Eq. 3), the opex
//! vector `E` (Eq. 6), the usage-cost vector `U` (Eq. 7), and the per-server
//! QoS envelopes `L^M`, `Q^M` (Eq. 8).

use crate::attr::{AttrId, AttrSet};
use crate::matrix::Matrix;
use std::sync::Arc;

/// Index of a datacenter (the paper's `i ∈ G`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct DatacenterId(pub usize);

impl DatacenterId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Global index of a server (the paper's `j ∈ M`).
///
/// Servers are numbered globally across all datacenters; the owning
/// datacenter is recoverable through [`Infrastructure::datacenter_of`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ServerId(pub usize);

impl ServerId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// One physical server (hypervisor host), as handed to
/// [`Infrastructure::new`]. The infrastructure splits it into a live
/// capacity row and shared [`ServerParams`];
/// [`Infrastructure::server_spec`] reassembles it.
#[derive(Clone, Debug, PartialEq)]
pub struct Server {
    /// Raw capacity per attribute — row `j` of the paper's `P` matrix.
    pub capacity: Vec<f64>,
    /// Virtual-to-physical capacity factor per attribute — row `j` of `F`.
    /// A factor of 0.9 means only 90 % of the raw capacity is usable for
    /// virtual resources (hypervisor overhead).
    pub factor: Vec<f64>,
    /// Operating expenditure `E_j` charged once when the server hosts at
    /// least one VM (power, floor space, storage, IT operations).
    pub opex: f64,
    /// Usage cost `U_j` charged per hosted consumer resource.
    pub usage_cost: f64,
    /// Maximum load `L^M_{jl}` per attribute before QoS degradation
    /// (each in `[0, 1)`).
    pub max_load: Vec<f64>,
    /// Maximum quality of service `Q^M_{jl}` per attribute (each in `[0, 1)`).
    pub max_qos: Vec<f64>,
}

impl Server {
    /// Validates the invariants the paper places on server parameters
    /// (Eq. 8 bounds, non-negative capacities and costs) against an
    /// attribute set of size `h`.
    pub fn validate(&self, h: usize) -> Result<(), String> {
        if self.capacity.len() != h || self.factor.len() != h {
            return Err(format!(
                "server capacity/factor must have {h} attributes, got {}/{}",
                self.capacity.len(),
                self.factor.len()
            ));
        }
        if self.max_load.len() != h || self.max_qos.len() != h {
            return Err(format!(
                "server max_load/max_qos must have {h} attributes, got {}/{}",
                self.max_load.len(),
                self.max_qos.len()
            ));
        }
        for &c in &self.capacity {
            if !c.is_finite() || c < 0.0 {
                return Err(format!("capacity must be finite and >= 0, got {c}"));
            }
        }
        for &f in &self.factor {
            if !f.is_finite() || f <= 0.0 {
                return Err(format!("capacity factor must be finite and > 0, got {f}"));
            }
        }
        if !self.opex.is_finite() || self.opex < 0.0 {
            return Err(format!("opex must be finite and >= 0, got {}", self.opex));
        }
        if !self.usage_cost.is_finite() || self.usage_cost < 0.0 {
            return Err(format!(
                "usage cost must be finite and >= 0, got {}",
                self.usage_cost
            ));
        }
        for &lm in &self.max_load {
            if !(0.0..1.0).contains(&lm) {
                return Err(format!("max load must be in [0,1), got {lm}"));
            }
        }
        for &qm in &self.max_qos {
            if !(0.0..1.0).contains(&qm) {
                return Err(format!("max QoS must be in [0,1), got {qm}"));
            }
        }
        Ok(())
    }
}

/// A datacenter: a named group of consecutive global server ids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Datacenter {
    /// Human-readable name used in reports.
    pub name: String,
    /// First global server id owned by this datacenter.
    pub first_server: usize,
    /// Number of servers in this datacenter.
    pub server_count: usize,
}

impl Datacenter {
    /// Iterator over the global server ids of this datacenter.
    pub fn servers(&self) -> impl Iterator<Item = ServerId> {
        (self.first_server..self.first_server + self.server_count).map(ServerId)
    }

    /// `true` when server `j` belongs to this datacenter.
    pub fn contains(&self, j: ServerId) -> bool {
        (self.first_server..self.first_server + self.server_count).contains(&j.index())
    }
}

/// The static parameters of one server: everything of a [`Server`]
/// except its raw capacity, which is live state held in
/// [`Infrastructure`]'s capacity matrix (read it with
/// [`Infrastructure::capacity_row`]).
#[derive(Clone, Debug, PartialEq)]
pub struct ServerParams {
    /// Virtual-to-physical capacity factor per attribute — row `j` of `F`.
    pub factor: Vec<f64>,
    /// Operating expenditure `E_j`.
    pub opex: f64,
    /// Usage cost `U_j` per hosted consumer resource.
    pub usage_cost: f64,
    /// Maximum load `L^M_{jl}` per attribute.
    pub max_load: Vec<f64>,
    /// Maximum quality of service `Q^M_{jl}` per attribute.
    pub max_qos: Vec<f64>,
}

/// The parts of an [`Infrastructure`] no capacity update touches. Every
/// clone shares one copy behind an [`Arc`].
#[derive(Debug)]
struct StaticTable {
    attrs: AttrSet,
    datacenters: Vec<Datacenter>,
    servers: Vec<ServerParams>,
    /// `server_dc[j]` = owning datacenter of global server `j`.
    server_dc: Vec<DatacenterId>,
}

/// The provider substrate: all datacenters and servers plus derived views.
///
/// The live raw capacity `P` and the cached effective capacity `P ⊙ F`
/// are two flat `m × h` matrices; everything else sits in one shared
/// static table. A clone therefore copies two buffers and bumps one
/// reference count, which is what lets schedulers take a private
/// residual copy per solve.
#[derive(Clone, Debug)]
pub struct Infrastructure {
    statics: Arc<StaticTable>,
    /// Live `m × h` raw capacity matrix `P`.
    capacity: Matrix<f64>,
    /// Cached `m × h` effective capacity matrix (`P ⊙ F`).
    effective: Matrix<f64>,
}

impl Infrastructure {
    /// Assembles an infrastructure from datacenters each carrying its own
    /// servers. Validates every server against the attribute set.
    ///
    /// # Panics
    /// Panics if any server fails [`Server::validate`] or if no datacenter
    /// or server is provided.
    pub fn new(attrs: AttrSet, dcs: Vec<(String, Vec<Server>)>) -> Self {
        assert!(
            !dcs.is_empty(),
            "infrastructure needs at least one datacenter"
        );
        let h = attrs.len();
        let m: usize = dcs.iter().map(|(_, servers)| servers.len()).sum();
        assert!(m > 0, "infrastructure needs at least one server");
        let mut datacenters = Vec::with_capacity(dcs.len());
        let mut servers = Vec::with_capacity(m);
        let mut server_dc = Vec::with_capacity(m);
        let mut capacity = Vec::with_capacity(m * h);
        let mut effective = Vec::with_capacity(m * h);
        for (dc_idx, (name, dc_servers)) in dcs.into_iter().enumerate() {
            let first_server = servers.len();
            let server_count = dc_servers.len();
            for (s_idx, s) in dc_servers.into_iter().enumerate() {
                if let Err(e) = s.validate(h) {
                    panic!("invalid server {s_idx} in datacenter {name:?}: {e}");
                }
                capacity.extend_from_slice(&s.capacity);
                effective.extend(s.capacity.iter().zip(&s.factor).map(|(c, f)| c * f));
                servers.push(ServerParams {
                    factor: s.factor,
                    opex: s.opex,
                    usage_cost: s.usage_cost,
                    max_load: s.max_load,
                    max_qos: s.max_qos,
                });
                server_dc.push(DatacenterId(dc_idx));
            }
            datacenters.push(Datacenter {
                name,
                first_server,
                server_count,
            });
        }
        Self {
            statics: Arc::new(StaticTable {
                attrs,
                datacenters,
                servers,
                server_dc,
            }),
            capacity: Matrix::from_vec(m, h, capacity),
            effective: Matrix::from_vec(m, h, effective),
        }
    }

    /// The residual-headroom view of this fleet: raw capacity set to the
    /// current effective capacity `P ⊙ F` and every factor set to 1.0,
    /// so effective and raw capacity coincide and admissions can carve
    /// demand straight out of the rows (departures return it). Costs and
    /// QoS envelopes are unchanged.
    pub fn residual_view(&self) -> Self {
        let h = self.attr_count();
        let statics = &self.statics;
        let servers = statics
            .servers
            .iter()
            .map(|s| ServerParams {
                factor: vec![1.0; h],
                opex: s.opex,
                usage_cost: s.usage_cost,
                max_load: s.max_load.clone(),
                max_qos: s.max_qos.clone(),
            })
            .collect();
        Self {
            statics: Arc::new(StaticTable {
                attrs: statics.attrs.clone(),
                datacenters: statics.datacenters.clone(),
                servers,
                server_dc: statics.server_dc.clone(),
            }),
            capacity: self.effective.clone(),
            effective: self.effective.clone(),
        }
    }

    /// The sub-fleet of `servers`, given as ascending global ids: local
    /// server `i` is `servers[i]`, with its live capacity and effective
    /// rows and its static parameters. Every datacenter is kept, empty
    /// ones too, so [`DatacenterId`]s and datacenter rule checks mean the
    /// same as on `self`. The static table is rebuilt for the kept
    /// servers only.
    ///
    /// # Panics
    /// Panics if `servers` is empty, not strictly ascending, or names a
    /// server out of range.
    pub fn restrict(&self, servers: &[ServerId]) -> Self {
        assert!(
            !servers.is_empty(),
            "infrastructure needs at least one server"
        );
        assert!(
            servers.windows(2).all(|w| w[0] < w[1]),
            "restricted servers must be strictly ascending"
        );
        let last = servers[servers.len() - 1].index();
        assert!(
            last < self.server_count(),
            "server {last} out of range for {} servers",
            self.server_count()
        );
        let h = self.attr_count();
        let statics = &self.statics;
        let mut datacenters: Vec<Datacenter> = statics
            .datacenters
            .iter()
            .map(|dc| Datacenter {
                name: dc.name.clone(),
                first_server: 0,
                server_count: 0,
            })
            .collect();
        let mut params = Vec::with_capacity(servers.len());
        let mut server_dc = Vec::with_capacity(servers.len());
        let mut capacity = Vec::with_capacity(servers.len() * h);
        let mut effective = Vec::with_capacity(servers.len() * h);
        for &j in servers {
            let dc = statics.server_dc[j.index()];
            datacenters[dc.index()].server_count += 1;
            params.push(statics.servers[j.index()].clone());
            server_dc.push(dc);
            capacity.extend_from_slice(self.capacity.row(j.index()));
            effective.extend_from_slice(self.effective.row(j.index()));
        }
        // Global datacenters own consecutive ids, so the ascending kept
        // servers are grouped by datacenter in datacenter order.
        let mut first_server = 0;
        for dc in &mut datacenters {
            dc.first_server = first_server;
            first_server += dc.server_count;
        }
        Self {
            statics: Arc::new(StaticTable {
                attrs: statics.attrs.clone(),
                datacenters,
                servers: params,
                server_dc,
            }),
            capacity: Matrix::from_vec(servers.len(), h, capacity),
            effective: Matrix::from_vec(servers.len(), h, effective),
        }
    }

    /// The shared attribute set.
    #[inline]
    pub fn attrs(&self) -> &AttrSet {
        &self.statics.attrs
    }

    /// Number of attributes `h`.
    #[inline]
    pub fn attr_count(&self) -> usize {
        self.capacity.cols()
    }

    /// Number of datacenters `g`.
    #[inline]
    pub fn datacenter_count(&self) -> usize {
        self.statics.datacenters.len()
    }

    /// Number of servers `m` (global, across all datacenters).
    #[inline]
    pub fn server_count(&self) -> usize {
        self.capacity.rows()
    }

    /// The datacenters.
    pub fn datacenters(&self) -> &[Datacenter] {
        &self.statics.datacenters
    }

    /// The static parameters of every server, indexed by global
    /// [`ServerId`].
    pub fn servers(&self) -> &[ServerParams] {
        &self.statics.servers
    }

    /// Static parameters of server `j` (live capacity is
    /// [`Infrastructure::capacity_row`]).
    #[inline]
    pub fn server(&self, j: ServerId) -> &ServerParams {
        &self.statics.servers[j.index()]
    }

    /// Server `j` as a [`Server`] spec: its live raw capacity plus its
    /// static parameters.
    pub fn server_spec(&self, j: ServerId) -> Server {
        let s = self.server(j);
        Server {
            capacity: self.capacity_row(j).to_vec(),
            factor: s.factor.clone(),
            opex: s.opex,
            usage_cost: s.usage_cost,
            max_load: s.max_load.clone(),
            max_qos: s.max_qos.clone(),
        }
    }

    /// Owning datacenter of server `j`.
    #[inline]
    pub fn datacenter_of(&self, j: ServerId) -> DatacenterId {
        self.statics.server_dc[j.index()]
    }

    /// Live raw capacity row `P_j` of server `j`.
    #[inline]
    pub fn capacity_row(&self, j: ServerId) -> &[f64] {
        self.capacity.row(j.index())
    }

    /// Effective capacity `P_{jl} · F_{jl}` (cached).
    #[inline]
    pub fn effective_capacity(&self, j: ServerId, l: AttrId) -> f64 {
        *self.effective.get(j.index(), l.index())
    }

    /// Row of effective capacities for server `j`.
    #[inline]
    pub fn effective_row(&self, j: ServerId) -> &[f64] {
        self.effective.row(j.index())
    }

    /// The cached `m × h` effective capacity matrix `P ⊙ F`.
    #[inline]
    pub fn effective_matrix(&self) -> &Matrix<f64> {
        &self.effective
    }

    /// Iterator over all global server ids.
    pub fn server_ids(&self) -> impl Iterator<Item = ServerId> {
        (0..self.server_count()).map(ServerId)
    }

    /// Iterator over all datacenter ids.
    pub fn datacenter_ids(&self) -> impl Iterator<Item = DatacenterId> {
        (0..self.datacenter_count()).map(DatacenterId)
    }

    /// The provider capacity matrix `P` (`m × h`).
    pub fn capacity_matrix(&self) -> Matrix<f64> {
        self.capacity.clone()
    }

    /// The capacity-factor matrix `F` (`m × h`), materialised.
    pub fn factor_matrix(&self) -> Matrix<f64> {
        Matrix::from_fn(self.server_count(), self.attr_count(), |j, l| {
            self.statics.servers[j].factor[l]
        })
    }

    /// Adjusts server `j`'s raw capacity by `delta` per attribute
    /// (clamped at zero) and refreshes the cached effective row. This is
    /// the residual-capacity primitive of streaming fleet state: carving
    /// a VM's demand out of (or returning it to) a headroom
    /// infrastructure without rebuilding the whole substrate.
    ///
    /// # Panics
    /// Panics if `delta` does not have `h` attributes.
    pub fn adjust_capacity(&mut self, j: ServerId, delta: &[f64]) {
        let h = self.attr_count();
        assert_eq!(delta.len(), h, "delta must have {h} attributes");
        let row = self.capacity.row_mut(j.index());
        for (c, d) in row.iter_mut().zip(delta) {
            *c = (*c + d).max(0.0);
        }
        self.refresh_effective(j);
    }

    /// Overwrites server `j`'s raw capacity (clamped at zero per
    /// attribute) and refreshes the cached effective row.
    ///
    /// # Panics
    /// Panics if `capacity` does not have `h` attributes.
    pub fn set_capacity(&mut self, j: ServerId, capacity: &[f64]) {
        let h = self.attr_count();
        assert_eq!(capacity.len(), h, "capacity must have {h} attributes");
        let row = self.capacity.row_mut(j.index());
        for (c, &new) in row.iter_mut().zip(capacity) {
            *c = new.max(0.0);
        }
        self.refresh_effective(j);
    }

    /// Recomputes effective row `j` from the live capacity row.
    fn refresh_effective(&mut self, j: ServerId) {
        let factor = &self.statics.servers[j.index()].factor;
        let capacity = self.capacity.row(j.index());
        let row = self.effective.row_mut(j.index());
        for ((e, c), f) in row.iter_mut().zip(capacity).zip(factor) {
            *e = c * f;
        }
    }

    /// Total effective capacity of the whole infrastructure per attribute —
    /// used by scenario generators to target utilisation levels.
    pub fn total_effective_capacity(&self) -> Vec<f64> {
        let h = self.attr_count();
        let mut tot = vec![0.0; h];
        for j in 0..self.server_count() {
            for (l, t) in tot.iter_mut().enumerate() {
                *t += *self.effective.get(j, l);
            }
        }
        tot
    }
}

/// Convenience builder for a homogeneous server profile.
#[derive(Clone, Debug)]
pub struct ServerProfile {
    /// Capacity per attribute.
    pub capacity: Vec<f64>,
    /// Capacity factor per attribute.
    pub factor: Vec<f64>,
    /// Opex `E_j`.
    pub opex: f64,
    /// Usage cost `U_j`.
    pub usage_cost: f64,
    /// Max load knee per attribute.
    pub max_load: Vec<f64>,
    /// Max QoS per attribute.
    pub max_qos: Vec<f64>,
}

impl ServerProfile {
    /// A balanced commodity profile for `h` standard attributes:
    /// 32 vCPU, 128 GiB RAM (in MiB), 2 TiB disk (in GiB).
    pub fn commodity(h: usize) -> Self {
        let base = [32.0, 131_072.0, 2048.0];
        let capacity: Vec<f64> = (0..h)
            .map(|l| base.get(l).copied().unwrap_or(100.0))
            .collect();
        Self {
            capacity,
            factor: vec![0.9; h],
            opex: 10.0,
            usage_cost: 1.0,
            max_load: vec![0.8; h],
            max_qos: vec![0.99; h],
        }
    }

    /// Materialises one [`Server`] from the profile.
    pub fn build(&self) -> Server {
        Server {
            capacity: self.capacity.clone(),
            factor: self.factor.clone(),
            opex: self.opex,
            usage_cost: self.usage_cost,
            max_load: self.max_load.clone(),
            max_qos: self.max_qos.clone(),
        }
    }

    /// Materialises `n` identical servers.
    pub fn build_many(&self, n: usize) -> Vec<Server> {
        (0..n).map(|_| self.build()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_infra() -> Infrastructure {
        let attrs = AttrSet::standard();
        let profile = ServerProfile::commodity(3);
        Infrastructure::new(
            attrs,
            vec![
                ("dc0".into(), profile.build_many(2)),
                ("dc1".into(), profile.build_many(3)),
            ],
        )
    }

    #[test]
    fn global_server_numbering_spans_datacenters() {
        let infra = tiny_infra();
        assert_eq!(infra.server_count(), 5);
        assert_eq!(infra.datacenter_count(), 2);
        assert_eq!(infra.datacenter_of(ServerId(0)), DatacenterId(0));
        assert_eq!(infra.datacenter_of(ServerId(1)), DatacenterId(0));
        assert_eq!(infra.datacenter_of(ServerId(2)), DatacenterId(1));
        assert_eq!(infra.datacenter_of(ServerId(4)), DatacenterId(1));
    }

    #[test]
    fn datacenter_server_iteration_matches_ownership() {
        let infra = tiny_infra();
        let dc1 = &infra.datacenters()[1];
        let ids: Vec<_> = dc1.servers().map(|s| s.index()).collect();
        assert_eq!(ids, vec![2, 3, 4]);
        assert!(dc1.contains(ServerId(3)));
        assert!(!dc1.contains(ServerId(1)));
    }

    #[test]
    fn effective_capacity_applies_factor() {
        let infra = tiny_infra();
        let j = ServerId(0);
        let l = AttrId(0);
        let cap = infra.capacity_row(j)[0];
        let factor = infra.server(j).factor[0];
        assert!((infra.effective_capacity(j, l) - cap * factor).abs() < 1e-12);
        // commodity: 32 vCPU * 0.9 = 28.8
        assert!((infra.effective_capacity(j, l) - 28.8).abs() < 1e-12);
    }

    #[test]
    fn capacity_and_factor_matrices_have_model_shape() {
        let infra = tiny_infra();
        let p = infra.capacity_matrix();
        let f = infra.factor_matrix();
        assert_eq!((p.rows(), p.cols()), (5, 3));
        assert_eq!((f.rows(), f.cols()), (5, 3));
        assert!(p.is_nonnegative());
        assert!(f.is_nonnegative());
    }

    #[test]
    fn total_effective_capacity_sums_servers() {
        let infra = tiny_infra();
        let tot = infra.total_effective_capacity();
        assert!((tot[0] - 5.0 * 28.8).abs() < 1e-9);
    }

    #[test]
    fn adjust_capacity_clamps_and_refreshes_effective() {
        let mut infra = tiny_infra();
        let j = ServerId(1);
        infra.adjust_capacity(j, &[-2.0, -1024.0, 0.0]);
        assert_eq!(infra.capacity_row(j)[0], 30.0);
        assert!((infra.effective_capacity(j, AttrId(0)) - 27.0).abs() < 1e-12);
        // Over-subtracting clamps to zero instead of going negative.
        infra.adjust_capacity(j, &[-1000.0, 0.0, 0.0]);
        assert_eq!(infra.capacity_row(j)[0], 0.0);
        assert_eq!(infra.effective_capacity(j, AttrId(0)), 0.0);
        // Returning capacity restores headroom.
        infra.adjust_capacity(j, &[32.0, 1024.0, 0.0]);
        assert_eq!(infra.capacity_row(j)[0], 32.0);
        assert!((infra.effective_capacity(j, AttrId(0)) - 28.8).abs() < 1e-12);
    }

    #[test]
    fn set_capacity_overwrites_a_row() {
        let mut infra = tiny_infra();
        let j = ServerId(0);
        infra.set_capacity(j, &[10.0, 1024.0, -5.0]);
        assert_eq!(infra.capacity_row(j), [10.0, 1024.0, 0.0]);
        assert!((infra.effective_capacity(j, AttrId(0)) - 9.0).abs() < 1e-12);
    }

    /// A fleet whose servers all differ: capacity row `j` starts at `j`.
    fn distinct_infra() -> Infrastructure {
        let mut infra = tiny_infra();
        for j in 0..infra.server_count() {
            let cpu = 10.0 + j as f64;
            infra.set_capacity(ServerId(j), &[cpu, 1024.0 * cpu, 100.0]);
        }
        infra
    }

    #[test]
    fn restrict_keeps_rows_and_parameters_of_the_listed_servers() {
        let infra = distinct_infra();
        let kept = [ServerId(1), ServerId(3), ServerId(4)];
        let sub = infra.restrict(&kept);
        assert_eq!(sub.server_count(), 3);
        assert_eq!(sub.attr_count(), 3);
        for (local, &j) in kept.iter().enumerate() {
            let l = ServerId(local);
            assert_eq!(sub.capacity_row(l), infra.capacity_row(j));
            assert_eq!(sub.effective_row(l), infra.effective_row(j));
            assert_eq!(sub.server(l), infra.server(j));
        }
        // Static parameters come from the source, not from a shared table.
        let mut factored = ServerProfile::commodity(3).build();
        factored.factor = vec![0.5; 3];
        let mixed = Infrastructure::new(
            AttrSet::standard(),
            vec![(
                "dc".into(),
                vec![ServerProfile::commodity(3).build(), factored],
            )],
        );
        let only = mixed.restrict(&[ServerId(1)]);
        assert_eq!(only.server(ServerId(0)).factor, vec![0.5; 3]);
        assert_eq!(only.effective_capacity(ServerId(0), AttrId(0)), 16.0);
    }

    #[test]
    fn restrict_keeps_every_datacenter_with_local_ranges() {
        let infra = tiny_infra();
        // dc0 = {0, 1}, dc1 = {2, 3, 4}; keep 1, 2 and 4.
        let sub = infra.restrict(&[ServerId(1), ServerId(2), ServerId(4)]);
        assert_eq!(sub.datacenter_count(), 2);
        let dcs = sub.datacenters();
        assert_eq!((dcs[0].first_server, dcs[0].server_count), (0, 1));
        assert_eq!((dcs[1].first_server, dcs[1].server_count), (1, 2));
        assert_eq!(dcs[1].name, "dc1");
        assert_eq!(sub.datacenter_of(ServerId(0)), DatacenterId(0));
        assert_eq!(sub.datacenter_of(ServerId(1)), DatacenterId(1));
        assert_eq!(sub.datacenter_of(ServerId(2)), DatacenterId(1));
        // A datacenter with no kept server stays, empty.
        let east = infra.restrict(&[ServerId(3)]);
        assert_eq!(east.datacenter_count(), 2);
        assert_eq!(east.datacenters()[0].server_count, 0);
        assert_eq!(east.datacenters()[0].servers().count(), 0);
        assert_eq!(east.datacenter_of(ServerId(0)), DatacenterId(1));
        assert!(east.datacenters()[1].contains(ServerId(0)));
    }

    #[test]
    fn restrict_to_every_server_is_observably_the_original() {
        let infra = distinct_infra();
        let all: Vec<ServerId> = infra.server_ids().collect();
        let sub = infra.restrict(&all);
        assert_eq!(sub.attrs(), infra.attrs());
        assert_eq!(sub.datacenters(), infra.datacenters());
        assert_eq!(sub.servers(), infra.servers());
        assert_eq!(sub.capacity_matrix(), infra.capacity_matrix());
        assert_eq!(sub.effective_matrix(), infra.effective_matrix());
        assert_eq!(sub.factor_matrix(), infra.factor_matrix());
        assert_eq!(
            sub.total_effective_capacity(),
            infra.total_effective_capacity()
        );
        for j in infra.server_ids() {
            assert_eq!(sub.datacenter_of(j), infra.datacenter_of(j));
            assert_eq!(sub.server_spec(j), infra.server_spec(j));
        }
    }

    #[test]
    fn restricted_fleet_owns_its_capacity() {
        let infra = tiny_infra();
        let mut sub = infra.restrict(&[ServerId(0), ServerId(2)]);
        sub.set_capacity(ServerId(1), &[0.0; 3]);
        assert_eq!(infra.capacity_row(ServerId(2))[0], 32.0);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn restrict_rejects_unordered_servers() {
        tiny_infra().restrict(&[ServerId(2), ServerId(1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn restrict_rejects_unknown_servers() {
        tiny_infra().restrict(&[ServerId(5)]);
    }

    #[test]
    fn server_validation_rejects_bad_bounds() {
        let mut s = ServerProfile::commodity(3).build();
        s.max_load[1] = 1.0; // must be < 1
        assert!(s.validate(3).is_err());
        let mut s2 = ServerProfile::commodity(3).build();
        s2.factor[0] = 0.0; // must be > 0
        assert!(s2.validate(3).is_err());
        let mut s3 = ServerProfile::commodity(3).build();
        s3.opex = f64::NAN;
        assert!(s3.validate(3).is_err());
    }

    #[test]
    #[should_panic(expected = "invalid server")]
    fn infrastructure_rejects_invalid_servers() {
        let mut bad = ServerProfile::commodity(3).build();
        bad.capacity = vec![1.0]; // wrong h
        let _ = Infrastructure::new(AttrSet::standard(), vec![("dc".into(), vec![bad])]);
    }

    #[test]
    fn wrong_attr_count_is_reported() {
        let s = ServerProfile::commodity(2).build();
        assert!(s.validate(3).is_err());
    }
}
