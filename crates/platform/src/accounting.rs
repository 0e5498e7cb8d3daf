//! Per-window and whole-run accounting.

use std::time::Duration;

/// Metrics of one scheduling window.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowReport {
    /// Window index.
    pub window: u64,
    /// New requests that arrived.
    pub arrivals: usize,
    /// Requests admitted.
    pub admitted: usize,
    /// Requests rejected.
    pub rejected: usize,
    /// Resources migrated by the reconfiguration plan.
    pub migrations: usize,
    /// Migration cost paid (Σ M_k over moved resources).
    pub migration_cost: f64,
    /// Provider cost of the post-window placement (usage + opex, Eq. 22).
    pub provider_cost: f64,
    /// Downtime/QoS penalty of the post-window placement (Eq. 23).
    pub downtime_cost: f64,
    /// Tenants running at window close.
    pub running_tenants: usize,
    /// Resources running at window close.
    pub running_vms: usize,
    /// Active (non-empty) servers.
    pub active_servers: usize,
    /// Servers offline (failed) during this window.
    pub offline_servers: usize,
    /// Resources still stranded on offline servers after the window (the
    /// reconfiguration plan could not move them anywhere).
    pub stranded_vms: usize,
    /// Peak fabric link utilisation (0 when no network model is attached).
    pub fabric_peak_utilization: f64,
    /// East-west flows the fabric could not admit this window.
    pub denied_flows: usize,
    /// Allocator time for the window. Unsharded, the wall-clock time of
    /// the solve. Sharded, the sum over the window's rounds of the slowest
    /// part's `allocate` plus the commit loop, as if the parts had solved
    /// side by side; they solve in order on the calling thread.
    pub solve_time: Duration,
}

/// Aggregate over a whole simulation run.
#[derive(Clone, Debug, Default)]
pub struct SimReport {
    /// The per-window reports in order.
    pub windows: Vec<WindowReport>,
}

impl SimReport {
    /// Total arrivals across the run.
    pub fn total_arrivals(&self) -> usize {
        self.windows.iter().map(|w| w.arrivals).sum()
    }

    /// Total rejections across the run.
    pub fn total_rejected(&self) -> usize {
        self.windows.iter().map(|w| w.rejected).sum()
    }

    /// Overall rejection rate.
    pub fn rejection_rate(&self) -> f64 {
        let total = self.total_arrivals();
        if total == 0 {
            0.0
        } else {
            self.total_rejected() as f64 / total as f64
        }
    }

    /// Total migrations across the run.
    pub fn total_migrations(&self) -> usize {
        self.windows.iter().map(|w| w.migrations).sum()
    }

    /// Mean provider cost per window.
    pub fn mean_provider_cost(&self) -> f64 {
        if self.windows.is_empty() {
            0.0
        } else {
            self.windows.iter().map(|w| w.provider_cost).sum::<f64>() / self.windows.len() as f64
        }
    }

    /// Total solve time across windows.
    pub fn total_solve_time(&self) -> Duration {
        self.windows.iter().map(|w| w.solve_time).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(i: u64, arrivals: usize, rejected: usize) -> WindowReport {
        WindowReport {
            window: i,
            arrivals,
            admitted: arrivals - rejected,
            rejected,
            migrations: 1,
            migration_cost: 2.0,
            provider_cost: 10.0 * (i + 1) as f64,
            downtime_cost: 0.0,
            running_tenants: arrivals,
            running_vms: arrivals,
            active_servers: 1,
            offline_servers: 0,
            stranded_vms: 0,
            fabric_peak_utilization: 0.0,
            denied_flows: 0,
            solve_time: Duration::from_millis(5),
        }
    }

    #[test]
    fn aggregates_sum_windows() {
        let report = SimReport {
            windows: vec![window(0, 10, 2), window(1, 6, 1)],
        };
        assert_eq!(report.total_arrivals(), 16);
        assert_eq!(report.total_rejected(), 3);
        assert!((report.rejection_rate() - 3.0 / 16.0).abs() < 1e-12);
        assert_eq!(report.total_migrations(), 2);
        assert!((report.mean_provider_cost() - 15.0).abs() < 1e-12);
        assert_eq!(report.total_solve_time(), Duration::from_millis(10));
    }

    #[test]
    fn empty_run_is_well_defined() {
        let report = SimReport::default();
        assert_eq!(report.rejection_rate(), 0.0);
        assert_eq!(report.mean_provider_cost(), 0.0);
    }
}
