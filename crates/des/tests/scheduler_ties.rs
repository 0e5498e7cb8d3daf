//! Tie order of the continuous-time scheduler: arrivals that land exactly
//! on a window boundary or on an admitted tenant's departure are handled
//! in the order they were scheduled (FIFO among equal timestamps). This
//! pins, on a hand-made arrival script, which window decides each arrival
//! and how arrivals interleave with departures and boundaries.

use cpo_core::prelude::{Allocator, RoundRobinAllocator};
use cpo_des::prelude::*;
use cpo_model::attr::AttrSet;
use cpo_model::prelude::*;
use cpo_platform::prelude::{FleetExecutor, TenantId, WindowReport};
use std::cell::RefCell;
use std::rc::Rc;

/// What the run did, in the order it happened.
#[derive(Debug, PartialEq)]
enum Seen {
    /// Arrival `i` was handled (written into the open window).
    Arrived(usize),
    /// A window closed, deciding these arrivals.
    Window(Vec<usize>),
    /// Tenant `i` (registered from arrival `i`) departed.
    Departed(u64),
}

type Log = Rc<RefCell<Vec<Seen>>>;

/// Replays `(at, holding)` pairs, one single-VM request each, tagged by
/// its CPU demand `1 + i`. The scheduler pulls the next arrival right
/// after handling the previous one, so every pull after the first logs
/// the previous arrival as handled.
struct Script {
    arrivals: Vec<(f64, f64)>,
    pulled: usize,
    log: Log,
}

impl ArrivalSource for Script {
    fn next_arrival(&mut self) -> Option<Arrival> {
        if self.pulled > 0 {
            self.log.borrow_mut().push(Seen::Arrived(self.pulled - 1));
        }
        let &(at, holding) = self.arrivals.get(self.pulled)?;
        let i = self.pulled;
        self.pulled += 1;
        let mut batch = RequestBatch::new();
        let cpu = 1.0 + i as f64;
        batch.push_request(vec![cpo_model::request::vm_spec(cpu, 1024.0, 10.0)], vec![]);
        Some(Arrival {
            at: SimTime::new(at),
            request: ArrivalRequest::Batch(batch),
            holding,
            key: i as u64,
        })
    }
}

/// A fleet backend that logs every window and departure.
struct Recording {
    fleet: FleetExecutor,
    log: Log,
}

impl WindowBackend for Recording {
    fn register_arrivals(&mut self, arrivals: &RequestBatch) -> Vec<TenantId> {
        self.fleet.register_arrivals(arrivals)
    }
    fn bind_request_keys(&mut self, ids: &[TenantId], keys: &[u64]) {
        self.fleet.bind_request_keys(ids, keys)
    }
    fn execute_window(
        &mut self,
        allocator: &dyn Allocator,
        arrivals: &RequestBatch,
        ids: &[TenantId],
    ) -> (WindowReport, Vec<TenantId>) {
        let decided = (0..arrivals.vm_count())
            .map(|k| arrivals.demand(VmId(k))[0] as usize - 1)
            .collect();
        self.log.borrow_mut().push(Seen::Window(decided));
        self.fleet.execute_window(allocator, arrivals, ids)
    }
    fn depart_tenant(&mut self, id: TenantId) -> bool {
        self.log.borrow_mut().push(Seen::Departed(id.0));
        self.fleet.depart_tenant(id)
    }
    fn force_failure(&mut self, server: ServerId) -> bool {
        self.fleet.force_failure(server)
    }
    fn force_repair(&mut self, server: ServerId) -> bool {
        self.fleet.force_repair(server)
    }
    fn server_count(&self) -> usize {
        self.fleet.server_count()
    }
    fn resident_requests(&self) -> usize {
        self.fleet.resident_requests()
    }
}

#[test]
fn arrivals_on_boundaries_and_departures_keep_fifo_order() {
    use Seen::*;
    // Window length 1 and instant solves: window w closes at t = w, and
    // a tenant admitted there departs at exactly w + holding.
    let arrivals = vec![
        (0.5, 1.5),  // 0: window 1, departs at 2.5
        (1.0, 3.0),  // 1: on boundary 1, queued after it; departs at 5.0
        (1.25, 1.0), // 2: window 2, departs at 3.0
        (3.0, 1.0),  // 3: queued at 1.25, before boundary 3 and 2's departure
        (3.0, 2.0),  // 4: queued at 3.0, after both
        (4.0, 1.0),  // 5: on boundary 4 and 3's departure, queued after both
    ];
    let log: Log = Rc::default();
    let infra = Infrastructure::new(
        AttrSet::standard(),
        vec![("dc".into(), ServerProfile::commodity(3).build_many(4))],
    );
    let backend = Recording {
        fleet: FleetExecutor::new(infra),
        log: log.clone(),
    };
    let source = Script {
        arrivals,
        pulled: 0,
        log: log.clone(),
    };
    let config = DesConfig {
        window_length: 1.0,
        latency: LatencyModel::Fixed(0.0),
        failures: None,
        seed: 0,
        solve_deadline: None,
    };
    let mut sched = WindowedScheduler::with_backend(backend, config, source);
    let report = sched.run(&RoundRobinAllocator, 6.5);
    assert_eq!(report.total_admitted(), 6);
    assert_eq!(report.end_time, 6.0);
    let expected = vec![
        Arrived(0),
        Window(vec![0]),
        Arrived(1),
        Arrived(2),
        Window(vec![1, 2]),
        Departed(0),
        Arrived(3),
        Departed(2),
        Window(vec![3]),
        Arrived(4),
        Departed(3),
        Window(vec![4]),
        Arrived(5),
        Departed(1),
        Window(vec![5]),
        Departed(4),
        Departed(5),
        Window(vec![]),
    ];
    assert_eq!(*log.borrow(), expected);
}
