//! Outside-in timing wrappers around the layers the scheduler drives.
//!
//! Each wrapper implements the trait of the type it wraps, so the
//! unchanged `WindowedScheduler` drives it exactly like the real thing:
//!
//! * [`TimedSource`] times `ArrivalSource::next_arrival` (the ingest
//!   layer: trace parsing, amplification, request generation);
//! * [`TimedBackend`] times every `WindowBackend` call that does work —
//!   `register_arrivals`, `execute_window`, `depart_tenant` and
//!   `force_failure`/`force_repair`;
//! * [`TimedAllocator`] records the interval and thread of every
//!   `allocate`/`allocate_with_deadline` call. It is `Sync` and also runs
//!   on the sharded scheduler's solver threads.
//!
//! `execute_window` is always timed, because its wall time is the
//! end-to-end decision latency. Everything else is timed only when the
//! recorder is traced. Per-arrival and per-departure calls are folded
//! into per-window call counts and busy times, so memory grows with the
//! number of windows, not with the number of events.

use cpo_core::prelude::{AllocationOutcome, Allocator};
use cpo_des::prelude::{Arrival, ArrivalSource, WindowBackend};
use cpo_model::prelude::{AllocationProblem, Deadline, RequestBatch, ServerId};
use cpo_platform::prelude::{TenantId, WindowReport};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Call count and summed wall time of one wrapped call site.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Busy {
    /// Calls made.
    pub calls: u64,
    /// Summed wall time of those calls, in nanoseconds.
    pub ns: u64,
}

impl Busy {
    fn add(&mut self, start: Instant) {
        self.calls += 1;
        self.ns += start.elapsed().as_nanos() as u64;
    }
}

/// What the wrappers saw between two window decisions: the calls made
/// since the previous `execute_window`, then the decision itself.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WindowTrace {
    /// `next_arrival` calls.
    pub source: Busy,
    /// `register_arrivals` calls.
    pub register: Busy,
    /// `depart_tenant` calls.
    pub depart: Busy,
    /// `force_failure` and `force_repair` calls.
    pub failure: Busy,
    /// The `execute_window` interval in nanoseconds since the recorder's
    /// origin; `None` for the tail recorded after the last decision.
    pub execute: Option<(u64, u64)>,
}

/// Collects [`WindowTrace`]s for one scheduler run. Shared by the
/// source and backend wrappers of that run.
pub struct Recorder {
    origin: Instant,
    traced: bool,
    current: WindowTrace,
    windows: Vec<WindowTrace>,
}

impl Recorder {
    /// A recorder whose spans count from now; `traced` switches on the
    /// per-layer timing beyond `execute_window`.
    pub fn shared(traced: bool) -> Rc<RefCell<Recorder>> {
        Rc::new(RefCell::new(Recorder {
            origin: Instant::now(),
            traced,
            current: WindowTrace::default(),
            windows: Vec::new(),
        }))
    }

    /// The instant span offsets count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn offset(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// The per-window traces, plus a final tail entry without an
    /// `execute` interval when calls followed the last decision.
    pub fn finish(&mut self) -> Vec<WindowTrace> {
        let tail = std::mem::take(&mut self.current);
        let mut windows = std::mem::take(&mut self.windows);
        if tail != WindowTrace::default() {
            windows.push(tail);
        }
        windows
    }
}

/// Runs `f`, charging its wall time to the call site `site` picks from
/// the current window — or just runs it when the recorder is untraced.
fn timed<R>(
    rec: &RefCell<Recorder>,
    traced: bool,
    site: fn(&mut WindowTrace) -> &mut Busy,
    f: impl FnOnce() -> R,
) -> R {
    if !traced {
        return f();
    }
    let start = Instant::now();
    let out = f();
    site(&mut rec.borrow_mut().current).add(start);
    out
}

/// Times an [`ArrivalSource`] and counts what it emitted.
pub struct TimedSource<S> {
    inner: S,
    rec: Rc<RefCell<Recorder>>,
    traced: bool,
    emitted: u64,
    last_at: f64,
}

impl<S> TimedSource<S> {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: S, rec: Rc<RefCell<Recorder>>) -> Self {
        let traced = rec.borrow().traced;
        Self {
            inner,
            rec,
            traced,
            emitted: 0,
            last_at: 0.0,
        }
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Arrivals emitted at or before `horizon`. The scheduler pulls one
    /// arrival at a time and drops the first one past the horizon, so
    /// these are exactly the arrivals it queued.
    pub fn emitted_by(&self, horizon: f64) -> u64 {
        self.emitted - u64::from(self.last_at > horizon)
    }
}

impl<S: ArrivalSource> ArrivalSource for TimedSource<S> {
    fn next_arrival(&mut self) -> Option<Arrival> {
        let inner = &mut self.inner;
        let arrival = timed(
            &self.rec,
            self.traced,
            |w| &mut w.source,
            || inner.next_arrival(),
        );
        if let Some(a) = &arrival {
            self.emitted += 1;
            self.last_at = a.at.as_f64();
        }
        arrival
    }
}

/// Times a [`WindowBackend`].
pub struct TimedBackend<B> {
    inner: B,
    rec: Rc<RefCell<Recorder>>,
    traced: bool,
}

impl<B> TimedBackend<B> {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: B, rec: Rc<RefCell<Recorder>>) -> Self {
        let traced = rec.borrow().traced;
        Self { inner, rec, traced }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }
}

impl<B: WindowBackend> WindowBackend for TimedBackend<B> {
    fn register_arrivals(&mut self, arrivals: &RequestBatch) -> Vec<TenantId> {
        let inner = &mut self.inner;
        timed(
            &self.rec,
            self.traced,
            |w| &mut w.register,
            || inner.register_arrivals(arrivals),
        )
    }

    // Called only while the flight recorder is on, which the benchmark
    // leaves off; any time it took would land in `des.self`.
    fn bind_request_keys(&mut self, ids: &[TenantId], keys: &[u64]) {
        self.inner.bind_request_keys(ids, keys)
    }

    fn execute_window(
        &mut self,
        allocator: &dyn Allocator,
        arrivals: &RequestBatch,
        ids: &[TenantId],
    ) -> (WindowReport, Vec<TenantId>) {
        let start = Instant::now();
        let out = self.inner.execute_window(allocator, arrivals, ids);
        let end = Instant::now();
        let mut rec = self.rec.borrow_mut();
        let interval = (rec.offset(start), rec.offset(end));
        let mut window = std::mem::take(&mut rec.current);
        window.execute = Some(interval);
        rec.windows.push(window);
        out
    }

    fn depart_tenant(&mut self, id: TenantId) -> bool {
        let inner = &mut self.inner;
        timed(
            &self.rec,
            self.traced,
            |w| &mut w.depart,
            || inner.depart_tenant(id),
        )
    }

    fn force_failure(&mut self, server: ServerId) -> bool {
        let inner = &mut self.inner;
        timed(
            &self.rec,
            self.traced,
            |w| &mut w.failure,
            || inner.force_failure(server),
        )
    }

    fn force_repair(&mut self, server: ServerId) -> bool {
        let inner = &mut self.inner;
        timed(
            &self.rec,
            self.traced,
            |w| &mut w.failure,
            || inner.force_repair(server),
        )
    }

    fn server_count(&self) -> usize {
        self.inner.server_count()
    }

    fn resident_requests(&self) -> usize {
        self.inner.resident_requests()
    }
}

/// One allocator call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SolveSpan {
    /// Start, in nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Small process-unique index of the calling thread.
    pub thread: u64,
    /// VMs in the problem solved.
    pub vms: usize,
    /// Objective evaluations the allocator reported.
    pub evaluations: usize,
}

/// A process-unique index for the calling thread, assigned on first use.
fn thread_index() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static INDEX: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    INDEX.with(|i| *i)
}

/// Records every allocator call of a run. `Sync`, so the sharded
/// scheduler's solver threads record through it too.
pub struct TimedAllocator<'a> {
    inner: &'a dyn Allocator,
    origin: Instant,
    spans: Mutex<Vec<SolveSpan>>,
}

impl<'a> TimedAllocator<'a> {
    /// Wraps `inner`; span offsets count from `origin`.
    pub fn new(inner: &'a dyn Allocator, origin: Instant) -> Self {
        Self {
            inner,
            origin,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// The recorded calls, in completion order.
    pub fn into_spans(self) -> Vec<SolveSpan> {
        self.spans.into_inner().expect("a solver thread panicked")
    }

    fn record(
        &self,
        problem: &AllocationProblem,
        solve: impl FnOnce() -> AllocationOutcome,
    ) -> AllocationOutcome {
        let start = Instant::now();
        let outcome = solve();
        let end = Instant::now();
        let span = SolveSpan {
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
            thread: thread_index(),
            vms: problem.batch().vm_count(),
            evaluations: outcome.evaluations,
        };
        self.spans
            .lock()
            .expect("a solver thread panicked")
            .push(span);
        outcome
    }
}

impl Allocator for TimedAllocator<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn allocate(&self, problem: &AllocationProblem) -> AllocationOutcome {
        self.record(problem, || self.inner.allocate(problem))
    }

    fn allocate_with_deadline(
        &self,
        problem: &AllocationProblem,
        deadline: Deadline,
    ) -> AllocationOutcome {
        self.record(problem, || {
            self.inner.allocate_with_deadline(problem, deadline)
        })
    }
}
