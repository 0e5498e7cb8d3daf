//! `cpo-obs` — zero-dependency observability for the CPO workspace.
//!
//! Structured spans with nested timing, monotonic counters, gauges, and
//! log-linear histograms behind one thread-safe global registry that is
//! a no-op when disabled (the default): every instrumentation entry
//! point costs a single relaxed atomic load and performs no allocation
//! until [`enable`] is called. Two exporters turn the recorded data into
//! files: [`metrics_json_lines`] writes the same tagged JSON-lines shape
//! as the platform event log (`EventLog::to_json_lines` in
//! `cpo_platform::lifecycle`), and [`chrome_trace`] writes the Chrome
//! trace-event format for flame-style inspection in `chrome://tracing`
//! or Perfetto. On top of the point-in-time registry, [`series`] records
//! constant-memory time series (per-window fleet-health probes,
//! downsampling rings) and [`dash`] renders them as a self-contained
//! HTML dashboard or an ANSI terminal summary.
//!
//! # Quickstart
//!
//! ```
//! cpo_obs::enable();
//! {
//!     let mut sp = cpo_obs::span!("nsga3.generation", gen = 7u64);
//!     sp.field("feasible", 12u64);
//!     cpo_obs::counter_add("cp.propagations", 42);
//!     cpo_obs::gauge_set("des.queue_depth", 17.0);
//! } // span records here
//! let snap = cpo_obs::snapshot();
//! assert_eq!(snap.counters["cp.propagations"], 42);
//! let _trace_json = cpo_obs::chrome_trace(&snap);
//! let _metrics_jsonl = cpo_obs::metrics_json_lines(&snap);
//! # cpo_obs::disable();
//! # cpo_obs::reset();
//! ```
//!
//! # Naming convention
//!
//! Dotted lower-case names, `<subsystem>.<what>`: `nsga3.generation`,
//! `cp.propagations`, `tabu.iterations`, `allocator.allocate`,
//! `des.queue_depth`. Span durations are additionally folded into a
//! histogram named `span.<name>.us`.

#![warn(missing_docs)]

pub mod dash;
mod event;
mod export;
pub mod flight;
mod histogram;
pub mod json;
pub mod prof;
mod registry;
pub mod series;
mod span;
pub mod timeline;

pub use event::{FieldValue, TraceEvent, TraceKind};
pub use export::{
    chrome_trace, events_from_json_lines, events_to_json_lines, metrics_json_lines,
    TRACE_SCHEMA_VERSION,
};
pub use histogram::{Histogram, HistogramSummary};
pub use registry::{
    counter_add, disable, enable, gauge_set, is_enabled, now_us, record_value, reset, snapshot,
    Snapshot,
};
pub use span::{span, SpanGuard};

/// Serialises the unit tests that touch the process-global flight ring
/// or profiler state. One lock for both: the profiler's tests record
/// through [`flight::record`], which writes the ring whenever a
/// concurrent flight test has the recorder enabled. A poisoned lock
/// (an earlier test panicked while holding it) is taken over, so one
/// failure does not cascade.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
