//! Bridging trace events into the discrete-event kernel.
//!
//! [`TraceArrivalSource`] adapts any [`DatasetReader`] to
//! `cpo_des::sources::ArrivalSource`: each
//! [`TraceEvent`](crate::event::TraceEvent) becomes one timestamped
//! arrival whose request body is a heap-free
//! `cpo_scenario::arrival_gen::TraceRequest` record from
//! `ArrivalSpec::trace_record`. The scheduler writes it straight into its
//! window batch with the same writer `ArrivalSpec::trace_request_at`
//! uses, so trace-fed requests mint flight-recorder correlation uids and
//! draw cost parameters exactly like synthetic ones, and emitting one
//! allocates nothing.
//!
//! Reader errors cannot propagate through the infallible
//! `ArrivalSource` contract, so the source ends the stream at the first
//! error and parks it in [`TraceArrivalSource::error`] for the driver to
//! inspect after the run.

use crate::event::TraceError;
use crate::reader::DatasetReader;
use cpo_des::sources::{Arrival, ArrivalRequest, ArrivalSource};
use cpo_des::time::SimTime;
use cpo_scenario::arrival_gen::ArrivalSpec;

/// Streams a [`DatasetReader`] as DES arrivals.
pub struct TraceArrivalSource<D: DatasetReader> {
    reader: D,
    spec: ArrivalSpec,
    seed: u64,
    index: u64,
    watermark: f64,
    error: Option<TraceError>,
}

impl<D: DatasetReader> TraceArrivalSource<D> {
    /// Wraps `reader`. The spec's cost ranges parameterise what the trace
    /// does not record (QoS guarantees, downtime and migration costs);
    /// its `rate` and `lifetime` fields are ignored — the trace dictates
    /// timing and holding.
    pub fn new(reader: D, spec: ArrivalSpec, seed: u64) -> Self {
        Self {
            reader,
            spec,
            seed,
            index: 0,
            watermark: 0.0,
            error: None,
        }
    }

    /// The first reader error, if the stream ended on one.
    pub fn error(&self) -> Option<&TraceError> {
        self.error.as_ref()
    }

    /// Arrivals emitted so far.
    pub fn emitted(&self) -> u64 {
        self.index
    }

    /// Rows the underlying reader skipped under its malformed-row policy.
    pub fn skipped_rows(&self) -> usize {
        self.reader.skipped_rows()
    }
}

impl<D: DatasetReader> ArrivalSource for TraceArrivalSource<D> {
    fn next_arrival(&mut self) -> Option<Arrival> {
        if self.error.is_some() {
            return None;
        }
        let event = match self.reader.next_event()? {
            Ok(e) => e,
            Err(e) => {
                self.error = Some(e);
                return None;
            }
        };
        let row = self
            .spec
            .trace_record(self.seed, self.index, event.demand(), event.vm_count);
        // Defensive monotone clamp: readers should already be sorted
        // (or wrapped in `Sorted`), but the kernel's event queue panics
        // on past times, so never let a regression through.
        self.watermark = self.watermark.max(event.at.max(0.0));
        let key = self.index;
        self.index += 1;
        Some(Arrival {
            at: SimTime::new(self.watermark),
            request: ArrivalRequest::Trace(row),
            holding: event.holding.max(0.0),
            key,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use crate::reader::VecReader;
    use cpo_model::prelude::VmId;

    fn ev(at: f64, vm_count: usize, holding: f64) -> TraceEvent {
        TraceEvent {
            at,
            id: 0,
            vm_count,
            cpu: 2.0,
            ram: 4096.0,
            disk: 40.0,
            holding,
        }
    }

    #[test]
    fn events_become_keyed_arrivals() {
        let events = vec![ev(0.0, 1, 60.0), ev(5.0, 3, 0.0), ev(5.0, 2, 30.0)];
        let mut src = TraceArrivalSource::new(VecReader::new(events), ArrivalSpec::default(), 7);
        let a = src.next_arrival().unwrap();
        assert_eq!(a.key, 0);
        assert_eq!(a.request.vm_count(), 1);
        assert_eq!(a.holding, 60.0);
        let b = src.next_arrival().unwrap();
        assert_eq!(b.key, 1);
        assert_eq!(b.request.vm_count(), 3, "vm_count fans out");
        assert_eq!(b.holding, 0.0, "zero-duration VMs are legal");
        let body = b.request.into_batch();
        assert_eq!(body.demand(VmId(2)), &[2.0, 4096.0, 40.0]);
        // The record writes what the standalone builder builds.
        let spec = ArrivalSpec::default();
        assert_eq!(body, spec.trace_request_at(7, 1, &[2.0, 4096.0, 40.0], 3));
        let c = src.next_arrival().unwrap();
        assert_eq!(c.at, b.at, "simultaneous arrivals are allowed");
        assert!(src.next_arrival().is_none());
        assert_eq!(src.emitted(), 3);
        assert!(src.error().is_none());
    }

    #[test]
    fn stream_is_deterministic_under_seed() {
        let events = vec![ev(0.0, 2, 10.0), ev(1.0, 1, 20.0)];
        let mut a =
            TraceArrivalSource::new(VecReader::new(events.clone()), ArrivalSpec::default(), 9);
        let mut b = TraceArrivalSource::new(VecReader::new(events), ArrivalSpec::default(), 9);
        while let (Some(x), Some(y)) = (a.next_arrival(), b.next_arrival()) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.key, y.key);
            assert_eq!(x.request.into_batch(), y.request.into_batch());
        }
    }

    #[test]
    fn reader_error_parks_and_ends_the_stream() {
        struct FailAfterOne {
            emitted: bool,
        }
        impl DatasetReader for FailAfterOne {
            fn next_event(&mut self) -> Option<Result<TraceEvent, TraceError>> {
                if self.emitted {
                    Some(Err(TraceError::OutOfOrder {
                        line: 0,
                        at: 1.0,
                        watermark: 2.0,
                    }))
                } else {
                    self.emitted = true;
                    Some(Ok(ev(0.0, 1, 5.0)))
                }
            }
        }
        let mut src =
            TraceArrivalSource::new(FailAfterOne { emitted: false }, ArrivalSpec::default(), 1);
        assert!(src.next_arrival().is_some());
        assert!(src.next_arrival().is_none());
        assert!(matches!(src.error(), Some(TraceError::OutOfOrder { .. })));
        assert!(src.next_arrival().is_none(), "the stream stays ended");
    }

    #[test]
    fn time_regressions_clamp_to_the_watermark() {
        let events = vec![ev(10.0, 1, 5.0), ev(8.0, 1, 5.0)];
        let mut src = TraceArrivalSource::new(VecReader::new(events), ArrivalSpec::default(), 2);
        let a = src.next_arrival().unwrap();
        let b = src.next_arrival().unwrap();
        assert!(b.at >= a.at, "the kernel never sees a past time");
    }
}
