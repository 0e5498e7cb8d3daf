//! The streaming reader abstraction and shared CSV machinery.
//!
//! A [`DatasetReader`] is a fallible iterator over [`TraceEvent`]s. The
//! concrete readers ([`crate::azure::AzureReader`],
//! [`crate::huawei::HuaweiReader`]) parse CSV line by line from any
//! `BufRead` — a reusable byte buffer, no per-row allocation beyond the
//! field split — so multi-gigabyte traces stream in constant memory. A
//! data row that is not valid UTF-8 is a malformed row like any other.
//!
//! Production traces are rarely perfectly sorted. [`Sorted`] wraps any
//! reader with a bounded min-heap reorder buffer: inversions within the
//! buffer are silently repaired, inversions beyond it surface as
//! [`TraceError::OutOfOrder`] instead of silently corrupting the
//! simulation timeline.

use crate::azure::AzureReader;
use crate::event::{TraceError, TraceEvent};
use crate::huawei::HuaweiReader;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::io::BufRead;
use std::path::Path;

/// A stream of normalised trace events.
///
/// `next_event` returns `None` at end of stream; an `Err` item reports a
/// defect the configured policy did not absorb. Readers are free to keep
/// yielding after an error, but drivers typically stop at the first one.
pub trait DatasetReader {
    /// The next event, an error, or `None` when the stream is exhausted.
    fn next_event(&mut self) -> Option<Result<TraceEvent, TraceError>>;

    /// Rows dropped so far under [`MalformedPolicy::Skip`].
    fn skipped_rows(&self) -> usize {
        0
    }
}

/// What a reader does with a row that fails to parse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MalformedPolicy {
    /// Drop the row, count it in [`DatasetReader::skipped_rows`], and
    /// continue — the production-ingestion default.
    Skip,
    /// Surface the row as [`TraceError::MalformedRow`].
    Fail,
}

/// Reads the next non-blank line into `buf` and returns it as text,
/// bumping `line_no` for every line read. Returns `None` at EOF. A line
/// holding only ASCII whitespace is blank; a line that is not valid
/// UTF-8 comes back as [`TraceError::MalformedRow`] at its own line
/// number, so each reader's [`MalformedPolicy`] decides its fate.
fn read_record<'b, R: BufRead>(
    input: &mut R,
    buf: &'b mut Vec<u8>,
    line_no: &mut usize,
) -> Option<Result<&'b str, TraceError>> {
    loop {
        buf.clear();
        match input.read_until(b'\n', buf) {
            Ok(0) => return None,
            Ok(_) => *line_no += 1,
            Err(e) => return Some(Err(TraceError::Io(e.to_string()))),
        }
        if !buf.trim_ascii().is_empty() {
            break;
        }
    }
    Some(
        std::str::from_utf8(buf).map_err(|e| TraceError::MalformedRow {
            line: *line_no,
            reason: format!("row is not valid UTF-8: {e}"),
        }),
    )
}

/// The line-reading state both CSV readers share: the input, one reused
/// byte buffer, the line counter, the malformed-row policy and the
/// count of rows it skipped.
pub(crate) struct CsvLines<R> {
    input: R,
    buf: Vec<u8>,
    line_no: usize,
    policy: MalformedPolicy,
    skipped: usize,
}

impl<R: BufRead> CsvLines<R> {
    /// Reads the header row and resolves its columns with `columns`. An
    /// input without a header reports `first` as the missing column.
    pub(crate) fn with_header<C>(
        input: R,
        policy: MalformedPolicy,
        first: &str,
        columns: impl FnOnce(&[&str]) -> Result<C, TraceError>,
    ) -> Result<(Self, C), TraceError> {
        let mut lines = Self {
            input,
            buf: Vec::new(),
            line_no: 0,
            policy,
            skipped: 0,
        };
        let header = read_record(&mut lines.input, &mut lines.buf, &mut lines.line_no)
            .ok_or_else(|| TraceError::MissingColumn {
                column: first.into(),
            })??;
        let header: Vec<&str> = header.trim_end().split(',').collect();
        let columns = columns(&header)?;
        Ok((lines, columns))
    }

    /// The next data row, split on commas and turned into an event by
    /// `parse`. A row `parse` rejects, or one that is not valid UTF-8, is
    /// skipped and counted under [`MalformedPolicy::Skip`] and returned
    /// as [`TraceError::MalformedRow`] under [`MalformedPolicy::Fail`].
    pub(crate) fn next_row(
        &mut self,
        parse: impl Fn(&[&str]) -> Result<TraceEvent, String>,
    ) -> Option<Result<TraceEvent, TraceError>> {
        loop {
            let row =
                read_record(&mut self.input, &mut self.buf, &mut self.line_no)?.and_then(|line| {
                    let fields: Vec<&str> = line.trim_end().split(',').collect();
                    parse(&fields).map_err(|reason| TraceError::MalformedRow {
                        line: self.line_no,
                        reason,
                    })
                });
            match row {
                Err(TraceError::MalformedRow { .. }) if self.policy == MalformedPolicy::Skip => {
                    self.skipped += 1;
                }
                row => return Some(row),
            }
        }
    }

    /// Rows skipped so far under [`MalformedPolicy::Skip`].
    pub(crate) fn skipped(&self) -> usize {
        self.skipped
    }
}

/// Resolves a required column name to its index in the header.
pub(crate) fn require_column(header: &[&str], name: &str) -> Result<usize, TraceError> {
    header
        .iter()
        .position(|c| c.trim().eq_ignore_ascii_case(name))
        .ok_or_else(|| TraceError::MissingColumn {
            column: name.into(),
        })
}

/// Resolves an optional column name.
pub(crate) fn optional_column(header: &[&str], name: &str) -> Option<usize> {
    header
        .iter()
        .position(|c| c.trim().eq_ignore_ascii_case(name))
}

/// Parses field `idx` of a split row as a finite `f64` (row-local error
/// text; the caller owns the line number).
pub(crate) fn parse_field(fields: &[&str], idx: usize, name: &str) -> Result<f64, String> {
    let raw = fields
        .get(idx)
        .ok_or_else(|| format!("missing field {name:?} (column {idx})"))?
        .trim();
    let v: f64 = raw
        .parse()
        .map_err(|_| format!("field {name:?} is not a number: {raw:?}"))?;
    if !v.is_finite() {
        return Err(format!("field {name:?} is not finite: {raw:?}"));
    }
    Ok(v)
}

/// Heap entry ordered by `(at, id)` — `id` breaks timestamp ties
/// deterministically.
struct ByTime(TraceEvent);

impl PartialEq for ByTime {
    fn eq(&self, other: &Self) -> bool {
        self.0.at.total_cmp(&other.0.at) == Ordering::Equal && self.0.id == other.0.id
    }
}
impl Eq for ByTime {}
impl PartialOrd for ByTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ByTime {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .at
            .total_cmp(&other.0.at)
            .then_with(|| self.0.id.cmp(&other.0.id))
    }
}

/// A bounded reorder buffer over any reader: holds up to `window` events
/// in a min-heap and emits the earliest, so inversions up to `window`
/// positions apart come out sorted. An event that would still regress
/// behind the emitted watermark is reported as
/// [`TraceError::OutOfOrder`].
pub struct Sorted<D: DatasetReader> {
    inner: D,
    window: usize,
    heap: BinaryHeap<Reverse<ByTime>>,
    watermark: f64,
    inner_done: bool,
}

impl<D: DatasetReader> Sorted<D> {
    /// Wraps `inner` with a reorder buffer of `window` events (≥ 1).
    pub fn new(inner: D, window: usize) -> Self {
        assert!(window >= 1, "reorder window must hold at least one event");
        Self {
            inner,
            window,
            heap: BinaryHeap::with_capacity(window + 1),
            watermark: f64::NEG_INFINITY,
            inner_done: false,
        }
    }
}

impl<D: DatasetReader> DatasetReader for Sorted<D> {
    fn next_event(&mut self) -> Option<Result<TraceEvent, TraceError>> {
        while !self.inner_done && self.heap.len() < self.window {
            match self.inner.next_event() {
                Some(Ok(e)) => self.heap.push(Reverse(ByTime(e))),
                Some(Err(e)) => return Some(Err(e)),
                None => self.inner_done = true,
            }
        }
        let Reverse(ByTime(e)) = self.heap.pop()?;
        if e.at < self.watermark {
            return Some(Err(TraceError::OutOfOrder {
                line: 0,
                at: e.at,
                watermark: self.watermark,
            }));
        }
        self.watermark = e.at;
        Some(Ok(e))
    }

    fn skipped_rows(&self) -> usize {
        self.inner.skipped_rows()
    }
}

/// Opens a dataset from a `kind:path` spec (`azure:trace.csv`,
/// `huawei:trace.csv`); a bare path defaults to the Azure schema. The
/// reader is wrapped in a [`Sorted`] buffer of 256 events.
pub fn open_dataset(
    spec: &str,
    policy: MalformedPolicy,
) -> Result<Box<dyn DatasetReader>, TraceError> {
    let (kind, path) = match spec.split_once(':') {
        Some((k, p)) => (k, p),
        None => ("azure", spec),
    };
    const REORDER_WINDOW: usize = 256;
    match kind {
        "azure" => Ok(Box::new(Sorted::new(
            AzureReader::open(Path::new(path), policy)?,
            REORDER_WINDOW,
        ))),
        "huawei" => Ok(Box::new(Sorted::new(
            HuaweiReader::open(Path::new(path), policy)?,
            REORDER_WINDOW,
        ))),
        other => Err(TraceError::Io(format!(
            "unknown dataset kind {other:?} (expected azure: or huawei:)"
        ))),
    }
}

impl DatasetReader for Box<dyn DatasetReader> {
    fn next_event(&mut self) -> Option<Result<TraceEvent, TraceError>> {
        (**self).next_event()
    }

    fn skipped_rows(&self) -> usize {
        (**self).skipped_rows()
    }
}

/// An in-memory reader over a fixed event list — test scaffolding and
/// the amplifier's seed-trace replay.
pub struct VecReader {
    events: std::vec::IntoIter<TraceEvent>,
}

impl VecReader {
    /// A reader that yields `events` in order.
    pub fn new(events: Vec<TraceEvent>) -> Self {
        Self {
            events: events.into_iter(),
        }
    }
}

impl DatasetReader for VecReader {
    fn next_event(&mut self) -> Option<Result<TraceEvent, TraceError>> {
        self.events.next().map(Ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: f64, id: u64) -> TraceEvent {
        TraceEvent {
            at,
            id,
            vm_count: 1,
            cpu: 1.0,
            ram: 1024.0,
            disk: 10.0,
            holding: 60.0,
        }
    }

    #[test]
    fn sorted_repairs_inversions_within_the_window() {
        let shuffled = vec![ev(3.0, 0), ev(1.0, 1), ev(2.0, 2), ev(5.0, 3), ev(4.0, 4)];
        let mut r = Sorted::new(VecReader::new(shuffled), 4);
        let times: Vec<f64> = std::iter::from_fn(|| r.next_event())
            .map(|e| e.unwrap().at)
            .collect();
        assert_eq!(times, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn sorted_flags_inversions_beyond_the_window() {
        // With a window of 2, the t=0 event arrives after t=10 and t=20
        // have already been emitted — an unrepairable inversion.
        let events = vec![ev(10.0, 0), ev(20.0, 1), ev(30.0, 2), ev(0.0, 3)];
        let mut r = Sorted::new(VecReader::new(events), 2);
        let mut saw_error = false;
        while let Some(item) = r.next_event() {
            if let Err(TraceError::OutOfOrder { at, watermark, .. }) = item {
                assert_eq!(at, 0.0);
                assert!(watermark >= 10.0);
                saw_error = true;
                break;
            }
        }
        assert!(saw_error, "the deep inversion must surface as an error");
    }

    #[test]
    fn sorted_ties_break_by_id() {
        let events = vec![ev(1.0, 2), ev(1.0, 0), ev(1.0, 1)];
        let mut r = Sorted::new(VecReader::new(events), 3);
        let ids: Vec<u64> = std::iter::from_fn(|| r.next_event())
            .map(|e| e.unwrap().id)
            .collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn open_dataset_rejects_unknown_kinds() {
        assert!(matches!(
            open_dataset("gcp:trace.csv", MalformedPolicy::Fail),
            Err(TraceError::Io(_))
        ));
    }
}
