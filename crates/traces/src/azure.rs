//! Azure-style VM trace reader.
//!
//! Consumes the pragmatic per-VM schema of the Azure public VM traces
//! (one row per VM lifetime), streamed line by line:
//!
//! ```csv
//! vm_id,vm_created,vm_deleted,core_count,memory_gb
//! a1,0,3600,2,4
//! ```
//!
//! * `vm_created` / `vm_deleted` — seconds from the trace epoch; the
//!   holding time is `deleted − created`, clamped at zero (the public
//!   traces contain zero- and negative-duration rows from clock skew);
//! * `memory_gb` converts to the model's MiB unit;
//! * an optional `disk_gb` column supplies disk demand; absent, disk
//!   defaults to 10 GiB per core (the traces don't publish disk).
//!
//! Rows stream in file order; wrap in [`crate::reader::Sorted`] when the
//! file is not globally sorted by `vm_created`.

use crate::event::{TraceError, TraceEvent};
use crate::reader::{
    optional_column, parse_field, require_column, CsvLines, DatasetReader, MalformedPolicy,
};
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

/// Default disk demand per core when the trace has no `disk_gb` column.
const DEFAULT_DISK_GB_PER_CORE: f64 = 10.0;

struct Columns {
    id: usize,
    created: usize,
    deleted: usize,
    cores: usize,
    memory: usize,
    disk: Option<usize>,
}

/// Streaming reader for Azure-style per-VM CSV traces.
pub struct AzureReader<R: BufRead> {
    lines: CsvLines<R>,
    columns: Columns,
    next_id: u64,
}

impl AzureReader<BufReader<File>> {
    /// Opens a trace file from disk.
    pub fn open(path: &Path, policy: MalformedPolicy) -> Result<Self, TraceError> {
        let file =
            File::open(path).map_err(|e| TraceError::Io(format!("{}: {e}", path.display())))?;
        Self::new(BufReader::new(file), policy)
    }
}

impl<R: BufRead> AzureReader<R> {
    /// Wraps any buffered input (a file, an embedded `&str` via
    /// `Cursor`), parsing the header row eagerly.
    pub fn new(input: R, policy: MalformedPolicy) -> Result<Self, TraceError> {
        let (lines, columns) = CsvLines::with_header(input, policy, "vm_created", |header| {
            Ok(Columns {
                id: require_column(header, "vm_id")?,
                created: require_column(header, "vm_created")?,
                deleted: require_column(header, "vm_deleted")?,
                cores: require_column(header, "core_count")?,
                memory: require_column(header, "memory_gb")?,
                disk: optional_column(header, "disk_gb"),
            })
        })?;
        Ok(Self {
            lines,
            columns,
            next_id: 0,
        })
    }
}

impl Columns {
    fn parse_row(&self, id: u64, fields: &[&str]) -> Result<TraceEvent, String> {
        if fields.get(self.id).is_none_or(|f| f.trim().is_empty()) {
            return Err("empty vm_id".into());
        }
        let created = parse_field(fields, self.created, "vm_created")?;
        let deleted = parse_field(fields, self.deleted, "vm_deleted")?;
        let cores = parse_field(fields, self.cores, "core_count")?;
        let memory_gb = parse_field(fields, self.memory, "memory_gb")?;
        let disk = match self.disk {
            Some(idx) => parse_field(fields, idx, "disk_gb")?,
            None => cores * DEFAULT_DISK_GB_PER_CORE,
        };
        let event = TraceEvent {
            at: created,
            id,
            vm_count: 1,
            cpu: cores,
            ram: memory_gb * 1024.0,
            disk,
            // Zero- and negative-duration rows (clock skew) clamp to an
            // instant admit-and-depart.
            holding: (deleted - created).max(0.0),
        };
        event.validate()?;
        Ok(event)
    }
}

impl<R: BufRead> DatasetReader for AzureReader<R> {
    fn next_event(&mut self) -> Option<Result<TraceEvent, TraceError>> {
        let (columns, id) = (&self.columns, self.next_id);
        let row = self.lines.next_row(|fields| columns.parse_row(id, fields));
        if let Some(Ok(_)) = row {
            self.next_id += 1;
        }
        row
    }

    fn skipped_rows(&self) -> usize {
        self.lines.skipped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const SAMPLE: &str = "\
vm_id,vm_created,vm_deleted,core_count,memory_gb
a,0,600,2,4
b,30,30,1,2
c,60,960,4,8
";

    fn collect(input: &str, policy: MalformedPolicy) -> Vec<Result<TraceEvent, TraceError>> {
        let mut r = AzureReader::new(Cursor::new(input), policy).unwrap();
        std::iter::from_fn(|| r.next_event()).collect()
    }

    #[test]
    fn parses_rows_and_normalises_units() {
        let events: Vec<TraceEvent> = collect(SAMPLE, MalformedPolicy::Fail)
            .into_iter()
            .map(Result::unwrap)
            .collect();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].at, 0.0);
        assert_eq!(events[0].cpu, 2.0);
        assert_eq!(events[0].ram, 4096.0, "GB converts to MiB");
        assert_eq!(events[0].disk, 20.0, "disk defaults to 10 GiB per core");
        assert_eq!(events[0].holding, 600.0);
        assert_eq!(events[1].holding, 0.0, "zero-duration VM");
        assert_eq!(events[2].id, 2, "ids are row order");
    }

    #[test]
    fn negative_duration_clamps_to_zero() {
        let input = "vm_id,vm_created,vm_deleted,core_count,memory_gb\nx,100,40,1,1\n";
        let events = collect(input, MalformedPolicy::Fail);
        assert_eq!(events[0].as_ref().unwrap().holding, 0.0);
    }

    #[test]
    fn optional_disk_column_is_honoured() {
        let input = "vm_id,vm_created,vm_deleted,core_count,memory_gb,disk_gb\nx,0,10,1,1,55\n";
        let events = collect(input, MalformedPolicy::Fail);
        assert_eq!(events[0].as_ref().unwrap().disk, 55.0);
    }

    #[test]
    fn skip_policy_counts_malformed_rows() {
        let input = "\
vm_id,vm_created,vm_deleted,core_count,memory_gb
a,0,600,2,4
b,not-a-number,600,1,2
,5,600,1,2
c,60,960,4,8
";
        let mut r = AzureReader::new(Cursor::new(input), MalformedPolicy::Skip).unwrap();
        let events: Vec<TraceEvent> = std::iter::from_fn(|| r.next_event())
            .map(Result::unwrap)
            .collect();
        assert_eq!(events.len(), 2);
        assert_eq!(r.skipped_rows(), 2);
    }

    #[test]
    fn fail_policy_reports_line_numbers() {
        let input = "vm_id,vm_created,vm_deleted,core_count,memory_gb\na,0,600,2,4\nb,oops,1,1,1\n";
        let items = collect(input, MalformedPolicy::Fail);
        assert!(items[0].is_ok());
        match &items[1] {
            Err(TraceError::MalformedRow { line, reason }) => {
                assert_eq!(*line, 3);
                assert!(reason.contains("vm_created"));
            }
            other => panic!("expected MalformedRow, got {other:?}"),
        }
    }

    #[test]
    fn non_utf8_row_is_a_malformed_row() {
        let mut input = b"vm_id,vm_created,vm_deleted,core_count,memory_gb\na,0,600,2,4\n".to_vec();
        input.extend_from_slice(b"\xff\xfe\n");
        input.extend_from_slice(b"c,60,960,4,8\nd,oops,1,1,1\n");

        let mut r = AzureReader::new(Cursor::new(&input), MalformedPolicy::Skip).unwrap();
        let events: Vec<TraceEvent> = std::iter::from_fn(|| r.next_event())
            .map(Result::unwrap)
            .collect();
        assert_eq!(events.len(), 2);
        assert_eq!(
            r.skipped_rows(),
            2,
            "the non-UTF-8 row is skipped and counted"
        );

        let mut r = AzureReader::new(Cursor::new(&input), MalformedPolicy::Fail).unwrap();
        let lines: Vec<Option<usize>> = std::iter::from_fn(|| r.next_event())
            .map(|item| match item {
                Ok(_) => None,
                Err(TraceError::MalformedRow { line, .. }) => Some(line),
                Err(other) => panic!("expected MalformedRow, got {other:?}"),
            })
            .collect();
        assert_eq!(lines, [None, Some(3), None, Some(5)]);
    }

    #[test]
    fn missing_required_column_is_rejected_up_front() {
        let input = "vm_id,vm_created,core_count,memory_gb\n";
        match AzureReader::new(Cursor::new(input), MalformedPolicy::Fail).err() {
            Some(TraceError::MissingColumn { column }) => assert_eq!(column, "vm_deleted"),
            other => panic!("expected MissingColumn, got {other:?}"),
        }
    }
}
