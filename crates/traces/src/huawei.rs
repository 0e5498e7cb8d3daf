//! Huawei-style VM trace reader.
//!
//! Consumes the request-oriented schema of the Huawei cloud traces (one
//! row per request, resources stated in the model's native units):
//!
//! ```csv
//! id,cpu,memory_mb,disk_gb,start_time,duration
//! 0,4,8192,80,0,1800
//! ```
//!
//! * `start_time` — seconds from the trace epoch; `duration` — holding
//!   time in seconds, clamped at zero;
//! * an optional `count` column turns a row into a multi-VM request of
//!   `count` identical VMs (absent, every request is a single VM).
//!
//! Rows stream in file order; wrap in [`crate::reader::Sorted`] when the
//! file is not globally sorted by `start_time`.

use crate::event::{TraceError, TraceEvent};
use crate::reader::{
    optional_column, parse_field, require_column, CsvLines, DatasetReader, MalformedPolicy,
};
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

struct Columns {
    cpu: usize,
    memory: usize,
    disk: usize,
    start: usize,
    duration: usize,
    count: Option<usize>,
}

/// Streaming reader for Huawei-style per-request CSV traces.
pub struct HuaweiReader<R: BufRead> {
    lines: CsvLines<R>,
    columns: Columns,
    next_id: u64,
}

impl HuaweiReader<BufReader<File>> {
    /// Opens a trace file from disk.
    pub fn open(path: &Path, policy: MalformedPolicy) -> Result<Self, TraceError> {
        let file =
            File::open(path).map_err(|e| TraceError::Io(format!("{}: {e}", path.display())))?;
        Self::new(BufReader::new(file), policy)
    }
}

impl<R: BufRead> HuaweiReader<R> {
    /// Wraps any buffered input, parsing the header row eagerly.
    pub fn new(input: R, policy: MalformedPolicy) -> Result<Self, TraceError> {
        let (lines, columns) = CsvLines::with_header(input, policy, "start_time", |header| {
            require_column(header, "id")?;
            Ok(Columns {
                cpu: require_column(header, "cpu")?,
                memory: require_column(header, "memory_mb")?,
                disk: require_column(header, "disk_gb")?,
                start: require_column(header, "start_time")?,
                duration: require_column(header, "duration")?,
                count: optional_column(header, "count"),
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
        let vm_count = match self.count {
            Some(idx) => {
                let n = parse_field(fields, idx, "count")?;
                if n < 1.0 || n.fract() != 0.0 {
                    return Err(format!("count must be a positive integer, got {n}"));
                }
                n as usize
            }
            None => 1,
        };
        let event = TraceEvent {
            at: parse_field(fields, self.start, "start_time")?,
            id,
            vm_count,
            cpu: parse_field(fields, self.cpu, "cpu")?,
            ram: parse_field(fields, self.memory, "memory_mb")?,
            disk: parse_field(fields, self.disk, "disk_gb")?,
            holding: parse_field(fields, self.duration, "duration")?.max(0.0),
        };
        event.validate()?;
        Ok(event)
    }
}

impl<R: BufRead> DatasetReader for HuaweiReader<R> {
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

    #[test]
    fn parses_native_units_and_counts() {
        let input = "\
id,cpu,memory_mb,disk_gb,start_time,duration,count
0,4,8192,80,0,1800,1
1,1,1024,10,30,600,3
";
        let mut r = HuaweiReader::new(Cursor::new(input), MalformedPolicy::Fail).unwrap();
        let events: Vec<TraceEvent> = std::iter::from_fn(|| r.next_event())
            .map(Result::unwrap)
            .collect();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].ram, 8192.0, "memory is already MiB");
        assert_eq!(events[0].vm_count, 1);
        assert_eq!(events[1].vm_count, 3, "count column fans out VMs");
        assert_eq!(events[1].holding, 600.0);
    }

    #[test]
    fn count_column_rejects_fractions_and_zero() {
        let input = "id,cpu,memory_mb,disk_gb,start_time,duration,count\n0,1,1024,10,0,60,0\n";
        let mut r = HuaweiReader::new(Cursor::new(input), MalformedPolicy::Fail).unwrap();
        assert!(matches!(
            r.next_event(),
            Some(Err(TraceError::MalformedRow { .. }))
        ));
    }

    #[test]
    fn missing_column_reports_its_name() {
        let input = "id,cpu,memory_mb,start_time,duration\n";
        match HuaweiReader::new(Cursor::new(input), MalformedPolicy::Fail).err() {
            Some(TraceError::MissingColumn { column }) => assert_eq!(column, "disk_gb"),
            other => panic!("expected MissingColumn, got {other:?}"),
        }
    }

    #[test]
    fn non_utf8_row_is_a_malformed_row() {
        let mut input =
            b"id,cpu,memory_mb,disk_gb,start_time,duration\n0,1,1024,10,0,60\n".to_vec();
        input.extend_from_slice(b"\xff\xfe\n");
        input.extend_from_slice(b"2,1,1024,10,5,60\n3,x,1024,10,9,60\n");

        let mut r = HuaweiReader::new(Cursor::new(&input), MalformedPolicy::Skip).unwrap();
        let events: Vec<TraceEvent> = std::iter::from_fn(|| r.next_event())
            .map(Result::unwrap)
            .collect();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].id, 1, "skipped rows take no id");
        assert_eq!(
            r.skipped_rows(),
            2,
            "the non-UTF-8 row is skipped and counted"
        );

        let mut r = HuaweiReader::new(Cursor::new(&input), MalformedPolicy::Fail).unwrap();
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
    fn negative_duration_clamps() {
        let input = "id,cpu,memory_mb,disk_gb,start_time,duration\n0,1,1024,10,5,-3\n";
        let mut r = HuaweiReader::new(Cursor::new(input), MalformedPolicy::Fail).unwrap();
        assert_eq!(r.next_event().unwrap().unwrap().holding, 0.0);
    }
}
