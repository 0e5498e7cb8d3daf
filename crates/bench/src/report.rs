//! Machine-readable benchmark reports.
//!
//! Both standing benchmark binaries (`bench_micro`, `bench_trace`) write
//! the same JSON envelope so CI can diff runs across commits:
//!
//! ```json
//! {
//!   "schema": "cpo-bench-micro",
//!   "schema_version": 1,
//!   "cells": [ {"name": "...", ...}, ... ]
//! }
//! ```
//!
//! Cells are flat maps of metric name → number (or string). Numbers are
//! formatted here (floats to four decimals); strings are escaped by
//! `cpo_obs::json`, the workspace's one JSON codec.

use cpo_obs::json;
use std::fmt::Write as _;
use std::path::Path;

/// One named measurement row in a report.
#[derive(Clone, Debug, Default)]
pub struct Cell {
    name: String,
    fields: Vec<(String, Value)>,
}

#[derive(Clone, Debug)]
enum Value {
    Null,
    Int(i128),
    Float(f64),
    Str(String),
}

impl Cell {
    /// Starts a cell with the given metric name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            fields: Vec::new(),
        }
    }

    /// Adds an integer field.
    pub fn int(mut self, key: impl Into<String>, value: impl Into<i128>) -> Self {
        self.fields.push((key.into(), Value::Int(value.into())));
        self
    }

    /// Adds a float field (written with 4 decimal places; NaN/inf become
    /// `null` so the output stays valid JSON).
    pub fn float(mut self, key: impl Into<String>, value: f64) -> Self {
        self.fields.push((key.into(), Value::Float(value)));
        self
    }

    /// Adds a string field.
    pub fn str(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.fields.push((key.into(), Value::Str(value.into())));
        self
    }

    /// Adds an optional integer field, written as `null` when absent —
    /// so a metric that is unavailable on this platform (e.g. peak RSS
    /// without procfs) still appears in the report with a stable key
    /// instead of silently vanishing.
    pub fn opt_int(mut self, key: impl Into<String>, value: Option<impl Into<i128>>) -> Self {
        self.fields.push((
            key.into(),
            match value {
                Some(v) => Value::Int(v.into()),
                None => Value::Null,
            },
        ));
        self
    }

    fn render(&self, out: &mut String) {
        out.push_str("  {\"name\":");
        json::write_escaped(&self.name, out);
        for (key, value) in &self.fields {
            out.push(',');
            json::write_escaped(key, out);
            out.push(':');
            match value {
                Value::Null => out.push_str("null"),
                Value::Int(v) => {
                    let _ = write!(out, "{v}");
                }
                Value::Float(v) if v.is_finite() => {
                    let _ = write!(out, "{v:.4}");
                }
                Value::Float(_) => out.push_str("null"),
                Value::Str(s) => json::write_escaped(s, out),
            }
        }
        out.push('}');
    }
}

/// A schema-versioned collection of [`Cell`]s.
#[derive(Clone, Debug)]
pub struct Report {
    schema: String,
    version: u32,
    cells: Vec<Cell>,
}

impl Report {
    /// Starts an empty report under a schema name and version.
    pub fn new(schema: impl Into<String>, version: u32) -> Self {
        Self {
            schema: schema.into(),
            version,
            cells: Vec::new(),
        }
    }

    /// Appends a cell.
    pub fn push(&mut self, cell: Cell) {
        self.cells.push(cell);
    }

    /// Number of cells collected so far.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when no cell has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Renders the JSON envelope.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n\"schema\":");
        json::write_escaped(&self.schema, &mut out);
        let _ = writeln!(out, ",\"schema_version\":{},\"cells\":[", self.version);
        for (i, cell) in self.cells.iter().enumerate() {
            cell.render(&mut out);
            out.push_str(if i + 1 < self.cells.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }

    /// Writes the report to `path`, creating parent directories.
    pub fn write(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json())
    }
}

/// Peak resident-set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where procfs is unavailable (non-Linux
/// platforms, or a malformed status file). Callers serialize the `None`
/// as JSON `null` via [`Cell::opt_int`] so the metric key stays present
/// cross-platform.
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        parse_vm_hwm(&std::fs::read_to_string("/proc/self/status").ok()?)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Extracts `VmHWM` (peak RSS) in bytes from `/proc/self/status` text.
/// Returns `None` when the field is missing or unparseable.
pub fn parse_vm_hwm(status: &str) -> Option<u64> {
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kib: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kib * 1024);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_valid_shaped_json() {
        let mut report = Report::new("cpo-bench-test", 1);
        report.push(
            Cell::new("a")
                .int("count", 3)
                .float("ratio", 1.25)
                .str("note", "ok"),
        );
        report.push(Cell::new("b").float("nan", f64::NAN));
        let json = report.to_json();
        assert!(json.contains("\"schema\":\"cpo-bench-test\""));
        assert!(json.contains("\"schema_version\":1"));
        assert!(json.contains("{\"name\":\"a\",\"count\":3,\"ratio\":1.2500,\"note\":\"ok\"}"));
        assert!(json.contains("{\"name\":\"b\",\"nan\":null}"));
        // Exactly one comma between the two cells, none trailing.
        assert!(json.contains("}\n,\n") || json.contains("},\n"));
        assert!(!json.contains(",\n]"));
    }

    #[test]
    fn escapes_quotes_and_backslashes() {
        let mut report = Report::new("s", 1);
        report.push(Cell::new("x\"y").str("k", "a\\b\nc"));
        let json = report.to_json();
        assert!(json.contains("x\\\"y"));
        assert!(json.contains("a\\\\b\\nc"));
        report.push(Cell::new("tab\there").str("ctl", "\u{1}\r"));
        let text = report.to_json();
        assert!(
            !text.contains(['\t', '\r', '\u{1}']),
            "raw control characters"
        );
        let parsed = json::parse(&text).expect("valid JSON");
        let cells = parsed.get("cells").and_then(json::Value::as_array).unwrap();
        assert_eq!(
            cells[1].get("name").and_then(json::Value::as_str),
            Some("tab\there")
        );
        assert_eq!(
            cells[1].get("ctl").and_then(json::Value::as_str),
            Some("\u{1}\r")
        );
    }

    #[test]
    fn write_creates_parent_dirs() {
        let dir = std::env::temp_dir().join("cpo_bench_report_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("deep/nested/out.json");
        let report = Report::new("s", 2);
        report.write(&path).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert!(back.contains("\"schema_version\":2"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn opt_int_serializes_none_as_null() {
        let mut report = Report::new("s", 1);
        report.push(
            Cell::new("rss")
                .opt_int("present", Some(7u64))
                .opt_int("absent", None::<u64>),
        );
        let json = report.to_json();
        assert!(json.contains("{\"name\":\"rss\",\"present\":7,\"absent\":null}"));
    }

    #[test]
    fn parse_vm_hwm_reads_the_peak_and_rejects_garbage() {
        let status = "Name:\tbench\nVmPeak:\t  999 kB\nVmHWM:\t   5120 kB\nThreads:\t1\n";
        assert_eq!(parse_vm_hwm(status), Some(5120 * 1024));
        // Field missing entirely → None (the non-Linux / stripped-procfs shape).
        assert_eq!(parse_vm_hwm("Name:\tbench\nThreads:\t1\n"), None);
        // Unparseable value → None, not a panic.
        assert_eq!(parse_vm_hwm("VmHWM:\tnot-a-number kB\n"), None);
        assert_eq!(parse_vm_hwm(""), None);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            let rss = peak_rss_bytes().expect("procfs available");
            assert!(rss > 1024 * 1024, "peak RSS should exceed 1 MiB: {rss}");
        }
    }
}
