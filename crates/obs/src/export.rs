//! Exporters: metrics JSON-lines (same tagged-line shape as the
//! platform event log written by `cpo_platform::lifecycle::EventLog`)
//! and the Chrome trace-event format
//! (`chrome://tracing` / Perfetto "Open trace file").

use crate::event::{FieldValue, TraceEvent, TraceKind};
use crate::json::{self, Value};
use crate::registry::Snapshot;

/// Schema version stamped on the first line of every JSONL export.
pub const TRACE_SCHEMA_VERSION: u64 = 1;

fn write_fields(fields: &[(String, FieldValue)], out: &mut String) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_escaped(k, out);
        out.push(':');
        json::write_value(&v.to_json(), out);
    }
    out.push('}');
}

fn write_event_line(ev: &TraceEvent, out: &mut String) {
    out.push_str("{\"event\":\"");
    out.push_str(ev.kind.tag());
    out.push_str("\",\"name\":");
    json::write_escaped(&ev.name, out);
    out.push_str(&format!(",\"ts_us\":{}", ev.ts_us));
    if ev.kind == TraceKind::Span {
        out.push_str(&format!(",\"dur_us\":{}", ev.dur_us));
    }
    if let Some(v) = ev.value {
        out.push_str(",\"value\":");
        json::write_f64(v, out);
    }
    out.push_str(&format!(",\"tid\":{},\"depth\":{}", ev.tid, ev.depth));
    if !ev.fields.is_empty() {
        out.push_str(",\"fields\":");
        write_fields(&ev.fields, out);
    }
    out.push_str("}\n");
}

/// Serialises trace events as JSON lines, prefixed by a
/// `{"event":"meta","schema_version":N}` header line.
pub fn events_to_json_lines(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"event\":\"meta\",\"schema_version\":{TRACE_SCHEMA_VERSION}}}\n"
    ));
    for ev in events {
        write_event_line(ev, &mut out);
    }
    out
}

/// Serialises a full snapshot as JSON lines: the meta header, every
/// buffered trace event, then one summary line per counter
/// (`counter_total`), gauge (`gauge_last`), and histogram
/// (`histogram_summary`).
pub fn metrics_json_lines(snapshot: &Snapshot) -> String {
    let mut out = events_to_json_lines(&snapshot.events);
    for (name, total) in &snapshot.counters {
        out.push_str("{\"event\":\"counter_total\",\"name\":");
        json::write_escaped(name, &mut out);
        out.push_str(&format!(",\"value\":{total}}}\n"));
    }
    for (name, value) in &snapshot.gauges {
        out.push_str("{\"event\":\"gauge_last\",\"name\":");
        json::write_escaped(name, &mut out);
        out.push_str(",\"value\":");
        json::write_f64(*value, &mut out);
        out.push_str("}\n");
    }
    for (name, h) in &snapshot.histograms {
        out.push_str("{\"event\":\"histogram_summary\",\"name\":");
        json::write_escaped(name, &mut out);
        out.push_str(&format!(
            ",\"count\":{},\"min\":{},\"max\":{},\"mean\":",
            h.count, h.min, h.max
        ));
        json::write_f64(h.mean, &mut out);
        out.push_str(&format!(
            ",\"p50\":{},\"p95\":{},\"p99\":{}}}\n",
            h.p50, h.p95, h.p99
        ));
    }
    if snapshot.dropped > 0 {
        out.push_str(&format!(
            "{{\"event\":\"dropped_events\",\"value\":{}}}\n",
            snapshot.dropped
        ));
    }
    out
}

/// Parses JSON lines produced by [`events_to_json_lines`] (or
/// [`metrics_json_lines`]; summary lines are skipped) back into trace
/// events. Rejects unknown schema versions with a clear error; a missing
/// meta header is accepted for forward compatibility with hand-built
/// traces.
pub fn events_from_json_lines(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let tag = v
            .get("event")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: missing \"event\" tag", lineno + 1))?;
        if tag == "meta" {
            let version = v
                .get("schema_version")
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("line {}: meta without schema_version", lineno + 1))?;
            if version != TRACE_SCHEMA_VERSION {
                return Err(format!(
                    "line {}: unsupported trace schema version {version} \
                     (this build reads version {TRACE_SCHEMA_VERSION})",
                    lineno + 1
                ));
            }
            continue;
        }
        let Some(kind) = TraceKind::from_tag(tag) else {
            // Summary lines (counter_total, gauge_last, histogram_summary,
            // dropped_events) are derived data; skip them on replay.
            continue;
        };
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: missing name", lineno + 1))?
            .to_string();
        let ts_us = v.get("ts_us").and_then(Value::as_u64).unwrap_or(0);
        let dur_us = v.get("dur_us").and_then(Value::as_u64).unwrap_or(0);
        let value = v.get("value").and_then(Value::as_f64);
        let tid = v.get("tid").and_then(Value::as_u64).unwrap_or(0);
        let depth = v.get("depth").and_then(Value::as_u64).unwrap_or(0) as u32;
        let mut fields = Vec::new();
        if let Some(Value::Obj(kvs)) = v.get("fields") {
            for (k, fv) in kvs {
                let parsed = FieldValue::from_json(fv)
                    .ok_or_else(|| format!("line {}: bad field value for {k:?}", lineno + 1))?;
                fields.push((k.clone(), parsed));
            }
        }
        events.push(TraceEvent {
            kind,
            name,
            ts_us,
            dur_us,
            value,
            tid,
            depth,
            fields,
        });
    }
    Ok(events)
}

/// Renders a snapshot in the Chrome trace-event JSON format. Open the
/// file in `chrome://tracing` or <https://ui.perfetto.dev> to get a
/// flame-style timeline: spans become complete (`"ph":"X"`) events,
/// counters and gauges become counter (`"ph":"C"`) tracks.
pub fn chrome_trace(snapshot: &Snapshot) -> String {
    let mut running: std::collections::BTreeMap<&str, f64> = std::collections::BTreeMap::new();
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for ev in &snapshot.events {
        if !first {
            out.push(',');
        }
        first = false;
        match ev.kind {
            TraceKind::Span => {
                out.push_str("{\"name\":");
                json::write_escaped(&ev.name, &mut out);
                out.push_str(&format!(
                    ",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}",
                    ev.ts_us, ev.dur_us, ev.tid
                ));
                if !ev.fields.is_empty() {
                    out.push_str(",\"args\":");
                    write_fields(&ev.fields, &mut out);
                }
                out.push('}');
            }
            TraceKind::Counter | TraceKind::Gauge => {
                let level = if ev.kind == TraceKind::Counter {
                    let slot = running.entry(ev.name.as_str()).or_insert(0.0);
                    *slot += ev.value.unwrap_or(0.0);
                    *slot
                } else {
                    ev.value.unwrap_or(0.0)
                };
                out.push_str("{\"name\":");
                json::write_escaped(&ev.name, &mut out);
                out.push_str(&format!(
                    ",\"cat\":\"metric\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\"args\":{{\"value\":",
                    ev.ts_us
                ));
                json::write_f64(level, &mut out);
                out.push_str("}}");
            }
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FieldValue;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                kind: TraceKind::Span,
                name: "nsga3.generation".into(),
                ts_us: 10,
                dur_us: 250,
                value: None,
                tid: 0,
                depth: 1,
                fields: vec![
                    ("gen".into(), FieldValue::U64(3)),
                    ("algo".into(), FieldValue::Str("nsga3/tabu".into())),
                ],
            },
            TraceEvent {
                kind: TraceKind::Counter,
                name: "cp.propagations".into(),
                ts_us: 300,
                dur_us: 0,
                value: Some(42.0),
                tid: 1,
                depth: 0,
                fields: Vec::new(),
            },
            TraceEvent {
                kind: TraceKind::Gauge,
                name: "des.queue_depth".into(),
                ts_us: 400,
                dur_us: 0,
                value: Some(17.0),
                tid: 0,
                depth: 0,
                fields: Vec::new(),
            },
        ]
    }

    #[test]
    fn jsonl_round_trip_preserves_events() {
        let events = sample_events();
        let text = events_to_json_lines(&events);
        assert!(text.starts_with("{\"event\":\"meta\",\"schema_version\":1}\n"));
        assert_eq!(events_from_json_lines(&text).unwrap(), events);
    }

    #[test]
    fn unknown_schema_version_is_rejected_with_clear_error() {
        let err =
            events_from_json_lines("{\"event\":\"meta\",\"schema_version\":99}\n").unwrap_err();
        assert!(err.contains("unsupported trace schema version 99"), "{err}");
        assert!(err.contains("version 1"), "{err}");
    }

    #[test]
    fn headerless_trace_is_accepted() {
        let events = sample_events();
        let text = events_to_json_lines(&events);
        let body: String = text.lines().skip(1).map(|l| format!("{l}\n")).collect();
        assert_eq!(events_from_json_lines(&body).unwrap(), events);
    }

    #[test]
    fn summary_lines_are_skipped_on_replay() {
        let mut snap = Snapshot {
            events: sample_events(),
            ..Snapshot::default()
        };
        snap.counters.insert("cp.propagations".into(), 42);
        snap.gauges.insert("des.queue_depth".into(), 17.0);
        let text = metrics_json_lines(&snap);
        assert!(text.contains("counter_total"));
        assert!(text.contains("gauge_last"));
        assert_eq!(events_from_json_lines(&text).unwrap(), snap.events);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_phases() {
        let snap = Snapshot {
            events: sample_events(),
            ..Snapshot::default()
        };
        let trace = chrome_trace(&snap);
        let v = json::parse(&trace).unwrap();
        let Some(Value::Arr(items)) = v.get("traceEvents") else {
            panic!("missing traceEvents array");
        };
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(items[0].get("dur").and_then(Value::as_u64), Some(250));
        assert_eq!(items[1].get("ph").and_then(Value::as_str), Some("C"));
        assert_eq!(
            items[0]
                .get("args")
                .and_then(|a| a.get("gen"))
                .and_then(Value::as_u64),
            Some(3)
        );
    }

    #[test]
    fn counters_accumulate_into_running_totals_in_chrome_trace() {
        let mut snap = Snapshot::default();
        for ts in [1u64, 2, 3] {
            snap.events.push(TraceEvent {
                kind: TraceKind::Counter,
                name: "c".into(),
                ts_us: ts,
                dur_us: 0,
                value: Some(5.0),
                tid: 0,
                depth: 0,
                fields: Vec::new(),
            });
        }
        let v = json::parse(&chrome_trace(&snap)).unwrap();
        let Some(Value::Arr(items)) = v.get("traceEvents") else {
            panic!("missing traceEvents");
        };
        let levels: Vec<f64> = items
            .iter()
            .map(|i| {
                i.get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Value::as_f64)
                    .unwrap()
            })
            .collect();
        assert_eq!(levels, vec![5.0, 10.0, 15.0]);
    }

    #[test]
    fn malformed_lines_report_position() {
        let err = events_from_json_lines("{\"event\":\"span\"}\n{not json}\n").unwrap_err();
        assert!(
            err.starts_with("line 1") || err.starts_with("line 2"),
            "{err}"
        );
    }
}
