//! Dashboard rendering for [`crate::series`] — zero new dependencies.
//!
//! Two renderers over the same [`TelemetryBus`] snapshot:
//!
//! * [`html_report`] — one self-contained HTML file: a summary table and
//!   an inline-SVG sparkline per series, with the full schema-versioned
//!   series JSON embedded in a `<script type="application/json">` block
//!   so the same file is both human- and machine-readable;
//! * [`ansi_summary`] — a terminal block using the Unicode eighth-block
//!   ramp (`▁▂▃▄▅▆▇█`) for sparklines, suitable for CI logs.
//!
//! Neither renderer mutates the bus; both draw
//! [`SeriesRing::collect`](crate::series::SeriesRing::collect) output so
//! the freshest (partial-stride) sample is visible.

use crate::series::{Point, SeriesKind, TelemetryBus};
use std::fmt::Write as _;
use std::path::Path;

/// SVG sparkline width in px.
const SVG_W: f64 = 560.0;
/// SVG sparkline height in px.
const SVG_H: f64 = 64.0;
/// ANSI sparkline width in columns (points are re-bucketed to fit).
const ANSI_W: usize = 48;

const RAMP: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

fn min_max(points: &[Point]) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for p in points {
        lo = lo.min(p.min);
        hi = hi.max(p.max);
    }
    if !lo.is_finite() || !hi.is_finite() {
        (0.0, 0.0)
    } else {
        (lo, hi)
    }
}

/// Compact human formatting: trims trailing zeros, switches to integer
/// style for large magnitudes.
fn fmt_value(v: f64) -> String {
    if !v.is_finite() {
        return "—".into();
    }
    let a = v.abs();
    if a >= 1e6 {
        format!("{:.2e}", v)
    } else if a >= 100.0 || (v.fract() == 0.0 && a < 1e6) {
        format!("{v:.0}")
    } else if a >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// Re-buckets `points` into exactly `width` columns by mean, for the
/// terminal sparkline.
fn rebucket(points: &[Point], width: usize) -> Vec<f64> {
    if points.is_empty() {
        return Vec::new();
    }
    let width = width.min(points.len());
    let mut out = Vec::with_capacity(width);
    for c in 0..width {
        let lo = c * points.len() / width;
        let hi = ((c + 1) * points.len() / width).max(lo + 1);
        let slice = &points[lo..hi];
        out.push(slice.iter().map(|p| p.mean).sum::<f64>() / slice.len() as f64);
    }
    out
}

/// One sparkline row of `▁▂▃▄▅▆▇█` characters.
pub fn sparkline(points: &[Point], width: usize) -> String {
    let means = rebucket(points, width);
    if means.is_empty() {
        return String::new();
    }
    let lo = means.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = means.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    means
        .iter()
        .map(|&m| {
            let idx = (((m - lo) / span) * (RAMP.len() - 1) as f64).round() as usize;
            RAMP[idx.min(RAMP.len() - 1)]
        })
        .collect()
}

/// ANSI terminal summary: one sparkline row per series with min / mean /
/// last / max columns. Timing series are tagged so CI diff-readers know
/// which rows are machine-dependent.
pub fn ansi_summary(bus: &TelemetryBus) -> String {
    let mut out = String::new();
    if bus.is_empty() {
        out.push_str("series: (none recorded)\n");
        return out;
    }
    let name_w = bus
        .series()
        .keys()
        .map(String::len)
        .max()
        .unwrap_or(0)
        .max(6);
    let _ = writeln!(
        out,
        "\x1b[1m{:<name_w$}  {:<ANSI_W$}  {:>10} {:>10} {:>10}  n\x1b[0m",
        "series", "trend", "min", "last", "max"
    );
    for (name, s) in bus.series() {
        let points = s.ring.collect();
        let (lo, hi) = min_max(&points);
        let last = s.ring.last_value().unwrap_or(f64::NAN);
        let tag = match s.kind {
            SeriesKind::Deterministic => "",
            SeriesKind::Timing => " \x1b[33m(timing)\x1b[0m",
        };
        let _ = writeln!(
            out,
            "\x1b[36m{:<name_w$}\x1b[0m  {:<ANSI_W$}  {:>10} {:>10} {:>10}  {}{}",
            name,
            sparkline(&points, ANSI_W),
            fmt_value(lo),
            fmt_value(last),
            fmt_value(hi),
            s.ring.total(),
            tag,
        );
    }
    out
}

fn svg_sparkline(points: &[Point], out: &mut String) {
    let _ = write!(
        out,
        "<svg viewBox=\"0 0 {SVG_W} {SVG_H}\" width=\"{SVG_W}\" height=\"{SVG_H}\" \
         preserveAspectRatio=\"none\">"
    );
    if points.len() >= 2 {
        let (lo, hi) = min_max(points);
        let span = (hi - lo).max(f64::MIN_POSITIVE);
        let x = |i: usize| i as f64 / (points.len() - 1) as f64 * (SVG_W - 2.0) + 1.0;
        let y = |v: f64| SVG_H - 3.0 - (v - lo) / span * (SVG_H - 6.0);
        // min..max envelope as a filled band behind the mean line.
        let mut band = String::from("<polygon class=\"band\" points=\"");
        for (i, p) in points.iter().enumerate() {
            let _ = write!(band, "{:.1},{:.1} ", x(i), y(p.max));
        }
        for (i, p) in points.iter().enumerate().rev() {
            let _ = write!(band, "{:.1},{:.1} ", x(i), y(p.min));
        }
        band.push_str("\"/>");
        out.push_str(&band);
        let mut line = String::from("<polyline class=\"mean\" points=\"");
        for (i, p) in points.iter().enumerate() {
            let _ = write!(line, "{:.1},{:.1} ", x(i), y(p.mean));
        }
        line.push_str("\"/>");
        out.push_str(&line);
    }
    out.push_str("</svg>");
}

fn html_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Renders the bus as one self-contained HTML document. The full series
/// JSON (including timing series) is embedded under
/// `<script type="application/json" id="cpo-series-data">` for machine
/// consumption; `</` is escaped to `<\/` so the payload can never
/// terminate the script block early.
pub fn html_report(bus: &TelemetryBus, title: &str) -> String {
    let mut out = String::with_capacity(1 << 16);
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n");
    let _ = writeln!(out, "<title>{}</title>", html_escape(title));
    out.push_str(
        "<style>\n\
         body{font:14px/1.45 system-ui,sans-serif;margin:2rem auto;max-width:72rem;\
         color:#1a1a2e;background:#fafafa}\n\
         h1{font-size:1.4rem}\n\
         table{border-collapse:collapse;width:100%;margin-bottom:2rem}\n\
         th,td{padding:.3rem .6rem;text-align:right;border-bottom:1px solid #ddd}\n\
         th:first-child,td:first-child{text-align:left;font-family:ui-monospace,monospace}\n\
         .card{background:#fff;border:1px solid #e2e2e8;border-radius:6px;\
         padding:.8rem 1rem;margin:.6rem 0}\n\
         .card h2{font:600 .95rem ui-monospace,monospace;margin:0 0 .4rem}\n\
         .card .stats{color:#666;font-size:.8rem;margin-left:.6rem;font-weight:400}\n\
         .timing{color:#b36b00}\n\
         svg{display:block;width:100%}\n\
         .band{fill:#cfd8ff;stroke:none}\n\
         .mean{fill:none;stroke:#3949ab;stroke-width:1.5}\n\
         </style></head><body>\n",
    );
    let _ = writeln!(out, "<h1>{}</h1>", html_escape(title));
    if bus.is_empty() {
        out.push_str("<p>No series recorded.</p>\n");
    } else {
        // Summary table.
        out.push_str(
            "<table><thead><tr><th>series</th><th>kind</th><th>samples</th>\
             <th>stride</th><th>min</th><th>last</th><th>max</th></tr></thead><tbody>\n",
        );
        for (name, s) in bus.series() {
            let points = s.ring.collect();
            let (lo, hi) = min_max(&points);
            let kind = match s.kind {
                SeriesKind::Deterministic => "det",
                SeriesKind::Timing => "<span class=\"timing\">timing</span>",
            };
            let _ = writeln!(
                out,
                "<tr><td>{}</td><td>{kind}</td><td>{}</td><td>{}</td>\
                 <td>{}</td><td>{}</td><td>{}</td></tr>",
                html_escape(name),
                s.ring.total(),
                s.ring.stride(),
                fmt_value(lo),
                fmt_value(s.ring.last_value().unwrap_or(f64::NAN)),
                fmt_value(hi),
            );
        }
        out.push_str("</tbody></table>\n");
        // One sparkline card per series.
        for (name, s) in bus.series() {
            let points = s.ring.collect();
            let (lo, hi) = min_max(&points);
            let _ = write!(
                out,
                "<div class=\"card\"><h2>{}<span class=\"stats\">min {} · last {} · max {} \
                 · {} samples @ stride {}</span></h2>",
                html_escape(name),
                fmt_value(lo),
                fmt_value(s.ring.last_value().unwrap_or(f64::NAN)),
                fmt_value(hi),
                s.ring.total(),
                s.ring.stride(),
            );
            svg_sparkline(&points, &mut out);
            out.push_str("</div>\n");
        }
    }
    // Machine-readable payload: the complete series JSON.
    out.push_str("<script type=\"application/json\" id=\"cpo-series-data\">\n");
    out.push_str(&bus.to_json(true).replace("</", "<\\/"));
    out.push_str("\n</script>\n</body></html>\n");
    out
}

/// Writes [`html_report`] to `path`, creating parent directories.
pub fn write_html(bus: &TelemetryBus, path: impl AsRef<Path>, title: &str) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, html_report(bus, title))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::TelemetryBus;

    fn demo_bus() -> TelemetryBus {
        let mut bus = TelemetryBus::new(64);
        for w in 0..200u64 {
            bus.record("fleet.acceptance_rate", w, 1.0 - (w as f64 / 400.0));
            bus.record("fleet.active_vms", w, (w * 3) as f64);
            bus.record_timing("fleet.solve_latency_ms", w, 0.5 + (w % 7) as f64);
        }
        bus
    }

    #[test]
    fn sparkline_spans_the_ramp() {
        let points: Vec<Point> = (0..16)
            .map(|i| Point {
                t: i,
                mean: i as f64,
                min: i as f64,
                max: i as f64,
            })
            .collect();
        let line = sparkline(&points, 16);
        assert_eq!(line.chars().count(), 16);
        assert!(line.starts_with('▁'));
        assert!(line.ends_with('█'));
    }

    #[test]
    fn ansi_summary_lists_every_series() {
        let text = ansi_summary(&demo_bus());
        assert!(text.contains("fleet.acceptance_rate"));
        assert!(text.contains("fleet.active_vms"));
        assert!(text.contains("fleet.solve_latency_ms"));
        assert!(text.contains("(timing)"));
    }

    #[test]
    fn html_report_is_self_contained_and_machine_readable() {
        let bus = demo_bus();
        let html = html_report(&bus, "demo");
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("id=\"cpo-series-data\""));
        assert!(html.contains("<svg"));
        // No external references of any kind.
        assert!(!html.contains("http://") && !html.contains("https://"));
        // The embedded payload parses back and carries every series.
        let start = html.find("id=\"cpo-series-data\">").unwrap() + "id=\"cpo-series-data\">".len();
        let end = html[start..].find("</script>").unwrap() + start;
        let payload = html[start..end].trim().replace("<\\/", "</");
        let v = crate::json::parse(&payload).expect("embedded JSON parses");
        assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some("cpo-series"));
        let n = v.get("series").and_then(|s| s.as_array()).unwrap().len();
        assert_eq!(n, 3);
    }

    #[test]
    fn empty_bus_renders_without_panicking() {
        let bus = TelemetryBus::new(4);
        assert!(ansi_summary(&bus).contains("none recorded"));
        assert!(html_report(&bus, "t").contains("No series recorded"));
    }
}
