//! Snapshot type and its exporters: JSON through the crate's one writer
//! ([`JsonWriter`]; the in-tree serde shim is a no-op marker), Prometheus
//! text exposition format and a plain-text summary.

use crate::journal::{Event, FieldValue};
use crate::json::JsonWriter;
use crate::metrics::HistogramSnapshot;
use std::fmt::Write as _;

/// A consistent point-in-time view of every registered metric plus the
/// retained journal, captured by [`crate::snapshot`]. All collections are
/// sorted by metric name so exports are deterministic.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// `(name, value)` for every registered counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every registered gauge.
    pub gauges: Vec<(String, f64)>,
    /// `(name, snapshot)` for every registered histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Retained journal events, oldest first.
    pub events: Vec<Event>,
    /// Events shed by the journal ring before this snapshot.
    pub dropped_events: u64,
}

impl Snapshot {
    /// Value of the counter `name` (`None` when never registered). A
    /// missing counter is *not* the same as a zero one: missing means the
    /// instrumented call site never ran, zero means it ran and recorded
    /// nothing — the dead-counter CI gate treats them differently.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Value of the gauge `name` (`None` when never registered).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// The histogram snapshot `name` (`None` when never registered).
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    /// Serialize the snapshot as a self-contained JSON document.
    pub fn to_json(&self) -> String {
        // Under 128 bytes an event or metric (a histogram takes ~3 times
        // that): the buffer is sized once from the document, not regrown.
        let items = self.counters.len() + self.gauges.len() + self.events.len();
        let mut w = JsonWriter::with_capacity(128 * (items + 3 * self.histograms.len() + 1));
        w.begin_object().key("counters").begin_object();
        for (name, v) in &self.counters {
            w.key(name).u64(*v);
        }
        w.end_object().key("gauges").begin_object();
        for (name, v) in &self.gauges {
            w.key(name).f64(*v);
        }
        w.end_object().key("histograms").begin_object();
        for (name, h) in &self.histograms {
            w.key(name).begin_object().key("total").u64(h.total);
            w.key("sum").f64(h.sum()).key("mean").f64(h.mean());
            w.key("bounds").begin_array();
            for b in &h.bounds {
                w.f64(*b);
            }
            w.end_array().key("counts").begin_array();
            for c in &h.counts {
                w.u64(*c);
            }
            w.end_array().end_object();
        }
        w.end_object();
        w.key("dropped_events").u64(self.dropped_events);
        w.key("events").begin_array();
        for event in &self.events {
            w.begin_object().key("seq").u64(event.seq);
            w.key("wall_us").u64(event.wall_us);
            w.key("sim_s").f64(event.sim_s);
            w.key("event").str(event.kind.name());
            for (field, value) in event.kind.fields() {
                w.key(field);
                match value {
                    FieldValue::U64(v) => w.u64(v),
                    FieldValue::F64(v) => w.f64(v),
                    FieldValue::Str(s) => w.str(s),
                };
            }
            w.end_object();
        }
        w.end_array().end_object();
        w.finish_line()
    }

    /// Render a one-screen plain-text summary: every counter and gauge
    /// with its value, every histogram with its count and mean, and the
    /// journal depth. Printed by `repro` after metrics-enabled runs.
    pub fn summary(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("METRICS SUMMARY\n");
        let width = self
            .counters
            .iter()
            .map(|(n, _)| n.len())
            .chain(self.gauges.iter().map(|(n, _)| n.len()))
            .chain(self.histograms.iter().map(|(n, _)| n.len()))
            .max()
            .unwrap_or(0)
            .max("journal events".len());
        for (name, v) in &self.counters {
            let _ = writeln!(out, "  {name:<width$}  {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "  {name:<width$}  {v:.1}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "  {name:<width$}  n={} mean={:.3e}s",
                h.total,
                h.mean()
            );
        }
        let _ = writeln!(
            out,
            "  {:<width$}  {} retained, {} dropped",
            "journal events",
            self.events.len(),
            self.dropped_events
        );
        out
    }

    /// Serialize the metrics (journal excluded — Prometheus carries series,
    /// not logs) in the Prometheus text exposition format. Metric names are
    /// prefixed `pmstack_` with dots mapped to underscores.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        for (name, v) in &self.counters {
            let prom = prom_name(name);
            let _ = writeln!(out, "# TYPE {prom}_total counter");
            let _ = writeln!(out, "{prom}_total {v}");
        }
        for (name, v) in &self.gauges {
            let prom = prom_name(name);
            let _ = writeln!(out, "# TYPE {prom} gauge");
            let _ = writeln!(out, "{prom} {}", prom_f64(*v));
        }
        for (name, h) in &self.histograms {
            let prom = prom_name(name);
            let _ = writeln!(out, "# TYPE {prom} histogram");
            let mut cumulative = 0u64;
            for (bound, count) in h.bounds.iter().zip(&h.counts) {
                cumulative += count;
                let _ = writeln!(
                    out,
                    "{prom}_bucket{{le=\"{}\"}} {cumulative}",
                    prom_f64(*bound)
                );
            }
            let _ = writeln!(out, "{prom}_bucket{{le=\"+Inf\"}} {}", h.total);
            let _ = writeln!(out, "{prom}_sum {}", prom_f64(h.sum()));
            let _ = writeln!(out, "{prom}_count {}", h.total);
        }
        out
    }
}

/// One snapshot serialization format behind a common interface — the
/// scaphandre-style exporter family. The daemon's `/metrics` endpoint, the
/// `repro --metrics-out` writer, and the stdout summary all speak through
/// this trait, so adding a format is one impl, not three call sites.
pub trait Exporter: Send + Sync {
    /// The format's registry name (`prometheus`, `json`, `summary`).
    fn name(&self) -> &'static str;
    /// The HTTP `Content-Type` the rendered document should be served as.
    fn content_type(&self) -> &'static str;
    /// Render the snapshot in this format.
    fn render(&self, snap: &Snapshot) -> String;
}

/// Prometheus text exposition format ([`Snapshot::to_prometheus`]).
#[derive(Debug, Default, Clone, Copy)]
pub struct PrometheusExporter;

impl Exporter for PrometheusExporter {
    fn name(&self) -> &'static str {
        "prometheus"
    }

    fn content_type(&self) -> &'static str {
        "text/plain; version=0.0.4"
    }

    fn render(&self, snap: &Snapshot) -> String {
        snap.to_prometheus()
    }
}

/// Self-contained JSON document ([`Snapshot::to_json`]).
#[derive(Debug, Default, Clone, Copy)]
pub struct JsonExporter;

impl Exporter for JsonExporter {
    fn name(&self) -> &'static str {
        "json"
    }

    fn content_type(&self) -> &'static str {
        "application/json"
    }

    fn render(&self, snap: &Snapshot) -> String {
        snap.to_json()
    }
}

/// Human-readable one-screen summary ([`Snapshot::summary`]).
#[derive(Debug, Default, Clone, Copy)]
pub struct SummaryExporter;

impl Exporter for SummaryExporter {
    fn name(&self) -> &'static str {
        "summary"
    }

    fn content_type(&self) -> &'static str {
        "text/plain; charset=utf-8"
    }

    fn render(&self, snap: &Snapshot) -> String {
        snap.summary()
    }
}

/// Every registered exporter name, usage order.
pub const EXPORTER_NAMES: &[&str] = &["prometheus", "json", "summary"];

/// Look an exporter up by name (`None` for unknown formats).
pub fn exporter(name: &str) -> Option<Box<dyn Exporter>> {
    match name {
        "prometheus" => Some(Box::new(PrometheusExporter)),
        "json" => Some(Box::new(JsonExporter)),
        "summary" => Some(Box::new(SummaryExporter)),
        _ => None,
    }
}

/// Check that `text` is well-formed Prometheus text exposition format:
/// every non-empty line is either a `# TYPE <name> <kind>` comment or a
/// `<name>[{labels}] <value>` sample whose metric name is legal, whose
/// value parses, and whose family was announced by a preceding `# TYPE`
/// line. Returns the first violation. Shared by the obs format tests and
/// the daemon's `/metrics` conformance suite — a torn or truncated scrape
/// fails here.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    fn legal_name(name: &str) -> bool {
        !name.is_empty()
            && name.chars().enumerate().all(|(i, c)| {
                c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
            })
    }
    let mut families: Vec<String> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let at = |msg: String| format!("line {}: {msg} in `{line}`", lineno + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let mut parts = rest.split_whitespace();
            if parts.next() != Some("TYPE") {
                continue; // HELP or free comment: legal, unchecked.
            }
            let name = parts
                .next()
                .ok_or_else(|| at("TYPE comment without a metric name".into()))?;
            if !legal_name(name) {
                return Err(at(format!("illegal metric name `{name}`")));
            }
            match parts.next() {
                Some("counter" | "gauge" | "histogram" | "summary" | "untyped") => {}
                other => return Err(at(format!("illegal metric kind {other:?}"))),
            }
            families.push(name.to_string());
            continue;
        }
        // Sample line: name[{labels}] value
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| at("sample line without a value".into()))?;
        let name = series.split('{').next().unwrap_or(series);
        if !legal_name(name) {
            return Err(at(format!("illegal metric name `{name}`")));
        }
        if series.contains('{') && !series.ends_with('}') {
            return Err(at("unterminated label set".into()));
        }
        if value.parse::<f64>().is_err() && !matches!(value, "+Inf" | "-Inf" | "NaN") {
            return Err(at(format!("unparseable sample value `{value}`")));
        }
        // The family is the name minus a histogram/counter suffix.
        let announced = families.iter().any(|f| {
            name == f
                || ["_bucket", "_sum", "_count", "_total"]
                    .iter()
                    .any(|s| name.strip_suffix(s).is_some_and(|base| base == f))
        });
        if !announced {
            return Err(at(format!("sample `{name}` without a preceding # TYPE")));
        }
    }
    Ok(())
}

fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v:?}")
    }
}

fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 8);
    out.push_str("pmstack_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::EventKind;

    fn sample() -> Snapshot {
        let hist = {
            let h = crate::metrics::Histogram::new(&[0.1, 1.0]);
            h.observe(0.05);
            h.observe(0.5);
            h.observe(5.0);
            h.snapshot()
        };
        Snapshot {
            counters: vec![
                ("exec.tasks.stolen".into(), 12),
                ("rm.milliwatts.reclaimed".into(), 340_500),
            ],
            gauges: vec![("exec.pool.workers".into(), 2.0)],
            histograms: vec![("grid.eval_cell.secs".into(), hist)],
            events: vec![Event {
                seq: 0,
                wall_us: 42,
                sim_s: f64::NAN,
                kind: EventKind::Marker {
                    name: "phase",
                    value: 1.0,
                },
            }],
            dropped_events: 0,
        }
    }

    #[test]
    fn json_export_is_well_formed() {
        let json = sample().to_json();
        assert!(json.contains("\"exec.tasks.stolen\":12"));
        assert!(json.contains("\"rm.milliwatts.reclaimed\":340500"));
        // NaN sim-time exported as null, not NaN (invalid JSON).
        assert!(json.contains("\"sim_s\":null"));
        assert!(!json.contains("NaN"));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in: {json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn prometheus_export_has_cumulative_buckets() {
        let prom = sample().to_prometheus();
        assert!(prom.contains("pmstack_exec_tasks_stolen_total 12"));
        assert!(prom.contains("pmstack_exec_pool_workers 2.0"));
        let lines: Vec<&str> = prom
            .lines()
            .filter(|l| l.starts_with("pmstack_grid_eval_cell_secs_bucket"))
            .collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].ends_with(" 1"));
        assert!(lines[1].ends_with(" 2"));
        assert!(lines[2] == "pmstack_grid_eval_cell_secs_bucket{le=\"+Inf\"} 3");
        assert!(prom.contains("pmstack_grid_eval_cell_secs_count 3"));
    }

    #[test]
    fn summary_lists_every_metric_kind() {
        let text = sample().summary();
        assert!(text.contains("exec.tasks.stolen"));
        assert!(text.contains("rm.milliwatts.reclaimed"));
        assert!(text.contains("exec.pool.workers"));
        assert!(text.contains("grid.eval_cell.secs"));
        assert!(text.contains("n=3"));
        assert!(text.contains("1 retained, 0 dropped"));
    }

    #[test]
    fn snapshot_accessors_default_for_missing() {
        let s = sample();
        // Absent and zero are distinguishable: the dead-counter gate needs
        // to tell "never instrumented" from "instrumented but idle".
        assert_eq!(s.counter("nope"), None);
        assert_eq!(s.counter("exec.tasks.stolen"), Some(12));
        assert!(s.histogram("nope").is_none());
        assert_eq!(s.gauge("exec.pool.workers"), Some(2.0));
    }

    #[test]
    fn exporter_family_unifies_the_three_formats() {
        let s = sample();
        for name in EXPORTER_NAMES {
            let e = exporter(name).expect("registered exporter");
            assert_eq!(e.name(), *name);
            assert!(!e.content_type().is_empty());
            assert!(!e.render(&s).is_empty());
        }
        assert!(exporter("xml").is_none());
        assert_eq!(
            exporter("prometheus").unwrap().render(&s),
            s.to_prometheus()
        );
        assert_eq!(exporter("json").unwrap().render(&s), s.to_json());
        assert_eq!(exporter("summary").unwrap().render(&s), s.summary());
        assert!(exporter("json").unwrap().content_type().contains("json"));
    }

    #[test]
    fn prometheus_export_validates() {
        validate_prometheus(&sample().to_prometheus()).expect("well-formed export");
        // An empty export is trivially well-formed.
        validate_prometheus("").unwrap();
    }

    #[test]
    fn validator_rejects_torn_output() {
        // Sample without an announcing TYPE line.
        assert!(validate_prometheus("pmstack_x_total 3\n").is_err());
        // Truncated mid-line: the value is missing.
        assert!(validate_prometheus("# TYPE pmstack_x_total counter\npmstack_x_total\n").is_err());
        // Garbage value.
        assert!(validate_prometheus("# TYPE pmstack_x gauge\npmstack_x 1.2.3\n").is_err());
        // Unterminated label set (a torn bucket line).
        assert!(
            validate_prometheus("# TYPE pmstack_h histogram\npmstack_h_bucket{le=\"0.1 7\n")
                .is_err()
        );
        // Illegal metric name.
        assert!(validate_prometheus("# TYPE 9bad counter\n").is_err());
        // Histogram family announces its _bucket/_sum/_count samples.
        validate_prometheus(
            "# TYPE pmstack_h histogram\npmstack_h_bucket{le=\"+Inf\"} 2\n\
             pmstack_h_sum 0.5\npmstack_h_count 2\n",
        )
        .unwrap();
    }
}
