//! JSON-lines export: one self-describing record per metric and span,
//! for appending to `results/` files and post-processing with standard
//! tooling.

use std::fmt::Write as _;

use crate::registry::RegistrySnapshot;
use crate::span::{SpanKind, SpanRecord};

use super::{fmt_us, json_escape};

fn labels_json(labels: &[(String, String)]) -> String {
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Renders a registry snapshot (and optionally spans) as JSON lines.
///
/// Line order is deterministic: counters, gauges, histograms (each
/// sorted by key), then spans in `(start, seq)` order.
pub fn jsonl(snapshot: &RegistrySnapshot, spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    for ((name, labels), value) in &snapshot.counters {
        let _ = writeln!(
            out,
            "{{\"type\":\"counter\",\"name\":\"{}\",\"labels\":{},\"value\":{value}}}",
            json_escape(name),
            labels_json(labels)
        );
    }
    for ((name, labels), value) in &snapshot.gauges {
        let _ = writeln!(
            out,
            "{{\"type\":\"gauge\",\"name\":\"{}\",\"labels\":{},\"value\":{value}}}",
            json_escape(name),
            labels_json(labels)
        );
    }
    for ((name, labels), h) in &snapshot.histograms {
        let _ = writeln!(
            out,
            "{{\"type\":\"histogram\",\"name\":\"{}\",\"labels\":{},\"count\":{},\
             \"mean_us\":{},\"stdev_us\":{},\"p50_us\":{},\"p99_us\":{},\"max_us\":{}}}",
            json_escape(name),
            labels_json(labels),
            h.count,
            fmt_us(h.mean_us),
            fmt_us(h.stdev_us),
            fmt_us(h.p50_us),
            fmt_us(h.p99_us),
            fmt_us(h.max_us),
        );
    }
    for s in spans {
        let kind = match s.kind {
            SpanKind::Complete => "span",
            SpanKind::Instant => "instant",
        };
        let _ = writeln!(
            out,
            "{{\"type\":\"{kind}\",\"track\":\"{}\",\"name\":\"{}\",\"start_us\":{},\"dur_us\":{}}}",
            json_escape(s.track),
            json_escape(s.name),
            fmt_us(s.start.as_nanos() as f64 / 1_000.0),
            fmt_us((s.end.as_nanos() - s.start.as_nanos()) as f64 / 1_000.0),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::span::SpanRecorder;
    use fluidmem_sim::{SimDuration, SimInstant};

    #[test]
    fn snapshot_format_is_pinned() {
        let reg = Registry::new();
        reg.counter("ops", &[("op", "get")]).add(2);
        reg.gauge("depth", &[]).set(-1);
        let spans = SpanRecorder::new();
        spans.enable();
        spans.record_at(
            "kv",
            "read",
            SimInstant::EPOCH,
            SimInstant::EPOCH + SimDuration::from_micros(3),
            Vec::new,
        );
        let text = jsonl(&reg.snapshot(), &spans.records());
        assert_eq!(
            text,
            "{\"type\":\"counter\",\"name\":\"ops\",\"labels\":{\"op\":\"get\"},\"value\":2}\n\
             {\"type\":\"gauge\",\"name\":\"depth\",\"labels\":{},\"value\":-1}\n\
             {\"type\":\"span\",\"track\":\"kv\",\"name\":\"read\",\"start_us\":0,\"dur_us\":3}\n"
        );
    }

    #[test]
    fn every_line_is_valid_json() {
        let reg = Registry::new();
        reg.histogram("lat", &[("p", "x")])
            .observe(SimDuration::from_micros(7));
        let text = jsonl(&reg.snapshot(), &[]);
        for line in text.lines() {
            super::super::jsonchk::parse(line).unwrap();
        }
    }
}
