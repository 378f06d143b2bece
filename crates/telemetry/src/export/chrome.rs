//! Chrome trace-event JSON (the `chrome://tracing` / Perfetto format).
//!
//! Spans become `ph: "X"` complete events and markers become `ph: "i"`
//! instant events. Each span track maps to a stable `tid` (named via
//! `thread_name` metadata events), so loading the file in Perfetto shows
//! the monitor's critical path on one row and the async KV flights /
//! kernel TLB shootdowns overlapping it on their own rows — the Fig. 2
//! structure, visible.

use std::fmt::Write as _;

use crate::consts::TRACK_TIDS;
use crate::span::{SpanKind, SpanRecord};

use super::jsonchk;
use super::{fmt_us, json_escape};

fn tid_of(track: &str, extra: &mut Vec<String>) -> u64 {
    if let Some(&(_, tid)) = TRACK_TIDS.iter().find(|(name, _)| *name == track) {
        return tid;
    }
    if let Some(pos) = extra.iter().position(|t| t == track) {
        return TRACK_TIDS.len() as u64 + 1 + pos as u64;
    }
    extra.push(track.to_string());
    TRACK_TIDS.len() as u64 + extra.len() as u64
}

/// Renders completed spans as a Chrome trace-event JSON document.
///
/// `ts`/`dur` are microseconds of virtual time since the simulation
/// epoch. Output is deterministic for a given span list.
pub(crate) fn chrome_trace(records: &[SpanRecord]) -> String {
    let mut extra_tracks: Vec<String> = Vec::new();
    let mut events: Vec<String> = Vec::new();

    // Metadata: name the process and every track that appears.
    events.push(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"fluidmem\"}}"
            .to_string(),
    );
    let mut seen_tracks: Vec<&str> = Vec::new();
    for r in records {
        if !seen_tracks.contains(&r.track) {
            seen_tracks.push(r.track);
        }
    }
    // Assign extra-track tids in first-appearance order, then declare
    // the threads sorted by tid (well-known tracks first).
    let mut declared: Vec<(u64, &str)> = seen_tracks
        .iter()
        .map(|t| (tid_of(t, &mut extra_tracks), *t))
        .collect();
    declared.sort();
    for (tid, track) in declared {
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(track)
        ));
    }

    for r in records {
        let tid = tid_of(r.track, &mut extra_tracks);
        let ts = fmt_us(r.start.as_nanos() as f64 / 1_000.0);
        let mut args = String::new();
        if !r.args.is_empty() {
            let body: Vec<String> = r
                .args
                .iter()
                .map(|(k, v)| format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)))
                .collect();
            args = format!(",\"args\":{{{}}}", body.join(","));
        }
        match r.kind {
            SpanKind::Complete => {
                let dur = fmt_us((r.end.as_nanos() - r.start.as_nanos()) as f64 / 1_000.0);
                events.push(format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\
                     \"name\":\"{}\"{args}}}",
                    json_escape(r.name)
                ));
            }
            SpanKind::Instant => {
                events.push(format!(
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"s\":\"t\",\
                     \"name\":\"{}\"{args}}}",
                    json_escape(r.name)
                ));
            }
        }
    }

    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        let _ = write!(out, "{e}");
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

/// Validates that `text` parses as JSON and has the Chrome trace shape
/// (a top-level object with a `traceEvents` array of event objects, each
/// carrying `ph` and `name`). Returns the number of duration (`"X"`)
/// events.
///
/// # Errors
///
/// A human-readable description of the first structural problem.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    jsonchk::validate_trace(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanRecorder;
    use fluidmem_sim::{SimDuration, SimInstant};

    fn t(us: u64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_micros(us)
    }

    #[test]
    fn snapshot_format_is_pinned() {
        let r = SpanRecorder::new();
        r.enable();
        r.record_at("monitor", "fault", t(1), t(4), || {
            vec![("vpn", "0x10".to_string())]
        });
        r.instant("monitor", "wake", t(4), Vec::new);
        let json = chrome_trace(&r.records());
        assert_eq!(
            json,
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\
             {\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"fluidmem\"}},\n\
             {\"ph\":\"M\",\"pid\":1,\"tid\":2,\"name\":\"thread_name\",\"args\":{\"name\":\"monitor\"}},\n\
             {\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":1,\"dur\":3,\"name\":\"fault\",\"args\":{\"vpn\":\"0x10\"}},\n\
             {\"ph\":\"i\",\"pid\":1,\"tid\":2,\"ts\":4,\"s\":\"t\",\"name\":\"wake\"}\n\
             ]}\n"
        );
    }

    #[test]
    fn output_validates() {
        let r = SpanRecorder::new();
        r.enable();
        r.record_at("kv", "read", t(0), t(10), Vec::new);
        r.record_at("monitor", "fault \"quoted\"", t(2), t(3), Vec::new);
        let json = chrome_trace(&r.records());
        assert_eq!(validate_chrome_trace(&json), Ok(2));
    }

    #[test]
    fn unknown_tracks_get_stable_tids() {
        let r = SpanRecorder::new();
        r.enable();
        r.record_at("custom-a", "x", t(0), t(1), Vec::new);
        r.record_at("custom-b", "y", t(1), t(2), Vec::new);
        let json = chrome_trace(&r.records());
        assert!(json.contains("\"tid\":7"));
        assert!(json.contains("\"tid\":8"));
        assert_eq!(validate_chrome_trace(&json), Ok(2));
    }
}
