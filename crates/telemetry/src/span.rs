//! Hierarchical spans over virtual time.
//!
//! A span is a named interval on a *track* (a virtual thread in the
//! Chrome-trace sense: `monitor`, `kv`, `kernel`, …). Because the
//! simulation is single-threaded per track and advances one shared
//! virtual clock, spans on one track nest properly by containment — the
//! Chrome trace viewer (and Perfetto) reconstructs the hierarchy from
//! the intervals alone. Cross-track spans (an async KV read's flight
//! recorded on the `kv` track while `UFFD_REMAP` runs on `monitor`)
//! *overlap* in time, which is exactly the §V-B structure Table II's
//! optimizations exploit and what the trace exists to show.
//!
//! Completed spans live in a bounded ring: long runs drop the oldest
//! spans instead of growing without limit.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use fluidmem_sim::SimInstant;

use crate::consts::SPAN_RING_CAPACITY;

/// Identifies an open span returned by a `begin` call.
///
/// The id is `NONE` when recording is disabled, making the matching
/// `end` a no-op — begin/end pairs can stay in hot paths unconditionally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u64);

impl SpanId {
    /// The id handed out while recording is disabled.
    pub const NONE: SpanId = SpanId(0);

    /// Whether this id refers to a live span.
    pub(crate) fn is_live(self) -> bool {
        self.0 != 0
    }
}

/// How a record should be rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A duration event (`ph: "X"` in Chrome trace terms).
    Complete,
    /// A zero-duration marker (`ph: "i"`), e.g. the guest wake.
    Instant,
}

/// One completed span (or instant marker).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name (e.g. `"fault"`, `"UFFD_REMAP"`).
    pub name: &'static str,
    /// Track (virtual thread) the span belongs to.
    pub track: &'static str,
    /// Start of the interval.
    pub start: SimInstant,
    /// End of the interval (equal to `start` for instants).
    pub end: SimInstant,
    /// Duration or instant.
    pub kind: SpanKind,
    /// Free-form `key=value` annotations.
    pub args: Vec<(&'static str, String)>,
    /// Sequence number taken when the span opened or was recorded:
    /// records are exported in `(start, seq)` order, so of two records
    /// that start at one instant the one begun first comes first (a
    /// parent before its children).
    pub seq: u64,
}

/// One line per record, `[start–end] track: name k=v…` (an instant shows
/// its one time), the text form `fig2` and `fluidmemctl trace` print.
impl fmt::Display for SpanRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            SpanKind::Complete => write!(f, "[{}–{}]", self.start, self.end)?,
            SpanKind::Instant => write!(f, "[{}]", self.start)?,
        }
        write!(f, " {}: {}", self.track, self.name)?;
        self.args
            .iter()
            .try_for_each(|(k, v)| write!(f, " {k}={v}"))
    }
}

#[derive(Debug)]
struct OpenSpan {
    /// The span's id, which is also its `seq`.
    id: u64,
    name: &'static str,
    track: &'static str,
    start: SimInstant,
    args: Vec<(&'static str, String)>,
}

#[derive(Debug)]
struct RecorderCore {
    /// The next span id and record `seq`: one counter, so `seq` follows
    /// the order in which records were begun.
    next_seq: u64,
    capacity: usize,
    open: Vec<OpenSpan>,
    done: VecDeque<SpanRecord>,
    dropped: u64,
}

impl Default for RecorderCore {
    fn default() -> Self {
        RecorderCore {
            next_seq: 1,
            capacity: SPAN_RING_CAPACITY,
            open: Vec::new(),
            done: VecDeque::new(),
            dropped: 0,
        }
    }
}

impl RecorderCore {
    fn take_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    /// Appends a completed record, dropping the oldest completed one when
    /// the ring is full.
    fn push_done(&mut self, record: SpanRecord) {
        if self.done.len() >= self.capacity {
            self.done.pop_front();
            self.dropped += 1;
        }
        self.done.push_back(record);
    }
}

/// A bounded recorder of virtual-time spans.
///
/// Clones share the same ring. Disabled recorders cost one relaxed
/// atomic load per call and allocate nothing.
#[derive(Clone, Debug, Default)]
pub struct SpanRecorder {
    enabled: Arc<AtomicBool>,
    core: Arc<Mutex<RecorderCore>>,
}

impl SpanRecorder {
    /// Creates a disabled recorder with the default ring capacity.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Caps the ring at `capacity` completed spans (oldest are dropped).
    #[cfg(test)]
    fn set_capacity(&self, capacity: usize) {
        let mut core = self.core.lock().expect("span lock");
        core.capacity = capacity.max(1);
        while core.done.len() > core.capacity {
            core.done.pop_front();
            core.dropped += 1;
        }
    }

    /// Turns recording on.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Turns recording off (existing records are kept).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether spans are being recorded.
    #[inline]
    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// How many completed spans were dropped by the ring.
    pub fn dropped(&self) -> u64 {
        self.core.lock().expect("span lock").dropped
    }

    /// Opens a span on `track` starting at `start`. The `args` closure is
    /// only evaluated when recording is enabled.
    pub(crate) fn begin_at<F>(
        &self,
        track: &'static str,
        name: &'static str,
        start: SimInstant,
        args: F,
    ) -> SpanId
    where
        F: FnOnce() -> Vec<(&'static str, String)>,
    {
        if !self.is_enabled() {
            return SpanId::NONE;
        }
        let mut core = self.core.lock().expect("span lock");
        let id = core.take_seq();
        core.open.push(OpenSpan {
            id,
            name,
            track,
            start,
            args: args(),
        });
        SpanId(id)
    }

    /// Closes an open span at `end`. Unknown or `NONE` ids are ignored.
    pub(crate) fn end_at(&self, id: SpanId, end: SimInstant) {
        if !id.is_live() {
            return;
        }
        let mut core = self.core.lock().expect("span lock");
        let Some(pos) = core.open.iter().rposition(|s| s.id == id.0) else {
            return;
        };
        let open = core.open.swap_remove(pos);
        core.push_done(SpanRecord {
            name: open.name,
            track: open.track,
            start: open.start,
            end: end.max(open.start),
            kind: SpanKind::Complete,
            args: open.args,
            seq: open.id,
        });
    }

    /// Records a complete span with a known interval (async flights whose
    /// completion time is decided at issue).
    pub fn record_at<F>(
        &self,
        track: &'static str,
        name: &'static str,
        start: SimInstant,
        end: SimInstant,
        args: F,
    ) where
        F: FnOnce() -> Vec<(&'static str, String)>,
    {
        if !self.is_enabled() {
            return;
        }
        let mut core = self.core.lock().expect("span lock");
        let seq = core.take_seq();
        core.push_done(SpanRecord {
            name,
            track,
            start,
            end: end.max(start),
            kind: SpanKind::Complete,
            args: args(),
            seq,
        });
    }

    /// Records a zero-duration instant marker. The `args` closure is
    /// only evaluated when recording is enabled.
    pub(crate) fn instant<F>(
        &self,
        track: &'static str,
        name: &'static str,
        at: SimInstant,
        args: F,
    ) where
        F: FnOnce() -> Vec<(&'static str, String)>,
    {
        if !self.is_enabled() {
            return;
        }
        let mut core = self.core.lock().expect("span lock");
        let seq = core.take_seq();
        core.push_done(SpanRecord {
            name,
            track,
            start: at,
            end: at,
            kind: SpanKind::Instant,
            args: args(),
            seq,
        });
    }

    /// Completed spans sorted by `(start, seq)` — the deterministic
    /// export order, in which a record precedes every record that starts
    /// at the same instant but was begun after it.
    pub fn records(&self) -> Vec<SpanRecord> {
        let core = self.core.lock().expect("span lock");
        let mut v: Vec<SpanRecord> = core.done.iter().cloned().collect();
        v.sort_by_key(|r| (r.start, r.seq));
        v
    }

    /// Drops all completed and open spans.
    pub fn clear(&self) {
        let mut core = self.core.lock().expect("span lock");
        core.open.clear();
        core.done.clear();
        core.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluidmem_sim::SimDuration;

    fn t(us: u64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_micros(us)
    }

    #[test]
    fn disabled_recorder_is_free_and_silent() {
        let r = SpanRecorder::new();
        let mut evaluated = false;
        let id = r.begin_at("monitor", "fault", t(0), || {
            evaluated = true;
            vec![]
        });
        assert_eq!(id, SpanId::NONE);
        assert!(!evaluated, "args closure must not run while disabled");
        r.end_at(id, t(1));
        assert!(r.records().is_empty());
    }

    #[test]
    fn begin_end_records_interval() {
        let r = SpanRecorder::new();
        r.enable();
        let id = r.begin_at("monitor", "fault", t(1), || vec![("vpn", "0x10".into())]);
        r.end_at(id, t(5));
        let recs = r.records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].name, "fault");
        assert_eq!(recs[0].start, t(1));
        assert_eq!(recs[0].end, t(5));
        assert_eq!(recs[0].args[0].1, "0x10");
    }

    #[test]
    fn ring_caps_and_counts_drops() {
        let r = SpanRecorder::new();
        r.enable();
        r.set_capacity(2);
        for i in 0..5 {
            r.record_at("kv", "op", t(i), t(i + 1), Vec::new);
        }
        assert_eq!(r.records().len(), 2);
        assert_eq!(r.dropped(), 3);
        assert_eq!(r.records()[0].start, t(3), "oldest were dropped");
    }

    #[test]
    fn records_sorted_by_start_then_seq() {
        let r = SpanRecorder::new();
        r.enable();
        // The outer span ends after the inner one, so it completes later
        // but starts earlier.
        let outer = r.begin_at("monitor", "outer", t(0), Vec::new);
        let inner = r.begin_at("monitor", "inner", t(1), Vec::new);
        r.end_at(inner, t(2));
        r.end_at(outer, t(3));
        let names: Vec<&str> = r.records().into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["outer", "inner"]);
    }

    #[test]
    fn same_instant_records_keep_the_order_they_were_begun() {
        let r = SpanRecorder::new();
        r.enable();
        // An instant recorded before a span that begins at its instant.
        r.instant("guest", "wake", t(1), Vec::new);
        let remap = r.begin_at("monitor", "UFFD_REMAP", t(1), Vec::new);
        r.end_at(remap, t(3));
        // A parent and its first child begin at one instant; the child
        // completes first.
        let fault = r.begin_at("monitor", "fault", t(4), Vec::new);
        let lookup = r.begin_at("monitor", "page_hash_lookup", t(4), Vec::new);
        r.end_at(lookup, t(5));
        r.end_at(fault, t(9));
        let names: Vec<&str> = r.records().into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["wake", "UFFD_REMAP", "fault", "page_hash_lookup"]);
    }

    #[test]
    fn instant_markers_have_zero_duration() {
        let r = SpanRecorder::new();
        r.enable();
        r.instant("monitor", "wake", t(7), Vec::new);
        let recs = r.records();
        assert_eq!(recs[0].kind, SpanKind::Instant);
        assert_eq!(recs[0].start, recs[0].end);
    }

    #[test]
    fn display_prints_one_line_per_record() {
        let r = SpanRecorder::new();
        r.enable();
        r.record_at("kv", "kv.write.flight", t(1), t(3), || {
            vec![("pages", "2".into())]
        });
        r.instant("guest", "wake", t(3), Vec::new);
        let lines: Vec<String> = r.records().iter().map(ToString::to_string).collect();
        assert_eq!(
            lines,
            [
                "[t+1.000µs–t+3.000µs] kv: kv.write.flight pages=2",
                "[t+3.000µs] guest: wake"
            ]
        );
    }

    #[test]
    fn end_never_precedes_start() {
        let r = SpanRecorder::new();
        r.enable();
        let id = r.begin_at("monitor", "x", t(5), Vec::new);
        r.end_at(id, t(1));
        assert_eq!(r.records()[0].end, t(5));
    }
}
