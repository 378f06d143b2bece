//! `fluidmem-telemetry` — the unified metrics and tracing subsystem.
//!
//! The paper's entire evaluation (Table I code-path latencies, Table II
//! ablations, Figure 3 CDFs) is an observability exercise, so this crate
//! makes observability first-class instead of scattering ad-hoc counter
//! structs across crates:
//!
//! * a **metrics [`Registry`]** of labeled [`Counter`]s, [`Gauge`]s, and
//!   virtual-time [`Histogram`]s (exact moments plus a bounded
//!   percentile subsample). Instruments are `Arc`-backed handles
//!   resolved once at registration, so they are cheap enough to live in
//!   the fault hot path. It is read as typed data: a
//!   [`RegistrySnapshot`] sorted by name and labels;
//! * **hierarchical [spans](SpanRecorder)** over [`SimClock`] virtual
//!   time, organized into tracks (`monitor`, `kv`, `kernel`, …) so the
//!   async-read bottom half visibly overlaps `UFFD_REMAP` — the §V-B
//!   structure Table II's optimizations exploit. They are printed one
//!   line per record ([`SpanRecord`]'s `Display`) or rendered as Chrome
//!   trace-event JSON ([`Telemetry::export_chrome_trace`], loadable in
//!   Perfetto).
//!
//! For a given seed the registry snapshot compares equal across runs and
//! the Chrome trace is byte-identical, so both can be tested and diffed.
//!
//! # Example
//!
//! ```
//! use fluidmem_sim::{SimClock, SimDuration};
//! use fluidmem_telemetry::{consts, Telemetry};
//!
//! let clock = SimClock::new();
//! let tele = Telemetry::new(clock.clone());
//! let faults = tele
//!     .registry()
//!     .counter(consts::MONITOR_EVENTS, &[(consts::LABEL_EVENT, "fault")]);
//!
//! tele.enable_spans();
//! let span = tele.begin(consts::TRACK_MONITOR, "fault");
//! faults.inc();
//! clock.advance(SimDuration::from_micros(12));
//! tele.end(span);
//!
//! let snapshot = tele.registry().snapshot();
//! assert_eq!(snapshot.counters[0].0 .0, consts::MONITOR_EVENTS);
//! assert_eq!(snapshot.counters[0].1, 1);
//! assert_eq!(fluidmem_telemetry::validate_chrome_trace(&tele.export_chrome_trace()), Ok(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod consts;
mod export;
mod instruments;
mod registry;
mod span;

pub(crate) use export::chrome_trace;
pub use export::validate_chrome_trace;
pub use instruments::{CatalogueRow, InstrumentKind};
pub use registry::{Counter, Gauge, Histogram, HistogramSnapshot, Registry, RegistrySnapshot};
pub use span::{SpanId, SpanKind, SpanRecord, SpanRecorder};

use fluidmem_sim::{SimClock, SimInstant};

/// The bundled telemetry handle every instrumented component holds: a
/// metrics registry, a span recorder, and the virtual clock that stamps
/// spans.
///
/// Clones share all underlying state, exactly like [`SimClock`] itself.
/// A default handle (spans disabled) is cheap enough to embed
/// unconditionally; components expose an `attach_telemetry` /
/// `instrument` hook to swap in a shared, exported handle.
#[derive(Clone, Debug)]
pub struct Telemetry {
    registry: Registry,
    spans: SpanRecorder,
    clock: SimClock,
}

impl Telemetry {
    /// Creates a telemetry handle over `clock` with spans disabled.
    pub fn new(clock: SimClock) -> Self {
        Telemetry {
            registry: Registry::new(),
            spans: SpanRecorder::new(),
            clock,
        }
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The span recorder.
    pub fn spans(&self) -> &SpanRecorder {
        &self.spans
    }

    /// Starts recording spans.
    pub fn enable_spans(&self) {
        self.spans.enable();
    }

    /// Opens a span on `track` starting now.
    #[inline]
    pub fn begin(&self, track: &'static str, name: &'static str) -> SpanId {
        self.spans.begin_at(track, name, self.clock.now(), Vec::new)
    }

    /// Opens a span with lazily-built annotations (the closure only runs
    /// when spans are enabled).
    #[inline]
    pub fn begin_with<F>(&self, track: &'static str, name: &'static str, args: F) -> SpanId
    where
        F: FnOnce() -> Vec<(&'static str, String)>,
    {
        self.spans.begin_at(track, name, self.clock.now(), args)
    }

    /// Closes a span now.
    #[inline]
    pub fn end(&self, id: SpanId) {
        self.spans.end_at(id, self.clock.now());
    }

    /// Closes a span at an explicit instant (e.g. the guest wake time,
    /// when post-wake work has already advanced the clock).
    #[inline]
    pub fn end_at(&self, id: SpanId, at: SimInstant) {
        self.spans.end_at(id, at);
    }

    /// Records a complete span with a known interval (async flights).
    #[inline]
    pub fn record_span(
        &self,
        track: &'static str,
        name: &'static str,
        start: SimInstant,
        end: SimInstant,
    ) {
        self.spans.record_at(track, name, start, end, Vec::new);
    }

    /// Records a zero-duration marker now, with lazily-built annotations.
    #[inline]
    pub fn instant<F>(&self, track: &'static str, name: &'static str, args: F)
    where
        F: FnOnce() -> Vec<(&'static str, String)>,
    {
        self.spans.instant(track, name, self.clock.now(), args);
    }

    /// Records a zero-duration marker at an explicit instant.
    #[inline]
    pub fn instant_at(&self, track: &'static str, name: &'static str, at: SimInstant) {
        self.spans.instant(track, name, at, Vec::new);
    }

    /// Renders recorded spans as Chrome trace-event JSON.
    pub fn export_chrome_trace(&self) -> String {
        chrome_trace(&self.spans.records())
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new(SimClock::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluidmem_sim::SimDuration;

    #[test]
    fn clones_share_state() {
        let t = Telemetry::default();
        let u = t.clone();
        t.registry().counter("c", &[]).inc();
        assert_eq!(u.registry().counter("c", &[]).get(), 1);
        u.enable_spans();
        assert!(t.spans.is_enabled());
    }

    #[test]
    fn span_roundtrip_through_exports() {
        let clock = SimClock::new();
        let t = Telemetry::new(clock.clone());
        t.enable_spans();
        let fault = t.begin(consts::TRACK_MONITOR, "fault");
        clock.advance(SimDuration::from_micros(10));
        t.end(fault);
        let json = t.export_chrome_trace();
        assert_eq!(validate_chrome_trace(&json), Ok(1));
    }
}
