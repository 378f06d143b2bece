//! The benchmark's own host-time span recorder.
//!
//! Spans are recorded around the benchmark's calls into the system (name,
//! start, end, parent), kept in memory, and written out when the run ends.
//! Nothing here touches the repository's crates: this is the "measured from
//! outside" half of the per-layer ledger. Work too fine to give a span each
//! (one guest access) is summed into [`Tally`] buckets instead.

use std::time::Instant;

use crate::json::Json;

/// One completed (or still open) host-time span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    /// 0 while the span is open.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl SpanLog {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes `id` (and anything left open inside it); returns its seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
        (now - self.spans[id].start_ns) as f64 / 1e9
    }

    /// Runs `f` inside a span and returns its result and duration (s).
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut SpanLog) -> T) -> (T, f64) {
        let id = self.begin(name);
        let out = f(self);
        (out, self.end(id))
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's self time: its duration minus what its children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let total = self.spans[id]
            .end_ns
            .saturating_sub(self.spans[id].start_ns);
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .sum();
        total.saturating_sub(children)
    }

    /// Chrome trace-event objects for the host-time track (`pid` 2, so the
    /// viewer shows it beside the repository's virtual-time process 1).
    pub fn chrome_events(&self) -> Vec<Json> {
        let meta = |name: &str, tid: u64, label: &str| {
            Json::obj()
                .set("ph", "M")
                .set("pid", 2u64)
                .set("tid", tid)
                .set("name", name)
                .set("args", Json::obj().set("name", label))
        };
        let mut events = vec![
            meta("process_name", 0, "fmbench (host time)"),
            meta("thread_name", 1, "benchmark spans"),
        ];
        for (id, s) in self.spans.iter().enumerate() {
            let mut args = Json::obj().set("self_us", self.self_ns(id) as f64 / 1e3);
            if let Some(p) = s.parent {
                args = args.set("parent", self.spans[p].name);
            }
            events.push(
                Json::obj()
                    .set("ph", "X")
                    .set("pid", 2u64)
                    .set("tid", 1u64)
                    .set("ts", s.start_ns as f64 / 1e3)
                    .set("dur", s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3)
                    .set("name", s.name)
                    .set("args", args),
            );
        }
        events
    }
}

/// A count-plus-time bucket for calls too frequent to give a span each.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub calls: u64,
    pub ns: u64,
}

impl Tally {
    pub fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
    }

    pub fn merge(&mut self, other: Tally) {
        self.calls += other.calls;
        self.ns += other.ns;
    }

    /// Mean ns per call after removing the timer's own cost per call.
    pub fn ns_per_call(&self, timer_ns: f64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            (self.ns as f64 / self.calls as f64 - timer_ns).max(0.0)
        }
    }

    /// Total ns after removing the timer's own cost.
    pub fn net_ns(&self, timer_ns: f64) -> f64 {
        (self.ns as f64 - timer_ns * self.calls as f64).max(0.0)
    }
}

/// What one `Instant::now()` pair costs on this machine, in ns — removed
/// from every per-call timing so a 20 ns page-table hit is not reported as
/// 60 ns of timer.
pub fn timer_overhead_ns() -> f64 {
    const N: u32 = 20_000;
    let mut best = f64::MAX;
    for _ in 0..5 {
        let t0 = Instant::now();
        let mut sink = 0u128;
        for _ in 0..N {
            let a = Instant::now();
            sink += a.elapsed().as_nanos();
        }
        std::hint::black_box(sink);
        best = best.min(t0.elapsed().as_nanos() as f64 / f64::from(N));
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut log = SpanLog::default();
        let outer = log.begin("outer");
        let inner = log.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        log.end(inner);
        log.end(outer);
        let spans = log.spans();
        assert_eq!(spans[inner].parent, Some(outer));
        assert_eq!(spans[outer].parent, None);
        assert!(spans[inner].end_ns >= spans[inner].start_ns + 2_000_000);
        let outer_total = spans[outer].end_ns - spans[outer].start_ns;
        let inner_total = spans[inner].end_ns - spans[inner].start_ns;
        assert_eq!(log.self_ns(outer), outer_total - inner_total);
        assert_eq!(log.self_ns(inner), inner_total);
    }

    #[test]
    fn ending_an_outer_span_closes_what_is_open_inside_it() {
        let mut log = SpanLog::default();
        let outer = log.begin("outer");
        let inner = log.begin("leaked");
        log.end(outer);
        assert!(log.spans()[inner].end_ns > 0);
        assert_eq!(log.begin("next"), 2);
        assert_eq!(log.spans()[2].parent, None);
    }

    #[test]
    fn chrome_events_carry_parent_and_duration() {
        let mut log = SpanLog::default();
        let ((), secs) = log.time("setup", |log| {
            log.time("build", |_| ());
        });
        assert!(secs >= 0.0);
        let events = log.chrome_events();
        assert_eq!(events.len(), 2 + 2);
        let build = &events[3];
        assert_eq!(build.get("name").and_then(Json::as_str), Some("build"));
        let parent = build.get("args").and_then(|a| a.get("parent"));
        assert_eq!(parent.and_then(Json::as_str), Some("setup"));
    }

    #[test]
    fn tally_removes_timer_cost_but_never_goes_negative() {
        let mut t = Tally::default();
        t.add(100);
        t.add(140);
        assert_eq!(t.ns_per_call(20.0), 100.0);
        assert_eq!(t.net_ns(20.0), 200.0);
        assert_eq!(t.ns_per_call(500.0), 0.0);
        assert_eq!(Tally::default().ns_per_call(20.0), 0.0);
        assert!(timer_overhead_ns() > 0.0);
    }
}
