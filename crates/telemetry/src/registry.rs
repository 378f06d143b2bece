//! The metrics registry: labeled counters, gauges, and virtual-time
//! histograms.
//!
//! Instruments are cheap handles (`Arc` underneath) resolved once at
//! registration time, so hot paths touch an atomic (counters, gauges) or
//! one short mutex section (histograms) — never a name lookup. The
//! registry itself only holds the shared handles; [`Registry::snapshot`]
//! iterates a `BTreeMap`, so two runs with one seed compare equal.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use fluidmem_sim::stats::{Sample, Summary};
use fluidmem_sim::SimDuration;

use crate::consts::HIST_SAMPLE_CAP;

/// A metric's identity: name plus sorted `(key, value)` labels.
pub(crate) type MetricKey = (String, Vec<(String, String)>);

fn metric_key<'a>(
    name: &str,
    labels: impl IntoIterator<Item = &'a (&'a str, &'a str)>,
) -> MetricKey {
    let mut l: Vec<(String, String)> = labels
        .into_iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    l.sort();
    (name.to_string(), l)
}

/// A monotonically increasing counter handle.
///
/// Detached counters (`Counter::default()`) work standalone; adopting them
/// into a [`Registry`] makes the same handle exportable.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a value that can go up and down.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (negative to subtract).
    #[cfg(test)]
    pub(crate) fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub(crate) fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct HistogramCore {
    /// Exact streaming moments, in microseconds.
    summary: Summary,
    /// Bounded systematic subsample for precise percentiles.
    sample: Sample,
}

/// A latency histogram over virtual time.
///
/// Means and standard deviations are exact (streaming moments), and
/// percentiles come from a subsample bounded by
/// [`HIST_SAMPLE_CAP`](crate::consts::HIST_SAMPLE_CAP): every
/// observation up to the cap, then every `1 + n / cap`-th.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<Mutex<HistogramCore>>);

impl Histogram {
    /// Creates a detached, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency observation.
    pub fn observe(&self, d: SimDuration) {
        let mut c = self.0.lock().expect("histogram lock");
        c.summary.record_duration(d);
        let n = c.summary.count();
        if n <= HIST_SAMPLE_CAP || n.is_multiple_of(1 + n / HIST_SAMPLE_CAP) {
            c.sample.record_duration(d);
        }
    }

    /// Records one unit-less observation (a page count, a queue depth).
    ///
    /// The value is recorded as that many nanoseconds, so the snapshot's
    /// `_us` fields read in thousands of units. Metrics recorded this way
    /// must say so in their name/docs (e.g.
    /// [`crate::consts::REFAULT_DISTANCE_PAGES`]); mixing units in one
    /// histogram would make its summary meaningless.
    pub fn observe_value(&self, v: u64) {
        self.observe(SimDuration::from_nanos(v));
    }

    /// A point-in-time copy of the histogram's statistics. The
    /// percentile subsample is sorted in place, under the lock.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut c = self.0.lock().expect("histogram lock");
        HistogramSnapshot {
            count: c.summary.count(),
            sum_us: c.summary.mean() * c.summary.count() as f64,
            mean_us: c.summary.mean(),
            stdev_us: c.summary.stdev(),
            min_us: c.summary.min(),
            max_us: c.summary.max(),
            p50_us: c.sample.percentile(0.5),
            p99_us: c.sample.percentile(0.99),
        }
    }

    /// Drops all recorded observations.
    pub fn reset(&self) {
        *self.0.lock().expect("histogram lock") = HistogramCore::default();
    }
}

/// A point-in-time view of one [`Histogram`]. No field is ever NaN
/// (an empty histogram reads 0 throughout), so snapshots compare with
/// `==`.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations (µs).
    pub sum_us: f64,
    /// Exact mean (µs).
    pub mean_us: f64,
    /// Exact sample standard deviation (µs).
    pub stdev_us: f64,
    /// Smallest observation (µs).
    pub(crate) min_us: f64,
    /// Largest observation (µs).
    pub max_us: f64,
    /// Median from the percentile subsample (µs).
    pub p50_us: f64,
    /// 99th percentile from the percentile subsample (µs).
    pub p99_us: f64,
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<MetricKey, Counter>,
    gauges: BTreeMap<MetricKey, Gauge>,
    histograms: BTreeMap<MetricKey, Histogram>,
}

/// The shared metrics registry.
///
/// Clones share the same underlying maps. Instruments obtained twice
/// under the same name and labels are the same handle.
///
/// # Example
///
/// ```
/// use fluidmem_telemetry::Registry;
///
/// let reg = Registry::new();
/// let faults = reg.counter("faults_total", &[("kind", "minor")]);
/// faults.inc();
/// assert_eq!(reg.counter("faults_total", &[("kind", "minor")]).get(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Registry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gets or creates a gauge.
    #[cfg(test)]
    pub(crate) fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = metric_key(name, labels);
        let mut inner = self.inner.lock().expect("registry lock");
        inner.gauges.entry(key).or_default().clone()
    }

    /// Gets or creates a counter under `name` and `labels`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = metric_key(name, labels);
        let mut inner = self.inner.lock().expect("registry lock");
        inner.counters.entry(key).or_default().clone()
    }

    /// Gets or creates a histogram.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let key = metric_key(name, labels);
        let mut inner = self.inner.lock().expect("registry lock");
        inner.histograms.entry(key).or_default().clone()
    }

    /// Registers an *existing* counter handle (and its accumulated
    /// value) under `name`/`labels`, replacing any previous registration.
    /// Lets components instrument themselves after construction without
    /// losing counts.
    pub fn adopt_counter<'a>(
        &self,
        name: &str,
        labels: impl IntoIterator<Item = &'a (&'a str, &'a str)>,
        counter: &Counter,
    ) {
        let key = metric_key(name, labels);
        let mut inner = self.inner.lock().expect("registry lock");
        inner.counters.insert(key, counter.clone());
    }

    /// Registers an existing gauge handle.
    pub fn adopt_gauge<'a>(
        &self,
        name: &str,
        labels: impl IntoIterator<Item = &'a (&'a str, &'a str)>,
        gauge: &Gauge,
    ) {
        let key = metric_key(name, labels);
        let mut inner = self.inner.lock().expect("registry lock");
        inner.gauges.insert(key, gauge.clone());
    }

    /// Registers an existing histogram handle.
    pub fn adopt_histogram<'a>(
        &self,
        name: &str,
        labels: impl IntoIterator<Item = &'a (&'a str, &'a str)>,
        histogram: &Histogram,
    ) {
        let key = metric_key(name, labels);
        let mut inner = self.inner.lock().expect("registry lock");
        inner.histograms.insert(key, histogram.clone());
    }

    /// A deterministic point-in-time copy of every registered metric,
    /// sorted by name then labels.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = self.inner.lock().expect("registry lock");
        RegistrySnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, g)| (k.clone(), g.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// A deterministic copy of a [`Registry`]'s contents: what Table I,
/// `stats()` views and the benchmark read, and what determinism tests
/// compare.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// Counters, sorted by key.
    pub counters: Vec<(MetricKey, u64)>,
    /// Gauges, sorted by key.
    pub gauges: Vec<(MetricKey, i64)>,
    /// Histograms, sorted by key.
    pub histograms: Vec<(MetricKey, HistogramSnapshot)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_is_same_handle() {
        let reg = Registry::new();
        let a = reg.counter("x", &[("l", "1")]);
        let b = reg.counter("x", &[("l", "1")]);
        a.add(3);
        assert_eq!(b.get(), 3);
        let other = reg.counter("x", &[("l", "2")]);
        assert_eq!(other.get(), 0);
    }

    #[test]
    fn label_order_does_not_matter() {
        let reg = Registry::new();
        reg.counter("x", &[("a", "1"), ("b", "2")]).inc();
        assert_eq!(reg.counter("x", &[("b", "2"), ("a", "1")]).get(), 1);
    }

    #[test]
    fn adopted_counter_keeps_its_value() {
        let reg = Registry::new();
        let c = Counter::default();
        c.add(7);
        reg.adopt_counter("pre", &[], &c);
        assert_eq!(reg.counter("pre", &[]).get(), 7);
        c.inc();
        assert_eq!(reg.snapshot().counters[0].1, 8);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::default();
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_moments_are_exact() {
        let h = Histogram::new();
        for us in [10u64, 20, 30] {
            h.observe(SimDuration::from_micros(us));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert!((s.mean_us - 20.0).abs() < 1e-9);
        assert!((s.stdev_us - 10.0).abs() < 1e-9);
        assert!((s.sum_us - 60.0).abs() < 1e-9);
        assert_eq!(s.min_us, 10.0);
        assert_eq!(s.max_us, 30.0);
    }

    #[test]
    fn percentiles_hold_across_snapshots_and_later_observations() {
        let h = Histogram::new();
        for us in [30u64, 10, 20] {
            h.observe(SimDuration::from_micros(us));
        }
        assert_eq!(h.snapshot().p50_us, 20.0);
        // The first snapshot sorted the subsample in place; these land
        // after it, out of order.
        for us in [5u64, 1] {
            h.observe(SimDuration::from_micros(us));
        }
        let s = h.snapshot();
        assert_eq!((s.p50_us, s.count), (10.0, 5));
        assert!((s.p99_us - 29.6).abs() < 1e-9, "{}", s.p99_us);
    }

    #[test]
    fn histogram_reset_clears() {
        let h = Histogram::new();
        h.observe(SimDuration::from_micros(5));
        h.reset();
        assert_eq!(h.snapshot().count, 0);
    }

    #[test]
    fn snapshot_is_sorted() {
        let reg = Registry::new();
        reg.counter("zzz", &[]).inc();
        reg.counter("aaa", &[]).inc();
        let snap = reg.snapshot();
        assert_eq!(snap.counters[0].0 .0, "aaa");
        assert_eq!(snap.counters[1].0 .0, "zzz");
    }
}
