//! Statistics collectors used by the experiment harnesses.
//!
//! Three collectors cover the paper's reporting needs:
//!
//! * [`Summary`] — constant-space streaming mean/stdev/min/max (Welford),
//!   used by the monitor's per-code-path profiler (Table I).
//! * [`Sample`] — a full sample retaining every value, for exact
//!   percentiles and harmonic means (Tables I–II, Figure 4).
//! * [`LatencyHistogram`] — log-spaced buckets from 100 ns to 10 s,
//!   producing the latency CDFs of Figure 3.

use crate::SimDuration;

/// Constant-space streaming summary statistics (Welford's algorithm).
///
/// # Example
///
/// ```
/// use fluidmem_sim::stats::Summary;
///
/// let mut s = Summary::new();
/// for v in [1.0, 2.0, 3.0] {
///     s.record(v);
/// }
/// assert_eq!(s.count(), 3);
/// assert!((s.mean() - 2.0).abs() < 1e-12);
/// assert!((s.stdev() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records a duration, in microseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_micros_f64());
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation (0 if fewer than two observations).
    pub fn stdev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).sqrt()
        }
    }

    /// Smallest observation (0 if empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 if empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A sample that retains all observations for exact order statistics.
///
/// # Example
///
/// ```
/// use fluidmem_sim::stats::Sample;
///
/// let mut s = Sample::new();
/// for v in 1..=100 {
///     s.record(v as f64);
/// }
/// assert_eq!(s.percentile(0.5), 50.5);
/// assert!((s.percentile(0.99) - 99.01).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Sample {
    values: Vec<f64>,
    sorted: bool,
}

impl Sample {
    /// Creates an empty sample.
    pub fn new() -> Self {
        Sample {
            values: Vec::new(),
            sorted: true,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    /// Drops every observation but keeps the allocation, for samples
    /// that are refilled window after window.
    pub fn clear(&mut self) {
        self.values.clear();
        self.sorted = true;
    }

    /// Records a duration, in microseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_micros_f64());
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// Whether the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Sample standard deviation (0 if fewer than two observations).
    pub fn stdev(&self) -> f64 {
        let n = self.values.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let ss: f64 = self.values.iter().map(|v| (v - mean) * (v - mean)).sum();
        (ss / (n - 1) as f64).sqrt()
    }

    /// Harmonic mean — the aggregation the Graph500 specification uses for
    /// TEPS across BFS roots (0 if empty; requires strictly positive
    /// observations to be meaningful).
    pub fn harmonic_mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let recip: f64 = self.values.iter().map(|v| 1.0 / v).sum();
        self.values.len() as f64 / recip
    }

    /// Exact percentile by nearest-rank interpolation. `p` is in `[0, 1]`.
    ///
    /// Returns 0 for an empty sample.
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let p = p.clamp(0.0, 1.0);
        let rank = p * (self.values.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        if lo == hi {
            self.values[lo]
        } else {
            let frac = rank - lo as f64;
            self.values[lo] * (1.0 - frac) + self.values[hi] * frac
        }
    }

    /// The raw observations, in insertion order if never sorted.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
            self.sorted = true;
        }
    }
}

impl FromIterator<f64> for Sample {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Sample::new();
        for v in iter {
            s.record(v);
        }
        s
    }
}

impl Extend<f64> for Sample {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.record(v);
        }
    }
}

/// Harmonic mean of a slice (0 if empty).
pub fn harmonic_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.len() as f64 / values.iter().map(|v| 1.0 / v).sum::<f64>()
}

/// A log-spaced latency histogram spanning 100 ns – 10 s.
///
/// Matches how the paper's Figure 3 plots page-fault latency: log-scale
/// x-axis from 0.1 µs to beyond 100 µs, y-axis the cumulative fraction of
/// faults.
///
/// # Example
///
/// ```
/// use fluidmem_sim::stats::LatencyHistogram;
/// use fluidmem_sim::SimDuration;
///
/// let mut h = LatencyHistogram::new();
/// h.record(SimDuration::from_micros(1));
/// h.record(SimDuration::from_micros(30));
/// let cdf = h.cdf();
/// assert_eq!(cdf.last().unwrap().1, 1.0);
/// assert!((h.mean_us() - 15.5).abs() < 0.01);
/// ```
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    /// Bucket counts; bucket i covers [edge(i), edge(i+1)).
    counts: Vec<u64>,
    total: u64,
    sum_us: f64,
    min: SimDuration,
    max: SimDuration,
}

/// Number of buckets per decade in [`LatencyHistogram`].
const BUCKETS_PER_DECADE: usize = 40;
/// Lowest representable latency (100 ns).
const LOW_NS: f64 = 100.0;
/// Number of decades covered (100 ns → 10 s is 8 decades).
const DECADES: usize = 8;

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS_PER_DECADE * DECADES + 2],
            total: 0,
            sum_us: 0.0,
            min: SimDuration::from_nanos(u64::MAX),
            max: SimDuration::ZERO,
        }
    }

    fn bucket_of(d: SimDuration) -> usize {
        let ns = d.as_nanos() as f64;
        if ns < LOW_NS {
            return 0;
        }
        let pos = (ns / LOW_NS).log10() * BUCKETS_PER_DECADE as f64;
        let idx = pos.floor() as usize + 1;
        idx.min(BUCKETS_PER_DECADE * DECADES + 1)
    }

    /// The latency at the lower edge of bucket `i`, in microseconds.
    fn bucket_edge_us(i: usize) -> f64 {
        if i == 0 {
            return 0.0;
        }
        let ns = LOW_NS * 10f64.powf((i - 1) as f64 / BUCKETS_PER_DECADE as f64);
        ns / 1_000.0
    }

    /// Records one latency observation.
    pub fn record(&mut self, d: SimDuration) {
        self.counts[Self::bucket_of(d)] += 1;
        self.total += 1;
        self.sum_us += d.as_micros_f64();
        if d < self.min {
            self.min = d;
        }
        if d > self.max {
            self.max = d;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact arithmetic mean, in microseconds (tracked outside the buckets).
    pub fn mean_us(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_us / self.total as f64
        }
    }

    /// Smallest recorded latency (zero if empty).
    pub fn min(&self) -> SimDuration {
        if self.total == 0 {
            SimDuration::ZERO
        } else {
            self.min
        }
    }

    /// Largest recorded latency.
    pub fn max(&self) -> SimDuration {
        self.max
    }

    /// The cumulative distribution as `(latency_us, fraction)` points,
    /// one per non-empty bucket edge.
    pub fn cdf(&self) -> Vec<(f64, f64)> {
        let mut points = Vec::new();
        if self.total == 0 {
            return points;
        }
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            points.push((Self::bucket_edge_us(i + 1), cum as f64 / self.total as f64));
        }
        points
    }

    /// Approximate percentile (bucket-edge resolution). `p` in `[0, 1]`.
    pub fn percentile_us(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = (p.clamp(0.0, 1.0) * self.total as f64).ceil() as u64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target.max(1) {
                return Self::bucket_edge_us(i + 1);
            }
        }
        Self::bucket_edge_us(self.counts.len())
    }

    /// The fraction of observations at or below `threshold`.
    pub fn fraction_below(&self, threshold: SimDuration) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let cut = Self::bucket_of(threshold);
        let below: u64 = self.counts[..=cut].iter().sum();
        below as f64 / self.total as f64
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_us += other.sum_us;
        if other.total > 0 {
            if other.min < self.min {
                self.min = other.min;
            }
            if other.max > self.max {
                self.max = other.max;
            }
        }
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let mut s = Summary::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(v);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stdev() - 2.138).abs() < 0.001);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn summary_empty_is_zeroes() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stdev(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn summary_merge_equals_combined() {
        let mut a = Summary::new();
        let mut b = Summary::new();
        let mut c = Summary::new();
        for v in 0..100 {
            let x = (v as f64).sin() * 10.0;
            if v % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            c.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        assert!((a.mean() - c.mean()).abs() < 1e-9);
        assert!((a.stdev() - c.stdev()).abs() < 1e-9);
    }

    #[test]
    fn sample_percentiles_exact() {
        let mut s: Sample = (1..=1000).map(|v| v as f64).collect();
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(1.0), 1000.0);
        assert!((s.percentile(0.99) - 990.01).abs() < 0.02);
    }

    #[test]
    fn sample_harmonic_mean() {
        let s: Sample = [1.0, 4.0, 4.0].into_iter().collect();
        assert!((s.harmonic_mean() - 2.0).abs() < 1e-12);
        assert_eq!(harmonic_mean(&[1.0, 4.0, 4.0]), s.harmonic_mean());
        assert_eq!(harmonic_mean(&[]), 0.0);
    }

    #[test]
    fn sample_clear_resets_observations_and_sort_state() {
        let mut s: Sample = [3.0, 1.0, 2.0].into_iter().collect();
        assert_eq!(s.percentile(1.0), 3.0);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.percentile(0.99), 0.0);
        // Refilled out of order: the stale "sorted" flag must not leak.
        s.record(9.0);
        s.record(4.0);
        assert_eq!(s.percentile(0.0), 4.0);
    }

    #[test]
    fn histogram_cdf_monotone_and_complete() {
        let mut h = LatencyHistogram::new();
        let mut rng = crate::SimRng::seed_from_u64(1);
        let m = crate::LatencyModel::uniform_us(0.5, 80.0);
        for _ in 0..10_000 {
            h.record(m.sample(&mut rng));
        }
        let cdf = h.cdf();
        assert!(!cdf.is_empty());
        for w in cdf.windows(2) {
            assert!(w[0].0 < w[1].0, "x must increase");
            assert!(w[0].1 <= w[1].1, "CDF must be monotone");
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_percentile_tracks_distribution() {
        let mut h = LatencyHistogram::new();
        for us in 1..=100u64 {
            h.record(SimDuration::from_micros(us));
        }
        let p50 = h.percentile_us(0.5);
        assert!((p50 - 50.0).abs() / 50.0 < 0.1, "p50 {p50}");
        let p99 = h.percentile_us(0.99);
        assert!((p99 - 99.0).abs() / 99.0 < 0.1, "p99 {p99}");
    }

    #[test]
    fn histogram_fraction_below() {
        let mut h = LatencyHistogram::new();
        for _ in 0..25 {
            h.record(SimDuration::from_micros(1));
        }
        for _ in 0..75 {
            h.record(SimDuration::from_micros(50));
        }
        let f = h.fraction_below(SimDuration::from_micros(10));
        assert!((f - 0.25).abs() < 0.01, "{f}");
    }

    #[test]
    fn histogram_merge() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(SimDuration::from_micros(1));
        b.record(SimDuration::from_micros(3));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.mean_us() - 2.0).abs() < 1e-9);
        assert_eq!(a.min(), SimDuration::from_micros(1));
        assert_eq!(a.max(), SimDuration::from_micros(3));
    }

    #[test]
    fn histogram_extremes_clamp_to_end_buckets() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::ZERO);
        h.record(SimDuration::from_secs(100));
        assert_eq!(h.count(), 2);
        let cdf = h.cdf();
        assert_eq!(cdf.len(), 2);
    }
}
