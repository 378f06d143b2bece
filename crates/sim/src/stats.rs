//! Statistics collectors used by the experiment harnesses.
//!
//! Three collectors cover the paper's reporting needs:
//!
//! * [`Summary`] — constant-space streaming mean/stdev/min/max (Welford),
//!   used by the monitor's per-code-path profiler (Table I).
//! * [`Sample`] — a full sample retaining every value (4 bytes per
//!   duration), for exact percentiles and harmonic means (Tables I–II,
//!   Figure 4).
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
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

/// The empty summary, as [`Summary::new`]: its first observation sets
/// `min` and `max`.
impl Default for Summary {
    fn default() -> Self {
        Summary::new()
    }
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
}

/// A sample that retains all observations for exact order statistics.
///
/// Durations are stored as whole nanoseconds: a `u32` each while every
/// value is below 2³² ns (4.29 s), a `u64` each from the first one that
/// is not. They become microseconds only when read, through the same
/// [`SimDuration::as_micros_f64`] that recording them as floats would
/// have used. That conversion is monotone, so sorting the integers sorts
/// the floats, and every count, mean, deviation and percentile is
/// bit-identical to a sample of `f64`s, at half the bytes while the
/// values fit in 32 bits. A raw [`record`](Sample::record) moves the
/// sample to an `f64` store, which [`clear`](Sample::clear) keeps.
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
#[derive(Debug, Clone)]
pub struct Sample {
    store: Store,
    sorted: bool,
}

/// The observations of a [`Sample`], in the narrowest form that holds
/// them all.
#[derive(Debug, Clone)]
enum Store {
    /// Durations in nanoseconds, each below 2³².
    Nanos32(Vec<u32>),
    /// Durations in nanoseconds.
    Nanos64(Vec<u64>),
    /// Raw values.
    Raw(Vec<f64>),
}

/// A stored duration as the microseconds it is read as.
fn micros(ns: u64) -> f64 {
    SimDuration::from_nanos(ns).as_micros_f64()
}

/// Converts `narrow` element by element into a vector of the same
/// capacity, so the wider store grows at the lengths the narrow one
/// would have.
fn widen<T, U>(narrow: Vec<T>, f: impl FnMut(T) -> U) -> Vec<U> {
    let mut wide = Vec::with_capacity(narrow.capacity());
    wide.extend(narrow.into_iter().map(f));
    wide
}

impl Default for Sample {
    fn default() -> Self {
        Self::new()
    }
}

impl Sample {
    /// Creates an empty sample.
    pub fn new() -> Self {
        Sample {
            store: Store::Nanos32(Vec::new()),
            sorted: true,
        }
    }

    /// Records one raw observation, moving the sample to its `f64`
    /// store. Record a latency with
    /// [`record_duration`](Sample::record_duration) instead.
    pub fn record(&mut self, value: f64) {
        match &mut self.store {
            Store::Raw(v) => v.push(value),
            _ => {
                self.widen_to_raw();
                return self.record(value);
            }
        }
        self.sorted = false;
    }

    /// Drops every observation but keeps the allocation, for samples
    /// that are refilled window after window.
    pub fn clear(&mut self) {
        match &mut self.store {
            Store::Nanos32(v) => v.clear(),
            Store::Nanos64(v) => v.clear(),
            Store::Raw(v) => v.clear(),
        }
        self.sorted = true;
    }

    /// Records a duration, read back in microseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        let ns = d.as_nanos();
        match (&mut self.store, u32::try_from(ns)) {
            (Store::Nanos32(v), Ok(n)) => v.push(n),
            (Store::Nanos32(_), Err(_)) => {
                self.widen_to_nanos64();
                return self.record_duration(d);
            }
            (Store::Nanos64(v), _) => v.push(ns),
            (Store::Raw(v), _) => v.push(d.as_micros_f64()),
        }
        self.sorted = false;
    }

    /// Appends every observation of `other`, in the narrowest store
    /// that holds both samples.
    pub fn merge(&mut self, other: &Sample) {
        if other.is_empty() {
            return;
        }
        match (&mut self.store, &other.store) {
            (Store::Nanos32(a), Store::Nanos32(b)) => a.extend_from_slice(b),
            (Store::Nanos64(a), Store::Nanos32(b)) => a.extend(b.iter().map(|&n| u64::from(n))),
            (Store::Nanos64(a), Store::Nanos64(b)) => a.extend_from_slice(b),
            (Store::Raw(a), _) => a.extend(other.iter()),
            (_, Store::Nanos64(_)) => {
                self.widen_to_nanos64();
                return self.merge(other);
            }
            (_, Store::Raw(_)) => {
                self.widen_to_raw();
                return self.merge(other);
            }
        }
        self.sorted = false;
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        match &self.store {
            Store::Nanos32(v) => v.len(),
            Store::Nanos64(v) => v.len(),
            Store::Raw(v) => v.len(),
        }
    }

    /// Whether the sample is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.iter().sum::<f64>() / self.count() as f64
        }
    }

    /// Sample standard deviation (0 if fewer than two observations).
    pub fn stdev(&self) -> f64 {
        let n = self.count();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let ss: f64 = self.iter().map(|v| (v - mean) * (v - mean)).sum();
        (ss / (n - 1) as f64).sqrt()
    }

    /// Exact percentile by nearest-rank interpolation. `p` is in `[0, 1]`.
    ///
    /// Returns 0 for an empty sample.
    pub fn percentile(&mut self, p: f64) -> f64 {
        self.percentile_with_zeros(p, 0)
    }

    /// [`percentile`](Sample::percentile) of this sample plus `zeros`
    /// more observations of 0, which are counted rather than stored (a
    /// latency sample's zero-cost hits). No observation may be negative,
    /// so the zeros sort first.
    pub fn percentile_with_zeros(&mut self, p: f64, zeros: usize) -> f64 {
        let n = self.count() + zeros;
        if n == 0 {
            return 0.0;
        }
        self.ensure_sorted();
        let value = |i: usize| {
            if i < zeros {
                0.0
            } else {
                self.value(i - zeros)
            }
        };
        let p = p.clamp(0.0, 1.0);
        let rank = p * (n - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        if lo == hi {
            value(lo)
        } else {
            let frac = rank - lo as f64;
            value(lo) * (1.0 - frac) + value(hi) * frac
        }
    }

    /// The observations in microseconds, in insertion order if never
    /// sorted.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        let (nanos32, nanos64, raw): (&[u32], &[u64], &[f64]) = match &self.store {
            Store::Nanos32(v) => (v, &[], &[]),
            Store::Nanos64(v) => (&[], v, &[]),
            Store::Raw(v) => (&[], &[], v),
        };
        nanos32
            .iter()
            .map(|&n| micros(n.into()))
            .chain(nanos64.iter().map(|&n| micros(n)))
            .chain(raw.iter().copied())
    }

    fn value(&self, i: usize) -> f64 {
        match &self.store {
            Store::Nanos32(v) => micros(v[i].into()),
            Store::Nanos64(v) => micros(v[i]),
            Store::Raw(v) => v[i],
        }
    }

    fn widen_to_nanos64(&mut self) {
        if let Store::Nanos32(v) = &mut self.store {
            self.store = Store::Nanos64(widen(std::mem::take(v), u64::from));
        }
    }

    fn widen_to_raw(&mut self) {
        let raw = match &mut self.store {
            Store::Nanos32(v) => widen(std::mem::take(v), |n| micros(n.into())),
            Store::Nanos64(v) => widen(std::mem::take(v), micros),
            Store::Raw(_) => return,
        };
        self.store = Store::Raw(raw);
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            match &mut self.store {
                Store::Nanos32(v) => v.sort_unstable(),
                Store::Nanos64(v) => v.sort_unstable(),
                Store::Raw(v) => v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample")),
            }
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

/// Harmonic mean of a slice (0 if empty) — the aggregation the Graph500
/// specification uses for TEPS across BFS roots.
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
    fn default_summary_is_the_empty_summary() {
        let mut s = Summary::default();
        assert_eq!(s, Summary::new());
        s.record(10.0);
        assert_eq!((s.min(), s.max()), (10.0, 10.0));
    }

    #[test]
    fn sample_percentiles_exact() {
        let mut s: Sample = (1..=1000).map(|v| v as f64).collect();
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(1.0), 1000.0);
        assert!((s.percentile(0.99) - 990.01).abs() < 0.02);
    }

    #[test]
    fn harmonic_mean_of_a_slice() {
        assert!((harmonic_mean(&[1.0, 4.0, 4.0]) - 2.0).abs() < 1e-12);
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

    /// The `f64` sample [`Sample`] replaced, kept as the oracle its
    /// integer stores must match bit for bit.
    struct OracleSample {
        values: Vec<f64>,
        sorted: bool,
    }

    impl OracleSample {
        fn new() -> Self {
            OracleSample {
                values: Vec::new(),
                sorted: true,
            }
        }

        fn record(&mut self, value: f64) {
            self.values.push(value);
            self.sorted = false;
        }

        fn clear(&mut self) {
            self.values.clear();
            self.sorted = true;
        }

        fn record_duration(&mut self, d: SimDuration) {
            self.record(d.as_micros_f64());
        }

        fn mean(&self) -> f64 {
            if self.values.is_empty() {
                0.0
            } else {
                self.values.iter().sum::<f64>() / self.values.len() as f64
            }
        }

        fn stdev(&self) -> f64 {
            let n = self.values.len();
            if n < 2 {
                return 0.0;
            }
            let mean = self.mean();
            let ss: f64 = self.values.iter().map(|v| (v - mean) * (v - mean)).sum();
            (ss / (n - 1) as f64).sqrt()
        }

        fn percentile(&mut self, p: f64) -> f64 {
            if self.values.is_empty() {
                return 0.0;
            }
            if !self.sorted {
                self.values
                    .sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
                self.sorted = true;
            }
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
    }

    #[derive(Clone, Debug)]
    enum SampleOp {
        Duration(u64),
        Raw(f64),
        Clear,
        Percentile(f64),
    }

    fn gen_sample_op(rng: &mut crate::SimRng) -> SampleOp {
        const TWO_32: u64 = 1 << 32;
        match rng.gen_index(100) {
            0..=4 => SampleOp::Duration(0),
            5..=54 => SampleOp::Duration(rng.gen_range(1, 200_000)),
            // Repeats, so ties meet in the sort.
            55..=59 => SampleOp::Duration(1_000 * rng.gen_range(1, 4)),
            60..=62 => SampleOp::Duration(rng.gen_range(TWO_32 - 3, TWO_32 + 3)),
            // Above 2^53 ns, neighbours round to one f64.
            63..=64 => SampleOp::Duration(rng.gen_range(1 << 53, (1 << 53) + 64)),
            65..=66 => SampleOp::Duration(rng.gen_u64()),
            67 => SampleOp::Raw(-0.0),
            68 => SampleOp::Raw((rng.gen_f64() - 0.25) * 1e6),
            69..=71 => SampleOp::Clear,
            72..=74 => SampleOp::Percentile(rng.gen_index(2) as f64),
            _ => SampleOp::Percentile(rng.gen_f64()),
        }
    }

    #[test]
    fn prop_sample_matches_the_f64_oracle_bit_for_bit() {
        crate::prop::forall_sequences(
            "sample-matches-f64-oracle",
            96,
            |rng| crate::prop::vec_of(rng, 1, 300, gen_sample_op),
            |ops| {
                let mut sample = Sample::new();
                let mut oracle = OracleSample::new();
                for (i, op) in ops.iter().enumerate() {
                    match *op {
                        SampleOp::Duration(ns) => {
                            sample.record_duration(SimDuration::from_nanos(ns));
                            oracle.record_duration(SimDuration::from_nanos(ns));
                        }
                        SampleOp::Raw(v) => {
                            sample.record(v);
                            oracle.record(v);
                        }
                        SampleOp::Clear => {
                            sample.clear();
                            oracle.clear();
                        }
                        SampleOp::Percentile(p) => {
                            let (got, want) = (sample.percentile(p), oracle.percentile(p));
                            if got.to_bits() != want.to_bits() {
                                return Err(format!("op {i}: p{p} {got} != {want}"));
                            }
                        }
                    }
                    let checks = [
                        ("count", sample.count() as f64, oracle.values.len() as f64),
                        ("mean", sample.mean(), oracle.mean()),
                        ("stdev", sample.stdev(), oracle.stdev()),
                    ];
                    for (what, got, want) in checks {
                        if got.to_bits() != want.to_bits() {
                            return Err(format!("op {i}: {what} {got} != {want}"));
                        }
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn sample_keeps_the_narrowest_store() {
        let mut s = Sample::new();
        s.record_duration(SimDuration::from_nanos(u64::from(u32::MAX)));
        s.record_duration(SimDuration::from_nanos(7));
        assert!(matches!(s.store, Store::Nanos32(_)));
        s.record_duration(SimDuration::from_nanos(1 << 32));
        assert!(matches!(s.store, Store::Nanos64(_)));
        assert_eq!(s.percentile(0.0), 0.007);
        s.clear();
        s.record(1.5);
        assert!(matches!(s.store, Store::Raw(_)));
        s.clear();
        s.record_duration(SimDuration::from_nanos(2_500));
        assert!(matches!(s.store, Store::Raw(_)), "clear keeps the store");
        assert_eq!(s.percentile(0.5), 2.5);
    }

    #[test]
    fn merge_keeps_the_integer_store_and_every_value() {
        let durations = |ns: &[u64]| {
            let mut s = Sample::new();
            for &n in ns {
                s.record_duration(SimDuration::from_nanos(n));
            }
            s
        };
        let mut a = durations(&[30_000, 10_000]);
        assert_eq!(a.percentile(0.0), 10.0); // `a` is now sorted in place.
        let mut merged = Sample::new();
        merged.merge(&a);
        merged.merge(&durations(&[5_000, 20_000]));
        merged.merge(&Sample::new());
        assert!(matches!(merged.store, Store::Nanos32(_)));
        assert_eq!(merged.count(), 4);
        assert_eq!(merged.percentile(0.0), 5.0);
        assert_eq!(merged.percentile(1.0), 30.0);

        merged.merge(&durations(&[1 << 33]));
        assert!(matches!(merged.store, Store::Nanos64(_)));
        let raw: Sample = [0.5].into_iter().collect();
        merged.merge(&raw);
        assert!(matches!(merged.store, Store::Raw(_)));
        assert_eq!(merged.percentile(0.0), 0.5);
        assert_eq!(
            merged.percentile(1.0),
            SimDuration::from_nanos(1 << 33).as_micros_f64()
        );
        assert_eq!(merged.count(), 6);
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
    fn histogram_extremes_clamp_to_end_buckets() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::ZERO);
        h.record(SimDuration::from_secs(100));
        assert_eq!(h.count(), 2);
        let cdf = h.cdf();
        assert_eq!(cdf.len(), 2);
    }
}
