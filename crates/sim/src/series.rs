//! Time-bucketed series recording (for the paper's Figure 5 time courses).

use crate::stats::Summary;
use crate::{SimDuration, SimInstant};

/// Records `(time, value)` observations into fixed-width virtual-time
/// buckets and reports the per-bucket mean — the form in which the paper's
/// Figure 5 plots YCSB read latency over the run's lifetime.
///
/// # Example
///
/// ```
/// use fluidmem_sim::{TimeSeries, SimDuration, SimInstant};
///
/// let mut ts = TimeSeries::new(SimDuration::from_secs(10));
/// ts.record(SimInstant::EPOCH + SimDuration::from_secs(1), 100.0);
/// ts.record(SimInstant::EPOCH + SimDuration::from_secs(2), 200.0);
/// ts.record(SimInstant::EPOCH + SimDuration::from_secs(15), 300.0);
/// let points = ts.points();
/// assert_eq!(points.len(), 2);
/// assert_eq!(points[0], (0.0, 150.0));
/// assert_eq!(points[1], (10.0, 300.0));
/// ```
#[derive(Debug, Clone)]
pub struct TimeSeries {
    bucket: SimDuration,
    buckets: Vec<Summary>,
    overall: Summary,
}

impl TimeSeries {
    /// Creates a series with the given bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero.
    pub fn new(bucket: SimDuration) -> Self {
        assert!(!bucket.is_zero(), "bucket width must be positive");
        TimeSeries {
            bucket,
            buckets: Vec::new(),
            overall: Summary::new(),
        }
    }

    /// Records an observation at virtual time `at`.
    pub fn record(&mut self, at: SimInstant, value: f64) {
        let idx = (at.as_nanos() / self.bucket.as_nanos()) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, Summary::new());
        }
        self.buckets[idx].record(value);
        self.overall.record(value);
    }

    /// Per-bucket `(bucket_start_secs, mean_value)` points; empty buckets
    /// are skipped.
    pub fn points(&self) -> Vec<(f64, f64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, s)| s.count() > 0)
            .map(|(i, s)| (self.bucket.as_secs_f64() * i as f64, s.mean()))
            .collect()
    }

    /// Overall statistics across every observation.
    pub fn overall(&self) -> &Summary {
        &self.overall
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_by_time() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(1));
        for s in 0..5u64 {
            ts.record(
                SimInstant::EPOCH + SimDuration::from_millis(s * 1000 + 500),
                s as f64,
            );
        }
        let pts = ts.points();
        assert_eq!(pts.len(), 5);
        assert_eq!(pts[3], (3.0, 3.0));
        assert_eq!(ts.overall.count(), 5);
    }

    #[test]
    fn skips_empty_buckets() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(1));
        ts.record(SimInstant::EPOCH, 1.0);
        ts.record(SimInstant::EPOCH + SimDuration::from_secs(9), 2.0);
        assert_eq!(ts.points().len(), 2);
    }

    #[test]
    #[should_panic(expected = "bucket width must be positive")]
    fn zero_bucket_rejected() {
        TimeSeries::new(SimDuration::ZERO);
    }
}
