//! The YCSB client (§VI-D2, Figure 5): zipfian key selection and the
//! read-only workload C driver.

use fluidmem_mem::MemoryBackend;
use fluidmem_sim::{SimDuration, SimRng, TimeSeries};

use crate::docstore::DocumentStore;

/// The standard YCSB zipfian generator (Gray et al.), producing skewed
/// key popularity with constant `theta` (YCSB default 0.99).
#[derive(Debug, Clone)]
pub(crate) struct ZipfianGenerator {
    items: u64,
    theta: f64,
    zeta_n: f64,
    alpha: f64,
    eta: f64,
}

impl ZipfianGenerator {
    /// Creates a generator over `items` keys.
    ///
    /// # Panics
    ///
    /// Panics if `items` is zero or `theta` is not in `(0, 1)`.
    pub(crate) fn new(items: u64, theta: f64) -> Self {
        assert!(items > 0, "need at least one item");
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0,1)");
        let zeta_n = Self::zeta(items, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / items as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zeta_n);
        ZipfianGenerator {
            items,
            theta,
            zeta_n,
            alpha,
            eta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Exact for modest n; sampled tail approximation for large n
        // (keeps construction O(1M) at most).
        if n <= 2_000_000 {
            (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
        } else {
            let head: f64 = (1..=2_000_000u64)
                .map(|i| 1.0 / (i as f64).powf(theta))
                .sum();
            // Integral approximation of the tail.
            let a = 2_000_000f64;
            let b = n as f64;
            head + (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta)
        }
    }

    /// Draws the next key (0-based).
    pub(crate) fn next_key(&mut self, rng: &mut SimRng) -> u64 {
        let u: f64 = rng.gen_f64();
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let k = (self.items as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        k.min(self.items - 1)
    }
}

/// Workload C (read-only) parameters.
#[derive(Debug, Clone)]
pub struct WorkloadC {
    /// Number of operations to run.
    pub operations: u64,
    /// Zipfian theta (YCSB default 0.99).
    pub(crate) theta: f64,
    /// Bucket width for the latency time series (Figure 5 plots ~10 s
    /// buckets).
    pub(crate) series_bucket: SimDuration,
}

impl WorkloadC {
    /// A workload of `operations` reads with YCSB defaults.
    pub fn new(operations: u64) -> Self {
        WorkloadC {
            operations,
            theta: 0.99,
            series_bucket: SimDuration::from_secs(10),
        }
    }
}

/// The Figure 5 result: the read-latency time course and overall mean.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Per-bucket mean latency in µs over the run ("1KB record retrieval
    /// latency" vs "Runtime").
    pub series: TimeSeries,
    /// Operations completed.
    pub operations: u64,
    /// Cache hits observed at the store.
    pub cache_hits: u64,
}

impl WorkloadReport {
    /// Overall mean read latency in µs (the number in Figure 5's
    /// legend).
    pub fn avg_latency_us(&self) -> f64 {
        self.series.overall().mean()
    }
}

/// Runs workload C against a document store over the given backend.
pub fn run_workload_c(
    backend: &mut dyn MemoryBackend,
    store: &mut DocumentStore,
    workload: &WorkloadC,
    rng: &mut SimRng,
) -> WorkloadReport {
    let mut zipf = ZipfianGenerator::new(store.record_count(), workload.theta);
    let mut series = TimeSeries::new(workload.series_bucket);
    let hits_before = store.cache_hits();
    for _ in 0..workload.operations {
        let key = zipf.next_key(rng);
        let latency = store.read(backend, key, rng);
        series.record(backend.clock().now(), latency.as_micros_f64());
    }
    WorkloadReport {
        series,
        operations: workload.operations,
        cache_hits: store.cache_hits() - hits_before,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipfian_keys_in_range_and_skewed() {
        let mut z = ZipfianGenerator::new(10_000, 0.99);
        let mut rng = SimRng::seed_from_u64(7);
        let mut counts = vec![0u64; 100];
        let n = 200_000;
        for _ in 0..n {
            let k = z.next_key(&mut rng);
            assert!(k < 10_000);
            if k < 100 {
                counts[k as usize] += 1;
            }
        }
        let head: u64 = counts.iter().sum();
        assert!(
            head as f64 / n as f64 > 0.4,
            "zipf(0.99) head mass {}",
            head as f64 / n as f64
        );
        assert!(counts[0] > counts[50], "rank 0 more popular than rank 50");
    }

    #[test]
    fn zipfian_is_deterministic() {
        let sample = |seed| {
            let mut z = ZipfianGenerator::new(1000, 0.99);
            let mut rng = SimRng::seed_from_u64(seed);
            (0..50).map(|_| z.next_key(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(sample(1), sample(1));
        assert_ne!(sample(1), sample(2));
    }

    #[test]
    fn large_domain_zeta_approximation_is_close() {
        // Compare the tail approximation against exact zeta at the
        // boundary where both are computable.
        let exact = ZipfianGenerator::zeta(2_000_000, 0.99);
        let series: f64 = (1..=2_000_000u64)
            .map(|i| 1.0 / (i as f64).powf(0.99))
            .sum();
        assert!((exact - series).abs() / series < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn zero_items_rejected() {
        ZipfianGenerator::new(0, 0.5);
    }
}
