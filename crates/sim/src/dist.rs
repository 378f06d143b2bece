//! Latency distributions used to calibrate component cost models.

use crate::{SimDuration, SimRng};

/// A sampleable latency distribution.
///
/// Cost models throughout the reproduction are expressed as `LatencyModel`s
/// so that each component (userfaultfd ioctls, network transports, flash
/// reads, ...) can be calibrated independently against the paper's Table I
/// and Table II measurements.
///
/// # Example
///
/// ```
/// use fluidmem_sim::{LatencyModel, SimRng};
///
/// // UFFD_REMAP per the paper's Table I: 1.65µs on average, but with a
/// // heavy 99th percentile (18µs) caused by TLB-shootdown IPIs.
/// let remap = LatencyModel::normal_us(1.2, 0.3).with_spike(0.02, LatencyModel::uniform_us(8.0, 20.0));
/// let mut rng = SimRng::seed_from_u64(1);
/// let d = remap.sample(&mut rng);
/// assert!(d.as_micros_f64() < 25.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum LatencyModel {
    /// Always the same latency.
    Constant(SimDuration),
    /// Uniform between two bounds (inclusive of the lower bound).
    Uniform {
        /// Lower bound.
        lo: SimDuration,
        /// Upper bound.
        hi: SimDuration,
    },
    /// Normal distribution clipped below at `floor`.
    Normal {
        /// Mean in nanoseconds.
        mean_ns: f64,
        /// Standard deviation in nanoseconds.
        stdev_ns: f64,
        /// Samples are clamped to at least this value.
        floor: SimDuration,
    },
    /// Log-normal distribution (natural parameters) plus a constant shift.
    LogNormal {
        /// Mean of the underlying normal (of ln nanoseconds).
        mu: f64,
        /// Standard deviation of the underlying normal.
        sigma: f64,
        /// Constant added to every sample.
        shift: SimDuration,
    },
    /// A base distribution with an occasional additive spike — models tail
    /// events such as TLB-shootdown IPIs or SSD garbage collection.
    Spiked {
        /// The common case.
        base: Box<LatencyModel>,
        /// The extra latency added when a spike occurs.
        spike: Box<LatencyModel>,
        /// Probability of a spike on any one sample.
        probability: f64,
    },
}

impl LatencyModel {
    /// A constant latency of `us` microseconds.
    pub fn constant_us(us: f64) -> Self {
        LatencyModel::Constant(SimDuration::from_micros_f64(us))
    }

    /// A constant latency of `ns` nanoseconds.
    pub fn constant_ns(ns: u64) -> Self {
        LatencyModel::Constant(SimDuration::from_nanos(ns))
    }

    /// Zero latency; useful to disable a cost in ablations.
    pub fn zero() -> Self {
        LatencyModel::Constant(SimDuration::ZERO)
    }

    /// A uniform latency between `lo_us` and `hi_us` microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `lo_us > hi_us`.
    pub fn uniform_us(lo_us: f64, hi_us: f64) -> Self {
        assert!(lo_us <= hi_us, "uniform_us requires lo <= hi");
        LatencyModel::Uniform {
            lo: SimDuration::from_micros_f64(lo_us),
            hi: SimDuration::from_micros_f64(hi_us),
        }
    }

    /// A normal latency with the given mean and standard deviation in
    /// microseconds, clipped below at 10% of the mean.
    pub fn normal_us(mean_us: f64, stdev_us: f64) -> Self {
        LatencyModel::Normal {
            mean_ns: mean_us * 1_000.0,
            stdev_ns: stdev_us * 1_000.0,
            floor: SimDuration::from_micros_f64(mean_us * 0.1),
        }
    }

    /// A log-normal latency parameterized by its mean and 99th percentile
    /// in microseconds — the form in which the paper's Table I reports its
    /// code-path latencies.
    ///
    /// Falls back to a clipped normal if the pair is not representable
    /// (requires `p99 > mean > 0`).
    pub fn lognormal_mean_p99_us(mean_us: f64, p99_us: f64) -> Self {
        const Z99: f64 = 2.326_347_874_040_841;
        if mean_us <= 0.0 || p99_us <= mean_us {
            return LatencyModel::normal_us(mean_us.max(0.001), mean_us.max(0.001) * 0.05);
        }
        let mean_ns = mean_us * 1_000.0;
        let p99_ns = p99_us * 1_000.0;
        let m = mean_ns.ln();
        let q = p99_ns.ln();
        // mean = exp(mu + sigma^2/2); p99 = exp(mu + Z99*sigma)
        // => sigma^2/2 - Z99*sigma + (q - m) has root sigma.
        let disc = Z99 * Z99 - 2.0 * (q - m);
        if disc < 0.0 {
            // p99 too far above the mean for a log-normal; approximate with
            // the wider of the two roots pinned at sigma = Z99.
            return LatencyModel::LogNormal {
                mu: q - Z99 * Z99,
                sigma: Z99,
                shift: SimDuration::ZERO,
            };
        }
        let sigma = Z99 - disc.sqrt();
        let mu = m - sigma * sigma / 2.0;
        LatencyModel::LogNormal {
            mu,
            sigma,
            shift: SimDuration::ZERO,
        }
    }

    /// Adds an occasional additive spike with the given probability.
    pub fn with_spike(self, probability: f64, spike: LatencyModel) -> Self {
        LatencyModel::Spiked {
            base: Box::new(self),
            spike: Box::new(spike),
            probability: probability.clamp(0.0, 1.0),
        }
    }

    /// Draws one latency sample.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        match self {
            LatencyModel::Constant(d) => *d,
            LatencyModel::Uniform { lo, hi } => {
                let span = hi.as_nanos().saturating_sub(lo.as_nanos());
                if span == 0 {
                    *lo
                } else {
                    SimDuration::from_nanos(lo.as_nanos() + rng.gen_index(span + 1))
                }
            }
            LatencyModel::Normal {
                mean_ns,
                stdev_ns,
                floor,
            } => {
                let x = mean_ns + stdev_ns * rng.gen_standard_normal();
                let ns = if x.is_finite() && x > 0.0 {
                    x as u64
                } else {
                    0
                };
                SimDuration::from_nanos(ns).max(*floor)
            }
            LatencyModel::LogNormal { mu, sigma, shift } => {
                let x = (mu + sigma * rng.gen_standard_normal()).exp();
                let ns = if x.is_finite() && x > 0.0 {
                    x.min(1e15) as u64
                } else {
                    0
                };
                SimDuration::from_nanos(ns) + *shift
            }
            LatencyModel::Spiked {
                base,
                spike,
                probability,
            } => {
                let mut d = base.sample(rng);
                if rng.gen_bool(*probability) {
                    d += spike.sample(rng);
                }
                d
            }
        }
    }

    /// The analytic mean of the distribution, in microseconds.
    pub fn mean_us(&self) -> f64 {
        match self {
            LatencyModel::Constant(d) => d.as_micros_f64(),
            LatencyModel::Uniform { lo, hi } => (lo.as_micros_f64() + hi.as_micros_f64()) / 2.0,
            LatencyModel::Normal { mean_ns, .. } => mean_ns / 1_000.0,
            LatencyModel::LogNormal { mu, sigma, shift } => {
                (mu + sigma * sigma / 2.0).exp() / 1_000.0 + shift.as_micros_f64()
            }
            LatencyModel::Spiked {
                base,
                spike,
                probability,
            } => base.mean_us() + probability * spike.mean_us(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Sample;

    fn empirical(model: &LatencyModel, n: usize, seed: u64) -> Sample {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut s = Sample::new();
        for _ in 0..n {
            s.record(model.sample(&mut rng).as_micros_f64());
        }
        s
    }

    #[test]
    fn constant_is_constant() {
        let m = LatencyModel::constant_us(5.0);
        let mut rng = SimRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), SimDuration::from_micros(5));
        }
        assert_eq!(m.mean_us(), 5.0);
    }

    #[test]
    fn uniform_respects_bounds() {
        let m = LatencyModel::uniform_us(2.0, 4.0);
        let mut rng = SimRng::seed_from_u64(0);
        for _ in 0..1000 {
            let d = m.sample(&mut rng).as_micros_f64();
            assert!((2.0..=4.0).contains(&d), "{d} out of bounds");
        }
        assert!((m.mean_us() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn normal_empirical_mean_matches() {
        let m = LatencyModel::normal_us(10.0, 1.0);
        let s = empirical(&m, 20_000, 42);
        assert!((s.mean() - 10.0).abs() < 0.1, "mean {}", s.mean());
    }

    #[test]
    fn normal_never_goes_below_floor() {
        let m = LatencyModel::normal_us(1.0, 5.0); // wild stdev
        let mut rng = SimRng::seed_from_u64(9);
        for _ in 0..5000 {
            assert!(m.sample(&mut rng).as_micros_f64() >= 0.1 - 1e-9);
        }
    }

    #[test]
    fn lognormal_hits_mean_and_p99() {
        // Table I READ_PAGE: mean 15.62µs, p99 20.90µs.
        let m = LatencyModel::lognormal_mean_p99_us(15.62, 20.90);
        let mut s = empirical(&m, 50_000, 7);
        assert!(
            (s.mean() - 15.62).abs() < 0.4,
            "mean {} vs expected 15.62",
            s.mean()
        );
        let p99 = s.percentile(0.99);
        assert!((p99 - 20.90).abs() < 1.5, "p99 {p99} vs expected 20.90");
    }

    #[test]
    fn lognormal_analytic_mean_matches_request() {
        let m = LatencyModel::lognormal_mean_p99_us(2.56, 3.32);
        assert!((m.mean_us() - 2.56).abs() < 0.01, "{}", m.mean_us());
    }

    #[test]
    fn lognormal_degenerate_falls_back() {
        // p99 <= mean is not representable; should not panic and should
        // stay near the mean.
        let m = LatencyModel::lognormal_mean_p99_us(10.0, 5.0);
        let s = empirical(&m, 2_000, 3);
        assert!((s.mean() - 10.0).abs() < 0.5);
    }

    #[test]
    fn spike_raises_tail_not_median() {
        let base = LatencyModel::constant_us(2.0);
        let m = base.with_spike(0.02, LatencyModel::constant_us(16.0));
        let mut s = empirical(&m, 50_000, 5);
        assert!((s.percentile(0.50) - 2.0).abs() < 1e-6);
        assert!((s.percentile(0.995) - 18.0).abs() < 1e-6);
        assert!((m.mean_us() - 2.32).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "lo <= hi")]
    fn uniform_rejects_inverted_bounds() {
        LatencyModel::uniform_us(4.0, 2.0);
    }
}
