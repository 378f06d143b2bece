//! Seedable, forkable randomness.
//!
//! The generator is a self-contained xoshiro256++ (Blackman & Vigna),
//! seeded through SplitMix64 — no external crates, so the simulation
//! builds offline and the streams are stable across toolchains.

use std::fmt;

/// The simulation's random number generator.
///
/// Experiments construct one root `SimRng` from an explicit seed and then
/// [`fork`](SimRng::fork) independent child generators for each component
/// (one for the network transport, one for the workload, ...). Forking keeps
/// components statistically independent while preserving determinism: adding
/// samples in one component does not perturb the stream seen by another.
///
/// # Example
///
/// ```
/// use fluidmem_sim::SimRng;
///
/// let mut root = SimRng::seed_from_u64(7);
/// let mut net = root.fork("network");
/// let mut wl = root.fork("workload");
/// let a: u64 = net.gen_u64();
/// let b: u64 = wl.gen_u64();
/// assert_ne!(a, b);
///
/// // Same seed, same fork labels => identical streams.
/// let mut root2 = SimRng::seed_from_u64(7);
/// assert_eq!(root2.fork("network").gen_u64(), a);
/// ```
pub struct SimRng {
    state: [u64; 4],
    seed: u64,
}

/// SplitMix64: expands a 64-bit seed into well-mixed state words.
#[inline]
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
            seed,
        }
    }

    /// Derives an independent child generator from a string label.
    ///
    /// The child's seed depends only on this generator's *seed* and the
    /// label, never on how many samples have been drawn, so components can
    /// be forked in any order.
    pub fn fork(&self, label: &str) -> SimRng {
        // FNV-1a over the label, mixed with the parent seed.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.seed.rotate_left(17);
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        SimRng::seed_from_u64(h)
    }

    /// A uniformly random `u64` (xoshiro256++ step).
    #[inline]
    pub fn gen_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniformly random `f64` in `[0, 1)`.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.gen_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniformly random integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn gen_index(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_index bound must be positive");
        // Lemire's widening-multiply range reduction (bias < 2^-64).
        ((u128::from(self.gen_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// A uniformly random integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "gen_range requires lo < hi");
        lo + self.gen_index(hi - lo)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.gen_f64() < p
    }

    /// A standard-normal sample (Box–Muller; no extra dependencies).
    pub(crate) fn gen_standard_normal(&mut self) -> f64 {
        // Draw u1 in (0, 1] to avoid ln(0).
        let u1: f64 = 1.0 - self.gen_f64();
        let u2: f64 = self.gen_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

impl fmt::Debug for SimRng {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimRng").field("seed", &self.seed).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(1);
        for _ in 0..32 {
            assert_eq!(a.gen_u64(), b.gen_u64());
        }
    }

    #[test]
    fn forks_are_order_independent() {
        let root = SimRng::seed_from_u64(99);
        let x = {
            let mut r = root.fork("a");
            r.gen_u64()
        };
        // Fork "b" first this time; "a" must still see the same stream.
        let root2 = SimRng::seed_from_u64(99);
        let _ = root2.fork("b");
        let mut a2 = root2.fork("a");
        assert_eq!(a2.gen_u64(), x);
    }

    #[test]
    fn forks_with_distinct_labels_differ() {
        let root = SimRng::seed_from_u64(5);
        assert_ne!(root.fork("x").gen_u64(), root.fork("y").gen_u64());
    }

    #[test]
    fn gen_index_stays_in_bounds() {
        let mut r = SimRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(r.gen_index(7) < 7);
        }
    }

    #[test]
    fn gen_index_covers_small_ranges() {
        let mut r = SimRng::seed_from_u64(8);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[r.gen_index(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues hit: {seen:?}");
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut r = SimRng::seed_from_u64(4);
        for _ in 0..1000 {
            let x = r.gen_range(10, 20);
            assert!((10..20).contains(&x));
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn gen_index_rejects_zero_bound() {
        SimRng::seed_from_u64(0).gen_index(0);
    }

    #[test]
    fn gen_f64_is_unit_interval() {
        let mut r = SimRng::seed_from_u64(6);
        for _ in 0..10_000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn standard_normal_moments_are_sane() {
        let mut r = SimRng::seed_from_u64(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.gen_standard_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.1, "variance {var} too far from 1");
    }

    #[test]
    fn gen_bool_clamps_probability() {
        let mut r = SimRng::seed_from_u64(2);
        assert!(!r.gen_bool(-1.0));
        assert!(r.gen_bool(2.0));
    }

    #[test]
    fn distinct_seeds_distinct_streams() {
        let mut a = SimRng::seed_from_u64(0);
        let mut b = SimRng::seed_from_u64(1);
        // Even adjacent seeds must decorrelate immediately (SplitMix64).
        assert_ne!(a.gen_u64(), b.gen_u64());
    }
}
