//! Trend detection over the fault address stream (ROADMAP item 1).
//!
//! The paper's monitor fetches exactly the faulting page, so sequential
//! and strided phases (pmbench sequential mode, Graph500 frontier scans)
//! pay a full remote round trip per page while a swap baseline gets
//! kernel readahead for free. [`StrideDetector`] closes that gap in the
//! style of Leap's majority-vote prefetcher: it watches the per-VM fault
//! VPN deltas over a bounded window and reports a stride *trend* that
//! [`PrefetchPolicy::Stride`](crate::PrefetchPolicy::Stride) turns into
//! detector-directed prefetch candidates.
//!
//! The state machine has deliberate hysteresis:
//!
//! * **detect** — once the window is full, a strict majority (more than
//!   half the deltas equal) sets the trend immediately, so a new access
//!   pattern is picked up within one window;
//! * **hold** — while no majority exists the current trend is kept; a
//!   prefetching monitor perturbs its own fault stream (successfully
//!   prefetched pages stop faulting, stretching the observed deltas), and
//!   dropping the trend on the first irregular delta would oscillate;
//! * **decay** — a full window of consecutive majority-less observations
//!   clears the trend, so a phase change to random access stops issue
//!   within one window rather than prefetching garbage forever.
//!
//! Duplicate faults (delta 0 — coalesced vCPUs, refault races) carry no
//! direction information and are skipped entirely.

use std::collections::VecDeque;

use fluidmem_mem::Vpn;

/// The smallest usable majority window: below this a single noisy delta
/// flips the vote, and hysteresis degenerates.
const MIN_WINDOW: usize = 4;

/// Majority-vote stride detector over recent fault VPN deltas.
///
/// Feed every fault address through [`observe`](Self::observe); read the
/// current trend (pages per fault, possibly negative for descending
/// scans) with [`trend`](Self::trend). Pure bookkeeping: no clock, RNG,
/// or counter side effects, so an attached-but-unused detector leaves a
/// run byte-identical.
#[derive(Debug, Clone)]
pub(crate) struct StrideDetector {
    window: usize,
    deltas: VecDeque<i64>,
    last: Option<u64>,
    trend: Option<i64>,
    misses: usize,
}

impl StrideDetector {
    /// A detector voting over the last `window` fault deltas (clamped to
    /// at least [`MIN_WINDOW`]).
    pub(crate) fn new(window: usize) -> Self {
        StrideDetector {
            window: window.max(MIN_WINDOW),
            deltas: VecDeque::new(),
            last: None,
            trend: None,
            misses: 0,
        }
    }

    /// Feeds one fault address into the detector.
    pub(crate) fn observe(&mut self, vpn: Vpn) {
        let raw = vpn.raw();
        let Some(prev) = self.last.replace(raw) else {
            return;
        };
        let delta = raw.wrapping_sub(prev) as i64;
        if delta == 0 {
            return;
        }
        if self.deltas.len() == self.window {
            self.deltas.pop_front();
        }
        self.deltas.push_back(delta);
        if self.deltas.len() < self.window {
            return;
        }
        match majority(&self.deltas) {
            Some(stride) => {
                self.trend = Some(stride);
                self.misses = 0;
            }
            None if self.trend.is_some() => {
                self.misses += 1;
                if self.misses >= self.window {
                    self.trend = None;
                    self.misses = 0;
                }
            }
            None => {}
        }
    }

    /// The stride currently trending, in pages per fault; `None` while
    /// the stream looks random (or before a full window of evidence).
    pub(crate) fn trend(&self) -> Option<i64> {
        self.trend
    }
}

/// Boyer–Moore majority vote with a verification pass: the delta held by
/// a *strict* majority of the window, or `None`.
fn majority(deltas: &VecDeque<i64>) -> Option<i64> {
    let mut candidate = 0i64;
    let mut count = 0usize;
    for &d in deltas {
        if count == 0 {
            candidate = d;
            count = 1;
        } else if d == candidate {
            count += 1;
        } else {
            count -= 1;
        }
    }
    let support = deltas.iter().filter(|&&d| d == candidate).count();
    (support * 2 > deltas.len()).then_some(candidate)
}

/// The page `steps` strides ahead of `base`, or `None` if the projection
/// leaves the address space (a descending scan near zero, or overflow).
pub(crate) fn project(base: Vpn, stride: i64, steps: u64) -> Option<Vpn> {
    let offset = (stride as i128).checked_mul(steps as i128)?;
    let target = base.raw() as i128 + offset;
    if (0..=u64::MAX as i128).contains(&target) {
        Some(Vpn::new(target as u64))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(det: &mut StrideDetector, start: u64, stride: i64, n: usize) {
        let mut at = start as i64;
        for _ in 0..n {
            det.observe(Vpn::new(at as u64));
            at += stride;
        }
    }

    #[test]
    fn detects_unit_stride() {
        let mut det = StrideDetector::new(8);
        feed(&mut det, 100, 1, 9);
        assert_eq!(det.trend(), Some(1));
    }

    #[test]
    fn detects_wide_and_negative_strides() {
        let mut det = StrideDetector::new(8);
        feed(&mut det, 1_000, 7, 9);
        assert_eq!(det.trend(), Some(7));
        feed(&mut det, 50_000, -3, 9);
        assert_eq!(det.trend(), Some(-3));
    }

    #[test]
    fn no_trend_before_window_fills() {
        let mut det = StrideDetector::new(8);
        feed(&mut det, 100, 1, 8); // 7 deltas: one short of a window
        assert_eq!(det.trend(), None);
        det.observe(Vpn::new(108));
        assert_eq!(det.trend(), Some(1));
    }

    #[test]
    fn random_stream_never_trends() {
        let mut det = StrideDetector::new(8);
        // An LCG walk: every delta distinct, so no majority ever forms.
        let mut x = 12_345u64;
        for _ in 0..100 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            det.observe(Vpn::new(x >> 16));
            assert_eq!(det.trend(), None);
        }
    }

    #[test]
    fn trend_holds_through_noise_then_decays() {
        let mut det = StrideDetector::new(4);
        feed(&mut det, 100, 1, 5);
        assert_eq!(det.trend(), Some(1));
        // Noise with all-distinct deltas. The first noisy observation
        // still leaves a 3-of-4 majority of 1s in the window (not a
        // miss); the next three are majority-less, and hysteresis holds
        // the trend through all of them...
        for v in [1_000u64, 10_000, 30_000, 70_000] {
            det.observe(Vpn::new(v));
            assert_eq!(det.trend(), Some(1), "vpn {v} should not decay yet");
        }
        // ...and the window-th consecutive miss decays it.
        det.observe(Vpn::new(150_000));
        assert_eq!(det.trend(), None);
    }

    #[test]
    fn majority_switch_is_immediate() {
        let mut det = StrideDetector::new(4);
        feed(&mut det, 100, 1, 5);
        assert_eq!(det.trend(), Some(1));
        // A new strict majority replaces the trend without waiting for
        // the old one to decay.
        feed(&mut det, 10_000, 5, 4);
        assert_eq!(det.trend(), Some(5));
    }

    #[test]
    fn zero_deltas_are_skipped() {
        let mut det = StrideDetector::new(4);
        for v in [100u64, 100, 101, 101, 102, 102, 103, 103, 104] {
            det.observe(Vpn::new(v));
        }
        // Duplicates contribute nothing; the distinct VPNs alone form
        // the unit-stride majority.
        assert_eq!(det.trend(), Some(1));
    }

    #[test]
    fn window_is_clamped_to_minimum() {
        let mut det = StrideDetector::new(0);
        feed(&mut det, 100, 1, MIN_WINDOW); // MIN_WINDOW - 1 deltas
        assert_eq!(det.trend(), None);
        det.observe(Vpn::new(100 + MIN_WINDOW as u64));
        assert_eq!(det.trend(), Some(1));
    }

    #[test]
    fn projection_clamps_at_address_space_edges() {
        assert_eq!(project(Vpn::new(100), 7, 3), Some(Vpn::new(121)));
        assert_eq!(project(Vpn::new(100), -40, 2), Some(Vpn::new(20)));
        assert_eq!(project(Vpn::new(100), -40, 3), None);
        assert_eq!(project(Vpn::new(u64::MAX - 2), 1, 3), None);
    }
}
