//! Shadow-entry refault-distance tracking and working-set estimation.
//!
//! The paper concedes that FluidMem's first-touch LRU picks worse
//! victims than the kernel's aged lists and leaves buffer sizing to the
//! operator. Linux closed the same gap with shadow entries
//! (`mm/workingset.c`): when a page is evicted, a small *nonresident*
//! record stays behind carrying the eviction "time" on a monotonic
//! eviction counter. When the page faults back in, the **refault
//! distance** — evictions that elapsed while the page was cold — says
//! exactly how much bigger the buffer would have needed to be to keep
//! it: `needed = resident + distance`.
//!
//! [`WorkingSetEstimator`] implements that scheme for the monitor:
//!
//! * a bounded shadow table (FIFO by eviction stamp, like the kernel's
//!   capped shadow nodes) records each evicted page;
//! * each refault with a live shadow entry yields a [`Refault`] with its
//!   distance, the implied `needed` footprint, and a thrash verdict
//!   (distance ≤ current estimate ⇒ the page was inside the working set
//!   and a buffer of the estimated size would have kept it);
//! * the working-set-size estimate rises instantly to any larger
//!   `needed` and decays geometrically toward smaller ones, so it tracks
//!   a high percentile of the observed demand;
//! * in [`WorkingSetMode::AdaptiveCapacity`] the monitor periodically
//!   asks for a capacity target derived from the estimate.
//!
//! Everything here is pure bookkeeping: no virtual-clock advances, no
//! RNG draws — with the default [`WorkingSetMode::Passive`] mode the
//! monitor's externally observable behavior is bit-for-bit unchanged.

use std::collections::VecDeque;

use fluidmem_mem::{PageArray, Region, Vpn};

/// How the estimator's output is used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkingSetMode {
    /// Observe only: counters, the refault-distance histogram, and the
    /// WSS gauge are fed, but the LRU capacity is never touched. The
    /// default.
    Passive,
    /// Grow/shrink the LRU capacity toward the estimated working-set
    /// size every `adjust_interval` measured refaults.
    AdaptiveCapacity {
        /// Never shrink below this many pages.
        min_pages: u64,
        /// Never grow beyond this many pages (the DRAM this VM may use).
        max_pages: u64,
        /// Measured refaults between capacity adjustments. Small values
        /// react fast; large values smooth over bursts.
        adjust_interval: u64,
    },
}

/// Configuration for the monitor's working-set estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkingSetConfig {
    /// Bound on retained shadow entries. Once full, the oldest entries
    /// are dropped — refaults older than the table's horizon simply go
    /// unmeasured, as in the kernel's capped shadow nodes.
    pub shadow_capacity: usize,
    /// What the estimate drives.
    pub mode: WorkingSetMode,
}

impl Default for WorkingSetConfig {
    fn default() -> Self {
        WorkingSetConfig {
            shadow_capacity: 1 << 16,
            mode: WorkingSetMode::Passive,
        }
    }
}

impl WorkingSetConfig {
    /// Sets the shadow-table bound.
    pub fn shadow_capacity(mut self, entries: usize) -> Self {
        self.shadow_capacity = entries.max(1);
        self
    }

    /// Sets the mode.
    pub fn mode(mut self, mode: WorkingSetMode) -> Self {
        self.mode = mode;
        self
    }
}

/// One measured refault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Refault {
    /// Evictions that elapsed between this page's eviction and its
    /// refault.
    pub distance: u64,
    /// The buffer size that would have kept the page resident:
    /// `resident + distance` at refault time.
    pub needed: u64,
    /// Whether the refault distance fell within the working-set estimate
    /// current at refault time — i.e. the page was part of the working
    /// set and this fault is thrash a right-sized buffer avoids.
    pub thrash: bool,
}

/// Shadow-entry refault-distance tracker (see the module docs).
///
/// # Example
///
/// ```
/// use fluidmem_core::{WorkingSetConfig, WorkingSetEstimator};
/// use fluidmem_mem::Vpn;
///
/// let mut ws = WorkingSetEstimator::new(WorkingSetConfig::default());
/// ws.record_eviction(Vpn::new(7));
/// ws.record_eviction(Vpn::new(8));
/// // Page 7 comes back two evictions (its own and page 8's) after its
/// // stamp was taken: distance 2, and a 10-page-resident buffer would
/// // have needed 12 pages to keep it.
/// let r = ws.note_refault(Vpn::new(7), 10).unwrap();
/// assert_eq!(r.distance, 2);
/// assert_eq!(r.needed, 12);
/// assert_eq!(ws.wss_estimate(), 12);
/// ```
#[derive(Debug)]
pub struct WorkingSetEstimator {
    config: WorkingSetConfig,
    /// Live shadow entries: nonresident page → eviction stamp.
    shadow: PageArray<Option<u64>>,
    /// Live shadow entries.
    shadow_len: usize,
    /// Insertion order by stamp, for FIFO overflow. Entries whose page
    /// was consumed or forgotten go stale and are skipped lazily.
    order: VecDeque<(u64, Vpn)>,
    /// The monotonic eviction counter; also the next stamp.
    evictions: u64,
    /// Refaults that found a live shadow entry.
    refaults: u64,
    /// Measured refaults flagged as thrash.
    thrash_refaults: u64,
    /// Shadow entries dropped because the table overflowed.
    overflow_drops: u64,
    /// Shadow entries dropped by region removal / explicit forget.
    forgotten: u64,
    /// The current working-set-size estimate, in pages.
    wss_estimate: u64,
    /// Measured refaults since the last adaptive adjustment.
    since_adjust: u64,
}

impl WorkingSetEstimator {
    /// A fresh estimator.
    pub fn new(config: WorkingSetConfig) -> Self {
        WorkingSetEstimator {
            config,
            shadow: PageArray::default(),
            shadow_len: 0,
            order: VecDeque::new(),
            evictions: 0,
            refaults: 0,
            thrash_refaults: 0,
            overflow_drops: 0,
            forgotten: 0,
            wss_estimate: 0,
            since_adjust: 0,
        }
    }

    /// Records the eviction of `vpn`: bumps the eviction counter and
    /// leaves a shadow entry stamped with it, evicting the oldest
    /// entries if the table is over its bound.
    ///
    /// A page can only be evicted while resident, and a refault consumes
    /// its shadow entry before re-inserting it — so a live entry for
    /// `vpn` cannot exist here (debug-asserted).
    pub fn record_eviction(&mut self, vpn: Vpn) {
        let stamp = self.evictions;
        self.evictions += 1;
        let prior = self.shadow.slot_mut(vpn).replace(stamp);
        debug_assert!(prior.is_none(), "double shadow entry for {vpn}");
        self.shadow_len += 1;
        self.order.push_back((stamp, vpn));
        while self.shadow_len > self.config.shadow_capacity {
            let Some((s, v)) = self.order.pop_front() else {
                break;
            };
            if self.shadow.get(v) == Some(&Some(s)) {
                self.take_shadow(v);
                self.overflow_drops += 1;
            }
        }
        self.maybe_compact();
    }

    /// Measures the refault of `vpn` given the current resident count.
    /// Returns `None` when the page has no live shadow entry (it was
    /// never evicted, or its entry aged out of the bounded table).
    pub fn note_refault(&mut self, vpn: Vpn, resident: u64) -> Option<Refault> {
        let stamp = self.take_shadow(vpn)?;
        let distance = self.evictions - stamp;
        let needed = resident.saturating_add(distance);
        // Compare against the estimate *before* this sample updates it,
        // as the kernel compares against the pre-activation list size.
        let thrash = distance <= self.wss_estimate;
        if needed >= self.wss_estimate {
            self.wss_estimate = needed;
        } else {
            // Geometric decay toward smaller demand: the estimate tracks
            // a high percentile of `needed` without sticking at a
            // historical maximum forever.
            self.wss_estimate -= (self.wss_estimate - needed) / 8;
        }
        self.refaults += 1;
        if thrash {
            self.thrash_refaults += 1;
        }
        self.since_adjust += 1;
        Some(Refault {
            distance,
            needed,
            thrash,
        })
    }

    /// In [`WorkingSetMode::AdaptiveCapacity`], returns the capacity the
    /// LRU should move to — once per `adjust_interval` measured refaults,
    /// and only when it differs from `current`. `Passive` always returns
    /// `None`.
    ///
    /// The target never goes below the resident count: shrinking to (or
    /// above) residency evicts nothing, so an adaptive run can never
    /// *cause* an eviction a static buffer of the original size would
    /// not also have performed.
    pub(crate) fn take_adaptive_target(&mut self, resident: u64, current: u64) -> Option<u64> {
        let WorkingSetMode::AdaptiveCapacity {
            min_pages,
            max_pages,
            adjust_interval,
        } = self.config.mode
        else {
            return None;
        };
        if self.since_adjust < adjust_interval.max(1) {
            return None;
        }
        self.since_adjust = 0;
        let want = self
            .wss_estimate
            .max(resident)
            .clamp(min_pages, max_pages.max(min_pages));
        (want != current).then_some(want)
    }

    /// Drops the shadow entry for `vpn`, if any (page removed outside
    /// the fault path).
    pub(crate) fn forget(&mut self, vpn: Vpn) {
        if self.take_shadow(vpn).is_some() {
            self.forgotten += 1;
        }
    }

    /// Removes `vpn`'s shadow entry, returning its stamp.
    fn take_shadow(&mut self, vpn: Vpn) -> Option<u64> {
        let stamp = self.shadow.get_mut(vpn)?.take()?;
        self.shadow_len -= 1;
        Some(stamp)
    }

    /// Drops every shadow entry inside `region` (VM shutdown /
    /// unregister): refaults can no longer happen for these pages.
    pub(crate) fn forget_region(&mut self, region: &Region) {
        let entries = self.shadow.range_mut(region.start(), region.end());
        let dropped = entries.filter_map(|(_, entry)| entry.take()).count();
        self.shadow_len -= dropped;
        self.forgotten += dropped as u64;
        self.maybe_compact();
    }

    /// The current working-set-size estimate, in pages. Zero until the
    /// first measured refault.
    pub fn wss_estimate(&self) -> u64 {
        self.wss_estimate
    }

    /// Live shadow entries.
    pub fn shadow_len(&self) -> usize {
        self.shadow_len
    }

    /// The pages with live shadow entries, sorted.
    pub fn shadow_pages(&self) -> Vec<Vpn> {
        let entries = self.shadow.iter();
        entries.filter_map(|(vpn, e)| e.map(|_| vpn)).collect()
    }

    /// Total evictions recorded (the monotonic counter's value).
    pub fn evictions_recorded(&self) -> u64 {
        self.evictions
    }

    /// Refaults that found a live shadow entry.
    pub fn refaults_measured(&self) -> u64 {
        self.refaults
    }

    /// Measured refaults flagged as thrash.
    pub fn thrash_refaults(&self) -> u64 {
        self.thrash_refaults
    }

    /// Shadow entries dropped on table overflow.
    pub fn overflow_drops(&self) -> u64 {
        self.overflow_drops
    }

    /// Shadow entries dropped by forget/region removal.
    pub fn forgotten(&self) -> u64 {
        self.forgotten
    }

    /// Every recorded eviction is exactly one of: still shadowed,
    /// consumed by a measured refault, dropped on overflow, or
    /// explicitly forgotten. Chaos tests assert this to prove retries
    /// neither leak nor double-count nonresident entries.
    pub fn accounting_balances(&self) -> bool {
        self.evictions
            == self.shadow_len as u64 + self.refaults + self.overflow_drops + self.forgotten
    }

    /// Drops stale order entries once they dominate the deque.
    fn maybe_compact(&mut self) {
        if self.order.len() > self.shadow_len * 2 + 64 {
            self.order
                .retain(|&(s, v)| self.shadow.get(v) == Some(&Some(s)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vpn(n: u64) -> Vpn {
        Vpn::new(n)
    }

    fn estimator() -> WorkingSetEstimator {
        WorkingSetEstimator::new(WorkingSetConfig::default())
    }

    #[test]
    fn distance_counts_interleaving_evictions() {
        let mut ws = estimator();
        for i in 0..10 {
            ws.record_eviction(vpn(i));
        }
        // vpn 0 was evicted first; 9 further evictions elapsed.
        let r = ws.note_refault(vpn(0), 100).unwrap();
        assert_eq!(r.distance, 10);
        assert_eq!(r.needed, 110);
        // Immediately-refaulted page: one eviction (its own) elapsed.
        ws.record_eviction(vpn(0));
        let r = ws.note_refault(vpn(0), 100).unwrap();
        assert_eq!(r.distance, 1);
    }

    #[test]
    fn unmeasured_refaults_return_none() {
        let mut ws = estimator();
        assert!(ws.note_refault(vpn(1), 10).is_none());
        ws.record_eviction(vpn(1));
        assert!(ws.note_refault(vpn(1), 10).is_some());
        // The entry was consumed; a second refault is unmeasured.
        assert!(ws.note_refault(vpn(1), 10).is_none());
    }

    #[test]
    fn estimate_rises_fast_and_decays_slowly() {
        let mut ws = estimator();
        for i in 0..100 {
            ws.record_eviction(vpn(i));
        }
        ws.note_refault(vpn(0), 50).unwrap(); // needed = 150
        assert_eq!(ws.wss_estimate(), 150);
        ws.note_refault(vpn(99), 50).unwrap(); // needed = 51 < 150
        let after = ws.wss_estimate();
        assert!(after < 150 && after > 51, "decays toward 51, got {after}");
    }

    #[test]
    fn thrash_is_judged_against_the_prior_estimate() {
        let mut ws = estimator();
        for i in 0..20 {
            ws.record_eviction(vpn(i));
        }
        // First sample: estimate is still 0 -> not thrash.
        assert!(!ws.note_refault(vpn(0), 10).unwrap().thrash);
        // Estimate is now 30; a distance-19 refault falls inside it.
        assert!(ws.note_refault(vpn(1), 10).unwrap().thrash);
        assert_eq!(ws.thrash_refaults(), 1);
    }

    #[test]
    fn shadow_table_is_bounded_fifo() {
        let mut ws = WorkingSetEstimator::new(WorkingSetConfig::default().shadow_capacity(4));
        for i in 0..10 {
            ws.record_eviction(vpn(i));
        }
        assert_eq!(ws.shadow_len(), 4);
        assert_eq!(ws.overflow_drops(), 6);
        // The oldest entries aged out; the newest survive.
        assert_eq!(ws.shadow_pages(), (6..10).map(vpn).collect::<Vec<_>>());
        assert!(ws.note_refault(vpn(0), 10).is_none());
        assert!(ws.accounting_balances());
    }

    #[test]
    fn forget_region_clears_and_balances() {
        let mut ws = estimator();
        for i in 0..8 {
            ws.record_eviction(vpn(i));
        }
        let region = Region::new(vpn(0), 4, fluidmem_mem::PageClass::Anonymous);
        ws.forget_region(&region);
        assert_eq!(ws.shadow_len(), 4);
        assert_eq!(ws.forgotten(), 4);
        assert!(ws.note_refault(vpn(1), 10).is_none());
        assert!(ws.note_refault(vpn(5), 10).is_some());
        assert!(ws.accounting_balances());
    }

    #[test]
    fn passive_mode_never_offers_a_target() {
        let mut ws = estimator();
        for i in 0..100 {
            ws.record_eviction(vpn(i));
            ws.note_refault(vpn(i), 10);
        }
        assert!(ws.take_adaptive_target(10, 64).is_none());
    }

    #[test]
    fn adaptive_target_tracks_the_estimate_with_a_resident_floor() {
        let mode = WorkingSetMode::AdaptiveCapacity {
            min_pages: 8,
            max_pages: 1024,
            adjust_interval: 2,
        };
        let mut ws = WorkingSetEstimator::new(WorkingSetConfig::default().mode(mode));
        for i in 0..100 {
            ws.record_eviction(vpn(i));
        }
        ws.note_refault(vpn(0), 50).unwrap(); // needed = 150
        assert!(
            ws.take_adaptive_target(50, 64).is_none(),
            "interval not reached yet"
        );
        ws.note_refault(vpn(1), 50).unwrap();
        assert_eq!(ws.take_adaptive_target(50, 64), Some(150));
        // The countdown restarts after an adjustment.
        assert!(ws.take_adaptive_target(50, 150).is_none());
        // Resident floor: even a tiny estimate never shrinks below
        // residency; clamps apply.
        ws.note_refault(vpn(2), 50).unwrap();
        ws.note_refault(vpn(3), 50).unwrap();
        let target = ws.take_adaptive_target(400, 150).unwrap();
        assert!(target >= 400);
    }

    #[test]
    fn accounting_balances_under_churn() {
        let mut ws = WorkingSetEstimator::new(WorkingSetConfig::default().shadow_capacity(16));
        for round in 0..50u64 {
            for i in 0..8 {
                ws.record_eviction(vpn(round * 8 + i));
            }
            // Refault some of them, forget one, let the rest age out.
            ws.note_refault(vpn(round * 8), 20);
            ws.forget(vpn(round * 8 + 1));
            assert!(ws.accounting_balances(), "round {round}");
            assert!(ws.shadow_len() <= 16);
        }
    }
}
