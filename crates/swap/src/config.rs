//! Swap-subsystem tunables.

/// kswapd wakes when free frames fall below this fraction of DRAM.
const WATERMARK_LOW: f64 = 0.030;

/// kswapd reclaims until free frames reach this fraction of DRAM.
const WATERMARK_HIGH: f64 = 0.060;

/// Configuration of one guest's swap subsystem.
///
/// The kswapd watermarks (3% and 6% of DRAM) and the kernel-path cost
/// models are fixed. Two settings the paper discusses are not modeled:
/// `vm.swappiness` (§VI-D2 sets 100; reclaim here takes the LRU's victim
/// whatever its page class, with no anonymous-versus-file bias) and the
/// virtio disk cache mode (§VI-D1 finds `cache=writeback` slows swap to
/// DRAM; every run here is `cache=none`, no extra copy per request).
#[derive(Debug, Clone)]
pub struct SwapConfig {
    /// Local DRAM allotment in 4 KB pages (the paper's VMs get 1 GB =
    /// 262 144 pages).
    pub dram_pages: u64,
    /// `vm.page-cluster`: readahead window is `2^page_cluster` pages
    /// (kernel default 3 → 8 pages). 0 disables readahead, as the paper
    /// sets for the MongoDB runs.
    pub page_cluster: u32,
}

impl SwapConfig {
    /// The paper's standard guest: `dram_pages` of DRAM and the
    /// kernel's default readahead.
    pub fn paper_default(dram_pages: u64) -> Self {
        SwapConfig {
            dram_pages,
            page_cluster: 3,
        }
    }

    /// The largest meaningful `vm.page-cluster`: a 2^20-page (4 GB)
    /// readahead window already exceeds any guest this simulates.
    /// Shifting `1u64` by an unclamped `u32` is undefined for shifts
    /// ≥ 64 (debug panic, wrapping in release), so both the getter and
    /// [`SwapConfig::validate`] pin the exponent here.
    pub(crate) const MAX_PAGE_CLUSTER: u32 = 20;

    /// Readahead window size in pages: `2^page_cluster`, with the
    /// exponent clamped to [`SwapConfig::MAX_PAGE_CLUSTER`] so a wild
    /// config value degrades to the maximum window instead of an
    /// overflowing shift.
    pub(crate) fn readahead_pages(&self) -> u64 {
        1 << self.page_cluster.min(Self::MAX_PAGE_CLUSTER)
    }

    /// The low watermark in pages: kswapd wakes when free frames drop
    /// below this. Rounded *up* and floored at 1 — truncation used to
    /// yield 0 for small `dram_pages`, so kswapd never woke and every
    /// reclaim ran on the fault path.
    pub(crate) fn low_watermark_pages(&self) -> u64 {
        ((self.dram_pages as f64 * WATERMARK_LOW).ceil() as u64).max(1)
    }

    /// The high watermark in pages: kswapd reclaims until free frames
    /// reach this. Always strictly above the low watermark so a wakeup
    /// makes progress.
    pub(crate) fn high_watermark_pages(&self) -> u64 {
        ((self.dram_pages as f64 * WATERMARK_HIGH).ceil() as u64)
            .max(self.low_watermark_pages() + 1)
    }

    /// Checks the readahead exponent is in range.
    ///
    /// # Panics
    ///
    /// Panics unless `page_cluster <= MAX_PAGE_CLUSTER`.
    pub(crate) fn validate(&self) {
        assert!(
            self.page_cluster <= Self::MAX_PAGE_CLUSTER,
            "page_cluster ({}) exceeds MAX_PAGE_CLUSTER ({})",
            self.page_cluster,
            Self::MAX_PAGE_CLUSTER
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_text() {
        let c = SwapConfig::paper_default(262_144);
        assert_eq!(c.dram_pages, 262_144);
        assert_eq!(c.readahead_pages(), 8);
    }

    #[test]
    fn page_cluster_zero_disables_readahead() {
        let mut c = SwapConfig::paper_default(1024);
        c.page_cluster = 0;
        assert_eq!(c.readahead_pages(), 1);
    }

    #[test]
    fn huge_page_cluster_saturates_instead_of_overflowing() {
        let mut c = SwapConfig::paper_default(1024);
        // 1u64 << 64 is an overflowing shift (debug panic, wrapping in
        // release, either way garbage); the getter must clamp.
        for wild in [64, 65, u32::MAX] {
            c.page_cluster = wild;
            assert_eq!(
                c.readahead_pages(),
                1 << SwapConfig::MAX_PAGE_CLUSTER,
                "page_cluster={wild}"
            );
        }
        c.page_cluster = SwapConfig::MAX_PAGE_CLUSTER;
        assert_eq!(c.readahead_pages(), 1 << SwapConfig::MAX_PAGE_CLUSTER);
    }

    #[test]
    #[should_panic(expected = "page_cluster")]
    fn validate_rejects_out_of_range_page_cluster() {
        let mut c = SwapConfig::paper_default(1024);
        c.page_cluster = SwapConfig::MAX_PAGE_CLUSTER + 1;
        c.validate();
    }

    #[test]
    fn watermarks_round_up_and_never_truncate_to_zero() {
        // 16 pages × 0.03 = 0.48: truncation gave 0 (kswapd never woke);
        // the ceil keeps at least one page of low watermark.
        let tiny = SwapConfig::paper_default(16);
        assert_eq!(tiny.low_watermark_pages(), 1);
        assert!(tiny.high_watermark_pages() > tiny.low_watermark_pages());

        let paper = SwapConfig::paper_default(262_144);
        assert_eq!(paper.low_watermark_pages(), 7_865); // ceil(7864.32)
        assert_eq!(paper.high_watermark_pages(), 15_729); // ceil(15728.64)
    }

    #[test]
    fn validate_accepts_paper_defaults() {
        SwapConfig::paper_default(16).validate();
        SwapConfig::paper_default(262_144).validate();
    }
}
