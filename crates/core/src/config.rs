//! Monitor configuration and cost models.

use fluidmem_kv::RetryPolicy;
use fluidmem_sim::{LatencyModel, SimDuration};

use crate::tier::TierConfig;
use crate::workingset::WorkingSetConfig;

/// The §V-B optimization toggles — the axes of Table II's ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Optimizations {
    /// Split key-value reads into top/bottom halves and interleave the
    /// eviction and cache bookkeeping with the network wait.
    pub async_read: bool,
    /// Put evicted pages on the write list (batched background flush with
    /// page stealing) instead of writing synchronously.
    pub async_write: bool,
}

impl Optimizations {
    /// No optimizations (Table II "Default").
    pub fn none() -> Self {
        Optimizations {
            async_read: false,
            async_write: false,
        }
    }

    /// Both optimizations (the configuration used for all macro
    /// benchmarks).
    pub fn full() -> Self {
        Optimizations {
            async_read: true,
            async_write: true,
        }
    }

    /// A short label for result tables.
    pub fn label(&self) -> &'static str {
        match (self.async_read, self.async_write) {
            (false, false) => "Default",
            (true, false) => "Async Read",
            (false, true) => "Async Write",
            (true, true) => "Async Read/Write",
        }
    }
}

impl Default for Optimizations {
    fn default() -> Self {
        Optimizations::full()
    }
}

/// How eviction moves a page out of the VM (§V-B "Zero-copy semantics").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionMechanism {
    /// The proposed `UFFD_REMAP`: rewrite page-table entries, no copy,
    /// but a TLB shootdown (paper default).
    #[default]
    Remap,
    /// Copy the page out and unmap — no cross-CPU synchronization but a
    /// 4 KB copy per eviction. The paper notes remap "is not always
    /// faster than UFFD_COPY because of the synchronization required";
    /// this variant lets the ablation bench measure exactly that.
    Copy,
}

/// Proactive page prefetching on the read path — an operator
/// customization in the spirit of §III (swap gets this for free from the
/// kernel's readahead; the monitor can do it too, and smarter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrefetchPolicy {
    /// No prefetching (the paper's implementation).
    #[default]
    None,
    /// On a remote read of page *p*, also pull pages *p+1..p+window*
    /// back from the store if they were evicted earlier — issued as
    /// overlapping asynchronous reads after the guest is woken.
    Sequential {
        /// How many successor pages to pull per fault.
        window: u64,
    },
    /// Leap-style trend prefetch: a majority-vote
    /// [`StrideDetector`](crate::StrideDetector) watches the fault VPN
    /// stream, and while a stride trend holds, each remote read also
    /// pulls up to `max_depth` pages ahead *at the detected stride*
    /// (negative strides included). Issue is suppressed for
    /// thrash-flagged VMs (WSS estimate over capacity) and when LRU
    /// headroom is below the depth, so speculation never evicts warm
    /// pages. The speculative reads are real in-flight operations: a
    /// demand fault arriving mid-flight adopts the pending read and pays
    /// only the remaining flight time.
    Stride {
        /// Fault deltas the majority vote runs over (clamped ≥ 4).
        window: usize,
        /// Pages fetched ahead per fault while a trend holds; `0`
        /// disables the policy entirely (byte-identical to
        /// [`PrefetchPolicy::None`]).
        max_depth: u64,
    },
}

/// Watermark-driven background reclaim: the monitor's kswapd.
///
/// When enabled, a background evictor watches the LRU's free headroom
/// (`capacity − resident`). It wakes when headroom drops below the low
/// watermark and evicts in batches — on its own virtual timeline, off
/// the fault critical path — until headroom reaches the high watermark,
/// mirroring `fluidmem-swap`'s `kswapd()`. An arriving fault only falls
/// back to inline "direct reclaim" (the monitor's one eviction loop,
/// `make_room`, the analogue of `SwapBackend::ensure_frames`) when the
/// evictor has fallen behind.
///
/// Off by default, and a no-op without
/// [`Optimizations::async_write`] (background batches stage onto the
/// write list): the default configuration is bit-for-bit identical to a
/// monitor without the feature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReclaimConfig {
    /// Master switch. Off by default: eviction stays inline on the
    /// fault path.
    pub enabled: bool,
    /// The evictor wakes when free headroom drops below this fraction
    /// of the LRU capacity.
    pub watermark_low: f64,
    /// Once awake, the evictor reclaims until headroom reaches this
    /// fraction.
    pub watermark_high: f64,
    /// Maximum pages evicted per activation; each batch stages onto the
    /// write list in one pass and flushes through `begin_multi_write`.
    pub batch: usize,
}

impl ReclaimConfig {
    /// Background reclaim off (the default).
    pub fn disabled() -> Self {
        ReclaimConfig {
            enabled: false,
            ..Self::kswapd()
        }
    }

    /// Background reclaim on with kswapd-shaped defaults: wake below 4%
    /// headroom, reclaim to 8%, 32 pages per batch.
    pub fn kswapd() -> Self {
        ReclaimConfig {
            enabled: true,
            watermark_low: 0.04,
            watermark_high: 0.08,
            batch: 32,
        }
    }

    /// The low watermark in pages for a given capacity: rounded up and
    /// floored at 1, so small buffers still wake the evictor (the same
    /// truncation bug `SwapConfig`'s watermarks had).
    pub fn low_pages(&self, capacity: u64) -> u64 {
        ((capacity as f64 * self.watermark_low).ceil() as u64).max(1)
    }

    /// The high watermark in pages: strictly above the low watermark so
    /// every wakeup makes progress.
    pub fn high_pages(&self, capacity: u64) -> u64 {
        ((capacity as f64 * self.watermark_high).ceil() as u64).max(self.low_pages(capacity) + 1)
    }

    /// Checks the watermark fractions are ordered and sane, and that an
    /// activation can evict at all.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < watermark_low < watermark_high <= 1` and
    /// `batch > 0` (an evictor that never evicts never sleeps either).
    pub fn validate(&self) {
        assert!(self.batch > 0, "reclaim batch must be at least 1 page");
        assert!(
            self.watermark_low > 0.0,
            "watermark_low must be positive (got {})",
            self.watermark_low
        );
        assert!(
            self.watermark_high > self.watermark_low,
            "watermark_high ({}) must exceed watermark_low ({})",
            self.watermark_high,
            self.watermark_low
        );
        assert!(
            self.watermark_high <= 1.0,
            "watermark_high must be at most 1.0 (got {})",
            self.watermark_high
        );
    }
}

impl Default for ReclaimConfig {
    fn default() -> Self {
        ReclaimConfig::disabled()
    }
}

/// LRU-ordering policy for the monitor's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LruPolicy {
    /// The paper's implementation: the list is only updated when a page
    /// is *seen* by the monitor (first access and refault after
    /// eviction); "the internal ordering of the list does not change"
    /// (§V-A). Effectively FIFO between faults.
    #[default]
    FirstTouch,
    /// The §V-A "future optimization" ablation: periodically sample guest
    /// referenced bits and rotate recently-used pages away from the
    /// eviction end, approximating the kernel's active/inactive aging.
    ScanReferenced {
        /// Sample the referenced bits of this many head pages per fault.
        scan_batch: usize,
    },
}

/// CPU cost models for the monitor's own code paths, calibrated to the
/// paper's Table I (units µs, avg / p99):
///
/// | Code path | avg | p99 |
/// |---|---|---|
/// | `UPDATE_PAGE_CACHE` | 2.56 | 3.32 |
/// | `INSERT_PAGE_HASH_NODE` | 2.58 | 8.36 |
/// | `INSERT_LRU_CACHE_NODE` | 2.87 | 3.65 |
#[derive(Debug, Clone)]
pub struct MonitorCosts {
    /// Page-tracker hash lookup on every fault.
    pub hash_lookup: LatencyModel,
    /// Updating the monitor's page-cache metadata on the read path
    /// (Table I `UPDATE_PAGE_CACHE`).
    pub update_page_cache: LatencyModel,
    /// Inserting into the page-tracker hash (Table I
    /// `INSERT_PAGE_HASH_NODE`).
    pub insert_page_hash: LatencyModel,
    /// Inserting into the LRU list (Table I `INSERT_LRU_CACHE_NODE`).
    pub insert_lru: LatencyModel,
    /// Checking the write list for a stealable copy.
    pub steal_check: LatencyModel,
    /// Appending an evicted page to the write list.
    pub write_list_push: LatencyModel,
    /// Extra buffer copy on the synchronous write path (the zero-copy
    /// §V-B discussion: sync writes pay an extra staging copy).
    pub sync_write_staging: LatencyModel,
    /// Extra staging/copy cost on the synchronous read path (request
    /// buffer management that the split top/bottom-half path avoids).
    pub sync_read_staging: LatencyModel,
}

impl Default for MonitorCosts {
    fn default() -> Self {
        MonitorCosts {
            hash_lookup: LatencyModel::lognormal_mean_p99_us(1.1, 1.9),
            update_page_cache: LatencyModel::lognormal_mean_p99_us(2.56, 3.32),
            insert_page_hash: LatencyModel::lognormal_mean_p99_us(2.58, 8.36),
            insert_lru: LatencyModel::lognormal_mean_p99_us(2.87, 3.65),
            steal_check: LatencyModel::normal_us(0.4, 0.08),
            write_list_push: LatencyModel::normal_us(0.9, 0.15),
            sync_write_staging: LatencyModel::normal_us(4.5, 0.5),
            sync_read_staging: LatencyModel::normal_us(4.5, 0.5),
        }
    }
}

/// Full monitor configuration. Construct with [`MonitorConfig::new`] and
/// customize with the builder methods.
///
/// # Example
///
/// ```
/// use fluidmem_core::{MonitorConfig, Optimizations};
///
/// let config = MonitorConfig::new(262_144) // 1 GB local buffer
///     .optimizations(Optimizations::none())
///     .write_batch(64);
/// assert_eq!(config.lru_capacity, 262_144);
/// assert_eq!(config.write_batch_size, 64);
/// ```
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Maximum pages held in hypervisor DRAM across all registered
    /// regions ("the size of the list determines the number of pages held
    /// in DRAM for all VMs", §V-A).
    pub lru_capacity: u64,
    /// Flush the write list when it reaches this many pages.
    pub write_batch_size: usize,
    /// Also flush when the oldest pending write exceeds this age ("a
    /// stale file descriptor has been found", §V-B).
    pub flush_interval: SimDuration,
    /// Optimization toggles.
    pub optimizations: Optimizations,
    /// Eviction mechanism.
    pub eviction: EvictionMechanism,
    /// LRU ordering policy.
    pub lru_policy: LruPolicy,
    /// Prefetch policy for the read path.
    pub prefetch: PrefetchPolicy,
    /// Monitor CPU cost models.
    pub costs: MonitorCosts,
    /// Whether faults originate from a KVM vCPU (adds VM-exit cost) or a
    /// plain process linked with libuserfault (the Table II setup).
    pub from_vm: bool,
    /// How store operations that fail retryably (timeouts, transient
    /// refusals) are retried. Backoff waits are charged to the virtual
    /// clock, so retried faults honestly extend the observed latency.
    pub retry: RetryPolicy,
    /// How many demand faults may be parked in the monitor's in-flight
    /// table at once ([`FluidMemMemory::submit_access`](crate::FluidMemMemory::submit_access)
    /// panics beyond it). A bound, not a mode: at `1` (the default) each
    /// fault completes before the next is admitted; larger values model
    /// FluidMem's multi-threaded monitor, where several store round
    /// trips and the evictor overlap. Speculative reads are not counted.
    pub max_inflight: usize,
    /// Shadow-entry working-set estimation: how many nonresident entries
    /// to retain and whether the estimate drives the LRU capacity
    /// ([`WorkingSetMode::AdaptiveCapacity`](crate::WorkingSetMode)) or
    /// only the observability surface (the default, passive mode —
    /// bit-for-bit identical monitor behavior).
    pub workingset: WorkingSetConfig,
    /// Watermark-driven background reclaim (off by default; requires
    /// [`Optimizations::async_write`] to take effect).
    pub reclaim: ReclaimConfig,
    /// The compressed local tier between DRAM and the remote store (off
    /// by default; requires [`Optimizations::async_write`] to take
    /// effect, since demotions stage onto the write list).
    pub tier: TierConfig,
}

impl MonitorConfig {
    /// A monitor with the paper's defaults and a local buffer of
    /// `lru_capacity` pages.
    pub fn new(lru_capacity: u64) -> Self {
        MonitorConfig {
            lru_capacity,
            write_batch_size: 32,
            flush_interval: SimDuration::from_micros(500),
            optimizations: Optimizations::full(),
            eviction: EvictionMechanism::Remap,
            lru_policy: LruPolicy::FirstTouch,
            prefetch: PrefetchPolicy::None,
            costs: MonitorCosts::default(),
            from_vm: true,
            retry: RetryPolicy::default_remote(),
            max_inflight: 1,
            workingset: WorkingSetConfig::default(),
            reclaim: ReclaimConfig::default(),
            tier: TierConfig::default(),
        }
    }

    /// Sets the optimization toggles.
    pub fn optimizations(mut self, opts: Optimizations) -> Self {
        self.optimizations = opts;
        self
    }

    /// Sets the write-list flush threshold.
    pub fn write_batch(mut self, pages: usize) -> Self {
        self.write_batch_size = pages.max(1);
        self
    }

    /// Sets the eviction mechanism.
    pub fn eviction(mut self, mechanism: EvictionMechanism) -> Self {
        self.eviction = mechanism;
        self
    }

    /// Sets the LRU policy.
    pub fn lru_policy(mut self, policy: LruPolicy) -> Self {
        self.lru_policy = policy;
        self
    }

    /// Sets the prefetch policy.
    pub fn prefetch(mut self, policy: PrefetchPolicy) -> Self {
        self.prefetch = policy;
        self
    }

    /// Marks faults as coming from a plain process rather than a KVM
    /// guest (used by the Table II "libuserfault" benchmark).
    pub fn bare_process(mut self) -> Self {
        self.from_vm = false;
        self
    }

    /// Sets the store retry policy.
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Sets how many demand faults may be parked at once (clamped to at
    /// least 1).
    pub fn inflight(mut self, depth: usize) -> Self {
        self.max_inflight = depth.max(1);
        self
    }

    /// Sets the working-set estimation config.
    pub fn workingset(mut self, ws: WorkingSetConfig) -> Self {
        self.workingset = ws;
        self
    }

    /// Sets the background-reclaim config.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is enabled with unordered watermark fractions or
    /// an empty batch.
    pub fn reclaim(mut self, cfg: ReclaimConfig) -> Self {
        if cfg.enabled {
            cfg.validate();
        }
        self.reclaim = cfg;
        self
    }

    /// Sets the compressed-local-tier config.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is enabled with a zero budget or unordered
    /// watermark fractions.
    pub fn tier(mut self, cfg: TierConfig) -> Self {
        if cfg.enabled {
            cfg.validate();
        }
        self.tier = cfg;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimization_labels_match_table2() {
        assert_eq!(Optimizations::none().label(), "Default");
        assert_eq!(Optimizations::full().label(), "Async Read/Write");
        assert_eq!(
            Optimizations {
                async_read: true,
                async_write: false
            }
            .label(),
            "Async Read"
        );
        assert_eq!(
            Optimizations {
                async_read: false,
                async_write: true
            }
            .label(),
            "Async Write"
        );
    }

    #[test]
    fn builder_chains() {
        let c = MonitorConfig::new(100)
            .write_batch(0)
            .eviction(EvictionMechanism::Copy)
            .lru_policy(LruPolicy::ScanReferenced { scan_batch: 4 })
            .bare_process();
        assert_eq!(c.write_batch_size, 1, "batch clamps to 1");
        assert_eq!(c.eviction, EvictionMechanism::Copy);
        assert!(!c.from_vm);
    }

    #[test]
    fn reclaim_defaults_off_and_watermarks_never_truncate() {
        let c = MonitorConfig::new(256);
        assert!(!c.reclaim.enabled, "reclaim must default off");

        let r = ReclaimConfig::kswapd();
        // 16 × 0.04 = 0.64: truncation would give 0 and the evictor
        // would never wake at small capacities.
        assert_eq!(r.low_pages(16), 1);
        assert!(r.high_pages(16) > r.low_pages(16));
        assert_eq!(r.low_pages(256), 11); // ceil(10.24)
        assert_eq!(r.high_pages(256), 21); // ceil(20.48)
    }

    #[test]
    #[should_panic(expected = "watermark_high")]
    fn reclaim_builder_rejects_inverted_watermarks() {
        let bad = ReclaimConfig {
            enabled: true,
            watermark_low: 0.5,
            watermark_high: 0.5,
            batch: 32,
        };
        let _ = MonitorConfig::new(256).reclaim(bad);
    }

    #[test]
    #[should_panic(expected = "batch")]
    fn reclaim_builder_rejects_an_empty_batch() {
        let bad = ReclaimConfig {
            batch: 0,
            ..ReclaimConfig::kswapd()
        };
        let _ = MonitorConfig::new(256).reclaim(bad);
    }

    #[test]
    fn cost_calibration_is_table1_shaped() {
        let c = MonitorCosts::default();
        assert!((c.update_page_cache.mean_us() - 2.56).abs() < 0.05);
        assert!((c.insert_page_hash.mean_us() - 2.58).abs() < 0.05);
        assert!((c.insert_lru.mean_us() - 2.87).abs() < 0.05);
    }
}
