//! Monitor configuration.

use fluidmem_sim::SimDuration;

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
    /// `StrideDetector` watches the fault VPN
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
/// watermark (4% of capacity) and evicts in batches of 32 pages — on
/// its own virtual timeline, off the fault critical path — until
/// headroom reaches the high watermark (8%), mirroring
/// `fluidmem-swap`'s `kswapd()`. Each batch stages onto the write list
/// in one pass and flushes through `begin_multi_write`. An arriving
/// fault only falls back to inline "direct reclaim" (the monitor's one
/// eviction loop, `make_room`, the analogue of
/// `SwapBackend::ensure_frames`) when the evictor has fallen behind.
///
/// Off by default, and a no-op without
/// [`Optimizations::async_write`] (background batches stage onto the
/// write list): the default configuration is bit-for-bit identical to a
/// monitor without the feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReclaimConfig {
    /// Master switch. Off by default: eviction stays inline on the
    /// fault path.
    pub enabled: bool,
}

impl ReclaimConfig {
    /// The background evictor wakes when free headroom drops below this
    /// fraction of the LRU capacity.
    pub const WATERMARK_LOW: f64 = 0.04;

    /// Once awake, the background evictor reclaims until headroom
    /// reaches this fraction of the LRU capacity.
    pub const WATERMARK_HIGH: f64 = 0.08;

    /// Background reclaim off (the default).
    pub(crate) fn disabled() -> Self {
        ReclaimConfig { enabled: false }
    }

    /// Background reclaim on.
    pub fn kswapd() -> Self {
        ReclaimConfig { enabled: true }
    }

    /// The low watermark in pages for a given capacity: rounded up and
    /// floored at 1, so small buffers still wake the evictor (the same
    /// truncation bug `SwapConfig`'s watermarks had).
    pub(crate) fn low_pages(&self, capacity: u64) -> u64 {
        ((capacity as f64 * Self::WATERMARK_LOW).ceil() as u64).max(1)
    }

    /// The high watermark in pages: strictly above the low watermark so
    /// every wakeup makes progress.
    pub(crate) fn high_pages(&self, capacity: u64) -> u64 {
        ((capacity as f64 * Self::WATERMARK_HIGH).ceil() as u64).max(self.low_pages(capacity) + 1)
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
/// ```
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Maximum pages held in hypervisor DRAM across all registered
    /// regions ("the size of the list determines the number of pages held
    /// in DRAM for all VMs", §V-A).
    pub lru_capacity: u64,
    /// Flush the write list when it reaches this many pages.
    pub(crate) write_batch_size: usize,
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
    /// Whether faults originate from a KVM vCPU (adds VM-exit cost) or a
    /// plain process linked with libuserfault (the Table II setup).
    pub from_vm: bool,
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
            from_vm: true,
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
    pub fn reclaim(mut self, cfg: ReclaimConfig) -> Self {
        self.reclaim = cfg;
        self
    }

    /// Sets the compressed-local-tier config.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is enabled with a zero budget.
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
}
