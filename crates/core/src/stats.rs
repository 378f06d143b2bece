//! The monitor's instruments.
//!
//! The monitor bumps [`MonitorCounters`] — shared telemetry handles —
//! on its hot paths, and [`MonitorStats`] is the point-in-time snapshot
//! of the event counters. Registering the set in a
//! [`Registry`](fluidmem_telemetry::Registry) puts the *same* handles in
//! its snapshot, so the stats surface and the telemetry subsystem can
//! never disagree: there is one set.

use fluidmem_telemetry::{instrument_set, Histogram};

use crate::monitor::Resolution;

instrument_set! {
    /// The monitor's live instrument handles (see the module docs).
    pub(crate) struct MonitorCounters {
        counters {
            faults: MONITOR_EVENTS[LABEL_EVENT = "fault"], "Faults handled in total.";
            zero_fills: MONITOR_EVENTS[LABEL_EVENT = "zero_fill"],
                "First-touch faults resolved with `UFFD_ZEROPAGE` (no remote read).";
            remote_reads: MONITOR_EVENTS[LABEL_EVENT = "remote_read"],
                "Faults resolved by reading the key-value store.";
            write_list_steals: MONITOR_EVENTS[LABEL_EVENT = "write_list_steal"],
                "Faults satisfied by stealing from the pending write list.";
            inflight_waits: MONITOR_EVENTS[LABEL_EVENT = "inflight_wait"],
                "Faults that had to wait for an in-flight write of the same page.";
            evictions: MONITOR_EVENTS[LABEL_EVENT = "eviction"], "Pages evicted from the VM.";
            flushes: MONITOR_EVENTS[LABEL_EVENT = "flush"], "Batch flushes issued to the store.";
            resizes: MONITOR_EVENTS[LABEL_EVENT = "resize"], "LRU capacity changes (operator resizes).";
            cow_breaks: MONITOR_EVENTS[LABEL_EVENT = "cow_break"],
                "Copy-on-write breaks of zero-page mappings (kernel-side minor faults; counted \
                 by the backend).";
            lost_pages: MONITOR_EVENTS[LABEL_EVENT = "lost_page"],
                "Pages the store reported missing (data loss, e.g. a memcached eviction) that \
                 were re-materialized as zero pages.";
            prefetched_pages: MONITOR_EVENTS[LABEL_EVENT = "prefetched_page"],
                "Pages pulled in proactively by the prefetch policy.";
            prefetch_misses: MONITOR_EVENTS[LABEL_EVENT = "prefetch_miss"],
                "Prefetch attempts that found nothing in the store.";
            prefetch_transient_errors: MONITOR_EVENTS[LABEL_EVENT = "prefetch_transient_error"],
                "Prefetches abandoned on a retryable store error. Speculative reads are not \
                 retried — the page is fetched with the full retry budget if the guest faults \
                 on it.";
            prefetch_copy_skips: MONITOR_EVENTS[LABEL_EVENT = "prefetch_copy_skip"],
                "Prefetched pages discarded because the post-fetch `uffd` copy-in failed (the \
                 page got mapped while the read was in flight).";
            prefetch_issued: MONITOR_EVENTS[LABEL_EVENT = "prefetch_issued"] also PREFETCH_ISSUED[],
                "Speculative reads issued by the prefetch policy (the accuracy panel's \
                 denominator).";
            prefetch_hits: MONITOR_EVENTS[LABEL_EVENT = "prefetch_hit"] also PREFETCH_HITS[],
                "Prefetched pages the guest actually touched: first access to an installed \
                 page, or a demand fault adopting an in-flight read.";
            prefetch_wasted: MONITOR_EVENTS[LABEL_EVENT = "prefetch_wasted"] also PREFETCH_WASTED[],
                "Prefetched pages evicted, unmapped, or discarded before the guest ever touched \
                 them — wasted remote reads.";
            prefetch_fatal_errors: MONITOR_EVENTS[LABEL_EVENT = "prefetch_fatal_error"],
                "Prefetches dropped on a *non-retryable* store error. Speculation must not take \
                 the monitor down; the demand path surfaces the real error if the guest needs \
                 the page.";
            prefetch_suppressed_thrash: MONITOR_EVENTS[LABEL_EVENT = "prefetch_suppressed_thrash"],
                "Stride-prefetch issue rounds suppressed because the VM looked to be thrashing \
                 (WSS estimate over LRU capacity).";
            prefetch_suppressed_headroom: MONITOR_EVENTS[LABEL_EVENT = "prefetch_suppressed_headroom"],
                "Stride-prefetch issue rounds suppressed because LRU headroom was below the \
                 prefetch depth.";
            read_retries: MONITOR_EVENTS[LABEL_EVENT = "read_retry"],
                "Store reads retried after a retryable error. Backoff time is charged to the \
                 fault.";
            write_retries: MONITOR_EVENTS[LABEL_EVENT = "write_retry"],
                "Store writes (sync eviction puts, drain multi-writes) retried after a \
                 retryable error.";
            flush_failures: MONITOR_EVENTS[LABEL_EVENT = "flush_failure"],
                "Write-list flushes whose multi-write failed retryably; the batch stays on the \
                 write list and is re-flushed later.";
            coalesced_faults: MONITOR_EVENTS[LABEL_EVENT = "coalesced_fault"],
                "Faults coalesced onto an already in-flight read of the same page. Always zero \
                 for a driver that completes each fault before the next.";
            refaults_measured: MONITOR_EVENTS[LABEL_EVENT = "refault_measured"],
                "Refaults whose shadow entry was still live, yielding a measured refault \
                 distance.";
            thrash_refaults: MONITOR_EVENTS[LABEL_EVENT = "thrash_refault"],
                "Measured refaults whose distance fell within the working-set estimate — faults \
                 a right-sized buffer would have avoided.";
            adaptive_grows: MONITOR_EVENTS[LABEL_EVENT = "adaptive_grow"],
                "Adaptive-capacity grows applied by the working-set estimator.";
            adaptive_shrinks: MONITOR_EVENTS[LABEL_EVENT = "adaptive_shrink"],
                "Adaptive-capacity shrinks applied by the working-set estimator.";
            background_reclaims: MONITOR_EVENTS[LABEL_EVENT = "background_reclaim"],
                "Pages evicted by the watermark-driven background reclaimer (off the fault \
                 critical path).";
            direct_reclaims: MONITOR_EVENTS[LABEL_EVENT = "direct_reclaim"],
                "Pages evicted inline on the fault path while background reclaim was enabled — \
                 the evictor fell behind its watermarks.";
            tier_admits: MONITOR_EVENTS[LABEL_EVENT = "tier_admit"],
                "Evicted pages admitted into the compressed local tier.";
            tier_hits: MONITOR_EVENTS[LABEL_EVENT = "tier_hit"],
                "Refaults resolved by promoting a page out of the compressed tier (no network \
                 round trip).";
            tier_misses: MONITOR_EVENTS[LABEL_EVENT = "tier_miss"],
                "Refaults that checked the active compressed tier and missed.";
            tier_demotions: MONITOR_EVENTS[LABEL_EVENT = "tier_demotion"],
                "Pages demoted from the compressed tier to the write list under pool pressure.";
            tier_bypass_incompressible: MONITOR_EVENTS[LABEL_EVENT = "tier_bypass_incompressible"],
                "Evicted pages that bypassed the compressed tier because they would not \
                 compress (RLE yields no win).";
            tier_bypass_oversize: MONITOR_EVENTS[LABEL_EVENT = "tier_bypass_oversize"],
                "Evicted pages that compress but bypassed the compressed tier because their \
                 compressed size exceeds the VM's whole pool budget (a sub-page host quota).";
            tier_bypass_thrash: MONITOR_EVENTS[LABEL_EVENT = "tier_bypass_thrash"],
                "Evicted pages that bypassed the compressed tier because the refault-distance \
                 thrash gate tripped (working set exceeds DRAM plus the pool).";
        }
        gauges {
            lru_resident: LRU_RESIDENT_PAGES[], "Pages resident in the LRU buffer.";
            lru_capacity: LRU_CAPACITY_PAGES[], "The LRU buffer's capacity.";
            lru_headroom: LRU_HEADROOM_PAGES[], "Free LRU headroom (`capacity − resident`).";
            tier_pool_bytes: TIER_POOL_BYTES[], "Compressed bytes charged to the tier pool.";
            tier_pool_pages: TIER_POOL_PAGES[], "Live entries in the tier pool.";
            write_list_pending: WRITE_LIST_PENDING[], "Pages waiting on the write list.";
            lru_array_slots: LRU_ARRAY_SLOTS[], "Slots in the LRU buffer's page array.";
            tracker_bitmap_words: TRACKER_BITMAP_WORDS[], "Words in the page tracker's bitmap.";
            inflight_parked_ops: INFLIGHT_PARKED_OPS[], "Operations parked in the in-flight table.";
            wss_estimate: WSS_ESTIMATE_PAGES[], "The current working-set-size estimate.";
        }
        histograms {
            zero_fill_latency: FAULT_LATENCY_US[LABEL_RESOLUTION = "zero_fill"],
                "Guest-observed latency of faults resolved by `UFFD_ZEROPAGE`.";
            remote_read_latency: FAULT_LATENCY_US[LABEL_RESOLUTION = "remote_read"],
                "Guest-observed latency of faults resolved by a store read.";
            write_list_steal_latency: FAULT_LATENCY_US[LABEL_RESOLUTION = "write_list_steal"],
                "Guest-observed latency of faults resolved by a write-list steal.";
            inflight_wait_latency: FAULT_LATENCY_US[LABEL_RESOLUTION = "inflight_wait"],
                "Guest-observed latency of faults that waited for an in-flight write.";
            compressed_hit_latency: FAULT_LATENCY_US[LABEL_RESOLUTION = "compressed_hit"],
                "Guest-observed latency of faults resolved from the compressed tier.";
            refault_distance: REFAULT_DISTANCE_PAGES[],
                "Refault distances in eviction counts (recorded unit-less).";
            prefetch_timeliness: PREFETCH_TIMELINESS_US[],
                "Issue→first-touch distance of prefetched pages that were used.";
            demand_completion_lag: COMPLETION_LAG_US[LABEL_KIND = "demand"],
                "How long a landed demand read or write wait sat before the monitor picked it up.";
            speculative_completion_lag: COMPLETION_LAG_US[LABEL_KIND = "speculative"],
                "How long a landed speculative read sat before the monitor picked it up.";
        }
    }
    /// A point-in-time snapshot of the [`Monitor`](crate::Monitor)'s
    /// event counters.
    pub struct MonitorStats;
}

impl MonitorCounters {
    /// The guest-observed latency histogram of faults resolved as `r`.
    pub(crate) fn fault_latency(&self, r: Resolution) -> &Histogram {
        match r {
            Resolution::ZeroFill => &self.zero_fill_latency,
            Resolution::RemoteRead => &self.remote_read_latency,
            Resolution::WriteListSteal => &self.write_list_steal_latency,
            Resolution::InflightWait => &self.inflight_wait_latency,
            Resolution::CompressedHit => &self.compressed_hit_latency,
        }
    }
}
