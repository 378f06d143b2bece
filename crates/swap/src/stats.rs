//! Swap-subsystem counters.
//!
//! The swap backend increments [`SwapCounters`] — shared telemetry
//! handles — and [`SwapStats`] is the point-in-time snapshot those
//! handles produce. Registering the counters exports the same handles
//! under [`consts::SWAP_EVENTS`](fluidmem_telemetry::consts::SWAP_EVENTS).

use fluidmem_telemetry::instrument_set;

instrument_set! {
    /// The swap backend's live counter handles (see the module docs).
    pub(crate) struct SwapCounters {
        counters {
            major_faults: SWAP_EVENTS[LABEL_EVENT = "major_fault"],
                "Faults served from the swap device (page was swapped out).";
            swap_cache_hits: SWAP_EVENTS[LABEL_EVENT = "swap_cache_hit"],
                "Faults served from the swap cache (readahead hit).";
            first_touch_faults: SWAP_EVENTS[LABEL_EVENT = "first_touch_fault"],
                "First-touch anonymous faults (zero-fill).";
            swap_outs: SWAP_EVENTS[LABEL_EVENT = "swap_out"], "Pages written to the swap device.";
            clean_evictions: SWAP_EVENTS[LABEL_EVENT = "clean_eviction"],
                "Evictions that skipped the write because a clean slot copy existed.";
            readahead_pages: SWAP_EVENTS[LABEL_EVENT = "readahead_page"],
                "Pages pulled in speculatively by readahead.";
            kswapd_runs: SWAP_EVENTS[LABEL_EVENT = "kswapd_run"], "kswapd background reclaim passes.";
            direct_reclaims: SWAP_EVENTS[LABEL_EVENT = "direct_reclaim"],
                "Pages reclaimed on the allocation critical path.";
            fs_reads: SWAP_EVENTS[LABEL_EVENT = "fs_read"],
                "File-backed pages refaulted from the filesystem.";
            fs_writes: SWAP_EVENTS[LABEL_EVENT = "fs_write"],
                "Dirty file-backed pages written back to the filesystem.";
            writeback_collisions: SWAP_EVENTS[LABEL_EVENT = "writeback_collision"],
                "Faults that had to wait for an in-flight writeback of the same page.";
        }
    }
    /// A point-in-time snapshot of the counters kept by
    /// [`SwapBackedMemory`](crate::SwapBackedMemory).
    pub struct SwapStats;
}
