//! Monitor counters.
//!
//! The monitor increments [`MonitorCounters`] — shared telemetry
//! [`Counter`] handles — on its hot paths, and [`MonitorStats`] is the
//! point-in-time snapshot those handles produce. Registering the
//! counters in a [`Registry`] makes the *same* handles exportable
//! (Prometheus / JSONL), so the stats surface and the telemetry
//! subsystem can never disagree: there is one set of counters.

use fluidmem_telemetry::{consts, Counter, Registry};

/// A point-in-time snapshot of the [`Monitor`](crate::Monitor)'s
/// counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// Faults handled in total.
    pub faults: u64,
    /// First-touch faults resolved with `UFFD_ZEROPAGE` (no remote read).
    pub zero_fills: u64,
    /// Faults resolved by reading the key-value store.
    pub remote_reads: u64,
    /// Faults satisfied by stealing from the pending write list.
    pub write_list_steals: u64,
    /// Faults that had to wait for an in-flight write of the same page.
    pub inflight_waits: u64,
    /// Pages evicted from the VM.
    pub evictions: u64,
    /// Batch flushes issued to the store.
    pub flushes: u64,
    /// LRU capacity changes (operator resizes).
    pub resizes: u64,
    /// Copy-on-write breaks of zero-page mappings (kernel-side minor
    /// faults; counted by the backend).
    pub cow_breaks: u64,
    /// Pages the store reported missing (data loss, e.g. a memcached
    /// eviction) that were re-materialized as zero pages.
    pub lost_pages: u64,
    /// Pages pulled in proactively by the prefetch policy.
    pub prefetched_pages: u64,
    /// Prefetch attempts that found nothing in the store.
    pub prefetch_misses: u64,
    /// Prefetches abandoned on a retryable store error (timeout /
    /// transient refusal). Speculative reads are not retried — the page
    /// is fetched with the full retry budget if the guest faults on it.
    pub prefetch_transient_errors: u64,
    /// Prefetched pages discarded because the post-fetch `uffd` copy-in
    /// failed (the page got mapped while the read was in flight).
    pub prefetch_copy_skips: u64,
    /// Speculative reads issued by the prefetch policy (the accuracy
    /// panel's denominator).
    pub prefetch_issued: u64,
    /// Prefetched pages the guest actually touched: first access to an
    /// installed page, or a demand fault adopting an in-flight read.
    pub prefetch_hits: u64,
    /// Prefetched pages evicted, unmapped, or discarded before the guest
    /// ever touched them — wasted remote reads.
    pub prefetch_wasted: u64,
    /// Prefetches dropped on a *non-retryable* store error (data loss /
    /// corruption). Speculation must not take the monitor down; the
    /// demand path surfaces the real error if the guest needs the page.
    pub prefetch_fatal_errors: u64,
    /// Stride-prefetch issue rounds suppressed because the VM looked to
    /// be thrashing (WSS estimate over LRU capacity).
    pub prefetch_suppressed_thrash: u64,
    /// Stride-prefetch issue rounds suppressed because LRU headroom was
    /// below the prefetch depth.
    pub prefetch_suppressed_headroom: u64,
    /// Store reads retried after a retryable error (timeout /
    /// transient refusal). Backoff time is charged to the fault.
    pub read_retries: u64,
    /// Store writes (sync eviction puts, drain multi-writes) retried
    /// after a retryable error.
    pub write_retries: u64,
    /// Write-list flushes whose multi-write failed retryably; the batch
    /// stays on the write list and is re-flushed later.
    pub flush_failures: u64,
    /// Faults coalesced onto an already in-flight read of the same page
    /// (a second vCPU touching a page whose fetch is pending). Always
    /// zero for a driver that completes each fault before the next.
    pub coalesced_faults: u64,
    /// Refaults whose shadow entry was still live, yielding a measured
    /// refault distance.
    pub refaults_measured: u64,
    /// Measured refaults whose distance fell within the working-set
    /// estimate — faults a right-sized buffer would have avoided.
    pub thrash_refaults: u64,
    /// Adaptive-capacity grows applied by the working-set estimator.
    pub adaptive_grows: u64,
    /// Adaptive-capacity shrinks applied by the working-set estimator.
    pub adaptive_shrinks: u64,
    /// Pages evicted by the watermark-driven background reclaimer (off
    /// the fault critical path).
    pub background_reclaims: u64,
    /// Pages evicted inline on the fault path while background reclaim
    /// was enabled — the evictor fell behind its watermarks.
    pub direct_reclaims: u64,
    /// Evicted pages admitted into the compressed local tier.
    pub tier_admits: u64,
    /// Refaults resolved by promoting a page out of the compressed tier
    /// (no network round trip).
    pub tier_hits: u64,
    /// Refaults that checked the active compressed tier and missed.
    pub tier_misses: u64,
    /// Pages demoted from the compressed tier to the write list under
    /// pool pressure.
    pub tier_demotions: u64,
    /// Evicted pages that bypassed the compressed tier because they
    /// would not compress (RLE yields no win).
    pub tier_bypass_incompressible: u64,
    /// Evicted pages that bypassed the compressed tier because the
    /// refault-distance thrash gate tripped (working set exceeds DRAM
    /// plus the pool).
    pub tier_bypass_thrash: u64,
}

macro_rules! monitor_counters {
    ($(($field:ident, $event:literal, $doc:literal)),+ $(,)?) => {
        /// The monitor's live counter handles (see the module docs).
        #[derive(Debug, Clone, Default)]
        pub struct MonitorCounters {
            $(#[doc = $doc] pub $field: Counter,)+
        }

        impl MonitorCounters {
            /// Fresh detached counters (not exported anywhere).
            pub fn new() -> Self {
                Self::default()
            }

            /// Registers every counter in `registry` under
            /// [`consts::MONITOR_EVENTS`], keyed by an `event` label.
            /// Accumulated values carry over: the registry adopts the
            /// live handles rather than replacing them.
            pub fn register(&self, registry: &Registry) {
                $(registry.adopt_counter(
                    consts::MONITOR_EVENTS,
                    &[(consts::LABEL_EVENT, $event)],
                    &self.$field,
                );)+
            }

            /// Like [`MonitorCounters::register`], but additionally keyed
            /// by a [`consts::LABEL_VM`] label so several monitors can
            /// share one registry without clobbering each other (adoption
            /// replaces an identically-keyed entry).
            pub fn register_labeled(&self, registry: &Registry, vm: &str) {
                $(registry.adopt_counter(
                    consts::MONITOR_EVENTS,
                    &[(consts::LABEL_EVENT, $event), (consts::LABEL_VM, vm)],
                    &self.$field,
                );)+
            }

            /// A point-in-time snapshot of every counter.
            pub fn snapshot(&self) -> MonitorStats {
                MonitorStats {
                    $($field: self.$field.get(),)+
                }
            }
        }
    };
}

monitor_counters! {
    (faults, "fault", "Faults handled in total."),
    (zero_fills, "zero_fill", "First-touch faults resolved with `UFFD_ZEROPAGE`."),
    (remote_reads, "remote_read", "Faults resolved by reading the key-value store."),
    (write_list_steals, "write_list_steal", "Faults satisfied from the pending write list."),
    (inflight_waits, "inflight_wait", "Faults that waited for an in-flight write."),
    (evictions, "eviction", "Pages evicted from the VM."),
    (flushes, "flush", "Batch flushes issued to the store."),
    (resizes, "resize", "LRU capacity changes (operator resizes)."),
    (cow_breaks, "cow_break", "Copy-on-write breaks of zero-page mappings."),
    (lost_pages, "lost_page", "Pages the store reported missing."),
    (prefetched_pages, "prefetched_page", "Pages pulled in proactively by prefetch."),
    (prefetch_misses, "prefetch_miss", "Prefetch attempts that found nothing."),
    (prefetch_transient_errors, "prefetch_transient_error", "Prefetches abandoned on a retryable store error."),
    (prefetch_copy_skips, "prefetch_copy_skip", "Prefetched pages discarded because the copy-in failed."),
    (prefetch_issued, "prefetch_issued", "Speculative reads issued by the prefetch policy."),
    (prefetch_hits, "prefetch_hit", "Prefetched pages the guest actually touched."),
    (prefetch_wasted, "prefetch_wasted", "Prefetched pages discarded before any guest touch."),
    (prefetch_fatal_errors, "prefetch_fatal_error", "Prefetches dropped on a non-retryable store error."),
    (prefetch_suppressed_thrash, "prefetch_suppressed_thrash", "Prefetch rounds suppressed by the thrash gate."),
    (prefetch_suppressed_headroom, "prefetch_suppressed_headroom", "Prefetch rounds suppressed for lack of LRU headroom."),
    (read_retries, "read_retry", "Store reads retried after a retryable error."),
    (write_retries, "write_retry", "Store writes retried after a retryable error."),
    (flush_failures, "flush_failure", "Flushes whose multi-write failed retryably."),
    (coalesced_faults, "coalesced_fault", "Pipelined faults coalesced onto an in-flight read."),
    (refaults_measured, "refault_measured", "Refaults with a live shadow entry (distance measured)."),
    (thrash_refaults, "thrash_refault", "Measured refaults inside the working-set estimate."),
    (adaptive_grows, "adaptive_grow", "Adaptive-capacity grows applied by the estimator."),
    (adaptive_shrinks, "adaptive_shrink", "Adaptive-capacity shrinks applied by the estimator."),
    (background_reclaims, "background_reclaim", "Pages evicted by the watermark-driven background reclaimer."),
    (direct_reclaims, "direct_reclaim", "Pages evicted inline with background reclaim enabled (the evictor fell behind)."),
    (tier_admits, "tier_admit", "Evicted pages admitted into the compressed local tier."),
    (tier_hits, "tier_hit", "Refaults promoted out of the compressed tier."),
    (tier_misses, "tier_miss", "Refaults that checked the active compressed tier and missed."),
    (tier_demotions, "tier_demotion", "Pages demoted from the compressed tier under pool pressure."),
    (tier_bypass_incompressible, "tier_bypass_incompressible", "Evictions that bypassed the tier (incompressible)."),
    (tier_bypass_thrash, "tier_bypass_thrash", "Evictions that bypassed the tier (thrash gate)."),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed() {
        assert_eq!(MonitorStats::default().faults, 0);
        assert_eq!(MonitorCounters::new().snapshot(), MonitorStats::default());
    }

    #[test]
    fn snapshot_reads_live_handles() {
        let c = MonitorCounters::new();
        c.faults.add(3);
        c.zero_fills.inc();
        let s = c.snapshot();
        assert_eq!(s.faults, 3);
        assert_eq!(s.zero_fills, 1);
    }

    #[test]
    fn registered_counters_are_the_same_handles() {
        let c = MonitorCounters::new();
        c.evictions.add(2);
        let reg = Registry::new();
        c.register(&reg);
        // The registry sees pre-registration counts…
        let evictions = reg.counter(consts::MONITOR_EVENTS, &[(consts::LABEL_EVENT, "eviction")]);
        assert_eq!(evictions.get(), 2);
        // …and post-registration increments flow both ways.
        c.evictions.inc();
        assert_eq!(evictions.get(), 3);
    }
}
