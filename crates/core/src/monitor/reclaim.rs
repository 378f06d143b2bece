//! The watermark-driven background reclaimer: the monitor's kswapd.
//!
//! FluidMem's real monitor is multi-threaded: a dedicated evictor keeps
//! the LRU below capacity while fault handlers block in store reads.
//! Inline eviction (`make_room` on the fault path) serializes that work
//! onto the fault handler's timeline instead — every fault at
//! a full buffer pays `UFFD_REMAP` CPU plus write-list staging before
//! its read can complete. This module models the evictor as its own
//! virtual thread, exactly like `fluidmem-swap`'s `kswapd()` models the
//! kernel's:
//!
//! * **Watermarks.** The evictor watches free headroom
//!   (`capacity − resident`). It wakes when headroom drops below the
//!   low watermark and stays awake — evicting in batches — until
//!   headroom reaches the high watermark or nothing is evictable, then
//!   sleeps.
//! * **Its own thread.** An activation runs on
//!   [`Timeline::Evictor`] through `Monitor::run_on`, like the response
//!   handler and the vCPU handler threads: it performs its state changes
//!   (page-table unmap, frame free, write-list staging) immediately, but
//!   the CPU it spends lands on the evictor's timeline and never
//!   advances the guest clock — the work happens *while vCPUs are
//!   suspended on read flights*, which is precisely the §V-B window the
//!   paper hides eviction in. The TLB-shootdown handle and the
//!   write-list `ready_at` are stamped from that timeline, so the pages
//!   stay unflushable until their shootdowns genuinely complete. An
//!   activation starts at the later of where the evictor has reached
//!   and where its caller's thread is.
//! * **Deterministic scheduling.** When faults are parked in the
//!   in-flight table, an activation is enqueued on the same
//!   [`EventQueue`](fluidmem_sim::EventQueue) that orders fault
//!   completions and runs in event order with them, handed to the
//!   evictor by the response handler (the next [`Monitor::poll_ready`]
//!   or [`Monitor::complete_next`] reaches it, and the guest clock never
//!   waits for it); with nothing in flight the activation runs on the
//!   spot. Either
//!   way the schedule is a pure function of the seed.
//! * **Direct reclaim as fallback.** If the evictor falls behind and a
//!   fault still finds the buffer full, the fault runs the same
//!   `evict_one` on the shared clock — counted as `direct_reclaim`, the
//!   analogue of `SwapBackend::ensure_frames`.
//!
//! Everything here is gated on [`Monitor::reclaim_active`]: with the
//! feature off (the default) no RNG draw, clock charge, counter, or
//! span differs from a monitor built without it.

use fluidmem_mem::{PageTable, PhysicalMemory};
use fluidmem_telemetry::consts;
use fluidmem_uffd::Userfaultfd;

use super::pipeline::Timeline;
use super::Monitor;

/// Maximum pages evicted per activation; each batch stages onto the
/// write list in one pass and flushes through `begin_multi_write`.
const RECLAIM_BATCH: usize = 32;

/// The background evictor's thread state. Its timeline is
/// [`Timeline::Evictor`], kept with the monitor's other threads.
#[derive(Debug)]
pub(in crate::monitor) struct ReclaimState {
    /// Whether the evictor is awake (woken below the low watermark, not
    /// yet back above the high one).
    awake: bool,
    /// Whether an activation is already queued on the completion event
    /// queue (dedup so at most one is pending).
    scheduled: bool,
}

impl ReclaimState {
    pub(in crate::monitor) fn new() -> Self {
        ReclaimState {
            awake: false,
            scheduled: false,
        }
    }
}

impl Monitor {
    /// Whether background reclaim is in effect. Requires `async_write`:
    /// background batches stage onto the write list, which does not
    /// exist on the synchronous-write path.
    pub(in crate::monitor) fn reclaim_active(&self) -> bool {
        self.config.reclaim.enabled && self.config.optimizations.async_write
    }

    /// Free headroom in the LRU: `capacity − resident`, zero when at or
    /// over capacity.
    pub(crate) fn headroom(&self) -> u64 {
        self.lru.capacity().saturating_sub(self.lru.len())
    }

    /// The watermark check, run before any inline eviction loop: wakes
    /// the evictor when headroom has dropped below the low watermark and
    /// gives it a chance to run (or schedules it) so the inline path
    /// finds the buffer already below capacity. A single-branch no-op
    /// when reclaim is inactive.
    pub(in crate::monitor) fn maybe_background_reclaim(
        &mut self,
        uffd: &mut Userfaultfd,
        pt: &mut PageTable,
        pm: &mut PhysicalMemory,
    ) {
        if !self.reclaim_active() {
            return;
        }
        if !self.reclaim.awake {
            let low = self.config.reclaim.low_pages(self.lru.capacity());
            if self.headroom() >= low {
                return;
            }
            self.reclaim.awake = true;
        }
        // A buffer at (or over) capacity would force the caller's inline
        // loop to evict on the fault path: the evictor preempts and runs
        // its batches right now instead of waiting for its queued
        // activation. Below that point, lazy wakeups suffice.
        while self.reclaim.awake && self.headroom() == 0 {
            let before = self.lru.len();
            self.run_background_reclaim(uffd, pt, pm);
            if self.lru.len() == before {
                break;
            }
        }
        if self.reclaim.awake {
            self.kick_reclaim(uffd, pt, pm);
        }
    }

    /// Runs the awake evictor batch-by-batch until it sleeps, or — when
    /// faults are parked in the in-flight table, so the completion queue
    /// is guaranteed to be run — enqueues one activation on it to run in
    /// event order.
    fn kick_reclaim(
        &mut self,
        uffd: &mut Userfaultfd,
        pt: &mut PageTable,
        pm: &mut PhysicalMemory,
    ) {
        while self.reclaim.awake {
            if self.inflight.len() > 0 {
                if !self.reclaim.scheduled {
                    self.reclaim.scheduled = true;
                    self.inflight.schedule_reclaim(self.clock.now());
                }
                return;
            }
            self.run_background_reclaim(uffd, pt, pm);
        }
    }

    /// A queued activation popped off the completion queue.
    pub(in crate::monitor) fn run_scheduled_reclaim(
        &mut self,
        uffd: &mut Userfaultfd,
        pt: &mut PageTable,
        pm: &mut PhysicalMemory,
    ) {
        self.reclaim.scheduled = false;
        if self.reclaim.awake {
            self.run_background_reclaim(uffd, pt, pm);
            // Still awake (batch cap hit, headroom below high): line up
            // the next activation rather than monopolizing this event.
            self.kick_reclaim(uffd, pt, pm);
        }
    }

    /// One evictor activation: evicts up to one batch on
    /// [`Timeline::Evictor`], staging onto the write list, until headroom
    /// reaches the high watermark or the LRU runs dry — then sleeps.
    /// Flushes through the ordinary batched `begin_multi_write` path.
    pub(in crate::monitor) fn run_background_reclaim(
        &mut self,
        uffd: &mut Userfaultfd,
        pt: &mut PageTable,
        pm: &mut PhysicalMemory,
    ) {
        let high = self.config.reclaim.high_pages(self.lru.capacity());
        // Nothing to do: sleep without touching the evictor's timeline.
        if self.lru.is_empty() || self.headroom() >= high {
            self.reclaim.awake = false;
            return;
        }
        let now = self.clock.now();
        self.run_on(Timeline::Evictor, now, |m| {
            let start = m.clock.now();
            let mut evicted = 0usize;
            while evicted < RECLAIM_BATCH && m.headroom() < high {
                if !m.evict_one(uffd, pt, pm, true) {
                    // Nothing evictable: sleep rather than spin awake.
                    m.reclaim.awake = false;
                    break;
                }
                m.stats.background_reclaims.inc();
                evicted += 1;
            }
            m.telemetry
                .record_span(consts::TRACK_MONITOR, "reclaim", start, m.clock.now());
        });
        if self.headroom() >= high {
            self.reclaim.awake = false;
        }
        self.maybe_flush();
        self.update_gauges();
    }
}
