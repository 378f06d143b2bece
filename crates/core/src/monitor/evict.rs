//! The evictor and flusher stages: moving pages out of the local buffer
//! and onto the write list, and flushing the write list to the store.
//!
//! Inline eviction runs *during* the faulting vCPU's read flight (§V-B:
//! "at a time when the vCPU thread was already suspended"), or after the
//! wake on the paths that have no flight.

use fluidmem_mem::{PageTable, PhysicalMemory};
use fluidmem_sim::SimInstant;
use fluidmem_telemetry::consts;
use fluidmem_uffd::Userfaultfd;

use super::Monitor;
use crate::config::EvictionMechanism;
use crate::profile::CodePath;

impl Monitor {
    /// Evicts until `incoming` more pages fit under capacity: 1 before a
    /// faulted page is inserted ("triggered ... when the number of pages
    /// reaches the configured maximum size and another page fault
    /// arrives"), 0 after an insert or a resize.
    ///
    /// The capacity is intentionally not clamped to 1 — a zero-page quota
    /// (capability-style revocation, §VI-E) must drain the buffer
    /// completely rather than pinning one resident page forever.
    pub(in crate::monitor) fn make_room(
        &mut self,
        uffd: &mut Userfaultfd,
        pt: &mut PageTable,
        pm: &mut PhysicalMemory,
        incoming: u64,
    ) {
        // Background-first: give the watermark evictor a chance to have
        // made (or make) room, so the inline loop below is a fallback.
        self.maybe_background_reclaim(uffd, pt, pm);
        while self.lru.len() + incoming > self.lru.capacity() {
            if !self.evict_one(uffd, pt, pm, false) {
                break;
            }
            if self.reclaim_active() {
                self.stats.direct_reclaims.inc();
            }
        }
    }

    /// Pops the eviction victim and performs the bookkeeping that must
    /// happen exactly once per eviction, shared by the inline and
    /// background evictors.
    pub(in crate::monitor) fn pop_victim_for_eviction(&mut self) -> Option<fluidmem_mem::Vpn> {
        let victim = self.lru.pop_victim()?;
        // Shadow entry at pop time, exactly once per eviction: the
        // store write may fail and retry (or the flushed batch may
        // be requeued), but the page leaves the LRU exactly here.
        self.workingset.record_eviction(victim);
        // A prefetched page evicted before the guest ever touched it was
        // a wasted remote read.
        let pending = self.prefetch_pending_touch.get_mut(victim);
        if pending.and_then(Option::take).is_some() {
            self.stats.prefetch_wasted.inc();
        }
        Some(victim)
    }

    /// Evicts one page from the top of the LRU; returns `false` if the
    /// buffer is empty. The CPU is charged to whichever timeline runs
    /// it, and the shootdown handle and the write-list `ready_at` are
    /// stamped from that timeline, so the page stays unflushable until
    /// its shootdown genuinely completes. Only an inline (not
    /// `background`) eviction shows as a `UFFD_REMAP` span and Table I
    /// row.
    pub(in crate::monitor) fn evict_one(
        &mut self,
        uffd: &mut Userfaultfd,
        pt: &mut PageTable,
        pm: &mut PhysicalMemory,
        background: bool,
    ) -> bool {
        let Some(victim) = self.pop_victim_for_eviction() else {
            return false;
        };
        let key = self.key(victim);

        let t0 = self.clock.now();
        let span = (!background).then(|| {
            self.telemetry
                .begin_with(consts::TRACK_MONITOR, "UFFD_REMAP", || {
                    vec![("vpn", format!("{victim}"))]
                })
        });
        let (contents, handle) = uffd
            .remap(pt, pm, victim)
            .expect("LRU pages are mapped in the VM");
        if self.config.eviction == EvictionMechanism::Remap {
            // The cross-CPU TLB shootdown completes in the background.
            self.telemetry.record_span(
                consts::TRACK_KERNEL,
                "tlb.shootdown",
                t0,
                handle.completes_at(),
            );
        }
        let ready_at = match self.config.eviction {
            EvictionMechanism::Remap => handle.completes_at(),
            EvictionMechanism::Copy => {
                // Zero-copy ablation: UFFD_COPY-style eviction copies the
                // page out instead; no cross-CPU wait, but a 4 KB copy.
                let copy_cost = uffd.copy_cost().sample(&mut self.rng);
                self.clock.advance(copy_cost)
            }
        };
        if !self.config.optimizations.async_write
            && self.config.eviction == EvictionMechanism::Remap
        {
            // Synchronous writes need the shootdown done before staging.
            uffd.wait_remap(handle);
        }
        if let Some(span) = span {
            self.telemetry.end(span);
            self.profile
                .record(CodePath::UffdRemap, self.clock.now() - t0);
        }

        self.stats.evictions.inc();

        if self.config.optimizations.async_write {
            // The compressed tier gets first refusal; only bypassed pages
            // (tier off, thrash gate, incompressible) stage for writeback
            // and stay stealable until the batch flush retires them.
            if let Some(contents) = self.tier_try_admit(key, contents) {
                let span = self
                    .telemetry
                    .begin(consts::TRACK_MONITOR, "write_list.push");
                self.charge(|c| &c.write_list_push);
                self.write_list.push(key, contents, ready_at);
                self.telemetry.end(span);
            }
        } else {
            // Inline only: background reclaim requires `async_write`.
            self.charge(|c| &c.sync_write_staging);
            let t0 = self.clock.now();
            self.put_with_retries(key, contents);
            self.profile
                .record(CodePath::WritePage, self.clock.now() - t0);
        }
        true
    }

    /// Flushes the write list when it is long enough or stale enough
    /// (§V-B: "a separate thread periodically flushes the write list ...
    /// when its size has reached a configured batch size of pages or a
    /// stale file descriptor has been found").
    pub(crate) fn maybe_flush(&mut self) {
        let now = self.clock.now();
        self.write_list.retire(now);
        let stale = self
            .write_list
            .oldest_pending()
            .is_some_and(|t| now.saturating_since(t) > self.config.flush_interval);
        if self.write_list.pending_len() >= self.config.write_batch_size || stale {
            self.flush_batch();
        }
        self.stats
            .write_list_pending
            .set(self.write_list.pending_len() as i64);
    }

    fn flush_batch(&mut self) {
        let batch = self
            .write_list
            .take_batch(self.config.write_batch_size, self.clock.now());
        if batch.is_empty() {
            return;
        }
        // The store takes the batch; the write list keeps a copy to steal
        // from (and to requeue on failure). Both buffers are recycled, so
        // a flush allocates nothing once the pool is warm.
        let mut retained = self.write_list.spare_batch();
        retained.extend_from_slice(&batch);
        match self.store.begin_multi_write(batch) {
            Ok(pending) => {
                let completes_at = pending.completes_at();
                // The batch's flight on the kv track, as `issue_read`
                // records a read's.
                self.telemetry.record_span(
                    consts::TRACK_KV,
                    "kv.write.flight",
                    pending.issued_at(),
                    completes_at,
                );
                self.write_list.recycle(pending.into_batch());
                // The flusher thread owns the bottom half; the critical
                // path only remembers the batch for stealing.
                self.write_list.mark_inflight(retained, completes_at);
                self.stats.flushes.inc();
            }
            Err(e) if e.is_retryable() => {
                // The batch goes back on the write list (already past its
                // TLB shootdown, so immediately flushable again); the next
                // flush opportunity retries it. Page writes are
                // idempotent, so a timed-out-but-applied batch re-flushing
                // is harmless. No data is lost either way: the freshest
                // copy stays local and stealable — `requeue` skips any key
                // re-evicted with newer contents in the meantime rather
                // than clobbering it with the stale batch copy.
                self.stats.flush_failures.inc();
                let now = self.clock.now();
                self.write_list.requeue(retained, now);
            }
            Err(e) => panic!("store failure on flush: {e}"),
        }
    }

    /// Flushes and waits for every outstanding write (shutdown, or test
    /// synchronization).
    pub(crate) fn drain_writes(&mut self) {
        // A drain must leave every page durable in the store: demote the
        // whole compressed pool onto the write list first (charge-free —
        // shutdown work, not a fault or evictor timeline).
        while let Some((key, contents)) = self.tier.pop_oldest() {
            self.stats.tier_demotions.inc();
            self.write_list.push(key, contents, self.clock.now());
        }
        loop {
            // Waiting for pending shootdowns makes everything flushable.
            if let Some(t) = self.write_list.oldest_pending() {
                self.clock.advance_to(t);
            }
            let batch = self.write_list.take_batch(usize::MAX, self.clock.now());
            if batch.is_empty() {
                break;
            }
            let issued_at = self.clock.now();
            self.with_store_retries(
                |s| &s.write_retries,
                "drain",
                0,
                |store| store.multi_write(batch.clone()),
            );
            // A blocking write: its flight is the whole call.
            self.telemetry.record_span(
                consts::TRACK_KV,
                "kv.write.flight",
                issued_at,
                self.clock.now(),
            );
            self.stats.flushes.inc();
        }
        self.write_list.retire(SimInstant::from_nanos(u64::MAX));
        self.update_gauges();
    }
}
