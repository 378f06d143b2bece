//! Fault-handler stages.
//!
//! Each stage is one step of a fault: intake, first-touch resolution,
//! the steal check, the split top/bottom-half read, page placement +
//! wake, and post-wake work. The `pipeline` module sequences them, with
//! the read flight parked in the in-flight table between the issue and
//! completion stages.

use fluidmem_kv::{ExternalKey, KeyValueStore, KvError, PendingGet};
use fluidmem_mem::{PageContents, PageTable, PhysicalMemory, PteFlags, Vpn};
use fluidmem_sim::SimInstant;
use fluidmem_telemetry::{consts, Counter, Histogram, SpanId};
use fluidmem_uffd::Userfaultfd;

use super::pipeline::PrefetchFlight;
use super::{FaultIntake, FaultResolution, Monitor, Resolution};
use crate::config::{LruPolicy, PrefetchPolicy};
use crate::profile::CodePath;
use crate::stats::MonitorCounters;
use crate::write_list::StealOutcome;

/// A store read in flight: the §V-B top half has been issued and the
/// overlapped evictor work has run; the bottom half completes at
/// [`ReadFlight::completes_at`].
pub(in crate::monitor) struct ReadFlight {
    t0: SimInstant,
    span: SpanId,
    key: ExternalKey,
    pending: PendingGet,
}

impl ReadFlight {
    /// When the store round trip completes.
    pub(in crate::monitor) fn completes_at(&self) -> SimInstant {
        self.pending.completes_at()
    }
}

impl Monitor {
    /// Fault intake: opens the fault span, retires completed writes,
    /// runs the LRU policy's per-fault maintenance, and looks the page
    /// up in the page tracker.
    pub(in crate::monitor) fn fault_intake(
        &mut self,
        pt: &mut PageTable,
        vpn: Vpn,
        write: bool,
    ) -> FaultIntake {
        let t0 = self.clock.now();
        let span = self
            .telemetry
            .begin_with(consts::TRACK_MONITOR, "fault", || {
                vec![("vpn", format!("{vpn}")), ("write", write.to_string())]
            });
        self.stats.faults.inc();
        // Feed the stride detector. Pure bookkeeping — no clock advance,
        // no RNG draw, no counter — so a configured-but-trendless (or
        // zero-depth) Stride policy leaves the run byte-identical to
        // `PrefetchPolicy::None`.
        if matches!(self.config.prefetch, PrefetchPolicy::Stride { .. }) {
            self.stride.observe(vpn);
        }
        self.write_list.retire(self.clock.now());
        self.run_lru_policy(pt);

        // "The monitor keeps a list of already seen pages to avoid reads
        // from the remote key-value store for first-time accesses."
        let lookup = self
            .telemetry
            .begin(consts::TRACK_MONITOR, "page_hash_lookup");
        self.charge(|c| &c.hash_lookup);
        let seen = self.tracker.contains(vpn);
        self.telemetry.end(lookup);
        FaultIntake { t0, span, seen }
    }

    /// Fault completion: closes the fault span at the wake instant and
    /// records the guest-observed latency.
    pub(in crate::monitor) fn finalize_fault(
        &mut self,
        span: SpanId,
        t0: SimInstant,
        resolution: Resolution,
        wake_at: SimInstant,
    ) {
        // The guest-observed latency ends at the wake, not at the end of
        // post-wake work (which has already advanced the clock).
        self.telemetry.end_at(span, wake_at);
        self.stats.fault_latency(resolution).observe(wake_at - t0);
        self.update_gauges();
    }

    /// Records how long an operation that was `ripe_at` some instant —
    /// its response landed and the monitor done with its issue stage —
    /// sat before its bottom half started: on the handler's timeline,
    /// the time it queued behind retires the handler was still busy
    /// with. One picked up as it ripened records nothing: the histogram
    /// counts late pickups only, so a blocking driver — whose
    /// completions are never late — pays nothing for the instrument.
    pub(in crate::monitor) fn note_completion_lag(&self, lag: &Histogram, ripe_at: SimInstant) {
        let late_by = self.clock.now().saturating_since(ripe_at);
        if !late_by.is_zero() {
            lag.observe(late_by);
        }
    }

    /// Figure 2's fast path: zero-fill, wake, then evict asynchronously.
    pub(in crate::monitor) fn handle_first_touch(
        &mut self,
        uffd: &mut Userfaultfd,
        pt: &mut PageTable,
        pm: &mut PhysicalMemory,
        vpn: Vpn,
    ) -> FaultResolution {
        let t0 = self.clock.now();
        let span = self.telemetry.begin(consts::TRACK_MONITOR, "UFFD_ZEROPAGE");
        uffd.zeropage(pt, vpn).expect("first touch maps cleanly");
        self.telemetry.end(span);
        self.profile
            .record(CodePath::UffdZeropage, self.clock.now() - t0);

        let t0 = self.clock.now();
        let span = self
            .telemetry
            .begin(consts::TRACK_MONITOR, "insert_page_hash");
        self.charge(|c| &c.insert_page_hash);
        self.tracker.insert(vpn);
        self.telemetry.end(span);
        self.profile
            .record(CodePath::InsertPageHashNode, self.clock.now() - t0);

        let t0 = self.clock.now();
        let span = self.telemetry.begin(consts::TRACK_MONITOR, "insert_lru");
        self.charge(|c| &c.insert_lru);
        self.lru.insert(vpn);
        self.telemetry.end(span);
        self.profile
            .record(CodePath::InsertLruCacheNode, self.clock.now() - t0);

        let wake_at = self.wake(uffd, vpn);
        self.stats.zero_fills.inc();

        // Asynchronous (post-wake) eviction — the blue path of Figure 2.
        self.make_room(uffd, pt, pm, 0);
        self.maybe_flush();
        FaultResolution {
            resolution: Resolution::ZeroFill,
            wake_at,
        }
    }

    /// §V-B: "the page fault handler can steal pages from the pending
    /// write list ... and shortcut two round trips".
    pub(in crate::monitor) fn stage_steal_check(&mut self, key: ExternalKey) -> StealOutcome {
        let span = self.telemetry.begin(consts::TRACK_MONITOR, "steal_check");
        self.charge(|c| &c.steal_check);
        let steal = self.write_list.steal(key, self.clock.now());
        self.telemetry.end(span);
        steal
    }

    /// Waits out an in-flight write of the faulted page: "there is no
    /// other choice than to wait for the write to complete", after which
    /// the buffered copy is used.
    pub(in crate::monitor) fn stage_wait_write(
        &mut self,
        uffd: &mut Userfaultfd,
        pt: &mut PageTable,
        pm: &mut PhysicalMemory,
        until: SimInstant,
    ) {
        self.clock.advance_to(until);
        self.write_list.retire(self.clock.now());
        self.stats.inflight_waits.inc();
        self.make_room(uffd, pt, pm, 1);
    }

    /// The one place a store read is submitted: issues the asynchronous
    /// read's top half (§V-B) and records the in-flight window on the kv
    /// track, where it visibly overlaps the `UFFD_REMAP` / bookkeeping
    /// the monitor does meanwhile.
    fn issue_read(&mut self, key: ExternalKey) -> PendingGet {
        let pending = self.store.begin_get(key);
        self.telemetry.record_span(
            consts::TRACK_KV,
            "kv.read.flight",
            pending.issued_at(),
            pending.completes_at(),
        );
        pending
    }

    /// The work that overlaps a read flight: eviction (`UFFD_REMAP` "at
    /// a time when the vCPU thread was already suspended") and cache
    /// bookkeeping — the evictor stage running during the store round
    /// trip.
    fn overlap_flight(
        &mut self,
        uffd: &mut Userfaultfd,
        pt: &mut PageTable,
        pm: &mut PhysicalMemory,
    ) {
        self.make_room(uffd, pt, pm, 1);
        let t0 = self.clock.now();
        let span = self
            .telemetry
            .begin(consts::TRACK_MONITOR, "update_page_cache");
        self.charge(|c| &c.update_page_cache);
        self.telemetry.end(span);
        self.profile
            .record(CodePath::UpdatePageCache, self.clock.now() - t0);
    }

    /// Issues a demand read and runs the work that overlaps its flight.
    pub(in crate::monitor) fn stage_issue_read(
        &mut self,
        uffd: &mut Userfaultfd,
        pt: &mut PageTable,
        pm: &mut PhysicalMemory,
        key: ExternalKey,
    ) -> ReadFlight {
        let t0 = self.clock.now();
        let span = self.telemetry.begin(consts::TRACK_MONITOR, "kv.read");
        let pending = self.issue_read(key);
        self.overlap_flight(uffd, pt, pm);
        ReadFlight {
            t0,
            span,
            key,
            pending,
        }
    }

    /// Completes a read flight's bottom half. A retryable failure falls
    /// back to synchronous retries with backoff — the extra wait lands on
    /// this fault's latency, as it would in reality.
    pub(in crate::monitor) fn stage_complete_read(&mut self, flight: ReadFlight) -> PageContents {
        let ReadFlight {
            t0,
            span,
            key,
            pending,
        } = flight;
        let contents = match self.store.finish_get(pending) {
            Ok(c) => c,
            Err(KvError::NotFound(_)) => {
                self.stats.lost_pages.inc();
                PageContents::Zero
            }
            Err(e) if e.is_retryable() => {
                self.stats.read_retries.inc();
                let wait = fluidmem_kv::retry_backoff(0, &mut self.rng);
                self.clock.advance(wait);
                self.fetch_with_retries(key, 1)
            }
            Err(e) => panic!("store failure on read: {e}"),
        };
        self.telemetry.end(span);
        self.profile
            .record(CodePath::ReadPage, self.clock.now() - t0);
        contents
    }

    /// Installs the page with `UFFD_COPY`, inserts it into the LRU, and
    /// wakes the faulting vCPU. Returns the wake instant (the end of the
    /// guest-observed critical path).
    pub(in crate::monitor) fn stage_place_and_wake(
        &mut self,
        uffd: &mut Userfaultfd,
        pt: &mut PageTable,
        pm: &mut PhysicalMemory,
        vpn: Vpn,
        write: bool,
        contents: PageContents,
    ) -> SimInstant {
        let t0 = self.clock.now();
        let span = self.telemetry.begin(consts::TRACK_MONITOR, "UFFD_COPY");
        uffd.copy(pt, pm, vpn, contents)
            .expect("refault destination is unmapped");
        self.telemetry.end(span);
        self.profile
            .record(CodePath::UffdCopy, self.clock.now() - t0);
        if write {
            pt.set_flags(vpn, PteFlags::DIRTY);
        }

        let t0 = self.clock.now();
        let span = self.telemetry.begin(consts::TRACK_MONITOR, "insert_lru");
        self.charge(|c| &c.insert_lru);
        self.lru.insert(vpn);
        self.telemetry.end(span);
        self.profile
            .record(CodePath::InsertLruCacheNode, self.clock.now() - t0);

        self.wake(uffd, vpn)
    }

    /// Wakes the vCPU blocked on `vpn` and marks the wake on the guest
    /// track at once, so it precedes any post-wake work that starts at
    /// the same instant. Returns the wake instant.
    fn wake(&self, uffd: &mut Userfaultfd, vpn: Vpn) -> SimInstant {
        uffd.wake_page(vpn);
        let at = self.clock.now();
        self.telemetry.instant_at(consts::TRACK_GUEST, "wake", at);
        at
    }

    /// Post-wake work on the read path: honor the capacity budget, then
    /// flush. (The fault's prefetch window went out at its admission.)
    pub(in crate::monitor) fn stage_post_wake(
        &mut self,
        uffd: &mut Userfaultfd,
        pt: &mut PageTable,
        pm: &mut PhysicalMemory,
    ) {
        // Adaptive working-set sizing (off in the default passive mode):
        // any shrink it sets up is carried out by the eviction below.
        self.maybe_adapt();
        // A zero (or just-shrunk) quota must be honored on the read path
        // too: the refault insert may have pushed the buffer over budget
        // with no later fault guaranteed to correct it. A no-op whenever
        // the buffer is within capacity.
        self.make_room(uffd, pt, pm, 0);
        self.maybe_flush();
    }

    /// Sends out a speculative read for every page of `window`, draining
    /// it. Each read parks as a real in-flight operation on the
    /// completion queue: it installs when it lands (see
    /// [`Monitor::complete_prefetch`]) without waking anyone, and a
    /// demand fault arriving mid-flight adopts it instead of re-issuing
    /// the read.
    pub(in crate::monitor) fn issue_speculative_reads(&mut self, window: &mut Vec<Vpn>) {
        for candidate in window.drain(..) {
            let key = self.key(candidate);
            self.stats.prefetch_issued.inc();
            let pending = self.issue_read(key);
            self.inflight.park_prefetch(PrefetchFlight {
                vpn: candidate,
                pending,
            });
        }
    }

    /// Fills `out` with the pages worth fetching ahead of a fault on
    /// `vpn`, per the configured policy.
    ///
    /// `Sequential` takes the next `window` successors of the faulting
    /// page. `Stride` asks the majority-vote detector for the stream's
    /// trend and takes up to `max_depth` pages ahead at that stride,
    /// gated by the working-set estimator: a thrash-flagged VM (working
    /// set over capacity) or one whose free headroom is below the depth
    /// gets no speculation.
    pub(in crate::monitor) fn prefetch_candidates_for(
        &mut self,
        uffd: &Userfaultfd,
        pt: &PageTable,
        vpn: Vpn,
        out: &mut Vec<Vpn>,
    ) {
        match self.config.prefetch {
            PrefetchPolicy::None => {}
            PrefetchPolicy::Sequential { window } => {
                // Issue is capped at current headroom: a page past the
                // cap could not be installed when it lands — a wasted
                // remote read.
                let cap = self.headroom();
                for i in 1..=window {
                    if out.len() as u64 == cap {
                        break;
                    }
                    let candidate = vpn.offset(i);
                    if self.prefetchable(uffd, pt, candidate) {
                        out.push(candidate);
                    }
                }
            }
            PrefetchPolicy::Stride { max_depth, .. } => {
                // max_depth = 0 is the policy's off switch: no gate
                // counters, no RNG or clock effects — byte-identical to
                // `PrefetchPolicy::None`.
                if max_depth == 0 {
                    return;
                }
                let Some(stride) = self.stride.trend() else {
                    return;
                };
                // Thrash gate: with the working set over capacity every
                // speculative insert evicts a page the guest still
                // wants. The detector keeps watching; issue stops.
                let wss = self.workingset.wss_estimate();
                let capacity = self.lru.capacity();
                if wss > capacity {
                    self.stats.prefetch_suppressed_thrash.inc();
                    return;
                }
                // Headroom gate: fewer free slots than the depth means
                // speculation would find no room when it lands.
                let headroom = self.headroom();
                if headroom < max_depth {
                    self.stats.prefetch_suppressed_headroom.inc();
                    return;
                }
                for k in 1..=max_depth {
                    if let Some(candidate) = crate::prefetch::project(vpn, stride, k) {
                        if self.prefetchable(uffd, pt, candidate) {
                            out.push(candidate);
                        }
                    }
                }
            }
        }
    }

    /// Whether a page may be speculatively fetched: evicted-but-seen, in
    /// a registered region, not already resident or mapped, no fresher
    /// local copy (write list / compressed tier), and not already owned
    /// by an in-flight operation (demand or speculative).
    fn prefetchable(&self, uffd: &Userfaultfd, pt: &PageTable, candidate: Vpn) -> bool {
        if !self.tracker.contains(candidate)
            || self.lru.contains(candidate)
            || pt.get(candidate).is_some()
            || uffd.region_containing(candidate).is_none()
        {
            return false;
        }
        let key = self.key(candidate);
        if self.write_list.is_tracked(key) || self.tier.contains(key) {
            return false; // its freshest copy is local, not in the store
        }
        // A duplicate read would race the pending install: the first
        // completion maps the page and the second copy-in fails — or
        // worse, maps under a parked demand fault about to wake.
        !self.inflight.is_parked(candidate)
    }

    /// Lands one finished speculative read: installs the page and
    /// stamps the accuracy ledger on success, otherwise counts the
    /// failure by kind. Never panics — speculation must not take the
    /// monitor down (the demand path surfaces persistent errors with the
    /// full retry budget).
    pub(in crate::monitor) fn note_prefetch_result(
        &mut self,
        uffd: &mut Userfaultfd,
        pt: &mut PageTable,
        pm: &mut PhysicalMemory,
        candidate: Vpn,
        issued_at: SimInstant,
        result: Result<PageContents, KvError>,
    ) {
        match result {
            Ok(contents) => {
                if uffd.copy(pt, pm, candidate, contents).is_ok() {
                    self.lru.insert(candidate);
                    // The page came back without a fault, so its
                    // refault distance will never be measured; drop
                    // any shadow entry (counted as forgotten) so the
                    // nonresident accounting stays balanced.
                    self.workingset.forget(candidate);
                    self.stats.prefetched_pages.inc();
                    // Open an accuracy-ledger entry: the guest's first
                    // touch resolves it to a hit, an eviction first
                    // resolves it to a waste.
                    *self.prefetch_pending_touch.slot_mut(candidate) = Some(issued_at);
                } else {
                    // The page got mapped while the read was in
                    // flight; the fetched copy is redundant, not
                    // lost, but it must not vanish unaccounted.
                    self.stats.prefetch_copy_skips.inc();
                }
            }
            Err(KvError::NotFound(_)) => {
                self.stats.prefetch_misses.inc();
            }
            Err(e) if e.is_retryable() => {
                // Speculative work doesn't spend the retry budget: if
                // the guest actually faults on the page it is fetched
                // with full retries; here the attempt is just dropped
                // and counted as transient, not as a miss.
                self.stats.prefetch_transient_errors.inc();
            }
            Err(_) => {
                // Non-retryable (corruption, capacity): dropping the
                // guess costs nothing — the data is exactly where it
                // was — so degrade instead of panicking like the demand
                // read path does.
                self.stats.prefetch_fatal_errors.inc();
            }
        }
    }

    /// Completes a parked speculative read popped off the pipeline's
    /// queue. Installs the page if the quota still has room; wakes
    /// nothing and finalizes nothing — no guest is waiting.
    pub(in crate::monitor) fn complete_prefetch(
        &mut self,
        uffd: &mut Userfaultfd,
        pt: &mut PageTable,
        pm: &mut PhysicalMemory,
        flight: PrefetchFlight,
    ) {
        let PrefetchFlight { vpn, pending } = flight;
        let issued_at = pending.issued_at();
        self.note_completion_lag(
            &self.stats.speculative_completion_lag,
            pending.completes_at(),
        );
        let result = self.store.finish_get(pending);
        if result.is_ok() && self.headroom() == 0 {
            // The LRU filled (or shrank) while the read was in flight:
            // installing now would evict a demand-loaded page for a
            // guess. Drop the fetched copy and count the flight wasted.
            self.stats.prefetch_wasted.inc();
            return;
        }
        self.note_prefetch_result(uffd, pt, pm, vpn, issued_at, result);
    }

    /// Converts an in-flight speculative read into a demand fault's read
    /// flight: the guest asked for the page mid-flight and pays only the
    /// remaining flight time (a prefetch hit, resolved early).
    pub(in crate::monitor) fn stage_adopt_prefetch(
        &mut self,
        uffd: &mut Userfaultfd,
        pt: &mut PageTable,
        pm: &mut PhysicalMemory,
        key: ExternalKey,
        flight: PrefetchFlight,
    ) -> ReadFlight {
        let t0 = self.clock.now();
        let span = self.telemetry.begin(consts::TRACK_MONITOR, "kv.read");
        self.stats.prefetch_hits.inc();
        self.stats
            .prefetch_timeliness
            .observe(t0.saturating_since(flight.pending.issued_at()));
        self.overlap_flight(uffd, pt, pm);
        ReadFlight {
            t0,
            span,
            key,
            pending: flight.pending,
        }
    }

    /// Synchronous read (Table II "Default"): the full store round trip
    /// sits on the critical path, then the eviction runs.
    pub(in crate::monitor) fn read_sync(
        &mut self,
        uffd: &mut Userfaultfd,
        pt: &mut PageTable,
        pm: &mut PhysicalMemory,
        key: ExternalKey,
    ) -> PageContents {
        self.charge(|c| &c.sync_read_staging);
        let t0 = self.clock.now();
        let span = self.telemetry.begin(consts::TRACK_MONITOR, "kv.read");
        let contents = self.fetch_with_retries(key, 0);
        self.telemetry.end(span);
        self.profile
            .record(CodePath::ReadPage, self.clock.now() - t0);

        self.overlap_flight(uffd, pt, pm);
        contents
    }

    /// Runs one store operation with bounded retries via
    /// [`fluidmem_kv::run_with_retries_from`], bumping the `retries`
    /// counter once per retry. `prior_attempts` counts tries already
    /// spent on this operation (the async top-half path).
    ///
    /// # Panics
    ///
    /// Panics, naming `verb`, on a failure that outlasts the retries.
    pub(in crate::monitor) fn with_store_retries<T>(
        &mut self,
        retries: fn(&MonitorCounters) -> &Counter,
        verb: &str,
        prior_attempts: u32,
        mut op: impl FnMut(&mut dyn KeyValueStore) -> Result<T, KvError>,
    ) -> T {
        let mut tries = 0u32;
        let retries = retries(&self.stats);
        fluidmem_kv::run_with_retries_from(
            &self.clock,
            &mut self.rng,
            prior_attempts,
            |_, _| {
                tries += 1;
                retries.inc();
            },
            |_| op(self.store.as_mut()),
        )
        .unwrap_or_else(|e| panic!("store failure on {verb} after {tries} retries: {e}"))
    }

    /// Reads `key` synchronously with retries; a page the store no
    /// longer has is counted lost and re-materialized as zeros.
    pub(in crate::monitor) fn fetch_with_retries(
        &mut self,
        key: ExternalKey,
        prior_attempts: u32,
    ) -> PageContents {
        let found = self.with_store_retries(
            |s| &s.read_retries,
            "read",
            prior_attempts,
            |store| match store.get(key) {
                Err(KvError::NotFound(_)) => Ok(None),
                got => got.map(Some),
            },
        );
        found.unwrap_or_else(|| {
            self.stats.lost_pages.inc();
            PageContents::Zero
        })
    }

    /// Writes `key` synchronously with retries (the sync-eviction path).
    pub(in crate::monitor) fn put_with_retries(
        &mut self,
        key: ExternalKey,
        contents: PageContents,
    ) {
        self.with_store_retries(
            |s| &s.write_retries,
            "eviction write",
            0,
            |store| store.put(key, contents.clone()),
        );
    }

    /// Applies the configured LRU policy's per-fault maintenance.
    fn run_lru_policy(&mut self, pt: &mut PageTable) {
        if let LruPolicy::ScanReferenced { scan_batch } = self.config.lru_policy {
            // The scan batch reuses one pooled buffer: this runs on
            // every fault intake, so a fresh Vec per fault is pure churn.
            let mut head = std::mem::take(&mut self.scan_buf);
            self.lru.peek_head_into(scan_batch, &mut head);
            for &vpn in &head {
                // Sample-and-clear the guest referenced bit; hot pages
                // rotate away from the eviction end.
                if pt.has_flags(vpn, PteFlags::REFERENCED) {
                    pt.clear_flags(vpn, PteFlags::REFERENCED);
                    self.lru.rotate_to_tail(vpn);
                }
            }
            self.scan_buf = head;
        }
    }
}
