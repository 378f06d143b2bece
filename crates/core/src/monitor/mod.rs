//! The monitor process: FluidMem's user-space page-fault handler.
//!
//! There is one fault engine and one way in. Every fault runs on the
//! handler thread of the vCPU that raised it
//! ([`Monitor::submit_on_vcpu_thread`]), a timeline of its own beside the
//! response handler's and the evictor's. There [`Monitor::submit_fault`]
//! runs the fault's intake and either resolves it on the spot (first
//! touch, write-list steal, compressed-tier hit, synchronous read) or
//! issues the §V-B asynchronous read's top half and parks the fault on a
//! deterministic [`EventQueue`](fluidmem_sim::EventQueue) until the
//! flight lands. Landed flights retire in event order, on their owner's
//! thread — bottom half, placement, wake and post-wake work — at the next
//! monitor entry ([`Monitor::poll_ready`], which every guest access
//! runs), and [`Monitor::complete_next`] reports the finished faults in
//! wake order, waiting for the earliest flight only when none has
//! landed. Only store admissions and the driver's waits move the guest
//! clock. A blocking access is a vCPU that waits for its own thread, and
//! [`MonitorConfig::max_inflight`] only bounds how many faults may be
//! parked at once — it never selects a different path.
//!
//! * `pipeline` — the entry points and the in-flight table.
//! * `stages` — the steps they are built from: intake, first-touch
//!   resolution, the steal check, the split top/bottom-half read, page
//!   placement + wake, post-wake work, and prefetch.
//! * `evict` / `reclaim` — the evictor: `UFFD_REMAP` eviction inline or
//!   on the background evictor's timeline, write-list flushes, and the
//!   shutdown drain.

mod evict;
mod pipeline;
mod reclaim;
mod stages;
#[cfg(test)]
mod tests;

pub use pipeline::{CompletedFault, SubmitOutcome};

use fluidmem_coord::PartitionId;
use fluidmem_kv::{ExternalKey, KeyValueStore};
use fluidmem_mem::{PageArray, PageTable, PhysicalMemory, Region, Vpn};
use fluidmem_sim::{LatencyModel, SimClock, SimInstant, SimRng};
use fluidmem_uffd::Userfaultfd;

use crate::config::{MonitorConfig, PrefetchPolicy};
use crate::lru_buffer::LruBuffer;
use crate::page_tracker::PageTracker;
use crate::prefetch::StrideDetector;
use crate::profile::ProfileTable;
use crate::stats::{MonitorCounters, MonitorStats};
use crate::tier::{CompressedTier, TierAudit};
use crate::workingset::WorkingSetEstimator;
use crate::write_list::WriteList;
use fluidmem_telemetry::{consts, SpanId, Telemetry};

use pipeline::InflightTable;

/// How a fault was resolved by the monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// First access: `UFFD_ZEROPAGE`, no remote read (Figure 2).
    ZeroFill,
    /// Page read back from the key-value store.
    RemoteRead,
    /// Page stolen from the pending write list (§V-B).
    WriteListSteal,
    /// Page was in an in-flight write; the fault waited for the write to
    /// complete and then used the buffered copy (§V-B).
    InflightWait,
    /// Page promoted from the compressed local tier: resolved for the
    /// cost of a decompress, no network round trip.
    CompressedHit,
}

impl Resolution {
    /// How the guest experiences this resolution: minor when no store
    /// round trip (or write wait) sat on the critical path.
    pub fn outcome(self) -> fluidmem_mem::AccessOutcome {
        use fluidmem_mem::AccessOutcome::{MajorFault, MinorFault};
        match self {
            Resolution::ZeroFill | Resolution::WriteListSteal | Resolution::CompressedHit => {
                MinorFault
            }
            Resolution::RemoteRead | Resolution::InflightWait => MajorFault,
        }
    }
}

/// A fault the monitor resolved: how, and when its vCPU woke.
#[derive(Debug, Clone, Copy)]
pub struct FaultResolution {
    /// How the fault was resolved.
    pub resolution: Resolution,
    /// The instant the guest vCPU was woken. Work the monitor performs
    /// after this (asynchronous eviction, flushes) advances the clock but
    /// does not extend the guest-observed fault latency.
    pub wake_at: SimInstant,
}

/// The result of the fault-intake stage: the admission timestamp, the
/// open fault span, and whether the page has been seen before.
pub(in crate::monitor) struct FaultIntake {
    pub(in crate::monitor) t0: SimInstant,
    pub(in crate::monitor) span: SpanId,
    pub(in crate::monitor) seen: bool,
}

/// CPU cost models for the monitor's own code paths, calibrated to the
/// paper's Table I (units µs, avg / p99):
///
/// | Code path | avg | p99 |
/// |---|---|---|
/// | `UPDATE_PAGE_CACHE` | 2.56 | 3.32 |
/// | `INSERT_PAGE_HASH_NODE` | 2.58 | 8.36 |
/// | `INSERT_LRU_CACHE_NODE` | 2.87 | 3.65 |
pub(in crate::monitor) struct Costs {
    /// Page-tracker hash lookup on every fault.
    pub(in crate::monitor) hash_lookup: LatencyModel,
    /// Updating the monitor's page-cache metadata on the read path
    /// (Table I `UPDATE_PAGE_CACHE`).
    pub(in crate::monitor) update_page_cache: LatencyModel,
    /// Inserting into the page-tracker hash (Table I
    /// `INSERT_PAGE_HASH_NODE`).
    pub(in crate::monitor) insert_page_hash: LatencyModel,
    /// Inserting into the LRU list (Table I `INSERT_LRU_CACHE_NODE`).
    pub(in crate::monitor) insert_lru: LatencyModel,
    /// Checking the write list for a stealable copy.
    pub(in crate::monitor) steal_check: LatencyModel,
    /// Appending an evicted page to the write list.
    pub(in crate::monitor) write_list_push: LatencyModel,
    /// Extra buffer copy on the synchronous write path (the zero-copy
    /// §V-B discussion: sync writes pay an extra staging copy).
    pub(in crate::monitor) sync_write_staging: LatencyModel,
    /// Extra staging/copy cost on the synchronous read path (request
    /// buffer management that the split top/bottom-half path avoids).
    pub(in crate::monitor) sync_read_staging: LatencyModel,
    /// One compression attempt on admission to the compressed tier.
    pub(in crate::monitor) compress: LatencyModel,
    /// Decompressing a compressed-tier hit on the refault path.
    pub(in crate::monitor) decompress: LatencyModel,
}

impl Costs {
    fn calibrated() -> Self {
        Costs {
            hash_lookup: LatencyModel::lognormal_mean_p99_us(1.1, 1.9),
            update_page_cache: LatencyModel::lognormal_mean_p99_us(2.56, 3.32),
            insert_page_hash: LatencyModel::lognormal_mean_p99_us(2.58, 8.36),
            insert_lru: LatencyModel::lognormal_mean_p99_us(2.87, 3.65),
            steal_check: LatencyModel::normal_us(0.4, 0.08),
            write_list_push: LatencyModel::normal_us(0.9, 0.15),
            sync_write_staging: LatencyModel::normal_us(4.5, 0.5),
            sync_read_staging: LatencyModel::normal_us(4.5, 0.5),
            compress: fluidmem_kv::compress_cost(),
            decompress: fluidmem_kv::decompress_cost(),
        }
    }
}

/// FluidMem's monitor process (paper §V).
///
/// "Its primary responsibility is to watch for page faults and resolve
/// them before waking up the faulting process." One monitor serves one
/// VM and keys every page under that VM's store partition. It owns the
/// page tracker, the resizable LRU buffer, the write list, and the
/// key-value store client; the kernel-side objects (userfaultfd, page
/// table, physical memory) are passed in per call because they belong to
/// the VM's backend.
///
/// See [`FluidMemMemory`](crate::FluidMemMemory) for the packaged
/// `MemoryBackend`, which is the usual way to drive a monitor; a host
/// running many of them over one store is `fluidmem_host::HostAgent`.
pub struct Monitor {
    pub(in crate::monitor) config: MonitorConfig,
    pub(in crate::monitor) costs: Costs,
    pub(in crate::monitor) tracker: PageTracker,
    pub(in crate::monitor) lru: LruBuffer,
    pub(in crate::monitor) write_list: WriteList,
    pub(in crate::monitor) store: Box<dyn KeyValueStore>,
    partition: PartitionId,
    /// Parked demand faults, speculative reads in flight, and the
    /// completion queue that orders them.
    pub(in crate::monitor) inflight: InflightTable,
    /// Background-evictor thread state (watermark reclaim).
    pub(in crate::monitor) reclaim: reclaim::ReclaimState,
    pub(in crate::monitor) profile: ProfileTable,
    /// Every counter, gauge and histogram the monitor keeps.
    pub(in crate::monitor) stats: MonitorCounters,
    pub(in crate::monitor) telemetry: Telemetry,
    /// Shadow-entry refault-distance tracking (working-set estimation).
    pub(in crate::monitor) workingset: WorkingSetEstimator,
    /// The compressed local tier between the LRU and the remote store.
    pub(in crate::monitor) tier: CompressedTier,
    /// Pooled buffer for the `ScanReferenced` head scan.
    pub(in crate::monitor) scan_buf: Vec<Vpn>,
    /// Pooled buffer for prefetch candidate pages per fault.
    pub(in crate::monitor) prefetch_candidates: Vec<Vpn>,
    /// Majority-vote stride detector over the fault VPN stream — the
    /// trend source for [`PrefetchPolicy::Stride`]. Only fed while that
    /// policy is configured.
    pub(in crate::monitor) stride: StrideDetector,
    /// Prefetched pages installed but not yet touched by the guest,
    /// mapped to their issue instant: the accuracy panel's ledger. A
    /// first guest touch resolves to a hit (and a timeliness sample); an
    /// eviction or region removal first resolves to a waste.
    pub(in crate::monitor) prefetch_pending_touch: PageArray<Option<SimInstant>>,
    pub(in crate::monitor) clock: SimClock,
    pub(in crate::monitor) rng: SimRng,
}

impl Monitor {
    /// Creates a monitor over a key-value store, using `partition` for
    /// this VM's keys.
    pub(crate) fn new(
        config: MonitorConfig,
        store: Box<dyn KeyValueStore>,
        partition: PartitionId,
        clock: SimClock,
        rng: SimRng,
    ) -> Self {
        let lru = LruBuffer::new(config.lru_capacity);
        let telemetry = Telemetry::new(clock.clone());
        let workingset = WorkingSetEstimator::new(config.workingset);
        let stride = match config.prefetch {
            PrefetchPolicy::Stride { window, .. } => StrideDetector::new(window),
            _ => StrideDetector::new(16),
        };
        let inflight = InflightTable::new(config.max_inflight);
        let monitor = Monitor {
            config,
            costs: Costs::calibrated(),
            tracker: PageTracker::new(),
            lru,
            write_list: WriteList::new(),
            store,
            partition,
            inflight,
            reclaim: reclaim::ReclaimState::new(),
            profile: ProfileTable::new(),
            stats: MonitorCounters::default(),
            telemetry,
            workingset,
            tier: CompressedTier::new(),
            scan_buf: Vec::new(),
            prefetch_candidates: Vec::new(),
            stride,
            prefetch_pending_touch: PageArray::default(),
            clock,
            rng,
        };
        monitor.update_gauges();
        monitor
    }

    /// Swaps in a shared telemetry handle and registers every live
    /// instrument in its registry: the monitor's own set, the Table I
    /// code-path profile, and the store's counters. Accumulated values
    /// carry over.
    pub(crate) fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.attach(telemetry, &[]);
    }

    /// Like `Monitor::attach_telemetry`, but every monitor-owned
    /// instrument is additionally keyed by a `vm` label so a host's N
    /// monitors can share one registry without clobbering each
    /// other — adoption replaces identically-keyed entries, so unlabeled
    /// registration from several monitors would leave only the last one
    /// visible.
    ///
    /// The Table I code-path profile is dropped here, not registered:
    /// its rows are monitor-global by construction and only meaningful
    /// when a single monitor owns the registry. From then on
    /// [`profile`](Monitor::profile) has no rows and records nothing.
    pub(crate) fn attach_telemetry_labeled(&mut self, telemetry: &Telemetry, vm: &str) {
        self.profile = ProfileTable::off();
        self.attach(telemetry, &[(consts::LABEL_VM, vm)]);
    }

    fn attach(&mut self, telemetry: &Telemetry, labels: &[(&str, &str)]) {
        self.stats.register(telemetry.registry(), labels);
        if labels.is_empty() {
            self.profile.register(telemetry.registry());
        }
        self.store.instrument(telemetry.registry());
        self.telemetry = telemetry.clone();
        self.update_gauges();
    }

    pub(in crate::monitor) fn update_gauges(&self) {
        let g = &self.stats;
        g.lru_resident.set(self.lru.len() as i64);
        g.lru_capacity.set(self.lru.capacity() as i64);
        g.lru_headroom.set(self.headroom() as i64);
        g.tier_pool_bytes.set(self.tier.bytes() as i64);
        g.tier_pool_pages.set(self.tier.len() as i64);
        g.write_list_pending
            .set(self.write_list.pending_len() as i64);
        g.lru_array_slots.set(self.lru.array_slots() as i64);
        g.tracker_bitmap_words
            .set(self.tracker.bitmap_words() as i64);
        g.inflight_parked_ops.set(self.inflight.len() as i64);
    }

    /// The monitor's configuration.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// A snapshot of the monitor's counters.
    pub fn stats(&self) -> MonitorStats {
        self.stats.snapshot()
    }

    /// Per-code-path profile (Table I).
    pub fn profile(&self) -> &ProfileTable {
        &self.profile
    }

    /// Clears the profile (e.g. after warm-up).
    pub fn clear_profile(&mut self) {
        self.profile.clear();
    }

    /// The working-set estimator (shadow entries, refault distances).
    pub fn workingset(&self) -> &WorkingSetEstimator {
        &self.workingset
    }

    /// The current working-set-size estimate, in pages.
    pub(crate) fn wss_estimate_pages(&self) -> u64 {
        self.workingset.wss_estimate()
    }

    /// Whether `vpn` is currently resident in the LRU buffer.
    pub fn is_resident(&self, vpn: Vpn) -> bool {
        self.lru.contains(vpn)
    }

    /// Shadow-entry bookkeeping on the refault path. Pure bookkeeping —
    /// no clock advance, no RNG draw — so the default passive mode
    /// leaves the monitor's observable behavior bit-for-bit unchanged.
    pub(in crate::monitor) fn note_refault(&mut self, vpn: Vpn) {
        let resident = self.lru.len();
        if let Some(r) = self.workingset.note_refault(vpn, resident) {
            self.stats.refaults_measured.inc();
            if r.thrash {
                self.stats.thrash_refaults.inc();
            }
            self.stats.refault_distance.observe_value(r.distance);
            self.stats
                .wss_estimate
                .set(self.workingset.wss_estimate() as i64);
        }
    }

    /// Notes a mapped (non-faulting) guest access: the first touch of a
    /// prefetched page resolves its accuracy-ledger entry to a hit and
    /// records the issue→touch timeliness. Pure bookkeeping on an array
    /// that spans nothing unless prefetch has installed pages, so the hot
    /// hit path pays one bounds check.
    pub(crate) fn note_mapped_touch(&mut self, vpn: Vpn) {
        let pending = self.prefetch_pending_touch.get_mut(vpn);
        if let Some(issued_at) = pending.and_then(Option::take) {
            self.stats.prefetch_hits.inc();
            self.stats
                .prefetch_timeliness
                .observe(self.clock.now().saturating_since(issued_at));
        }
    }

    /// Applies a pending adaptive-capacity decision; a no-op in passive
    /// mode. The caller's following `make_room` performs any
    /// shrink this sets up.
    pub(in crate::monitor) fn maybe_adapt(&mut self) {
        let Some(target) = self
            .workingset
            .take_adaptive_target(self.lru.len(), self.lru.capacity())
        else {
            return;
        };
        if target > self.lru.capacity() {
            self.stats.adaptive_grows.inc();
        } else {
            self.stats.adaptive_shrinks.inc();
        }
        self.lru.set_capacity(target);
    }

    /// Pages currently resident (the VM's footprint).
    pub fn resident_pages(&self) -> u64 {
        self.lru.len()
    }

    /// The LRU capacity.
    pub fn capacity(&self) -> u64 {
        self.lru.capacity()
    }

    /// Pages the monitor has ever seen.
    pub fn seen_pages(&self) -> usize {
        self.tracker.len()
    }

    /// Pages awaiting writeback.
    pub fn pending_writes(&self) -> usize {
        self.write_list.pending_len()
    }

    /// The store (for inspection in tests and benches).
    pub fn store(&self) -> &dyn KeyValueStore {
        self.store.as_ref()
    }

    /// This VM's partition.
    pub(crate) fn partition(&self) -> PartitionId {
        self.partition
    }

    pub(in crate::monitor) fn key(&self, vpn: Vpn) -> ExternalKey {
        ExternalKey::new(vpn, self.partition)
    }

    /// Advances the clock by one draw from the cost model `pick` selects
    /// (sampled in place: `costs` and `rng` are disjoint fields).
    pub(in crate::monitor) fn charge(&mut self, pick: impl FnOnce(&Costs) -> &LatencyModel) {
        let d = pick(&self.costs).sample(&mut self.rng);
        self.clock.advance(d);
    }

    // --- the compressed local tier ------------------------------------

    /// Whether the compressed tier participates in eviction/refault. Like
    /// background reclaim, it requires `async_write`: demotions stage
    /// onto the write list. With this false the monitor is byte-identical
    /// to one without the feature — no RNG draw, clock charge, counter,
    /// or span differs.
    pub(in crate::monitor) fn tier_active(&self) -> bool {
        self.config.tier.enabled && self.config.optimizations.async_write
    }

    /// Compressed bytes currently charged to the tier pool.
    pub fn tier_bytes(&self) -> usize {
        self.tier.bytes()
    }

    /// Offers an evicted page to the compressed tier.
    ///
    /// Returns `None` if the tier absorbed it (the caller is done — no
    /// write-list push) or `Some(contents)` if the page must take the
    /// ordinary writeback path: tier inactive, the thrash gate tripped,
    /// the page is incompressible (the zswap `reject_compress_poor`
    /// bypass — a full page of pool for zero win is worse than going
    /// remote), or its compressed size exceeds the whole pool budget.
    pub(in crate::monitor) fn tier_try_admit(
        &mut self,
        key: ExternalKey,
        contents: fluidmem_mem::PageContents,
    ) -> Option<fluidmem_mem::PageContents> {
        if !self.tier_active() {
            return Some(contents);
        }
        // Refault-distance thrash gate: when the working-set estimate
        // says DRAM plus the whole pool still cannot hold this VM's hot
        // set, admitted pages would only churn (admit, demote, refault
        // from remote anyway) — skip straight to the remote path. Pure
        // bookkeeping, no RNG or clock.
        if self.config.tier.thrash_gate
            && self.workingset.wss_estimate()
                > self.lru.capacity() + self.config.tier.pool_pages_estimate()
        {
            self.stats.tier_bypass_thrash.inc();
            return Some(contents);
        }
        // The compression attempt is how incompressibility is
        // discovered: its CPU cost is charged whether or not the page
        // admits (zram's reject path, satellite fix #2).
        self.charge(|c| &c.compress);
        let Some(bytes) = fluidmem_kv::stored_page_size(&contents) else {
            self.stats.tier_bypass_incompressible.inc();
            return Some(contents);
        };
        if bytes > self.config.tier.max_bytes {
            self.stats.tier_bypass_oversize.inc();
            return Some(contents);
        }
        self.tier.admit(key, contents, bytes);
        self.stats.tier_admits.inc();
        // Watermark hysteresis: crossing the high mark demotes a batch
        // down to the low mark, not one page per admission.
        if self.tier.bytes() > self.config.tier.high_bytes() {
            let target = self.config.tier.low_bytes();
            self.tier_demote_excess(target);
        }
        None
    }

    /// Demotes oldest-first until the pool holds at most `target_bytes`,
    /// staging each demoted page onto the write list (it flows to the
    /// remote store through the ordinary batched flush path).
    pub(in crate::monitor) fn tier_demote_excess(&mut self, target_bytes: usize) {
        while self.tier.bytes() > target_bytes {
            let Some((key, contents)) = self.tier.pop_oldest() else {
                break;
            };
            let span = self
                .telemetry
                .begin(consts::TRACK_MONITOR, "write_list.push");
            self.charge(|c| &c.write_list_push);
            self.write_list.push(key, contents, self.clock.now());
            self.telemetry.end(span);
            self.stats.tier_demotions.inc();
        }
    }

    /// Attempts to resolve a refault from the compressed tier. A hit
    /// removes the entry, charges the decompress cost, and returns the
    /// contents; a miss (or an inactive tier) returns `None`.
    pub(in crate::monitor) fn tier_try_promote(
        &mut self,
        key: ExternalKey,
    ) -> Option<fluidmem_mem::PageContents> {
        if !self.tier_active() {
            return None;
        }
        match self.tier.promote(key) {
            Some(contents) => {
                self.charge(|c| &c.decompress);
                self.stats.tier_hits.inc();
                Some(contents)
            }
            None => {
                self.stats.tier_misses.inc();
                None
            }
        }
    }

    /// Retargets the tier's compressed-byte budget (the host arbiter's
    /// per-VM pool quota). Shrinking below current occupancy demotes
    /// oldest-first down to the new budget's low watermark and flushes.
    pub(crate) fn set_tier_budget(&mut self, max_bytes: usize) {
        if self.config.tier.max_bytes == max_bytes {
            return;
        }
        self.config.tier.max_bytes = max_bytes.max(1);
        if !self.tier_active() {
            return;
        }
        if self.tier.bytes() > self.config.tier.max_bytes {
            self.tier_demote_excess(self.config.tier.low_bytes());
            self.maybe_flush();
        }
        self.update_gauges();
    }

    /// Cross-checks every tracked page against the LRU, the tier pool,
    /// the write list, and the store: nothing may be lost (in no tier at
    /// all) or duplicated (pooled *and* resident / pending writeback),
    /// and the pool's internal accounting must balance. Read-only and
    /// deterministic (the tracker export is sorted).
    pub fn tier_audit(&self) -> TierAudit {
        let mut lost_pages = 0u64;
        let mut duplicated_pages = 0u64;
        for vpn in self.tracker.export() {
            let key = self.key(vpn);
            let resident = self.lru.contains(vpn);
            let pooled = self.tier.contains(key);
            let pending = self.write_list.is_tracked(key);
            if !resident && !pooled && !pending && self.store.peek(key).is_none() {
                lost_pages += 1;
            }
            if pooled && (resident || pending) {
                duplicated_pages += 1;
            }
        }
        TierAudit {
            lost_pages,
            duplicated_pages,
            balanced: self.tier.accounting_balances(),
        }
    }

    /// Resizes the local buffer (the §VI-E capability swap lacks),
    /// evicting down to the new capacity on the spot.
    ///
    /// With background reclaim active, the shrink work is routed through
    /// the background evictor: capacity retargets (e.g. from the host
    /// arbiter) wake it and it evicts batch-wise on its own timeline
    /// instead of inline on the caller's.
    pub(crate) fn resize(
        &mut self,
        uffd: &mut Userfaultfd,
        pt: &mut PageTable,
        pm: &mut PhysicalMemory,
        capacity: u64,
    ) {
        self.lru.set_capacity(capacity);
        self.stats.resizes.inc();
        // A shrink below residency leaves headroom at 0 (below any low
        // watermark), so an active evictor runs until the buffer is back
        // under capacity or nothing is evictable, leaving the inline loop
        // nothing to do. A resize that leaves the buffer within capacity
        // wakes nobody.
        if self.lru.over_capacity() {
            self.make_room(uffd, pt, pm, 0);
        }
        self.maybe_flush();
        self.update_gauges();
    }

    /// Forgets all monitor state for a region (hot-unplug, VM shutdown)
    /// and drops its pages from the store. Returns how many pages were
    /// forgotten.
    ///
    /// The store cleanup is scoped to *this region's* keys, deleted one
    /// by one: the VM's other regions share its partition, so a bulk
    /// `drop_partition` would wipe their pages too.
    pub(crate) fn remove_region(&mut self, region: &Region) -> usize {
        // Regions are contiguous, so the tracker masks only this
        // region's bitmap words: the cost depends on this region's span,
        // not on how many pages the other regions track.
        let removed = self.tracker.remove_range(region.start(), region.end());
        for vpn in region.iter_pages() {
            self.lru.remove(vpn);
        }
        // Their refaults can never happen; drop the shadow entries so
        // the nonresident accounting stays balanced.
        self.workingset.forget_region(region);
        // Prefetched pages the guest never got to touch die with the
        // region: resolve their ledger entries to wasted.
        let pending = self
            .prefetch_pending_touch
            .range_mut(region.start(), region.end());
        let dropped = pending.filter_map(|(_, issued)| issued.take()).count();
        self.stats.prefetch_wasted.add(dropped as u64);
        // So do speculative reads still in flight for it: landing later
        // they would find an unregistered range and a deleted key.
        let cancelled = self.inflight.cancel_prefetches(|vpn| region.contains(vpn));
        self.stats.prefetch_wasted.add(cancelled);
        // Pooled pages die with the region too.
        self.tier.remove_matching(|key| region.contains(key.vpn()));
        for vpn in region.iter_pages() {
            self.store.delete(self.key(vpn));
        }
        removed
    }

    /// Exports the page-tracker state for live migration: the set of
    /// pages the monitor has seen (everything else is first-touch on the
    /// destination). Call after evicting to zero and draining, so every
    /// page is in the shared store.
    pub(crate) fn export_seen(&self) -> Vec<Vpn> {
        self.tracker.export()
    }

    /// Imports a migrated page-tracker state on the destination monitor.
    pub(crate) fn import_seen(&mut self, pages: impl IntoIterator<Item = Vpn>) {
        for vpn in pages {
            self.tracker.insert(vpn);
        }
    }
}

impl std::fmt::Debug for Monitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Monitor")
            .field("store", &self.store.name())
            .field("resident", &self.lru.len())
            .field("capacity", &self.lru.capacity())
            .field("seen", &self.tracker.len())
            .field("pending_writes", &self.write_list.pending_len())
            .field("inflight", &self.inflight.len())
            .finish()
    }
}
