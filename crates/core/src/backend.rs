//! `FluidMemMemory`: the packaged FluidMem `MemoryBackend` — one VM's
//! userfaultfd-registered guest memory, the monitor that resolves its
//! faults, and the one routine that turns a guest access into a hit, a
//! CoW break, or a monitor-resolved fault.

use std::collections::BTreeMap;

use fluidmem_coord::PartitionId;
use fluidmem_kv::KeyValueStore;
use fluidmem_mem::{
    AccessCounters, AccessOutcome, AccessReport, CapacityError, MemoryBackend, PageClass,
    PageContents, PageTable, PhysicalMemory, PteFlags, Region, VirtAddr, Vpn,
};
use fluidmem_sim::{SimClock, SimDuration, SimRng};
use fluidmem_uffd::{RegionId, Userfaultfd};

use crate::config::MonitorConfig;
use crate::monitor::{CompletedFault, Monitor, SubmitOutcome};

/// The outcome of [`FluidMemMemory::submit_access`].
#[derive(Debug, Clone, Copy)]
pub enum PipelineSubmit {
    /// The access never reached the monitor — a mapped-page hit or a
    /// kernel-side CoW break. The report is final and already counted.
    Ready(AccessReport),
    /// The access faulted: the fault parked (or coalesced) in the
    /// monitor's in-flight table, or its vCPU's handler thread already
    /// resolved it locally. Either way the vCPU is blocked until
    /// [`FluidMemMemory::complete_next_access`] reports the wake.
    Pending(SubmitOutcome),
}

/// The state handed from a migration source to its destination: the
/// guest's region layout and the monitor's seen-page set. The pages
/// themselves never move — they already live in the shared key-value
/// store, which is exactly the §VII observation that "live migration and
/// memory disaggregation are complementary."
#[derive(Debug, Clone)]
pub struct MigrationImage {
    /// The guest's registered regions, preserved at their addresses.
    pub regions: Vec<Region>,
    /// Pages the monitor has seen (present in the store).
    pub seen: Vec<Vpn>,
    /// The VM's store partition.
    pub partition: PartitionId,
    /// The local buffer capacity to restore on the destination.
    pub capacity: u64,
}

/// A VM memory system fully disaggregated through FluidMem.
///
/// This is the right-hand VM of the paper's Figure 1: *all* guest memory
/// is registered with the (simulated) userfaultfd at creation, every
/// access is either a mapped-page hit or a monitor-resolved fault, and
/// extra capacity arrives via [`hotplug_add`](FluidMemMemory::hotplug_add)
/// without guest cooperation.
///
/// # Example
///
/// ```
/// use fluidmem_coord::PartitionId;
/// use fluidmem_core::{FluidMemMemory, MonitorConfig};
/// use fluidmem_kv::DramStore;
/// use fluidmem_mem::{MemoryBackend, PageClass};
/// use fluidmem_sim::{SimClock, SimRng};
///
/// let clock = SimClock::new();
/// let store = DramStore::new(1 << 30, clock.clone(), SimRng::seed_from_u64(1));
/// let mut vm = FluidMemMemory::new(
///     MonitorConfig::new(64),
///     Box::new(store),
///     PartitionId::new(0),
///     clock,
///     SimRng::seed_from_u64(2),
/// );
/// let region = vm.map_region(256, PageClass::Anonymous);
/// for i in 0..256 {
///     vm.access(region.page(i), true);
/// }
/// assert!(vm.resident_pages() <= 64, "the LRU bound holds");
/// ```
pub struct FluidMemMemory {
    uffd: Userfaultfd,
    pt: PageTable,
    pm: PhysicalMemory,
    monitor: Monitor,
    /// Bump allocator for fresh regions.
    next_vpn: u64,
    clock: SimClock,
    regions: BTreeMap<u64, (RegionId, Region)>,
    pid: u64,
    counters: AccessCounters,
    label: String,
}

impl FluidMemMemory {
    /// Creates a FluidMem-backed memory over a key-value store, keyed
    /// under `partition`.
    pub fn new(
        config: MonitorConfig,
        store: Box<dyn KeyValueStore>,
        partition: PartitionId,
        clock: SimClock,
        rng: SimRng,
    ) -> Self {
        let label = format!("FluidMem/{}", store.name());
        let uffd = Userfaultfd::new(clock.clone(), rng.fork("uffd"));
        let monitor = Monitor::new(config, store, partition, clock.clone(), rng.fork("monitor"));
        FluidMemMemory {
            uffd,
            pt: PageTable::new(),
            // Host frames are bounded by the monitor's LRU, not by this
            // allocator; size it generously.
            pm: PhysicalMemory::new(u64::MAX / 2),
            monitor,
            next_vpn: 0x10_000,
            clock,
            regions: BTreeMap::new(),
            pid: 4242,
            counters: AccessCounters::default(),
            label,
        }
    }

    /// The monitor (for stats, profile, and resize access).
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// Attaches a shared telemetry handle (see
    /// `Monitor::attach_telemetry`).
    pub fn attach_telemetry(&mut self, telemetry: &fluidmem_telemetry::Telemetry) {
        self.monitor.attach_telemetry(telemetry);
    }

    /// Attaches a shared telemetry handle with every monitor instrument
    /// keyed by a `vm` label, so N backends can share one registry, and
    /// drops the monitor's Table I profile (see
    /// `Monitor::attach_telemetry_labeled`).
    pub fn attach_telemetry_labeled(
        &mut self,
        telemetry: &fluidmem_telemetry::Telemetry,
        vm: &str,
    ) {
        self.monitor.attach_telemetry_labeled(telemetry, vm);
    }

    /// The arbiter-facing snapshot of this VM's memory behavior: access
    /// and fault counters plus residency/capacity/write-back gauges.
    pub fn signals(&self) -> crate::VmSignals {
        let access = self.counters();
        let stats = self.monitor.stats();
        crate::VmSignals {
            accesses: access.total(),
            hits: access.hits,
            minor_faults: access.minor_faults,
            major_faults: access.major_faults,
            remote_reads: stats.remote_reads,
            resident_pages: self.monitor.resident_pages(),
            capacity_pages: self.monitor.capacity(),
            pending_writes: self.monitor.pending_writes() as u64,
            refaults_measured: stats.refaults_measured,
            thrash_refaults: stats.thrash_refaults,
            wss_estimate_pages: self.monitor.wss_estimate_pages(),
            background_reclaims: stats.background_reclaims,
            direct_reclaims: stats.direct_reclaims,
            tier_hits: stats.tier_hits,
            tier_demotions: stats.tier_demotions,
            tier_pool_bytes: self.monitor.tier_bytes() as u64,
            prefetch_issued: stats.prefetch_issued,
            prefetch_hits: stats.prefetch_hits,
        }
    }

    /// Retargets the compressed tier's byte budget (the host arbiter's
    /// per-VM pool quota); a shrink demotes overflow to the store.
    pub fn set_tier_budget(&mut self, max_bytes: usize) {
        self.monitor.set_tier_budget(max_bytes);
    }

    /// Mutable monitor access (profile clearing, drains).
    pub fn monitor_mut(&mut self) -> &mut Monitor {
        &mut self.monitor
    }

    /// Adds memory to the running VM via hotplug (the left-hand VM of
    /// Figure 1): a new uffd-registered region appears, no guest changes
    /// needed.
    pub fn hotplug_add(&mut self, pages: u64, class: PageClass) -> Region {
        self.map_region(pages, class)
    }

    /// Registers a region at its address and keeps the bump allocator
    /// clear of it.
    fn register(&mut self, region: Region) {
        self.next_vpn = self.next_vpn.max(region.end().raw() + 16);
        let id = self
            .uffd
            .register(region)
            .expect("regions never overlap: bump allocation or a migrated layout");
        self.regions.insert(region.start().raw(), (id, region));
    }

    /// Unregisters a region (hot-unplug, VM shutdown): drops the
    /// monitor's state and the region's pages in the store, and frees
    /// its frames.
    pub fn unregister_region(&mut self, region: &Region) {
        let Some((id, _)) = self.regions.remove(&region.start().raw()) else {
            return;
        };
        self.uffd.unregister(id).expect("region was registered");
        // Consume the unregister event as the monitor would.
        while self.uffd.poll().is_some() {}
        self.monitor.remove_region(region);
        for vpn in region.iter_pages() {
            if let Some(entry) = self.pt.unmap(vpn) {
                if !entry.flags.contains(PteFlags::ZERO_PAGE) {
                    self.pm.free(entry.frame);
                }
            }
        }
    }

    /// Flushes all outstanding writes (shutdown / test hygiene).
    pub fn drain_writes(&mut self) {
        self.monitor.drain_writes();
    }

    /// Migrates the VM out: evicts every page to the (shared) store,
    /// drains the write list, and returns the image the destination
    /// needs. Consumes the source — the VM no longer runs here.
    pub fn migrate_out(mut self) -> MigrationImage {
        let capacity = self.monitor.capacity();
        self.monitor
            .resize(&mut self.uffd, &mut self.pt, &mut self.pm, 0);
        self.monitor.drain_writes();
        MigrationImage {
            regions: self.regions.values().map(|(_, r)| *r).collect(),
            seen: self.monitor.export_seen(),
            partition: self.monitor.partition(),
            capacity,
        }
    }

    /// Builds the destination side of a migration: re-registers the
    /// guest's regions at their original addresses and imports the
    /// seen-page set, over a handle to the *same* store the source used.
    pub fn migrate_in(
        config: MonitorConfig,
        store: Box<dyn KeyValueStore>,
        image: MigrationImage,
        clock: SimClock,
        rng: SimRng,
    ) -> Self {
        let mut config = config;
        config.lru_capacity = image.capacity;
        let mut vm = FluidMemMemory::new(config, store, image.partition, clock, rng);
        for region in &image.regions {
            vm.register(*region);
        }
        vm.monitor.import_seen(image.seen);
        vm
    }

    /// Submits one guest access from `vcpu_pid` to the monitor. Reads
    /// that landed before this instant — other vCPUs' demand faults and
    /// speculative ones alike — are finished first, in landing order
    /// (see [`FluidMemMemory::poll_ready_completions`]), so a page whose
    /// read already arrived is mapped by the time the access looks. Hits
    /// and CoW breaks resolve inline. A fault runs on the monitor's handler
    /// thread for the vCPU `vcpu_pid` names, from the later of the
    /// guest's `now` and where that thread has reached: one it resolves
    /// locally (first touch, write-list steal, compressed-tier hit)
    /// finishes there without moving the guest clock, and one that must
    /// wait on the store parks in the in-flight table until its read
    /// lands. Either way the vCPU stays blocked in the (simulated)
    /// userfaultfd, and [`FluidMemMemory::complete_next_access`] reports
    /// the wake.
    ///
    /// The caller is responsible for keeping the submission depth within
    /// [`MonitorConfig::max_inflight`], which the monitor asserts;
    /// [`FluidMemMemory::inflight_len`] is the depth in use.
    pub fn submit_access(&mut self, vcpu_pid: u64, addr: VirtAddr, write: bool) -> PipelineSubmit {
        self.poll_ready_completions();
        let submit = self.touch(vcpu_pid, addr, write);
        if let PipelineSubmit::Ready(report) = &submit {
            self.counters.record(report.outcome);
        }
        submit
    }

    /// The access itself. A mapped page is a hit (or a kernel-side CoW
    /// break); an unmapped one faults to the monitor, on the faulting
    /// vCPU's handler thread (see [`Monitor::submit_on_vcpu_thread`]).
    fn touch(&mut self, pid: u64, addr: VirtAddr, write: bool) -> PipelineSubmit {
        let vpn = addr.vpn();
        if let Some(entry) = self.pt.get_mut(vpn) {
            if write && entry.flags.contains(PteFlags::ZERO_PAGE) {
                // Kernel-side copy-on-write break (footnote 1 of the
                // paper): a regular minor fault, invisible to the
                // monitor.
                let (uffd, pt, pm) = (&mut self.uffd, &mut self.pt, &mut self.pm);
                return PipelineSubmit::Ready(break_cow(&self.clock, uffd, pt, pm, vpn));
            }
            entry.flags.insert(PteFlags::REFERENCED);
            if write {
                entry.flags.insert(PteFlags::DIRTY);
            }
            // First guest touch of a prefetched page resolves its
            // accuracy-ledger entry to a hit (a no-op branch when nothing
            // is pending).
            self.monitor.note_mapped_touch(vpn);
            return PipelineSubmit::Ready(AccessReport {
                outcome: AccessOutcome::Hit,
                latency: SimDuration::ZERO,
            });
        }

        let (clock, uffd, pt, pm) = (&self.clock, &mut self.uffd, &mut self.pt, &mut self.pm);
        let fault = |monitor: &mut Monitor, thread| {
            uffd.raise_fault(addr, write, pid, monitor.config().from_vm)
                .unwrap_or_else(|e| panic!("access to unregistered address {addr}: {e}"));
            let _event = uffd.poll().expect("fault was queued");
            match monitor.submit_fault(uffd, pt, pm, vpn, write, thread) {
                // A *write* that was resolved with the zero page
                // immediately breaks CoW when the guest retries the
                // instruction; the vCPU runs on once that is done.
                SubmitOutcome::Completed(mut res)
                    if write && pt.has_flags(vpn, PteFlags::ZERO_PAGE) =>
                {
                    res.wake_at += break_cow(clock, uffd, pt, pm, vpn).latency;
                    SubmitOutcome::Completed(res)
                }
                outcome => outcome,
            }
        };
        PipelineSubmit::Pending(self.monitor.submit_on_vcpu_thread(pid, vpn, fault))
    }

    /// The next finished access, in wake order: one the monitor already
    /// finished, or else the earliest one still in flight, waited for.
    /// Records one access outcome per fault sharing the operation (the
    /// submitter plus any coalesced waiters). Returns `None` when
    /// nothing is in flight or waiting to be collected.
    pub fn complete_next_access(&mut self) -> Option<CompletedFault> {
        let done = self
            .monitor
            .complete_next(&mut self.uffd, &mut self.pt, &mut self.pm)?;
        for _ in 0..=done.waiters {
            self.counters.record(done.resolution.outcome());
        }
        Some(done)
    }

    /// Faults currently parked in the monitor's in-flight table: vCPUs
    /// still blocked. A finished access stops counting when its read
    /// lands, not when [`FluidMemMemory::complete_next_access`] collects
    /// it.
    pub fn inflight_len(&self) -> usize {
        self.monitor.inflight_len()
    }

    /// Finishes every read — demand or speculative — and runs any
    /// reclaim work whose instant has already passed, in landing order,
    /// each on the monitor thread that owns it. Every access does this
    /// on entry, so a driver only needs it to let the monitor catch up at
    /// an instant when no vCPU touches memory. Never waits and never
    /// moves the clock: the bottom halves run on the monitor's own
    /// threads.
    pub fn poll_ready_completions(&mut self) {
        self.monitor
            .poll_ready(&mut self.uffd, &mut self.pt, &mut self.pm);
    }
}

/// The kernel's copy-on-write break of a zero-page mapping: a minor
/// fault the monitor never sees.
fn break_cow(
    clock: &SimClock,
    uffd: &mut Userfaultfd,
    pt: &mut PageTable,
    pm: &mut PhysicalMemory,
    vpn: Vpn,
) -> AccessReport {
    let t0 = clock.now();
    uffd.break_cow(pt, pm, vpn)
        .expect("zero-page mapping breaks cleanly");
    AccessReport {
        outcome: AccessOutcome::MinorFault,
        latency: clock.now() - t0,
    }
}

impl MemoryBackend for FluidMemMemory {
    /// Bump-allocates a fresh region (with a guard gap) and registers it.
    fn map_region(&mut self, pages: u64, class: PageClass) -> Region {
        let region = Region::new(Vpn::new(self.next_vpn), pages, class);
        self.register(region);
        region
    }

    /// One blocking access: a vCPU that waits for its own handler
    /// thread. [`FluidMemMemory::submit_access`], then — if the access
    /// faulted — its completion, and the guest clock moves on to where
    /// the thread goes idle, so the post-wake eviction and flush work is
    /// behind the guest before it runs on. The guest-observed latency
    /// starts once the monitor has caught up, at the access itself.
    ///
    /// # Panics
    ///
    /// Panics if demand faults submitted through
    /// [`FluidMemMemory::submit_access`] are still parked, or finished
    /// but not collected: the completion this call waits for must be its
    /// own. Drain them with [`FluidMemMemory::complete_next_access`]
    /// first.
    fn access(&mut self, addr: VirtAddr, write: bool) -> AccessReport {
        self.monitor.assert_no_fault_outstanding("blocking access");
        let t0 = self.clock.now();
        match self.submit_access(self.pid, addr, write) {
            PipelineSubmit::Ready(report) => report,
            PipelineSubmit::Pending(_) => {
                let done = self.complete_next_access().expect("the fault is its own");
                self.clock.advance_to(self.monitor.vcpu_idle_at(self.pid));
                AccessReport {
                    outcome: done.resolution.outcome(),
                    latency: done.wake_at - t0,
                }
            }
        }
    }

    fn write_page(&mut self, addr: VirtAddr, contents: PageContents) -> AccessReport {
        let report = self.access(addr, true);
        let entry = self.pt.get(addr.vpn()).expect("write access maps the page");
        self.pm.store(entry.frame, contents);
        report
    }

    fn read_page(&mut self, addr: VirtAddr) -> (PageContents, AccessReport) {
        let report = self.access(addr, false);
        let entry = self.pt.get(addr.vpn()).expect("read access maps the page");
        (self.pm.load(entry.frame).clone(), report)
    }

    fn resident_pages(&self) -> u64 {
        self.monitor.resident_pages()
    }

    fn local_capacity_pages(&self) -> u64 {
        self.monitor.capacity()
    }

    fn set_local_capacity(&mut self, pages: u64) -> Result<(), CapacityError> {
        // FluidMem's defining capability (§III, §VI-E): the operator
        // resizes the buffer with no guest involvement.
        self.monitor
            .resize(&mut self.uffd, &mut self.pt, &mut self.pm, pages);
        Ok(())
    }

    fn balloon_reclaim(&mut self, target_pages: u64) -> u64 {
        // FluidMem needs no balloon: resizing the LRU does strictly more.
        let _ = self.set_local_capacity(target_pages);
        self.resident_pages()
    }

    fn counters(&self) -> AccessCounters {
        self.counters
    }

    fn clock(&self) -> &SimClock {
        &self.clock
    }

    fn label(&self) -> String {
        self.label.clone()
    }
}

impl std::fmt::Debug for FluidMemMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FluidMemMemory")
            .field("label", &self.label)
            .field("resident", &self.resident_pages())
            .field("capacity", &self.local_capacity_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluidmem_kv::{DramStore, RamCloudStore};
    use fluidmem_mem::AccessOutcome;
    use fluidmem_sim::SimDuration;

    fn backend(capacity: u64) -> FluidMemMemory {
        let clock = SimClock::new();
        let store = DramStore::new(1 << 30, clock.clone(), SimRng::seed_from_u64(1));
        FluidMemMemory::new(
            MonitorConfig::new(capacity),
            Box::new(store),
            PartitionId::new(0),
            clock,
            SimRng::seed_from_u64(2),
        )
    }

    #[test]
    fn first_touch_then_hit() {
        let mut vm = backend(16);
        let r = vm.map_region(8, PageClass::Anonymous);
        assert_eq!(
            vm.access(r.page(0), false).outcome,
            AccessOutcome::MinorFault
        );
        let hit = vm.access(r.page(0), false);
        assert_eq!(hit.outcome, AccessOutcome::Hit);
        assert!(hit.latency.is_zero());
    }

    #[test]
    fn write_after_zero_fill_breaks_cow() {
        let mut vm = backend(16);
        let r = vm.map_region(8, PageClass::Anonymous);
        vm.access(r.page(0), false); // zero-fill
        let rep = vm.access(r.page(0), true); // CoW break
        assert_eq!(rep.outcome, AccessOutcome::MinorFault);
        assert!(!rep.latency.is_zero());
        assert_eq!(vm.monitor().stats().faults, 1, "CoW is not a uffd fault");
    }

    #[test]
    fn footprint_bounded_and_refaults_are_major() {
        let mut vm = backend(32);
        let r = vm.map_region(128, PageClass::Anonymous);
        for i in 0..128 {
            vm.access(r.page(i), true);
        }
        assert!(vm.resident_pages() <= 32);
        vm.drain_writes();
        let rep = vm.access(r.page(0), false);
        assert_eq!(rep.outcome, AccessOutcome::MajorFault);
    }

    #[test]
    fn any_page_class_disaggregates() {
        // Full disaggregation: kernel and mlocked pages evict like any
        // other (unlike the swap baseline).
        let mut vm = backend(16);
        let kernel = vm.map_region(32, PageClass::KernelText);
        let pinned = vm.map_region(32, PageClass::Unevictable);
        for i in 0..32 {
            vm.access(kernel.page(i), false);
            vm.access(pinned.page(i), true);
        }
        assert!(vm.resident_pages() <= 16, "kernel pages evicted too");
        assert!(vm.monitor().stats().evictions >= 48);
    }

    #[test]
    fn data_integrity_through_ramcloud_round_trip() {
        let clock = SimClock::new();
        let store = RamCloudStore::new(1 << 28, clock.clone(), SimRng::seed_from_u64(7));
        let mut vm = FluidMemMemory::new(
            MonitorConfig::new(4),
            Box::new(store),
            PartitionId::new(3),
            clock,
            SimRng::seed_from_u64(8),
        );
        let r = vm.map_region(64, PageClass::Anonymous);
        for i in 0..16 {
            vm.write_page(r.page(i), PageContents::from_byte_fill(i as u8 + 1));
        }
        vm.drain_writes();
        for i in 0..16 {
            let (contents, _) = vm.read_page(r.page(i));
            assert_eq!(
                contents,
                PageContents::from_byte_fill(i as u8 + 1),
                "page {i} corrupted through evict/refault"
            );
        }
    }

    /// A pool quota smaller than one compressed page (the host hands a
    /// small VM such a sub-page share) turns a compressible page away as
    /// oversize, not as incompressible.
    #[test]
    fn page_over_the_tier_budget_bypasses_as_oversize() {
        let clock = SimClock::new();
        let store = DramStore::new(1 << 24, clock.clone(), SimRng::seed_from_u64(1));
        let tier = crate::TierConfig {
            thrash_gate: false,
            ..crate::TierConfig::pool(16)
        };
        let mut vm = FluidMemMemory::new(
            MonitorConfig::new(1).tier(tier),
            Box::new(store),
            PartitionId::new(0),
            clock,
            SimRng::seed_from_u64(2),
        );
        let r = vm.map_region(2, PageClass::Anonymous);
        // The uniform page compresses to 35 bytes; writing the second
        // page evicts it.
        vm.write_page(r.page(0), PageContents::from_byte_fill(7));
        vm.write_page(r.page(1), PageContents::from_byte_fill(8));
        let stats = vm.monitor().stats();
        assert_eq!(stats.tier_bypass_oversize, 1);
        assert_eq!(stats.tier_bypass_incompressible, 0);
        assert_eq!(stats.tier_admits, 0);
        assert_eq!(vm.monitor().tier_bytes(), 0);
        assert_eq!(vm.read_page(r.page(0)).0, PageContents::from_byte_fill(7));
    }

    #[test]
    fn resize_to_near_zero_and_back() {
        let mut vm = backend(4096);
        let r = vm.map_region(4096, PageClass::Anonymous);
        for i in 0..4096 {
            vm.access(r.page(i), false);
        }
        // Shrink to the paper's 180-page SSH-capable footprint.
        vm.set_local_capacity(180).unwrap();
        assert!(vm.resident_pages() <= 180);
        // And instantly back to normal responsiveness.
        vm.set_local_capacity(4096).unwrap();
        vm.drain_writes();
        let rep = vm.access(r.page(0), false);
        assert_eq!(rep.outcome, AccessOutcome::MajorFault);
        assert_eq!(vm.access(r.page(0), false).outcome, AccessOutcome::Hit);
    }

    #[test]
    fn unregister_region_cleans_up() {
        let mut vm = backend(64);
        let r = vm.map_region(32, PageClass::Anonymous);
        for i in 0..32 {
            vm.access(r.page(i), true);
        }
        vm.drain_writes();
        vm.unregister_region(&r);
        assert_eq!(vm.resident_pages(), 0);
        assert_eq!(vm.monitor().seen_pages(), 0);
        assert_eq!(vm.monitor().store().len(), 0);
    }

    #[test]
    fn two_vms_share_a_store_without_collisions() {
        let clock = SimClock::new();
        // One store instance shared by giving each VM its own partition.
        // (In the simulation each backend owns its store handle; sharing
        // is exercised at the key level through partitions.)
        let store_a = DramStore::new(1 << 26, clock.clone(), SimRng::seed_from_u64(1));
        let mut vm_a = FluidMemMemory::new(
            MonitorConfig::new(2),
            Box::new(store_a),
            PartitionId::new(1),
            clock.clone(),
            SimRng::seed_from_u64(2),
        );
        let r = vm_a.map_region(8, PageClass::Anonymous);
        for i in 0..8 {
            vm_a.write_page(r.page(i), PageContents::Token(100 + i));
        }
        vm_a.drain_writes();
        // Identical vpn range, different partition => different keys.
        let key_p1 = fluidmem_kv::ExternalKey::new(r.page(0).vpn(), PartitionId::new(1));
        let key_p2 = fluidmem_kv::ExternalKey::new(r.page(0).vpn(), PartitionId::new(2));
        assert!(vm_a.monitor().store().peek(key_p1).is_some());
        assert!(vm_a.monitor().store().peek(key_p2).is_none());
    }

    #[test]
    #[should_panic(expected = "unregistered address")]
    fn unregistered_access_panics() {
        let mut vm = backend(4);
        vm.access(VirtAddr::new(0x10), false);
    }

    /// A depth-4 VM whose 16 pages all live in the store, with one read
    /// of page 0 submitted and parked.
    fn vm_with_a_parked_read() -> (FluidMemMemory, Region) {
        let clock = SimClock::new();
        let store = RamCloudStore::new(1 << 28, clock.clone(), SimRng::seed_from_u64(1));
        let mut vm = FluidMemMemory::new(
            MonitorConfig::new(4).inflight(4),
            Box::new(store),
            PartitionId::new(0),
            clock,
            SimRng::seed_from_u64(2),
        );
        let r = vm.map_region(16, PageClass::Anonymous);
        for i in 0..16 {
            vm.access(r.page(i), true);
        }
        vm.drain_writes();
        let parked = vm.submit_access(1, r.page(0), false);
        assert!(matches!(parked, PipelineSubmit::Pending(_)));
        (vm, r)
    }

    #[test]
    #[should_panic(expected = "demand faults parked")]
    fn blocking_access_with_a_parked_demand_fault_panics() {
        let (mut vm, r) = vm_with_a_parked_read();
        // The completion a blocking access waits for must be its own.
        vm.access(r.page(1), false);
    }

    #[test]
    #[should_panic(expected = "completions unreported")]
    fn blocking_access_with_an_uncollected_completion_panics() {
        let (mut vm, r) = vm_with_a_parked_read();
        // The read lands and the monitor finishes it; nobody collects it.
        vm.clock().advance(SimDuration::from_micros(100));
        vm.poll_ready_completions();
        assert_eq!(vm.inflight_len(), 0);
        vm.access(r.page(1), false);
    }

    #[test]
    fn submit_access_finishes_what_landed_and_reports_it_once() {
        let (mut vm, r) = vm_with_a_parked_read();
        let before = vm.counters();
        vm.clock().advance(SimDuration::from_micros(100));
        // The next access, on another vCPU, finds page 0's read landed:
        // the monitor finishes it first, without being asked to.
        let other = vm.submit_access(2, r.page(1), false);
        assert!(matches!(other, PipelineSubmit::Pending(_)));
        assert_eq!(vm.inflight_len(), 1, "only page 1's read is parked");
        assert!(
            matches!(
                vm.submit_access(3, r.page(0), false),
                PipelineSubmit::Ready(hit) if hit.outcome == AccessOutcome::Hit
            ),
            "page 0 is mapped before anyone collects its completion"
        );
        // Collecting reports page 0 first, then waits for page 1; each
        // is counted once.
        let first = vm.complete_next_access().expect("page 0 finished");
        let second = vm.complete_next_access().expect("page 1 in flight");
        assert_eq!(first.vpn, r.page(0).vpn());
        assert_eq!(second.vpn, r.page(1).vpn());
        assert!(first.wake_at <= second.wake_at);
        assert!(vm.complete_next_access().is_none());
        assert_eq!(vm.counters().major_faults, before.major_faults + 2);
        assert_eq!(vm.counters().total(), before.total() + 3);
    }

    /// A blocking first touch that evicts after its wake, next to the
    /// same fault submitted and collected: the vCPU's thread runs it the
    /// same way, the latency runs from the trap to the wake, and only
    /// the blocking guest waits for the eviction.
    #[test]
    fn a_blocking_fault_waits_for_its_thread_and_times_trap_to_wake() {
        let (mut blocking, mut pipelined) = (backend(2), backend(2));
        let r = blocking.map_region(8, PageClass::Anonymous);
        assert_eq!(pipelined.map_region(8, PageClass::Anonymous), r);
        for vm in [&mut blocking, &mut pipelined] {
            vm.access(r.page(0), false);
            vm.access(r.page(1), false);
        }
        let trap = blocking.clock().now();
        assert_eq!(pipelined.clock().now(), trap);

        let report = blocking.access(r.page(2), false);
        let pid = blocking.pid;
        let pending = pipelined.submit_access(pid, r.page(2), false);
        assert!(matches!(pending, PipelineSubmit::Pending(_)));
        let done = pipelined.complete_next_access().expect("resolved locally");
        assert_eq!(done.submitted_at, trap);
        assert_eq!(report.outcome, done.resolution.outcome());
        assert_eq!(report.latency, done.wake_at - trap);

        let idle = blocking.monitor().vcpu_idle_at(pid);
        assert!(idle > done.wake_at, "the eviction runs after the wake");
        assert_eq!(pipelined.monitor().vcpu_idle_at(pid), idle);
        assert_eq!(blocking.clock().now(), idle);
        assert_eq!(pipelined.clock().now(), trap);
    }

    #[test]
    fn label_names_mechanism_and_store() {
        let vm = backend(4);
        assert_eq!(vm.label(), "FluidMem/dram");
    }
}
