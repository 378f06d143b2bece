//! `SwapBackedMemory`: the swap-based `MemoryBackend`.

use std::collections::{BTreeMap, VecDeque};

use fluidmem_block::BlockDevice;
use fluidmem_mem::{
    AccessCounters, AccessOutcome, AccessReport, CapacityError, FrameId, MemoryBackend, PageClass,
    PageContents, PageTable, PhysicalMemory, PteFlags, Region, VirtAddr, Vpn,
};
use fluidmem_sim::{LatencyModel, SimClock, SimDuration, SimRng};

use crate::config::SwapConfig;
use crate::lru::TwoListLru;
use crate::pages::{Location, Pages};
use crate::slots::SlotAllocator;
use crate::stats::{SwapCounters, SwapStats};

/// The balloon driver's maximum inflation leaves this much resident
/// (64 MB, per the paper's Table III "Max VM balloon size" row).
const BALLOON_FLOOR_PAGES: u64 = 20_480;

/// Pages reclaimed per kswapd batch.
const KSWAPD_BATCH: usize = 32;

/// The first region's first page.
const FIRST_VPN: Vpn = Vpn::new(0x10_000);

/// Kernel-path cost models for the swap fault paths.
///
/// These cover the guest kernel's CPU work; device time comes from the
/// [`BlockDevice`] models. Calibrated so the end-to-end in-VM fault
/// latencies land on the paper's Figure 3 averages: 26.34 µs (DRAM),
/// 41.73 µs (NVMeoF), 106.56 µs (SSD).
#[derive(Debug)]
struct Costs {
    /// Guest fault entry: exception, `handle_mm_fault` down to the swap
    /// path.
    fault_entry: LatencyModel,
    /// Swap-cache radix-tree lookup.
    cache_lookup: LatencyModel,
    /// Frame allocation + cgroup charge + rmap + PTE install + LRU insert
    /// on the swap-in path.
    swapin_setup: LatencyModel,
    /// Remaining swap-in bookkeeping (swapcount, memcg, workingset
    /// accounting) — the "kernel tax" of the paper's more complex swap
    /// path.
    swapin_overhead: LatencyModel,
    /// A minor fault that hits the swap cache (map + promote only).
    minor_fault: LatencyModel,
    /// A first-touch anonymous fault (allocate + zero a frame).
    first_touch: LatencyModel,
    /// Per-page cost of a direct-reclaim scan iteration.
    reclaim_scan: LatencyModel,
    /// Extra cost per fault inside a KVM guest (VM exit/entry, nested
    /// page walk).
    vm_exit: LatencyModel,
}

impl Costs {
    fn calibrated() -> Self {
        Costs {
            fault_entry: LatencyModel::normal_us(1.8, 0.3),
            cache_lookup: LatencyModel::normal_us(0.8, 0.15),
            swapin_setup: LatencyModel::normal_us(3.6, 0.5),
            swapin_overhead: LatencyModel::lognormal_mean_p99_us(24.0, 44.0),
            minor_fault: LatencyModel::lognormal_mean_p99_us(4.5, 8.0),
            first_touch: LatencyModel::lognormal_mean_p99_us(2.4, 4.5),
            reclaim_scan: LatencyModel::normal_us(0.35, 0.08),
            vm_exit: LatencyModel::normal_us(4.0, 0.5),
        }
    }
}

/// A VM memory system using the guest kernel's swap subsystem over a
/// block device — the partial-disaggregation baseline (Infiniswap /
/// NVMeoF remote paging, paper §II and §VI-A).
///
/// Two devices are involved: the **swap device** (DRAM, NVMeoF, or SSD)
/// receives anonymous pages, and the **filesystem device** (always the
/// local SSD) receives reclaimed file-backed pages — because swap simply
/// cannot hold them, the §II limitation at the heart of the paper.
///
/// # Example
///
/// ```
/// use fluidmem_block::PmemDevice;
/// use fluidmem_mem::{MemoryBackend, PageClass};
/// use fluidmem_sim::{SimClock, SimRng};
/// use fluidmem_swap::{SwapBackedMemory, SwapConfig};
///
/// let clock = SimClock::new();
/// let swap_dev = PmemDevice::new(4096, clock.clone(), SimRng::seed_from_u64(1));
/// let fs_dev = PmemDevice::new(4096, clock.clone(), SimRng::seed_from_u64(2));
/// let mut vm = SwapBackedMemory::new(
///     SwapConfig::paper_default(256), // 1 MB of "DRAM"
///     Box::new(swap_dev),
///     Box::new(fs_dev),
///     clock,
///     SimRng::seed_from_u64(3),
/// );
/// let region = vm.map_region(512, PageClass::Anonymous); // 2x overcommit
/// for i in 0..512 {
///     vm.access(region.page(i), true); // forces swapping
/// }
/// assert!(vm.resident_pages() <= 256);
/// ```
pub struct SwapBackedMemory {
    config: SwapConfig,
    costs: Costs,
    clock: SimClock,
    rng: SimRng,
    swap_dev: Box<dyn BlockDevice>,
    fs_dev: Box<dyn BlockDevice>,
    pt: PageTable,
    frames: PhysicalMemory,
    /// start-vpn → region, for page-class lookup on faults.
    regions: BTreeMap<u64, Region>,
    next_vpn: u64,
    /// Every mapped page's swap slot, location, LRU list and
    /// filesystem block.
    pages: Pages,
    lru: TwoListLru,
    slots: SlotAllocator,
    /// Swap-cache pages in readahead order, oldest first; an entry whose
    /// page has since left the swap cache is skipped. It stays a deque
    /// (DESIGN.md "Per-page state").
    swap_cache_order: VecDeque<Vpn>,
    next_fs_block: u64,
    label: String,
    counters: AccessCounters,
    stats: SwapCounters,
}

impl SwapBackedMemory {
    /// Creates a swap-backed memory over the given devices.
    pub fn new(
        config: SwapConfig,
        swap_dev: Box<dyn BlockDevice>,
        fs_dev: Box<dyn BlockDevice>,
        clock: SimClock,
        rng: SimRng,
    ) -> Self {
        config.validate();
        let label = format!("Swap/{}", swap_dev.name());
        let dram = config.dram_pages;
        SwapBackedMemory {
            slots: SlotAllocator::new(swap_dev.capacity_blocks()),
            config,
            costs: Costs::calibrated(),
            clock,
            rng,
            swap_dev,
            fs_dev,
            pt: PageTable::new(),
            frames: PhysicalMemory::new(dram),
            regions: BTreeMap::new(),
            next_vpn: FIRST_VPN.raw(),
            pages: Pages::default(),
            lru: TwoListLru::default(),
            swap_cache_order: VecDeque::new(),
            next_fs_block: 0,
            label,
            counters: AccessCounters::default(),
            stats: SwapCounters::default(),
        }
    }

    /// Swap-subsystem counters.
    pub fn swap_stats(&self) -> SwapStats {
        self.stats.snapshot()
    }

    /// Registers the swap counters and both block devices' counters in
    /// a shared telemetry registry.
    pub fn attach_telemetry(&mut self, telemetry: &fluidmem_telemetry::Telemetry) {
        self.stats.register(telemetry.registry(), &[]);
        self.swap_dev.instrument(telemetry.registry());
        self.fs_dev.instrument(telemetry.registry());
    }

    fn class_of(&self, vpn: Vpn) -> PageClass {
        let (_, region) = self
            .regions
            .range(..=vpn.raw())
            .next_back()
            .unwrap_or_else(|| panic!("access to unmapped address {vpn}"));
        assert!(region.contains(vpn), "access to unmapped address {vpn}");
        region.class()
    }

    fn charge(&mut self, pick: impl FnOnce(&Costs) -> &LatencyModel) {
        let d = pick(&self.costs).sample(&mut self.rng);
        self.clock.advance(d);
    }

    fn charge_fault_entry(&mut self) {
        // Every fault is a guest fault: the trap plus the KVM vCPU exit.
        let d =
            self.costs.fault_entry.sample(&mut self.rng) + self.costs.vm_exit.sample(&mut self.rng);
        self.clock.advance(d);
    }

    fn fs_block_of(&mut self, vpn: Vpn) -> u64 {
        let (next, capacity) = (&mut self.next_fs_block, self.fs_dev.capacity_blocks());
        self.pages[vpn].value.fs_block_or(|| {
            let block = *next % capacity;
            *next += 1;
            block
        })
    }

    /// Drops one clean swap-cache page (free reclaim). Returns `true` if
    /// one was dropped.
    fn shrink_swap_cache(&mut self) -> bool {
        while let Some(vpn) = self.swap_cache_order.pop_front() {
            let location = &mut self.pages[vpn].value.location;
            if let Location::SwapCache { frame } = *location {
                // Its clean device copy (and slot) remains; it is simply
                // swapped out again.
                *location = Location::SwappedOut {
                    write_completes: None,
                };
                self.frames.free(frame);
                return true;
            }
        }
        false
    }

    /// Reclaims one resident page. `direct` means the faulting thread
    /// pays for scans and dirty writeback synchronously.
    fn reclaim_one(&mut self, direct: bool) -> bool {
        // Swap-cache pages are the cheapest victims.
        if self.shrink_swap_cache() {
            return true;
        }
        let pt = &mut self.pt;
        let mut scanned = 0u32;
        let victim = self.lru.pick_victim(&mut self.pages, |vpn| {
            scanned += 1;
            let referenced = pt.has_flags(vpn, PteFlags::REFERENCED);
            pt.clear_flags(vpn, PteFlags::REFERENCED);
            referenced
        });
        if direct {
            for _ in 0..scanned {
                let d = self.costs.reclaim_scan.sample(&mut self.rng);
                self.clock.advance(d);
            }
        }
        let Some(vpn) = victim else {
            return false;
        };
        let entry = self.pt.unmap(vpn).expect("LRU tracks only mapped pages");
        let dirty = entry.flags.contains(PteFlags::DIRTY);
        let contents = self.frames.free(entry.frame);
        match self.class_of(vpn) {
            PageClass::Anonymous => {
                let write_completes = if self.pages[vpn].value.slot().is_some() {
                    // Device copy still valid: no write needed.
                    self.stats.clean_evictions.inc();
                    None
                } else {
                    let slot = self
                        .slots
                        .allocate(vpn)
                        .expect("swap device full: undersized experiment configuration");
                    self.pages[vpn].value.set_slot(slot);
                    self.stats.swap_outs.inc();
                    if direct {
                        let c = self
                            .swap_dev
                            .submit_write(slot, contents)
                            .expect("slot within device");
                        self.clock.advance_to(c.at);
                        None
                    } else {
                        let c = self
                            .swap_dev
                            .submit_write_background(slot, contents)
                            .expect("slot within device");
                        Some(c.at)
                    }
                };
                self.pages[vpn].value.location = Location::SwappedOut { write_completes };
            }
            PageClass::FileBacked => {
                if dirty {
                    let block = self.fs_block_of(vpn);
                    self.stats.fs_writes.inc();
                    if direct {
                        let c = self
                            .fs_dev
                            .submit_write(block, contents)
                            .expect("fs block in range");
                        self.clock.advance_to(c.at);
                    } else {
                        let _ = self
                            .fs_dev
                            .submit_write_background(block, contents)
                            .expect("fs block in range");
                    }
                }
                // Clean file pages are simply dropped; the filesystem
                // already has them.
            }
            other => unreachable!("{other} pages are never on the reclaim LRU"),
        }
        true
    }

    /// Guarantees `n` free frames, reclaiming on the critical path if
    /// kswapd has fallen behind.
    fn ensure_frames(&mut self, n: u64) {
        while self.frames.free_frames() < n {
            self.stats.direct_reclaims.inc();
            if !self.reclaim_one(true) {
                panic!(
                    "guest OOM: {} frames, nothing reclaimable",
                    self.frames.capacity()
                );
            }
        }
    }

    /// Background reclaim toward the high watermark.
    fn kswapd(&mut self) {
        let low = self.config.low_watermark_pages();
        if self.frames.free_frames() >= low {
            return;
        }
        self.stats.kswapd_runs.inc();
        let high = self.config.high_watermark_pages();
        let mut batch = KSWAPD_BATCH;
        while self.frames.free_frames() < high && batch > 0 {
            if !self.reclaim_one(false) {
                break;
            }
            batch -= 1;
        }
    }

    fn map_new_frame(&mut self, vpn: Vpn, contents: PageContents, write: bool) -> FrameId {
        let frame = self.frames.alloc().expect("ensure_frames ran");
        if !matches!(contents, PageContents::Zero) {
            self.frames.store(frame, contents);
        }
        let mut flags = PteFlags::PRESENT | PteFlags::WRITABLE | PteFlags::REFERENCED;
        if write {
            flags.insert(PteFlags::DIRTY);
        }
        self.pt.map(vpn, frame, flags);
        frame
    }

    /// Issues readahead for the slot neighbors of `slot`.
    fn readahead(&mut self, slot: u64) {
        let window = self.config.readahead_pages();
        if window <= 1 {
            return;
        }
        let base = slot - (slot % window);
        for s in base..base + window {
            if s == slot {
                continue;
            }
            let Some(vpn) = self.slots.owner_of(s) else {
                continue;
            };
            let Location::SwappedOut { write_completes } = self.pages[vpn].value.location else {
                continue;
            };
            let now = self.clock.now();
            if write_completes.is_some_and(|t| t > now) {
                continue; // still being written; skip
            }
            // Readahead never triggers reclaim (GFP_NORETRY-ish) and must
            // leave the frame reserved for the faulting page untouched.
            if self.frames.free_frames() <= 1 {
                break;
            }
            let completion = self.swap_dev.submit_read(s).expect("slot within device");
            let frame = self.frames.alloc().expect("checked free_frames");
            self.frames.store(frame, completion.data);
            self.pages[vpn].value.location = Location::SwapCache { frame };
            self.swap_cache_order.push_back(vpn);
            self.stats.readahead_pages.inc();
        }
    }

    /// The fault paths. Returns the outcome; latency is whatever the
    /// clock advanced.
    fn fault(&mut self, vpn: Vpn, write: bool) -> AccessOutcome {
        self.charge_fault_entry();
        let class = self.class_of(vpn);
        match class {
            PageClass::Anonymous => match self.pages[vpn].value.location {
                // Swap-cache hit (readahead already brought it in).
                Location::SwapCache { frame } => {
                    self.charge(|c| &c.minor_fault);
                    let mut flags = PteFlags::PRESENT | PteFlags::WRITABLE | PteFlags::REFERENCED;
                    self.pages[vpn].value.location = Location::Resident;
                    if write {
                        flags.insert(PteFlags::DIRTY);
                        self.free_slot(vpn);
                    }
                    self.pt.map(vpn, frame, flags);
                    self.lru.insert(&mut self.pages, vpn);
                    self.stats.swap_cache_hits.inc();
                    self.kswapd();
                    AccessOutcome::MinorFault
                }
                Location::SwappedOut { write_completes } => {
                    let slot = self.pages[vpn]
                        .value
                        .slot()
                        .expect("a swapped-out page owns a slot");
                    self.charge(|c| &c.cache_lookup);
                    if let Some(t) = write_completes {
                        // Writeback still in flight: wait for it before
                        // reading the slot back.
                        if self.clock.advance_to(t) > SimDuration::ZERO {
                            self.stats.writeback_collisions.inc();
                        }
                    }
                    self.ensure_frames(1);
                    let completion = self.swap_dev.submit_read(slot).expect("slot within device");
                    self.readahead(slot);
                    self.clock.advance_to(completion.at);
                    self.charge(|c| &c.swapin_setup);
                    self.charge(|c| &c.swapin_overhead);
                    self.pages[vpn].value.location = Location::Resident;
                    self.map_new_frame(vpn, completion.data, write);
                    if write {
                        self.free_slot(vpn);
                    }
                    self.lru.insert(&mut self.pages, vpn);
                    self.stats.major_faults.inc();
                    self.kswapd();
                    AccessOutcome::MajorFault
                }
                // First touch: zero-fill.
                Location::Resident => {
                    self.ensure_frames(1);
                    self.charge(|c| &c.first_touch);
                    self.map_new_frame(vpn, PageContents::Zero, write);
                    self.lru.insert(&mut self.pages, vpn);
                    self.stats.first_touch_faults.inc();
                    self.kswapd();
                    AccessOutcome::MinorFault
                }
            },
            PageClass::FileBacked => {
                // File pages always refault from the filesystem — swap
                // cannot hold them (paper §II).
                self.ensure_frames(1);
                let block = self.fs_block_of(vpn);
                let completion = self.fs_dev.submit_read(block).expect("fs block in range");
                self.clock.advance_to(completion.at);
                self.charge(|c| &c.swapin_setup);
                self.map_new_frame(vpn, completion.data, write);
                self.lru.insert(&mut self.pages, vpn);
                self.stats.fs_reads.inc();
                self.kswapd();
                AccessOutcome::MajorFault
            }
            PageClass::KernelText | PageClass::KernelData | PageClass::Unevictable => {
                // Populated once at first touch; pinned forever after.
                self.ensure_frames(1);
                self.charge(|c| &c.first_touch);
                self.map_new_frame(vpn, PageContents::Zero, write);
                // Deliberately NOT on the LRU: the kernel cannot reclaim
                // these (the paper's partial-disaggregation limitation).
                self.kswapd();
                AccessOutcome::MinorFault
            }
        }
    }

    /// Frees the page's swap slot, if it owns one: its copy is stale.
    fn free_slot(&mut self, vpn: Vpn) {
        if let Some(slot) = self.pages[vpn].value.take_slot() {
            self.slots.free(slot);
        }
    }

    fn do_access(&mut self, addr: VirtAddr, write: bool) -> AccessReport {
        let vpn = addr.vpn();
        let start = self.clock.now();
        if let Some(entry) = self.pt.get_mut(vpn) {
            entry.flags.insert(PteFlags::REFERENCED);
            if write {
                entry.flags.insert(PteFlags::DIRTY);
                // A write invalidates any clean swap copy.
                self.free_slot(vpn);
            }
            self.counters.record(AccessOutcome::Hit);
            return AccessReport {
                outcome: AccessOutcome::Hit,
                latency: SimDuration::ZERO,
            };
        }
        let outcome = self.fault(vpn, write);
        self.counters.record(outcome);
        AccessReport {
            outcome,
            latency: self.clock.now() - start,
        }
    }
}

impl MemoryBackend for SwapBackedMemory {
    fn map_region(&mut self, pages: u64, class: PageClass) -> Region {
        let region = Region::new(Vpn::new(self.next_vpn), pages, class);
        // Leave a guard gap between regions.
        self.next_vpn += pages + 16;
        self.pages.slot_mut(region.start());
        self.pages.slot_mut(Vpn::new(self.next_vpn - 1));
        self.regions.insert(region.start().raw(), region);
        region
    }

    fn access(&mut self, addr: VirtAddr, write: bool) -> AccessReport {
        self.do_access(addr, write)
    }

    fn write_page(&mut self, addr: VirtAddr, contents: PageContents) -> AccessReport {
        let report = self.do_access(addr, true);
        let entry = self.pt.get(addr.vpn()).expect("write access maps the page");
        self.frames.store(entry.frame, contents);
        report
    }

    fn read_page(&mut self, addr: VirtAddr) -> (PageContents, AccessReport) {
        let report = self.do_access(addr, false);
        let entry = self.pt.get(addr.vpn()).expect("read access maps the page");
        (self.frames.load(entry.frame).clone(), report)
    }

    fn resident_pages(&self) -> u64 {
        self.frames.allocated_frames()
    }

    fn local_capacity_pages(&self) -> u64 {
        self.config.dram_pages
    }

    fn set_local_capacity(&mut self, _pages: u64) -> Result<(), CapacityError> {
        // The crux of paper §II: without guest cooperation, swap-based
        // disaggregation cannot shrink (or grow) a VM's local footprint.
        Err(CapacityError::new("swap-based disaggregation"))
    }

    fn balloon_reclaim(&mut self, target_pages: u64) -> u64 {
        // Guest-cooperative ballooning: inflating the balloon forces the
        // guest to reclaim, but the driver bottoms out at 64 MB
        // (Table III row 2).
        let target = target_pages.max(BALLOON_FLOOR_PAGES);
        while self.resident_pages() > target {
            if !self.reclaim_one(true) {
                break;
            }
        }
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

impl std::fmt::Debug for SwapBackedMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwapBackedMemory")
            .field("label", &self.label)
            .field("dram_pages", &self.config.dram_pages)
            .field("resident", &self.resident_pages())
            .field("swap_slots", &self.slots.allocated())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluidmem_block::{NvmeofDevice, PmemDevice, SsdDevice};

    fn backend(dram_pages: u64) -> SwapBackedMemory {
        let clock = SimClock::new();
        let swap_dev = PmemDevice::new(1 << 16, clock.clone(), SimRng::seed_from_u64(1));
        let fs_dev = SsdDevice::new(1 << 16, clock.clone(), SimRng::seed_from_u64(2));
        SwapBackedMemory::new(
            SwapConfig::paper_default(dram_pages),
            Box::new(swap_dev),
            Box::new(fs_dev),
            clock,
            SimRng::seed_from_u64(3),
        )
    }

    #[test]
    fn kswapd_wakes_even_at_tiny_dram_sizes() {
        // Regression: at 16 DRAM pages the paper-default watermarks
        // truncated to low = 0, so kswapd never woke and every eviction
        // was a direct reclaim on the fault path.
        let mut vm = backend(16);
        let r = vm.map_region(64, PageClass::Anonymous);
        for i in 0..64 {
            vm.access(r.page(i), true);
        }
        let stats = vm.swap_stats();
        assert!(
            stats.kswapd_runs > 0,
            "kswapd must wake under memory pressure at tiny DRAM sizes"
        );
    }

    #[test]
    fn first_touch_is_minor_fault_then_hit() {
        let mut vm = backend(64);
        let r = vm.map_region(8, PageClass::Anonymous);
        let rep = vm.access(r.page(0), false);
        assert_eq!(rep.outcome, AccessOutcome::MinorFault);
        let rep = vm.access(r.page(0), false);
        assert_eq!(rep.outcome, AccessOutcome::Hit);
        assert!(rep.latency.is_zero());
    }

    #[test]
    fn overcommit_triggers_swapping_and_refault() {
        let mut vm = backend(32);
        let r = vm.map_region(128, PageClass::Anonymous);
        // Dirty every page so eviction must write.
        for i in 0..128 {
            vm.access(r.page(i), true);
        }
        assert!(vm.resident_pages() <= 32);
        assert!(vm.swap_stats().swap_outs > 0, "pages must have swapped");
        // Touch the first page again: a major fault.
        let rep = vm.access(r.page(0), false);
        assert_eq!(rep.outcome, AccessOutcome::MajorFault);
        assert!(rep.latency > SimDuration::from_micros(5));
    }

    #[test]
    fn data_survives_swap_round_trip() {
        let mut vm = backend(32);
        let r = vm.map_region(128, PageClass::Anonymous);
        vm.write_page(r.page(0), PageContents::from_byte_fill(0xEE));
        // Force page 0 out.
        for i in 1..128 {
            vm.access(r.page(i), true);
        }
        assert!(vm.pt.get(r.page(0).vpn()).is_none(), "page 0 evicted");
        let (contents, rep) = vm.read_page(r.page(0));
        assert_eq!(rep.outcome, AccessOutcome::MajorFault);
        assert_eq!(contents, PageContents::from_byte_fill(0xEE));
    }

    #[test]
    fn kernel_pages_are_never_reclaimed() {
        let mut vm = backend(32);
        let kernel = vm.map_region(16, PageClass::KernelData);
        for i in 0..16 {
            vm.access(kernel.page(i), true);
        }
        let anon = vm.map_region(256, PageClass::Anonymous);
        for i in 0..256 {
            vm.access(anon.page(i), true);
        }
        // Every kernel page must still be resident.
        for i in 0..16 {
            let rep = vm.access(kernel.page(i), false);
            assert_eq!(
                rep.outcome,
                AccessOutcome::Hit,
                "kernel page {i} was reclaimed"
            );
        }
    }

    #[test]
    fn file_backed_pages_never_touch_swap_device() {
        let mut vm = backend(32);
        let file = vm.map_region(128, PageClass::FileBacked);
        for i in 0..128 {
            vm.access(file.page(i), false);
        }
        // Thrash through all of them again (reclaim happened).
        for i in 0..128 {
            vm.access(file.page(i), false);
        }
        assert_eq!(
            vm.swap_stats().swap_outs,
            0,
            "file pages must go to the filesystem, not swap"
        );
        assert!(vm.swap_stats().fs_reads > 0);
    }

    #[test]
    fn clean_refaulted_pages_skip_second_write() {
        let mut vm = backend(32);
        let r = vm.map_region(96, PageClass::Anonymous);
        for i in 0..96 {
            vm.access(r.page(i), true);
        }
        // Read pages back in (clean) and thrash again: clean evictions
        // should appear because the slot copy is still valid.
        for round in 0..3 {
            for i in 0..96 {
                vm.access(r.page(i), false);
            }
            let _ = round;
        }
        assert!(
            vm.swap_stats().clean_evictions > 0,
            "clean slot optimization never used"
        );
    }

    #[test]
    fn readahead_populates_swap_cache() {
        let mut vm = backend(64);
        let r = vm.map_region(256, PageClass::Anonymous);
        for i in 0..256 {
            vm.access(r.page(i), true);
        }
        // Sequential re-walk: neighbors should be pulled in by readahead
        // and produce swap-cache minor faults.
        for i in 0..256 {
            vm.access(r.page(i), false);
        }
        assert!(vm.swap_stats().readahead_pages > 0);
        assert!(
            vm.swap_stats().swap_cache_hits > 0,
            "sequential access should hit readahead"
        );
    }

    #[test]
    fn readahead_disabled_with_page_cluster_zero() {
        let clock = SimClock::new();
        let swap_dev = PmemDevice::new(1 << 16, clock.clone(), SimRng::seed_from_u64(1));
        let fs_dev = SsdDevice::new(1 << 16, clock.clone(), SimRng::seed_from_u64(2));
        let mut cfg = SwapConfig::paper_default(64);
        cfg.page_cluster = 0;
        let mut vm = SwapBackedMemory::new(
            cfg,
            Box::new(swap_dev),
            Box::new(fs_dev),
            clock,
            SimRng::seed_from_u64(3),
        );
        let r = vm.map_region(256, PageClass::Anonymous);
        for _ in 0..2 {
            for i in 0..256 {
                vm.access(r.page(i), true);
            }
        }
        assert_eq!(vm.swap_stats().readahead_pages, 0);
    }

    #[test]
    fn cannot_resize_without_guest_cooperation() {
        let mut vm = backend(64);
        assert!(vm.set_local_capacity(16).is_err());
    }

    #[test]
    fn balloon_shrinks_but_respects_floor() {
        let mut vm = backend(40_000);
        let r = vm.map_region(30_000, PageClass::Anonymous);
        for i in 0..30_000 {
            vm.access(r.page(i), false);
        }
        assert_eq!(vm.resident_pages(), 30_000);
        let after = vm.balloon_reclaim(0);
        assert_eq!(
            after, BALLOON_FLOOR_PAGES,
            "balloon bottoms out at 64 MB (paper Table III)"
        );
    }

    #[test]
    fn nvmeof_faults_slower_than_dram_faults() {
        let run = |mk: &dyn Fn(SimClock) -> Box<dyn BlockDevice>| {
            let clock = SimClock::new();
            let fs = SsdDevice::new(1 << 16, clock.clone(), SimRng::seed_from_u64(2));
            let mut vm = SwapBackedMemory::new(
                SwapConfig::paper_default(64),
                mk(clock.clone()),
                Box::new(fs),
                clock,
                SimRng::seed_from_u64(3),
            );
            let r = vm.map_region(256, PageClass::Anonymous);
            for i in 0..256 {
                vm.access(r.page(i), true);
            }
            let mut total = SimDuration::ZERO;
            let mut majors = 0;
            for i in 0..256 {
                let rep = vm.access(r.page(i), false);
                if rep.outcome == AccessOutcome::MajorFault {
                    total += rep.latency;
                    majors += 1;
                }
            }
            total.as_micros_f64() / majors.max(1) as f64
        };
        let dram = run(&|c| {
            Box::new(PmemDevice::new(
                1 << 16,
                c.clone(),
                SimRng::seed_from_u64(1),
            ))
        });
        let nvme = run(&|c| {
            Box::new(NvmeofDevice::new(
                1 << 16,
                c.clone(),
                SimRng::seed_from_u64(1),
            ))
        });
        assert!(
            nvme > dram + 8.0,
            "NVMeoF major faults ({nvme:.1}µs) must cost more than DRAM ({dram:.1}µs)"
        );
    }

    #[test]
    #[should_panic(expected = "unmapped address")]
    fn access_outside_regions_panics() {
        let mut vm = backend(8);
        vm.access(VirtAddr::new(0x1), false);
    }

    /// A page's swap state in the reference model.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Model {
        Untouched,
        /// Mapped, and its only copy is in its frame.
        ResidentDirty,
        /// Mapped, with a still-valid copy in the slot.
        ResidentClean(u64),
        SwapCache(u64),
        SwappedOut(u64),
    }

    impl Model {
        fn slot(self) -> Option<u64> {
            match self {
                Model::ResidentClean(s) | Model::SwapCache(s) | Model::SwappedOut(s) => Some(s),
                Model::Untouched | Model::ResidentDirty => None,
            }
        }

        /// The outcome of an access, and the state after it.
        fn access(self, write: bool) -> (AccessOutcome, Model) {
            let outcome = match self {
                Model::Untouched | Model::SwapCache(_) => AccessOutcome::MinorFault,
                Model::ResidentDirty | Model::ResidentClean(_) => AccessOutcome::Hit,
                Model::SwappedOut(_) => AccessOutcome::MajorFault,
            };
            let after = match (self.slot(), write) {
                (Some(s), false) => Model::ResidentClean(s),
                _ => Model::ResidentDirty,
            };
            (outcome, after)
        }

        /// Whether reclaim and readahead, which only ever move a page
        /// toward the device, can take it from `self` to `to`: a page
        /// keeps its slot, and a dirty page gains one.
        fn reclaims_to(self, to: Model) -> bool {
            let down = matches!(to, Model::SwapCache(_) | Model::SwappedOut(_));
            to == self
                || (down
                    && self != Model::Untouched
                    && self.slot().is_none_or(|s| to.slot() == Some(s)))
        }
    }

    /// The backend's state of `vpn`, from its descriptor and page table.
    fn observe(vm: &SwapBackedMemory, vpn: Vpn) -> Result<Model, String> {
        let desc = vm.pages[vpn].value;
        let mapped = vm.pt.get(vpn).is_some();
        let model = match (mapped, desc.location, desc.slot()) {
            (false, Location::Resident, None) => Model::Untouched,
            (true, Location::Resident, None) => Model::ResidentDirty,
            (true, Location::Resident, Some(s)) => Model::ResidentClean(s),
            (false, Location::SwapCache { .. }, Some(s)) => Model::SwapCache(s),
            (false, Location::SwappedOut { .. }, Some(s)) => Model::SwappedOut(s),
            state => return Err(format!("{vpn}: impossible state {state:?}")),
        };
        let linked = vm.pages[vpn].is_linked();
        if linked != mapped {
            return Err(format!("{vpn}: on the LRU {linked}, mapped {mapped}"));
        }
        match model.slot() {
            Some(s) if vm.slots.owner_of(s) != Some(vpn) => {
                Err(format!("{vpn}: slot {s} not its own"))
            }
            _ => Ok(model),
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Read(u64),
        Write(u64, u64),
        Balloon(u64),
    }

    /// Replays `ops` on a backend of `dram` frames over `pages` anonymous
    /// pages, checking every page's state against the model after each
    /// operation and every read against the last write.
    fn replay(dram: u64, pages: u64, ops: &[Op]) -> Result<(), String> {
        let mut vm = backend(dram);
        let region = vm.map_region(pages, PageClass::Anonymous);
        let mut states = vec![Model::Untouched; pages as usize];
        let mut written = vec![PageContents::Zero; pages as usize];
        for (i, &op) in ops.iter().enumerate() {
            let mut expected = states.clone();
            match op {
                Op::Read(p) | Op::Write(p, _) => {
                    let write = matches!(op, Op::Write(..));
                    let (outcome, after) = states[p as usize].access(write);
                    expected[p as usize] = after;
                    let (got, report) = match op {
                        Op::Write(_, v) => {
                            written[p as usize] = PageContents::Token(v);
                            (None, vm.write_page(region.page(p), PageContents::Token(v)))
                        }
                        _ => {
                            let (contents, report) = vm.read_page(region.page(p));
                            (Some(contents), report)
                        }
                    };
                    if report.outcome != outcome {
                        return Err(format!(
                            "op {i} {op:?}: {:?}, want {outcome:?}",
                            report.outcome
                        ));
                    }
                    if got.as_ref().is_some_and(|c| *c != written[p as usize]) {
                        return Err(format!("op {i} {op:?}: read {got:?}"));
                    }
                }
                Op::Balloon(target) => {
                    let left = vm.balloon_reclaim(target);
                    if left != vm.resident_pages() || left > target.max(BALLOON_FLOOR_PAGES) {
                        return Err(format!("op {i} {op:?}: {left} left"));
                    }
                }
            }
            let mut slots = std::collections::BTreeSet::new();
            for p in 0..pages {
                let got = observe(&vm, region.page(p).vpn())?;
                if !expected[p as usize].reclaims_to(got) {
                    return Err(format!(
                        "op {i} {op:?}: page {p} {:?} -> {got:?}",
                        expected[p as usize]
                    ));
                }
                if got.slot().is_some_and(|s| !slots.insert(s)) {
                    return Err(format!("op {i}: slot {got:?} shared"));
                }
                states[p as usize] = got;
            }
            if vm.slots.allocated() != slots.len() as u64 || vm.resident_pages() > dram {
                return Err(format!("op {i}: slots or frames leaked"));
            }
        }
        Ok(())
    }

    /// Every access at small scope — 16 to 64 frames, 2-4x overcommit,
    /// readahead on — against the reference model of page states.
    #[test]
    fn page_states_follow_the_reference_model() {
        for (dram, overcommit) in [(16, 4), (32, 3), (64, 2)] {
            let pages = dram * overcommit;
            fluidmem_sim::prop::forall_sequences(
                &format!("swap-page-states-{dram}x{overcommit}"),
                24,
                |rng| {
                    // Runs of neighbors make readahead and swap-cache hits.
                    let mut page = 0;
                    fluidmem_sim::prop::vec_of(rng, 1, 400, |r| {
                        page = match r.gen_bool(0.9) {
                            true => (page + 1) % pages,
                            false => r.gen_index(pages),
                        };
                        match r.gen_index(20) {
                            0 => Op::Balloon(r.gen_index(dram)),
                            1..=11 => Op::Read(page),
                            _ => Op::Write(page, r.gen_index(1 << 20)),
                        }
                    })
                },
                |ops| replay(dram, pages, ops),
            );
        }
    }

    #[test]
    fn counters_track_outcomes() {
        let mut vm = backend(64);
        let r = vm.map_region(4, PageClass::Anonymous);
        vm.access(r.page(0), false);
        vm.access(r.page(0), false);
        let c = vm.counters();
        assert_eq!(c.minor_faults, 1);
        assert_eq!(c.hits, 1);
    }
}
