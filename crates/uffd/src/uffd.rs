//! The userfaultfd object: registration, fault delivery, and ioctls.

use std::collections::{BTreeMap, VecDeque};

use fluidmem_mem::{
    FrameId, PageContents, PageTable, PhysicalMemory, PteFlags, Region, TlbModel, VirtAddr, Vpn,
};
use fluidmem_sim::{FastMap, LatencyModel, SimClock, SimDuration, SimInstant, SimRng};

use crate::costs::UffdCosts;
use crate::{RegionId, UffdError, UffdEvent};

/// An in-flight `UFFD_REMAP` TLB shootdown.
///
/// The page-table rewrite happens synchronously (its CPU cost is charged
/// when [`Userfaultfd::remap`] returns), but the interprocessor interrupts
/// that flush stale TLB entries complete asynchronously. The monitor must
/// [`wait`](Userfaultfd::wait_remap) on the handle before the evicted
/// page's buffer may be handed to the key-value store — and the paper's
/// asynchronous-read optimization (§V-B) hides exactly this wait under the
/// network round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "the TLB shootdown must be waited on before the evicted page is reused"]
pub struct RemapHandle {
    completes_at: SimInstant,
}

impl RemapHandle {
    /// When the shootdown finishes.
    pub fn completes_at(&self) -> SimInstant {
        self.completes_at
    }
}

/// The simulated userfaultfd file descriptor plus its kernel-side state.
///
/// One `Userfaultfd` serves a whole hypervisor: the monitor watches it for
/// events from every registered VM region, exactly as FluidMem's monitor
/// process waits on its list of descriptors (paper §V-A).
///
/// # Example
///
/// ```
/// use fluidmem_mem::{PageClass, PageTable, PhysicalMemory, Region, Vpn};
/// use fluidmem_sim::{SimClock, SimRng};
/// use fluidmem_uffd::{Userfaultfd, UffdEvent};
///
/// let clock = SimClock::new();
/// let mut uffd = Userfaultfd::new(clock.clone(), SimRng::seed_from_u64(1));
/// let mut pt = PageTable::new();
/// let mut pm = PhysicalMemory::new(64);
///
/// let region = Region::new(Vpn::new(0x100), 16, PageClass::Anonymous);
/// let id = uffd.register(region)?;
///
/// // Guest touches an unmapped page: the kernel queues an event.
/// uffd.raise_fault(region.page(0), false, 1234, true)?;
/// let event = uffd.poll().unwrap();
/// assert!(matches!(event, UffdEvent::PageFault { .. }));
///
/// // Monitor resolves it with UFFD_ZEROPAGE and wakes the guest.
/// uffd.zeropage(&mut pt, region.page(0).vpn())?;
/// uffd.wake_page(region.page(0).vpn());
/// assert!(pt.get(region.page(0).vpn()).unwrap().is_present());
/// # uffd.unregister(id)?;
/// # Ok::<(), fluidmem_uffd::UffdError>(())
/// ```
#[derive(Debug)]
pub struct Userfaultfd {
    /// start-vpn → region, for containment queries.
    by_start: BTreeMap<u64, (RegionId, Region)>,
    by_id: FastMap<RegionId, Region>,
    next_region: u64,
    events: VecDeque<UffdEvent>,
    /// vCPU threads currently parked on an unresolved fault, in fault
    /// order: `(faulting page, pid)`. The pipelined monitor resolves
    /// faults out of order, so waking is by page, not by position.
    blocked: VecDeque<(Vpn, u64)>,
    costs: UffdCosts,
    tlb: TlbModel,
    clock: SimClock,
    rng: SimRng,
}

impl Userfaultfd {
    /// Creates a userfaultfd with the Table I cost calibration and the
    /// default TLB model.
    pub fn new(clock: SimClock, rng: SimRng) -> Self {
        Userfaultfd {
            by_start: BTreeMap::new(),
            by_id: FastMap::default(),
            next_region: 0,
            events: VecDeque::new(),
            blocked: VecDeque::new(),
            costs: UffdCosts::default(),
            tlb: TlbModel::default(),
            clock,
            rng,
        }
    }

    /// The cost model of one `UFFD_COPY` (allocate a frame, copy 4 KB
    /// in).
    pub fn copy_cost(&self) -> &LatencyModel {
        &self.costs.copy
    }

    /// Registers a memory region for userfault handling.
    ///
    /// # Errors
    ///
    /// Returns [`UffdError::OverlappingRegion`] if the range intersects an
    /// existing registration.
    pub fn register(&mut self, region: Region) -> Result<RegionId, UffdError> {
        let start = region.start().raw();
        let end = region.end().raw();
        // Check the nearest region at or before `start`, and any region
        // starting inside [start, end).
        if let Some((_, (_, prev))) = self.by_start.range(..=start).next_back() {
            if prev.end().raw() > start {
                return Err(UffdError::OverlappingRegion);
            }
        }
        if self.by_start.range(start..end).next().is_some() {
            return Err(UffdError::OverlappingRegion);
        }
        let id = RegionId(self.next_region);
        self.next_region += 1;
        self.by_start.insert(start, (id, region));
        self.by_id.insert(id, region);
        Ok(id)
    }

    /// Unregisters a region (VM shutdown) and queues an
    /// [`UffdEvent::Unregister`] so the monitor can drop its state.
    ///
    /// # Errors
    ///
    /// Returns [`UffdError::NotRegistered`] if the id is unknown.
    pub fn unregister(&mut self, id: RegionId) -> Result<(), UffdError> {
        let region = self
            .by_id
            .remove(&id)
            .ok_or(UffdError::NotRegistered(Vpn::new(0)))?;
        self.by_start.remove(&region.start().raw());
        // Drop queued faults for the dead region, as the kernel does.
        self.events.retain(|e| e.region() != id);
        self.blocked.retain(|(vpn, _)| !region.contains(*vpn));
        self.events.push_back(UffdEvent::Unregister { region: id });
        Ok(())
    }

    /// The region containing `vpn`, if any.
    pub fn region_containing(&self, vpn: Vpn) -> Option<RegionId> {
        let (_, (id, region)) = self.by_start.range(..=vpn.raw()).next_back()?;
        region.contains(vpn).then_some(*id)
    }

    /// Kernel side of a missing-page fault: charges the trap cost (plus a
    /// VM-exit cost when the faulting context is a KVM vCPU) and queues an
    /// event for the monitor.
    ///
    /// # Errors
    ///
    /// Returns [`UffdError::NotRegistered`] if the address is outside
    /// every registered region (the real kernel would deliver `SIGBUS`).
    pub fn raise_fault(
        &mut self,
        addr: VirtAddr,
        write: bool,
        pid: u64,
        from_vm: bool,
    ) -> Result<(), UffdError> {
        let region = self
            .region_containing(addr.vpn())
            .ok_or(UffdError::NotRegistered(addr.vpn()))?;
        let mut cost = self.costs.fault_trap.sample(&mut self.rng);
        if from_vm {
            cost += self.costs.vm_exit.sample(&mut self.rng);
        }
        self.clock.advance(cost);
        self.blocked.push_back((addr.vpn(), pid));
        self.events.push_back(UffdEvent::PageFault {
            region,
            addr,
            write,
            pid,
        });
        Ok(())
    }

    /// Monitor side: reads the next event, charging delivery cost when one
    /// is present.
    pub fn poll(&mut self) -> Option<UffdEvent> {
        let event = self.events.pop_front()?;
        self.clock
            .advance(self.costs.event_delivery.sample(&mut self.rng));
        Some(event)
    }

    /// `UFFD_ZEROPAGE`: maps the shared copy-on-write zero page at `vpn`.
    ///
    /// # Errors
    ///
    /// Fails if `vpn` is unregistered or already mapped.
    pub fn zeropage(&mut self, pt: &mut PageTable, vpn: Vpn) -> Result<(), UffdError> {
        self.check_registered(vpn)?;
        if pt.get(vpn).is_some() {
            return Err(UffdError::AlreadyMapped(vpn));
        }
        self.clock
            .advance(self.costs.zeropage.sample(&mut self.rng));
        pt.map(
            vpn,
            FrameId::ZERO_PAGE,
            PteFlags::PRESENT | PteFlags::ZERO_PAGE | PteFlags::UFFD_REGISTERED,
        );
        Ok(())
    }

    /// `UFFD_COPY`: allocates a frame, fills it with `contents`, and maps
    /// it writable at `vpn`. Returns the frame.
    ///
    /// # Errors
    ///
    /// Fails if `vpn` is unregistered, already mapped, or the host is out
    /// of frames.
    pub fn copy(
        &mut self,
        pt: &mut PageTable,
        pm: &mut PhysicalMemory,
        vpn: Vpn,
        contents: PageContents,
    ) -> Result<FrameId, UffdError> {
        self.check_registered(vpn)?;
        if pt.get(vpn).is_some() {
            return Err(UffdError::AlreadyMapped(vpn));
        }
        let frame = pm.alloc().ok_or(UffdError::OutOfFrames)?;
        pm.store(frame, contents);
        self.clock.advance(self.costs.copy.sample(&mut self.rng));
        pt.map(
            vpn,
            frame,
            PteFlags::PRESENT | PteFlags::WRITABLE | PteFlags::UFFD_REGISTERED,
        );
        Ok(frame)
    }

    /// The proposed `UFFD_REMAP`: moves the page at `vpn` out of the VM by
    /// rewriting page-table entries (no copy), returning its contents and
    /// a [`RemapHandle`] for the TLB shootdown that completes
    /// asynchronously. The frame is returned to the host allocator.
    ///
    /// Zero-page mappings are "moved" as [`PageContents::Zero`] without
    /// freeing anything (the zero page is shared).
    ///
    /// The remap's CPU is charged to the clock, and the shootdown
    /// completes that long after the CPU work ends.
    ///
    /// # Errors
    ///
    /// Fails if `vpn` is unregistered or has no mapping.
    pub fn remap(
        &mut self,
        pt: &mut PageTable,
        pm: &mut PhysicalMemory,
        vpn: Vpn,
    ) -> Result<(PageContents, RemapHandle), UffdError> {
        self.check_registered(vpn)?;
        let entry = pt.unmap(vpn).ok_or(UffdError::NotMapped(vpn))?;
        let cpu = self.costs.remap_cpu.sample(&mut self.rng);
        let contents = if entry.flags.contains(PteFlags::ZERO_PAGE) {
            PageContents::Zero
        } else {
            pm.free(entry.frame)
        };
        let shootdown = self.tlb.shootdown(&mut self.rng);
        let handle = RemapHandle {
            completes_at: self.clock.advance(cpu) + shootdown,
        };
        Ok((contents, handle))
    }

    /// Blocks (in virtual time) until a remap's TLB shootdown finishes;
    /// returns how long was actually waited, which is zero when the wait
    /// was hidden under other work.
    pub fn wait_remap(&mut self, handle: RemapHandle) -> SimDuration {
        self.clock.advance_to(handle.completes_at)
    }

    /// Wakes the vCPU thread parked on `vpn` (the real `UFFDIO_WAKE`
    /// takes a range). The monitor resolves faults out of arrival order,
    /// so the wake is addressed to the page, not to queue position.
    /// Charges the wake cost either way; returns whether a parked thread
    /// was found.
    pub fn wake_page(&mut self, vpn: Vpn) -> bool {
        self.clock.advance(self.costs.wake.sample(&mut self.rng));
        if let Some(i) = self.blocked.iter().position(|(v, _)| *v == vpn) {
            self.blocked.remove(i);
            true
        } else {
            false
        }
    }

    /// The kernel's ordinary copy-on-write break: the guest wrote to a
    /// zero-page mapping, so a private frame is allocated and mapped
    /// writable. This is a regular minor fault — userfaultfd is *not*
    /// notified because the PTE was present.
    ///
    /// # Errors
    ///
    /// Fails if `vpn` is not a zero-page mapping or the host is out of
    /// frames.
    pub fn break_cow(
        &mut self,
        pt: &mut PageTable,
        pm: &mut PhysicalMemory,
        vpn: Vpn,
    ) -> Result<FrameId, UffdError> {
        let entry = pt.get(vpn).ok_or(UffdError::NotMapped(vpn))?;
        if !entry.flags.contains(PteFlags::ZERO_PAGE) {
            return Err(UffdError::NotMapped(vpn));
        }
        let frame = pm.alloc().ok_or(UffdError::OutOfFrames)?;
        self.clock
            .advance(self.costs.cow_break.sample(&mut self.rng));
        pt.map(
            vpn,
            frame,
            PteFlags::PRESENT | PteFlags::WRITABLE | PteFlags::DIRTY | PteFlags::UFFD_REGISTERED,
        );
        Ok(frame)
    }

    fn check_registered(&self, vpn: Vpn) -> Result<(), UffdError> {
        self.region_containing(vpn)
            .map(|_| ())
            .ok_or(UffdError::NotRegistered(vpn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluidmem_mem::PageClass;

    fn setup() -> (Userfaultfd, PageTable, PhysicalMemory, Region) {
        let clock = SimClock::new();
        let mut uffd = Userfaultfd::new(clock, SimRng::seed_from_u64(7));
        let region = Region::new(Vpn::new(0x1000), 32, PageClass::Anonymous);
        uffd.register(region).unwrap();
        (uffd, PageTable::new(), PhysicalMemory::new(128), region)
    }

    #[test]
    fn fault_event_round_trip() {
        let (mut uffd, _pt, _pm, region) = setup();
        uffd.raise_fault(region.page(3), true, 99, true).unwrap();
        assert!(!uffd.events.is_empty());
        match uffd.poll().unwrap() {
            UffdEvent::PageFault {
                addr, write, pid, ..
            } => {
                assert_eq!(addr, region.page(3));
                assert!(write);
                assert_eq!(pid, 99);
            }
            other => panic!("unexpected event {other:?}"),
        }
        assert!(uffd.poll().is_none());
    }

    #[test]
    fn fault_outside_regions_rejected() {
        let (mut uffd, _, _, _) = setup();
        let err = uffd
            .raise_fault(VirtAddr::new(0x10), false, 1, false)
            .unwrap_err();
        assert!(matches!(err, UffdError::NotRegistered(_)));
    }

    #[test]
    fn fault_charges_time() {
        let (mut uffd, _, _, region) = setup();
        let before = uffd.clock.now();
        uffd.raise_fault(region.page(0), false, 1, true).unwrap();
        assert!(uffd.clock.now() > before, "fault trap must cost time");
    }

    #[test]
    fn overlapping_registration_rejected() {
        let (mut uffd, _, _, _) = setup();
        // Identical range.
        let dup = Region::new(Vpn::new(0x1000), 32, PageClass::Anonymous);
        assert_eq!(uffd.register(dup), Err(UffdError::OverlappingRegion));
        // Straddling the start.
        let straddle = Region::new(Vpn::new(0xFF0), 0x20, PageClass::Anonymous);
        assert_eq!(uffd.register(straddle), Err(UffdError::OverlappingRegion));
        // Inside.
        let inside = Region::new(Vpn::new(0x1005), 2, PageClass::Anonymous);
        assert_eq!(uffd.register(inside), Err(UffdError::OverlappingRegion));
        // Adjacent is fine.
        let after = Region::new(Vpn::new(0x1020), 8, PageClass::Anonymous);
        assert!(uffd.register(after).is_ok());
        assert_eq!(uffd.by_id.len(), 2);
    }

    #[test]
    fn zeropage_maps_shared_frame() {
        let (mut uffd, mut pt, mut pm, region) = setup();
        let vpn = region.page(0).vpn();
        uffd.zeropage(&mut pt, vpn).unwrap();
        let e = pt.get(vpn).unwrap();
        assert_eq!(e.frame, FrameId::ZERO_PAGE);
        assert!(e.flags.contains(PteFlags::ZERO_PAGE));
        assert_eq!(pm.free_frames(), 128, "zero page costs no frame");
        // Double-resolve is EEXIST, as in the real API.
        assert_eq!(
            uffd.zeropage(&mut pt, vpn),
            Err(UffdError::AlreadyMapped(vpn))
        );
        let _ = &mut pm;
    }

    #[test]
    fn copy_installs_contents() {
        let (mut uffd, mut pt, mut pm, region) = setup();
        let vpn = region.page(1).vpn();
        let frame = uffd
            .copy(&mut pt, &mut pm, vpn, PageContents::Token(0xBEEF))
            .unwrap();
        assert_eq!(pm.load(frame), &PageContents::Token(0xBEEF));
        assert!(pt.get(vpn).unwrap().is_present());
    }

    #[test]
    fn remap_moves_contents_out_and_frees_frame() {
        let (mut uffd, mut pt, mut pm, region) = setup();
        let vpn = region.page(2).vpn();
        uffd.copy(&mut pt, &mut pm, vpn, PageContents::Token(0xAA))
            .unwrap();
        let free_before = pm.free_frames();
        let (contents, handle) = uffd.remap(&mut pt, &mut pm, vpn).unwrap();
        assert_eq!(contents, PageContents::Token(0xAA));
        assert!(pt.get(vpn).is_none(), "page must leave the VM");
        assert_eq!(pm.free_frames(), free_before + 1);
        let waited = uffd.wait_remap(handle);
        assert!(!waited.is_zero(), "sync wait pays the shootdown");
        // Waiting again is free.
        assert!(uffd.wait_remap(handle).is_zero());
    }

    #[test]
    fn remap_of_zero_page_returns_zero_contents() {
        let (mut uffd, mut pt, mut pm, region) = setup();
        let vpn = region.page(4).vpn();
        uffd.zeropage(&mut pt, vpn).unwrap();
        let (contents, handle) = uffd.remap(&mut pt, &mut pm, vpn).unwrap();
        assert_eq!(contents, PageContents::Zero);
        uffd.wait_remap(handle);
        assert_eq!(pm.free_frames(), 128);
    }

    #[test]
    fn remap_unmapped_is_enoent() {
        let (mut uffd, mut pt, mut pm, region) = setup();
        let vpn = region.page(5).vpn();
        assert_eq!(
            uffd.remap(&mut pt, &mut pm, vpn).map(|_| ()),
            Err(UffdError::NotMapped(vpn))
        );
    }

    #[test]
    fn cow_break_allocates_private_frame() {
        let (mut uffd, mut pt, mut pm, region) = setup();
        let vpn = region.page(6).vpn();
        uffd.zeropage(&mut pt, vpn).unwrap();
        let frame = uffd.break_cow(&mut pt, &mut pm, vpn).unwrap();
        assert_ne!(frame, FrameId::ZERO_PAGE);
        let e = pt.get(vpn).unwrap();
        assert!(e.flags.contains(PteFlags::DIRTY));
        assert!(!e.flags.contains(PteFlags::ZERO_PAGE));
        // A second break on the same page is invalid.
        assert!(uffd.break_cow(&mut pt, &mut pm, vpn).is_err());
    }

    #[test]
    fn unregister_queues_event_and_drops_pending_faults() {
        let (mut uffd, _, _, region) = setup();
        uffd.raise_fault(region.page(0), false, 1, false).unwrap();
        let id = uffd.region_containing(region.start()).unwrap();
        uffd.unregister(id).unwrap();
        // The pending page fault was dropped; only Unregister remains.
        match uffd.poll().unwrap() {
            UffdEvent::Unregister { region: r } => assert_eq!(r, id),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(uffd.by_id.len(), 0);
        // Faults now fail.
        assert!(uffd.raise_fault(region.page(0), false, 1, false).is_err());
    }

    #[test]
    fn copy_out_of_frames() {
        let clock = SimClock::new();
        let mut uffd = Userfaultfd::new(clock, SimRng::seed_from_u64(1));
        let region = Region::new(Vpn::new(0), 4, PageClass::Anonymous);
        uffd.register(region).unwrap();
        let mut pt = PageTable::new();
        let mut pm = PhysicalMemory::new(1);
        uffd.copy(&mut pt, &mut pm, Vpn::new(0), PageContents::Zero)
            .unwrap();
        assert_eq!(
            uffd.copy(&mut pt, &mut pm, Vpn::new(1), PageContents::Zero),
            Err(UffdError::OutOfFrames)
        );
    }

    #[test]
    fn wake_page_unparks_the_right_vcpu() {
        let (mut uffd, _, _, region) = setup();
        uffd.raise_fault(region.page(0), false, 1, true).unwrap();
        uffd.raise_fault(region.page(1), false, 2, true).unwrap();
        uffd.raise_fault(region.page(2), false, 3, true).unwrap();
        assert_eq!(uffd.blocked.len(), 3);
        // Out-of-order resolution: page 1's read completed first.
        assert!(uffd.wake_page(region.page(1).vpn()));
        assert_eq!(uffd.blocked.len(), 2);
        let blocked_on = |vpn| uffd.blocked.iter().any(|&(v, _)| v == vpn);
        assert!(!blocked_on(region.page(1).vpn()));
        assert!(blocked_on(region.page(0).vpn()));
        // Waking an unparked page reports false but still costs time.
        let before = uffd.clock.now();
        assert!(!uffd.wake_page(region.page(1).vpn()));
        assert!(uffd.clock.now() > before);
    }

    #[test]
    fn unregister_unparks_blocked_vcpus() {
        let (mut uffd, _, _, region) = setup();
        uffd.raise_fault(region.page(0), false, 1, true).unwrap();
        let id = uffd.region_containing(region.start()).unwrap();
        uffd.unregister(id).unwrap();
        assert_eq!(uffd.blocked.len(), 0);
    }

    #[test]
    fn async_remap_wait_can_be_hidden() {
        // If the monitor does other work that advances the clock past the
        // shootdown completion, waiting costs nothing: this is the §V-B
        // interleaving optimization.
        let (mut uffd, mut pt, mut pm, region) = setup();
        let vpn = region.page(7).vpn();
        uffd.copy(&mut pt, &mut pm, vpn, PageContents::Token(1))
            .unwrap();
        let (_, handle) = uffd.remap(&mut pt, &mut pm, vpn).unwrap();
        // Simulate a 100µs network read overlapping the shootdown.
        uffd.clock.advance(SimDuration::from_micros(100));
        assert!(uffd.wait_remap(handle).is_zero());
    }
}
