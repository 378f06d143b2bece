//! Userfaultfd-registered guest memory and the monitor that resolves its
//! faults: the host-side state [`FluidMemMemory`](crate::FluidMemMemory)
//! (one VM) and [`FluidMemHypervisor`](crate::FluidMemHypervisor) (many
//! VMs over one monitor) have in common, and the one routine that turns
//! a guest access into a hit, a CoW break, or a monitor-resolved fault.

use fluidmem_coord::PartitionId;
use fluidmem_kv::KeyValueStore;
use fluidmem_mem::{
    AccessOutcome, AccessReport, PageClass, PageContents, PageTable, PhysicalMemory, PteFlags,
    Region, VirtAddr, Vpn,
};
use fluidmem_sim::{SimClock, SimDuration, SimRng};
use fluidmem_uffd::{RegionId, Userfaultfd};

use crate::config::MonitorConfig;
use crate::monitor::{CompletedFault, Monitor, SubmitOutcome};

/// The outcome of [`FluidMemMemory::submit_access`](crate::FluidMemMemory::submit_access).
#[derive(Debug, Clone, Copy)]
pub enum PipelineSubmit {
    /// The access resolved inline — a mapped-page hit, a CoW break, or a
    /// fault the monitor completed without parking (first touch,
    /// write-list steal, compressed-tier hit, synchronous read). The
    /// report is final and already counted.
    Ready(AccessReport),
    /// The access parked (or coalesced) in the monitor's in-flight
    /// table; [`FluidMemMemory::complete_next_access`](crate::FluidMemMemory::complete_next_access)
    /// finishes it.
    Pending(SubmitOutcome),
}

/// The kernel-side objects of a hypervisor (userfaultfd, page table,
/// frames) together with the monitor serving them.
pub(crate) struct UffdMemory {
    pub(crate) uffd: Userfaultfd,
    pub(crate) pt: PageTable,
    pub(crate) pm: PhysicalMemory,
    pub(crate) monitor: Monitor,
    next_vpn: u64,
    from_vm: bool,
    pub(crate) clock: SimClock,
}

impl UffdMemory {
    pub(crate) fn new(
        config: MonitorConfig,
        store: Box<dyn KeyValueStore>,
        partition: PartitionId,
        clock: SimClock,
        rng: SimRng,
    ) -> Self {
        let from_vm = config.from_vm;
        let uffd = Userfaultfd::new(clock.clone(), rng.fork("uffd"));
        let monitor = Monitor::new(config, store, partition, clock.clone(), rng.fork("monitor"));
        UffdMemory {
            uffd,
            pt: PageTable::new(),
            // Host frames are bounded by the monitor's LRU, not by this
            // allocator; size it generously.
            pm: PhysicalMemory::new(u64::MAX / 2),
            monitor,
            next_vpn: 0x10_000,
            from_vm,
            clock,
        }
    }

    /// Bump-allocates a fresh region (with a guard gap) and registers it.
    pub(crate) fn map_region(&mut self, pages: u64, class: PageClass) -> (RegionId, Region) {
        let region = Region::new(Vpn::new(self.next_vpn), pages, class);
        (self.register(region), region)
    }

    /// Registers a region at a given address and keeps the bump
    /// allocator clear of it.
    pub(crate) fn register(&mut self, region: Region) -> RegionId {
        self.next_vpn = self.next_vpn.max(region.end().raw() + 16);
        self.uffd
            .register(region)
            .expect("regions never overlap: bump allocation or a migrated layout")
    }

    /// Unregisters a region: drops the monitor's state and the region's
    /// pages in the store, and frees its frames.
    pub(crate) fn unregister(&mut self, id: RegionId, region: &Region) {
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

    pub(crate) fn resize(&mut self, pages: u64) {
        self.monitor
            .resize(&mut self.uffd, &mut self.pt, &mut self.pm, pages);
    }

    /// Retires every completion that has already landed (see
    /// [`Monitor::poll_ready`]).
    pub(crate) fn poll_ready(&mut self) {
        self.monitor
            .poll_ready(&mut self.uffd, &mut self.pt, &mut self.pm);
    }

    /// Submits one guest access by `pid`, after the monitor has caught
    /// up with everything that landed before it: a page whose read
    /// already arrived is mapped by the time the access looks.
    pub(crate) fn submit(&mut self, pid: u64, addr: VirtAddr, write: bool) -> PipelineSubmit {
        self.poll_ready();
        self.touch(pid, addr, write)
    }

    /// The access itself. A mapped page is a hit (or a kernel-side CoW
    /// break); an unmapped one faults to the monitor, which either
    /// resolves it before returning or parks it for
    /// [`UffdMemory::complete_next`].
    fn touch(&mut self, pid: u64, addr: VirtAddr, write: bool) -> PipelineSubmit {
        let vpn = addr.vpn();
        if let Some(entry) = self.pt.get_mut(vpn) {
            if write && entry.flags.contains(PteFlags::ZERO_PAGE) {
                // Kernel-side copy-on-write break (footnote 1 of the
                // paper): a regular minor fault, invisible to the
                // monitor.
                return PipelineSubmit::Ready(self.break_cow(vpn));
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

        let t0 = self.clock.now();
        self.uffd
            .raise_fault(addr, write, pid, self.from_vm)
            .unwrap_or_else(|e| panic!("access to unregistered address {addr}: {e}"));
        let _event = self.uffd.poll().expect("fault was queued");
        match self
            .monitor
            .submit_fault(&mut self.uffd, &mut self.pt, &mut self.pm, vpn, write)
        {
            SubmitOutcome::Completed(res) => {
                let mut report = AccessReport {
                    outcome: res.resolution.outcome(),
                    latency: res.wake_at - t0,
                };
                // A *write* that was resolved with the zero page
                // immediately breaks CoW when the guest retries the
                // instruction.
                if write && self.pt.has_flags(vpn, PteFlags::ZERO_PAGE) {
                    report.latency += self.break_cow(vpn).latency;
                }
                PipelineSubmit::Ready(report)
            }
            parked => PipelineSubmit::Pending(parked),
        }
    }

    fn break_cow(&mut self, vpn: Vpn) -> AccessReport {
        let t0 = self.clock.now();
        self.uffd
            .break_cow(&mut self.pt, &mut self.pm, vpn)
            .expect("zero-page mapping breaks cleanly");
        AccessReport {
            outcome: AccessOutcome::MinorFault,
            latency: self.clock.now() - t0,
        }
    }

    /// The next finished access, waiting for one to land if none has
    /// (see [`Monitor::complete_next`]).
    pub(crate) fn complete_next(&mut self) -> Option<CompletedFault> {
        self.monitor
            .complete_next(&mut self.uffd, &mut self.pt, &mut self.pm)
    }

    /// One blocking guest access: [`UffdMemory::submit`] and — if the
    /// fault parked — its completion. The guest-observed latency starts
    /// once the monitor has caught up, at the access itself.
    ///
    /// # Panics
    ///
    /// Panics if demand faults are parked, or finished ones not yet
    /// collected, on entry: the completion this call waits for must be
    /// its own. Pipelined drivers finish and collect their parked
    /// accesses before mixing in a blocking one.
    pub(crate) fn access(&mut self, pid: u64, addr: VirtAddr, write: bool) -> AccessReport {
        self.monitor.assert_no_fault_outstanding("blocking access");
        self.poll_ready();
        let t0 = self.clock.now();
        match self.touch(pid, addr, write) {
            PipelineSubmit::Ready(report) => report,
            PipelineSubmit::Pending(_) => {
                let done = self.complete_next().expect("the fault just parked");
                AccessReport {
                    outcome: done.resolution.outcome(),
                    latency: done.wake_at - t0,
                }
            }
        }
    }

    /// Stores `contents` into the frame backing a mapped page.
    pub(crate) fn store_page(&mut self, addr: VirtAddr, contents: PageContents) {
        let entry = self.pt.get(addr.vpn()).expect("write access maps the page");
        self.pm.store(entry.frame, contents);
    }

    /// The contents of a mapped page.
    pub(crate) fn load_page(&self, addr: VirtAddr) -> PageContents {
        let entry = self.pt.get(addr.vpn()).expect("read access maps the page");
        self.pm.load(entry.frame).clone()
    }
}
