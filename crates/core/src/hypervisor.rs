//! Multi-VM hosting: one monitor, one LRU, many VMs.
//!
//! The paper's monitor process serves a whole hypervisor: it "waits on a
//! list of file descriptors (corresponding to registered userfaultfd
//! regions)" that grows as VMs start and shrinks as they shut down, and
//! its LRU list's "size determines the number of pages held in DRAM for
//! **all VMs**" (§V-A). Stores are shared, with each VM's pages isolated
//! by its virtual partition (§IV).
//!
//! [`FluidMemHypervisor`] reproduces exactly that: VMs come and go at
//! runtime, they compete for one shared local-memory budget (a noisy
//! neighbor can evict a quiet VM's pages — and the operator can repartition
//! by resizing), and each VM's remote pages live under its own partition
//! so identical guest addresses never collide.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use fluidmem_coord::PartitionId;
use fluidmem_kv::KeyValueStore;
use fluidmem_mem::{
    AccessCounters, AccessReport, CapacityError, MemoryBackend, PageClass, PageContents, Region,
    VirtAddr,
};
use fluidmem_sim::{SimClock, SimRng};
use fluidmem_uffd::RegionId;

use crate::config::MonitorConfig;
use crate::monitor::Monitor;
use crate::uffd_memory::UffdMemory;

/// Identifies one VM hosted on a [`FluidMemHypervisor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VmHandle(usize);

#[derive(Debug)]
struct VmInfo {
    pid: u64,
    partition: PartitionId,
    regions: Vec<(RegionId, Region)>,
    counters: AccessCounters,
    alive: bool,
}

/// A hypervisor hosting multiple FluidMem VMs over one monitor, one
/// shared LRU budget, and one key-value store.
///
/// # Example
///
/// ```
/// use fluidmem_coord::PartitionId;
/// use fluidmem_core::{FluidMemHypervisor, MonitorConfig};
/// use fluidmem_kv::DramStore;
/// use fluidmem_mem::PageClass;
/// use fluidmem_sim::{SimClock, SimRng};
///
/// let clock = SimClock::new();
/// let store = DramStore::new(1 << 30, clock.clone(), SimRng::seed_from_u64(1));
/// let mut hv = FluidMemHypervisor::new(
///     MonitorConfig::new(64), // 64 pages of DRAM shared by every VM
///     Box::new(store),
///     clock,
///     SimRng::seed_from_u64(2),
/// );
/// let a = hv.create_vm(100, PartitionId::new(1));
/// let b = hv.create_vm(101, PartitionId::new(2));
/// let ra = hv.map_region(a, 64, PageClass::Anonymous);
/// let rb = hv.map_region(b, 64, PageClass::Anonymous);
/// for i in 0..64 {
///     hv.access(a, ra.page(i), true);
///     hv.access(b, rb.page(i), true);
/// }
/// assert!(hv.resident_pages() <= 64, "both VMs share one budget");
/// ```
pub struct FluidMemHypervisor {
    mem: UffdMemory,
    /// region start → owning VM, for fault attribution.
    region_owner: BTreeMap<u64, usize>,
    vms: Vec<VmInfo>,
}

impl FluidMemHypervisor {
    /// Creates a hypervisor whose monitor holds at most
    /// `config.lru_capacity` pages in DRAM across every hosted VM.
    pub fn new(
        config: MonitorConfig,
        store: Box<dyn KeyValueStore>,
        clock: SimClock,
        rng: SimRng,
    ) -> Self {
        FluidMemHypervisor {
            mem: UffdMemory::new(config, store, PartitionId::new(0), clock, rng),
            region_owner: BTreeMap::new(),
            vms: Vec::new(),
        }
    }

    /// Starts hosting a VM: its QEMU process id and the store partition
    /// its pages are keyed under.
    pub fn create_vm(&mut self, pid: u64, partition: PartitionId) -> VmHandle {
        self.vms.push(VmInfo {
            pid,
            partition,
            regions: Vec::new(),
            counters: AccessCounters::default(),
            alive: true,
        });
        VmHandle(self.vms.len() - 1)
    }

    /// Registers guest memory for a VM (boot allocation or hotplug).
    ///
    /// # Panics
    ///
    /// Panics if the VM was destroyed.
    pub fn map_region(&mut self, vm: VmHandle, pages: u64, class: PageClass) -> Region {
        assert!(self.vms[vm.0].alive, "cannot map into a destroyed VM");
        let (id, region) = self.mem.map_region(pages, class);
        let partition = self.vms[vm.0].partition;
        self.mem.monitor.register_partition(region, partition);
        self.region_owner.insert(region.start().raw(), vm.0);
        self.vms[vm.0].regions.push((id, region));
        region
    }

    /// One blocking guest memory access by `vm`.
    ///
    /// # Panics
    ///
    /// Panics if the address is not in one of the VM's regions, or if
    /// demand faults submitted to the monitor directly are still parked.
    pub fn access(&mut self, vm: VmHandle, addr: VirtAddr, write: bool) -> AccessReport {
        let owner = self
            .region_owner
            .range(..=addr.vpn().raw())
            .next_back()
            .map(|(_, &o)| o);
        assert_eq!(
            owner,
            Some(vm.0),
            "address {addr} does not belong to vm {}",
            vm.0
        );
        let report = self.mem.access(self.vms[vm.0].pid, addr, write);
        self.vms[vm.0].counters.record(report.outcome);
        report
    }

    /// Shuts a VM down: unregisters its regions (shrinking the monitor's
    /// descriptor list), frees its frames, and drops its partition from
    /// the store.
    pub fn destroy_vm(&mut self, vm: VmHandle) {
        let regions = std::mem::take(&mut self.vms[vm.0].regions);
        for (id, region) in regions {
            self.mem.unregister(id, &region);
            self.region_owner.remove(&region.start().raw());
        }
        self.vms[vm.0].alive = false;
    }

    /// Pages in DRAM across all VMs (bounded by the shared capacity).
    pub fn resident_pages(&self) -> u64 {
        self.mem.monitor.resident_pages()
    }

    /// Pages of one VM currently in DRAM.
    pub fn resident_pages_of(&self, vm: VmHandle) -> u64 {
        self.vms[vm.0]
            .regions
            .iter()
            .map(|(_, r)| self.mem.monitor.resident_in(r))
            .sum()
    }

    /// The shared local budget.
    pub fn capacity(&self) -> u64 {
        self.mem.monitor.capacity()
    }

    /// Resizes the shared budget, evicting down if needed.
    pub fn set_capacity(&mut self, pages: u64) {
        self.mem.resize(pages);
    }

    /// A VM's access counters.
    pub fn counters_of(&self, vm: VmHandle) -> AccessCounters {
        self.vms[vm.0].counters
    }

    /// Number of live VMs.
    pub fn vm_count(&self) -> usize {
        self.vms.iter().filter(|v| v.alive).count()
    }

    /// The shared monitor.
    pub fn monitor(&self) -> &Monitor {
        &self.mem.monitor
    }

    /// Mutable access to the shared monitor (drains, profile resets).
    pub fn monitor_mut(&mut self) -> &mut Monitor {
        &mut self.mem.monitor
    }

    /// The shared clock.
    pub fn clock(&self) -> &SimClock {
        &self.mem.clock
    }

    /// Wraps one hosted VM as a standalone [`MemoryBackend`], so the
    /// unmodified workloads can run against a single tenant of a shared
    /// hypervisor.
    pub fn vm_backend(hypervisor: Rc<RefCell<FluidMemHypervisor>>, vm: VmHandle) -> SharedVm {
        let label = format!("FluidMem/shared/vm{}", vm.0);
        let clock = hypervisor.borrow().mem.clock.clone();
        SharedVm {
            hypervisor,
            vm,
            label,
            clock,
        }
    }
}

impl std::fmt::Debug for FluidMemHypervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FluidMemHypervisor")
            .field("vms", &self.vm_count())
            .field("resident", &self.resident_pages())
            .field("capacity", &self.capacity())
            .finish()
    }
}

/// A per-tenant view of a shared hypervisor, implementing
/// [`MemoryBackend`] so workloads run unmodified against one VM while
/// other tenants compete for the same DRAM budget.
pub struct SharedVm {
    hypervisor: Rc<RefCell<FluidMemHypervisor>>,
    vm: VmHandle,
    label: String,
    clock: SimClock,
}

impl MemoryBackend for SharedVm {
    fn map_region(&mut self, pages: u64, class: PageClass) -> Region {
        self.hypervisor
            .borrow_mut()
            .map_region(self.vm, pages, class)
    }

    fn access(&mut self, addr: VirtAddr, write: bool) -> AccessReport {
        self.hypervisor.borrow_mut().access(self.vm, addr, write)
    }

    fn write_page(&mut self, addr: VirtAddr, contents: PageContents) -> AccessReport {
        let mut hv = self.hypervisor.borrow_mut();
        let report = hv.access(self.vm, addr, true);
        hv.mem.store_page(addr, contents);
        report
    }

    fn read_page(&mut self, addr: VirtAddr) -> (PageContents, AccessReport) {
        let mut hv = self.hypervisor.borrow_mut();
        let report = hv.access(self.vm, addr, false);
        (hv.mem.load_page(addr), report)
    }

    fn resident_pages(&self) -> u64 {
        self.hypervisor.borrow().resident_pages_of(self.vm)
    }

    fn local_capacity_pages(&self) -> u64 {
        self.hypervisor.borrow().capacity()
    }

    fn set_local_capacity(&mut self, pages: u64) -> Result<(), CapacityError> {
        self.hypervisor.borrow_mut().set_capacity(pages);
        Ok(())
    }

    fn counters(&self) -> AccessCounters {
        self.hypervisor.borrow().counters_of(self.vm)
    }

    fn clock(&self) -> &SimClock {
        &self.clock
    }

    fn label(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluidmem_kv::{DramStore, ExternalKey, RamCloudStore};
    use fluidmem_mem::AccessOutcome;

    fn hypervisor(capacity: u64) -> FluidMemHypervisor {
        let clock = SimClock::new();
        let store = DramStore::new(1 << 30, clock.clone(), SimRng::seed_from_u64(1));
        FluidMemHypervisor::new(
            MonitorConfig::new(capacity),
            Box::new(store),
            clock,
            SimRng::seed_from_u64(2),
        )
    }

    #[test]
    fn vms_share_one_budget() {
        let mut hv = hypervisor(32);
        let a = hv.create_vm(1, PartitionId::new(1));
        let b = hv.create_vm(2, PartitionId::new(2));
        let ra = hv.map_region(a, 64, PageClass::Anonymous);
        let rb = hv.map_region(b, 64, PageClass::Anonymous);
        for i in 0..64 {
            hv.access(a, ra.page(i), true);
            hv.access(b, rb.page(i), true);
        }
        assert!(hv.resident_pages() <= 32);
        assert_eq!(
            hv.resident_pages_of(a) + hv.resident_pages_of(b),
            hv.resident_pages()
        );
    }

    #[test]
    fn noisy_neighbor_evicts_quiet_vm() {
        let mut hv = hypervisor(64);
        let quiet = hv.create_vm(1, PartitionId::new(1));
        let noisy = hv.create_vm(2, PartitionId::new(2));
        let rq = hv.map_region(quiet, 32, PageClass::Anonymous);
        let rn = hv.map_region(noisy, 512, PageClass::Anonymous);
        for i in 0..32 {
            hv.access(quiet, rq.page(i), true);
        }
        assert_eq!(hv.resident_pages_of(quiet), 32);
        // The noisy VM churns through far more than the shared budget.
        for i in 0..512 {
            hv.access(noisy, rn.page(i), true);
        }
        assert!(
            hv.resident_pages_of(quiet) < 32,
            "the shared first-touch LRU must have evicted the quiet VM's pages"
        );
        // The quiet VM still works — its pages come back from the store.
        let rep = hv.access(quiet, rq.page(0), false);
        assert_ne!(rep.outcome, AccessOutcome::Hit);
    }

    #[test]
    fn partitions_isolate_same_numbered_pages() {
        let clock = SimClock::new();
        let store = RamCloudStore::new(1 << 26, clock.clone(), SimRng::seed_from_u64(3));
        let mut hv = FluidMemHypervisor::new(
            MonitorConfig::new(4),
            Box::new(store),
            clock,
            SimRng::seed_from_u64(4),
        );
        let a = hv.create_vm(1, PartitionId::new(7));
        let b = hv.create_vm(2, PartitionId::new(8));
        let ra = hv.map_region(a, 16, PageClass::Anonymous);
        let rb = hv.map_region(b, 16, PageClass::Anonymous);
        for i in 0..16 {
            hv.access(a, ra.page(i), true);
            hv.access(b, rb.page(i), true);
        }
        hv.monitor_mut().drain_writes();
        // Evicted pages land under each VM's own partition.
        let store = hv.monitor().store();
        assert!(store.contains(ExternalKey::new(ra.page(0).vpn(), PartitionId::new(7))));
        assert!(store.contains(ExternalKey::new(rb.page(0).vpn(), PartitionId::new(8))));
        assert!(!store.contains(ExternalKey::new(ra.page(0).vpn(), PartitionId::new(8))));
    }

    #[test]
    fn destroy_vm_releases_everything() {
        let mut hv = hypervisor(16);
        let a = hv.create_vm(1, PartitionId::new(1));
        let b = hv.create_vm(2, PartitionId::new(2));
        let ra = hv.map_region(a, 64, PageClass::Anonymous);
        let rb = hv.map_region(b, 8, PageClass::Anonymous);
        for i in 0..64 {
            hv.access(a, ra.page(i), true);
        }
        for i in 0..8 {
            hv.access(b, rb.page(i), true);
        }
        hv.monitor_mut().drain_writes();
        hv.destroy_vm(a);
        assert_eq!(hv.vm_count(), 1);
        assert_eq!(hv.resident_pages_of(a), 0);
        // The survivor's pages are intact.
        for i in 0..8 {
            let rep = hv.access(b, rb.page(i), false);
            let _ = rep;
        }
        // And VM a's partition is gone from the store.
        assert!(!hv
            .monitor()
            .store()
            .contains(ExternalKey::new(ra.page(0).vpn(), PartitionId::new(1))));
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn cross_vm_access_rejected() {
        let mut hv = hypervisor(16);
        let a = hv.create_vm(1, PartitionId::new(1));
        let b = hv.create_vm(2, PartitionId::new(2));
        let _ra = hv.map_region(a, 8, PageClass::Anonymous);
        let rb = hv.map_region(b, 8, PageClass::Anonymous);
        hv.access(a, rb.page(0), false);
    }

    #[test]
    fn shared_vm_backend_runs_workloads() {
        let hv = Rc::new(RefCell::new(hypervisor(64)));
        let vm = hv.borrow_mut().create_vm(1, PartitionId::new(1));
        let mut backend = FluidMemHypervisor::vm_backend(hv.clone(), vm);
        let region = backend.map_region(128, PageClass::Anonymous);
        for i in 0..128 {
            backend.write_page(region.page(i), PageContents::Token(i));
        }
        hv.borrow_mut().monitor_mut().drain_writes();
        for i in 0..128 {
            let (contents, _) = backend.read_page(region.page(i));
            assert_eq!(contents, PageContents::Token(i));
        }
        assert!(backend.resident_pages() <= 64);
    }

    #[test]
    fn operator_can_repartition_budget_live() {
        let mut hv = hypervisor(128);
        let a = hv.create_vm(1, PartitionId::new(1));
        let ra = hv.map_region(a, 128, PageClass::Anonymous);
        for i in 0..128 {
            hv.access(a, ra.page(i), true);
        }
        assert_eq!(hv.resident_pages(), 128);
        hv.set_capacity(16);
        assert!(hv.resident_pages() <= 16);
        hv.set_capacity(256);
        assert_eq!(hv.capacity(), 256);
    }
}
