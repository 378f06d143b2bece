//! The virtual machine: a guest bound to a memory backend.

use fluidmem_mem::MemoryBackend;

use crate::guest_os::{GuestOs, GuestOsProfile};

/// How the VM is virtualized — decides the Table III one-page row.
///
/// With KVM hardware-assisted virtualization the paper "suspect\[s\] there
/// was a deadlock in the page fault handling ... since handling a page
/// fault can trigger more page faults"; with full (TCG-style) emulation
/// "the recursive triggering of page faults would still succeed".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VirtualizationMode {
    /// KVM hardware-assisted virtualization: fault handling itself needs
    /// at least `Vm::KVM_FAULT_HANDLER_PAGES` pages resident, so a
    /// footprint below that deadlocks.
    #[default]
    Kvm,
    /// Full emulation (QEMU TCG): each instruction completes under
    /// emulation even if every page must be faulted in serially, so a
    /// single-page footprint stays (barely) functional.
    FullEmulation,
}

/// A virtual machine: a booted `GuestOs` over a [`MemoryBackend`].
///
/// # Example
///
/// ```
/// use fluidmem_coord::PartitionId;
/// use fluidmem_core::{FluidMemMemory, MonitorConfig};
/// use fluidmem_kv::DramStore;
/// use fluidmem_sim::{SimClock, SimRng};
/// use fluidmem_vm::{GuestOsProfile, Vm};
///
/// let clock = SimClock::new();
/// let store = DramStore::new(1 << 30, clock.clone(), SimRng::seed_from_u64(1));
/// let backend = FluidMemMemory::new(
///     MonitorConfig::new(2048),
///     Box::new(store),
///     PartitionId::new(0),
///     clock,
///     SimRng::seed_from_u64(2),
/// );
/// let vm = Vm::boot(Box::new(backend), GuestOsProfile::scaled_down(100));
/// assert!(vm.footprint_pages() > 0);
/// ```
pub struct Vm {
    backend: Box<dyn MemoryBackend>,
    os: GuestOs,
    mode: VirtualizationMode,
}

impl Vm {
    /// Minimum resident pages KVM needs to make fault-handling progress
    /// (the faulting instruction's page plus the handler's working page).
    pub(crate) const KVM_FAULT_HANDLER_PAGES: u64 = 2;

    /// Boots a guest with the given OS profile on a backend.
    pub fn boot(mut backend: Box<dyn MemoryBackend>, profile: GuestOsProfile) -> Vm {
        let os = GuestOs::boot(backend.as_mut(), profile);
        Vm {
            backend,
            os,
            mode: VirtualizationMode::Kvm,
        }
    }

    /// Switches the virtualization mode (Table III's last row uses
    /// [`VirtualizationMode::FullEmulation`]).
    pub fn set_mode(&mut self, mode: VirtualizationMode) {
        self.mode = mode;
    }

    /// The booted OS layout.
    pub(crate) fn os(&self) -> &GuestOs {
        &self.os
    }

    /// The memory backend.
    pub fn backend(&self) -> &dyn MemoryBackend {
        self.backend.as_ref()
    }

    /// Mutable backend access.
    pub fn backend_mut(&mut self) -> &mut dyn MemoryBackend {
        self.backend.as_mut()
    }

    /// Current host-DRAM footprint in pages.
    pub fn footprint_pages(&self) -> u64 {
        self.backend.resident_pages()
    }

    /// Current host-DRAM footprint in MB.
    pub fn footprint_mb(&self) -> f64 {
        self.footprint_pages() as f64 * 4096.0 / (1024.0 * 1024.0)
    }

    /// Whether the VM can make forward progress at its current local
    /// capacity. Under KVM, fault handling needs
    /// [`KVM_FAULT_HANDLER_PAGES`](Self::KVM_FAULT_HANDLER_PAGES)
    /// resident pages; under full emulation one page suffices.
    pub(crate) fn can_make_progress(&self) -> bool {
        let needed = match self.mode {
            VirtualizationMode::Kvm => Self::KVM_FAULT_HANDLER_PAGES,
            VirtualizationMode::FullEmulation => 1,
        };
        self.backend.local_capacity_pages() >= needed
    }
}

impl std::fmt::Debug for Vm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm")
            .field("backend", &self.backend.label())
            .field("mode", &self.mode)
            .field("footprint_pages", &self.footprint_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluidmem_coord::PartitionId;
    use fluidmem_core::{FluidMemMemory, MonitorConfig};
    use fluidmem_kv::DramStore;
    use fluidmem_sim::{SimClock, SimRng};

    fn small_vm(capacity: u64) -> Vm {
        let clock = SimClock::new();
        let store = DramStore::new(1 << 30, clock.clone(), SimRng::seed_from_u64(1));
        let backend = FluidMemMemory::new(
            MonitorConfig::new(capacity),
            Box::new(store),
            PartitionId::new(0),
            clock,
            SimRng::seed_from_u64(2),
        );
        Vm::boot(Box::new(backend), GuestOsProfile::scaled_down(200))
    }

    #[test]
    fn boot_populates_footprint() {
        let vm = small_vm(4096);
        let expected = GuestOsProfile::scaled_down(200).total_pages();
        assert_eq!(vm.footprint_pages(), expected);
    }

    #[test]
    fn boot_respects_capacity_bound() {
        let vm = small_vm(64);
        assert!(vm.footprint_pages() <= 64);
    }

    #[test]
    fn progress_rules_by_mode() {
        let clock = SimClock::new();
        let store = DramStore::new(1 << 30, clock.clone(), SimRng::seed_from_u64(1));
        let backend = FluidMemMemory::new(
            MonitorConfig::new(1),
            Box::new(store),
            PartitionId::new(0),
            clock,
            SimRng::seed_from_u64(2),
        );
        let mut vm = Vm::boot(Box::new(backend), GuestOsProfile::scaled_down(10_000));
        assert!(!vm.can_make_progress(), "KVM deadlocks at one page");
        vm.set_mode(VirtualizationMode::FullEmulation);
        assert!(vm.can_make_progress(), "full emulation survives one page");
        // Revival by increasing the footprint.
        vm.set_mode(VirtualizationMode::Kvm);
        vm.backend_mut().set_local_capacity(256).unwrap();
        assert!(vm.can_make_progress());
    }
}
