//! Events delivered on the userfaultfd file descriptor.

use std::fmt;

use fluidmem_mem::VirtAddr;

/// Identifies one registered userfaultfd region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(pub(crate) u64);

impl RegionId {}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "uffd-region-{}", self.0)
    }
}

/// A message read from the userfaultfd file descriptor.
///
/// Mirrors `struct uffd_msg`: the monitor receives *"the faulting address
/// and the process PID belonging to the VM"* (paper §V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UffdEvent {
    /// A missing-page fault in a registered region.
    PageFault {
        /// The region the fault fell in.
        region: RegionId,
        /// The faulting virtual address.
        addr: VirtAddr,
        /// Whether the faulting access was a write.
        write: bool,
        /// PID of the faulting process (the VM's QEMU process).
        pid: u64,
    },
    /// A region was unregistered (VM shut down); the monitor drops its
    /// state for the region.
    Unregister {
        /// The region that went away.
        region: RegionId,
    },
}

impl UffdEvent {
    /// The region the event concerns.
    pub(crate) fn region(&self) -> RegionId {
        match self {
            UffdEvent::PageFault { region, .. } => *region,
            UffdEvent::Unregister { region } => *region,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_region_accessor() {
        let e = UffdEvent::PageFault {
            region: RegionId(3),
            addr: VirtAddr::new(0x1000),
            write: false,
            pid: 42,
        };
        assert_eq!(e.region(), RegionId(3));
        assert_eq!(
            UffdEvent::Unregister {
                region: RegionId(7)
            }
            .region(),
            RegionId(7)
        );
    }

    #[test]
    fn region_id_display() {
        assert_eq!(RegionId(5).to_string(), "uffd-region-5");
    }
}
