//! The `MemoryBackend` abstraction.

use std::error::Error;
use std::fmt;

use fluidmem_sim::{SimClock, SimDuration};

use crate::{PageClass, PageContents, Region, VirtAddr};

/// How an access was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessOutcome {
    /// The page was resident and mapped; no fault.
    Hit,
    /// A fault that was satisfied without leaving the machine (zero-page
    /// fill, copy-on-write break, swap-cache or readahead hit).
    MinorFault,
    /// A fault that required the remote key-value store, a block device,
    /// or another machine.
    MajorFault,
}

/// The result of one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessReport {
    /// How the access was resolved.
    pub outcome: AccessOutcome,
    /// Virtual time the access took, as observed by the accessing vCPU.
    pub latency: SimDuration,
}

impl AccessReport {}

/// Running counters kept by every backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessCounters {
    /// Accesses resolved without a fault.
    pub hits: u64,
    /// Faults resolved locally.
    pub minor_faults: u64,
    /// Faults that required remote memory or a device.
    pub major_faults: u64,
}

impl AccessCounters {
    /// Total accesses observed.
    pub fn total(&self) -> u64 {
        self.hits + self.minor_faults + self.major_faults
    }

    /// Records one outcome.
    pub fn record(&mut self, outcome: AccessOutcome) {
        match outcome {
            AccessOutcome::Hit => self.hits += 1,
            AccessOutcome::MinorFault => self.minor_faults += 1,
            AccessOutcome::MajorFault => self.major_faults += 1,
        }
    }
}

/// Error returned when a backend cannot change its local footprint.
///
/// The swap-based baseline returns this from
/// [`MemoryBackend::set_local_capacity`]: without guest cooperation
/// (ballooning) there is *"no way to reduce a VM's local memory footprint
/// on a server at any given time"* (paper §II). FluidMem's resizable LRU
/// list is exactly the capability swap lacks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapacityError {
    mechanism: String,
}

impl CapacityError {
    /// Creates an error naming the mechanism that refused the resize.
    pub fn new(mechanism: impl Into<String>) -> Self {
        CapacityError {
            mechanism: mechanism.into(),
        }
    }
}

impl fmt::Display for CapacityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cannot adjust its local memory footprint without guest cooperation",
            self.mechanism
        )
    }
}

impl Error for CapacityError {}

/// A guest-visible memory system that charges virtual time for accesses.
///
/// Two implementations reproduce the paper's comparison:
///
/// * `fluidmem_core::FluidMemMemory` — all pages registered with the
///   simulated userfaultfd and resolved by the FluidMem monitor against a
///   remote key-value store.
/// * `fluidmem_swap::SwapBackedMemory` — pages live in a fixed local DRAM
///   allotment with the kernel swap subsystem paging anonymous pages to a
///   block device.
///
/// Workloads (pmbench, Graph500, YCSB/MongoDB) are written against this
/// trait only, so each runs unmodified over either mechanism.
pub trait MemoryBackend {
    /// Allocates a contiguous region of `pages` pages of the given class
    /// in the guest's address space.
    fn map_region(&mut self, pages: u64, class: PageClass) -> Region;

    /// Performs one access (read or write) at `addr`, charging its cost to
    /// the simulation clock and returning how it resolved.
    fn access(&mut self, addr: VirtAddr, write: bool) -> AccessReport;

    /// A write access that also stores real contents into the page,
    /// so integrity tests can follow bytes through evict/refault cycles.
    fn write_page(&mut self, addr: VirtAddr, contents: PageContents) -> AccessReport;

    /// A read access that also returns the page's current contents.
    fn read_page(&mut self, addr: VirtAddr) -> (PageContents, AccessReport);

    /// Number of guest pages currently occupying host DRAM.
    fn resident_pages(&self) -> u64;

    /// The maximum number of guest pages allowed in host DRAM.
    fn local_capacity_pages(&self) -> u64;

    /// Changes the local DRAM allotment.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if the mechanism cannot resize without
    /// guest cooperation (true for the swap baseline, per paper §II).
    fn set_local_capacity(&mut self, pages: u64) -> Result<(), CapacityError>;

    /// Guest-cooperative footprint reduction (a balloon driver): tries to
    /// shrink the resident footprint toward `target_pages` by reclaiming
    /// inside the guest, subject to the mechanism's own floor. Returns the
    /// resulting resident page count.
    ///
    /// The default does nothing (mechanisms without a balloon return the
    /// current footprint unchanged).
    fn balloon_reclaim(&mut self, target_pages: u64) -> u64 {
        let _ = target_pages;
        self.resident_pages()
    }

    /// Access counters since construction.
    fn counters(&self) -> AccessCounters;

    /// The shared simulation clock.
    fn clock(&self) -> &SimClock;

    /// A short human-readable name (e.g. `"FluidMem/RAMCloud"`).
    fn label(&self) -> String;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_record_every_outcome() {
        let mut c = AccessCounters::default();
        c.record(AccessOutcome::Hit);
        c.record(AccessOutcome::Hit);
        c.record(AccessOutcome::MinorFault);
        c.record(AccessOutcome::MajorFault);
        assert_eq!(c.total(), 4);
    }

    #[test]
    fn capacity_error_displays_mechanism() {
        let e = CapacityError::new("swap");
        assert!(e.to_string().contains("swap"));
        assert!(e.to_string().contains("guest cooperation"));
    }

    #[test]
    fn backend_trait_is_object_safe() {
        fn _takes_object(_b: &dyn MemoryBackend) {}
    }
}
