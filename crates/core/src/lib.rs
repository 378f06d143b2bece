//! The FluidMem monitor — the paper's primary contribution.
//!
//! FluidMem achieves *full* memory disaggregation by registering all of a
//! VM's memory with userfaultfd and resolving every page fault in a
//! user-space **monitor process** (paper §III–V). This crate implements
//! that monitor and the `MemoryBackend` built on it:
//!
//! * the **page tracker** ([`PageTracker`]): a hash of already-seen pages
//!   so first-touch faults resolve with a zero-page mapping instead of a
//!   pointless remote read (§V-A, Figure 2);
//! * the **resizable LRU buffer** ([`LruBuffer`]): bounds how many of the
//!   VM's pages occupy hypervisor DRAM; resizing it up or down is how a
//!   cloud operator grows a VM across machines or shrinks it to a
//!   near-zero footprint (§III, §VI-E);
//! * the **write list** ([`WriteList`]): asynchronous batched writeback
//!   with page *stealing* — a fault on a page still waiting to be written
//!   is satisfied from the list, shortcutting two network round trips
//!   (§V-B);
//! * the **asynchronous read** optimization: the key-value store read is
//!   split into top and bottom halves and the `UFFD_REMAP` eviction plus
//!   cache bookkeeping run during the network wait (§V-B, Table II);
//! * **working-set estimation** ([`WorkingSetEstimator`]): shadow-entry
//!   refault-distance tracking in the style of Linux's
//!   `mm/workingset.c`, feeding a WSS estimate, a thrash detector, and
//!   an optional adaptive LRU capacity;
//! * the **stride prefetcher** (`StrideDetector`): Leap-style
//!   majority-vote trend detection over the fault address stream,
//!   turning sequential and strided phases into reads issued ahead of
//!   demand — gated by the working-set estimator so a thrashing VM never
//!   pollutes its own LRU with guesses;
//! * the **compressed local tier** ([`TierConfig`]): a zswap-like pool
//!   between DRAM and the remote store — evictions compress into local
//!   memory and demote to the store only under pool pressure, and
//!   refaults that hit the pool resolve for a decompress instead of a
//!   network round trip (§III's page-compression customization);
//! * per-code-path **profiling** ([`CodePath`], [`ProfileTable`])
//!   reproducing Table I.
//!
//! [`FluidMemMemory`] packages a monitor, a simulated userfaultfd, and a
//! key-value store into a [`MemoryBackend`](fluidmem_mem::MemoryBackend)
//! that the paper's workloads run against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod config;
mod lru_buffer;
mod monitor;
mod page_tracker;
mod prefetch;
mod profile;
mod signals;
mod stats;
mod tier;
mod workingset;
mod write_list;

pub use backend::{FluidMemMemory, MigrationImage, PipelineSubmit};
pub use config::{
    EvictionMechanism, LruPolicy, MonitorConfig, Optimizations, PrefetchPolicy, ReclaimConfig,
};
pub use lru_buffer::LruBuffer;
pub use monitor::{CompletedFault, Monitor, SubmitOutcome};
pub use page_tracker::PageTracker;
pub use profile::{CodePath, PathStats, ProfileTable};
pub use signals::VmSignals;
pub use stats::MonitorStats;
pub use tier::{TierAudit, TierConfig};
pub use workingset::{Refault, WorkingSetConfig, WorkingSetEstimator, WorkingSetMode};
pub use write_list::{StealOutcome, WriteList};

/// The series every instrument set this crate declares exports.
pub const CATALOGUE: &[&[fluidmem_telemetry::CatalogueRow]] = &[
    stats::MonitorCounters::CATALOGUE,
    profile::CodePathHistograms::CATALOGUE,
];
