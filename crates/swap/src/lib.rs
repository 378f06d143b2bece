//! The swap-based memory-disaggregation baseline.
//!
//! This crate implements the mechanism the paper compares FluidMem
//! against (§II, §VI): an unmodified guest kernel's swap subsystem over a
//! remote-memory block device (the Infiniswap / NVMeoF-class approach).
//! It is a real implementation of the relevant kernel machinery, not a
//! latency table:
//!
//! * a **two-list LRU** (active/inactive) with referenced-bit second
//!   chance and list balancing — the `kswapd` aging that §VI-D1 credits
//!   for swap/DRAM beating FluidMem/DRAM at high scale factors;
//! * **kswapd watermarks** with asynchronous background writeback, and
//!   **direct reclaim** with synchronous writeback when allocation stalls
//!   — the long-tail knees in Figure 3's swap CDFs;
//! * a **swap cache** and **slot allocator**, including the clean-slot
//!   optimization (an unmodified page evicted again needs no second
//!   write);
//! * **readahead** (`vm.page-cluster`) that speculatively pulls in slot
//!   neighbors;
//! * the **partial-disaggregation limits** of §II, enforced by page
//!   class: only anonymous pages use swap, file-backed pages are written
//!   back to (and refaulted from) their filesystem, and kernel /
//!   unevictable pages can never leave DRAM.
//!
//! The entry point is [`SwapBackedMemory`], a
//! [`MemoryBackend`](fluidmem_mem::MemoryBackend) implementation driven
//! by the same workloads as the FluidMem monitor.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod config;
mod lru;
mod pages;
mod slots;
mod stats;

pub use backend::SwapBackedMemory;
pub use config::SwapConfig;
pub use slots::SlotAllocator;
pub(crate) use stats::SwapCounters;
pub use stats::SwapStats;

/// The series every instrument set this crate declares exports.
pub const CATALOGUE: &[&[fluidmem_telemetry::CatalogueRow]] = &[SwapCounters::CATALOGUE];
