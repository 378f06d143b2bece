//! Memory substrate for the FluidMem reproduction.
//!
//! This crate models the pieces of a hypervisor's memory system that both
//! disaggregation mechanisms (the FluidMem monitor and the Linux swap
//! subsystem) are built on:
//!
//! * 4 KB pages with optional real contents ([`PageContents`]),
//! * [`VirtAddr`]/[`Vpn`] virtual addressing, typed [`Region`]s, and
//!   [`PageArray`], the dense table every per-page map is built on,
//!   and [`PageList`], the page order every LRU and FIFO is built on,
//! * page-table entries with [`PteFlags`] and a per-process [`PageTable`],
//! * host [`PhysicalMemory`] (frame allocator + frame contents),
//! * a [`TlbModel`] charging flush / shootdown-IPI costs, and
//! * the [`MemoryBackend`] trait: the common interface through which VMs
//!   and workloads touch memory while virtual time is charged.
//!
//! Page **classes** ([`PageClass`]) are the crux of the paper's full-vs-
//! partial disaggregation argument (§II): swap can only evict anonymous
//! pages (and drop or write back file-backed ones), while FluidMem can move
//! *any* page — kernel, mlocked, file-backed — to remote memory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod backend;
mod frame;
mod page;
mod page_array;
mod page_class;
mod page_list;
mod page_table;
mod pte;
mod tlb;

pub use addr::{Region, VirtAddr, Vpn};
pub use backend::{AccessCounters, AccessOutcome, AccessReport, CapacityError, MemoryBackend};
pub use frame::{FrameId, PhysicalMemory};
pub use page::{PageBuf, PageContents, PAGE_SIZE};
pub use page_array::PageArray;
pub use page_class::PageClass;
pub use page_list::{Linked, PageList};
pub use page_table::{PageTable, PageTableEntry};
pub use pte::PteFlags;
pub use tlb::TlbModel;
