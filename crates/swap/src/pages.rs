//! The swap backend's per-page descriptors.

use std::ops::{Index, IndexMut};

use fluidmem_mem::{FrameId, Vpn};
use fluidmem_sim::SimInstant;

use crate::lru::ListKind;

/// A descriptor's "no slot" / "no block" value.
const NONE: u32 = u32::MAX;

/// Where a page is, besides its page-table entry.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Location {
    /// In a frame the page table maps — or, for a page the page table
    /// does not map, never touched (anonymous) or left to its filesystem
    /// (file-backed).
    Resident,
    /// Read ahead into `frame` but not yet mapped: the swap cache.
    SwapCache { frame: FrameId },
    /// Only on the swap device; a refault waits for `write_completes`,
    /// the background writeback, if it is still pending.
    SwappedOut { write_completes: Option<SimInstant> },
}

/// One page's swap state: what Linux keeps in a swapped-out PTE's swap
/// entry and in the page's `struct page`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PageDesc {
    /// The swap slot holding a copy of the page, or [`NONE`]. A
    /// resident page that owns one is clean: its copy is still valid.
    slot: u32,
    /// A file-backed page's filesystem block, or [`NONE`] until its
    /// first reclaim or fault.
    fs_block: u32,
    pub(crate) location: Location,
    /// The two-list LRU list the page is on, if any.
    pub(crate) lru: Option<ListKind>,
}

impl PageDesc {
    const UNTOUCHED: PageDesc = PageDesc {
        slot: NONE,
        fs_block: NONE,
        location: Location::Resident,
        lru: None,
    };

    /// The page's swap slot, if it owns one.
    pub(crate) fn slot(&self) -> Option<u64> {
        (self.slot != NONE).then_some(u64::from(self.slot))
    }

    /// Records the slot the page now owns.
    pub(crate) fn set_slot(&mut self, slot: u64) {
        self.slot = u32::try_from(slot).expect("device blocks fit a u32");
    }

    /// Gives up the page's slot, returning it.
    pub(crate) fn take_slot(&mut self) -> Option<u64> {
        let slot = self.slot();
        self.slot = NONE;
        slot
    }

    /// The page's filesystem block, assigning `next()` on first use.
    pub(crate) fn fs_block_or(&mut self, next: impl FnOnce() -> u64) -> u64 {
        if self.fs_block == NONE {
            self.fs_block = u32::try_from(next()).expect("device blocks fit a u32");
        }
        u64::from(self.fs_block)
    }
}

/// The descriptors of every mapped page, indexed by `vpn − first`.
#[derive(Debug)]
pub(crate) struct Pages {
    first: u64,
    descs: Vec<PageDesc>,
}

impl Pages {
    /// An empty array whose pages will start at `first`.
    pub(crate) fn new(first: Vpn) -> Self {
        Pages {
            first: first.raw(),
            descs: Vec::new(),
        }
    }

    /// Extends the array with untouched pages up to (not including) `end`.
    pub(crate) fn extend_to(&mut self, end: Vpn) {
        let len = (end.raw() - self.first) as usize;
        self.descs.resize(len, PageDesc::UNTOUCHED);
    }
}

impl Index<Vpn> for Pages {
    type Output = PageDesc;

    fn index(&self, vpn: Vpn) -> &PageDesc {
        &self.descs[(vpn.raw() - self.first) as usize]
    }
}

impl IndexMut<Vpn> for Pages {
    fn index_mut(&mut self, vpn: Vpn) -> &mut PageDesc {
        &mut self.descs[(vpn.raw() - self.first) as usize]
    }
}
