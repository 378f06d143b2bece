//! The swap backend's per-page descriptors.

use fluidmem_mem::{FrameId, Linked, PageArray};
use fluidmem_sim::SimInstant;

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
}

/// An untouched page.
impl Default for PageDesc {
    fn default() -> Self {
        PageDesc {
            slot: NONE,
            fs_block: NONE,
            location: Location::Resident,
        }
    }
}

impl PageDesc {
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

/// The descriptors of every mapped page, each linked on the two-list
/// LRU while its page is mapped.
pub(crate) type Pages = PageArray<Linked<PageDesc>>;
