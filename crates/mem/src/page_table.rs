//! A per-process page table.

use fluidmem_sim::FastMap;

use crate::{FrameId, PteFlags, Vpn};

/// One page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageTableEntry {
    /// The backing host frame.
    pub frame: FrameId,
    /// Flag bits.
    pub flags: PteFlags,
}

impl PageTableEntry {
    /// Whether the entry currently translates (is present).
    pub fn is_present(&self) -> bool {
        self.flags.contains(PteFlags::PRESENT)
    }
}

/// A sparse page table mapping virtual page numbers to frames.
///
/// This is the structure both fault paths manipulate: the simulated kernel
/// installs and removes translations here, `UFFD_REMAP` rewrites entries to
/// move pages without copying, and the swap subsystem's LRU aging reads and
/// clears the [`PteFlags::REFERENCED`] bit.
///
/// # Example
///
/// ```
/// use fluidmem_mem::{FrameId, PageTable, PteFlags, Vpn};
///
/// let mut pt = PageTable::new();
/// let vpn = Vpn::new(0x42);
/// pt.map(vpn, FrameId::ZERO_PAGE, PteFlags::PRESENT | PteFlags::ZERO_PAGE);
/// assert!(pt.get(vpn).unwrap().is_present());
/// let e = pt.unmap(vpn).unwrap();
/// assert_eq!(e.frame, FrameId::ZERO_PAGE);
/// assert!(pt.get(vpn).is_none());
/// ```
#[derive(Debug, Default)]
pub struct PageTable {
    entries: FastMap<Vpn, PageTableEntry>,
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs (or replaces) a translation.
    pub fn map(&mut self, vpn: Vpn, frame: FrameId, flags: PteFlags) {
        self.entries.insert(vpn, PageTableEntry { frame, flags });
    }

    /// Removes a translation, returning the old entry if one existed.
    pub fn unmap(&mut self, vpn: Vpn) -> Option<PageTableEntry> {
        self.entries.remove(&vpn)
    }

    /// Looks up a translation.
    pub fn get(&self, vpn: Vpn) -> Option<&PageTableEntry> {
        self.entries.get(&vpn)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, vpn: Vpn) -> Option<&mut PageTableEntry> {
        self.entries.get_mut(&vpn)
    }

    /// Sets flag bits on an existing entry. Returns `false` if unmapped.
    pub fn set_flags(&mut self, vpn: Vpn, flags: PteFlags) -> bool {
        if let Some(e) = self.entries.get_mut(&vpn) {
            e.flags.insert(flags);
            true
        } else {
            false
        }
    }

    /// Clears flag bits on an existing entry. Returns `false` if unmapped.
    pub fn clear_flags(&mut self, vpn: Vpn, flags: PteFlags) -> bool {
        if let Some(e) = self.entries.get_mut(&vpn) {
            e.flags.remove(flags);
            true
        } else {
            false
        }
    }

    /// Tests whether an entry has all the given flags set.
    pub fn has_flags(&self, vpn: Vpn, flags: PteFlags) -> bool {
        self.entries
            .get(&vpn)
            .map(|e| e.flags.contains(flags))
            .unwrap_or(false)
    }

    /// Number of installed translations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no translations.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(vpn, entry)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&Vpn, &PageTableEntry)> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(n: u64) -> FrameId {
        // FrameId has no public constructor besides ZERO_PAGE; allocate
        // through PhysicalMemory to stay honest.
        let mut pm = crate::PhysicalMemory::new(n + 1);
        let mut last = pm.alloc().unwrap();
        for _ in 0..n {
            last = pm.alloc().unwrap();
        }
        last
    }

    #[test]
    fn map_get_unmap() {
        let mut pt = PageTable::new();
        let f = frame(0);
        pt.map(Vpn::new(1), f, PteFlags::PRESENT);
        assert_eq!(pt.len(), 1);
        assert_eq!(pt.get(Vpn::new(1)).unwrap().frame, f);
        assert!(pt.unmap(Vpn::new(1)).is_some());
        assert!(pt.unmap(Vpn::new(1)).is_none());
        assert!(pt.is_empty());
    }

    #[test]
    fn flags_set_and_clear() {
        let mut pt = PageTable::new();
        pt.map(Vpn::new(2), frame(0), PteFlags::PRESENT);
        assert!(pt.set_flags(Vpn::new(2), PteFlags::DIRTY | PteFlags::REFERENCED));
        assert!(pt.has_flags(Vpn::new(2), PteFlags::DIRTY));
        assert!(pt.clear_flags(Vpn::new(2), PteFlags::REFERENCED));
        assert!(!pt.has_flags(Vpn::new(2), PteFlags::REFERENCED));
        assert!(pt.has_flags(Vpn::new(2), PteFlags::PRESENT | PteFlags::DIRTY));
    }

    #[test]
    fn flags_on_missing_entry_return_false() {
        let mut pt = PageTable::new();
        assert!(!pt.set_flags(Vpn::new(9), PteFlags::DIRTY));
        assert!(!pt.clear_flags(Vpn::new(9), PteFlags::DIRTY));
        assert!(!pt.has_flags(Vpn::new(9), PteFlags::PRESENT));
    }

    #[test]
    fn remap_replaces_entry() {
        let mut pt = PageTable::new();
        pt.map(Vpn::new(3), frame(0), PteFlags::PRESENT);
        let f2 = frame(1);
        pt.map(Vpn::new(3), f2, PteFlags::PRESENT | PteFlags::DIRTY);
        assert_eq!(pt.get(Vpn::new(3)).unwrap().frame, f2);
        assert_eq!(pt.len(), 1);
    }
}
