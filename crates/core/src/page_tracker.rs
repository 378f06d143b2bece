//! The page tracker: FluidMem's "already seen" hash.

use fluidmem_mem::{PageArray, Vpn};

/// The monitor's hash of pages it has seen before.
///
/// Userfaultfd "is invoked on the first page fault of every page, giving
/// the user space page fault handler the ability to identify all pages
/// belonging to a VM" (§III). The tracker turns that into the
/// *pagetracker* fast path of Figure 2: a fault on an unseen page is
/// resolved with `UFFD_ZEROPAGE` and **no remote read**, because nothing
/// was ever stored for it.
///
/// Storage is one contiguous bitmap: a [`PageArray`] of 64-bit words,
/// word `vpn / 64` holding page `vpn`'s bit. VM regions are contiguous
/// VPN ranges, so membership is an array index plus a bit test at one
/// bit per page of the span, and unregistering a region
/// (`remove_range`) masks only that region's words.
///
/// # Example
///
/// ```
/// use fluidmem_core::PageTracker;
/// use fluidmem_mem::Vpn;
///
/// let mut tracker = PageTracker::new();
/// assert!(!tracker.contains(Vpn::new(5)));
/// tracker.insert(Vpn::new(5));
/// assert!(tracker.contains(Vpn::new(5)));
/// ```
#[derive(Debug, Default)]
pub struct PageTracker {
    words: PageArray<u64>,
    len: usize,
}

/// Splits a VPN into (word number, bit mask).
fn locate(vpn: Vpn) -> (Vpn, u64) {
    (Vpn::new(vpn.raw() / 64), 1u64 << (vpn.raw() % 64))
}

impl PageTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the page has been seen before.
    pub fn contains(&self, vpn: Vpn) -> bool {
        let (word, mask) = locate(vpn);
        self.words.get(word).is_some_and(|w| w & mask != 0)
    }

    /// Marks a page as seen. Returns `false` if it was already tracked.
    pub fn insert(&mut self, vpn: Vpn) -> bool {
        let (word, mask) = locate(vpn);
        let bits = self.words.slot_mut(word);
        if *bits & mask != 0 {
            return false;
        }
        *bits |= mask;
        self.len += 1;
        true
    }

    /// Forgets every tracked page with `start <= vpn < end` (a region
    /// unregister); returns how many were removed. Visits only the words
    /// of the range inside the bitmap, masking the two edge words.
    pub(crate) fn remove_range(&mut self, start: Vpn, end: Vpn) -> usize {
        if start >= end {
            return 0;
        }
        let (lo, hi) = (start.raw(), end.raw());
        let words = self
            .words
            .range_mut(Vpn::new(lo / 64), Vpn::new((hi - 1) / 64 + 1));
        let mut removed = 0;
        for (word, bits) in words {
            let first = word.raw() * 64;
            let mut mask = u64::MAX;
            if lo > first {
                mask &= u64::MAX << (lo - first);
            }
            if hi < first + 64 {
                mask &= (1u64 << (hi - first)) - 1;
            }
            removed += (*bits & mask).count_ones() as usize;
            *bits &= !mask;
        }
        self.len -= removed;
        removed
    }

    /// Exports the tracked set (for live migration), in address order.
    pub(crate) fn export(&self) -> Vec<Vpn> {
        let mut out = Vec::with_capacity(self.len);
        for (word, &bits) in self.words.iter() {
            let mut bits = bits;
            while bits != 0 {
                out.push(Vpn::new(word.raw() * 64 + u64::from(bits.trailing_zeros())));
                bits &= bits - 1;
            }
        }
        out
    }

    /// Number of tracked pages.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Words in the bitmap (the tracker's standing memory footprint).
    pub(crate) fn bitmap_words(&self) -> usize {
        self.words.span()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The spacing of the property's page windows.
    const CHUNK_PAGES: u64 = 4096;

    #[test]
    fn insert_is_idempotent() {
        let mut t = PageTracker::new();
        assert!(t.insert(Vpn::new(1)));
        assert!(!t.insert(Vpn::new(1)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn remove_range_handles_word_edges() {
        let mut t = PageTracker::new();
        // Two populations with ragged edges: 4000..4100 and 12_000..12_300.
        for n in 4000..4100 {
            t.insert(Vpn::new(n));
        }
        for n in 12_000..12_300 {
            t.insert(Vpn::new(n));
        }
        // Remove a window that clips both edges of the first population.
        assert_eq!(t.remove_range(Vpn::new(4050), Vpn::new(4090)), 40);
        assert!(t.contains(Vpn::new(4049)));
        assert!(!t.contains(Vpn::new(4050)));
        assert!(!t.contains(Vpn::new(4089)));
        assert!(t.contains(Vpn::new(4090)));
        // Remove the second population entirely (interior words cleared
        // whole, edge words masked).
        assert_eq!(t.remove_range(Vpn::new(12_000), Vpn::new(12_300)), 300);
        assert_eq!(t.len(), 60);
        assert_eq!(t.remove_range(Vpn::new(0), Vpn::new(u64::MAX / 2)), 60);
        assert_eq!(t.len(), 0);
        assert!(t.export().is_empty());
        // One bit per page up to the highest page ever tracked.
        assert_eq!(t.bitmap_words(), 12_299 / 64 + 1);
    }

    #[test]
    fn empty_and_inverted_ranges_are_noops() {
        let mut t = PageTracker::new();
        t.insert(Vpn::new(7));
        assert_eq!(t.remove_range(Vpn::new(9), Vpn::new(9)), 0);
        assert_eq!(t.remove_range(Vpn::new(9), Vpn::new(3)), 0);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn export_is_sorted_and_complete() {
        let mut t = PageTracker::new();
        for n in [90_000u64, 5, 4096, 3, 70_000, 4095] {
            t.insert(Vpn::new(n));
        }
        let exported = t.export();
        assert_eq!(
            exported,
            vec![
                Vpn::new(3),
                Vpn::new(5),
                Vpn::new(4095),
                Vpn::new(4096),
                Vpn::new(70_000),
                Vpn::new(90_000)
            ]
        );
    }

    #[test]
    fn bitmap_matches_the_hashset_implementation() {
        // Randomized traffic against the old HashSet implementation:
        // membership, insert/remove results, length, and the sorted
        // export must be identical.
        fluidmem_sim::prop::forall("tracker-bitmap-vs-hashset", 4, |rng| {
            let mut bitmap = PageTracker::new();
            let mut set: std::collections::HashSet<u64> = std::collections::HashSet::new();
            for _ in 0..2_000 {
                // A few dense windows, far apart.
                let page = rng.gen_index(4) * CHUNK_PAGES + rng.gen_index(80);
                let vpn = Vpn::new(page);
                match rng.gen_index(5) {
                    0..=2 => assert_eq!(bitmap.insert(vpn), set.insert(page)),
                    3 => {
                        let removed = bitmap.remove_range(vpn, Vpn::new(page + 1)) == 1;
                        assert_eq!(removed, set.remove(&page));
                    }
                    _ => {
                        // Range removal vs the equivalent set retain.
                        let lo = rng.gen_index(4) * CHUNK_PAGES;
                        let hi = lo + rng.gen_index(2 * CHUNK_PAGES);
                        let before = set.len();
                        set.retain(|&p| p < lo || p >= hi);
                        assert_eq!(
                            bitmap.remove_range(Vpn::new(lo), Vpn::new(hi)),
                            before - set.len()
                        );
                    }
                }
                assert_eq!(bitmap.contains(vpn), set.contains(&page));
                assert_eq!(bitmap.len(), set.len());
            }
            let mut expected: Vec<u64> = set.into_iter().collect();
            expected.sort_unstable();
            let exported: Vec<u64> = bitmap.export().iter().map(|v| v.raw()).collect();
            assert_eq!(exported, expected);
        });
    }
}
