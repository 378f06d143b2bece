//! The page tracker: FluidMem's "already seen" hash.

use std::collections::BTreeMap;

use fluidmem_mem::Vpn;

/// Pages per bitmap chunk (64 words × 64 bits).
const CHUNK_PAGES: u64 = 4096;
/// Words per chunk.
const CHUNK_WORDS: usize = 64;

/// One chunk of the tracked-page bitmap: a fixed 4096-page window of the
/// address space with a live-bit count.
#[derive(Debug)]
struct Chunk {
    words: Box<[u64; CHUNK_WORDS]>,
    live: u32,
}

impl Chunk {
    fn new() -> Self {
        Chunk {
            words: Box::new([0; CHUNK_WORDS]),
            live: 0,
        }
    }
}

/// The monitor's hash of pages it has seen before.
///
/// Userfaultfd "is invoked on the first page fault of every page, giving
/// the user space page fault handler the ability to identify all pages
/// belonging to a VM" (§III). The tracker turns that into the
/// *pagetracker* fast path of Figure 2: a fault on an unseen page is
/// resolved with `UFFD_ZEROPAGE` and **no remote read**, because nothing
/// was ever stored for it.
///
/// Storage is a map of 4096-page bitmap chunks keyed by `vpn / 4096`.
/// VM regions are contiguous VPN ranges, so a region's pages land in a
/// handful of adjacent chunks: membership is one map lookup plus a bit
/// test, dense populations cost one bit per page instead of a hash
/// entry, and unregistering a region ([`remove_range`]) drops whole
/// chunks without visiting other regions' pages.
///
/// [`remove_range`]: PageTracker::remove_range
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
    chunks: BTreeMap<u64, Chunk>,
    len: usize,
}

/// Splits a VPN into (chunk key, word index, bit mask).
fn locate(vpn: Vpn) -> (u64, usize, u64) {
    let raw = vpn.raw();
    let key = raw / CHUNK_PAGES;
    let offset = raw % CHUNK_PAGES;
    let word = (offset / 64) as usize;
    let mask = 1u64 << (offset % 64);
    (key, word, mask)
}

impl PageTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the page has been seen before.
    pub fn contains(&self, vpn: Vpn) -> bool {
        let (key, word, mask) = locate(vpn);
        self.chunks
            .get(&key)
            .is_some_and(|c| c.words[word] & mask != 0)
    }

    /// Marks a page as seen. Returns `false` if it was already tracked.
    pub fn insert(&mut self, vpn: Vpn) -> bool {
        let (key, word, mask) = locate(vpn);
        let chunk = self.chunks.entry(key).or_insert_with(Chunk::new);
        if chunk.words[word] & mask != 0 {
            return false;
        }
        chunk.words[word] |= mask;
        chunk.live += 1;
        self.len += 1;
        true
    }

    /// Forgets a page (its VM's region was unregistered).
    pub fn remove(&mut self, vpn: Vpn) -> bool {
        let (key, word, mask) = locate(vpn);
        let Some(chunk) = self.chunks.get_mut(&key) else {
            return false;
        };
        if chunk.words[word] & mask == 0 {
            return false;
        }
        chunk.words[word] &= !mask;
        chunk.live -= 1;
        self.len -= 1;
        if chunk.live == 0 {
            self.chunks.remove(&key);
        }
        true
    }

    /// Forgets every tracked page with `start <= vpn < end` (a region
    /// unregister); returns how many were removed. Interior chunks are
    /// dropped whole; only the two edge chunks are masked bit-by-word —
    /// the cost is O(chunks in range), independent of how many pages
    /// other regions track.
    pub fn remove_range(&mut self, start: Vpn, end: Vpn) -> usize {
        if start >= end {
            return 0;
        }
        let (first_key, _, _) = locate(start);
        let last_raw = end.raw() - 1;
        let last_key = last_raw / CHUNK_PAGES;
        let mut removed = 0;
        let doomed: Vec<u64> = self
            .chunks
            .range(first_key..=last_key)
            .map(|(&k, _)| k)
            .collect();
        for key in doomed {
            let chunk_start = key * CHUNK_PAGES;
            let chunk = self.chunks.get_mut(&key).expect("key just ranged");
            if start.raw() <= chunk_start && chunk_start + CHUNK_PAGES <= end.raw() {
                // Fully covered: drop the whole chunk.
                removed += chunk.live as usize;
                self.chunks.remove(&key);
                continue;
            }
            // Edge chunk: mask out the covered words.
            let lo = start.raw().max(chunk_start) - chunk_start;
            let hi = end.raw().min(chunk_start + CHUNK_PAGES) - chunk_start;
            for word in (lo / 64)..=((hi - 1) / 64) {
                let word_start = word * 64;
                let mut mask = u64::MAX;
                if lo > word_start {
                    mask &= u64::MAX << (lo - word_start);
                }
                if hi < word_start + 64 {
                    mask &= (1u64 << (hi - word_start)) - 1;
                }
                let cleared = (chunk.words[word as usize] & mask).count_ones();
                chunk.words[word as usize] &= !mask;
                chunk.live -= cleared;
                removed += cleared as usize;
            }
            if chunk.live == 0 {
                self.chunks.remove(&key);
            }
        }
        self.len -= removed;
        removed
    }

    /// Exports the tracked set (for live migration). Chunks are keyed in
    /// address order, so the export is naturally sorted.
    pub fn export(&self) -> Vec<Vpn> {
        let mut out = Vec::with_capacity(self.len);
        for (&key, chunk) in &self.chunks {
            for word in 0..CHUNK_WORDS {
                let mut bits = chunk.words[word];
                while bits != 0 {
                    let bit = bits.trailing_zeros() as u64;
                    bits &= bits - 1;
                    out.push(Vpn::new(key * CHUNK_PAGES + word as u64 * 64 + bit));
                }
            }
        }
        out
    }

    /// Number of tracked pages.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no pages are tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bitmap chunks currently allocated (the tracker's standing memory
    /// footprint: ~512 bytes per populated 4096-page window).
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_is_idempotent() {
        let mut t = PageTracker::new();
        assert!(t.insert(Vpn::new(1)));
        assert!(!t.insert(Vpn::new(1)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn remove_range_handles_chunk_edges() {
        let mut t = PageTracker::new();
        // Pages straddling three chunks: 4000..4100 and 12_000..12_300.
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
        // Remove the second population entirely (interior chunk dropped
        // whole, edge chunks masked).
        assert_eq!(t.remove_range(Vpn::new(12_000), Vpn::new(12_300)), 300);
        assert_eq!(t.len(), 60);
        assert_eq!(t.remove_range(Vpn::new(0), Vpn::new(u64::MAX / 2)), 60);
        assert!(t.is_empty());
        assert_eq!(t.chunk_count(), 0);
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
                // Spread across chunk boundaries: a few dense windows.
                let page = rng.gen_index(4) * CHUNK_PAGES + rng.gen_index(80);
                let vpn = Vpn::new(page);
                match rng.gen_index(5) {
                    0..=2 => assert_eq!(bitmap.insert(vpn), set.insert(page)),
                    3 => assert_eq!(bitmap.remove(vpn), set.remove(&page)),
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
