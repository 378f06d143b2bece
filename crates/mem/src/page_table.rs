//! A per-process page table.

use std::cell::Cell;
use std::fmt;

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

/// Low VPN bits that pick a slot within a leaf: 512 entries, as in one
/// x86-64 page-table page.
const LEAF_BITS: u32 = 9;
const LEAF_SLOTS: usize = 1 << LEAF_BITS;
/// The memo's "no leaf yet" key. A leaf number is `vpn >> 9`, so no
/// 52-bit VPN (nor any 64-bit one) shifts down to it.
const NO_LEAF: u64 = u64::MAX;
/// What a slot holds while its presence bit is clear. Never returned.
const VACANT: PageTableEntry = PageTableEntry {
    frame: FrameId::ZERO_PAGE,
    flags: PteFlags::EMPTY,
};

/// One last-level table: the translations of 512 consecutive VPNs.
struct Leaf {
    /// `vpn >> LEAF_BITS` of every VPN this leaf covers.
    number: u64,
    /// Bit `s % 64` of word `s / 64` is set while slot `s` translates.
    present: [u64; LEAF_SLOTS / 64],
    entries: [PageTableEntry; LEAF_SLOTS],
}

impl Leaf {
    fn new(number: u64) -> Box<Leaf> {
        Box::new(Leaf {
            number,
            present: [0; LEAF_SLOTS / 64],
            entries: [VACANT; LEAF_SLOTS],
        })
    }

    #[inline]
    fn holds(&self, slot: usize) -> bool {
        self.present[slot / 64] & (1 << (slot % 64)) != 0
    }

    /// The entry in `slot`, if it translates.
    #[inline]
    fn get(&self, slot: usize) -> Option<&PageTableEntry> {
        self.holds(slot).then(|| &self.entries[slot])
    }

    #[inline]
    fn get_mut(&mut self, slot: usize) -> Option<&mut PageTableEntry> {
        self.holds(slot).then(|| &mut self.entries[slot])
    }
}

/// Splits a VPN into its leaf number and its slot within that leaf.
#[inline]
fn split(vpn: Vpn) -> (u64, usize) {
    (
        vpn.raw() >> LEAF_BITS,
        vpn.raw() as usize & (LEAF_SLOTS - 1),
    )
}

/// A sparse page table mapping virtual page numbers to frames.
///
/// This is the structure both fault paths manipulate: the simulated kernel
/// installs and removes translations here, `UFFD_REMAP` rewrites entries to
/// move pages without copying, and the swap subsystem's LRU aging reads and
/// clears the [`PteFlags::REFERENCED`] bit. Every guest access that hits
/// looks its page up here, so a lookup is the whole of a hit's host cost.
///
/// # Layout
///
/// Two levels, like a hardware table. A *directory* maps a leaf number
/// (`vpn >> 9`) to a *leaf*: 512 consecutive 16-byte entries (8 KB) plus
/// a 64-byte presence bitmap. The directory is a hash map, so any 52-bit
/// VPN is valid and nothing is sized by the largest one. A leaf, once
/// allocated, stays: unmapping clears the page's presence bit, and the
/// table costs 8 KB per 512-page span that was ever mapped.
///
/// A one-leaf *memo* remembers the leaf the previous lookup resolved. A
/// lookup in that leaf costs a compare, an index and a bit test; only a
/// lookup in another leaf hashes, into a directory with one entry per
/// 2 MB of mapped guest memory.
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
pub struct PageTable {
    /// Leaf number → index into `leaves`.
    directory: FastMap<u64, usize>,
    leaves: Vec<Box<Leaf>>,
    len: usize,
    /// `(leaf number, index)` of the leaf the last lookup resolved, or
    /// `(NO_LEAF, 0)`.
    memo: Cell<(u64, usize)>,
}

impl Default for PageTable {
    fn default() -> Self {
        PageTable {
            directory: FastMap::default(),
            leaves: Vec::new(),
            len: 0,
            memo: Cell::new((NO_LEAF, 0)),
        }
    }
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The index of leaf `number`, through the memo.
    #[inline]
    fn leaf(&self, number: u64) -> Option<usize> {
        let (memo, at) = self.memo.get();
        if memo == number {
            return Some(at);
        }
        let at = *self.directory.get(&number)?;
        self.memo.set((number, at));
        Some(at)
    }

    /// Installs (or replaces) a translation.
    pub fn map(&mut self, vpn: Vpn, frame: FrameId, flags: PteFlags) {
        let (number, slot) = split(vpn);
        let at = self.leaf(number).unwrap_or_else(|| {
            let at = self.leaves.len();
            self.leaves.push(Leaf::new(number));
            self.directory.insert(number, at);
            self.memo.set((number, at));
            at
        });
        let leaf = &mut self.leaves[at];
        if !leaf.holds(slot) {
            leaf.present[slot / 64] |= 1 << (slot % 64);
            self.len += 1;
        }
        leaf.entries[slot] = PageTableEntry { frame, flags };
    }

    /// Removes a translation, returning the old entry if one existed.
    pub fn unmap(&mut self, vpn: Vpn) -> Option<PageTableEntry> {
        let (number, slot) = split(vpn);
        let at = self.leaf(number)?;
        let leaf = &mut self.leaves[at];
        let entry = *leaf.get(slot)?;
        leaf.present[slot / 64] &= !(1 << (slot % 64));
        self.len -= 1;
        Some(entry)
    }

    /// Looks up a translation.
    #[inline]
    pub fn get(&self, vpn: Vpn) -> Option<&PageTableEntry> {
        let (number, slot) = split(vpn);
        self.leaves[self.leaf(number)?].get(slot)
    }

    /// Mutable lookup.
    #[inline]
    pub fn get_mut(&mut self, vpn: Vpn) -> Option<&mut PageTableEntry> {
        let (number, slot) = split(vpn);
        let at = self.leaf(number)?;
        self.leaves[at].get_mut(slot)
    }

    /// Sets flag bits on an existing entry. Returns `false` if unmapped.
    pub fn set_flags(&mut self, vpn: Vpn, flags: PteFlags) -> bool {
        self.get_mut(vpn).map(|e| e.flags.insert(flags)).is_some()
    }

    /// Clears flag bits on an existing entry. Returns `false` if unmapped.
    pub fn clear_flags(&mut self, vpn: Vpn, flags: PteFlags) -> bool {
        self.get_mut(vpn).map(|e| e.flags.remove(flags)).is_some()
    }

    /// Tests whether an entry has all the given flags set.
    pub fn has_flags(&self, vpn: Vpn, flags: PteFlags) -> bool {
        self.get(vpn).is_some_and(|e| e.flags.contains(flags))
    }

    /// Iterates over `(vpn, entry)` pairs in unspecified order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Vpn, &PageTableEntry)> {
        self.leaves.iter().flat_map(|leaf| {
            (0..LEAF_SLOTS).filter_map(move |slot| {
                let vpn = Vpn::new(leaf.number << LEAF_BITS | slot as u64);
                leaf.get(slot).map(|e| (vpn, e))
            })
        })
    }
}

impl fmt::Debug for PageTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluidmem_sim::prop::{forall_sequences, vec_of};
    use fluidmem_sim::SimRng;

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
        assert_eq!(pt.len, 1);
        assert_eq!(pt.get(Vpn::new(1)).unwrap().frame, f);
        assert!(pt.unmap(Vpn::new(1)).is_some());
        assert!(pt.unmap(Vpn::new(1)).is_none());
        assert_eq!(pt.len, 0);
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

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Map(Vpn, usize, PteFlags),
        Unmap(Vpn),
        Get(Vpn),
        /// `get_mut`, then insert the flags through the reference.
        GetMut(Vpn, PteFlags),
        SetFlags(Vpn, PteFlags),
        ClearFlags(Vpn, PteFlags),
        HasFlags(Vpn, PteFlags),
        Len,
        Iter,
    }

    const FRAMES: usize = 4;

    /// VPNs in two leaves at each of four bases, weighted to the leaf
    /// edges; the bases include VPN 0 and the last 52-bit VPN.
    fn gen_vpn(rng: &mut SimRng) -> Vpn {
        let span = 2 * LEAF_SLOTS as u64;
        let bases = [0, span, 0x10_000, (1 << 52) - span];
        let base = bases[rng.gen_index(4) as usize];
        let offset = match rng.gen_index(6) {
            0 => 0,
            1 => LEAF_SLOTS as u64 - 1,
            2 => LEAF_SLOTS as u64,
            3 => span - 1,
            _ => rng.gen_index(span),
        };
        Vpn::new(base + offset)
    }

    fn gen_flags(rng: &mut SimRng) -> PteFlags {
        let all = [
            PteFlags::PRESENT,
            PteFlags::REFERENCED,
            PteFlags::DIRTY,
            PteFlags::ZERO_PAGE,
            PteFlags::WRITABLE,
            PteFlags::UFFD_REGISTERED,
        ];
        let bits = rng.gen_index(1 << all.len());
        all.iter()
            .enumerate()
            .filter(|(i, _)| bits & (1 << i) != 0)
            .fold(PteFlags::EMPTY, |acc, (_, &f)| acc | f)
    }

    fn gen_op(rng: &mut SimRng) -> Op {
        let vpn = gen_vpn(rng);
        match rng.gen_index(10) {
            0..=2 => Op::Map(vpn, rng.gen_index(FRAMES as u64) as usize, gen_flags(rng)),
            3 => Op::Unmap(vpn),
            4 => Op::Get(vpn),
            5 => Op::GetMut(vpn, gen_flags(rng)),
            6 => Op::SetFlags(vpn, gen_flags(rng)),
            7 => Op::ClearFlags(vpn, gen_flags(rng)),
            8 => Op::HasFlags(vpn, gen_flags(rng)),
            _ => [Op::Len, Op::Iter][rng.gen_index(2) as usize],
        }
    }

    fn sorted(entries: impl Iterator<Item = (Vpn, PageTableEntry)>) -> Vec<(Vpn, PageTableEntry)> {
        let mut v: Vec<_> = entries.collect();
        v.sort_unstable_by_key(|&(vpn, _)| vpn);
        v
    }

    #[test]
    fn prop_two_level_table_matches_a_hash_map_oracle() {
        let frames: Vec<FrameId> = {
            let mut pm = crate::PhysicalMemory::new(FRAMES as u64);
            (0..FRAMES).map(|_| pm.alloc().unwrap()).collect()
        };
        forall_sequences(
            "page-table-matches-hash-map",
            128,
            |rng| vec_of(rng, 1, 200, gen_op),
            |ops| {
                let mut pt = PageTable::new();
                let mut oracle: FastMap<Vpn, PageTableEntry> = FastMap::default();
                for (i, &op) in ops.iter().enumerate() {
                    let (got, want) = match op {
                        Op::Map(vpn, frame, flags) => {
                            pt.map(vpn, frames[frame], flags);
                            let frame = frames[frame];
                            oracle.insert(vpn, PageTableEntry { frame, flags });
                            continue;
                        }
                        Op::Unmap(vpn) => (
                            format!("{:?}", pt.unmap(vpn)),
                            format!("{:?}", oracle.remove(&vpn)),
                        ),
                        Op::Get(vpn) => (
                            format!("{:?}", pt.get(vpn)),
                            format!("{:?}", oracle.get(&vpn)),
                        ),
                        Op::GetMut(vpn, flags) => {
                            let touch = |e: &mut PageTableEntry| {
                                e.flags.insert(flags);
                                *e
                            };
                            (
                                format!("{:?}", pt.get_mut(vpn).map(touch)),
                                format!("{:?}", oracle.get_mut(&vpn).map(touch)),
                            )
                        }
                        Op::SetFlags(vpn, flags) => {
                            let want = oracle.get_mut(&vpn).map(|e| e.flags.insert(flags));
                            (
                                pt.set_flags(vpn, flags).to_string(),
                                want.is_some().to_string(),
                            )
                        }
                        Op::ClearFlags(vpn, flags) => {
                            let want = oracle.get_mut(&vpn).map(|e| e.flags.remove(flags));
                            (
                                pt.clear_flags(vpn, flags).to_string(),
                                want.is_some().to_string(),
                            )
                        }
                        Op::HasFlags(vpn, flags) => (
                            pt.has_flags(vpn, flags).to_string(),
                            oracle
                                .get(&vpn)
                                .is_some_and(|e| e.flags.contains(flags))
                                .to_string(),
                        ),
                        Op::Len => (
                            format!("{} {}", pt.len, pt.len == 0),
                            format!("{} {}", oracle.len(), oracle.is_empty()),
                        ),
                        Op::Iter => (
                            format!("{:?}", sorted(pt.iter().map(|(v, e)| (v, *e)))),
                            format!("{:?}", sorted(oracle.iter().map(|(v, e)| (*v, *e)))),
                        ),
                    };
                    if got != want {
                        return Err(format!("op {i} {op:?}: table {got}, oracle {want}"));
                    }
                }
                let got = sorted(pt.iter().map(|(v, e)| (v, *e)));
                let want = sorted(oracle.iter().map(|(v, e)| (*v, *e)));
                if got != want || pt.len != oracle.len() {
                    return Err(format!("at the end: table {got:?}, oracle {want:?}"));
                }
                Ok(())
            },
        );
    }

    #[test]
    fn remap_replaces_entry() {
        let mut pt = PageTable::new();
        pt.map(Vpn::new(3), frame(0), PteFlags::PRESENT);
        let f2 = frame(1);
        pt.map(Vpn::new(3), f2, PteFlags::PRESENT | PteFlags::DIRTY);
        assert_eq!(pt.get(Vpn::new(3)).unwrap().frame, f2);
        assert_eq!(pt.len, 1);
    }
}
