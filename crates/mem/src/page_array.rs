//! Tables keyed by page number, stored densely.

use std::ops::{Index, IndexMut};

use crate::addr::Vpn;

/// The first page written starts the span at its multiple of this.
const ALIGN: u64 = 4096;

/// One value per page of a span, in one `Vec`: page `vpn`'s value is
/// slot `vpn − base`, so a per-page table is an offset away from its
/// value, with no hash and no probe.
///
/// A VM's pages are a few contiguous regions. The span starts at the
/// first page written rounded down to a multiple of 4096, so a region
/// that starts there never grows it below. Writing outside the span
/// grows it: geometrically past the highest page, and by at least the
/// span's length below the lowest. Unwritten slots hold `T::default()`,
/// and [`clear`](PageArray::clear) keeps the storage.
///
/// # Example
///
/// ```
/// use fluidmem_mem::{PageArray, Vpn};
///
/// let mut seen: PageArray<Option<u32>> = PageArray::default();
/// *seen.slot_mut(Vpn::new(0x10_004)) = Some(7);
/// *seen.slot_mut(Vpn::new(0xF_FF0)) = Some(9); // below the span
/// assert_eq!(seen.get(Vpn::new(0x10_004)), Some(&Some(7)));
/// assert_eq!(seen.get(Vpn::new(0x10_002)), Some(&None));
/// assert_eq!(seen.get(Vpn::new(0x20_000)), None); // past the span
/// ```
#[derive(Debug, Default)]
pub struct PageArray<T> {
    base: u64,
    slots: Vec<T>,
}

impl<T> PageArray<T> {
    /// The slot of `vpn`, or `None` outside the span.
    #[inline]
    pub fn get(&self, vpn: Vpn) -> Option<&T> {
        self.slots.get(vpn.raw().wrapping_sub(self.base) as usize)
    }

    /// The slot of `vpn` for update, or `None` outside the span.
    #[inline]
    pub fn get_mut(&mut self, vpn: Vpn) -> Option<&mut T> {
        self.slots
            .get_mut(vpn.raw().wrapping_sub(self.base) as usize)
    }

    /// Every slot of the span with its page, in page order.
    pub fn iter(&self) -> impl Iterator<Item = (Vpn, &T)> + '_ {
        (self.base..).map(Vpn::new).zip(&self.slots)
    }

    /// The slots of the pages of `start..end` inside the span, with
    /// their pages, in page order.
    pub fn range_mut(&mut self, start: Vpn, end: Vpn) -> impl Iterator<Item = (Vpn, &mut T)> + '_ {
        let clamp = |vpn: Vpn| vpn.raw().saturating_sub(self.base) as usize;
        let end = clamp(end).min(self.slots.len());
        let start = clamp(start).min(end);
        let pages = (self.base + start as u64..).map(Vpn::new);
        pages.zip(&mut self.slots[start..end])
    }

    /// Slots in the span, written or not.
    pub fn span(&self) -> usize {
        self.slots.len()
    }

    /// Empties the span, keeping the storage.
    #[cfg(test)]
    fn clear(&mut self) {
        self.slots.clear();
    }
}

impl<T: Default> PageArray<T> {
    /// The slot of `vpn`, growing the span to cover it.
    pub fn slot_mut(&mut self, vpn: Vpn) -> &mut T {
        if self.slots.is_empty() {
            self.base = vpn.raw() & !(ALIGN - 1);
        } else if vpn.raw() < self.base {
            let len = self.slots.len() as u64;
            let base = vpn.raw().min(self.base.saturating_sub(len));
            let grow = std::iter::repeat_with(T::default).take((self.base - base) as usize);
            self.slots.splice(0..0, grow);
            self.base = base;
        }
        let i = (vpn.raw() - self.base) as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, T::default); // reserves geometrically
        }
        &mut self.slots[i]
    }
}

/// Panics outside the span.
impl<T> Index<Vpn> for PageArray<T> {
    type Output = T;

    fn index(&self, vpn: Vpn) -> &T {
        self.get(vpn).expect("page inside the array's span")
    }
}

impl<T> IndexMut<Vpn> for PageArray<T> {
    fn index_mut(&mut self, vpn: Vpn) -> &mut T {
        self.get_mut(vpn).expect("page inside the array's span")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u64, u32),
        Remove(u64),
        Get(u64),
        Clear,
    }

    /// Replays `ops` on an array and on a `BTreeMap`, comparing every
    /// answer and, after each op, the ordered contents.
    fn replay(ops: &[Op]) -> Result<(), String> {
        let mut array: PageArray<Option<u32>> = PageArray::default();
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();
        for (step, op) in ops.iter().enumerate() {
            let (got, want) = match *op {
                Op::Insert(page, value) => (
                    array.slot_mut(Vpn::new(page)).replace(value),
                    model.insert(page, value),
                ),
                Op::Remove(page) => (
                    array.get_mut(Vpn::new(page)).and_then(Option::take),
                    model.remove(&page),
                ),
                Op::Get(page) => (
                    array.get(Vpn::new(page)).copied().flatten(),
                    model.get(&page).copied(),
                ),
                Op::Clear => {
                    array.clear();
                    model.clear();
                    (None, None)
                }
            };
            if got != want {
                return Err(format!("step {step} {op:?}: array {got:?}, model {want:?}"));
            }
            let listed: Vec<(u64, u32)> = array
                .iter()
                .filter_map(|(vpn, v)| v.map(|v| (vpn.raw(), v)))
                .collect();
            let expected: Vec<(u64, u32)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            if listed != expected {
                return Err(format!("step {step} {op:?}: array lists {listed:?}"));
            }
        }
        Ok(())
    }

    #[test]
    fn page_array_matches_a_btreemap() {
        fluidmem_sim::prop::forall_sequences(
            "page-array-vs-btreemap",
            64,
            |rng| {
                // Two windows either side of a multiple of 4096, so
                // writes land below the span, above it, and in the gap.
                fluidmem_sim::prop::vec_of(rng, 1, 300, |r| {
                    let page = 0xF_F00 + r.gen_index(2) * 500 + r.gen_index(96);
                    match r.gen_index(20) {
                        0 => Op::Clear,
                        1..=8 => Op::Insert(page, r.gen_index(1 << 20) as u32),
                        9..=13 => Op::Remove(page),
                        _ => Op::Get(page),
                    }
                })
            },
            replay,
        );
    }

    #[test]
    fn growth_below_is_geometric_and_clear_keeps_storage() {
        let mut array: PageArray<u8> = PageArray::default();
        *array.slot_mut(Vpn::new(40_000)) = 1;
        let span = array.span();
        assert_eq!(span, 40_000 - 9 * 4096 + 1, "starts at a multiple of 4096");
        *array.slot_mut(Vpn::new(9 * 4096 - 1)) = 1;
        assert_eq!(array.span(), 2 * span, "growth below doubles the span");
        for page in (0..9 * 4096).rev() {
            *array.slot_mut(Vpn::new(page)) = 1;
        }
        assert_eq!(array.span(), 40_001);
        let capacity = array.slots.capacity();
        assert!(capacity < 2 * 40_001);
        array.clear();
        assert_eq!((array.span(), array.slots.capacity()), (0, capacity));
        *array.slot_mut(Vpn::new(4103)) = 2;
        let written: Vec<_> = array.iter().filter(|(_, &v)| v != 0).collect();
        assert_eq!(written, vec![(Vpn::new(4103), &2)]);
        assert_eq!(array.get(Vpn::new(4095)), None, "below the new span");
    }
}
