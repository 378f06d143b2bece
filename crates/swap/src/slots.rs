//! Swap-slot allocation.

use fluidmem_mem::Vpn;
use fluidmem_sim::FastMap;

/// Allocates 4 KB slots on the swap device and remembers which page owns
/// which slot.
///
/// Mirrors the kernel's swap map: slots are handed out in ascending order
/// (so pages swapped out together get neighboring slots — what makes
/// readahead useful), freed slots are recycled, and a page that came back
/// in *clean* keeps its slot so a later eviction needs no second write.
///
/// # Example
///
/// ```
/// use fluidmem_mem::Vpn;
/// use fluidmem_swap::SlotAllocator;
///
/// let mut slots = SlotAllocator::new(100);
/// let s = slots.allocate(Vpn::new(7)).unwrap();
/// assert_eq!(slots.slot_of(Vpn::new(7)), Some(s));
/// assert_eq!(slots.owner_of(s), Some(Vpn::new(7)));
/// slots.free(Vpn::new(7));
/// assert_eq!(slots.slot_of(Vpn::new(7)), None);
/// ```
#[derive(Debug, Default)]
pub struct SlotAllocator {
    capacity: u64,
    next: u64,
    free_list: Vec<u64>,
    by_vpn: FastMap<Vpn, u64>,
    by_slot: FastMap<u64, Vpn>,
}

impl SlotAllocator {
    /// Creates an allocator for a device with `capacity` slots.
    pub fn new(capacity: u64) -> Self {
        SlotAllocator {
            capacity,
            ..Default::default()
        }
    }

    /// Device capacity in slots.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Slots currently allocated.
    pub fn allocated(&self) -> u64 {
        self.by_vpn.len() as u64
    }

    /// Allocates (or returns the existing) slot for a page. `None` when
    /// the device is full.
    pub fn allocate(&mut self, vpn: Vpn) -> Option<u64> {
        if let Some(&slot) = self.by_vpn.get(&vpn) {
            return Some(slot);
        }
        let slot = if self.next < self.capacity {
            let s = self.next;
            self.next += 1;
            s
        } else {
            self.free_list.pop()?
        };
        self.by_vpn.insert(vpn, slot);
        self.by_slot.insert(slot, vpn);
        Some(slot)
    }

    /// Releases a page's slot, if any.
    pub fn free(&mut self, vpn: Vpn) -> Option<u64> {
        let slot = self.by_vpn.remove(&vpn)?;
        self.by_slot.remove(&slot);
        self.free_list.push(slot);
        Some(slot)
    }

    /// The slot a page owns.
    pub fn slot_of(&self, vpn: Vpn) -> Option<u64> {
        self.by_vpn.get(&vpn).copied()
    }

    /// The page owning a slot.
    pub fn owner_of(&self, slot: u64) -> Option<Vpn> {
        self.by_slot.get(&slot).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascending_then_recycled() {
        let mut s = SlotAllocator::new(2);
        let a = s.allocate(Vpn::new(1)).unwrap();
        let b = s.allocate(Vpn::new(2)).unwrap();
        assert_eq!((a, b), (0, 1));
        assert_eq!(s.allocate(Vpn::new(3)), None, "device full");
        s.free(Vpn::new(1));
        assert_eq!(s.allocate(Vpn::new(3)), Some(0), "slot recycled");
    }

    #[test]
    fn allocate_is_idempotent_per_page() {
        let mut s = SlotAllocator::new(4);
        let a = s.allocate(Vpn::new(1)).unwrap();
        assert_eq!(s.allocate(Vpn::new(1)), Some(a));
        assert_eq!(s.allocated(), 1);
    }

    #[test]
    fn neighbors_get_neighboring_slots() {
        let mut s = SlotAllocator::new(16);
        for n in 0..8 {
            assert_eq!(s.allocate(Vpn::new(100 + n)), Some(n));
        }
    }

    #[test]
    fn free_unknown_is_none() {
        let mut s = SlotAllocator::new(4);
        assert_eq!(s.free(Vpn::new(9)), None);
    }
}
