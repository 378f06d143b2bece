//! Swap-slot allocation.

use fluidmem_mem::Vpn;

/// Allocates 4 KB slots on the swap device and remembers which page owns
/// which slot.
///
/// Mirrors the kernel's swap map: slots are handed out in ascending order
/// (so pages swapped out together get neighboring slots — what makes
/// readahead useful) and freed slots are recycled. The owners are an
/// array indexed by slot, as long as the highest slot handed out; the
/// page → slot direction is the swap backend's page descriptor.
///
/// # Example
///
/// ```
/// use fluidmem_mem::Vpn;
/// use fluidmem_swap::SlotAllocator;
///
/// let mut slots = SlotAllocator::new(100);
/// let s = slots.allocate(Vpn::new(7)).unwrap();
/// assert_eq!(slots.owner_of(s), Some(Vpn::new(7)));
/// assert_eq!(slots.free(s), Some(Vpn::new(7)));
/// assert_eq!(slots.owner_of(s), None);
/// ```
#[derive(Debug, Default)]
pub struct SlotAllocator {
    capacity: u64,
    free_list: Vec<u64>,
    /// The owner of every slot handed out so far, by slot number.
    owners: Vec<Option<Vpn>>,
}

impl SlotAllocator {
    /// Creates an allocator for a device with `capacity` slots.
    pub fn new(capacity: u64) -> Self {
        SlotAllocator {
            capacity,
            ..Default::default()
        }
    }

    /// Slots currently allocated.
    pub fn allocated(&self) -> u64 {
        (self.owners.len() - self.free_list.len()) as u64
    }

    /// Allocates a slot for a page that owns none. `None` when the
    /// device is full.
    pub fn allocate(&mut self, vpn: Vpn) -> Option<u64> {
        if (self.owners.len() as u64) < self.capacity {
            self.owners.push(Some(vpn));
            return Some(self.owners.len() as u64 - 1);
        }
        let slot = self.free_list.pop()?;
        self.owners[slot as usize] = Some(vpn);
        Some(slot)
    }

    /// Releases a slot, returning the page that owned it (`None`, and
    /// nothing freed, if no page did).
    pub fn free(&mut self, slot: u64) -> Option<Vpn> {
        let owner = self.owners.get_mut(slot as usize)?.take()?;
        self.free_list.push(slot);
        Some(owner)
    }

    /// The page owning a slot.
    pub fn owner_of(&self, slot: u64) -> Option<Vpn> {
        self.owners.get(slot as usize).copied().flatten()
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
        assert_eq!(s.free(a), Some(Vpn::new(1)));
        assert_eq!(s.allocate(Vpn::new(3)), Some(0), "slot recycled");
        assert_eq!(s.owner_of(0), Some(Vpn::new(3)));
        assert_eq!(s.allocated(), 2);
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
        assert_eq!(s.free(9), None, "never handed out");
        let a = s.allocate(Vpn::new(1)).unwrap();
        assert_eq!(s.free(a), Some(Vpn::new(1)));
        assert_eq!(s.free(a), None, "already free");
        assert_eq!(s.allocated(), 0);
    }
}
