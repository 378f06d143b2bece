//! Virtual addresses, page numbers, and regions.

use std::fmt;
use std::ops::Add;

use crate::page::PAGE_SIZE;
use crate::page_class::PageClass;

/// A guest-side virtual address.
///
/// In the paper's design the monitor keys remote pages by "the first 52
/// bits of the virtual memory address used by the faulting application"
/// (§IV); [`VirtAddr::vpn`] exposes exactly that 52-bit page number.
///
/// # Example
///
/// ```
/// use fluidmem_mem::{VirtAddr, Vpn};
///
/// let a = VirtAddr::new(0x1234_5678);
/// assert_eq!(a.vpn(), Vpn::new(0x1234_5678 >> 12));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(u64);

impl VirtAddr {
    /// Creates an address from its raw 64-bit value.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        VirtAddr(raw)
    }

    /// The 52-bit virtual page number containing this address.
    #[inline]
    pub const fn vpn(self) -> Vpn {
        Vpn(self.0 >> 12)
    }
}

impl Add<u64> for VirtAddr {
    type Output = VirtAddr;
    #[inline]
    fn add(self, rhs: u64) -> VirtAddr {
        VirtAddr(self.0 + rhs)
    }
}

impl From<u64> for VirtAddr {
    fn from(raw: u64) -> Self {
        VirtAddr(raw)
    }
}

impl fmt::Debug for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VirtAddr({:#x})", self.0)
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// A 52-bit virtual page number.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Vpn(u64);

impl Vpn {
    /// Creates a page number from its raw value.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Vpn(raw)
    }

    /// The raw page number.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The base address of this page.
    #[inline]
    pub(crate) const fn base_addr(self) -> VirtAddr {
        VirtAddr(self.0 << 12)
    }

    /// The page `n` pages after this one.
    #[inline]
    pub const fn offset(self, n: u64) -> Vpn {
        Vpn(self.0 + n)
    }
}

impl fmt::Debug for Vpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Vpn({:#x})", self.0)
    }
}

impl fmt::Display for Vpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vpn:{:#x}", self.0)
    }
}

/// A contiguous run of same-class pages in a guest address space.
///
/// Regions are what a [`MemoryBackend`](crate::MemoryBackend) hands out
/// from `map_region` and what the FluidMem monitor registers with
/// userfaultfd.
///
/// # Example
///
/// ```
/// use fluidmem_mem::{PageClass, Region, Vpn};
///
/// let r = Region::new(Vpn::new(0x100), 16, PageClass::Anonymous);
/// assert_eq!(r.pages(), 16);
/// assert!(r.contains(Vpn::new(0x10f)));
/// assert!(!r.contains(Vpn::new(0x110)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Region {
    start: Vpn,
    pages: u64,
    class: PageClass,
}

impl Region {
    /// Creates a region starting at `start` spanning `pages` pages.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is zero.
    pub fn new(start: Vpn, pages: u64, class: PageClass) -> Self {
        assert!(pages > 0, "region must span at least one page");
        Region {
            start,
            pages,
            class,
        }
    }

    /// First page of the region.
    pub fn start(&self) -> Vpn {
        self.start
    }

    /// One past the last page of the region.
    pub fn end(&self) -> Vpn {
        self.start.offset(self.pages)
    }

    /// Number of pages.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// Region size in bytes.
    pub(crate) fn bytes(&self) -> u64 {
        self.pages * PAGE_SIZE as u64
    }

    /// The page class of every page in the region.
    pub fn class(&self) -> PageClass {
        self.class
    }

    /// Whether `vpn` falls inside the region.
    pub fn contains(&self, vpn: Vpn) -> bool {
        vpn >= self.start && vpn < self.end()
    }

    /// The base address of the `i`-th page.
    ///
    /// # Panics
    ///
    /// Panics if `i >= pages()`.
    pub fn page(&self, i: u64) -> VirtAddr {
        assert!(i < self.pages, "page index {i} out of {}", self.pages);
        self.start.offset(i).base_addr()
    }

    /// The address `byte_offset` bytes into the region.
    ///
    /// # Panics
    ///
    /// Panics if the offset is past the end of the region.
    pub fn addr_at(&self, byte_offset: u64) -> VirtAddr {
        assert!(byte_offset < self.bytes(), "offset past end of region");
        self.start.base_addr() + byte_offset
    }

    /// Iterates over the page numbers in the region.
    pub fn iter_pages(&self) -> impl Iterator<Item = Vpn> + '_ {
        (0..self.pages).map(move |i| self.start.offset(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vpn_addr_round_trip() {
        let a = VirtAddr::new(0xdead_b000 + 0xeef);
        assert_eq!(a.vpn().base_addr(), VirtAddr::new(0xdead_b000));
    }

    #[test]
    fn region_bounds() {
        let r = Region::new(Vpn::new(10), 5, PageClass::Anonymous);
        assert!(r.contains(Vpn::new(10)));
        assert!(r.contains(Vpn::new(14)));
        assert!(!r.contains(Vpn::new(15)));
        assert!(!r.contains(Vpn::new(9)));
        assert_eq!(r.end(), Vpn::new(15));
    }

    #[test]
    fn region_page_addressing() {
        let r = Region::new(Vpn::new(2), 3, PageClass::FileBacked);
        assert_eq!(r.page(0), VirtAddr::new(2 * 4096));
        assert_eq!(r.page(2), VirtAddr::new(4 * 4096));
        assert_eq!(r.addr_at(4100), VirtAddr::new(2 * 4096 + 4100));
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn empty_region_rejected() {
        Region::new(Vpn::new(0), 0, PageClass::Anonymous);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn page_index_out_of_bounds() {
        Region::new(Vpn::new(0), 2, PageClass::Anonymous).page(2);
    }

    #[test]
    fn iter_pages_covers_region() {
        let r = Region::new(Vpn::new(100), 4, PageClass::KernelData);
        let pages: Vec<Vpn> = r.iter_pages().collect();
        assert_eq!(
            pages,
            vec![Vpn::new(100), Vpn::new(101), Vpn::new(102), Vpn::new(103)]
        );
    }
}
