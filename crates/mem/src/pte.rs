//! Page-table entry flags.

use std::fmt;
use std::ops::{BitAnd, BitOr, BitOrAssign};

/// Flag bits carried by a [`PageTableEntry`](crate::PageTableEntry).
///
/// A hand-rolled bitflag newtype (the reproduction's dependency set does
/// not include the `bitflags` crate).
///
/// # Example
///
/// ```
/// use fluidmem_mem::PteFlags;
///
/// let mut f = PteFlags::PRESENT | PteFlags::REFERENCED;
/// assert!(f.contains(PteFlags::PRESENT));
/// f.insert(PteFlags::DIRTY);
/// assert!(f.contains(PteFlags::DIRTY | PteFlags::REFERENCED));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PteFlags(u16);

impl PteFlags {
    /// No flags set.
    pub(crate) const EMPTY: PteFlags = PteFlags(0);
    /// The translation is valid and backed by a frame.
    pub const PRESENT: PteFlags = PteFlags(1 << 0);
    /// Hardware-set "accessed" bit; the kernel's LRU aging clears and
    /// re-samples it.
    pub const REFERENCED: PteFlags = PteFlags(1 << 1);
    /// The page has been written since it was last cleaned.
    pub const DIRTY: PteFlags = PteFlags(1 << 2);
    /// The entry maps the shared copy-on-write zero page.
    pub const ZERO_PAGE: PteFlags = PteFlags(1 << 3);
    /// The page may be written.
    pub const WRITABLE: PteFlags = PteFlags(1 << 4);
    /// The page is registered with a userfaultfd region.
    pub const UFFD_REGISTERED: PteFlags = PteFlags(1 << 5);

    /// Whether every bit in `other` is set in `self`.
    #[inline]
    pub const fn contains(self, other: PteFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Sets the bits in `other`.
    #[inline]
    pub fn insert(&mut self, other: PteFlags) {
        self.0 |= other.0;
    }

    /// Clears the bits in `other`.
    #[inline]
    pub(crate) fn remove(&mut self, other: PteFlags) {
        self.0 &= !other.0;
    }
}

impl BitOr for PteFlags {
    type Output = PteFlags;
    #[inline]
    fn bitor(self, rhs: PteFlags) -> PteFlags {
        PteFlags(self.0 | rhs.0)
    }
}

impl BitOrAssign for PteFlags {
    #[inline]
    fn bitor_assign(&mut self, rhs: PteFlags) {
        self.0 |= rhs.0;
    }
}

impl BitAnd for PteFlags {
    type Output = PteFlags;
    #[inline]
    fn bitand(self, rhs: PteFlags) -> PteFlags {
        PteFlags(self.0 & rhs.0)
    }
}

impl fmt::Debug for PteFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names = Vec::new();
        for (flag, name) in [
            (PteFlags::PRESENT, "PRESENT"),
            (PteFlags::REFERENCED, "REFERENCED"),
            (PteFlags::DIRTY, "DIRTY"),
            (PteFlags::ZERO_PAGE, "ZERO_PAGE"),
            (PteFlags::WRITABLE, "WRITABLE"),
            (PteFlags::UFFD_REGISTERED, "UFFD_REGISTERED"),
        ] {
            if self.contains(flag) {
                names.push(name);
            }
        }
        if names.is_empty() {
            write!(f, "PteFlags(EMPTY)")
        } else {
            write!(f, "PteFlags({})", names.join("|"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut f = PteFlags::EMPTY;
        assert_eq!(f, PteFlags::EMPTY);
        f.insert(PteFlags::PRESENT | PteFlags::WRITABLE);
        assert!(f.contains(PteFlags::PRESENT));
        assert!(f.contains(PteFlags::PRESENT | PteFlags::WRITABLE));
        assert!(!f.contains(PteFlags::DIRTY));
        f.remove(PteFlags::WRITABLE);
        assert!(!f.contains(PteFlags::WRITABLE));
        assert!(f.contains(PteFlags::PRESENT));
    }

    #[test]
    fn debug_lists_flags() {
        let f = PteFlags::PRESENT | PteFlags::ZERO_PAGE;
        let s = format!("{f:?}");
        assert!(s.contains("PRESENT") && s.contains("ZERO_PAGE"));
        assert_eq!(format!("{:?}", PteFlags::EMPTY), "PteFlags(EMPTY)");
    }
}
