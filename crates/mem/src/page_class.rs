//! Page classes — the heart of the full-vs-partial disaggregation story.

use std::fmt;

/// The class of a guest page, which determines where each disaggregation
/// mechanism is allowed to place it (paper §II).
///
/// | Class | Swap can evict? | FluidMem can evict? |
/// |---|---|---|
/// | `KernelText` / `KernelData` | no | yes |
/// | `Unevictable` (mlocked/pinned) | no | yes |
/// | `FileBacked` (mmap, page cache) | not to swap — written back to its filesystem | yes, to remote memory |
/// | `Anonymous` | yes | yes |
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PageClass {
    /// Kernel code.
    KernelText,
    /// Kernel data structures (slab, page tables, ...).
    KernelData,
    /// Pages pinned with `mlock` or otherwise unevictable.
    Unevictable,
    /// File-backed pages: binaries, shared libraries, `mmap`ed files,
    /// page cache.
    FileBacked,
    /// Ordinary anonymous memory (heap, stack).
    Anonymous,
}

impl PageClass {
    /// Every page class.
    pub const ALL: [PageClass; 5] = [
        PageClass::KernelText,
        PageClass::KernelData,
        PageClass::Unevictable,
        PageClass::FileBacked,
        PageClass::Anonymous,
    ];
}

impl fmt::Display for PageClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PageClass::KernelText => "kernel-text",
            PageClass::KernelData => "kernel-data",
            PageClass::Unevictable => "unevictable",
            PageClass::FileBacked => "file-backed",
            PageClass::Anonymous => "anonymous",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_kebab_case() {
        assert_eq!(PageClass::FileBacked.to_string(), "file-backed");
    }
}
