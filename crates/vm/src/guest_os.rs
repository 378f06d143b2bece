//! The guest operating system's boot-time memory census.

use fluidmem_mem::{MemoryBackend, PageClass, Region};

/// Page-class breakdown of a freshly booted guest.
///
/// The paper's Table III reports a CentOS 7 guest holding **81 042 pages
/// (316.57 MB)** after booting to a prompt; §VI-D1 notes "the memory
/// footprint of the OS is approximately 300 MB of DRAM at boot". The
/// split across classes below follows a typical minimal CentOS/KVM guest:
/// most of the footprint is page cache (binaries, libraries) and
/// anonymous daemon heap, with kernel text/data and pinned pages making
/// up the remainder — the portion swap can never evict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuestOsProfile {
    /// Kernel code pages.
    pub(crate) kernel_text: u64,
    /// Kernel data, slab, page tables.
    pub(crate) kernel_data: u64,
    /// mlocked / pinned pages.
    pub unevictable: u64,
    /// Page cache: binaries, shared libraries, file mappings.
    pub(crate) file_backed: u64,
    /// Anonymous memory of system daemons.
    pub anonymous: u64,
}

impl GuestOsProfile {
    /// The paper's booted guest: 81 042 pages total.
    pub fn paper_boot() -> Self {
        GuestOsProfile {
            kernel_text: 3_000,
            kernel_data: 9_500,
            unevictable: 3_542,
            file_backed: 40_000,
            anonymous: 25_000,
        }
    }

    /// A proportionally scaled-down profile for fast experiments.
    /// `denominator` divides every class (minimum 1 page each).
    pub fn scaled_down(denominator: u64) -> Self {
        let p = Self::paper_boot();
        let d = denominator.max(1);
        GuestOsProfile {
            kernel_text: (p.kernel_text / d).max(1),
            kernel_data: (p.kernel_data / d).max(1),
            unevictable: (p.unevictable / d).max(1),
            file_backed: (p.file_backed / d).max(1),
            anonymous: (p.anonymous / d).max(1),
        }
    }

    /// A profile scaled to approximately `total_pages`, preserving the
    /// paper's class proportions (used by the Figure 4 harness, where
    /// results "generalize to a larger VM by comparing the percentage of
    /// WSS that can remain in DRAM").
    pub fn scaled_to(total_pages: u64) -> Self {
        let p = Self::paper_boot();
        let f = total_pages as f64 / p.total_pages() as f64;
        let scale = |v: u64| ((v as f64 * f) as u64).max(1);
        GuestOsProfile {
            kernel_text: scale(p.kernel_text),
            kernel_data: scale(p.kernel_data),
            unevictable: scale(p.unevictable),
            file_backed: scale(p.file_backed),
            anonymous: scale(p.anonymous),
        }
    }

    /// Total boot footprint in pages.
    pub(crate) fn total_pages(&self) -> u64 {
        self.kernel_text + self.kernel_data + self.unevictable + self.file_backed + self.anonymous
    }
}

/// The booted guest: its regions in the backend's address space.
#[derive(Debug, Clone)]
pub(crate) struct GuestOs {
    /// Kernel text region.
    pub(crate) kernel_text: Region,
    /// Kernel data region.
    pub(crate) kernel_data: Region,
    /// Pinned pages region.
    pub unevictable: Region,
    /// Page-cache region.
    pub(crate) file_backed: Region,
    /// Daemon heap region.
    pub anonymous: Region,
}

impl GuestOs {
    /// Boots the guest: allocates one region per page class and touches
    /// every page once, exactly as a kernel populating itself and its
    /// daemons would. Charges boot-time faults to the clock.
    pub(crate) fn boot(backend: &mut dyn MemoryBackend, profile: GuestOsProfile) -> GuestOs {
        let kernel_text = backend.map_region(profile.kernel_text, PageClass::KernelText);
        let kernel_data = backend.map_region(profile.kernel_data, PageClass::KernelData);
        let unevictable = backend.map_region(profile.unevictable, PageClass::Unevictable);
        let file_backed = backend.map_region(profile.file_backed, PageClass::FileBacked);
        let anonymous = backend.map_region(profile.anonymous, PageClass::Anonymous);
        let os = GuestOs {
            kernel_text,
            kernel_data,
            unevictable,
            file_backed,
            anonymous,
        };
        for region in [
            &os.kernel_text,
            &os.kernel_data,
            &os.unevictable,
            &os.file_backed,
            &os.anonymous,
        ] {
            let write = matches!(
                region.class(),
                PageClass::KernelData | PageClass::Unevictable | PageClass::Anonymous
            );
            for i in 0..region.pages() {
                backend.access(region.page(i), write);
            }
        }
        os
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_boot_matches_table3() {
        let p = GuestOsProfile::paper_boot();
        assert_eq!(p.total_pages(), 81_042);
        let mb = p.total_pages() as f64 * 4096.0 / (1024.0 * 1024.0);
        assert!((mb - 316.57).abs() < 0.2, "{mb}");
    }

    #[test]
    fn scaling_preserves_all_classes() {
        let p = GuestOsProfile::scaled_down(100);
        assert!(p.kernel_text >= 1);
        assert!(p.total_pages() < 1000);
        let huge = GuestOsProfile::scaled_down(u64::MAX);
        assert_eq!(huge.total_pages(), 5, "every class floors at one page");
    }
}
