//! Host physical memory: frames and their contents.

use std::fmt;

use crate::page::PageContents;

/// An identifier for one 4 KB host physical frame.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameId(u64);

impl FrameId {
    /// The reserved frame holding the kernel's shared zero page.
    pub const ZERO_PAGE: FrameId = FrameId(0);
}

impl fmt::Debug for FrameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FrameId({})", self.0)
    }
}

/// The host's physical memory: a frame allocator plus per-frame contents.
///
/// Frame 0 is permanently reserved for the shared zero page, mirroring the
/// kernel page that `UFFD_ZEROPAGE` maps copy-on-write (paper §V-A).
///
/// # Example
///
/// ```
/// use fluidmem_mem::{PageContents, PhysicalMemory};
///
/// let mut pm = PhysicalMemory::new(4);
/// let f = pm.alloc().unwrap();
/// pm.store(f, PageContents::Token(7));
/// assert_eq!(pm.load(f), &PageContents::Token(7));
/// let contents = pm.free(f);
/// assert_eq!(contents, PageContents::Token(7));
/// assert_eq!(pm.free_frames(), 4);
/// ```
#[derive(Debug)]
pub struct PhysicalMemory {
    capacity: u64,
    next_unused: u64,
    free_list: Vec<FrameId>,
    /// Indexed by frame number (the allocator hands them out densely);
    /// `None` marks a frame that is not allocated. Slot 0 stays `None`:
    /// the zero page reads from `zero`.
    contents: Vec<Option<PageContents>>,
    zero: PageContents,
}

impl PhysicalMemory {
    /// Creates a physical memory with `frames` allocatable frames (the
    /// zero-page frame is extra and always present).
    pub fn new(frames: u64) -> Self {
        PhysicalMemory {
            capacity: frames,
            next_unused: 1, // frame 0 is the zero page
            free_list: Vec::new(),
            contents: vec![None],
            zero: PageContents::Zero,
        }
    }

    /// Total allocatable frames.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Frames currently allocated.
    pub fn allocated_frames(&self) -> u64 {
        (self.next_unused - 1) - self.free_list.len() as u64
    }

    /// Frames still available.
    pub fn free_frames(&self) -> u64 {
        self.capacity - self.allocated_frames()
    }

    /// Allocates a frame, initially holding [`PageContents::Zero`].
    /// Returns `None` when physical memory is exhausted.
    pub fn alloc(&mut self) -> Option<FrameId> {
        if self.allocated_frames() >= self.capacity {
            return None;
        }
        let frame = self.free_list.pop().unwrap_or_else(|| {
            let f = FrameId(self.next_unused);
            self.next_unused += 1;
            self.contents.push(None);
            f
        });
        self.contents[frame.0 as usize] = Some(PageContents::Zero);
        Some(frame)
    }

    /// Releases a frame and returns its final contents.
    ///
    /// # Panics
    ///
    /// Panics if the frame is not allocated or is the zero-page frame.
    pub fn free(&mut self, frame: FrameId) -> PageContents {
        assert_ne!(frame, FrameId::ZERO_PAGE, "cannot free the zero page");
        let contents = self
            .contents
            .get_mut(frame.0 as usize)
            .and_then(Option::take)
            .expect("freeing an unallocated frame");
        self.free_list.push(frame);
        contents
    }

    /// Writes contents into an allocated frame.
    ///
    /// # Panics
    ///
    /// Panics if the frame is not allocated or is the zero-page frame.
    pub fn store(&mut self, frame: FrameId, contents: PageContents) {
        assert_ne!(frame, FrameId::ZERO_PAGE, "the zero page is read-only");
        let slot = self
            .contents
            .get_mut(frame.0 as usize)
            .and_then(Option::as_mut)
            .expect("storing to an unallocated frame");
        *slot = contents;
    }

    /// Reads the contents of a frame. The zero-page frame always reads as
    /// [`PageContents::Zero`].
    ///
    /// # Panics
    ///
    /// Panics if the frame is not allocated.
    pub fn load(&self, frame: FrameId) -> &PageContents {
        if frame == FrameId::ZERO_PAGE {
            return &self.zero;
        }
        self.contents
            .get(frame.0 as usize)
            .and_then(Option::as_ref)
            .expect("loading from an unallocated frame")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_until_exhausted() {
        let mut pm = PhysicalMemory::new(2);
        let a = pm.alloc().unwrap();
        let b = pm.alloc().unwrap();
        assert_ne!(a, b);
        assert!(pm.alloc().is_none());
        assert_eq!(pm.free_frames(), 0);
        pm.free(a);
        assert_eq!(pm.free_frames(), 1);
        assert!(pm.alloc().is_some());
    }

    #[test]
    fn freed_frames_are_reused() {
        let mut pm = PhysicalMemory::new(1);
        let a = pm.alloc().unwrap();
        pm.free(a);
        let b = pm.alloc().unwrap();
        assert_eq!(a, b, "free list should recycle frames");
    }

    #[test]
    fn fresh_frames_read_zero() {
        let mut pm = PhysicalMemory::new(1);
        let f = pm.alloc().unwrap();
        assert_eq!(pm.load(f), &PageContents::Zero);
    }

    #[test]
    fn store_then_load() {
        let mut pm = PhysicalMemory::new(1);
        let f = pm.alloc().unwrap();
        pm.store(f, PageContents::Token(99));
        assert_eq!(pm.load(f), &PageContents::Token(99));
    }

    #[test]
    fn zero_page_always_readable() {
        let pm = PhysicalMemory::new(0);
        assert_eq!(pm.load(FrameId::ZERO_PAGE), &PageContents::Zero);
    }

    #[test]
    #[should_panic(expected = "read-only")]
    fn zero_page_is_immutable() {
        let mut pm = PhysicalMemory::new(1);
        pm.store(FrameId::ZERO_PAGE, PageContents::Token(1));
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn double_free_panics() {
        let mut pm = PhysicalMemory::new(1);
        let f = pm.alloc().unwrap();
        pm.free(f);
        pm.free(f);
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn load_of_a_freed_frame_panics() {
        let mut pm = PhysicalMemory::new(2);
        let f = pm.alloc().unwrap();
        pm.store(f, PageContents::Token(5));
        pm.free(f);
        let _ = pm.load(f);
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn load_of_a_never_allocated_frame_panics() {
        // A frame id minted by a larger memory, beyond this one's store.
        let mut big = PhysicalMemory::new(8);
        let far = (0..8).map(|_| big.alloc().unwrap()).last().unwrap();
        let pm = PhysicalMemory::new(8);
        let _ = pm.load(far);
    }
}
