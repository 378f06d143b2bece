//! The counting global allocator: the benchmark's one `unsafe` block.
//!
//! Every heap allocation call (`alloc`, `alloc_zeroed`, `realloc`) made by
//! the process bumps one relaxed counter and is then forwarded unchanged to
//! the system allocator. `host_allocs_per_op` is the counter's delta over a
//! measured phase divided by the accesses in it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocation calls since process start. `Relaxed` is enough: the value is
/// a statistic and publishes no other data.
static CALLS: AtomicU64 = AtomicU64::new(0);

/// Forwards to [`System`], counting calls.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only added work is a relaxed
// atomic increment, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` through this allocator
        // with this `layout` (caller's contract), so `System` may free it.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` come from this allocator (hence from
        // `System`) and `new_size` obeys the caller's `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls made by the process so far.
pub fn calls() -> u64 {
    CALLS.load(Ordering::Relaxed)
}
