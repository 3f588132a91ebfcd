//! A global allocator that counts, for tests that assert on heap use.
//!
//! Not a test target itself: a test binary (in any crate) includes this
//! file with `#[path]` and installs [`Counting`] as its
//! `#[global_allocator]`. The tallies are per thread, so a test reads only
//! what it did itself, whatever libtest runs beside it; the code under
//! test here is single-threaded, so its frees land on the thread that
//! allocated.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, with every request tallied.
pub struct Counting;

thread_local! {
    // Const-initialised and without destructors: reading them never
    // allocates and is valid for the whole life of the thread, which is
    // what code called from inside the allocator needs.
    static LIVE_BYTES: Cell<usize> = const { Cell::new(0) };
    static PEAK_BYTES: Cell<usize> = const { Cell::new(0) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Bytes this thread has requested and not yet freed, by requested size
/// (no allocator rounding), which makes the figure a property of the
/// program alone.
#[allow(dead_code, reason = "each including test reads the tallies it asserts on")]
pub fn live_bytes() -> usize {
    LIVE_BYTES.get()
}

/// The most [`live_bytes`] has been since the last [`reset_peak`].
#[allow(dead_code, reason = "each including test reads the tallies it asserts on")]
pub fn peak_live_bytes() -> usize {
    PEAK_BYTES.get()
}

/// Starts a new peak measurement from the current level.
#[allow(dead_code, reason = "each including test reads the tallies it asserts on")]
pub fn reset_peak() {
    PEAK_BYTES.set(LIVE_BYTES.get());
}

/// Allocation calls this thread has made (`alloc`, `alloc_zeroed`,
/// `realloc`).
pub fn allocations() -> usize {
    ALLOCATIONS.get()
}

fn tally(freed: usize, requested: usize) {
    let live = LIVE_BYTES.get().wrapping_sub(freed).wrapping_add(requested);
    LIVE_BYTES.set(live);
    if requested > 0 {
        PEAK_BYTES.set(PEAK_BYTES.get().max(live));
        ALLOCATIONS.set(ALLOCATIONS.get() + 1);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the tallies never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through as they are.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            tally(0, layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            tally(0, layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator —
        // that is, from `System` — with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        tally(layout.size(), 0);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, plus the caller's bound on `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            tally(layout.size(), new_size);
        }
        p
    }
}
