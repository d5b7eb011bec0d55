//! A counting global allocator that also accounts for frees, so it can
//! report live and peak heap bytes as well as allocation counts.
//!
//! Every workload is driven from one thread, so the counters live in that
//! thread's local storage: a few plain adds per allocation instead of the
//! contended atomics a process-wide counter would need on the message
//! path. Allocations made on other threads are not counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator and counts. Install with
/// `#[global_allocator]`.
pub struct Counting;

/// A reading of the calling thread's allocation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Allocations (fresh, zeroed and reallocations) so far.
    pub allocs: u64,
    /// Bytes currently allocated.
    pub live: i64,
    /// Most bytes allocated at once since the last [`reset_peak`].
    pub peak: i64,
}

thread_local! {
    // `const` initialisation with a `Copy` type: access never allocates and
    // registers no destructor, so the allocator may use it.
    static COUNTS: Cell<Snapshot> = const {
        Cell::new(Snapshot { allocs: 0, live: 0, peak: 0 })
    };
}

fn note(alloc: u64, delta: i64) {
    // `try_with` fails only while the thread's storage is torn down; those
    // last frees are not worth a panic inside the allocator.
    let _ = COUNTS.try_with(|c| {
        let mut s = c.get();
        s.allocs += alloc;
        s.live += delta;
        s.peak = s.peak.max(s.live);
        c.set(s);
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping around the calls
// touches only a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` was allocated by this allocator (hence by `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// The calling thread's counters now.
pub fn snapshot() -> Snapshot {
    COUNTS.with(|c| c.get())
}

/// Restart peak tracking from the bytes live now.
pub fn reset_peak() {
    COUNTS.with(|c| {
        let mut s = c.get();
        s.peak = s.live;
        c.set(s);
    });
}
