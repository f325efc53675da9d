//! Heap, counted at the allocator. The kernel's high-water mark of
//! resident memory (`VmHWM`) ranged from 285 to 464 MB between runs of the
//! same work here — it follows what the allocator happens to hand back or
//! keep, not what the program needs — so memory is reported as live heap
//! bytes instead, which repeat exactly for a seed.
//!
//! Only allocations of a page or more are counted. They are where the
//! memory is (columns, indexes, snapshots), and leaving the small ones
//! alone keeps the hot path's many short-lived allocations free of the
//! two extra atomic operations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

const COUNTED_FROM: usize = 4096;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

pub struct Counting;

fn grew(bytes: usize) {
    if bytes >= COUNTED_FROM {
        // Statistics only: no other memory is published through these.
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    if bytes >= COUNTED_FROM {
        LIVE.fetch_sub(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every method hands its arguments unchanged to `System`, whose
// implementation upholds the `GlobalAlloc` contract, and returns what it
// returns; the counters beside the calls touch no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout, passed through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout, passed through.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's block and the layout it was allocated with.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's block, its layout and the new size, passed
        // through.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        new
    }
}

/// Forgets the peak so far: the next reading covers only what is
/// allocated from here on, on top of what is live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1 << 20) as f64
}

/// Counted bytes live right now.
pub fn live_mb() -> f64 {
    LIVE.load(Ordering::Relaxed) as f64 / (1 << 20) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn large_allocations_move_the_peak_and_small_ones_do_not() {
        // Other tests allocate concurrently, so only lower bounds hold.
        let before = PEAK
            .load(Ordering::Relaxed)
            .max(LIVE.load(Ordering::Relaxed));
        let big = vec![1u8; 64 << 20];
        assert!(PEAK.load(Ordering::Relaxed) >= before.min(LIVE.load(Ordering::Relaxed)));
        assert!(LIVE.load(Ordering::Relaxed) >= 64 << 20);
        assert!(peak_mb() >= 64.0);
        drop(big);
        let live = LIVE.load(Ordering::Relaxed);
        let small = vec![1u8; 100];
        assert!(LIVE.load(Ordering::Relaxed) <= live + (64 << 20));
        drop(small);
    }
}
