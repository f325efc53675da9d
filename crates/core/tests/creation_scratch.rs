//! The creation scatter's scratch grows to `δ · N` elements (nine bytes
//! each); it must be gone once the step that consumes the last element of
//! the column returns, for every bucket-based algorithm. Nothing exposes a
//! scratch's capacity, so this counts the bytes the index keeps alive.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;

use pi_core::testing::random_column;
use pi_core::{Algorithm, BudgetPolicy, Phase};

struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// only a statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's contract is `System::dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

// One test in this binary: a second one on another thread would allocate
// into the same counter.
#[test]
fn creation_scratch_is_released_with_the_phase() {
    const N: usize = 200_000;
    const ROW: isize = 8;
    let column = Arc::new(random_column(N, 1 << 40, 17));
    // What refinement starts from: the filled buckets, plus the final
    // array MSD and Bucketsort allocate up front (LSD has passes to go).
    for (algorithm, arrays) in [
        (Algorithm::RadixsortMsd, 2),
        (Algorithm::Bucketsort, 2),
        (Algorithm::RadixsortLsd, 1),
    ] {
        let before = LIVE.load(Ordering::Relaxed);
        let mut index = algorithm.build(Arc::clone(&column), BudgetPolicy::FixedDelta(0.5));
        assert_eq!(index.query(0, 1 << 39).phase, Phase::Creation);
        assert_eq!(index.status().phase, Phase::Creation);
        assert_eq!(index.query(0, 1 << 39).phase, Phase::Creation);
        assert_eq!(index.status().phase, Phase::Refinement);
        let kept = LIVE.load(Ordering::Relaxed) - before;
        // A scratch sized for half the column would add 4.5 bytes a row.
        let bound = N as isize * (arrays * ROW + 1);
        assert!(
            kept <= bound,
            "{algorithm}: {kept} bytes kept, bound {bound}"
        );
        assert!(kept >= N as isize * arrays * ROW, "{algorithm}: {kept}");
    }
}
