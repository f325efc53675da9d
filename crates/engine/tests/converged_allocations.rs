//! A single query on a converged table is a probe, not a batch: once every
//! shard has converged, `Executor::execute_one` allocates only the routing
//! scratch of one shard task (the task list, the flat-shard lookup table
//! and the task's sub-query list). No request, no copy of the column name,
//! no result vector, no partial-result vector and no touched-shard mask
//! for a maintenance job that is never spawned. A typed string range on a
//! converged column, `TypedExecutor::execute_one`, allocates no more: its
//! tie-break correction searches what the tie table holds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use pi_engine::typed::{TypedColumnSpec, TypedExecutor, TypedTable};
use pi_engine::{ColumnSpec, Executor, ExecutorConfig, Table};
use pi_obs::MetricsRegistry;
use pi_storage::scan::scan_range_sum;
use pi_workloads::domains::{self, HOT_PREFIX};
use pi_workloads::Distribution;

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the test's thread only: the pool's workers allocate into
    /// the same allocator.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// only a statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract is `System::dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

// One test in this binary, as the counter is shared.
#[test]
fn a_converged_execute_one_allocates_only_its_routing_scratch() {
    let values: Vec<u64> = (0..40_000).map(|i| (i * 7_919) % 40_000).collect();
    let table = Arc::new(
        Table::builder()
            .column(ColumnSpec::new("a", values.clone()).with_shards(4))
            .build(),
    );
    let executor = Executor::with_metrics(
        Arc::clone(&table),
        ExecutorConfig::with_workers(2),
        Arc::new(MetricsRegistry::new()),
    );
    executor.drive_to_convergence(usize::MAX);
    assert!(table.is_converged());
    for low in (0..40_000).step_by(997) {
        let (result, allocated) = allocations(|| executor.execute_one("a", low, low + 50));
        assert_eq!(result.unwrap(), scan_range_sum(&values, low, low + 50));
        assert_eq!(allocated, 3, "[{low}, {}]", low + 50);
    }

    // Strings: 90% share a 10-byte prefix, so a range inside it ties the
    // code of both its bounds and every answer is tie-corrected.
    let names = domains::string_data(Distribution::Skewed, 20_000, 43);
    let registry = Arc::new(MetricsRegistry::new());
    let table = Arc::new(
        TypedTable::builder()
            .column(TypedColumnSpec::new("name", names.clone()).with_shards(4))
            .metrics(Arc::clone(&registry))
            .build(),
    );
    let typed = TypedExecutor::with_metrics(
        Arc::clone(&table),
        ExecutorConfig::with_workers(2),
        Arc::clone(&registry),
    );
    typed.drive_to_convergence(usize::MAX);
    assert!(table.inner().is_converged());
    let hot: Vec<(String, String)> = domains::string_ranges(Distribution::Skewed, 200, 44)
        .into_iter()
        .filter(|(low, high)| low.starts_with(HOT_PREFIX) && high.starts_with(HOT_PREFIX))
        .collect();
    assert!(hot.len() > 100, "{} hot-prefix ranges", hot.len());
    let tie_hits = registry.counter("engine.tie_break_hits");
    let hits_before = tie_hits.get();
    for (low, high) in &hot {
        let want = names.iter().filter(|n| (low..=high).contains(n)).count() as u64;
        let (result, allocated) = allocations(|| typed.execute_one("name", low, high));
        assert_eq!(result.unwrap().count, want, "[{low:?}, {high:?}]");
        assert!(
            allocated <= 3,
            "[{low:?}, {high:?}]: {allocated} allocations"
        );
    }
    assert!(
        tie_hits.get() > hits_before,
        "the ranges take the tie-break path"
    );
}
