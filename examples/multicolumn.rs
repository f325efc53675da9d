//! Multi-column queries over progressive indexes: conjunctive
//! predicates planned across heterogeneous columns, plus grouped
//! aggregates from sub-shard digest trees.
//!
//! Builds a three-column table (u64 ids, f64 measurements, strings with
//! a hot shared prefix), plans and runs a skewed-selectivity conjunction
//! in every predicate order, mutates some rows, and answers a `GROUP BY
//! bucket` aggregate twice — the second time straight from the table's
//! aggregate cache, whose slots every row write empties for the shards it
//! touches.
//!
//! ```bash
//! cargo run --release --example multicolumn
//! ```

use std::sync::Arc;

use progressive_indexes::engine::{
    ErasedColumn, ErasedKey, GroupedQuery, MultiColumnSpec, MultiExecutor, MultiTable, Predicate,
    RowMutation,
};
use progressive_indexes::obs::MetricsRegistry;
use progressive_indexes::workloads::multicol::hetero_rows;
use progressive_indexes::workloads::Distribution;

const ROWS: usize = 200_000;

fn main() {
    let (ids, temps, names) = hetero_rows(Distribution::Skewed, ROWS, 1_000.0, 7);
    let table = Arc::new(
        MultiTable::builder()
            .column(MultiColumnSpec::new("id", ErasedColumn::U64(ids)).with_shards(8))
            .column(MultiColumnSpec::new("temp", ErasedColumn::F64(temps)).with_shards(8))
            .column(MultiColumnSpec::new("name", ErasedColumn::Str(names)).with_shards(8))
            .build(),
    );
    println!("table: {ROWS} rows x {} columns", table.names().len());

    // A conjunction with wildly skewed selectivities: the id predicate
    // matches ~90% of the rows, the temp predicate ~1%. The planner
    // drives the selective column (its index pays the refinement) and
    // evaluates the predicates that discard most rows per nanosecond
    // first (a string compare costs five fixed-width ones).
    let registry = Arc::new(MetricsRegistry::new());
    let executor = MultiExecutor::with_metrics(
        Arc::clone(&table),
        Default::default(),
        Arc::clone(&registry),
    );
    let predicates = [
        Predicate::between_u64("id", 0, (ROWS as u64 * 9) / 10),
        Predicate::new("temp", ErasedKey::F64(-10.0), ErasedKey::F64(10.0)),
        Predicate::new(
            "name",
            ErasedKey::Str("a".into()),
            ErasedKey::Str("zzzzzzzzzzzz".into()),
        ),
    ];
    let plan = executor.plan(&predicates).unwrap();
    for stats in &plan.stats {
        println!(
            "  {:>5}: selectivity ~{:>5.1}%  rho {:.2}  score {:.3}",
            stats.column,
            stats.selectivity * 100.0,
            stats.rho,
            stats.score()
        );
    }
    let order: Vec<&str> = plan.order.iter().map(|&p| plan.stats[p].column).collect();
    println!(
        "planner drives {:?}, evaluates {order:?}",
        plan.stats[plan.driving].column
    );

    let answer = executor.execute(&predicates).unwrap();
    println!(
        "conjunction: {} rows match; SUM(id) = {:?}, SUM(temp) = {:?} (gated off)",
        answer.count, answer.sums[0], answer.sums[1]
    );
    let reversed: Vec<Predicate> = predicates.iter().rev().cloned().collect();
    assert_eq!(executor.execute(&reversed).unwrap().count, answer.count);
    println!("reversed predicate list agrees: the plan moves cost, never answers");

    // Grouped aggregates from sub-shard digest trees, cached per shard.
    let grouped = GroupedQuery::new("id", ErasedKey::U64(0), ErasedKey::U64(u64::MAX), 25_000);
    let groups = executor.grouped(&grouped).unwrap();
    println!("\nGROUP BY bucket(25k) over id: {} groups", groups.len());
    for g in groups.iter().take(4) {
        println!(
            "  bucket {:>2}: count {:>6}  min {:?}  max {:?}",
            g.bucket, g.count, g.min, g.max
        );
    }

    // Mutations invalidate exactly the touched shards' cached trees.
    executor.apply_rows(&[
        RowMutation::Delete(0),
        RowMutation::Insert(vec![
            ErasedKey::U64(123),
            ErasedKey::F64(0.5),
            ErasedKey::Str("freshly-inserted".into()),
        ]),
    ]);
    let after = executor.grouped(&grouped).unwrap();
    println!(
        "after 2 row mutations: first bucket count {} -> {}",
        groups[0].count, after[0].count
    );
    let snapshot = registry.snapshot();
    println!(
        "planner metrics: conjunctions={} survivors_validated={} agg cache hits={} invalidations={}",
        snapshot.counter("planner.conjunctions").unwrap_or(0),
        snapshot.counter("planner.survivors_validated").unwrap_or(0),
        snapshot.counter("planner.agg.cache_hits").unwrap_or(0),
        snapshot.counter("planner.agg.cache_invalidations").unwrap_or(0),
    );
}
