//! At one shard the engine is the paper's index: a one-shard `Table`
//! driven through an `Executor` on its default configuration replays a
//! bare `pi_core::MutableIndex` over the same values, query by query —
//! the same answer and the same `IndexStatus` (phase, ρ, phase progress,
//! convergence) after every query, for all four algorithms, until both
//! have converged. Nothing here reads a clock: no pool worker indexes on
//! its own, so the executor's shard moves only when a query probes it.
//!
//! Every claim pi-core holds for one index therefore holds for the engine
//! at one shard, and a gap at several shards is an engine effect.
//!
//! One such effect is visible even at one shard, and the ranges below
//! avoid it: the **covered-shard shortcut**. A range that covers the
//! shard's whole `[min, max]` is answered from the shard's digest with no
//! probe, so it does no δ-step on the shard, while the bare index pays
//! its δ for every query. Every range here starts above the column's
//! minimum, so the executor probes the shard on every query.

use std::sync::Arc;

use pi_core::testing::{random_column, TestRng};
use pi_core::{Algorithm, BudgetPolicy, MutableIndex};
use pi_engine::{AlgorithmChoice, ColumnSpec, Executor, ExecutorConfig, Table};
use pi_storage::Column;

const ROWS: usize = 50_000;
const DELTA: f64 = 0.05;
/// Far above the few hundred queries any algorithm needs at this δ.
const MAX_QUERIES: usize = 10_000;

#[test]
fn one_shard_executor_replays_the_bare_index_query_by_query() {
    let values = random_column(ROWS, ROWS as u64, 11).into_vec();
    let (min, max) = (*values.iter().min().unwrap(), *values.iter().max().unwrap());
    for algorithm in [
        Algorithm::Quicksort,
        Algorithm::RadixsortMsd,
        Algorithm::RadixsortLsd,
        Algorithm::Bucketsort,
    ] {
        let policy = BudgetPolicy::FixedDelta(DELTA);
        let mut bare = MutableIndex::new(
            Arc::new(Column::from_vec(values.clone())),
            algorithm,
            policy,
        );
        let table = Arc::new(
            Table::builder()
                .column(
                    ColumnSpec::new("a", values.clone())
                        .with_shards(1)
                        .with_policy(policy)
                        .with_choice(AlgorithmChoice::Fixed(algorithm)),
                )
                .build(),
        );
        let executor = Executor::with_config(Arc::clone(&table), ExecutorConfig::default());
        let column = table.column("a").unwrap();
        assert_eq!(column.shard_statuses(), vec![bare.status()], "{algorithm}");

        let mut rng = TestRng::new(algorithm as u64 + 1);
        let mut queries = 0;
        while !bare.is_converged() {
            assert!(queries < MAX_QUERIES, "{algorithm}: no convergence");
            // `low > min`: the range never covers the shard.
            let low = min + 1 + rng.below(max - min - 1);
            let high = low + rng.below(ROWS as u64 / 10);
            let want = bare.query(low, high).scan_result();
            let got = executor.execute_one("a", low, high).unwrap();
            queries += 1;
            assert_eq!(got, want, "{algorithm}: query {queries} [{low}, {high}]");
            assert_eq!(
                column.shard_statuses(),
                vec![bare.status()],
                "{algorithm}: status after query {queries}"
            );
        }
        assert!(table.is_converged(), "{algorithm}");
        assert!(queries > 1, "{algorithm}: converged in {queries} queries");
    }
}
