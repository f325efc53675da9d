//! Property tests for the sharded engine: batched, sharded, concurrent
//! query answers must be identical to `pi_storage::scan::scan_range_sum`
//! over the base column for every Figure-6 workload pattern, and every
//! shard must converge.

use std::sync::Arc;

use proptest::prelude::*;

use pi_core::budget::BudgetPolicy;
use pi_core::decision::Algorithm;
use pi_core::mutation::Mutation;
use pi_engine::{AlgorithmChoice, ColumnSpec, Executor, ExecutorConfig, Table, TableQuery};
use pi_storage::scan::scan_range_sum;
use pi_workloads::patterns::{self, Pattern, WorkloadSpec};

fn build_executor(values: Vec<u64>, shards: usize, delta: f64) -> Executor {
    let table = Arc::new(
        Table::builder()
            .column(
                ColumnSpec::new("a", values)
                    .with_shards(shards)
                    .with_policy(BudgetPolicy::FixedDelta(delta)),
            )
            .build(),
    );
    Executor::with_config(
        table,
        ExecutorConfig {
            worker_threads: 4,
            maintenance_steps: 2,
            background_maintenance: true,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For arbitrary columns, shard counts and all eight Figure-6
    /// patterns, every batched answer equals the full-scan oracle and the
    /// table converges with every shard reaching `Converged`.
    #[test]
    fn sharded_batches_match_full_scan_on_all_patterns(
        values in prop::collection::vec(0..5_000u64, 10..600),
        shards in 1..9usize,
        pattern_idx in 0..8usize,
        seed in any::<u64>(),
    ) {
        let pattern = Pattern::ALL[pattern_idx];
        let domain = values.iter().max().copied().unwrap_or(0) + 1;
        let spec = WorkloadSpec::range(domain, 40).with_seed(seed);
        let queries = patterns::generate(pattern, &spec);

        let executor = build_executor(values.clone(), shards, 0.5);
        let batch: Vec<TableQuery> = queries
            .iter()
            .map(|q| TableQuery::new("a", q.low, q.high))
            .collect();
        let results = executor.execute_batch(&batch).unwrap();
        for (q, r) in queries.iter().zip(&results) {
            let expected = scan_range_sum(&values, q.low, q.high);
            prop_assert_eq!(*r, expected, "{} [{}, {}]", pattern, q.low, q.high);
        }

        // Deterministic convergence of every shard.
        executor.drive_to_convergence(1_000_000);
        let column = executor.table().column("a").unwrap();
        prop_assert!(executor.table().is_converged(), "{}: table not converged", pattern);
        for (i, status) in column.shard_statuses().iter().enumerate() {
            prop_assert!(status.converged, "{}: shard {} not converged", pattern, i);
        }

        // Answers after convergence are still the oracle's.
        let results = executor.execute_batch(&batch).unwrap();
        for (q, r) in queries.iter().zip(&results) {
            let expected = scan_range_sum(&values, q.low, q.high);
            prop_assert_eq!(*r, expected, "{} converged [{}, {}]", pattern, q.low, q.high);
        }
    }

    /// Mutation batches through the executor match a replay oracle for
    /// every progressive algorithm, at every convergence stage —
    /// including a converged table mutated afterwards — and the table
    /// re-converges to exact answers.
    #[test]
    fn executor_mutations_match_oracle_for_all_algorithms(
        values in prop::collection::vec(0..2_000u64, 10..400),
        shards in 1..6usize,
        algorithm_idx in 0..4usize,
        muts in prop::collection::vec((0..3u64, 0..2_000u64, 0..2_000u64), 1..60),
        converge_first in any::<bool>(),
    ) {
        let algorithm = Algorithm::ALL[algorithm_idx];
        let table = Arc::new(
            Table::builder()
                .column(
                    ColumnSpec::new("a", values.clone())
                        .with_shards(shards)
                        .with_choice(AlgorithmChoice::Fixed(algorithm))
                        .with_policy(BudgetPolicy::FixedDelta(0.5)),
                )
                .build(),
        );
        let executor = Executor::with_config(
            Arc::clone(&table),
            ExecutorConfig { worker_threads: 2, maintenance_steps: 2, background_maintenance: false },
        );
        if converge_first {
            executor.drive_to_convergence(1_000_000);
            prop_assert!(table.is_converged(), "{algorithm}");
        }
        let mut oracle = values;
        // Updates insert into a band deletes never target, so this
        // property never has a delete meet an update's new value in one
        // batch; `tests/mutations.rs` covers that request-order case.
        let batch: Vec<Mutation> = muts.iter().map(|&(tag, a, b)| match tag {
            0 => Mutation::Insert(a),
            1 => Mutation::Delete(a),
            _ => Mutation::Update { old: a, new: 10_000 + b },
        }).collect();
        let applied = executor.apply_mutations("a", &batch).unwrap();
        for (m, &ok) in batch.iter().zip(&applied) {
            let want = match *m {
                Mutation::Insert(v) => { oracle.push(v); true }
                Mutation::Delete(v) => match oracle.iter().position(|&x| x == v) {
                    Some(at) => { oracle.remove(at); true }
                    None => false,
                },
                Mutation::Update { old, new } => match oracle.iter().position(|&x| x == old) {
                    Some(at) => { oracle.remove(at); oracle.push(new); true }
                    None => false,
                },
            };
            prop_assert_eq!(ok, want, "{} {:?}", algorithm, m);
        }
        // Exact immediately after the writes, and after re-convergence.
        for (low, high) in [(0, u64::MAX), (100, 700), (10_000, 13_000)] {
            prop_assert_eq!(
                executor.execute_one("a", low, high).unwrap(),
                scan_range_sum(&oracle, low, high),
                "{} [{}, {}]", algorithm, low, high
            );
        }
        executor.drive_to_convergence(1_000_000);
        prop_assert!(table.is_converged(), "{algorithm}: did not re-converge");
        prop_assert_eq!(
            executor.execute_one("a", 0, u64::MAX).unwrap(),
            scan_range_sum(&oracle, 0, u64::MAX),
            "{} after re-convergence", algorithm
        );
    }

    /// Concurrent clients see exactly the answers a serial full scan
    /// produces, regardless of interleaving.
    #[test]
    fn concurrent_batches_match_full_scan(
        values in prop::collection::vec(0..3_000u64, 10..400),
        shards in 1..6usize,
        seed in any::<u64>(),
    ) {
        let domain = values.iter().max().copied().unwrap_or(0) + 1;
        let executor = Arc::new(build_executor(values.clone(), shards, 0.25));
        std::thread::scope(|scope| {
            for client in 0..4u64 {
                let executor = Arc::clone(&executor);
                let values = &values;
                let spec = WorkloadSpec::range(domain, 15).with_seed(seed ^ client);
                scope.spawn(move || {
                    let queries = patterns::generate(Pattern::Random, &spec);
                    let batch: Vec<TableQuery> = queries
                        .iter()
                        .map(|q| TableQuery::new("a", q.low, q.high))
                        .collect();
                    let results = executor.execute_batch(&batch).unwrap();
                    for (q, r) in queries.iter().zip(&results) {
                        assert_eq!(*r, scan_range_sum(values, q.low, q.high));
                    }
                });
            }
        });
    }
}
