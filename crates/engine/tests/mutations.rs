//! Mutation batches through the executor: writes applied in request
//! order, interleaved with concurrent reads and maintenance, checked
//! against a scan oracle.

use std::sync::{Arc, Mutex};

use pi_core::budget::BudgetPolicy;
use pi_core::mutation::Mutation;
use pi_core::testing::TestRng;
use pi_durable::snapshot::MemStore;
use pi_durable::wal::MemWalHandle;
use pi_engine::{
    ColumnSpec, EngineError, Executor, ExecutorConfig, Table, TableBuilder, TableQuery,
};
use pi_storage::scan::scan_range_sum;
use pi_storage::Value;

fn values(n: usize, domain: u64, seed: u64) -> Vec<Value> {
    pi_core::testing::random_column(n, domain, seed).into_vec()
}

/// Applies `m` to the live-multiset oracle, returning whether it applied.
fn oracle_apply(oracle: &mut Vec<Value>, m: &Mutation) -> bool {
    match *m {
        Mutation::Insert(v) => {
            oracle.push(v);
            true
        }
        Mutation::Delete(v) => match oracle.iter().position(|&x| x == v) {
            Some(at) => {
                oracle.remove(at);
                true
            }
            None => false,
        },
        Mutation::Update { old, new } => {
            if oracle_apply(oracle, &Mutation::Delete(old)) {
                oracle.push(new);
                true
            } else {
                false
            }
        }
    }
}

#[test]
fn executor_mutation_batches_match_oracle() {
    let base = values(20_000, 20_000, 3);
    let mut oracle = base.clone();
    let table = Arc::new(
        Table::builder()
            .column(ColumnSpec::new("a", base).with_shards(8))
            .build(),
    );
    let executor = Executor::with_config(Arc::clone(&table), ExecutorConfig::with_workers(4));
    let mut rng = TestRng::new(17);
    for round in 0..20 {
        let batch: Vec<Mutation> = (0..50)
            .map(|_| match rng.below(3) {
                0 => Mutation::Insert(rng.below(25_000)),
                1 => Mutation::Delete(rng.below(25_000)),
                _ => Mutation::Update {
                    old: rng.below(25_000),
                    new: rng.below(25_000),
                },
            })
            .collect();
        let applied = executor.apply_mutations("a", &batch).unwrap();
        for (m, &ok) in batch.iter().zip(&applied) {
            let expected = oracle_apply(&mut oracle, m);
            assert_eq!(ok, expected, "round {round}: {m:?}");
        }
        // Interleave reads (some through covered-shard shortcuts).
        let queries: Vec<TableQuery> = (0..10)
            .map(|i| {
                let low = rng.below(20_000);
                TableQuery::new("a", low, low.saturating_add([100, 5_000, u64::MAX][i % 3]))
            })
            .collect();
        let results = executor.execute_batch(&queries).unwrap();
        for (q, r) in queries.iter().zip(&results) {
            assert_eq!(
                *r,
                scan_range_sum(&oracle, q.low, q.high),
                "round {round}: [{}, {}]",
                q.low,
                q.high
            );
        }
    }
    // Everything merges and re-converges.
    executor.drive_to_convergence(usize::MAX);
    assert!(table.is_converged());
    let total = executor.execute_one("a", 0, u64::MAX).unwrap();
    assert_eq!(total, scan_range_sum(&oracle, 0, u64::MAX));
}

#[test]
fn mutated_converged_shard_re_enters_maintenance_via_executor() {
    let base = values(8_000, 8_000, 5);
    let table = Arc::new(
        Table::builder()
            .column(
                ColumnSpec::new("a", base.clone())
                    .with_shards(4)
                    .with_policy(BudgetPolicy::FixedDelta(1.0)),
            )
            .build(),
    );
    let executor = Executor::with_config(
        Arc::clone(&table),
        ExecutorConfig {
            worker_threads: 2,
            maintenance_steps: 0,
            background_maintenance: false,
        },
    );
    executor.drive_to_convergence(usize::MAX);
    assert!(table.is_converged());
    // Every shard's convergence flag is set: maintenance performs no work.
    assert_eq!(executor.drive_to_convergence(16), 0);

    // A write to the converged table must reopen maintenance.
    let applied = executor
        .apply_mutations("a", &[Mutation::Insert(4_000), Mutation::Delete(base[0])])
        .unwrap();
    assert_eq!(applied, vec![true, true]);
    assert!(!table.is_converged(), "mutated shards must un-converge");
    let spent = executor.drive_to_convergence(usize::MAX);
    assert!(spent > 0, "re-convergence must perform maintenance work");
    assert!(table.is_converged());

    // And the answers reflect the mutations exactly.
    let mut oracle = base;
    oracle.push(4_000);
    oracle.remove(0);
    assert_eq!(
        executor.execute_one("a", 0, u64::MAX).unwrap(),
        scan_range_sum(&oracle, 0, u64::MAX)
    );
}

#[test]
fn cross_shard_updates_are_atomic() {
    let base: Vec<Value> = (0..8_000).collect();
    let table = Arc::new(
        Table::builder()
            .column(ColumnSpec::new("a", base.clone()).with_shards(4))
            .build(),
    );
    let executor = Executor::with_config(Arc::clone(&table), ExecutorConfig::with_workers(4));
    // Move a value from the lowest shard's range to the highest, and try
    // one with an absent victim: the absent one must not insert its new
    // value.
    let applied = executor
        .apply_mutations(
            "a",
            &[
                Mutation::Update {
                    old: 10,
                    new: 7_990,
                },
                Mutation::Update {
                    old: 50_000, // absent
                    new: 7_991,
                },
            ],
        )
        .unwrap();
    assert_eq!(applied, vec![true, false]);
    assert_eq!(executor.execute_one("a", 10, 10).unwrap().count, 0);
    assert_eq!(executor.execute_one("a", 7_990, 7_990).unwrap().count, 2);
    assert_eq!(
        executor.execute_one("a", 7_991, 7_991).unwrap().count,
        1,
        "only the pre-existing 7991 — the failed update must not insert"
    );
    assert_eq!(
        executor.execute_one("a", 0, u64::MAX).unwrap().count as usize,
        base.len()
    );
}

/// A cross-shard update followed by a delete of its new value, in one
/// batch: applied in request order, the delete finds the row the update
/// inserted.
const UPDATE_THEN_DELETE: [Mutation; 2] = [
    Mutation::Update { old: 1, new: 5_000 },
    Mutation::Delete(5_000),
];

/// One column `a` holding `0..1000`, in four shards.
fn thousand_rows() -> TableBuilder {
    Table::builder().column(ColumnSpec::new("a", (0..1_000).collect()).with_shards(4))
}

#[test]
fn table_executor_and_durable_table_apply_a_batch_in_one_order() {
    let table = thousand_rows().build();
    assert_eq!(
        table.apply_mutations("a", &UPDATE_THEN_DELETE).unwrap(),
        vec![true, true]
    );
    assert_eq!(table.query("a", 5_000, 5_000).unwrap().count, 0);
    for workers in [1, 4] {
        let table = Arc::new(thousand_rows().build());
        let executor =
            Executor::with_config(Arc::clone(&table), ExecutorConfig::with_workers(workers));
        assert_eq!(
            executor.apply_mutations("a", &UPDATE_THEN_DELETE).unwrap(),
            vec![true, true],
            "{workers} workers"
        );
        assert_eq!(
            executor.execute_one("a", 5_000, 5_000).unwrap().count,
            0,
            "{workers} workers"
        );
        assert_eq!(executor.execute_one("a", 0, u64::MAX).unwrap().count, 999);
    }
    let wal = MemWalHandle::new();
    let durable = thousand_rows()
        .build_durable(Box::new(wal.storage()), Box::new(MemStore::new()))
        .unwrap();
    assert_eq!(
        durable.apply_mutations("a", &UPDATE_THEN_DELETE).unwrap(),
        vec![true, true]
    );
    assert_eq!(durable.table().query("a", 5_000, 5_000).unwrap().count, 0);
}

#[test]
fn concurrent_writers_and_readers_stay_exact() {
    let base = values(30_000, 30_000, 7);
    let table = Arc::new(
        Table::builder()
            .column(ColumnSpec::new("a", base.clone()).with_shards(8))
            .build(),
    );
    let executor = Arc::new(Executor::with_config(
        Arc::clone(&table),
        ExecutorConfig::with_workers(4),
    ));
    // One writer inserts a known ladder of sentinel values while readers
    // hammer range queries. Readers can't predict the exact count (the
    // writer races them), but every answer must be bracketed by the
    // before/after states — and with distinct sentinels the monotone
    // growth is checkable.
    const SENTINEL_BASE: Value = 1_000_000;
    const WRITES: usize = 400;
    let writer = {
        let executor = Arc::clone(&executor);
        std::thread::spawn(move || {
            for i in 0..WRITES {
                let m = Mutation::Insert(SENTINEL_BASE + i as Value);
                assert_eq!(executor.apply_mutations("a", &[m]).unwrap(), vec![true]);
            }
        })
    };
    let observed = Arc::new(Mutex::new(Vec::new()));
    let mut readers = Vec::new();
    for _ in 0..2 {
        let executor = Arc::clone(&executor);
        let observed = Arc::clone(&observed);
        readers.push(std::thread::spawn(move || {
            let mut last = 0;
            for _ in 0..200 {
                let r = executor
                    .execute_one("a", SENTINEL_BASE, SENTINEL_BASE + WRITES as Value)
                    .unwrap();
                assert!(r.count <= WRITES as u64, "more sentinels than written");
                assert!(
                    r.count >= last,
                    "sentinel count regressed: {} then {}",
                    last,
                    r.count
                );
                last = r.count;
                observed.lock().unwrap().push(r.count);
            }
        }));
    }
    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
    // Terminal state: all sentinels visible, base untouched elsewhere.
    let r = executor
        .execute_one("a", SENTINEL_BASE, SENTINEL_BASE + WRITES as Value)
        .unwrap();
    assert_eq!(r.count, WRITES as u64);
    executor.drive_to_convergence(usize::MAX);
    assert!(table.is_converged());
    assert_eq!(
        executor.execute_one("a", 0, SENTINEL_BASE - 1).unwrap(),
        scan_range_sum(&base, 0, SENTINEL_BASE - 1)
    );
}

#[test]
fn unknown_column_rejected_and_empty_batch_ok() {
    let builder = || Table::builder().column(ColumnSpec::new("a", vec![1, 2, 3]));
    let plain = Executor::new(Arc::new(builder().build()));
    let durable = builder()
        .build_durable(
            Box::new(MemWalHandle::new().storage()),
            Box::new(MemStore::new()),
        )
        .unwrap();
    let durable = Executor::with_durability(Arc::new(durable), ExecutorConfig::default(), None);
    for executor in [plain, durable] {
        for batch in [&[Mutation::Insert(1)][..], &[]] {
            assert_eq!(
                executor.apply_mutations("nope", batch),
                Err(EngineError::UnknownColumn("nope".into()))
            );
        }
        assert_eq!(
            executor.apply_mutations("a", &[]).unwrap(),
            Vec::<bool>::new()
        );
    }
}
