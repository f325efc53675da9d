//! Convergence survives a restart and a re-shard: a shard whose base was
//! sorted when it was snapshotted, or whose live values were sorted when
//! the column was re-split, has nothing left to sort and comes back at
//! consolidation (a tree build over its array), not at creation.

use pi_core::budget::BudgetPolicy;
use pi_core::mutation::Mutation;
use pi_core::testing::{random_column, TestRng};
use pi_core::Phase;
use pi_durable::snapshot::MemStore;
use pi_durable::wal::{FsyncPolicy, MemWalHandle};
use pi_engine::{ColumnSpec, DurabilityConfig, DurableTable, ShardedColumn, Table};
use pi_storage::scan::scan_range_sum;
use pi_storage::Value;

const DOMAIN: u64 = 20_000;
const SHARDS: usize = 4;

/// Deletes of live values, and inserts piled into one shard's band so the
/// weights drift.
fn writes(oracle: &mut Vec<Value>, rng: &mut TestRng, len: usize) -> Vec<Mutation> {
    (0..len)
        .map(|i| {
            if i % 4 == 0 {
                let victim = oracle.swap_remove(rng.below(oracle.len() as u64) as usize);
                Mutation::Delete(victim)
            } else {
                let v = 100 + rng.below(500);
                oracle.push(v);
                Mutation::Insert(v)
            }
        })
        .collect()
}

fn converge(column: &ShardedColumn) {
    for shard in 0..column.shard_count() {
        while column.advance_shard(shard) {}
    }
    assert!(column.is_converged());
}

/// Every shard has nothing left to sort, and the column answers like a
/// scan of `oracle`.
fn assert_sorted_and_exact(column: &ShardedColumn, oracle: &[Value], context: &str) {
    for (shard, status) in column.shard_statuses().iter().enumerate() {
        assert!(
            status.phase >= Phase::Consolidation,
            "{context}: shard {shard} came back at {status:?}"
        );
    }
    assert_eq!(column.live_rows(), oracle.len(), "{context}");
    for low in (0..DOMAIN).step_by(1_000) {
        for (low, high) in [(low, low + 2_500), (low, low)] {
            let want = scan_range_sum(oracle, low, high);
            assert_eq!(column.query(low, high), want, "{context}: [{low}, {high}]");
        }
    }
}

#[test]
fn a_converged_durable_table_recovers_into_consolidation() {
    let config = DurabilityConfig {
        fsync: FsyncPolicy::Always,
        checkpoint_wal_bytes: u64::MAX,
        checkpoint_after_merges: u64::MAX,
        snapshots_kept: 2,
    };
    let mut oracle = random_column(12_000, DOMAIN, 9).into_vec();
    let (wal, store) = (MemWalHandle::new(), MemStore::new());
    let spec = ColumnSpec::new("a", oracle.clone())
        .with_shards(SHARDS)
        .with_policy(BudgetPolicy::FixedDelta(0.25));
    let durable = Table::builder()
        .column(spec)
        .durability(config)
        .build_durable(Box::new(wal.storage()), Box::new(store.clone()))
        .expect("durable build");

    // Converge, absorb a merge's worth of writes, converge again: the
    // snapshot holds merged, sorted bases. A last few writes stay pending
    // in the snapshot's sidecars, and a few more only in the log's tail.
    let mut rng = TestRng::new(31);
    let mut write = |len| {
        let batch = writes(&mut oracle, &mut rng, len);
        durable.apply_mutations("a", &batch).unwrap();
    };
    converge(durable.table().column("a").unwrap());
    write(3_000);
    converge(durable.table().column("a").unwrap());
    write(40);
    durable.checkpoint().unwrap();
    write(40);
    drop(durable);

    let (recovered, report) =
        DurableTable::recover(Box::new(wal.storage()), Box::new(store), config, None).unwrap();
    assert_eq!(report.replayed_records, 1);
    let column = recovered.table().column("a").unwrap();
    assert!(!column.is_converged(), "pending writes were recovered");
    assert_sorted_and_exact(column, &oracle, "recovered");
    converge(column);
    assert_sorted_and_exact(column, &oracle, "recovered, converged");
}

#[test]
fn a_converged_mutated_column_rebalances_into_consolidation() {
    let mut oracle = random_column(12_000, DOMAIN, 13).into_vec();
    let spec = ColumnSpec::new("a", oracle.clone())
        .with_shards(SHARDS)
        .with_policy(BudgetPolicy::FixedDelta(0.25));
    let mut table = Table::builder().column(spec).build();
    converge(table.column("a").unwrap());

    // One shard's worth of inserts into one shard's band: some merged into
    // sorted bases, the last few still pending when the column is re-split.
    let mut rng = TestRng::new(47);
    for (len, then_converge) in [(4_000, true), (40, false)] {
        let batch = writes(&mut oracle, &mut rng, len);
        table.apply_mutations("a", &batch).unwrap();
        if then_converge {
            converge(table.column("a").unwrap());
        }
    }
    let boundaries = table.column("a").unwrap().partition().boundaries().to_vec();
    assert_eq!(table.rebalance_if_drifted(1.2), 1);

    let column = table.column("a").unwrap();
    assert_ne!(column.partition().boundaries(), boundaries);
    assert_sorted_and_exact(column, &oracle, "rebalanced");
    converge(column);
    assert_sorted_and_exact(column, &oracle, "rebalanced, converged");
}
