//! Crash-recovery integration tests: a durable table must recover from
//! any crash point to exactly the last durable prefix and answer every
//! range query identically to an in-memory oracle that applied the same
//! prefix.

use std::sync::Arc;

use pi_core::budget::BudgetPolicy;
use pi_core::mutation::Mutation;
use pi_core::testing::TestRng;
use pi_durable::snapshot::{latest_valid_snapshot, MemStore, SnapshotStore};
use pi_durable::wal::{FsyncPolicy, MemWalHandle};
use pi_engine::{
    ColumnSpec, DurabilityConfig, DurabilityError, DurableTable, Executor, ExecutorConfig, Table,
    TableQuery,
};
use pi_storage::scan::scan_range_sum;
use pi_storage::Value;

fn values(n: usize, domain: u64, seed: u64) -> Vec<Value> {
    pi_core::testing::random_column(n, domain, seed).into_vec()
}

/// Applies `m` to the live-multiset oracle, returning whether it applied
/// (mirrors `MutableIndex` semantics: deletes/updates of absent values
/// are rejected).
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

fn random_batch(rng: &mut TestRng, domain: u64, len: usize) -> Vec<Mutation> {
    (0..len)
        .map(|_| match rng.next_u64() % 3 {
            0 => Mutation::Insert(rng.next_u64() % domain),
            1 => Mutation::Delete(rng.next_u64() % domain),
            _ => Mutation::Update {
                old: rng.next_u64() % domain,
                new: rng.next_u64() % domain,
            },
        })
        .collect()
}

/// Asserts the recovered table answers a probe set of range queries
/// exactly like a full scan over the oracle multiset.
fn assert_matches_oracle(table: &Table, column: &str, oracle: &[Value], probes: u64) {
    let domain = oracle.iter().max().copied().unwrap_or(0) + 2;
    let step = (domain / probes).max(1);
    let mut low = 0;
    while low < domain {
        let high = (low + step * 3).min(domain);
        let got = table.query(column, low, high).expect("column exists");
        let want = scan_range_sum(oracle, low, high);
        assert_eq!(
            (got.sum, got.count),
            (want.sum, want.count),
            "range [{low}, {high}] diverged from oracle"
        );
        low += step;
    }
}

fn durable_config() -> DurabilityConfig {
    DurabilityConfig {
        fsync: FsyncPolicy::Always,
        // High thresholds: tests drive checkpoints explicitly.
        checkpoint_wal_bytes: u64::MAX,
        checkpoint_after_merges: u64::MAX,
        snapshots_kept: 2,
    }
}

fn build_durable(
    base: Vec<Value>,
    shards: usize,
    wal: &MemWalHandle,
    store: &MemStore,
    config: DurabilityConfig,
) -> DurableTable {
    Table::builder()
        .column(
            ColumnSpec::new("a", base)
                .with_shards(shards)
                .with_policy(BudgetPolicy::FixedDelta(0.25)),
        )
        .durability(config)
        .build_durable(Box::new(wal.storage()), Box::new(store.clone()))
        .expect("durable build")
}

/// Write → checkpoint → more writes → clean drop → recover: the
/// recovered table equals the oracle, and replay touched only the WAL
/// tail logged after the checkpoint.
#[test]
fn recover_replays_only_post_checkpoint_tail() {
    let base = values(4_000, 4_000, 11);
    let mut oracle = base.clone();
    let wal = MemWalHandle::new();
    let store = MemStore::new();
    let durable = build_durable(base, 4, &wal, &store, durable_config());

    let mut rng = TestRng::new(7);
    for _ in 0..6 {
        let batch = random_batch(&mut rng, 4_000, 40);
        let flags = durable.apply_mutations("a", &batch).unwrap();
        for (m, applied) in batch.iter().zip(&flags) {
            let expected = oracle_apply(&mut oracle, m);
            assert_eq!(*applied, expected);
        }
    }
    durable.checkpoint().unwrap();
    // Three more batches land in the WAL tail only.
    let mut tail_batches = 0u64;
    for _ in 0..3 {
        let batch = random_batch(&mut rng, 4_000, 40);
        let flags = durable.apply_mutations("a", &batch).unwrap();
        for (m, applied) in batch.iter().zip(&flags) {
            let expected = oracle_apply(&mut oracle, m);
            assert_eq!(*applied, expected);
        }
        tail_batches += 1;
    }
    drop(durable);

    let (recovered, report) = DurableTable::recover(
        Box::new(wal.storage()),
        Box::new(store.clone()),
        durable_config(),
        None,
    )
    .unwrap();
    assert_eq!(
        report.replayed_records, tail_batches,
        "replay must cover exactly the post-checkpoint batches"
    );
    assert_eq!(report.truncated_bytes, 0);
    assert_matches_oracle(recovered.table(), "a", &oracle, 64);

    // The recovered table keeps serving durable writes.
    let batch = random_batch(&mut rng, 4_000, 40);
    let flags = recovered.apply_mutations("a", &batch).unwrap();
    for (m, applied) in batch.iter().zip(&flags) {
        let expected = oracle_apply(&mut oracle, m);
        assert_eq!(*applied, expected);
    }
    assert_matches_oracle(recovered.table(), "a", &oracle, 64);
}

/// Crash-at-every-offset matrix: for each cut point of the WAL tail,
/// recovery never panics and lands on the oracle of the batches whose
/// frames fully survived the cut.
#[test]
fn crash_matrix_recovers_longest_durable_prefix() {
    let base = values(1_500, 1_500, 23);
    let wal = MemWalHandle::new();
    let store = MemStore::new();
    let durable = build_durable(base.clone(), 3, &wal, &store, durable_config());

    // Record byte watermarks after every durable batch; oracle prefixes
    // per watermark let us check any cut against the right expectation.
    let mut rng = TestRng::new(41);
    let mut oracle = base;
    // Any cut inside the baseline checkpoint record still recovers
    // snapshot 0, so the base state guards everything below the first
    // batch watermark.
    let mut oracle_at = vec![(0usize, oracle.clone())];
    for _ in 0..8 {
        let batch = random_batch(&mut rng, 1_500, 25);
        durable.apply_mutations("a", &batch).unwrap();
        for m in &batch {
            oracle_apply(&mut oracle, m);
        }
        oracle_at.push((wal.len(), oracle.clone()));
    }
    // Keep the engine-side state out of the picture: from here on only
    // the persisted bytes matter.
    drop(durable);
    let full = wal.len();

    // Walk cut points in coarse steps plus every batch boundary.
    let mut cuts: Vec<usize> = (0..=full).step_by(97).collect();
    cuts.extend(oracle_at.iter().map(|(at, _)| *at));
    cuts.push(full);
    cuts.sort_unstable();
    cuts.dedup();
    for cut in cuts {
        let crashed = wal.fork();
        crashed.truncate_to(cut);
        let (recovered, report) = DurableTable::recover(
            Box::new(crashed.storage()),
            Box::new(store.clone()),
            durable_config(),
            None,
        )
        .unwrap_or_else(|e| panic!("cut at {cut} failed: {e}"));
        // Expected state: the newest batch whose frames fit below `cut`.
        let (_, expect) = oracle_at
            .iter()
            .rev()
            .find(|(at, _)| *at <= cut)
            .expect("watermark 0 always fits");
        assert_matches_oracle(recovered.table(), "a", expect, 32);
        assert!(
            report.truncated_bytes as usize <= full,
            "cut {cut}: nonsense truncation"
        );
    }
}

/// Bit flips anywhere in the tail and duplicated suffixes must never
/// panic recovery; a flip invalidates its record and everything after it
/// (the durable prefix before the flip still recovers).
#[test]
fn fault_injection_never_panics() {
    let base = values(1_000, 1_000, 5);
    let wal = MemWalHandle::new();
    let store = MemStore::new();
    let durable = build_durable(base.clone(), 2, &wal, &store, durable_config());
    let mut rng = TestRng::new(3);
    let mut oracle = base;
    let watermark = wal.len();
    let mut mid = watermark;
    for i in 0..4 {
        let batch = random_batch(&mut rng, 1_000, 20);
        durable.apply_mutations("a", &batch).unwrap();
        for m in &batch {
            oracle_apply(&mut oracle, m);
        }
        if i == 1 {
            // A frame boundary inside the tail, for the duplication case.
            mid = wal.len();
        }
    }
    drop(durable);
    let full = wal.len();

    // Flip one bit at a spread of offsets across the tail. Each probe
    // gets its own copy of log and store so they cannot contaminate
    // each other.
    for byte in (watermark..full).step_by(53) {
        let flipped = wal.fork();
        let store_copy = store.fork();
        flipped.flip_bit(byte, (byte % 8) as u8);
        let result = DurableTable::recover(
            Box::new(flipped.storage()),
            Box::new(store_copy.clone()),
            durable_config(),
            None,
        );
        let (recovered, _) = result.unwrap_or_else(|e| panic!("flip at {byte} failed: {e}"));
        // Whatever prefix survived, it must be internally consistent:
        // re-checkpointing and re-recovering reproduces it exactly.
        let sum_before = recovered.table().query("a", 0, u64::MAX).unwrap();
        recovered.checkpoint().unwrap();
        drop(recovered);
        let (again, _) = DurableTable::recover(
            Box::new(flipped.storage()),
            Box::new(store_copy.clone()),
            durable_config(),
            None,
        )
        .unwrap();
        let sum_after = again.table().query("a", 0, u64::MAX).unwrap();
        assert_eq!(
            (sum_before.sum, sum_before.count),
            (sum_after.sum, sum_after.count)
        );
    }

    // A duplicated suffix re-delivers old sequence numbers: the scan
    // stops at the duplication point and recovery sees the full oracle.
    let duped = wal.fork();
    duped.duplicate_suffix(mid);
    let (recovered, report) = DurableTable::recover(
        Box::new(duped.storage()),
        Box::new(store.fork()),
        durable_config(),
        None,
    )
    .unwrap();
    assert_eq!(report.tail, pi_durable::TailStatus::OutOfOrder);
    assert_matches_oracle(recovered.table(), "a", &oracle, 32);
}

/// Mutate skewed → rebalance → recover: the regression the rebalance WAL
/// record exists for. Recovery must not resurrect stale pre-rebalance
/// shard boundaries, and answers stay exact.
#[test]
fn rebalance_then_recover_keeps_fresh_boundaries() {
    let base = values(6_000, 6_000, 29);
    let wal = MemWalHandle::new();
    let store = MemStore::new();
    let mut durable = build_durable(base.clone(), 4, &wal, &store, durable_config());
    let mut oracle = base;

    // Skew all inserts into the top of the domain to drift the weights.
    let mut rng = TestRng::new(31);
    for _ in 0..12 {
        let batch: Vec<Mutation> = (0..200)
            .map(|_| Mutation::Insert(5_400 + rng.next_u64() % 600))
            .collect();
        durable.apply_mutations("a", &batch).unwrap();
        for m in &batch {
            oracle_apply(&mut oracle, m);
        }
    }
    let stale = durable
        .table()
        .column("a")
        .unwrap()
        .partition()
        .boundaries()
        .to_vec();
    // Drift is max/mean shard weight, never below 1.0: the skew leaves
    // about 1,500/1,500/1,500/3,900 live rows, a drift of about 1.86.
    let rebalanced = durable.rebalance_if_drifted(1.5).unwrap();
    assert!(rebalanced > 0, "skewed writes must drift the weights");
    let fresh = durable
        .table()
        .column("a")
        .unwrap()
        .partition()
        .boundaries()
        .to_vec();
    assert_ne!(stale, fresh, "rebalance must redraw the boundaries");
    drop(durable);

    let (recovered, report) = DurableTable::recover(
        Box::new(wal.storage()),
        Box::new(store.clone()),
        durable_config(),
        None,
    )
    .unwrap();
    // The post-rebalance checkpoint is the baseline: nothing to replay,
    // and the recovered boundaries are the fresh ones, not the stale.
    assert_eq!(report.replayed_records, 0);
    let recovered_bounds = recovered
        .table()
        .column("a")
        .unwrap()
        .partition()
        .boundaries()
        .to_vec();
    assert_eq!(recovered_bounds, fresh);
    assert_ne!(recovered_bounds, stale);
    assert_matches_oracle(recovered.table(), "a", &oracle, 64);
}

/// A crash after the rebalance marker committed but before its
/// checkpoint completed leaves a `Rebalance` record in the log; replay
/// must redo the rebalance (fresh boundaries, exact answers) rather
/// than ignore it.
#[test]
fn rebalance_wal_record_replays() {
    let base = values(3_000, 3_000, 43);
    let wal = MemWalHandle::new();
    let store = MemStore::new();
    let durable = build_durable(base.clone(), 4, &wal, &store, durable_config());
    let mut oracle = base;
    let mut rng = TestRng::new(47);
    // Skewed inserts, logged normally.
    for _ in 0..8 {
        let batch: Vec<Mutation> = (0..150)
            .map(|_| Mutation::Insert(2_700 + rng.next_u64() % 300))
            .collect();
        durable.apply_mutations("a", &batch).unwrap();
        for m in &batch {
            oracle_apply(&mut oracle, m);
        }
    }
    let stale = durable
        .table()
        .column("a")
        .unwrap()
        .partition()
        .boundaries()
        .to_vec();
    drop(durable);

    // Hand-append the rebalance marker the crashed process would have
    // committed right before its checkpoint died.
    let mut writer =
        pi_durable::wal::WalWriter::new(Box::new(wal.storage()), FsyncPolicy::Always, 1_000);
    writer
        .append(&pi_durable::WalRecord::Rebalance {
            columns: vec!["a".to_string()],
        })
        .unwrap();
    writer.commit().unwrap();
    drop(writer);

    let (recovered, report) = DurableTable::recover(
        Box::new(wal.storage()),
        Box::new(store.clone()),
        durable_config(),
        None,
    )
    .unwrap();
    // 8 mutation batches + 1 rebalance replayed.
    assert_eq!(report.replayed_records, 9);
    let recovered_bounds = recovered
        .table()
        .column("a")
        .unwrap()
        .partition()
        .boundaries()
        .to_vec();
    assert_ne!(
        recovered_bounds, stale,
        "replayed rebalance must redraw the skewed boundaries"
    );
    assert_matches_oracle(recovered.table(), "a", &oracle, 64);
}

/// Durable writes through the executor: `Executor::with_durability`
/// routes mutation batches through the WAL while queries serve normally,
/// and a crash afterwards recovers everything the log holds.
#[test]
fn executor_durable_writes_survive_crash() {
    let base = values(8_000, 8_000, 13);
    let mut oracle = base.clone();
    let wal = MemWalHandle::new();
    let store = MemStore::new();
    let durable = Arc::new(build_durable(base, 4, &wal, &store, durable_config()));
    let executor =
        Executor::with_durability(Arc::clone(&durable), ExecutorConfig::with_workers(4), None);

    let mut rng = TestRng::new(19);
    for _ in 0..10 {
        let batch = random_batch(&mut rng, 8_000, 50);
        let flags = executor.apply_mutations("a", &batch).unwrap();
        for (m, applied) in batch.iter().zip(&flags) {
            assert_eq!(*applied, oracle_apply(&mut oracle, m));
        }
        // Interleave reads on the serving path.
        let results = executor
            .execute_batch(&[
                TableQuery::new("a", 100, 2_000),
                TableQuery::new("a", 0, 7_999),
            ])
            .unwrap();
        assert_eq!(results[0], scan_range_sum(&oracle, 100, 2_000));
        assert_eq!(results[1], scan_range_sum(&oracle, 0, 7_999));
    }
    drop(executor);
    drop(durable);

    let (recovered, _) = DurableTable::recover(
        Box::new(wal.storage()),
        Box::new(store.clone()),
        durable_config(),
        None,
    )
    .unwrap();
    assert_matches_oracle(recovered.table(), "a", &oracle, 64);
}

/// Group-commit durability boundary: under `EveryN`, a crash (revert to
/// last synced offset) loses at most the unsynced suffix — never a
/// synced record, never consistency.
#[test]
fn group_commit_crash_loses_only_unsynced_suffix() {
    let base = values(1_200, 1_200, 37);
    let wal = MemWalHandle::new();
    let store = MemStore::new();
    let config = DurabilityConfig {
        fsync: FsyncPolicy::EveryN(3),
        ..durable_config()
    };
    let durable = build_durable(base.clone(), 2, &wal, &store, config);
    let mut rng = TestRng::new(53);
    let mut oracle = base;
    let mut synced_oracle = oracle.clone();
    for i in 0..7 {
        let batch = random_batch(&mut rng, 1_200, 15);
        durable.apply_mutations("a", &batch).unwrap();
        for m in &batch {
            oracle_apply(&mut oracle, m);
        }
        // EveryN(3) commits on every third buffered record.
        if (i + 1) % 3 == 0 {
            synced_oracle = oracle.clone();
        }
    }
    // Crash without drop(): revert the log to its last synced length.
    wal.crash();
    std::mem::forget(durable);

    let (recovered, _) = DurableTable::recover(
        Box::new(wal.storage()),
        Box::new(store.clone()),
        config,
        None,
    )
    .unwrap();
    assert_matches_oracle(recovered.table(), "a", &synced_oracle, 32);
}

/// A corrupt newest snapshot falls back to the previous one plus a
/// longer replay; with every snapshot corrupt, recovery reports
/// `NoSnapshot` instead of panicking.
#[test]
fn snapshot_corruption_falls_back_or_errors() {
    let base = values(900, 900, 61);
    let wal = MemWalHandle::new();
    let store = MemStore::new();
    let durable = build_durable(base.clone(), 2, &wal, &store, durable_config());
    let mut rng = TestRng::new(67);
    let mut oracle = base;
    for _ in 0..3 {
        let batch = random_batch(&mut rng, 900, 20);
        durable.apply_mutations("a", &batch).unwrap();
        for m in &batch {
            oracle_apply(&mut oracle, m);
        }
    }
    let newest = durable.checkpoint().unwrap();
    drop(durable);

    // Corrupt the newest snapshot: recovery falls back to snapshot 0 and
    // replays the whole pre-checkpoint WAL... except checkpointing
    // truncated it. The fallback state must still answer from what IS
    // durable: snapshot 0 + the (now empty) log — i.e. the base column.
    // To exercise a *useful* fallback, corrupt before the log truncation
    // is observable: use a copy of the WAL taken before the checkpoint.
    store.corrupt(newest, 40, 2);
    let err_or_ok = DurableTable::recover(
        Box::new(wal.storage()),
        Box::new(store.clone()),
        durable_config(),
        None,
    );
    // Fallback to snapshot 0 must succeed (its WAL tail was truncated by
    // the newest checkpoint, so it recovers snapshot 0's state).
    assert!(err_or_ok.is_ok(), "fallback to older snapshot must work");

    // Corrupt every snapshot (the newest keeps its earlier flip too):
    // recovery must error, not panic.
    for id in 0..=newest {
        store.corrupt(id, 41, 1);
    }
    match DurableTable::recover(
        Box::new(wal.storage()),
        Box::new(store.clone()),
        durable_config(),
        None,
    ) {
        Err(DurabilityError::NoSnapshot) => {}
        other => panic!("expected NoSnapshot, got {:?}", other.map(|_| ())),
    }
}

/// How many shards' bases the newest valid snapshot wrote itself; it
/// references the others where an older snapshot file holds them.
fn runs_written(store: &MemStore) -> usize {
    let (snapshot, refs) = latest_valid_snapshot(store).unwrap().unwrap();
    refs.iter()
        .flatten()
        .filter(|at| at.file == snapshot.snapshot_id)
        .count()
}

/// Recovers copies of the log and the store and checks the answers.
fn recovers_to(wal: &MemWalHandle, store: &MemStore, oracle: &[Value]) {
    let (recovered, _) = DurableTable::recover(
        Box::new(wal.fork().storage()),
        Box::new(store.fork()),
        durable_config(),
        None,
    )
    .unwrap();
    assert_matches_oracle(recovered.table(), "a", oracle, 32);
}

/// A durable batch of inserts. Inserts only: a delete or an update
/// looks its value up, which refines the shard and can converge it (a
/// new base), and these tests choose which bases change.
fn write_batch(durable: &DurableTable, rng: &mut TestRng, oracle: &mut Vec<Value>, domain: u64) {
    let inserted: Vec<Value> = (0..12).map(|_| rng.next_u64() % domain).collect();
    let batch: Vec<Mutation> = inserted.iter().map(|&v| Mutation::Insert(v)).collect();
    assert!(durable
        .apply_mutations("a", &batch)
        .unwrap()
        .iter()
        .all(|&a| a));
    oracle.extend(inserted);
}

fn converge_shard(durable: &DurableTable, shard: usize) {
    let column = durable.table().column("a").unwrap();
    while column.advance_shard(shard) {}
}

/// A base is written once: checkpoints of an unchanged table write no
/// run, and one shard driven to convergence (its sorted array is a new
/// base) costs the next checkpoint exactly one run.
#[test]
fn a_checkpoint_writes_only_the_bases_that_changed() {
    let base = values(2_000, 2_000, 71);
    let wal = MemWalHandle::new();
    let store = MemStore::new();
    let durable = build_durable(base.clone(), 4, &wal, &store, durable_config());
    assert_eq!(runs_written(&store), 4, "snapshot 0 is self-contained");
    let mut rng = TestRng::new(73);
    let mut oracle = base;
    for _ in 0..2 {
        write_batch(&durable, &mut rng, &mut oracle, 2_000);
        durable.checkpoint().unwrap();
        assert_eq!(runs_written(&store), 0);
        recovers_to(&wal, &store, &oracle);
    }
    converge_shard(&durable, 0);
    durable.checkpoint().unwrap();
    assert_eq!(runs_written(&store), 1);
    recovers_to(&wal, &store, &oracle);
}

/// Recovery remembers where the bases it decoded are stored, so the
/// first checkpoint after it writes no run.
#[test]
fn a_checkpoint_after_recovery_writes_no_run() {
    let base = values(2_000, 2_000, 79);
    let wal = MemWalHandle::new();
    let store = MemStore::new();
    let durable = build_durable(base.clone(), 4, &wal, &store, durable_config());
    let mut rng = TestRng::new(81);
    let mut oracle = base;
    converge_shard(&durable, 1);
    write_batch(&durable, &mut rng, &mut oracle, 2_000);
    durable.checkpoint().unwrap();
    assert_eq!(runs_written(&store), 1);
    drop(durable);

    let (recovered, _) = DurableTable::recover(
        Box::new(wal.storage()),
        Box::new(store.clone()),
        durable_config(),
        None,
    )
    .unwrap();
    recovered.checkpoint().unwrap();
    assert_eq!(runs_written(&store), 0);
    drop(recovered);
    recovers_to(&wal, &store, &oracle);
}

/// A corrupt byte in a base run that an older file holds for newer
/// snapshots makes each snapshot referencing it unusable: recovery falls
/// back to one that does not reference it, or reports `NoSnapshot` —
/// never a wrong answer.
#[test]
fn a_corrupt_shared_run_falls_back_or_errors() {
    let base = values(1_600, 1_600, 89);
    let wal = MemWalHandle::new();
    let store = MemStore::new();
    let durable = build_durable(base.clone(), 2, &wal, &store, durable_config());
    converge_shard(&durable, 0);
    assert_eq!(durable.checkpoint().unwrap(), 1);
    let mut rng = TestRng::new(97);
    let mut oracle = base.clone();
    write_batch(&durable, &mut rng, &mut oracle, 1_600);
    assert_eq!(durable.checkpoint().unwrap(), 2);
    drop(durable);
    let (_, refs) = latest_valid_snapshot(&store).unwrap().unwrap();
    let (converged, unsorted) = (refs[0][0], refs[0][1]);
    assert_eq!((converged.file, unsorted.file), (1, 0));
    assert_eq!(store.ids().unwrap(), vec![0, 1, 2]);

    // Snapshots 2 and 1 share the converged run in file 1: both are
    // unusable, and snapshot 0 (the log after it was truncated) is what
    // is left.
    let broken = store.fork();
    broken.corrupt(1, (converged.offset + converged.len / 2) as usize, 3);
    let (recovered, report) = DurableTable::recover(
        Box::new(wal.fork().storage()),
        Box::new(broken),
        durable_config(),
        None,
    )
    .unwrap();
    assert_eq!(report.snapshot_id, 0);
    assert_matches_oracle(recovered.table(), "a", &base, 32);

    // Every snapshot references the unsorted run in file 0.
    let broken = store.fork();
    broken.corrupt(0, (unsorted.offset + unsorted.len / 2) as usize, 5);
    match DurableTable::recover(
        Box::new(wal.fork().storage()),
        Box::new(broken),
        durable_config(),
        None,
    ) {
        Err(DurabilityError::NoSnapshot) => {}
        other => panic!("expected NoSnapshot, got {:?}", other.map(|_| ())),
    }
    recovers_to(&wal, &store, &oracle);
}

/// Prune keeps the newest `snapshots_kept` snapshots and every older
/// file one of them references: the file holding the unchanged bases
/// survives every prune, and goes once no kept snapshot references it.
#[test]
fn prune_keeps_the_files_kept_snapshots_reference() {
    let base = values(1_200, 1_200, 101);
    let wal = MemWalHandle::new();
    let store = MemStore::new();
    let durable = build_durable(base.clone(), 2, &wal, &store, durable_config());
    let mut rng = TestRng::new(103);
    let mut oracle = base;
    for id in 1..=5u64 {
        write_batch(&durable, &mut rng, &mut oracle, 1_200);
        assert_eq!(durable.checkpoint().unwrap(), id);
        let mut expected = vec![0, id - 1, id];
        expected.dedup();
        assert_eq!(store.ids().unwrap(), expected, "after checkpoint {id}");
    }
    converge_shard(&durable, 0);
    converge_shard(&durable, 1);
    assert_eq!(durable.checkpoint().unwrap(), 6);
    assert_eq!(runs_written(&store), 2);
    // Snapshot 5 is kept and references file 0.
    assert_eq!(store.ids().unwrap(), vec![0, 5, 6]);
    assert_eq!(durable.checkpoint().unwrap(), 7);
    assert_eq!(store.ids().unwrap(), vec![6, 7]);
    drop(durable);
    recovers_to(&wal, &store, &oracle);
}

/// A checkpoint after a recovery that fell back past a corrupt newer
/// snapshot must not prune away the only valid one: the new snapshot's
/// id is past every stored id, so it is the newest and survives its own
/// prune.
#[test]
fn a_checkpoint_after_a_fallback_keeps_a_valid_snapshot() {
    let base = values(1_000, 1_000, 107);
    let wal = MemWalHandle::new();
    let store = MemStore::new();
    let durable = build_durable(base.clone(), 2, &wal, &store, durable_config());
    let mut rng = TestRng::new(109);
    let mut oracle = base;
    write_batch(&durable, &mut rng, &mut oracle, 1_000);
    assert_eq!(durable.checkpoint().unwrap(), 1);
    drop(durable);
    // A corrupt copy of snapshot 1 planted at id 6.
    let mut planted = store.load(1).unwrap();
    planted[40] ^= 4;
    store.clone().save(6, &planted).unwrap();

    let one_kept = DurabilityConfig {
        snapshots_kept: 1,
        ..durable_config()
    };
    let (recovered, report) = DurableTable::recover(
        Box::new(wal.storage()),
        Box::new(store.clone()),
        one_kept,
        None,
    )
    .unwrap();
    assert_eq!(report.snapshot_id, 1);
    assert_eq!(store.ids().unwrap(), vec![0, 1, 6]);
    write_batch(&recovered, &mut rng, &mut oracle, 1_000);
    assert_eq!(recovered.checkpoint().unwrap(), 7);
    drop(recovered);

    let (again, report) = DurableTable::recover(
        Box::new(wal.storage()),
        Box::new(store.clone()),
        one_kept,
        None,
    )
    .unwrap();
    assert_eq!(report.snapshot_id, 7);
    assert_matches_oracle(again.table(), "a", &oracle, 32);
}

/// The merge-based checkpoint trigger, with the log-bytes trigger off.
/// Maintenance on the table completes the merges, outside any durable
/// write, so the durable write after the last of them is the first call
/// that looks: it checkpoints, and the write after it does not. With the
/// trigger at `u64::MAX` no write ever checkpoints.
#[test]
fn completed_merges_trigger_one_checkpoint() {
    const MERGES: u64 = 3;
    for (after_merges, checkpoints) in [(MERGES, 1), (u64::MAX, 0)] {
        let config = DurabilityConfig {
            checkpoint_after_merges: after_merges,
            ..durable_config()
        };
        let base = values(2_000, 2_000, 83);
        let wal = MemWalHandle::new();
        let store = MemStore::new();
        let durable = build_durable(base.clone(), 1, &wal, &store, config);
        let newest = || {
            latest_valid_snapshot(&store)
                .unwrap()
                .unwrap()
                .0
                .snapshot_id
        };
        let mut rng = TestRng::new(89);
        let mut oracle = base;
        // Sorting the fresh shard merges nothing: no write is pending.
        converge_shard(&durable, 0);
        for _ in 0..MERGES {
            write_batch(&durable, &mut rng, &mut oracle, 2_000);
            // One merge folds the batch into the converged base.
            converge_shard(&durable, 0);
        }
        assert_eq!(newest(), 0, "{after_merges}: merges alone never checkpoint");
        write_batch(&durable, &mut rng, &mut oracle, 2_000);
        assert_eq!(
            newest(),
            checkpoints,
            "{after_merges}: the write after the merges"
        );
        write_batch(&durable, &mut rng, &mut oracle, 2_000);
        assert_eq!(
            newest(),
            checkpoints,
            "{after_merges}: the write after that"
        );
        recovers_to(&wal, &store, &oracle);
    }
}

/// A rebalance needs the only handle on the table: while a clone of it
/// is alive, `rebalance_if_drifted` returns `TableShared` and changes
/// nothing, neither the log nor any column's shards nor an answer. A
/// threshold of 0.5 selects every column, since the heaviest shard never
/// holds fewer than the mean.
#[test]
fn a_shared_table_refuses_to_rebalance() {
    let wal = MemWalHandle::new();
    let store = MemStore::new();
    let mut durable = build_durable(values(6_000, 6_000, 97), 4, &wal, &store, durable_config());
    let boundaries = |table: &Table| -> Vec<Vec<Value>> {
        table
            .columns()
            .iter()
            .map(|c| c.partition().boundaries().to_vec())
            .collect()
    };
    let shared = Arc::clone(durable.table());
    let (logged, before, whole) = (
        wal.len(),
        boundaries(&shared),
        shared.query("a", 0, Value::MAX).unwrap(),
    );
    assert!(matches!(
        durable.rebalance_if_drifted(0.5),
        Err(DurabilityError::TableShared)
    ));
    assert_eq!(wal.len(), logged);
    assert_eq!(boundaries(durable.table()), before);
    assert_eq!(durable.table().query("a", 0, Value::MAX).unwrap(), whole);
    drop(shared);
}
