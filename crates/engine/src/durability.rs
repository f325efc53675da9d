//! Durability for [`Table`]s: write-ahead logging, checkpoints and
//! crash recovery, built on [`pi_durable`].
//!
//! ## Model
//!
//! A [`DurableTable`] wraps a shared [`Table`] and makes its *logical*
//! state — the live value multiset of every column — survive crashes:
//!
//! * Every mutation batch is framed into the write-ahead log **before**
//!   it is applied, under one writer mutex, so log order is exactly
//!   apply order. The batch is applied through the table's serial path
//!   ([`Table::apply_mutations`]), which replay re-runs verbatim — the
//!   recovered table re-applies (and re-rejects) each mutation
//!   identically.
//! * A checkpoint captures what the delta-sidecar model already
//!   maintains per shard: the immutable base snapshot plus the pending
//!   sidecar ("log the delta, snapshot the merged base"); a base the
//!   newest snapshot holds (the same `Arc`) is referenced, not written
//!   again. The snapshot is saved durably **before** the log is
//!   truncated, so a crash at any point between the two leaves either
//!   the old (snapshot, long log) or the new (snapshot, empty log) — both
//!   recover to the same state. Prune keeps the newest `snapshots_kept`
//!   snapshots and the older files they reference.
//! * Recovery loads the newest valid snapshot, truncates the log's
//!   torn/corrupt tail to the longest valid prefix, and replays only the
//!   records logged after the snapshot (`seq > snapshot.wal_seq`).
//!
//! Indexing progress (refinement state, merge progress) is deliberately
//! not persisted: it is a cache the progressive model rebuilds as a side
//! effect of querying, and restarting it changes no answer. What a
//! snapshot does carry, without a format field for it, is the order of
//! each base: a converged shard's base is its sorted array, so it decodes
//! sorted and the recovered shard starts at consolidation (a tree build)
//! instead of sorting again. Shards captured before they were sorted
//! restart at the creation phase.
//!
//! ## Checkpoint triggers
//!
//! Checkpoints run explicitly ([`DurableTable::checkpoint`]) or
//! opportunistically after a durable write — whenever the log has grown past
//! [`DurabilityConfig::checkpoint_wal_bytes`] or the table's shards have
//! completed [`DurabilityConfig::checkpoint_after_merges`] delta merges
//! since the last checkpoint (a merge folds sidecar deltas into a new
//! base, which is precisely when re-snapshotting shrinks the replay
//! tail the most; the trigger sums the merge counts the table's columns
//! publish under their shard locks).

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, Weak};
use std::time::{Duration, Instant};

use pi_core::mutation::Mutation;
use pi_durable::snapshot::{
    latest_valid_snapshot, BaseRef, ColumnState, ShardState, SnapshotStore, TableSnapshot,
};
use pi_durable::wal::{scan_wal, FsyncPolicy, TailStatus, WalMetrics, WalStorage, WalWriter};
use pi_durable::WalRecord;
use pi_obs::MetricsRegistry;
use pi_storage::snapshot::CodecError;
use pi_storage::Column;

use crate::table::{ShardedColumn, Table};

/// Durability tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct DurabilityConfig {
    /// When appended records are flushed and fsynced; see [`FsyncPolicy`].
    pub fsync: FsyncPolicy,
    /// Checkpoint once this many log bytes accumulated since the last
    /// checkpoint (bounds recovery's replay work).
    pub checkpoint_wal_bytes: u64,
    /// Checkpoint once the table's shards completed this many pending-
    /// delta merges since the last checkpoint (the natural snapshot
    /// boundary: merged deltas no longer need replaying).
    pub checkpoint_after_merges: u64,
    /// How many snapshots to retain; older ones are pruned after each
    /// checkpoint unless a retained one references their base runs. At
    /// least 2 keeps a fallback should the newest manifest turn out
    /// corrupt; a corrupt base run breaks every snapshot referencing it.
    pub snapshots_kept: usize,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            fsync: FsyncPolicy::EveryN(32),
            checkpoint_wal_bytes: 4 << 20,
            checkpoint_after_merges: 8,
            snapshots_kept: 2,
        }
    }
}

/// Errors surfaced by the durability layer.
#[derive(Debug)]
pub enum DurabilityError {
    /// The log or snapshot storage failed.
    Io(io::Error),
    /// A mutation batch addressed a column the table does not have.
    UnknownColumn(String),
    /// A persisted structure failed to decode.
    Corrupt(CodecError),
    /// Recovery found no valid snapshot in the store.
    NoSnapshot,
    /// An exclusive-table operation (rebalance) was requested while other
    /// handles to the table are alive.
    TableShared,
}

impl std::fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurabilityError::Io(e) => write!(f, "durability I/O error: {e}"),
            DurabilityError::UnknownColumn(name) => write!(f, "unknown column {name:?}"),
            DurabilityError::Corrupt(e) => write!(f, "corrupt durable state: {e}"),
            DurabilityError::NoSnapshot => write!(f, "no valid snapshot to recover from"),
            DurabilityError::TableShared => {
                write!(f, "operation needs exclusive table access")
            }
        }
    }
}

impl std::error::Error for DurabilityError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurabilityError::Io(e) => Some(e),
            DurabilityError::Corrupt(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for DurabilityError {
    fn from(e: io::Error) -> Self {
        DurabilityError::Io(e)
    }
}

impl From<CodecError> for DurabilityError {
    fn from(e: CodecError) -> Self {
        DurabilityError::Corrupt(e)
    }
}

/// What recovery did; returned by [`DurableTable::recover`].
#[derive(Debug)]
pub struct RecoveryReport {
    /// Identifier of the snapshot recovery started from.
    pub snapshot_id: u64,
    /// The snapshot's WAL position; records at or below it were skipped.
    pub snapshot_wal_seq: u64,
    /// WAL records replayed (mutation batches and rebalances past the
    /// snapshot).
    pub replayed_records: u64,
    /// How the log's tail ended before truncation.
    pub tail: TailStatus,
    /// Torn/corrupt tail bytes truncated from the log.
    pub truncated_bytes: u64,
    /// Wall time the recovery took.
    pub duration: Duration,
}

/// The log writer plus the byte watermark of the last checkpoint (the
/// bytes-based checkpoint trigger diffs against it).
struct WalState {
    writer: WalWriter,
    bytes_at_checkpoint: u64,
}

/// The snapshot store plus what reuse and pruning need to know of it.
struct Snapshots {
    store: Box<dyn SnapshotStore>,
    /// Per column, per shard: the base the newest snapshot holds and
    /// where it is stored (the `Weak` keeps its address from reuse).
    persisted: Vec<Vec<(Weak<Column>, BaseRef)>>,
    /// The files each snapshot written or recovered from references.
    references: BTreeMap<u64, BTreeSet<u64>>,
}

impl Snapshots {
    fn new(store: Box<dyn SnapshotStore>) -> Self {
        Snapshots {
            store,
            persisted: Vec::new(),
            references: BTreeMap::new(),
        }
    }

    /// Records that `snapshot`, stored with `refs`, is the newest.
    fn record_newest(&mut self, snapshot: &TableSnapshot, refs: Vec<Vec<BaseRef>>) {
        let files = refs.iter().flatten().map(|at| at.file).collect();
        self.references.insert(snapshot.snapshot_id, files);
        self.persisted.clear();
        for (column, refs) in snapshot.columns.iter().zip(refs) {
            let bases = column.shards.iter().map(|s| Arc::downgrade(&s.base));
            self.persisted.push(bases.zip(refs).collect());
        }
    }

    /// Removes every stored snapshot that is neither among the newest
    /// `keep` of `ids` (ascending) nor referenced by one of those. While a
    /// kept snapshot's references are not known (this process neither
    /// wrote nor recovered from it), nothing is removed.
    fn prune(&mut self, ids: &[u64], keep: usize) -> io::Result<()> {
        let (old, kept) = ids.split_at(ids.len().saturating_sub(keep));
        let mut referenced = BTreeSet::<u64>::new();
        for id in kept {
            match self.references.get(id) {
                Some(files) => referenced.extend(files.iter().copied()),
                None => return Ok(()),
            }
        }
        for id in old.iter().filter(|id| !referenced.contains(id)) {
            self.store.remove(*id)?;
            self.references.remove(id);
        }
        Ok(())
    }
}

/// Pending-delta merges completed over every column of `table`.
fn merges_completed(table: &Table) -> u64 {
    table
        .columns()
        .iter()
        .map(ShardedColumn::merges_completed)
        .sum()
}

/// A [`Table`] whose mutations are write-ahead logged and whose state is
/// periodically checkpointed; see the [module docs](self).
///
/// Reads go straight to [`DurableTable::table`] — queries never touch
/// the log. Writes go through [`DurableTable::apply_mutations`], which
/// serializes them (one writer mutex) to keep log order equal to apply
/// order.
pub struct DurableTable {
    table: Arc<Table>,
    wal: Mutex<WalState>,
    snapshots: Mutex<Snapshots>,
    /// Writers hold `read`, checkpoint holds `write`: a checkpoint sees
    /// no concurrent mutations, while normal writers never block each
    /// other here (the wal mutex serializes them anyway).
    quiesce: RwLock<()>,
    /// The table's completed merges at the last checkpoint, or at
    /// recovery; the merge-based trigger diffs against it.
    merges_at_checkpoint: AtomicU64,
    /// Guards against re-entrant / concurrent opportunistic checkpoints.
    checkpointing: AtomicBool,
    config: DurabilityConfig,
    metrics: Option<Arc<WalMetrics>>,
}

impl DurableTable {
    /// Wraps a freshly built table: truncates the log, writes the
    /// recovery baseline (snapshot 0 in an empty store) and starts
    /// logging. Existing bytes in `wal` are discarded — use
    /// [`DurableTable::recover`] to resume from persisted state instead.
    pub(crate) fn create(
        table: Table,
        wal: Box<dyn WalStorage>,
        store: Box<dyn SnapshotStore>,
        config: DurabilityConfig,
        registry: Option<&MetricsRegistry>,
    ) -> Result<DurableTable, DurabilityError> {
        let metrics = registry.map(WalMetrics::register);
        let mut writer = WalWriter::new(wal, config.fsync, 1);
        writer.set_metrics(metrics.clone());
        let durable = DurableTable {
            table: Arc::new(table),
            wal: Mutex::new(WalState {
                writer,
                bytes_at_checkpoint: 0,
            }),
            snapshots: Mutex::new(Snapshots::new(store)),
            quiesce: RwLock::new(()),
            merges_at_checkpoint: AtomicU64::new(0),
            checkpointing: AtomicBool::new(false),
            config,
            metrics,
        };
        durable.checkpoint()?;
        Ok(durable)
    }

    /// Rebuilds a durable table from persisted state: loads the newest
    /// valid snapshot, truncates the log's invalid tail, replays the
    /// records logged after the snapshot and resumes logging after the
    /// highest replayed sequence number. The recovered table answers
    /// every query exactly like one that applied the durable mutation
    /// prefix in memory.
    pub fn recover(
        mut wal: Box<dyn WalStorage>,
        store: Box<dyn SnapshotStore>,
        config: DurabilityConfig,
        registry: Option<&MetricsRegistry>,
    ) -> Result<(DurableTable, RecoveryReport), DurabilityError> {
        let started = Instant::now();
        let (snapshot, refs) =
            latest_valid_snapshot(store.as_ref())?.ok_or(DurabilityError::NoSnapshot)?;
        let mut snapshots = Snapshots::new(store);
        snapshots.record_newest(&snapshot, refs);
        let TableSnapshot {
            snapshot_id,
            wal_seq,
            columns,
        } = snapshot;
        let mut restored = Vec::with_capacity(columns.len());
        for state in columns {
            let ColumnState {
                name,
                algorithm,
                policy,
                boundaries,
                shards,
            } = state;
            let parts = shards
                .into_iter()
                .map(|ShardState { base, sidecar }| (base, sidecar))
                .collect();
            let mut column = ShardedColumn::restore(name, algorithm, policy, boundaries, parts);
            if let Some(registry) = registry {
                column.attach_metrics(registry);
            }
            restored.push(column);
        }
        let mut table = Table::from_columns(restored);

        let bytes = wal.read_all()?;
        let scan = scan_wal(&bytes);
        let truncated_bytes = bytes.len() as u64 - scan.valid_len;
        if truncated_bytes > 0 {
            wal.truncate(scan.valid_len)?;
        }
        let mut replayed_records = 0u64;
        let mut last_seq = wal_seq;
        for (seq, record) in &scan.records {
            last_seq = last_seq.max(*seq);
            if *seq <= wal_seq {
                // Already reflected in the snapshot (a crash before the
                // post-checkpoint truncation leaves such records behind).
                continue;
            }
            match record {
                WalRecord::MutationBatch { column, ops } => {
                    if table.apply_mutations(column, ops).is_none() {
                        return Err(DurabilityError::UnknownColumn(column.clone()));
                    }
                    replayed_records += 1;
                }
                WalRecord::Rebalance { columns } => {
                    for name in columns {
                        table.rebalance_column(name);
                    }
                    replayed_records += 1;
                }
                WalRecord::Checkpoint { .. } => {}
            }
        }

        let metrics = registry.map(WalMetrics::register);
        let mut writer = WalWriter::new(wal, config.fsync, last_seq + 1);
        writer.set_metrics(metrics.clone());
        let duration = started.elapsed();
        if let Some(metrics) = &metrics {
            metrics.replay_records.add(replayed_records);
            metrics.recovery_ms.set(duration.as_secs_f64() * 1e3);
        }
        // The merges replay completed do not count towards the next
        // checkpoint.
        let merges_at_checkpoint = AtomicU64::new(merges_completed(&table));
        let durable = DurableTable {
            table: Arc::new(table),
            wal: Mutex::new(WalState {
                writer,
                bytes_at_checkpoint: 0,
            }),
            snapshots: Mutex::new(snapshots),
            quiesce: RwLock::new(()),
            merges_at_checkpoint,
            checkpointing: AtomicBool::new(false),
            config,
            metrics,
        };
        let report = RecoveryReport {
            snapshot_id,
            snapshot_wal_seq: wal_seq,
            replayed_records,
            tail: scan.tail,
            truncated_bytes,
            duration,
        };
        Ok((durable, report))
    }

    /// The wrapped table. Reads (queries, maintenance) go straight to it;
    /// **mutations must not** — only [`DurableTable::apply_mutations`]
    /// keeps the log and the table in step.
    pub fn table(&self) -> &Arc<Table> {
        &self.table
    }

    /// Applies a mutation batch durably: the batch is framed into the
    /// log first (fsynced per the [`FsyncPolicy`]) and then applied
    /// through the table's serial path, both under the writer mutex so
    /// log order is apply order. Returns the per-mutation applied flags.
    ///
    /// May trigger an opportunistic checkpoint afterwards (off the
    /// writer mutex) when a growth threshold was crossed.
    pub fn apply_mutations(
        &self,
        column: &str,
        mutations: &[Mutation],
    ) -> Result<Vec<bool>, DurabilityError> {
        if self.table.column_index(column).is_none() {
            return Err(DurabilityError::UnknownColumn(column.to_string()));
        }
        if mutations.is_empty() {
            return Ok(Vec::new());
        }
        let flags = {
            let _quiesce = self.quiesce.read().expect("quiesce lock poisoned");
            let mut wal = self.wal.lock().expect("wal lock poisoned");
            wal.writer.append(&WalRecord::MutationBatch {
                column: column.to_string(),
                ops: mutations.to_vec(),
            })?;
            self.table
                .apply_mutations(column, mutations)
                .expect("column existence checked above")
        };
        self.maybe_checkpoint()?;
        Ok(flags)
    }

    /// Flushes the group-commit buffer: everything appended so far
    /// becomes durable regardless of the fsync policy. Called on drop as
    /// a best effort, and by checkpoints.
    pub fn flush(&self) -> Result<(), DurabilityError> {
        let mut wal = self.wal.lock().expect("wal lock poisoned");
        wal.writer.commit()?;
        Ok(())
    }

    /// Log bytes appended since the last checkpoint (the state the
    /// bytes-based trigger watches).
    fn wal_bytes_since_checkpoint(&self) -> u64 {
        let wal = self.wal.lock().expect("wal lock poisoned");
        wal.writer.bytes_appended() - wal.bytes_at_checkpoint
    }

    /// Pending-delta merges completed since the last checkpoint (the
    /// state the merge-based trigger watches).
    fn merges_since_checkpoint(&self) -> u64 {
        merges_completed(&self.table) - self.merges_at_checkpoint.load(Ordering::Relaxed)
    }

    /// Checkpoints now: quiesces writers, commits the log, captures a
    /// whole-table snapshot stamped with the log position, saves it
    /// durably with only the bases no stored snapshot holds, prunes old
    /// snapshots and only then truncates the log. Returns the new id, one
    /// past the newest stored id, so it survives its own prune.
    pub fn checkpoint(&self) -> Result<u64, DurabilityError> {
        let _quiesce = self.quiesce.write().expect("quiesce lock poisoned");
        let mut wal = self.wal.lock().expect("wal lock poisoned");
        wal.writer.commit()?;
        let id = {
            let mut snapshots = self.snapshots.lock().expect("store lock poisoned");
            let mut ids = snapshots.store.ids()?;
            let id = ids.last().map_or(0, |newest| newest + 1);
            let snapshot = self.capture(id, wal.writer.last_seq());
            let (encoded, refs) = snapshot.encode_reusing(|c, s| {
                let (stored, at) = snapshots.persisted.get(c)?.get(s)?;
                let base = &snapshot.columns[c].shards[s].base;
                std::ptr::eq(stored.as_ptr(), Arc::as_ptr(base)).then_some(*at)
            });
            snapshots.store.save(id, &encoded)?;
            snapshots.record_newest(&snapshot, refs);
            ids.push(id);
            snapshots.prune(&ids, self.config.snapshots_kept.max(1))?;
            id
        };
        // The snapshot is durable: the log's history is now redundant.
        // A crash before (or during) the truncation is safe — replay
        // skips records at or below the snapshot's sequence number.
        wal.writer.truncate_all()?;
        wal.writer
            .append(&WalRecord::Checkpoint { snapshot_id: id })?;
        wal.writer.commit()?;
        wal.bytes_at_checkpoint = wal.writer.bytes_appended();
        self.merges_at_checkpoint
            .store(merges_completed(&self.table), Ordering::SeqCst);
        if let Some(metrics) = &self.metrics {
            metrics.checkpoints.inc();
        }
        Ok(id)
    }

    /// Checkpoints when a growth threshold was crossed (log bytes or
    /// completed merges since the last checkpoint); cheap no-op
    /// otherwise. Concurrent callers collapse to one checkpoint. Returns
    /// whether a checkpoint ran. Durable writes call it after releasing
    /// the writer mutex.
    pub(crate) fn maybe_checkpoint(&self) -> Result<bool, DurabilityError> {
        let due = self.wal_bytes_since_checkpoint() >= self.config.checkpoint_wal_bytes
            || self.merges_since_checkpoint() >= self.config.checkpoint_after_merges;
        if !due {
            return Ok(false);
        }
        if self.checkpointing.swap(true, Ordering::SeqCst) {
            return Ok(false);
        }
        let result = self.checkpoint();
        self.checkpointing.store(false, Ordering::SeqCst);
        result.map(|_| true)
    }

    /// Durable analogue of [`Table::rebalance_if_drifted`]: re-balances
    /// every drifted column, logs a [`WalRecord::Rebalance`] marker at
    /// this point of the mutation stream and checkpoints immediately, so
    /// recovery can never resurrect stale pre-rebalance shard
    /// boundaries. Requires exclusive access to the wrapped table
    /// (maintenance windows — no executor attached, no other `Arc`
    /// clones alive); returns [`DurabilityError::TableShared`] otherwise.
    pub fn rebalance_if_drifted(&mut self, threshold: f64) -> Result<usize, DurabilityError> {
        let drifted: Vec<String> = self
            .table
            .columns()
            .iter()
            .filter(|c| c.weight_drift() > threshold)
            .map(|c| c.name().to_string())
            .collect();
        if drifted.is_empty() {
            return Ok(0);
        }
        {
            let table = Arc::get_mut(&mut self.table).ok_or(DurabilityError::TableShared)?;
            for name in &drifted {
                table.rebalance_column(name);
            }
        }
        {
            let mut wal = self.wal.lock().expect("wal lock poisoned");
            wal.writer.append(&WalRecord::Rebalance {
                columns: drifted.clone(),
            })?;
            wal.writer.commit()?;
        }
        // The marker alone already prevents stale boundaries on replay;
        // the immediate checkpoint also makes the re-sharded layout the
        // new baseline so recovery need not redo the rebalance at all.
        self.checkpoint()?;
        Ok(drifted.len())
    }

    /// Captures the whole-table snapshot under the (already held)
    /// quiesce write lock. Concurrent *maintenance* is harmless: it
    /// never changes a shard's live multiset, and
    /// [`ShardedColumn::snapshot_state`] normalizes however far each
    /// shard's refinement or merge has progressed.
    fn capture(&self, snapshot_id: u64, wal_seq: u64) -> TableSnapshot {
        let columns = self
            .table
            .columns()
            .iter()
            .map(|column| {
                let (boundaries, shards) = column.snapshot_state();
                ColumnState {
                    name: column.name().to_string(),
                    algorithm: column.algorithm(),
                    policy: column.policy(),
                    boundaries,
                    shards: shards
                        .into_iter()
                        .map(|(base, sidecar)| ShardState { base, sidecar })
                        .collect(),
                }
            })
            .collect();
        TableSnapshot {
            snapshot_id,
            wal_seq,
            columns,
        }
    }
}

impl Drop for DurableTable {
    fn drop(&mut self) {
        // Best-effort flush of the group-commit buffer on clean
        // shutdown; a crash (the process dying without drop) loses at
        // most the records the fsync policy allowed to be buffered.
        if let Ok(mut wal) = self.wal.lock() {
            let _ = wal.writer.commit();
        }
    }
}
