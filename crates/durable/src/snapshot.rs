//! Whole-table snapshots: the checkpointed half of "log the delta,
//! snapshot the merged base".
//!
//! A [`TableSnapshot`] captures, per column, exactly what the
//! delta-sidecar model already maintains: the immutable base
//! [`Column`] each shard's progressive index refines plus the pending
//! [`DeltaSidecar`] not yet merged into it — along with the shard
//! boundaries and index configuration needed to rebuild the sharded
//! column. Refinement state (pivot trees, radix buckets, merge progress)
//! is deliberately *not* captured: it is a cache rebuilt from the base
//! by querying, and recovery restarting the refinement lifecycle loses
//! no data and changes no answer. (A base that was sorted when captured
//! decodes sorted, so its index has no refinement to restart.)
//!
//! The byte format wraps the [`pi_storage::snapshot`] primitives in a
//! self-validating envelope: magic, version, a CRC over the body, and
//! the WAL sequence number the snapshot reflects (`wal_seq`) so recovery
//! knows exactly which WAL suffix still needs replaying. A snapshot that
//! fails any check decodes to [`CodecError`] — recovery then falls back
//! to the previous snapshot ([`latest_valid_snapshot`]), which is why
//! checkpointing always writes the new snapshot before pruning old ones.

use std::collections::BTreeMap;
use std::io;
use std::sync::{Arc, Mutex};

use pi_core::budget::BudgetPolicy;
use pi_core::decision::Algorithm;
use pi_storage::column::{Column, Value};
use pi_storage::delta::DeltaSidecar;
use pi_storage::snapshot::{
    put_column, put_sidecar, put_str, put_u32, put_u64, put_values, read_column, read_sidecar,
    ByteReader, CodecError,
};

use crate::crc::crc32;

/// First bytes of every encoded snapshot: `b"PSNP"`.
const MAGIC: u32 = u32::from_le_bytes(*b"PSNP");
/// Current snapshot format version.
const VERSION: u32 = 1;
/// Envelope header size: magic (4) + version (4) + body CRC (4).
const HEADER: usize = 12;

const ALG_QUICKSORT: u8 = 1;
const ALG_RADIX_MSD: u8 = 2;
const ALG_RADIX_LSD: u8 = 3;
const ALG_BUCKETSORT: u8 = 4;

const POLICY_FIXED_DELTA: u8 = 1;
const POLICY_FIXED_BUDGET: u8 = 2;
const POLICY_ADAPTIVE: u8 = 3;

/// One shard's durable state: the immutable base the progressive index
/// refines, plus the pending delta not yet merged into it.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardState {
    /// The merged, immutable base column.
    pub base: Arc<Column>,
    /// Inserts and tombstones awaiting the next merge.
    pub sidecar: DeltaSidecar,
}

/// One column's durable state.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnState {
    /// Column name.
    pub name: String,
    /// Progressive algorithm the column's shards refine with.
    pub algorithm: Algorithm,
    /// Per-query indexing budget policy.
    pub policy: BudgetPolicy,
    /// Ascending split points of the range partition (empty for a
    /// single-shard column).
    pub boundaries: Vec<Value>,
    /// Per-shard base + sidecar, in partition order.
    pub shards: Vec<ShardState>,
}

/// A whole-table snapshot: everything recovery needs apart from the WAL
/// suffix logged after `wal_seq`.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSnapshot {
    /// Monotonically increasing snapshot identifier.
    pub snapshot_id: u64,
    /// Highest WAL sequence number reflected in this snapshot; replay
    /// skips records at or below it.
    pub wal_seq: u64,
    /// Per-column state, in table order.
    pub columns: Vec<ColumnState>,
}

fn put_algorithm(out: &mut Vec<u8>, algorithm: Algorithm) {
    out.push(match algorithm {
        Algorithm::Quicksort => ALG_QUICKSORT,
        Algorithm::RadixsortMsd => ALG_RADIX_MSD,
        Algorithm::RadixsortLsd => ALG_RADIX_LSD,
        Algorithm::Bucketsort => ALG_BUCKETSORT,
    });
}

fn read_algorithm(r: &mut ByteReader<'_>) -> Result<Algorithm, CodecError> {
    match r.take(1)?[0] {
        ALG_QUICKSORT => Ok(Algorithm::Quicksort),
        ALG_RADIX_MSD => Ok(Algorithm::RadixsortMsd),
        ALG_RADIX_LSD => Ok(Algorithm::RadixsortLsd),
        ALG_BUCKETSORT => Ok(Algorithm::Bucketsort),
        _ => Err(CodecError::Invalid("unknown algorithm tag")),
    }
}

fn put_policy(out: &mut Vec<u8>, policy: BudgetPolicy) {
    let (tag, value) = match policy {
        BudgetPolicy::FixedDelta(v) => (POLICY_FIXED_DELTA, v),
        BudgetPolicy::FixedBudget(v) => (POLICY_FIXED_BUDGET, v),
        BudgetPolicy::Adaptive(v) => (POLICY_ADAPTIVE, v),
    };
    out.push(tag);
    put_u64(out, value.to_bits());
}

fn read_policy(r: &mut ByteReader<'_>) -> Result<BudgetPolicy, CodecError> {
    let tag = r.take(1)?[0];
    let value = f64::from_bits(r.u64()?);
    if !value.is_finite() {
        return Err(CodecError::Invalid("non-finite budget value"));
    }
    match tag {
        POLICY_FIXED_DELTA => Ok(BudgetPolicy::FixedDelta(value)),
        POLICY_FIXED_BUDGET => Ok(BudgetPolicy::FixedBudget(value)),
        POLICY_ADAPTIVE => Ok(BudgetPolicy::Adaptive(value)),
        _ => Err(CodecError::Invalid("unknown policy tag")),
    }
}

impl TableSnapshot {
    /// Encodes the snapshot into its self-validating envelope:
    /// `[magic][version][body_crc][body]`, in one buffer sized up front.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        put_u32(&mut out, MAGIC);
        put_u32(&mut out, VERSION);
        put_u32(&mut out, 0); // the body CRC, patched in below
        put_u64(&mut out, self.snapshot_id);
        put_u64(&mut out, self.wal_seq);
        put_u32(&mut out, self.columns.len() as u32);
        for column in &self.columns {
            put_str(&mut out, &column.name);
            put_algorithm(&mut out, column.algorithm);
            put_policy(&mut out, column.policy);
            put_values(&mut out, &column.boundaries);
            put_u32(&mut out, column.shards.len() as u32);
            for shard in &column.shards {
                put_column(&mut out, &shard.base);
                put_sidecar(&mut out, &shard.sidecar);
            }
        }
        debug_assert_eq!(out.len(), self.encoded_len());
        let crc = crc32(&out[HEADER..]);
        out[HEADER - 4..HEADER].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Byte length of [`TableSnapshot::encode`]'s output.
    fn encoded_len(&self) -> usize {
        let run = |n: usize| 8 + 8 * n;
        let mut len = HEADER + 8 + 8 + 4;
        for column in &self.columns {
            // name, algorithm tag, policy tag and value, boundaries,
            // shard count
            len += 4 + column.name.len() + 1 + 9 + run(column.boundaries.len()) + 4;
            for shard in &column.shards {
                len += run(shard.base.len())
                    + run(shard.sidecar.inserts().len())
                    + run(shard.sidecar.tombstones().len());
            }
        }
        len
    }

    /// Decodes an envelope written by [`TableSnapshot::encode`],
    /// rejecting bad magic, unknown versions, checksum mismatches and
    /// structural corruption.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(bytes);
        if r.u32()? != MAGIC {
            return Err(CodecError::Invalid("bad snapshot magic"));
        }
        if r.u32()? != VERSION {
            return Err(CodecError::Invalid("unknown snapshot version"));
        }
        let crc = r.u32()?;
        let body = &bytes[HEADER..];
        if crc32(body) != crc {
            return Err(CodecError::Invalid("snapshot checksum mismatch"));
        }
        let snapshot_id = r.u64()?;
        let wal_seq = r.u64()?;
        let column_count = r.u32()? as usize;
        if r.remaining() / 8 < column_count {
            return Err(CodecError::Truncated);
        }
        let mut columns = Vec::with_capacity(column_count);
        for _ in 0..column_count {
            let name = r.str()?;
            let algorithm = read_algorithm(&mut r)?;
            let policy = read_policy(&mut r)?;
            let boundaries = r.values()?;
            if boundaries.windows(2).any(|w| w[0] >= w[1]) {
                return Err(CodecError::Invalid("non-ascending shard boundaries"));
            }
            let shard_count = r.u32()? as usize;
            if shard_count != boundaries.len() + 1 {
                return Err(CodecError::Invalid("shard count vs boundaries mismatch"));
            }
            let mut shards = Vec::with_capacity(shard_count);
            for _ in 0..shard_count {
                let base = Arc::new(read_column(&mut r)?);
                let sidecar = read_sidecar(&mut r)?;
                shards.push(ShardState { base, sidecar });
            }
            columns.push(ColumnState {
                name,
                algorithm,
                policy,
                boundaries,
                shards,
            });
        }
        if !r.is_empty() {
            return Err(CodecError::Invalid("trailing bytes in snapshot"));
        }
        Ok(TableSnapshot {
            snapshot_id,
            wal_seq,
            columns,
        })
    }
}

/// Durable storage for encoded snapshots, keyed by snapshot id.
pub trait SnapshotStore: Send {
    /// Durably stores `bytes` under `id` (atomically: a crash mid-save
    /// must not corrupt an older snapshot).
    fn save(&mut self, id: u64, bytes: &[u8]) -> io::Result<()>;
    /// Stored snapshot ids, ascending.
    fn ids(&self) -> io::Result<Vec<u64>>;
    /// Reads the snapshot stored under `id`.
    fn load(&self, id: u64) -> io::Result<Vec<u8>>;
    /// Deletes the snapshot stored under `id` (missing ids are fine).
    fn remove(&mut self, id: u64) -> io::Result<()>;
}

/// Directory-backed [`SnapshotStore`]: one `NNNN.snap` file per
/// snapshot, written to a temporary name and renamed into place so a
/// crash mid-write never leaves a half-written file under a live name.
pub struct DirStore {
    dir: std::path::PathBuf,
}

impl DirStore {
    /// Opens (creating if missing) the snapshot directory at `dir`,
    /// deleting the temporary files of saves a crash cut short.
    pub fn open(dir: impl Into<std::path::PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            let stem = path
                .file_name()
                .and_then(|n| n.to_str()?.strip_suffix(".tmp"));
            if stem.is_some_and(|id| id.parse::<u64>().is_ok()) {
                std::fs::remove_file(&path)?;
            }
        }
        Ok(DirStore { dir })
    }

    fn path(&self, id: u64) -> std::path::PathBuf {
        self.dir.join(format!("{id:020}.snap"))
    }
}

/// Writes `bytes` to a fresh file at `path` and makes them durable.
fn write_synced(path: &std::path::Path, bytes: &[u8]) -> io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    io::Write::write_all(&mut file, bytes)?;
    file.sync_data()
}

impl SnapshotStore for DirStore {
    fn save(&mut self, id: u64, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.dir.join(format!("{id:020}.tmp"));
        let saved = write_synced(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, self.path(id)));
        if let Err(e) = saved {
            // Best effort: the save has failed already, and `open`
            // sweeps whatever this leaves.
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        // Make the rename itself durable.
        std::fs::File::open(&self.dir)?.sync_data()?;
        Ok(())
    }

    fn ids(&self) -> io::Result<Vec<u64>> {
        let mut ids = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            if let Some(stem) = name.to_str().and_then(|n| n.strip_suffix(".snap")) {
                if let Ok(id) = stem.parse::<u64>() {
                    ids.push(id);
                }
            }
        }
        ids.sort_unstable();
        Ok(ids)
    }

    fn load(&self, id: u64) -> io::Result<Vec<u8>> {
        std::fs::read(self.path(id))
    }

    fn remove(&mut self, id: u64) -> io::Result<()> {
        match std::fs::remove_file(self.path(id)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }
}

/// In-memory [`SnapshotStore`] for tests and fault injection; clones
/// share the same underlying map, so a handle kept aside still sees
/// snapshots saved through the store after a simulated crash.
#[derive(Debug, Clone, Default)]
pub struct MemStore {
    snaps: Arc<Mutex<BTreeMap<u64, Vec<u8>>>>,
}

impl MemStore {
    /// A fresh, empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// An independent deep copy of the stored snapshots, for crash
    /// matrices that mutilate many copies of the same history.
    pub fn fork(&self) -> MemStore {
        let snaps = self.snaps.lock().expect("mem-store poisoned");
        MemStore {
            snaps: Arc::new(Mutex::new(snaps.clone())),
        }
    }

    /// Flips one bit of the snapshot stored under `id` — simulated
    /// media corruption for recovery tests.
    pub fn corrupt(&self, id: u64, byte: usize, bit: u8) {
        let mut snaps = self.snaps.lock().expect("mem-store poisoned");
        if let Some(bytes) = snaps.get_mut(&id) {
            if let Some(b) = bytes.get_mut(byte) {
                *b ^= 1 << (bit % 8);
            }
        }
    }
}

impl SnapshotStore for MemStore {
    fn save(&mut self, id: u64, bytes: &[u8]) -> io::Result<()> {
        self.snaps
            .lock()
            .expect("mem-store poisoned")
            .insert(id, bytes.to_vec());
        Ok(())
    }

    fn ids(&self) -> io::Result<Vec<u64>> {
        Ok(self
            .snaps
            .lock()
            .expect("mem-store poisoned")
            .keys()
            .copied()
            .collect())
    }

    fn load(&self, id: u64) -> io::Result<Vec<u8>> {
        self.snaps
            .lock()
            .expect("mem-store poisoned")
            .get(&id)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("snapshot {id}")))
    }

    fn remove(&mut self, id: u64) -> io::Result<()> {
        self.snaps.lock().expect("mem-store poisoned").remove(&id);
        Ok(())
    }
}

/// Loads the newest snapshot that decodes and validates, skipping
/// corrupt or torn ones (which checkpointing's save-before-prune order
/// guarantees leaves an older valid snapshot behind, except on a
/// brand-new store). Returns `Ok(None)` when no valid snapshot exists.
pub fn latest_valid_snapshot(store: &dyn SnapshotStore) -> io::Result<Option<TableSnapshot>> {
    for id in store.ids()?.into_iter().rev() {
        let bytes = match store.load(id) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        };
        if let Ok(snapshot) = TableSnapshot::decode(&bytes) {
            return Ok(Some(snapshot));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> TableSnapshot {
        let mut sidecar = DeltaSidecar::new();
        sidecar.insert(42);
        sidecar.insert(7);
        sidecar.add_tombstone(99);
        TableSnapshot {
            snapshot_id: 3,
            wal_seq: 17,
            columns: vec![
                ColumnState {
                    name: "ra".into(),
                    algorithm: Algorithm::Quicksort,
                    policy: BudgetPolicy::FixedDelta(0.25),
                    boundaries: vec![100, 200],
                    shards: vec![
                        ShardState {
                            base: Arc::new(Column::from_vec(vec![5, 50, 99])),
                            sidecar: sidecar.clone(),
                        },
                        ShardState {
                            base: Arc::new(Column::from_vec(vec![150])),
                            sidecar: DeltaSidecar::new(),
                        },
                        ShardState {
                            base: Arc::new(Column::from_vec(vec![])),
                            sidecar: DeltaSidecar::new(),
                        },
                    ],
                },
                ColumnState {
                    name: "dec".into(),
                    algorithm: Algorithm::Bucketsort,
                    policy: BudgetPolicy::Adaptive(0.001),
                    boundaries: vec![],
                    shards: vec![ShardState {
                        base: Arc::new(Column::from_vec(vec![1, 2, 3])),
                        sidecar: DeltaSidecar::new(),
                    }],
                },
            ],
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let snapshot = sample_snapshot();
        let bytes = snapshot.encode();
        assert_eq!(TableSnapshot::decode(&bytes).unwrap(), snapshot);
    }

    #[test]
    fn encoding_matches_the_version_1_golden() {
        // Captured from the first byte-at-a-time encoder: the length and
        // the header (magic, version, body CRC) pin every byte of the
        // format, so a change to the encoder or the checksum that still
        // round-trips fails here.
        let bytes = sample_snapshot().encode();
        assert_eq!(bytes.len(), 281);
        assert_eq!(
            bytes[..12],
            [0x50, 0x53, 0x4e, 0x50, 0x01, 0x00, 0x00, 0x00, 0xf6, 0x14, 0xa1, 0xc8]
        );
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let bytes = sample_snapshot().encode();
        for byte in 0..bytes.len() {
            let mut copy = bytes.clone();
            copy[byte] ^= 0x08;
            assert!(TableSnapshot::decode(&copy).is_err(), "byte {byte}");
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample_snapshot().encode();
        for cut in 0..bytes.len() {
            assert!(TableSnapshot::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn mem_store_returns_newest_valid_snapshot() {
        let mut store = MemStore::new();
        let mut old = sample_snapshot();
        old.snapshot_id = 1;
        let mut new = sample_snapshot();
        new.snapshot_id = 2;
        store.save(1, &old.encode()).unwrap();
        store.save(2, &new.encode()).unwrap();
        assert_eq!(
            latest_valid_snapshot(&store).unwrap().unwrap().snapshot_id,
            2
        );
        // Corrupting the newest falls back to the older one.
        store.corrupt(2, 40, 3);
        assert_eq!(
            latest_valid_snapshot(&store).unwrap().unwrap().snapshot_id,
            1
        );
        assert_eq!(store.ids().unwrap(), vec![1, 2]);
    }

    #[test]
    fn dir_store_round_trips_and_prunes() {
        let dir = std::env::temp_dir().join(format!("pi-snap-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = DirStore::open(&dir).unwrap();
        let snapshot = sample_snapshot();
        store.save(3, &snapshot.encode()).unwrap();
        store.save(4, &snapshot.encode()).unwrap();
        assert_eq!(store.ids().unwrap(), vec![3, 4]);
        assert_eq!(latest_valid_snapshot(&store).unwrap().unwrap(), snapshot);
        store.remove(3).unwrap();
        store.remove(3).unwrap(); // idempotent
        assert_eq!(store.ids().unwrap(), vec![4]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dir_store_sweeps_stale_temp_files_on_open() {
        let dir = std::env::temp_dir().join(format!("pi-snap-sweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let snapshot = sample_snapshot();
        DirStore::open(&dir)
            .unwrap()
            .save(3, &snapshot.encode())
            .unwrap();
        // A crash mid-save of snapshot 4 left its temp file behind.
        let stale = dir.join(format!("{:020}.tmp", 4));
        std::fs::write(&stale, b"half a snapshot").unwrap();
        // A file the store did not name is not the store's to delete.
        let foreign = dir.join("notes.tmp");
        std::fs::write(&foreign, b"someone else's").unwrap();
        let store = DirStore::open(&dir).unwrap();
        assert!(!stale.exists(), "stale temp file survived reopening");
        assert!(foreign.exists());
        assert_eq!(store.ids().unwrap(), vec![3]);
        assert_eq!(latest_valid_snapshot(&store).unwrap().unwrap(), snapshot);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dir_store_removes_the_temp_file_of_a_failed_save() {
        let dir = std::env::temp_dir().join(format!("pi-snap-fail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = DirStore::open(&dir).unwrap();
        // A non-empty directory squatting on the live name makes the
        // rename fail after the temp file was written and synced.
        let live = dir.join(format!("{:020}.snap", 5));
        std::fs::create_dir_all(live.join("occupied")).unwrap();
        assert!(store.save(5, &sample_snapshot().encode()).is_err());
        assert!(!dir.join(format!("{:020}.tmp", 5)).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_store_recovers_to_none() {
        assert!(latest_valid_snapshot(&MemStore::new()).unwrap().is_none());
    }
}
