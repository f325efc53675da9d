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
//! One snapshot is one file: a self-validating manifest (magic, version,
//! a CRC, the WAL sequence number the snapshot reflects — `wal_seq` — and
//! the columns with their sidecars), then the base runs this snapshot
//! wrote. The manifest names each base by a [`BaseRef`] into this or an
//! older file, so a base already written is not written again. A snapshot
//! whose manifest or one of whose runs fails a check decodes to
//! [`CodecError`] — recovery then falls back to the previous snapshot
//! ([`latest_valid_snapshot`]), which is why checkpointing always writes
//! the new snapshot before pruning old ones.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::io;
use std::rc::Rc;
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
/// Current snapshot format version: a manifest, then base runs.
const VERSION: u32 = 2;
/// Envelope header size: magic (4) + version (4) + CRC (4) over the
/// manifest that follows, its fields' byte length (8) included.
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

/// Where a shard's base is stored: a run of bytes in the snapshot file
/// `file` (a [`put_column`] encoding) and the CRC-32 of that run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaseRef {
    /// Id of the snapshot file holding the run.
    pub file: u64,
    /// Byte offset of the run in that file.
    pub offset: u64,
    /// Byte length of the run.
    pub len: u64,
    /// CRC-32 of the run.
    pub crc: u32,
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
    /// Encodes the snapshot self-contained: every base a run in this file.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_reusing(|_, _| None).0
    }

    /// Encodes the snapshot as `[magic][version][manifest CRC][manifest]`
    /// followed by the base runs it writes, in one buffer sized up front:
    /// the base of shard `s` of column `c` is stored as `reused(c, s)`,
    /// when that is `Some`, and as a new run otherwise. Returns the bytes
    /// and every shard's [`BaseRef`], per column in table order.
    pub fn encode_reusing(
        &self,
        reused: impl Fn(usize, usize) -> Option<BaseRef>,
    ) -> (Vec<u8>, Vec<Vec<BaseRef>>) {
        // Lay the file out first: the manifest, then one run per base not
        // reused, in table order. A new run's CRC is known once written.
        let runs_at = HEADER + self.manifest_len();
        let mut end = runs_at as u64;
        let mut refs = Vec::with_capacity(self.columns.len());
        for (c, column) in self.columns.iter().enumerate() {
            refs.push(Vec::with_capacity(column.shards.len()));
            for (s, shard) in column.shards.iter().enumerate() {
                let (offset, len) = (end, 8 + 8 * shard.base.len() as u64);
                let (file, crc) = (self.snapshot_id, 0);
                refs[c].push(reused(c, s).unwrap_or_else(|| {
                    end += len;
                    BaseRef {
                        file,
                        offset,
                        len,
                        crc,
                    }
                }));
            }
        }
        let mut out = Vec::with_capacity(end as usize);
        out.resize(runs_at, 0);
        for (column, refs) in self.columns.iter().zip(&mut refs) {
            for (shard, at) in column.shards.iter().zip(refs) {
                if at.file == self.snapshot_id {
                    put_column(&mut out, &shard.base);
                    at.crc = crc32(&out[at.offset as usize..]);
                }
            }
        }
        debug_assert_eq!(out.len() as u64, end);

        let manifest = &mut Vec::with_capacity(runs_at);
        put_u32(manifest, MAGIC);
        put_u32(manifest, VERSION);
        put_u32(manifest, 0); // the manifest CRC, patched in below
        put_u64(manifest, (runs_at - HEADER - 8) as u64);
        put_u64(manifest, self.snapshot_id);
        put_u64(manifest, self.wal_seq);
        put_u32(manifest, self.columns.len() as u32);
        for (column, refs) in self.columns.iter().zip(&refs) {
            put_str(manifest, &column.name);
            put_algorithm(manifest, column.algorithm);
            put_policy(manifest, column.policy);
            put_values(manifest, &column.boundaries);
            put_u32(manifest, column.shards.len() as u32);
            for (shard, at) in column.shards.iter().zip(refs) {
                for v in [at.file, at.offset, at.len] {
                    put_u64(manifest, v);
                }
                put_u32(manifest, at.crc);
                put_sidecar(manifest, &shard.sidecar);
            }
        }
        debug_assert_eq!(manifest.len(), runs_at);
        let crc = crc32(&manifest[HEADER..]);
        manifest[HEADER - 4..HEADER].copy_from_slice(&crc.to_le_bytes());
        out[..runs_at].copy_from_slice(manifest);
        (out, refs)
    }

    /// Byte length of the manifest after the header, its length field
    /// included.
    fn manifest_len(&self) -> usize {
        let run = |n: usize| 8 + 8 * n;
        let mut len = 8 + 8 + 8 + 4;
        for column in &self.columns {
            // name, algorithm tag, policy tag and value, boundaries,
            // shard count
            len += 4 + column.name.len() + 1 + 9 + run(column.boundaries.len()) + 4;
            for shard in &column.shards {
                // the base reference (file, offset, length, CRC), sidecar
                len +=
                    28 + run(shard.sidecar.inserts().len()) + run(shard.sidecar.tombstones().len());
            }
        }
        len
    }

    /// Decodes a self-contained snapshot ([`TableSnapshot::encode`]),
    /// rejecting bad magic, unknown versions, checksum mismatches,
    /// structural corruption and bases stored in another file.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let elsewhere = |_| Err(CodecError::Invalid("base stored in another snapshot"));
        Ok(Self::decode_with(bytes, elsewhere)?.0)
    }

    /// The one decoder: checks the envelope, parses the manifest, then
    /// reads each base from the run its [`BaseRef`] names — in `bytes`
    /// when the reference names this snapshot, in `load(id)` otherwise —
    /// and checks the run against the reference's CRC. Returns the
    /// snapshot and every shard's reference.
    fn decode_with(
        bytes: &[u8],
        mut load: impl FnMut(u64) -> Result<Rc<Vec<u8>>, CodecError>,
    ) -> Result<(Self, Vec<Vec<BaseRef>>), CodecError> {
        let mut r = ByteReader::new(bytes);
        if r.u32()? != MAGIC {
            return Err(CodecError::Invalid("bad snapshot magic"));
        }
        if r.u32()? != VERSION {
            return Err(CodecError::Invalid("unknown snapshot version"));
        }
        let crc = r.u32()?;
        let fields = r.u64()?;
        let manifest = (fields.checked_add(HEADER as u64 + 8))
            .and_then(|end| bytes.get(HEADER..end as usize))
            .ok_or(CodecError::Truncated)?;
        if crc32(manifest) != crc {
            return Err(CodecError::Invalid("snapshot checksum mismatch"));
        }
        let mut r = ByteReader::new(&manifest[8..]);
        let snapshot_id = r.u64()?;
        let wal_seq = r.u64()?;
        let column_count = r.u32()? as usize;
        if r.remaining() / 8 < column_count {
            return Err(CodecError::Truncated);
        }
        let mut columns = Vec::with_capacity(column_count);
        let mut refs = Vec::with_capacity(column_count);
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
            let mut column_refs = Vec::with_capacity(shard_count);
            for _ in 0..shard_count {
                let (file, offset, len, crc) = (r.u64()?, r.u64()?, r.u64()?, r.u32()?);
                let at = BaseRef {
                    file,
                    offset,
                    len,
                    crc,
                };
                let other;
                let source = if file == snapshot_id {
                    bytes
                } else {
                    other = load(file)?;
                    &other[..]
                };
                let run = (offset.checked_add(len))
                    .and_then(|end| source.get(offset as usize..end as usize))
                    .ok_or(CodecError::Truncated)?;
                if crc32(run) != at.crc {
                    return Err(CodecError::Invalid("base run checksum mismatch"));
                }
                let base = Arc::new(read_column(&mut ByteReader::new(run))?);
                if 8 + 8 * base.len() as u64 != len {
                    return Err(CodecError::Invalid("trailing bytes in base run"));
                }
                let sidecar = read_sidecar(&mut r)?;
                shards.push(ShardState { base, sidecar });
                column_refs.push(at);
            }
            columns.push(ColumnState {
                name,
                algorithm,
                policy,
                boundaries,
                shards,
            });
            refs.push(column_refs);
        }
        if !r.is_empty() {
            return Err(CodecError::Invalid("trailing bytes in snapshot manifest"));
        }
        let snapshot = TableSnapshot {
            snapshot_id,
            wal_seq,
            columns,
        };
        Ok((snapshot, refs))
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

/// Loads the newest snapshot that decodes and validates — its manifest
/// and every base run it references — skipping corrupt, torn or
/// incomplete ones (which checkpointing's save-before-prune order
/// guarantees leaves an older valid snapshot behind, except on a
/// brand-new store or when a run several snapshots share is corrupt).
/// Returns the snapshot with every shard's [`BaseRef`], or `Ok(None)`
/// when no valid snapshot exists.
pub fn latest_valid_snapshot(
    store: &dyn SnapshotStore,
) -> io::Result<Option<(TableSnapshot, Vec<Vec<BaseRef>>)>> {
    // Each file is read once, however many snapshots reference it.
    let mut files: BTreeMap<u64, Rc<Vec<u8>>> = BTreeMap::new();
    let mut load = |id: u64| -> io::Result<Option<Rc<Vec<u8>>>> {
        if let Entry::Vacant(slot) = files.entry(id) {
            match store.load(id) {
                Ok(bytes) => slot.insert(Rc::new(bytes)),
                Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
                Err(e) => return Err(e),
            };
        }
        Ok(files.get(&id).cloned())
    };
    for id in store.ids()?.into_iter().rev() {
        let Some(bytes) = load(id)? else { continue };
        let mut failed = None;
        let decoded = TableSnapshot::decode_with(&bytes, |file| match load(file) {
            Ok(Some(bytes)) => Ok(bytes),
            Ok(None) => Err(CodecError::Invalid("referenced snapshot missing")),
            Err(e) => {
                failed = Some(e);
                Err(CodecError::Invalid("referenced snapshot unreadable"))
            }
        });
        if let Some(e) = failed {
            return Err(e);
        }
        if let Ok(decoded) = decoded {
            return Ok(Some(decoded));
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
    fn encoding_matches_the_version_2_golden() {
        // Captured from the first version-2 encoder and checked field by
        // field against the layout: the length and the header (magic,
        // version, manifest CRC) pin every byte of the format — the
        // manifest through its CRC, each base run through the CRC its
        // reference carries in the manifest — so a change to the encoder
        // or the checksum that still round-trips fails here.
        let bytes = sample_snapshot().encode();
        assert_eq!(bytes.len(), 401);
        assert_eq!(
            bytes[..12],
            [0x50, 0x53, 0x4e, 0x50, 0x02, 0x00, 0x00, 0x00, 0xf7, 0x4f, 0xc8, 0xda]
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
    fn reused_bases_are_read_from_the_file_that_holds_them() {
        let mut store = MemStore::new();
        let old = sample_snapshot();
        let (bytes, old_refs) = old.encode_reusing(|_, _| None);
        assert_eq!(bytes, old.encode());
        store.save(old.snapshot_id, &bytes).unwrap();
        let mut new = sample_snapshot();
        new.snapshot_id = 4;
        let (bytes, refs) = new.encode_reusing(|c, s| Some(old_refs[c][s]));
        assert_eq!(refs, old_refs);
        // Only the manifest, which ends where snapshot 3's first run
        // starts: every base is a run of snapshot 3.
        assert_eq!(bytes.len() as u64, old_refs[0][0].offset);
        assert!(TableSnapshot::decode(&bytes).is_err());
        store.save(4, &bytes).unwrap();
        assert_eq!(latest_valid_snapshot(&store).unwrap(), Some((new, refs)));
        // Without the file holding its bases, snapshot 4 is unusable.
        store.remove(3).unwrap();
        assert_eq!(latest_valid_snapshot(&store).unwrap(), None);
    }

    #[test]
    fn a_version_1_file_is_rejected() {
        let mut bytes = sample_snapshot().encode();
        bytes[4] = 1;
        assert_eq!(
            TableSnapshot::decode(&bytes),
            Err(CodecError::Invalid("unknown snapshot version"))
        );
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
            latest_valid_snapshot(&store)
                .unwrap()
                .unwrap()
                .0
                .snapshot_id,
            2
        );
        // Corrupting the newest falls back to the older one.
        store.corrupt(2, 40, 3);
        assert_eq!(
            latest_valid_snapshot(&store)
                .unwrap()
                .unwrap()
                .0
                .snapshot_id,
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
        assert_eq!(latest_valid_snapshot(&store).unwrap().unwrap().0, snapshot);
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
        assert_eq!(latest_valid_snapshot(&store).unwrap().unwrap().0, snapshot);
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
