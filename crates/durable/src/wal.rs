//! The append-only write-ahead log: storage abstraction, record framing,
//! group commit and tail validation.
//!
//! ## Frame format
//!
//! Every record occupies one frame:
//!
//! ```text
//! [len: u32 LE] [crc: u32 LE] [seq: u64 LE] [payload: len-8 bytes]
//! ```
//!
//! `len` counts the `seq` field plus the payload; `crc` is
//! CRC-32/ISO-HDLC (the crate's internal `crc` module) over those same
//! bytes.
//! Sequence numbers are assigned by the writer and strictly increase for
//! the lifetime of the log — across checkpoint truncations too — which is
//! how the reader rejects duplicated or reordered suffixes (a torn
//! re-append of an old frame decodes fine but fails the monotonicity
//! check).
//!
//! ## Durability model
//!
//! [`WalWriter`] appends frames into a group-commit buffer and lets the
//! [`FsyncPolicy`] decide when the buffer is pushed to the
//! [`WalStorage`] and fsynced. Everything up to the last sync is the
//! *durable prefix*; a crash loses at most the buffered/unsynced suffix,
//! and recovery ([`scan_wal`] + truncation) restores exactly the durable
//! prefix — never a torn or corrupt tail.
//!
//! ## Fault injection
//!
//! [`MemWal`] implements the storage trait in memory behind a shared
//! [`MemWalHandle`], which can simulate a crash (drop everything after
//! the last fsync), truncate to an arbitrary offset (torn write), flip a
//! bit (media corruption) or duplicate a suffix (misdirected re-append).
//! The recovery tests drive every crash scenario deterministically,
//! without a real crash.

use std::io::{self, Read, Seek, SeekFrom, Write};
use std::sync::{Arc, Mutex};

use pi_obs::{Counter, Gauge, Histogram, MetricsRegistry};

use crate::crc::crc32;
use crate::record::WalRecord;

/// Frame header size: `len` (4) + `crc` (4).
const FRAME_HEADER: usize = 8;
/// `seq` field size inside the measured region.
const SEQ_BYTES: usize = 8;
/// Upper bound on a single frame's measured length; anything larger is
/// treated as corruption rather than allocated.
const MAX_FRAME_LEN: u32 = 1 << 30;

/// Byte-level storage under the write-ahead log. Implementations only
/// need append/sync/read/truncate — the framing, checksums and
/// group-commit policy all live in [`WalWriter`] / [`scan_wal`].
pub trait WalStorage: Send {
    /// Appends raw bytes at the end of the log.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Makes every appended byte durable (fsync).
    fn sync(&mut self) -> io::Result<()>;
    /// Current log length in bytes.
    fn len(&self) -> io::Result<u64>;
    /// `true` when the log holds no bytes.
    fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }
    /// Reads the whole log.
    fn read_all(&mut self) -> io::Result<Vec<u8>>;
    /// Truncates the log to `len` bytes (drops the suffix) and makes the
    /// truncation durable.
    fn truncate(&mut self, len: u64) -> io::Result<()>;
}

/// File-backed [`WalStorage`]: a single append-only file.
pub struct FileWal {
    file: std::fs::File,
}

impl FileWal {
    /// Opens (creating if missing) the log file at `path`.
    pub fn open(path: impl AsRef<std::path::Path>) -> io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Ok(FileWal { file })
    }
}

impl WalStorage for FileWal {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.seek(SeekFrom::End(0))?;
        self.file.write_all(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.file.seek(SeekFrom::Start(0))?;
        let mut out = Vec::new();
        self.file.read_to_end(&mut out)?;
        Ok(out)
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)?;
        self.file.sync_data()
    }
}

/// Shared state behind [`MemWal`] and its fault-injection handle.
#[derive(Debug, Clone, Default)]
struct MemWalState {
    bytes: Vec<u8>,
    /// Length of the durable prefix: everything at or before the last
    /// [`WalStorage::sync`] (or truncation).
    synced_len: usize,
}

/// Handle onto an in-memory WAL: clone it freely, hand
/// [`MemWalHandle::storage`] to a writer, and keep the handle to inspect
/// the log or inject faults between a simulated crash and recovery.
#[derive(Debug, Clone, Default)]
pub struct MemWalHandle {
    state: Arc<Mutex<MemWalState>>,
}

impl MemWalHandle {
    /// A fresh, empty in-memory log.
    pub fn new() -> Self {
        Self::default()
    }

    /// A [`WalStorage`] view over this log.
    pub fn storage(&self) -> MemWal {
        MemWal {
            handle: self.clone(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemWalState> {
        self.state.lock().expect("mem-wal state poisoned")
    }

    /// Current log length in bytes.
    pub fn len(&self) -> usize {
        self.lock().bytes.len()
    }

    /// `true` when the log holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Simulates a crash: every byte appended after the last fsync is
    /// lost (the OS page cache never reached the platter).
    pub fn crash(&self) {
        let mut state = self.lock();
        let synced = state.synced_len;
        state.bytes.truncate(synced);
    }

    /// Truncates the log to exactly `len` bytes — a torn write that cut
    /// a frame (or the tail of one) in half.
    pub fn truncate_to(&self, len: usize) {
        let mut state = self.lock();
        state.bytes.truncate(len);
        state.synced_len = state.synced_len.min(len);
    }

    /// Flips one bit of the stored log — silent media corruption.
    pub fn flip_bit(&self, byte: usize, bit: u8) {
        let mut state = self.lock();
        if let Some(b) = state.bytes.get_mut(byte) {
            *b ^= 1 << (bit % 8);
        }
    }

    /// An independent deep copy of the current log state, for crash
    /// matrices that mutilate many copies of the same history.
    pub fn fork(&self) -> MemWalHandle {
        let state = self.lock();
        MemWalHandle {
            state: Arc::new(Mutex::new(state.clone())),
        }
    }

    /// Re-appends the suffix starting at `from` — a misdirected or
    /// replayed write duplicating already-logged frames.
    pub fn duplicate_suffix(&self, from: usize) {
        let mut state = self.lock();
        if from < state.bytes.len() {
            let dup = state.bytes[from..].to_vec();
            state.bytes.extend_from_slice(&dup);
        }
    }
}

/// In-memory [`WalStorage`]; create through [`MemWalHandle::storage`].
#[derive(Debug, Clone)]
pub struct MemWal {
    handle: MemWalHandle,
}

impl WalStorage for MemWal {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.handle.lock().bytes.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut state = self.handle.lock();
        state.synced_len = state.bytes.len();
        Ok(())
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.handle.len() as u64)
    }

    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        Ok(self.handle.lock().bytes.clone())
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        let mut state = self.handle.lock();
        state.bytes.truncate(len as usize);
        state.synced_len = state.bytes.len();
        Ok(())
    }
}

/// When the group-commit buffer is pushed to storage and fsynced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Every appended record is flushed and fsynced before the append
    /// returns: zero loss window, one fsync per record.
    Always,
    /// Flush and fsync once `n` records have accumulated (group commit);
    /// a crash loses at most the last `n - 1` records.
    EveryN(usize),
}

/// The `wal.*` metric handles (see [`WalMetrics::register`]). Counters
/// and gauges are always live; `group_commit_size` records per flush and
/// `recovery_ms` is stamped by recovery.
pub struct WalMetrics {
    /// Records appended to the log.
    pub appends: Arc<Counter>,
    /// Framed bytes pushed to storage.
    pub bytes: Arc<Counter>,
    /// Fsync calls issued by the writer.
    pub fsyncs: Arc<Counter>,
    /// Checkpoints completed (snapshot durable + log truncated).
    pub checkpoints: Arc<Counter>,
    /// Records per group-commit flush.
    pub group_commit_size: Arc<Histogram>,
    /// Records replayed by the last recovery.
    pub replay_records: Arc<Counter>,
    /// Wall time of the last recovery, milliseconds.
    pub recovery_ms: Arc<Gauge>,
}

impl WalMetrics {
    /// Registers the `wal.*` namespace in `registry`:
    /// `wal.appends`, `wal.bytes`, `wal.fsyncs`, `wal.checkpoints`,
    /// `wal.group_commit_size`, `wal.replay_records`, `wal.recovery_ms`.
    pub fn register(registry: &MetricsRegistry) -> Arc<WalMetrics> {
        Arc::new(WalMetrics {
            appends: registry.counter("wal.appends"),
            bytes: registry.counter("wal.bytes"),
            fsyncs: registry.counter("wal.fsyncs"),
            checkpoints: registry.counter("wal.checkpoints"),
            group_commit_size: registry.histogram("wal.group_commit_size"),
            replay_records: registry.counter("wal.replay_records"),
            recovery_ms: registry.gauge("wal.recovery_ms"),
        })
    }
}

/// The framing, sequencing and group-commit layer over a
/// [`WalStorage`]. See the [module docs](self) for the frame format and
/// durability model.
pub struct WalWriter {
    storage: Box<dyn WalStorage>,
    policy: FsyncPolicy,
    /// Sequence number the next appended record receives.
    next_seq: u64,
    /// Encoded frames not yet pushed to storage.
    buffer: Vec<u8>,
    buffered_records: usize,
    /// Monotone count of framed bytes pushed to storage (never reset by
    /// checkpoint truncation — checkpoint policies diff it).
    bytes_appended: u64,
    metrics: Option<Arc<WalMetrics>>,
}

impl WalWriter {
    /// A writer over `storage` whose next record receives sequence
    /// number `next_seq` (`1` for a fresh log; recovery resumes after
    /// the highest replayed sequence).
    pub fn new(storage: Box<dyn WalStorage>, policy: FsyncPolicy, next_seq: u64) -> Self {
        WalWriter {
            storage,
            policy,
            next_seq: next_seq.max(1),
            buffer: Vec::new(),
            buffered_records: 0,
            bytes_appended: 0,
            metrics: None,
        }
    }

    /// Attaches (or detaches) the `wal.*` metric handles.
    pub fn set_metrics(&mut self, metrics: Option<Arc<WalMetrics>>) {
        self.metrics = metrics;
    }

    /// Frames `record`, stamps it with the next sequence number and
    /// appends it to the group-commit buffer; the [`FsyncPolicy`]
    /// decides whether the buffer is committed before returning. Returns
    /// the record's sequence number.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<u64> {
        let seq = self.next_seq;
        self.next_seq += 1;
        // Frame in place: reserve the header, write the measured bytes
        // behind it, then patch in their length and CRC.
        let frame = self.buffer.len();
        self.buffer.extend_from_slice(&[0; FRAME_HEADER]);
        self.buffer.extend_from_slice(&seq.to_le_bytes());
        record.encode(&mut self.buffer);
        let measured = &self.buffer[frame + FRAME_HEADER..];
        let (len, crc) = (measured.len() as u32, crc32(measured));
        self.buffer[frame..frame + 4].copy_from_slice(&len.to_le_bytes());
        self.buffer[frame + 4..frame + FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
        self.buffered_records += 1;
        if let Some(metrics) = &self.metrics {
            metrics.appends.inc();
        }
        match self.policy {
            FsyncPolicy::Always => self.commit()?,
            FsyncPolicy::EveryN(n) => {
                if self.buffered_records >= n.max(1) {
                    self.commit()?;
                }
            }
        }
        Ok(seq)
    }

    /// Pushes the group-commit buffer to storage and fsyncs: everything
    /// appended so far becomes part of the durable prefix.
    pub fn commit(&mut self) -> io::Result<()> {
        if !self.buffer.is_empty() {
            self.storage.append(&self.buffer)?;
            self.bytes_appended += self.buffer.len() as u64;
            if let Some(metrics) = &self.metrics {
                metrics.bytes.add(self.buffer.len() as u64);
                metrics
                    .group_commit_size
                    .record(self.buffered_records as u64);
            }
            self.buffer.clear();
            self.buffered_records = 0;
        }
        self.storage.sync()?;
        if let Some(metrics) = &self.metrics {
            metrics.fsyncs.inc();
        }
        Ok(())
    }

    /// Sequence number of the most recently appended record (`0` when
    /// nothing was appended yet).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Monotone count of framed bytes pushed to storage; checkpoint
    /// policies diff it across checkpoints (truncation does not reset
    /// it).
    pub fn bytes_appended(&self) -> u64 {
        self.bytes_appended
    }

    /// Drops every logged byte (checkpoint truncation: the snapshot now
    /// owns the history). Buffered-but-uncommitted records are dropped
    /// too — callers commit first. Sequence numbers keep increasing
    /// across the truncation.
    pub fn truncate_all(&mut self) -> io::Result<()> {
        self.buffer.clear();
        self.buffered_records = 0;
        self.storage.truncate(0)
    }
}

/// How the readable tail of a log ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailStatus {
    /// The log ended exactly at a frame boundary.
    Clean,
    /// The last frame was cut short (torn write); the bytes before it
    /// are intact.
    TornTail,
    /// A frame failed its CRC or decoded to garbage; the bytes before it
    /// are intact.
    CorruptRecord,
    /// A frame carried a non-increasing sequence number (duplicated or
    /// reordered suffix); the bytes before it are intact.
    OutOfOrder,
}

/// Result of validating a log's bytes: the records of the longest valid
/// prefix, that prefix's byte length, and how the tail ended. Recovery
/// replays `records` and truncates the log to `valid_len`.
#[derive(Debug)]
pub struct WalScan {
    /// `(sequence number, record)` pairs of the valid prefix, in log
    /// order.
    pub records: Vec<(u64, WalRecord)>,
    /// Byte length of the valid prefix.
    pub valid_len: u64,
    /// How the tail ended.
    pub tail: TailStatus,
}

/// Validates `bytes` frame by frame, stopping at the first torn,
/// corrupt or out-of-order frame. Never panics: every failure mode maps
/// to a [`TailStatus`] and a shorter valid prefix.
pub fn scan_wal(bytes: &[u8]) -> WalScan {
    let mut records = Vec::new();
    let mut at = 0usize;
    let mut last_seq = 0u64;
    let tail = loop {
        if at == bytes.len() {
            break TailStatus::Clean;
        }
        if bytes.len() - at < FRAME_HEADER {
            break TailStatus::TornTail;
        }
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes"));
        if len < SEQ_BYTES as u32 || len > MAX_FRAME_LEN {
            break TailStatus::CorruptRecord;
        }
        let len = len as usize;
        if bytes.len() - at - FRAME_HEADER < len {
            break TailStatus::TornTail;
        }
        let measured = &bytes[at + FRAME_HEADER..at + FRAME_HEADER + len];
        if crc32(measured) != crc {
            break TailStatus::CorruptRecord;
        }
        let seq = u64::from_le_bytes(measured[..SEQ_BYTES].try_into().expect("8 bytes"));
        if seq <= last_seq {
            break TailStatus::OutOfOrder;
        }
        let record = match WalRecord::decode(&measured[SEQ_BYTES..]) {
            Ok(record) => record,
            Err(_) => break TailStatus::CorruptRecord,
        };
        last_seq = seq;
        records.push((seq, record));
        at += FRAME_HEADER + len;
    };
    WalScan {
        records,
        valid_len: at as u64,
        tail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_core::mutation::Mutation;

    impl MemWalHandle {
        /// Length of the durable (fsynced) prefix.
        fn synced_len(&self) -> usize {
            self.lock().synced_len
        }
    }

    fn batch(column: &str, values: &[u64]) -> WalRecord {
        WalRecord::MutationBatch {
            column: column.into(),
            ops: values.iter().map(|&v| Mutation::Insert(v)).collect(),
        }
    }

    #[test]
    fn append_scan_round_trips_in_order() {
        let handle = MemWalHandle::new();
        let mut writer = WalWriter::new(Box::new(handle.storage()), FsyncPolicy::Always, 1);
        let records = vec![
            batch("a", &[1, 2, 3]),
            WalRecord::Checkpoint { snapshot_id: 0 },
            batch("b", &[9]),
            WalRecord::Rebalance {
                columns: vec!["a".into()],
            },
        ];
        for (i, record) in records.iter().enumerate() {
            assert_eq!(writer.append(record).unwrap(), i as u64 + 1);
        }
        assert_eq!(writer.last_seq(), 4);
        let bytes = handle.storage().read_all().unwrap();
        let scan = scan_wal(&bytes);
        assert_eq!(scan.tail, TailStatus::Clean);
        assert_eq!(scan.valid_len, bytes.len() as u64);
        let decoded: Vec<WalRecord> = scan.records.iter().map(|(_, r)| r.clone()).collect();
        assert_eq!(decoded, records);
        let seqs: Vec<u64> = scan.records.iter().map(|&(s, _)| s).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4]);
    }

    #[test]
    fn framing_matches_the_version_1_golden() {
        // Captured from the first writer, which framed each record in a
        // Vec of its own: the frame lengths and CRCs pin every byte.
        let handle = MemWalHandle::new();
        let mut writer = WalWriter::new(Box::new(handle.storage()), FsyncPolicy::Always, 1);
        writer.append(&batch("a", &[1, 2, 3])).unwrap();
        writer
            .append(&WalRecord::Checkpoint { snapshot_id: 0 })
            .unwrap();
        let bytes = handle.storage().read_all().unwrap();
        assert_eq!(bytes.len(), 78);
        let header = |at: usize| {
            let word = |i: usize| u32::from_le_bytes(bytes[i..i + 4].try_into().unwrap());
            (word(at), word(at + 4))
        };
        assert_eq!(header(0), (0x2d, 0xf6b8_ae9d));
        assert_eq!(header(FRAME_HEADER + 0x2d), (0x11, 0x3325_49fc));
        assert_eq!(scan_wal(&bytes).records.len(), 2);
    }

    #[test]
    fn always_policy_makes_every_record_durable() {
        let handle = MemWalHandle::new();
        let mut writer = WalWriter::new(Box::new(handle.storage()), FsyncPolicy::Always, 1);
        writer.append(&batch("a", &[1])).unwrap();
        assert_eq!(handle.synced_len(), handle.len());
        handle.crash();
        assert_eq!(
            scan_wal(&handle.storage().read_all().unwrap())
                .records
                .len(),
            1
        );
    }

    #[test]
    fn group_commit_buffers_until_the_nth_record() {
        let handle = MemWalHandle::new();
        let mut writer = WalWriter::new(Box::new(handle.storage()), FsyncPolicy::EveryN(3), 1);
        writer.append(&batch("a", &[1])).unwrap();
        writer.append(&batch("a", &[2])).unwrap();
        // Nothing pushed yet: a crash here loses both records.
        assert_eq!(handle.len(), 0);
        writer.append(&batch("a", &[3])).unwrap();
        assert!(!handle.is_empty());
        assert_eq!(handle.synced_len(), handle.len());
        // Explicit commit drains a partial group.
        writer.append(&batch("a", &[4])).unwrap();
        assert_eq!(handle.synced_len(), handle.len());
        let before = handle.len();
        writer.commit().unwrap();
        assert!(handle.len() > before);
        assert_eq!(
            scan_wal(&handle.storage().read_all().unwrap())
                .records
                .len(),
            4
        );
    }

    #[test]
    fn crash_drops_exactly_the_unsynced_suffix() {
        let handle = MemWalHandle::new();
        let mut writer = WalWriter::new(Box::new(handle.storage()), FsyncPolicy::EveryN(2), 1);
        for i in 0..5u64 {
            writer.append(&batch("a", &[i])).unwrap();
        }
        // 4 records durable (two groups of 2), the 5th buffered.
        handle.crash();
        let scan = scan_wal(&handle.storage().read_all().unwrap());
        assert_eq!(scan.tail, TailStatus::Clean);
        assert_eq!(scan.records.len(), 4);
    }

    #[test]
    fn torn_tail_is_cut_at_the_last_whole_frame() {
        let handle = MemWalHandle::new();
        let mut writer = WalWriter::new(Box::new(handle.storage()), FsyncPolicy::Always, 1);
        writer.append(&batch("a", &[1, 2, 3])).unwrap();
        let first = handle.len();
        writer.append(&batch("a", &[4, 5, 6])).unwrap();
        // Cut anywhere strictly inside the second frame.
        for cut in first + 1..handle.len() {
            let bytes = handle.storage().read_all().unwrap();
            let scan = scan_wal(&bytes[..cut]);
            assert_eq!(scan.records.len(), 1, "cut at {cut}");
            assert_eq!(scan.valid_len, first as u64, "cut at {cut}");
            assert_eq!(scan.tail, TailStatus::TornTail, "cut at {cut}");
        }
    }

    #[test]
    fn bit_flips_stop_the_scan_at_the_corrupt_frame() {
        let handle = MemWalHandle::new();
        let mut writer = WalWriter::new(Box::new(handle.storage()), FsyncPolicy::Always, 1);
        writer.append(&batch("a", &[1])).unwrap();
        let first = handle.len();
        writer.append(&batch("a", &[2])).unwrap();
        writer.append(&batch("a", &[3])).unwrap();
        let pristine = handle.storage().read_all().unwrap();
        // Flip one bit in the middle frame: the scan must keep record 1,
        // reject record 2, and never panic.
        for byte in first..pristine.len() - first {
            let mut copy = pristine.clone();
            copy[byte] ^= 0x10;
            let scan = scan_wal(&copy);
            assert!(scan.records.len() <= 1, "byte {byte} resurrected data");
            assert_ne!(scan.tail, TailStatus::Clean, "byte {byte} undetected");
        }
    }

    #[test]
    fn duplicated_suffix_is_rejected_as_out_of_order() {
        let handle = MemWalHandle::new();
        let mut writer = WalWriter::new(Box::new(handle.storage()), FsyncPolicy::Always, 1);
        writer.append(&batch("a", &[1])).unwrap();
        let first = handle.len();
        writer.append(&batch("a", &[2])).unwrap();
        let clean_len = handle.len();
        handle.duplicate_suffix(first);
        let scan = scan_wal(&handle.storage().read_all().unwrap());
        assert_eq!(scan.tail, TailStatus::OutOfOrder);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.valid_len, clean_len as u64);
    }

    #[test]
    fn sequence_numbers_survive_checkpoint_truncation() {
        let handle = MemWalHandle::new();
        let mut writer = WalWriter::new(Box::new(handle.storage()), FsyncPolicy::Always, 1);
        writer.append(&batch("a", &[1])).unwrap();
        writer.append(&batch("a", &[2])).unwrap();
        writer.truncate_all().unwrap();
        writer.append(&batch("a", &[3])).unwrap();
        let scan = scan_wal(&handle.storage().read_all().unwrap());
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].0, 3, "seq keeps increasing after truncate");
        assert_eq!(scan.tail, TailStatus::Clean);
    }

    #[test]
    fn file_wal_round_trips_on_disk() {
        let dir = std::env::temp_dir().join(format!("pi-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.wal");
        {
            let mut writer = WalWriter::new(
                Box::new(FileWal::open(&path).unwrap()),
                FsyncPolicy::Always,
                1,
            );
            writer.append(&batch("a", &[7, 8])).unwrap();
            writer
                .append(&WalRecord::Checkpoint { snapshot_id: 1 })
                .unwrap();
        }
        let mut reopened = FileWal::open(&path).unwrap();
        let scan = scan_wal(&reopened.read_all().unwrap());
        assert_eq!(scan.tail, TailStatus::Clean);
        assert_eq!(scan.records.len(), 2);
        reopened.truncate(scan.valid_len).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn metrics_count_appends_bytes_and_fsyncs() {
        let registry = MetricsRegistry::new();
        let handle = MemWalHandle::new();
        let mut writer = WalWriter::new(Box::new(handle.storage()), FsyncPolicy::EveryN(2), 1);
        writer.set_metrics(Some(WalMetrics::register(&registry)));
        writer.append(&batch("a", &[1])).unwrap();
        writer.append(&batch("a", &[2])).unwrap();
        writer.append(&batch("a", &[3])).unwrap();
        writer.commit().unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("wal.appends"), Some(3));
        assert_eq!(snap.counter("wal.bytes"), Some(handle.len() as u64));
        // One policy-driven fsync (group of 2) + one explicit commit.
        assert_eq!(snap.counter("wal.fsyncs"), Some(2));
    }
}
