//! # pi-durable — write-ahead logging, snapshots and crash recovery
//!
//! Durability for progressive indexes, built around the observation that
//! pi-core's mutable-index model already splits every shard into the two
//! halves a recovery log wants: an **immutable base** whose values change
//! only at merge boundaries (merges start once it is sorted), and a
//! **pending delta sidecar** that absorbs every mutation in between. So:
//! *log the delta, snapshot the merged base.*
//!
//! * [`record`] — what goes in the log: mutation batches, checkpoint
//!   markers and rebalance markers.
//! * [`wal`] — the append-only log itself: CRC-protected frames, group
//!   commit under an [`wal::FsyncPolicy`], tail validation
//!   ([`wal::scan_wal`]) and deterministic fault injection
//!   ([`wal::MemWalHandle`]).
//! * [`snapshot`] — whole-table checkpoints: a checksummed manifest of
//!   sidecars and base references, then the bases not already stored,
//!   stored through a [`snapshot::SnapshotStore`].
//! * [`crc`] — the CRC-32 shared by frames and snapshots.
//!
//! The recovery invariant the engine layer (`pi-engine`) builds on top:
//! after a crash at *any* byte offset of the log, loading the latest
//! valid snapshot and replaying the valid WAL suffix past the snapshot's
//! `wal_seq` reconstructs a table that answers every query exactly like
//! one that applied the durable prefix of mutations in memory — and the
//! torn/corrupt tail (at most the records since the last fsync) is
//! truncated, never partially applied.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod crc;
pub mod record;
pub mod snapshot;
pub mod wal;

pub use record::WalRecord;
pub use snapshot::{
    latest_valid_snapshot, BaseRef, ColumnState, DirStore, MemStore, ShardState, SnapshotStore,
    TableSnapshot,
};
pub use wal::{
    scan_wal, FileWal, FsyncPolicy, MemWal, MemWalHandle, TailStatus, WalMetrics, WalScan,
    WalStorage, WalWriter,
};
