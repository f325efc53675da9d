//! WAL record types and their byte codec.
//!
//! The write-ahead log is a sequence of length-framed, CRC-protected
//! records (framing lives in [`crate::wal`]); this module owns what goes
//! *inside* a frame. Three record kinds exist:
//!
//! * [`WalRecord::MutationBatch`] — one durable write batch against one
//!   column, exactly as submitted. Replay re-applies the batch through
//!   the same serial path the live system used, so rejected mutations
//!   (deletes of absent values) are re-rejected deterministically.
//! * [`WalRecord::Checkpoint`] — a marker that snapshot `snapshot_id`
//!   was made durable; everything before it is already reflected in that
//!   snapshot. Informational during replay (recovery trusts the
//!   snapshot's own WAL sequence number, not the marker).
//! * [`WalRecord::Rebalance`] — the named columns re-drew their
//!   equi-depth shard boundaries at this point of the mutation stream.
//!   Boundary re-draws are deterministic functions of the live values,
//!   so logging *that* a re-balance happened (and where in the stream)
//!   is enough for replay to reproduce the exact boundaries — recovery
//!   can never resurrect stale pre-rebalance shard layouts.

use pi_core::mutation::Mutation;
use pi_storage::snapshot::{put_str, put_u32, put_u64, ByteReader, CodecError};

/// One logical entry of the write-ahead log. See the [module
/// docs](self).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A durable mutation batch against `column`.
    MutationBatch {
        /// Name of the mutated column.
        column: String,
        /// The batch, in submission order.
        ops: Vec<Mutation>,
    },
    /// Snapshot `snapshot_id` was made durable before this point.
    Checkpoint {
        /// Identifier of the durable snapshot.
        snapshot_id: u64,
    },
    /// The named columns re-drew their shard boundaries here.
    Rebalance {
        /// Names of the re-balanced columns.
        columns: Vec<String>,
    },
}

const TAG_MUTATION_BATCH: u8 = 1;
const TAG_CHECKPOINT: u8 = 2;
const TAG_REBALANCE: u8 = 3;

const MUT_INSERT: u8 = 1;
const MUT_DELETE: u8 = 2;
const MUT_UPDATE: u8 = 3;

fn put_mutation(out: &mut Vec<u8>, m: &Mutation) {
    match *m {
        Mutation::Insert(v) => {
            out.push(MUT_INSERT);
            put_u64(out, v);
        }
        Mutation::Delete(v) => {
            out.push(MUT_DELETE);
            put_u64(out, v);
        }
        Mutation::Update { old, new } => {
            out.push(MUT_UPDATE);
            put_u64(out, old);
            put_u64(out, new);
        }
    }
}

fn read_mutation(r: &mut ByteReader<'_>) -> Result<Mutation, CodecError> {
    match r.take(1)?[0] {
        MUT_INSERT => Ok(Mutation::Insert(r.u64()?)),
        MUT_DELETE => Ok(Mutation::Delete(r.u64()?)),
        MUT_UPDATE => Ok(Mutation::Update {
            old: r.u64()?,
            new: r.u64()?,
        }),
        _ => Err(CodecError::Invalid("unknown mutation tag")),
    }
}

impl WalRecord {
    /// Appends this record's payload encoding (no framing, no checksum —
    /// [`crate::wal::WalWriter`] adds both).
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::MutationBatch { column, ops } => {
                out.push(TAG_MUTATION_BATCH);
                put_str(out, column);
                put_u32(out, ops.len() as u32);
                for m in ops {
                    put_mutation(out, m);
                }
            }
            WalRecord::Checkpoint { snapshot_id } => {
                out.push(TAG_CHECKPOINT);
                put_u64(out, *snapshot_id);
            }
            WalRecord::Rebalance { columns } => {
                out.push(TAG_REBALANCE);
                put_u32(out, columns.len() as u32);
                for name in columns {
                    put_str(out, name);
                }
            }
        }
    }

    /// Decodes one record payload, requiring the reader to be fully
    /// consumed (a frame must hold exactly one record).
    pub(crate) fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(bytes);
        let record = match r.take(1)?[0] {
            TAG_MUTATION_BATCH => {
                let column = r.str()?;
                let count = r.u32()? as usize;
                // Each mutation takes at least 9 bytes.
                if r.remaining() / 9 < count {
                    return Err(CodecError::Truncated);
                }
                let mut ops = Vec::with_capacity(count);
                for _ in 0..count {
                    ops.push(read_mutation(&mut r)?);
                }
                WalRecord::MutationBatch { column, ops }
            }
            TAG_CHECKPOINT => WalRecord::Checkpoint {
                snapshot_id: r.u64()?,
            },
            TAG_REBALANCE => {
                let count = r.u32()? as usize;
                if r.remaining() / 4 < count {
                    return Err(CodecError::Truncated);
                }
                let mut columns = Vec::with_capacity(count);
                for _ in 0..count {
                    columns.push(r.str()?);
                }
                WalRecord::Rebalance { columns }
            }
            _ => return Err(CodecError::Invalid("unknown record tag")),
        };
        if !r.is_empty() {
            return Err(CodecError::Invalid("trailing bytes in record frame"));
        }
        Ok(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(record: WalRecord) {
        let mut out = Vec::new();
        record.encode(&mut out);
        assert_eq!(WalRecord::decode(&out).unwrap(), record);
    }

    #[test]
    fn all_record_kinds_round_trip() {
        round_trip(WalRecord::MutationBatch {
            column: "ra".into(),
            ops: vec![
                Mutation::Insert(42),
                Mutation::Delete(7),
                Mutation::Update { old: 1, new: 9 },
            ],
        });
        round_trip(WalRecord::MutationBatch {
            column: String::new(),
            ops: vec![],
        });
        round_trip(WalRecord::Checkpoint { snapshot_id: 3 });
        round_trip(WalRecord::Rebalance {
            columns: vec!["ra".into(), "dec".into()],
        });
    }

    #[test]
    fn truncation_and_garbage_are_rejected() {
        let mut out = Vec::new();
        WalRecord::MutationBatch {
            column: "a".into(),
            ops: vec![Mutation::Insert(5)],
        }
        .encode(&mut out);
        for cut in 0..out.len() {
            assert!(WalRecord::decode(&out[..cut]).is_err(), "cut at {cut}");
        }
        assert!(WalRecord::decode(&[0xFF, 0, 0]).is_err(), "unknown tag");
        // Trailing bytes after a well-formed record are an error too.
        let mut padded = out.clone();
        padded.push(0);
        assert!(WalRecord::decode(&padded).is_err());
    }

    #[test]
    fn announced_counts_are_sanity_checked() {
        // A batch announcing 2^32-1 mutations with a near-empty payload
        // must fail before any allocation.
        let mut out = vec![TAG_MUTATION_BATCH];
        put_str(&mut out, "a");
        put_u32(&mut out, u32::MAX);
        assert_eq!(WalRecord::decode(&out), Err(CodecError::Truncated));
    }
}
