//! Byte-level snapshot codec for storage state: [`Column`]s and
//! [`DeltaSidecar`]s encoded into flat, versionless byte runs.
//!
//! The durability layer (`pi-durable`) persists a sharded column as the
//! pair the mutable-index model already maintains — the immutable base
//! snapshot plus the pending-delta sidecar ("log the delta, snapshot the
//! merged base"). This module owns the encoding of exactly those two
//! storage primitives; framing, checksums, versioning and the composition
//! into whole-table snapshots live one layer up, next to the write-ahead
//! log that shares them.
//!
//! The format is deliberately plain: little-endian fixed-width integers,
//! length-prefixed runs, no compression. Decoding is bounds-checked and
//! returns [`CodecError`] instead of panicking, so a corrupted byte run —
//! which an upper layer's checksum should already have rejected — can
//! never take the process down.

use crate::column::{Column, Value};
use crate::delta::DeltaSidecar;

/// Decoding failure: the byte run does not describe a valid value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the announced structure was complete.
    Truncated,
    /// A structural invariant did not hold (e.g. an unsorted sidecar run
    /// or an unknown tag byte).
    Invalid(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "byte run truncated"),
            CodecError::Invalid(what) => write!(f, "invalid encoding: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed (`u64` count) run of values.
pub fn put_values(out: &mut Vec<u8>, values: &[Value]) {
    out.reserve(8 * (values.len() + 1));
    put_u64(out, values.len() as u64);
    for &v in values {
        put_u64(out, v);
    }
}

/// Appends a length-prefixed (`u32` byte count) UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked cursor over an encoded byte run.
#[derive(Debug, Clone, Copy)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, at: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// `true` once every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Consumes `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let slice = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    /// Consumes a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Consumes a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Consumes a length-prefixed run of values (see [`put_values`]).
    pub fn values(&mut self) -> Result<Vec<Value>, CodecError> {
        let count = self.u64()? as usize;
        // Each value takes 8 bytes; an announced count beyond the
        // remaining bytes is corruption, caught before any allocation.
        if self.remaining() / 8 < count {
            return Err(CodecError::Truncated);
        }
        Ok(self
            .take(8 * count)?
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
            .collect())
    }

    /// Consumes a length-prefixed UTF-8 string (see [`put_str`]).
    pub fn str(&mut self) -> Result<String, CodecError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Invalid("non-UTF-8 string"))
    }
}

/// Encodes a [`Column`] (its values only; `min`/`max` are recomputed on
/// decode, so a snapshot can never carry statistics that disagree with
/// its data).
pub fn put_column(out: &mut Vec<u8>, column: &Column) {
    put_values(out, column.data());
}

/// Decodes a [`Column`] written by [`put_column`].
pub fn read_column(r: &mut ByteReader<'_>) -> Result<Column, CodecError> {
    Ok(Column::from_vec(r.values()?))
}

/// Encodes a [`DeltaSidecar`] (its two sorted multisets).
pub fn put_sidecar(out: &mut Vec<u8>, sidecar: &DeltaSidecar) {
    put_values(out, sidecar.inserts());
    put_values(out, sidecar.tombstones());
}

/// Decodes a [`DeltaSidecar`] written by [`put_sidecar`], re-validating
/// the sortedness invariant of both multisets.
pub fn read_sidecar(r: &mut ByteReader<'_>) -> Result<DeltaSidecar, CodecError> {
    let inserts = r.values()?;
    let tombstones = r.values()?;
    DeltaSidecar::from_sorted_parts(inserts, tombstones)
        .ok_or(CodecError::Invalid("unsorted sidecar run"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_round_trips_with_statistics() {
        for data in [vec![], vec![42], vec![9, 1, 5, 1]] {
            let column = Column::from_vec(data);
            let mut out = Vec::new();
            put_column(&mut out, &column);
            let mut r = ByteReader::new(&out);
            let decoded = read_column(&mut r).unwrap();
            assert_eq!(decoded, column);
            assert_eq!(decoded.min(), column.min());
            assert_eq!(decoded.max(), column.max());
            assert!(r.is_empty());
        }
    }

    #[test]
    fn sidecar_round_trips() {
        let mut s = DeltaSidecar::new();
        for v in [5, 3, 3, 9] {
            s.insert(v);
        }
        s.add_tombstone(7);
        let mut out = Vec::new();
        put_sidecar(&mut out, &s);
        let decoded = read_sidecar(&mut ByteReader::new(&out)).unwrap();
        assert_eq!(decoded, s);
    }

    #[test]
    fn truncated_input_errors_instead_of_panicking() {
        let mut out = Vec::new();
        put_values(&mut out, &[1, 2, 3]);
        for cut in 0..out.len() {
            let mut r = ByteReader::new(&out[..cut]);
            assert_eq!(r.values(), Err(CodecError::Truncated), "cut at {cut}");
        }
    }

    #[test]
    fn oversized_count_is_caught_before_allocation() {
        let mut out = Vec::new();
        put_u64(&mut out, u64::MAX); // announces 2^64-1 values
        let mut r = ByteReader::new(&out);
        assert_eq!(r.values(), Err(CodecError::Truncated));
    }

    #[test]
    fn unsorted_sidecar_is_rejected() {
        let mut out = Vec::new();
        put_values(&mut out, &[5, 1]); // descending inserts
        put_values(&mut out, &[]);
        assert!(matches!(
            read_sidecar(&mut ByteReader::new(&out)),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn strings_round_trip_and_reject_bad_utf8() {
        let mut out = Vec::new();
        put_str(&mut out, "right ascension");
        let mut r = ByteReader::new(&out);
        assert_eq!(r.str().unwrap(), "right ascension");
        let bad = [2, 0, 0, 0, 0xFF, 0xFE];
        assert!(matches!(
            ByteReader::new(&bad).str(),
            Err(CodecError::Invalid(_))
        ));
    }
}
