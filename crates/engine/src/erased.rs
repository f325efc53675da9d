//! The minimal column-erased key handle: heterogeneous column sets in
//! one table.
//!
//! A [`TypedTable<K>`](crate::typed::TypedTable) is homogeneous — every
//! column shares the key domain `K`. Multi-column conjunctions need to
//! mix domains (`WHERE id BETWEEN .. AND temp BETWEEN .. AND name
//! BETWEEN ..`), so this module erases `K` behind two small enums:
//!
//! * [`ErasedKey`] — one key of any supported domain (`u64`, `i64`,
//!   `f64`, `String`), with its order-preserving code and the **exact**
//!   same-domain comparison.
//! * [`ErasedColumn`] — a row-aligned vector of full typed keys of one
//!   domain, the input a multi-column table is built from.
//!
//! The row store keeps each column as a crate-private `RowColumn`, keyed
//! once when a row is built or written: a fixed-width key as its order
//! code, a string as one 16-byte row key — its first 15 bytes, big-endian
//! and zero-padded, over a length byte `min(len, 16)` — with the full
//! string kept only for the rows longer than 15 bytes. Conjunctions
//! evaluate a predicate over a whole column per call (`select`, `refine`,
//! `sum_selected`), encoding its bounds once, never a row; the three
//! fixed-width domains share one code test. A string predicate compares
//! row keys; only a row whose key equals a bound's with both longer than
//! 15 bytes compares full strings, so prefix ties need no side table.
//!
//! Sums stay capability-gated exactly like the typed facade's digest
//! matrix: `u64`/`i64` sums are exact ([`ErasedSum`]), `f64` and
//! `String` columns serve `COUNT` (and grouped `MIN`/`MAX` where the
//! code decodes exactly) with `sum: None`.

use std::cmp::Ordering;
use std::collections::HashMap;

use pi_storage::encoding::OrderedKey;
use pi_storage::scan::ScanResult;
use pi_storage::Value;

use crate::typed::TableKey;

/// The key domain of an erased key or column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyDomain {
    /// Unsigned 64-bit integers (identity encoding).
    U64,
    /// Signed 64-bit integers (sign-flip encoding).
    I64,
    /// IEEE-754 doubles (total-order encoding; NaN-free by policy).
    F64,
    /// Strings (8-byte prefix encoding; full keys kept for exactness).
    Str,
}

/// One key of any supported domain.
#[derive(Debug, Clone, PartialEq)]
pub enum ErasedKey {
    /// A `u64` key.
    U64(u64),
    /// An `i64` key.
    I64(i64),
    /// An `f64` key (must not be NaN, per the `f64` encoding policy).
    F64(f64),
    /// A string key.
    Str(String),
}

impl ErasedKey {
    /// The key's domain.
    pub(crate) fn domain(&self) -> KeyDomain {
        match self {
            ErasedKey::U64(_) => KeyDomain::U64,
            ErasedKey::I64(_) => KeyDomain::I64,
            ErasedKey::F64(_) => KeyDomain::F64,
            ErasedKey::Str(_) => KeyDomain::Str,
        }
    }

    /// The key's order-preserving code in the `u64` core. For `Str` this
    /// is the 8-byte prefix code: distinct strings can tie, so a code
    /// range is a *superset* of the typed range — membership is decided
    /// over full keys ([`ErasedKey::cmp_same`], the column kernels).
    pub(crate) fn to_code(&self) -> u64 {
        match self {
            ErasedKey::U64(v) => TableKey::to_code(v),
            ErasedKey::I64(v) => TableKey::to_code(v),
            ErasedKey::F64(v) => TableKey::to_code(v),
            ErasedKey::Str(v) => TableKey::to_code(v),
        }
    }

    /// Exact key order within one domain.
    ///
    /// # Panics
    /// Panics on mixed domains — the table layer rejects cross-domain
    /// predicates before comparisons can happen.
    pub(crate) fn cmp_same(&self, other: &ErasedKey) -> Ordering {
        match (self, other) {
            (ErasedKey::U64(a), ErasedKey::U64(b)) => a.cmp(b),
            (ErasedKey::I64(a), ErasedKey::I64(b)) => a.cmp(b),
            (ErasedKey::F64(a), ErasedKey::F64(b)) => TableKey::key_cmp(a, b),
            (ErasedKey::Str(a), ErasedKey::Str(b)) => a.as_bytes().cmp(b.as_bytes()),
            (a, b) => panic!(
                "cross-domain key comparison: {:?} vs {:?}",
                a.domain(),
                b.domain()
            ),
        }
    }
}

/// A capability-gated exact sum over one erased column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErasedSum {
    /// Sum of `u64` keys.
    U64(u128),
    /// Sum of `i64` keys.
    I64(i128),
}

/// A row-aligned column of full typed keys, one domain per column: the
/// input a [`MultiTable`](crate::multicol::MultiTable) column is built from.
#[derive(Debug, Clone)]
pub enum ErasedColumn {
    /// `u64` keys.
    U64(Vec<u64>),
    /// `i64` keys.
    I64(Vec<i64>),
    /// `f64` keys (NaN-free by the `f64` encoding policy).
    F64(Vec<f64>),
    /// Full string keys.
    Str(Vec<String>),
}

/// The length byte of a string longer than the 15 bytes its key holds.
pub(crate) const LONG: u8 = 16;

/// A string's row key: its first 15 bytes, big-endian and zero-padded,
/// over a length byte `min(len, 16)`. Keys that differ order as their
/// strings do, and equal keys below [`LONG`] are equal strings, so only
/// two strings longer than 15 bytes can tie. `key >> 64` is the 8-byte
/// prefix code.
pub(crate) fn str_key(s: &str) -> u128 {
    let bytes = s.as_bytes();
    let mut key = [0; 16];
    let n = bytes.len().min(15);
    key[..n].copy_from_slice(&bytes[..n]);
    key[15] = bytes.len().min(LONG.into()) as u8;
    u128::from_be_bytes(key)
}

/// A row store's column: `u64`/`i64`/`f64` keys as their order codes (a
/// code orders as its key and decodes back to it), strings as their row
/// keys plus the full string of every row whose key is [`LONG`].
#[derive(Debug)]
pub(crate) enum RowColumn {
    Fixed {
        domain: KeyDomain,
        codes: Vec<Value>,
    },
    Str {
        keys: Vec<u128>,
        long: HashMap<usize, String>,
    },
}

impl From<ErasedColumn> for RowColumn {
    /// Encodes each key once (a `u64` column is its own codes), dropping a
    /// string unless it is long (in one pass, not row by row through
    /// `push`: a new column has no stale long row).
    fn from(column: ErasedColumn) -> Self {
        let (domain, codes) = match column {
            ErasedColumn::U64(v) => (KeyDomain::U64, v),
            ErasedColumn::I64(v) => (KeyDomain::I64, v.iter().map(TableKey::to_code).collect()),
            ErasedColumn::F64(v) => (KeyDomain::F64, v.iter().map(TableKey::to_code).collect()),
            ErasedColumn::Str(v) => {
                let mut long = HashMap::new();
                let keys = v.into_iter().enumerate().map(|(row, s)| {
                    let key = str_key(&s);
                    if key as u8 == LONG {
                        long.insert(row, s);
                    }
                    key
                });
                return RowColumn::Str {
                    keys: keys.collect(),
                    long,
                };
            }
        };
        RowColumn::Fixed { domain, codes }
    }
}

impl RowColumn {
    /// The column's domain.
    pub(crate) fn domain(&self) -> KeyDomain {
        match self {
            RowColumn::Fixed { domain, .. } => *domain,
            RowColumn::Str { .. } => KeyDomain::Str,
        }
    }

    /// Whether the domain's code ranges can over-select (distinct keys
    /// tying on a code): `true` only for `Str`.
    pub(crate) fn prefix_encoded(&self) -> bool {
        matches!(self, RowColumn::Str { .. })
    }

    /// Number of rows (live and dead — row stores keep rows in place).
    pub(crate) fn len(&self) -> usize {
        match self {
            RowColumn::Fixed { codes, .. } => codes.len(),
            RowColumn::Str { keys, .. } => keys.len(),
        }
    }

    /// The key's code at `row` (the delete path's index lookup).
    pub(crate) fn code_at(&self, row: usize) -> Value {
        match self {
            RowColumn::Fixed { codes, .. } => codes[row],
            RowColumn::Str { keys, .. } => (keys[row] >> 64) as Value,
        }
    }

    /// The row-order codes of every key (the encoded column the inner
    /// `u64` engine indexes).
    pub(crate) fn codes(&self) -> Vec<Value> {
        match self {
            RowColumn::Fixed { codes, .. } => codes.clone(),
            RowColumn::Str { keys, .. } => keys.iter().map(|key| (key >> 64) as Value).collect(),
        }
    }

    /// Appends a key.
    ///
    /// # Panics
    /// Panics when the key's domain differs from the column's.
    pub(crate) fn push(&mut self, key: ErasedKey) {
        let row = self.len();
        self.put(row, key);
    }

    /// Replaces the key at `row`, returning the previous key's code.
    ///
    /// # Panics
    /// Panics when the key's domain differs from the column's.
    pub(crate) fn replace(&mut self, row: usize, key: ErasedKey) -> Value {
        let old = self.code_at(row);
        self.put(row, key);
        old
    }

    /// Writes the key of `row`, appending it when `row` is the length.
    fn put(&mut self, row: usize, key: ErasedKey) {
        fn put<T>(v: &mut Vec<T>, row: usize, key: T) {
            match v.get_mut(row) {
                Some(slot) => *slot = key,
                None => v.push(key),
            }
        }
        match (self, key) {
            (RowColumn::Fixed { domain, codes }, key) if key.domain() == *domain => {
                put(codes, row, key.to_code())
            }
            (RowColumn::Str { keys, long }, ErasedKey::Str(k)) => {
                let key = str_key(&k);
                if key as u8 == LONG {
                    long.insert(row, k);
                } else {
                    long.remove(&row);
                }
                put(keys, row, key);
            }
            (col, key) => panic!(
                "key domain {:?} does not match column domain {:?}",
                key.domain(),
                col.domain()
            ),
        }
    }

    /// Appends to `sel`, in ascending order, the live rows whose key lies
    /// in `[low, high]` (full-key order; `low > high` selects nothing).
    ///
    /// # Panics
    /// Panics when the bounds' domain differs from the column's, or when
    /// `live` is not row-aligned with the column.
    pub(crate) fn select(
        &self,
        live: &[bool],
        low: &ErasedKey,
        high: &ErasedKey,
        sel: &mut Vec<u32>,
    ) {
        assert_eq!(live.len(), self.len(), "the live bitmap is row-aligned");
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            // SAFETY: `filter_avx2` is `filter`, safe code, compiled for AVX2;
            // its one requirement, a CPU with AVX2, is checked just above.
            return unsafe { self.filter_avx2(low, high, Rows::Live(live, sel)) };
        }
        self.filter(low, high, Rows::Live(live, sel));
    }

    /// Keeps, in place and in order, the rows of `sel` whose key lies in
    /// `[low, high]`.
    ///
    /// # Panics
    /// Panics when the bounds' domain differs from the column's.
    pub(crate) fn refine(&self, sel: &mut Vec<u32>, low: &ErasedKey, high: &ErasedKey) {
        self.filter(low, high, Rows::Selected(sel));
    }

    /// One domain dispatch and bounds encoding per predicate, always
    /// inlined (`select` compiles it twice). Fixed-width domains test codes
    /// (code order is key order; for `f64` the total order
    /// [`TableKey::key_cmp`] realises: `-0.0 < +0.0`, `±inf` ordinary);
    /// strings compare row keys, and only a row whose key ties a bound's
    /// at [`LONG`] compares its full string.
    #[inline(always)]
    fn filter(&self, low: &ErasedKey, high: &ErasedKey, rows: Rows<'_>) {
        match (self, low, high) {
            (RowColumn::Fixed { domain, codes }, low, high)
                if low.domain() == *domain && high.domain() == *domain =>
            {
                let (lo, hi) = (low.to_code(), high.to_code());
                filter_rows(codes, rows, |_, k| (lo..=hi).contains(k))
            }
            (RowColumn::Str { keys, long }, ErasedKey::Str(lo), ErasedKey::Str(hi)) => {
                let (lo_key, hi_key) = (str_key(lo), str_key(hi));
                // `lo_key ≤ k ≤ hi_key` as one compare, so the test stays
                // branch-free; an inverted range starts at `u128::MAX`,
                // which is no key (its length byte is 0xFF).
                let (start, width) = match hi_key.checked_sub(lo_key) {
                    Some(width) => (lo_key, width),
                    None => (u128::MAX, 0),
                };
                filter_rows(keys, rows, |row, &k| {
                    if k as u8 == LONG && (k == lo_key || k == hi_key) {
                        long_in_range(&long[&row], lo, hi)
                    } else {
                        k.wrapping_sub(start) <= width
                    }
                })
            }
            _ => panic!(
                "predicate domain {:?}/{:?} does not match column domain {:?}",
                low.domain(),
                high.domain(),
                self.domain()
            ),
        }
    }

    /// `filter` under AVX2: same source, 256-bit lanes for the dense pass
    /// (`refine` keeps the baseline copy: its gather is slower under AVX2).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn filter_avx2(&self, low: &ErasedKey, high: &ErasedKey, rows: Rows<'_>) {
        self.filter(low, high, rows)
    }

    /// The exact sum of the keys at the rows of `sel`; `None` where the
    /// domain has no exact sum (so the empty selection gives the
    /// domain's zero sum).
    pub(crate) fn sum_selected(&self, sel: &[u32]) -> Option<ErasedSum> {
        match self {
            RowColumn::Fixed { domain, codes } if *domain != KeyDomain::F64 => {
                let sum = sel.iter().map(|&row| codes[row as usize] as u128).sum();
                self.decode_sum(sum, sel.len() as u64)
            }
            _ => None,
        }
    }

    /// Decodes the sum of `count` codes into the column's key domain:
    /// exact for `u64` (identity) and `i64` (affine shift), `None` for
    /// `f64` and strings.
    pub(crate) fn decode_sum(&self, sum: u128, count: u64) -> Option<ErasedSum> {
        match self.domain() {
            KeyDomain::U64 => Some(ErasedSum::U64(sum)),
            KeyDomain::I64 => {
                <i64 as OrderedKey>::decode_sum(ScanResult { sum, count }).map(ErasedSum::I64)
            }
            KeyDomain::F64 | KeyDomain::Str => None,
        }
    }

    /// Decodes a code back into the column's key domain — exact for
    /// `u64`/`i64`/`f64` (injective encodings), `None` for `Str` (an
    /// 8-byte prefix does not determine the full key). Grouped-aggregate
    /// `MIN`/`MAX` cells use this, so string groups serve `COUNT` only.
    pub(crate) fn decode_code(&self, code: Value) -> Option<ErasedKey> {
        match self.domain() {
            KeyDomain::U64 => Some(ErasedKey::U64(code)),
            KeyDomain::I64 => Some(ErasedKey::I64(<i64 as OrderedKey>::decode(code))),
            KeyDomain::F64 => Some(ErasedKey::F64(<f64 as OrderedKey>::decode(code))),
            KeyDomain::Str => None,
        }
    }
}

/// The full-string test of a row whose key ties a bound's past 15 bytes,
/// kept out of line so that the key test around it inlines.
#[cold]
fn long_in_range(row: &str, low: &str, high: &str) -> bool {
    (low..=high).contains(&row)
}

/// Rows per block of the dense pass: a block's matches are expanded into
/// a stack buffer of row numbers, then appended to the selection.
const BLOCK: usize = 1024;
/// Rows per word of the dense pass: tested together into one bitmask.
const WORD: usize = 64;

/// Eight 0/1 bytes as a little-endian `u64`, times `PACK`, carry byte `i`
/// to bit `56 + i` (the top byte is their mask); times `BYTE_SUM`, they
/// add up there (its popcount, where `popcnt` may be missing).
const PACK: u64 = 0x0102_0408_1020_4080;
const BYTE_SUM: u64 = 0x0101_0101_0101_0101;
/// Each byte mask's set-bit positions, ascending, in its first slots (2 KiB).
const SET_BITS: [[u8; 8]; 256] = set_bits();

const fn set_bits() -> [[u8; 8]; 256] {
    let mut table = [[0; 8]; 256];
    let mut mask = 0;
    while mask < 256 {
        let (mut bit, mut kept) = (0, 0);
        while bit < 8 {
            table[mask][kept] = bit as u8;
            kept += mask >> bit & 1;
            bit += 1;
        }
        mask += 1;
    }
    table
}

/// The rows a filter kernel runs over.
enum Rows<'a> {
    /// Every row the bitmap marks live; matches are appended.
    Live(&'a [bool], &'a mut Vec<u32>),
    /// The rows of a selection, compacted in place.
    Selected(&'a mut Vec<u32>),
}

/// The two filter kernels over one typed slice (inlined like `filter`);
/// neither branches on a test. The dense pass tests each 64-row word into
/// 64 bytes (a loop that vectorises), ANDs each 8 with their live flags
/// and packs them into a mask byte, whose [`SET_BITS`] it writes to the
/// block as 8 row numbers, advancing by the popcount. The rows past the
/// last full word, and the refine's, are tested one by one. The test
/// gets each key's row number too; the fixed-width arms ignore it.
#[inline(always)]
fn filter_rows<T>(keys: &[T], rows: Rows<'_>, test: impl Fn(usize, &T) -> bool) {
    match rows {
        Rows::Live(live, sel) => {
            let words = keys.len() / WORD * WORD;
            let mut block = [0u32; BLOCK];
            let blocks = keys[..words].chunks(BLOCK).zip(live[..words].chunks(BLOCK));
            for (b, (keys, live)) in blocks.enumerate() {
                let mut kept = 0;
                let words = keys.chunks_exact(WORD).zip(live.chunks_exact(WORD));
                for (w, (keys, live)) in words.enumerate() {
                    let first = b * BLOCK + w * WORD;
                    let mut hits = [0u8; WORD];
                    for (i, (hit, key)) in hits.iter_mut().zip(keys).enumerate() {
                        *hit = u8::from(test(first + i, key)).wrapping_neg();
                    }
                    let eights = hits.chunks_exact(8).zip(live.chunks_exact(8));
                    for (byte, (hits, live)) in eights.enumerate() {
                        let live = u64::from_le_bytes(std::array::from_fn(|i| u8::from(live[i])));
                        let hits = u64::from_le_bytes(hits.try_into().expect("8 bytes")) & live;
                        let base = (first + 8 * byte) as u32;
                        let set = &SET_BITS[(hits.wrapping_mul(PACK) >> 56) as usize];
                        // `kept` ≤ the rows before this byte ≤ BLOCK − 8.
                        for (slot, &bit) in block[kept..kept + 8].iter_mut().zip(set) {
                            *slot = base + u32::from(bit);
                        }
                        kept += (hits.wrapping_mul(BYTE_SUM) >> 56) as usize;
                    }
                }
                sel.extend_from_slice(&block[..kept]);
            }
            let tail = (words..keys.len()).filter(|&row| live[row] & test(row, &keys[row]));
            sel.extend(tail.map(|row| row as u32));
        }
        Rows::Selected(sel) => {
            let mut kept = 0;
            for i in 0..sel.len() {
                let row = sel[i];
                sel[kept] = row;
                kept += usize::from(test(row as usize, &keys[row as usize]));
            }
            sel.truncate(kept);
        }
    }
}

#[cfg(test)]
mod tests {
    use pi_core::testing::TestRng;

    use super::*;

    fn key_at(col: &ErasedColumn, row: usize) -> ErasedKey {
        match col {
            ErasedColumn::U64(v) => ErasedKey::U64(v[row]),
            ErasedColumn::I64(v) => ErasedKey::I64(v[row]),
            ErasedColumn::F64(v) => ErasedKey::F64(v[row]),
            ErasedColumn::Str(v) => ErasedKey::Str(v[row].clone()),
        }
    }

    /// The per-row reference the kernels are held to: one `key_at` and
    /// two `cmp_same` per row.
    fn reference(
        col: &ErasedColumn,
        rows: impl Iterator<Item = u32>,
        low: &ErasedKey,
        high: &ErasedKey,
    ) -> Vec<u32> {
        rows.filter(|&row| {
            let key = key_at(col, row as usize);
            key.cmp_same(low) != Ordering::Less && key.cmp_same(high) != Ordering::Greater
        })
        .collect()
    }

    fn reference_sum(col: &ErasedColumn, sel: &[u32]) -> Option<ErasedSum> {
        let mut sum = match col {
            ErasedColumn::U64(_) => Some(ErasedSum::U64(0)),
            ErasedColumn::I64(_) => Some(ErasedSum::I64(0)),
            ErasedColumn::F64(_) | ErasedColumn::Str(_) => None,
        };
        for &row in sel {
            match (key_at(col, row as usize), &mut sum) {
                (ErasedKey::U64(k), Some(ErasedSum::U64(acc))) => *acc += k as u128,
                (ErasedKey::I64(k), Some(ErasedSum::I64(acc))) => *acc += k as i128,
                _ => {}
            }
        }
        sum
    }

    /// Lengths around the 64-row and the block edges, and one that is no
    /// multiple of the block.
    const LENGTHS: [usize; 7] = [0, 1, 63, 64, 65, BLOCK, 2 * BLOCK + 37];

    /// `select`, `refine` and `sum_selected` of the row column built from
    /// `col` against the reference over `col`, with every row live and
    /// with dead rows at the block edges.
    fn check(col: &ErasedColumn, low: &ErasedKey, high: &ErasedKey) {
        let rows = RowColumn::from(col.clone());
        let n = rows.len();
        let mut holed = vec![true; n];
        for edge in [0, 1, 63, 64, BLOCK - 1, BLOCK, 2 * BLOCK - 1, 2 * BLOCK] {
            if edge < n {
                holed[edge] = false;
            }
        }
        if let Some(last) = holed.last_mut() {
            *last = false;
        }
        for live in [vec![true; n], holed] {
            let live_rows = (0..n as u32).filter(|&row| live[row as usize]);
            let want = reference(col, live_rows, low, high);
            let mut sel = Vec::new();
            rows.select(&live, low, high, &mut sel);
            assert_eq!(sel, want, "select {low:?}..={high:?} over {n} rows");
            assert_eq!(rows.sum_selected(&sel), reference_sum(col, &want));
        }
        // Any ascending selection refines; this one ignores liveness.
        let mut sel: Vec<u32> = (0..n as u32).filter(|row| row % 3 != 1).collect();
        let want = reference(col, sel.iter().copied(), low, high);
        rows.refine(&mut sel, low, high);
        assert_eq!(sel, want, "refine {low:?}..={high:?} over {n} rows");
    }

    #[test]
    fn u64_kernels_match_the_per_row_reference() {
        for n in LENGTHS {
            let col = ErasedColumn::U64(
                (0..n as u64)
                    .map(|i| match i % 97 {
                        5 => u64::MAX,
                        6 => 0,
                        _ => i * 2_654_435_761 % 1_000,
                    })
                    .collect(),
            );
            let bounds = [
                (100, 600),
                (600, 100),
                (500, 500),
                (0, u64::MAX),
                (u64::MAX, u64::MAX),
                (601, u64::MAX - 1),
            ];
            for (low, high) in bounds {
                check(&col, &ErasedKey::U64(low), &ErasedKey::U64(high));
            }
        }
    }

    #[test]
    fn i64_kernels_match_the_per_row_reference() {
        for n in LENGTHS {
            let col = ErasedColumn::I64(
                (0..n as i64)
                    .map(|i| match i % 89 {
                        3 => i64::MIN,
                        4 => i64::MAX,
                        _ => i * 7_919 % 1_000 - 500,
                    })
                    .collect(),
            );
            let bounds = [
                (-100, 100),
                (100, -100),
                (i64::MIN, -1),
                (0, i64::MAX),
                (-1, 0),
                (i64::MIN, i64::MAX),
            ];
            for (low, high) in bounds {
                check(&col, &ErasedKey::I64(low), &ErasedKey::I64(high));
            }
        }
    }

    #[test]
    fn f64_kernels_keep_the_total_order() {
        let special = [
            -0.0,
            0.0,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::MIN_POSITIVE,
        ];
        for n in LENGTHS {
            let col = ErasedColumn::F64(
                (0..n)
                    .map(|i| match i % 11 {
                        s @ 0..=4 => special[s],
                        _ => (i * 7_919 % 1_000) as f64 / 8.0 - 60.0,
                    })
                    .collect(),
            );
            let bounds = [
                (-25.0, 25.0),
                (25.0, -25.0),
                (-0.0, 0.0),
                (0.0, 0.0),
                (-0.0, -0.0),
                (0.0, -0.0),
                (f64::NEG_INFINITY, f64::INFINITY),
                (f64::NEG_INFINITY, f64::NEG_INFINITY),
                (f64::INFINITY, f64::INFINITY),
                (f64::MIN_POSITIVE, f64::MAX),
            ];
            for (low, high) in bounds {
                check(&col, &ErasedKey::F64(low), &ErasedKey::F64(high));
            }
        }
        // The reference shares `key_cmp` with the kernels; pin the order
        // itself against `f64::total_cmp` once.
        let keys = vec![-0.0, 0.0, f64::NEG_INFINITY, f64::INFINITY, -1.0];
        let col = RowColumn::from(ErasedColumn::F64(keys.clone()));
        for (low, high) in [(0.0, 0.0), (-0.0, 0.0), (-1.0, -0.0), (-0.0, f64::INFINITY)] {
            let want: Vec<u32> = (0..keys.len() as u32)
                .filter(|&row| {
                    let key = keys[row as usize];
                    key.total_cmp(&low).is_ge() && key.total_cmp(&high).is_le()
                })
                .collect();
            let mut sel = Vec::new();
            col.select(
                &[true; 5],
                &ErasedKey::F64(low),
                &ErasedKey::F64(high),
                &mut sel,
            );
            assert_eq!(sel, want, "[{low:?}, {high:?}]");
        }
    }

    #[test]
    fn string_kernels_resolve_prefix_ties_at_either_bound() {
        for n in LENGTHS {
            let col = ErasedColumn::Str(
                (0..n)
                    .map(|i| match i % 7 {
                        0 => "quicksort".to_string(),
                        1 => String::new(),
                        2 => "progress".to_string(),
                        _ => format!("progressive-{:02}", i * 31 % 50),
                    })
                    .collect(),
            );
            // Bounds sharing the rows' 8-byte prefix at the low end, the
            // high end, and both; then no tie, inverted, and a point.
            let bounds = [
                ("progressive-10", "zzz"),
                ("a", "progressive-30"),
                ("progressive-10", "progressive-30"),
                ("", "~"),
                ("progressive-30", "progressive-10"),
                ("progress", "progress"),
            ];
            for (low, high) in bounds {
                check(
                    &col,
                    &ErasedKey::Str(low.into()),
                    &ErasedKey::Str(high.into()),
                );
            }
        }
    }

    /// Strings of lengths around the 8-byte code and the 15-byte key, each
    /// next to its neighbours with the last byte one up (`c`), down to
    /// `\0`, and replaced by a two-byte `é` (≥ 0x80, which a signed
    /// compare misorders); the 15-, 16-, 17- and 24-byte ones agree on 15
    /// bytes. Every pair of them bounds a range over all of them.
    #[test]
    fn string_kernels_are_exact_at_every_key_length_boundary() {
        let mut keys = vec!["ab".to_string(), "ab\0".to_string()];
        for n in [0, 1, 3, 4, 7, 8, 9, 14, 15, 16, 17, 24] {
            let base: String = "ab".chars().cycle().take(n).collect();
            if n > 0 {
                keys.push(format!("{}c", &base[..n - 1]));
                keys.push(format!("{}\0", &base[..n - 1]));
            }
            if n > 1 {
                keys.push(format!("{}é", &base[..n - 2]));
            }
            keys.push(base);
        }
        let col = ErasedColumn::Str(keys.clone());
        for low in &keys {
            for high in &keys {
                check(
                    &col,
                    &ErasedKey::Str(low.clone()),
                    &ErasedKey::Str(high.clone()),
                );
            }
        }
    }

    fn random_key(rng: &mut TestRng) -> String {
        const ALPHABET: [char; 5] = ['\0', '\u{1}', 'a', 'b', 'é'];
        let n = rng.below(21);
        (0..n).map(|_| ALPHABET[rng.below(5) as usize]).collect()
    }

    /// Random strings of 0–20 characters over {0x00, 0x01, `a`, `b`,
    /// `é`} as rows, and as bounds a random string or a row as it is,
    /// extended or cut short, so bounds tie with rows and prefix them; a
    /// failure names its seed.
    #[test]
    fn string_kernels_match_the_reference_on_random_strings() {
        const ROWS: u32 = 300;
        for seed in 1..=32 {
            let mut rng = TestRng::new(seed);
            let keys: Vec<String> = (0..ROWS).map(|_| random_key(&mut rng)).collect();
            let col = ErasedColumn::Str(keys.clone());
            let rows = RowColumn::from(col.clone());
            for _ in 0..40 {
                let mut bound = || {
                    let row = &keys[rng.below(ROWS.into()) as usize];
                    ErasedKey::Str(match rng.below(4) {
                        0 => random_key(&mut rng),
                        1 => row.clone(),
                        2 => row.clone() + &random_key(&mut rng),
                        _ => {
                            let cut = rng.below(row.chars().count() as u64 + 1);
                            row.chars().take(cut as usize).collect()
                        }
                    })
                };
                let (low, high) = (bound(), bound());
                let want = reference(&col, 0..ROWS, &low, &high);
                let mut sel = Vec::new();
                rows.select(&[true; ROWS as usize], &low, &high, &mut sel);
                assert_eq!(sel, want, "seed {seed}: select {low:?}..={high:?}");
                let mut sel: Vec<u32> = (0..ROWS).collect();
                rows.refine(&mut sel, &low, &high);
                assert_eq!(sel, want, "seed {seed}: refine {low:?}..={high:?}");
            }
        }
    }

    /// Rows and bounds that agree on their first 15 bytes while one is 15
    /// bytes long and the other 16 or more, or both are longer and only
    /// their full strings decide; every pair bounds a range over a column
    /// that cycles through them past two 64-row words.
    #[test]
    fn string_kernels_are_exact_where_fifteen_bytes_agree() {
        let head = "progressive-ind";
        assert_eq!(head.len(), 15);
        let mut keys = vec![head[..14].to_string(), head.to_string()];
        for tail in ["\0", "\0\0", "a", "a\0", "ab", "b", "é", "exes-and-more"] {
            keys.push(format!("{head}{tail}"));
        }
        keys.push("progressive-ine".to_string());
        let col = ErasedColumn::Str(keys.iter().cycle().take(130).cloned().collect());
        for low in &keys {
            for high in &keys {
                check(
                    &col,
                    &ErasedKey::Str(low.clone()),
                    &ErasedKey::Str(high.clone()),
                );
            }
        }
    }

    /// `push` and `replace` keep exactly the rows longer than 15 bytes,
    /// with their current strings, beside the keys: a row that goes long →
    /// short → long leaves one entry, one that goes short → long → short
    /// none. `replace` returns the old string's code, and the kernels stay
    /// exact after every write.
    #[test]
    fn push_and_replace_keep_the_long_rows_exact() {
        let long = |tail: &str| format!("progressive-index-{tail}");
        let mut strings = vec![long("a"), "short".to_string()];
        let mut col = RowColumn::from(ErasedColumn::Str(strings.clone()));
        let writes = [
            (Some(0), "s0".to_string()),
            (Some(1), long("b")),
            (Some(0), long("c")),
            (Some(1), "s1".to_string()),
            (None, long("d")),
            (None, "s2".to_string()),
            (Some(2), "s3".to_string()),
            (Some(3), long("e")),
        ];
        for (row, key) in writes {
            match row {
                Some(row) => {
                    let old = std::mem::replace(&mut strings[row], key.clone());
                    let code = col.replace(row, ErasedKey::Str(key));
                    assert_eq!(code, TableKey::to_code(&old), "replace {row}");
                }
                None => {
                    strings.push(key.clone());
                    col.push(ErasedKey::Str(key));
                }
            }
            let RowColumn::Str { long, .. } = &col else {
                panic!("a string column");
            };
            let want: HashMap<usize, String> = strings
                .iter()
                .enumerate()
                .filter(|(_, s)| s.len() > 15)
                .map(|(row, s)| (row, s.clone()))
                .collect();
            assert_eq!(*long, want, "after {strings:?}");
            let input = ErasedColumn::Str(strings.clone());
            for low in &strings {
                for high in &strings {
                    let (low, high) = (ErasedKey::Str(low.clone()), ErasedKey::Str(high.clone()));
                    let want = reference(&input, 0..strings.len() as u32, &low, &high);
                    let mut sel: Vec<u32> = (0..strings.len() as u32).collect();
                    col.refine(&mut sel, &low, &high);
                    assert_eq!(sel, want, "{low:?}..={high:?} over {strings:?}");
                }
            }
        }
    }

    /// Every row's code is the 8-byte prefix code of its full string (the
    /// code the inner index holds), at every length and byte value.
    #[test]
    fn string_codes_are_the_prefix_codes_of_the_full_strings() {
        let mut rng = TestRng::new(7);
        let mut keys: Vec<String> = (0..300).map(|_| random_key(&mut rng)).collect();
        for n in 0..=17 {
            keys.push("ÿ".repeat(n));
            keys.push("\u{7f}".repeat(n));
        }
        let col = RowColumn::from(ErasedColumn::Str(keys.clone()));
        for (row, key) in keys.iter().enumerate() {
            assert_eq!(col.code_at(row), TableKey::to_code(key), "{key:?}");
        }
        assert_eq!(
            col.codes(),
            keys.iter().map(TableKey::to_code).collect::<Vec<_>>()
        );
    }

    type Leg = fn(&RowColumn, &[bool], &ErasedKey, &ErasedKey) -> Vec<u32>;

    /// Both compiled copies of the dense pass, called directly: the
    /// baseline one always, the AVX2 one when this CPU has it.
    fn legs() -> Vec<(&'static str, Leg)> {
        let mut legs: Vec<(&'static str, Leg)> = vec![("baseline", |col, live, low, high| {
            let mut sel = Vec::new();
            col.filter(low, high, Rows::Live(live, &mut sel));
            sel
        })];
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            legs.push(("avx2", |col, live, low, high| {
                let mut sel = Vec::new();
                // SAFETY: AVX2 was detected on the line above.
                unsafe { col.filter_avx2(low, high, Rows::Live(live, &mut sel)) };
                sel
            }));
        }
        legs
    }

    /// Lengths around the dense pass's byte, word and block edges.
    const DENSE_LENGTHS: [usize; 12] = [0, 1, 7, 8, 9, 63, 64, 65, 1023, 1024, 1025, 2 * 1024 + 1];

    /// Live bitmaps over `n` rows: all live; dead rows at word and block
    /// edges and at the last row; the second word all dead.
    fn live_maps(n: usize) -> Vec<Vec<bool>> {
        let mut edges = vec![true; n];
        for edge in [0, 7, 8, 63, 64, 1023, 1024, 2047, 2048, n.wrapping_sub(1)] {
            if let Some(live) = edges.get_mut(edge) {
                *live = false;
            }
        }
        let mut dead_word = vec![true; n];
        for live in dead_word.iter_mut().skip(WORD).take(WORD) {
            *live = false;
        }
        vec![vec![true; n], edges, dead_word]
    }

    /// Every leg against the per-row reference, under every live map.
    fn check_legs(col: &ErasedColumn, low: &ErasedKey, high: &ErasedKey, case: &str) {
        let rows = RowColumn::from(col.clone());
        let n = rows.len();
        for (map, live) in live_maps(n).iter().enumerate() {
            let live_rows = (0..n as u32).filter(|&row| live[row as usize]);
            let want = reference(col, live_rows, low, high);
            for (leg, run) in legs() {
                let got = run(&rows, live, low, high);
                assert_eq!(
                    got, want,
                    "{case}: {leg} over {n} rows, live map {map}, {low:?}..={high:?}"
                );
            }
        }
    }

    #[test]
    fn both_legs_match_the_reference_at_every_edge() {
        for n in DENSE_LENGTHS {
            // Keys cycle over 0..10 with the domain's extremes mixed in;
            // the bounds pass none, all, one key, a middle and nothing
            // (inverted).
            let u = ErasedColumn::U64(
                (0..n as u64)
                    .map(|i| match i % 13 {
                        3 => u64::MAX,
                        _ => i % 10,
                    })
                    .collect(),
            );
            let bounds = [
                (11, 20),
                (0, u64::MAX),
                (u64::MAX, u64::MAX),
                (3, 3),
                (2, 6),
                (6, 2),
            ];
            for (low, high) in bounds {
                check_legs(&u, &ErasedKey::U64(low), &ErasedKey::U64(high), "u64");
            }
            let i = ErasedColumn::I64(
                (0..n as i64)
                    .map(|i| match i % 13 {
                        3 => i64::MIN,
                        4 => i64::MAX,
                        _ => i % 10 - 5,
                    })
                    .collect(),
            );
            let bounds = [
                (6, 9),
                (i64::MIN, i64::MAX),
                (i64::MIN, i64::MIN),
                (-1, -1),
                (-3, 3),
                (3, -3),
            ];
            for (low, high) in bounds {
                check_legs(&i, &ErasedKey::I64(low), &ErasedKey::I64(high), "i64");
            }
            let special = [-0.0, 0.0, f64::NEG_INFINITY, f64::INFINITY];
            let f = ErasedColumn::F64(
                (0..n)
                    .map(|i| match i % 13 {
                        s @ 0..=3 => special[s],
                        _ => (i % 10) as f64 - 4.5,
                    })
                    .collect(),
            );
            let bounds = [
                (100.0, 200.0),
                (f64::NEG_INFINITY, f64::INFINITY),
                (-0.0, -0.0),
                (0.0, 0.0),
                (f64::INFINITY, f64::INFINITY),
                (-0.0, 0.0),
                (-2.5, 2.5),
                (0.0, -0.0),
            ];
            for (low, high) in bounds {
                check_legs(&f, &ErasedKey::F64(low), &ErasedKey::F64(high), "f64");
            }
        }
    }

    /// Random keys, liveness and bounds at random lengths up to three
    /// blocks; a failure names its seed. The keys take 256 values, so
    /// rows tie with each other and with the bounds; read as `i64` half
    /// are negative, and read as `f64` bits (the exponent's low bits are
    /// clear, so none is NaN) they include both zeros.
    #[test]
    fn both_legs_match_the_reference_on_random_columns() {
        for seed in 1..=24 {
            let mut rng = TestRng::new(seed);
            let n = rng.below(3 * 1024) as usize;
            let live: Vec<bool> = (0..n).map(|_| rng.below(8) != 0).collect();
            let keys: Vec<u64> = (0..n).map(|_| rng.below(64) << 58 | rng.below(4)).collect();
            let mut bound = || {
                keys.get(rng.below(n as u64 + 1) as usize)
                    .copied()
                    .unwrap_or(0)
            };
            let (low, high) = (bound(), bound());
            let cols = [
                (
                    ErasedColumn::U64(keys.clone()),
                    ErasedKey::U64(low),
                    ErasedKey::U64(high),
                ),
                (
                    ErasedColumn::I64(keys.iter().map(|&k| k as i64).collect()),
                    ErasedKey::I64(low as i64),
                    ErasedKey::I64(high as i64),
                ),
                (
                    ErasedColumn::F64(keys.iter().map(|&k| f64::from_bits(k)).collect()),
                    ErasedKey::F64(f64::from_bits(low)),
                    ErasedKey::F64(f64::from_bits(high)),
                ),
            ];
            for (col, low, high) in &cols {
                let want = reference(
                    col,
                    (0..n as u32).filter(|&row| live[row as usize]),
                    low,
                    high,
                );
                let rows = RowColumn::from(col.clone());
                for (leg, run) in legs() {
                    assert_eq!(
                        run(&rows, &live, low, high),
                        want,
                        "seed {seed}: {leg} over {n} rows"
                    );
                }
            }
        }
    }

    #[test]
    fn select_appends_to_the_selection_it_is_given() {
        let col = RowColumn::from(ErasedColumn::U64(vec![9, 1, 9]));
        let mut sel = vec![7];
        col.select(&[true; 3], &ErasedKey::U64(9), &ErasedKey::U64(9), &mut sel);
        assert_eq!(sel, vec![7, 0, 2]);
    }

    #[test]
    fn codes_preserve_each_domain_order() {
        let i = RowColumn::from(ErasedColumn::I64(vec![-5, 0, 7]));
        let f = RowColumn::from(ErasedColumn::F64(vec![-1.5, 0.0, 2.25]));
        for col in [&i, &f] {
            let codes: Vec<u64> = (0..col.len()).map(|r| col.code_at(r)).collect();
            let mut sorted = codes.clone();
            sorted.sort_unstable();
            assert_eq!(codes, sorted, "{:?}", col.domain());
        }
    }

    #[test]
    fn string_prefix_codes_tie_but_full_keys_do_not() {
        let col = RowColumn::from(ErasedColumn::Str(vec![
            "progressive".into(),
            "progressive-index".into(),
            "quicksort".into(),
        ]));
        assert_eq!(col.code_at(0), col.code_at(1), "8-byte prefix ties");
        // A code range over-selects…
        let low = ErasedKey::Str("progressive-a".into());
        let high = ErasedKey::Str("progressive-z".into());
        assert!((low.to_code()..=high.to_code()).contains(&col.code_at(0)));
        // …and the kernels, comparing full keys, do not.
        let mut sel = Vec::new();
        col.select(&[true; 3], &low, &high, &mut sel);
        assert_eq!(sel, vec![1]);
        let mut sel = vec![0, 1, 2];
        col.refine(&mut sel, &low, &high);
        assert_eq!(sel, vec![1]);
    }

    #[test]
    fn sums_are_capability_gated() {
        let u = RowColumn::from(ErasedColumn::U64(vec![3, u64::MAX, 4]));
        assert_eq!(u.sum_selected(&[]), Some(ErasedSum::U64(0)));
        assert_eq!(u.sum_selected(&[0, 2]), Some(ErasedSum::U64(7)));
        assert_eq!(
            u.sum_selected(&[0, 1, 2]),
            Some(ErasedSum::U64(u64::MAX as u128 + 7))
        );

        let i = RowColumn::from(ErasedColumn::I64(vec![-10, 4]));
        assert_eq!(i.sum_selected(&[]), Some(ErasedSum::I64(0)));
        assert_eq!(i.sum_selected(&[0, 1]), Some(ErasedSum::I64(-6)));

        for col in [
            ErasedColumn::F64(vec![1.0]),
            ErasedColumn::Str(vec!["a".into()]),
        ] {
            let col = RowColumn::from(col);
            assert_eq!(col.sum_selected(&[]), None);
            assert_eq!(col.sum_selected(&[0]), None);
        }
    }

    /// An `i64` column stores sign-flipped codes; their sum decodes back
    /// exactly whatever the signs, the extremes and the selection.
    #[test]
    fn i64_sums_decode_negative_zero_and_positive_keys() {
        let keys = vec![-7, 0, 5, i64::MIN, -1, i64::MAX, 0, 3, -12];
        let col = ErasedColumn::I64(keys.clone());
        let rows = RowColumn::from(col.clone());
        let all: Vec<u32> = (0..keys.len() as u32).collect();
        let selections = [
            vec![],
            vec![1, 6],
            vec![0, 4, 8],
            vec![2, 7],
            vec![0, 1, 2],
            vec![3, 5],
            vec![3],
            all,
        ];
        for sel in selections {
            assert_eq!(
                rows.sum_selected(&sel),
                reference_sum(&col, &sel),
                "{sel:?}"
            );
        }
    }

    #[test]
    fn decode_is_exact_for_injective_domains_only() {
        let f = RowColumn::from(ErasedColumn::F64(vec![-3.75]));
        assert_eq!(f.decode_code(f.code_at(0)), Some(ErasedKey::F64(-3.75)));
        let i = RowColumn::from(ErasedColumn::I64(vec![-42]));
        assert_eq!(i.decode_code(i.code_at(0)), Some(ErasedKey::I64(-42)));
        let s = RowColumn::from(ErasedColumn::Str(vec!["hello".into()]));
        assert_eq!(s.decode_code(s.code_at(0)), None);
    }

    #[test]
    #[should_panic(expected = "does not match column domain")]
    fn cross_domain_predicates_rejected() {
        let col = RowColumn::from(ErasedColumn::U64(vec![1]));
        col.refine(&mut vec![0], &ErasedKey::F64(0.0), &ErasedKey::F64(1.0));
    }
}
