//! Pending-mutation sidecars: the delta log a mutable progressive index
//! keeps next to its immutable base snapshot.
//!
//! The paper's model assumes an append-only column: every index absorbs a
//! frozen base [`crate::Column`] and refines towards a B+-tree. Mutation
//! support keeps that model intact by never touching the base snapshot at
//! all — instead, inserts and deletes accumulate in a [`DeltaSidecar`]:
//!
//! * **inserts** — a sorted multiset of values added after the snapshot
//!   was taken;
//! * **tombstones** — a sorted multiset of values deleted from the
//!   snapshot (one tombstone cancels one live occurrence).
//!
//! A range query stays exact at *every* refinement stage by composing
//! three terms: the index answer over the base snapshot, **plus** the
//! sidecar's qualifying inserts, **minus** its qualifying tombstones
//! ([`DeltaSidecar::scan`]). Because tombstones are only ever admitted for
//! values that are live (the index layer validates before recording one),
//! the subtraction can never underflow.
//!
//! Both multisets are kept sorted, so range scans are two binary searches
//! plus a walk over the qualifying run, and cancellation (an insert
//! nullifying a tombstone of the same value, or a delete consuming a
//! pending insert) is `O(log n + n)` worst case on the `Vec` shift. The
//! sidecar is bounded in practice: once the base snapshot is sorted, the
//! index layer merges the sidecar back into a fresh one whenever it grows
//! past a tenth of the live rows.

use crate::column::Value;
use crate::scan::ScanResult;

/// The two pending multisets a mutable index keeps next to its immutable
/// base snapshot: values inserted since the snapshot and tombstones over
/// it. See the [module docs](self) for the query-composition contract.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaSidecar {
    /// Values inserted after the base snapshot was taken (sorted).
    inserts: Vec<Value>,
    /// Values deleted from the base snapshot (sorted); each entry cancels
    /// exactly one live occurrence.
    tombstones: Vec<Value>,
    /// Sum of `inserts` minus sum of `tombstones`, kept by every method
    /// that changes either run.
    net_sum: i128,
}

/// The net effect of a sidecar on one range predicate: what the sidecar
/// adds to and removes from the base snapshot's answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaScan {
    /// Aggregate over the qualifying pending inserts.
    pub added: ScanResult,
    /// Aggregate over the qualifying tombstones.
    pub removed: ScanResult,
}

impl DeltaScan {
    /// Applies this delta to a base-snapshot answer:
    /// `base + added - removed`.
    ///
    /// # Panics
    /// Panics (in debug builds) when `removed` exceeds what
    /// `base + added` holds — which would mean a tombstone was admitted
    /// for a value that was never live.
    #[inline]
    pub fn apply_to(self, base: ScanResult) -> ScanResult {
        let (kept, removed) = (base.merge(self.added), self.removed);
        debug_assert!(
            kept.sum >= removed.sum && kept.count >= removed.count,
            "subtracting an aggregate ({removed:?}) that is not contained in {kept:?}"
        );
        ScanResult {
            sum: kept.sum - removed.sum,
            count: kept.count - removed.count,
        }
    }
}

/// Inserts `v` into the sorted vector, keeping it sorted.
fn sorted_insert(vec: &mut Vec<Value>, v: Value) {
    let at = vec.partition_point(|&x| x <= v);
    vec.insert(at, v);
}

/// Removes one occurrence of `v` from the sorted vector. Returns whether
/// an occurrence existed.
fn sorted_remove(vec: &mut Vec<Value>, v: Value) -> bool {
    let at = vec.partition_point(|&x| x < v);
    if vec.get(at) == Some(&v) {
        vec.remove(at);
        true
    } else {
        false
    }
}

/// Aggregate over the `[low, high]` run of a sorted vector.
fn sorted_scan(vec: &[Value], low: Value, high: Value) -> ScanResult {
    if low > high {
        return ScanResult::EMPTY;
    }
    let start = vec.partition_point(|&x| x < low);
    let end = vec.partition_point(|&x| x <= high);
    let slice = &vec[start..end];
    ScanResult {
        sum: slice.iter().map(|&v| v as u128).sum(),
        count: slice.len() as u64,
    }
}

/// Number of occurrences of `v` in a sorted vector.
fn sorted_count(vec: &[Value], v: Value) -> u64 {
    (vec.partition_point(|&x| x <= v) - vec.partition_point(|&x| x < v)) as u64
}

impl DeltaSidecar {
    /// An empty sidecar (no pending mutations).
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` when no mutations are pending.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.tombstones.is_empty()
    }

    /// Total number of pending entries (inserts plus tombstones) — the
    /// size signal merge policies trigger on.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.tombstones.len()
    }

    /// Net change in live row count this sidecar represents
    /// (`inserts - tombstones`, may be negative).
    pub fn net_rows(&self) -> i64 {
        self.inserts.len() as i64 - self.tombstones.len() as i64
    }

    /// Records an insert of `v`. If a tombstone for `v` is pending, the
    /// two cancel instead (the multisets are over indistinguishable
    /// values, so `tombstone(v) + insert(v)` is a no-op).
    pub fn insert(&mut self, v: Value) {
        if !sorted_remove(&mut self.tombstones, v) {
            sorted_insert(&mut self.inserts, v);
        }
        // Either way the net sum gains `v`: a cancelled tombstone had
        // taken it off.
        self.net_sum += v as i128;
    }

    /// Cancels one pending insert of `v`, if any. Returns whether an
    /// insert was consumed — the cheap path of a delete, avoiding a
    /// tombstone for a row the base snapshot never held.
    pub fn cancel_insert(&mut self, v: Value) -> bool {
        let cancelled = sorted_remove(&mut self.inserts, v);
        if cancelled {
            self.net_sum -= v as i128;
        }
        cancelled
    }

    /// Records a tombstone for `v`.
    ///
    /// The caller must have validated that an occurrence of `v` is live in
    /// the base snapshot net of pending deltas; the sidecar itself cannot
    /// check that.
    pub fn add_tombstone(&mut self, v: Value) {
        sorted_insert(&mut self.tombstones, v);
        self.net_sum -= v as i128;
    }

    /// Net effect of the pending mutations on a `[low, high]` predicate
    /// (inclusive; `low > high` is the empty range).
    pub fn scan(&self, low: Value, high: Value) -> DeltaScan {
        DeltaScan {
            added: sorted_scan(&self.inserts, low, high),
            removed: sorted_scan(&self.tombstones, low, high),
        }
    }

    /// Net pending occurrences of exactly `v`
    /// (`inserts(v) - tombstones(v)`, may be negative).
    pub fn net_count_of(&self, v: Value) -> i64 {
        sorted_count(&self.inserts, v) as i64 - sorted_count(&self.tombstones, v) as i64
    }

    /// The pending inserts, sorted ascending.
    pub fn inserts(&self) -> &[Value] {
        &self.inserts
    }

    /// The pending tombstones, sorted ascending.
    pub fn tombstones(&self) -> &[Value] {
        &self.tombstones
    }

    /// Sum over all pending inserts minus all tombstones, as a signed
    /// contribution to the column total (O(1): kept as the runs change).
    pub fn net_sum(&self) -> i128 {
        self.net_sum
    }

    /// Rebuilds a sidecar from sorted multisets (the decode half of the
    /// snapshot codec, [`crate::snapshot::read_sidecar`]). Returns `None`
    /// when either run is out of order — a corrupted encoding must be
    /// rejected, not trusted into the binary-search invariants.
    pub(crate) fn from_sorted_parts(inserts: Vec<Value>, tombstones: Vec<Value>) -> Option<Self> {
        let sorted = |run: &[Value]| run.windows(2).all(|w| w[0] <= w[1]);
        if sorted(&inserts) && sorted(&tombstones) {
            let sum = |run: &[Value]| run.iter().map(|&v| v as i128).sum::<i128>();
            Some(DeltaSidecar {
                net_sum: sum(&inserts) - sum(&tombstones),
                inserts,
                tombstones,
            })
        } else {
            None
        }
    }

    /// Folds a *later* sidecar into this one, preserving sequential
    /// semantics: each of `later`'s inserts cancels one of this sidecar's
    /// tombstones of the same value (or becomes a pending insert), and
    /// each of `later`'s tombstones consumes one pending insert (or
    /// becomes a tombstone over the shared base snapshot). Used to
    /// flatten an in-flight merge's frozen deltas with the fresh pending
    /// sidecar into one snapshot-equivalent sidecar.
    pub fn compose(&mut self, later: &DeltaSidecar) {
        for &v in later.inserts() {
            self.insert(v);
        }
        for &v in later.tombstones() {
            if !self.cancel_insert(v) {
                self.add_tombstone(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{put_sidecar, read_sidecar, ByteReader};

    /// The running net sum equals a fold of both runs.
    fn assert_net_sum(s: &DeltaSidecar) {
        let fold = |run: &[Value]| run.iter().map(|&v| v as i128).sum::<i128>();
        assert_eq!(
            s.net_sum(),
            fold(s.inserts()) - fold(s.tombstones()),
            "{s:?}"
        );
    }

    #[test]
    fn empty_sidecar_is_neutral() {
        let s = DeltaSidecar::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.net_rows(), 0);
        assert_eq!(s.net_sum(), 0);
        let base = ScanResult { sum: 10, count: 2 };
        assert_eq!(s.scan(0, 100).apply_to(base), base);
    }

    #[test]
    fn inserts_add_and_tombstones_remove() {
        let mut s = DeltaSidecar::new();
        s.insert(5);
        assert_net_sum(&s);
        s.insert(15);
        s.add_tombstone(7);
        assert_net_sum(&s);
        let base = ScanResult { sum: 7, count: 1 }; // base holds {7}
        let r = s.scan(0, 20).apply_to(base);
        assert_eq!(r, ScanResult { sum: 20, count: 2 }); // {5, 15}
                                                         // A narrower predicate only sees the qualifying entries.
        let r = s.scan(10, 20).apply_to(ScanResult::EMPTY);
        assert_eq!(r, ScanResult { sum: 15, count: 1 });
    }

    #[test]
    fn insert_cancels_pending_tombstone() {
        let mut s = DeltaSidecar::new();
        s.insert(u64::MAX);
        s.add_tombstone(9);
        s.insert(9);
        assert_eq!(
            s.inserts(),
            &[u64::MAX],
            "tombstone(9) + insert(9) must cancel"
        );
        assert!(s.tombstones().is_empty());
        assert_net_sum(&s);
    }

    #[test]
    fn cancel_insert_consumes_one_occurrence() {
        let mut s = DeltaSidecar::new();
        s.insert(4);
        s.insert(4);
        assert!(s.cancel_insert(4));
        assert_eq!(s.net_count_of(4), 1);
        assert_net_sum(&s);
        assert!(s.cancel_insert(4));
        assert!(!s.cancel_insert(4));
        assert!(s.is_empty());
        assert_net_sum(&s);
    }

    #[test]
    fn scan_is_a_closed_interval_over_multisets() {
        let mut s = DeltaSidecar::new();
        for v in [3, 3, 5, 8] {
            s.insert(v);
        }
        let d = s.scan(3, 5);
        assert_eq!(d.added, ScanResult { sum: 11, count: 3 });
        assert_eq!(d.removed, ScanResult::EMPTY);
        assert_eq!(s.scan(9, 2), DeltaScan::default());
    }

    #[test]
    fn net_counters_track_both_sides() {
        let mut s = DeltaSidecar::new();
        s.insert(10);
        s.insert(20);
        s.add_tombstone(30);
        assert_eq!(s.net_rows(), 1);
        assert_eq!(s.net_sum(), 0);
        assert_eq!(s.net_count_of(10), 1);
        assert_eq!(s.net_count_of(30), -1);
        assert_eq!(s.net_count_of(40), 0);
        assert_eq!(s.inserts(), &[10, 20]);
        assert_eq!(s.tombstones(), &[30]);
    }

    #[test]
    fn from_sorted_parts_validates_order() {
        let s = DeltaSidecar::from_sorted_parts(vec![1, 2, 2], vec![5]).unwrap();
        assert_eq!(s.inserts(), &[1, 2, 2]);
        assert_eq!(s.tombstones(), &[5]);
        assert_net_sum(&s);
        // The snapshot codec's decode rebuilds the running sum too.
        let mut bytes = Vec::new();
        put_sidecar(&mut bytes, &s);
        let decoded = read_sidecar(&mut ByteReader::new(&bytes)).unwrap();
        assert_net_sum(&decoded);
        assert_eq!(decoded, s);
        assert!(DeltaSidecar::from_sorted_parts(vec![2, 1], vec![]).is_none());
        assert!(DeltaSidecar::from_sorted_parts(vec![], vec![9, 3]).is_none());
    }

    #[test]
    fn compose_preserves_sequential_semantics() {
        // Earlier sidecar: insert 4, tombstone 7.
        let mut earlier = DeltaSidecar::new();
        earlier.insert(4);
        earlier.add_tombstone(7);
        // Later sidecar: insert 7 (revives the tombstoned value),
        // tombstone 4 (consumes the earlier pending insert), insert 9.
        let mut later = DeltaSidecar::new();
        later.insert(7);
        later.insert(9);
        later.add_tombstone(4);
        earlier.compose(&later);
        // Net effect: only the insert of 9 survives.
        assert_eq!(earlier.inserts(), &[9]);
        assert_eq!(earlier.tombstones(), &[] as &[Value]);
        assert_net_sum(&earlier);

        // A later tombstone with no pending insert lands as a tombstone.
        let mut base = DeltaSidecar::new();
        let mut del = DeltaSidecar::new();
        del.add_tombstone(3);
        base.compose(&del);
        assert_eq!(base.tombstones(), &[3]);
        assert_net_sum(&base);
    }
}
