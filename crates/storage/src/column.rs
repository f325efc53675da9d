//! In-memory column of fixed-width integer values.
//!
//! The paper's experiments run range aggregations of the form
//! `SELECT SUM(R.A) FROM R WHERE R.A BETWEEN V1 AND V2` over a single
//! attribute stored column-wise. [`Column`] is that attribute: a flat,
//! immutable `Vec<u64>` plus cached `min`/`max` statistics that the
//! progressive indexes need for pivot selection (Progressive Quicksort),
//! radix range computation (Radixsort LSD/MSD) and bucket-bound sampling
//! (Bucketsort).

/// The element type stored in a [`Column`].
///
/// The paper evaluates on 8-byte integers; using a concrete alias keeps the
/// hot loops free of generic indirection while still making the intended
/// width explicit at every API boundary.
pub type Value = u64;

/// An immutable, in-memory column of [`Value`]s.
///
/// A `Column` is the *base table* from the paper: the progressive indexes
/// never modify it, they only read ever smaller suffixes of it while the
/// index under construction absorbs more and more of the data.
///
/// A column knows whether it is sorted ([`Column::is_sorted`]). The rows of
/// a range-partitioned shard have no order anyone reads, so once an index
/// has sorted a column's values the sorted array *is* the column: it is
/// wrapped with [`Column::from_sorted_vec`], the unsorted one is dropped,
/// and whatever is later built over a sorted column — after a merge, a
/// snapshot decode, a re-shard, or a user loading ordered ids — has nothing
/// left to sort and starts at consolidation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    data: Vec<Value>,
    min: Value,
    max: Value,
    sorted: bool,
}

impl Column {
    /// Creates a column from a vector of values.
    ///
    /// Computes `min`/`max` eagerly with a single pass; an empty input
    /// yields the neutral elements of the `min`/`max` folds, `min ==
    /// Value::MAX` and `max == Value::MIN` (`0`). The inverted pair
    /// (`min > max`) can never satisfy a covered-range check, and every
    /// aggregate consumer must guard on emptiness (row count or
    /// [`Column::domain`] being `None`) rather than on the sentinels —
    /// the engine's shard digests do (see the empty-column regression
    /// tests in `pi-engine`).
    pub fn from_vec(data: Vec<Value>) -> Self {
        let mut min = Value::MAX;
        let mut max = Value::MIN;
        for &v in &data {
            min = min.min(v);
            max = max.max(v);
        }
        // A pass of its own: it leaves unsorted data at the first descent,
        // and folded into the loop above it keeps that loop from
        // vectorising (measured: +5–12% table set-up).
        let sorted = crate::sorted::is_sorted(&data);
        Self {
            data,
            min,
            max,
            sorted,
        }
    }

    /// Wraps values the caller has sorted (non-decreasing) without walking
    /// them again: `min` is the first value and `max` the last.
    pub fn from_sorted_vec(data: Vec<Value>) -> Self {
        debug_assert!(crate::sorted::is_sorted(&data));
        Self {
            min: data.first().copied().unwrap_or(Value::MAX),
            max: data.last().copied().unwrap_or(Value::MIN),
            data,
            sorted: true,
        }
    }

    /// Number of rows in the column.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the column holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// `true` when the values are in non-decreasing order (an empty or
    /// one-row column is). Established at construction.
    #[inline]
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// Smallest value stored in the column (`Value::MAX` when empty).
    #[inline]
    pub fn min(&self) -> Value {
        self.min
    }

    /// Largest value stored in the column (`0` when empty).
    #[inline]
    pub fn max(&self) -> Value {
        self.max
    }

    /// Borrow of the underlying values.
    #[inline]
    pub fn data(&self) -> &[Value] {
        &self.data
    }

    /// Consumes the column and returns the underlying vector.
    pub fn into_vec(self) -> Vec<Value> {
        self.data
    }

    /// The closed value domain `[min, max]` of the column, or `None` when
    /// the column is empty.
    pub fn domain(&self) -> Option<(Value, Value)> {
        if self.is_empty() {
            None
        } else {
            Some((self.min, self.max))
        }
    }

    /// Exact sum of all values, as used by full-scan sanity checks.
    pub fn total_sum(&self) -> u128 {
        self.data.iter().map(|&v| v as u128).sum()
    }
}

impl From<Vec<Value>> for Column {
    fn from(data: Vec<Value>) -> Self {
        Self::from_vec(data)
    }
}

impl<'a> IntoIterator for &'a Column {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_computes_min_max() {
        let c = Column::from_vec(vec![5, 1, 9, 3]);
        assert_eq!(c.min(), 1);
        assert_eq!(c.max(), 9);
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
    }

    #[test]
    fn sortedness_is_known_at_construction_and_the_trusting_path_agrees() {
        for (values, sorted) in [
            (vec![], true),
            (vec![7], true),
            (vec![1, 1, 2, 9], true),
            (vec![1, 3, 2], false),
            (vec![2, 1], false),
        ] {
            let column = Column::from_vec(values.clone());
            assert_eq!(column.is_sorted(), sorted, "{values:?}");
            if sorted {
                assert_eq!(Column::from_sorted_vec(values), column);
            }
        }
    }

    #[test]
    fn empty_column() {
        let c = Column::from_vec(vec![]);
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
        assert_eq!(c.domain(), None);
        assert_eq!(c.total_sum(), 0);
    }

    #[test]
    fn single_element_domain() {
        let c = Column::from_vec(vec![42]);
        assert_eq!(c.domain(), Some((42, 42)));
        assert_eq!(c.min(), 42);
        assert_eq!(c.max(), 42);
    }

    #[test]
    fn get_and_iter_agree() {
        let c = Column::from_vec(vec![7, 8, 9]);
        assert_eq!(c.data(), &[7, 8, 9]);
        assert_eq!(c.into_vec(), vec![7, 8, 9]);
    }

    #[test]
    fn total_sum_handles_large_values() {
        let c = Column::from_vec(vec![Value::MAX, Value::MAX]);
        assert_eq!(c.total_sum(), 2 * (Value::MAX as u128));
    }

    #[test]
    fn into_vec_round_trips() {
        let original = vec![3, 1, 4, 1, 5];
        let c = Column::from_vec(original.clone());
        assert_eq!(c.into_vec(), original);
    }

    #[test]
    fn from_trait_matches_from_vec() {
        let a: Column = vec![1, 2, 3].into();
        let b = Column::from_vec(vec![1, 2, 3]);
        assert_eq!(a, b);
    }

    #[test]
    fn ref_into_iterator() {
        let c = Column::from_vec(vec![1, 2, 3]);
        let s: Value = (&c).into_iter().sum();
        assert_eq!(s, 6);
    }
}
