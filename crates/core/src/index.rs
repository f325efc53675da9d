//! The [`RangeIndex`] trait: the common interface of every progressive
//! index and every adaptive-indexing baseline in this workspace.
//!
//! The paper's workload is `SELECT SUM(R.A) FROM R WHERE R.A BETWEEN V1 AND
//! V2` (point queries are the special case `V1 == V2`). Each call to
//! [`RangeIndex::query`] answers one such query **and**, as a side effect,
//! performs a bounded amount of indexing work — that combination is the
//! defining property of incremental indexing.

use crate::result::{IndexStatus, QueryResult};
use pi_storage::Value;

/// An index over a single integer column that answers inclusive range-sum
/// queries and refines itself as a side effect of query processing.
pub trait RangeIndex {
    /// Answers `SELECT SUM(a), COUNT(a) WHERE a BETWEEN low AND high`
    /// (inclusive on both ends; `low > high` denotes the empty range), and
    /// performs this query's share of indexing work.
    fn query(&mut self, low: Value, high: Value) -> QueryResult;

    /// Progress snapshot: phase, fraction of data indexed, phase progress.
    fn status(&self) -> IndexStatus;

    /// `true` once no further indexing work will ever be performed.
    fn is_converged(&self) -> bool {
        self.status().converged
    }

    /// Stable, short identifier used in assertion messages
    /// (e.g. `"progressive-quicksort"`, `"standard-cracking"`).
    fn name(&self) -> &'static str;

    /// Convenience: answers a point query (`a == value`).
    fn point_query(&mut self, value: Value) -> QueryResult {
        self.query(value, value)
    }
}

/// Blanket implementation so `Box<dyn RangeIndex>` — what
/// [`Algorithm::build`](crate::Algorithm::build) and pi-cracking's
/// `AlgorithmId::build` return, to put the progressive indexes beside the
/// cracking baselines — is itself usable as a `RangeIndex`.
impl<T: RangeIndex + ?Sized> RangeIndex for Box<T> {
    fn query(&mut self, low: Value, high: Value) -> QueryResult {
        (**self).query(low, high)
    }

    fn status(&self) -> IndexStatus {
        (**self).status()
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::Phase;
    use pi_storage::scan::ScanResult;

    /// Minimal index used to exercise the trait's default methods.
    struct TrivialIndex {
        data: Vec<Value>,
    }

    impl RangeIndex for TrivialIndex {
        fn query(&mut self, low: Value, high: Value) -> QueryResult {
            let scan = pi_storage::scan::scan_range_sum(&self.data, low, high);
            QueryResult::answer_only(scan, Phase::Converged)
        }

        fn status(&self) -> IndexStatus {
            IndexStatus::converged()
        }

        fn name(&self) -> &'static str {
            "trivial"
        }
    }

    #[test]
    fn point_query_default_uses_closed_interval() {
        let mut idx = TrivialIndex {
            data: vec![1, 5, 5, 9],
        };
        let r = idx.point_query(5);
        assert_eq!(r.scan_result(), ScanResult { sum: 10, count: 2 });
    }

    #[test]
    fn boxed_index_delegates() {
        let mut boxed: Box<dyn RangeIndex> = Box::new(TrivialIndex {
            data: vec![2, 4, 6],
        });
        assert_eq!(boxed.name(), "trivial");
        assert!(boxed.is_converged());
        let r = boxed.query(3, 7);
        assert_eq!(r.sum, 10);
        assert_eq!(r.count, 2);
    }
}
