//! Query results, index phases and status reporting.
//!
//! Every progressive index moves through the three canonical phases of the
//! paper — **creation**, **refinement**, **consolidation** — and finally
//! reaches the **converged** state in which a finished B+-tree answers all
//! queries. [`Phase`] makes that lifecycle explicit, and [`QueryResult`]
//! reports, for every query, both the answer and the bookkeeping
//! [`IndexMetrics`](crate::metrics::IndexMetrics) records (the δ that was
//! used, the cost-model prediction, the amount of indexing work performed).

use pi_storage::scan::ScanResult;

/// Lifecycle phase of a progressive index.
///
/// The phases are strictly ordered; an index never moves backwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// The base column is being absorbed into the index; queries combine an
    /// index lookup over the already-indexed ρ fraction with a scan of the
    /// remaining `1 - ρ` fraction of the column.
    Creation,
    /// All data lives in the index; the index is being reorganised towards
    /// a fully sorted array.
    Refinement,
    /// The array is fully sorted; a B+-tree is being built on top of it.
    Consolidation,
    /// The B+-tree is complete; no further indexing work is performed.
    Converged,
}

impl Phase {
    /// Short human-readable label, also the `Display` form (the examples
    /// print it).
    pub fn label(self) -> &'static str {
        match self {
            Phase::Creation => "creation",
            Phase::Refinement => "refinement",
            Phase::Consolidation => "consolidation",
            Phase::Converged => "converged",
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Result of a single range query executed against a
/// [`RangeIndex`](crate::index::RangeIndex), together with per-query
/// instrumentation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryResult {
    /// Sum of the qualifying values (`SELECT SUM(a) WHERE a BETWEEN ...`).
    pub sum: u128,
    /// Number of qualifying rows.
    pub count: u64,
    /// Phase the index was in when the query started.
    pub phase: Phase,
    /// The δ (fraction of indexing work) used for this query.
    pub delta: f64,
    /// Cost-model prediction of the query's total execution time in
    /// seconds, when the algorithm provides one (`None` for baselines).
    pub predicted_cost: Option<f64>,
    /// Number of element-level indexing operations performed as a side
    /// effect of this query (copies, swaps, bucket appends, tree copies).
    pub indexing_ops: u64,
    /// Number of elements read to answer the query (index lookups plus
    /// base-column scanning). Used to derive α in cost-model validation.
    /// For an empty predicate (`low > high`, the maintenance step) this is
    /// the logical count — what a non-empty predicate would have covered in
    /// the unindexed part — although the scan kernel reads none of it.
    pub elements_scanned: u64,
}

impl QueryResult {
    /// Creates a result carrying only the answer, with all instrumentation
    /// fields zeroed. Used by the non-progressive baselines.
    pub fn answer_only(scan: ScanResult, phase: Phase) -> Self {
        QueryResult {
            sum: scan.sum,
            count: scan.count,
            phase,
            delta: 0.0,
            predicted_cost: None,
            indexing_ops: 0,
            elements_scanned: 0,
        }
    }

    /// The aggregate as a [`ScanResult`], convenient for comparisons with
    /// the scan-based reference answer in tests.
    pub fn scan_result(&self) -> ScanResult {
        ScanResult {
            sum: self.sum,
            count: self.count,
        }
    }
}

/// Progress snapshot of an index, as reported by
/// [`crate::index::RangeIndex::status`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexStatus {
    /// Current phase.
    pub phase: Phase,
    /// Fraction ρ of the base column already absorbed by the index
    /// (reaches `1.0` at the end of the creation phase and stays there).
    pub fraction_indexed: f64,
    /// Fraction of the *current phase's* total work already performed,
    /// in `[0, 1]`.
    pub phase_progress: f64,
    /// `true` once the index is fully converged (B+-tree complete).
    pub converged: bool,
}

impl IndexStatus {
    /// Status constant for a fully converged index.
    pub fn converged() -> Self {
        IndexStatus {
            phase: Phase::Converged,
            fraction_indexed: 1.0,
            phase_progress: 1.0,
            converged: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_are_ordered() {
        assert!(Phase::Creation < Phase::Refinement);
        assert!(Phase::Refinement < Phase::Consolidation);
        assert!(Phase::Consolidation < Phase::Converged);
    }

    #[test]
    fn phase_labels() {
        assert_eq!(Phase::Creation.label(), "creation");
        assert_eq!(Phase::Converged.to_string(), "converged");
    }

    #[test]
    fn answer_only_result_zeroes_instrumentation() {
        let r = QueryResult::answer_only(ScanResult { sum: 10, count: 2 }, Phase::Converged);
        assert_eq!(r.sum, 10);
        assert_eq!(r.count, 2);
        assert_eq!(r.indexing_ops, 0);
        assert_eq!(r.predicted_cost, None);
        assert_eq!(r.scan_result(), ScanResult { sum: 10, count: 2 });
    }

    #[test]
    fn converged_status() {
        let s = IndexStatus::converged();
        assert!(s.converged);
        assert_eq!(s.phase, Phase::Converged);
        assert_eq!(s.fraction_indexed, 1.0);
    }
}
