//! Coarse Granular Index (Schuhknecht et al., PVLDB 2013) — the `CGI`
//! baseline.
//!
//! Coarse granular indexing trades a more expensive first query for a more
//! robust index: when the column is first queried it is immediately range-
//! partitioned into a configurable number of equal-width partitions
//! (installing all partition boundaries in the cracker index), and from
//! the second query on it behaves like standard cracking *within* those
//! partitions. Because no piece can ever be larger than one initial
//! partition, the performance spikes of plain cracking are capped.

use std::sync::Arc;

use pi_core::result::{IndexStatus, Phase, QueryResult};
use pi_core::RangeIndex;
use pi_storage::{Column, Value};

use crate::cracked_column::CrackedColumn;

/// Default number of equal-width partitions created by the first query.
pub(crate) const DEFAULT_PARTITIONS: usize = 64;

/// Coarse granular index baseline (`CGI` in the paper's tables).
pub struct CoarseGranularIndex {
    column: Arc<Column>,
    cracked: Option<CrackedColumn>,
    partitions: usize,
    queries_executed: u64,
}

impl CoarseGranularIndex {
    /// Creates the baseline with [`DEFAULT_PARTITIONS`] initial partitions.
    pub(crate) fn new(column: Arc<Column>) -> Self {
        Self::with_partitions(column, DEFAULT_PARTITIONS)
    }

    /// Creates the baseline with an explicit initial partition count.
    ///
    /// # Panics
    /// Panics when `partitions < 2`.
    pub(crate) fn with_partitions(column: Arc<Column>, partitions: usize) -> Self {
        assert!(
            partitions >= 2,
            "need at least 2 partitions, got {partitions}"
        );
        CoarseGranularIndex {
            column,
            cracked: None,
            partitions,
            queries_executed: 0,
        }
    }

    /// First-query work: out-of-place range partition of the whole column
    /// into `partitions` equal-width value ranges, installing every
    /// partition boundary. Returns the number of element moves.
    fn initialize(&mut self) -> u64 {
        let n = self.column.len();
        let mut cracked = CrackedColumn::new(&self.column);
        let (min, max) = match self.column.domain() {
            Some(d) => d,
            None => {
                self.cracked = Some(cracked);
                return 0;
            }
        };
        let span = (max - min).max(1);
        let k = self.partitions.min(n.max(1));
        // Partition boundaries: min + i * span / k for i in 1..k. Narrow
        // domains can produce duplicate boundaries; dedup keeps the
        // boundary → position mapping unambiguous.
        let mut bounds: Vec<Value> = (1..k)
            .map(|i| min + ((span as u128 * i as u128) / k as u128) as Value)
            .filter(|&b| b > min && b <= max)
            .collect();
        bounds.dedup();

        // Counting sort by partition: count, prefix-sum, scatter.
        let bucket_of = |v: Value| -> usize {
            match bounds.binary_search(&v) {
                // `bounds[i] == v` means v belongs to the partition that
                // starts at bounds[i] (boundary semantics are `< bound`).
                Ok(i) => i + 1,
                Err(i) => i,
            }
        };
        let mut counts = vec![0usize; bounds.len() + 1];
        for &v in cracked.data() {
            counts[bucket_of(v)] += 1;
        }
        let mut starts = vec![0usize; counts.len()];
        let mut acc = 0usize;
        for (i, &c) in counts.iter().enumerate() {
            starts[i] = acc;
            acc += c;
        }
        let mut out = vec![0 as Value; n];
        let mut cursors = starts.clone();
        for &v in cracked.data() {
            let b = bucket_of(v);
            out[cursors[b]] = v;
            cursors[b] += 1;
        }
        *cracked.data_mut() = out;
        for (i, &bound) in bounds.iter().enumerate() {
            cracked.index_mut().insert(bound, starts[i + 1]);
        }
        self.cracked = Some(cracked);
        n as u64
    }

    fn cracked_mut(&mut self) -> &mut CrackedColumn {
        self.cracked.as_mut().expect("initialised before use")
    }
}

impl RangeIndex for CoarseGranularIndex {
    fn query(&mut self, low: Value, high: Value) -> QueryResult {
        self.queries_executed += 1;
        if low > high || self.column.is_empty() {
            return QueryResult::answer_only(pi_storage::ScanResult::EMPTY, self.status().phase);
        }
        let mut ops = 0u64;
        if self.cracked.is_none() {
            ops += self.initialize();
        }
        let cracked = self.cracked_mut();
        ops += cracked.crack_exact(low).1;
        if high < Value::MAX {
            ops += cracked.crack_exact(high + 1).1;
        }
        let answer = cracked.answer(low, high);
        QueryResult {
            sum: answer.result.sum,
            count: answer.result.count,
            phase: Phase::Refinement,
            delta: 0.0,
            predicted_cost: None,
            indexing_ops: ops,
            elements_scanned: answer.elements_scanned,
        }
    }

    fn status(&self) -> IndexStatus {
        match &self.cracked {
            None => IndexStatus {
                phase: Phase::Creation,
                fraction_indexed: 0.0,
                phase_progress: 0.0,
                converged: false,
            },
            Some(c) => IndexStatus {
                phase: Phase::Refinement,
                fraction_indexed: 1.0,
                phase_progress: c.refinement_progress(),
                converged: false,
            },
        }
    }

    fn name(&self) -> &'static str {
        "coarse-granular-index"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_core::testing::{check_correctness_under_workload, random_column, ReferenceIndex};

    /// Crack boundaries installed so far: one fewer than the pieces.
    fn boundary_count(idx: &CoarseGranularIndex) -> usize {
        idx.cracked
            .as_ref()
            .map_or(0, |c| c.index().pieces(c.data().len()).len() - 1)
    }

    #[test]
    fn answers_match_reference_under_random_workload() {
        check_correctness_under_workload(
            |col| Box::new(CoarseGranularIndex::new(col)),
            20_000,
            50_000,
            200,
        );
    }

    #[test]
    fn first_query_installs_partition_boundaries() {
        let col = Arc::new(random_column(50_000, 1_000_000, 41));
        let mut idx = CoarseGranularIndex::with_partitions(Arc::clone(&col), 16);
        assert_eq!(boundary_count(&idx), 0);
        let reference = ReferenceIndex::new(&col);
        let r = idx.query(100_000, 200_000);
        assert_eq!(r.scan_result(), reference.query(100_000, 200_000));
        // 15 partition boundaries plus (up to) 2 query-bound boundaries.
        assert!(boundary_count(&idx) >= 15);
        // The first query pays for the full partition pass.
        assert!(r.indexing_ops >= 50_000);
    }

    #[test]
    fn partitioning_bounds_largest_piece() {
        let col = Arc::new(random_column(64_000, 1_000_000, 42));
        let mut idx = CoarseGranularIndex::with_partitions(Arc::clone(&col), 32);
        idx.query(0, 10);
        let cracked = idx.cracked.as_ref().unwrap();
        // Uniform data: no piece should be much larger than n / partitions.
        let largest = cracked.index().largest_piece(64_000);
        assert!(
            largest < 2 * (64_000 / 32) + 1_000,
            "largest piece {largest}"
        );
    }

    #[test]
    fn skewed_data_is_still_answered_correctly() {
        // All values identical: every element lands in one partition.
        let col = Arc::new(Column::from_vec(vec![7; 10_000]));
        let reference = ReferenceIndex::new(&col);
        let mut idx = CoarseGranularIndex::new(Arc::clone(&col));
        assert_eq!(idx.query(0, 6).scan_result(), reference.query(0, 6));
        assert_eq!(idx.query(7, 7).scan_result(), reference.query(7, 7));
        assert_eq!(idx.query(8, 100).scan_result(), reference.query(8, 100));
    }

    #[test]
    #[should_panic(expected = "at least 2 partitions")]
    fn rejects_single_partition() {
        let col = Arc::new(random_column(10, 10, 43));
        let _ = CoarseGranularIndex::with_partitions(col, 1);
    }
}
