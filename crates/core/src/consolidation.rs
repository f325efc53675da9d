//! The consolidation and converged phases, shared by all four algorithms.
//!
//! Every progressive index ends its refinement phase with one fully sorted
//! array. From there on the algorithms no longer differ (§3 of the paper):
//! the array is topped with a B+-tree, `δ · N_copy` element copies per
//! query, queries binary-search the array until the tree is complete, and
//! afterwards use the tree — the index is *converged* and a range sum costs
//! one descent of both bounds and at most one block of leaves.

use std::sync::Arc;

use pi_storage::btree::{BTreeBuilder, StaticBTree};
use pi_storage::{sorted, Column, Value};

use crate::budget::BudgetController;
use crate::cost_model::CostModel;
use crate::result::{IndexStatus, Phase, QueryResult};

#[derive(Debug)]
enum Stage {
    Building(BTreeBuilder),
    Built(StaticBTree),
}

/// A sorted column and the B+-tree being built, or already built, over it.
/// The column is shared, not copied: it is the index's base from here on.
#[derive(Debug)]
pub(crate) struct Consolidation {
    sorted: Arc<Column>,
    total_copies: usize,
    stage: Stage,
}

impl Consolidation {
    /// Starts consolidating `sorted`. An array that fits one tree node
    /// (the empty column included) has nothing to build and starts
    /// converged.
    pub(crate) fn new(sorted: Arc<Column>, fanout: usize) -> Self {
        debug_assert!(sorted.is_sorted());
        let mut tail = Consolidation {
            total_copies: BTreeBuilder::total_copies(sorted.len(), fanout),
            stage: Stage::Building(BTreeBuilder::new(sorted.len(), fanout)),
            sorted,
        };
        tail.finish_if_complete();
        tail
    }

    /// This query's δ: the budget's share of the whole tree build while it
    /// is unfinished, nothing once converged.
    pub(crate) fn delta(&self, model: &CostModel, budget: &mut BudgetController) -> f64 {
        match self.stage {
            Stage::Building(_) => budget.delta_for_query(model.t_consolidate(self.total_copies)),
            Stage::Built(_) => 0.0,
        }
    }

    /// Takes a complete builder by value — an empty one, which allocates
    /// nothing, is left in its place for the moment of the swap — so the
    /// levels and block sums move into the tree instead of being copied.
    fn finish_if_complete(&mut self) {
        if let Stage::Building(builder) = &mut self.stage {
            if builder.is_complete() {
                let complete = std::mem::replace(builder, BTreeBuilder::new(0, 2));
                self.stage = Stage::Built(complete.finish().expect("complete builder must finish"));
            }
        }
    }

    /// Answers `[low, high]`; while the tree is unfinished, also spends
    /// this query's `delta` share of the copies on it.
    pub(crate) fn query(
        &mut self,
        model: &CostModel,
        low: Value,
        high: Value,
        delta: f64,
    ) -> QueryResult {
        let data = self.sorted.data();
        let n = data.len().max(1) as f64;
        match &mut self.stage {
            Stage::Building(builder) => {
                let result = sorted::sorted_range_sum(data, low, high);
                let copies = ((delta * self.total_copies as f64).ceil() as usize).max(1);
                let performed = builder.step(data, copies);
                let predicted =
                    model.consolidation(result.count as f64 / n, delta, self.total_copies);
                self.finish_if_complete();
                QueryResult {
                    sum: result.sum,
                    count: result.count,
                    phase: Phase::Consolidation,
                    delta,
                    predicted_cost: Some(predicted),
                    indexing_ops: performed as u64,
                    elements_scanned: result.count,
                }
            }
            Stage::Built(tree) => {
                // The leaves read, not the rows matched: the block sums
                // answer for everything between the run's two end blocks.
                let (result, touched) = tree.range_sum_touched(data, low, high);
                QueryResult {
                    sum: result.sum,
                    count: result.count,
                    phase: Phase::Converged,
                    delta: 0.0,
                    predicted_cost: Some(model.consolidation(touched as f64 / n, 0.0, 0)),
                    indexing_ops: 0,
                    elements_scanned: touched,
                }
            }
        }
    }

    pub(crate) fn status(&self) -> IndexStatus {
        match &self.stage {
            Stage::Building(builder) => IndexStatus {
                phase: Phase::Consolidation,
                fraction_indexed: 1.0,
                phase_progress: builder.progress(),
                converged: false,
            },
            Stage::Built(_) => IndexStatus::converged(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost_model::CostConstants;

    fn consolidate(sorted: Vec<Value>) -> Consolidation {
        Consolidation::new(Arc::new(Column::from_sorted_vec(sorted)), 64)
    }

    #[test]
    fn converged_queries_report_the_leaves_read_not_the_rows_matched() {
        let sorted: Vec<Value> = (0..100_000).collect();
        let model = CostModel::new(CostConstants::synthetic(), sorted.len());
        let mut tail = consolidate(sorted);
        while !tail.status().converged {
            let step = tail.query(&model, 10, 89_999, 0.25);
            assert_eq!(step.phase, Phase::Consolidation);
            assert_eq!((step.count, step.elements_scanned), (89_990, 89_990));
        }
        let wide = tail.query(&model, 10, 89_999, 0.0);
        assert_eq!(wide.phase, Phase::Converged);
        assert_eq!(wide.count, 89_990);
        assert_eq!(wide.sum, (10..90_000u128).sum::<u128>());
        assert!(
            wide.elements_scanned <= 512,
            "{} read",
            wide.elements_scanned
        );
        let narrow = tail.query(&model, 700, 709, 0.0);
        assert_eq!((narrow.count, narrow.elements_scanned), (10, 10));
        assert!(narrow.predicted_cost < wide.predicted_cost);
    }

    #[test]
    fn an_array_that_fits_one_node_starts_converged() {
        for len in [0, 1, 64] {
            let tail = consolidate((0..len).collect());
            assert!(tail.status().converged, "{len} leaves");
        }
        assert!(!consolidate((0..65).collect()).status().converged);
    }
}
