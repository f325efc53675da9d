//! Indexing budgets: how much indexing work a query is allowed to do.
//!
//! The paper exposes two user-facing knobs plus a raw expert mode:
//!
//! * **Fixed δ** — every query performs the same fraction δ of indexing
//!   work. This is the knob swept in Figure 7 and fixed to `0.25` in the
//!   cost-model validation of Figure 8.
//! * **Fixed indexing budget** — the user specifies a time budget
//!   `t_budget` for the *first* query; the cost model translates it into a
//!   δ which is then kept for the remainder of the workload.
//! * **Adaptive indexing budget** — the user specifies `t_budget`; the
//!   first query runs in `t_scan + t_budget`, and every subsequent query
//!   re-derives δ from the cost model so that the total per-query cost
//!   stays at that level until the index has converged (Figure 9,
//!   Tables 2–5 use `t_budget = 0.2 · t_scan`).
//!
//! [`BudgetController`] encapsulates the translation; the lifecycle every
//! progressive index shares asks it for the δ of the current query,
//! passing the cost of one unit of the phase-specific indexing work.

use crate::cost_model::{clamp_delta, CostModel};

/// User-facing budget policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BudgetPolicy {
    /// Perform the same fraction `δ ∈ (0, 1]` of indexing work per query.
    FixedDelta(f64),
    /// Derive δ from this time budget (seconds) using the cost model of the
    /// *first* query's phase, then keep that δ for the rest of the
    /// workload.
    FixedBudget(f64),
    /// Re-derive δ every query from this time budget (seconds), so each
    /// query spends `t_budget` of extra time on indexing until convergence.
    Adaptive(f64),
}

impl BudgetPolicy {
    /// Convenience constructor for the paper's default evaluation setting:
    /// an adaptive budget of `fraction · t_scan` (the evaluation, and
    /// pibench's `explore_cold` adaptive columns, use `fraction = 0.2`).
    pub fn adaptive_scan_fraction(model: &CostModel, fraction: f64) -> Self {
        BudgetPolicy::Adaptive(fraction * model.t_scan())
    }

    /// Fixed-budget analogue of
    /// [`BudgetPolicy::adaptive_scan_fraction`].
    pub fn fixed_scan_fraction(model: &CostModel, fraction: f64) -> Self {
        BudgetPolicy::FixedBudget(fraction * model.t_scan())
    }
}

/// Per-index budget state: translates the policy into the δ to use for the
/// current query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetController {
    policy: BudgetPolicy,
    /// δ locked in by the first query under [`BudgetPolicy::FixedBudget`].
    locked_delta: Option<f64>,
}

impl BudgetController {
    /// Creates a controller for the given policy.
    ///
    /// # Panics
    /// Panics when a fixed δ is outside `(0, 1]` or a time budget is not a
    /// positive, finite number.
    pub fn new(policy: BudgetPolicy) -> Self {
        match policy {
            BudgetPolicy::FixedDelta(delta) => {
                assert!(
                    delta > 0.0 && delta <= 1.0,
                    "fixed delta must lie in (0, 1], got {delta}"
                );
            }
            BudgetPolicy::FixedBudget(budget) | BudgetPolicy::Adaptive(budget) => {
                assert!(
                    budget.is_finite() && budget > 0.0,
                    "indexing budget must be a positive number of seconds, got {budget}"
                );
            }
        }
        BudgetController {
            policy,
            locked_delta: None,
        }
    }

    /// The policy this controller was created with.
    pub(crate) fn policy(&self) -> BudgetPolicy {
        self.policy
    }

    /// δ to use for the current query, given the cost of performing *all*
    /// of the current phase's unit work (e.g. `t_pivot`, `t_swap`,
    /// `t_bucket`, `t_copy` — whatever the phase's cost model divides the
    /// budget by).
    ///
    /// For [`BudgetPolicy::FixedBudget`] the first call locks the resulting
    /// δ; later calls return the locked value regardless of phase.
    pub(crate) fn delta_for_query(&mut self, phase_unit_cost: f64) -> f64 {
        match self.policy {
            BudgetPolicy::FixedDelta(delta) => delta,
            BudgetPolicy::Adaptive(budget) => clamp_delta(budget / phase_unit_cost),
            BudgetPolicy::FixedBudget(budget) => {
                if let Some(locked) = self.locked_delta {
                    locked
                } else {
                    let delta = clamp_delta(budget / phase_unit_cost);
                    self.locked_delta = Some(delta);
                    delta
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost_model::{CostConstants, CostModel};

    #[test]
    fn fixed_delta_is_returned_verbatim() {
        let mut c = BudgetController::new(BudgetPolicy::FixedDelta(0.25));
        assert_eq!(c.delta_for_query(123.0), 0.25);
        assert_eq!(c.delta_for_query(0.001), 0.25);
    }

    #[test]
    fn adaptive_budget_recomputes_each_query() {
        let mut c = BudgetController::new(BudgetPolicy::Adaptive(0.1));
        assert!((c.delta_for_query(1.0) - 0.1).abs() < 1e-12);
        assert!((c.delta_for_query(0.4) - 0.25).abs() < 1e-12);
        assert_eq!(c.delta_for_query(0.05), 1.0); // clamped
    }

    #[test]
    fn fixed_budget_locks_first_delta() {
        let mut c = BudgetController::new(BudgetPolicy::FixedBudget(0.1));
        let first = c.delta_for_query(1.0);
        assert!((first - 0.1).abs() < 1e-12);
        // A later phase with a very different unit cost still gets the
        // locked delta.
        assert_eq!(c.delta_for_query(0.0001), first);
    }

    #[test]
    fn scan_fraction_constructors_match_scan_cost() {
        let model = CostModel::new(CostConstants::synthetic(), 1_000_000);
        let adaptive = BudgetPolicy::adaptive_scan_fraction(&model, 0.2);
        match adaptive {
            BudgetPolicy::Adaptive(b) => assert!((b - 0.2 * model.t_scan()).abs() < 1e-15),
            other => panic!("unexpected policy {other:?}"),
        }
        let fixed = BudgetPolicy::fixed_scan_fraction(&model, 0.2);
        assert!(matches!(fixed, BudgetPolicy::FixedBudget(_)));
    }

    #[test]
    #[should_panic(expected = "fixed delta")]
    fn zero_delta_rejected() {
        let _ = BudgetController::new(BudgetPolicy::FixedDelta(0.0));
    }

    #[test]
    #[should_panic(expected = "indexing budget")]
    fn negative_budget_rejected() {
        let _ = BudgetController::new(BudgetPolicy::Adaptive(-1.0));
    }
}
