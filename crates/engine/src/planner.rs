//! Conjunction planning: which column pays the refinement, and in what
//! order the predicates are evaluated.
//!
//! **Who drives.** The driving predicate of a conjunction
//! `WHERE a BETWEEN .. AND b BETWEEN ..` goes through the normal
//! shard-parallel index path and pays the paper's per-query δ of
//! refinement work on its column — that scan is how a `MultiTable`
//! column converges at all. Each predicate scores
//! `selectivity + RHO_WEIGHT · (1 − ρ)` and the minimum drives; both
//! inputs are readable without shard locks:
//!
//! * **Estimated selectivity** — the fraction of rows the predicate
//!   matches, interpolated from the per-shard digests; the dominant term.
//! * **Refinement state ρ** — the paper's convergence measure, from the
//!   lock-free per-shard cache. Scanning a converged column costs a
//!   B+-tree probe; scanning a cold one costs a partial scan plus its
//!   budgeted indexing slice. A cold column still
//!   *benefits* from being driven (the δ work is how it converges), so ρ
//!   is a tiebreaker, not a veto — hence the small weight.
//!
//! **Evaluation order.** The answer is computed predicate-at-a-time over
//! a selection vector ([`crate::multicol`]): the first predicate of
//! [`Plan::order`] selects in one dense pass, every later one pays its
//! per-row cost on the rows still selected. The order is the classic
//! rank rule — ascending `(selectivity − 1) / cost`, most rows discarded
//! per nanosecond first — over two cost classes, fixed-width and string
//! key compares. A string predicate thus runs ahead of the fixed-width
//! ones passing > 30% of the rows. The simpler "strings always last" is
//! kept out on end-to-end evidence alone: ten alternating pairs on
//! pibench's `typed_multicol` read `hot_ops_s` 26.9k with it and 29.3k
//! with the rank rule (10/10). The plan only moves *cost*, never
//! answers — every predicate is evaluated exactly, over full keys.

/// Weight of the refinement-state term in the planner score. Small by
/// design: a 25-point selectivity gap always beats any convergence gap,
/// while equal selectivities break towards the more-converged column.
const RHO_WEIGHT: f64 = 0.25;

/// Per-row cost, in ns, of a fixed-width range test in `refine`, which every predicate
/// after the first pays: 50k of 100k `u64` rows refined in 59–73 µs (1.2–1.45 ns a row;
/// the one dense `select` of all 100k, 47–59 µs under AVX2) on the 2-vCPU benchmark box.
/// It prices `u64`, `i64` and `f64` alike: the row store holds all three as order codes,
/// and one `u64` code test runs over each.
const FIXED_WIDTH_ROW_NS: f64 = 1.4;
/// Per-row cost, in ns, of a string range test (one 16-byte row-key
/// range test each): 50k of 100k `typed_multicol`-like names refined in
/// 1.8–2.4 ns a row, bounds inside the shared prefix, timed in the same
/// processes as 1.2–1.9 ns for the `u64` refine above on the same box.
/// Only the ratio of the two enters a plan.
const STRING_ROW_NS: f64 = 2.0;

/// The planner's per-predicate decision inputs, as gathered for one
/// conjunction.
#[derive(Debug, Clone, PartialEq)]
pub struct PredicateStats<'a> {
    /// The predicate's column.
    pub column: &'a str,
    /// Estimated fraction of live rows matching the predicate, in
    /// `[0, 1]` (from the per-shard digests).
    pub selectivity: f64,
    /// The column's estimated ρ (fraction indexed), in `[0, 1]` (from
    /// the lock-free per-shard cache).
    pub rho: f64,
    /// Whether the column's codes are key prefixes (strings): evaluating
    /// the predicate compares a 16-byte row key per row.
    pub prefix_encoded: bool,
}

impl PredicateStats<'_> {
    /// The predicate's driving cost score — lower drives.
    pub fn score(&self) -> f64 {
        self.selectivity + RHO_WEIGHT * (1.0 - self.rho)
    }

    /// The predicate's evaluation rank, `(selectivity − 1) / cost` —
    /// lower is evaluated earlier.
    fn rank(&self) -> f64 {
        let cost = if self.prefix_encoded {
            STRING_ROW_NS
        } else {
            FIXED_WIDTH_ROW_NS
        };
        (self.selectivity - 1.0) / cost
    }
}

/// One planned conjunction: the driving predicate, the evaluation order
/// and the inputs behind both (surfaced for tests and observability).
#[derive(Debug, Clone, PartialEq)]
pub struct Plan<'a> {
    /// Index (into the conjunction's predicate list) of the driving
    /// predicate: the one whose index scan pays the refinement budget.
    pub driving: usize,
    /// Every predicate index once, in evaluation order: the first
    /// selects, the rest refine the selection.
    pub order: Vec<usize>,
    /// The decision inputs, in predicate order.
    pub stats: Vec<PredicateStats<'a>>,
}

/// Plans a conjunction. Drives the minimum score, first on ties (so the
/// choice is deterministic in predicate order); evaluates by ascending
/// rank, predicate order breaking ties.
///
/// # Panics
/// Panics on an empty conjunction — callers reject those first.
pub(crate) fn choose_driving(stats: Vec<PredicateStats<'_>>) -> Plan<'_> {
    assert!(
        !stats.is_empty(),
        "a conjunction needs at least one predicate"
    );
    let mut driving = 0;
    let mut best = stats[0].score();
    for (i, s) in stats.iter().enumerate().skip(1) {
        let score = s.score();
        if score < best {
            best = score;
            driving = i;
        }
    }
    let mut order: Vec<usize> = (0..stats.len()).collect();
    order.sort_by(|&a, &b| stats[a].rank().total_cmp(&stats[b].rank()));
    Plan {
        driving,
        order,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(column: &str, selectivity: f64, rho: f64) -> PredicateStats<'_> {
        PredicateStats {
            column,
            selectivity,
            rho,
            prefix_encoded: false,
        }
    }

    #[test]
    fn equal_selectivity_breaks_towards_converged_column() {
        let plan = choose_driving(vec![stats("cold", 0.3, 0.0), stats("converged", 0.3, 1.0)]);
        assert_eq!(plan.driving, 1);
        assert_eq!(plan.stats[plan.driving].column, "converged");
    }

    #[test]
    fn selectivity_gap_beats_any_convergence_gap() {
        // 0.1% selective but completely cold vs 90% selective and fully
        // converged: the selective predicate must drive — RHO_WEIGHT
        // bounds the convergence term below any large selectivity gap.
        let plan = choose_driving(vec![
            stats("wide_converged", 0.9, 1.0),
            stats("narrow_cold", 0.001, 0.0),
        ]);
        assert_eq!(plan.driving, 1);
        assert!(plan.stats[1].score() < plan.stats[0].score());
    }

    #[test]
    fn ties_resolve_to_first_predicate() {
        let plan = choose_driving(vec![stats("a", 0.5, 0.5), stats("b", 0.5, 0.5)]);
        assert_eq!(plan.driving, 0);
    }

    #[test]
    fn predicates_run_by_rank_and_the_driver_need_not_run_first() {
        // A string range inside a shared prefix estimates at ≈ 0 and so
        // drives, but a string compare is dearer: it runs after the
        // fixed-width predicates that discard most rows (ascending
        // selectivity, predicate order breaking ties) and ahead of the
        // one that discards none.
        let name = PredicateStats {
            prefix_encoded: true,
            ..stats("name", 0.0001, 1.0)
        };
        let plan = choose_driving(vec![
            name.clone(),
            stats("temp", 1.0, 1.0),
            stats("id", 0.2, 1.0),
            stats("id2", 0.2, 0.0),
        ]);
        assert_eq!(plan.driving, 0);
        assert_eq!(plan.order, vec![2, 3, 0, 1]);
        // The crossover: a string predicate overtakes a fixed-width one
        // passing more than 1 − FIXED_WIDTH_ROW_NS / STRING_ROW_NS (30%)
        // of the rows, and no other.
        let plan = choose_driving(vec![name.clone(), stats("id", 0.28, 1.0)]);
        assert_eq!(plan.order, vec![1, 0]);
        let plan = choose_driving(vec![name, stats("id", 0.32, 1.0)]);
        assert_eq!(plan.order, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "at least one predicate")]
    fn empty_conjunction_rejected() {
        let _ = choose_driving(Vec::new());
    }
}
