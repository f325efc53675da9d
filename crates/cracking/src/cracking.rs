//! The five adaptive indexing baselines of the paper (Section 4.4) as one
//! index: a cracker column that every query cracks at its two bounds, and
//! a [`Rule`] that says how. The rule is the only thing that differs
//! between the techniques: where the first query partitions, and how a
//! query bound cracks the piece it falls into.
//!
//! Every rule shares the same bound prefix: a bound that is already a
//! crack boundary costs nothing, a bound that falls into an empty piece
//! becomes a boundary for free, and a piece at or below the rule's
//! threshold is cracked exactly at the bound. Only larger pieces reach the
//! rule's own arm.

use std::collections::HashMap;
use std::sync::Arc;

use pi_core::result::{IndexStatus, Phase, QueryResult};
use pi_core::RangeIndex;
use pi_storage::{Column, ScanResult, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::crack::PartialCrack;
use crate::cracked_column::{CrackedColumn, Piece};

/// Stochastic cracking cracks pieces at or below this many elements
/// exactly at the query bound instead of around another random pivot
/// (pieces that fit comfortably in cache are cheap to crack exactly).
const STOCHASTIC_EXACT_BELOW: usize = 1 << 14;

/// Number of 8-byte elements that fit in a typical 256 KiB L2 cache:
/// progressive stochastic cracking cracks pieces this small completely,
/// and adaptive adaptive indexing cracks them exactly instead of
/// partitioning them again.
const L2_ELEMENTS: usize = (256 * 1024) / 8;

/// Allowed swaps per progressive stochastic cracking query, as a fraction
/// of the column size (the paper runs PSTC with 10%).
const SWAP_FRACTION: f64 = 0.10;

/// Ways of the coarse granular index's first partitioning pass, and of
/// adaptive adaptive indexing's first pass and every refinement split.
const WAYS: usize = 64;

/// Seed of the random pivots (runs are reproducible).
const SEED: u64 = 0x5EED;

/// How a cracking index partitions on its first query and cracks a query
/// bound's piece.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rule {
    /// Standard Database Cracking (Idreos et al., CIDR 2007) — the
    /// original adaptive indexing technique and the `STD` baseline.
    ///
    /// The first query copies the base column into a cracker column. Every
    /// query then cracks the column at its two predicate bounds, so the
    /// pieces relevant to the observed workload keep getting smaller.
    /// Because pivots are exactly the query predicates, performance
    /// depends heavily on the workload: sequential patterns leave huge
    /// unrefined pieces that cause the performance spikes the paper's
    /// robustness metric measures.
    Standard,
    /// Stochastic Cracking (Halim et al., PVLDB 2012) — the `STC`
    /// baseline.
    ///
    /// Instead of cracking at the query predicates, stochastic cracking
    /// cracks the piece a query bound falls into around a *randomly chosen
    /// pivot* (the MDD1R variant: one random crack per touched piece per
    /// query), so reorganisation progress is independent of where the
    /// predicates land. Once a piece is at most
    /// [`STOCHASTIC_EXACT_BELOW`] elements, it is cracked exactly at the
    /// query bound so the boundary becomes precise.
    Stochastic,
    /// Progressive Stochastic Cracking (Halim et al., PVLDB 2012) — the
    /// `PSTC` baseline, run with the paper's "10% allowed swaps" setting.
    ///
    /// Stochastic cracking still pays the full partition cost of a piece
    /// the moment a query touches it. Progressive stochastic cracking
    /// bounds that cost: pieces larger than the L2 cache are cracked
    /// *partially* — at most [`SWAP_FRACTION`] of the column in element
    /// swaps per query — and the partition is resumed by later queries
    /// until it completes. Pieces that fit in the L2 cache are always
    /// cracked completely. While a partial crack is in flight the piece is
    /// in an intermediate state, and [`CrackedColumn::answer`] scans it
    /// with a predicate like any piece without an exact boundary.
    ProgressiveStochastic,
    /// Coarse Granular Index (Schuhknecht et al., PVLDB 2013) — the `CGI`
    /// baseline.
    ///
    /// Coarse granular indexing trades a more expensive first query for a
    /// more robust index: the first query range-partitions the column into
    /// [`WAYS`] equal-width partitions (installing every partition
    /// boundary), and from then on the index behaves like standard
    /// cracking *within* those partitions. Because no piece can ever be
    /// larger than one initial partition, the performance spikes of plain
    /// cracking are capped.
    CoarseGranular,
    /// Adaptive Adaptive Indexing (Schuhknecht, Dittrich, Linden — ICDE
    /// 2018) — the `AA` baseline.
    ///
    /// Adaptive adaptive indexing generalises the cracking family: the
    /// first query performs an out-of-place range partitioning of the
    /// whole column (like a coarse granular index), and later queries
    /// *adaptively* refine only the pieces the workload touches — large
    /// pieces are split again with the same fan-out, small pieces (and
    /// large ones no split divides) are cracked exactly at the query
    /// bounds. This follows the "manual configuration" of the Progressive
    /// Indexes paper's evaluation: a [`WAYS`]-way first pass, a
    /// [`WAYS`]-way refinement fan-out and exact cracking at or below
    /// [`L2_ELEMENTS`]. The characteristic behaviour
    /// — the most expensive first query of the adaptive family, the best
    /// cumulative time on skewed workloads — is preserved.
    AdaptiveAdaptive,
}

impl Rule {
    /// Pieces at or below this many elements are cracked exactly at the
    /// bound; standard cracking and the coarse granular index crack every
    /// piece exactly.
    fn exact_below(self) -> usize {
        match self {
            Rule::Standard | Rule::CoarseGranular => usize::MAX,
            Rule::Stochastic => STOCHASTIC_EXACT_BELOW,
            Rule::ProgressiveStochastic | Rule::AdaptiveAdaptive => L2_ELEMENTS,
        }
    }
}

/// A cracking index over one column, cracked by its [`Rule`]. It holds
/// only the decisions; the [`CrackedColumn`] does every crack it decides.
pub(crate) struct Cracking {
    column: Arc<Column>,
    cracked: Option<CrackedColumn>,
    rule: Rule,
    rng: StdRng,
    /// Progressive stochastic cracking's in-flight partial cracks, keyed
    /// by the begin position of the piece they partition (pieces only
    /// change when a crack completes, so the begin position is a stable
    /// key).
    pending: HashMap<usize, PartialCrack>,
}

impl Cracking {
    /// Creates the index over `column`. No work happens until the first
    /// query.
    pub(crate) fn new(column: Arc<Column>, rule: Rule) -> Self {
        Cracking {
            column,
            cracked: None,
            rule,
            rng: StdRng::seed_from_u64(SEED),
            pending: HashMap::new(),
        }
    }

    /// First-query work: copies the column into the cracker column and,
    /// for the partitioning rules, range-partitions it whole. Returns the
    /// number of element moves.
    fn build(&self) -> (CrackedColumn, u64) {
        let mut cracked = CrackedColumn::new(&self.column);
        let n = self.column.len();
        let whole = Piece { begin: 0, end: n };
        let (min, max) = self.column.domain().expect("non-empty column");
        let moves = match self.rule {
            Rule::Standard | Rule::Stochastic | Rule::ProgressiveStochastic => 0,
            Rule::CoarseGranular => cracked.partition(whole, min, max, WAYS.min(n)),
            Rule::AdaptiveAdaptive => cracked.partition(whole, min, max, WAYS),
        };
        (cracked, moves)
    }

    /// Cracks on behalf of one query bound and returns the work done.
    /// `budget` is the swap allowance left for the whole query, which only
    /// progressive stochastic cracking spends.
    fn crack(&mut self, bound: Value, budget: u64) -> u64 {
        // Drawn on every call, before the early returns, so the random
        // pivots depend only on how many bounds came before.
        let random_draw: u64 = self.rng.gen();
        let cracked = self.cracked.as_mut().expect("built by the query");
        if cracked.position_of(bound).is_some() {
            return 0;
        }
        let piece = cracked.piece_for(bound);
        // An empty piece gets its boundary from this exact crack for free.
        if piece.len() <= self.rule.exact_below() {
            return cracked.crack_exact(bound).1;
        }
        let random_pivot =
            || cracked.data()[piece.begin + (random_draw % piece.len() as u64) as usize];
        match self.rule {
            Rule::Standard | Rule::CoarseGranular => unreachable!("every piece is cracked exactly"),
            Rule::Stochastic => {
                // MDD1R: the pivot is an element of the piece, so the
                // crack always falls inside the piece's value range.
                let pivot = random_pivot();
                // Cracking at 0 cannot make progress (every value is
                // >= 0); fall back to an exact crack at the bound.
                cracked
                    .crack_exact(if pivot == 0 { bound } else { pivot })
                    .1
            }
            Rule::ProgressiveStochastic => {
                // Continue (or start) a swap-capped partial crack around a
                // random pivot.
                let crack = self
                    .pending
                    .entry(piece.begin)
                    .or_insert_with(|| PartialCrack::new(piece.begin, piece.end, random_pivot()));
                let swaps = cracked.step_partial(crack, budget);
                if crack.is_complete() {
                    self.pending.remove(&piece.begin);
                }
                swaps
            }
            Rule::AdaptiveAdaptive => {
                // Split the piece again over the value range it holds,
                // which a min/max scan finds. A piece no split divides (one
                // value, or two adjacent ones) is cracked at the bound.
                let slice = &cracked.data()[piece.begin..piece.end];
                let lo = slice.iter().copied().min().expect("non-empty piece");
                let hi = slice.iter().copied().max().expect("non-empty piece");
                piece.len() as u64
                    + match cracked.partition(piece, lo, hi, WAYS) {
                        0 => cracked.crack_exact(bound).1,
                        moves => moves,
                    }
            }
        }
    }
}

impl RangeIndex for Cracking {
    fn query(&mut self, low: Value, high: Value) -> QueryResult {
        if low > high || self.column.is_empty() {
            return QueryResult::answer_only(ScanResult::EMPTY, self.status().phase);
        }
        let mut ops = 0;
        if self.cracked.is_none() {
            let (cracked, moves) = self.build();
            self.cracked = Some(cracked);
            ops = moves;
        }
        let budget = ((self.column.len() as f64 * SWAP_FRACTION).ceil() as u64).max(1);
        let spent_low = self.crack(low, budget);
        ops += spent_low;
        if high < Value::MAX {
            ops += self.crack(high + 1, budget.saturating_sub(spent_low));
        }
        let answer = self
            .cracked
            .as_ref()
            .expect("built above")
            .answer(low, high);
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
        match self.rule {
            Rule::Standard => "standard-cracking",
            Rule::Stochastic => "stochastic-cracking",
            Rule::ProgressiveStochastic => "progressive-stochastic-cracking",
            Rule::CoarseGranular => "coarse-granular-index",
            Rule::AdaptiveAdaptive => "adaptive-adaptive-indexing",
        }
    }
}

#[cfg(test)]
impl Cracking {
    /// Crack boundaries installed so far: one fewer than the pieces.
    pub(crate) fn boundary_count(&self) -> usize {
        self.cracked.as_ref().map_or(0, |c| c.pieces().len() - 1)
    }

    /// The boundary position of `bound`, once it is a crack boundary.
    pub(crate) fn boundary_of(&self, bound: Value) -> Option<usize> {
        self.cracked.as_ref()?.position_of(bound)
    }

    /// Elements in the largest piece of the cracker column.
    pub(crate) fn largest_piece(&self) -> usize {
        self.cracked.as_ref().expect("queried").largest_piece()
    }

    /// `true` while a progressive stochastic crack is in flight.
    pub(crate) fn has_pending_crack(&self) -> bool {
        !self.pending.is_empty()
    }
}
