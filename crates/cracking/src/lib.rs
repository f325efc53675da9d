//! # pi-cracking — adaptive indexing baselines
//!
//! Rust re-implementations of the adaptive indexing techniques the
//! Progressive Indexes paper compares against (Section 4.4), plus the two
//! non-adaptive reference points:
//!
//! | Paper label | Technique | Type |
//! |---|---|---|
//! | `FS`   | [`AlgorithmId::FullScan`] — predicated full scans, no index | baseline |
//! | `FI`   | [`AlgorithmId::FullIndex`] — sort + B+-tree on the first query | baseline |
//! | `STD`  | [`AlgorithmId::StandardCracking`] — crack at the query bounds | adaptive |
//! | `STC`  | [`AlgorithmId::StochasticCracking`] — crack at random pivots | adaptive |
//! | `PSTC` | [`AlgorithmId::ProgressiveStochasticCracking`] — swap-capped stochastic cracking | adaptive |
//! | `CGI`  | [`AlgorithmId::CoarseGranularIndex`] — equal-width partitioning up front, then cracking | adaptive |
//! | `AA`   | [`AlgorithmId::AdaptiveAdaptive`] — partition first query, adaptively refine | adaptive |
//!
//! Every baseline implements the same [`pi_core::RangeIndex`] trait as the
//! progressive indexes, and [`AlgorithmId`], the registry of all eleven
//! techniques, is the one way to build any of them. The five adaptive
//! baselines are one cracking index whose crack rule is the only thing
//! that differs between them: where the first query partitions, and how
//! a query bound cracks the piece it falls into. The rule only decides;
//! the [`CrackedColumn`] holds the crack boundaries and does every crack.
//!
//! The implementations follow the algorithm descriptions in the cited
//! papers rather than the original C++ sources.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use pi_core::{BudgetPolicy, CostConstants, RangeIndex};
//! use pi_cracking::AlgorithmId;
//!
//! let column = Arc::new(pi_core::testing::random_column(10_000, 10_000, 1));
//! // The budget and cost constants only matter to the progressive indexes.
//! let mut index = AlgorithmId::StandardCracking.build(
//!     Arc::clone(&column),
//!     BudgetPolicy::FixedDelta(0.1),
//!     CostConstants::synthetic(),
//! );
//! let result = index.query(2_000, 4_000);
//! assert!(result.count > 0);
//! // Cracking refines as a side effect: the same query touches less data
//! // the second time around.
//! let again = index.query(2_000, 4_000);
//! assert!(again.elements_scanned <= result.elements_scanned);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod crack;
pub mod cracked_column;
mod cracking;
mod full;
mod registry;

// The unit tests of the five crack rules, one module per technique.
#[cfg(test)]
mod adaptive_adaptive;
#[cfg(test)]
mod coarse_granular;
#[cfg(test)]
mod progressive_stochastic;
#[cfg(test)]
mod standard;
#[cfg(test)]
mod stochastic;

pub use cracked_column::CrackedColumn;
pub use registry::AlgorithmId;
