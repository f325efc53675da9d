//! # pi-cracking — adaptive indexing baselines
//!
//! Rust re-implementations of the adaptive indexing techniques the
//! Progressive Indexes paper compares against (Section 4.4), plus the two
//! non-adaptive reference points:
//!
//! | Paper label | Technique | Type |
//! |---|---|---|
//! | `FS`   | [`FullScan`] — predicated full scans, no index | baseline |
//! | `FI`   | [`FullIndex`] — sort + B+-tree on the first query | baseline |
//! | `STD`  | [`StandardCracking`] — crack at the query bounds | adaptive |
//! | `STC`  | [`StochasticCracking`] — crack at random pivots | adaptive |
//! | `PSTC` | [`ProgressiveStochasticCracking`] — swap-capped stochastic cracking | adaptive |
//! | `CGI`  | [`CoarseGranularIndex`] — equal-width partitioning up front, then cracking | adaptive |
//! | `AA`   | [`AdaptiveAdaptiveIndexing`] — partition first query, adaptively refine | adaptive |
//!
//! Every baseline implements the same [`pi_core::RangeIndex`] trait as the
//! progressive indexes, so [`AlgorithmId`], the registry of all eleven
//! techniques, builds any of them behind one factory.
//!
//! The implementations follow the algorithm descriptions in the cited
//! papers rather than the original C++ sources.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use pi_core::RangeIndex;
//! use pi_cracking::StandardCracking;
//!
//! let column = Arc::new(pi_core::testing::random_column(10_000, 10_000, 1));
//! let mut index = StandardCracking::new(Arc::clone(&column));
//! let result = index.query(2_000, 4_000);
//! assert!(result.count > 0);
//! // Cracking refines as a side effect: the same query touches less data
//! // the second time around.
//! let again = index.query(2_000, 4_000);
//! assert!(again.elements_scanned <= result.elements_scanned);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod adaptive_adaptive;
mod coarse_granular;
pub mod crack;
pub mod cracked_column;
mod cracker_index;
mod full;
mod progressive_stochastic;
mod registry;
mod standard;
mod stochastic;

pub use adaptive_adaptive::AdaptiveAdaptiveIndexing;
pub use coarse_granular::CoarseGranularIndex;
pub use cracked_column::CrackedColumn;
pub use full::{FullIndex, FullScan};
pub use progressive_stochastic::ProgressiveStochasticCracking;
pub use registry::AlgorithmId;
pub use standard::StandardCracking;
pub use stochastic::StochasticCracking;
