//! # pi-core — Progressive Indexing
//!
//! A Rust implementation of **Progressive Indexes** (Holanda, Raasveldt,
//! Manegold, Mühleisen — PVLDB 12(13), 2019): incremental indexes that are
//! built as a side effect of query processing, with a *controllable,
//! per-query indexing budget*, *robust and predictable* query performance
//! and *deterministic convergence* towards a full B+-tree index —
//! independent of workload pattern and data distribution.
//!
//! ## The four algorithms
//!
//! | Algorithm | [`Algorithm`] variant | Best suited for |
//! |---|---|---|
//! | Progressive Quicksort | `Quicksort` | general-purpose, lowest memory overhead |
//! | Progressive Radixsort (MSD) | `RadixsortMsd` | range queries over roughly uniform data |
//! | Progressive Bucketsort (Equi-Height) | `Bucketsort` | range queries over skewed data |
//! | Progressive Radixsort (LSD) | `RadixsortLsd` | point-query dominated workloads |
//!
//! [`decision::recommend`] encodes the paper's decision tree (Figure 11)
//! for choosing among them.
//!
//! ## Lifecycle
//!
//! Every algorithm moves through the same three phases — **creation**
//! (absorb the base column), **refinement** (reorganise towards a sorted
//! array) and **consolidation** (build a B+-tree on top) — before reaching
//! the **converged** state. See [`result::Phase`].
//!
//! That life is written once, in one index type,
//! [`mutation::MutableIndex`], which holds the algorithm as a value
//! ([`Algorithm`]) and takes writes too; each algorithm module supplies
//! only its creation and refinement steps and the cost-model line that
//! prices them. [`Algorithm::build`] boxes that index behind
//! [`RangeIndex`], the interface it shares with pi-cracking's baselines.
//! Bucket count (64), block capacity (16 Ki values), small-node cutoff
//! (4096 values) and tree fan-out
//! ([`pi_storage::btree::DEFAULT_FANOUT`]) are the constants the paper
//! fixes, not options.
//!
//! ## Modules
//!
//! Public: [`budget`], [`cost_model`], [`decision`], [`index`],
//! [`kernels`] (the scatter and leaf-sort kernels, public for their
//! property tests), [`metrics`], [`mutation`], [`result`], [`testing`]
//! and [`tuning`].
//!
//! Internal: the four algorithms' creation and refinement steps
//! (`quicksort`, `radix_msd`, `radix_lsd`, `bucketsort`), the linked-block
//! buckets they scatter into (`buckets`), the budgeted incremental
//! quicksort that refines Quicksort and Bucketsort (`sorter`), and the
//! phase driver (`lifecycle`, `consolidation`). Nothing outside the
//! crate names them: a caller picks an [`Algorithm`] and queries the
//! [`MutableIndex`] it builds.
//!
//! ## Budgets
//!
//! How much indexing work a query performs is governed by a
//! [`budget::BudgetPolicy`]: a raw fixed δ, a fixed time budget translated
//! into δ once, or an adaptive time budget re-translated before every
//! query using the algorithm's [`cost_model`].
//!
//! ## Mutations
//!
//! The paper assumes an append-only column; the same index takes inserts,
//! deletes and updates for all four algorithms at once, in a pending-delta
//! sidecar ([`pi_storage::delta::DeltaSidecar`]) that queries compose and
//! an incremental merge folds into the sorted base. See the [`mutation`]
//! module docs.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use pi_core::prelude::*;
//! use pi_storage::Column;
//!
//! // A column of one hundred thousand pseudo-random values.
//! let column = Arc::new(pi_core::testing::random_column(100_000, 1_000_000, 42));
//!
//! // Spend 25% of the total indexing work per query.
//! let mut index = Algorithm::Quicksort.build(Arc::clone(&column), BudgetPolicy::FixedDelta(0.25));
//!
//! let first = index.query(10_000, 20_000);
//! assert!(!index.is_converged());
//!
//! // Keep querying: the index converges and the answers never change.
//! let mut last = first.scan_result();
//! while !index.is_converged() {
//!     last = index.query(10_000, 20_000).scan_result();
//! }
//! assert_eq!(last, first.scan_result());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod buckets;
mod bucketsort;
pub mod budget;
mod consolidation;
pub mod cost_model;
pub mod decision;
pub mod index;
pub mod kernels;
mod lifecycle;
pub mod metrics;
pub mod mutation;
mod quicksort;
mod radix_lsd;
mod radix_msd;
pub mod result;
mod sorter;
pub mod testing;
pub mod tuning;

pub use budget::{BudgetController, BudgetPolicy};
pub use cost_model::{CostConstants, CostModel};
pub use decision::{recommend, Algorithm, DataDistribution, QueryShape, Scenario};
pub use index::RangeIndex;
pub use metrics::IndexMetrics;
pub use mutation::{MutableIndex, Mutation};
pub use result::{IndexStatus, Phase, QueryResult};
pub use tuning::TuningParameters;

/// Convenient glob-import of the types needed to use the library:
/// `use pi_core::prelude::*;`.
pub mod prelude {
    pub use crate::budget::BudgetPolicy;
    pub use crate::cost_model::{CostConstants, CostModel};
    pub use crate::decision::{recommend, Algorithm, DataDistribution, QueryShape, Scenario};
    pub use crate::index::RangeIndex;
    pub use crate::mutation::{MutableIndex, Mutation};
    pub use crate::result::{IndexStatus, Phase, QueryResult};
}
