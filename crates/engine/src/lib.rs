//! # pi-engine — sharded, concurrent query serving over progressive indexes
//!
//! The paper (Holanda et al., PVLDB 12(13), 2019) defines progressive
//! indexing for a single column queried by a single thread: every query
//! performs a bounded δ-slice of indexing work, answers never depend on
//! indexing progress, and the index converges deterministically. This
//! crate scales that model to a serving engine:
//!
//! * [`Table`] — multiple named columns, each **range-sharded** into N
//!   independent shards ([`pi_storage::shard::RangePartition`], equi-depth
//!   boundaries). Every shard owns its own progressive index; the
//!   algorithm is chosen per column **at build time** via the paper's
//!   Figure-11 decision tree fed by the column's estimated distribution (or
//!   pinned with [`AlgorithmChoice::Fixed`]).
//! * [`Executor`] — accepts query batches from any number of client
//!   threads, fans each query out across the overlapping shards on a
//!   persistent [`pi_sched::Pool`] (one shared job queue, the caller
//!   helping) and merges the partial [`pi_storage::ScanResult`]s. A
//!   batch indexes only through its own queries' δ-slices, on the shards
//!   they probe. Nothing indexes in the background: a shard is indexed
//!   by a query, a write or [`Executor::drive_to_convergence`], each on
//!   the calling thread. So a shard that no query probes does not
//!   converge until such a call reaches it, unlike a single paper index,
//!   where every query moves δ of the whole column's work. Spending each
//!   query's δ over its whole column, not only the shards it probes, is
//!   the open step that would restore that (see ROADMAP.md).
//! * **Mutations** — tables are not append-only: [`Table::apply_mutations`]
//!   and [`Executor::apply_mutations`] take batches of
//!   [`pi_core::mutation::Mutation`] inserts, deletes and updates and
//!   apply them in request order, on the calling thread. Every shard is a
//!   [`pi_core::mutation::MutableIndex`]: answers stay exact at any
//!   refinement stage via a pending-delta sidecar, per-shard digests are
//!   updated atomically with the shard (the O(1) covered-shard shortcut
//!   stays exact under writes), and a mutated converged shard reports
//!   unconverged until its deltas are merged back in by the queries that
//!   probe it or by [`Executor::drive_to_convergence`]. When skewed writes drift the
//!   shard weights, [`Table::rebalance_if_drifted`] re-draws the
//!   equi-depth boundaries from the live values.
//! * **Typed key domains** — [`typed::TypedTable`] and
//!   [`typed::TypedExecutor`] open float, signed-integer and string
//!   columns over the same `u64` core through order-preserving encodings
//!   ([`pi_storage::encoding::OrderedKey`]): shard boundaries are drawn
//!   in encoded space, answers are exact under the key domain's total
//!   order at every refinement stage (string boundary ties resolved by
//!   an exact-match side path), and SUM digests are capability-gated to
//!   the domains that can decode them.
//! * **Multi-column queries** — [`multicol::MultiTable`] and
//!   [`multicol::MultiExecutor`] turn independently-refined columns into
//!   a small progressive database: conjunctions
//!   (`WHERE a BETWEEN .. AND b BETWEEN ..`) are planned by
//!   [`planner`] (the estimated-cheapest column is scanned through the
//!   shard-parallel path and pays the refinement; the answer is computed
//!   predicate-at-a-time over a selection vector of row ids, exact over
//!   full typed keys), heterogeneous column sets mix
//!   u64/i64/f64/string domains through the column-erased handle
//!   ([`erased::ErasedColumn`]), and grouped aggregates
//!   (`SUM/COUNT/MIN/MAX GROUP BY bucket`) are answered from sub-shard
//!   [`pi_storage::DigestTree`]s behind a hot-range aggregate cache
//!   invalidated by per-shard mutation counters.
//! * **Durability** — [`durability::DurableTable`] write-ahead logs every
//!   mutation batch, checkpoints each column as its merged base snapshot
//!   plus pending sidecar ("log the delta, snapshot the merged base"),
//!   and recovers from a crash at any log offset to exactly the last
//!   durable prefix ([`durability::DurableTable::recover`]). Attach it to
//!   an executor with [`TableBuilder::durability`] +
//!   [`TableBuilder::build_durable`] and [`Executor::with_durability`].
//!
//! The executor implements [`pi_sched::BatchExecutor`], so a
//! [`pi_sched::Server`] can front it with bounded admission,
//! backpressure and graceful shutdown, each batch running on the thread
//! that submitted it; the [`TableServer`] alias names that combination.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use pi_engine::{ColumnSpec, Executor, Table, TableQuery};
//!
//! // Two columns, four shards each; algorithms come from the decision tree.
//! let ra: Vec<u64> = (0..10_000).map(|i| (i * 37) % 10_000).collect();
//! let dec: Vec<u64> = (0..10_000).map(|i| (i * 101) % 20_000).collect();
//! let table = Arc::new(
//!     Table::builder()
//!         .column(ColumnSpec::new("ra", ra.clone()).with_shards(4))
//!         .column(ColumnSpec::new("dec", dec).with_shards(4))
//!         .build(),
//! );
//!
//! let executor = Executor::new(Arc::clone(&table));
//! let results = executor
//!     .execute_batch(&[
//!         TableQuery::new("ra", 1_000, 2_000),
//!         TableQuery::new("dec", 0, 5_000),
//!     ])
//!     .unwrap();
//!
//! // Answers are bit-identical to a full scan, from the very first batch.
//! let expected = pi_storage::scan::scan_range_sum(&ra, 1_000, 2_000);
//! assert_eq!(results[0], expected);
//!
//! // Batches refine the shards they probe; driving converges the rest.
//! executor.drive_to_convergence(usize::MAX);
//! assert!(table.is_converged());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod durability;
pub mod erased;
pub mod executor;
pub mod multicol;
pub mod planner;
mod stats;
pub mod table;
pub mod typed;

pub use durability::{DurabilityConfig, DurabilityError, DurableTable, RecoveryReport};
pub use erased::{ErasedColumn, ErasedKey, ErasedSum, KeyDomain};
pub use executor::{EngineError, Executor, ExecutorConfig, TableQuery};
pub use multicol::{
    ConjunctionAnswer, GroupRow, GroupedQuery, MultiColumnSpec, MultiExecutor, MultiTable,
    Predicate, RowMutation,
};
pub use pi_core::tuning::TuningParameters;
pub use planner::{Plan, PredicateStats};
pub use table::{AlgorithmChoice, ColumnSpec, ShardedColumn, Table, TableBuilder};
pub use typed::{
    TableKey, TypedColumnSpec, TypedExecutor, TypedMutation, TypedQuery, TypedResult, TypedTable,
};

/// A [`pi_sched::Server`] front-end over the engine's [`Executor`]:
/// bounded admission, backpressure and graceful shutdown, each batch run
/// on its submitter's thread. The server does no indexing of its own,
/// idle or otherwise.
pub type TableServer = pi_sched::Server<Executor>;
