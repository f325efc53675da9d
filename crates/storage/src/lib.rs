//! # pi-storage — columnar storage substrate for progressive indexing
//!
//! This crate provides the storage layer that the progressive indexing
//! algorithms of `pi-core` and the adaptive indexing baselines of
//! `pi-cracking` are built on:
//!
//! * [`Column`] — an immutable, in-memory column of fixed-width unsigned
//!   integers (the paper evaluates on 8-byte integer columns such as the
//!   SkyServer `Right Ascension` attribute scaled to integers).
//! * [`scan`] — the predicated (branch-free) range-sum kernel, compiled
//!   for the baseline target and for AVX2 and picked per call; the
//!   building block of the *Full Scan* baseline and of the partial
//!   scans every progressive index performs during its creation phase.
//! * [`sorted`] — branchless binary-search primitives over sorted runs.
//! * [`btree`] — a bulk-loaded, cache-friendly static B+-tree over a sorted
//!   array, the target structure of the *consolidation phase* and the
//!   *Full Index* baseline. Construction can be performed incrementally so
//!   that a progressive index can spread the build cost over many queries.
//! * [`shard`] — equi-depth value-range partitioning of a column into
//!   independent shards, the storage substrate of the `pi-engine` serving
//!   layer, with live-weight drift detection for re-balancing.
//! * [`digest`] — sparse, grid-aligned sub-shard aggregate trees
//!   ([`DigestTree`]): exact `(SUM, COUNT, MIN, MAX)` per value bucket,
//!   built per shard over a **global** grid so independently-built trees
//!   merge exactly — the storage layout behind the engine's grouped
//!   aggregates and hot-range aggregate cache.
//! * [`delta`] — the pending-mutation sidecar ([`DeltaSidecar`]): sorted
//!   insert/tombstone multisets plus tombstone-aware scan composition, the
//!   storage half of update/delete support on progressive indexes.
//! * [`snapshot`] — the byte-level snapshot codec for [`Column`] and
//!   [`DeltaSidecar`] state: bounds-checked, non-panicking decode of the
//!   base-plus-sidecar pairs the durability layer (`pi-durable`)
//!   persists.
//! * [`encoding`] — order-preserving key encodings ([`OrderedKey`]) that
//!   open float, signed-integer and string-prefix key domains over the
//!   same `u64` core: encode keys going in, decode answers coming out,
//!   with an explicit NaN/signed-zero policy for `f64` and a fixed
//!   big-endian prefix ([`StrPrefix`]) for strings.
//!
//! The crate is deliberately dependency-free and single-threaded: the
//! progressive indexing model performs indexing work inside the query
//! thread, bounded by a per-query budget.
//!
//! ## Quick example
//!
//! ```
//! use pi_storage::{Column, scan};
//!
//! let col = Column::from_vec(vec![5, 1, 9, 3, 7]);
//! // SELECT SUM(a) WHERE a BETWEEN 3 AND 7
//! let result = scan::scan_range_sum(col.data(), 3, 7);
//! assert_eq!(result.sum, 5 + 3 + 7);
//! assert_eq!(result.count, 3);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod btree;
pub mod column;
pub mod delta;
pub mod digest;
pub mod encoding;
pub mod scan;
pub mod shard;
pub mod snapshot;
pub mod sorted;

pub use btree::{BTreeBuilder, StaticBTree, DEFAULT_FANOUT};
pub use column::{Column, Value};
pub use delta::{DeltaScan, DeltaSidecar};
pub use digest::{DigestTree, GroupCell};
pub use encoding::{OrderedKey, StrPrefix, STR_PREFIX_LEN};
pub use scan::ScanResult;
pub use shard::RangePartition;
