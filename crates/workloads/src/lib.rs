//! # pi-workloads — data sets and query workloads
//!
//! Generators for everything Section 4.1 of the Progressive Indexes paper
//! evaluates on:
//!
//! * [`data`] — the synthetic column distributions: uniformly random
//!   unique integers and a skewed distribution with 90% of the values in
//!   the middle of the domain.
//! * [`patterns`] — the eight synthetic query patterns of Figure 6
//!   (SeqOver, ZoomOutAlt, Skew, Random, SeqZoomIn, Periodic, ZoomInAlt,
//!   ZoomIn), as range- or point-query workloads.
//! * [`skyserver`] — a synthetic substitute for the SkyServer benchmark of
//!   Figure 5: a clustered, multi-modal data distribution plus a
//!   dwell-drift-jump query log.
//! * [`multi_client`] — per-client query streams (deterministic per seed)
//!   for the `pi-engine` concurrent serving layer.
//! * [`closed_loop`] — a transport-agnostic closed-loop driver running C
//!   concurrent clients against any submit function (raw executor or
//!   `pi-sched` server), reporting served/rejected counts, throughput and
//!   per-batch latency percentiles (p50/p95/p99).
//! * [`domains`] — float and string key-domain generators (uniform and
//!   skewed data, range-query streams) for the typed serving layer built
//!   on order-preserving encodings.
//! * [`multicol`] — row-aligned multi-column data sets and conjunction
//!   streams with per-column target selectivities (plus heterogeneous
//!   u64/f64/string row sets) for the multi-column query engine.
//!
//! All generators are deterministic given a seed, and all sizes are
//! parameters so the same code scales from unit tests to full experiment
//! runs.
//!
//! ## Example
//!
//! ```
//! use pi_workloads::data::{generate, Distribution};
//! use pi_workloads::patterns::{self, Pattern, WorkloadSpec};
//!
//! let column = generate(Distribution::UniformRandom, 10_000, 42);
//! let queries = patterns::generate(Pattern::SeqOver, &WorkloadSpec::range(10_000, 100));
//! assert_eq!(column.len(), 10_000);
//! assert_eq!(queries.len(), 100);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod closed_loop;
pub mod data;
pub mod domains;
pub mod multi_client;
pub mod multicol;
pub mod patterns;
pub mod skyserver;

pub use closed_loop::{BatchOutcome, ClosedLoopReport, LatencyPercentiles};
pub use data::Distribution;
pub use multi_client::{ClientStream, MultiClientSpec, PatternAssignment};
pub use patterns::{Pattern, RangeQuery, WorkloadSpec};
pub use skyserver::{SkyServerConfig, SkyServerWorkload};
