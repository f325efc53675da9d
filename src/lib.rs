//! # progressive-indexes — facade crate
//!
//! Re-exports the whole Progressive Indexing workspace behind a single
//! dependency, so downstream users can write `progressive_indexes::...`
//! without tracking the individual member crates:
//!
//! * [`storage`] — columns, predicated scans, static B+-tree
//!   ([`pi_storage`]).
//! * [`index`] — the four progressive indexing algorithms, cost models,
//!   indexing budgets and the decision tree ([`pi_core`]).
//! * [`cracking`] — adaptive-indexing baselines: database cracking and its
//!   variants, plus full-scan / full-index references ([`pi_cracking`]).
//! * [`workloads`] — synthetic data and query-pattern generators, including
//!   the SkyServer-like workload and multi-client streams
//!   ([`pi_workloads`]).
//! * [`engine`] — the sharded, concurrent query-serving engine: multi-column
//!   tables, range shards, batched parallel execution ([`pi_engine`]).
//! * [`sched`] — the persistent runtime underneath: a worker pool with one
//!   shared job queue and the serving front-end with bounded admission
//!   and backpressure, each batch run on its caller ([`pi_sched`]).
//! * [`obs`] — in-tree observability: sharded counters, log-bucketed
//!   latency histograms, the metrics registry and its JSON / Prometheus
//!   exports ([`pi_obs`]).
//! * [`durable`] — write-ahead logging, column snapshots and crash
//!   recovery for the engine's tables ([`pi_durable`]).
//!
//! See the repository README for a quickstart and `docs/ARCHITECTURE.md`
//! for how the crates fit together.

#![warn(missing_docs)]

pub use pi_core as index;
pub use pi_cracking as cracking;
pub use pi_durable as durable;
pub use pi_engine as engine;
pub use pi_obs as obs;
pub use pi_sched as sched;
pub use pi_storage as storage;
pub use pi_workloads as workloads;

pub use pi_core::prelude::*;
