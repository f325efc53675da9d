//! # pi-sched — persistent scheduler and serving front-end
//!
//! The runtime under the progressive-indexing engine. The paper bounds
//! the indexing work any single query performs (budget δ); this crate
//! bounds what the *system* around those queries costs, and adds no
//! indexing of its own:
//!
//! * [`Pool`] — a persistent worker pool: one shared job queue and
//!   caller-helping batch execution ([`Pool::run`]); a worker runs only
//!   the jobs it is given. Replaces the per-batch `std::thread::scope`
//!   fan-out whose spawn cost dwarfed the microsecond-scale shard tasks.
//! * [`Server`] — bounded admission over any [`BatchExecutor`]: at most
//!   [`ServerConfig::max_in_flight`] batches run at once, each on the
//!   thread that submitted it; [`Server::try_submit`] returns
//!   [`SubmitError::QueueFull`] at the bound, and [`Server::shutdown`]
//!   refuses new work and waits for the batches that are running.
//!
//! The crate is dependency-free (std only) and knows nothing about
//! indexes: `pi-engine` implements [`BatchExecutor`] for its `Executor`
//! and runs a batch's shard tasks as pool jobs.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use pi_sched::{BatchExecutor, Server, ServerConfig};
//!
//! struct Doubler;
//! impl BatchExecutor for Doubler {
//!     type Request = u64;
//!     type Response = u64;
//!     type Error = String;
//!     fn execute_batch(&self, batch: &[u64]) -> Result<Vec<u64>, String> {
//!         Ok(batch.iter().map(|x| x * 2).collect())
//!     }
//! }
//!
//! let server = Server::new(Arc::new(Doubler), ServerConfig::default());
//! let ticket = server.try_submit(vec![1, 2, 3]).unwrap();
//! assert_eq!(ticket.wait(), Ok(vec![2, 4, 6]));
//! server.shutdown(); // graceful: waits for running batches first
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod pool;
pub mod server;

pub use pool::{Job, Pool, PoolStats};
pub use server::{
    BatchExecutor, Server, ServerConfig, ServerStats, SubmitError, Ticket, TrySubmitError,
};
