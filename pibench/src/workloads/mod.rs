//! The four workloads. Each walks the same lifecycle and differs only in
//! what an instance and an op are; see each module for why it exists and
//! which layers it loads or bypasses.

pub mod explore_cold;
pub mod mixed_durable;
pub mod serve_hot;
pub mod typed_multicol;

use pi_engine::{ExecutorConfig, TableQuery};
use pi_storage::ScanResult;

/// One batch of range reads with the answers the oracle expects.
#[derive(Default, Clone)]
pub struct Batch {
    pub queries: Vec<TableQuery>,
    pub expected: Vec<ScanResult>,
}

#[cfg(test)]
impl Batch {
    /// Folds the expected answers; equal batches fold equal.
    pub fn fingerprint(&self) -> u64 {
        self.expected
            .iter()
            .fold(0, |acc, r| acc.rotate_left(7) ^ r.count ^ r.sum as u64)
    }
}

/// `--quick` shrinks rows and segment lengths about 20×; the op streams
/// keep their length, so the same code paths run.
#[derive(Clone, Copy)]
pub struct Scale {
    pub quick: bool,
}

impl Scale {
    /// A row count or a segment length, a twentieth of it when quick.
    pub fn of(self, full: usize) -> usize {
        if self.quick {
            full / 20
        } else {
            full
        }
    }
}

/// The executor configuration that makes work identical per op index: no
/// per-batch maintenance jobs and no idle-cycle maintenance, so all
/// indexing is a side effect of the queries, as in the paper. (With the
/// defaults, asynchronous maintenance made queries-to-converge swing
/// between 125 and 229 on the dev box.)
pub fn pinned_executor_config(worker_threads: usize) -> ExecutorConfig {
    ExecutorConfig {
        worker_threads,
        maintenance_steps: 0,
        background_maintenance: false,
    }
}

/// Where in `[0, 1)` the `k`-th of a series of ranges sits: the
/// golden-ratio sequence, which spreads every prefix of itself evenly.
/// Ranges that only a few dozen of reach each shard in a whole cold stream
/// are placed this way rather than at random: at random, the shard that
/// happens to get the fewest decides when the table is fully indexed, and
/// that op ranged from 208 to 263 cycles between two streams.
pub fn spread_over_domain(k: usize) -> f64 {
    (k as f64 * 0.618_033_988_749_895).fract()
}
