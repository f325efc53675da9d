//! `mixed_durable` — 70% reads, 30% writes through a write-ahead-logged
//! table on real files; an op is a chunk of ten: seven range reads as one
//! batch, then an insert, a delete and an update as one logged batch.
//!
//! The same index layer used differently: writes put the `DeltaSidecar`
//! and the incremental merge beside refinement, so a read-path or kernel
//! gain that costs `apply` or the merge shows here. `pi-durable` (frame,
//! group commit, fsync, snapshot) and `pi-core::mutation` dominate. The
//! table is the small one of the suite — 256k rows, so that the write
//! stream outgrows a tenth of a shard and real merges run inside the cold
//! stream — and the only one whose set-up and ops touch the disk.
//!
//! The hot segment undoes in its second half what its first half wrote, so
//! the table and its sidecars are the same at the start of every replay:
//! the hot stream is steady writing below the merge threshold, and merges
//! are the cold stream's.

use std::sync::Arc;

use pi_core::budget::BudgetPolicy;
use pi_core::mutation::Mutation;
use pi_durable::{DirStore, FileWal, FsyncPolicy};
use pi_engine::{
    ColumnSpec, DurabilityConfig, DurableTable, Executor, Table, TableQuery, TuningParameters,
};
use pi_obs::MetricsRegistry;

use super::{pinned_executor_config, Batch, Scale};
use crate::gen::{uniform, Rng};
use crate::lifecycle::{timed, Op, Tally, Workload};
use crate::oracle::Mirror;
use crate::peel::PeelInput;
use crate::scratch::TempDir;
use crate::trace::Recorder;

const COLUMN: &str = "key";
const SHARDS: usize = 4;
const READS: usize = 7;
/// K, in chunks: enough writes that every shard's sidecar outgrows a
/// tenth of the shard and merges at least once.
const COLD_CHUNKS: usize = 8_000;
/// The driver checkpoints every 1000 chunks (10k ops), at fixed op
/// counts, so the snapshot work lands on the same ops in every run.
const CHECKPOINT_EVERY: usize = 1_000;
/// Chunks in the hot segment: six fsync intervals, so every replay syncs
/// at the same ops, and one checkpoint, at chunk 1000.
const HOT_CHUNKS: usize = 1_536;
const RECOVERY_PROBES: usize = 64;
const PEEL_BATCHES: usize = 1_024;

/// One fsync per 256 logged batches. With one per 32 the 99th percentile
/// of the cold curve and the hot throughput were the device's fsync
/// latency, which ranged from 0.20 to 0.25 ms between runs on the dev
/// box; this leaves the device in the run (31 fsyncs and 9 snapshots per
/// repetition) without letting it set the percentile. The log probe of
/// the traced run measures one fsync per 32.
pub fn durability_config() -> DurabilityConfig {
    DurabilityConfig {
        fsync: FsyncPolicy::EveryN(256),
        ..DurabilityConfig::default()
    }
}

struct Chunk {
    reads: Batch,
    writes: Vec<Mutation>,
    applied: Vec<bool>,
}

pub struct MixedDurable {
    values: Vec<u64>,
    cold: Vec<Chunk>,
    hot: Vec<Chunk>,
    /// Reads against the table as it must be after the whole cold stream;
    /// the recovered table has to answer them exactly.
    after_cold: Batch,
}

pub struct DurableInstance {
    executor: Executor,
    dir: TempDir,
}

fn range_read(rng: &mut Rng, values: &[u64], domain: u64, mirror: &Mirror, into: &mut Batch) {
    let (low, high) = if rng.below(2) == 0 {
        let v = values[rng.below(values.len() as u64) as usize];
        (v, v)
    } else {
        let low = rng.below(domain - domain / 1_000);
        (low, low + domain / 1_000)
    };
    into.queries.push(TableQuery::new(COLUMN, low, high));
    into.expected.push(mirror.range(low, high));
}

impl MixedDurable {
    pub fn generate(seed: u64, scale: Scale) -> Self {
        let rows = scale.of(256_000);
        let domain = rows as u64 * 16;
        let values = uniform(&mut Rng::new(seed, 30), rows, domain);
        let mut rng = Rng::new(seed, 31);
        let reads = |rng: &mut Rng, mirror: &Mirror| {
            let mut reads = Batch::default();
            for _ in 0..READS {
                range_read(rng, &values, domain, mirror, &mut reads);
            }
            reads
        };
        let chunk = |reads: Batch, writes: Vec<Mutation>, mirror: &mut Mirror| Chunk {
            applied: writes.iter().map(|m| mirror.apply(m)).collect(),
            reads,
            writes,
        };
        let mut cold_mirror = Mirror::new(&values);
        let cold = (0..COLD_CHUNKS)
            .map(|_| {
                let reads = reads(&mut rng, &cold_mirror);
                let mut victim = || values[rng.below(rows as u64) as usize];
                let (deleted, old) = (victim(), victim());
                // Inserts range over twice the domain, so half of them
                // land past every initial value, in the last shard.
                let writes = vec![
                    Mutation::Insert(rng.below(2 * domain)),
                    Mutation::Delete(deleted),
                    Mutation::Update {
                        old,
                        new: rng.below(domain),
                    },
                ];
                chunk(reads, writes, &mut cold_mirror)
            })
            .collect();

        // The hot segment starts from the initial rows too: it runs on a
        // fresh, converged instance. Its victims are distinct rows, so
        // every write applies and the second half can undo the first.
        let half = scale.of(HOT_CHUNKS) / 2;
        let mut hot_mirror = Mirror::new(&values);
        let mut taken = std::collections::HashSet::new();
        let mut victim = |rng: &mut Rng| loop {
            let row = rng.below(rows as u64) as usize;
            if taken.insert(row) {
                return values[row];
            }
        };
        let written: Vec<[u64; 4]> = (0..half)
            .map(|_| {
                [
                    rng.below(2 * domain),
                    victim(&mut rng),
                    victim(&mut rng),
                    rng.below(domain),
                ]
            })
            .collect();
        let hot: Vec<Chunk> = (0..2 * half)
            .map(|k| {
                let reads = reads(&mut rng, &hot_mirror);
                let [inserted, deleted, old, new] = written[k % half];
                let writes = if k < half {
                    vec![
                        Mutation::Insert(inserted),
                        Mutation::Delete(deleted),
                        Mutation::Update { old, new },
                    ]
                } else {
                    vec![
                        Mutation::Delete(inserted),
                        Mutation::Insert(deleted),
                        Mutation::Update { old: new, new: old },
                    ]
                };
                chunk(reads, writes, &mut hot_mirror)
            })
            .collect();
        assert!(
            hot_mirror.is_initial(),
            "the hot segment must leave the rows as it found them"
        );
        let mut after_cold = Batch::default();
        for _ in 0..RECOVERY_PROBES {
            range_read(&mut rng, &values, domain, &cold_mirror, &mut after_cold);
        }
        after_cold
            .queries
            .push(TableQuery::new(COLUMN, 0, u64::MAX));
        after_cold.expected.push(cold_mirror.range(0, u64::MAX));
        MixedDurable {
            values,
            cold,
            hot,
            after_cold,
        }
    }

    fn run(&self, instance: &DurableInstance, chunk: &Chunk, op: usize, rec: &mut Recorder) -> Op {
        let executor = &instance.executor;
        let (nanos, (answers, applied, checkpointed)) = timed(|| {
            let answers = rec.span("engine.executor.execute_batch", op, || {
                executor.execute_batch(&chunk.reads.queries)
            });
            let applied = rec.span("engine.executor.apply_mutations", op, || {
                executor.apply_mutations(COLUMN, &chunk.writes)
            });
            let checkpointed = !(op + 1).is_multiple_of(CHECKPOINT_EVERY)
                || rec.span("engine.durability.checkpoint", op, || {
                    executor
                        .durability()
                        .expect("built durable")
                        .checkpoint()
                        .is_ok()
                });
            (answers, applied, checkpointed)
        });
        Op {
            nanos,
            ok: answers.as_ref() == Ok(&chunk.reads.expected)
                && applied.as_ref() == Ok(&chunk.applied)
                && checkpointed,
        }
    }
}

#[cfg(test)]
impl MixedDurable {
    pub fn fingerprint(&self) -> u64 {
        self.cold.iter().fold(0, |acc, chunk| {
            let applied = chunk
                .applied
                .iter()
                .fold(0, |bits, &a| bits << 1 | a as u64);
            acc.rotate_left(3) ^ chunk.reads.fingerprint() ^ applied
        })
    }
}

impl Workload for MixedDurable {
    type Inputs = Vec<u64>;
    type Instance = DurableInstance;
    type Hot = DurableInstance;

    fn inputs(&self) -> Vec<u64> {
        self.values.clone()
    }

    /// Opens the log and the snapshot directory, builds the table and
    /// writes snapshot 0: set-up here includes a snapshot's worth of disk.
    fn build(&self, values: Vec<u64>, registry: Option<&Arc<MetricsRegistry>>) -> DurableInstance {
        let dir = TempDir::fresh();
        let mut builder = Table::builder()
            .tuning(TuningParameters::default())
            .durability(durability_config())
            .column(
                ColumnSpec::new(COLUMN, values)
                    .with_shards(SHARDS)
                    .with_policy(BudgetPolicy::FixedDelta(0.05)),
            );
        if let Some(registry) = registry {
            builder = builder.metrics(Arc::clone(registry));
        }
        let durable = builder
            .build_durable(
                Box::new(FileWal::open(dir.path().join("table.wal")).expect("open the log")),
                Box::new(DirStore::open(dir.path()).expect("open the snapshot store")),
            )
            .expect("create the durable table");
        let executor = Executor::with_durability(
            Arc::new(durable),
            pinned_executor_config(1),
            registry.cloned(),
        );
        DurableInstance { executor, dir }
    }

    fn cold_len(&self) -> usize {
        self.cold.len()
    }

    /// The first eight chunks: by then every shard has been touched,
    /// whichever shards the seed's first chunk happens to hit.
    fn first_touch(&self) -> Vec<usize> {
        (0..8).collect()
    }

    fn cold_op(&self, instance: &mut DurableInstance, i: usize, rec: &mut Recorder) -> Op {
        self.run(instance, &self.cold[i], i, rec)
    }

    fn tables<'a>(&self, instance: &'a DurableInstance) -> Vec<&'a Table> {
        vec![instance.executor.table()]
    }

    /// Flushes the log, drops the instance, recovers from the files alone
    /// and checks the recovered table against the mirror.
    fn end_cold(&self, instance: DurableInstance, rec: &mut Recorder, tally: &mut Tally) {
        let DurableInstance { executor, dir } = instance;
        tally.check(
            executor
                .durability()
                .expect("built durable")
                .flush()
                .is_ok(),
        );
        drop(executor);
        let recovered = rec.span("engine.durability.recover", self.cold.len(), || {
            DurableTable::recover(
                Box::new(FileWal::open(dir.path().join("table.wal")).expect("open the log")),
                Box::new(DirStore::open(dir.path()).expect("open the snapshot store")),
                durability_config(),
                None,
            )
        });
        for (q, expected) in self
            .after_cold
            .queries
            .iter()
            .zip(&self.after_cold.expected)
        {
            let answer = recovered
                .as_ref()
                .ok()
                .and_then(|(durable, _)| durable.table().query(COLUMN, q.low, q.high));
            tally.check(answer == Some(*expected));
        }
    }

    fn converge(&self, instance: &mut DurableInstance) {
        instance.executor.drive_to_convergence(usize::MAX);
    }

    fn warm(
        &self,
        instance: DurableInstance,
        _registry: Option<&Arc<MetricsRegistry>>,
    ) -> DurableInstance {
        instance
    }

    fn segment_ops(&self) -> usize {
        self.hot.len()
    }

    fn hot_op(&self, instance: &mut DurableInstance, j: usize, rec: &mut Recorder) -> Op {
        self.run(instance, &self.hot[j], j, rec)
    }

    /// The hot segment's first read batches, answered on the initial rows.
    fn peel_input(&self) -> PeelInput {
        let mirror = Mirror::new(&self.values);
        PeelInput {
            columns: vec![(COLUMN, self.values.clone())],
            shards: SHARDS,
            batches: self
                .hot
                .iter()
                .take(PEEL_BATCHES)
                .map(|chunk| Batch {
                    queries: chunk.reads.queries.clone(),
                    expected: chunk
                        .reads
                        .queries
                        .iter()
                        .map(|q| mirror.range(q.low, q.high))
                        .collect(),
                })
                .collect(),
        }
    }
}
