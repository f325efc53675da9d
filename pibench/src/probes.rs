//! Layer probes: small fixed pieces of work against one layer's public
//! functions, the same in every traced run whatever the workload, so a
//! change to a layer shows at the layer before it shows end to end. Inputs
//! come from `--seed`; times are low quantiles over a few repetitions.

use std::collections::BTreeMap;
use std::sync::Arc;

use pi_core::budget::BudgetPolicy;
use pi_core::cost_model::CostConstants;
use pi_core::decision::Algorithm;
use pi_core::mutation::{MutableIndex, Mutation};
use pi_durable::{DirStore, FileWal, FsyncPolicy, MemStore, MemWalHandle, WalRecord, WalWriter};
use pi_engine::{ColumnSpec, DurableTable, Table, TuningParameters};
use pi_obs::{MetricsRegistry, MetricsSnapshot};
use pi_sched::{Job, Pool};
use pi_storage::encoding::OrderedKey;
use pi_storage::{Column, DeltaSidecar, DigestTree, RangePartition, StaticBTree, StrPrefix};

use crate::estimators::{denoise, low, median};
use crate::gen::{skewed, skewed_strings, uniform, Rng};
use crate::lifecycle::{timed, Tally};
use crate::scratch::TempDir;
use crate::workloads::mixed_durable::durability_config;
use crate::workloads::{typed_multicol, Scale};

pub type Layers = BTreeMap<&'static str, f64>;

/// One of the program's own counters. The program registers its counters
/// when the layer is built, so one that is missing has been renamed or
/// removed, and the run stops there instead of reporting a 0.
pub fn counter(snapshot: &MetricsSnapshot, name: &str) -> f64 {
    match snapshot.counter(name) {
        Some(count) => count as f64,
        None => panic!("the program has no counter {name:?} any more"),
    }
}

const REPS: usize = 5;

/// The low quantile, in seconds, of `REPS` runs of `body`.
fn low_s(mut body: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS).map(|_| timed(&mut body).0 as f64 / 1e9).collect();
    low(&samples)
}

pub fn run_all(seed: u64, scale: Scale, tally: &mut Tally, out: &mut Layers) {
    let rows = scale.of(400_000);
    storage(seed, rows, out);
    core_algorithms(seed, rows / 2, out);
    core_mutation(seed, rows / 4, out);
    durable(seed, rows / 4, out);
    typed_multicol::probe(seed, scale, tally, out);
    pool_dispatch(out);
    let calibrated = TuningParameters::calibrated();
    out.insert(
        "core.tuning.calibrated_sort_threshold",
        calibrated.comparison_sort_threshold as f64,
    );
    out.insert("core.tuning.calibrated_unroll", calibrated.unroll as f64);
}

fn storage(seed: u64, rows: usize, out: &mut Layers) {
    let domain = rows as u64 * 16;
    let mut rng = Rng::new(seed, 90);
    let values = uniform(&mut rng, rows, domain);
    let mut sorted = values.clone();
    sorted.sort_unstable();

    let scan_s = low_s(|| {
        std::hint::black_box(pi_storage::scan::scan_range_sum(
            std::hint::black_box(&values),
            domain / 4,
            domain / 2,
        ));
    });
    out.insert("storage.scan_gb_s", rows as f64 * 8.0 / scan_s / 1e9);

    let tree = StaticBTree::build_default(&sorted);
    let keys = uniform(&mut rng, 100_000, domain);
    let lookups_s = low_s(|| {
        for &key in &keys {
            std::hint::black_box(tree.lower_bound(&sorted, key));
        }
    });
    out.insert(
        "storage.btree_lookup_ns",
        lookups_s * 1e9 / keys.len() as f64,
    );

    let column = Column::from_vec(values.clone());
    out.insert(
        "storage.partition_split_s",
        low_s(|| {
            let partition = RangePartition::equi_depth(column.data(), 8);
            std::hint::black_box(partition.split_column(&column));
        }),
    );

    let pending = uniform(&mut rng, rows / 20, domain);
    let mut sidecar = DeltaSidecar::new();
    let insert_s = low_s(|| {
        sidecar = DeltaSidecar::new();
        for &v in &pending {
            sidecar.insert(v);
        }
    });
    out.insert(
        "storage.delta_insert_ns",
        insert_s * 1e9 / pending.len() as f64,
    );
    let ranges: Vec<u64> = (0..10_000)
        .map(|_| rng.below(domain - domain / 100))
        .collect();
    let scans_s = low_s(|| {
        for &low in &ranges {
            std::hint::black_box(sidecar.scan(low, low + domain / 100));
        }
    });
    out.insert("storage.delta_scan_us", scans_s * 1e6 / ranges.len() as f64);

    out.insert(
        "storage.digest_tree_build_ms",
        low_s(|| {
            std::hint::black_box(DigestTree::build(&values, domain / 64));
        }) * 1e3,
    );

    let strings = skewed_strings(&mut rng, rows / 4);
    let encode_s = low_s(|| {
        for s in &strings {
            std::hint::black_box(StrPrefix::new(s).encode());
        }
    });
    out.insert(
        "storage.str_encode_ns",
        encode_s * 1e9 / strings.len() as f64,
    );
}

/// One bare index per algorithm, built the way the engine builds a shard's
/// (`Algorithm::build_tuned`, synthetic cost constants, default tuning),
/// answering 0.1% ranges until it has converged. Engine numbers minus
/// these are what the engine adds.
fn core_algorithms(seed: u64, rows: usize, out: &mut Layers) {
    let domain = rows as u64 * 16;
    let mut rng = Rng::new(seed, 91);
    let flat = Arc::new(Column::from_vec(uniform(&mut rng, rows, domain)));
    let hot = Arc::new(Column::from_vec(skewed(&mut rng, rows, domain)));
    let queries: Vec<u64> = (0..4_000)
        .map(|_| rng.below(domain - domain / 1_000))
        .collect();
    let cases: [(Algorithm, &Arc<Column>, [&'static str; 4]); 4] = [
        (
            Algorithm::Quicksort,
            &hot,
            [
                "core.quicksort.first_query_ms",
                "core.quicksort.cold_total_s",
                "core.quicksort.op_max_ms",
                "core.quicksort.ops_to_converge",
            ],
        ),
        (
            Algorithm::RadixsortMsd,
            &flat,
            [
                "core.radix_msd.first_query_ms",
                "core.radix_msd.cold_total_s",
                "core.radix_msd.op_max_ms",
                "core.radix_msd.ops_to_converge",
            ],
        ),
        (
            Algorithm::RadixsortLsd,
            &flat,
            [
                "core.radix_lsd.first_query_ms",
                "core.radix_lsd.cold_total_s",
                "core.radix_lsd.op_max_ms",
                "core.radix_lsd.ops_to_converge",
            ],
        ),
        (
            Algorithm::Bucketsort,
            &hot,
            [
                "core.bucketsort.first_query_ms",
                "core.bucketsort.cold_total_s",
                "core.bucketsort.op_max_ms",
                "core.bucketsort.ops_to_converge",
            ],
        ),
    ];
    for (algorithm, column, names) in cases {
        let repetitions: Vec<Vec<u64>> = (0..REPS)
            .map(|_| {
                let mut index = algorithm.build_tuned(
                    Arc::clone(column),
                    BudgetPolicy::FixedDelta(0.1),
                    CostConstants::synthetic(),
                    TuningParameters::default(),
                );
                let mut latencies = Vec::new();
                for &low in &queries {
                    if index.is_converged() {
                        break;
                    }
                    let (nanos, result) = timed(|| index.query(low, low + domain / 1_000));
                    std::hint::black_box(result);
                    latencies.push(nanos);
                }
                latencies
            })
            .collect();
        let curve = denoise(&repetitions);
        out.insert(names[0], curve[0] / 1e6);
        out.insert(names[1], curve.iter().sum::<f64>() / 1e9);
        out.insert(names[2], curve.iter().cloned().fold(0.0, f64::max) / 1e6);
        out.insert(names[3], curve.len() as f64);
    }
}

fn core_mutation(seed: u64, rows: usize, out: &mut Layers) {
    let domain = rows as u64 * 16;
    let mut rng = Rng::new(seed, 92);
    let values = uniform(&mut rng, rows, domain);
    let column = Arc::new(Column::from_vec(values.clone()));
    let mutations: Vec<Mutation> = (0..rows / 50)
        .map(|i| match i % 3 {
            0 => Mutation::Insert(rng.below(domain)),
            1 => Mutation::Delete(values[rng.below(rows as u64) as usize]),
            _ => Mutation::Update {
                old: values[rng.below(rows as u64) as usize],
                new: rng.below(domain),
            },
        })
        .collect();
    let ranges: Vec<u64> = (0..5_000)
        .map(|_| rng.below(domain - domain / 1_000))
        .collect();
    let (mut apply, mut query, mut merge) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        let mut index = MutableIndex::new(
            Arc::clone(&column),
            Algorithm::RadixsortMsd,
            BudgetPolicy::FixedDelta(0.25),
        );
        while index.advance() {}
        let (nanos, ()) = timed(|| {
            for m in &mutations {
                std::hint::black_box(index.apply(m));
            }
        });
        apply.push(nanos as f64 / mutations.len() as f64 / 1e3);
        // The sidecar holds 2% of the rows, too few to start a merge, so
        // these queries leave the index as they found it.
        let (nanos, ()) = timed(|| {
            for &low in &ranges {
                std::hint::black_box(index.query(low, low + domain / 1_000));
            }
        });
        query.push(nanos as f64 / ranges.len() as f64 / 1e3);
        let (nanos, ()) = timed(|| while index.advance() {});
        merge.push(nanos as f64 / 1e9);
    }
    out.insert("core.mutation.apply_us", low(&apply));
    out.insert("core.mutation.sidecar_query_us", low(&query));
    out.insert("core.mutation.merge_s", low(&merge));
}

pub fn durable(seed: u64, rows: usize, out: &mut Layers) {
    let domain = rows as u64 * 16;
    let mut rng = Rng::new(seed, 93);
    let values = uniform(&mut rng, rows, domain);
    let records: Vec<WalRecord> = (0..2_000)
        .map(|_| WalRecord::MutationBatch {
            column: "key".to_string(),
            ops: vec![
                Mutation::Insert(rng.below(domain)),
                Mutation::Delete(values[rng.below(rows as u64) as usize]),
                Mutation::Update {
                    old: values[rng.below(rows as u64) as usize],
                    new: rng.below(domain),
                },
            ],
        })
        .collect();
    let append_all = |writer: &mut WalWriter| {
        for record in &records {
            writer.append(record).expect("append to the log");
        }
        writer.commit().expect("commit the log");
    };

    let dir = TempDir::fresh();
    let registry = MetricsRegistry::new();
    let mut bytes = 0;
    let on_file_s = low_s(|| {
        let wal = FileWal::open(dir.path().join("probe.wal")).expect("open the log");
        let mut writer = WalWriter::new(Box::new(wal), FsyncPolicy::EveryN(32), 1);
        writer.truncate_all().expect("empty the log");
        writer.set_metrics(Some(pi_durable::WalMetrics::register(&registry)));
        append_all(&mut writer);
        bytes = writer.bytes_appended();
    });
    let in_memory_s = low_s(|| {
        let wal = MemWalHandle::new().storage();
        append_all(&mut WalWriter::new(
            Box::new(wal),
            FsyncPolicy::EveryN(32),
            1,
        ));
    });
    out.insert(
        "durable.wal.append_us",
        on_file_s * 1e6 / records.len() as f64,
    );
    out.insert(
        "durable.wal.bytes_per_mutation",
        bytes as f64 / (3 * records.len()) as f64,
    );
    let fsyncs = counter(&registry.snapshot(), "wal.fsyncs");
    out.insert("durable.wal.fsyncs", fsyncs / REPS as f64);
    out.insert("durable.wal.device_share", 1.0 - in_memory_s / on_file_s);

    let build = || {
        Table::builder()
            .tuning(TuningParameters::default())
            .durability(durability_config())
            .column(ColumnSpec::new("key", values.clone()).with_shards(4))
    };
    let in_memory = build()
        .build_durable(
            Box::new(MemWalHandle::new().storage()),
            Box::new(MemStore::new()),
        )
        .expect("create a durable table in memory");
    out.insert(
        "durable.snapshot.encode_ms",
        low_s(|| {
            in_memory.checkpoint().expect("checkpoint into memory");
        }) * 1e3,
    );

    let wal_path = dir.path().join("table.wal");
    let snapshots = dir.path().join("snapshots");
    let on_file = build()
        .build_durable(
            Box::new(FileWal::open(&wal_path).expect("open the log")),
            Box::new(DirStore::open(&snapshots).expect("open the snapshot store")),
        )
        .expect("create a durable table on files");
    let snapshot_bytes: u64 = std::fs::read_dir(&snapshots)
        .expect("list the snapshots")
        .map(|entry| {
            entry
                .expect("a snapshot file")
                .metadata()
                .expect("its size")
                .len()
        })
        .sum();
    out.insert(
        "durable.snapshot.bytes_per_row",
        snapshot_bytes as f64 / rows as f64,
    );
    // Before the writes: a checkpoint empties the log, and the recovery
    // below is to replay them.
    out.insert(
        "engine.durability.checkpoint_ms",
        low_s(|| {
            on_file.checkpoint().expect("checkpoint into files");
        }) * 1e3,
    );
    let mut apply_ns = Vec::new();
    for record in &records[..500] {
        if let WalRecord::MutationBatch { column, ops } = record {
            let (nanos, applied) = timed(|| on_file.apply_mutations(column, ops));
            applied.expect("a logged write");
            apply_ns.push(nanos as f64);
        }
    }
    // The median: one call in 256 waits for the device.
    out.insert("engine.durability.apply_us", median(&apply_ns) / 1e3);
    on_file.flush().expect("flush the log");
    drop(on_file);
    let mut replayed = 0;
    out.insert(
        "durable.recover_s",
        low_s(|| {
            let (_, report) = DurableTable::recover(
                Box::new(FileWal::open(&wal_path).expect("open the log")),
                Box::new(DirStore::open(&snapshots).expect("open the snapshot store")),
                durability_config(),
                None,
            )
            .expect("recover from the files");
            replayed = report.replayed_records;
        }),
    );
    out.insert("durable.recover.replayed_records", replayed as f64);
}

/// `Pool::run` of empty jobs on two workers, per job: what fanning a batch
/// out costs before any shard is touched.
fn pool_dispatch(out: &mut Layers) {
    const JOBS: usize = 8;
    const RUNS: usize = 2_000;
    let pool = Pool::new(2);
    let run_s = low_s(|| {
        for _ in 0..RUNS {
            let jobs: Vec<(usize, Job)> = (0..JOBS).map(|w| (w, Box::new(|| ()) as Job)).collect();
            pool.run(jobs);
        }
    });
    out.insert("sched.pool.dispatch_us", run_s * 1e6 / (RUNS * JOBS) as f64);
}
