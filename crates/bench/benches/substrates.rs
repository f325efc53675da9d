//! Micro-benchmarks of the storage and indexing substrates: the predicated
//! scan, cracking kernels, bucket appends, binary search and B+-tree
//! lookups. These are the building blocks whose costs the paper's
//! cost models (Table 1) parameterise.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use pi_bench::BENCH_SCALE;
use pi_core::buckets::{BucketSet, DEFAULT_BLOCK_CAPACITY, DEFAULT_BUCKET_COUNT};
use pi_core::kernels::ScatterScratch;
use pi_cracking::crack::crack_in_two;
use pi_storage::{scan, sorted, StaticBTree};
use pi_workloads::data;

fn bench_scans(c: &mut Criterion) {
    let n = BENCH_SCALE.column_size;
    let values = data::uniform_random(n, 1);
    let mut group = c.benchmark_group("scan");
    group.bench_function(BenchmarkId::new("predicated", n), |b| {
        b.iter(|| scan::scan_range_sum(black_box(&values), n as u64 / 4, n as u64 / 2))
    });
    group.finish();
}

fn bench_crack_kernel(c: &mut Criterion) {
    let n = BENCH_SCALE.column_size;
    let values = data::uniform_random(n, 2);
    let mut group = c.benchmark_group("crack_in_two");
    group.bench_function(BenchmarkId::new("full_column", n), |b| {
        b.iter_batched(
            || values.clone(),
            |mut data| {
                let r = crack_in_two(&mut data, 0, n, n as u64 / 2);
                black_box(r.split)
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_bucket_append(c: &mut Criterion) {
    let n = BENCH_SCALE.column_size;
    let values = data::uniform_random(n, 3);
    let shift = 64 - (DEFAULT_BUCKET_COUNT as u64).trailing_zeros();
    let mut group = c.benchmark_group("bucket_append");
    let mut scratch = ScatterScratch::new();
    // Bucket by the most significant bits of the value within the 0..n
    // domain (values fit in the low bits, so scale them up first to
    // exercise the real code path).
    let digit = |v: u64| (((v << (64 - 17 - 1)) >> shift) as usize % DEFAULT_BUCKET_COUNT) as u8;
    group.bench_function(BenchmarkId::new("radix_msd", n), |b| {
        b.iter(|| {
            let mut buckets = BucketSet::new(DEFAULT_BUCKET_COUNT, DEFAULT_BLOCK_CAPACITY);
            scratch.scatter_into(&values, &mut buckets, &digit);
            black_box(buckets.len())
        })
    });
    group.finish();
}

fn bench_lookup_structures(c: &mut Criterion) {
    let n = BENCH_SCALE.column_size;
    let mut sorted_values = data::uniform_random(n, 4);
    sorted_values.sort_unstable();
    let tree = StaticBTree::build_default(&sorted_values);
    let keys: Vec<u64> = (0..1_000u64).map(|i| i * (n as u64 / 1_000)).collect();

    let mut group = c.benchmark_group("point_lookup");
    group.bench_function(BenchmarkId::new("binary_search", n), |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for &k in &keys {
                acc += sorted::lower_bound(black_box(&sorted_values), k);
            }
            black_box(acc)
        })
    });
    group.bench_function(BenchmarkId::new("btree", n), |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for &k in &keys {
                acc += tree.lower_bound(black_box(&sorted_values), k);
            }
            black_box(acc)
        })
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_secs(1)).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_scans, bench_crack_kernel, bench_bucket_append, bench_lookup_structures
);
criterion_main!(benches);
