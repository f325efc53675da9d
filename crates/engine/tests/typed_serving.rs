//! End-to-end typed serving: `TypedTable<f64>` and `TypedTable<String>`
//! (string-prefix) columns served through the shard-parallel executor,
//! with property-test oracles asserting exactness **at every refinement
//! stage** — cold, mid-refinement, converged, and re-converged after
//! mutations — against sorted-`Vec` ground truth in the key domain.

use std::cmp::Ordering;
use std::sync::Arc;

use proptest::prelude::*;

use pi_core::budget::BudgetPolicy;
use pi_core::testing::TestRng;
use pi_core::Algorithm;
use pi_engine::typed::{
    TableKey, TypedColumnSpec, TypedExecutor, TypedMutation, TypedQuery, TypedTable,
};
use pi_engine::{AlgorithmChoice, EngineError, ExecutorConfig};
use pi_workloads::domains;
use pi_workloads::Distribution;

/// Small foreground-only executor so tests control refinement progress.
fn foreground() -> ExecutorConfig {
    ExecutorConfig {
        worker_threads: 2,
        maintenance_steps: 0,
        background_maintenance: false,
    }
}

/// Ground truth for float queries: filter by IEEE total order (ties with
/// the encoding's policy because tests only use the canonical NaN).
fn float_oracle(keys: &[f64], low: f64, high: f64) -> u64 {
    keys.iter()
        .filter(|k| k.total_cmp(&low) != Ordering::Less && k.total_cmp(&high) != Ordering::Greater)
        .count() as u64
}

/// Ground truth for string queries: full byte order.
fn string_oracle(keys: &[String], low: &str, high: &str) -> u64 {
    keys.iter()
        .filter(|k| k.as_str() >= low && k.as_str() <= high)
        .count() as u64
}

/// An f64 from arbitrary bits: the full IEEE space — subnormals, ±0.0,
/// ±inf — with every NaN canonicalised (the encoding's policy, so the
/// `total_cmp` oracle agrees).
fn float_from_bits(bits: u64) -> f64 {
    let v = f64::from_bits(bits);
    if v.is_nan() {
        f64::NAN
    } else {
        v
    }
}

#[test]
fn float_table_serves_skewed_streams_exactly_through_convergence() {
    let keys = domains::float_data(Distribution::Skewed, 30_000, 1_000.0, 41);
    let table = Arc::new(
        TypedTable::builder()
            .column(
                TypedColumnSpec::new("x", keys.clone())
                    .with_shards(4)
                    .with_policy(BudgetPolicy::FixedDelta(0.25)),
            )
            .build(),
    );
    let executor = TypedExecutor::with_config(Arc::clone(&table), foreground());
    let queries = domains::float_ranges(120, 1_000.0, 0.02, 42);
    // Serve in batches while the shards refine; every answer must be
    // exact at whatever stage the index happens to be in.
    for chunk in queries.chunks(10) {
        let batch: Vec<TypedQuery<f64>> = chunk
            .iter()
            .map(|&(low, high)| TypedQuery::new("x", low, high))
            .collect();
        let results = executor.execute_batch(&batch).unwrap();
        for (&(low, high), r) in chunk.iter().zip(&results) {
            assert_eq!(r.count, float_oracle(&keys, low, high), "[{low}, {high}]");
            assert_eq!(r.sum, None, "float SUM must stay gated off");
        }
    }
    executor.drive_to_convergence(usize::MAX);
    assert!(table.inner().is_converged());
    let (low, high) = queries[0];
    let r = executor.execute_one("x", low, high).unwrap();
    assert_eq!(r.count, float_oracle(&keys, low, high));
}

#[test]
fn string_table_serves_hot_prefix_streams_exactly_through_convergence() {
    // Skewed strings: 90% of rows share one 10-byte prefix, so 90% of
    // the rows share one *code* — queries into the hot set lean entirely
    // on the tie-break path.
    let keys = domains::string_data(Distribution::Skewed, 8_000, 43);
    let table = Arc::new(
        TypedTable::builder()
            .column(
                TypedColumnSpec::new("s", keys.clone())
                    .with_shards(4)
                    .with_policy(BudgetPolicy::FixedDelta(0.25)),
            )
            .build(),
    );
    let executor = TypedExecutor::with_config(Arc::clone(&table), foreground());
    let queries = domains::string_ranges(Distribution::Skewed, 80, 44);
    for chunk in queries.chunks(8) {
        let batch: Vec<TypedQuery<String>> = chunk
            .iter()
            .map(|(low, high)| TypedQuery::new("s", low.clone(), high.clone()))
            .collect();
        let results = executor.execute_batch(&batch).unwrap();
        for ((low, high), r) in chunk.iter().zip(&results) {
            assert_eq!(
                r.count,
                string_oracle(&keys, low, high),
                "[{low:?}, {high:?}]"
            );
            assert_eq!(r.sum, None, "string SUM must stay gated off");
        }
    }
    executor.drive_to_convergence(usize::MAX);
    assert!(table.inner().is_converged());
    let (low, high) = &queries[0];
    let r = executor.execute_one("s", low, high).unwrap();
    assert_eq!(r.count, string_oracle(&keys, low, high));
}

#[test]
fn typed_unknown_column_fails_the_batch() {
    let table = Arc::new(
        TypedTable::builder()
            .column(TypedColumnSpec::new("x", vec![1.0f64, 2.0]))
            .build(),
    );
    let executor = TypedExecutor::with_config(table, foreground());
    let err = executor
        .execute_batch(&[TypedQuery::new("nope", 0.0, 1.0)])
        .unwrap_err();
    assert_eq!(err, EngineError::UnknownColumn("nope".into()));
    // An inverted (typed-empty) range must not mask the unknown column:
    // name resolution happens before the empty-range short-circuit.
    let err = executor
        .execute_batch(&[TypedQuery::new("nope", 1.0, 0.0)])
        .unwrap_err();
    assert_eq!(err, EngineError::UnknownColumn("nope".into()));
    let err = executor
        .apply_mutations("nope", &[TypedMutation::Insert(1.0)])
        .unwrap_err();
    assert_eq!(err, EngineError::UnknownColumn("nope".into()));
}

#[test]
fn typed_string_batch_applies_in_request_order() {
    let keys: Vec<String> = (0..1_000).map(|i| format!("k{i:04}")).collect();
    let table = Arc::new(
        TypedTable::builder()
            .column(TypedColumnSpec::new("s", keys).with_shards(4))
            .build(),
    );
    let executor = TypedExecutor::with_config(Arc::clone(&table), foreground());
    let moved = "k0999x".to_string();
    // A cross-shard update, then a delete of the row it just wrote.
    let applied = executor
        .apply_mutations(
            "s",
            &[
                TypedMutation::Update {
                    old: "k0001".to_string(),
                    new: moved.clone(),
                },
                TypedMutation::Delete(moved.clone()),
            ],
        )
        .unwrap();
    assert_eq!(applied, vec![true, true]);
    let count = |low: &str, high: &str| {
        executor
            .execute_one("s", low.to_string(), high.to_string())
            .unwrap()
            .count
    };
    assert_eq!(count(&moved, &moved), 0);
    assert_eq!(count("", "zzzz"), 999);
    // The tie table and the index agree, so the key stays writable.
    let applied = executor
        .apply_mutations(
            "s",
            &[
                TypedMutation::Insert(moved.clone()),
                TypedMutation::Delete(moved.clone()),
            ],
        )
        .unwrap();
    assert_eq!(applied, vec![true, true]);
    assert_eq!(count(&moved, &moved), 0);
    assert_eq!(count("", "zzzz"), 999);
}

/// Every `(low, high)` pair over `bounds` — inverted pairs included —
/// answered through `TypedTable::query`, `TypedExecutor::execute_one` and
/// one `execute_batch`, each against `string_oracle`.
fn check_every_path(
    executor: &TypedExecutor<String>,
    keys: &[String],
    bounds: &[String],
    stage: &str,
) {
    let pairs: Vec<(&String, &String)> = bounds
        .iter()
        .flat_map(|low| bounds.iter().map(move |high| (low, high)))
        .collect();
    let batch: Vec<TypedQuery<String>> = pairs
        .iter()
        .map(|&(low, high)| TypedQuery::new("s", low.clone(), high.clone()))
        .collect();
    let batched = executor.execute_batch(&batch).unwrap();
    for (&(low, high), batched) in pairs.iter().zip(&batched) {
        let want = string_oracle(keys, low, high);
        let served = executor.table().query("s", low, high).unwrap();
        let one = executor.execute_one("s", low, high).unwrap();
        assert_eq!(batched.count, want, "{stage} batch [{low:?}, {high:?}]");
        assert_eq!(served.count, want, "{stage} query [{low:?}, {high:?}]");
        assert_eq!(one.count, want, "{stage} execute_one [{low:?}, {high:?}]");
    }
}

#[test]
fn long_string_ties_are_exact_through_every_path() {
    // 15, 16, 17 and 30 bytes over one 15-byte stem: the last three share
    // a row key (the length byte is 16 past 15 bytes), so only their full
    // strings order them.
    let stem = "progressive-idx";
    let tied: Vec<String> = [stem, "progressive-idxa", "progressive-idxab"]
        .iter()
        .map(|s| s.to_string())
        .chain([format!("{stem}{}", "z".repeat(15))])
        .collect();
    assert_eq!(
        tied.iter().map(String::len).collect::<Vec<_>>(),
        [15, 16, 17, 30]
    );
    assert_eq!(tied[1].row_key(), tied[3].row_key());
    assert_eq!(tied[2].row_key() as u8, 16);
    assert_ne!(tied[0].row_key(), tied[1].row_key());

    // Every tied string several times over, among neighbours that share
    // the 8-byte code and fillers on other codes.
    let mut keys: Vec<String> = (0..3_000)
        .map(|i| match i % 6 {
            0..=3 => tied[i % 4].clone(),
            4 => format!("progressive-{i:05}"),
            _ => format!("k{i:05}"),
        })
        .collect();
    // Each tied string, one just below it and two just above it: a
    // prefix, the last byte decremented, a NUL appended and the last
    // byte incremented.
    let nudge = |s: &str, by: i8| {
        let mut b = s.as_bytes().to_vec();
        let last = b.len() - 1;
        b[last] = b[last].wrapping_add_signed(by);
        String::from_utf8(b).unwrap()
    };
    let bounds: Vec<String> = tied
        .iter()
        .flat_map(|s| {
            [
                s.clone(),
                s[..s.len() - 1].to_string(),
                nudge(s, -1),
                format!("{s}\u{0}"),
                nudge(s, 1),
            ]
        })
        .collect();

    let table = Arc::new(
        TypedTable::builder()
            .column(TypedColumnSpec::new("s", keys.clone()).with_shards(4))
            .build(),
    );
    let executor = TypedExecutor::with_config(Arc::clone(&table), foreground());
    check_every_path(&executor, &keys, &bounds, "cold");

    let long = |tail: &str| format!("{stem}{tail}");
    let writes = [
        TypedMutation::Insert(long("ab")),
        TypedMutation::Insert(long("b")),
        // Ties the row key of every live long string but is no live
        // string: it must not consume one of their rows.
        TypedMutation::Delete(long("abc")),
        TypedMutation::Delete(long("a")),
        TypedMutation::Update {
            old: tied[3].clone(),
            new: long("0"),
        },
        TypedMutation::Update {
            old: long("q"),
            new: long("r"),
        },
        TypedMutation::Delete(long("b")),
    ];
    let applied = executor.apply_mutations("s", &writes).unwrap();
    assert_eq!(applied, [true, true, false, true, true, false, true]);
    let remove = |keys: &mut Vec<String>, key: &String| {
        let at = keys.iter().position(|k| k == key).unwrap();
        keys.remove(at);
    };
    keys.push(long("ab"));
    remove(&mut keys, &tied[1]);
    remove(&mut keys, &tied[3]);
    keys.push(long("0"));
    check_every_path(&executor, &keys, &bounds, "written");

    executor.drive_to_convergence(usize::MAX);
    assert!(table.inner().is_converged());
    check_every_path(&executor, &keys, &bounds, "converged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary float columns over the full IEEE space (NaN, ±0.0,
    /// subnormals, ±inf included) served through the executor: COUNT is
    /// exact at an arbitrary refinement stage, after convergence, and
    /// after a mutation burst re-opens maintenance.
    #[test]
    fn float_counts_exact_at_every_stage(
        bits in prop::collection::vec(any::<u64>(), 10..300),
        query_bits in prop::collection::vec((any::<u64>(), any::<u64>()), 1..20),
        shards in 1..5usize,
        muts in prop::collection::vec((0..3u64, any::<u64>()), 0..30),
        warmup_batches in 0..4usize,
    ) {
        let mut keys: Vec<f64> = bits.iter().map(|&b| float_from_bits(b)).collect();
        let table = Arc::new(
            TypedTable::builder()
                .column(
                    TypedColumnSpec::new("x", keys.clone())
                        .with_shards(shards)
                        .with_policy(BudgetPolicy::FixedDelta(0.5)),
                )
                .build(),
        );
        let executor = TypedExecutor::with_config(Arc::clone(&table), foreground());
        let queries: Vec<(f64, f64)> = query_bits
            .iter()
            .map(|&(a, b)| {
                let (x, y) = (float_from_bits(a), float_from_bits(b));
                if x.total_cmp(&y) == Ordering::Greater { (y, x) } else { (x, y) }
            })
            .collect();
        let batch: Vec<TypedQuery<f64>> = queries
            .iter()
            .map(|&(low, high)| TypedQuery::new("x", low, high))
            .collect();

        // Partially refine: an arbitrary number of serving batches.
        for _ in 0..warmup_batches {
            let results = executor.execute_batch(&batch).unwrap();
            for (&(low, high), r) in queries.iter().zip(&results) {
                prop_assert_eq!(r.count, float_oracle(&keys, low, high), "warm [{}, {}]", low, high);
            }
        }

        // Mutations against a replay oracle (delete/update validated).
        let typed_muts: Vec<TypedMutation<f64>> = muts
            .iter()
            .map(|&(tag, b)| match tag {
                0 => TypedMutation::Insert(float_from_bits(b)),
                1 => TypedMutation::Delete(float_from_bits(b)),
                _ => TypedMutation::Update { old: float_from_bits(b), new: float_from_bits(b ^ 0xff) },
            })
            .collect();
        let applied = executor.apply_mutations("x", &typed_muts).unwrap();
        for (m, &ok) in typed_muts.iter().zip(&applied) {
            let want = match m {
                TypedMutation::Insert(v) => { keys.push(*v); true }
                TypedMutation::Delete(v) => match keys.iter().position(|k| k.total_cmp(v) == Ordering::Equal) {
                    Some(at) => { keys.remove(at); true }
                    None => false,
                },
                TypedMutation::Update { old, new } => match keys.iter().position(|k| k.total_cmp(old) == Ordering::Equal) {
                    Some(at) => { keys.remove(at); keys.push(*new); true }
                    None => false,
                },
            };
            prop_assert_eq!(ok, want, "{:?}", m);
        }

        // Exact right after the writes, and after re-convergence.
        for stage in 0..2 {
            let results = executor.execute_batch(&batch).unwrap();
            for (&(low, high), r) in queries.iter().zip(&results) {
                prop_assert_eq!(
                    r.count,
                    float_oracle(&keys, low, high),
                    "stage {} [{}, {}]", stage, low, high
                );
            }
            executor.drive_to_convergence(1_000_000);
            prop_assert!(table.inner().is_converged());
        }
    }

    /// Arbitrary byte-string columns (non-ASCII bytes, empty strings,
    /// interior NULs, shared prefixes) served through the executor:
    /// COUNT under full-string order is exact at every stage, with
    /// boundary ties broken against the side table.
    #[test]
    fn string_counts_exact_at_every_stage(
        raw in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..12), 5..150),
        query_raw in prop::collection::vec(
            (prop::collection::vec(any::<u8>(), 0..12), prop::collection::vec(any::<u8>(), 0..12)),
            1..15,
        ),
        shards in 1..4usize,
        muts in prop::collection::vec((0..3u64, prop::collection::vec(any::<u8>(), 0..12)), 0..25),
    ) {
        // Lossy-map arbitrary bytes into strings: keeps non-ASCII
        // multi-byte sequences and control characters in play while
        // staying valid UTF-8.
        let to_string = |b: &Vec<u8>| String::from_utf8_lossy(b).into_owned();
        let mut keys: Vec<String> = raw.iter().map(to_string).collect();
        let table = Arc::new(
            TypedTable::builder()
                .column(
                    TypedColumnSpec::new("s", keys.clone())
                        .with_shards(shards)
                        .with_policy(BudgetPolicy::FixedDelta(0.5)),
                )
                .build(),
        );
        let executor = TypedExecutor::with_config(Arc::clone(&table), foreground());
        let queries: Vec<(String, String)> = query_raw
            .iter()
            .map(|(a, b)| {
                let (x, y) = (to_string(a), to_string(b));
                if x <= y { (x, y) } else { (y, x) }
            })
            .collect();
        let batch: Vec<TypedQuery<String>> = queries
            .iter()
            .map(|(low, high)| TypedQuery::new("s", low.clone(), high.clone()))
            .collect();

        // Cold, then mutated, then converged.
        let results = executor.execute_batch(&batch).unwrap();
        for ((low, high), r) in queries.iter().zip(&results) {
            prop_assert_eq!(r.count, string_oracle(&keys, low, high), "cold [{:?}, {:?}]", low, high);
        }

        let typed_muts: Vec<TypedMutation<String>> = muts
            .iter()
            .map(|(tag, b)| match tag {
                0 => TypedMutation::Insert(to_string(b)),
                1 => TypedMutation::Delete(to_string(b)),
                _ => TypedMutation::Update { old: to_string(b), new: format!("{}!", to_string(b)) },
            })
            .collect();
        let applied = executor.apply_mutations("s", &typed_muts).unwrap();
        for (m, &ok) in typed_muts.iter().zip(&applied) {
            let want = match m {
                TypedMutation::Insert(v) => { keys.push(v.clone()); true }
                TypedMutation::Delete(v) => match keys.iter().position(|k| k == v) {
                    Some(at) => { keys.remove(at); true }
                    None => false,
                },
                TypedMutation::Update { old, new } => match keys.iter().position(|k| k == old) {
                    Some(at) => { keys.remove(at); keys.push(new.clone()); true }
                    None => false,
                },
            };
            prop_assert_eq!(ok, want, "{:?}", m);
        }

        let results = executor.execute_batch(&batch).unwrap();
        for ((low, high), r) in queries.iter().zip(&results) {
            prop_assert_eq!(r.count, string_oracle(&keys, low, high), "mutated [{:?}, {:?}]", low, high);
        }

        executor.drive_to_convergence(1_000_000);
        prop_assert!(table.inner().is_converged());
        let results = executor.execute_batch(&batch).unwrap();
        for ((low, high), r) in queries.iter().zip(&results) {
            prop_assert_eq!(r.count, string_oracle(&keys, low, high), "converged [{:?}, {:?}]", low, high);
        }
    }

    /// i64 columns: COUNT **and decoded SUM** are exact through the
    /// sign-flip encoding at every stage.
    #[test]
    fn i64_sums_exact_at_every_stage(
        values in prop::collection::vec(any::<i64>(), 5..200),
        ranges in prop::collection::vec((any::<i64>(), any::<i64>()), 1..12),
        shards in 1..5usize,
    ) {
        let table = Arc::new(
            TypedTable::builder()
                .column(
                    TypedColumnSpec::new("x", values.clone())
                        .with_shards(shards)
                        .with_policy(BudgetPolicy::FixedDelta(0.5)),
                )
                .build(),
        );
        let executor = TypedExecutor::with_config(Arc::clone(&table), foreground());
        let batch: Vec<TypedQuery<i64>> = ranges
            .iter()
            .map(|&(a, b)| TypedQuery::new("x", a.min(b), a.max(b)))
            .collect();
        for stage in 0..3 {
            let results = executor.execute_batch(&batch).unwrap();
            for (q, r) in batch.iter().zip(&results) {
                let expected_count = values.iter().filter(|&&v| v >= q.low && v <= q.high).count() as u64;
                let expected_sum: i128 = values
                    .iter()
                    .filter(|&&v| v >= q.low && v <= q.high)
                    .map(|&v| v as i128)
                    .sum();
                prop_assert_eq!(r.count, expected_count, "stage {} [{}, {}]", stage, q.low, q.high);
                prop_assert_eq!(r.sum, Some(expected_sum), "stage {} [{}, {}]", stage, q.low, q.high);
            }
            if stage == 1 {
                executor.drive_to_convergence(1_000_000);
                prop_assert!(table.inner().is_converged());
            }
        }
    }
}

/// 4 to 11 random lower-case letters.
fn random_word(rng: &mut TestRng) -> String {
    let len = 4 + rng.below(8) as usize;
    (0..len)
        .map(|_| (b'a' + rng.below(26) as u8) as char)
        .collect()
}

/// The shard of a string column with the most rows, the steps
/// `advance_shard_by` took it to convergence from cold, and the column's
/// algorithm.
fn converge_biggest_shard(table: &TypedTable<String>) -> (usize, usize, Algorithm) {
    let column = table.inner().column("s").unwrap();
    let (shard, &rows) = column
        .shard_rows()
        .iter()
        .enumerate()
        .max_by_key(|&(_, &rows)| rows)
        .unwrap();
    let steps = column.advance_shard_by(shard, usize::MAX);
    assert!(column.shard_statuses()[shard].converged);
    (rows, steps, column.algorithm())
}

#[test]
fn a_hot_prefix_shard_converges_within_twice_a_uniform_shard() {
    // pibench's `typed_multicol` names: 90% are `customer` plus six
    // digits, one 8-byte prefix code. The equi-depth split keys land on
    // that code, so it is the minimum of one big shard.
    let mut rng = TestRng::new(29);
    let names: Vec<String> = (0..100_000)
        .map(|_| {
            if rng.below(10) < 9 {
                format!("customer{:06}", rng.below(1_000_000))
            } else {
                random_word(&mut rng)
            }
        })
        .collect();
    let table = TypedTable::builder()
        .column(TypedColumnSpec::new("s", names).with_shards(4))
        .build();
    let (rows, hot_steps, algorithm) = converge_biggest_shard(&table);
    assert_eq!(algorithm, Algorithm::Quicksort, "the decision tree's pick");
    assert!(rows > 90_000, "{rows} rows in the biggest shard");

    let words: Vec<String> = (0..rows).map(|_| random_word(&mut rng)).collect();
    let table = TypedTable::builder()
        .column(
            TypedColumnSpec::new("s", words)
                .with_shards(1)
                .with_choice(AlgorithmChoice::Fixed(Algorithm::Quicksort)),
        )
        .build();
    let (_, uniform_steps, _) = converge_biggest_shard(&table);
    assert!(
        hot_steps <= 2 * uniform_steps,
        "{hot_steps} steps on the hot shard, {uniform_steps} on a uniform one"
    );
}
