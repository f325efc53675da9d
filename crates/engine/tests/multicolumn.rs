//! Multi-column serving: conjunction planning, metamorphic
//! order-independence (every permutation of a predicate list, at every
//! refinement stage and across row mutations), the empty-driving-scan
//! shortcut, grouped-aggregate cache freshness under mutation,
//! heterogeneous tables, and empty-column digests.
//!
//! The planner-pinning tests fix the two decision inputs the issue
//! names: refinement state ρ breaks selectivity ties towards converged
//! columns, and a large selectivity gap (0.1% vs 90%) overrides any
//! convergence gap. The aggregate-cache regression is the
//! write-then-read race: a grouped aggregate racing a mutation on the
//! same shard must never serve the pre-mutation cached digest.

use std::sync::Arc;

use pi_engine::{
    EngineError, ErasedColumn, ErasedKey, ErasedSum, ExecutorConfig, GroupedQuery, MultiColumnSpec,
    MultiExecutor, MultiTable, Predicate, RowMutation,
};
use pi_obs::MetricsRegistry;
use pi_workloads::multicol::{conjunction_ranges, hetero_rows, u64_columns};
use pi_workloads::Distribution;

/// Foreground-only inner executor: no maintenance floor, no background
/// threads, so tests fully control each column's refinement state.
fn foreground() -> ExecutorConfig {
    ExecutorConfig {
        worker_threads: 2,
        maintenance_steps: 0,
        background_maintenance: false,
    }
}

/// Converges every shard of one inner column, leaving its siblings
/// untouched.
fn converge_column(table: &MultiTable, pos: usize) {
    let column = &table.inner().columns()[pos];
    for shard in 0..column.shard_count() {
        column.advance_shard_by(shard, usize::MAX);
    }
    assert!(column.is_converged());
}

fn two_u64_columns(rows: usize, domain: u64, seed: u64) -> Arc<MultiTable> {
    let mut cols = u64_columns(2, rows, domain, seed).into_iter();
    Arc::new(
        MultiTable::builder()
            .column(MultiColumnSpec::new(
                "a",
                ErasedColumn::U64(cols.next().unwrap()),
            ))
            .column(MultiColumnSpec::new(
                "b",
                ErasedColumn::U64(cols.next().unwrap()),
            ))
            .build(),
    )
}

/// Oracle for a u64/u64 conjunction: filter the raw rows.
fn conj_oracle(a: &[u64], b: &[u64], ra: (u64, u64), rb: (u64, u64)) -> (u64, u128, u128) {
    let mut count = 0;
    let (mut sum_a, mut sum_b) = (0u128, 0u128);
    for (&va, &vb) in a.iter().zip(b) {
        if va >= ra.0 && va <= ra.1 && vb >= rb.0 && vb <= rb.1 {
            count += 1;
            sum_a += va as u128;
            sum_b += vb as u128;
        }
    }
    (count, sum_a, sum_b)
}

#[test]
fn planner_breaks_selectivity_ties_towards_the_converged_column() {
    // Both columns hold the *same* data, so identical bounds give
    // identical selectivity estimates; only ρ differs.
    let values = u64_columns(1, 20_000, 100_000, 7).pop().unwrap();
    let table = Arc::new(
        MultiTable::builder()
            .column(MultiColumnSpec::new(
                "cold",
                ErasedColumn::U64(values.clone()),
            ))
            .column(MultiColumnSpec::new("warm", ErasedColumn::U64(values)))
            .build(),
    );
    converge_column(&table, 1);
    let exec = MultiExecutor::with_config(Arc::clone(&table), foreground());
    let predicates = [
        Predicate::between_u64("cold", 10_000, 30_000),
        Predicate::between_u64("warm", 10_000, 30_000),
    ];
    let plan = exec.plan(&predicates).unwrap();
    assert_eq!(plan.driving, 1, "tie on selectivity → the converged column");
    assert!(plan.stats[1].rho > plan.stats[0].rho);
    assert!((plan.stats[0].selectivity - plan.stats[1].selectivity).abs() < 1e-9);

    // And flipped predicate order flips the index but not the column.
    let flipped = [predicates[1].clone(), predicates[0].clone()];
    assert_eq!(exec.plan(&flipped).unwrap().driving, 0);
}

#[test]
fn selectivity_gap_overrides_any_convergence_gap() {
    // "a" is fully converged but its predicate matches ~90% of the
    // domain; "b" is stone cold at ~0.1%. The planner must drive "b":
    // validating 90% of the table costs ~900× the selective scan.
    let table = two_u64_columns(20_000, 1_000_000, 11);
    converge_column(&table, 0);
    let exec = MultiExecutor::with_config(Arc::clone(&table), foreground());
    let ranges = &conjunction_ranges(&[0.9, 0.001], 1_000_000, 1, 13)[0];
    let predicates = [
        Predicate::between_u64("a", ranges[0].0, ranges[0].1),
        Predicate::between_u64("b", ranges[1].0, ranges[1].1),
    ];
    let plan = exec.plan(&predicates).unwrap();
    assert_eq!(plan.driving, 1, "0.1% beats 90% regardless of ρ");
    assert!(plan.stats[0].selectivity > 0.5);
    assert!(plan.stats[1].selectivity < 0.05);
}

/// Every ordering of a three-predicate list.
const ORDERS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

/// Executes `predicates` in every order and holds each answer to the
/// first: same count, sums realigned to the permuted predicate list.
/// Returns the answer in the given order.
fn execute_in_every_order(
    exec: &MultiExecutor,
    predicates: &[Predicate; 3],
) -> pi_engine::ConjunctionAnswer {
    let base = exec.execute(predicates).unwrap();
    for order in ORDERS {
        let permuted: Vec<Predicate> = order.iter().map(|&p| predicates[p].clone()).collect();
        let answer = exec.execute(&permuted).unwrap();
        assert_eq!(answer.count, base.count, "order {order:?}");
        let realigned: Vec<_> = order.iter().map(|&p| base.sums[p]).collect();
        assert_eq!(answer.sums, realigned, "order {order:?}");
    }
    base
}

#[test]
fn predicate_order_never_changes_the_result_set() {
    let cols = u64_columns(2, 8_000, 50_000, 17);
    let (a, b) = (cols[0].clone(), cols[1].clone());
    let table = two_u64_columns(8_000, 50_000, 17);
    // Skew the refinement state so the driving column is not simply the
    // most selective one.
    converge_column(&table, 1);
    let exec = MultiExecutor::with_config(Arc::clone(&table), foreground());
    for conj in conjunction_ranges(&[0.4, 0.02], 50_000, 12, 19) {
        let (ra, rb) = (conj[0], conj[1]);
        // A second range on "a": same-column predicates intersect.
        let ra2 = (ra.0 + (ra.1 - ra.0) / 4, u64::MAX);
        let predicates = [
            Predicate::between_u64("a", ra.0, ra.1),
            Predicate::between_u64("b", rb.0, rb.1),
            Predicate::between_u64("a", ra2.0, ra2.1),
        ];
        let x = execute_in_every_order(&exec, &predicates);
        // And all of them agree with the raw-row oracle.
        let (count, sum_a, sum_b) = conj_oracle(&a, &b, (ra2.0, ra.1), rb);
        assert_eq!(x.count, count, "a={ra:?}∩{ra2:?} b={rb:?}");
        assert_eq!(x.sums[0], Some(ErasedSum::U64(sum_a)));
        assert_eq!(x.sums[1], Some(ErasedSum::U64(sum_b)));
        assert_eq!(x.sums[2], x.sums[0]);
    }
}

#[test]
fn three_domain_conjunctions_are_order_independent_at_every_stage_and_across_mutations() {
    let (ids, floats, strings) = hetero_rows(Distribution::Skewed, 4_000, 100.0, 53);
    let table = Arc::new(
        MultiTable::builder()
            .column(MultiColumnSpec::new("id", ErasedColumn::U64(ids.clone())))
            .column(MultiColumnSpec::new(
                "temp",
                ErasedColumn::F64(floats.clone()),
            ))
            .column(MultiColumnSpec::new(
                "name",
                ErasedColumn::Str(strings.clone()),
            ))
            .build(),
    );
    let exec = MultiExecutor::with_config(Arc::clone(&table), foreground());
    let mut rows: Vec<(u64, f64, String, bool)> = ids
        .iter()
        .zip(&floats)
        .zip(&strings)
        .map(|((&i, &f), s)| (i, f, s.clone(), true))
        .collect();
    // Inside the hot shared prefix (one code, most rows tie on it), all
    // strings, and a selective id range with −0.0 as a float bound.
    let cases = [
        ((500, 3_500), (-50.0, 50.0), ("progressivd", "progressivq")),
        ((0, u64::MAX), (-100.0, 0.0), ("a", "zzzzzzzzzzzzz")),
        ((1_000, 1_200), (-0.0, 100.0), ("", "progressivz")),
    ];
    let check = |rows: &[(u64, f64, String, bool)], stage: &str| {
        for &(ir, fr, sr) in &cases {
            let predicates = [
                Predicate::between_u64("id", ir.0, ir.1),
                Predicate::new("temp", ErasedKey::F64(fr.0), ErasedKey::F64(fr.1)),
                Predicate::new(
                    "name",
                    ErasedKey::Str(sr.0.into()),
                    ErasedKey::Str(sr.1.into()),
                ),
            ];
            let answer = execute_in_every_order(&exec, &predicates);
            let matching = rows.iter().filter(|(i, f, s, live)| {
                *live
                    && (ir.0..=ir.1).contains(i)
                    && f.total_cmp(&fr.0).is_ge()
                    && f.total_cmp(&fr.1).is_le()
                    && (sr.0..=sr.1).contains(&s.as_str())
            });
            let (count, id_sum) = matching.fold((0, 0u128), |(count, sum), row| {
                (count + 1, sum + row.0 as u128)
            });
            assert!(count > 0, "a vacuous case checks nothing");
            assert_eq!(answer.count, count, "{stage}: {ir:?} {fr:?} {sr:?}");
            assert_eq!(
                answer.sums,
                vec![Some(ErasedSum::U64(id_sum)), None, None],
                "{stage}"
            );
        }
    };
    check(&rows, "cold");
    exec.drive_to_convergence(48);
    check(&rows, "partially refined");
    // Mutations interleaved with refinement: rows inside the hot prefix,
    // at a float bound, and a re-used slot.
    let mutations = [
        RowMutation::Delete(7),
        RowMutation::Insert(vec![
            ErasedKey::U64(1_100),
            ErasedKey::F64(-0.0),
            ErasedKey::Str("progressivm-inserted".into()),
        ]),
        RowMutation::Update {
            row: 11,
            keys: vec![
                ErasedKey::U64(1_150),
                ErasedKey::F64(0.0),
                ErasedKey::Str("progressivd".into()),
            ],
        },
        RowMutation::Delete(11),
        RowMutation::Update {
            row: 12,
            keys: vec![
                ErasedKey::U64(3_500),
                ErasedKey::F64(50.0),
                ErasedKey::Str("progressivq".into()),
            ],
        },
    ];
    assert_eq!(exec.apply_rows(&mutations), vec![true; 5]);
    rows[7].3 = false;
    rows.push((1_100, -0.0, "progressivm-inserted".into(), true));
    rows[11] = (1_150, 0.0, "progressivd".into(), false);
    rows[12] = (3_500, 50.0, "progressivq".into(), true);
    check(&rows, "mutated");
    exec.drive_to_convergence(usize::MAX);
    assert!(table.inner().is_converged());
    check(&rows, "converged");
}

#[test]
fn an_empty_driving_scan_answers_without_a_row_store_pass() {
    let registry = Arc::new(MetricsRegistry::new());
    let table = Arc::new(
        MultiTable::builder()
            .column(MultiColumnSpec::new(
                "id",
                ErasedColumn::U64((0..1_000).collect()),
            ))
            .column(MultiColumnSpec::new(
                "name",
                ErasedColumn::Str((0..1_000).map(|i| format!("row-{i:04}")).collect()),
            ))
            .build(),
    );
    let exec = MultiExecutor::with_metrics(Arc::clone(&table), foreground(), Arc::clone(&registry));
    let counter = |name: &str| registry.snapshot().counter(name).unwrap();
    // No id is ≥ 5000: the estimate is 0, so "id" drives, and its index
    // scan counts nothing — in code space, a superset of the typed range.
    let nothing = [
        Predicate::new(
            "name",
            ErasedKey::Str("row-".into()),
            ErasedKey::Str("row-9".into()),
        ),
        Predicate::between_u64("id", 5_000, 6_000),
    ];
    let answer = exec.execute(&nothing).unwrap();
    assert_eq!((answer.count, answer.driving), (0, 1));
    assert_eq!(answer.sums, vec![None, Some(ErasedSum::U64(0))]);
    assert_eq!(counter("planner.driving.id"), 1);
    assert_eq!(
        counter("planner.survivors_validated"),
        0,
        "no selection was made"
    );
    // A conjunction that does select counts its first selection.
    let some = [nothing[0].clone(), Predicate::between_u64("id", 10, 19)];
    assert_eq!(exec.execute(&some).unwrap().count, 10);
    assert_eq!(counter("planner.survivors_validated"), 10);

    // Delete every row: whatever drives now counts zero.
    let deletes: Vec<RowMutation> = (0..1_000).map(RowMutation::Delete).collect();
    assert_eq!(exec.apply_rows(&deletes), vec![true; 1_000]);
    let answer = exec.execute(&some).unwrap();
    assert_eq!(answer.count, 0);
    assert_eq!(answer.sums, vec![None, Some(ErasedSum::U64(0))]);
    assert_eq!(counter("planner.survivors_validated"), 10);
    assert_eq!(counter("planner.conjunctions"), 3);
}

/// Grouped-aggregate oracle over the live rows of a u64 column
/// (codes are the values themselves).
fn grouped_oracle(rows: &[(u64, bool)], low: u64, high: u64, width: u64) -> Vec<(u64, u64, u128)> {
    use std::collections::BTreeMap;
    let mut cells: BTreeMap<u64, (u64, u128)> = BTreeMap::new();
    for &(v, live) in rows {
        if live {
            let cell = cells.entry(v / width).or_default();
            cell.0 += 1;
            cell.1 += v as u128;
        }
    }
    cells
        .into_iter()
        .filter(|&(bucket, _)| bucket >= low / width && bucket <= high / width)
        .map(|(bucket, (count, sum))| (bucket, count, sum))
        .collect()
}

#[test]
fn grouped_aggregates_match_the_oracle_and_reuse_the_cache() {
    let values = u64_columns(1, 10_000, 4_096, 23).pop().unwrap();
    let registry = Arc::new(MetricsRegistry::new());
    let table = Arc::new(
        MultiTable::builder()
            .column(MultiColumnSpec::new("v", ErasedColumn::U64(values.clone())))
            .build(),
    );
    let exec = MultiExecutor::with_metrics(Arc::clone(&table), foreground(), Arc::clone(&registry));
    let rows: Vec<(u64, bool)> = values.iter().map(|&v| (v, true)).collect();
    let query = GroupedQuery::new("v", ErasedKey::U64(100), ErasedKey::U64(3_000), 256);

    let got = exec.grouped(&query).unwrap();
    let want = grouped_oracle(&rows, 100, 3_000, 256);
    assert_eq!(got.len(), want.len());
    for (g, (bucket, count, sum)) in got.iter().zip(&want) {
        assert_eq!((g.bucket, g.count), (*bucket, *count));
        assert_eq!(g.sum, Some(ErasedSum::U64(*sum)));
        // u64 codes decode to themselves; min/max stay inside the bucket.
        let (min, max) = match (&g.min, &g.max) {
            (Some(ErasedKey::U64(min)), Some(ErasedKey::U64(max))) => (*min, *max),
            other => panic!("u64 groups decode min/max: {other:?}"),
        };
        assert!(min / 256 == g.bucket && max / 256 == g.bucket && min <= max);
    }
    assert_eq!(
        registry.snapshot().counter("planner.agg.cache_hits"),
        Some(0)
    );
    assert!(!exec.aggregate_cache().is_empty());

    // Same query again: served from cache, byte-identical.
    let again = exec.grouped(&query).unwrap();
    assert_eq!(again, got);
    let hits = registry
        .snapshot()
        .counter("planner.agg.cache_hits")
        .unwrap();
    assert!(hits > 0, "unchanged shards must serve cached trees");
}

#[test]
fn completed_mutation_invalidates_the_aggregate_cache() {
    // Write-then-read on the same shard must never serve the
    // pre-mutation digest: `apply_rows` empties the cache slots of every
    // shard it writes to before it releases the row store's write lock.
    let values = u64_columns(1, 6_000, 2_048, 29).pop().unwrap();
    let registry = Arc::new(MetricsRegistry::new());
    let table = Arc::new(
        MultiTable::builder()
            .column(MultiColumnSpec::new("v", ErasedColumn::U64(values.clone())))
            .build(),
    );
    let exec = MultiExecutor::with_metrics(Arc::clone(&table), foreground(), Arc::clone(&registry));
    let mut rows: Vec<(u64, bool)> = values.iter().map(|&v| (v, true)).collect();
    let query = GroupedQuery::new("v", ErasedKey::U64(0), ErasedKey::U64(2_047), 128);

    // Warm the cache, then mutate rows that land inside cached buckets.
    let before = exec.grouped(&query).unwrap();
    assert_eq!(
        before.iter().map(|g| g.count).sum::<u64>(),
        rows.len() as u64
    );
    let applied = exec.apply_rows(&[
        RowMutation::Delete(0),
        RowMutation::Insert(vec![ErasedKey::U64(values[0])]),
        RowMutation::Update {
            row: 1,
            keys: vec![ErasedKey::U64((values[1] + 1_000) % 2_048)],
        },
        RowMutation::Delete(2),
    ]);
    assert_eq!(applied, vec![true; 4]);
    rows[0].1 = false;
    rows.push((values[0], true));
    rows[1].0 = (values[1] + 1_000) % 2_048;
    rows[2].1 = false;

    // The very next read must observe the post-mutation multiset.
    let after = exec.grouped(&query).unwrap();
    let want = grouped_oracle(&rows, 0, 2_047, 128);
    assert_eq!(after.len(), want.len());
    for (g, (bucket, count, sum)) in after.iter().zip(&want) {
        assert_eq!(
            (g.bucket, g.count, g.sum),
            (*bucket, *count, Some(ErasedSum::U64(*sum)))
        );
    }
    assert_ne!(after, before, "the mutations changed touched buckets");
    let snapshot = registry.snapshot();
    assert!(
        snapshot.counter("planner.agg.cache_invalidations").unwrap() > 0,
        "stale stamps must be counted as invalidations"
    );

    // Deletes of dead rows are rejected and leave the cache current.
    assert_eq!(exec.apply_rows(&[RowMutation::Delete(0)]), vec![false]);
    assert_eq!(exec.grouped(&query).unwrap(), after);
}

/// A grouped query looped on one thread while another applies a fixed
/// script of single-row writes: every answer is the oracle after some
/// prefix of the script, and the prefixes the answers match never go
/// backwards. The query spans every bucket, so each write changes the
/// answer. No sleeps: the reader stops once it has read after the
/// writer finished, or after a fixed number of reads, and one more read
/// after the writer joined must see the whole script.
#[test]
fn grouped_answers_beside_a_writer_follow_the_write_order() {
    const WRITES: usize = 300;
    const MAX_READS: usize = 100_000;
    let values = u64_columns(1, 4_000, 2_048, 37).pop().unwrap();
    let table = Arc::new(
        MultiTable::builder()
            .column(MultiColumnSpec::new("v", ErasedColumn::U64(values.clone())))
            .build(),
    );
    let exec = MultiExecutor::with_config(Arc::clone(&table), foreground());
    let query = GroupedQuery::new("v", ErasedKey::U64(0), ErasedKey::U64(2_047), 128);

    // The script, and the oracle after each of its prefixes.
    let mut rng = pi_core::testing::TestRng::new(41);
    let mut rows: Vec<(u64, bool)> = values.iter().map(|&v| (v, true)).collect();
    let mut oracles = vec![grouped_oracle(&rows, 0, 2_047, 128)];
    let mut script = Vec::with_capacity(WRITES);
    for i in 0..WRITES {
        let mut live_row = || loop {
            let row = rng.below(rows.len() as u64) as usize;
            if rows[row].1 {
                return row;
            }
        };
        let write = match i % 3 {
            0 => {
                let v = rng.below(2_048);
                rows.push((v, true));
                RowMutation::Insert(vec![ErasedKey::U64(v)])
            }
            1 => {
                let row = live_row();
                rows[row].1 = false;
                RowMutation::Delete(row)
            }
            _ => {
                let row = live_row();
                let v = (rows[row].0 + 1 + rng.below(2_047)) % 2_048;
                rows[row].0 = v;
                RowMutation::Update {
                    row,
                    keys: vec![ErasedKey::U64(v)],
                }
            }
        };
        script.push(write);
        oracles.push(grouped_oracle(&rows, 0, 2_047, 128));
    }

    let answer = || -> Vec<(u64, u64, u128)> {
        exec.grouped(&query)
            .unwrap()
            .into_iter()
            .map(|g| match g.sum {
                Some(ErasedSum::U64(sum)) => (g.bucket, g.count, sum),
                other => panic!("u64 groups sum exactly: {other:?}"),
            })
            .collect()
    };
    // Warm the cache before the writer starts, so every write lands on
    // cached trees.
    assert_eq!(answer(), oracles[0]);
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for write in &script {
                assert_eq!(exec.apply_rows(std::slice::from_ref(write)), vec![true]);
            }
            done.store(true, std::sync::atomic::Ordering::Release);
        });
        // Each answer is searched for from the previous answer's prefix
        // on, so one that matches only an earlier prefix panics: that
        // search is the "never go backwards" check.
        let mut last = 0;
        for _ in 0..MAX_READS {
            let finished = done.load(std::sync::atomic::Ordering::Acquire);
            let answer = answer();
            last = (last..=WRITES)
                .find(|&prefix| oracles[prefix] == answer)
                .unwrap_or_else(|| panic!("an answer matches no prefix from {last} on"));
            if finished {
                break;
            }
        }
    });
    assert_eq!(answer(), oracles[WRITES], "the read after the writer");
}

#[test]
fn heterogeneous_conjunctions_are_exact_at_every_stage() {
    let (ids, floats, strings) = hetero_rows(Distribution::Skewed, 6_000, 500.0, 31);
    let table = Arc::new(
        MultiTable::builder()
            .column(MultiColumnSpec::new("id", ErasedColumn::U64(ids.clone())))
            .column(MultiColumnSpec::new(
                "temp",
                ErasedColumn::F64(floats.clone()),
            ))
            .column(MultiColumnSpec::new(
                "name",
                ErasedColumn::Str(strings.clone()),
            ))
            .build(),
    );
    let exec = MultiExecutor::with_config(Arc::clone(&table), foreground());
    let oracle = |ir: (u64, u64), fr: (f64, f64), sr: (&str, &str)| -> u64 {
        (0..ids.len())
            .filter(|&r| {
                ids[r] >= ir.0
                    && ids[r] <= ir.1
                    && floats[r] >= fr.0
                    && floats[r] <= fr.1
                    && strings[r].as_str() >= sr.0
                    && strings[r].as_str() <= sr.1
            })
            .count() as u64
    };
    // The skewed string data piles 90% of rows onto the "progressiv" hot
    // prefix — these bounds share its 8-byte code, so code-space
    // candidate selection over-selects the whole hot set and only exact
    // full-key validation can correct it.
    let cases = [
        ((0, 3_000), (-250.0, 250.0), ("progressiva", "progressivz")),
        ((1_000, 5_999), (0.0, 500.0), ("a", "zzzzzzzzzzzzz")),
        ((0, u64::MAX), (-500.0, 0.0), ("progressivc", "progressivm")),
    ];
    let run = |exec: &MultiExecutor| {
        for &(ir, fr, sr) in &cases {
            let predicates = [
                Predicate::new("id", ErasedKey::U64(ir.0), ErasedKey::U64(ir.1)),
                Predicate::new("temp", ErasedKey::F64(fr.0), ErasedKey::F64(fr.1)),
                Predicate::new(
                    "name",
                    ErasedKey::Str(sr.0.into()),
                    ErasedKey::Str(sr.1.into()),
                ),
            ];
            let answer = exec.execute(&predicates).unwrap();
            assert_eq!(answer.count, oracle(ir, fr, sr), "{ir:?} {fr:?} {sr:?}");
            // Sum capability: exact for u64, gated off for f64/string.
            assert!(matches!(answer.sums[0], Some(ErasedSum::U64(_))));
            assert_eq!(answer.sums[1], None);
            assert_eq!(answer.sums[2], None);
        }
    };
    // Cold, partially refined, converged: exact at every stage.
    run(&exec);
    exec.drive_to_convergence(64);
    run(&exec);
    exec.drive_to_convergence(usize::MAX);
    assert!(table.inner().is_converged());
    run(&exec);
}

#[test]
fn heterogeneous_mutations_keep_conjunctions_exact() {
    let (ids, floats, strings) = hetero_rows(Distribution::UniformRandom, 2_000, 100.0, 37);
    let table = Arc::new(
        MultiTable::builder()
            .column(MultiColumnSpec::new("id", ErasedColumn::U64(ids.clone())))
            .column(MultiColumnSpec::new(
                "temp",
                ErasedColumn::F64(floats.clone()),
            ))
            .column(MultiColumnSpec::new(
                "name",
                ErasedColumn::Str(strings.clone()),
            ))
            .build(),
    );
    let exec = MultiExecutor::with_config(Arc::clone(&table), foreground());
    // Mirror the mutations on a plain row vector as ground truth.
    let mut rows: Vec<(u64, f64, String, bool)> = ids
        .iter()
        .zip(&floats)
        .zip(&strings)
        .map(|((&i, &f), s)| (i, f, s.clone(), true))
        .collect();
    let applied = exec.apply_rows(&[
        RowMutation::Delete(10),
        RowMutation::Insert(vec![
            ErasedKey::U64(42),
            ErasedKey::F64(-1.5),
            ErasedKey::Str("inserted-row".into()),
        ]),
        RowMutation::Update {
            row: 20,
            keys: vec![
                ErasedKey::U64(43),
                ErasedKey::F64(2.5),
                ErasedKey::Str("updated-row".into()),
            ],
        },
    ]);
    assert_eq!(applied, vec![true; 3]);
    rows[10].3 = false;
    rows.push((42, -1.5, "inserted-row".into(), true));
    rows[20] = (43, 2.5, "updated-row".into(), true);
    assert_eq!(table.live_rows(), rows.iter().filter(|r| r.3).count());

    for (low, high) in [(0u64, 100u64), (40, 45), (0, u64::MAX)] {
        let predicates = [
            Predicate::between_u64("id", low, high),
            Predicate::new("temp", ErasedKey::F64(-100.0), ErasedKey::F64(100.0)),
            Predicate::new(
                "name",
                ErasedKey::Str("a".into()),
                ErasedKey::Str("zzzz".into()),
            ),
        ];
        let answer = exec.execute(&predicates).unwrap();
        let want = rows
            .iter()
            .filter(|(i, f, s, live)| {
                *live
                    && (low..=high).contains(i)
                    && (-100.0..=100.0).contains(f)
                    && s.as_str() >= "a"
                    && s.as_str() <= "zzzz"
            })
            .count() as u64;
        assert_eq!(answer.count, want, "[{low}, {high}]");
    }
}

#[test]
fn string_keys_past_sixteen_bytes_are_exact_at_every_stage_and_across_mutations() {
    // Names that agree on their first 16 bytes and differ after them (17
    // and 22 bytes), the bare 16-byte prefix, and short names: a string
    // kernel that decided on 16 bytes alone would confuse the long ones.
    const SHARED: &str = "progressive-inde";
    let ids: Vec<u64> = (0..3_000).collect();
    let names: Vec<String> = ids
        .iter()
        .map(|&i| match i % 4 {
            0 => format!("{SHARED}x-{:04}", i * 7 % 1_000),
            1 => SHARED.to_string(),
            2 => format!("{SHARED}{}", (b'a' + (i % 26) as u8) as char),
            _ => format!("p{}", i % 100),
        })
        .collect();
    let table = Arc::new(
        MultiTable::builder()
            .column(MultiColumnSpec::new("id", ErasedColumn::U64(ids.clone())))
            .column(MultiColumnSpec::new(
                "name",
                ErasedColumn::Str(names.clone()),
            ))
            .build(),
    );
    let exec = MultiExecutor::with_config(Arc::clone(&table), foreground());
    let mut rows: Vec<(u64, String, bool)> = ids
        .into_iter()
        .zip(names)
        .map(|(i, s)| (i, s, true))
        .collect();
    // Bounds of 16 and 17 bytes, and 22-byte ones inside the long keys.
    let cases = [
        ((0, u64::MAX), (SHARED, SHARED)),
        ((0, u64::MAX), (SHARED, "progressive-indem")),
        ((500, 2_500), ("progressive-indeb", "progressive-index")),
        ((0, 2_000), ("progressive-index", "progressive-indez")),
        (
            (0, u64::MAX),
            ("progressive-index-0100", "progressive-index-0500"),
        ),
        ((1_000, 3_000), ("p1", "progressive-index-0000")),
    ];
    let check = |rows: &[(u64, String, bool)], stage: &str| {
        for &(ir, (low, high)) in &cases {
            let answer = exec
                .execute(&[
                    Predicate::between_u64("id", ir.0, ir.1),
                    Predicate::new(
                        "name",
                        ErasedKey::Str(low.into()),
                        ErasedKey::Str(high.into()),
                    ),
                ])
                .unwrap();
            let (count, id_sum) = rows
                .iter()
                .filter(|(i, s, live)| {
                    *live && (ir.0..=ir.1).contains(i) && (low..=high).contains(&s.as_str())
                })
                .fold((0, 0u128), |(count, sum), row| {
                    (count + 1, sum + row.0 as u128)
                });
            assert!(count > 0, "a vacuous case checks nothing");
            assert_eq!(answer.count, count, "{stage}: {ir:?} {low:?}..={high:?}");
            assert_eq!(
                answer.sums,
                vec![Some(ErasedSum::U64(id_sum)), None],
                "{stage}"
            );
        }
    };
    check(&rows, "cold");
    exec.drive_to_convergence(usize::MAX);
    assert!(table.inner().is_converged());
    check(&rows, "converged");
    let long = |tail: &str| ErasedKey::Str(format!("{SHARED}{tail}"));
    let mutations = [
        RowMutation::Insert(vec![ErasedKey::U64(1_200), long("x-0300")]),
        RowMutation::Delete(4),
        RowMutation::Update {
            row: 8,
            keys: vec![ErasedKey::U64(1_500), long("x-0499")],
        },
    ];
    assert_eq!(exec.apply_rows(&mutations), vec![true; 3]);
    rows.push((1_200, format!("{SHARED}x-0300"), true));
    rows[4].2 = false;
    rows[8] = (1_500, format!("{SHARED}x-0499"), true);
    check(&rows, "mutated");
}

#[test]
fn emptied_columns_serve_structurally_empty_digests_per_domain() {
    // Empty-column digests are a *count guard*: a column with no live
    // rows materialises no cells at all — never min/max sentinels. Cover
    // all four domains by deleting every row and re-running the grouped
    // aggregate and the conjunction path.
    let columns: Vec<(&str, ErasedColumn, ErasedKey, ErasedKey)> = vec![
        (
            "u",
            ErasedColumn::U64(vec![5, 10, 15]),
            ErasedKey::U64(0),
            ErasedKey::U64(u64::MAX),
        ),
        (
            "i",
            ErasedColumn::I64(vec![-5, 0, 5]),
            ErasedKey::I64(i64::MIN),
            ErasedKey::I64(i64::MAX),
        ),
        (
            "f",
            ErasedColumn::F64(vec![-1.5, 0.0, 2.5]),
            ErasedKey::F64(f64::NEG_INFINITY),
            ErasedKey::F64(f64::INFINITY),
        ),
        (
            "s",
            ErasedColumn::Str(vec!["a".into(), "b".into(), "c".into()]),
            ErasedKey::Str("".into()),
            ErasedKey::Str("~~~~~~~~~~".into()),
        ),
    ];
    for (name, keys, low, high) in columns {
        let table = Arc::new(
            MultiTable::builder()
                .column(MultiColumnSpec::new(name, keys))
                .build(),
        );
        let rows = table.live_rows();
        let exec = MultiExecutor::with_config(Arc::clone(&table), foreground());
        let query = GroupedQuery::new(name, low.clone(), high.clone(), 1u64 << 32);
        assert!(!exec.grouped(&query).unwrap().is_empty());

        let deletes: Vec<RowMutation> = (0..rows).map(RowMutation::Delete).collect();
        assert_eq!(exec.apply_rows(&deletes), vec![true; rows]);
        assert_eq!(table.live_rows(), 0);
        assert_eq!(
            exec.grouped(&query).unwrap(),
            Vec::new(),
            "domain {name}: no live rows → no cells, not sentinel cells"
        );
        let answer = exec.execute(&[Predicate::new(name, low, high)]).unwrap();
        assert_eq!(answer.count, 0);
    }
}

#[test]
fn conjunction_errors_are_typed_and_precise() {
    let table = two_u64_columns(500, 1_000, 41);
    let exec = MultiExecutor::with_config(Arc::clone(&table), foreground());

    assert_eq!(exec.execute(&[]), Err(EngineError::EmptyConjunction));
    assert_eq!(exec.plan(&[]), Err(EngineError::EmptyConjunction));

    let unknown = Predicate::between_u64("missing", 0, 10);
    assert_eq!(
        exec.execute(std::slice::from_ref(&unknown)),
        Err(EngineError::UnknownColumn("missing".into()))
    );
    assert_eq!(
        exec.grouped(&GroupedQuery::new(
            "missing",
            ErasedKey::U64(0),
            ErasedKey::U64(10),
            16
        )),
        Err(EngineError::UnknownColumn("missing".into()))
    );

    let mismatched = Predicate::new("a", ErasedKey::F64(0.0), ErasedKey::F64(1.0));
    assert_eq!(
        exec.execute(&[mismatched]),
        Err(EngineError::DomainMismatch("a".into()))
    );
    assert_eq!(
        exec.grouped(&GroupedQuery::new(
            "a",
            ErasedKey::Str("x".into()),
            ErasedKey::Str("y".into()),
            16
        )),
        Err(EngineError::DomainMismatch("a".into()))
    );

    // A typed-empty predicate (low > high) empties the conjunction
    // without scanning — and an inverted grouped range selects nothing.
    let answer = exec
        .execute(&[
            Predicate::between_u64("a", 0, u64::MAX),
            Predicate::between_u64("b", 10, 9),
        ])
        .unwrap();
    assert_eq!(answer.count, 0);
    assert_eq!(answer.sums, vec![Some(ErasedSum::U64(0)); 2]);
    assert_eq!(
        exec.grouped(&GroupedQuery::new(
            "a",
            ErasedKey::U64(10),
            ErasedKey::U64(9),
            16
        ))
        .unwrap(),
        Vec::new()
    );
}

#[test]
fn planner_metrics_track_conjunctions_and_driving_choices() {
    let registry = Arc::new(MetricsRegistry::new());
    let table = two_u64_columns(4_000, 10_000, 43);
    converge_column(&table, 1);
    let exec = MultiExecutor::with_metrics(Arc::clone(&table), foreground(), Arc::clone(&registry));
    // Equal bounds on equal-size domains: ρ decides, so "b" drives.
    for _ in 0..5 {
        exec.execute(&[
            Predicate::between_u64("a", 100, 5_000),
            Predicate::between_u64("b", 100, 5_000),
        ])
        .unwrap();
    }
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("planner.conjunctions"), Some(5));
    let a = snapshot.counter("planner.driving.a").unwrap();
    let b = snapshot.counter("planner.driving.b").unwrap();
    assert_eq!(a + b, 5);
    assert!(b >= a, "the converged column should win the tie-breaks");
    assert!(snapshot.counter("planner.survivors_validated").unwrap() > 0);
}
