//! `typed_multicol` — the typed facades: a `TypedTable<String>` of skewed
//! strings and a `MultiTable` of heterogeneous rows (`u64` id, `f64` temp,
//! skewed string name). An op is one call; a cycle of ops is three planned
//! three-predicate conjunctions (one driven by each column), 12 grouped
//! aggregates, 24 typed string ranges and, every other cycle, a two-row
//! `apply_rows`, which makes the next grouped
//! aggregates rebuild the digest trees of the shards it touched. In the
//! cold stream that call deletes one row and inserts another; in the hot
//! segment it inserts a row and deletes it again, so every replay of the
//! segment finds the same rows. [`probe`] records each kind's share of the
//! hot time as `engine.kind_share.*`. String ranges outnumber the cheap
//! calls, so the median op is safely a string range and not the edge
//! between two kinds.
//!
//! `engine::typed`, `multicol`, `planner`, `erased` and `storage::digest`
//! and `encoding` dominate and the plain-`u64` fast path is bypassed: this
//! is what "one table, not three" must not slow down, and where dictionary
//! codes and batched survivor validation should show. Nine strings in ten
//! share one prefix code, so nearly every string range takes the
//! tie-break side path and a name-driven conjunction validates nine rows
//! in ten.

use std::collections::BTreeMap;
use std::sync::Arc;

use pi_core::decision::Algorithm;
use pi_engine::{
    AlgorithmChoice, ErasedColumn, ErasedKey, ErasedSum, GroupRow, GroupedQuery, MultiColumnSpec,
    MultiExecutor, MultiTable, Predicate, RowMutation, Table, TableQuery, TypedColumnSpec,
    TypedExecutor, TypedResult, TypedTable,
};
use pi_obs::MetricsRegistry;

use super::{pinned_executor_config, spread_over_domain, Batch, Scale};
use crate::estimators::low;
use crate::gen::{skewed_string, skewed_strings, uniform, Rng, HOT_PREFIX};
use crate::lifecycle::{hot_segment, timed, Op, Tally, Workload};
use crate::oracle::Mirror;
use crate::peel::PeelInput;
use crate::probes::Layers;
use crate::trace::{Recorder, SpanTotal};

const SHARDS: usize = 4;
const GROUPED_PER_CYCLE: usize = 12;
const STRINGS_PER_CYCLE: usize = 24;
/// K, in cycles. A `MultiTable` column is only refined by the conjunction
/// it drives, one per cycle, so these converge last — after 40 to 55
/// cycles on the seed commit.
const COLD_CYCLES: usize = 80;
/// Cycles in the hot segment.
const HOT_CYCLES: usize = 6;
/// Grouped aggregates bucket the id domain 64 ways.
const BUCKETS: u64 = 64;
const PEEL_BATCHES: usize = 512;
/// Replays of the hot segment the probe records spans of.
const PROBE_SEGMENTS: usize = 4;

enum Call {
    Conjunction {
        predicates: Vec<Predicate>,
        count: u64,
        id_sum: u128,
    },
    Grouped {
        query: GroupedQuery,
        expected: Vec<GroupRow>,
    },
    Strings {
        low: String,
        high: String,
        count: u64,
    },
    Rows {
        mutations: Vec<RowMutation>,
        applied: Vec<bool>,
    },
    /// Inserts a row and deletes it again in one `apply_rows`.
    RowInAndOut(Vec<ErasedKey>),
}

/// The oracle's copy of the `MultiTable`: the rows in order, which are
/// live, and orderings of the initial rows by each column so a selective
/// predicate is answered from its slice instead of a pass over all rows.
#[derive(Clone)]
struct RowMirror {
    ids: Vec<u64>,
    temps: Vec<f64>,
    names: Vec<String>,
    live: Vec<bool>,
    initial: usize,
    by_id: Vec<u32>,
    by_temp: Vec<u32>,
    by_name: Vec<u32>,
    /// Live ids per grid bucket, and each non-empty bucket's grouped row.
    buckets: BTreeMap<u64, Vec<u64>>,
    cells: BTreeMap<u64, GroupRow>,
    bucket_width: u64,
}

struct Bounds<'a> {
    id: (u64, u64),
    temp: (f64, f64),
    name: (&'a str, &'a str),
}

impl RowMirror {
    fn new(ids: Vec<u64>, temps: Vec<f64>, names: Vec<String>, bucket_width: u64) -> Self {
        let rows = ids.len();
        let order = |cmp: &dyn Fn(&u32, &u32) -> std::cmp::Ordering| {
            let mut rows: Vec<u32> = (0..rows as u32).collect();
            rows.sort_by(cmp);
            rows
        };
        let by_id = order(&|&a, &b| ids[a as usize].cmp(&ids[b as usize]));
        let by_temp = order(&|&a, &b| temps[a as usize].total_cmp(&temps[b as usize]));
        let by_name = order(&|&a, &b| names[a as usize].cmp(&names[b as usize]));
        let mut buckets: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for &id in &ids {
            buckets.entry(id / bucket_width).or_default().push(id);
        }
        let mut mirror = RowMirror {
            live: vec![true; rows],
            initial: rows,
            ids,
            temps,
            names,
            by_id,
            by_temp,
            by_name,
            buckets,
            cells: BTreeMap::new(),
            bucket_width,
        };
        let all: Vec<u64> = mirror.buckets.keys().copied().collect();
        for bucket in all {
            mirror.refresh_cell(bucket);
        }
        mirror
    }

    /// Recomputes one bucket's grouped row from its live ids.
    fn refresh_cell(&mut self, bucket: u64) {
        let ids = &self.buckets[&bucket];
        if ids.is_empty() {
            self.cells.remove(&bucket);
            return;
        }
        let row = GroupRow {
            bucket,
            count: ids.len() as u64,
            sum: Some(ErasedSum::U64(ids.iter().map(|&v| v as u128).sum())),
            min: ids.iter().min().map(|&v| ErasedKey::U64(v)),
            max: ids.iter().max().map(|&v| ErasedKey::U64(v)),
        };
        self.cells.insert(bucket, row);
    }

    fn matches(&self, row: usize, b: &Bounds<'_>) -> bool {
        self.live[row]
            && (b.id.0..=b.id.1).contains(&self.ids[row])
            && self.temps[row].total_cmp(&b.temp.0).is_ge()
            && self.temps[row].total_cmp(&b.temp.1).is_le()
            && self.names[row].as_str() >= b.name.0
            && self.names[row].as_str() <= b.name.1
    }

    /// `COUNT(*), SUM(id)` over the live rows inside all three bounds.
    /// `driver` names the column whose ordering to take candidates from;
    /// it changes the cost of the oracle, never the answer.
    fn conjunction(&self, b: &Bounds<'_>, driver: usize) -> (u64, u128) {
        let slice: &[u32] = match driver {
            0 => {
                let from = self
                    .by_id
                    .partition_point(|&r| self.ids[r as usize] < b.id.0);
                let to = self
                    .by_id
                    .partition_point(|&r| self.ids[r as usize] <= b.id.1);
                &self.by_id[from..to]
            }
            1 => {
                let from = self
                    .by_temp
                    .partition_point(|&r| self.temps[r as usize].total_cmp(&b.temp.0).is_lt());
                let to = self
                    .by_temp
                    .partition_point(|&r| self.temps[r as usize].total_cmp(&b.temp.1).is_le());
                &self.by_temp[from..to]
            }
            _ => {
                let from = self
                    .by_name
                    .partition_point(|&r| self.names[r as usize].as_str() < b.name.0);
                let to = self
                    .by_name
                    .partition_point(|&r| self.names[r as usize].as_str() <= b.name.1);
                &self.by_name[from..to]
            }
        };
        let appended = self.initial..self.ids.len();
        let (mut count, mut sum) = (0u64, 0u128);
        for row in slice.iter().map(|&r| r as usize).chain(appended) {
            if self.matches(row, b) {
                count += 1;
                sum += self.ids[row] as u128;
            }
        }
        (count, sum)
    }

    /// The grouped rows of every non-empty grid bucket `[low, high]`
    /// touches; buckets are whole grid cells.
    fn grouped(&self, low: u64, high: u64) -> Vec<GroupRow> {
        self.cells
            .range(low / self.bucket_width..=high / self.bucket_width)
            .map(|(_, row)| row.clone())
            .collect()
    }

    fn apply(&mut self, mutation: &RowMutation) -> bool {
        match mutation {
            RowMutation::Delete(row) => {
                let live = self.live.get(*row).copied().unwrap_or(false);
                if live {
                    self.live[*row] = false;
                    let bucket = self.ids[*row] / self.bucket_width;
                    let ids = self
                        .buckets
                        .get_mut(&bucket)
                        .expect("a live row is in its bucket");
                    let at = ids
                        .iter()
                        .position(|&v| v == self.ids[*row])
                        .expect("a live row is in its bucket");
                    ids.swap_remove(at);
                    self.refresh_cell(bucket);
                }
                live
            }
            RowMutation::Insert(keys) => {
                let [ErasedKey::U64(id), ErasedKey::F64(temp), ErasedKey::Str(name)] = &keys[..]
                else {
                    panic!("the generator inserts (id, temp, name) rows");
                };
                self.ids.push(*id);
                self.temps.push(*temp);
                self.names.push(name.clone());
                self.live.push(true);
                self.buckets
                    .entry(id / self.bucket_width)
                    .or_default()
                    .push(*id);
                self.refresh_cell(id / self.bucket_width);
                true
            }
            RowMutation::Update { .. } => panic!("the generator issues no row updates"),
        }
    }
}

pub struct TypedMulticol {
    seed: u64,
    strings: Vec<String>,
    ids: Vec<u64>,
    temps: Vec<f64>,
    names: Vec<String>,
    cold: Vec<Call>,
    hot: Vec<Call>,
}

pub struct Facades {
    typed: TypedExecutor<String>,
    multi: MultiExecutor,
    /// Rows appended to `multi` since it was built: the next row's number
    /// is the initial row count plus this.
    appended: usize,
}

/// A string range inside the shared prefix: both bounds tie on its code.
fn hot_string_range(rng: &mut Rng, width: u64) -> (String, String) {
    let low = rng.below(1_000_000 - width);
    (
        format!("{HOT_PREFIX}{low:06}"),
        format!("{HOT_PREFIX}{:06}", low + width),
    )
}

/// A string range outside the shared prefix: half of first letter
/// `letter % 26`.
fn cold_string_range(letter: usize) -> (String, String) {
    let first = (b'a' + (letter % 26) as u8) as char;
    (first.to_string(), format!("{first}m"))
}

impl TypedMulticol {
    pub fn generate(seed: u64, scale: Scale) -> Self {
        let rows = scale.of(100_000);
        let domain = rows as u64 * 16;
        let bucket_width = domain / BUCKETS;
        let strings = skewed_strings(&mut Rng::new(seed, 40), rows);
        let ids = uniform(&mut Rng::new(seed, 41), rows, domain);
        let mut temp_rng = Rng::new(seed, 42);
        let temps: Vec<f64> = (0..rows).map(|_| temp_rng.unit() * 100.0 - 50.0).collect();
        let names = skewed_strings(&mut Rng::new(seed, 43), rows);

        let mut sorted_strings = strings.clone();
        sorted_strings.sort_unstable();
        let mut rng = Rng::new(seed, 44);
        let mut stream = |mirror: &mut RowMirror, cycles: usize, undo_writes: bool| {
            let mut calls = Vec::new();
            for cycle in 0..cycles {
                // Three conjunctions, each with one predicate selective
                // (2%), one half the rows and one everything; the
                // selective one is the id, the temp and the name in turn,
                // so the planner drives — and refines — every column
                // once per cycle.
                for driver in 0..3 {
                    let mut id = (domain / 4, domain / 4 * 3);
                    let mut temp = (-1_000.0, 1_000.0);
                    let mut name = ("a".to_string(), "zzzzzzzzzzzz".to_string());
                    match driver {
                        0 => {
                            let span = domain - domain / 50;
                            let low = (spread_over_domain(cycle) * span as f64) as u64;
                            id = (low, low + domain / 50);
                            temp = (-25.0, 25.0);
                        }
                        1 => {
                            let low = spread_over_domain(cycle) * 98.0 - 50.0;
                            temp = (low, low + 2.0);
                        }
                        _ => {
                            // Inside the shared prefix and outside it in
                            // turn: the prefix is one code in one shard,
                            // and the other shards need their queries too.
                            name = match cycle % 4 {
                                1 => ("a".to_string(), "cm".to_string()),
                                3 => cold_string_range(3 + cycle / 4 * 7 % 23),
                                _ => hot_string_range(&mut rng, 20_000),
                            };
                        }
                    }
                    let (count, id_sum) = mirror.conjunction(
                        &Bounds {
                            id,
                            temp,
                            name: (&name.0, &name.1),
                        },
                        driver,
                    );
                    calls.push(Call::Conjunction {
                        predicates: vec![
                            Predicate::between_u64("id", id.0, id.1),
                            Predicate::new("temp", ErasedKey::F64(temp.0), ErasedKey::F64(temp.1)),
                            Predicate::new("name", ErasedKey::Str(name.0), ErasedKey::Str(name.1)),
                        ],
                        count,
                        id_sum,
                    });
                }
                for _ in 0..GROUPED_PER_CYCLE {
                    let low = rng.below(domain - 2 * bucket_width);
                    let high = low + 2 * bucket_width;
                    calls.push(Call::Grouped {
                        query: GroupedQuery::new(
                            "id",
                            ErasedKey::U64(low),
                            ErasedKey::U64(high),
                            bucket_width,
                        ),
                        expected: mirror.grouped(low, high),
                    });
                }
                for q in 0..STRINGS_PER_CYCLE {
                    // One range in eight lies outside the shared prefix,
                    // and these go through the alphabet in steps of seven:
                    // the small shards beside the prefix's are refined by
                    // these ranges alone, and drawn at random the letters
                    // moved the op at which the shards were fully indexed
                    // by a tenth between seeds.
                    let (low, high) = if q % 8 == 7 {
                        cold_string_range((cycle * STRINGS_PER_CYCLE + q) / 8 * 7)
                    } else {
                        hot_string_range(&mut rng, 2_000)
                    };
                    let count = sorted_strings.partition_point(|s| *s <= high)
                        - sorted_strings.partition_point(|s| *s < low);
                    calls.push(Call::Strings {
                        low,
                        high,
                        count: count as u64,
                    });
                }
                if cycle % 2 == 1 {
                    let deleted = rng.below(mirror.ids.len() as u64) as usize;
                    let inserted = vec![
                        ErasedKey::U64(rng.below(domain)),
                        ErasedKey::F64(rng.unit() * 100.0 - 50.0),
                        ErasedKey::Str(skewed_string(&mut rng)),
                    ];
                    if undo_writes {
                        calls.push(Call::RowInAndOut(inserted));
                    } else {
                        let mutations =
                            vec![RowMutation::Delete(deleted), RowMutation::Insert(inserted)];
                        let applied = mutations.iter().map(|m| mirror.apply(m)).collect();
                        calls.push(Call::Rows { mutations, applied });
                    }
                }
            }
            calls
        };
        // Both streams start from the initial rows: the hot segment runs
        // on a fresh, converged instance.
        let mut mirror = RowMirror::new(ids.clone(), temps.clone(), names.clone(), bucket_width);
        let hot = stream(&mut mirror, scale.of(HOT_CYCLES).max(2), true);
        let cold = stream(&mut mirror, COLD_CYCLES, false);
        TypedMulticol {
            seed,
            strings,
            ids,
            temps,
            names,
            cold,
            hot,
        }
    }

    fn run(&self, facades: &mut Facades, call: &Call, op: usize, rec: &mut Recorder) -> Op {
        match call {
            Call::Conjunction {
                predicates,
                count,
                id_sum,
            } => {
                let (nanos, answer) = timed(|| {
                    rec.span("engine.multicol.execute", op, || {
                        facades.multi.execute(predicates)
                    })
                });
                let ok = answer.is_ok_and(|a| {
                    a.count == *count && a.sums == [Some(ErasedSum::U64(*id_sum)), None, None]
                });
                Op { nanos, ok }
            }
            Call::Grouped { query, expected } => {
                let (nanos, answer) = timed(|| {
                    rec.span("engine.multicol.grouped", op, || {
                        facades.multi.grouped(query)
                    })
                });
                Op {
                    nanos,
                    ok: answer.as_ref() == Ok(expected),
                }
            }
            Call::Strings { low, high, count } => {
                let (low, high) = (low.clone(), high.clone());
                let (nanos, answer) = timed(|| {
                    rec.span("engine.typed.execute_one", op, || {
                        facades.typed.execute_one("name", low, high)
                    })
                });
                let expected = TypedResult {
                    count: *count,
                    sum: None,
                };
                Op {
                    nanos,
                    ok: answer == Ok(expected),
                }
            }
            Call::Rows { mutations, applied } => {
                facades.appended += mutations
                    .iter()
                    .filter(|m| matches!(m, RowMutation::Insert(_)))
                    .count();
                let (nanos, flags) = timed(|| {
                    rec.span("engine.multicol.apply_rows", op, || {
                        facades.multi.apply_rows(mutations)
                    })
                });
                Op {
                    nanos,
                    ok: flags == *applied,
                }
            }
            Call::RowInAndOut(keys) => {
                let row = self.ids.len() + facades.appended;
                facades.appended += 1;
                let mutations = [RowMutation::Insert(keys.clone()), RowMutation::Delete(row)];
                let (nanos, flags) = timed(|| {
                    rec.span("engine.multicol.apply_rows", op, || {
                        facades.multi.apply_rows(&mutations)
                    })
                });
                Op {
                    nanos,
                    ok: flags == [true, true],
                }
            }
        }
    }
}

#[cfg(test)]
impl TypedMulticol {
    pub fn fingerprint(&self) -> u64 {
        self.cold.iter().fold(0, |acc, call| {
            acc.rotate_left(7)
                ^ match call {
                    Call::Conjunction { count, id_sum, .. } => count ^ *id_sum as u64,
                    Call::Grouped { expected, .. } => expected.iter().map(|row| row.count).sum(),
                    Call::Strings { count, .. } => *count,
                    Call::Rows { applied, .. } => applied.len() as u64,
                    Call::RowInAndOut(keys) => keys.len() as u64,
                }
        })
    }
}

pub struct Rows {
    strings: Vec<String>,
    ids: Vec<u64>,
    temps: Vec<f64>,
    names: Vec<String>,
}

impl Workload for TypedMulticol {
    type Inputs = Rows;
    type Instance = Facades;
    type Hot = Facades;

    fn inputs(&self) -> Rows {
        Rows {
            strings: self.strings.clone(),
            ids: self.ids.clone(),
            temps: self.temps.clone(),
            names: self.names.clone(),
        }
    }

    /// Neither typed builder takes tuning parameters, so these tables run
    /// with `TuningParameters::calibrated()`: a start-up probe picks the
    /// sort threshold and the unroll width by timing, once per process.
    /// The picks select between result-identical kernels, so answers and
    /// the op at which the tables are fully indexed still repeat, but how
    /// long refinement takes may differ between two processes that picked
    /// differently: the one source of nondeterminism this benchmark
    /// cannot pin from outside the program. The traced run reports the
    /// picks as `core.tuning.calibrated_*`.
    fn build(&self, rows: Rows, registry: Option<&Arc<MetricsRegistry>>) -> Facades {
        let mut typed = TypedTable::builder()
            .column(TypedColumnSpec::new("name", rows.strings).with_shards(SHARDS));
        let column =
            |name: &str, keys: ErasedColumn| MultiColumnSpec::new(name, keys).with_shards(SHARDS);
        let mut multi = MultiTable::builder()
            .column(column("id", ErasedColumn::U64(rows.ids)))
            .column(column("temp", ErasedColumn::F64(rows.temps)))
            // The decision tree picks Quicksort for skewed data of unknown
            // query shape, and on this column the op at which its one big
            // shard converged ranged from 5.8k to 14k between seeds (the
            // roadmap's stalled convergence on skewed strings). Radix MSD
            // skips the degenerate levels and converges on schedule.
            .column(
                column("name", ErasedColumn::Str(rows.names))
                    .with_choice(AlgorithmChoice::Fixed(Algorithm::RadixsortMsd)),
            );
        let config = pinned_executor_config(1);
        match registry {
            Some(registry) => {
                typed = typed.metrics(Arc::clone(registry));
                multi = multi.metrics(Arc::clone(registry));
                Facades {
                    typed: TypedExecutor::with_metrics(
                        Arc::new(typed.build()),
                        config,
                        Arc::clone(registry),
                    ),
                    multi: MultiExecutor::with_metrics(
                        Arc::new(multi.build()),
                        config,
                        Arc::clone(registry),
                    ),
                    appended: 0,
                }
            }
            None => Facades {
                typed: TypedExecutor::with_config(Arc::new(typed.build()), config),
                multi: MultiExecutor::with_config(Arc::new(multi.build()), config),
                appended: 0,
            },
        }
    }

    fn cold_len(&self) -> usize {
        self.cold.len()
    }

    /// The three first conjunctions (one per driving column) and the
    /// first string range. Not the first grouped aggregate: it builds the
    /// digest trees of one shard or two, depending on where the seed put
    /// its range.
    fn first_touch(&self) -> Vec<usize> {
        vec![0, 1, 2, 3 + GROUPED_PER_CYCLE]
    }

    fn cold_op(&self, facades: &mut Facades, i: usize, rec: &mut Recorder) -> Op {
        self.run(facades, &self.cold[i], i, rec)
    }

    fn tables<'a>(&self, facades: &'a Facades) -> Vec<&'a Table> {
        vec![facades.typed.table().inner(), facades.multi.table().inner()]
    }

    fn converge(&self, facades: &mut Facades) {
        facades.typed.drive_to_convergence(usize::MAX);
        facades.multi.drive_to_convergence(usize::MAX);
    }

    fn warm(&self, facades: Facades, _registry: Option<&Arc<MetricsRegistry>>) -> Facades {
        facades
    }

    fn segment_ops(&self) -> usize {
        self.hot.len()
    }

    fn hot_op(&self, facades: &mut Facades, j: usize, rec: &mut Recorder) -> Op {
        self.run(facades, &self.hot[j], j, rec)
    }

    /// Narrow ranges on the `MultiTable`'s `u64` column, in batches of 8:
    /// what the stack under the typed facades costs for this data.
    fn peel_input(&self) -> PeelInput {
        let domain = self.ids.len() as u64 * 16;
        let mirror = Mirror::new(&self.ids);
        let mut rng = Rng::new(self.seed, 45);
        let batches = (0..PEEL_BATCHES)
            .map(|_| {
                let mut batch = Batch::default();
                for _ in 0..8 {
                    let low = rng.below(domain - domain / 1_000);
                    batch
                        .queries
                        .push(TableQuery::new("id", low, low + domain / 1_000));
                    batch.expected.push(mirror.range(low, low + domain / 1_000));
                }
                batch
            })
            .collect();
        PeelInput {
            columns: vec![("id", self.ids.clone())],
            shards: SHARDS,
            batches,
        }
    }
}

/// The typed layers' numbers — what a string range and a conjunction cost,
/// each kind's share of the hot time, planner, waste ratio and aggregate
/// cache — taken in every traced run, whatever its workload, on a
/// converged instance of this workload built for the purpose: a few
/// recorded replays of the hot segment, then the segment's own
/// conjunctions, grouped aggregates and string ranges once more around
/// the program's counters.
pub fn probe(seed: u64, scale: Scale, tally: &mut Tally, out: &mut Layers) {
    let w = TypedMulticol::generate(seed, scale);
    let registry = Arc::new(MetricsRegistry::new());
    let mut facades = w.build(w.inputs(), Some(&registry));
    w.converge(&mut facades);
    let mut rec = Recorder::on(2 * PROBE_SEGMENTS * w.hot.len());
    for _ in 0..PROBE_SEGMENTS {
        hot_segment(&w, &mut facades, &mut rec, tally);
    }
    let spans = rec.totals(Some("driver.hot_op"));
    let hot_ns: u64 = spans.values().map(|t| t.total_ns).sum();
    let of = |name: &str| {
        *spans
            .get(name)
            .expect("the hot segment has calls of every kind")
    };
    let (strings, conjunctions, grouped) = (
        of("engine.typed.execute_one"),
        of("engine.multicol.execute"),
        of("engine.multicol.grouped"),
    );
    out.insert(
        "engine.typed.string_query_us",
        strings.total_ns as f64 / strings.count as f64 / 1e3,
    );
    out.insert(
        "engine.multicol.execute_us",
        conjunctions.total_ns as f64 / conjunctions.count as f64 / 1e3,
    );
    let share = |kind: SpanTotal| kind.total_ns as f64 / hot_ns as f64;
    out.insert("engine.kind_share.string", share(strings));
    out.insert("engine.kind_share.conjunction", share(conjunctions));
    out.insert("engine.kind_share.grouped", share(grouped));

    let counter = |name: &str| crate::probes::counter(&registry.snapshot(), name);
    let (mut plan_ns, mut returned) = (Vec::new(), 0);
    let validated_before = counter("planner.survivors_validated");
    for call in &w.hot {
        if let Call::Conjunction { predicates, .. } = call {
            let (nanos, plan) = timed(|| facades.multi.plan(predicates));
            std::hint::black_box(plan.is_ok());
            plan_ns.push(nanos as f64);
            returned += facades.multi.execute(predicates).map_or(0, |a| a.count);
        }
    }
    out.insert("engine.planner.plan_us", low(&plan_ns) / 1e3);
    out.insert(
        "engine.planner.survivors_per_result",
        (counter("planner.survivors_validated") - validated_before) / returned.max(1) as f64,
    );

    let tie_breaks_before = counter("engine.tie_break_hits");
    let mut ranges = 0;
    for call in &w.hot {
        if let Call::Strings { low, high, .. } = call {
            let answer = facades.typed.execute_one("name", low.clone(), high.clone());
            std::hint::black_box(answer.is_ok());
            ranges += 1;
        }
    }
    out.insert(
        "engine.typed.tie_break_hits_per_query",
        (counter("engine.tie_break_hits") - tie_breaks_before) / ranges as f64,
    );

    // Last, as it writes rows and does not take them out again.
    let (mut fresh_ns, mut cached_ns) = (Vec::new(), Vec::new());
    for call in &w.hot {
        if let Call::Grouped { query, .. } = call {
            // A row whose id is the range's lower bound lands in a
            // shard the range visits, whose digest tree is then stale.
            facades.multi.apply_rows(&[RowMutation::Insert(vec![
                query.low.clone(),
                ErasedKey::F64(0.0),
                ErasedKey::Str(String::new()),
            ])]);
            fresh_ns.push(timed(|| facades.multi.grouped(query).is_ok()).0 as f64);
            cached_ns.push(timed(|| facades.multi.grouped(query).is_ok()).0 as f64);
        }
    }
    out.insert("engine.multicol.grouped_fresh_us", low(&fresh_ns) / 1e3);
    out.insert("engine.multicol.grouped_cached_us", low(&cached_ns) / 1e3);

    // Every digest-tree lookup is a hit, the first build of its slot,
    // or a rebuild that replaced a stale slot.
    let hits = counter("planner.agg.cache_hits");
    let rebuilt = counter("planner.agg.cache_invalidations");
    let built = facades.multi.aggregate_cache().len() as f64;
    out.insert(
        "engine.agg.cache_hit_ratio",
        hits / (hits + rebuilt + built),
    );
}
