//! The oracle: a sorted-`Vec` mirror of one `u64` column that the expected
//! answers are computed from, outside all timing. It shares no code with
//! the engine beyond the [`ScanResult`] and [`Mutation`] value types.

use std::collections::BTreeMap;

use pi_core::mutation::Mutation;
use pi_storage::ScanResult;

/// The live multiset of one column: the sorted initial values with prefix
/// sums, plus the net occurrence change per value since then. Mutations
/// touch only the map, so a long write stream stays cheap to mirror.
#[derive(Clone)]
pub struct Mirror {
    sorted: Vec<u64>,
    /// `prefix[i]` = sum of `sorted[..i]`.
    prefix: Vec<u128>,
    delta: BTreeMap<u64, i64>,
}

impl Mirror {
    pub fn new(values: &[u64]) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let mut prefix = Vec::with_capacity(sorted.len() + 1);
        let mut acc = 0u128;
        prefix.push(acc);
        for &v in &sorted {
            acc += v as u128;
            prefix.push(acc);
        }
        Mirror {
            sorted,
            prefix,
            delta: BTreeMap::new(),
        }
    }

    /// The initial value of the given rank, for generators that want a
    /// value that exists in a given part of the data.
    pub fn value_at_rank(&self, rank: usize) -> u64 {
        self.sorted[rank.min(self.sorted.len() - 1)]
    }

    /// Whether the live multiset is the initial one again.
    pub fn is_initial(&self) -> bool {
        self.delta.is_empty()
    }

    /// `SUM, COUNT WHERE low <= v <= high` over the live multiset.
    pub fn range(&self, low: u64, high: u64) -> ScanResult {
        if low > high {
            return ScanResult::EMPTY;
        }
        let from = self.sorted.partition_point(|&v| v < low);
        let to = self.sorted.partition_point(|&v| v <= high);
        let mut sum = (self.prefix[to] - self.prefix[from]) as i128;
        let mut count = (to - from) as i64;
        for (&v, &net) in self.delta.range(low..=high) {
            sum += v as i128 * net as i128;
            count += net;
        }
        ScanResult {
            sum: sum as u128,
            count: count as u64,
        }
    }

    fn live_count_of(&self, v: u64) -> i64 {
        let from = self.sorted.partition_point(|&x| x < v);
        let to = self.sorted.partition_point(|&x| x <= v);
        (to - from) as i64 + self.delta.get(&v).copied().unwrap_or(0)
    }

    fn bump(&mut self, v: u64, by: i64) {
        let net = self.delta.entry(v).or_insert(0);
        *net += by;
        if *net == 0 {
            self.delta.remove(&v);
        }
    }

    /// Applies one mutation with the engine's multiset semantics: inserts
    /// always apply, deletes and updates only when a live victim exists.
    pub fn apply(&mut self, mutation: &Mutation) -> bool {
        match *mutation {
            Mutation::Insert(v) => {
                self.bump(v, 1);
                true
            }
            Mutation::Delete(v) => {
                let live = self.live_count_of(v) > 0;
                if live {
                    self.bump(v, -1);
                }
                live
            }
            Mutation::Update { old, new } => {
                let live = self.live_count_of(old) > 0;
                if live {
                    self.bump(old, -1);
                    self.bump(new, 1);
                }
                live
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute(values: &[u64], low: u64, high: u64) -> ScanResult {
        let hits = values.iter().filter(|&&v| low <= v && v <= high);
        ScanResult {
            sum: hits.clone().map(|&v| v as u128).sum(),
            count: hits.count() as u64,
        }
    }

    #[test]
    fn mirror_tracks_a_brute_force_multiset_under_mutations() {
        let mut rng = crate::gen::Rng::new(3, 0);
        let mut values = crate::gen::uniform(&mut rng, 500, 200);
        let mut mirror = Mirror::new(&values);
        for _ in 0..2_000 {
            let (a, b) = (rng.below(220), rng.below(220));
            let m = match rng.below(3) {
                0 => Mutation::Insert(a),
                1 => Mutation::Delete(a),
                _ => Mutation::Update { old: a, new: b },
            };
            let victim = match m {
                Mutation::Insert(_) => None,
                Mutation::Delete(v) | Mutation::Update { old: v, .. } => {
                    Some(values.iter().position(|&x| x == v))
                }
            };
            let expected = !matches!(victim, Some(None));
            assert_eq!(mirror.apply(&m), expected, "{m:?}");
            if expected {
                if let Some(Some(at)) = victim {
                    values.swap_remove(at);
                }
                match m {
                    Mutation::Insert(v) | Mutation::Update { new: v, .. } => values.push(v),
                    Mutation::Delete(_) => {}
                }
            }
            let (low, high) = (rng.below(220), rng.below(220));
            assert_eq!(mirror.range(low, high), brute(&values, low, high));
        }
    }
}
