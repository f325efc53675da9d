//! Property test for the B+-tree's block prefix sums: on sorted arrays
//! with duplicates and `u64::MAX` values, `StaticBTree::range_sum` must
//! equal the predicated full scan for every range — at the leaf counts
//! where the block arithmetic has its edges (0, 1, one and two blocks ± 1,
//! powers of the fan-out ± 1) and for fan-outs on both sides of the
//! 256-leaf block floor.

use proptest::prelude::*;

use pi_storage::scan::scan_range_sum;
use pi_storage::{StaticBTree, Value};

/// Largest leaf array the edge lengths reach.
const MAX_LEN: usize = 20_000;

/// Leaf counts at which a tree of this fan-out changes shape.
fn edge_lengths(fanout: usize) -> Vec<usize> {
    let block = fanout * 256usize.div_ceil(fanout);
    let mut edges = vec![0, 1];
    let mut around = |n: usize| edges.extend([n - 1, n, n + 1]);
    around(block);
    around(2 * block);
    let mut power = fanout;
    while power <= MAX_LEN {
        around(power);
        power *= fanout;
    }
    edges
}

/// SplitMix64: the data must be a function of the generated seed alone.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `len` sorted values: mostly draws from a domain small enough to repeat,
/// the rest `u64::MAX` and its neighbours, so block sums overflow `u64`.
fn sorted_leaves(seed: u64, len: usize, domain: u64) -> Vec<Value> {
    let mut state = seed;
    let mut leaves: Vec<Value> = (0..len)
        .map(|_| match next(&mut state) % 8 {
            0 => Value::MAX,
            1 => Value::MAX - next(&mut state) % 3,
            _ => next(&mut state) % domain,
        })
        .collect();
    leaves.sort_unstable();
    leaves
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn range_sum_equals_full_scan(
        seed in any::<u64>(),
        fanout_pick in 0usize..6,
        length_pick in 0usize..64,
        domain in 1u64..5_000,
        bounds in prop::collection::vec((any::<u64>(), any::<u64>()), 1..24),
    ) {
        let fanout = [2, 3, 8, 64, 256, 300][fanout_pick];
        let edges = edge_lengths(fanout);
        let len = edges[length_pick % edges.len()];
        let leaves = sorted_leaves(seed, len, domain);
        let tree = StaticBTree::build(&leaves, fanout);
        // Bounds taken from the data (so runs of duplicates are cut at both
        // ends), nudged by one, and the two extremes.
        let bound = |pick: u64| match (pick % 5, leaves.get(pick as usize % len.max(1))) {
            (0, _) | (_, None) => pick,
            (1, Some(&v)) => v.saturating_sub(1),
            (2, Some(&v)) => v.saturating_add(1),
            (_, Some(&v)) => v,
        };
        let mut ranges: Vec<(Value, Value)> =
            bounds.iter().map(|&(a, b)| (bound(a), bound(b))).collect();
        ranges.push((0, Value::MAX));
        for (a, b) in ranges {
            for (low, high) in [(a.min(b), a.max(b)), (a.max(b), a.min(b))] {
                prop_assert_eq!(
                    tree.range_sum(&leaves, low, high),
                    scan_range_sum(&leaves, low, high),
                    "fanout {}, {} leaves, [{}, {}]", fanout, len, low, high
                );
            }
        }
    }
}
