//! Property-based pin for the one refinement kernel: the unchecked
//! scatter against the checked `Vec<Vec<_>>` counting sort. The
//! algorithm-level pins (per-query indexing ops, phases, answers) are in
//! `trajectory_pins.rs`.

use proptest::prelude::*;

use pi_core::kernels::{self, ScatterScratch};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The scatter is a stable grouping identical to the checked
    /// counting-sort reference, for arbitrary bucket counts.
    #[test]
    fn scatter_matches_scalar_reference(
        values in prop::collection::vec(any::<u64>(), 0..2_000),
        bucket_bits in 1..9u32,
    ) {
        let buckets = 1usize << bucket_bits;
        let mask = (buckets - 1) as u64;
        let digit = move |v: u64| (v & mask) as u8;
        let mut scratch = ScatterScratch::new();
        let (grouped, offsets) = scratch.scatter(&values, buckets, &digit);
        let (want_grouped, want_offsets) = kernels::scatter_scalar(&values, buckets, &digit);
        prop_assert_eq!(grouped, &want_grouped[..]);
        prop_assert_eq!(&offsets[..=buckets], &want_offsets[..]);
    }
}
