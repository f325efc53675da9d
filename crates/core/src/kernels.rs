//! The radix scatter every creation step and every bucket-to-bucket
//! refinement step runs.
//!
//! The paper's refinement loops move one element per iteration through a
//! block lookup (`i / cap`, `i % cap` — an integer division per element)
//! and an unpredictable per-bucket branch. [`ScatterScratch::scatter`]
//! does the same work over a contiguous slice in two passes: a counting
//! pass that also records each element's digit, then an unchecked scatter
//! into a reused output buffer. The result groups elements by digit, so
//! callers append whole runs per bucket (memcpy-class) instead of pushing
//! one element at a time.
//!
//! [`scatter_scalar`] is the checked reference the tests pin it to.
//!
//! The refinement's leaf sorts (nodes of at most 4096 values, the
//! L1-cache-sized cutoff of the crate's internal incremental quicksort)
//! run `ScatterScratch::sort_leaf`: LSD passes of the same
//! scatter over the node's actual value range when it is narrow,
//! `sort_unstable` otherwise.
//!
//! # Safety
//!
//! The single `unsafe` block (the scatter's write pass) does not trust
//! the caller's digit closure to be pure. The counting pass *stores*
//! every digit it counted in a `Vec<u8>`; the write pass re-reads those
//! stored digits instead of re-invoking the closure. Counts and
//! destinations therefore agree by construction, and each bucket cursor
//! writes exactly `counts[d]` elements into its reserved range.

use pi_storage::Value;

use crate::buckets::BucketSet;

/// Maximum digit fan-out the scatter supports (one byte).
pub(crate) const MAX_SCATTER_BUCKETS: usize = 256;

/// Leaf sorts of fewer values go to `sort_unstable`: a radix pass pays
/// two prefix sums over up to 256 buckets whatever the length. Measured on
/// uniform values over 16 bits (two passes), ns per element against
/// `sort_unstable`, best of 9, 2-vCPU Xeon: 14.0–14.7 against 14.0–14.8 at
/// 128 values (break-even), 11.2–12.6 against 15.6–16.0 at 256.
const LEAF_RADIX_MIN_ELEMENTS: usize = 256;

/// Leaf sorts whose value range needs more 8-bit digits go to
/// `sort_unstable`. A pass costs 5–6 ns per element and `sort_unstable`
/// 15–22 on 256–4096 values, so two passes (≤ 16 bits) read 0.57–0.82× of
/// it, three (17–24 bits) 0.80–1.15× and four 1.0–1.5× (same harness as
/// above). Wide f64 and string-code nodes therefore stay comparison-sorted.
const LEAF_RADIX_MAX_PASSES: u32 = 2;

/// Reusable scratch for [`ScatterScratch::scatter`]: counts, bucket
/// cursors, the per-element digit buffer and the grouped output.
///
/// Hold one per index and reuse it across refinement steps — the buffers
/// only ever grow to the largest step observed, so steady-state
/// refinement allocates nothing.
///
/// # Examples
///
/// ```
/// use pi_core::kernels::ScatterScratch;
///
/// let mut scratch = ScatterScratch::new();
/// let values = [3u64, 1, 2, 1, 3, 0];
/// let (grouped, offsets) = scratch.scatter(&values, 4, &|v| v as u8);
/// assert_eq!(grouped, &[0, 1, 1, 2, 3, 3]);
/// // `offsets[d]..offsets[d + 1]` is digit d's run.
/// assert_eq!(&offsets[..5], &[0, 1, 3, 4, 6]);
/// ```
#[derive(Debug)]
pub struct ScatterScratch {
    /// Per-bucket write cursor during the write pass; rebuilt into the
    /// returned offsets table (`offsets[d]` = start of digit `d`'s run,
    /// trailing entries = `n`) before `scatter` returns.
    cursors: [usize; 257],
    digits: Vec<u8>,
    out: Vec<Value>,
}

impl Default for ScatterScratch {
    fn default() -> Self {
        ScatterScratch {
            cursors: [0; 257],
            digits: Vec::new(),
            out: Vec::new(),
        }
    }
}

impl ScatterScratch {
    /// Empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        ScatterScratch::default()
    }

    /// Groups `values` by digit in two passes and returns
    /// `(grouped, offsets)`: `grouped` is a permutation of `values`
    /// stable within each digit, and `offsets[d]..offsets[d + 1]` (for
    /// `d < buckets`) is digit `d`'s run inside it.
    ///
    /// `digit_of` must return digits `< buckets`; `buckets` must be
    /// `<= MAX_SCATTER_BUCKETS`. Panics otherwise (the counting pass is
    /// fully checked).
    pub fn scatter<F: Fn(Value) -> u8>(
        &mut self,
        values: &[Value],
        buckets: usize,
        digit_of: &F,
    ) -> (&[Value], &[usize; 257]) {
        assert!(buckets <= MAX_SCATTER_BUCKETS, "scatter fan-out too wide");
        let n = values.len();

        // Pass 1 (checked): count digits AND record them, so pass 2
        // never has to trust `digit_of` again.
        self.digits.clear();
        self.digits.reserve(n);
        let mut counts = [0usize; 256];
        for &v in values {
            let d = digit_of(v);
            assert!((d as usize) < buckets, "digit out of range");
            counts[d as usize] += 1;
            self.digits.push(d);
        }

        // Prefix sums -> per-bucket write cursors + final offsets.
        let mut sum = 0usize;
        for (cursor, &count) in self.cursors.iter_mut().zip(&counts[..buckets]) {
            *cursor = sum;
            sum += count;
        }
        for c in self.cursors[buckets..].iter_mut() {
            *c = sum;
        }
        debug_assert_eq!(sum, n);

        // Pass 2: unchecked scatter using the *stored* digits.
        self.out.clear();
        self.out.reserve(n);
        // SAFETY: `digits` holds exactly `n` entries, each asserted
        // `< buckets` in pass 1, and `cursors` was built from the counts
        // of those same stored digits — so each bucket cursor advances
        // exactly `counts[d]` times within its reserved `[start, end)`
        // range and every slot in `0..n` is written exactly once. `out`
        // has capacity `n` (reserved above); `set_len` runs after all
        // `n` writes.
        unsafe {
            let out = self.out.spare_capacity_mut();
            for (i, &d) in self.digits.iter().enumerate() {
                let cursor = self.cursors.get_unchecked_mut(d as usize);
                out.get_unchecked_mut(*cursor)
                    .write(*values.get_unchecked(i));
                *cursor += 1;
            }
            self.out.set_len(n);
        }

        // Rebuild offsets (cursors were consumed): offsets[d] = start of
        // bucket d, offsets[buckets..] = n so `offsets[d + 1]` is always
        // valid for `d < buckets`.
        let mut sum = 0usize;
        for (cursor, &count) in self.cursors.iter_mut().zip(&counts[..buckets]) {
            *cursor = sum;
            sum += count;
        }
        for c in self.cursors[buckets..].iter_mut() {
            *c = sum;
        }
        (&self.out, &self.cursors)
    }

    /// Sorts `data` ascending: the leaf sort of every refinement ("when we
    /// reach a node that is smaller than the L1 cache, we sort the entire
    /// node"). One fold finds the values' actual range; when it fits
    /// `LEAF_RADIX_MAX_PASSES` digits of ≤ 8 bits and `data` holds at
    /// least `LEAF_RADIX_MIN_ELEMENTS` values, stable LSD passes of
    /// [`ScatterScratch::scatter`] over `v − min` sort it, each pass copied
    /// back into `data`. Any other input goes to `sort_unstable`.
    pub(crate) fn sort_leaf(&mut self, data: &mut [Value]) {
        if data.len() < LEAF_RADIX_MIN_ELEMENTS {
            data.sort_unstable();
            return;
        }
        let (min, max) = data.iter().fold((Value::MAX, Value::MIN), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
        let bits = Value::BITS - (max - min).leading_zeros();
        let passes = bits.div_ceil(8);
        if passes > LEAF_RADIX_MAX_PASSES {
            data.sort_unstable();
            return;
        }
        // Spread the bits evenly: 12 bits sort as two 6-bit digits, not
        // an 8-bit and a 4-bit one.
        let width = bits.div_ceil(passes.max(1));
        for pass in 0..passes {
            let shift = pass * width;
            let digit = |v: Value| ((v - min) >> shift) as u8 & ((1u16 << width) - 1) as u8;
            let (grouped, _) = self.scatter(data, 1 << width, &digit);
            data.copy_from_slice(grouped);
        }
    }

    /// Moves `values` into `set`, each to the bucket `digit_of` names: the
    /// one move path of the creation steps (base column → buckets) and of
    /// the bucket-to-bucket refinement steps. Every bucket receives its
    /// share of `values` as one bulk append.
    pub(crate) fn scatter_into<F: Fn(Value) -> u8>(
        &mut self,
        values: &[Value],
        set: &mut BucketSet,
        digit_of: &F,
    ) {
        let buckets = set.bucket_count();
        let (grouped, offsets) = self.scatter(values, buckets, digit_of);
        for b in 0..buckets {
            let group = &grouped[offsets[b]..offsets[b + 1]];
            if !group.is_empty() {
                set.extend_from_slice(b, group);
            }
        }
    }
}

/// Scalar reference for [`ScatterScratch::scatter`]: stable counting
/// sort by digit using only checked indexing. The proptest oracle pins
/// the scatter to this.
pub fn scatter_scalar<F: Fn(Value) -> u8>(
    values: &[Value],
    buckets: usize,
    digit_of: &F,
) -> (Vec<Value>, Vec<usize>) {
    assert!(buckets <= MAX_SCATTER_BUCKETS, "scatter fan-out too wide");
    let mut groups: Vec<Vec<Value>> = vec![Vec::new(); buckets];
    for &v in values {
        let d = digit_of(v) as usize;
        assert!(d < buckets, "digit out of range");
        groups[d].push(v);
    }
    let mut offsets = Vec::with_capacity(buckets + 1);
    let mut out = Vec::with_capacity(values.len());
    offsets.push(0);
    for group in groups {
        out.extend_from_slice(&group);
        offsets.push(out.len());
    }
    (out, offsets)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(len: usize, seed: u64) -> Vec<Value> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state
            })
            .collect()
    }

    #[test]
    fn scatter_matches_scalar_reference() {
        let mut scratch = ScatterScratch::new();
        for (len, buckets) in [(0usize, 64usize), (1, 64), (7, 3), (1000, 64), (4096, 256)] {
            let data = probe(len, len as u64 + 1);
            let digit = move |v: Value| ((v >> 5) as usize % buckets) as u8;
            let (grouped, offsets) = scratch.scatter(&data, buckets, &digit);
            let (want, want_offsets) = scatter_scalar(&data, buckets, &digit);
            assert_eq!(grouped, &want[..]);
            assert_eq!(&offsets[..=buckets], &want_offsets[..]);
        }
    }

    #[test]
    fn scatter_is_stable_within_buckets() {
        // Values sharing a digit must keep their input order (the LSD
        // passes rely on it).
        let data = vec![0x10, 0x11, 0x12, 0x20, 0x13, 0x21];
        let mut scratch = ScatterScratch::new();
        let (grouped, _) = scratch.scatter(&data, 16, &|v| (v >> 4) as u8);
        assert_eq!(grouped, &[0x10, 0x11, 0x12, 0x13, 0x20, 0x21]);
    }

    #[test]
    fn scatter_scratch_is_reusable() {
        let mut scratch = ScatterScratch::new();
        let a = probe(500, 1);
        let b = probe(300, 2);
        let digit = |v: Value| v as u8;
        scratch.scatter(&a, 256, &digit);
        let (grouped, _) = scratch.scatter(&b, 256, &digit);
        let (want, _) = scatter_scalar(&b, 256, &digit);
        assert_eq!(grouped, &want[..]);
    }

    #[test]
    fn scatter_into_routes_every_run_in_input_order() {
        let data = probe(40_077, 9);
        let digit = |v: Value| (v >> 59) as u8;
        let mut set = BucketSet::new(32, 1000);
        let mut scratch = ScatterScratch::new();
        scratch.scatter_into(&data[..5], &mut set, &digit);
        scratch.scatter_into(&data[5..], &mut set, &digit);
        assert_eq!(set.len(), data.len());
        let mut blocks = 0;
        for b in 0..32 {
            let want: Vec<Value> = data.iter().copied().filter(|&v| digit(v) == b).collect();
            assert_eq!(set.bucket(b as usize).iter().collect::<Vec<_>>(), want);
            blocks += want.len().div_ceil(1000) as u64;
        }
        assert_eq!(set.allocations(), blocks);
    }

    /// `len` values whose range (`max − min`) is exactly `range` when
    /// `len ≥ 2`, starting at `min`, in `shape`'s order.
    fn leaf_input(len: usize, min: Value, range: Value, shape: &str) -> Vec<Value> {
        let spread = |r: Value| {
            if range == Value::MAX {
                r
            } else {
                r % (range + 1)
            }
        };
        let mut data: Vec<Value> = probe(len, len as u64 ^ range)
            .into_iter()
            .enumerate()
            .map(|(i, r)| match shape {
                "duplicates" if i % 10 != 0 => min + range / 2,
                "skewed" => min + (spread(r) >> (r % 48)),
                _ => min + spread(r),
            })
            .collect();
        if len >= 2 {
            data[0] = min;
            data[len - 1] = min + range;
        }
        match shape {
            "sorted" => data.sort_unstable(),
            "reversed" => data.sort_unstable_by(|a, b| b.cmp(a)),
            _ => {}
        }
        data
    }

    #[test]
    fn sort_leaf_matches_sort_unstable_on_one_reused_scratch() {
        let lengths = [4096, 0, 1, 2, 255, 256, 257, 4095];
        let ranges = [
            0,
            1,
            255,
            256,
            257,
            (1 << 16) - 1,
            1 << 16,
            (1 << 16) + 1,
            (1 << 24) - 1,
            1 << 24,
            (1 << 24) + 1,
            Value::MAX,
        ];
        let shapes = ["uniform", "duplicates", "skewed", "sorted", "reversed"];
        // One scratch for every case: lengths shrink and grow between calls.
        let mut scratch = ScatterScratch::new();
        let (mut radix, mut fallback) = (0, 0);
        for len in lengths {
            for range in ranges {
                for min in [3.min(Value::MAX - range), Value::MAX - range] {
                    for shape in shapes {
                        let mut data = leaf_input(len, min, range, shape);
                        let mut want = data.clone();
                        want.sort_unstable();
                        scratch.out.clear();
                        scratch.sort_leaf(&mut data);
                        let context = format!("len {len}, range {range}, min {min}, {shape}");
                        assert_eq!(data, want, "{context}");
                        // The radix path leaves its last pass in `out`.
                        let took_radix = scratch.out.len() == len && len > 0;
                        let narrow = len >= 2 && range > 0 && range < 1 << 16;
                        let expect_radix = len >= LEAF_RADIX_MIN_ELEMENTS && narrow;
                        assert_eq!(took_radix, expect_radix, "{context}");
                        if took_radix {
                            radix += 1;
                        } else if len >= 2 && range > 0 {
                            fallback += 1;
                        }
                    }
                }
            }
        }
        assert!(
            radix > 0 && fallback > 0,
            "{radix} radix, {fallback} fallback"
        );
    }

    #[test]
    #[should_panic(expected = "digit out of range")]
    fn scatter_rejects_out_of_range_digits() {
        let mut scratch = ScatterScratch::new();
        scratch.scatter(&[300], 4, &|v| v as u8);
    }
}
