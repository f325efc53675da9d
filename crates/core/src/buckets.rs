//! Linked-block buckets shared by the radix- and bucket-based progressive
//! indexes.
//!
//! Section 3.2 of the paper: "To avoid having to allocate large regions of
//! sequential data for every bucket, the buckets are implemented as a
//! linked list of blocks of memory that each hold up to `s_b` elements.
//! When a block is filled, another block is added to the list." The block
//! layout trades a small per-`s_b`-elements allocation and random access
//! (`τ` and `φ` in the cost model) for never having to grow or move bucket
//! contents.
//!
//! The paper also fixes the number of buckets: with 512 L1 cache lines and
//! 64 TLB entries on its machine, it uses `b = 64` buckets so that all
//! bucket write heads stay cache- and TLB-resident
//! ([`DEFAULT_BUCKET_COUNT`]).

use pi_storage::scan::ScanResult;
use pi_storage::Value;

/// Default number of buckets `b` (one radix digit of `log2 64 = 6` bits).
pub const DEFAULT_BUCKET_COUNT: usize = 64;

/// Bits of a value one radix level or pass consumes: `log2 b`.
pub(crate) const RADIX_BITS: u32 = DEFAULT_BUCKET_COUNT.trailing_zeros();

/// Default block capacity `s_b` in elements (128 KiB of 8-byte values per
/// block).
pub const DEFAULT_BLOCK_CAPACITY: usize = 16 * 1024;

/// Width in bits of the **encoded key domain**: every key type served by
/// the stack — `u64` itself, sign-flipped `i64`, total-ordered `f64`,
/// big-endian string prefixes — maps into `u64` through an
/// order-preserving encoding (`pi_storage::encoding::OrderedKey`), so no
/// value a radix planner can meet ever carries more than this many
/// significant bits.
///
/// The constant matters because encoded domains are *wide by
/// construction*: a column of floats straddling zero spans nearly the
/// full code space (negative values encode near `0`, positive values
/// near `u64::MAX`), unlike the paper's dense integer domains `[0, n)`.
/// Radix planning must therefore size its recursion depth / pass count
/// from [`domain_bits`] with this as the ceiling, never from the row
/// count.
pub const ENCODED_DOMAIN_BITS: u32 = 64;

/// Number of significant bits of the normalised domain `[min, max]` —
/// the quantity radix bucket planning is sized by (MSD recursion depth,
/// LSD pass count). `0` when the domain holds a single value; at most
/// [`ENCODED_DOMAIN_BITS`].
pub fn domain_bits(min: Value, max: Value) -> u32 {
    if max <= min {
        0
    } else {
        ENCODED_DOMAIN_BITS - (max - min).leading_zeros()
    }
}

/// Worst-case number of radix levels (MSD) or passes (LSD) over a full
/// encoded domain with `log2 b = radix_bits` bits consumed per level:
/// `⌈ENCODED_DOMAIN_BITS / radix_bits⌉`. With the paper's `b = 64` this
/// is 11 — the bound under which every encoded key domain converges.
///
/// # Panics
/// Panics when `radix_bits == 0`.
pub const fn max_radix_levels(radix_bits: u32) -> u32 {
    assert!(radix_bits > 0, "radix digit must cover at least one bit");
    ENCODED_DOMAIN_BITS.div_ceil(radix_bits)
}

/// Number of radix rounds needed to fully partition a domain of
/// `domain_bits` significant bits with `radix_bits` consumed per round:
/// `⌈domain_bits / radix_bits⌉`, at least one round, capped by
/// [`max_radix_levels`]. Both radix variants size their planning through
/// this single helper (LSD pass count, MSD recursion depth bound).
///
/// # Panics
/// Panics when `radix_bits == 0`.
pub const fn radix_rounds(domain_bits: u32, radix_bits: u32) -> u32 {
    let rounds = domain_bits.div_ceil(radix_bits);
    let rounds = if rounds == 0 { 1 } else { rounds };
    let cap = max_radix_levels(radix_bits);
    if rounds > cap {
        cap
    } else {
        rounds
    }
}

/// A bucket stored as a list of fixed-capacity blocks.
#[derive(Debug, Clone, Default)]
pub struct BlockBucket {
    blocks: Vec<Vec<Value>>,
    block_capacity: usize,
    len: usize,
}

impl BlockBucket {
    /// Creates an empty bucket whose blocks hold up to `block_capacity`
    /// elements.
    ///
    /// # Panics
    /// Panics when `block_capacity == 0`.
    pub fn new(block_capacity: usize) -> Self {
        assert!(block_capacity > 0, "bucket block capacity must be positive");
        BlockBucket {
            blocks: Vec::new(),
            block_capacity,
            len: 0,
        }
    }

    /// Number of elements stored in the bucket.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the bucket holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of blocks currently allocated.
    #[inline]
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The block capacity `s_b` this bucket was created with.
    #[inline]
    pub fn block_capacity(&self) -> usize {
        self.block_capacity
    }

    /// Element at insertion position `i` (0-based, insertion order).
    ///
    /// # Panics
    /// Panics when `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> Value {
        assert!(
            i < self.len,
            "bucket index {i} out of bounds (len {})",
            self.len
        );
        self.blocks[i / self.block_capacity][i % self.block_capacity]
    }

    /// Iterator over the elements in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        self.blocks.iter().flat_map(|b| b.iter().copied())
    }

    /// Predicated range-sum over all elements of the bucket.
    pub fn range_sum(&self, low: Value, high: Value) -> ScanResult {
        let mut result = ScanResult::EMPTY;
        for block in &self.blocks {
            result = result.merge(pi_storage::scan::scan_range_sum(block, low, high));
        }
        result
    }

    /// Predicated range-sum over the elements at insertion positions
    /// `[from, len)`. Used when a bucket is being drained into the next
    /// structure and only its unconsumed tail still holds live data.
    pub fn range_sum_from(&self, from: usize, low: Value, high: Value) -> ScanResult {
        if from >= self.len {
            return ScanResult::EMPTY;
        }
        let mut result = ScanResult::EMPTY;
        let mut skip = from;
        for block in &self.blocks {
            if skip >= block.len() {
                skip -= block.len();
                continue;
            }
            result = result.merge(pi_storage::scan::scan_range_sum(&block[skip..], low, high));
            skip = 0;
        }
        result
    }

    /// Appends a whole run of values block-wise (memcpy-class, no
    /// per-element capacity branch). Returns the number of block
    /// allocations performed — the `τ` events of the cost model.
    ///
    /// A bucket's *first* block starts at the size of the run that opens
    /// it and grows geometrically to `s_b` as later runs fill it: the
    /// first δ·N slice of a creation step brings a few hundred elements
    /// per bucket, and reserving `b × s_b` for them would charge the first
    /// query for memory the later ones fill (and a refinement child that
    /// stays small would hold a whole block). Growing a block is not a
    /// `τ` event; blocks after the first are allocated whole.
    pub fn extend_from_slice(&mut self, mut values: &[Value]) -> u64 {
        let mut allocations = 0u64;
        while !values.is_empty() {
            let spare = match self.blocks.last() {
                Some(last) if last.len() < self.block_capacity => self.block_capacity - last.len(),
                _ => {
                    self.blocks.push(if self.blocks.is_empty() {
                        Vec::new()
                    } else {
                        Vec::with_capacity(self.block_capacity)
                    });
                    allocations += 1;
                    self.block_capacity
                }
            };
            let take = spare.min(values.len());
            let block = self
                .blocks
                .last_mut()
                .expect("bucket always has a current block after the allocation check");
            if block.capacity() < block.len() + take {
                let grown = (2 * block.capacity()).max(block.len() + take);
                block.reserve_exact(grown.min(self.block_capacity) - block.len());
            }
            block.extend_from_slice(&values[..take]);
            self.len += take;
            values = &values[take..];
        }
        allocations
    }

    /// Copies the elements at insertion positions `[from, from + out.len())`
    /// into `out`, block-wise. The merge loops use this instead of a
    /// per-element [`BlockBucket::get`] (which costs an integer division
    /// per element).
    ///
    /// # Panics
    /// Panics when the requested range reaches past `self.len()`.
    pub fn copy_range_to(&self, from: usize, out: &mut [Value]) {
        assert!(
            from + out.len() <= self.len,
            "copy range {}..{} out of bounds (len {})",
            from,
            from + out.len(),
            self.len
        );
        let mut written = 0usize;
        for slice in self.block_slices(from, out.len()) {
            out[written..written + slice.len()].copy_from_slice(slice);
            written += slice.len();
        }
    }

    /// Iterator over the contiguous block sub-slices covering insertion
    /// positions `[from, from + len)`. This is the bucket-drain primitive:
    /// the refinement steps pull whole slices out of the source bucket
    /// and scatter them, instead of calling [`BlockBucket::get`]
    /// once per element.
    ///
    /// # Panics
    /// Panics when `from + len > self.len()`.
    pub fn block_slices(&self, from: usize, len: usize) -> impl Iterator<Item = &[Value]> {
        assert!(
            from + len <= self.len,
            "slice range {}..{} out of bounds (len {})",
            from,
            from + len,
            self.len
        );
        let first_block = from / self.block_capacity;
        let mut skip = from % self.block_capacity;
        let mut remaining = len;
        self.blocks[first_block.min(self.blocks.len())..]
            .iter()
            .map_while(move |block| {
                if remaining == 0 {
                    return None;
                }
                let start = skip;
                skip = 0;
                let take = (block.len() - start).min(remaining);
                remaining -= take;
                Some(&block[start..start + take])
            })
            .filter(|s| !s.is_empty())
    }

    /// Drops all blocks, releasing their memory.
    pub fn clear(&mut self) {
        self.blocks.clear();
        self.len = 0;
    }
}

/// A fixed-size set of [`BlockBucket`]s plus the routing metadata needed to
/// map a value to its bucket. Construction of the per-algorithm routing
/// (radix shift, equi-height bounds) lives with the algorithms; this type
/// only manages storage.
#[derive(Debug, Clone)]
pub struct BucketSet {
    buckets: Vec<BlockBucket>,
    /// Total number of elements across all buckets.
    len: usize,
    /// Number of block allocations performed so far (for cost accounting).
    allocations: u64,
}

impl BucketSet {
    /// Creates `bucket_count` empty buckets with the given block capacity.
    pub fn new(bucket_count: usize, block_capacity: usize) -> Self {
        assert!(bucket_count > 0, "bucket count must be positive");
        BucketSet {
            buckets: (0..bucket_count)
                .map(|_| BlockBucket::new(block_capacity))
                .collect(),
            len: 0,
            allocations: 0,
        }
    }

    /// Number of buckets.
    #[inline]
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Total number of elements across all buckets.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no bucket holds any element.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of block allocations performed so far.
    #[inline]
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Appends a whole run of values to bucket `bucket` block-wise. The
    /// creation and refinement steps land each scatter group with one
    /// call.
    ///
    /// # Panics
    /// Panics when `bucket` is out of range.
    #[inline]
    pub fn extend_from_slice(&mut self, bucket: usize, values: &[Value]) {
        self.allocations += self.buckets[bucket].extend_from_slice(values);
        self.len += values.len();
    }

    /// Immutable access to bucket `i`.
    #[inline]
    pub fn bucket(&self, i: usize) -> &BlockBucket {
        &self.buckets[i]
    }

    /// Sizes of all buckets, in bucket order.
    pub fn sizes(&self) -> Vec<usize> {
        self.buckets.iter().map(BlockBucket::len).collect()
    }

    /// Predicated range-sum over a contiguous range of buckets
    /// `[first, last]` (inclusive).
    pub fn range_sum_buckets(
        &self,
        first: usize,
        last: usize,
        low: Value,
        high: Value,
    ) -> ScanResult {
        let mut result = ScanResult::EMPTY;
        for bucket in &self.buckets[first..=last.min(self.buckets.len() - 1)] {
            result = result.merge(bucket.range_sum(low, high));
        }
        result
    }

    /// Releases the storage of bucket `i` (used once a bucket has been
    /// merged into its successor structure).
    pub fn clear_bucket(&mut self, i: usize) {
        self.len -= self.buckets[i].len();
        self.buckets[i].clear();
    }

    /// Iterator over the buckets in order.
    pub fn iter(&self) -> impl Iterator<Item = &BlockBucket> {
        self.buckets.iter()
    }

    /// Consumes the set and returns its buckets in order.
    pub fn into_buckets(self) -> Vec<BlockBucket> {
        self.buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One-element appends: the tests build their buckets value by value.
    impl BlockBucket {
        fn push(&mut self, value: Value) -> bool {
            self.extend_from_slice(&[value]) == 1
        }
    }

    impl BucketSet {
        fn push(&mut self, bucket: usize, value: Value) {
            self.extend_from_slice(bucket, &[value]);
        }
    }

    #[test]
    fn first_block_grows_to_capacity_without_extra_allocation_events() {
        let cap = 64;
        let mut set = BucketSet::new(1, cap);
        let mut alone = BlockBucket::new(cap);
        let mut reported = 0u64;
        let mut want = Vec::new();
        // Runs that open the first block small, grow it, straddle its end
        // and then fill whole later blocks.
        for (i, run) in [3usize, 1, 9, 40, 30, 64, 200, 1].into_iter().enumerate() {
            let values: Vec<Value> = (0..run as u64).map(|v| v + 1000 * i as u64).collect();
            reported += alone.extend_from_slice(&values);
            set.extend_from_slice(0, &values);
            want.extend_from_slice(&values);
            let bucket = set.bucket(0);
            assert_eq!(bucket.iter().collect::<Vec<_>>(), want);
            // τ stays one event per block, however the first one grew.
            assert_eq!(bucket.block_count(), want.len().div_ceil(cap));
            assert_eq!(set.allocations(), bucket.block_count() as u64);
            assert_eq!(set.allocations(), reported);
            assert!(bucket.blocks.iter().all(|b| b.capacity() <= cap));
        }
        let mut small = BlockBucket::new(cap);
        assert_eq!(small.extend_from_slice(&[1, 2, 3]), 1);
        assert_eq!(small.blocks[0].capacity(), 3);
        assert_eq!(small.extend_from_slice(&[4]), 0);
        assert_eq!(small.blocks[0].capacity(), 6);
        assert_eq!(small.extend_from_slice(&[0; 80]), 1);
        assert_eq!(small.blocks[0].capacity(), cap);
        assert_eq!(small.blocks[1].capacity(), cap);
    }

    #[test]
    fn push_allocates_blocks_lazily() {
        let mut b = BlockBucket::new(4);
        assert_eq!(b.block_count(), 0);
        assert!(b.push(1)); // first push allocates
        assert!(!b.push(2));
        assert!(!b.push(3));
        assert!(!b.push(4));
        assert!(b.push(5)); // fifth push allocates a second block
        assert_eq!(b.block_count(), 2);
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn get_and_iter_follow_insertion_order() {
        let mut b = BlockBucket::new(3);
        for v in [9, 7, 5, 3, 1] {
            b.push(v);
        }
        assert_eq!(b.get(0), 9);
        assert_eq!(b.get(3), 3);
        let collected: Vec<Value> = b.iter().collect();
        assert_eq!(collected, vec![9, 7, 5, 3, 1]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let b = BlockBucket::new(2);
        let _ = b.get(0);
    }

    #[test]
    fn range_sum_matches_reference() {
        let mut b = BlockBucket::new(3);
        let values = [6, 3, 14, 13, 2, 1, 8, 19];
        for v in values {
            b.push(v);
        }
        let expected = pi_storage::scan::scan_range_sum(&values, 3, 13);
        assert_eq!(b.range_sum(3, 13), expected);
    }

    #[test]
    fn range_sum_from_skips_consumed_prefix() {
        let mut b = BlockBucket::new(2);
        let values = [10, 20, 30, 40, 50];
        for v in values {
            b.push(v);
        }
        // Skip the first three (already consumed) elements.
        let expected = pi_storage::scan::scan_range_sum(&values[3..], 0, 100);
        assert_eq!(b.range_sum_from(3, 0, 100), expected);
        assert_eq!(b.range_sum_from(5, 0, 100), ScanResult::EMPTY);
        assert_eq!(b.range_sum_from(7, 0, 100), ScanResult::EMPTY);
    }

    #[test]
    fn clear_releases_every_block() {
        let mut b = BlockBucket::new(2);
        for v in [3, 1, 2] {
            b.push(v);
        }
        assert_eq!(b.block_count(), 2);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.block_count(), 0);
    }

    #[test]
    fn bucket_set_tracks_len_and_allocations() {
        let mut set = BucketSet::new(4, 2);
        assert!(set.is_empty());
        for i in 0..10u64 {
            set.push((i % 4) as usize, i);
        }
        assert_eq!(set.len(), 10);
        assert_eq!(set.bucket_count(), 4);
        // Buckets 0 and 1 hold 3 elements (2 blocks each); 2 and 3 hold 2
        // (1 block each) = 6 allocations.
        assert_eq!(set.allocations(), 6);
        assert_eq!(set.sizes(), vec![3, 3, 2, 2]);
    }

    #[test]
    fn bucket_set_range_sum_over_bucket_interval() {
        let mut set = BucketSet::new(4, 8);
        // Value v goes to bucket v / 25 (a simple range partitioning).
        for v in 0..100u64 {
            set.push((v / 25) as usize, v);
        }
        let expected = pi_storage::scan::scan_range_sum(&(0..100u64).collect::<Vec<_>>(), 30, 70);
        // Values 30..=70 live in buckets 1 and 2.
        assert_eq!(set.range_sum_buckets(1, 2, 30, 70), expected);
    }

    #[test]
    fn bucket_set_clear_bucket_updates_len() {
        let mut set = BucketSet::new(2, 4);
        for v in 0..8u64 {
            set.push((v % 2) as usize, v);
        }
        assert_eq!(set.len(), 8);
        set.clear_bucket(0);
        assert_eq!(set.len(), 4);
        assert!(set.bucket(0).is_empty());
        assert_eq!(set.bucket(1).len(), 4);
    }

    #[test]
    #[should_panic(expected = "block capacity")]
    fn zero_block_capacity_rejected() {
        let _ = BlockBucket::new(0);
    }

    #[test]
    fn domain_bits_spans_narrow_and_encoded_domains() {
        assert_eq!(domain_bits(0, 0), 0);
        assert_eq!(domain_bits(5, 5), 0);
        assert_eq!(domain_bits(0, 1), 1);
        assert_eq!(domain_bits(0, 63), 6);
        assert_eq!(domain_bits(100, 163), 6);
        assert_eq!(domain_bits(0, u64::MAX), ENCODED_DOMAIN_BITS);
        // Encoded key domains are wide by construction: a float column
        // straddling zero spans nearly the whole code space.
        use pi_storage::encoding::OrderedKey;
        let lo = (-1.0f64).encode();
        let hi = 1.0f64.encode();
        assert!(domain_bits(lo, hi) > 60);
        assert!(domain_bits(lo, hi) <= ENCODED_DOMAIN_BITS);
    }

    #[test]
    fn max_radix_levels_bounds_recursion_depth() {
        let radix_bits = (DEFAULT_BUCKET_COUNT as u32).trailing_zeros();
        assert_eq!(max_radix_levels(radix_bits), 11); // ⌈64 / 6⌉ with b = 64
        assert_eq!(max_radix_levels(1), ENCODED_DOMAIN_BITS);
        assert_eq!(max_radix_levels(64), 1);
        // Every encoded domain's planning stays within the bound.
        assert!(domain_bits(0, u64::MAX).div_ceil(radix_bits) <= max_radix_levels(radix_bits));
    }

    #[test]
    fn extend_from_slice_matches_push_sequence() {
        for (cap, runs) in [
            (4usize, vec![3usize, 5, 0, 4, 1]),
            (2, vec![7, 1]),
            (16, vec![1, 1, 1]),
        ] {
            let mut pushed = BlockBucket::new(cap);
            let mut extended = BlockBucket::new(cap);
            let mut pushed_allocs = 0u64;
            let mut extended_allocs = 0u64;
            let mut next = 0u64;
            for run in runs {
                let values: Vec<Value> = (next..next + run as u64).collect();
                next += run as u64;
                for &v in &values {
                    if pushed.push(v) {
                        pushed_allocs += 1;
                    }
                }
                extended_allocs += extended.extend_from_slice(&values);
            }
            assert_eq!(pushed_allocs, extended_allocs, "cap {cap}");
            assert_eq!(pushed.len(), extended.len());
            assert_eq!(pushed.block_count(), extended.block_count());
            assert_eq!(
                pushed.iter().collect::<Vec<_>>(),
                extended.iter().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn copy_range_to_matches_per_element_get() {
        let mut b = BlockBucket::new(3);
        for v in 0..11u64 {
            b.push(v * 10);
        }
        for (from, len) in [(0usize, 11usize), (0, 0), (2, 5), (3, 3), (10, 1), (11, 0)] {
            let mut out = vec![0; len];
            b.copy_range_to(from, &mut out);
            let want: Vec<Value> = (from..from + len).map(|i| b.get(i)).collect();
            assert_eq!(out, want, "from {from} len {len}");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn copy_range_to_rejects_overrun() {
        let mut b = BlockBucket::new(2);
        b.push(1);
        let mut out = vec![0; 2];
        b.copy_range_to(0, &mut out);
    }

    #[test]
    fn block_slices_cover_range_in_order() {
        let mut b = BlockBucket::new(4);
        for v in 0..10u64 {
            b.push(v);
        }
        let flat: Vec<Value> = b.block_slices(3, 6).flatten().copied().collect();
        assert_eq!(flat, vec![3, 4, 5, 6, 7, 8]);
        assert_eq!(b.block_slices(0, 0).count(), 0);
        assert_eq!(b.block_slices(10, 0).count(), 0);
    }

    #[test]
    fn bucket_set_extend_tracks_len_and_allocations() {
        let mut pushed = BucketSet::new(2, 2);
        let mut extended = BucketSet::new(2, 2);
        for v in 0..7u64 {
            pushed.push((v % 2) as usize, v);
        }
        extended.extend_from_slice(0, &[0, 2, 4, 6]);
        extended.extend_from_slice(1, &[1, 3, 5]);
        assert_eq!(pushed.len(), extended.len());
        assert_eq!(pushed.allocations(), extended.allocations());
        assert_eq!(pushed.sizes(), extended.sizes());
    }

    #[test]
    fn radix_rounds_matches_lsd_formula_and_cap() {
        let radix_bits = (DEFAULT_BUCKET_COUNT as u32).trailing_zeros();
        assert_eq!(radix_rounds(0, radix_bits), 1); // single-value domain
        assert_eq!(radix_rounds(1, radix_bits), 1);
        assert_eq!(radix_rounds(6, radix_bits), 1);
        assert_eq!(radix_rounds(7, radix_bits), 2);
        assert_eq!(radix_rounds(12, radix_bits), 2);
        assert_eq!(
            radix_rounds(ENCODED_DOMAIN_BITS, radix_bits),
            max_radix_levels(radix_bits)
        );
    }

    #[test]
    fn range_sum_buckets_clamps_last_index() {
        let mut set = BucketSet::new(2, 4);
        set.push(0, 5);
        set.push(1, 10);
        let r = set.range_sum_buckets(0, 99, 0, 100);
        assert_eq!(r.sum, 15);
        assert_eq!(r.count, 2);
    }
}
