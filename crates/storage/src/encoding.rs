//! Order-preserving key encodings: float, signed-integer and string
//! prefix domains over the `u64` core.
//!
//! The paper evaluates progressive indexing on 8-byte unsigned integers,
//! and the whole stack below this module is hardwired to
//! [`Value`](crate::Value)` = u64`. Radix-style crackers extend to other
//! key domains through *order-preserving bit encodings*: an injective map
//! `K -> u64` such that `a < b` in the key domain's total order iff
//! `encode(a) < encode(b)` in unsigned integer order. Every algorithm,
//! shard boundary, digest and scan then keeps operating on plain `u64`
//! codes; only the boundary layer encodes predicates going in and decodes
//! answers coming out.
//!
//! [`OrderedKey`] is that boundary contract, implemented here for:
//!
//! | Key domain | Encoding | SUM decodable |
//! |---|---|---|
//! | `u64` | identity | yes |
//! | `i64` | sign-flip (`bits ^ 1 << 63`) | yes (affine shift) |
//! | `f64` | IEEE-754 total-order bit trick | no |
//! | [`StrPrefix`] | big-endian 8-byte padded prefix | no |
//!
//! ## `f64` policy
//!
//! The float encoding follows the IEEE-754 total order: negative values
//! have all bits flipped, non-negative values have the sign bit flipped.
//! Two policy decisions are explicit:
//!
//! * **NaN** — every NaN (any sign, any payload) is canonicalised to the
//!   positive quiet NaN before encoding, so NaN is a *single* key that
//!   sorts **above `+inf`** (`decode(encode(nan))` is NaN, but payload
//!   bits are not preserved — the one deliberate loss).
//! * **signed zero** — `-0.0` and `+0.0` encode to *distinct, adjacent*
//!   codes with `-0.0 < +0.0`; both round-trip bit-exactly. Callers that
//!   want `-0.0 == +0.0` range semantics must widen their predicate by
//!   one code.
//!
//! Everything else (subnormals, ±inf, the full finite range) round-trips
//! bit-exactly and in order.
//!
//! ## String prefixes
//!
//! [`StrPrefix`] is the **fixed 8-byte big-endian prefix** of a byte
//! string, padded with `0x00`. Its `encode`/`decode` pair is a bijection
//! with `u64` (lexicographic byte order of the padded prefix is exactly
//! big-endian integer order), so at this layer the encoding is lossless
//! and totally ordered. The lossy step — truncating a longer string to
//! its prefix — happens *above* this module, and two distinct strings may
//! share a prefix; layers serving full-string predicates must resolve
//! those boundary ties with an exact-match side path over the full
//! strings (`pi-engine`'s typed tables do).
//!
//! ## SUM capability
//!
//! Aggregates computed by the core are sums of *codes*. For `u64` that is
//! the answer itself; for `i64` the sign-flip is the affine map
//! `v + 2^63`, so `SUM(v) = SUM(code) - count * 2^63` is exactly
//! recoverable ([`OrderedKey::decode_sum`]). For `f64` and [`StrPrefix`]
//! a sum of codes has no key-domain meaning, so `decode_sum` returns
//! `None` and [`OrderedKey::SUM_SUPPORTED`] is `false` — the capability
//! flag typed digests are gated on.
//!
//! ```
//! use pi_storage::encoding::OrderedKey;
//!
//! assert!((-0.0f64).encode() < 0.0f64.encode());
//! assert!(f64::NEG_INFINITY.encode() < (-1.5f64).encode());
//! assert!(f64::INFINITY.encode() < f64::NAN.encode());
//! assert_eq!(f64::decode((-2.5f64).encode()), -2.5);
//! assert!((-3i64).encode() < 4i64.encode());
//! ```

use crate::scan::ScanResult;

/// The sign bit of a 64-bit word, the pivot of both the `i64` and `f64`
/// encodings.
const SIGN_BIT: u64 = 1 << 63;

/// A key domain with a lossless, order-preserving encoding into the `u64`
/// core.
///
/// Laws (checked by property tests in `tests/proptest_encoding.rs`):
///
/// * **round-trip** — `decode(encode(k)) == k` for every canonical key
///   (for `f64`, NaN payloads are canonicalised first; see the module
///   docs).
/// * **order-preservation** — `a < b` in the key domain's total order
///   iff `encode(a) < encode(b)`.
/// * **sum decoding** — when [`SUM_SUPPORTED`](Self::SUM_SUPPORTED),
///   `decode_sum` over a sum of codes equals the key-domain sum.
pub trait OrderedKey: Sized + Clone + std::fmt::Debug {
    /// The key-domain SUM aggregate type (`u128` for `u64` keys, `i128`
    /// for `i64`, …).
    type Sum: std::fmt::Debug + Copy + PartialEq;

    /// Whether a SUM over encoded codes can be decoded back into the key
    /// domain. Typed digests disable SUM for domains where this is
    /// `false` (floats, string prefixes) and serve COUNT only.
    const SUM_SUPPORTED: bool;

    /// Encodes the key into the `u64` core, preserving order.
    fn encode(&self) -> u64;

    /// Decodes a code produced by [`encode`](Self::encode).
    fn decode(code: u64) -> Self;

    /// Decodes an encoded-domain `(SUM, COUNT)` aggregate back into the
    /// key domain; `None` when the domain does not support SUM.
    fn decode_sum(result: ScanResult) -> Option<Self::Sum>;
}

impl OrderedKey for u64 {
    type Sum = u128;
    const SUM_SUPPORTED: bool = true;

    #[inline]
    fn encode(&self) -> u64 {
        *self
    }

    #[inline]
    fn decode(code: u64) -> Self {
        code
    }

    fn decode_sum(result: ScanResult) -> Option<u128> {
        Some(result.sum)
    }
}

impl OrderedKey for i64 {
    type Sum = i128;
    const SUM_SUPPORTED: bool = true;

    /// Sign-flip: maps `i64::MIN..=i64::MAX` onto `0..=u64::MAX`
    /// monotonically (the affine map `v + 2^63` in two's complement).
    #[inline]
    fn encode(&self) -> u64 {
        (*self as u64) ^ SIGN_BIT
    }

    #[inline]
    fn decode(code: u64) -> Self {
        (code ^ SIGN_BIT) as i64
    }

    /// `SUM(code) = SUM(v) + count * 2^63`, so the key-domain sum is the
    /// code sum minus the per-row offset.
    fn decode_sum(result: ScanResult) -> Option<i128> {
        Some((result.sum as i128).wrapping_sub((result.count as i128) << 63))
    }
}

impl OrderedKey for f64 {
    type Sum = f64;
    const SUM_SUPPORTED: bool = false;

    /// IEEE-754 total-order bit trick: negative floats have all bits
    /// flipped (reversing their descending bit order), non-negative
    /// floats have the sign bit flipped (lifting them above every
    /// negative code). NaNs are canonicalised to the positive quiet NaN
    /// first, so NaN is one key sorting above `+inf`.
    #[inline]
    fn encode(&self) -> u64 {
        let bits = if self.is_nan() {
            f64::NAN.to_bits()
        } else {
            self.to_bits()
        };
        if bits & SIGN_BIT != 0 {
            !bits
        } else {
            bits ^ SIGN_BIT
        }
    }

    #[inline]
    fn decode(code: u64) -> Self {
        if code & SIGN_BIT != 0 {
            f64::from_bits(code ^ SIGN_BIT)
        } else {
            f64::from_bits(!code)
        }
    }

    /// A sum of order codes is not a sum of floats: the encoding is
    /// monotone but not affine, so SUM is not decodable.
    fn decode_sum(_: ScanResult) -> Option<f64> {
        None
    }
}

/// Number of bytes of a [`StrPrefix`].
pub const STR_PREFIX_LEN: usize = 8;

/// The fixed 8-byte big-endian prefix of a byte string, padded with
/// `0x00`.
///
/// Lexicographic byte order on padded prefixes equals big-endian `u64`
/// order, so `StrPrefix`'s derived `Ord` and its [`OrderedKey`] encoding
/// agree, and `encode`/`decode` form a bijection. Truncation to the
/// prefix is order-*compatible* with full byte strings:
///
/// * `StrPrefix::new(a) < StrPrefix::new(b)` implies `a < b`, and
/// * `a <= b` implies `StrPrefix::new(a) <= StrPrefix::new(b)`,
///
/// so an encoded range scan over prefixes brackets the true answer; only
/// rows whose prefix *ties* a predicate boundary need an exact-match
/// tie-break over the full strings (handled by the typed-table layer).
/// Note a string is prefix-indistinguishable from itself extended with
/// NUL bytes (`"a"` vs `"a\0"`); the tie-break path covers those too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct StrPrefix([u8; STR_PREFIX_LEN]);

impl StrPrefix {
    /// The prefix of a string.
    pub fn new(s: &str) -> Self {
        Self::from_bytes(s.as_bytes())
    }

    /// The prefix of a byte string (strings are compared as raw bytes, so
    /// non-UTF-8 and non-ASCII data is handled uniformly).
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut prefix = [0u8; STR_PREFIX_LEN];
        let take = bytes.len().min(STR_PREFIX_LEN);
        prefix[..take].copy_from_slice(&bytes[..take]);
        StrPrefix(prefix)
    }

    /// The padded prefix bytes.
    pub fn as_bytes(&self) -> &[u8; STR_PREFIX_LEN] {
        &self.0
    }
}

impl From<&str> for StrPrefix {
    fn from(s: &str) -> Self {
        StrPrefix::new(s)
    }
}

impl OrderedKey for StrPrefix {
    type Sum = u128;
    const SUM_SUPPORTED: bool = false;

    /// Big-endian interpretation of the padded prefix bytes.
    #[inline]
    fn encode(&self) -> u64 {
        u64::from_be_bytes(self.0)
    }

    #[inline]
    fn decode(code: u64) -> Self {
        StrPrefix(code.to_be_bytes())
    }

    /// Sums of prefix codes have no string-domain meaning.
    fn decode_sum(_: ScanResult) -> Option<u128> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_is_identity() {
        for v in [0u64, 1, u64::MAX, 0xdead_beef] {
            assert_eq!(v.encode(), v);
            assert_eq!(u64::decode(v), v);
        }
        assert_eq!(
            u64::decode_sum(ScanResult { sum: 42, count: 3 }),
            Some(42u128)
        );
    }

    #[test]
    fn i64_sign_flip_orders_and_round_trips() {
        let keys = [i64::MIN, -2, -1, 0, 1, 2, i64::MAX];
        for w in keys.windows(2) {
            assert!(w[0].encode() < w[1].encode(), "{} < {}", w[0], w[1]);
        }
        for k in keys {
            assert_eq!(i64::decode(k.encode()), k);
        }
        assert_eq!(i64::MIN.encode(), 0);
        assert_eq!(i64::MAX.encode(), u64::MAX);
    }

    #[test]
    fn i64_sum_decodes_through_the_affine_shift() {
        let keys = [-5i64, 3, -7, 0, 11];
        let sum: u128 = keys.iter().map(|k| k.encode() as u128).sum();
        let result = ScanResult {
            sum,
            count: keys.len() as u64,
        };
        assert_eq!(
            i64::decode_sum(result),
            Some(keys.iter().map(|&k| k as i128).sum())
        );
    }

    #[test]
    fn f64_total_order_on_special_values() {
        let ascending = [
            f64::NEG_INFINITY,
            f64::MIN,
            -1.5,
            -f64::MIN_POSITIVE, // largest-magnitude negative subnormal's neighbour
            -f64::from_bits(1), // smallest-magnitude negative subnormal
            -0.0,
            0.0,
            f64::from_bits(1), // smallest positive subnormal
            f64::MIN_POSITIVE,
            1.5,
            f64::MAX,
            f64::INFINITY,
            f64::NAN, // policy: NaN sorts above +inf
        ];
        for w in ascending.windows(2) {
            assert!(
                w[0].encode() < w[1].encode(),
                "{:?} ({:#x}) < {:?} ({:#x})",
                w[0],
                w[0].encode(),
                w[1],
                w[1].encode()
            );
        }
    }

    #[test]
    fn f64_round_trips_bit_exactly_including_signed_zero() {
        for v in [
            -0.0,
            0.0,
            1.0,
            -1.0,
            f64::MIN,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(1),
            -f64::from_bits(1),
        ] {
            assert_eq!(f64::decode(v.encode()).to_bits(), v.to_bits(), "{v:?}");
        }
    }

    #[test]
    fn f64_nan_canonicalises_to_one_code() {
        let nans = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff8_0000_0000_0001), // payload bits
            f64::from_bits(0xfff0_0000_0000_0001), // negative signalling-ish
        ];
        let canonical = f64::NAN.encode();
        for nan in nans {
            assert_eq!(nan.encode(), canonical, "{:#x}", nan.to_bits());
        }
        assert!(f64::decode(canonical).is_nan());
        assert_eq!(f64::decode_sum(ScanResult { sum: 1, count: 1 }), None);
    }

    #[test]
    fn str_prefix_is_a_bijection_with_codes() {
        for s in ["", "a", "abc", "abcdefgh", "zzzzzzzz"] {
            let p = StrPrefix::new(s);
            assert_eq!(StrPrefix::decode(p.encode()), p, "{s:?}");
        }
        // Truncation beyond the prefix collapses, by design.
        assert_eq!(
            StrPrefix::new("abcdefghX").encode(),
            StrPrefix::new("abcdefghY").encode()
        );
    }

    #[test]
    fn str_prefix_order_matches_byte_order() {
        let ascending = ["", "a", "a\0b", "ab", "abc", "b", "zz", "\u{00e9}"];
        for w in ascending.windows(2) {
            let (a, b) = (StrPrefix::new(w[0]), StrPrefix::new(w[1]));
            assert!(a < b, "{:?} < {:?}", w[0], w[1]);
            assert!(a.encode() < b.encode(), "{:?} < {:?} encoded", w[0], w[1]);
        }
    }
}
