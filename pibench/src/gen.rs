//! Seeded input generators. Every generator takes its randomness from a
//! [`Rng`] derived from `--seed`, so the same seed gives the same data, op
//! streams and string skew, and the program under test only ever sees the
//! generated inputs.

/// splitmix64: small, fast, and good enough for workload generation. Not
/// the `rand` shim on purpose — the benchmark should not change when the
/// shim does.
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, stream)` pair, so adding a
    /// generator never shifts the values another one draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next();
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `n` values uniform over `[0, domain)`.
pub fn uniform(rng: &mut Rng, n: usize, domain: u64) -> Vec<u64> {
    (0..n).map(|_| rng.below(domain)).collect()
}

/// The paper's skew: 90% of the rows fall in the middle tenth of the
/// domain, the rest are uniform over all of it.
pub fn skewed(rng: &mut Rng, n: usize, domain: u64) -> Vec<u64> {
    let hot_low = domain / 20 * 9;
    let hot_width = (domain / 10).max(1);
    (0..n)
        .map(|_| {
            if rng.below(10) < 9 {
                hot_low + rng.below(hot_width)
            } else {
                rng.below(domain)
            }
        })
        .collect()
}

/// The 8-byte prefix nine strings in ten share, so they tie on one prefix
/// code and the engine's exact-match side path has to order them.
pub const HOT_PREFIX: &str = "customer";

/// Skewed strings: 90% are `HOT_PREFIX` plus a 6-digit suffix, the rest
/// are 4 to 11 random lower-case letters.
pub fn skewed_strings(rng: &mut Rng, n: usize) -> Vec<String> {
    (0..n).map(|_| skewed_string(rng)).collect()
}

pub fn skewed_string(rng: &mut Rng) -> String {
    if rng.below(10) < 9 {
        format!("{HOT_PREFIX}{:06}", rng.below(1_000_000))
    } else {
        let len = 4 + rng.below(8) as usize;
        (0..len)
            .map(|_| (b'a' + rng.below(26) as u8) as char)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_values_other_seed_other_values() {
        let a = uniform(&mut Rng::new(7, 1), 100, 1 << 40);
        let b = uniform(&mut Rng::new(7, 1), 100, 1 << 40);
        let c = uniform(&mut Rng::new(8, 1), 100, 1 << 40);
        let d = uniform(&mut Rng::new(7, 2), 100, 1 << 40);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn skew_puts_nine_tenths_in_the_middle_tenth() {
        let domain = 1_000_000;
        let values = skewed(&mut Rng::new(1, 1), 100_000, domain);
        let hot = values
            .iter()
            .filter(|&&v| (450_000..550_000).contains(&v))
            .count();
        assert!((89_000..93_000).contains(&hot), "{hot}");
        let strings = skewed_strings(&mut Rng::new(1, 2), 10_000);
        let hot = strings.iter().filter(|s| s.starts_with(HOT_PREFIX)).count();
        assert!((8_800..9_200).contains(&hot), "{hot}");
    }
}
