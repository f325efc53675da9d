//! Synthetic data-set generators (Section 4.1 of the paper).
//!
//! The paper's synthetic evaluation uses columns of 10^8 or 10^9 8-byte
//! integers in the domain `[0, n)`:
//!
//! * a **uniform random** data set of unique integers, and
//! * a **skewed** data set of non-unique integers where 90% of the values
//!   are concentrated in the middle of the domain.
//!
//! Both generators are deterministic given a seed so experiments are
//! repeatable, and both scale down to laptop-size columns (the experiment
//! harness defaults to 10^6–10^7 and takes the size as a parameter).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Column element type re-exported for convenience (an unsigned 64-bit
/// integer, as in `pi-storage`).
pub(crate) type Value = u64;

/// The two synthetic data distributions of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Distribution {
    /// Unique integers `0..n`, randomly permuted.
    UniformRandom,
    /// Non-unique integers in `[0, n)` with 90% of the values concentrated
    /// in the middle tenth of the domain.
    Skewed,
}

impl Distribution {
    /// Short label used in experiment output.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Distribution::UniformRandom => "uniform-random",
            Distribution::Skewed => "skewed",
        }
    }
}

impl std::fmt::Display for Distribution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Generates `n` values drawn from `distribution` over the domain
/// `[0, n)`.
pub fn generate(distribution: Distribution, n: usize, seed: u64) -> Vec<Value> {
    match distribution {
        Distribution::UniformRandom => uniform_random(n, seed),
        Distribution::Skewed => skewed(n, seed),
    }
}

/// Unique integers `0..n` in random order — the paper's "uniform random"
/// data set. Every value occurs exactly once, so range-query selectivity
/// maps directly to range width.
pub fn uniform_random(n: usize, seed: u64) -> Vec<Value> {
    let mut values: Vec<Value> = (0..n as Value).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    values.shuffle(&mut rng);
    values
}

/// Non-unique integers in `[0, n)` where 90% of the values fall into the
/// middle tenth of the domain — the paper's "skewed" data set.
pub fn skewed(n: usize, seed: u64) -> Vec<Value> {
    skewed_with(n, seed, 0.9, 0.1)
}

/// Skewed generator with explicit parameters: `hot_fraction` of the values
/// are drawn uniformly from a centred window covering `hot_width` of the
/// domain; the rest are drawn uniformly from the whole domain.
///
/// # Panics
/// Panics when the fractions are outside `(0, 1]`.
pub(crate) fn skewed_with(n: usize, seed: u64, hot_fraction: f64, hot_width: f64) -> Vec<Value> {
    assert!(
        hot_fraction > 0.0 && hot_fraction <= 1.0,
        "hot fraction must lie in (0, 1], got {hot_fraction}"
    );
    assert!(
        hot_width > 0.0 && hot_width <= 1.0,
        "hot width must lie in (0, 1], got {hot_width}"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let domain = n.max(1) as u64;
    let hot_span = ((domain as f64 * hot_width) as u64).max(1);
    let hot_start = (domain - hot_span) / 2;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        let v = if rng.gen::<f64>() < hot_fraction {
            hot_start + rng.gen_range(0..hot_span)
        } else {
            rng.gen_range(0..domain)
        };
        values.push(v);
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_random_is_a_permutation() {
        let v = uniform_random(10_000, 7);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10_000).collect::<Vec<_>>());
    }

    #[test]
    fn uniform_random_is_deterministic_per_seed() {
        assert_eq!(uniform_random(1_000, 1), uniform_random(1_000, 1));
        assert_ne!(uniform_random(1_000, 1), uniform_random(1_000, 2));
    }

    #[test]
    fn skewed_concentrates_mass_in_the_middle() {
        let n = 100_000;
        let v = skewed(n, 3);
        assert_eq!(v.len(), n);
        let domain = n as u64;
        let hot_start = domain * 45 / 100;
        let hot_end = domain * 55 / 100;
        let in_hot = v.iter().filter(|&&x| x >= hot_start && x < hot_end).count();
        // 90% target plus the ~1% of background values that land there.
        let fraction = in_hot as f64 / n as f64;
        assert!(
            fraction > 0.85 && fraction < 0.95,
            "hot fraction was {fraction}"
        );
        assert!(v.iter().all(|&x| x < domain));
    }

    #[test]
    fn skewed_with_full_width_degenerates_to_uniform_domain() {
        let v = skewed_with(10_000, 5, 0.5, 1.0);
        assert!(v.iter().all(|&x| x < 10_000));
    }

    #[test]
    fn generate_dispatches_on_distribution() {
        let u = generate(Distribution::UniformRandom, 100, 9);
        let s = generate(Distribution::Skewed, 100, 9);
        assert_eq!(u.len(), 100);
        assert_eq!(s.len(), 100);
        assert_ne!(u, s);
        assert_eq!(Distribution::UniformRandom.label(), "uniform-random");
        assert_eq!(Distribution::Skewed.to_string(), "skewed");
    }

    #[test]
    #[should_panic(expected = "hot fraction")]
    fn skewed_rejects_zero_hot_fraction() {
        let _ = skewed_with(10, 1, 0.0, 0.1);
    }
}
