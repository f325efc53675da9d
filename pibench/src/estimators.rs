//! Denoised estimators. On a shared two-core box the same deterministic
//! work runs at very different speeds from one moment to the next, and the
//! disturbance only ever adds time. So every timing metric is a low
//! quantile over repetitions of identical work, never one measurement.
//!
//! How low: the 5th percentile. Eight pairs of runs of `explore_cold` in a
//! loud half hour, the same seeds for each estimator, gave these spreads
//! (interquartile range over median) between runs — lower quartile, lower
//! decile, 3rd percentile: `setup_s` 0.15, 0.14, 0.06; `first_op_ms` 0.16,
//! 0.13, 0.07; `converge_s` 0.05, 0.03, 0.02; `hot_ops_s` 0.07, 0.05,
//! 0.02. In a quiet half hour all three stayed under 0.1. The minimum
//! itself would lean on one sample; the 5th percentile of 15 repetitions
//! sits between the smallest and the next.

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let at = q * (sorted.len() - 1) as f64;
    let below = at.floor() as usize;
    let above = (below + 1).min(sorted.len() - 1);
    sorted[below] + (sorted[above] - sorted[below]) * (at - below as f64)
}

fn sorted_copy(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The quantile timings are read at, and rates at its mirror.
const LOW: f64 = 0.05;

/// The 5th percentile: "how long does this take when the box leaves it
/// alone", untouched by one-sided noise in up to nineteen samples in
/// twenty.
pub fn low(samples: &[f64]) -> f64 {
    quantile(&sorted_copy(samples), LOW)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted_copy(samples), 0.5)
}

/// The 95th percentile: [`low`]'s mirror for rates, where noise only ever
/// subtracts.
pub fn high(samples: &[f64]) -> f64 {
    quantile(&sorted_copy(samples), 1.0 - LOW)
}

/// Interquartile range over the median: how far repeated samples scatter.
pub fn spread(samples: &[f64]) -> f64 {
    let sorted = sorted_copy(samples);
    (quantile(&sorted, 0.75) - quantile(&sorted, 0.25)) / quantile(&sorted, 0.5)
}

/// A percentile of an ascending slice as a band: the mean of the values
/// between quantiles `from` and `to`.
///
/// Around the 99th (98.5th to 99.5th): on a curve whose expensive ops thin
/// out gradually — cold ops, merge steps, fsyncs, each a little cheaper
/// than the last — the single value at the 99th percentile is whichever op
/// a seed happens to put there (0.18–0.24 ms between seeds on
/// `mixed_durable`); the band's mean moves only as the tail as a whole
/// moves. Around the median (40th to 60th): an op of a microsecond is
/// timed in a few dozen ticks of the clock, so the median itself is one of
/// a handful of values and reads the same from run to run; the band's mean
/// does not.
pub fn band_mean(sorted: &[f64], from: f64, to: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let last = (sorted.len() - 1) as f64;
    let band = &sorted[(from * last) as usize..=(to * last) as usize];
    band.iter().sum::<f64>() / band.len() as f64
}

pub fn p99_band(sorted: &[f64]) -> f64 {
    band_mean(sorted, 0.985, 0.995)
}

pub fn p50_band(sorted: &[f64]) -> f64 {
    band_mean(sorted, 0.4, 0.6)
}

/// The denoised cold curve: `t_i` = the low quantile over repetitions of op
/// `i`'s latency. Every repetition ran the same ops on a fresh instance,
/// so the per-index samples differ by noise alone.
pub fn denoise(repetitions: &[Vec<u64>]) -> Vec<f64> {
    let ops = repetitions[0].len();
    assert!(
        repetitions.iter().all(|r| r.len() == ops),
        "repetitions must time the same ops"
    );
    let mut column = vec![0.0; repetitions.len()];
    (0..ops)
        .map(|i| {
            for (slot, rep) in column.iter_mut().zip(repetitions) {
                *slot = rep[i] as f64;
            }
            column.sort_by(f64::total_cmp);
            quantile(&column, LOW)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Rng;

    #[test]
    fn quantiles_interpolate() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&sorted, 0.0), 1.0);
        assert_eq!(quantile(&sorted, 0.25), 2.0);
        assert_eq!(quantile(&sorted, 0.5), 3.0);
        assert_eq!(quantile(&sorted, 1.0), 5.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 1.25);
        assert_eq!(quantile(&[7.0], 0.75), 7.0);
        assert_eq!(low(&[5.0, 1.0, 4.0, 2.0, 3.0]), 1.2);
        assert_eq!(high(&[5.0, 1.0, 4.0, 2.0, 3.0]), 4.8);
        assert_eq!(spread(&[5.0, 1.0, 4.0, 2.0, 3.0]), 2.0 / 3.0);
    }

    #[test]
    fn the_p99_band_averages_around_the_99th_percentile() {
        let ramp: Vec<f64> = (0..=1000).map(f64::from).collect();
        assert_eq!(p99_band(&ramp), 990.0);
        // Three values of 200: the second to fourth largest.
        let mut plateau = vec![1.0; 200];
        plateau[196..].copy_from_slice(&[5.0, 6.0, 7.0, 100.0]);
        assert_eq!(p99_band(&plateau), 6.0);
        assert_eq!(p99_band(&[3.0]), 3.0);
        assert_eq!(p50_band(&ramp), 500.0);
        assert_eq!(p50_band(&[1.0, 2.0, 3.0, 4.0, 100.0]), 2.5);
    }

    /// A planted curve with a spike, disturbed the way the box disturbs
    /// it: most samples get a little jitter, one in three gets a stall of
    /// up to 20× on top. The denoised curve must recover the plant; the
    /// per-index mean must not.
    #[test]
    fn denoise_recovers_a_planted_curve_under_one_sided_noise() {
        let planted: Vec<u64> = (0..400)
            .map(|i| if i == 57 { 900_000 } else { 10_000 + 50 * i })
            .collect();
        let mut rng = Rng::new(11, 0);
        let repetitions: Vec<Vec<u64>> = (0..16)
            .map(|_| {
                planted
                    .iter()
                    .map(|&t| {
                        let jitter = rng.below(t / 50 + 1);
                        let stall = if rng.below(3) == 0 {
                            rng.below(20 * t)
                        } else {
                            0
                        };
                        t + jitter + stall
                    })
                    .collect()
            })
            .collect();
        let curve = denoise(&repetitions);
        let total: f64 = curve.iter().sum();
        let planted_total: f64 = planted.iter().map(|&t| t as f64).sum();
        assert!((total / planted_total - 1.0).abs() < 0.03, "{total}");
        let worst = curve.iter().cloned().fold(0.0, f64::max);
        assert!((worst / 900_000.0 - 1.0).abs() < 0.05, "{worst}");
        let mean_total: f64 = (0..planted.len())
            .map(|i| repetitions.iter().map(|r| r[i] as f64).sum::<f64>() / 16.0)
            .sum();
        assert!(
            mean_total / planted_total > 2.0,
            "the noise must be visible"
        );
    }

    #[test]
    #[should_panic(expected = "same ops")]
    fn denoise_rejects_ragged_repetitions() {
        denoise(&[vec![1, 2], vec![1]]);
    }
}
