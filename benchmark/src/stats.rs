//! Order statistics and seed mixing shared by the workloads.

/// Median of `samples` (mean of the two middle values for an even
/// count), 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(percentile, value)`. With fewer than twenty samples no percentile
/// above the median qualifies and the median is returned as `(50, p50)`.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let n = samples.len();
    if n < 20 {
        return (50.0, median(samples));
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = n - 11;
    (100.0 * (idx + 1) as f64 / n as f64, v[idx])
}

/// Mean of `samples`, 0 for none.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The `index`-th sub-seed of a run's `--seed` (splitmix64 of their
/// combination), so neighbouring seeds share no inputs.
pub fn sub_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&few), (50.0, 10.0));
    }

    #[test]
    fn sub_seeds_of_neighbouring_seeds_differ() {
        let a: Vec<u64> = (0..8).map(|i| sub_seed(1, i)).collect();
        let b: Vec<u64> = (0..8).map(|i| sub_seed(2, i)).collect();
        assert!(a.iter().all(|x| !b.contains(x)));
    }
}
