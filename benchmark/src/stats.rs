//! Order statistics and the seeded generator every workload draws from.

/// Fewest samples that must lie beyond a percentile for it to be
/// reported: with fewer, the figure is one or two outliers, not a tail.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The `q`-quantile (nearest rank) of an ascending slice, or `None` when
/// fewer than [`MIN_SAMPLES_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_SAMPLES_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The `q`-quantile of the values with linear interpolation between
/// ranks (0.5 is [`median`]); 0.0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let Some(last) = v.len().checked_sub(1) else {
        return 0.0;
    };
    let at = q.clamp(0.0, 1.0) * last as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

/// Median of the values (mean of the middle two for an even count);
/// 0.0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// SplitMix64: the benchmark's only source of randomness, so a seed
/// fixes every generated byte.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for
    /// every `n` this benchmark uses.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_hand_computed_ranks() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), Some(50));
        // Rank 90 leaves exactly ten samples beyond it.
        assert_eq!(percentile(&v, 0.90), Some(90));
    }

    #[test]
    fn percentile_refused_with_fewer_than_ten_samples_beyond() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.91), None);
        assert_eq!(percentile(&v, 0.99), None);
        let big: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&big, 0.99), Some(990));
        assert_eq!(percentile(&big, 0.999), None);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[1, 2, 3], 0.5), None);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn good_side_quartile_ignores_stalled_slices() {
        // Twenty 1 s slices at about 1 000 ops, four of them stalled: the
        // mean reads 820, the upper quartile still reads the quiet rate.
        let mut counts: Vec<f64> = (0..16).map(|i| 1_000.0 + i as f64).collect();
        counts.extend([100.0; 4]);
        assert_eq!(quantile(&counts, 0.75), 1_010.25);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
        assert_eq!(quantile(&[10.0, 20.0], 0.25), 12.5);
        assert_eq!(quantile(&[7.0], 0.75), 7.0);
        assert_eq!(quantile(&[], 0.75), 0.0);
    }

    #[test]
    fn rng_is_a_pure_function_of_the_seed() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a[0], Rng::new(8).next_u64());
        assert!(Rng::new(1).below(10) < 10);
        assert_eq!(Rng::new(1).bytes(5).len(), 5);
    }
}
