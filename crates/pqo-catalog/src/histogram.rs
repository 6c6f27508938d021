//! Equi-depth histograms.
//!
//! This is the statistics structure behind the engine's selectivity
//! estimation. Each bucket holds the same number of underlying samples, so
//! bucket boundaries are quantiles of the column distribution. Selectivity of
//! `col <= v` is estimated by locating `v`'s bucket and interpolating
//! linearly inside it; the inverse operation ([`Histogram::quantile`]) maps a
//! target selectivity back to a predicate value, which the workload generator
//! uses to place instances at chosen points of the selectivity space.

/// Minimum selectivity ever reported. Real optimizers clamp estimates away
/// from zero; the paper's multiplicative machinery (ratios `αi`, factors `G`
/// and `L`) also requires strictly positive selectivities.
pub const MIN_SELECTIVITY: f64 = 1e-6;

/// An equi-depth histogram over a numeric column.
///
/// ```
/// use pqo_catalog::histogram::Histogram;
///
/// // 10k uniform samples over [0, 100).
/// let samples: Vec<f64> = (0..10_000).map(|i| (i % 100) as f64).collect();
/// let h = Histogram::from_samples(samples, 50);
///
/// // Selectivity of `col <= 25` is about a quarter...
/// assert!((h.selectivity_le(25.0) - 0.25).abs() < 0.03);
/// // ...and `quantile` inverts it.
/// assert!((h.selectivity_le(h.quantile(0.7)) - 0.7).abs() < 0.03);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    /// `bounds[i]..bounds[i+1]` is bucket `i`; `bounds` has `buckets + 1`
    /// entries and is non-decreasing.
    bounds: Vec<f64>,
}

impl Histogram {
    /// Build an equi-depth histogram with `buckets` buckets from `samples`.
    ///
    /// # Panics
    /// Panics if `samples` is empty, `buckets == 0`, or any sample is NaN.
    pub fn from_samples(mut samples: Vec<f64>, buckets: usize) -> Self {
        assert!(!samples.is_empty(), "histogram needs at least one sample");
        assert!(buckets > 0, "histogram needs at least one bucket");
        samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample in histogram input"));
        let n = samples.len();
        let mut bounds = Vec::with_capacity(buckets + 1);
        for i in 0..=buckets {
            // Quantile of rank i/buckets, with both endpoints included.
            let idx = ((i * (n - 1)) as f64 / buckets as f64).round() as usize;
            bounds.push(samples[idx.min(n - 1)]);
        }
        Histogram { bounds }
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Smallest value covered.
    pub fn min(&self) -> f64 {
        self.bounds[0]
    }

    /// Largest value covered.
    pub fn max(&self) -> f64 {
        *self.bounds.last().unwrap()
    }

    /// Estimated selectivity of `col <= v`, clamped to
    /// `[MIN_SELECTIVITY, 1.0]`.
    pub fn selectivity_le(&self, v: f64) -> f64 {
        let b = self.buckets() as f64;
        if v <= self.min() {
            return MIN_SELECTIVITY;
        }
        if v >= self.max() {
            return 1.0;
        }
        // The bucket containing v: the last bound ≤ v (bounds is sorted, and
        // bounds[0] < v), so v equal to a run of bounds takes the run's last.
        let i = self.bounds.partition_point(|&b| b <= v).saturating_sub(1);
        let i = i.min(self.buckets() - 1);
        let lo = self.bounds[i];
        let hi = self.bounds[i + 1];
        let frac = if hi > lo { (v - lo) / (hi - lo) } else { 1.0 };
        ((i as f64 + frac) / b).clamp(MIN_SELECTIVITY, 1.0)
    }

    /// Estimated selectivity of `col >= v`, clamped to
    /// `[MIN_SELECTIVITY, 1.0]`.
    pub fn selectivity_ge(&self, v: f64) -> f64 {
        (1.0 - self.selectivity_le(v)).clamp(MIN_SELECTIVITY, 1.0)
    }

    /// Value `v` such that `selectivity_le(v) ≈ p` — the inverse of
    /// [`Histogram::selectivity_le`]. `p` is clamped to `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        let b = self.buckets() as f64;
        let pos = p * b;
        let i = (pos.floor() as usize).min(self.buckets() - 1);
        let frac = pos - i as f64;
        let lo = self.bounds[i];
        let hi = self.bounds[i + 1];
        lo + frac * (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::Distribution;
    use pqo_rand::rngs::StdRng;
    use pqo_rand::{Rng, SeedableRng};

    fn uniform_hist() -> Histogram {
        let d = Distribution::Uniform {
            min: 0.0,
            max: 100.0,
        };
        Histogram::from_samples(d.sample_n(50_000, 7), 100)
    }

    #[test]
    fn selectivity_le_tracks_uniform_cdf() {
        let h = uniform_hist();
        for v in [10.0, 25.0, 50.0, 75.0, 90.0] {
            let sel = h.selectivity_le(v);
            assert!((sel - v / 100.0).abs() < 0.02, "v={v} sel={sel}");
        }
    }

    #[test]
    fn selectivity_ge_is_complement() {
        let h = uniform_hist();
        let le = h.selectivity_le(30.0);
        let ge = h.selectivity_ge(30.0);
        assert!((le + ge - 1.0).abs() < 1e-9);
    }

    #[test]
    fn extremes_clamp() {
        let h = uniform_hist();
        assert_eq!(h.selectivity_le(-5.0), MIN_SELECTIVITY);
        assert_eq!(h.selectivity_le(1000.0), 1.0);
        assert_eq!(h.selectivity_ge(1000.0), MIN_SELECTIVITY);
    }

    #[test]
    fn quantile_inverts_selectivity() {
        let h = uniform_hist();
        for p in [0.01, 0.1, 0.3, 0.5, 0.9, 0.99] {
            let v = h.quantile(p);
            let sel = h.selectivity_le(v);
            assert!((sel - p).abs() < 0.015, "p={p} v={v} sel={sel}");
        }
    }

    #[test]
    fn works_on_skewed_data() {
        let d = Distribution::Zipf {
            min: 0.0,
            max: 1000.0,
            exponent: 4.0,
        };
        let h = Histogram::from_samples(d.sample_n(50_000, 9), 100);
        // Equi-depth: median of heavily skewed data is far below the midpoint.
        assert!(h.quantile(0.5) < 200.0);
        // Still invertible on skewed data.
        let v = h.quantile(0.25);
        assert!((h.selectivity_le(v) - 0.25).abs() < 0.02);
    }

    #[test]
    fn single_bucket_histogram() {
        let h = Histogram::from_samples(vec![1.0, 2.0, 3.0, 4.0], 1);
        assert_eq!(h.buckets(), 1);
        assert!(h.selectivity_le(2.5) > 0.0);
        assert!(h.selectivity_le(2.5) < 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_samples_panic() {
        let _ = Histogram::from_samples(vec![], 4);
    }

    #[test]
    fn a_value_on_duplicate_bounds_takes_the_last_of_them() {
        // Buckets 2 and 3 are empty: bounds 2, 3 and 4 are all 2.0.
        let h = Histogram {
            bounds: vec![0.0, 1.0, 2.0, 2.0, 2.0, 3.0, 4.0],
        };
        // Bucket 4 = [2, 3), entered at its low bound: 4 of 6 buckets below.
        assert_eq!(h.selectivity_le(2.0), 4.0 / 6.0);
        assert_eq!(h.selectivity_le(2.5), 4.5 / 6.0);
        assert_eq!(h.selectivity_le(1.5), 1.5 / 6.0);
        assert!(
            h.selectivity_le(f64::NAN).is_nan(),
            "a NaN is no bucket, and no panic"
        );
    }

    #[test]
    fn constant_column() {
        let h = Histogram::from_samples(vec![5.0; 100], 10);
        assert_eq!(h.selectivity_le(5.0), MIN_SELECTIVITY); // v <= min clamps
        assert_eq!(h.selectivity_le(5.1), 1.0);
    }

    fn random_vals(rng: &mut StdRng, lo: f64, hi: f64, min_n: usize, max_n: usize) -> Vec<f64> {
        let n = rng.gen_range(min_n..max_n);
        (0..n).map(|_| rng.gen_range(lo..hi)).collect()
    }

    #[test]
    fn selectivity_le_is_monotone_randomized() {
        let mut rng = StdRng::seed_from_u64(0x4157_0001);
        for _ in 0..256 {
            let vals = random_vals(&mut rng, 0.0, 1000.0, 10, 500);
            let a = rng.gen_range(0.0..1000.0);
            let b = rng.gen_range(0.0..1000.0);
            let h = Histogram::from_samples(vals, 20);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            assert!(h.selectivity_le(lo) <= h.selectivity_le(hi) + 1e-12);
        }
    }

    #[test]
    fn quantile_is_monotone_randomized() {
        let mut rng = StdRng::seed_from_u64(0x4157_0002);
        for _ in 0..256 {
            let vals = random_vals(&mut rng, -50.0, 50.0, 10, 500);
            let p = rng.gen_range(0.0..1.0);
            let q = rng.gen_range(0.0..1.0);
            let h = Histogram::from_samples(vals, 16);
            let (lo, hi) = if p <= q { (p, q) } else { (q, p) };
            assert!(h.quantile(lo) <= h.quantile(hi) + 1e-9);
        }
    }

    #[test]
    fn selectivity_always_in_unit_interval_randomized() {
        let mut rng = StdRng::seed_from_u64(0x4157_0003);
        for _ in 0..256 {
            let vals = random_vals(&mut rng, 0.0, 10.0, 2, 200);
            let v = rng.gen_range(-5.0..15.0);
            let h = Histogram::from_samples(vals, 8);
            let s = h.selectivity_le(v);
            assert!((MIN_SELECTIVITY..=1.0).contains(&s));
        }
    }

    #[test]
    fn roundtrip_quantile_selectivity_randomized() {
        // On a smooth distribution the roundtrip error is bounded by one
        // bucket width.
        let d = Distribution::Uniform { min: 0.0, max: 1.0 };
        let h = Histogram::from_samples(d.sample_n(20_000, 11), 50);
        let mut rng = StdRng::seed_from_u64(0x4157_0004);
        for _ in 0..256 {
            let p = rng.gen_range(0.05..0.95);
            let v = h.quantile(p);
            assert!((h.selectivity_le(v) - p).abs() < 0.03, "p={p} v={v}");
        }
    }
}
