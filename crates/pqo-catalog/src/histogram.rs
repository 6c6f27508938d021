//! Equi-depth histograms.
//!
//! This is the statistics structure behind the engine's selectivity
//! estimation. Each bucket holds the same number of underlying samples, so
//! bucket boundaries are quantiles of the column distribution. Selectivity of
//! `col <= v` is estimated by locating `v`'s bucket and interpolating
//! linearly inside it; the inverse operation ([`Histogram::quantile`]) maps a
//! target selectivity back to a predicate value, which the workload generator
//! uses to place instances at chosen points of the selectivity space.
//!
//! # Building from order statistics
//!
//! A histogram of `n` samples and `b` buckets keeps only the `b + 1`
//! samples at ranks `round(i·(n−1)/b)` of their stable sort. Both builders
//! select those ranks instead of sorting everything: one pass counts the
//! samples per key bucket, a second keeps only the samples of the few
//! buckets that hold a wanted rank, and just those are sorted. Either key
//! is non-decreasing in what the full sort orders by, so bucket by bucket
//! the kept samples sit where the full sort puts them.
//!
//! * [`Histogram::from_distribution`], for the kinds that take one draw per
//!   value (Uniform, Zipf, Exponential), keys the *draws*: a value there is
//!   a monotone function of its draw's 53 high bits (rising, or falling for
//!   Exponential), so the sample of rank `r` is that function of the draw
//!   of rank `r` (`n−1−r` when falling), and only the `b + 1` kept draws
//!   are ever evaluated. That rests on `powf` and `ln` being monotone, which
//!   libm's are in practice but do not promise: the committed
//!   `catalog_stats` golden, not this argument, guarantees the shipped
//!   catalogs' bytes.
//! * Normal columns (Box–Muller takes two draws, and is not monotone in
//!   either), a one-draw kind with a `-0.0` bound (the one way such a kind
//!   yields both zeros, whose order its draws do not decide) and
//!   [`Histogram::from_samples`] key the *values*, linearly over their
//!   range. Every value is evaluated, and the kept values are stable-sorted
//!   in stream order, so equal values (`-0.0` and `0.0` among them) land
//!   where the full stable sort puts them.

use pqo_rand::rngs::StdRng;
use pqo_rand::{Rng, SeedableRng};

use crate::distribution::Distribution;

/// Minimum selectivity ever reported. Real optimizers clamp estimates away
/// from zero; the paper's multiplicative machinery (ratios `αi`, factors `G`
/// and `L`) also requires strictly positive selectivities.
pub const MIN_SELECTIVITY: f64 = 1e-6;

/// Key buckets a selection counts samples into: about ten each at the
/// statistics' 40 000 samples, and a key fits in 16 bits.
const KEY_BUCKETS: usize = 4096;
const _: () = assert!(KEY_BUCKETS <= 1 << u16::BITS);

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
    /// Build an equi-depth histogram with `buckets` buckets from `samples`:
    /// bound `i` is the sample of rank `round(i·(n−1)/buckets)` in a stable
    /// sort of the `n` samples.
    ///
    /// # Panics
    /// Panics if `samples` is empty, `buckets == 0`, or any sample is NaN.
    pub fn from_samples(samples: Vec<f64>, buckets: usize) -> Self {
        assert!(!samples.is_empty(), "histogram needs at least one sample");
        assert!(buckets > 0, "histogram needs at least one bucket");
        Histogram {
            bounds: by_value(&samples, buckets),
        }
    }

    /// The histogram [`Histogram::from_samples`] builds from `n` values of
    /// `dist` drawn by a generator seeded from `seed`, without drawing them
    /// all: one-draw kinds evaluate only the `buckets + 1` kept draws (see
    /// the module docs).
    ///
    /// # Panics
    /// Panics if `n == 0`, `buckets == 0`, or `dist`'s parameters are
    /// unusable (see `TableBuilder::column`).
    pub fn from_distribution(dist: &Distribution, n: usize, buckets: usize, seed: u64) -> Self {
        assert!(n > 0, "histogram needs at least one sample");
        assert!(buckets > 0, "histogram needs at least one bucket");
        if let Err(why) = dist.check() {
            panic!("unusable distribution: {why}");
        }
        // A -0.0 bound is the one way a one-draw kind yields both zeros,
        // whose order its draws do not decide: such a column is keyed by
        // value.
        let signed_zero_bound = [dist.min(), dist.max()]
            .iter()
            .any(|b| *b == 0.0 && b.is_sign_negative());
        let bounds = match dist {
            Distribution::Uniform { .. } | Distribution::Zipf { .. } if !signed_zero_bound => {
                by_draw(dist, n, buckets, seed, false)
            }
            Distribution::Exponential { .. } if !signed_zero_bound => {
                by_draw(dist, n, buckets, seed, true)
            }
            _ => by_value_of_stream(dist, n, buckets, seed),
        };
        Histogram { bounds }
    }

    /// The `buckets + 1` bucket bounds, non-decreasing: bucket `i` is
    /// `bounds[i]..bounds[i+1]`.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
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

/// Rank of bound `i` among `n` sorted samples: the quantile `i / buckets`,
/// both endpoints included.
fn rank(i: usize, n: usize, buckets: usize) -> usize {
    (((i * (n - 1)) as f64 / buckets as f64).round() as usize).min(n - 1)
}

/// Which key buckets hold a wanted rank, and where each rank sits among
/// those buckets' samples once they are sorted. Sized exactly and dropped
/// with the column: nothing of a build stays resident.
struct Selection {
    /// Per key bucket: whether its samples are kept.
    wanted: Vec<bool>,
    /// Per wanted rank, ascending: its index among the kept samples.
    at: Vec<usize>,
    /// Samples in the wanted buckets.
    kept: usize,
}

impl Selection {
    /// From the samples per key bucket (in key order) and the wanted ranks,
    /// ascending.
    fn new(counts: &[usize], ranks: impl Iterator<Item = usize>) -> Self {
        let mut at = Vec::with_capacity(ranks.size_hint().0);
        let mut ranks = ranks.peekable();
        let mut wanted = vec![false; counts.len()];
        // Samples in the buckets below this one.
        let mut below = 0;
        let mut kept = 0;
        for (&count, keep) in counts.iter().zip(&mut wanted) {
            while let Some(r) = ranks.next_if(|&r| r < below + count) {
                at.push(kept + (r - below));
                *keep = true;
            }
            below += count;
            if *keep {
                kept += count;
            }
        }
        Selection { wanted, at, kept }
    }
}

/// The bounds of `n` one-draw values of `dist`, each a function of its raw
/// draw that is non-decreasing in the draw's high bits, or non-increasing
/// when `falling`. The draws are keyed by their top 12 bits.
fn by_draw(dist: &Distribution, n: usize, buckets: usize, seed: u64, falling: bool) -> Vec<f64> {
    let key = |draw: u64| (draw >> (u64::BITS - KEY_BUCKETS.trailing_zeros())) as usize;
    let mut counts = vec![0; KEY_BUCKETS];
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..n {
        counts[key(rng.next_u64())] += 1;
    }
    // Draw ranks, ascending: a falling value of rank `r` is the draw of
    // rank `n−1−r`, so these run from the last bound to the first.
    let ranks = (0..=buckets).map(|i| {
        if falling {
            n - 1 - rank(buckets - i, n, buckets)
        } else {
            rank(i, n, buckets)
        }
    });
    let selection = Selection::new(&counts, ranks);
    // Replay the stream, keeping the wanted buckets' draws. Sorted whole,
    // they sort as their high bits do, and draws equal there give equal
    // values.
    let mut draws = Vec::with_capacity(selection.kept);
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..n {
        let draw = rng.next_u64();
        if selection.wanted[key(draw)] {
            draws.push(draw);
        }
    }
    draws.sort_unstable();
    let mut bounds: Vec<f64> = selection
        .at
        .iter()
        .map(|&k| dist.of_draw(draws[k]))
        .collect();
    if falling {
        bounds.reverse();
    }
    bounds
}

/// Linear key buckets over `[lo, hi]`: non-decreasing in the value on all
/// of `f64` (below `lo` is the first bucket, above `hi` the last), with one
/// key for -0.0 and 0.0. A range with no finite positive scale (one value,
/// or an infinite span) is one bucket.
struct ValueKey {
    lo: f64,
    scale: f64,
}

impl ValueKey {
    fn new(lo: f64, hi: f64) -> Self {
        let scale = KEY_BUCKETS as f64 / (hi - lo);
        let scale = if scale.is_finite() && scale > 0.0 {
            scale
        } else {
            0.0
        };
        ValueKey { lo, scale }
    }

    fn of(&self, v: f64) -> usize {
        if self.scale == 0.0 {
            0
        } else {
            // A saturating cast: a negative offset is key 0.
            (((v - self.lo) * self.scale) as usize).min(KEY_BUCKETS - 1)
        }
    }
}

/// The kept values, stable-sorted, at the selection's places. Kept in
/// stream order, equal values end where the full stable sort puts them.
fn sorted_at(mut kept: Vec<f64>, selection: &Selection) -> Vec<f64> {
    kept.sort_by(|a, b| a.partial_cmp(b).expect("no NaN sample is kept"));
    selection.at.iter().map(|&k| kept[k]).collect()
}

/// The bounds of `values`, keyed linearly over their range.
///
/// # Panics
/// Panics if any value is NaN.
fn by_value(values: &[f64], buckets: usize) -> Vec<f64> {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        assert!(!v.is_nan(), "NaN sample in histogram input");
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let key = ValueKey::new(lo, hi);
    let mut counts = vec![0; KEY_BUCKETS];
    for &v in values {
        counts[key.of(v)] += 1;
    }
    let n = values.len();
    let selection = Selection::new(&counts, (0..=buckets).map(|i| rank(i, n, buckets)));
    let mut kept = Vec::with_capacity(selection.kept);
    kept.extend(
        values
            .iter()
            .copied()
            .filter(|&v| selection.wanted[key.of(v)]),
    );
    sorted_at(kept, &selection)
}

/// The bounds of `n` values of `dist`, keyed linearly over its declared
/// range. Every value is evaluated, and the wanted buckets' values once
/// more on a replay of the stream: what is kept of the rest is a 16-bit key
/// each.
fn by_value_of_stream(dist: &Distribution, n: usize, buckets: usize, seed: u64) -> Vec<f64> {
    let key = ValueKey::new(dist.min(), dist.max());
    let mut counts = vec![0; KEY_BUCKETS];
    let mut keys = Vec::with_capacity(n);
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..n {
        let k = key.of(dist.sample(&mut rng));
        counts[k] += 1;
        keys.push(k as u16);
    }
    let selection = Selection::new(&counts, (0..=buckets).map(|i| rank(i, n, buckets)));
    let mut kept = Vec::with_capacity(selection.kept);
    let mut rng = StdRng::seed_from_u64(seed);
    for k in keys {
        if selection.wanted[usize::from(k)] {
            kept.push(dist.sample(&mut rng));
        } else {
            for _ in 0..dist.draws_per_value() {
                rng.next_u64();
            }
        }
    }
    sorted_at(kept, &selection)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` values drawn with a generator seeded from `seed`.
    fn draws(d: &Distribution, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| d.sample(&mut rng)).collect()
    }

    fn uniform_hist() -> Histogram {
        let d = Distribution::Uniform {
            min: 0.0,
            max: 100.0,
        };
        Histogram::from_samples(draws(&d, 50_000, 7), 100)
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
        let h = Histogram::from_samples(draws(&d, 50_000, 9), 100);
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
    #[should_panic(expected = "NaN sample")]
    fn a_nan_sample_panics() {
        let _ = Histogram::from_samples(vec![1.0, f64::NAN, 2.0], 4);
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
        let h = Histogram::from_samples(draws(&d, 20_000, 11), 50);
        let mut rng = StdRng::seed_from_u64(0x4157_0004);
        for _ in 0..256 {
            let p = rng.gen_range(0.05..0.95);
            let v = h.quantile(p);
            assert!((h.selectivity_le(v) - p).abs() < 0.03, "p={p} v={v}");
        }
    }
}
