//! Seeded value distributions used to synthesize column contents.
//!
//! Columns never materialize actual rows; instead each column samples its
//! distribution a fixed number of times to build an equi-depth histogram
//! (see [`crate::histogram`]). The samplers are deterministic given a seed so
//! that every run of the reproduction sees exactly the same statistics.

use pqo_rand::rngs::StdRng;
use pqo_rand::{Rng, SeedableRng};

/// A univariate value distribution over a numeric domain.
///
/// All variants produce values in `[min, max]` (clamped where the underlying
/// law is unbounded). The skewed variants (`Zipf`, `Exponential`) model the
/// "TPC-H with skew" data generator the paper uses (reference \[23\]).
#[derive(Debug, Clone, PartialEq)]
pub enum Distribution {
    /// Uniform over `[min, max]`.
    Uniform { min: f64, max: f64 },
    /// Zipf-like: value `min + (max-min) * u^theta_exponent`, producing heavy
    /// concentration near `min` for `exponent > 1`. `exponent` must be > 0.
    Zipf { min: f64, max: f64, exponent: f64 },
    /// Normal with the given mean/stddev, clamped to `[min, max]`.
    Normal {
        min: f64,
        max: f64,
        mean: f64,
        stddev: f64,
    },
    /// Exponential decay from `min`, clamped to `[min, max]`. `rate` > 0;
    /// larger rates concentrate mass near `min`.
    Exponential { min: f64, max: f64, rate: f64 },
}

impl Distribution {
    /// Lower bound of the support.
    pub fn min(&self) -> f64 {
        match *self {
            Distribution::Uniform { min, .. }
            | Distribution::Zipf { min, .. }
            | Distribution::Normal { min, .. }
            | Distribution::Exponential { min, .. } => min,
        }
    }

    /// Upper bound of the support.
    pub fn max(&self) -> f64 {
        match *self {
            Distribution::Uniform { max, .. }
            | Distribution::Zipf { max, .. }
            | Distribution::Normal { max, .. }
            | Distribution::Exponential { max, .. } => max,
        }
    }

    /// Draw one value.
    // Inlined into `sample_n`'s loop whichever codegen unit each lands in:
    // building the catalogs draws 40 000 values per column, and left to the
    // partitioning an edit elsewhere in this crate doubled that time.
    #[inline]
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        match *self {
            Distribution::Uniform { min, max } => rng.gen_range(min..=max),
            Distribution::Zipf { min, max, exponent } => {
                let u: f64 = rng.gen_range(0.0..=1.0);
                min + (max - min) * u.powf(exponent)
            }
            Distribution::Normal {
                min,
                max,
                mean,
                stddev,
            } => {
                // Box-Muller; clamped to the declared support.
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                (mean + stddev * z).clamp(min, max)
            }
            Distribution::Exponential { min, max, rate } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                (min - u.ln() / rate * (max - min)).clamp(min, max)
            }
        }
    }

    /// Draw `n` values with a deterministic RNG seeded from `seed`.
    pub fn sample_n(&self, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| self.sample(&mut rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_stays_in_range() {
        let d = Distribution::Uniform {
            min: 2.0,
            max: 10.0,
        };
        for v in d.sample_n(1000, 1) {
            assert!((2.0..=10.0).contains(&v));
        }
    }

    #[test]
    fn zipf_is_skewed_towards_min() {
        let d = Distribution::Zipf {
            min: 0.0,
            max: 100.0,
            exponent: 3.0,
        };
        let samples = d.sample_n(10_000, 2);
        let below_quarter = samples.iter().filter(|&&v| v < 25.0).count();
        // u^3 maps 63% of uniform mass below 0.25.
        assert!(below_quarter > 5_000, "got {below_quarter}");
    }

    #[test]
    fn normal_is_clamped() {
        let d = Distribution::Normal {
            min: -1.0,
            max: 1.0,
            mean: 0.0,
            stddev: 10.0,
        };
        for v in d.sample_n(1000, 3) {
            assert!((-1.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn exponential_concentrates_near_min() {
        let d = Distribution::Exponential {
            min: 0.0,
            max: 1000.0,
            rate: 10.0,
        };
        let samples = d.sample_n(10_000, 4);
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!(mean < 200.0, "mean {mean}");
    }

    #[test]
    fn sampling_is_deterministic() {
        let d = Distribution::Uniform { min: 0.0, max: 1.0 };
        assert_eq!(d.sample_n(64, 42), d.sample_n(64, 42));
        assert_ne!(d.sample_n(64, 42), d.sample_n(64, 43));
    }

    #[test]
    fn min_max_accessors() {
        let d = Distribution::Zipf {
            min: 1.0,
            max: 9.0,
            exponent: 2.0,
        };
        assert_eq!(d.min(), 1.0);
        assert_eq!(d.max(), 9.0);
    }
}
