//! Seeded value distributions used to synthesize column contents.
//!
//! Columns never materialize actual rows; instead each column's statistics
//! are the equi-depth histogram of a fixed number of seeded draws (see
//! [`crate::histogram`]), and `pqo-exec` draws its simulated rows through
//! the same [`Distribution::sample`]. Everything is deterministic given a
//! seed so that every run of the reproduction sees exactly the same
//! statistics.

use pqo_rand::{f64_in, f64_in_closed, Rng};

/// A univariate value distribution over a numeric domain.
///
/// All variants produce values in `[min, max]` (clamped where the underlying
/// law is unbounded). The skewed variants (`Zipf`, `Exponential`) model the
/// "TPC-H with skew" data generator the paper uses (reference \[23\]).
/// A table refuses a column whose parameters are outside what its variant
/// states (see `TableBuilder::column`).
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

    /// Why these parameters are unusable, or `Ok`: `min` and `max` (and
    /// the span between them) must be finite with `min <= max`, a Zipf
    /// exponent and an Exponential rate must be > 0 (the rate large enough
    /// that `−ln ε / rate` is finite), and a Normal's mean and stddev finite
    /// with stddev >= 0.
    pub(crate) fn check(&self) -> Result<(), String> {
        let (min, max) = (self.min(), self.max());
        if !(min.is_finite() && max.is_finite() && (max - min).is_finite()) {
            return Err(format!("bounds [{min:?}, {max:?}] are not finite"));
        }
        if min > max {
            return Err(format!("bounds [{min:?}, {max:?}] are inverted"));
        }
        match *self {
            Distribution::Zipf { exponent, .. } if exponent.is_nan() || exponent <= 0.0 => {
                Err(format!("Zipf exponent {exponent:?} is not > 0"))
            }
            Distribution::Exponential { rate, .. } if rate.is_nan() || rate <= 0.0 => {
                Err(format!("Exponential rate {rate:?} is not > 0"))
            }
            // The largest `−ln u / rate` is infinite, and a point range
            // (`max − min == 0`) turns that into NaN.
            Distribution::Exponential { rate, .. } if !(f64::EPSILON.ln() / rate).is_finite() => {
                Err(format!(
                    "Exponential rate {rate:?} is too small: −ln ε / rate overflows"
                ))
            }
            Distribution::Normal { mean, stddev, .. }
                if !(mean.is_finite() && stddev.is_finite() && stddev >= 0.0) =>
            {
                Err(format!(
                    "Normal mean {mean:?} and stddev {stddev:?} are not finite with stddev >= 0"
                ))
            }
            _ => Ok(()),
        }
    }

    /// Draw one value: `Normal` from two draws (Box–Muller), every other
    /// kind from one, through the value-of-draw map the statistics evaluate
    /// at ranks (see [`crate::histogram`]).
    // Inlined into the statistics' loop over a Normal column's draws
    // whichever codegen unit each lands in: left to the partitioning, an
    // edit elsewhere in this crate once doubled that time.
    #[inline]
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        match *self {
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
            _ => self.of_draw(rng.next_u64()),
        }
    }

    /// How many raw draws [`Distribution::sample`] takes.
    pub(crate) fn draws_per_value(&self) -> usize {
        match self {
            Distribution::Normal { .. } => 2,
            _ => 1,
        }
    }

    /// The value one raw 64-bit draw gives a one-draw kind. With checked
    /// parameters it is non-decreasing in `draw >> 11` for `Uniform` and
    /// `Zipf` and non-increasing for `Exponential`: a uniform fraction of
    /// the draw, then `powf` with a positive exponent or `−ln / rate`, then
    /// a scale, a shift and a clamp — each step monotone, as long as libm's
    /// `powf` and `ln` are.
    ///
    /// # Panics
    /// Panics on `Normal`, whose value takes two draws.
    #[inline]
    pub(crate) fn of_draw(&self, draw: u64) -> f64 {
        match *self {
            Distribution::Uniform { min, max } => f64_in_closed(min..=max, draw),
            Distribution::Zipf { min, max, exponent } => {
                let u = f64_in_closed(0.0..=1.0, draw);
                min + (max - min) * u.powf(exponent)
            }
            Distribution::Exponential { min, max, rate } => {
                let u = f64_in(f64::EPSILON..1.0, draw);
                (min - u.ln() / rate * (max - min)).clamp(min, max)
            }
            Distribution::Normal { .. } => panic!("a Normal value takes two draws"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqo_rand::rngs::StdRng;
    use pqo_rand::SeedableRng;

    /// `n` values drawn with a generator seeded from `seed`.
    fn draws(d: &Distribution, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| d.sample(&mut rng)).collect()
    }

    #[test]
    fn uniform_stays_in_range() {
        let d = Distribution::Uniform {
            min: 2.0,
            max: 10.0,
        };
        for v in draws(&d, 1000, 1) {
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
        let samples = draws(&d, 10_000, 2);
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
        for v in draws(&d, 1000, 3) {
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
        let samples = draws(&d, 10_000, 4);
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!(mean < 200.0, "mean {mean}");
    }

    #[test]
    fn sampling_is_deterministic() {
        let d = Distribution::Uniform { min: 0.0, max: 1.0 };
        assert_eq!(draws(&d, 64, 42), draws(&d, 64, 42));
        assert_ne!(draws(&d, 64, 42), draws(&d, 64, 43));
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
