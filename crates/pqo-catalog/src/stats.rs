//! Per-column statistics.

use crate::distribution::Distribution;
use crate::histogram::Histogram;

/// Number of seeded draws a column's histogram summarizes. Large enough
/// that histogram quantization error is well below the selectivity-region
/// widths the experiments use. Only the `STATS_BUCKETS + 1` draws at the
/// bounds' ranks are evaluated, except for Normal columns, whose every draw
/// is (see [`crate::histogram`]).
pub const STATS_SAMPLE_SIZE: usize = 40_000;

/// Default histogram resolution.
pub const STATS_BUCKETS: usize = 200;

/// Statistics for one column: an equi-depth histogram plus the number of
/// distinct values (used for join selectivity estimation).
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Equi-depth histogram over the column values.
    pub histogram: Histogram,
    /// Estimated number of distinct values.
    pub ndv: u64,
}

impl ColumnStats {
    /// Build statistics for a column: the equi-depth histogram of
    /// [`STATS_SAMPLE_SIZE`] draws of `dist` seeded from `seed`, selected at
    /// its bounds' ranks rather than sorted. `seed` makes the statistics
    /// deterministic per column.
    ///
    /// # Panics
    /// Panics if `dist`'s parameters are unusable (see
    /// [`Histogram::from_distribution`]).
    pub fn build(dist: &Distribution, ndv: u64, seed: u64) -> Self {
        ColumnStats {
            histogram: Histogram::from_distribution(dist, STATS_SAMPLE_SIZE, STATS_BUCKETS, seed),
            ndv,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_produces_full_resolution_histogram() {
        let d = Distribution::Uniform { min: 0.0, max: 1.0 };
        let s = ColumnStats::build(&d, 1000, 5);
        assert_eq!(s.histogram.buckets(), STATS_BUCKETS);
        assert_eq!(s.ndv, 1000);
    }

    #[test]
    fn build_is_deterministic() {
        let d = Distribution::Zipf {
            min: 0.0,
            max: 10.0,
            exponent: 2.0,
        };
        let a = ColumnStats::build(&d, 10, 99);
        let b = ColumnStats::build(&d, 10, 99);
        assert_eq!(a.histogram.quantile(0.37), b.histogram.quantile(0.37));
    }
}
