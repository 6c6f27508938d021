//! The committed column-statistics golden, and the histogram builders
//! against the full stable sort.
//!
//! Every selectivity a decision uses comes from a column's equi-depth
//! histogram, so the other goldens rest on these bytes. This file pins them:
//! one line per column of the four shipped catalogs — `catalog
//! table.column kind ndv` and an FNV-1a hash over the bit patterns of the
//! histogram's bounds — against `tests/fixtures/catalog_stats.golden`. A
//! change to how statistics are built that is meant to keep them has to
//! leave that file byte-identical; there is no bless switch (a mismatch
//! writes the text this build produces beside the test binaries and says
//! where).
//!
//! Beside it, both builders (`Histogram::from_samples` and the seeded
//! `Histogram::from_distribution`) must agree bit for bit with the full
//! stable sort — kept here as the reference — on seeded parameters of every
//! kind of column.

// The other goldens' helpers come with it.
#[allow(dead_code)]
mod common;

use std::fmt::Write as _;

use common::{fnv1a, FNV_OFFSET};
use pqo::catalog::schemas::all_catalogs;
use pqo::catalog::stats::{STATS_BUCKETS, STATS_SAMPLE_SIZE};
use pqo::catalog::table::TableBuilder;
use pqo::catalog::{Distribution, Histogram};
use pqo_rand::rngs::StdRng;
use pqo_rand::{Rng, SeedableRng};

fn kind(d: &Distribution) -> &'static str {
    match d {
        Distribution::Uniform { .. } => "uniform",
        Distribution::Zipf { .. } => "zipf",
        Distribution::Normal { .. } => "normal",
        Distribution::Exponential { .. } => "exponential",
    }
}

/// FNV-1a over the bounds' bit patterns, little-endian.
fn hash_bounds(bounds: &[f64]) -> u64 {
    let mut hash = FNV_OFFSET;
    for b in bounds {
        fnv1a(&mut hash, b.to_bits().to_le_bytes());
    }
    hash
}

#[test]
fn column_statistics_match_the_committed_golden() {
    let mut actual = String::new();
    for catalog in all_catalogs() {
        for table in catalog.tables() {
            for column in &table.columns {
                writeln!(
                    actual,
                    "{} {}.{} {} {} {:016x}",
                    catalog.name(),
                    table.name,
                    column.name,
                    kind(&column.distribution),
                    column.stats.ndv,
                    hash_bounds(column.stats.histogram.bounds()),
                )
                .unwrap();
            }
        }
    }
    assert_eq!(actual.lines().count(), 200, "the four catalogs' columns");
    common::assert_matches_golden("catalog_stats", &actual);
}

/// The reference: stable-sort every sample, keep rank `round(i·(n−1)/b)`.
fn sorted_bounds(samples: &[f64], buckets: usize) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN sample"));
    let n = sorted.len();
    (0..=buckets)
        .map(|i| sorted[(((i * (n - 1)) as f64 / buckets as f64).round() as usize).min(n - 1)])
        .collect()
}

fn bits(bounds: &[f64]) -> Vec<u64> {
    bounds.iter().map(|b| b.to_bits()).collect()
}

/// `n` values of `dist` from a generator seeded from `seed`.
fn draws(dist: &Distribution, n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| dist.sample(&mut rng)).collect()
}

/// Seeded parameters of kind `kind % 4`: ranges that are sometimes a point
/// (`min == max`) or touch ±0.0, Zipf exponents below and above 1, and
/// Exponential rates and Normal spreads that clamp many values at `min` or
/// `max`.
fn random_distribution(rng: &mut StdRng, kind: usize) -> Distribution {
    let min = match rng.gen_range(0..4usize) {
        0 => 0.0,
        1 => -0.0,
        _ => rng.gen_range(-1000.0..1000.0),
    };
    let max = match rng.gen_range(0..8usize) {
        0 => min,
        1 if min <= 0.0 => 0.0,
        2 if min <= 0.0 => -0.0,
        _ => min + rng.gen_range(0.0..2000.0),
    };
    let span = max - min;
    match kind % 4 {
        0 => Distribution::Uniform { min, max },
        1 => Distribution::Zipf {
            min,
            max,
            exponent: [0.05, 0.5, 1.0, 2.0, 7.5][rng.gen_range(0..5usize)]
                * rng.gen_range(0.5..1.5),
        },
        2 => Distribution::Normal {
            min,
            max,
            mean: min + rng.gen_range(-1.0..2.0) * span,
            stddev: [0.0, 0.05, 0.3, 3.0][rng.gen_range(0..4usize)] * span,
        },
        _ => Distribution::Exponential {
            min,
            max,
            rate: [0.05, 0.5, 4.0, 300.0][rng.gen_range(0..4usize)] * rng.gen_range(0.5..1.5),
        },
    }
}

/// Both builders against the reference on `n` draws of `dist`.
fn assert_builders_equal_the_sort(dist: &Distribution, n: usize, buckets: usize, seed: u64) {
    let samples = draws(dist, n, seed);
    let wanted = bits(&sorted_bounds(&samples, buckets));
    let seeded = Histogram::from_distribution(dist, n, buckets, seed);
    assert_eq!(
        bits(seeded.bounds()),
        wanted,
        "{dist:?}, n {n}, {buckets} buckets, seed {seed}"
    );
    let from_samples = Histogram::from_samples(samples, buckets);
    assert_eq!(
        bits(from_samples.bounds()),
        wanted,
        "from_samples of {dist:?}, n {n}, {buckets} buckets, seed {seed}"
    );
}

#[test]
fn both_builders_equal_the_full_stable_sort_for_every_kind() {
    let mut rng = StdRng::seed_from_u64(0x57a7_0001);
    for case in 0..480 {
        let dist = random_distribution(&mut rng, case);
        // One bucket, more buckets than samples, and `n` rarely a multiple
        // of the bucket count; every 40th case at the statistics' own size.
        let (n, buckets) = match case % 40 {
            0..=3 => (STATS_SAMPLE_SIZE, STATS_BUCKETS),
            4..=7 => (rng.gen_range(1..3000usize), 1),
            8..=11 => (rng.gen_range(1..40usize), rng.gen_range(40..300usize)),
            _ => (rng.gen_range(1..3000usize), rng.gen_range(1..300usize)),
        };
        assert_builders_equal_the_sort(&dist, n, buckets, rng.gen_range(0..u64::MAX));
    }
}

#[test]
fn a_column_of_both_zeros_keeps_the_stream_order() {
    // Over [-5e-324, -0.0] an Exponential is `min`, exactly 0.0 (its `−ln u`
    // rounds to one subnormal step) or above `max`, clamped to -0.0: both
    // zeros in one column, where only the stream decides their order.
    let dist = Distribution::Exponential {
        min: -5e-324,
        max: -0.0,
        rate: 1.0,
    };
    for seed in 0..8 {
        let samples = draws(&dist, 3000, seed);
        assert!(samples.iter().any(|v| *v == 0.0 && v.is_sign_positive()));
        assert!(samples.iter().any(|v| *v == 0.0 && v.is_sign_negative()));
        assert_builders_equal_the_sort(&dist, 3000, 40, seed);
    }
}

#[test]
fn from_samples_keeps_the_stable_order_of_equal_values() {
    // Runs of equal values, -0.0 beside 0.0, and infinities: the order the
    // stable sort leaves equal values in is the stream's.
    let mut rng = StdRng::seed_from_u64(0x57a7_0002);
    let pool = [
        -0.0,
        0.0,
        1.0,
        -2.5,
        1e300,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    for case in 0..300 {
        let n = rng.gen_range(1..500usize);
        let buckets = rng.gen_range(1..64usize);
        // Every other case without the infinities.
        let pool = &pool[..pool.len() - 2 * (case % 2)];
        let samples: Vec<f64> = (0..n)
            .map(|_| match rng.gen_range(0..3usize) {
                0 => rng.gen_range(-3.0..3.0),
                _ => pool[rng.gen_range(0..pool.len())],
            })
            .collect();
        let wanted = bits(&sorted_bounds(&samples, buckets));
        let built = Histogram::from_samples(samples.clone(), buckets);
        assert_eq!(bits(built.bounds()), wanted, "case {case}: {samples:?}");
    }
}

/// A one-column table over `dist`.
fn column_of(dist: Distribution) {
    let _ = TableBuilder::new("t", 1000).column("c", dist, 10, false);
}

#[test]
#[should_panic(expected = "column t.c: Zipf exponent 0.0 is not > 0")]
fn a_zipf_exponent_of_zero_is_refused() {
    column_of(Distribution::Zipf {
        min: 0.0,
        max: 1.0,
        exponent: 0.0,
    });
}

#[test]
#[should_panic(expected = "column t.c: Zipf exponent -1.0 is not > 0")]
fn a_negative_zipf_exponent_is_refused() {
    column_of(Distribution::Zipf {
        min: 0.0,
        max: 1.0,
        exponent: -1.0,
    });
}

#[test]
#[should_panic(expected = "column t.c: Exponential rate 0.0 is not > 0")]
fn an_exponential_rate_of_zero_is_refused() {
    column_of(Distribution::Exponential {
        min: 0.0,
        max: 1.0,
        rate: 0.0,
    });
}

#[test]
#[should_panic(expected = "column t.c: Exponential rate -2.0 is not > 0")]
fn a_negative_exponential_rate_is_refused() {
    column_of(Distribution::Exponential {
        min: 0.0,
        max: 1.0,
        rate: -2.0,
    });
}

#[test]
#[should_panic(expected = "column t.c: Exponential rate 1e-310 is too small")]
fn an_exponential_rate_that_overflows_is_refused() {
    // A point range would turn the infinite `−ln u / rate` into NaN.
    column_of(Distribution::Exponential {
        min: 1.0,
        max: 1.0,
        rate: 1e-310,
    });
}

#[test]
#[should_panic(expected = "column t.c: Normal mean 0.5 and stddev -0.1 are")]
fn a_negative_normal_stddev_is_refused() {
    column_of(Distribution::Normal {
        min: 0.0,
        max: 1.0,
        mean: 0.5,
        stddev: -0.1,
    });
}

#[test]
#[should_panic(expected = "column t.c: Normal mean 0.5 and stddev NaN are")]
fn a_non_finite_normal_stddev_is_refused() {
    column_of(Distribution::Normal {
        min: 0.0,
        max: 1.0,
        mean: 0.5,
        stddev: f64::NAN,
    });
}

#[test]
#[should_panic(expected = "column t.c: Normal mean inf and stddev 1.0 are")]
fn a_non_finite_normal_mean_is_refused() {
    column_of(Distribution::Normal {
        min: 0.0,
        max: 1.0,
        mean: f64::INFINITY,
        stddev: 1.0,
    });
}

#[test]
#[should_panic(expected = "column t.c: bounds [0.0, inf] are not finite")]
fn a_non_finite_bound_is_refused() {
    column_of(Distribution::Uniform {
        min: 0.0,
        max: f64::INFINITY,
    });
}

#[test]
#[should_panic(expected = "column t.c: bounds [-1e308, 1e308] are not finite")]
fn a_span_past_the_largest_float_is_refused() {
    column_of(Distribution::Uniform {
        min: -1e308,
        max: 1e308,
    });
}

#[test]
#[should_panic(expected = "column t.c: bounds [NaN, 1.0] are not finite")]
fn a_nan_bound_is_refused() {
    column_of(Distribution::Exponential {
        min: f64::NAN,
        max: 1.0,
        rate: 1.0,
    });
}

#[test]
#[should_panic(expected = "column t.c: bounds [2.0, 1.0] are inverted")]
fn inverted_bounds_are_refused() {
    column_of(Distribution::Zipf {
        min: 2.0,
        max: 1.0,
        exponent: 2.0,
    });
}
