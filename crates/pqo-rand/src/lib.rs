//! Minimal deterministic pseudo-random numbers for the workspace.
//!
//! The repo must build and test **fully offline** (no crates.io access), so
//! this crate provides the tiny slice of the `rand` API the workspace
//! actually uses — a seedable generator, uniform ranges and slice
//! shuffling — over a xoshiro256++ core seeded with SplitMix64. The module
//! layout (`rngs::StdRng`, [`Rng`], [`SeedableRng`], `seq::SliceRandom`)
//! mirrors `rand` so call sites only swap the crate name.
//!
//! Determinism contract: the same seed always produces the same stream, on
//! every platform, across releases of this workspace. Workload generation,
//! experiment seeds and persisted results all rely on it.

/// Uniform random generation, mirroring the subset of `rand::Rng` we use.
pub trait Rng {
    /// Next raw 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    fn gen_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Uniform sample of `T` over its natural unit domain (`f64` ∈ [0, 1)).
    fn gen<T: Sample01>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample01(self)
    }

    /// Uniform sample from a range, e.g. `rng.gen_range(0.0..1.0)`,
    /// `rng.gen_range(1..=6)`.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p.clamp(0.0, 1.0)
    }
}

/// Types that can be sampled uniformly over a unit domain.
pub trait Sample01 {
    /// Draw one sample using `rng`.
    fn sample01<R: Rng>(rng: &mut R) -> Self;
}

impl Sample01 for f64 {
    fn sample01<R: Rng>(rng: &mut R) -> Self {
        rng.gen_f64()
    }
}

impl Sample01 for bool {
    fn sample01<R: Rng>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// `[0, 1)` from one raw draw: its 53 high bits scaled by 2⁻⁵³, what
/// [`Rng::gen_f64`] returns. Non-decreasing in `draw >> 11`.
#[inline]
fn unit_f64(draw: u64) -> f64 {
    (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// What `gen_range(range)` returns for the raw draw `draw`. For a fixed
/// range it is non-decreasing in `draw >> 11`: a scale and a shift, each
/// rounded, and a clamp below `range.end`.
///
/// # Panics
/// Panics if the range is empty.
#[inline]
pub fn f64_in(range: std::ops::Range<f64>, draw: u64) -> f64 {
    assert!(range.start < range.end, "empty range");
    let v = range.start + unit_f64(draw) * (range.end - range.start);
    // Guard the half-open contract against f64 rounding.
    if v >= range.end {
        range.end.next_down()
    } else {
        v
    }
}

/// What `gen_range(range)` returns for the raw draw `draw` over a closed
/// range: the 53 high bits scaled by 1/(2⁵³ − 1) span it. Non-decreasing
/// in `draw >> 11`, as [`f64_in`].
///
/// # Panics
/// Panics if the range is empty.
#[inline]
pub fn f64_in_closed(range: std::ops::RangeInclusive<f64>, draw: u64) -> f64 {
    let (lo, hi) = (*range.start(), *range.end());
    assert!(lo <= hi, "empty range");
    let u = (draw >> 11) as f64 * (1.0 / ((1u64 << 53) - 1) as f64);
    lo + u * (hi - lo)
}

/// Ranges a [`Rng`] can sample from uniformly.
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draw one uniform sample.
    fn sample_from<R: Rng>(self, rng: &mut R) -> Self::Output;
}

impl SampleRange for std::ops::Range<f64> {
    type Output = f64;
    fn sample_from<R: Rng>(self, rng: &mut R) -> f64 {
        f64_in(self, rng.next_u64())
    }
}

impl SampleRange for std::ops::RangeInclusive<f64> {
    type Output = f64;
    fn sample_from<R: Rng>(self, rng: &mut R) -> f64 {
        f64_in_closed(self, rng.next_u64())
    }
}

fn uniform_u64<R: Rng>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    // Rejection sampling: keep draws below the largest multiple of `span`.
    let zone = u64::MAX - (u64::MAX % span);
    loop {
        let v = rng.next_u64();
        if v < zone {
            return v % span;
        }
    }
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for std::ops::Range<$t> {
            type Output = $t;
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + uniform_u64(rng, span) as i128) as $t
            }
        }
        impl SampleRange for std::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + uniform_u64(rng, span + 1) as i128) as $t
            }
        }
    )*};
}
int_range!(usize, u64, u32, i64, i32);

/// Construction from a 64-bit seed, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Deterministic generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Generator implementations.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// The workspace's standard generator: xoshiro256++ (Blackman & Vigna),
    /// state expanded from the seed with SplitMix64 so nearby seeds yield
    /// unrelated streams.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let mut s = [0u64; 4];
            for slot in &mut s {
                *slot = splitmix64(&mut sm);
            }
            // xoshiro's state must not be all-zero; SplitMix64 never yields
            // four zeros from any seed, but guard anyway.
            if s == [0, 0, 0, 0] {
                s[0] = 0x9E37_79B9_7F4A_7C15;
            }
            StdRng { s }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let [s0, s1, s2, s3] = self.s;
            let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
            let t = s1 << 17;
            let mut s = [s0, s1, s2, s3];
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            self.s = s;
            result
        }
    }
}

/// Slice helpers, mirroring `rand::seq::SliceRandom`.
pub mod seq {
    use super::Rng;

    /// Random operations on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;
        /// Uniform in-place Fisher–Yates shuffle.
        fn shuffle<R: Rng>(&mut self, rng: &mut R);
        /// Uniformly chosen element, `None` on an empty slice.
        fn choose<R: Rng>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: Rng>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

pub use rngs::StdRng as DefaultRng;

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(43);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0, "nearby seeds must yield unrelated streams");
    }

    #[test]
    fn f64_stays_in_unit_interval_and_covers_it() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..10_000 {
            let v = rng.gen_f64();
            assert!((0.0..1.0).contains(&v));
            lo_seen |= v < 0.1;
            hi_seen |= v > 0.9;
        }
        assert!(lo_seen && hi_seen, "10k draws must reach both tails");
    }

    #[test]
    fn f64_mean_is_near_half() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 50_000;
        let mean = (0..n).map(|_| rng.gen_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..5_000 {
            let v = rng.gen_range(-4.0f64..9.0);
            assert!((-4.0..9.0).contains(&v));
            let w = rng.gen_range(0.25f64..=0.75);
            assert!((0.25..=0.75).contains(&w));
            let i = rng.gen_range(3usize..17);
            assert!((3..17).contains(&i));
            let j = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&j));
        }
    }

    #[test]
    fn draw_maps_are_what_gen_range_returns() {
        let mut a = StdRng::seed_from_u64(17);
        let mut b = StdRng::seed_from_u64(17);
        for _ in 0..5_000 {
            let v = a.gen_range(-4.0f64..9.0);
            assert_eq!(
                v.to_bits(),
                super::f64_in(-4.0..9.0, b.next_u64()).to_bits()
            );
            let w = a.gen_range(0.25f64..=0.75);
            let x = super::f64_in_closed(0.25..=0.75, b.next_u64());
            assert_eq!(w.to_bits(), x.to_bits());
        }
        // Both ends of the draw's range, and monotone in the high bits.
        assert_eq!(super::f64_in_closed(2.0..=3.0, 0), 2.0);
        assert_eq!(super::f64_in_closed(2.0..=3.0, u64::MAX), 3.0);
        assert_eq!(super::f64_in(2.0..3.0, u64::MAX), 3.0f64.next_down());
        assert!(super::f64_in(0.0..1.0, 1 << 40) <= super::f64_in(0.0..1.0, 1 << 41));
    }

    #[test]
    fn integer_ranges_hit_every_value() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut counts = [0usize; 6];
        for _ in 0..6_000 {
            counts[rng.gen_range(0usize..6)] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            assert!(*c > 700, "value {i} drawn only {c} times");
        }
    }

    #[test]
    fn shuffle_is_a_permutation_and_seed_stable() {
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut StdRng::seed_from_u64(11));
        let mut w = v.clone();
        w.sort_unstable();
        assert_eq!(w, (0..50).collect::<Vec<u32>>());
        let mut v2: Vec<u32> = (0..50).collect();
        v2.shuffle(&mut StdRng::seed_from_u64(11));
        assert_eq!(v, v2, "same seed, same permutation");
        assert_ne!(
            v,
            (0..50).collect::<Vec<u32>>(),
            "50 elements virtually never fixed"
        );
    }

    #[test]
    fn choose_covers_all_elements() {
        let mut rng = StdRng::seed_from_u64(5);
        let items = [1, 2, 3, 4];
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[*items.choose(&mut rng).unwrap() - 1] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(13);
        let hits = (0..20_000).filter(|_| rng.gen_bool(0.25)).count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }
}
