//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! ships the *subset* of rand 0.9's API that `lcdc-datagen` uses —
//! `StdRng::seed_from_u64`, `Rng::random_range` over integer ranges, and
//! `Rng::random_bool` — backed by xoshiro256++ seeded through SplitMix64.
//! Determinism, not statistical quality, is the contract: every generator
//! in this repo is seeded, and experiment columns must be reproducible
//! bit-for-bit across runs and machines.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Seedable random number generators.
pub trait SeedableRng: Sized {
    /// Construct from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The user-facing generator interface (subset).
pub trait Rng {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Uniform value from a range. Panics on an empty range, like rand.
    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Bernoulli draw. Panics unless `0.0 <= p <= 1.0`, like rand.
    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!(
            (0.0..=1.0).contains(&p),
            "random_bool: p = {p} not in [0, 1]"
        );
        // 53 random bits give an unbiased comparison against an f64 in [0, 1).
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }
}

/// Ranges that can be sampled to produce a `T`.
pub trait SampleRange<T> {
    /// Draw one uniform sample.
    fn sample_from<R: Rng>(self, rng: &mut R) -> T;
}

/// Types with a uniform distribution over an interval. The single
/// blanket impl below (rather than one impl per range type) is what
/// lets integer-literal ranges infer their type from the call site,
/// exactly as real rand's `SampleUniform` does.
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform sample from `lo..hi` (`inclusive` adds the upper bound).
    fn sample_uniform<R: Rng>(lo: Self, hi: Self, inclusive: bool, rng: &mut R) -> Self;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_from<R: Rng>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "cannot sample empty range");
        T::sample_uniform(self.start, self.end, false, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_from<R: Rng>(self, rng: &mut R) -> T {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "cannot sample empty range");
        T::sample_uniform(lo, hi, true, rng)
    }
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_uniform<R: Rng>(lo: $t, hi: $t, inclusive: bool, rng: &mut R) -> $t {
                let span = (hi as i128 - lo as i128) as u128 + if inclusive { 1 } else { 0 };
                (lo as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_uniform<R: Rng>(lo: f64, hi: f64, _inclusive: bool, rng: &mut R) -> f64 {
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + unit * (hi - lo)
    }
}

/// The standard deterministic generator: xoshiro256++.
#[derive(Debug, Clone)]
pub struct StdRng {
    s: [u64; 4],
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        // Expand the seed with SplitMix64, as rand does for small seeds.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        StdRng {
            s: [next(), next(), next(), next()],
        }
    }
}

impl Rng for StdRng {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// `rand::rngs` module mirror.
pub mod rngs {
    pub use super::StdRng;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_constructions() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v: u64 = r.random_range(10..20);
            assert!((10..20).contains(&v));
            let w: i64 = r.random_range(-5..=5);
            assert!((-5..=5).contains(&w));
            let u: usize = r.random_range(1..=1);
            assert_eq!(u, 1);
        }
    }

    #[test]
    fn bool_extremes() {
        let mut r = StdRng::seed_from_u64(7);
        assert!(!(0..100).any(|_| r.random_bool(0.0)));
        assert!((0..100).all(|_| r.random_bool(1.0)));
    }

    #[test]
    #[should_panic]
    fn empty_range_panics() {
        let mut r = StdRng::seed_from_u64(7);
        let _: u64 = r.random_range(5..5);
    }
}
