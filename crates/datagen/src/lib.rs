//! # lcdc-datagen
//!
//! Seeded synthetic columnar workloads.
//!
//! The paper motivates its schemes with analytic-DBMS column data we do
//! not have (vendor traces, order tables). These generators are the
//! documented substitution: each produces a column with exactly the
//! statistical property a scheme exploits — run structure for RLE/RPE,
//! local variation for FOR, trends for linear frames, outlier mixes for
//! patched schemes — under a caller-supplied seed, so every experiment is
//! reproducible bit-for-bit.

#![forbid(unsafe_code)]

pub mod outliers;
pub mod runs;
pub mod steps;
pub mod tpch_like;
pub mod trend;
pub mod zipf;

pub use outliers::locally_varying_with_outliers;
pub use runs::shipped_order_dates;
pub use steps::{default_heavy, step_column, uneven_plateaus};
pub use trend::{noisy_linear, sawtooth_trend};
pub use zipf::zipf_codes;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Construct the deterministic RNG used by every generator.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Uniform random values in `0..bound` (a worst case for every
/// lightweight scheme except NS).
pub fn uniform(n: usize, bound: u64, seed: u64) -> Vec<u64> {
    use rand::Rng;
    let mut r = rng(seed);
    (0..n).map(|_| r.random_range(0..bound)).collect()
}

/// A strictly increasing column of unique values with random gaps in
/// `1..=max_gap` (e.g. surrogate keys with deletions) — DELTA's best case.
pub fn sorted_unique(n: usize, start: u64, max_gap: u64, seed: u64) -> Vec<u64> {
    use rand::Rng;
    let mut r = rng(seed);
    let mut acc = start;
    (0..n)
        .map(|_| {
            let v = acc;
            acc += r.random_range(1..=max_gap.max(1));
            v
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_seed_deterministic() {
        assert_eq!(uniform(100, 1000, 7), uniform(100, 1000, 7));
        assert_ne!(uniform(100, 1000, 7), uniform(100, 1000, 8));
    }

    #[test]
    fn uniform_respects_bound() {
        assert!(uniform(1000, 50, 1).iter().all(|&v| v < 50));
    }

    #[test]
    fn sorted_unique_is_strictly_increasing() {
        let col = sorted_unique(500, 10, 5, 3);
        assert!(col.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(col[0], 10);
    }

    #[test]
    fn sorted_unique_gap_floor() {
        // max_gap 0 is clamped to 1: still strictly increasing.
        let col = sorted_unique(10, 0, 0, 1);
        assert!(col.windows(2).all(|w| w[1] == w[0] + 1));
    }
}
