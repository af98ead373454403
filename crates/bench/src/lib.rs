//! # lcdc-bench
//!
//! Shared workload definitions and measurement helpers for the
//! experiment suite (E1–E11, A2–A3 and the ablations, as the `report`
//! binary prints them; the paper each one tests is restated in
//! `lcdc-core`'s module docs). The Criterion benches under `benches/`
//! measure throughput; the `report` binary prints the
//! compression-ratio and speedup tables.

#![forbid(unsafe_code)]

use lcdc_core::ColumnData;

/// Fixed seed: every experiment is reproducible bit-for-bit.
pub const SEED: u64 = 0x1CDE_2018;

/// E1/E2/E8 workload: the §I shipped-orders date column.
pub fn dates_column(days: usize, orders_per_day: usize) -> ColumnData {
    ColumnData::U64(lcdc_datagen::shipped_order_dates(
        days,
        orders_per_day,
        20_180_101,
        SEED,
    ))
}

/// E2 run-length sweep workload: runs over a small domain with a
/// controlled mean run length.
pub fn runs_column(n: usize, mean_run_len: usize) -> ColumnData {
    ColumnData::U64(lcdc_datagen::runs::runs_over_domain(
        n,
        mean_run_len,
        1000,
        SEED,
    ))
}

/// E3 workload: locally-tight values (FOR's home turf).
pub fn locally_tight_column(n: usize, seg_len: usize, spread: u64) -> ColumnData {
    ColumnData::U64(lcdc_datagen::step_column(n, seg_len, 1 << 40, spread, SEED))
}

/// E4 workload: locally-tight values with an outlier fraction.
pub fn outlier_column(n: usize, outlier_fraction: f64) -> ColumnData {
    ColumnData::U64(lcdc_datagen::locally_varying_with_outliers(
        n,
        128,
        1 << 20,
        16,
        outlier_fraction,
        1 << 44,
        SEED,
    ))
}

/// E5 workload: width skew across regions — most of the column narrow,
/// a tail region wide.
pub fn skewed_width_column(n: usize, wide_fraction: f64) -> ColumnData {
    let wide_from = ((1.0 - wide_fraction.clamp(0.0, 1.0)) * n as f64) as usize;
    let mut v = lcdc_datagen::uniform(n, 16, SEED);
    for (i, x) in v.iter_mut().enumerate().skip(wide_from) {
        *x = x.wrapping_mul(1 << 40) | (i as u64 & 0xFFFF);
    }
    ColumnData::U64(v)
}

/// E6 workload: piecewise-linear trend with noise.
pub fn trending_column(n: usize, slope: u64, noise: u64) -> ColumnData {
    ColumnData::U64(lcdc_datagen::sawtooth_trend(
        n,
        4096,
        slope,
        1 << 20,
        noise,
        SEED,
    ))
}

/// E10 workload: a drifting random walk — per-segment ranges vary, so
/// gradual refinement has a meaningful widest-first order.
pub fn walk_column(n: usize) -> ColumnData {
    ColumnData::U64(lcdc_datagen::steps::bounded_walk(n, 1 << 30, 64, SEED))
}

/// E7/E8 workload: the lineitem-like table generator re-exported with
/// the experiment seed.
pub fn lineitem(days: usize, rows_per_day: usize) -> lcdc_datagen::tpch_like::LineitemLike {
    lcdc_datagen::tpch_like::lineitem_like(days, rows_per_day, SEED)
}

/// Wall-clock one closure, returning (result, seconds). For the report
/// binary only — Criterion owns the rigorous timing.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Median-of-`reps` wall-clock of a closure (report binary only).
pub fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = std::time::Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Compression ratio of a scheme expression over a column (errors
/// surface as `None`).
pub fn ratio_of(expr: &str, col: &ColumnData) -> Option<f64> {
    let scheme = lcdc_core::parse_scheme(expr).ok()?;
    let c = scheme.compress(col).ok()?;
    c.ratio()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic() {
        assert_eq!(dates_column(10, 5), dates_column(10, 5));
        assert_eq!(outlier_column(1000, 0.05), outlier_column(1000, 0.05));
    }

    #[test]
    fn skew_places_wide_values_at_tail() {
        let col = skewed_width_column(1000, 0.1);
        let t = col.to_transport();
        assert!(t[..900].iter().all(|&v| v < 16));
        assert!(t[950..].iter().any(|&v| v > 1 << 30));
    }

    #[test]
    fn ratio_helper() {
        let col = dates_column(100, 20);
        assert!(ratio_of("rle[values=delta[deltas=ns_zz],lengths=ns]", &col).unwrap() > 50.0);
        assert!(ratio_of("not_a_scheme", &col).is_none());
    }

    #[test]
    fn timing_helpers_run() {
        let (v, secs) = time_it(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        assert!(time_median(3, || 1 + 1) >= 0.0);
    }
}
