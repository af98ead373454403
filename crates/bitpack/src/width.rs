//! Bit-width measurement utilities.
//!
//! The NS scheme is parameterised by a width `w`; choosing `w` requires
//! scanning the data. These helpers compute exact maxima, histograms and
//! percentiles of per-value widths. Percentiles drive the *patched*
//! variants (paper §II-B, the L0-metric generalisation): pick a width that
//! covers, say, 99 % of values and store the rest as exceptions.

/// Number of bits needed to represent `v` exactly.
///
/// `bits_needed_u64(0) == 0`: a column of zeros packs into zero bits.
#[inline]
pub fn bits_needed_u64(v: u64) -> u32 {
    64 - v.leading_zeros()
}

/// The smallest width that represents every value in `values`.
///
/// Returns 0 for an empty slice or an all-zero slice.
pub fn max_width(values: &[u64]) -> u32 {
    // A single OR-reduction is cheaper than per-element `bits_needed`:
    // the width of the OR of all values equals the max width.
    let folded = values.iter().fold(0u64, |acc, &v| acc | v);
    bits_needed_u64(folded)
}

/// Histogram of per-value widths: `hist[w]` counts values needing exactly
/// `w` bits, for `w` in `0..=64`.
pub fn width_histogram(values: &[u64]) -> [usize; 65] {
    let mut hist = [0usize; 65];
    for &v in values {
        hist[bits_needed_u64(v) as usize] += 1;
    }
    hist
}

/// The smallest width `w` such that at least `fraction` of the values fit
/// in `w` bits. `fraction` is clamped to `0.0..=1.0`.
///
/// Returns 0 for an empty slice. This is the width-selection rule for
/// patched (exception-based) schemes.
pub fn width_percentile(values: &[u64], fraction: f64) -> u32 {
    histogram_percentile(&width_histogram(values), values.len(), fraction)
}

/// [`width_percentile`] of the `len` values a [`width_histogram`]
/// counted.
pub fn histogram_percentile(hist: &[usize; 65], len: usize, fraction: f64) -> u32 {
    if len == 0 {
        return 0;
    }
    let fraction = fraction.clamp(0.0, 1.0);
    let need = (fraction * len as f64).ceil() as usize;
    let mut cum = 0usize;
    for (w, &count) in hist.iter().enumerate() {
        cum += count;
        if cum >= need {
            return w as u32;
        }
    }
    64
}

/// Total packed payload size, in bytes, of `n` values at `width` bits
/// (rounded up to whole 64-bit words, matching [`crate::pack::Packed`]).
pub fn packed_bytes(n: usize, width: u32) -> usize {
    let bits = n as u128 * width as u128;
    let words = bits.div_ceil(64) as usize;
    words * 8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_needed_edges() {
        assert_eq!(bits_needed_u64(0), 0);
        assert_eq!(bits_needed_u64(1), 1);
        assert_eq!(bits_needed_u64(2), 2);
        assert_eq!(bits_needed_u64(3), 2);
        assert_eq!(bits_needed_u64(255), 8);
        assert_eq!(bits_needed_u64(256), 9);
        assert_eq!(bits_needed_u64(u64::MAX), 64);
        assert_eq!(bits_needed_u64(1 << 63), 64);
    }

    #[test]
    fn max_width_basic() {
        assert_eq!(max_width(&[]), 0);
        assert_eq!(max_width(&[0, 0, 0]), 0);
        assert_eq!(max_width(&[1, 2, 3]), 2);
        assert_eq!(max_width(&[7, 255, 3]), 8);
        assert_eq!(max_width(&[u64::MAX]), 64);
    }

    #[test]
    fn histogram_counts_every_value() {
        let values = [0u64, 1, 1, 3, 8, 255, 256];
        let hist = width_histogram(&values);
        assert_eq!(hist[0], 1);
        assert_eq!(hist[1], 2);
        assert_eq!(hist[2], 1);
        assert_eq!(hist[4], 1);
        assert_eq!(hist[8], 1);
        assert_eq!(hist[9], 1);
        assert_eq!(hist.iter().sum::<usize>(), values.len());
    }

    #[test]
    fn percentile_selects_covering_width() {
        // 90 small values, 10 large ones.
        let mut values = vec![3u64; 90];
        values.extend(std::iter::repeat_n(1_000_000u64, 10));
        assert_eq!(width_percentile(&values, 0.9), 2);
        assert_eq!(width_percentile(&values, 1.0), 20);
        assert_eq!(width_percentile(&[], 0.5), 0);
    }

    #[test]
    fn percentile_fraction_clamped() {
        let values = [1u64, 2, 4];
        assert_eq!(width_percentile(&values, -1.0), 0);
        assert_eq!(width_percentile(&values, 2.0), 3);
    }

    #[test]
    fn packed_bytes_rounding() {
        assert_eq!(packed_bytes(0, 13), 0);
        assert_eq!(packed_bytes(1, 13), 8);
        assert_eq!(packed_bytes(64, 1), 8);
        assert_eq!(packed_bytes(65, 1), 16);
        assert_eq!(packed_bytes(100, 0), 0);
    }
}
