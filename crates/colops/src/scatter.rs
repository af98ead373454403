//! The `Scatter` operator: `out[positions[i]] = src[i]`.
//!
//! Algorithm 1, line 6: scattering a column of ones onto a zeroed column
//! at the run boundary positions produces the "position delta" column
//! whose prefix sum is the per-element run index.

use crate::gather::first_bad_index;
use crate::scalar::{IndexScalar, Scalar};
use crate::{ColOpsError, Result};

/// Scatter `src` into a fresh column of length `len` pre-filled with
/// `fill`: `out[positions[i]] = src[i]`.
///
/// Later writes win on duplicate positions (engine convention).
pub fn scatter<T: Scalar, I: IndexScalar>(
    src: &[T],
    positions: &[I],
    len: usize,
    fill: T,
) -> Result<Vec<T>> {
    let mut out = vec![fill; len];
    scatter_into(src, positions, &mut out)?;
    Ok(out)
}

/// Scatter into an existing column.
///
/// Errors with [`ColOpsError::LengthMismatch`] if `src` and `positions`
/// differ in length, [`ColOpsError::IndexOutOfBounds`] if any position is
/// past the end of `out`. After an error, `out`'s contents are
/// unspecified.
pub fn scatter_into<T: Scalar, I: IndexScalar>(
    src: &[T],
    positions: &[I],
    out: &mut [T],
) -> Result<()> {
    scatter_with(src, positions, out, |slot, v| *slot = v)
}

/// Scatter-add: `out[positions[i]] += src[i]` (wrapping). Used where
/// duplicate positions must accumulate rather than overwrite. Errors as
/// [`scatter_into`] does, and after an error `out`'s contents are
/// unspecified.
pub fn scatter_add_into<T: Scalar, I: IndexScalar>(
    src: &[T],
    positions: &[I],
    out: &mut [T],
) -> Result<()> {
    scatter_with(src, positions, out, |slot, v| *slot = slot.wadd(v))
}

/// One pass with no `Result` per element, `gather`'s shape: a position
/// that is unrepresentable or past the end is skipped and lowers a
/// flag. Only then are the positions rescanned, to report the *first*
/// offending one.
fn scatter_with<T: Scalar, I: IndexScalar>(
    src: &[T],
    positions: &[I],
    out: &mut [T],
    write: impl Fn(&mut T, T),
) -> Result<()> {
    if src.len() != positions.len() {
        return Err(ColOpsError::LengthMismatch {
            left: src.len(),
            right: positions.len(),
        });
    }
    let mut all_in_range = true;
    for (&v, &raw) in src.iter().zip(positions) {
        match raw.to_index().and_then(|i| out.get_mut(i)) {
            Some(slot) => write(slot, v),
            None => all_in_range = false,
        }
    }
    if all_in_range {
        return Ok(());
    }
    Err(first_bad_index(positions, out.len(), I::to_index))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_scatter() {
        let out = scatter(&[9u32, 8], &[3u64, 0], 5, 0).unwrap();
        assert_eq!(out, vec![8, 0, 0, 9, 0]);
    }

    #[test]
    fn algorithm1_ones_at_run_boundaries() {
        // runs of lengths [2,3,1] -> boundary positions (popped prefix
        // sum) [2,5]; scatter ones into zeros of length 6.
        let out = scatter(&[1u32, 1], &[2u64, 5], 6, 0).unwrap();
        assert_eq!(out, vec![0, 0, 1, 0, 0, 1]);
    }

    #[test]
    fn length_mismatch_rejected() {
        assert_eq!(
            scatter(&[1u32, 2, 3], &[0u64], 4, 0),
            Err(ColOpsError::LengthMismatch { left: 3, right: 1 })
        );
    }

    #[test]
    fn out_of_bounds_rejected() {
        // `len` is the indexed column's length, not the position count.
        let expected = Err(ColOpsError::IndexOutOfBounds { index: 4, len: 3 });
        assert_eq!(scatter(&[1u32], &[4u64], 3, 0), expected);
        let mut out = [0u32; 3];
        assert_eq!(
            scatter_add_into(&[1u32], &[4u64], &mut out),
            expected.map(|_| ())
        );
    }

    #[test]
    fn duplicate_positions_last_wins() {
        let out = scatter(&[1u32, 2], &[0u64, 0], 2, 9).unwrap();
        assert_eq!(out, vec![2, 9]);
    }

    #[test]
    fn scatter_add_accumulates() {
        let mut out = vec![0u32; 3];
        scatter_add_into(&[1u32, 2, 3], &[1u64, 1, 2], &mut out).unwrap();
        assert_eq!(out, vec![0, 3, 3]);
    }

    #[test]
    fn a_bad_position_mid_input_reports_the_first_one() {
        // Positions 7 and -1 are both bad; 7 comes first.
        let (src, positions) = ([1i64, 2, 3, 4, 5], [0i64, 1, 7, -1, 2]);
        let mut out = [0i64; 3];
        let expected = Err(ColOpsError::IndexOutOfBounds { index: 7, len: 3 });
        assert_eq!(scatter_into(&src, &positions, &mut out), expected);
        assert_eq!(scatter_add_into(&src, &positions, &mut out), expected);
        let bad_first = [0i64, -1, 7, 1, 2];
        for result in [
            scatter_into(&src, &bad_first, &mut out),
            scatter_add_into(&src, &bad_first, &mut out),
        ] {
            assert_eq!(result, Err(ColOpsError::BadIndexValue));
        }
    }
}
