//! The `Scatter` operator: `out[positions[i]] = src[i]`.
//!
//! Algorithm 1, line 6: scattering a column of ones onto a zeroed column
//! at the run boundary positions produces the "position delta" column
//! whose prefix sum is the per-element run index.

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
/// past the end of `out`.
pub fn scatter_into<T: Scalar, I: IndexScalar>(
    src: &[T],
    positions: &[I],
    out: &mut [T],
) -> Result<()> {
    if src.len() != positions.len() {
        return Err(ColOpsError::LengthMismatch {
            left: src.len(),
            right: positions.len(),
        });
    }
    for (&v, &raw) in src.iter().zip(positions) {
        let idx = raw.to_index().ok_or(ColOpsError::BadIndexValue)?;
        let len = out.len();
        let slot = out
            .get_mut(idx)
            .ok_or(ColOpsError::IndexOutOfBounds { index: idx, len })?;
        *slot = v;
    }
    Ok(())
}

/// Scatter-add: `out[positions[i]] += src[i]` (wrapping). Used where
/// duplicate positions must accumulate rather than overwrite.
pub fn scatter_add_into<T: Scalar, I: IndexScalar>(
    src: &[T],
    positions: &[I],
    out: &mut [T],
) -> Result<()> {
    if src.len() != positions.len() {
        return Err(ColOpsError::LengthMismatch {
            left: src.len(),
            right: positions.len(),
        });
    }
    for (&v, &raw) in src.iter().zip(positions) {
        let idx = raw.to_index().ok_or(ColOpsError::BadIndexValue)?;
        let len = out.len();
        let slot = out
            .get_mut(idx)
            .ok_or(ColOpsError::IndexOutOfBounds { index: idx, len })?;
        *slot = slot.wadd(v);
    }
    Ok(())
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
}
