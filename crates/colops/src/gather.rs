//! The `Gather` operator: `out[i] = values[indices[i]]`.
//!
//! The final step of both decompression algorithms in the paper: Alg. 1
//! gathers run values by computed run index; Alg. 2 gathers segment
//! references ("replicated") by segment index.

use crate::scalar::{IndexScalar, Scalar};
use crate::{ColOpsError, Result};

/// Gather `values` at `indices`: `out[i] = values[indices[i]]`.
///
/// Errors with [`ColOpsError::IndexOutOfBounds`] on the first offending
/// index and [`ColOpsError::BadIndexValue`] for negative indices.
pub fn gather<T: Scalar, I: IndexScalar>(values: &[T], indices: &[I]) -> Result<Vec<T>> {
    gather_by(values, indices, I::to_index)
}

/// Gather with `usize` indices, the common internal case.
pub fn gather_usize<T: Scalar>(values: &[T], indices: &[usize]) -> Result<Vec<T>> {
    gather_by(values, indices, Some)
}

/// One pre-sized pass with no `Result` per element: an index that is
/// unrepresentable or past the end gathers a default and lowers a flag.
/// Only then is the column rescanned, to report the *first* offending
/// index.
fn gather_by<T: Scalar, I: Copy>(
    values: &[T],
    indices: &[I],
    to_index: impl Fn(I) -> Option<usize>,
) -> Result<Vec<T>> {
    let mut all_in_range = true;
    let out = indices
        .iter()
        .map(|&raw| match to_index(raw).and_then(|i| values.get(i)) {
            Some(&v) => v,
            None => {
                all_in_range = false;
                T::default()
            }
        })
        .collect();
    if all_in_range {
        return Ok(out);
    }
    Err(first_bad_index(indices, values.len(), to_index))
}

/// The error for the first of `indices` that is unrepresentable or not
/// below `len` — the rescan a one-pass kernel runs once its flag fell.
pub(crate) fn first_bad_index<I: Copy>(
    indices: &[I],
    len: usize,
    to_index: impl Fn(I) -> Option<usize>,
) -> ColOpsError {
    let first_bad = indices
        .iter()
        .map(|&raw| to_index(raw))
        .find(|i| i.is_none_or(|i| i >= len));
    match first_bad.flatten() {
        Some(index) => ColOpsError::IndexOutOfBounds { index, len },
        None => ColOpsError::BadIndexValue,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_gather() {
        let values = [10u32, 20, 30];
        let indices = [2u64, 0, 1, 1];
        assert_eq!(gather(&values, &indices).unwrap(), vec![30, 10, 20, 20]);
    }

    #[test]
    fn empty_indices_yield_empty() {
        let values = [1u32, 2];
        assert_eq!(gather::<u32, u64>(&values, &[]).unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn out_of_bounds_reported() {
        let values = [1u32];
        assert_eq!(
            gather(&values, &[0u64, 5]),
            Err(ColOpsError::IndexOutOfBounds { index: 5, len: 1 })
        );
    }

    #[test]
    fn first_offending_index_reported() {
        // The gather loop only notes *that* an index was bad; the error
        // still names the first one in column order, whichever kind.
        let values = [1u32, 2];
        assert_eq!(
            gather(&values, &[0u64, 7, 1, 9]),
            Err(ColOpsError::IndexOutOfBounds { index: 7, len: 2 })
        );
        assert_eq!(
            gather(&values, &[5i64, -1]),
            Err(ColOpsError::IndexOutOfBounds { index: 5, len: 2 })
        );
        assert_eq!(
            gather(&values, &[-1i64, 5]),
            Err(ColOpsError::BadIndexValue)
        );
        assert_eq!(
            gather_usize(&values, &[1, 2, 3]),
            Err(ColOpsError::IndexOutOfBounds { index: 2, len: 2 })
        );
    }

    #[test]
    fn negative_index_rejected() {
        let values = [1u32, 2];
        assert_eq!(gather(&values, &[-1i64]), Err(ColOpsError::BadIndexValue));
    }

    #[test]
    fn usize_variant_matches() {
        let values = [5i64, 6, 7];
        assert_eq!(gather_usize(&values, &[2, 2, 0]).unwrap(), vec![7, 7, 5]);
        assert!(gather_usize(&values, &[3]).is_err());
    }
}
