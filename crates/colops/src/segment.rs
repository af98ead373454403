//! Fixed-length segment kernels: the per-segment reductions and
//! replication behind FOR, STEP and the linear frames of §II-B.

use crate::scalar::Scalar;
use crate::{ColOpsError, Result};

/// Per-segment minimum for segments of `seg_len` elements (last segment
/// may be shorter). This is FOR's frame-of-reference selection rule.
pub fn segment_min<T: Scalar>(col: &[T], seg_len: usize) -> Result<Vec<T>> {
    segment_reduce(col, seg_len, |a, b| a.min(b))
}

/// Per-segment maximum (zone-map construction).
pub fn segment_max<T: Scalar>(col: &[T], seg_len: usize) -> Result<Vec<T>> {
    segment_reduce(col, seg_len, |a, b| a.max(b))
}

/// Generic per-segment fold over non-empty segments.
pub fn segment_reduce<T: Scalar>(
    col: &[T],
    seg_len: usize,
    f: impl Fn(T, T) -> T,
) -> Result<Vec<T>> {
    if seg_len == 0 {
        return Err(ColOpsError::EmptyInput(
            "segment_reduce: zero segment length",
        ));
    }
    Ok(col
        .chunks(seg_len)
        .map(|chunk| {
            let mut acc = chunk[0];
            for &v in &chunk[1..] {
                acc = f(acc, v);
            }
            acc
        })
        .collect())
}

/// Check that one value per segment is there for every segment of an
/// `n`-element column: the validation [`replicate_segments`] does, for
/// callers that fuse the replication into their own loop.
pub fn check_segments(num_refs: usize, seg_len: usize, n: usize) -> Result<()> {
    if seg_len == 0 {
        return Err(ColOpsError::EmptyInput(
            "replicate_segments: zero segment length",
        ));
    }
    let needed = n.div_ceil(seg_len);
    if num_refs < needed {
        return Err(ColOpsError::IndexOutOfBounds {
            index: needed - 1,
            len: num_refs,
        });
    }
    Ok(())
}

/// Replicate one value per segment across the full column length —
/// the fused form of Alg. 2's `Gather(refs, id ÷ ℓ)` step.
pub fn replicate_segments<T: Scalar>(refs: &[T], seg_len: usize, n: usize) -> Result<Vec<T>> {
    check_segments(refs.len(), seg_len, n)?;
    let mut out = Vec::with_capacity(n);
    let mut remaining = n;
    for &r in refs {
        if remaining == 0 {
            break;
        }
        let take = remaining.min(seg_len);
        out.extend(std::iter::repeat_n(r, take));
        remaining -= take;
    }
    Ok(out)
}

/// Per-segment `(min, max)` pairs — zone maps for selection pruning.
pub fn zone_map<T: Scalar>(col: &[T], seg_len: usize) -> Result<Vec<(T, T)>> {
    if seg_len == 0 {
        return Err(ColOpsError::EmptyInput("zone_map: zero segment length"));
    }
    Ok(col
        .chunks(seg_len)
        .map(|chunk| {
            let mut lo = chunk[0];
            let mut hi = chunk[0];
            for &v in &chunk[1..] {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            (lo, hi)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_max_with_ragged_tail() {
        let col = [5u32, 3, 9, 1, 7];
        assert_eq!(segment_min(&col, 2).unwrap(), vec![3, 1, 7]);
        assert_eq!(segment_max(&col, 2).unwrap(), vec![5, 9, 7]);
    }

    #[test]
    fn zero_segment_length_rejected() {
        assert!(segment_min(&[1u32], 0).is_err());
        assert!(replicate_segments(&[1u32], 0, 4).is_err());
        assert!(zone_map(&[1u32], 0).is_err());
    }

    #[test]
    fn empty_column() {
        assert_eq!(segment_min::<u32>(&[], 4).unwrap(), Vec::<u32>::new());
        assert_eq!(
            replicate_segments::<u32>(&[], 4, 0).unwrap(),
            Vec::<u32>::new()
        );
    }

    #[test]
    fn replicate_round_trips_with_min() {
        let refs = [10u32, 20];
        assert_eq!(
            replicate_segments(&refs, 3, 5).unwrap(),
            vec![10, 10, 10, 20, 20]
        );
    }

    #[test]
    fn replicate_insufficient_refs_rejected() {
        assert!(replicate_segments(&[1u32], 2, 5).is_err());
    }

    #[test]
    fn zone_maps() {
        let col = [5i64, -3, 9, 1];
        assert_eq!(zone_map(&col, 2).unwrap(), vec![(-3, 5), (1, 9)]);
    }

    #[test]
    fn signed_segments() {
        let col = [-5i32, -10, 3];
        assert_eq!(segment_min(&col, 2).unwrap(), vec![-10, 3]);
    }
}
