//! Aggregation, over plain columns and compressed segments.
//!
//! The compressed-segment paths never build the column:
//!
//! * RLE/RPE: `SUM = Σ value·run_length`, `MIN/MAX` over run values —
//!   one operation per run instead of per row;
//! * everything else folds its value stream ([`Segment::visit`]) chunk
//!   by chunk as the scheme's decoder reconstructs it — FOR adds its
//!   references, DICT gathers, NS unpacks — into typed accumulators
//!   (`fold_runs`), under a selection only the selected rows' values
//!   (`fold_selected`).
//!
//! Both are instances of the paper's Lessons 1: once decompression is a
//! DAG of query operators, the aggregation can run on the parts. Sums
//! are exact: a `u64` partial is used only where the values themselves
//! prove it cannot overflow (`narrow_fits`).
//!
//! Above both sits Lessons 2, a segment's model answering without its
//! residual: the planner answers a fully selected segment's SUM / MIN /
//! MAX / COUNT from its [`crate::SegmentMeta`] alone. That is no
//! estimate. A meta carries a summary (`sum`) only when the store
//! computed it from the rows — [`Segment::build`], in the same pass as
//! the zone map ([`aggregate_plain`]) — and the record and manifest
//! that persist it are covered by their checksums and cross-checked on
//! every fetch. A caller-supplied zone map ([`Segment::new`]) carries no
//! summary and never decides an answer, and nothing *estimates* one
//! (the interval bounds of `approx.rs` are labelled as such).

use crate::segment::Segment;
use crate::Result;
use lcdc_colops::{Bitmap, Scalar};
use lcdc_core::{with_column, ColumnData};

/// Supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// Sum of values.
    Sum,
    /// Minimum value.
    Min,
    /// Maximum value.
    Max,
    /// Row count.
    Count,
}

/// A native column element, as the typed sink kernels see it: ordered
/// and copyable at its own width, widened to `i128` only where a sum or
/// a result needs it.
pub(crate) trait Native: Scalar + Into<i128> {}

impl<T: Scalar + Into<i128>> Native for T {}

/// An aggregate's running state / final value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AggResult {
    /// Sum (valid for `Sum`).
    pub sum: i128,
    /// Minimum (valid for `Min`; `None` over zero rows).
    pub min: Option<i128>,
    /// Maximum (valid for `Max`; `None` over zero rows).
    pub max: Option<i128>,
    /// Rows aggregated.
    pub count: usize,
}

impl AggResult {
    /// Fold one value in.
    pub fn push(&mut self, v: i128) {
        self.push_weighted(v, 1);
    }

    /// Fold `v` in `weight` times (run-granularity path).
    pub fn push_weighted(&mut self, v: i128, weight: usize) {
        if weight == 0 {
            return;
        }
        self.sum += v * weight as i128;
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
        self.count += weight;
    }

    /// Merge another partial result in.
    pub fn merge(&mut self, other: &AggResult) {
        self.sum += other.sum;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        self.count += other.count;
    }

    /// The aggregate of a stream of native values: extrema compared at
    /// the element's own width, the sum exact in `i128`.
    pub(crate) fn of<T: Native>(values: impl Iterator<Item = T>) -> AggResult {
        let (mut lo, mut hi) = (T::max_value(), T::min_value());
        let (mut sum, mut count) = (0i128, 0usize);
        for v in values {
            lo = lo.min(v);
            hi = hi.max(v);
            sum += v.into();
            count += 1;
        }
        AggResult {
            sum,
            min: (count > 0).then(|| lo.into()),
            max: (count > 0).then(|| hi.into()),
            count,
        }
    }
}

/// Aggregate a plain, already-decoded column.
pub fn aggregate_plain(col: &ColumnData) -> AggResult {
    with_column!(col, |v| AggResult::of(v.iter().copied()))
}

/// Fold run values weighted by their lengths — the run-granularity
/// aggregation shared by [`aggregate_segment`] and the planner's
/// aggregate sink. `ends` are exclusive run end positions over `n`
/// rows, as produced by [`Segment::run_structure`].
pub fn aggregate_runs(values: &ColumnData, ends: &[u64], n: usize) -> AggResult {
    let mut acc = AggResult::default();
    for_each_run(values, ends, n, |v, rows| acc.push_weighted(v, rows.len()));
    acc
}

/// Visit each run of a [`Segment::run_structure`] as `(value, row
/// range)`, clamped to `n` rows.
pub(crate) fn for_each_run(
    values: &ColumnData,
    ends: &[u64],
    n: usize,
    mut f: impl FnMut(i128, std::ops::Range<usize>),
) {
    let mut start = 0usize;
    with_column!(
        values,
        |values| for (run, &v) in values.iter().enumerate() {
            let end = ends.get(run).map_or(n, |&end| (end as usize).min(n));
            f(v.into(), start..end.max(start));
            start = end.max(start);
        }
    )
}

/// Whether a `u64` partial sum of `len` values whose bitwise OR is `or`
/// is exact: the OR caps every value below `2^bits(or)`, so the sum
/// stays below `len × 2^bits(or)`. A signed column qualifies only when
/// no value is negative (a negative transport value sets the top bit).
pub(crate) fn narrow_fits(len: usize, or: u64, signed: bool) -> bool {
    let bits = 64 - or.leading_zeros();
    !(signed && bits == 64) && (len as u128) << bits <= 1u128 << 64
}

/// A transport value's number, for a column of the given signedness.
#[inline]
pub(crate) fn widen(v: u64, signed: bool) -> i128 {
    if signed {
        v as i64 as i128
    } else {
        v as i128
    }
}

/// Fold transport values of one column into `acc`, exactly: the sum
/// through a `u64` partial where [`narrow_fits`] proves it, in `i128`
/// otherwise; MIN / MAX only when `extrema`.
pub(crate) fn fold_transport(acc: &mut AggResult, values: &[u64], signed: bool, extrema: bool) {
    if values.is_empty() {
        return;
    }
    let (sum, or) = values
        .iter()
        .fold((0u64, 0u64), |(sum, or), &v| (sum.wrapping_add(v), or | v));
    acc.sum += if narrow_fits(values.len(), or, signed) {
        sum as i128
    } else if signed {
        values.iter().map(|&v| v as i64 as i128).sum::<i128>()
    } else {
        values.iter().map(|&v| v as i128).sum::<i128>()
    };
    if extrema {
        let (lo, hi) = if signed {
            let (lo, hi) = values.iter().fold((i64::MAX, i64::MIN), |(lo, hi), &v| {
                (lo.min(v as i64), hi.max(v as i64))
            });
            (lo as i128, hi as i128)
        } else {
            let (lo, hi) = values
                .iter()
                .fold((u64::MAX, 0), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            (lo as i128, hi as i128)
        };
        acc.min = Some(acc.min.map_or(lo, |m| m.min(lo)));
        acc.max = Some(acc.max.map_or(hi, |m| m.max(hi)));
    }
    acc.count += values.len();
}

/// Fold a segment's values into one [`AggResult`] per run, straight
/// from its value stream: run `r` covers the rows up to `ends[r]`
/// (exclusive, clamped to the segment; a missing end is the segment's
/// end — so `runs = 1, ends = []` folds the whole segment). Runs and
/// ends follow [`for_each_run`]'s reading of a run structure. MIN / MAX
/// are kept only when `extrema`; `out` receives `runs` results.
pub(crate) fn fold_runs(
    seg: &Segment,
    runs: usize,
    ends: &[u64],
    extrema: bool,
    out: &mut Vec<AggResult>,
) -> Result<()> {
    let n = seg.num_rows();
    let signed = seg.compressed.dtype.signed();
    let end_of = |run: usize| ends.get(run).map_or(n, |&end| (end as usize).min(n));
    out.clear();
    out.resize(runs, AggResult::default());
    let (mut run, mut pos) = (0usize, 0usize);
    seg.visit(&mut |mut chunk| {
        while !chunk.is_empty() {
            while run < runs && end_of(run) <= pos {
                run += 1;
            }
            if run == runs {
                return; // rows past the last run belong to no run
            }
            let (piece, rest) = chunk.split_at((end_of(run) - pos).min(chunk.len()));
            fold_transport(&mut out[run], piece, signed, extrema);
            pos += piece.len();
            chunk = rest;
        }
    })
}

/// Fold the values of the rows `mask` selects into one [`AggResult`],
/// straight off the segment's value stream
/// ([`Segment::visit_masked`]); MIN / MAX only when `extrema`.
pub(crate) fn fold_selected(seg: &Segment, mask: &Bitmap, extrema: bool) -> Result<AggResult> {
    let (mut acc, signed) = (AggResult::default(), seg.compressed.dtype.signed());
    seg.visit_masked(mask, &mut |values| {
        fold_transport(&mut acc, values, signed, extrema)
    })?;
    Ok(acc)
}

/// Aggregate a compressed segment without materialising it: RLE/RPE
/// fold one weighted value per run, every other scheme folds its value
/// stream — under a selection, only the selected rows' values.
pub fn aggregate_segment(segment: &Segment, selection: Option<&Bitmap>) -> Result<AggResult> {
    if let Some(bitmap) = selection {
        return fold_selected(segment, bitmap, true);
    }
    if let Some((values, ends)) = segment.run_structure()? {
        return Ok(aggregate_runs(&values, &ends, segment.num_rows()));
    }
    let mut out = Vec::with_capacity(1);
    fold_runs(segment, 1, &[], true, &mut out)?;
    Ok(out[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::CompressionPolicy;

    fn check_against_plain(col: ColumnData, expr: &str) {
        let segment = Segment::build(&col, &CompressionPolicy::Fixed(expr.to_string())).unwrap();
        let fast = aggregate_segment(&segment, None).unwrap();
        let naive = aggregate_plain(&col);
        assert_eq!(fast, naive, "{expr}");
    }

    #[test]
    fn rle_aggregation_matches() {
        check_against_plain(
            ColumnData::U64(vec![7, 7, 7, 9, 9, 4, 4, 4, 4, 2]),
            "rle[values=ns,lengths=ns]",
        );
    }

    #[test]
    fn rpe_aggregation_matches() {
        check_against_plain(
            ColumnData::I64(vec![-7, -7, 9, 9, 9, -4]),
            "rpe[values=id,positions=ns]",
        );
    }

    #[test]
    fn for_aggregation_matches() {
        check_against_plain(
            ColumnData::U64((0..500u64).map(|i| 1000 * (i / 128) + i % 17).collect()),
            "for(l=128)[offsets=ns]",
        );
    }

    #[test]
    fn fallback_matches() {
        check_against_plain(ColumnData::U32((0..100).collect()), "ns");
    }

    #[test]
    fn selection_masks_rows() {
        let col = ColumnData::U64(vec![10, 20, 30, 40]);
        let segment = Segment::build(&col, &CompressionPolicy::None).unwrap();
        let mask = Bitmap::from_bools(&[true, false, false, true]);
        let r = aggregate_segment(&segment, Some(&mask)).unwrap();
        assert_eq!(r.sum, 50);
        assert_eq!(r.count, 2);
        assert_eq!(r.min, Some(10));
        assert_eq!(r.max, Some(40));
    }

    #[test]
    fn empty_aggregate() {
        let r = aggregate_plain(&ColumnData::U32(vec![]));
        assert_eq!(r.count, 0);
        assert_eq!(r.min, None);
        assert_eq!(r.sum, 0);
    }

    #[test]
    fn merge_partials() {
        let mut a = AggResult::default();
        a.push(5);
        let mut b = AggResult::default();
        b.push(-3);
        b.push(10);
        a.merge(&b);
        assert_eq!(a.sum, 12);
        assert_eq!(a.min, Some(-3));
        assert_eq!(a.max, Some(10));
        assert_eq!(a.count, 3);
    }

    #[test]
    fn narrow_sums_only_where_the_values_prove_them() {
        // 512 values below 2^55 sum below 2^64; one more bit may not.
        assert!(narrow_fits(512, (1 << 55) - 1, false));
        assert!(!narrow_fits(512, 1 << 55, false));
        assert!(narrow_fits(1, u64::MAX, false));
        assert!(!narrow_fits(1, u64::MAX, true), "negative values sum wide");
        assert!(narrow_fits(64, (1 << 58) - 1, true));
    }

    #[test]
    fn streamed_fold_matches_plain_across_the_narrow_bound() {
        for values in [
            vec![u64::MAX; 70],
            vec![(1 << 58) - 1; 70],
            (0..300).map(|i| i << 50).collect(),
        ] {
            check_against_plain(ColumnData::U64(values), "id");
        }
        check_against_plain(
            ColumnData::I64(vec![i64::MIN, i64::MAX, -1, 0, i64::MAX]),
            "delta[deltas=ns_zz]",
        );
    }

    #[test]
    fn weighted_push_zero_weight_is_noop() {
        let mut a = AggResult::default();
        a.push_weighted(100, 0);
        assert_eq!(a, AggResult::default());
    }
}
