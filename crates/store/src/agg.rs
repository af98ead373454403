//! Aggregation, naive and compression-aware.
//!
//! The compression-aware paths execute *on the compressed form*:
//!
//! * RLE/RPE: `SUM = Σ value·run_length`, `MIN/MAX` over run values —
//!   one operation per run instead of per row;
//! * FOR: `SUM = Σ refs·segment_size + Σ offsets` — the reference
//!   replication and the elementwise add of Algorithm 2 are never
//!   materialised.
//!
//! Both are instances of the paper's Lessons 1: once decompression is a
//! DAG of query operators, the aggregation can be algebraically pushed
//! through it.

use crate::segment::Segment;
use crate::{Result, StoreError};
use lcdc_colops::{Bitmap, Scalar};
use lcdc_core::schemes::for_;
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

/// Aggregate rows `rows` of a plain column (one slice fold; the run
/// tier's unit of work).
pub(crate) fn aggregate_rows(col: &ColumnData, rows: std::ops::Range<usize>) -> AggResult {
    with_column!(col, |v| AggResult::of(v[rows].iter().copied()))
}

/// Aggregate a plain column (the naive path), optionally under a
/// selection bitmap.
pub fn aggregate_plain(col: &ColumnData, selection: Option<&Bitmap>) -> AggResult {
    with_column!(col, |v| match selection {
        None => AggResult::of(v.iter().copied()),
        Some(bitmap) => AggResult::of(bitmap.iter_ones().map(|i| v[i])),
    })
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

/// Aggregate a compressed segment without materialising it, when its
/// scheme permits; falls back to decompress-then-fold. Selections force
/// the fallback (run-selection interaction is handled a level up by
/// masking materialised columns).
pub fn aggregate_segment(segment: &Segment, selection: Option<&Bitmap>) -> Result<AggResult> {
    if let Some(bitmap) = selection {
        return Ok(aggregate_plain(&segment.decompress()?, Some(bitmap)));
    }
    if let Some((values, ends)) = segment.run_structure()? {
        return Ok(aggregate_runs(&values, &ends, segment.num_rows()));
    }
    let scheme_id = segment.compressed.scheme_id.as_str();
    if scheme_id.starts_with("for(") {
        // SUM distributes over Algorithm 2's final Elementwise(+):
        // sum = Σ_seg refs[seg]·|seg| + Σ offsets. MIN/MAX need the
        // per-segment offset extrema; computed on the offsets part alone.
        let scheme = segment.scheme()?;
        let seg_len = (segment.compressed.params.require("l")? as usize).max(1);
        let refs = scheme.decompress_part(&segment.compressed, for_::ROLE_REFS)?;
        let offsets = scheme.decompress_part(&segment.compressed, for_::ROLE_OFFSETS)?;
        let mut acc = AggResult::default();
        with_column!(&offsets, |offsets| {
            let offsets = &offsets[..offsets.len().min(segment.num_rows())];
            for (seg, chunk) in offsets.chunks(seg_len).enumerate() {
                let base = refs.get_numeric(seg).ok_or_else(|| {
                    StoreError::Shape(format!("for segment has no reference for block {seg}"))
                })?;
                let mut part = AggResult::of(chunk.iter().copied());
                part.sum += base * chunk.len() as i128;
                part.min = part.min.map(|m| m + base);
                part.max = part.max.map(|m| m + base);
                acc.merge(&part);
            }
        });
        return Ok(acc);
    }
    Ok(aggregate_plain(&segment.decompress()?, None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::CompressionPolicy;

    fn check_against_plain(col: ColumnData, expr: &str) {
        let segment = Segment::build(&col, &CompressionPolicy::Fixed(expr.to_string())).unwrap();
        let fast = aggregate_segment(&segment, None).unwrap();
        let naive = aggregate_plain(&col, None);
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
        let r = aggregate_plain(&ColumnData::U32(vec![]), None);
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
    fn weighted_push_zero_weight_is_noop() {
        let mut a = AggResult::default();
        a.push_weighted(100, 0);
        assert_eq!(a, AggResult::default());
    }
}
