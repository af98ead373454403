//! Join kernels on compressed columns.
//!
//! The paper (§II-B) lists joins next to selections among the operations
//! a model-aware engine can speed up. The demonstration here is the
//! equi-join *cardinality* (`|{(i,j) : a[i] == b[j]}|`, the core of any
//! hash join's build/probe accounting):
//!
//! * the **naive** path decompresses both sides and hashes row by row;
//! * the **run-aware** path partially decompresses only the run values
//!   and lengths of RLE/RPE sides, hashing one entry *per run* and
//!   multiplying lengths — `Σ_v count_a(v)·count_b(v)` computed at run
//!   granularity.

use crate::agg::for_each_run;
use crate::hash::IntMap;
use crate::segment::{DictView, SchemeKind, Segment};
use crate::Result;
use lcdc_core::{with_column, ColumnData};

/// Value -> total row count, the histogram both join paths reduce to.
pub(crate) type Histogram = IntMap<i128, u64>;

/// One segment's join build side at the best structural granularity —
/// what the planner's join sink caches per `(shard, segment)` and the
/// standalone cardinality kernels below fold together.
#[derive(Debug, Clone, Default)]
pub(crate) struct SegmentHistogram {
    /// value -> row count.
    pub(crate) hist: Histogram,
    /// Whether `hist` was counted off a dictionary (one entry per
    /// touched dictionary entry): a DICT left side probing it is the
    /// join sink's code→code translation tier.
    pub(crate) dict: bool,
    /// Rows consumed without decompressing the row form (the whole
    /// segment for const/dict/rle/rpe; 0 for the decoded fallback).
    pub(crate) undecoded_rows: usize,
}

impl SegmentHistogram {
    /// The CONST build side: one value, `rows` copies — constructible
    /// from a zone map alone, with no payload in hand.
    pub(crate) fn constant(value: i128, rows: usize) -> SegmentHistogram {
        SegmentHistogram {
            hist: Histogram::from_iter([(value, rows as u64)]),
            dict: false,
            undecoded_rows: rows,
        }
    }

    /// The fully-decoded build side (the naive baseline's only tier).
    pub(crate) fn decoded(col: &ColumnData) -> SegmentHistogram {
        SegmentHistogram {
            hist: histogram_rows(col, 0..col.len()),
            dict: false,
            undecoded_rows: 0,
        }
    }
}

/// Histogram rows `rows` of a plain column, one hash update per row —
/// the decoded tier of both join sides.
pub(crate) fn histogram_rows(col: &ColumnData, rows: impl Iterator<Item = usize>) -> Histogram {
    let mut hist = Histogram::default();
    with_column!(col, |keys| rows.for_each(|i| {
        *hist.entry(keys[i].into()).or_insert(0) += 1;
    }));
    hist
}

/// Histogram one compressed segment at the best structural tier: CONST
/// from its zone map, DICT by counting codes into `counts` (each
/// touched dictionary entry decoded once; `codes` is the code scratch),
/// RLE/RPE one entry per run with run-length weights, full row
/// decompression only as the last resort.
pub(crate) fn segment_histogram(
    segment: &Segment,
    codes: &mut Vec<u32>,
    counts: &mut Vec<u32>,
) -> Result<SegmentHistogram> {
    let n = segment.num_rows();
    match segment.kind() {
        SchemeKind::Const => return Ok(SegmentHistogram::constant(segment.min, n)),
        SchemeKind::Dict => {
            let view = DictView::new(segment, codes, Some(counts))?;
            // `+=`, not insert: only a compressor's dictionary is
            // known to hold each value once.
            let mut hist = Histogram::default();
            for (value, count) in view.touched(counts) {
                *hist.entry(value).or_insert(0) += count;
            }
            return Ok(SegmentHistogram {
                hist,
                dict: true,
                undecoded_rows: n,
            });
        }
        _ => {}
    }
    match segment.run_structure()? {
        Some((values, ends)) => {
            let mut hist = Histogram::with_capacity_and_hasher(values.len(), Default::default());
            for_each_run(&values, &ends, n, |value, rows| {
                *hist.entry(value).or_insert(0) += rows.len() as u64;
            });
            Ok(SegmentHistogram {
                hist,
                dict: false,
                undecoded_rows: n,
            })
        }
        None => Ok(SegmentHistogram::decoded(&segment.decompress()?)),
    }
}

fn merge(into: &mut Histogram, from: Histogram) {
    for (value, count) in from {
        *into.entry(value).or_insert(0) += count;
    }
}

fn join_cardinality(a: &Histogram, b: &Histogram) -> u128 {
    // Probe the smaller side into the larger.
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    small
        .iter()
        .filter_map(|(value, &ca)| large.get(value).map(|&cb| ca as u128 * cb as u128))
        .sum()
}

/// Naive equi-join cardinality: decompress both segment lists fully.
pub fn join_count_naive(a: &[Segment], b: &[Segment]) -> Result<u128> {
    let mut ha = Histogram::default();
    for seg in a {
        merge(&mut ha, SegmentHistogram::decoded(&seg.decompress()?).hist);
    }
    let mut hb = Histogram::default();
    for seg in b {
        merge(&mut hb, SegmentHistogram::decoded(&seg.decompress()?).hist);
    }
    Ok(join_cardinality(&ha, &hb))
}

/// Run-aware equi-join cardinality: RLE/RPE sides are hashed one entry
/// per run via partial decompression.
pub fn join_count_compressed(a: &[Segment], b: &[Segment]) -> Result<u128> {
    let (mut codes, mut counts) = (Vec::new(), Vec::new());
    let mut ha = Histogram::default();
    for seg in a {
        merge(
            &mut ha,
            segment_histogram(seg, &mut codes, &mut counts)?.hist,
        );
    }
    let mut hb = Histogram::default();
    for seg in b {
        merge(
            &mut hb,
            segment_histogram(seg, &mut codes, &mut counts)?.hist,
        );
    }
    Ok(join_cardinality(&ha, &hb))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::CompressionPolicy;

    fn segments(col: &ColumnData, expr: &str) -> Vec<Segment> {
        vec![Segment::build(col, &CompressionPolicy::Fixed(expr.to_string())).unwrap()]
    }

    #[test]
    fn paths_agree_on_runny_sides() {
        let a = ColumnData::U64(vec![1, 1, 1, 2, 2, 3, 3, 3, 3]);
        let b = ColumnData::U64(vec![2, 2, 2, 3, 5, 5]);
        let sa = segments(&a, "rle[values=ns,lengths=ns]");
        let sb = segments(&b, "rpe[values=ns,positions=ns]");
        let naive = join_count_naive(&sa, &sb).unwrap();
        let fast = join_count_compressed(&sa, &sb).unwrap();
        // pairs: value 2 -> 2*3 = 6, value 3 -> 4*1 = 4.
        assert_eq!(naive, 10);
        assert_eq!(fast, 10);
    }

    #[test]
    fn mixed_schemes_fall_back() {
        let a = ColumnData::U64(vec![7, 8, 9, 7]);
        let b = ColumnData::U64(vec![7, 7, 9]);
        let sa = segments(&a, "ns");
        let sb = segments(&b, "rle[values=ns,lengths=ns]");
        assert_eq!(
            join_count_naive(&sa, &sb).unwrap(),
            join_count_compressed(&sa, &sb).unwrap()
        );
        assert_eq!(join_count_compressed(&sa, &sb).unwrap(), 2 * 2 + 1);
    }

    #[test]
    fn empty_sides() {
        let a = ColumnData::U64(vec![]);
        let b = ColumnData::U64(vec![1, 2]);
        let sa = segments(&a, "ns");
        let sb = segments(&b, "ns");
        assert_eq!(join_count_compressed(&sa, &sb).unwrap(), 0);
        assert_eq!(join_count_naive(&sa, &sb).unwrap(), 0);
    }

    #[test]
    fn disjoint_sides_yield_zero() {
        let a = ColumnData::U64(vec![1; 100]);
        let b = ColumnData::U64(vec![2; 100]);
        let sa = segments(&a, "rle[values=ns,lengths=ns]");
        let sb = segments(&b, "rle[values=ns,lengths=ns]");
        assert_eq!(join_count_compressed(&sa, &sb).unwrap(), 0);
    }

    #[test]
    fn multi_segment_sides() {
        let a = ColumnData::U64((0..4000u64).map(|i| i / 100).collect());
        let b = ColumnData::U64((0..2000u64).map(|i| i / 25).collect());
        let sa: Vec<Segment> = a
            .to_transport()
            .chunks(1000)
            .map(|c| {
                Segment::build(
                    &ColumnData::U64(c.to_vec()),
                    &CompressionPolicy::Fixed("rle[values=ns,lengths=ns]".into()),
                )
                .unwrap()
            })
            .collect();
        let sb: Vec<Segment> = b
            .to_transport()
            .chunks(500)
            .map(|c| {
                Segment::build(&ColumnData::U64(c.to_vec()), &CompressionPolicy::Auto).unwrap()
            })
            .collect();
        assert_eq!(
            join_count_naive(&sa, &sb).unwrap(),
            join_count_compressed(&sa, &sb).unwrap()
        );
    }

    #[test]
    fn signed_values_join() {
        let a = ColumnData::I64(vec![-5, -5, 3]);
        let b = ColumnData::I64(vec![-5, 3, 3]);
        let sa = segments(&a, "rle[values=id,lengths=ns]");
        let sb = segments(&b, "id");
        assert_eq!(join_count_compressed(&sa, &sb).unwrap(), 2 + 2);
    }

    #[test]
    fn dict_and_const_sides_are_structural() {
        let a = ColumnData::U64(vec![5; 40]);
        let b = ColumnData::U64((0..40).map(|i| 3 + i % 4).collect());
        let sa = segments(&a, "const");
        let sb = segments(&b, "dict[codes=ns]");
        assert_eq!(
            join_count_naive(&sa, &sb).unwrap(),
            join_count_compressed(&sa, &sb).unwrap()
        );
        // value 5 appears 40x left, 10x right.
        assert_eq!(join_count_compressed(&sa, &sb).unwrap(), 400);
        let (mut codes, mut counts) = (Vec::new(), Vec::new());
        let built = segment_histogram(&sa[0], &mut codes, &mut counts).unwrap();
        assert_eq!(built.undecoded_rows, 40, "const side never decodes");
        let built = segment_histogram(&sb[0], &mut codes, &mut counts).unwrap();
        assert_eq!(built.undecoded_rows, 40, "dict side counts codes");
        assert!(built.dict, "counted off the dictionary");
        assert_eq!(built.hist.len(), 4);
        assert_eq!(built.hist.values().sum::<u64>(), 40);
    }
}
