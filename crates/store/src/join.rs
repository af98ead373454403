//! Join build-side kernels on compressed columns.
//!
//! The paper (§II-B) lists joins next to selections among the operations
//! a model-aware engine can speed up. An equi-join's pair count is
//! `Σ_v count_a(v)·count_b(v)`, so each side reduces to a value
//! histogram, and a compressed segment can often be histogrammed
//! without decoding its rows: CONST from its zone map, DICT by counting
//! codes, RLE/RPE one entry *per run* weighted by run length. The
//! planner's join sink ([`crate::QueryBuilder::join`]) builds its right
//! side from these kernels and caches them per segment.

use crate::agg::{for_each_run, widen};
use crate::hash::IntMap;
use crate::segment::{DictView, SchemeKind, Segment};
use crate::Result;

/// Value -> total row count: a join side reduced to what the pair
/// count needs.
pub(crate) type Histogram = IntMap<i128, u64>;

/// One segment's join build side at the best structural granularity —
/// what the planner's join sink caches per `(shard, segment)`.
#[derive(Debug, Clone, Default)]
pub(crate) struct SegmentHistogram {
    /// value -> row count.
    pub(crate) hist: Histogram,
    /// Whether `hist` was counted off a dictionary (one entry per
    /// touched dictionary entry): a DICT left side probing it is the
    /// join sink's code→code translation tier.
    pub(crate) dict: bool,
    /// Rows consumed through a structural tier, without reading a value
    /// per row (the whole segment for const/dict/rle/rpe; 0 for the
    /// streamed fallback).
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
}

/// Count transport `values` of a column of the given signedness into
/// `hist`, one hash update per value — the streamed tier of both join
/// sides.
pub(crate) fn count_values(hist: &mut Histogram, values: &[u64], signed: bool) {
    for &v in values {
        *hist.entry(widen(v, signed)).or_insert(0) += 1;
    }
}

/// Histogram one compressed segment at the best structural tier: CONST
/// from its zone map, DICT by counting codes into `counts` (each
/// touched dictionary entry decoded once; `codes` is the code scratch),
/// RLE/RPE one entry per run with run-length weights, and otherwise one
/// hash update per value off the segment's value stream.
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
        None => {
            let (mut hist, signed) = (Histogram::default(), segment.compressed.dtype.signed());
            segment.visit(&mut |chunk| count_values(&mut hist, chunk, signed))?;
            Ok(SegmentHistogram {
                hist,
                dict: false,
                undecoded_rows: 0,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryBuilder;
    use crate::schema::TableSchema;
    use crate::segment::CompressionPolicy;
    use crate::table::Table;
    use lcdc_core::ColumnData;
    use std::sync::Arc;

    fn table(col: ColumnData, policy: CompressionPolicy, seg_rows: usize) -> Table {
        let schema = TableSchema::new(&[("v", col.dtype())]);
        Table::build(schema, &[col], &[policy], seg_rows).unwrap()
    }

    /// A one-segment table compressed with `expr`.
    fn fixed(col: ColumnData, expr: &str) -> Table {
        let rows = col.len().max(1);
        table(col, CompressionPolicy::Fixed(expr.into()), rows)
    }

    /// The equi-join cardinality through the planner's join sink,
    /// asserted equal to the decoded baseline.
    fn join_count(a: &Table, b: &Table) -> i128 {
        let builder = QueryBuilder::scan(a).join("b", Arc::new(b.clone()), "v");
        let push = builder.execute().unwrap();
        assert_eq!(push.rows, builder.execute_naive().unwrap().rows);
        push.joined().unwrap().iter().map(|&(_, pairs)| pairs).sum()
    }

    #[test]
    fn paths_agree_on_runny_sides() {
        let a = fixed(
            ColumnData::U64(vec![1, 1, 1, 2, 2, 3, 3, 3, 3]),
            "rle[values=ns,lengths=ns]",
        );
        let b = fixed(
            ColumnData::U64(vec![2, 2, 2, 3, 5, 5]),
            "rpe[values=ns,positions=ns]",
        );
        // pairs: value 2 -> 2*3 = 6, value 3 -> 4*1 = 4.
        assert_eq!(join_count(&a, &b), 10);
    }

    #[test]
    fn mixed_schemes_fall_back() {
        let a = fixed(ColumnData::U64(vec![7, 8, 9, 7]), "ns");
        let b = fixed(ColumnData::U64(vec![7, 7, 9]), "rle[values=ns,lengths=ns]");
        assert_eq!(join_count(&a, &b), 2 * 2 + 1);
    }

    #[test]
    fn empty_sides() {
        let a = fixed(ColumnData::U64(vec![]), "ns");
        let b = fixed(ColumnData::U64(vec![1, 2]), "ns");
        assert_eq!(join_count(&a, &b), 0);
        assert_eq!(join_count(&b, &a), 0);
    }

    #[test]
    fn disjoint_sides_yield_zero() {
        let a = fixed(ColumnData::U64(vec![1; 100]), "rle[values=ns,lengths=ns]");
        let b = fixed(ColumnData::U64(vec![2; 100]), "rle[values=ns,lengths=ns]");
        assert_eq!(join_count(&a, &b), 0);
    }

    #[test]
    fn multi_segment_sides() {
        let a = table(
            ColumnData::U64((0..4000u64).map(|i| i / 100).collect()),
            CompressionPolicy::Fixed("rle[values=ns,lengths=ns]".into()),
            1000,
        );
        let b = table(
            ColumnData::U64((0..2000u64).map(|i| i / 25).collect()),
            CompressionPolicy::Auto,
            500,
        );
        // Keys 0..40 hold 100 rows on the left and 25 on the right.
        assert_eq!(join_count(&a, &b), 40 * 100 * 25);
    }

    #[test]
    fn signed_values_join() {
        let a = fixed(
            ColumnData::I64(vec![-5, -5, 3]),
            "rle[values=id,lengths=ns]",
        );
        let b = fixed(ColumnData::I64(vec![-5, 3, 3]), "id");
        assert_eq!(join_count(&a, &b), 2 + 2);
    }

    #[test]
    fn dict_and_const_sides_are_structural() {
        let a = ColumnData::U64(vec![5; 40]);
        let b = ColumnData::U64((0..40).map(|i| 3 + i % 4).collect());
        // value 5 appears 40x left, 10x right.
        assert_eq!(
            join_count(
                &fixed(a.clone(), "const"),
                &fixed(b.clone(), "dict[codes=ns]")
            ),
            400
        );
        let build = |col: &ColumnData, expr: &str| {
            Segment::build(col, &CompressionPolicy::Fixed(expr.into())).unwrap()
        };
        let (mut codes, mut counts) = (Vec::new(), Vec::new());
        let built = segment_histogram(&build(&a, "const"), &mut codes, &mut counts).unwrap();
        assert_eq!(built.undecoded_rows, 40, "const side never decodes");
        let built =
            segment_histogram(&build(&b, "dict[codes=ns]"), &mut codes, &mut counts).unwrap();
        assert_eq!(built.undecoded_rows, 40, "dict side counts codes");
        assert!(built.dict, "counted off the dictionary");
        assert_eq!(built.hist.len(), 4);
        assert_eq!(built.hist.values().sum::<u64>(), 40);
    }
}
