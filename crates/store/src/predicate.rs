//! Predicates and their compression-aware evaluation.
//!
//! Four evaluation tiers per segment, in decreasing order of savings:
//!
//! 1. **Zone map**: the segment's `[min, max]` proves all-match or
//!    no-match — nothing is decompressed. For FOR/STEP segments this is
//!    precisely the paper's "the rough correspondence of the column data
//!    to a simple model can be used to speed up selections".
//! 2. **Run granularity**: RLE/RPE segments are evaluated per *run*
//!    using partial decompression of the run values; the result bitmap
//!    is painted with `set_range`, touching each run once instead of
//!    each row once.
//! 3. **Code granularity**: DICT segments rewrite range predicates into
//!    code ranges against the order-preserving dictionary and test the
//!    codes directly.
//! 4. **Row granularity**: test every value as the segment's value
//!    stream ([`Segment::visit`]) reconstructs it — the column itself is
//!    never built.

use crate::agg::widen;
pub use crate::query::stats::PushdownStats;
use crate::segment::{DictView, SchemeKind, Segment};
use crate::Result;
use lcdc_colops::Bitmap;
use lcdc_core::{with_column, ColumnData};
use std::sync::Arc;

/// A sorted, deduplicated membership list for [`Predicate::In`]. The
/// inner slice is private: every construction path goes through
/// [`InList::new`], so binary searches, bounds, and zone decisions can
/// rely on the ordering invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InList(Arc<[i128]>);

impl InList {
    /// Build from any value list (sorted and deduplicated here; an
    /// empty list matches nothing).
    pub fn new(values: &[i128]) -> InList {
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        InList(sorted.into())
    }
}

impl std::ops::Deref for InList {
    type Target = [i128];

    fn deref(&self) -> &[i128] {
        &self.0
    }
}

/// A selection predicate over one column's numeric values.
///
/// Cloning is cheap: the `In` membership list is behind an [`Arc`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// Everything matches.
    All,
    /// `lo <= v && v <= hi` (inclusive range).
    Range {
        /// Inclusive lower bound.
        lo: i128,
        /// Inclusive upper bound.
        hi: i128,
    },
    /// `v == value`.
    Eq(i128),
    /// `v ∈ values` — see [`Predicate::in_list`] / [`InList::new`].
    In(InList),
}

impl Predicate {
    /// An `In` predicate over `values`.
    pub fn in_list(values: &[i128]) -> Predicate {
        Predicate::In(InList::new(values))
    }

    /// Inclusive bounds of the predicate, if it has them. `None` for
    /// `All` (unbounded) and for an empty `In` list (matches nothing).
    pub fn bounds(&self) -> Option<(i128, i128)> {
        match self {
            Predicate::All => None,
            Predicate::Range { lo, hi } => Some((*lo, *hi)),
            Predicate::Eq(v) => Some((*v, *v)),
            Predicate::In(values) => match (values.first(), values.last()) {
                (Some(&lo), Some(&hi)) => Some((lo, hi)),
                _ => None,
            },
        }
    }

    /// Test one value.
    pub fn test(&self, v: i128) -> bool {
        match self {
            Predicate::All => true,
            Predicate::Range { lo, hi } => *lo <= v && v <= *hi,
            Predicate::Eq(value) => v == *value,
            Predicate::In(values) => values.binary_search(&v).is_ok(),
        }
    }

    /// What a zone map `[min, max]` (over a non-empty segment) proves
    /// about this predicate: `Some(true)` = every row matches,
    /// `Some(false)` = no row matches, `None` = undecided. Unlike a raw
    /// bounds check this is correct for non-convex predicates: an `In`
    /// segment fully inside the list's bounds is *not* thereby
    /// all-matching.
    pub fn zone_decides(&self, min: i128, max: i128) -> Option<bool> {
        match self {
            Predicate::All => Some(true),
            Predicate::Range { lo, hi } => {
                if max < *lo || *hi < min {
                    Some(false)
                } else if *lo <= min && max <= *hi {
                    Some(true)
                } else {
                    None
                }
            }
            Predicate::Eq(v) => {
                if max < *v || *v < min {
                    Some(false)
                } else if min == *v && max == *v {
                    Some(true)
                } else {
                    None
                }
            }
            Predicate::In(values) => {
                // No list element inside [min, max] -> nothing matches.
                let from = values.partition_point(|&v| v < min);
                if from == values.len() || values[from] > max {
                    return Some(false);
                }
                if min == max {
                    return Some(true); // constant segment, value in list
                }
                None
            }
        }
    }

    /// The zone tier for a segment of `rows` rows with zone map
    /// `[min, max]`: [`Predicate::zone_decides`], except that an empty
    /// segment is decided (nothing matches). A decision counts one
    /// `zonemap_hits`.
    pub(crate) fn zone_tier(
        &self,
        rows: usize,
        min: i128,
        max: i128,
        stats: &mut PushdownStats,
    ) -> Option<bool> {
        let decided = match rows {
            0 => Some(false),
            _ => self.zone_decides(min, max),
        };
        stats.zonemap_hits += usize::from(decided.is_some());
        decided
    }

    /// Evaluate over a plain column (row granularity).
    pub fn eval_plain(&self, col: &ColumnData) -> Bitmap {
        let mut bitmap = Bitmap::new_zeroed(col.len());
        if matches!(self, Predicate::All) {
            return Bitmap::new_ones(col.len());
        }
        for i in 0..col.len() {
            if self.test(col.get_numeric(i).expect("in range")) {
                bitmap.set(i);
            }
        }
        bitmap
    }

    /// Evaluate over a compressed segment with every pushdown tier
    /// available. `stats`, when given, counts which tier fired.
    pub fn eval_segment(
        &self,
        segment: &Segment,
        stats: Option<&mut PushdownStats>,
    ) -> Result<Bitmap> {
        let mut uncounted = PushdownStats::default();
        self.eval_segment_with(segment, stats.unwrap_or(&mut uncounted), &mut Vec::new())
    }

    /// [`Predicate::eval_segment`] counting into `stats`, with `codes`
    /// as the code tier's scratch ([`DictView`]).
    pub(crate) fn eval_segment_with(
        &self,
        segment: &Segment,
        stats: &mut PushdownStats,
        codes: &mut Vec<u32>,
    ) -> Result<Bitmap> {
        let n = segment.num_rows();
        // Tier 1: zone map.
        match self.zone_tier(n, segment.min, segment.max, stats) {
            Some(true) => return Ok(Bitmap::new_ones(n)),
            Some(false) => return Ok(Bitmap::new_zeroed(n)),
            None => {}
        }
        // Tier 2: run granularity for the RLE family, via the shared
        // [`Segment::run_structure`] kernel.
        if let Some((values, ends)) = segment.run_structure()? {
            stats.run_granularity += 1;
            return Ok(self.paint_runs(&values, &ends, n));
        }
        // Tier 2b: order-preserving dictionaries — rewrite the value
        // range into a *code* range and test codes directly, never
        // materialising the gathered values (the classic dictionary
        // pushdown; another face of "executing on the compressed form").
        if let (SchemeKind::Dict, Some((lo, hi))) = (segment.kind(), self.bounds()) {
            stats.code_granularity += 1;
            // Decide from the dictionary alone first — a predicate no
            // dictionary entry satisfies empties the segment without
            // ever decompressing the per-row codes. The dictionary being
            // order-preserving, the bounds are one code range, found by
            // two binary searches (a run's shared dictionary is no
            // costlier than a segment's own); a membership list (In)
            // then tests the entries inside that range.
            let entries = segment.dictionary()?;
            let (code_lo, code_hi) = with_column!(&*entries, |v| (
                v.partition_point(|&x| i128::from(x) < lo),
                v.partition_point(|&x| i128::from(x) <= hi),
            ));
            let members: Option<Vec<bool>> = match self {
                Predicate::In(_) => Some(with_column!(&*entries, |v| v
                    .get(code_lo..code_hi)
                    .unwrap_or_default()
                    .iter()
                    .map(|&x| self.test(x.into()))
                    .collect())),
                _ => None,
            };
            let mut bitmap = Bitmap::new_zeroed(n);
            if code_lo >= code_hi || members.as_ref().is_some_and(|m| !m.contains(&true)) {
                return Ok(bitmap);
            }
            let view = DictView::new(segment, codes, None)?;
            for (i, &code) in view.codes.iter().enumerate() {
                let at = (code as usize).wrapping_sub(code_lo);
                let hit = match &members {
                    Some(members) => members.get(at).copied().unwrap_or(false),
                    None => at < code_hi - code_lo,
                };
                if hit {
                    bitmap.set(i);
                }
            }
            return Ok(bitmap);
        }
        // Tier 3: test every value off the segment's value stream, one
        // result bit at a time into the current mask word.
        stats.row_granularity += 1;
        let (mut words, mut word, mut fill) = (Vec::with_capacity(n.div_ceil(64)), 0u64, 0);
        let signed = segment.compressed.dtype.signed();
        segment.visit(&mut |chunk| {
            for &v in chunk {
                word |= u64::from(self.test(widen(v, signed))) << fill;
                fill += 1;
                if fill == 64 {
                    words.push(word);
                    (word, fill) = (0, 0);
                }
            }
        })?;
        words.push(word);
        Ok(Bitmap::from_words(words, n))
    }

    fn paint_runs(&self, values: &ColumnData, ends: &[u64], n: usize) -> Bitmap {
        let mut bitmap = Bitmap::new_zeroed(n);
        let mut start = 0usize;
        for run in 0..values.len() {
            let end = ends.get(run).copied().unwrap_or(n as u64) as usize;
            if self.test(values.get_numeric(run).expect("in range")) {
                bitmap.set_range(start, end.min(n));
            }
            start = end.min(n);
        }
        bitmap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::CompressionPolicy;

    fn runs_segment() -> Segment {
        let col = ColumnData::U64(vec![7, 7, 7, 9, 9, 4, 4, 4, 4, 2]);
        Segment::build(
            &col,
            &CompressionPolicy::Fixed("rle[values=ns,lengths=ns]".into()),
        )
        .unwrap()
    }

    #[test]
    fn predicate_bounds_and_test() {
        assert_eq!(Predicate::Eq(5).bounds(), Some((5, 5)));
        assert_eq!(Predicate::All.bounds(), None);
        assert!(Predicate::Range { lo: 2, hi: 4 }.test(3));
        assert!(!Predicate::Range { lo: 2, hi: 4 }.test(5));
    }

    /// `zone_decides` is monotone: what it decides on an interval it
    /// decides alike on every sub-interval — the rule that lets one test
    /// against a zone tree node's hull settle every segment under it.
    /// Every predicate shape, over both domains' `i128` bounds.
    #[test]
    fn zone_decisions_hold_on_every_sub_interval() {
        let mut rng = proptest::test_runner::TestRng::for_test("zone_decisions_sub_interval");
        for (lo, hi) in [(0, u64::MAX as i128), (i64::MIN as i128, i64::MAX as i128)] {
            let mut pick = || lo + (rng.next_u64() as i128).rem_euclid(hi - lo + 1);
            let (a, b, c) = (pick(), pick(), pick());
            let predicates = [
                Predicate::All,
                Predicate::Range {
                    lo: a.min(b),
                    hi: a.max(b),
                },
                Predicate::Range {
                    lo: a.max(b),
                    hi: a.min(b),
                },
                Predicate::Range { lo, hi: a },
                Predicate::Range { lo: a, hi },
                Predicate::Range { lo, hi },
                Predicate::Eq(a),
                Predicate::Eq(lo),
                Predicate::Eq(hi),
                Predicate::in_list(&[]),
                Predicate::in_list(&[a]),
                Predicate::in_list(&[lo, a, b, c, hi]),
            ];
            for predicate in predicates {
                // The domain's bounds, a random point, and every bound
                // of the predicate with its neighbours.
                let mut points = vec![lo, lo + 1, hi - 1, hi, pick()];
                let edges: Vec<i128> = match &predicate {
                    Predicate::Range { lo, hi } => vec![*lo, *hi],
                    Predicate::Eq(v) => vec![*v],
                    Predicate::In(values) => values.to_vec(),
                    Predicate::All => Vec::new(),
                };
                for edge in edges {
                    points.extend([edge - 1, edge, edge + 1].map(|p| p.clamp(lo, hi)));
                }
                points.sort_unstable();
                points.dedup();
                for (i, &min) in points.iter().enumerate() {
                    for &max in &points[i..] {
                        let Some(decided) = predicate.zone_decides(min, max) else {
                            continue;
                        };
                        for (j, &sub_min) in points.iter().enumerate() {
                            for &sub_max in &points[j..] {
                                if min <= sub_min && sub_max <= max {
                                    assert_eq!(
                                        predicate.zone_decides(sub_min, sub_max),
                                        Some(decided),
                                        "{predicate:?} on [{min}, {max}] and [{sub_min}, {sub_max}]"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn plain_eval() {
        let col = ColumnData::I64(vec![-5, 0, 5, 10]);
        let b = Predicate::Range { lo: 0, hi: 5 }.eval_plain(&col);
        assert_eq!(b.to_selection_vector(), vec![1, 2]);
        assert_eq!(Predicate::All.eval_plain(&col).count_ones(), 4);
    }

    #[test]
    fn run_granularity_matches_plain() {
        let segment = runs_segment();
        let plain = segment.decompress().unwrap();
        for pred in [
            Predicate::Eq(4),
            Predicate::Eq(7),
            Predicate::Range { lo: 4, hi: 8 },
            Predicate::Range { lo: 100, hi: 200 },
        ] {
            let mut stats = PushdownStats::default();
            let fast = pred.eval_segment(&segment, Some(&mut stats)).unwrap();
            assert_eq!(fast, pred.eval_plain(&plain), "{pred:?}");
        }
    }

    #[test]
    fn run_granularity_tier_fires() {
        let segment = runs_segment();
        let mut stats = PushdownStats::default();
        let _ = Predicate::Eq(4)
            .eval_segment(&segment, Some(&mut stats))
            .unwrap();
        assert_eq!(stats.run_granularity, 1);
        assert_eq!(stats.row_granularity, 0);
    }

    #[test]
    fn zonemap_tier_fires_on_disjoint_range() {
        let segment = runs_segment();
        let mut stats = PushdownStats::default();
        let b = Predicate::Range { lo: 100, hi: 200 }
            .eval_segment(&segment, Some(&mut stats))
            .unwrap();
        assert_eq!(b.count_ones(), 0);
        assert_eq!(stats.zonemap_hits, 1);
        assert_eq!(stats.run_granularity, 0);
    }

    #[test]
    fn zonemap_tier_fires_on_containing_range() {
        let segment = runs_segment();
        let mut stats = PushdownStats::default();
        let b = Predicate::Range { lo: 0, hi: 100 }
            .eval_segment(&segment, Some(&mut stats))
            .unwrap();
        assert_eq!(b.count_ones(), 10);
        assert_eq!(stats.zonemap_hits, 1);
    }

    #[test]
    fn row_granularity_fallback() {
        let col = ColumnData::U64((0..100).map(|i| i * 7 % 13).collect());
        let segment = Segment::build(&col, &CompressionPolicy::Fixed("ns".into())).unwrap();
        let mut stats = PushdownStats::default();
        let b = Predicate::Eq(0)
            .eval_segment(&segment, Some(&mut stats))
            .unwrap();
        assert_eq!(stats.row_granularity, 1);
        assert_eq!(b, Predicate::Eq(0).eval_plain(&col));
    }

    #[test]
    fn dict_code_granularity_matches_plain() {
        // Values chosen so the zone map cannot decide and the dictionary
        // pushdown must do the work.
        let col = ColumnData::I64(vec![-30, 10, 500, 10, -30, 77, 500, 10]);
        let segment =
            Segment::build(&col, &CompressionPolicy::Fixed("dict[codes=ns]".into())).unwrap();
        for pred in [
            Predicate::Range { lo: -30, hi: 10 },
            Predicate::Range { lo: 11, hi: 499 },
            Predicate::Eq(77),
            Predicate::Eq(78),
        ] {
            let mut stats = PushdownStats::default();
            let fast = pred.eval_segment(&segment, Some(&mut stats)).unwrap();
            assert_eq!(fast, pred.eval_plain(&col), "{pred:?}");
            assert_eq!(stats.code_granularity, 1, "{pred:?}");
            assert_eq!(stats.row_granularity, 0, "{pred:?}");
        }
    }

    #[test]
    fn dict_empty_code_range_short_circuits() {
        let col = ColumnData::U64(vec![10, 20, 30, 20]);
        let segment =
            Segment::build(&col, &CompressionPolicy::Fixed("dict[codes=ns]".into())).unwrap();
        let mut stats = PushdownStats::default();
        // Within the zone range but between dictionary entries.
        let b = Predicate::Range { lo: 21, hi: 29 }
            .eval_segment(&segment, Some(&mut stats))
            .unwrap();
        assert_eq!(b.count_ones(), 0);
        assert_eq!(stats.code_granularity, 1);
    }

    #[test]
    fn in_list_membership_and_zone_decisions() {
        let p = Predicate::in_list(&[30, 10, 10, -5]);
        assert_eq!(p.bounds(), Some((-5, 30)));
        assert!(p.test(10) && p.test(-5) && !p.test(11));
        // Fully inside the list's bounds but not constant: undecided.
        assert_eq!(p.zone_decides(0, 20), None);
        // Disjoint from the list: proven empty — including a gap
        // *between* list elements, which a raw bounds check misses.
        assert_eq!(p.zone_decides(40, 90), Some(false));
        assert_eq!(p.zone_decides(11, 29), Some(false));
        // Constant segment on a list element: proven full.
        assert_eq!(p.zone_decides(10, 10), Some(true));
        // Empty list matches nothing, anywhere.
        let empty = Predicate::in_list(&[]);
        assert_eq!(empty.bounds(), None);
        assert_eq!(empty.zone_decides(0, 100), Some(false));
    }

    #[test]
    fn in_on_runs_and_rows_matches_plain() {
        let segment = runs_segment();
        let plain = segment.decompress().unwrap();
        let p = Predicate::in_list(&[2, 7, 99]);
        let mut stats = PushdownStats::default();
        let fast = p.eval_segment(&segment, Some(&mut stats)).unwrap();
        assert_eq!(fast, p.eval_plain(&plain));
        assert_eq!(stats.run_granularity, 1);
    }

    #[test]
    fn dict_in_pushdown_matches_plain() {
        let col = ColumnData::I64(vec![-30, 10, 500, 10, -30, 77, 500, 10]);
        let segment =
            Segment::build(&col, &CompressionPolicy::Fixed("dict[codes=ns]".into())).unwrap();
        for values in [vec![10i128, 500], vec![-30, 78], vec![0, 1]] {
            let p = Predicate::in_list(&values);
            let mut stats = PushdownStats::default();
            let fast = p.eval_segment(&segment, Some(&mut stats)).unwrap();
            assert_eq!(fast, p.eval_plain(&col), "{values:?}");
            assert_eq!(stats.row_granularity, 0, "{values:?}");
        }
    }

    #[test]
    fn stats_absorb() {
        let mut a = PushdownStats {
            zonemap_hits: 1,
            run_granularity: 2,
            code_granularity: 0,
            row_granularity: 3,
        };
        a.absorb(&PushdownStats {
            zonemap_hits: 10,
            run_granularity: 0,
            code_granularity: 4,
            row_granularity: 1,
        });
        assert_eq!(a.total(), 21);
    }
}
