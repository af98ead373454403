//! The DICT tier of the group-by and the join, per dictionary.
//!
//! A DICT key segment is read in code space ([`DictView`]): one code per
//! row, each below its dictionary's length. The sinks count each code's
//! selected rows — and the group-by folds each value column per code —
//! into dense arrays indexed by code ([`CodeFold`]), and resolve codes
//! to keys only when the dictionary changes or the lease slot's partial
//! state is merged. A segment's own dictionary changes after every
//! segment; a dictionary the run's segments share (`dict[dict=shared,...]`,
//! see `segment::share_dictionary`) changes once per run. So a run's
//! group-by hashes each touched key once, not once per segment, and the
//! join probes once per (dictionary, right segment).

use super::physical::Selection;
use crate::agg::{narrow_fits, widen, AggResult};
use crate::segment::{DictView, Segment};
use crate::{Result, StoreError};
use lcdc_core::{with_column, ColumnData, SharedDict};
use std::borrow::Cow;
use std::sync::Arc;

/// The dictionary a DICT key segment's codes index: one its run's
/// segments share by handle, or the segment's own.
#[derive(Debug, Clone)]
pub(crate) enum Dictionary {
    Shared(Arc<SharedDict>),
    Own(Arc<Segment>),
}

impl Dictionary {
    fn of(seg: &Arc<Segment>) -> Dictionary {
        match seg.compressed.shared_dict() {
            Some(dict) => Dictionary::Shared(Arc::clone(dict)),
            None => Dictionary::Own(Arc::clone(seg)),
        }
    }

    /// Whether `self` and `other` are one dictionary: the same shared
    /// handle, or the same segment.
    fn is(&self, other: &Dictionary) -> bool {
        match (self, other) {
            (Dictionary::Shared(a), Dictionary::Shared(b)) => Arc::ptr_eq(a, b),
            (Dictionary::Own(a), Dictionary::Own(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// The entries, in code order.
    fn entries(&self) -> Result<Cow<'_, ColumnData>> {
        match self {
            Dictionary::Shared(dict) => Ok(Cow::Borrowed(dict.values())),
            Dictionary::Own(seg) => seg.dictionary(),
        }
    }
}

/// The buffers [`segment_codes`] reuses across segments; one per lease
/// slot, never shared.
#[derive(Debug, Default)]
pub(crate) struct CodeScratch {
    codes: Vec<u32>,
    counts: Vec<u32>,
}

/// One DICT key segment in code space under a selection.
pub(crate) struct SegmentCodes<'s> {
    /// The dictionary the codes index.
    pub(crate) dict: Dictionary,
    /// Its entry count: every code is below it, except a row the
    /// selection drops, whose code is `len`.
    pub(crate) len: usize,
    /// One code per row.
    pub(crate) codes: &'s [u32],
    /// Selected rows per code, `len` entries.
    pub(crate) counts: &'s [u32],
}

impl SegmentCodes<'_> {
    /// Call `f` on each entry a selected row holds, with its selected
    /// rows, in code order.
    pub(crate) fn for_each_touched(&self, mut f: impl FnMut(i128, u32)) -> Result<()> {
        let entries = self.dict.entries()?;
        with_column!(&*entries, |entries| {
            for (&key, &rows) in entries.iter().zip(self.counts) {
                if rows > 0 {
                    f(key.into(), rows);
                }
            }
        });
        Ok(())
    }
}

/// Read DICT key segment `seg` in code space under `selection`: a full
/// selection counts each code's rows while the codes unpack; a mask
/// counts its rows and redirects the dropped ones to code `len` in one
/// pass after.
pub(crate) fn segment_codes<'s>(
    seg: &Arc<Segment>,
    selection: &Selection,
    scratch: &'s mut CodeScratch,
) -> Result<SegmentCodes<'s>> {
    read_codes(seg, selection, scratch, true)
}

/// [`segment_codes`] without the per-code counts, which come back
/// empty: for a sink that adds each row into its [`CodeFold`] instead
/// ([`CodeFold::add_codes`]).
pub(crate) fn segment_codes_uncounted<'s>(
    seg: &Arc<Segment>,
    selection: &Selection,
    scratch: &'s mut CodeScratch,
) -> Result<SegmentCodes<'s>> {
    read_codes(seg, selection, scratch, false)
}

fn read_codes<'s>(
    seg: &Arc<Segment>,
    selection: &Selection,
    scratch: &'s mut CodeScratch,
    count: bool,
) -> Result<SegmentCodes<'s>> {
    let CodeScratch { codes, counts } = scratch;
    let mask = selection.mask();
    let counted = (count && mask.is_none()).then_some(&mut *counts);
    let len = DictView::new(seg, codes, counted)?.entries.len();
    if mask.is_some() || !count {
        // Uncounted, `counts` stays empty and a mask only redirects.
        counts.clear();
        counts.resize(usize::from(count) * len, 0);
    }
    if let Some(mask) = mask {
        for (row, code) in codes.iter_mut().enumerate() {
            if !mask.get(row) {
                *code = len as u32;
            } else if let Some(count) = counts.get_mut(*code as usize) {
                *count += 1;
            }
        }
    }
    Ok(SegmentCodes {
        dict: Dictionary::of(seg),
        len,
        codes,
        counts,
    })
}

/// Rows — and for the group-by, each value column's aggregates — per
/// code of one dictionary, summed over the segments since it last
/// changed. Every array holds one slot past the dictionary, where a
/// mask's dropped rows fold and which is never resolved. Reused across
/// dictionaries (per lease slot).
#[derive(Debug, Clone, Default)]
pub(crate) struct CodeFold {
    dict: Option<Dictionary>,
    rows: Vec<u64>,
    cols: Vec<CodeSums>,
}

/// One value column's per-code sums: in `u64` while [`narrow_fits`]
/// proves no code's sum can overflow — every code accumulates at most
/// the rows folded since the last spill, each below the OR of the
/// values folded — spilled into exact `i128` sums when it cannot. MIN
/// and MAX only when `extrema`.
#[derive(Debug, Clone, Default)]
struct CodeSums {
    narrow: Vec<u64>,
    wide: Vec<i128>,
    min: Vec<i128>,
    max: Vec<i128>,
    or: u64,
    rows: usize,
    extrema: bool,
}

impl CodeSums {
    fn reset(&mut self, len: usize, extrema: bool) {
        let reset = |v: &mut Vec<i128>, fill| {
            v.clear();
            if extrema {
                v.resize(len, fill);
            }
        };
        self.narrow.clear();
        self.narrow.resize(len, 0);
        self.wide.clear();
        reset(&mut self.min, i128::MAX);
        reset(&mut self.max, i128::MIN);
        (self.or, self.rows, self.extrema) = (0, 0, extrema);
    }

    /// Move the narrow sums into the wide ones.
    fn spill(&mut self) {
        self.wide.resize(self.narrow.len(), 0);
        for (wide, narrow) in self.wide.iter_mut().zip(&mut self.narrow) {
            *wide += std::mem::take(narrow) as i128;
        }
        (self.or, self.rows) = (0, 0);
    }

    fn part(&self, code: usize) -> AggResult {
        AggResult {
            sum: self.narrow[code] as i128 + self.wide.get(code).copied().unwrap_or(0),
            min: self.extrema.then(|| self.min[code]),
            max: self.extrema.then(|| self.max[code]),
            count: 0,
        }
    }
}

impl CodeFold {
    /// Whether `dict` is the pending dictionary.
    pub(crate) fn holds(&self, dict: &Dictionary) -> bool {
        self.dict.as_ref().is_some_and(|held| held.is(dict))
    }

    /// Start folding against `dict` of `len` entries, with one value
    /// column per entry of `extrema` (whether it keeps MIN / MAX). The
    /// pending dictionary must have been resolved.
    pub(crate) fn start(
        &mut self,
        dict: &Dictionary,
        len: usize,
        extrema: impl ExactSizeIterator<Item = bool>,
    ) {
        self.dict = Some(dict.clone());
        self.rows.clear();
        self.rows.resize(len + 1, 0);
        self.cols.resize_with(extrema.len(), CodeSums::default);
        for (col, extrema) in self.cols.iter_mut().zip(extrema) {
            col.reset(len + 1, extrema);
        }
    }

    /// Add one segment's selected rows per code; returns how many codes
    /// it touched.
    pub(crate) fn add_rows(&mut self, counts: &[u32]) -> usize {
        let mut touched = 0;
        for (rows, &count) in self.rows.iter_mut().zip(counts) {
            *rows += u64::from(count);
            touched += usize::from(count > 0);
        }
        touched
    }

    /// Add one row per code in `codes` (a segment's codes, read
    /// without counts); a dropped row's code `len` lands in the slot
    /// past the dictionary.
    pub(crate) fn add_codes(&mut self, codes: &[u32]) {
        for &code in codes {
            if let Some(rows) = self.rows.get_mut(code as usize) {
                *rows += 1;
            }
        }
    }

    /// Fold value segment `seg` into column `col`: row `i`'s value goes
    /// to code `codes[i]`.
    pub(crate) fn fold(&mut self, col: usize, seg: &Segment, codes: &[u32]) -> Result<()> {
        let sums = &mut self.cols[col];
        let (signed, n) = (seg.compressed.dtype.signed(), codes.len());
        let (mut pos, mut aligned, mut wide) = (0usize, true, false);
        seg.visit(&mut |chunk| {
            let Some(rows) = codes.get(pos..pos + chunk.len()) else {
                aligned = false;
                return;
            };
            pos += chunk.len();
            if !wide {
                let or = chunk.iter().fold(0, |or, &v| or | v);
                if narrow_fits(sums.rows + n, sums.or | or, signed) {
                    sums.or |= or;
                } else {
                    sums.spill();
                    sums.or = or;
                    wide = !narrow_fits(n, or, signed);
                }
            }
            if wide {
                for (&code, &v) in rows.iter().zip(chunk) {
                    if let Some(sum) = sums.wide.get_mut(code as usize) {
                        *sum += widen(v, signed);
                    }
                }
            } else {
                for (&code, &v) in rows.iter().zip(chunk) {
                    if let Some(sum) = sums.narrow.get_mut(code as usize) {
                        *sum = sum.wrapping_add(v);
                    }
                }
            }
            if sums.extrema {
                for (&code, &v) in rows.iter().zip(chunk) {
                    let (v, code) = (widen(v, signed), code as usize);
                    if let (Some(min), Some(max)) = (sums.min.get_mut(code), sums.max.get_mut(code))
                    {
                        *min = (*min).min(v);
                        *max = (*max).max(v);
                    }
                }
            }
        })?;
        if !aligned || pos != n {
            return Err(StoreError::Shape(format!(
                "value segment of {} rows against {n} key rows",
                seg.num_rows()
            )));
        }
        sums.rows = if wide { 0 } else { sums.rows + n };
        Ok(())
    }

    /// Hand every touched code of the pending dictionary to `f` as
    /// `(key, rows, aggregate of value column c)`, then drop the
    /// dictionary. The group-by resolves each to its slot; the join
    /// probes each against its right segments.
    pub(crate) fn resolve(
        &mut self,
        mut f: impl FnMut(i128, u64, &dyn Fn(usize) -> AggResult),
    ) -> Result<()> {
        let Some(dict) = self.dict.take() else {
            return Ok(());
        };
        let entries = dict.entries()?;
        let (rows, cols) = (&self.rows, &self.cols);
        with_column!(&*entries, |keys| {
            for (code, (&key, &rows)) in keys.iter().zip(rows).enumerate() {
                if rows > 0 {
                    f(key.into(), rows, &|col| cols[col].part(code));
                }
            }
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{share_dictionary, CompressionPolicy};
    use lcdc_colops::Bitmap;

    fn dict_segment(keys: Vec<u64>) -> Segment {
        let policy = CompressionPolicy::Fixed("dict[codes=ns]".into());
        Segment::build(&ColumnData::U64(keys), &policy).unwrap()
    }

    /// One DICT segment under every selection shape — full, a ragged
    /// mask, an empty mask: its codes (a dropped row's is the
    /// dictionary's length) and selected rows per code.
    #[test]
    fn codes_and_counts_under_every_selection() {
        let seg = Arc::new(dict_segment(vec![5, 5, 5, 7, 7, 9, 9, 9, 9, 5]));
        let mut ragged = Bitmap::new_zeroed(10);
        [1, 3, 4, 8, 9].into_iter().for_each(|row| ragged.set(row));
        let cases = [
            (
                Selection::All,
                vec![0, 0, 0, 1, 1, 2, 2, 2, 2, 0],
                vec![4, 2, 4],
            ),
            (
                Selection::Mask(ragged),
                vec![3, 0, 3, 1, 1, 3, 3, 3, 2, 0],
                vec![2, 2, 1],
            ),
            (
                Selection::Mask(Bitmap::new_zeroed(10)),
                vec![3; 10],
                vec![0; 3],
            ),
        ];
        let mut scratch = CodeScratch::default();
        for (selection, codes, counts) in cases {
            let got = segment_codes(&seg, &selection, &mut scratch).unwrap();
            assert_eq!(
                (got.len, got.codes, got.counts),
                (3, &codes[..], &counts[..])
            );
            assert!(matches!(got.dict, Dictionary::Own(_)));
        }
    }

    /// Two segments sharing a dictionary fold into one pending span and
    /// resolve once; sums past `u64` spill into exact `i128` ones.
    #[test]
    fn a_shared_dictionary_folds_across_segments_exactly() {
        let base = 1u64 << 40;
        let keys = |shift: u64| {
            (0..600u64)
                .map(|i| base + (i + shift) % 300)
                .collect::<Vec<_>>()
        };
        let mut segments = vec![dict_segment(keys(0)), dict_segment(keys(7))];
        share_dictionary(&mut segments, 1).unwrap();
        let segments: Vec<Arc<Segment>> = segments.into_iter().map(Arc::new).collect();
        let shared = |seg: &Segment| Arc::clone(seg.compressed.shared_dict().expect("shared"));
        assert!(Arc::ptr_eq(&shared(&segments[0]), &shared(&segments[1])));
        let big = ColumnData::U64(vec![u64::MAX / 2; 600]);
        let values = Segment::build(&big, &CompressionPolicy::Auto).unwrap();
        let (mut fold, mut scratch) = (CodeFold::default(), CodeScratch::default());
        for seg in &segments {
            let codes = segment_codes(seg, &Selection::All, &mut scratch).unwrap();
            if !fold.holds(&codes.dict) {
                assert!(fold.dict.is_none(), "one dictionary, one span");
                fold.start(&codes.dict, codes.len, [true].into_iter());
            }
            assert_eq!(fold.add_rows(codes.counts), 300);
            fold.fold(0, &values, codes.codes).unwrap();
        }
        let mut resolved = Vec::new();
        fold.resolve(|key, rows, part| resolved.push((key, rows, part(0))))
            .unwrap();
        assert_eq!(resolved.len(), 300);
        for (key, rows, part) in resolved {
            assert!((base as i128..base as i128 + 300).contains(&key));
            assert_eq!(rows, 4);
            assert_eq!(part.sum, 4 * (u64::MAX / 2) as i128);
            assert_eq!(
                (part.min, part.max),
                (Some((u64::MAX / 2) as i128), Some((u64::MAX / 2) as i128))
            );
        }
        assert!(fold.dict.is_none(), "resolving drops the dictionary");
    }

    /// Each segment's sums fit a `u64` on their own, two segments'
    /// do not: the second spills the first into exact sums.
    #[test]
    fn narrow_sums_spill_when_segments_add_up() {
        let mut segments = vec![dict_segment(vec![1 << 40; 1000]); 2];
        share_dictionary(&mut segments, 1).unwrap();
        let segments: Vec<Arc<Segment>> = segments.into_iter().map(Arc::new).collect();
        let wide = (1u64 << 54) - 1;
        let values = Segment::build(&ColumnData::U64(vec![wide; 1000]), &CompressionPolicy::Auto);
        let values = values.unwrap();
        let (mut fold, mut scratch) = (CodeFold::default(), CodeScratch::default());
        for seg in &segments {
            let codes = segment_codes(seg, &Selection::All, &mut scratch).unwrap();
            if !fold.holds(&codes.dict) {
                fold.start(&codes.dict, codes.len, [false].into_iter());
            }
            fold.add_rows(codes.counts);
            fold.fold(0, &values, codes.codes).unwrap();
        }
        let mut sums = Vec::new();
        fold.resolve(|key, rows, part| sums.push((key, rows, part(0).sum)))
            .unwrap();
        assert_eq!(sums, vec![(1 << 40, 2000, 2000 * i128::from(wide))]);
    }
}
