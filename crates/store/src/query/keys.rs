//! The key-unit ladder: one key segment read at its best structural
//! granularity, for the group-by sink and both sides of the join.
//!
//! The paper (§II-B) lists joins next to selections among the operations
//! a model-aware engine can speed up. An equi-join's pair count is
//! `Σ_v count_a(v)·count_b(v)`, so each side reduces to a value
//! histogram, and a group-by reduces its key the same way before
//! folding value columns per group. A compressed key segment can often
//! be reduced without decoding its rows (Lessons 1: the operator runs
//! on the scheme's parts). [`key_units`] splits a segment into *key
//! units* — `(key, selected rows)` pairs plus a map from rows to units —
//! at the first tier its scheme allows:
//!
//! 1. **CONST**: one unit, keyed off the zone map.
//! 2. **DICT**: one unit per dictionary code, read through [`DictView`];
//!    each entry is decoded once, never per row.
//! 3. **RLE/RPE** under a full selection: one unit per run, read off the
//!    run structure.
//! 4. Otherwise: one unit per segment-local distinct key, hashed once
//!    per selected row off the value stream.
//!
//! A unit may own no selected row (a code the selection never touches,
//! or the one unit a mask's dropped rows map to); consumers skip it.

use super::physical::Selection;
use crate::agg::{for_each_run, widen};
use crate::hash::IntMap;
use crate::segment::{DictView, SchemeKind, Segment};
use crate::Result;
use lcdc_core::with_column;

/// How a key segment's rows map to its units.
#[derive(Debug)]
pub(crate) enum RowMap<'s> {
    /// The one unit owns every selected row (CONST).
    Whole,
    /// Row `i` belongs to unit `codes[i]`: its dictionary code, or — a
    /// row the selection drops — the unit one past the last code (DICT).
    Codes(&'s [u32]),
    /// Run `r` owns the rows up to `ends[r]`, exclusive (RLE/RPE).
    Runs(Vec<u64>),
    /// Row `i` belongs to unit `ids[i]`, a segment-local distinct key;
    /// under a mask, unit 0 owns the dropped rows (the row tier).
    Rows(&'s [u32]),
}

/// One key segment split into units by [`key_units`].
#[derive(Debug)]
pub(crate) struct KeyUnits<'s> {
    /// `(key, selected rows)` per unit, in unit order.
    pub(crate) units: &'s [(i128, usize)],
    /// How rows map to `units`.
    pub(crate) rows: RowMap<'s>,
    /// Key values the tier read: one for CONST, one per run, one per
    /// selected row otherwise ([`super::QueryStats::values_processed`]).
    pub(crate) values: usize,
    /// Selected rows whose key the tier never read row by row: all of
    /// them on the structural tiers, none on the row tier.
    pub(crate) undecoded: usize,
}

impl KeyUnits<'_> {
    /// Whether a structural tier (CONST, DICT, runs) produced the units.
    pub(crate) fn structural(&self) -> bool {
        !matches!(self.rows, RowMap::Rows(_))
    }
}

/// The buffers [`key_units`] reuses across segments; one per lease slot
/// and side, never shared.
#[derive(Debug, Default)]
pub(crate) struct KeyScratch {
    units: Vec<(i128, usize)>,
    /// A DICT segment's codes, or the row tier's unit of each row.
    ids: Vec<u32>,
    /// Selected rows per dictionary code.
    counts: Vec<u32>,
    /// The row tier's segment-local key → unit.
    local: IntMap<i128, u32>,
}

/// Split key segment `seg` into units under `selection`, at the first
/// tier of the module doc's ladder its scheme and the selection allow.
/// No tier spends a pass of its own on the row map: it is written in
/// the pass that reads or counts the keys.
pub(crate) fn key_units<'s>(
    seg: &Segment,
    selection: &Selection,
    scratch: &'s mut KeyScratch,
) -> Result<KeyUnits<'s>> {
    let n = seg.num_rows();
    let selected = selection.count(n);
    let KeyScratch {
        units,
        ids,
        counts,
        local,
    } = scratch;
    units.clear();
    let mask = selection.mask();
    match seg.kind() {
        SchemeKind::Const => {
            units.push((seg.min, selected));
            return Ok(KeyUnits {
                units,
                rows: RowMap::Whole,
                values: 1,
                undecoded: selected,
            });
        }
        SchemeKind::Dict => {
            // A full selection counts each code's rows while the codes
            // unpack; a mask counts its rows and redirects the dropped
            // ones to one extra unit in a single pass after.
            let entries = DictView::new(seg, ids, mask.is_none().then_some(&mut *counts))?.entries;
            let dropped = entries.len() as u32;
            if let Some(mask) = mask {
                counts.clear();
                counts.resize(entries.len(), 0);
                for (row, id) in ids.iter_mut().enumerate() {
                    if !mask.get(row) {
                        *id = dropped;
                    } else if let Some(count) = counts.get_mut(*id as usize) {
                        *count += 1;
                    }
                }
            }
            with_column!(&*entries, |keys| units.extend(
                keys.iter()
                    .zip(counts.iter())
                    .map(|(&key, &rows)| (key.into(), rows as usize))
            ));
            if mask.is_some() {
                units.push((0, 0));
            }
            return Ok(KeyUnits {
                units,
                rows: RowMap::Codes(ids),
                values: selected,
                undecoded: selected,
            });
        }
        _ => {}
    }
    if mask.is_none() {
        if let Some((values, ends)) = seg.run_structure()? {
            for_each_run(&values, &ends, n, |key, rows| units.push((key, rows.len())));
            return Ok(KeyUnits {
                units,
                rows: RowMap::Runs(ends),
                values: values.len(),
                undecoded: n,
            });
        }
    }
    ids.clear();
    local.clear();
    if mask.is_some() {
        units.push((0, 0)); // unit 0: the dropped rows
    }
    let (signed, mut row) = (seg.compressed.dtype.signed(), 0usize);
    seg.visit(&mut |chunk| {
        ids.extend(chunk.iter().map(|&v| {
            row += 1;
            if mask.is_some_and(|mask| !mask.get(row - 1)) {
                return 0;
            }
            let key = widen(v, signed);
            let unit = *local.entry(key).or_insert_with(|| {
                units.push((key, 0));
                units.len() as u32 - 1
            });
            units[unit as usize].1 += 1;
            unit
        }))
    })?;
    Ok(KeyUnits {
        units,
        rows: RowMap::Rows(ids),
        values: selected,
        undecoded: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryBuilder;
    use crate::schema::TableSchema;
    use crate::segment::CompressionPolicy;
    use crate::table::Table;
    use lcdc_colops::Bitmap;
    use lcdc_core::ColumnData;
    use std::sync::Arc;

    /// A row map as `(tier, row → unit or run ends)`, for comparison.
    fn owned(rows: &RowMap) -> (&'static str, Vec<u64>) {
        let wide = |ids: &[u32]| ids.iter().map(|&id| u64::from(id)).collect();
        match rows {
            RowMap::Whole => ("whole", Vec::new()),
            RowMap::Codes(codes) => ("codes", wide(codes)),
            RowMap::Runs(ends) => ("runs", ends.clone()),
            RowMap::Rows(ids) => ("rows", wide(ids)),
        }
    }

    /// Every tier under every selection shape — full, a ragged mask, an
    /// empty mask: the units, the row map and both charges of one
    /// 10-row segment per scheme.
    #[test]
    fn every_tier_under_every_selection() {
        type Case = (Vec<(i128, usize)>, (&'static str, Vec<u64>), usize, usize);
        let keys = vec![5u64, 5, 5, 7, 7, 9, 9, 9, 9, 5];
        let mut ragged = Bitmap::new_zeroed(10);
        [1, 3, 4, 8, 9].into_iter().for_each(|row| ragged.set(row));
        let selections = [
            Selection::All,
            Selection::Mask(ragged),
            Selection::Mask(Bitmap::new_zeroed(10)),
        ];
        // The row tier: the unstructured scheme under every selection,
        // the run schemes under a mask. Unit 0 owns a mask's dropped rows.
        let row_tier: [Case; 3] = [
            (
                vec![(5, 4), (7, 2), (9, 4)],
                ("rows", vec![0, 0, 0, 1, 1, 2, 2, 2, 2, 0]),
                10,
                0,
            ),
            (
                vec![(0, 0), (5, 2), (7, 2), (9, 1)],
                ("rows", vec![0, 1, 0, 2, 2, 0, 0, 0, 3, 1]),
                5,
                0,
            ),
            (vec![(0, 0)], ("rows", vec![0; 10]), 0, 0),
        ];
        let runs = || -> [Case; 3] {
            let all = (
                vec![(5, 3), (7, 2), (9, 4), (5, 1)],
                ("runs", vec![3, 5, 9, 10]),
                4,
                10,
            );
            [all, row_tier[1].clone(), row_tier[2].clone()]
        };
        let cases: [(&str, Vec<u64>, [Case; 3]); 5] = [
            (
                "const",
                vec![4; 10],
                [
                    (vec![(4, 10)], ("whole", vec![]), 1, 10),
                    (vec![(4, 5)], ("whole", vec![]), 1, 5),
                    (vec![(4, 0)], ("whole", vec![]), 1, 0),
                ],
            ),
            (
                "dict[codes=ns]",
                keys.clone(),
                [
                    (
                        vec![(5, 4), (7, 2), (9, 4)],
                        ("codes", vec![0, 0, 0, 1, 1, 2, 2, 2, 2, 0]),
                        10,
                        10,
                    ),
                    (
                        vec![(5, 2), (7, 2), (9, 1), (0, 0)],
                        ("codes", vec![3, 0, 3, 1, 1, 3, 3, 3, 2, 0]),
                        5,
                        5,
                    ),
                    (
                        vec![(5, 0), (7, 0), (9, 0), (0, 0)],
                        ("codes", vec![3; 10]),
                        0,
                        0,
                    ),
                ],
            ),
            ("rle[values=ns,lengths=ns]", keys.clone(), runs()),
            ("rpe[values=ns,positions=ns]", keys.clone(), runs()),
            ("ns", keys, row_tier.clone()),
        ];
        let mut scratch = KeyScratch::default();
        for (expr, col, expected) in cases {
            let policy = CompressionPolicy::Fixed(expr.into());
            let seg = Segment::build(&ColumnData::U64(col), &policy).unwrap();
            for (sel, (units, rows, values, undecoded)) in selections.iter().zip(expected) {
                let got = key_units(&seg, sel, &mut scratch).unwrap();
                let at = format!("{expr}, {} rows", sel.count(10));
                assert_eq!(got.units, units, "{at}: units");
                assert_eq!(owned(&got.rows), rows, "{at}: row map");
                assert_eq!(got.values, values, "{at}: values");
                assert_eq!(got.undecoded, undecoded, "{at}: undecoded");
            }
        }
    }

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
}
