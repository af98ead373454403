//! Grouped aggregation over raw segment slices.
//!
//! `SELECT key, SUM(value) GROUP BY key` over a compressed key column:
//! the naive path hashes every row; the compressed path picks a
//! *code-space* tier from the key segment's scheme —
//!
//! * **RLE/RPE**: within a run the key is constant, so the hash table
//!   is probed once per *run*, through the same
//!   [`Segment::run_structure`] kernel the planner's group-by sink
//!   uses;
//! * **DICT**: aggregation runs directly on the dictionary codes into
//!   a dense per-code accumulator (no hash probe, no key decode per
//!   row); each distinct key is decoded exactly once at merge time.
//!
//! These free functions keep the original segment-slice signatures
//! (pairwise-aligned slices, no table needed, nothing cloned) for
//! existing callers and benches; table-level code should use
//! [`crate::QueryBuilder::group_by`], which adds filters, multiple
//! aggregates, and parallel execution on top of the same kernels.

use crate::agg::AggResult;
use crate::segment::{DictView, SchemeKind, Segment};
use crate::{Result, StoreError};
use std::collections::HashMap;

/// Grouped aggregates keyed by the group value.
pub type Groups = HashMap<i128, AggResult>;

/// Naive grouped sum: decompress both columns, hash per row.
pub fn group_agg_naive(keys: &[Segment], values: &[Segment]) -> Result<Groups> {
    check_alignment(keys, values)?;
    let mut groups = Groups::new();
    for (kseg, vseg) in keys.iter().zip(values) {
        per_row(&kseg.decompress()?, &vseg.decompress()?, &mut groups);
    }
    Ok(groups)
}

/// Compression-aware grouped sum: RLE/RPE key segments probe the hash
/// table once per run and fold the aligned value range in one pass;
/// DICT key segments aggregate on dictionary codes into a dense
/// per-code accumulator, decoding each distinct key exactly once;
/// other key schemes fall back to per-row hashing. The key column is
/// never decompressed on the structural paths.
pub fn group_agg_compressed(keys: &[Segment], values: &[Segment]) -> Result<Groups> {
    check_alignment(keys, values)?;
    let mut groups = Groups::new();
    let (mut scratch, mut codes): (Vec<AggResult>, Vec<u32>) = (Vec::new(), Vec::new());
    for (kseg, vseg) in keys.iter().zip(values) {
        if let Some((run_values, run_ends)) = kseg.run_structure()? {
            let v = vseg.decompress()?;
            let v_numeric = v.to_numeric();
            let mut start = 0usize;
            for (run, &run_end) in run_ends.iter().enumerate().take(run_values.len()) {
                let end = (run_end as usize).min(v_numeric.len());
                let acc = groups
                    .entry(run_values.get_numeric(run).expect("in range"))
                    .or_default();
                for &value in &v_numeric[start..end] {
                    acc.push(value);
                }
                start = end;
            }
            continue;
        }
        if kseg.kind() == SchemeKind::Dict {
            let view = DictView::new(kseg, &mut codes, None)?;
            let v = vseg.decompress()?;
            scratch.clear();
            scratch.resize(view.entries.len(), AggResult::default());
            for (&code, value) in view.codes.iter().zip(v.to_numeric()) {
                scratch[code as usize].push(value);
            }
            for (code, acc) in scratch.iter().enumerate() {
                if acc.count == 0 {
                    continue;
                }
                groups
                    .entry(view.entries.get_numeric(code).expect("in range"))
                    .or_default()
                    .merge(acc);
            }
            continue;
        }
        per_row(&kseg.decompress()?, &vseg.decompress()?, &mut groups);
    }
    Ok(groups)
}

fn per_row(k: &lcdc_core::ColumnData, v: &lcdc_core::ColumnData, groups: &mut Groups) {
    for i in 0..k.len() {
        groups
            .entry(k.get_numeric(i).expect("in range"))
            .or_default()
            .push(v.get_numeric(i).expect("in range"));
    }
}

fn check_alignment(keys: &[Segment], values: &[Segment]) -> Result<()> {
    if keys.len() != values.len() {
        return Err(StoreError::Shape(format!(
            "{} key segments vs {} value segments",
            keys.len(),
            values.len()
        )));
    }
    for (i, (k, v)) in keys.iter().zip(values).enumerate() {
        if k.num_rows() != v.num_rows() {
            return Err(StoreError::Shape(format!(
                "segment {i}: {} key rows vs {} value rows",
                k.num_rows(),
                v.num_rows()
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::CompressionPolicy;
    use lcdc_core::ColumnData;

    fn segs(col: &ColumnData, expr: &str, seg_rows: usize) -> Vec<Segment> {
        let t = col.to_transport();
        t.chunks(seg_rows)
            .map(|chunk| {
                Segment::build(
                    &ColumnData::from_transport(col.dtype(), chunk.to_vec()),
                    &CompressionPolicy::Fixed(expr.to_string()),
                )
                .unwrap()
            })
            .collect()
    }

    fn orders() -> (ColumnData, ColumnData) {
        // key = day (runs), value = quantity.
        let keys = ColumnData::U64((0..5000u64).map(|i| 20_180_101 + i / 100).collect());
        let values = ColumnData::U64((0..5000u64).map(|i| 1 + i % 50).collect());
        (keys, values)
    }

    #[test]
    fn run_aware_agrees_with_naive() {
        let (k, v) = orders();
        let keys = segs(&k, "rle[values=delta[deltas=ns_zz],lengths=ns]", 1000);
        let values = segs(&v, "ns", 1000);
        let naive = group_agg_naive(&keys, &values).unwrap();
        let fast = group_agg_compressed(&keys, &values).unwrap();
        assert_eq!(naive, fast);
        assert_eq!(naive.len(), 50, "one group per day");
        let day0 = &naive[&20_180_101];
        assert_eq!(day0.count, 100);
    }

    #[test]
    fn rpe_keys_work_too() {
        let (k, v) = orders();
        let keys = segs(&k, "rpe[values=ns,positions=ns]", 512);
        let values = segs(&v, "varwidth", 512);
        assert_eq!(
            group_agg_naive(&keys, &values).unwrap(),
            group_agg_compressed(&keys, &values).unwrap()
        );
    }

    #[test]
    fn dict_keys_aggregate_in_code_space() {
        let k = ColumnData::U64((0..1000u64).map(|i| (i * 7919) % 8).collect());
        let v = ColumnData::U64((0..1000u64).collect());
        let keys = segs(&k, "dict[codes=ns]", 250);
        let values = segs(&v, "ns", 250);
        let naive = group_agg_naive(&keys, &values).unwrap();
        let fast = group_agg_compressed(&keys, &values).unwrap();
        assert_eq!(naive, fast);
        assert_eq!(naive.len(), 8);
    }

    #[test]
    fn high_cardinality_dict_keys_match_naive() {
        // 509 distinct keys in pseudo-random order: every segment's
        // dictionary is large, codes are unordered, and the dense
        // per-code accumulator must still reproduce the hashed answer.
        let k = ColumnData::U64((0..6000u64).map(|i| (i * 7919) % 509).collect());
        let v = ColumnData::I64((0..6000i64).map(|i| (i * 31) % 1009 - 500).collect());
        let keys = segs(&k, "dict[codes=ns]", 750);
        let values = segs(&v, "ns_zz", 750);
        let naive = group_agg_naive(&keys, &values).unwrap();
        let fast = group_agg_compressed(&keys, &values).unwrap();
        assert_eq!(naive, fast);
        assert_eq!(naive.len(), 509);
    }

    #[test]
    fn non_structural_keys_fall_back() {
        let k = ColumnData::U64((0..1000u64).map(|i| (i * 7919) % 997).collect());
        let v = ColumnData::U64((0..1000u64).collect());
        let keys = segs(&k, "ns", 250);
        let values = segs(&v, "ns", 250);
        assert_eq!(
            group_agg_naive(&keys, &values).unwrap(),
            group_agg_compressed(&keys, &values).unwrap()
        );
    }

    #[test]
    fn signed_keys_and_values() {
        let k = ColumnData::I64(vec![-1, -1, -1, 5, 5, -1]);
        let v = ColumnData::I64(vec![10, -10, 3, 7, 7, 100]);
        let keys = segs(&k, "rle[values=id,lengths=ns]", 6);
        let values = segs(&v, "id", 6);
        let groups = group_agg_compressed(&keys, &values).unwrap();
        assert_eq!(groups[&-1].sum, 103); // 10 - 10 + 3 + 100
        assert_eq!(groups[&5].sum, 14);
        assert_eq!(groups[&-1].min, Some(-10));
        assert_eq!(groups, group_agg_naive(&keys, &values).unwrap());
    }

    #[test]
    fn misaligned_segments_rejected() {
        let (k, v) = orders();
        let keys = segs(&k, "ns", 1000);
        let values = segs(&v, "ns", 512);
        assert!(group_agg_compressed(&keys, &values).is_err());
        assert!(group_agg_naive(&keys[..1], &values[..2]).is_err());
    }

    #[test]
    fn empty_input() {
        assert!(group_agg_compressed(&[], &[]).unwrap().is_empty());
    }

    #[test]
    fn ragged_but_aligned_segments_still_work() {
        // The segment-slice API only requires *pairwise* height
        // equality, not uniform heights — callers may hand over
        // arbitrary aligned chunks.
        let build = |col: &ColumnData, expr: &str| {
            Segment::build(col, &CompressionPolicy::Fixed(expr.to_string())).unwrap()
        };
        let keys = vec![
            build(&ColumnData::U64(vec![1; 100]), "rle[values=ns,lengths=ns]"),
            build(&ColumnData::U64(vec![2; 70]), "rle[values=ns,lengths=ns]"),
            build(&ColumnData::U64(vec![1; 100]), "rle[values=ns,lengths=ns]"),
        ];
        let values = vec![
            build(&ColumnData::U64((0..100).collect()), "ns"),
            build(&ColumnData::U64((0..70).collect()), "ns"),
            build(&ColumnData::U64(vec![5; 100]), "ns"),
        ];
        let naive = group_agg_naive(&keys, &values).unwrap();
        let fast = group_agg_compressed(&keys, &values).unwrap();
        assert_eq!(naive, fast);
        assert_eq!(naive[&1].count, 200);
        assert_eq!(naive[&2].count, 70);
        assert_eq!(naive[&1].sum, (0..100).sum::<i128>() + 500);
    }
}
