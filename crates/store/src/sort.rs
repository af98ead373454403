//! Run-aware sorting over compressed columns.
//!
//! Sorting is the third classic scan-shaped operator (after selection
//! and aggregation) that benefits from the paper's "no clear distinction
//! between decompression and query execution": an RLE/RPE segment's
//! *partial* decompression hands the sorter `(value, run length)` pairs,
//! so the comparison work is O(R log R) over runs rather than
//! O(n log n) over rows — the expansion back to rows is a linear write.
//! For other schemes the segment is decompressed and run-encoded first,
//! which still wins across segments whenever values repeat.

use crate::agg::for_each_run;
use crate::segment::Segment;
use crate::table::Table;
use crate::{Result, StoreError};
use lcdc_core::ColumnData;

/// Execution counters for [`sort_column_compressed`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SortStats {
    /// Total rows in the column.
    pub rows: usize,
    /// Runs that entered the comparison sort (the work actually done).
    pub runs_sorted: usize,
    /// Segments whose runs came straight off the compressed form
    /// (partial decompression; no row materialisation).
    pub segments_run_aware: usize,
}

/// Baseline: materialise the column and sort rows.
pub fn sort_column_naive(table: &Table, column: &str) -> Result<ColumnData> {
    let col = table.materialize(column)?;
    let mut numeric = col.to_numeric();
    numeric.sort_unstable();
    ColumnData::from_numeric(col.dtype(), &numeric).map_err(StoreError::Core)
}

/// Run-aware sort: collect `(value, total length)` pairs — straight off
/// the compressed form for RLE/RPE segments — sort the pairs, expand.
pub fn sort_column_compressed(table: &Table, column: &str) -> Result<(ColumnData, SortStats)> {
    let dtype = table.schema().dtype_of(column)?;
    let segments = table.column_segments(column)?;
    let mut stats = SortStats::default();
    let mut runs: Vec<(i128, u64)> = Vec::new();
    for seg in &segments {
        stats.rows += seg.num_rows();
        collect_runs(seg, &mut runs, &mut stats)?;
    }
    // Sort pairs, then coalesce equal values across runs and segments.
    runs.sort_unstable_by_key(|&(v, _)| v);
    stats.runs_sorted = runs.len();
    let mut numeric: Vec<i128> = Vec::with_capacity(stats.rows);
    for &(v, len) in &runs {
        numeric.extend(std::iter::repeat_n(v, len as usize));
    }
    let out = ColumnData::from_numeric(dtype, &numeric).map_err(StoreError::Core)?;
    Ok((out, stats))
}

/// Push one segment's `(value, length)` runs, using partial
/// decompression where the scheme exposes runs directly. Runs are walked
/// by [`for_each_run`], which clamps them to the segment's rows.
fn collect_runs(seg: &Segment, runs: &mut Vec<(i128, u64)>, stats: &mut SortStats) -> Result<()> {
    if let Some((values, ends)) = seg.run_structure()? {
        stats.segments_run_aware += 1;
        for_each_run(&values, &ends, seg.num_rows(), |value, rows| {
            runs.push((value, rows.len() as u64));
        });
        return Ok(());
    }
    // Generic path: decompress, run-encode the rows.
    let col = seg.decompress()?;
    let numeric = col.to_numeric();
    let mut i = 0;
    while i < numeric.len() {
        let mut j = i + 1;
        while j < numeric.len() && numeric[j] == numeric[i] {
            j += 1;
        }
        runs.push((numeric[i], (j - i) as u64));
        i = j;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::CompressionPolicy;
    use lcdc_core::DType;

    fn runs_table(policy: CompressionPolicy) -> Table {
        // Unsorted values with heavy runs, spanning several segments.
        let col = ColumnData::I64((0..4000i64).map(|i| ((i / 40) * 7919 % 101) - 50).collect());
        let schema = crate::schema::TableSchema::new(&[("v", lcdc_core::DType::I64)]);
        Table::build(schema, &[col], &[policy], 512).unwrap()
    }

    #[test]
    fn run_aware_matches_naive_on_rle() {
        let t = runs_table(CompressionPolicy::Fixed(
            "rle[values=ns_zz,lengths=ns]".into(),
        ));
        let naive = sort_column_naive(&t, "v").unwrap();
        let (fast, stats) = sort_column_compressed(&t, "v").unwrap();
        assert_eq!(fast, naive);
        assert_eq!(stats.segments_run_aware, t.num_segments());
        assert!(stats.runs_sorted < stats.rows / 10, "{stats:?}");
    }

    #[test]
    fn run_aware_matches_naive_on_rpe() {
        let t = runs_table(CompressionPolicy::Fixed("rpe".into()));
        let naive = sort_column_naive(&t, "v").unwrap();
        let (fast, stats) = sort_column_compressed(&t, "v").unwrap();
        assert_eq!(fast, naive);
        assert!(stats.segments_run_aware > 0);
    }

    #[test]
    fn generic_path_on_for_segments() {
        let t = runs_table(CompressionPolicy::Fixed("for(l=128)[offsets=ns_zz]".into()));
        let naive = sort_column_naive(&t, "v").unwrap();
        let (fast, stats) = sort_column_compressed(&t, "v").unwrap();
        assert_eq!(fast, naive);
        assert_eq!(stats.segments_run_aware, 0);
    }

    #[test]
    fn auto_policy_mixed_segments() {
        let t = runs_table(CompressionPolicy::Auto);
        let naive = sort_column_naive(&t, "v").unwrap();
        let (fast, _) = sort_column_compressed(&t, "v").unwrap();
        assert_eq!(fast, naive);
    }

    #[test]
    fn empty_table() {
        let schema = crate::schema::TableSchema::new(&[("v", DType::U32)]);
        let t = Table::build(
            schema,
            &[ColumnData::empty(DType::U32)],
            &[CompressionPolicy::None],
            64,
        )
        .unwrap();
        let (sorted, stats) = sort_column_compressed(&t, "v").unwrap();
        assert!(sorted.is_empty());
        assert_eq!(stats.rows, 0);
    }

    #[test]
    fn overrunning_run_lengths_stop_at_the_segment_rows() {
        use lcdc_core::{schemes::Rle, PartData, Scheme};
        let mut c = Rle
            .compress(&ColumnData::U64(vec![4, 4, 4, 1, 1, 1, 1, 1, 1, 1]))
            .unwrap();
        // The last run claims 2^40 rows of a 10-row segment.
        c.parts[1].data = PartData::Plain(ColumnData::U64(vec![3, 1 << 40]));
        let seg = Segment::new(c, "rle".into(), 1, 4).unwrap();
        let t = Table::from_segments(
            crate::schema::TableSchema::new(&[("v", DType::U64)]),
            vec![vec![seg]],
            10,
        )
        .unwrap();
        let (sorted, stats) = sort_column_compressed(&t, "v").unwrap();
        assert_eq!(sorted.len(), t.num_rows());
        assert_eq!(sorted, ColumnData::U64(vec![1, 1, 1, 1, 1, 1, 1, 4, 4, 4]));
        assert_eq!(stats.segments_run_aware, 1);
    }

    #[test]
    fn missing_column_errors() {
        let t = runs_table(CompressionPolicy::None);
        assert!(sort_column_compressed(&t, "nope").is_err());
        assert!(sort_column_naive(&t, "nope").is_err());
    }
}
