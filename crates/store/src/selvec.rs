//! Selection vectors and late materialisation.
//!
//! The operational payoff of positional access on compressed forms
//! (`lcdc_core::access`): a filter on one column yields a *selection
//! vector* of row positions; fetching the payload column's selected
//! values can then either
//!
//! * **early-materialise** — decompress every payload segment fully and
//!   index into the plain rows ([`gather_early`]), or
//! * **late-materialise** — answer each selected position straight off
//!   the compressed form where the scheme has a sub-linear access path,
//!   decompressing only the segments that lack one ([`gather_late`]).
//!
//! At low selectivity late materialisation touches O(|selection|)
//! values instead of O(n) rows — and *which* schemes allow it is the
//! paper's ratio-vs-ease trade-off (RPE yes, RLE no) made visible in a
//! query plan.

use crate::predicate::{Predicate, PushdownStats};
use crate::table::Table;
use crate::{Result, StoreError};
use lcdc_core::{access, ColumnData};

/// Sorted global row positions selected by a predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelVec {
    /// Selected row positions, ascending.
    pub positions: Vec<u64>,
    /// Total rows in the table the selection was taken from.
    pub total_rows: usize,
}

impl SelVec {
    /// Number of selected rows.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether no rows are selected.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Fraction of rows selected.
    pub fn selectivity(&self) -> f64 {
        if self.total_rows == 0 {
            0.0
        } else {
            self.len() as f64 / self.total_rows as f64
        }
    }
}

/// Execution counters for [`gather_late`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatherStats {
    /// Values answered by compressed-form positional access.
    pub via_access: usize,
    /// Values answered by indexing a decompressed segment.
    pub via_decompress: usize,
    /// Segments that had to be fully decompressed.
    pub segments_decompressed: usize,
}

/// Evaluate `predicate` over `column` (with every pushdown tier) and
/// collect the selected positions. Zone maps are consulted on segment
/// *metadata*, so a lazily-backed table only fetches the frames its
/// zone maps cannot decide.
pub fn select(
    table: &Table,
    column: &str,
    predicate: &Predicate,
) -> Result<(SelVec, PushdownStats)> {
    let source = table.source(column)?;
    let mut stats = PushdownStats::default();
    let mut positions = Vec::new();
    let mut base = 0u64;
    for idx in 0..source.num_segments() {
        let meta = source.meta(idx);
        let n = meta.rows as u64;
        match predicate.zone_tier(meta.rows, meta.min, meta.max, &mut stats) {
            Some(true) => positions.extend(base..base + n),
            Some(false) => {}
            None => {
                let seg = source.segment(idx)?;
                let mask = predicate.eval_segment(&seg, Some(&mut stats))?;
                positions.extend(mask.iter_ones().map(|i| base + i as u64));
            }
        }
        base += n;
    }
    Ok((
        SelVec {
            positions,
            total_rows: table.num_rows(),
        },
        stats,
    ))
}

/// Early materialisation: decompress every payload segment, index rows.
pub fn gather_early(table: &Table, column: &str, sel: &SelVec) -> Result<ColumnData> {
    check_shape(table, sel)?;
    let segments = table.column_segments(column)?;
    let ends = meta_ends(table.source(column)?);
    let mut numeric = Vec::with_capacity(sel.len());
    let mut cache: Vec<Option<ColumnData>> = vec![None; segments.len()];
    // Decompress everything up front — the early-materialisation
    // contract — then index.
    for (i, seg) in segments.iter().enumerate() {
        cache[i] = Some(seg.decompress()?);
    }
    for &pos in &sel.positions {
        let (seg_idx, off) = locate(pos, &ends);
        let col = cache[seg_idx].as_ref().expect("all segments decompressed");
        numeric
            .push(col.get_numeric(off).ok_or_else(|| {
                StoreError::Shape(format!("position {pos} out of segment range"))
            })?);
    }
    let dtype = table.schema().dtype_of(column)?;
    ColumnData::from_numeric(dtype, &numeric).map_err(StoreError::Core)
}

/// Late materialisation: per selected position, answer from the
/// compressed form where an access path exists; decompress a segment
/// (once, cached) only when it does not. Only the segments actually
/// holding selected positions are fetched — on a lazily-backed table,
/// untouched segments cost no I/O.
pub fn gather_late(table: &Table, column: &str, sel: &SelVec) -> Result<(ColumnData, GatherStats)> {
    check_shape(table, sel)?;
    let source = table.source(column)?;
    let ends = meta_ends(source);
    let mut stats = GatherStats::default();
    let mut numeric = Vec::with_capacity(sel.len());
    let mut fetched: Vec<Option<std::sync::Arc<crate::segment::Segment>>> =
        vec![None; source.num_segments()];
    let mut cache: Vec<Option<ColumnData>> = vec![None; source.num_segments()];
    for &pos in &sel.positions {
        let (seg_idx, off) = locate(pos, &ends);
        if seg_idx >= fetched.len() {
            return Err(StoreError::Shape(format!("position {pos} past table end")));
        }
        if fetched[seg_idx].is_none() {
            fetched[seg_idx] = Some(source.segment(seg_idx)?);
        }
        let seg = fetched[seg_idx].as_ref().expect("just fetched");
        if let Some(plain) = &cache[seg_idx] {
            stats.via_decompress += 1;
            numeric.push(plain.get_numeric(off).ok_or_else(|| {
                StoreError::Shape(format!("position {pos} out of segment range"))
            })?);
            continue;
        }
        match access::value_at(&seg.compressed, off).map_err(StoreError::Core)? {
            Some(v) => {
                stats.via_access += 1;
                numeric.push(transport_to_numeric(v, seg.compressed.dtype));
            }
            None => {
                stats.segments_decompressed += 1;
                let plain = seg.decompress()?;
                stats.via_decompress += 1;
                numeric.push(plain.get_numeric(off).ok_or_else(|| {
                    StoreError::Shape(format!("position {pos} out of segment range"))
                })?);
                cache[seg_idx] = Some(plain);
            }
        }
    }
    let dtype = table.schema().dtype_of(column)?;
    let out = ColumnData::from_numeric(dtype, &numeric).map_err(StoreError::Core)?;
    Ok((out, stats))
}

/// Exclusive cumulative row ends, one per segment — positions map to
/// segments through these rather than a uniform `seg_rows` division,
/// so non-uniform segmentations (a short last segment before appended
/// ones) stay correct. Computed from metadata: no payload access.
fn meta_ends(source: &crate::source::Column) -> Vec<u64> {
    let mut ends = Vec::with_capacity(source.num_segments());
    let mut total = 0u64;
    for idx in 0..source.num_segments() {
        total += source.meta(idx).rows as u64;
        ends.push(total);
    }
    ends
}

fn locate(pos: u64, ends: &[u64]) -> (usize, usize) {
    let seg_idx = ends.partition_point(|&end| end <= pos);
    let start = if seg_idx == 0 { 0 } else { ends[seg_idx - 1] };
    (seg_idx, (pos - start) as usize)
}

fn check_shape(table: &Table, sel: &SelVec) -> Result<()> {
    if sel.total_rows != table.num_rows() {
        return Err(StoreError::Shape(format!(
            "selection over {} rows applied to a table of {}",
            sel.total_rows,
            table.num_rows()
        )));
    }
    if let Some(&last) = sel.positions.last() {
        if last >= table.num_rows() as u64 {
            return Err(StoreError::Shape(format!(
                "selected position {last} past table end"
            )));
        }
    }
    Ok(())
}

fn transport_to_numeric(v: u64, dtype: lcdc_core::DType) -> i128 {
    use lcdc_core::DType;
    match dtype {
        DType::U32 => (v as u32) as i128,
        DType::U64 => v as i128,
        DType::I32 => (v as i32) as i128,
        DType::I64 => (v as i64) as i128,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::CompressionPolicy;

    fn table(payload_policy: &str) -> Table {
        let filter = ColumnData::U64((0..6000u64).map(|i| i / 60).collect());
        let payload = ColumnData::I64((0..6000i64).map(|i| (i * 13) % 997 - 400).collect());
        let schema = crate::schema::TableSchema::new(&[
            ("f", lcdc_core::DType::U64),
            ("p", lcdc_core::DType::I64),
        ]);
        Table::build(
            schema,
            &[filter, payload],
            &[
                CompressionPolicy::Fixed("rle[values=delta[deltas=ns_zz],lengths=ns]".into()),
                CompressionPolicy::Fixed(payload_policy.into()),
            ],
            512,
        )
        .unwrap()
    }

    fn reference(table: &Table, sel: &SelVec) -> ColumnData {
        let plain = table.materialize("p").unwrap();
        let numeric: Vec<i128> = sel
            .positions
            .iter()
            .map(|&p| plain.get_numeric(p as usize).unwrap())
            .collect();
        ColumnData::from_numeric(plain.dtype(), &numeric).unwrap()
    }

    #[test]
    fn select_positions_match_plain_filter() {
        let t = table("for(l=128)[offsets=ns_zz]");
        let (sel, _) = select(&t, "f", &Predicate::Range { lo: 10, hi: 19 }).unwrap();
        assert_eq!(sel.len(), 600);
        assert_eq!(sel.positions.first(), Some(&600));
        assert_eq!(sel.positions.last(), Some(&1199));
        assert!((sel.selectivity() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn late_equals_early_on_access_scheme() {
        // Bare FOR: plain offsets, so the O(1) access path applies.
        let t = table("for(l=128)");
        let (sel, _) = select(&t, "f", &Predicate::Range { lo: 30, hi: 34 }).unwrap();
        let early = gather_early(&t, "p", &sel).unwrap();
        let (late, stats) = gather_late(&t, "p", &sel).unwrap();
        assert_eq!(late, early);
        assert_eq!(late, reference(&t, &sel));
        // FOR has an access path: nothing decompressed.
        assert_eq!(stats.via_access, sel.len());
        assert_eq!(stats.segments_decompressed, 0);
    }

    #[test]
    fn late_falls_back_on_rle_payload() {
        let t = table("rle[values=ns_zz,lengths=ns]");
        let (sel, _) = select(&t, "f", &Predicate::Range { lo: 30, hi: 34 }).unwrap();
        let (late, stats) = gather_late(&t, "p", &sel).unwrap();
        assert_eq!(late, reference(&t, &sel));
        // RLE has no sub-linear path: the touched segment decompresses.
        assert!(stats.segments_decompressed > 0);
        assert_eq!(stats.via_access, 0);
    }

    #[test]
    fn empty_selection() {
        let t = table("ns_zz");
        let (sel, _) = select(&t, "f", &Predicate::Range { lo: -5, hi: -1 }).unwrap();
        assert!(sel.is_empty());
        let (late, stats) = gather_late(&t, "p", &sel).unwrap();
        assert!(late.is_empty());
        assert_eq!(stats, GatherStats::default());
    }

    #[test]
    fn shape_mismatch_rejected() {
        let t = table("ns_zz");
        let bad = SelVec {
            positions: vec![0],
            total_rows: 999,
        };
        assert!(gather_late(&t, "p", &bad).is_err());
        let bad = SelVec {
            positions: vec![99999],
            total_rows: t.num_rows(),
        };
        assert!(gather_late(&t, "p", &bad).is_err());
        assert!(gather_early(&t, "p", &bad).is_err());
    }

    #[test]
    fn conjunction_matches_sequential_intersection() {
        // Intersecting two selections equals the planner's conjunction.
        let t = table("for(l=128)");
        let (f, p) = (
            Predicate::Range { lo: 10, hi: 30 },
            Predicate::Range {
                lo: 0,
                hi: i64::MAX as i128,
            },
        );
        let (a, _) = select(&t, "f", &f).unwrap();
        let (b, _) = select(&t, "p", &p).unwrap();
        let b_set: std::collections::HashSet<u64> = b.positions.iter().copied().collect();
        let both = a.positions.iter().filter(|p| b_set.contains(p)).count();
        assert!(both > 0);
        let planned = crate::QueryBuilder::scan(&t)
            .filter("f", f)
            .filter("p", p)
            .aggregate(&[crate::Agg::Count])
            .execute()
            .unwrap();
        assert_eq!(planned.aggregates().unwrap(), &[Some(both as i128)]);
    }

    #[test]
    fn lazy_select_and_gather_only_fetch_needed_frames() {
        let t = table("for(l=128)");
        let dir = std::env::temp_dir().join(format!("lcdc_selvec_lazy_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        crate::file::save_table(&t, &dir).unwrap();
        let lazy = crate::file::open_table_lazy(&dir, 8).unwrap();
        // Disjoint predicate: every segment zone-pruned, zero I/O.
        let (none, _) = select(&lazy, "f", &Predicate::Range { lo: -10, hi: -1 }).unwrap();
        assert!(none.is_empty());
        assert_eq!(lazy.io_reads(), 0, "pruned select must not read frames");
        // Narrow selection: only the touched frames are read.
        let (sel, _) = select(&lazy, "f", &Predicate::Range { lo: 10, hi: 19 }).unwrap();
        let (late, _) = gather_late(&lazy, "p", &sel).unwrap();
        assert_eq!(late, reference(&lazy, &sel));
        let total_frames = lazy.num_segments() * lazy.schema().width();
        assert!(
            lazy.io_reads() < total_frames,
            "{} of {total_frames} frames read",
            lazy.io_reads()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gather_respects_non_uniform_segmentation() {
        // Segments of [30, 10] rows with seg_rows=20: a uniform
        // pos/seg_rows division would mislocate every position >= 20.
        let seg = |vals: std::ops::Range<u64>| {
            crate::segment::Segment::build(
                &ColumnData::U64(vals.collect()),
                &CompressionPolicy::None,
            )
            .unwrap()
        };
        let t = Table::from_segments(
            crate::schema::TableSchema::new(&[("a", lcdc_core::DType::U64)]),
            vec![vec![seg(0..30), seg(30..40)]],
            20,
        )
        .unwrap();
        let sel = SelVec {
            positions: vec![0, 19, 25, 29, 30, 39],
            total_rows: 40,
        };
        let early = gather_early(&t, "a", &sel).unwrap();
        let (late, _) = gather_late(&t, "a", &sel).unwrap();
        let want = ColumnData::U64(vec![0, 19, 25, 29, 30, 39]);
        assert_eq!(early, want);
        assert_eq!(late, want);
    }

    #[test]
    fn full_selection_equals_materialize() {
        let t = table("dfor(l=128)[deltas=ns_zz]");
        let (sel, _) = select(&t, "f", &Predicate::All).unwrap();
        assert_eq!(sel.len(), t.num_rows());
        let (late, _) = gather_late(&t, "p", &sel).unwrap();
        assert_eq!(late, t.materialize("p").unwrap());
    }
}
