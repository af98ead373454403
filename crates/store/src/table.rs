//! Tables: a schema plus, per column, one flat list of segments.
//!
//! A `Table` does not own its data — it owns *handles*. Each column is
//! one [`Column`]: a list of runs, each an optional base followed by
//! resident segments. [`Table::build`] and [`Table::from_segments`]
//! make one resident run; [`crate::file::open_table_lazy`] gives each
//! column its file as the base, loaded lazily from disk;
//! [`Table::append`] keeps each column's base and extends its last run.
//! Appends never add a run: only `Table::concat` does, so a sharded
//! catalog entry is one table whose run `i` is shard `i`, and an ingest
//! attaches to the runs it routes to ([`Table::attach`]). The planner
//! sees the same [`Column`] either way and only pays I/O for segments
//! its pushdown tiers actually touch.

use crate::par;
use crate::schema::TableSchema;
use crate::segment::{share_dictionary, CompressionPolicy, Segment};
use crate::source::{Column, SegmentMeta};
use crate::{Result, StoreError};
use lcdc_core::ColumnData;
use std::borrow::Borrow;
use std::ops::Range;
use std::sync::Arc;

/// Default rows per segment (matches common vector/block sizes).
pub const DEFAULT_SEG_ROWS: usize = 16_384;

/// A columnar table: a schema plus, per column, a flat list of
/// compressed segments whose heights align across columns.
#[derive(Debug, Clone)]
pub struct Table {
    schema: TableSchema,
    /// `columns[col]`, aligned with `schema.columns`.
    columns: Vec<Arc<Column>>,
    num_rows: usize,
    seg_rows: usize,
}

impl Table {
    /// Build a table from whole columns, compressing each column's
    /// segments under its own policy. All columns must have equal length;
    /// `policies` must align with `schema.columns`. Segment-tall row
    /// ranges are encoded in parallel on the host's cores, and the
    /// table is bit for bit the one a serial build stores.
    pub fn build(
        schema: TableSchema,
        columns: &[ColumnData],
        policies: &[CompressionPolicy],
        seg_rows: usize,
    ) -> Result<Table> {
        check_batch(&schema, columns, Some(policies))?;
        let segments = encode_columns(columns, policies, seg_rows, par::host_width())?;
        Table::from_segments(schema, segments, seg_rows)
    }

    /// Assemble a table from already-compressed segments, owned or
    /// shared (`Arc` handles are kept, not copied — the eager load path
    /// and sharding). Every column must split its rows into segments
    /// exactly as column 0 does, and every segment must carry its
    /// column's dtype; `seg_rows` is the height [`Table::append`] cuts
    /// batches to.
    pub fn from_segments(
        schema: TableSchema,
        segments: Vec<Vec<impl Into<Arc<Segment>>>>,
        seg_rows: usize,
    ) -> Result<Table> {
        let columns: Vec<Column> = segments
            .into_iter()
            .map(|col| Column::new(None, col.into_iter().map(Into::into).collect()))
            .collect();
        let num_rows = columns.first().map_or(0, |col| {
            (0..col.num_segments()).map(|j| col.meta(j).rows).sum()
        });
        Table::assemble(schema, columns, num_rows, seg_rows)
    }

    /// The one shape check every assembled table passes: one column per
    /// schema column, each holding `num_rows` rows in segments exactly
    /// as tall as column 0's — the planner reads per-segment row counts
    /// off column 0 and applies one selection across columns — and every
    /// resident segment of its column's dtype.
    pub(crate) fn assemble(
        schema: TableSchema,
        columns: Vec<Column>,
        num_rows: usize,
        seg_rows: usize,
    ) -> Result<Table> {
        if columns.len() != schema.width() {
            return Err(StoreError::Shape(format!(
                "{} columns, {} schema columns",
                columns.len(),
                schema.width()
            )));
        }
        if let Some(first) = columns.first() {
            let first_name = &schema.columns[0].name;
            for (column, decl) in columns.iter().zip(&schema.columns) {
                let name = &decl.name;
                if column.num_segments() != first.num_segments() {
                    return Err(StoreError::Shape(format!(
                        "column {name} has {} segments, expected {}",
                        column.num_segments(),
                        first.num_segments()
                    )));
                }
                let mut total = 0usize;
                for j in 0..column.num_segments() {
                    let (rows, expected) = (column.meta(j).rows, first.meta(j).rows);
                    if rows != expected {
                        return Err(StoreError::Shape(format!(
                            "column {name} segment {j} holds {rows} rows, \
                             column {first_name} holds {expected}"
                        )));
                    }
                    total += rows;
                }
                if total != num_rows {
                    return Err(StoreError::Shape(format!(
                        "column {name} holds {total} rows, expected {num_rows}"
                    )));
                }
                for (j, seg) in column.resident_segments().enumerate() {
                    if seg.compressed.dtype != decl.dtype {
                        return Err(StoreError::Shape(format!(
                            "column {name} segment {j} is {:?}, schema says {:?}",
                            seg.compressed.dtype, decl.dtype
                        )));
                    }
                }
            }
        }
        Ok(Table {
            schema,
            columns: columns.into_iter().map(Arc::new).collect(),
            num_rows,
            seg_rows: seg_rows.max(1),
        })
    }

    /// One table over `shards`' rows in shard order: each column lists
    /// every shard's runs by handle ([`Column::concat`]). The shards must
    /// share a schema; appends into any run cut batches to shard 0's
    /// segment height.
    pub(crate) fn concat<T: Borrow<Table>>(shards: &[T]) -> Result<Table> {
        let first = (shards.first().map(T::borrow))
            .ok_or_else(|| StoreError::Shape("a sharded table needs at least one shard".into()))?;
        if let Some(i) = (shards.iter()).position(|s| s.borrow().schema != first.schema) {
            let message = format!("shard {i} schema differs from shard 0");
            return Err(StoreError::Shape(message));
        }
        let columns_at = |c: usize| shards.iter().filter_map(move |s| s.borrow().columns.get(c));
        Ok(Table {
            schema: first.schema.clone(),
            columns: (0..first.schema.width())
                .filter_map(|c| Column::concat(columns_at(c).map(Arc::as_ref)).map(Arc::new))
                .collect(),
            num_rows: shards.iter().map(|s| s.borrow().num_rows).sum(),
            seg_rows: first.seg_rows,
        })
    }

    /// Append a batch of rows, returning a new table that shares every
    /// existing segment handle and adds freshly compressed segments at
    /// the end. Columns must align with the schema exactly as in
    /// [`Table::build`]. The batch is chunked by this table's segment
    /// height and each chunk goes through the per-column scheme chooser
    /// ([`CompressionPolicy::Auto`]), so appended segments carry zone
    /// maps and scheme tags exactly like built ones. As in a build, the
    /// chunks are encoded in parallel; a batch one segment tall is
    /// encoded on the calling thread.
    ///
    /// An append is its two halves in a row: [`Table::encode_batch`],
    /// which does all the compression and reads nothing of the table
    /// but its shape, then [`Table::attach`]. A caller that must not
    /// hold a lock while compressing — [`crate::Catalog::ingest`] — calls
    /// them apart.
    ///
    /// Tables are immutable values: the append is visible only through
    /// the returned table, which is what lets [`crate::Catalog::ingest`]
    /// publish it atomically under a version bump while in-flight
    /// queries keep reading the old snapshot. Each column keeps its base
    /// (a lazily-backed column stays lazy) and lists the old resident
    /// handles plus the new segments in its last run, so however many
    /// appends a table has seen, its columns stay one level deep: an
    /// append costs one handle copy per resident segment of that run,
    /// a lookup stays O(1).
    ///
    /// ```
    /// use lcdc_core::{ColumnData, DType};
    /// use lcdc_store::{CompressionPolicy, Table, TableSchema};
    ///
    /// let schema = TableSchema::new(&[("day", DType::U64)]);
    /// let table = Table::build(
    ///     schema,
    ///     &[ColumnData::U64((0..100).collect())],
    ///     &[CompressionPolicy::Auto],
    ///     64,
    /// )
    /// .unwrap();
    /// let grown = table.append(&[ColumnData::U64((100..150).collect())]).unwrap();
    /// assert_eq!(grown.num_rows(), 150);
    /// assert_eq!(table.num_rows(), 100, "the original is untouched");
    /// ```
    pub fn append(&self, columns: &[ColumnData]) -> Result<Table> {
        self.attach(vec![self.encode_batch(columns)?])
    }

    /// The encode half of [`Table::append`]: check `columns` against the
    /// schema, cut them to this table's segment height and compress
    /// each chunk, deriving every new segment's metadata, for the last
    /// run. It reads only the table's shape (schema, segment height and
    /// run count), so the batch attaches to any table of that shape
    /// ([`EncodedBatch::fits`]) — this one, or one that has grown since.
    pub fn encode_batch(&self, columns: &[ColumnData]) -> Result<EncodedBatch> {
        self.encode_run(self.num_runs().saturating_sub(1), columns)
    }

    /// [`Table::encode_batch`] for run `run` (shard `run` of a catalog
    /// entry) instead of the last.
    pub(crate) fn encode_run(&self, run: usize, columns: &[ColumnData]) -> Result<EncodedBatch> {
        let rows = check_batch(&self.schema, columns, None)?;
        let auto = vec![CompressionPolicy::Auto; columns.len()];
        let columns = encode_columns(columns, &auto, self.seg_rows, par::host_width())?
            .into_iter()
            .map(|segments| EncodedColumn {
                metas: segments
                    .iter()
                    .map(|s| Arc::new(SegmentMeta::of(s)))
                    .collect(),
                segments: segments.into_iter().map(Arc::new).collect(),
            })
            .collect();
        Ok(EncodedBatch {
            schema: self.schema.clone(),
            seg_rows: self.seg_rows,
            runs: self.num_runs(),
            run,
            rows,
            columns,
        })
    }

    /// The publish half of [`Table::append`]: this table with each
    /// part's segments after the resident ones of the run it was
    /// encoded for. Only those runs are rebuilt — at the cost of one
    /// handle copy per resident segment of each and a rebuild of its
    /// tail's zone tree — and every other run is shared by handle.
    /// Nothing is compressed. An error, with this table untouched, when
    /// a part was encoded for another shape.
    pub fn attach(&self, parts: Vec<EncodedBatch>) -> Result<Table> {
        if !parts.iter().all(|part| part.fits(self)) {
            return Err(StoreError::Shape(
                "batch encoded for another schema, segment height or run count".into(),
            ));
        }
        let mut grown = self.clone();
        for part in parts.into_iter().filter(|part| part.rows > 0) {
            for (column, tail) in grown.columns.iter_mut().zip(part.columns) {
                *column = Arc::new(column.extend(part.run, tail.segments, tail.metas));
            }
            grown.num_rows += part.rows;
        }
        Ok(grown)
    }

    /// How many runs the columns list: one for a built, opened or
    /// appended table, one per shard for a catalog entry's table.
    pub(crate) fn num_runs(&self) -> usize {
        self.run_starts().len().saturating_sub(1)
    }

    /// Each run as a table of its own, in order, sharing the run's
    /// handles: its base and cache, resident segments and zone trees.
    /// Every view keeps this table's segment height.
    pub(crate) fn runs(&self) -> Vec<Table> {
        let starts = self.run_starts();
        (starts.iter().zip(starts.iter().skip(1)).enumerate())
            .map(|(run, (&start, &end))| Table {
                schema: self.schema.clone(),
                columns: (self.columns.iter())
                    .filter_map(|column| column.run(run).map(Arc::new))
                    .collect(),
                num_rows: (start..end).map(|seg| self.meta_at(0, seg).rows).sum(),
                seg_rows: self.seg_rows,
            })
            .collect()
    }

    /// The schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Total rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Rows per segment (last segment may be shorter).
    pub fn seg_rows(&self) -> usize {
        self.seg_rows
    }

    /// Number of segments per column.
    pub fn num_segments(&self) -> usize {
        self.columns.first().map_or(0, |c| c.num_segments())
    }

    /// A column by schema index (planner-internal: the physical plan
    /// resolves names once, at compile time).
    pub(crate) fn source_at(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// A named column: its segments' metadata and payloads.
    pub fn source(&self, name: &str) -> Result<&Column> {
        Ok(self.source_at(self.resolve(name)?))
    }

    /// Planner metadata of one segment of a column by schema index.
    pub(crate) fn meta_at(&self, idx: usize, seg_idx: usize) -> &SegmentMeta {
        self.columns[idx].meta(seg_idx)
    }

    /// Segment `seg_idx`'s zone lookup: each column's `(min, max)` on
    /// it, by schema index.
    pub(crate) fn segment_zone(&self, seg_idx: usize) -> impl Fn(usize) -> (i128, i128) + '_ {
        move |col| {
            let meta = self.meta_at(col, seg_idx);
            (meta.min, meta.max)
        }
    }

    /// Walk every run's zone trees top-down, in segment order: `visit`
    /// sees the run's index, a range of segments — one segment, or a
    /// tree node over several — how many of them are non-empty, and
    /// their zone lookup (each column's hull over them, by schema
    /// index), and says whether to descend into the range's halves. A
    /// single segment has none.
    pub(crate) fn descend_zones(
        &self,
        mut visit: impl FnMut(usize, Range<usize>, usize, &dyn Fn(usize) -> (i128, i128)) -> bool,
    ) {
        let Some(first) = self.columns.first() else {
            return;
        };
        let mut start = 0;
        for part in 0..first.zone_parts() {
            let shape = first.zone_tree(part);
            shape.descend(|node| {
                let zone = |col: usize| self.columns[col].zone_tree(part).hull(node.index);
                visit(part / 2, start + node.lo..start + node.hi, node.live, &zone)
            });
            start += shape.len();
        }
    }

    /// The first segment index of every run, then the segment count:
    /// one run for a built or opened table, one or more per shard for a
    /// sharded catalog entry. Columns share their run boundaries.
    pub(crate) fn run_starts(&self) -> &[usize] {
        self.columns.first().map_or(&[], |c| c.run_starts())
    }

    /// Fetch every segment of a named column (loads lazily-backed
    /// columns in full — whole-column operators only).
    pub fn column_segments(&self, name: &str) -> Result<Vec<Arc<Segment>>> {
        let source = self.source(name)?;
        (0..source.num_segments())
            .map(|i| source.segment(i))
            .collect()
    }

    /// Payload fetches that hit the backing store so far, summed over
    /// all columns — 0 for fully resident tables.
    pub fn io_reads(&self) -> usize {
        self.columns.iter().map(|c| c.io_reads()).sum()
    }

    /// Arm a [`crate::FaultPlan`] on every column's base, so
    /// lazily-backed reads run through its `io_read`/`io_stall` rules
    /// (chaos testing; a no-op for fully resident tables).
    pub fn inject_faults(&self, plan: &Arc<crate::FaultPlan>) {
        for column in &self.columns {
            column.inject_faults(plan);
        }
    }

    /// Fully decompress a named column.
    pub fn materialize(&self, name: &str) -> Result<ColumnData> {
        let idx = self.resolve(name)?;
        let source = self.source_at(idx);
        let dtype = self.schema.columns[idx].dtype;
        let mut transport = Vec::with_capacity(self.num_rows);
        for seg_idx in 0..source.num_segments() {
            transport.extend(source.segment(seg_idx)?.decompress()?.to_transport());
        }
        Ok(ColumnData::from_transport(dtype, transport))
    }

    /// Total compressed bytes of a column (from segment metadata and
    /// its shared dictionaries, each once; no payload access).
    pub fn column_compressed_bytes(&self, name: &str) -> Result<usize> {
        Ok(compressed_bytes(self.source(name)?))
    }

    /// Total compressed bytes of the table (as
    /// [`Table::column_compressed_bytes`], summed).
    pub fn compressed_bytes(&self) -> usize {
        self.columns.iter().map(|c| compressed_bytes(c)).sum()
    }

    /// Total plain bytes of the table.
    pub fn uncompressed_bytes(&self) -> usize {
        self.schema
            .columns
            .iter()
            .map(|c| self.num_rows * c.dtype.bytes())
            .sum()
    }

    fn resolve(&self, name: &str) -> Result<usize> {
        self.schema
            .index_of(name)
            .ok_or_else(|| StoreError::NoSuchColumn(name.to_string()))
    }
}

/// A row batch compressed for one run of one table shape — a schema, a
/// segment height and a run count — and attached to no table yet
/// ([`Table::encode_batch`]): per column, the batch's new segments and
/// their metadata.
#[derive(Debug, Clone)]
pub struct EncodedBatch {
    schema: TableSchema,
    seg_rows: usize,
    runs: usize,
    /// The run the segments extend.
    run: usize,
    rows: usize,
    /// One per schema column.
    columns: Vec<EncodedColumn>,
}

/// One column's share of an [`EncodedBatch`].
#[derive(Debug, Clone)]
struct EncodedColumn {
    segments: Vec<Arc<Segment>>,
    metas: Vec<Arc<SegmentMeta>>,
}

impl EncodedBatch {
    /// Whether the batch was encoded for `table`'s shape — its schema,
    /// segment height and run count — so [`Table::attach`] accepts it.
    pub fn fits(&self, table: &Table) -> bool {
        self.seg_rows == table.seg_rows
            && self.runs == table.num_runs()
            && self.schema == table.schema
    }
}

/// Check a row batch against `schema`: one column per schema column
/// (and, when given, one policy each), all of equal length, each of its
/// column's dtype. Returns the batch's row count. Every write path
/// checks here *before* its empty-batch return, so a ragged batch whose
/// first column happens to be empty is an error, never a silent no-op
/// that drops the other columns' rows.
pub(crate) fn check_batch(
    schema: &TableSchema,
    columns: &[ColumnData],
    policies: Option<&[CompressionPolicy]>,
) -> Result<usize> {
    let width = schema.width();
    if columns.len() != width || policies.is_some_and(|p| p.len() != width) {
        let policies = policies.map_or(String::new(), |p| format!(", {} policies", p.len()));
        return Err(StoreError::Shape(format!(
            "batch has {} columns{policies}; schema has {width}",
            columns.len()
        )));
    }
    let rows = columns.first().map_or(0, ColumnData::len);
    for (col, decl) in columns.iter().zip(&schema.columns) {
        if col.len() != rows {
            return Err(StoreError::Shape(format!(
                "column {} has {} rows, expected {rows}",
                decl.name,
                col.len()
            )));
        }
        if col.dtype() != decl.dtype {
            return Err(StoreError::Shape(format!(
                "column {} is {:?}, schema says {:?}",
                decl.name,
                col.dtype(),
                decl.dtype
            )));
        }
    }
    Ok(rows)
}

/// A column's segments' bytes plus its shared dictionaries', once.
fn compressed_bytes(column: &Column) -> usize {
    let segments: usize = (0..column.num_segments())
        .map(|i| column.meta(i).bytes)
        .sum();
    segments + column.dictionary_bytes()
}

/// Compress `columns` — [`check_batch`]ed, one policy each — into
/// `seg_rows`-tall segments (the last may be shorter), one list per
/// column: the one segmentation every write path (build, in-memory
/// append, on-disk append) shares. The batch is cut into segment-tall
/// row ranges, which up to `width` threads claim one at a time, each
/// encoding every column of its range ([`par::ordered_map`]; a
/// one-segment batch stays on the calling thread). Under
/// [`CompressionPolicy::Auto`] each column's DICT picks then share one
/// dictionary where that is smaller ([`share_dictionary`]), repacked
/// at the same width.
///
/// The segments are the serial loop's at every width, and so is an
/// error: the first failure in column-then-segment order.
pub(crate) fn encode_columns(
    columns: &[ColumnData],
    policies: &[CompressionPolicy],
    seg_rows: usize,
    width: usize,
) -> Result<Vec<Vec<Segment>>> {
    let ranges = row_ranges(columns.first().map_or(0, ColumnData::len), seg_rows);
    // Per range: each column's segment up to the first that fails, and
    // that failure.
    let encoded = par::ordered_map(&ranges, width, |rows| {
        let mut segments = Vec::with_capacity(columns.len());
        for (col, policy) in columns.iter().zip(policies) {
            let segment = Segment::build(&slice_column(col, rows.clone()), policy)
                .and_then(|segment| segment.check_rows(rows.len()).map(|()| segment));
            match segment {
                Ok(segment) => segments.push(segment),
                Err(e) => return (segments, Some(e)),
            }
        }
        (segments, None)
    });
    let mut out: Vec<Vec<Segment>> = (columns.iter())
        .map(|_| Vec::with_capacity(ranges.len()))
        .collect();
    // The lowest failing column, and in it the first range.
    let mut failure: Option<(usize, StoreError)> = None;
    for (segments, error) in encoded {
        let col = segments.len();
        if let Some(error) = error.filter(|_| failure.as_ref().is_none_or(|f| col < f.0)) {
            failure = Some((col, error));
        }
        for (column, segment) in out.iter_mut().zip(segments) {
            column.push(segment);
        }
    }
    // Columns before the first failure share as the serial loop would
    // have, before it reached that failure.
    let failed_at = failure.as_ref().map_or(columns.len(), |&(col, _)| col);
    for (segments, policy) in out.iter_mut().zip(policies).take(failed_at) {
        if *policy == CompressionPolicy::Auto {
            share_dictionary(segments, width)?;
        }
    }
    match failure {
        Some((_, error)) => Err(error),
        None => Ok(out),
    }
}

/// `rows` rows cut into `seg_rows`-tall ranges, the last possibly
/// shorter.
fn row_ranges(rows: usize, seg_rows: usize) -> Vec<Range<usize>> {
    let seg_rows = seg_rows.max(1);
    (0..rows)
        .step_by(seg_rows)
        .map(|start| start..(start + seg_rows).min(rows))
        .collect()
}

/// Copy `col[rows]` out as an owned column (one segment's rows for
/// [`encode_columns`]).
fn slice_column(col: &ColumnData, rows: Range<usize>) -> ColumnData {
    match col {
        ColumnData::U32(v) => ColumnData::U32(v[rows].to_vec()),
        ColumnData::U64(v) => ColumnData::U64(v[rows].to_vec()),
        ColumnData::I32(v) => ColumnData::I32(v[rows].to_vec()),
        ColumnData::I64(v) => ColumnData::I64(v[rows].to_vec()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcdc_core::DType;

    fn small_table() -> Table {
        let schema = TableSchema::new(&[("date", DType::U64), ("qty", DType::U64)]);
        let date = ColumnData::U64((0..1000u64).map(|i| 20180101 + i / 100).collect());
        let qty = ColumnData::U64((0..1000u64).map(|i| 1 + i % 50).collect());
        Table::build(
            schema,
            &[date, qty],
            &[CompressionPolicy::Auto, CompressionPolicy::Auto],
            256,
        )
        .unwrap()
    }

    #[test]
    fn build_and_materialize() {
        let t = small_table();
        assert_eq!(t.num_rows(), 1000);
        assert_eq!(t.num_segments(), 4);
        let date = t.materialize("date").unwrap();
        assert_eq!(date.len(), 1000);
        assert_eq!(date.get_numeric(999), Some(20180110));
        assert_eq!(t.io_reads(), 0, "resident tables never touch a store");
    }

    /// Every write path's one shape check, case by case: the row count,
    /// or the first failing rule named in the error.
    #[test]
    fn check_batch_cases() {
        let schema = TableSchema::new(&[("a", DType::U64), ("b", DType::I32)]);
        let a = || ColumnData::U64(vec![1, 2]);
        let b = || ColumnData::I32(vec![3, 4]);
        let one = [CompressionPolicy::Auto];
        let two = [CompressionPolicy::Auto, CompressionPolicy::None];
        let empty = || vec![ColumnData::U64(vec![]), ColumnData::I32(vec![])];
        let cases = [
            (vec![a(), b()], None, "ok: 2 rows"),
            (vec![a(), b()], Some(&two[..]), "ok: 2 rows"),
            (empty(), None, "ok: 0 rows"),
            (vec![a()], None, "batch has 1 columns; schema has 2"),
            (vec![a(), b()], Some(&one[..]), "2 columns, 1 policies"),
            (
                vec![a(), ColumnData::I32(vec![3])],
                None,
                "column b has 1 rows",
            ),
            (
                vec![ColumnData::U64(vec![]), b()],
                None,
                "column b has 2 rows, expected 0",
            ),
            (
                vec![a(), ColumnData::U64(vec![3, 4])],
                None,
                "column b is U64, schema says I32",
            ),
        ];
        for (columns, policies, want) in cases {
            let got = match check_batch(&schema, &columns, policies) {
                Ok(rows) => format!("ok: {rows} rows"),
                Err(e) => e.to_string(),
            };
            assert!(
                got.contains(want),
                "{columns:?}: got {got:?}, want {want:?}"
            );
        }
    }

    #[test]
    fn compression_actually_happens() {
        let t = small_table();
        assert!(t.compressed_bytes() * 4 < t.uncompressed_bytes());
        let date_bytes = t.column_compressed_bytes("date").unwrap();
        assert!(date_bytes * 20 < 8000, "dates are runs; got {date_bytes}");
    }

    /// Every segment's metadata equals the metadata derived from its
    /// payload: on a built table, and on a lazily opened one after
    /// appends that each add several segments, where the base's metas
    /// come from the manifest and the tail's carry over append to
    /// append.
    #[test]
    fn source_metadata_matches_segments() {
        let dir = std::env::temp_dir().join(format!("lcdc_table_metas_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let built = small_table();
        crate::file::save_table(&built, &dir).unwrap();
        let mut grown = crate::file::open_table_lazy(&dir, 2).unwrap();
        for round in 0..3u64 {
            let date = ColumnData::U64(
                (0..300u64)
                    .map(|i| 20180201 + round * 10 + i / 100)
                    .collect(),
            );
            let qty = ColumnData::U64((0..300u64).map(|i| round + i % 7).collect());
            grown = grown.append(&[date, qty]).unwrap();
        }
        assert_eq!(grown.num_segments(), 4 + 3 * 2);
        for table in [&built, &grown] {
            for name in ["date", "qty"] {
                let source = table.source(name).unwrap();
                for i in 0..source.num_segments() {
                    let seg = source.segment(i).unwrap();
                    assert_eq!(source.meta(i), &SegmentMeta::of(&seg), "{name} segment {i}");
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shape_errors() {
        let schema = TableSchema::new(&[("a", DType::U32), ("b", DType::U32)]);
        let a = ColumnData::U32(vec![1, 2, 3]);
        let b_short = ColumnData::U32(vec![1]);
        let none = [CompressionPolicy::None, CompressionPolicy::None];
        assert!(Table::build(
            schema.clone(),
            &[a.clone(), b_short],
            &none,
            DEFAULT_SEG_ROWS
        )
        .is_err());
        let b_wrong_type = ColumnData::I64(vec![1, 2, 3]);
        assert!(Table::build(
            schema.clone(),
            &[a.clone(), b_wrong_type],
            &none,
            DEFAULT_SEG_ROWS
        )
        .is_err());
        assert!(Table::build(schema, &[a], &none, DEFAULT_SEG_ROWS).is_err());
    }

    #[test]
    fn unknown_column_errors() {
        let t = small_table();
        assert!(t.materialize("nope").is_err());
        assert!(t.column_segments("nope").is_err());
        assert!(t.source("nope").is_err());
    }

    #[test]
    fn empty_table() {
        let schema = TableSchema::new(&[("a", DType::U32)]);
        let t = Table::build(
            schema,
            &[ColumnData::U32(vec![])],
            &[CompressionPolicy::None],
            DEFAULT_SEG_ROWS,
        )
        .unwrap();
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.num_segments(), 0);
        assert_eq!(t.materialize("a").unwrap(), ColumnData::U32(vec![]));
    }

    #[test]
    fn per_column_policies() {
        let schema = TableSchema::new(&[("a", DType::U64), ("b", DType::U64)]);
        let a = ColumnData::U64(vec![5; 100]);
        let b = ColumnData::U64((0..100).collect());
        let t = Table::build(
            schema,
            &[a, b],
            &[
                CompressionPolicy::Fixed("rle[values=ns,lengths=ns]".into()),
                CompressionPolicy::Fixed("delta[deltas=ns_zz]".into()),
            ],
            64,
        )
        .unwrap();
        assert!(t
            .column_segments("a")
            .unwrap()
            .iter()
            .all(|s| s.kind() == crate::segment::SchemeKind::Rle));
        assert!(t
            .column_segments("b")
            .unwrap()
            .iter()
            .all(|s| s.expr.starts_with("delta")));
    }

    #[test]
    fn append_grows_without_touching_the_original() {
        let t = small_table();
        let date = ColumnData::U64((0..300u64).map(|i| 20180201 + i / 100).collect());
        let qty = ColumnData::U64((0..300u64).map(|i| 1 + i % 50).collect());
        let grown = t.append(&[date.clone(), qty.clone()]).unwrap();
        assert_eq!(grown.num_rows(), 1300);
        // 1000 rows / 256 seg_rows = 4 base segments, + 300/256 = 2 new.
        assert_eq!(grown.num_segments(), 6);
        assert_eq!(t.num_rows(), 1000, "original untouched");
        assert_eq!(t.num_segments(), 4);
        // The appended rows materialize at the tail, byte for byte.
        let all = grown.materialize("date").unwrap();
        assert_eq!(all.len(), 1300);
        assert_eq!(all.get_numeric(1000), Some(20180201));
        assert_eq!(all.get_numeric(1299), Some(20180203));
        // Appended segments carry zone maps and scheme tags.
        let source = grown.source("date").unwrap();
        let tail_meta = source.meta(4);
        assert_eq!(tail_meta.rows, 256);
        assert_eq!((tail_meta.min, tail_meta.max), (20180201, 20180203));
        assert!(!tail_meta.expr.is_empty());
        // Base segments are shared handles, not copies.
        let base = t.source("date").unwrap().segment(0).unwrap();
        let via_grown = source.segment(0).unwrap();
        assert!(Arc::ptr_eq(&base, &via_grown));
    }

    /// An append is its encode then its attach: segment by segment, the
    /// same expressions, frames and metadata — also when the batch was
    /// encoded against an older snapshot of the table, whose growth
    /// since the attach keeps.
    #[test]
    fn append_is_encode_then_attach() {
        let t = small_table();
        let date = ColumnData::U64((0..700u64).map(|i| 20180201 + i / 90).collect());
        let qty = ColumnData::U64((0..700u64).map(|i| (i * 7919) % 613).collect());
        let batch = [date, qty];
        let encoded = t.encode_batch(&batch).unwrap();
        let frames = |table: &Table| -> Vec<(String, Vec<u8>, SegmentMeta)> {
            (table.columns.iter())
                .flat_map(|column| (0..column.num_segments()).map(move |i| (column, i)))
                .map(|(column, i)| {
                    let seg = column.segment(i).unwrap();
                    let frame = lcdc_core::bytes::to_bytes(&seg.compressed);
                    (seg.expr.clone(), frame, column.meta(i).clone())
                })
                .collect()
        };
        let appended = t.append(&batch).unwrap();
        let attached = t.attach(vec![encoded.clone()]).unwrap();
        assert_eq!(attached.num_rows(), appended.num_rows());
        assert_eq!(frames(&attached), frames(&appended));

        let grown = t.append(&batch).unwrap();
        let late = grown.attach(vec![encoded]).unwrap();
        assert_eq!(late.num_rows(), 1000 + 2 * 700);
        assert_eq!(frames(&late), frames(&appended.append(&batch).unwrap()));
    }

    /// A batch attaches only to the shape it was encoded for.
    #[test]
    fn attach_refuses_another_shape() {
        let t = small_table();
        let batch = [ColumnData::U64(vec![1, 2]), ColumnData::U64(vec![3, 4])];
        let taller = Table::build(
            t.schema.clone(),
            &[ColumnData::U64(vec![0]), ColumnData::U64(vec![0])],
            &[CompressionPolicy::Auto, CompressionPolicy::Auto],
            512,
        )
        .unwrap();
        let renamed = Table::build(
            TableSchema::new(&[("day", DType::U64), ("qty", DType::U64)]),
            &[ColumnData::U64(vec![0]), ColumnData::U64(vec![0])],
            &[CompressionPolicy::Auto, CompressionPolicy::Auto],
            256,
        )
        .unwrap();
        for other in [&taller, &renamed] {
            let encoded = other.encode_batch(&batch).unwrap();
            assert!(!encoded.fits(&t));
            assert!(t.attach(vec![encoded]).is_err());
        }
        assert!(t.encode_batch(&batch).unwrap().fits(&t));
    }

    /// Every segment of every column as the write path stores it: its
    /// expression, frame, metadata and shared dictionary's entries.
    type Stored = Vec<(String, Vec<u8>, SegmentMeta, Option<ColumnData>)>;

    fn stored(columns: &[Vec<Segment>]) -> Vec<Stored> {
        let record = |seg: &Segment| {
            let frame = lcdc_core::bytes::to_bytes(&seg.compressed);
            let dict = seg.compressed.shared_dict().map(|d| d.values().clone());
            (seg.expr.clone(), frame, SegmentMeta::of(seg), dict)
        };
        (columns.iter())
            .map(|segments| segments.iter().map(record).collect())
            .collect()
    }

    /// The parallel encode stores the serial one's bytes: an `Auto`
    /// column whose DICT picks share a dictionary, a `Fixed` one and an
    /// `Auto` one, over nine full segments and a ragged tenth.
    #[test]
    fn encode_columns_is_the_serial_encode_at_every_width() {
        let rows = 9 * 256 + 77;
        let keys: Vec<u64> = (0..60u64).map(|k| k * 1_000_003 + k * k % 97).collect();
        let key = ColumnData::U64(
            (0..rows as u64)
                .map(|i| keys[(i * 2_654_435_761 % 60) as usize])
                .collect(),
        );
        let delta = ColumnData::I64((0..rows as i64).map(|i| i * 3 - 500).collect());
        let day = ColumnData::U32((0..rows as u32).map(|i| 17_000 + i / 90).collect());
        let columns = [key, delta, day];
        let policies = [
            CompressionPolicy::Auto,
            CompressionPolicy::Fixed("delta[deltas=ns_zz]".into()),
            CompressionPolicy::Auto,
        ];
        let serial = stored(&encode_columns(&columns, &policies, 256, 1).unwrap());
        assert_eq!(serial[0].len(), 10);
        assert_eq!(serial[0][9].2.rows, 77, "a ragged last segment");
        let shared = serial[0].iter().filter(|s| s.3.is_some()).count();
        assert!(shared >= 2, "the key column shares its dictionary");
        assert!(serial[1].iter().all(|s| s.0 == "delta[deltas=ns_zz]"));
        for width in [2, 3, 7] {
            let parallel = stored(&encode_columns(&columns, &policies, 256, width).unwrap());
            assert_eq!(parallel, serial, "width {width}");
        }
    }

    /// An error is the serial loop's at every width: the first failure
    /// in column-then-segment order, though a later column fails in an
    /// earlier segment.
    #[test]
    fn encode_columns_fails_as_the_serial_encode_does() {
        // `const` fails at rows 3 * 16 + 7 and 5 * 16 + 11; `ns` (no
        // negatives) at segment 1.
        let steady = ColumnData::U64(
            (0..8 * 16u64)
                .map(|i| if i == 55 || i == 91 { 6 } else { 5 })
                .collect(),
        );
        let signed = ColumnData::I64(
            (0..8 * 16i64)
                .map(|i| if i == 20 { -42 } else { i })
                .collect(),
        );
        let plain = ColumnData::U64((0..8 * 16u64).collect());
        let columns = [steady, signed, plain];
        let policies = [
            CompressionPolicy::Fixed("const".into()),
            CompressionPolicy::Fixed("ns".into()),
            CompressionPolicy::Auto,
        ];
        for width in [1, 2, 3, 7] {
            let first = encode_columns(&columns, &policies, 16, width).unwrap_err();
            assert!(
                first.to_string().contains("not constant at element 7"),
                "width {width}: {first}"
            );
            let second = encode_columns(&columns[1..], &policies[1..], 16, width).unwrap_err();
            assert!(
                second.to_string().contains("min = -42"),
                "width {width}: {second}"
            );
        }
    }

    /// A batch one segment tall is encoded on the calling thread at any
    /// width; a taller one spreads over up to one thread per segment.
    #[test]
    fn a_one_segment_batch_gets_one_thread() {
        let threads = |rows, width| par::threads(row_ranges(rows, 256).len(), width);
        for width in [1, 2, 3, 7, 64] {
            for rows in [0, 1, 255, 256] {
                assert_eq!(threads(rows, width), 1, "{rows} rows at width {width}");
            }
            assert_eq!(threads(257, width), width.min(2));
            assert_eq!(threads(10 * 256, width), width.min(10));
        }
    }

    #[test]
    fn append_validates_like_build() {
        let t = small_table();
        // Wrong width.
        assert!(t.append(&[ColumnData::U64(vec![1])]).is_err());
        // Unequal lengths.
        assert!(t
            .append(&[ColumnData::U64(vec![1, 2]), ColumnData::U64(vec![1])])
            .is_err());
        // Wrong dtype.
        assert!(t
            .append(&[ColumnData::I64(vec![1]), ColumnData::U64(vec![1])])
            .is_err());
        // Empty batch: a clone of the original, same segments.
        let same = t
            .append(&[ColumnData::U64(vec![]), ColumnData::U64(vec![])])
            .unwrap();
        assert_eq!(same.num_rows(), 1000);
        assert_eq!(same.num_segments(), 4);
    }

    #[test]
    fn repeated_appends_stay_flat_and_query_correctly() {
        let mut t = small_table();
        for round in 0..3u64 {
            let date = ColumnData::U64(vec![30_000_000 + round; 100]);
            let qty = ColumnData::U64(vec![7; 100]);
            t = t.append(&[date, qty]).unwrap();
        }
        assert_eq!(t.num_rows(), 1300);
        let result = crate::QueryBuilder::scan(&t)
            .filter(
                "date",
                crate::Predicate::Range {
                    lo: 30_000_000,
                    hi: 30_000_002,
                },
            )
            .aggregate(&[crate::Agg::Sum("qty"), crate::Agg::Count])
            .execute()
            .unwrap();
        assert_eq!(result.aggregates().unwrap(), &[Some(2100), Some(300)]);
    }

    #[test]
    fn from_segments_validates_alignment() {
        let t = small_table();
        // One column of segments for a two-column schema: rejected.
        let date = t.column_segments("date").unwrap();
        assert!(Table::from_segments(t.schema().clone(), vec![date], 256).is_err());
    }

    #[test]
    fn from_segments_rejects_misaligned_segmentation() {
        // Equal segment counts and equal totals, but different splits:
        // column A is [10, 20] rows, column B is [20, 10].
        let schema = TableSchema::new(&[("a", DType::U32), ("b", DType::U32)]);
        let seg = |n: usize| {
            Segment::build(
                &ColumnData::U32((0..n as u32).collect()),
                &CompressionPolicy::None,
            )
            .unwrap()
        };
        let err = Table::from_segments(
            schema,
            vec![vec![seg(10), seg(20)], vec![seg(20), seg(10)]],
            20,
        );
        assert!(err.is_err(), "misaligned splits must be rejected");
    }

    #[test]
    fn appends_to_a_lazy_table_read_the_base_through_the_file() {
        let dir = std::env::temp_dir().join(format!("lcdc_table_lazy_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let schema = TableSchema::new(&[("v", DType::U64)]);
        let v = ColumnData::U64((0..400u64).collect());
        let table = Table::build(schema, &[v], &[CompressionPolicy::Auto], 100).unwrap();
        crate::file::save_table(&table, &dir).unwrap();
        let mut grown = crate::file::open_table_lazy(&dir, 2).unwrap();
        for round in 0..3u64 {
            let batch = ColumnData::U64(vec![400 + round * 2, 401 + round * 2]);
            grown = grown.append(&[batch]).unwrap();
        }
        let source = grown.source("v").unwrap();
        assert_eq!(source.num_segments(), 7);
        assert_eq!(source.meta(6).rows, 2);
        assert_eq!((source.meta(6).min, source.meta(6).max), (404, 405));
        // Base segments are read through the file and count I/O...
        assert_eq!(source.io_reads(), 0);
        assert_eq!(
            source.segment(0).unwrap().decompress().unwrap(),
            ColumnData::U64((0..100).collect())
        );
        assert_eq!(source.io_reads(), 1);
        // ...appended ones are resident and free.
        for (seg, first) in [(4, 400), (5, 402), (6, 404)] {
            assert_eq!(
                source.segment(seg).unwrap().decompress().unwrap(),
                ColumnData::U64(vec![first, first + 1])
            );
        }
        assert_eq!(source.io_reads(), 1);
        // Prefetch reaches the file only; capacity is the file's.
        assert!(!source.prefetch(5), "resident segment: nothing to warm");
        assert!(source.prefetch(1));
        assert_eq!(source.cache_capacity(), Some(2));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A base's zone tree is built once, at open: appends share it by
    /// handle, and only the resident tail's tree takes the new leaves.
    #[test]
    fn appends_do_not_rebuild_a_base_zone_tree() {
        let dir = std::env::temp_dir().join(format!("lcdc_table_zones_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        crate::file::save_table(&small_table(), &dir).unwrap();
        let opened = crate::file::open_table_lazy(&dir, 2).unwrap();
        let mut grown = opened.clone();
        for round in 0..32u64 {
            let date = ColumnData::U64(vec![30_000_000 + round; 10]);
            let qty = ColumnData::U64(vec![round; 10]);
            grown = grown.append(&[date, qty]).unwrap();
        }
        for (column, at_open) in grown.columns.iter().zip(&opened.columns) {
            assert_eq!(column.zone_parts(), 2, "one run: a base and a tail");
            assert!(
                std::ptr::eq(column.zone_tree(0), at_open.zone_tree(0)),
                "the base tree is the one built at open"
            );
            assert_eq!(column.zone_tree(0).len(), 4);
            assert_eq!(at_open.zone_tree(1).len(), 0);
            assert_eq!(
                column.zone_tree(1).len(),
                32,
                "the tail holds the new leaves"
            );
        }
        let date = grown.columns[0].zone_tree(1);
        assert_eq!(
            date.hull(0),
            (30_000_000, 30_000_031),
            "the tail's root hull"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn appended_columns_stay_one_level_deep() {
        let dir = std::env::temp_dir().join(format!("lcdc_table_flat_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        crate::file::save_table(&small_table(), &dir).unwrap();
        let mut grown = crate::file::open_table_lazy(&dir, 2).unwrap();
        let bases: Vec<Arc<crate::source::FileSource>> = grown
            .columns
            .iter()
            .map(|column| Arc::clone(column.bases().next().unwrap()))
            .collect();
        for round in 0..32u64 {
            let date = ColumnData::U64(vec![30_000_000 + round; 10]);
            let qty = ColumnData::U64(vec![round; 10]);
            grown = grown.append(&[date, qty]).unwrap();
        }
        for (column, base) in grown.columns.iter().zip(&bases) {
            assert_eq!(column.run_starts(), &[0, 36], "appends stay one run");
            assert!(
                Arc::ptr_eq(column.bases().next().unwrap(), base),
                "the base is never rewrapped"
            );
            assert_eq!(
                column.resident_segments().count(),
                32,
                "one segment per append"
            );
        }
        let qty: Vec<ColumnData> = grown.columns[1]
            .resident_segments()
            .map(|s| s.decompress().unwrap())
            .collect();
        let want: Vec<ColumnData> = (0..32u64).map(|r| ColumnData::U64(vec![r; 10])).collect();
        assert_eq!(qty, want);
        std::fs::remove_dir_all(&dir).ok();
    }
}
