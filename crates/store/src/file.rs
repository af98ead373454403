//! On-disk persistence: a directory-per-table, file-per-column format.
//!
//! The paper's columnar view is what makes this layer thin: a segment's
//! wire form (`lcdc_core::bytes`) *is* its storage form — parts, params
//! and nesting serialise one-to-one, so the file layer only adds
//! framing, zone-map metadata and corruption detection:
//!
//! ```text
//! <dir>/MANIFEST.lcdc    magic, version, seg_rows, num_rows,
//!                        column count, { name, dtype, segment count,
//!                          { offset, record_len, payload_bytes, rows,
//!                            min, max, expr }* }*, checksum: u64
//! <dir>/<name>.col       { frame_len: u64, expr: str, min: i128,
//!                          max: i128, frame: bytes,
//!                          checksum: u64 }*       (one per segment)
//! ```
//!
//! Since manifest v2 the per-segment *planner metadata* — zone map,
//! scheme expression, frame location — lives in the manifest, so a
//! lazily-opened table ([`open_table_lazy`]) plans exactly like a
//! resident one and only reads the frames its pushdown tiers touch:
//! the I/O-level analogue of the §II-B pruning claim. Frames are
//! independently addressable through the recorded offsets
//! ([`read_segment`] reads exactly one).
//!
//! Every checksum is a trailing XXH64 (`digest.rs`) over all the bytes
//! before it: a record's covers its header as well as its frame, so the
//! zone map and expression a record carries are as protected as its
//! payload. Both open paths then cross-check each record against its
//! manifest entry through one function (`decode_record`). This is
//! corruption *detection* (bit rot, truncation), not cryptographic
//! integrity.

use crate::digest;
use crate::le::{put_i128, put_str16, put_u16, put_u64, Cursor};
use crate::schema::{ColumnSchema, TableSchema};
use crate::segment::{SchemeKind, Segment};
use crate::source::{FileSource, FrameLocation, SegmentMeta, SegmentSource};
use crate::table::Table;
use crate::{Result, StoreError};
use lcdc_core::{bytes, ColumnData, DType};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MANIFEST: &str = "MANIFEST.lcdc";
const MAGIC: &[u8; 8] = b"LCDCTBL\0";
const VERSION: u16 = 3;

/// Default decoded-segment cache capacity per column for
/// [`open_table_lazy`].
pub const DEFAULT_SEGMENT_CACHE: usize = 16;

/// One column's manifest entry: declaration plus per-segment metadata.
#[derive(Debug, Clone)]
struct ColumnManifest {
    schema: ColumnSchema,
    metas: Vec<SegmentMeta>,
    locations: Vec<FrameLocation>,
}

/// One segment's on-disk record: header (frame length, expr, zone map),
/// the frame bytes, and a checksum over both. Shared by the full write
/// and the append paths so the record format has one home; its reader
/// is [`decode_record`].
fn encode_segment_record(seg: &Segment) -> Vec<u8> {
    let frame = bytes::to_bytes(&seg.compressed);
    let mut record = Vec::with_capacity(frame.len() + 64);
    put_u64(&mut record, frame.len() as u64);
    put_str16(&mut record, &seg.expr);
    put_i128(&mut record, seg.min);
    put_i128(&mut record, seg.max);
    record.extend_from_slice(&frame);
    let sum = digest::checksum(&record);
    put_u64(&mut record, sum);
    record
}

/// Serialize and install the manifest. The body is written to a
/// sibling temp file and *renamed* over `MANIFEST.lcdc`, and its
/// trailing checksum is the last bytes serialized — so a torn
/// write leaves either the old manifest (appended frames past its
/// recorded end are invisible) or a checksum-failing file that
/// [`read_manifest`] rejects on open. Never a silently truncated view.
fn write_manifest(
    dir: &Path,
    seg_rows: usize,
    num_rows: usize,
    columns: &[ColumnManifest],
) -> Result<()> {
    let mut manifest = Vec::with_capacity(256);
    manifest.extend_from_slice(MAGIC);
    put_u16(&mut manifest, VERSION);
    put_u64(&mut manifest, seg_rows as u64);
    put_u64(&mut manifest, num_rows as u64);
    put_u16(&mut manifest, columns.len() as u16);
    for col in columns {
        put_str16(&mut manifest, &col.schema.name);
        manifest.push(col.schema.dtype.tag());
        put_u64(&mut manifest, col.metas.len() as u64);
        // Each record: where the frame sits plus everything the
        // planner needs without reading it. Row counts are persisted,
        // not inferred from seg_rows, so non-uniform segmentations
        // (from_sources assemblies, appended tails) survive a reopen.
        for (meta, loc) in col.metas.iter().zip(&col.locations) {
            put_u64(&mut manifest, loc.offset);
            put_u64(&mut manifest, loc.len);
            put_u64(&mut manifest, meta.bytes as u64);
            put_u64(&mut manifest, meta.rows as u64);
            put_i128(&mut manifest, meta.min);
            put_i128(&mut manifest, meta.max);
            put_str16(&mut manifest, &meta.expr);
        }
    }
    // Trailing checksum over the manifest body: zone maps steer lazy
    // pruning without ever reading frames, so manifest corruption must
    // be *detected*, not silently turned into wrong answers.
    let sum = digest::checksum(&manifest);
    put_u64(&mut manifest, sum);
    let tmp = dir.join(format!("{MANIFEST}.tmp"));
    {
        use std::io::Write;
        let mut file = fs::File::create(&tmp)?;
        file.write_all(&manifest)?;
        file.sync_all()?;
    }
    fs::rename(&tmp, dir.join(MANIFEST))?;
    Ok(())
}

/// Write `table` into `dir` (created if absent; existing table files are
/// overwritten). Loads lazily-backed columns in full. Two columns whose
/// names map to one `.col` file (`a-b` and `a_b`, or a repeated name)
/// are a [`StoreError::Shape`], before anything is written.
pub fn save_table(table: &Table, dir: &Path) -> Result<()> {
    let names = || table.schema().columns.iter().map(|col| &col.name);
    for (i, name) in names().enumerate() {
        let file = column_file(name);
        if let Some(first) = names().take(i).find(|other| column_file(other) == file) {
            return Err(StoreError::Shape(format!(
                "columns {first:?} and {name:?} would both be saved as {file}"
            )));
        }
    }
    fs::create_dir_all(dir)?;
    let mut columns = Vec::with_capacity(table.schema().width());
    for col in &table.schema().columns {
        let segments = table.column_segments(&col.name)?;
        let mut file = Vec::new();
        let mut metas = Vec::with_capacity(segments.len());
        let mut locations = Vec::with_capacity(segments.len());
        for seg in &segments {
            let offset = file.len() as u64;
            let record = encode_segment_record(seg);
            file.extend_from_slice(&record);
            metas.push(SegmentMeta::of(seg));
            locations.push(FrameLocation {
                offset,
                len: record.len() as u64,
            });
        }
        fs::write(dir.join(column_file(&col.name)), file)?;
        columns.push(ColumnManifest {
            schema: col.clone(),
            metas,
            locations,
        });
    }
    write_manifest(dir, table.seg_rows(), table.num_rows(), &columns)
}

/// Append a row batch to a saved table **without rewriting any
/// existing frame**: the batch is chunked by the table's segment
/// height, compressed per column under `policies` (align them with the
/// schema; [`crate::CompressionPolicy::Auto`] re-runs the scheme chooser per
/// segment), the new records are appended to each `<name>.col` file,
/// and the manifest is rewritten last — temp file, rename, checksum
/// trailing — so a write torn *anywhere* leaves a directory that
/// either opens as the pre-append snapshot or is rejected on open,
/// never one that silently serves a truncated table. Trailing bytes a
/// previous torn append left past the manifest's recorded end are
/// truncated away before the new frames land.
///
/// Returns the table's new total row count. The on-disk counterpart of
/// [`Table::append`]; `lcdc ingest` is its CLI face.
pub fn append_table(
    dir: &Path,
    columns: &[ColumnData],
    policies: &[crate::segment::CompressionPolicy],
) -> Result<usize> {
    use std::io::{Seek, SeekFrom, Write};
    let (mut manifest_cols, seg_rows, num_rows) = read_manifest(dir)?;
    let schema = TableSchema {
        columns: manifest_cols.iter().map(|c| c.schema.clone()).collect(),
    };
    let batch_rows = crate::table::check_batch(&schema, columns, Some(policies))?;
    if batch_rows == 0 {
        return Ok(num_rows);
    }
    for ((col, manifest_col), policy) in columns.iter().zip(manifest_cols.iter_mut()).zip(policies)
    {
        let path = dir.join(column_file(&manifest_col.schema.name));
        let expected = recorded_end(&manifest_col.locations);
        let mut file = fs::OpenOptions::new().read(true).write(true).open(&path)?;
        let actual = file.metadata()?.len();
        if actual < expected {
            return Err(StoreError::CorruptFile(format!(
                "{}: file holds {actual} bytes, manifest records {expected}",
                manifest_col.schema.name
            )));
        }
        if actual > expected {
            // A previous append died between frame write and manifest
            // rename: the bytes past `expected` belong to no manifest.
            file.set_len(expected)?;
        }
        file.seek(SeekFrom::Start(expected))?;
        let mut offset = expected;
        for segment in crate::table::segment_column(col, policy, seg_rows)? {
            let record = encode_segment_record(&segment);
            file.write_all(&record)?;
            manifest_col.metas.push(SegmentMeta::of(&segment));
            manifest_col.locations.push(FrameLocation {
                offset,
                len: record.len() as u64,
            });
            offset += record.len() as u64;
        }
        // Frames durable before the manifest that references them.
        file.sync_all()?;
    }
    let total = num_rows + batch_rows;
    write_manifest(dir, seg_rows, total, &manifest_cols)?;
    Ok(total)
}

/// Load a whole table from `dir` into memory, verifying every frame
/// checksum (the eager path; see [`open_table_lazy`] for the lazy one).
pub fn load_table(dir: &Path) -> Result<Table> {
    open_with(dir, |path, col| {
        let name = &col.schema.name;
        let data = fs::read(path)?;
        // Records are located and validated exactly as the lazy path
        // does, so both opens accept the same directories (including
        // non-uniform segmentations from_sources built) — except that
        // bytes past the last record (a torn append) are refused here
        // rather than ignored.
        let mut segments = Vec::with_capacity(col.metas.len());
        for (idx, (meta, loc)) in col.metas.iter().zip(&col.locations).enumerate() {
            let record = record_at(&data, *loc).ok_or_else(|| {
                StoreError::CorruptFile(format!("{name}: segment {idx} extends past end of file"))
            })?;
            segments.push(decode_record(record, name, idx, meta, col.schema.dtype)?);
        }
        let end = recorded_end(&col.locations);
        if end != data.len() as u64 {
            return Err(StoreError::CorruptFile(format!(
                "{name}: {} trailing bytes",
                data.len() as u64 - end
            )));
        }
        Ok(Arc::new(crate::source::ResidentSource::new(segments)))
    })
}

/// Open a table from `dir` *lazily*: only the manifest is read now;
/// each column becomes a [`FileSource`] that loads frames on demand
/// (checksum-verified per read) behind an LRU cache of
/// `cache_capacity` decoded segments. Planning consults manifest
/// metadata only, so zone-map-pruned segments are never read from disk.
pub fn open_table_lazy(dir: &Path, cache_capacity: usize) -> Result<Table> {
    open_with(dir, |path, col| {
        // FileSource::new bounds-checks every frame location against
        // the file length before any fetch can allocate from it.
        Ok(Arc::new(FileSource::new(
            path,
            &col.schema.name,
            col.schema.dtype,
            col.metas,
            col.locations,
            cache_capacity,
        )?))
    })
}

/// The skeleton both opens share: read the manifest, then build each
/// column's source from its file path and manifest entry.
fn open_with(
    dir: &Path,
    source: impl Fn(PathBuf, ColumnManifest) -> Result<Arc<dyn SegmentSource>>,
) -> Result<Table> {
    let (columns, seg_rows, num_rows) = read_manifest(dir)?;
    let schema = TableSchema {
        columns: columns.iter().map(|c| c.schema.clone()).collect(),
    };
    let sources = columns
        .into_iter()
        .map(|col| source(dir.join(column_file(&col.schema.name)), col))
        .collect::<Result<_>>()?;
    Table::from_sources(schema, sources, num_rows, seg_rows)
}

/// Read one segment of one column without touching any other frame:
/// the manifest records each frame's offset, so exactly one record is
/// read, checksum-verified, and cross-checked against its manifest
/// metadata — the same guarded path `FileSource` fetches through.
pub fn read_segment(dir: &Path, column: &str, index: usize) -> Result<Segment> {
    let (columns, _, _) = read_manifest(dir)?;
    let col = columns
        .into_iter()
        .find(|c| c.schema.name == column)
        .ok_or_else(|| StoreError::NoSuchColumn(column.to_string()))?;
    if index >= col.locations.len() {
        return Err(StoreError::Shape(format!(
            "segment {index} requested, column {column} has {}",
            col.locations.len()
        )));
    }
    let source = FileSource::new(
        dir.join(column_file(column)),
        column,
        col.schema.dtype,
        col.metas,
        col.locations,
        1,
    )?;
    let segment = source.segment(index)?;
    // Drop the source (and its cache's Arc) so the unwrap moves the
    // decoded segment out instead of deep-cloning it.
    drop(source);
    Ok(Arc::try_unwrap(segment).unwrap_or_else(|arc| (*arc).clone()))
}

/// Decode segment `idx` of `column` from its `.col` record and validate
/// it against the manifest entry the planner already trusts: the
/// record checksum, then the header's zone map and expression against
/// `meta`, then the frame's dtype and height. The one gate every record
/// passes on both open paths ([`load_table`] and [`FileSource`]).
pub(crate) fn decode_record(
    record: &[u8],
    column: &str,
    idx: usize,
    meta: &SegmentMeta,
    dtype: DType,
) -> Result<Segment> {
    let corrupt =
        |what: String| StoreError::CorruptFile(format!("column {column} segment {idx}: {what}"));
    let body =
        digest::verified(record).ok_or_else(|| corrupt("record checksum mismatch".into()))?;
    let mut r = Cursor::new(body);
    let frame_len = r.u64()?;
    let expr = r.str16()?;
    let min = r.i128()?;
    let max = r.i128()?;
    let frame = r.rest();
    if frame_len != frame.len() as u64 {
        return Err(corrupt(format!(
            "frame of {frame_len} bytes, record holds {}",
            frame.len()
        )));
    }
    // The planner already pruned on the manifest's zone map; if the
    // record header disagrees, one of the two is corrupt — refuse
    // rather than mix inconsistent metadata into one answer.
    if (min, max) != (meta.min, meta.max) || expr != meta.expr {
        return Err(corrupt("frame metadata disagrees with manifest".into()));
    }
    let segment = Segment::new(bytes::from_bytes(frame)?, expr, min, max)?;
    if segment.compressed.dtype != dtype {
        return Err(StoreError::Shape(format!(
            "column {column} segment {idx} is {:?}, schema says {dtype:?}",
            segment.compressed.dtype
        )));
    }
    if segment.num_rows() != meta.rows {
        return Err(corrupt(format!(
            "holds {} rows, manifest says {}",
            segment.num_rows(),
            meta.rows
        )));
    }
    Ok(segment)
}

/// The bytes of the record at `loc`, or `None` when it overruns `data`.
fn record_at(data: &[u8], loc: FrameLocation) -> Option<&[u8]> {
    let start = usize::try_from(loc.offset).ok()?;
    let end = start.checked_add(usize::try_from(loc.len).ok()?)?;
    data.get(start..end)
}

/// Where the manifest says a column file's last record ends.
fn recorded_end(locations: &[FrameLocation]) -> u64 {
    locations
        .iter()
        .map(|loc| loc.offset.saturating_add(loc.len))
        .max()
        .unwrap_or(0)
}

fn read_manifest(dir: &Path) -> Result<(Vec<ColumnManifest>, usize, usize)> {
    let raw = fs::read(dir.join(MANIFEST))?;
    // Magic and version first — every manifest version shares that
    // prefix, so an old-format table reports "unsupported table
    // version", not a bogus checksum mismatch.
    let mut r = Cursor::new(&raw);
    if r.array::<8>()? != *MAGIC {
        return Err(StoreError::CorruptFile("bad manifest magic".into()));
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(StoreError::CorruptFile(format!(
            "unsupported table version {version}"
        )));
    }
    // Verify the trailing checksum before believing any other field.
    let data = digest::verified(&raw)
        .ok_or_else(|| StoreError::CorruptFile("manifest checksum mismatch".into()))?;
    // Continue in the verified body, past the magic + version read above.
    let mut r = Cursor::new(data.get(MAGIC.len() + 2..).unwrap_or_default());
    let seg_rows = r.u64()? as usize;
    let num_rows = r.u64()? as usize;
    let width = r.u16()? as usize;
    let mut columns = Vec::with_capacity(width);
    for _ in 0..width {
        let name = r.str16()?;
        let tag = r.u8()?;
        let dtype = DType::from_tag(tag)
            .ok_or_else(|| StoreError::CorruptFile(format!("unknown dtype tag {tag}")))?;
        let count = r.u64()? as usize;
        // Each segment record is at least 66 bytes (four u64s, two
        // i128s, a u16 string length): a count the remaining manifest
        // cannot possibly hold is corruption, caught *before* any
        // count-sized allocation.
        if count > r.rest().len() / 66 {
            return Err(StoreError::CorruptFile(format!(
                "{name}: implausible segment count {count}"
            )));
        }
        let mut metas = Vec::with_capacity(count);
        let mut locations = Vec::with_capacity(count);
        let mut total_rows = 0usize;
        for _ in 0..count {
            let offset = r.u64()?;
            let len = r.u64()?;
            let payload_bytes = r.u64()? as usize;
            let rows = r.u64()? as usize;
            let min = r.i128()?;
            let max = r.i128()?;
            let expr = r.str16()?;
            total_rows = total_rows.saturating_add(rows);
            metas.push(SegmentMeta {
                rows,
                min,
                max,
                bytes: payload_bytes,
                kind: SchemeKind::of_expr(&expr)?,
                expr,
            });
            locations.push(FrameLocation { offset, len });
        }
        if total_rows != num_rows {
            return Err(StoreError::CorruptFile(format!(
                "{name}: segments hold {total_rows} rows, manifest says {num_rows}"
            )));
        }
        columns.push(ColumnManifest {
            schema: ColumnSchema::new(&name, dtype),
            metas,
            locations,
        });
    }
    r.finish()?;
    Ok((columns, seg_rows, num_rows))
}

fn column_file(name: &str) -> String {
    // Column names are identifiers in practice; escape anything else.
    let safe: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    format!("{safe}.col")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::CompressionPolicy;
    use lcdc_core::ColumnData;

    fn sample_table() -> Table {
        let a = ColumnData::U64((0..5000u64).map(|i| 20_180_101 + i / 40).collect());
        let b = ColumnData::I64((0..5000i64).map(|i| (i * 13) % 997 - 400).collect());
        let schema = TableSchema::new(&[("date", DType::U64), ("delta", DType::I64)]);
        Table::build(
            schema,
            &[a, b],
            &[CompressionPolicy::Auto, CompressionPolicy::Auto],
            700,
        )
        .unwrap()
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("lcdc_file_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Re-seal checksummed bytes after a deliberate edit, so the check
    /// *behind* the checksum is what a test exercises.
    fn restamp(sealed: &mut [u8]) {
        let (body, sum) = sealed.split_at_mut(sealed.len() - 8);
        sum.copy_from_slice(&digest::checksum(body).to_le_bytes());
    }

    #[test]
    fn record_header_tamper_is_a_typed_error_on_both_opens() {
        // Before table v3 the record checksum skipped the header and the
        // eager open never compared it with the manifest: segment 0's
        // `min` rewritten to 50 pruned it, and this count answered
        // Some(0) with no error.
        let table = Table::build(
            TableSchema::new(&[("a", DType::U64)]),
            &[ColumnData::U64((0..1000).collect())],
            &[CompressionPolicy::Fixed(" ns".into())],
            100,
        )
        .unwrap();
        let count = |t: &Table| {
            crate::QueryBuilder::scan(t)
                .filter("a", crate::Predicate::Range { lo: 0, hi: 9 })
                .aggregate(&[crate::Agg::Count])
                .execute()
                .map(|r| r.aggregates().unwrap().to_vec())
        };
        assert_eq!(count(&table).unwrap(), [Some(10)]);
        // Segment 0's header: frame_len u64, expr (u16 length + " ns"),
        // min i128, max i128. " ns" → "ns " keeps the scheme and length.
        let expr_at = 8 + 2;
        let min_at = expr_at + 3;
        let max_at = min_at + 16;
        let tampers: [(usize, &[u8]); 3] = [
            (min_at, &50i128.to_le_bytes()),
            (max_at, &5i128.to_le_bytes()),
            (expr_at, b"ns "),
        ];
        for (i, (at, patch)) in tampers.into_iter().enumerate() {
            let dir = tmpdir(&format!("header{i}"));
            save_table(&table, &dir).unwrap();
            let record_len = read_manifest(&dir).unwrap().0[0].locations[0].len as usize;
            let path = dir.join("a.col");
            let mut data = fs::read(&path).unwrap();
            data[at..at + patch.len()].copy_from_slice(patch);
            restamp(&mut data[..record_len]);
            fs::write(&path, data).unwrap();
            let disagrees = |e: StoreError| matches!(e, StoreError::CorruptFile(m) if m.contains("disagrees with manifest"));
            assert!(disagrees(load_table(&dir).err().unwrap()), "tamper {i}");
            let lazy = open_table_lazy(&dir, 4).unwrap();
            assert!(disagrees(count(&lazy).unwrap_err()), "tamper {i}");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn version_2_manifest_is_unsupported_not_a_checksum_mismatch() {
        let dir = tmpdir("v2");
        save_table(&sample_table(), &dir).unwrap();
        let path = dir.join(MANIFEST);
        let mut data = fs::read(&path).unwrap();
        data[8..10].copy_from_slice(&2u16.to_le_bytes());
        fs::write(&path, data).unwrap();
        let unsupported = |e: StoreError| matches!(e, StoreError::CorruptFile(m) if m == "unsupported table version 2");
        assert!(unsupported(load_table(&dir).err().unwrap()));
        assert!(unsupported(open_table_lazy(&dir, 4).err().unwrap()));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_load_round_trips() {
        let dir = tmpdir("roundtrip");
        let table = sample_table();
        save_table(&table, &dir).unwrap();
        let loaded = load_table(&dir).unwrap();
        assert_eq!(loaded.num_rows(), table.num_rows());
        assert_eq!(loaded.schema(), table.schema());
        for col in ["date", "delta"] {
            assert_eq!(
                loaded.materialize(col).unwrap(),
                table.materialize(col).unwrap(),
                "{col}"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_granular_read() {
        let dir = tmpdir("seg_read");
        let table = sample_table();
        save_table(&table, &dir).unwrap();
        let in_memory = table.column_segments("delta").unwrap();
        for idx in [0usize, 3, in_memory.len() - 1] {
            let seg = read_segment(&dir, "delta", idx).unwrap();
            assert_eq!(seg.expr, in_memory[idx].expr);
            assert_eq!(seg.compressed, in_memory[idx].compressed);
            assert_eq!((seg.min, seg.max), (in_memory[idx].min, in_memory[idx].max));
        }
        assert!(read_segment(&dir, "delta", 999).is_err());
        assert!(read_segment(&dir, "nope", 0).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn queries_agree_after_reload() {
        let dir = tmpdir("queries");
        let table = sample_table();
        save_table(&table, &dir).unwrap();
        let loaded = load_table(&dir).unwrap();
        let q = |t: &Table| {
            crate::QueryBuilder::scan(t)
                .filter(
                    "date",
                    crate::Predicate::Range {
                        lo: 20_180_110,
                        hi: 20_180_140,
                    },
                )
                .aggregate(&[crate::Agg::Sum("delta"), crate::Agg::Count])
                .execute()
                .unwrap()
                .rows
        };
        assert_eq!(q(&table), q(&loaded));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_detected() {
        let dir = tmpdir("bitflip");
        save_table(&sample_table(), &dir).unwrap();
        let path = dir.join("delta.col");
        let mut data = fs::read(&path).unwrap();
        // Flip a byte deep in the first frame's payload (past its
        // 16-byte header + expr + 32 bytes of zone map).
        let target = 120.min(data.len() - 1);
        data[target] ^= 0x40;
        fs::write(&path, data).unwrap();
        match load_table(&dir) {
            Err(StoreError::CorruptFile(_)) | Err(StoreError::Core(_)) => {}
            other => panic!("corruption not detected: {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_detected() {
        let dir = tmpdir("trunc");
        save_table(&sample_table(), &dir).unwrap();
        let path = dir.join("date.col");
        let data = fs::read(&path).unwrap();
        fs::write(&path, &data[..data.len() - 7]).unwrap();
        assert!(matches!(load_table(&dir), Err(StoreError::CorruptFile(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_tamper_detected() {
        let dir = tmpdir("manifest");
        save_table(&sample_table(), &dir).unwrap();
        let path = dir.join(MANIFEST);
        let mut data = fs::read(&path).unwrap();
        data[0] = b'X'; // break the magic
        fs::write(&path, data).unwrap();
        assert!(matches!(load_table(&dir), Err(StoreError::CorruptFile(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_uniform_segmentation_survives_lazy_reopen() {
        // from_sources permits non-uniform segment heights (aligned
        // across columns); persisted per-segment row counts mean a lazy
        // reopen plans on the true heights, not a seg_rows inference.
        use crate::source::{ResidentSource, SegmentSource};
        use std::sync::Arc;
        let dir = tmpdir("nonuniform");
        let seg = |vals: Vec<u64>| {
            Segment::build(&ColumnData::U64(vals), &CompressionPolicy::None).unwrap()
        };
        let table = Table::from_sources(
            TableSchema::new(&[("a", DType::U64)]),
            vec![Arc::new(ResidentSource::new(vec![
                seg((0..10).collect()),
                seg((10..30).collect()),
            ])) as Arc<dyn SegmentSource>],
            30,
            20,
        )
        .unwrap();
        save_table(&table, &dir).unwrap();
        // Both open paths accept the non-uniform directory.
        let eager = load_table(&dir).unwrap();
        assert_eq!(
            eager.materialize("a").unwrap(),
            table.materialize("a").unwrap()
        );
        let lazy = open_table_lazy(&dir, 4).unwrap();
        assert_eq!(
            lazy.materialize("a").unwrap(),
            table.materialize("a").unwrap()
        );
        // Values 0..=9 live only in the 10-row segment; the zone map
        // decides it fully, so the count comes straight from metadata.
        let result = crate::QueryBuilder::scan(&lazy)
            .filter("a", crate::Predicate::Range { lo: 0, hi: 9 })
            .aggregate(&[crate::Agg::Count])
            .execute()
            .unwrap();
        assert_eq!(result.aggregates().unwrap(), &[Some(10)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_segment_count_errors_without_allocating() {
        let dir = tmpdir("badcount");
        save_table(&sample_table(), &dir).unwrap();
        let path = dir.join(MANIFEST);
        let mut data = fs::read(&path).unwrap();
        // The first column's segment-count u64 sits right after
        // magic+version+seg_rows+num_rows+width+name("date")+dtype.
        let count_at = 8 + 2 + 8 + 8 + 2 + (2 + 4) + 1;
        data[count_at..count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        // Re-stamp the trailing checksum so the *count plausibility*
        // guard is what fires, not the checksum.
        restamp(&mut data);
        fs::write(&path, data).unwrap();
        assert!(matches!(load_table(&dir), Err(StoreError::CorruptFile(_))));
        assert!(matches!(
            open_table_lazy(&dir, 4),
            Err(StoreError::CorruptFile(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_zone_map_tamper_detected() {
        // Zone maps steer lazy pruning without frame reads, so a bit
        // flip anywhere in the manifest must fail the checksum — never
        // silently change which segments a query prunes.
        let dir = tmpdir("zonemap");
        save_table(&sample_table(), &dir).unwrap();
        let path = dir.join(MANIFEST);
        let mut data = fs::read(&path).unwrap();
        let mid = data.len() / 2; // inside the per-segment records
        data[mid] ^= 0x01;
        fs::write(&path, data).unwrap();
        assert!(matches!(
            open_table_lazy(&dir, 4),
            Err(StoreError::CorruptFile(_))
        ));
        assert!(matches!(load_table(&dir), Err(StoreError::CorruptFile(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_table_round_trips_without_rewriting_frames() {
        let dir = tmpdir("append");
        let table = sample_table();
        save_table(&table, &dir).unwrap();
        let date_before = fs::read(dir.join("date.col")).unwrap();

        let extra_date = ColumnData::U64((0..900u64).map(|i| 20_190_101 + i / 40).collect());
        let extra_delta = ColumnData::I64((0..900i64).map(|i| i % 100).collect());
        let policies = [CompressionPolicy::Auto, CompressionPolicy::Auto];
        let total =
            append_table(&dir, &[extra_date.clone(), extra_delta.clone()], &policies).unwrap();
        assert_eq!(total, 5900);

        // Existing frame bytes are untouched — strictly appended after.
        let date_after = fs::read(dir.join("date.col")).unwrap();
        assert!(date_after.len() > date_before.len());
        assert_eq!(&date_after[..date_before.len()], &date_before[..]);

        // Both open paths see the appended rows, and they agree with an
        // in-memory append of the same batch.
        let want = table
            .append(&[extra_date.clone(), extra_delta.clone()])
            .unwrap();
        for reopened in [load_table(&dir).unwrap(), open_table_lazy(&dir, 4).unwrap()] {
            assert_eq!(reopened.num_rows(), 5900);
            for col in ["date", "delta"] {
                assert_eq!(
                    reopened.materialize(col).unwrap(),
                    want.materialize(col).unwrap(),
                    "{col}"
                );
            }
        }

        // A second append stacks (non-uniform tail heights are fine).
        let total = append_table(
            &dir,
            &[ColumnData::U64(vec![20_200_101]), ColumnData::I64(vec![-1])],
            &policies,
        )
        .unwrap();
        assert_eq!(total, 5901);
        assert_eq!(load_table(&dir).unwrap().num_rows(), 5901);

        // Shape errors: wrong width, wrong dtype, short column.
        assert!(append_table(&dir, std::slice::from_ref(&extra_date), &policies[..1]).is_err());
        assert!(
            append_table(&dir, &[extra_delta.clone(), extra_delta.clone()], &policies).is_err()
        );
        // Empty batch: a no-op that reports the current total.
        assert_eq!(
            append_table(
                &dir,
                &[ColumnData::empty(DType::U64), ColumnData::empty(DType::I64)],
                &policies
            )
            .unwrap(),
            5901
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_append_is_rejected_or_recovered_never_truncated_silently() {
        let dir = tmpdir("torn");
        let table = sample_table();
        save_table(&table, &dir).unwrap();

        // Simulate an append that died after writing frames but before
        // the manifest rename: garbage past the manifest's recorded end.
        let path = dir.join("date.col");
        let clean = fs::read(&path).unwrap();
        let mut torn = clean.clone();
        torn.extend_from_slice(&[0xAB; 37]);
        fs::write(&path, &torn).unwrap();

        // The lazy open serves the pre-append snapshot (offsets ignore
        // the trailing garbage); the eager open rejects loudly rather
        // than guessing — and a *recorded* frame going missing is
        // rejected by both.
        let lazy = open_table_lazy(&dir, 4).unwrap();
        assert_eq!(
            lazy.materialize("date").unwrap(),
            table.materialize("date").unwrap()
        );
        assert!(matches!(load_table(&dir), Err(StoreError::CorruptFile(_))));

        // The next append heals the tear: garbage is truncated away
        // before the new frames land, and both opens agree again.
        let policies = [CompressionPolicy::Auto, CompressionPolicy::Auto];
        append_table(
            &dir,
            &[
                ColumnData::U64(vec![20_190_101, 20_190_102]),
                ColumnData::I64(vec![1, 2]),
            ],
            &policies,
        )
        .unwrap();
        let eager = load_table(&dir).unwrap();
        assert_eq!(eager.num_rows(), 5002);
        assert_eq!(
            eager.materialize("date").unwrap(),
            open_table_lazy(&dir, 4)
                .unwrap()
                .materialize("date")
                .unwrap()
        );

        // A file *shorter* than the manifest records is unrecoverable
        // and must refuse the append.
        let data = fs::read(&path).unwrap();
        fs::write(&path, &data[..data.len() - 10]).unwrap();
        assert!(matches!(
            append_table(
                &dir,
                &[ColumnData::U64(vec![1]), ColumnData::I64(vec![1])],
                &policies
            ),
            Err(StoreError::CorruptFile(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_is_io_error() {
        let dir = tmpdir("missing");
        assert!(matches!(load_table(&dir), Err(StoreError::Io(_))));
    }

    #[test]
    fn lazy_open_round_trips_and_counts_io() {
        let dir = tmpdir("lazy");
        let table = sample_table();
        save_table(&table, &dir).unwrap();
        let lazy = open_table_lazy(&dir, 4).unwrap();
        assert_eq!(lazy.num_rows(), table.num_rows());
        assert_eq!(lazy.schema(), table.schema());
        assert_eq!(lazy.io_reads(), 0, "opening reads only the manifest");
        // Metadata matches the resident table's exactly.
        let resident = load_table(&dir).unwrap();
        for col in ["date", "delta"] {
            let a = lazy.source(col).unwrap();
            let b = resident.source(col).unwrap();
            assert_eq!(a.num_segments(), b.num_segments());
            for i in 0..a.num_segments() {
                assert_eq!(a.meta(i), b.meta(i), "{col} segment {i}");
            }
        }
        assert_eq!(lazy.io_reads(), 0, "metadata access is not I/O");
        assert_eq!(
            lazy.materialize("date").unwrap(),
            table.materialize("date").unwrap()
        );
        assert!(lazy.io_reads() > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lazy_segment_cache_hits_avoid_rereads() {
        let dir = tmpdir("lazy_cache");
        save_table(&sample_table(), &dir).unwrap();
        let lazy = open_table_lazy(&dir, 16).unwrap();
        let source = lazy.source("date").unwrap();
        let first = source.segment(0).unwrap();
        let again = source.segment(0).unwrap();
        assert_eq!(first.compressed, again.compressed);
        assert_eq!(source.io_reads(), 1, "second fetch is a cache hit");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lazy_detects_corruption_on_fetch() {
        let dir = tmpdir("lazy_rot");
        save_table(&sample_table(), &dir).unwrap();
        let path = dir.join("delta.col");
        let mut data = fs::read(&path).unwrap();
        let target = 120.min(data.len() - 1);
        data[target] ^= 0x40;
        fs::write(&path, data).unwrap();
        let lazy = open_table_lazy(&dir, 4).unwrap(); // manifest is fine
        assert!(lazy.source("delta").unwrap().segment(0).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A table whose two columns map to one `.col` file is refused,
    /// naming both, before the directory is created.
    fn assert_colliding_columns_refused(tag: &str, names: [&str; 2]) {
        let dir = tmpdir(tag);
        let col = ColumnData::U64((0..100).collect());
        let table = Table::build(
            TableSchema::new(&[(names[0], DType::U64), (names[1], DType::U64)]),
            &[col.clone(), col],
            &[CompressionPolicy::None, CompressionPolicy::None],
            64,
        )
        .unwrap();
        match save_table(&table, &dir) {
            Err(StoreError::Shape(msg)) => {
                for name in names {
                    assert!(msg.contains(&format!("{name:?}")), "{msg}");
                }
            }
            other => panic!("expected a Shape error, got {other:?}"),
        }
        assert!(!dir.exists(), "nothing written");
    }

    #[test]
    fn columns_escaping_to_one_file_are_refused() {
        assert_colliding_columns_refused("escape_collision", ["a-b", "a_b"]);
    }

    #[test]
    fn repeated_column_names_are_refused() {
        assert_colliding_columns_refused("repeated_name", ["x", "x"]);
    }

    #[test]
    fn empty_table_round_trips() {
        let dir = tmpdir("empty");
        let schema = TableSchema::new(&[("v", DType::U32)]);
        let table = Table::build(
            schema,
            &[ColumnData::empty(DType::U32)],
            &[CompressionPolicy::None],
            64,
        )
        .unwrap();
        save_table(&table, &dir).unwrap();
        let loaded = load_table(&dir).unwrap();
        assert_eq!(loaded.num_rows(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
