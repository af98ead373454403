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
//!                            min, max, sum, expr, dict: u32 }*,
//!                          dictionary count: u32,
//!                          { offset, record_len }* }*, checksum: u64
//! <dir>/<name>.col       records, each located by the manifest:
//!   segment              frame_len: u64, expr: str, min: i128,
//!                        max: i128, sum, frame: bytes, checksum: u64
//!   dictionary           entries: u64, { entry }*, checksum: u64
//! ```
//!
//! A column's segments may share a dictionary (`dict[dict=shared,...]`,
//! decided by `table::encode_columns`): it is stored once, as a
//! dictionary record of the column's file, entries at the column's
//! element width. A segment's `dict` is `1 + k` for the column's
//! `k`-th dictionary, `0` for none, and its frame holds only a
//! reference (`lcdc_core::bytes`). Both open paths read every
//! dictionary at open — refusing one whose checksum fails or whose
//! entries do not strictly increase — and attach it, one `Arc` per
//! dictionary, to every segment that references it, so a saved run's
//! dictionary is in memory once however many segments read it.
//!
//! `sum` is the segment's exact sum ([`Segment::sum`]): a presence byte
//! then an `i128`, 17 bytes either way. It is present for every segment
//! the store built from its rows and absent for one built by hand
//! ([`Segment::new`]), whose zone map is the caller's.
//!
//! Since manifest v2 the per-segment *planner metadata* — zone map,
//! scheme expression, frame location — lives in the manifest, so a
//! lazily-opened table ([`open_table_lazy`]) plans exactly like a
//! resident one and only reads the frames its pushdown tiers touch:
//! the I/O-level analogue of the §II-B pruning claim. Frames are
//! independently addressable through the recorded offsets
//! ([`read_segment`] reads exactly one).
//!
//! The manifest's version moves with the frame format it indexes and
//! with the fields it holds: v4 records hold `core::bytes` v3 frames
//! (interleaved bit packing); v5 adds `sum` to every manifest entry and
//! record header; v6 and v7 hold v5's fields, their records `core::bytes`
//! v4 frames (block-packed payloads interleaved too) and v5 frames (one
//! bit-packed layout for both packed payloads); v8 adds the shared
//! dictionaries (each segment entry's `dict`, each column's dictionary
//! list and records), its records holding v6 frames. So a table written
//! before any of these changes is refused when it is opened
//! ("unsupported table version 7"), not at its first frame fetch.
//!
//! Every checksum is a trailing XXH64 (`digest.rs`) over all the bytes
//! before it: a record's covers its header as well as its frame, so the
//! zone map and expression a record carries are as protected as its
//! payload. Both open paths then cross-check each record (zone map, sum,
//! expression) against its manifest entry through one function
//! (`decode_record`). This is corruption *detection* (bit rot,
//! truncation), not cryptographic integrity.

use crate::digest;
use crate::le::{put_i128, put_opt_i128, put_str16, put_u16, put_u32, put_u64, Cursor};
use crate::schema::{ColumnSchema, TableSchema};
use crate::segment::{SchemeKind, Segment};
use crate::source::{Column, FileSource, FrameLocation, SegmentMeta};
use crate::table::Table;
use crate::{Result, StoreError};
use lcdc_core::{bytes, with_column, ColumnData, DType, SharedDict};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MANIFEST: &str = "MANIFEST.lcdc";
const MAGIC: &[u8; 8] = b"LCDCTBL\0";
const VERSION: u16 = 8;

/// Default decoded-segment cache capacity per column for
/// [`open_table_lazy`].
pub const DEFAULT_SEGMENT_CACHE: usize = 16;

/// One column's manifest entry: declaration, per-segment metadata and
/// dictionary reference (`1 + k` for the column's `k`-th dictionary, 0
/// for none), and where its shared dictionaries' records sit.
#[derive(Debug, Clone)]
struct ColumnManifest {
    schema: ColumnSchema,
    metas: Vec<SegmentMeta>,
    locations: Vec<FrameLocation>,
    refs: Vec<u32>,
    dicts: Vec<FrameLocation>,
}

/// A column's shared dictionaries, in the order their records are
/// written: `1 + k` is what a segment referencing the `k`-th stores.
#[derive(Default)]
struct Dictionaries(Vec<Arc<SharedDict>>);

impl Dictionaries {
    /// The `dict` field of `seg`'s manifest entry, with `seg`'s
    /// dictionary joining the list on first sight (`true`: it is new
    /// and needs its record written). A segment whose frame references
    /// a dictionary it was never given cannot be saved.
    fn index_of(&mut self, seg: &Segment) -> Result<(u32, bool)> {
        let Some(reference) = seg.compressed.shared_part() else {
            return Ok((0, false));
        };
        let dict = reference.dict.as_ref().ok_or_else(|| {
            StoreError::Shape("a segment references a dictionary it was not given".into())
        })?;
        if let Some(k) = self.0.iter().position(|d| Arc::ptr_eq(d, dict)) {
            return Ok((k as u32 + 1, false));
        }
        self.0.push(Arc::clone(dict));
        Ok((self.0.len() as u32, true))
    }
}

/// A shared dictionary's record: its entry count, the entries at the
/// column's element width, and a checksum over both.
fn encode_dict_record(dict: &SharedDict) -> Vec<u8> {
    let values = dict.values();
    let mut record = Vec::with_capacity(16 + values.uncompressed_bytes());
    put_u64(&mut record, values.len() as u64);
    with_column!(values, |v| v
        .iter()
        .for_each(|x| record.extend_from_slice(&x.to_le_bytes())));
    let sum = digest::checksum(&record);
    put_u64(&mut record, sum);
    record
}

/// Read the `k`-th dictionary record of `column`: checksum, exact
/// length, and entries strictly increasing — each a typed error.
fn decode_dict_record(
    record: &[u8],
    column: &str,
    k: usize,
    dtype: DType,
) -> Result<Arc<SharedDict>> {
    let corrupt =
        |what: &str| StoreError::CorruptFile(format!("column {column} dictionary {k}: {what}"));
    let body = digest::verified(record).ok_or_else(|| corrupt("record checksum mismatch"))?;
    let mut r = Cursor::new(body);
    let len = r.u64()?;
    let entries = r.rest();
    if Some(entries.len() as u64) != len.checked_mul(dtype.bytes() as u64) {
        return Err(corrupt("entry count disagrees with the record length"));
    }
    let values = match dtype {
        DType::U32 | DType::I32 => entries
            .as_chunks::<4>()
            .0
            .iter()
            .map(|&b| u64::from(u32::from_le_bytes(b)))
            .collect(),
        DType::U64 | DType::I64 => entries
            .as_chunks::<8>()
            .0
            .iter()
            .map(|&b| u64::from_le_bytes(b))
            .collect(),
    };
    let dict = SharedDict::new(ColumnData::from_transport(dtype, values));
    if !dict.is_sorted() {
        return Err(corrupt("entries do not strictly increase"));
    }
    Ok(dict)
}

/// One segment's on-disk record: header (frame length, expr, zone map,
/// sum), the frame bytes, and a checksum over both. Shared by the full
/// write and the append paths so the record format has one home; its
/// reader is [`decode_record`].
fn encode_segment_record(seg: &Segment) -> Vec<u8> {
    let frame = bytes::to_bytes(&seg.compressed);
    let mut record = Vec::with_capacity(frame.len() + 64);
    put_u64(&mut record, frame.len() as u64);
    put_str16(&mut record, &seg.expr);
    put_i128(&mut record, seg.min);
    put_i128(&mut record, seg.max);
    put_opt_i128(&mut record, seg.sum());
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
        // (hand-assembled tables, appended tails) survive a reopen.
        for ((meta, loc), dict) in col.metas.iter().zip(&col.locations).zip(&col.refs) {
            put_u64(&mut manifest, loc.offset);
            put_u64(&mut manifest, loc.len);
            put_u64(&mut manifest, meta.bytes as u64);
            put_u64(&mut manifest, meta.rows as u64);
            put_i128(&mut manifest, meta.min);
            put_i128(&mut manifest, meta.max);
            put_opt_i128(&mut manifest, meta.sum);
            put_str16(&mut manifest, &meta.expr);
            put_u32(&mut manifest, *dict);
        }
        put_u32(&mut manifest, col.dicts.len() as u32);
        for loc in &col.dicts {
            put_u64(&mut manifest, loc.offset);
            put_u64(&mut manifest, loc.len);
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
        let mut column = ColumnManifest {
            schema: col.clone(),
            metas: Vec::with_capacity(segments.len()),
            locations: Vec::with_capacity(segments.len()),
            refs: Vec::with_capacity(segments.len()),
            dicts: Vec::new(),
        };
        let mut dicts = Dictionaries::default();
        for seg in &segments {
            column.push(seg, &mut dicts, &mut file, 0, 0)?;
        }
        fs::write(dir.join(column_file(&col.name)), file)?;
        columns.push(column);
    }
    write_manifest(dir, table.seg_rows(), table.num_rows(), &columns)
}

/// Append a row batch to a saved table **without rewriting any
/// existing frame**: the batch is chunked by the table's segment
/// height and compressed per column under `policies` (align them with
/// the schema; [`crate::CompressionPolicy::Auto`] re-runs the scheme
/// chooser per segment) — all of it first, segment-tall row ranges in
/// parallel on the host's cores, as [`Table::build`] does. Then the new
/// records are appended to each `<name>.col` file, column by column,
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
    let encoded =
        crate::table::encode_columns(columns, policies, seg_rows, crate::par::host_width())?;
    for (segments, manifest_col) in encoded.into_iter().zip(manifest_cols.iter_mut()) {
        let path = dir.join(column_file(&manifest_col.schema.name));
        let expected = recorded_end(manifest_col);
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
        // The batch's segments share no dictionary with the stored
        // ones: a dictionary they share is a new record, numbered after
        // the column's existing ones.
        let mut tail = Vec::new();
        let mut dicts = Dictionaries::default();
        let stored = manifest_col.dicts.len() as u32;
        for segment in &segments {
            manifest_col.push(segment, &mut dicts, &mut tail, expected, stored)?;
        }
        file.write_all(&tail)?;
        // Frames durable before the manifest that references them.
        file.sync_all()?;
    }
    let total = num_rows + batch_rows;
    write_manifest(dir, seg_rows, total, &manifest_cols)?;
    Ok(total)
}

impl ColumnManifest {
    /// Append `seg`'s record — after its dictionary's, the first time
    /// `dicts` sees that dictionary — to `out`, bytes that go at file
    /// offset `base` after `stored` dictionaries, and enter both here.
    fn push(
        &mut self,
        seg: &Segment,
        dicts: &mut Dictionaries,
        out: &mut Vec<u8>,
        base: u64,
        stored: u32,
    ) -> Result<()> {
        let (index, new) = dicts.index_of(seg)?;
        if let (true, Some(dict)) = (new, seg.compressed.shared_dict()) {
            let record = encode_dict_record(dict);
            self.dicts.push(FrameLocation {
                offset: base + out.len() as u64,
                len: record.len() as u64,
            });
            out.extend_from_slice(&record);
        }
        let record = encode_segment_record(seg);
        self.metas.push(SegmentMeta::of(seg));
        self.locations.push(FrameLocation {
            offset: base + out.len() as u64,
            len: record.len() as u64,
        });
        self.refs.push(if index == 0 { 0 } else { stored + index });
        out.extend_from_slice(&record);
        Ok(())
    }
}

/// Read every dictionary record of a column whose file bytes `read`
/// returns for a location — at open, on both paths — and hand each
/// segment the dictionary its manifest entry references: `None` for
/// none, one `Arc` per dictionary, an error for an index past the
/// column's list.
fn segment_dictionaries(
    col: &ColumnManifest,
    mut read: impl FnMut(FrameLocation) -> Result<Vec<u8>>,
) -> Result<Vec<Option<Arc<SharedDict>>>> {
    let name = &col.schema.name;
    let dicts = col
        .dicts
        .iter()
        .enumerate()
        .map(|(k, &loc)| decode_dict_record(&read(loc)?, name, k, col.schema.dtype))
        .collect::<Result<Vec<_>>>()?;
    col.refs
        .iter()
        .enumerate()
        .map(|(idx, &k)| match k {
            0 => Ok(None),
            k => dicts.get(k as usize - 1).cloned().map(Some).ok_or_else(|| {
                StoreError::CorruptFile(format!(
                    "column {name} segment {idx}: dictionary {k} of {}",
                    dicts.len()
                ))
            }),
        })
        .collect()
}

/// Load a whole table from `dir` into memory, verifying every frame
/// checksum (the eager path; see [`open_table_lazy`] for the lazy one).
pub fn load_table(dir: &Path) -> Result<Table> {
    let (schema, segments, _, seg_rows) = open_with(dir, |path, col| {
        let name = &col.schema.name;
        let data = fs::read(path)?;
        // Records are located and validated exactly as the lazy path
        // does, so both opens accept the same directories (including
        // non-uniform segmentations) — except that bytes past the last
        // record (a torn append) are refused here rather than ignored.
        let dicts = segment_dictionaries(&col, |loc| {
            record_at(&data, loc).map(<[u8]>::to_vec).ok_or_else(|| {
                StoreError::CorruptFile(format!("{name}: a dictionary extends past end of file"))
            })
        })?;
        let mut segments = Vec::with_capacity(col.metas.len());
        let frames = col.metas.iter().zip(&col.locations).zip(&dicts);
        for (idx, ((meta, loc), dict)) in frames.enumerate() {
            let record = record_at(&data, *loc).ok_or_else(|| {
                StoreError::CorruptFile(format!("{name}: segment {idx} extends past end of file"))
            })?;
            segments.push(decode_record(
                record,
                name,
                idx,
                meta,
                col.schema.dtype,
                dict.as_ref(),
            )?);
        }
        let end = recorded_end(&col);
        if end != data.len() as u64 {
            return Err(StoreError::CorruptFile(format!(
                "{name}: {} trailing bytes",
                data.len() as u64 - end
            )));
        }
        Ok(segments)
    })?;
    Table::from_segments(schema, segments, seg_rows)
}

/// Open a table from `dir` *lazily*: only the manifest is read now;
/// each column's file becomes its base, which loads frames on demand
/// (checksum-verified per read) behind an LRU cache of
/// `cache_capacity` decoded segments. Planning consults manifest
/// metadata only, so zone-map-pruned segments are never read from disk.
pub fn open_table_lazy(dir: &Path, cache_capacity: usize) -> Result<Table> {
    let (schema, columns, num_rows, seg_rows) = open_with(dir, |path, col| {
        // FileSource::new bounds-checks every frame location against
        // the file length before any fetch can allocate from it.
        let base = file_source(path, col, cache_capacity)?;
        Ok(Column::new(Some(Arc::new(base)), Vec::new()))
    })?;
    Table::assemble(schema, columns, num_rows, seg_rows)
}

/// The skeleton both opens share: read the manifest, then open each
/// column from its file path and manifest entry. Returns the schema,
/// the opened columns, and the manifest's row count and segment height.
fn open_with<T>(
    dir: &Path,
    column: impl Fn(PathBuf, ColumnManifest) -> Result<T>,
) -> Result<(TableSchema, Vec<T>, usize, usize)> {
    let (columns, seg_rows, num_rows) = read_manifest(dir)?;
    let schema = TableSchema {
        columns: columns.iter().map(|c| c.schema.clone()).collect(),
    };
    let opened = columns
        .into_iter()
        .map(|col| column(dir.join(column_file(&col.schema.name)), col))
        .collect::<Result<_>>()?;
    Ok((schema, opened, num_rows, seg_rows))
}

/// A lazy source over one column file: its dictionaries read now,
/// its segments on demand.
fn file_source(path: PathBuf, col: ColumnManifest, cache_capacity: usize) -> Result<FileSource> {
    let dicts = segment_dictionaries(&col, |loc| read_at(&path, loc))?;
    FileSource::new(
        path,
        &col.schema.name,
        col.schema.dtype,
        (col.metas, col.locations, dicts),
        cache_capacity,
    )
}

/// The record at `loc` of the file at `path`; a short file is corrupt.
fn read_at(path: &Path, loc: FrameLocation) -> Result<Vec<u8>> {
    use std::io::{Read, Seek, SeekFrom};
    let mut file = fs::File::open(path)?;
    let file_len = file.metadata()?.len();
    if loc
        .offset
        .checked_add(loc.len)
        .is_none_or(|end| end > file_len)
    {
        return Err(StoreError::CorruptFile(format!(
            "{}: a dictionary extends past end of file",
            path.display()
        )));
    }
    file.seek(SeekFrom::Start(loc.offset))?;
    let mut record = vec![0; loc.len as usize];
    file.read_exact(&mut record)?;
    Ok(record)
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
    let source = file_source(dir.join(column_file(column)), col, 1)?;
    let segment = source.segment(index)?;
    // Drop the source (and its cache's Arc) so the unwrap moves the
    // decoded segment out instead of deep-cloning it.
    drop(source);
    Ok(Arc::try_unwrap(segment).unwrap_or_else(|arc| (*arc).clone()))
}

/// Decode segment `idx` of `column` from its `.col` record and validate
/// it against the manifest entry the planner already trusts: the
/// record checksum, then the header's zone map, sum and expression
/// against `meta`, then the frame's dtype and height. The one gate
/// every record passes on both open paths ([`load_table`] and
/// [`FileSource`]). The run dictionary the manifest says the segment
/// references, `dict`, is attached; a frame that references none it
/// is given, or is given one it does not reference, is corrupt.
pub(crate) fn decode_record(
    record: &[u8],
    column: &str,
    idx: usize,
    meta: &SegmentMeta,
    dtype: DType,
    dict: Option<&Arc<SharedDict>>,
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
    let sum = r.opt_i128()?;
    let frame = r.rest();
    if frame_len != frame.len() as u64 {
        return Err(corrupt(format!(
            "frame of {frame_len} bytes, record holds {}",
            frame.len()
        )));
    }
    // The planner already pruned on the manifest's zone map and may
    // answer from its sum; if the record header disagrees, one of the
    // two is corrupt — refuse rather than mix inconsistent metadata
    // into one answer.
    if (min, max, sum) != (meta.min, meta.max, meta.sum) || expr != meta.expr {
        return Err(corrupt("frame metadata disagrees with manifest".into()));
    }
    let mut segment = Segment::summarised(bytes::from_bytes(frame)?, expr, min, max, sum)?;
    match (dict, segment.compressed.shared_part()) {
        (Some(dict), _) => segment
            .compressed
            .attach_shared(dict)
            .map_err(|e| corrupt(format!("{e}")))?,
        (None, Some(_)) => return Err(corrupt("references a dictionary it was not given".into())),
        (None, None) => {}
    }
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
fn recorded_end(col: &ColumnManifest) -> u64 {
    col.locations
        .iter()
        .chain(&col.dicts)
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
        // Each segment record is at least 87 bytes (four u64s, two
        // i128s, a 17-byte sum, a u16 string length, a u32): a count
        // the remaining manifest cannot possibly hold is corruption,
        // caught *before* any count-sized allocation.
        if count > r.rest().len() / 87 {
            return Err(StoreError::CorruptFile(format!(
                "{name}: implausible segment count {count}"
            )));
        }
        let mut metas = Vec::with_capacity(count);
        let mut locations = Vec::with_capacity(count);
        let mut refs = Vec::with_capacity(count);
        let mut total_rows = 0usize;
        for _ in 0..count {
            let offset = r.u64()?;
            let len = r.u64()?;
            let payload_bytes = r.u64()? as usize;
            let rows = r.u64()? as usize;
            let min = r.i128()?;
            let max = r.i128()?;
            let sum = r.opt_i128()?;
            let expr = r.str16()?;
            let dict = r.u32()?;
            total_rows = total_rows.saturating_add(rows);
            metas.push(SegmentMeta {
                rows,
                min,
                max,
                sum,
                bytes: payload_bytes,
                kind: SchemeKind::of_expr(&expr)?,
                expr,
            });
            locations.push(FrameLocation { offset, len });
            refs.push(dict);
        }
        let dict_count = r.u32()? as usize;
        // Each dictionary entry is 16 bytes.
        if dict_count > r.rest().len() / 16 {
            return Err(StoreError::CorruptFile(format!(
                "{name}: implausible dictionary count {dict_count}"
            )));
        }
        let mut dicts = Vec::with_capacity(dict_count);
        for _ in 0..dict_count {
            let offset = r.u64()?;
            let len = r.u64()?;
            dicts.push(FrameLocation { offset, len });
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
            refs,
            dicts,
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
    fn record_sum_disagreeing_with_manifest_is_refused_on_both_opens() {
        // A fully selected segment is answered from the manifest's sum,
        // so a record whose sum differs means one of the two is
        // corrupt: the fetch that reads the record refuses it, on both
        // open paths.
        let table = Table::build(
            TableSchema::new(&[("a", DType::U64)]),
            &[ColumnData::U64((0..1000).collect())],
            &[CompressionPolicy::Fixed("ns".into())],
            100,
        )
        .unwrap();
        assert_eq!(table.source("a").unwrap().meta(0).sum, Some(4950));
        let count = |t: &Table| {
            crate::QueryBuilder::scan(t)
                .filter("a", crate::Predicate::Range { lo: 0, hi: 9 })
                .aggregate(&[crate::Agg::Count])
                .execute()
                .map(|r| r.aggregates().unwrap().to_vec())
        };
        // Segment 0's header: frame_len u64, expr (u16 length + "ns"),
        // min i128, max i128, then the sum's presence byte and value.
        let sum_at = 8 + 2 + 2 + 16 + 16;
        let tampers: [(usize, &[u8]); 2] =
            [(sum_at + 1, &4951i128.to_le_bytes()), (sum_at, &[0; 17])];
        for (i, (at, patch)) in tampers.into_iter().enumerate() {
            let dir = tmpdir(&format!("sum{i}"));
            save_table(&table, &dir).unwrap();
            let record_len = read_manifest(&dir).unwrap().0[0].locations[0].len as usize;
            let path = dir.join("a.col");
            let mut data = fs::read(&path).unwrap();
            data[at..at + patch.len()].copy_from_slice(patch);
            restamp(&mut data[..record_len]);
            fs::write(&path, data).unwrap();
            let disagrees = |e: StoreError| matches!(e, StoreError::CorruptFile(m) if m.ends_with("frame metadata disagrees with manifest"));
            assert!(disagrees(load_table(&dir).err().unwrap()), "tamper {i}");
            let lazy = open_table_lazy(&dir, 4).unwrap();
            assert!(disagrees(count(&lazy).unwrap_err()), "tamper {i}");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Stamp `version` on a saved manifest: the version is read before
    /// the checksum is checked, so both open paths must refuse the table
    /// as that version, not as a checksum mismatch.
    fn assert_manifest_version_unsupported(version: u16) {
        let dir = tmpdir(&format!("v{version}"));
        save_table(&sample_table(), &dir).unwrap();
        let path = dir.join(MANIFEST);
        let mut data = fs::read(&path).unwrap();
        data[8..10].copy_from_slice(&version.to_le_bytes());
        fs::write(&path, data).unwrap();
        let expected = format!("unsupported table version {version}");
        let unsupported = |e: StoreError| matches!(e, StoreError::CorruptFile(m) if m == expected);
        assert!(unsupported(load_table(&dir).err().unwrap()), "v{version}");
        assert!(
            unsupported(open_table_lazy(&dir, 4).err().unwrap()),
            "v{version}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_2_manifest_is_unsupported_not_a_checksum_mismatch() {
        assert_manifest_version_unsupported(2);
    }

    #[test]
    fn version_3_manifest_is_unsupported() {
        // v2 and v3 manifests lack fields.
        assert_manifest_version_unsupported(3);
    }

    #[test]
    fn version_4_manifest_is_unsupported() {
        // v4 manifests and records carry no sums.
        assert_manifest_version_unsupported(4);
    }

    #[test]
    fn version_5_manifest_is_unsupported() {
        // v5 and v6 records hold older frames.
        assert_manifest_version_unsupported(5);
    }

    #[test]
    fn older_manifest_versions_are_unsupported_not_a_checksum_mismatch() {
        for version in 6..VERSION {
            assert_manifest_version_unsupported(version);
        }
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
        // Tables may hold non-uniform segment heights (aligned across
        // columns); persisted per-segment row counts mean a lazy
        // reopen plans on the true heights, not a seg_rows inference.
        let dir = tmpdir("nonuniform");
        let seg = |vals: Vec<u64>| {
            Segment::build(&ColumnData::U64(vals), &CompressionPolicy::None).unwrap()
        };
        let table = Table::from_segments(
            TableSchema::new(&[("a", DType::U64)]),
            vec![vec![seg((0..10).collect()), seg((10..30).collect())]],
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

    /// Sparse 41-bit keys, `distinct` of them, scrambled over `rows`:
    /// each 1024-row segment picks `dict[codes=ns]`.
    fn sparse_keys(rows: u64, distinct: u64, salt: u64) -> ColumnData {
        ColumnData::U64(
            (0..rows)
                .map(|i| (1 << 40) + ((i * 7919 + salt) % distinct) * 1_000_003)
                .collect(),
        )
    }

    /// A table whose `key` segments share one dictionary.
    fn shared_table() -> Table {
        let vals = ColumnData::U64((0..4096u64).map(|i| i % 13).collect());
        Table::build(
            TableSchema::new(&[("key", DType::U64), ("val", DType::U64)]),
            &[sparse_keys(4096, 100, 0), vals],
            &[CompressionPolicy::Auto, CompressionPolicy::Auto],
            1024,
        )
        .unwrap()
    }

    /// Every segment of `column`'s dictionary handle, `None` for an own
    /// dictionary.
    fn dictionaries(table: &Table, column: &str) -> Vec<Option<Arc<SharedDict>>> {
        let segments = table.column_segments(column).unwrap();
        segments
            .iter()
            .map(|seg| seg.compressed.shared_dict().cloned())
            .collect()
    }

    #[test]
    fn a_shared_dictionary_is_stored_once_and_shared_on_both_opens() {
        let dir = tmpdir("shared");
        let table = shared_table();
        let built = dictionaries(&table, "key");
        assert!(
            built.iter().all(|d| d.is_some()),
            "the chooser's DICT picks share"
        );
        // The dictionary counts once, at its column.
        let source = table.source("key").unwrap();
        let segments: usize = (0..4).map(|i| source.meta(i).bytes).sum();
        let dict = built[0].as_ref().unwrap().values().uncompressed_bytes();
        let bytes = table.column_compressed_bytes("key").unwrap();
        assert_eq!(bytes, segments + dict);
        save_table(&table, &dir).unwrap();
        let (columns, _, _) = read_manifest(&dir).unwrap();
        assert_eq!(columns[0].dicts.len(), 1, "stored once");
        assert_eq!(columns[0].refs, vec![1; 4]);
        assert!(columns[1].dicts.is_empty());
        for reopened in [load_table(&dir).unwrap(), open_table_lazy(&dir, 2).unwrap()] {
            let dicts = dictionaries(&reopened, "key");
            let first = dicts[0].clone().expect("attached");
            assert_eq!(first.values(), built[0].as_ref().unwrap().values());
            for dict in &dicts {
                assert!(Arc::ptr_eq(dict.as_ref().unwrap(), &first), "one handle");
            }
            assert_eq!(reopened.column_compressed_bytes("key").unwrap(), bytes);
            for col in ["key", "val"] {
                let want = table.materialize(col).unwrap();
                assert_eq!(reopened.materialize(col).unwrap(), want, "{col}");
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appends_bring_their_own_dictionaries() {
        let dir = tmpdir("shared_append");
        let table = shared_table();
        save_table(&table, &dir).unwrap();
        let policies = [CompressionPolicy::Auto, CompressionPolicy::Auto];
        // Two segments of new keys share a dictionary of their own; one
        // segment never shares.
        let two = [sparse_keys(2048, 60, 3), ColumnData::U64(vec![1; 2048])];
        let one = [sparse_keys(1024, 60, 5), ColumnData::U64(vec![2; 1024])];
        append_table(&dir, &two, &policies).unwrap();
        append_table(&dir, &one, &policies).unwrap();
        let (columns, _, _) = read_manifest(&dir).unwrap();
        assert_eq!(columns[0].dicts.len(), 2);
        assert_eq!(columns[0].refs, vec![1, 1, 1, 1, 2, 2, 0]);
        let want = table.append(&two).unwrap().append(&one).unwrap();
        for reopened in [load_table(&dir).unwrap(), open_table_lazy(&dir, 2).unwrap()] {
            let dicts = dictionaries(&reopened, "key");
            assert!(Arc::ptr_eq(
                dicts[4].as_ref().unwrap(),
                dicts[5].as_ref().unwrap()
            ));
            assert!(!Arc::ptr_eq(
                dicts[0].as_ref().unwrap(),
                dicts[4].as_ref().unwrap()
            ));
            assert!(dicts[6].is_none());
            for col in ["key", "val"] {
                let want = want.materialize(col).unwrap();
                assert_eq!(reopened.materialize(col).unwrap(), want, "{col}");
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_corrupt_shared_dictionary_is_refused_at_open() {
        let dir = tmpdir("shared_corrupt");
        save_table(&shared_table(), &dir).unwrap();
        let (columns, _, _) = read_manifest(&dir).unwrap();
        let loc = columns[0].dicts[0];
        let path = dir.join("key.col");
        let clean = fs::read(&path).unwrap();
        let (start, end) = (loc.offset as usize, (loc.offset + loc.len) as usize);
        let refused = |what: &str| {
            for opened in [load_table(&dir).err(), open_table_lazy(&dir, 2).err()] {
                let err = opened.unwrap_or_else(|| panic!("{what}: opened"));
                assert!(matches!(err, StoreError::CorruptFile(_)), "{what}: {err}");
            }
        };
        // A flipped entry: the record checksum.
        let mut flipped = clean.clone();
        flipped[start + 8] ^= 1;
        fs::write(&path, &flipped).unwrap();
        refused("flipped");
        // Two entries swapped, the checksum re-sealed: not increasing.
        let mut swapped = clean.clone();
        let entries = &mut swapped[start + 8..end - 8];
        let (a, b) = entries.split_at_mut(8);
        a.swap_with_slice(&mut b[..8]);
        restamp(&mut swapped[start..end]);
        fs::write(&path, &swapped).unwrap();
        refused("unsorted");
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
