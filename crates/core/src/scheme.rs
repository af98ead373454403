//! The [`Scheme`] trait and the columnar compressed form.
//!
//! A [`Compressed`] value is the paper's "pure columns" view of a
//! compressed column: a set of named part columns plus scalar
//! parameters — no blocks, headers or padding. Parts are either plain
//! columns, bit-packed payloads (NS at one width, VARWIDTH at one width
//! per block), for *composed* schemes recursively compressed columns, or
//! references to a dictionary stored once and shared between forms
//! ([`crate::shared`]).

use crate::column::{ColumnData, DType};
use crate::error::{CoreError, Result};
use crate::parts::{PartStream, Parts};
use crate::plan::Plan;
use crate::shared::{SharedDict, SharedRef};
use crate::stats::ColumnStats;
use std::borrow::Cow;
use std::sync::Arc;

/// A named part of a compressed form.
#[derive(Debug, Clone, PartialEq)]
pub struct Part {
    /// Role of the part within its scheme ("values", "lengths",
    /// "offsets", ...). Roles are how cascades select sub-columns.
    pub role: &'static str,
    /// The part's payload.
    pub data: PartData,
}

/// Payload of a part.
#[derive(Debug, Clone, PartialEq)]
pub enum PartData {
    /// A plain column.
    Plain(ColumnData),
    /// A bit-packed buffer: one width (NS) or one per block (VARWIDTH).
    Packed(lcdc_bitpack::Packed),
    /// A recursively compressed column (result of a cascade).
    Nested(Box<Compressed>),
    /// A dictionary stored once outside the form and shared by handle:
    /// the form holds the reference, not the entries.
    Shared(SharedRef),
}

impl PartData {
    /// Payload size in bytes under the uniform size model: plain columns
    /// at element width, packed buffers at their packed size (plus one
    /// byte per block for per-block widths, see
    /// [`lcdc_bitpack::Packed::payload_bytes`]), nested parts
    /// recursively, a shared part at nothing: its entries are stored
    /// once, by the container that shares them.
    pub fn bytes(&self) -> usize {
        match self {
            PartData::Plain(c) => c.uncompressed_bytes(),
            PartData::Packed(p) => p.payload_bytes(),
            PartData::Nested(c) => c.compressed_bytes(),
            PartData::Shared(_) => 0,
        }
    }

    /// Number of logical elements in the part.
    pub fn len(&self) -> usize {
        match self {
            PartData::Plain(c) => c.len(),
            PartData::Packed(p) => p.len(),
            PartData::Nested(c) => c.n,
            PartData::Shared(r) => r.len,
        }
    }

    /// Whether the part holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Scalar parameters of a compressed form (segment length, widths, ...).
///
/// A small association list: schemes have at most a handful of
/// parameters, and deterministic ordering keeps displays stable.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Params(Vec<(&'static str, i64)>);

impl Params {
    /// Empty parameter set.
    pub fn new() -> Self {
        Params(Vec::new())
    }

    /// Add or replace a parameter.
    pub fn set(&mut self, key: &'static str, value: i64) {
        if let Some(slot) = self.0.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.0.push((key, value));
        }
    }

    /// Builder-style [`Params::set`].
    pub fn with(mut self, key: &'static str, value: i64) -> Self {
        self.set(key, value);
        self
    }

    /// Read a parameter.
    pub fn get(&self, key: &'static str) -> Option<i64> {
        self.0.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }

    /// Read a required parameter, with a corruption error if absent.
    pub fn require(&self, key: &'static str) -> Result<i64> {
        self.get(key)
            .ok_or_else(|| CoreError::CorruptParts(format!("missing parameter {key:?}")))
    }

    /// Iterate over `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, i64)> + '_ {
        self.0.iter().copied()
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there are no parameters.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// A compressed column in the paper's columnar view.
#[derive(Debug, Clone, PartialEq)]
pub struct Compressed {
    /// Name of the scheme that produced this form (e.g. `"rle"`,
    /// `"for(l=128)"`); checked on decompression.
    pub scheme_id: String,
    /// Uncompressed element count.
    pub n: usize,
    /// Uncompressed element type.
    pub dtype: DType,
    /// Scalar parameters.
    pub params: Params,
    /// The part columns.
    pub parts: Vec<Part>,
}

impl Compressed {
    /// Find a part by role.
    pub fn part(&self, role: &'static str) -> Result<&Part> {
        self.parts
            .iter()
            .find(|p| p.role == role)
            .ok_or(CoreError::MissingPart(role))
    }

    /// Find a part by role, requiring it to be a plain column: stored
    /// in the form, or a shared dictionary read through its checked
    /// reference ([`SharedRef::column`]).
    pub fn plain_part(&self, role: &'static str) -> Result<&ColumnData> {
        match &self.part(role)?.data {
            PartData::Plain(c) => Ok(c),
            PartData::Shared(shared) => shared.column(),
            other => Err(CoreError::CorruptParts(format!(
                "part {role:?} expected plain, found {}",
                part_kind(other)
            ))),
        }
    }

    /// Find a part by role, requiring a bit-packed payload.
    pub fn packed_part(&self, role: &'static str) -> Result<&lcdc_bitpack::Packed> {
        match &self.part(role)?.data {
            PartData::Packed(p) => Ok(p),
            other => Err(CoreError::CorruptParts(format!(
                "part {role:?} expected packed, found {}",
                part_kind(other)
            ))),
        }
    }

    /// The form's reference to a shared dictionary, if it holds one.
    pub fn shared_part(&self) -> Option<&SharedRef> {
        self.parts.iter().find_map(|p| match &p.data {
            PartData::Shared(r) => Some(r),
            _ => None,
        })
    }

    /// The shared dictionary this form references, when one is
    /// attached.
    pub fn shared_dict(&self) -> Option<&Arc<SharedDict>> {
        self.shared_part()?.dict.as_ref()
    }

    /// Attach `dict` to the form's shared part — what a container does
    /// with every form it stored against that dictionary. A form with
    /// no shared part, or one expecting a dictionary of another length,
    /// is [`CoreError::CorruptParts`].
    pub fn attach_shared(&mut self, dict: &Arc<SharedDict>) -> Result<()> {
        let reference = self
            .parts
            .iter_mut()
            .find_map(|p| match &mut p.data {
                PartData::Shared(r) => Some(r),
                _ => None,
            })
            .ok_or_else(|| CoreError::CorruptParts("no shared part to attach to".into()))?;
        if reference.len != dict.len() {
            return Err(CoreError::CorruptParts(format!(
                "a shared dictionary of {} entries given to a form expecting {}",
                dict.len(),
                reference.len
            )));
        }
        reference.dict = Some(Arc::clone(dict));
        Ok(())
    }

    /// Total compressed size in bytes: part payloads plus 8 bytes per
    /// scalar parameter. The same model is applied to every scheme, so
    /// ratios are comparable.
    pub fn compressed_bytes(&self) -> usize {
        self.parts.iter().map(|p| p.data.bytes()).sum::<usize>() + 8 * self.params.len()
    }

    /// Size of the column this decompresses to.
    pub fn uncompressed_bytes(&self) -> usize {
        self.n * self.dtype.bytes()
    }

    /// Compression ratio (uncompressed / compressed); `inf`-free: returns
    /// `None` when the compressed size is zero.
    pub fn ratio(&self) -> Option<f64> {
        let cb = self.compressed_bytes();
        (cb > 0).then(|| self.uncompressed_bytes() as f64 / cb as f64)
    }

    /// Verify the recorded scheme id matches the decompressing scheme.
    pub fn check_scheme(&self, expected: &str) -> Result<()> {
        if self.scheme_id == expected {
            Ok(())
        } else {
            Err(CoreError::SchemeMismatch {
                expected: expected.to_string(),
                found: self.scheme_id.clone(),
            })
        }
    }
}

fn part_kind(data: &PartData) -> &'static str {
    match data {
        PartData::Plain(_) => "plain",
        PartData::Packed(_) => "packed",
        PartData::Nested(_) => "nested",
        PartData::Shared(_) => "shared",
    }
}

/// A lightweight compression scheme: a pair of total maps between plain
/// columns and columnar compressed forms, with optional extras (an
/// operator-DAG decompression plan, a size floor for the chooser).
///
/// Schemes are plain values, shareable across threads: a store builds
/// a segment's scheme once and every worker decodes through it.
pub trait Scheme: std::fmt::Debug + Send + Sync {
    /// Canonical name, including parameters (e.g. `"for(l=128)"`).
    fn name(&self) -> String;

    /// Compress a plain column.
    ///
    /// Errors with [`CoreError::NotRepresentable`] when the scheme cannot
    /// encode the column (lossy fits are never silently accepted).
    fn compress(&self, col: &ColumnData) -> Result<Compressed>;

    /// Rebuild the column from the parts of a form this scheme's
    /// [`Scheme::compress`] produced — the exact inverse. Parts are read
    /// through `parts` only, so a nested part arrives decoded (and, when
    /// its scheme can, streamed) without the form being rewritten; the
    /// output column is the one large allocation.
    fn decode(&self, parts: &Parts<'_>) -> Result<ColumnData>;

    /// The scheme that compressed the part with this role, for a
    /// composed scheme ([`crate::compose::Cascade`]); `None` otherwise.
    fn inner_for(&self, role: &str) -> Option<&dyn Scheme> {
        let _ = role;
        None
    }

    /// Decompress — the exact inverse of [`Scheme::compress`]: check the
    /// form's scheme id, then [`Scheme::decode`] its parts.
    fn decompress(&self, c: &Compressed) -> Result<ColumnData> {
        c.check_scheme(&self.name())?;
        self.decode(&Parts::new(c, &|role| self.inner_for(role)))
    }

    /// Hand the decompressed column to `f` in row order, a chunk at a
    /// time, as transport values ([`crate::column`]) — for a consumer
    /// (a query sink) that folds values without needing the column.
    /// Checks the form's scheme id, then [`Scheme::visit_parts`].
    /// Validation is exactly [`Scheme::decompress`]'s, and so are the
    /// errors; after an error, chunks already handed out are
    /// meaningless.
    fn visit(&self, c: &Compressed, f: &mut dyn FnMut(&[u64])) -> Result<()> {
        c.check_scheme(&self.name())?;
        self.visit_parts(&Parts::new(c, &|role| self.inner_for(role)), f)
    }

    /// [`Scheme::visit`] over the parts of a form (a cascade's outer
    /// scheme visits the cascade's form). FOR, NS, VARWIDTH, DICT,
    /// LINEAR, POLY2, DELTA, DFOR and ID run the operator of their
    /// [`Scheme::decode`] on each chunk as it is unpacked; the default
    /// decodes and hands out the column.
    fn visit_parts(&self, parts: &Parts<'_>, f: &mut dyn FnMut(&[u64])) -> Result<()> {
        PartStream::plain(Cow::Owned(self.decode(parts)?)).for_each_chunk(f);
        Ok(())
    }

    /// Decompress as a stream of chunks, for an outer scheme to fuse its
    /// own operator into. The default decompresses and streams the
    /// result; schemes whose payload can be unpacked chunk by chunk
    /// (NS, variable-width NS) stream it directly.
    fn stream<'a>(&self, c: &'a Compressed) -> Result<PartStream<'a>> {
        Ok(PartStream::plain(Cow::Owned(self.decompress(c)?)))
    }

    /// The decompression expressed as a DAG of columnar operators
    /// (Algorithms 1 and 2 of the paper). Schemes whose decompression is
    /// not naturally columnar may return [`CoreError::PlanUnsupported`].
    fn plan(&self, c: &Compressed) -> Result<Plan> {
        let _ = c;
        Err(CoreError::PlanUnsupported(self.name()))
    }

    /// Resolve part columns into `u64` transport vectors for the plan
    /// interpreter (nested parts decompressed by their inner scheme).
    fn resolve_parts(&self, c: &Compressed) -> Result<Vec<Vec<u64>>> {
        let inner = |role: &str| self.inner_for(role);
        let parts = Parts::new(c, &inner);
        c.parts
            .iter()
            .map(|p| Ok(parts.stream(p.role)?.to_transport()))
            .collect()
    }

    /// A proven lower bound on the size of this scheme's output, for the
    /// scheme chooser. `Some(f)`: any successful [`Scheme::compress`] of
    /// a column with these statistics has `compressed_bytes() >= f`.
    /// `None`: `compress` returns [`CoreError::NotRepresentable`]. The
    /// default, `Some(0)`, is always sound.
    fn floor(&self, stats: &ColumnStats) -> Option<usize> {
        let _ = stats;
        Some(0)
    }

    /// Statistics of the plain part `role` that [`Scheme::compress`]
    /// produces for a column with these statistics, as bounds (see
    /// [`crate::stats`]) — the shape a cascade's inner scheme is floored
    /// over. [`Scheme::floor`] must count that part at exactly its
    /// [`ColumnStats::plain_bytes`]. `None` when not derived.
    fn part_stats(&self, stats: &ColumnStats, role: &str) -> Option<ColumnStats> {
        let _ = (stats, role);
        None
    }

    /// *Partial decompression*: materialise one part column as plain data
    /// without touching the rest of the compressed form. For RLE this
    /// yields e.g. just the run values — the handle that lets query
    /// operators work per-run instead of per-row (paper, Lessons 1).
    /// Packed parts unpack to `u64`; nested parts are decompressed by
    /// their inner scheme.
    fn decompress_part(&self, c: &Compressed, role: &'static str) -> Result<ColumnData> {
        let inner = |role: &str| self.inner_for(role);
        Ok(Parts::new(c, &inner).column(role)?.into_owned())
    }
}

/// Decompress by building the operator-DAG plan and interpreting it —
/// the paper's "decompression as query execution" path, used by tests to
/// prove plan ≡ direct decompression.
pub fn decompress_via_plan(scheme: &dyn Scheme, c: &Compressed) -> Result<ColumnData> {
    let plan = scheme.plan(c)?;
    let parts = scheme.resolve_parts(c)?;
    let out = plan.execute(&parts)?;
    Ok(ColumnData::from_transport(c.dtype, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_compressed() -> Compressed {
        Compressed {
            scheme_id: "dummy".into(),
            n: 4,
            dtype: DType::U32,
            params: Params::new().with("l", 2),
            parts: vec![Part {
                role: "values",
                data: PartData::Plain(ColumnData::U32(vec![1, 2])),
            }],
        }
    }

    #[test]
    fn part_lookup() {
        let c = dummy_compressed();
        assert!(c.part("values").is_ok());
        assert_eq!(c.part("nope"), Err(CoreError::MissingPart("nope")));
        assert!(c.plain_part("values").is_ok());
        assert!(c.packed_part("values").is_err());
    }

    #[test]
    fn size_model() {
        let c = dummy_compressed();
        // 2×u32 payload + one 8-byte param.
        assert_eq!(c.compressed_bytes(), 8 + 8);
        assert_eq!(c.uncompressed_bytes(), 16);
        assert_eq!(c.ratio(), Some(1.0));
    }

    #[test]
    fn scheme_check() {
        let c = dummy_compressed();
        assert!(c.check_scheme("dummy").is_ok());
        assert!(matches!(
            c.check_scheme("rle"),
            Err(CoreError::SchemeMismatch { .. })
        ));
    }

    #[test]
    fn params_set_get() {
        let mut p = Params::new();
        p.set("a", 1);
        p.set("b", 2);
        p.set("a", 3);
        assert_eq!(p.get("a"), Some(3));
        assert_eq!(p.len(), 2);
        assert!(p.require("c").is_err());
        let pairs: Vec<_> = p.iter().collect();
        assert_eq!(pairs, vec![("a", 3), ("b", 2)]);
    }

    #[test]
    fn part_data_lens() {
        let plain = PartData::Plain(ColumnData::U64(vec![1, 2, 3]));
        assert_eq!(plain.len(), 3);
        assert_eq!(plain.bytes(), 24);
        let bits = PartData::Packed(lcdc_bitpack::Packed::pack(&[1, 2, 3], 2).unwrap());
        assert_eq!(bits.len(), 3);
        assert_eq!(bits.bytes(), 8);
        assert!(!bits.is_empty());
    }
}
