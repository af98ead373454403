//! Compressed column segments.
//!
//! A segment is the unit of compression choice and of scan pruning: it
//! carries its compressed form, the scheme expression that produced it,
//! and a zone map (numeric min/max) — which for FOR-family schemes is
//! exactly the model metadata the paper says can "speed up selections".
//!
//! The expression is parsed once, when the segment is built or read:
//! the segment holds the built [`Scheme`] every decode goes through and
//! the [`SchemeKind`] every tier ladder matches on.

use crate::{Result, StoreError};
use lcdc_colops::Bitmap;
use lcdc_core::chooser;
use lcdc_core::expr::parse_expr;
use lcdc_core::schemes::{dict, rle, rpe};
use lcdc_core::{ColumnData, Compressed, CoreError, PartData, Parts, Scheme};
use std::borrow::Cow;
use std::sync::Arc;

/// How a table compresses its segments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompressionPolicy {
    /// Leave everything plain (`id`) — the uncompressed baseline.
    None,
    /// One fixed scheme expression for every segment.
    Fixed(String),
    /// Per-segment choice by the core chooser ([`chooser::choose_best`]).
    Auto,
}

/// The outer scheme of a segment's expression, as the tier ladders see
/// it: `Dict` for `dict[codes=ns]`, `For` for `for(l=128)[offsets=ns]`.
/// Every scheme-keyed dispatch (predicate tiers, code-space group-by and
/// join, structural distinct) matches on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeKind {
    /// One repeated value.
    Const,
    /// Dictionary + codes.
    Dict,
    /// Run values + run lengths.
    Rle,
    /// Run values + run end positions.
    Rpe,
    /// Frame of reference (either reference choice).
    For,
    /// Constant model + exceptions.
    Sparse,
    /// Plain (non-zigzag) null suppression: a packed payload whose
    /// width bounds every value.
    Ns,
    /// Anything else.
    Other,
}

impl SchemeKind {
    /// The kind of a scheme expression's text.
    pub fn of_expr(text: &str) -> Result<SchemeKind> {
        Ok(SchemeKind::of_name(&parse_expr(text)?.name))
    }

    fn of_name(name: &str) -> SchemeKind {
        match name {
            "const" => SchemeKind::Const,
            "dict" => SchemeKind::Dict,
            "rle" => SchemeKind::Rle,
            "rpe" => SchemeKind::Rpe,
            "for" => SchemeKind::For,
            "sparse" => SchemeKind::Sparse,
            "ns" => SchemeKind::Ns,
            _ => SchemeKind::Other,
        }
    }
}

/// One compressed segment of one column.
///
/// The public fields are the segment's record; the scheme built from
/// `expr` is private and fixed at construction ([`Segment::build`],
/// [`Segment::new`]), which checks it is the one `compressed` names.
#[derive(Debug, Clone)]
pub struct Segment {
    /// The compressed rows.
    pub compressed: Compressed,
    /// The scheme expression that produced `compressed` (parseable).
    pub expr: String,
    /// Numeric minimum over the segment (zone map).
    pub min: i128,
    /// Numeric maximum over the segment (zone map).
    pub max: i128,
    scheme: Arc<dyn Scheme>,
    kind: SchemeKind,
}

/// Parse and build an expression once: the scheme and its kind.
fn parse(expr: &str) -> Result<(Arc<dyn Scheme>, SchemeKind)> {
    let parsed = parse_expr(expr)?;
    Ok((
        Arc::from(parsed.build()?),
        SchemeKind::of_name(&parsed.name),
    ))
}

impl Segment {
    /// Compress `rows` under `policy`.
    pub fn build(rows: &ColumnData, policy: &CompressionPolicy) -> Result<Segment> {
        let (min, max) = rows.min_max_numeric().unwrap_or((0, -1));
        let expr = match policy {
            CompressionPolicy::None => "id",
            CompressionPolicy::Fixed(text) => text,
            CompressionPolicy::Auto => {
                let choice = chooser::choose_best(rows)?;
                return Segment::new(choice.compressed, choice.expr, min, max);
            }
        };
        let (scheme, kind) = parse(expr)?;
        Ok(Segment {
            compressed: scheme.compress(rows)?,
            expr: expr.to_string(),
            min,
            max,
            scheme,
            kind,
        })
    }

    /// A segment from its record — a frame read back, or one built by
    /// hand. `expr` must parse to the scheme `compressed` names; a
    /// mismatch is [`CoreError::SchemeMismatch`].
    pub fn new(compressed: Compressed, expr: String, min: i128, max: i128) -> Result<Segment> {
        let (scheme, kind) = parse(&expr)?;
        compressed.check_scheme(&scheme.name())?;
        Ok(Segment {
            compressed,
            expr,
            min,
            max,
            scheme,
            kind,
        })
    }

    /// Number of rows in the segment.
    pub fn num_rows(&self) -> usize {
        self.compressed.n
    }

    /// Compressed size in bytes.
    pub fn compressed_bytes(&self) -> usize {
        self.compressed.compressed_bytes()
    }

    /// The segment's scheme, built once from `expr`.
    pub fn scheme(&self) -> &dyn Scheme {
        self.scheme.as_ref()
    }

    /// The segment's scheme kind, resolved once from `expr`.
    pub fn kind(&self) -> SchemeKind {
        self.kind
    }

    /// Fully decompress the segment.
    pub fn decompress(&self) -> Result<ColumnData> {
        Ok(self.scheme.decompress(&self.compressed)?)
    }

    /// Hand the segment's rows to `f` in order, a chunk of transport
    /// values at a time, without building the column where the scheme
    /// can stream ([`Scheme::visit`]). Checks that exactly
    /// [`Segment::num_rows`] values went out: the sinks index row
    /// structure (codes, runs) by stream position.
    pub fn visit(&self, f: &mut dyn FnMut(&[u64])) -> Result<()> {
        let mut seen = 0usize;
        self.scheme.visit(&self.compressed, &mut |chunk| {
            seen += chunk.len();
            if seen <= self.num_rows() {
                f(chunk);
            }
        })?;
        if seen != self.num_rows() {
            return Err(StoreError::Shape(format!(
                "segment of {} rows streamed {seen} values",
                self.num_rows()
            )));
        }
        Ok(())
    }

    /// [`Segment::visit`] restricted to the rows `mask` selects: each
    /// chunk's selected values, compacted and in row order (a chunk
    /// with none selected is skipped). The mask must cover exactly the
    /// segment's rows.
    pub(crate) fn visit_masked(&self, mask: &Bitmap, f: &mut dyn FnMut(&[u64])) -> Result<()> {
        if mask.len() != self.num_rows() {
            return Err(StoreError::Shape(format!(
                "a selection of {} rows over a segment of {}",
                mask.len(),
                self.num_rows()
            )));
        }
        let (mut row, mut picked) = (0usize, Vec::new());
        self.visit(&mut |chunk| {
            picked.clear();
            // A mask word at a time: whole words copy, empty ones cost
            // nothing, and the rest pick their set bits.
            for piece in chunk.chunks(64) {
                let mut bits = mask.bits_at(row) & (u64::MAX >> (64 - piece.len()));
                row += piece.len();
                if bits.count_ones() as usize == piece.len() {
                    picked.extend_from_slice(piece);
                    continue;
                }
                while bits != 0 {
                    picked.extend(piece.get(bits.trailing_zeros() as usize));
                    bits &= bits - 1;
                }
            }
            if !picked.is_empty() {
                f(&picked);
            }
        })
    }

    /// A part column of the segment, decoded alone (partial
    /// decompression): borrowed when stored plain.
    fn part(&self, role: &'static str) -> Result<Cow<'_, ColumnData>> {
        if let PartData::Plain(col) = &self.compressed.part(role)?.data {
            return Ok(Cow::Borrowed(col));
        }
        Ok(Cow::Owned(
            self.scheme.decompress_part(&self.compressed, role)?,
        ))
    }

    /// Extract `(run values, exclusive run end positions)` from an
    /// RLE/RPE segment via partial decompression; `None` for other
    /// schemes. The single home of the RLE-family part layout — the
    /// predicate run tier, the run-weighted aggregation, and the
    /// planner's group-by sink all build on it.
    pub fn run_structure(&self) -> Result<Option<(ColumnData, Vec<u64>)>> {
        Ok(match self.kind {
            SchemeKind::Rle => {
                let lengths = self.part(rle::ROLE_LENGTHS)?;
                let ends = lcdc_colops::prefix_sum_inclusive(&lengths.as_transport());
                Some((self.part(rle::ROLE_VALUES)?.into_owned(), ends))
            }
            SchemeKind::Rpe => {
                let ends = match self.part(rpe::ROLE_POSITIONS)?.into_owned() {
                    ColumnData::U64(positions) => positions,
                    other => other.to_transport(),
                };
                Some((self.part(rpe::ROLE_VALUES)?.into_owned(), ends))
            }
            _ => None,
        })
    }

    /// A DICT segment's dictionary, in code order — checked to be of
    /// the segment's type, as the gather's output is.
    pub(crate) fn dictionary(&self) -> Result<Cow<'_, ColumnData>> {
        let entries = self.part(dict::ROLE_DICT)?;
        if entries.dtype() != self.compressed.dtype {
            return Err(CoreError::CorruptParts(format!(
                "{} dictionary in a {} segment",
                entries.dtype().name(),
                self.compressed.dtype.name()
            ))
            .into());
        }
        Ok(entries)
    }

    /// Internal consistency check used by table assembly.
    pub fn check_rows(&self, expected: usize) -> Result<()> {
        if self.num_rows() == expected {
            Ok(())
        } else {
            Err(StoreError::Shape(format!(
                "segment holds {} rows, expected {expected}",
                self.num_rows()
            )))
        }
    }
}

/// A DICT segment read in code space: its dictionary and one code per
/// row, unpacked once into a caller's `u32` scratch and validated once,
/// so the code-space tiers may index by code — every code inside the
/// dictionary. A checksummed frame can still carry a code past its
/// dictionary; full decompression rejects that in the gather, and this
/// does with the same error kind.
pub(crate) struct DictView<'s, 'c> {
    /// The dictionary entries, in code order.
    pub(crate) entries: Cow<'s, ColumnData>,
    /// One code per row, each below `entries.len()`.
    pub(crate) codes: &'c [u32],
}

impl<'s, 'c> DictView<'s, 'c> {
    /// View `seg` (which must be [`SchemeKind::Dict`]), unpacking its
    /// codes into `scratch` — and, given `counts`, counting the rows of
    /// every code (`counts[code]`) in the same pass.
    pub(crate) fn new(
        seg: &'s Segment,
        scratch: &'c mut Vec<u32>,
        mut counts: Option<&mut Vec<u32>>,
    ) -> Result<DictView<'s, 'c>> {
        let entries = seg.dictionary()?;
        let n = seg.num_rows();
        let scheme = seg.scheme();
        let inner = |role: &str| scheme.inner_for(role);
        let codes = Parts::new(&seg.compressed, &inner).stream(dict::ROLE_CODES)?;
        // `entries.len()` codes fit a `u32` for any dictionary a `u32`
        // can index; a larger one is as corrupt as a code past its end.
        let limit = (entries.len() as u64).min(1 << 32);
        let mut bad = None::<u64>;
        scratch.clear();
        if let Some(counts) = counts.as_deref_mut() {
            counts.clear();
            counts.resize(entries.len(), 0);
        }
        if codes.len() == n {
            scratch.reserve(n);
            codes.for_each_chunk(|chunk| {
                let start = scratch.len();
                scratch.extend(chunk.iter().map(|&code| code as u32));
                // The chunk's OR caps its codes: only a chunk reaching
                // `limit` needs the per-code test (of the narrowed
                // codes, once no high bit was lost narrowing).
                let or = chunk.iter().fold(0, |or, &code| or | code);
                let narrowed = scratch.get(start..).unwrap_or_default();
                if or >= limit
                    && (or >> 32 != 0
                        || narrowed
                            .iter()
                            .fold(false, |past, &code| past | (u64::from(code) >= limit)))
                {
                    bad = bad.max(chunk.iter().copied().max());
                }
                if let (None, Some(counts)) = (bad, counts.as_deref_mut()) {
                    for &code in narrowed {
                        if let Some(count) = counts.get_mut(code as usize) {
                            *count += 1;
                        }
                    }
                }
            });
        }
        if codes.len() != n || bad.is_some() {
            return Err(CoreError::CorruptParts(format!(
                "dict segment of {n} rows holds {} codes up to {bad:?} over {} entries",
                codes.len(),
                entries.len()
            ))
            .into());
        }
        Ok(DictView {
            entries,
            codes: scratch,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> ColumnData {
        ColumnData::U64((0..500u64).map(|i| 1000 + i % 40).collect())
    }

    #[test]
    fn fixed_policy_round_trips() {
        let s = Segment::build(
            &rows(),
            &CompressionPolicy::Fixed("for(l=128)[offsets=ns]".into()),
        )
        .unwrap();
        assert_eq!(s.decompress().unwrap(), rows());
        assert_eq!(s.num_rows(), 500);
        assert!(s.compressed_bytes() < rows().uncompressed_bytes());
    }

    #[test]
    fn auto_policy_picks_something_small() {
        let s = Segment::build(&rows(), &CompressionPolicy::Auto).unwrap();
        assert!(
            s.compressed_bytes() * 4 < rows().uncompressed_bytes(),
            "{}",
            s.expr
        );
        assert_eq!(s.decompress().unwrap(), rows());
    }

    #[test]
    fn none_policy_is_id() {
        let s = Segment::build(&rows(), &CompressionPolicy::None).unwrap();
        assert_eq!(s.expr, "id");
        assert_eq!(s.compressed_bytes(), rows().uncompressed_bytes());
    }

    #[test]
    fn zone_map_decides_from_min_max() {
        // The zone map lives on the segment; the decision logic is
        // predicate-shaped (`Predicate::zone_decides`).
        use crate::predicate::Predicate;
        let s = Segment::build(&rows(), &CompressionPolicy::Auto).unwrap();
        assert_eq!((s.min, s.max), (1000, 1039));
        let range = |lo, hi| Predicate::Range { lo, hi };
        assert_eq!(range(0, 999).zone_decides(s.min, s.max), Some(false));
        assert_eq!(range(1040, 99999).zone_decides(s.min, s.max), Some(false));
        assert_eq!(range(1039, 1039).zone_decides(s.min, s.max), None);
        assert_eq!(range(1000, 1039).zone_decides(s.min, s.max), Some(true));
        assert_eq!(range(1001, 1039).zone_decides(s.min, s.max), None);
    }

    #[test]
    fn bad_fixed_expression_fails() {
        assert!(Segment::build(&rows(), &CompressionPolicy::Fixed("zstd".into())).is_err());
    }

    #[test]
    fn check_rows_detects_mismatch() {
        let s = Segment::build(&rows(), &CompressionPolicy::None).unwrap();
        assert!(s.check_rows(500).is_ok());
        assert!(s.check_rows(501).is_err());
    }
}
