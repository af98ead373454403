//! Compressed column segments.
//!
//! A segment is the unit of compression choice and of scan pruning: it
//! carries its compressed form, the scheme expression that produced it,
//! and a zone map (numeric min/max) — which for FOR-family schemes is
//! exactly the model metadata the paper says can "speed up selections".

use crate::{Result, StoreError};
use lcdc_core::chooser;
use lcdc_core::expr::parse_scheme;
use lcdc_core::{ColumnData, Compressed, Scheme};

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

/// One compressed segment of one column.
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
}

impl Segment {
    /// Compress `rows` under `policy`.
    pub fn build(rows: &ColumnData, policy: &CompressionPolicy) -> Result<Segment> {
        let (min, max) = rows.min_max_numeric().unwrap_or((0, -1));
        let (expr, compressed) = match policy {
            CompressionPolicy::None => ("id".to_string(), parse_scheme("id")?.compress(rows)?),
            CompressionPolicy::Fixed(text) => (text.clone(), parse_scheme(text)?.compress(rows)?),
            CompressionPolicy::Auto => {
                let choice = chooser::choose_best(rows)?;
                (choice.expr, choice.compressed)
            }
        };
        Ok(Segment {
            compressed,
            expr,
            min,
            max,
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

    /// Rebuild the scheme object for this segment.
    pub fn scheme(&self) -> Result<Box<dyn Scheme>> {
        Ok(parse_scheme(&self.expr)?)
    }

    /// The base name of the segment's scheme — `"dict"` for
    /// `dict[codes=ns]`, `"for"` for `for(l=128)[offsets=ns]` — the
    /// single tag every scheme-keyed tier dispatch (predicate pushdown,
    /// code-space group-by, structural distinct) switches on.
    pub fn scheme_base(&self) -> &str {
        let id = self.compressed.scheme_id.as_str();
        id.split(['(', '[']).next().unwrap_or(id)
    }

    /// Fully decompress the segment.
    pub fn decompress(&self) -> Result<ColumnData> {
        Ok(self.scheme()?.decompress(&self.compressed)?)
    }

    /// Extract `(run values, exclusive run end positions)` from an
    /// RLE/RPE segment via partial decompression; `None` for other
    /// schemes. The single home of the RLE-family part layout — the
    /// predicate run tier, the run-weighted aggregation, and the
    /// planner's group-by sink all build on it.
    pub fn run_structure(&self) -> Result<Option<(ColumnData, Vec<u64>)>> {
        use lcdc_core::schemes::{rle, rpe};
        let scheme_id = self.compressed.scheme_id.as_str();
        if scheme_id == "rle" || scheme_id.starts_with("rle[") {
            let scheme = self.scheme()?;
            let values = scheme.decompress_part(&self.compressed, rle::ROLE_VALUES)?;
            let lengths = scheme.decompress_part(&self.compressed, rle::ROLE_LENGTHS)?;
            let ends = lcdc_colops::prefix_sum_inclusive(&lengths.as_transport());
            return Ok(Some((values, ends)));
        }
        if scheme_id == "rpe" || scheme_id.starts_with("rpe[") {
            let scheme = self.scheme()?;
            let values = scheme.decompress_part(&self.compressed, rpe::ROLE_VALUES)?;
            let ends = match scheme.decompress_part(&self.compressed, rpe::ROLE_POSITIONS)? {
                ColumnData::U64(positions) => positions,
                other => other.to_transport(),
            };
            return Ok(Some((values, ends)));
        }
        Ok(None)
    }

    /// The `(dictionary, codes)` parts of a DICT segment, validated
    /// once so the code-space tiers may index by code: one code per
    /// row, every code inside the dictionary. A checksummed frame can
    /// still carry a code past its dictionary; full decompression
    /// rejects that in `gather`, and this does with the same error.
    pub(crate) fn dict_parts(&self) -> Result<(ColumnData, ColumnData)> {
        use lcdc_core::schemes::dict;
        let scheme = self.scheme()?;
        let values = scheme.decompress_part(&self.compressed, dict::ROLE_DICT)?;
        let codes = scheme.decompress_part(&self.compressed, dict::ROLE_CODES)?;
        let max_code = codes.as_transport().iter().copied().max();
        if codes.len() != self.num_rows() || max_code.is_some_and(|c| c >= values.len() as u64) {
            return Err(lcdc_core::CoreError::CorruptParts(format!(
                "dict segment of {} rows holds {} codes up to {max_code:?} over {} entries",
                self.num_rows(),
                codes.len(),
                values.len()
            ))
            .into());
        }
        Ok((values, codes))
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
