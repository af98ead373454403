//! CONST — columns with a single repeated value.
//!
//! The degenerate bottom of the paper's §II-B model ladder: a step
//! function with *one* step, a FOR form whose offsets are all zero, an
//! RLE form with one run. Not useful stand-alone — like STEPFUNCTION it
//! "captures a tiny fragment of potential columns" — but it is the model
//! half of [`super::Sparse`] (constant model + L0-metric patches) and the
//! natural fixpoint of the decomposition identities: every model family
//! in the crate degenerates to CONST when its parameters allow no
//! variation.

use crate::column::ColumnData;
use crate::error::{CoreError, Result};
use crate::parts::Parts;
use crate::plan::{Node, Plan};
use crate::scheme::{Compressed, Params, Part, PartData, Scheme};
use crate::stats::ColumnStats;
use crate::with_column;

/// The constant-column scheme.
#[derive(Debug, Clone, Copy, Default)]
pub struct Const;

/// Role of the single-element value part (empty for an empty column).
pub const ROLE_VALUE: &str = "value";

impl Scheme for Const {
    fn name(&self) -> String {
        "const".to_string()
    }

    fn compress(&self, col: &ColumnData) -> Result<Compressed> {
        let value = with_column!(col, |v| {
            match v.first() {
                None => ColumnData::empty(col.dtype()),
                Some(&first) => {
                    if let Some(off) = v.iter().position(|&x| x != first) {
                        return Err(CoreError::NotRepresentable(format!(
                            "column is not constant at element {off}"
                        )));
                    }
                    ColumnData::from_transport(
                        col.dtype(),
                        vec![lcdc_colops::Scalar::to_u64(first)],
                    )
                }
            }
        });
        Ok(Compressed {
            scheme_id: self.name(),
            n: col.len(),
            dtype: col.dtype(),
            params: Params::new(),
            parts: vec![Part {
                role: ROLE_VALUE,
                data: PartData::Plain(value),
            }],
        })
    }

    fn decode(&self, parts: &Parts<'_>) -> Result<ColumnData> {
        let c = parts.form();
        let value = parts.column(ROLE_VALUE)?;
        if c.n == 0 {
            return Ok(ColumnData::empty(c.dtype));
        }
        let v = value.get_transport(0).ok_or_else(|| {
            CoreError::CorruptParts("non-empty const form with empty value part".into())
        })?;
        Ok(ColumnData::from_transport(
            c.dtype,
            lcdc_colops::constant(v, c.n),
        ))
    }

    /// A single `Constant` operator — the shortest decompression DAG of
    /// any scheme in the crate.
    fn plan(&self, c: &Compressed) -> Result<Plan> {
        let value = if c.n == 0 {
            0
        } else {
            c.plain_part(ROLE_VALUE)?.get_transport(0).ok_or_else(|| {
                CoreError::CorruptParts("non-empty const form with empty value part".into())
            })?
        };
        Plan::new(vec![Node::Const { value, len: c.n }], 0)
    }

    /// The one value, when the column is one run at most.
    fn floor(&self, stats: &ColumnStats) -> Option<usize> {
        (stats.runs <= 1).then_some(stats.n.min(1) * stats.dtype.bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::decompress_via_plan;

    #[test]
    fn round_trip_constant() {
        let col = ColumnData::I32(vec![-7; 100]);
        let c = Const.compress(&col).unwrap();
        assert_eq!(Const.decompress(&c).unwrap(), col);
        assert_eq!(decompress_via_plan(&Const, &c).unwrap(), col);
    }

    #[test]
    fn rejects_non_constant() {
        let col = ColumnData::U64(vec![1, 1, 2]);
        assert!(matches!(
            Const.compress(&col),
            Err(CoreError::NotRepresentable(_))
        ));
    }

    #[test]
    fn empty_column() {
        let col = ColumnData::U32(vec![]);
        let c = Const.compress(&col).unwrap();
        assert_eq!(Const.decompress(&c).unwrap(), col);
        assert_eq!(decompress_via_plan(&Const, &c).unwrap(), col);
    }

    #[test]
    fn single_element() {
        let col = ColumnData::I64(vec![i64::MIN]);
        let c = Const.compress(&col).unwrap();
        assert_eq!(Const.decompress(&c).unwrap(), col);
    }

    #[test]
    fn extreme_ratio() {
        let col = ColumnData::U64(vec![42; 1 << 16]);
        let c = Const.compress(&col).unwrap();
        assert!(c.ratio().unwrap() > 60_000.0, "ratio {:?}", c.ratio());
    }

    #[test]
    fn floor_requires_single_run() {
        let col = ColumnData::U32(vec![5, 5, 5]);
        let stats = ColumnStats::collect(&col);
        assert_eq!(
            Const.floor(&stats),
            Some(Const.compress(&col).unwrap().compressed_bytes())
        );
        let stats = ColumnStats::collect(&ColumnData::U32(vec![5, 6]));
        assert_eq!(Const.floor(&stats), None);
        assert_eq!(
            Const.floor(&ColumnStats::collect(&ColumnData::U32(vec![]))),
            Some(0)
        );
    }

    #[test]
    fn corrupted_empty_value_part_reported() {
        let mut c = Const.compress(&ColumnData::U32(vec![9; 4])).unwrap();
        c.parts[0].data = PartData::Plain(ColumnData::empty(crate::column::DType::U32));
        assert!(matches!(
            Const.decompress(&c),
            Err(CoreError::CorruptParts(_))
        ));
    }
}
