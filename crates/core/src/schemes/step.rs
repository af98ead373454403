//! STEPFUNCTION — fixed-segment-length step functions (paper §II-B).
//!
//! "A compression scheme of fixed-segment-length step functions is not
//! very useful as a stand-alone scheme [...] but it is quite useful
//! conceptually, allowing for the following formulation:
//! `FOR ≡ (STEPFUNCTION + NS)`."
//!
//! Exactly per that conception, this scheme only *represents* columns
//! that truly are step functions (every length-ℓ segment constant);
//! anything else is [`crate::error::CoreError::NotRepresentable`]. Its
//! real use is as the model half of the model+residual view of FOR — see
//! [`crate::rewrite::for_to_step_plus_ns`].

use crate::column::ColumnData;
use crate::error::{CoreError, Result};
use crate::parts::Parts;
use crate::plan::{Node, Plan};
use crate::scheme::{Compressed, Params, Part, PartData, Scheme};
use crate::stats::ColumnStats;
use crate::with_column;
use lcdc_colops::BinOpKind;

/// The step-function scheme with fixed segment length.
#[derive(Debug, Clone, Copy)]
pub struct StepFunction {
    /// Segment length ℓ.
    pub seg_len: usize,
}

impl StepFunction {
    /// Construct with the given segment length (clamped to ≥ 1).
    pub fn new(seg_len: usize) -> Self {
        StepFunction {
            seg_len: seg_len.max(1),
        }
    }
}

/// Role of the per-segment level part.
pub const ROLE_REFS: &str = "refs";

impl Scheme for StepFunction {
    fn name(&self) -> String {
        format!("step(l={})", self.seg_len)
    }

    fn compress(&self, col: &ColumnData) -> Result<Compressed> {
        let refs = with_column!(col, |v| {
            let mut refs = Vec::with_capacity(v.len().div_ceil(self.seg_len));
            for (seg, chunk) in v.chunks(self.seg_len).enumerate() {
                let level = chunk[0];
                if let Some(off) = chunk.iter().position(|&x| x != level) {
                    return Err(CoreError::NotRepresentable(format!(
                        "column is not a step function at segment {seg}, element {off}"
                    )));
                }
                refs.push(level);
            }
            ColumnData::from_transport(
                col.dtype(),
                refs.iter()
                    .map(|&x| lcdc_colops::Scalar::to_u64(x))
                    .collect(),
            )
        });
        Ok(Compressed {
            scheme_id: self.name(),
            n: col.len(),
            dtype: col.dtype(),
            params: Params::new().with("l", self.seg_len as i64),
            parts: vec![Part {
                role: ROLE_REFS,
                data: PartData::Plain(refs),
            }],
        })
    }

    fn decode(&self, parts: &Parts<'_>) -> Result<ColumnData> {
        let c = parts.form();
        let refs = parts.column(ROLE_REFS)?;
        let out =
            lcdc_colops::segment::replicate_segments(&refs.as_transport(), self.seg_len, c.n)?;
        Ok(ColumnData::from_transport(c.dtype, out))
    }

    /// Algorithm 2 *without its final addition*: the paper's "keep the
    /// initial steps, and ignore the addition".
    fn plan(&self, c: &Compressed) -> Result<Plan> {
        Plan::new(
            vec![
                Node::Const { value: 1, len: c.n }, // ones
                Node::PrefixSumExclusive(0),        // id (0-based)
                Node::BinaryScalar {
                    op: BinOpKind::Div,
                    lhs: 1,
                    rhs: self.seg_len as u64,
                },
                Node::Part(0), // refs
                Node::Gather {
                    values: 3,
                    indices: 2,
                }, // replicated
            ],
            4,
        )
    }

    /// Exact: the `l` parameter and one level per segment — or `None`
    /// when block statistics at `l` show a segment holding two runs.
    fn floor(&self, stats: &ColumnStats) -> Option<usize> {
        if let Some(blocks) = stats.blocks_at(self.seg_len) {
            if blocks.iter().any(|b| b.runs > 1) {
                return None;
            }
        }
        Some(8 + stats.n.div_ceil(self.seg_len) * stats.dtype.bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::decompress_via_plan;

    #[test]
    fn round_trip_exact_step() {
        let col = ColumnData::U32(vec![5, 5, 5, 9, 9, 9, 2, 2]);
        let s = StepFunction::new(3);
        let c = s.compress(&col).unwrap();
        assert_eq!(
            c.plain_part(ROLE_REFS).unwrap(),
            &ColumnData::U32(vec![5, 9, 2])
        );
        assert_eq!(s.decompress(&c).unwrap(), col);
        assert_eq!(decompress_via_plan(&s, &c).unwrap(), col);
    }

    #[test]
    fn rejects_non_step() {
        let col = ColumnData::U32(vec![5, 5, 6, 9]);
        assert!(matches!(
            StepFunction::new(3).compress(&col),
            Err(CoreError::NotRepresentable(_))
        ));
        let stats = ColumnStats::collect_with_seg_len(&col, 3);
        assert_eq!(StepFunction::new(3).floor(&stats), None);
    }

    #[test]
    fn ragged_tail_segment() {
        let col = ColumnData::I64(vec![-1, -1, -1, 7, 7]);
        let s = StepFunction::new(3);
        let c = s.compress(&col).unwrap();
        assert_eq!(s.decompress(&c).unwrap(), col);
        assert_eq!(decompress_via_plan(&s, &c).unwrap(), col);
    }

    #[test]
    fn empty_column() {
        let col = ColumnData::U64(vec![]);
        let s = StepFunction::new(4);
        let c = s.compress(&col).unwrap();
        assert_eq!(s.decompress(&c).unwrap(), col);
    }

    #[test]
    fn seg_len_clamped() {
        assert_eq!(StepFunction::new(0).seg_len, 1);
    }

    #[test]
    fn name_includes_param() {
        assert_eq!(StepFunction::new(64).name(), "step(l=64)");
    }

    #[test]
    fn strong_ratio_on_true_steps() {
        let col = ColumnData::U64((0..128u64).flat_map(|s| [s * 100; 128]).collect());
        let c = StepFunction::new(128).compress(&col).unwrap();
        assert!(c.ratio().unwrap() > 100.0);
    }
}
