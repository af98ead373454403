//! Patched STEPFUNCTION — the paper's L0-metric sentence, verbatim
//! (§II-B): "this would represent columns whose data is 'really' a step
//! function, but with the occasional divergent arbitrary-value element."
//!
//! Per length-ℓ segment the level is the segment's *most frequent*
//! value; every element that diverges from it is stored as an exception
//! `(position, value)` pair. Unlike the pure [`crate::schemes::StepFunction`]
//! this scheme is total — it trades exceptions for representability —
//! and unlike [`crate::schemes::PatchedFor`] the divergent elements are
//! arbitrary values, not wide offsets.

use crate::column::ColumnData;
use crate::error::Result;
use crate::parts::Parts;
use crate::plan::{Node, Plan};
use crate::scheme::{Compressed, Params, Part, PartData, Scheme};
use crate::stats::ColumnStats;
use lcdc_colops::BinOpKind;
use std::collections::HashMap;

/// Step function with exception patches.
#[derive(Debug, Clone, Copy)]
pub struct PatchedStep {
    /// Segment length ℓ.
    pub seg_len: usize,
}

impl PatchedStep {
    /// Construct with the given segment length (clamped to ≥ 1).
    pub fn new(seg_len: usize) -> Self {
        PatchedStep {
            seg_len: seg_len.max(1),
        }
    }
}

/// Role of the per-segment level part (native dtype).
pub const ROLE_REFS: &str = "refs";
/// Role of the exception-position part (u64 row indices).
pub const ROLE_EXC_POSITIONS: &str = "exc_positions";
/// Role of the exception-value part (u64 transport values).
pub const ROLE_EXC_VALUES: &str = "exc_values";

impl Scheme for PatchedStep {
    fn name(&self) -> String {
        format!("pstep(l={})", self.seg_len)
    }

    fn compress(&self, col: &ColumnData) -> Result<Compressed> {
        let transport = col.to_transport();
        let mut refs = Vec::with_capacity(transport.len().div_ceil(self.seg_len));
        let mut exc_positions = Vec::new();
        let mut exc_values = Vec::new();
        for (seg, chunk) in transport.chunks(self.seg_len).enumerate() {
            // Majority level: minimises the number of exceptions (the L0
            // distance from the step-function model).
            let mut freq: HashMap<u64, usize> = HashMap::with_capacity(chunk.len());
            for &v in chunk {
                *freq.entry(v).or_insert(0) += 1;
            }
            let level = freq
                .iter()
                .max_by_key(|&(v, count)| (*count, std::cmp::Reverse(*v)))
                .map(|(&v, _)| v)
                .expect("chunks are non-empty");
            refs.push(level);
            for (i, &v) in chunk.iter().enumerate() {
                if v != level {
                    exc_positions.push((seg * self.seg_len + i) as u64);
                    exc_values.push(v);
                }
            }
        }
        Ok(Compressed {
            scheme_id: self.name(),
            n: col.len(),
            dtype: col.dtype(),
            params: Params::new().with("l", self.seg_len as i64),
            parts: vec![
                Part {
                    role: ROLE_REFS,
                    data: PartData::Plain(ColumnData::from_transport(col.dtype(), refs)),
                },
                Part {
                    role: ROLE_EXC_POSITIONS,
                    data: PartData::Plain(ColumnData::U64(exc_positions)),
                },
                Part {
                    role: ROLE_EXC_VALUES,
                    data: PartData::Plain(ColumnData::U64(exc_values)),
                },
            ],
        })
    }

    fn decode(&self, parts: &Parts<'_>) -> Result<ColumnData> {
        let c = parts.form();
        let refs = parts.column(ROLE_REFS)?;
        let exc_positions = parts.column(ROLE_EXC_POSITIONS)?;
        let exc_positions = exc_positions.expect_u64("exception positions")?;
        let exc_values = parts.column(ROLE_EXC_VALUES)?;
        let exc_values = exc_values.expect_u64("exception values")?;
        let mut out =
            lcdc_colops::segment::replicate_segments(&refs.as_transport(), self.seg_len, c.n)?;
        lcdc_colops::scatter_into(exc_values, exc_positions, &mut out)?;
        Ok(ColumnData::from_transport(c.dtype, out))
    }

    /// The STEPFUNCTION plan plus one `ScatterOver` for the patches.
    fn plan(&self, c: &Compressed) -> Result<Plan> {
        Plan::new(
            vec![
                Node::Const { value: 1, len: c.n }, // %0
                Node::PrefixSumExclusive(0),        // %1 id
                Node::BinaryScalar {
                    op: BinOpKind::Div,
                    lhs: 1,
                    rhs: self.seg_len as u64,
                },
                Node::Part(0), // %3 refs
                Node::Gather {
                    values: 3,
                    indices: 2,
                }, // %4 model
                Node::Part(2), // %5 exc values
                Node::Part(1), // %6 exc positions
                Node::ScatterOver {
                    base: 4,
                    src: 5,
                    positions: 6,
                }, // %7
            ],
            7,
        )
    }

    /// One level per segment, and in each segment at least one
    /// 16-byte exception per two in-segment run boundaries (as
    /// [`crate::schemes::Sparse`]'s floor, segment by segment).
    fn floor(&self, stats: &ColumnStats) -> Option<usize> {
        let exceptions: usize = stats
            .blocks_at(self.seg_len)
            .map_or(0, |blocks| blocks.iter().map(|b| b.runs / 2).sum());
        Some(8 + stats.n.div_ceil(self.seg_len) * stats.dtype.bytes() + exceptions * 16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::decompress_via_plan;
    use crate::schemes::StepFunction;

    fn nearly_step() -> ColumnData {
        let mut v = vec![0u64; 512];
        for (i, x) in v.iter_mut().enumerate() {
            *x = (i / 128) as u64 * 1000;
        }
        v[5] = 99;
        v[200] = 77;
        v[511] = 1;
        ColumnData::U64(v)
    }

    #[test]
    fn round_trip_with_divergent_elements() {
        let s = PatchedStep::new(128);
        let c = s.compress(&nearly_step()).unwrap();
        assert_eq!(c.plain_part(ROLE_EXC_POSITIONS).unwrap().len(), 3);
        assert_eq!(s.decompress(&c).unwrap(), nearly_step());
        assert_eq!(decompress_via_plan(&s, &c).unwrap(), nearly_step());
    }

    #[test]
    fn pure_step_has_no_exceptions() {
        let col = ColumnData::U64((0..512u64).map(|i| (i / 128) * 7).collect());
        let s = PatchedStep::new(128);
        let c = s.compress(&col).unwrap();
        assert_eq!(c.plain_part(ROLE_EXC_POSITIONS).unwrap().len(), 0);
        // Matches the pure STEPFUNCTION size up to the exception columns.
        let pure = StepFunction::new(128).compress(&col).unwrap();
        assert_eq!(
            c.plain_part(ROLE_REFS).unwrap(),
            pure.plain_part("refs").unwrap()
        );
        assert_eq!(s.decompress(&c).unwrap(), col);
    }

    #[test]
    fn total_where_stepfunction_refuses() {
        let col = nearly_step();
        assert!(StepFunction::new(128).compress(&col).is_err());
        assert!(PatchedStep::new(128).compress(&col).is_ok());
    }

    #[test]
    fn majority_level_minimises_exceptions() {
        // Segment of 10: seven 5s, three 9s -> level 5, three exceptions.
        let col = ColumnData::U32(vec![5, 9, 5, 5, 9, 5, 5, 5, 9, 5]);
        let s = PatchedStep::new(10);
        let c = s.compress(&col).unwrap();
        assert_eq!(c.plain_part(ROLE_REFS).unwrap(), &ColumnData::U32(vec![5]));
        assert_eq!(c.plain_part(ROLE_EXC_POSITIONS).unwrap().len(), 3);
        assert_eq!(s.decompress(&c).unwrap(), col);
    }

    #[test]
    fn signed_values() {
        let col = ColumnData::I64(vec![-5, -5, -5, 3, -5, -5, i64::MIN, -5]);
        let s = PatchedStep::new(8);
        let c = s.compress(&col).unwrap();
        assert_eq!(s.decompress(&c).unwrap(), col);
        assert_eq!(decompress_via_plan(&s, &c).unwrap(), col);
    }

    #[test]
    fn empty_and_single() {
        for col in [ColumnData::U32(vec![]), ColumnData::U32(vec![9])] {
            let s = PatchedStep::new(4);
            let c = s.compress(&col).unwrap();
            assert_eq!(s.decompress(&c).unwrap(), col);
            assert_eq!(decompress_via_plan(&s, &c).unwrap(), col);
        }
    }

    #[test]
    fn floor_counts_in_segment_boundaries() {
        let col = nearly_step();
        let actual = PatchedStep::new(128)
            .compress(&col)
            .unwrap()
            .compressed_bytes();
        let stats = ColumnStats::collect(&col);
        assert_eq!(PatchedStep::new(128).floor(&stats), Some(actual));
        assert!(PatchedStep::new(64).floor(&stats).unwrap() <= actual);
    }

    #[test]
    fn tie_breaks_deterministically() {
        // 2-2 tie: smaller value wins (max by (count, Reverse(v))).
        let col = ColumnData::U32(vec![3, 3, 8, 8]);
        let c = PatchedStep::new(4).compress(&col).unwrap();
        assert_eq!(c.plain_part(ROLE_REFS).unwrap(), &ColumnData::U32(vec![3]));
    }
}
