//! DFOR — per-segment delta chains anchored at a frame of reference.
//!
//! The paper's Lessons 2 close with: "generalizing/refining a
//! compression scheme often means generalizing/refining one or more of
//! its subschemes." DFOR is that move applied to DELTA: replace DELTA's
//! single global chain with one chain per length-ℓ segment, each
//! anchored at a per-segment base — FOR's `refs` column reused as
//! DELTA's restart points.
//!
//! What the restart *buys* is the same currency as RLE→RPE: ease.
//! Global DELTA has O(n) positional access (the whole prefix must be
//! integrated) and a strictly sequential decompression chain; DFOR has
//! O(ℓ) access and embarrassingly parallel per-segment decompression.
//! What it *costs* is one base value per segment. The decompression DAG
//! is Algorithm 2's replication step feeding a *segmented* prefix sum —
//! the segmented-operator generalisation the vector-algebra literature
//! (Voodoo \[6]) applies to every columnar operator.
//!
//! Deltas are stored in transport form (wrapping differences); pair with
//! an `ns_zz` cascade on the `deltas` part for actual bit savings, as
//! with plain DELTA.

use crate::build_column;
use crate::column::{ColumnData, DType};
use crate::error::{CoreError, Result};
use crate::parts::{Emit, Parts, Visitor};
use crate::plan::{Node, Plan};
use crate::scheme::{Compressed, Params, Part, PartData, Scheme};
use crate::stats::ColumnStats;
use lcdc_colops::segment::check_segments;
use lcdc_colops::BinOpKind;

/// The segment-restarted delta scheme.
#[derive(Debug, Clone, Copy)]
pub struct DeltaFor {
    /// Segment length ℓ (restart interval).
    pub seg_len: usize,
}

impl DeltaFor {
    /// Construct with the given segment length (clamped to ≥ 1).
    pub fn new(seg_len: usize) -> Self {
        DeltaFor {
            seg_len: seg_len.max(1),
        }
    }
}

/// Role of the per-segment base part (first element of each segment).
pub const ROLE_BASES: &str = "bases";
/// Role of the within-segment delta part (u64 transport; the delta at
/// each segment start is 0).
pub const ROLE_DELTAS: &str = "deltas";

impl DeltaFor {
    /// Validate the parts, then reconstruct into `out`: a running sum
    /// over the chunks of deltas as they are unpacked, restarted from
    /// the segment's base at every segment start (where the stored
    /// delta is 0, so the base passes through).
    fn run(&self, parts: &Parts<'_>, out: &mut impl Emit) -> Result<()> {
        let c = parts.form();
        let bases = parts.column(ROLE_BASES)?;
        let bases = bases.as_transport();
        let deltas = parts.stream(ROLE_DELTAS)?;
        if deltas.len() != c.n {
            return Err(CoreError::CorruptParts(format!(
                "{} deltas for column length {}",
                deltas.len(),
                c.n
            )));
        }
        check_segments(bases.len(), self.seg_len, c.n)?;
        out.begin(c.n);
        let mut acc = 0u64;
        deltas.for_each_in_segments(self.seg_len, |seg, within, piece| {
            if within == 0 {
                acc = bases[seg];
            }
            out.emit(piece, |d| {
                acc = acc.wrapping_add(d);
                acc
            });
        });
        Ok(())
    }
}

impl Scheme for DeltaFor {
    fn name(&self) -> String {
        format!("dfor(l={})", self.seg_len)
    }

    fn compress(&self, col: &ColumnData) -> Result<Compressed> {
        let transport = col.to_transport();
        let mut bases = Vec::with_capacity(transport.len().div_ceil(self.seg_len));
        let mut deltas = Vec::with_capacity(transport.len());
        for chunk in transport.chunks(self.seg_len) {
            let base = chunk[0];
            bases.push(base);
            let mut prev = base;
            for &v in chunk {
                deltas.push(v.wrapping_sub(prev));
                prev = v;
            }
        }
        Ok(Compressed {
            scheme_id: self.name(),
            n: col.len(),
            dtype: col.dtype(),
            params: Params::new().with("l", self.seg_len as i64),
            parts: vec![
                Part {
                    role: ROLE_BASES,
                    data: PartData::Plain(ColumnData::from_transport(col.dtype(), bases)),
                },
                Part {
                    role: ROLE_DELTAS,
                    data: PartData::Plain(ColumnData::U64(deltas)),
                },
            ],
        })
    }

    fn decode(&self, parts: &Parts<'_>) -> Result<ColumnData> {
        Ok(build_column!(parts.form().dtype, 0, |out: Vec<T>| self
            .run(parts, &mut out)?))
    }

    fn visit_parts(&self, parts: &Parts<'_>, f: &mut dyn FnMut(&[u64])) -> Result<()> {
        self.run(parts, &mut Visitor::new(f, parts.form().dtype))
    }

    /// Algorithm 2's replication steps feeding a segmented prefix sum:
    /// `out = Gather(bases, id ÷ ℓ) + PrefixSumSeg(deltas, ℓ)`. Note the
    /// delta at each segment start is 0, so the base passes through.
    fn plan(&self, c: &Compressed) -> Result<Plan> {
        // Parts order: 0 = bases, 1 = deltas.
        Plan::new(
            vec![
                Node::Part(1), // %0 deltas
                Node::PrefixSumSegmented {
                    input: 0,
                    seg_len: self.seg_len,
                }, // %1
                Node::Const { value: 1, len: c.n }, // %2 ones
                Node::PrefixSumExclusive(2), // %3 id
                Node::BinaryScalar {
                    op: BinOpKind::Div,
                    lhs: 3,
                    rhs: self.seg_len as u64,
                },
                Node::Part(0), // %5 bases
                Node::Gather {
                    values: 5,
                    indices: 4,
                }, // %6
                Node::Binary {
                    op: BinOpKind::Add,
                    lhs: 6,
                    rhs: 1,
                }, // %7
            ],
            7,
        )
    }

    /// The `l` parameter, one base per segment and `n` plain deltas.
    fn floor(&self, stats: &ColumnStats) -> Option<usize> {
        Some(8 + stats.n.div_ceil(self.seg_len) * stats.dtype.bytes() + stats.n * 8)
    }

    /// The deltas are as wide as the widest in-segment delta: exact from
    /// block statistics taken at `l`.
    fn part_stats(&self, stats: &ColumnStats, role: &str) -> Option<ColumnStats> {
        match role {
            ROLE_BASES => Some(ColumnStats::shape(
                stats.n.div_ceil(self.seg_len),
                stats.dtype,
            )),
            ROLE_DELTAS => Some(ColumnStats {
                zz_width: stats.blocks_at(self.seg_len).map_or(0, |blocks| {
                    blocks.iter().map(|b| b.delta_width).max().unwrap_or(0)
                }),
                ..ColumnStats::shape(stats.n, DType::U64)
            }),
            _ => None,
        }
    }
}

/// O(ℓ) positional access: integrate only the deltas of the containing
/// segment — DFOR's operational advantage over global DELTA's O(n).
pub fn value_at(c: &Compressed, pos: u64) -> Result<u64> {
    let seg_len = c.params.require("l")? as usize;
    DeltaFor::new(seg_len).check(c)?;
    if pos >= c.n as u64 {
        return Err(CoreError::ColOps(
            lcdc_colops::ColOpsError::IndexOutOfBounds {
                index: pos as usize,
                len: c.n,
            },
        ));
    }
    let seg = pos as usize / seg_len;
    let base = c
        .plain_part(ROLE_BASES)?
        .get_transport(seg)
        .ok_or_else(|| CoreError::CorruptParts(format!("segment {seg} past bases part")))?;
    let deltas = c.plain_part(ROLE_DELTAS)?;
    let mut acc = base;
    // deltas[seg_start] is 0 by construction; start past it.
    for i in seg * seg_len + 1..=pos as usize {
        acc = acc.wrapping_add(
            deltas
                .get_transport(i)
                .ok_or_else(|| CoreError::CorruptParts(format!("delta {i} past deltas part")))?,
        );
    }
    Ok(acc)
}

impl DeltaFor {
    fn check(&self, c: &Compressed) -> Result<()> {
        c.check_scheme(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::decompress_via_plan;

    fn trending() -> ColumnData {
        ColumnData::I64((0..500i64).map(|i| i * 3 - 200 + (i % 7)).collect())
    }

    #[test]
    fn round_trip_trending() {
        let s = DeltaFor::new(128);
        let c = s.compress(&trending()).unwrap();
        assert_eq!(s.decompress(&c).unwrap(), trending());
        assert_eq!(decompress_via_plan(&s, &c).unwrap(), trending());
    }

    #[test]
    fn round_trip_wrapping_extremes() {
        let col = ColumnData::I64(vec![i64::MIN, i64::MAX, -1, 0, i64::MAX, i64::MIN]);
        let s = DeltaFor::new(4);
        let c = s.compress(&col).unwrap();
        assert_eq!(s.decompress(&c).unwrap(), col);
        assert_eq!(decompress_via_plan(&s, &c).unwrap(), col);
    }

    #[test]
    fn empty_and_ragged() {
        let s = DeltaFor::new(3);
        for col in [
            ColumnData::U32(vec![]),
            ColumnData::U32(vec![7]),
            ColumnData::U32(vec![7, 9, 11, 13, 15]),
        ] {
            let c = s.compress(&col).unwrap();
            assert_eq!(s.decompress(&c).unwrap(), col, "len {}", col.len());
            assert_eq!(decompress_via_plan(&s, &c).unwrap(), col);
        }
    }

    #[test]
    fn segment_start_delta_is_zero() {
        let col = ColumnData::U64(vec![10, 11, 12, 100, 101, 102]);
        let c = DeltaFor::new(3).compress(&col).unwrap();
        let deltas = c.plain_part(ROLE_DELTAS).unwrap().to_transport();
        assert_eq!(deltas, vec![0, 1, 1, 0, 1, 1]);
        assert_eq!(
            c.plain_part(ROLE_BASES).unwrap(),
            &ColumnData::U64(vec![10, 100])
        );
    }

    #[test]
    fn positional_access_matches() {
        let col = trending();
        let c = DeltaFor::new(64).compress(&col).unwrap();
        for pos in [0usize, 1, 63, 64, 65, 300, 499] {
            assert_eq!(
                value_at(&c, pos as u64).unwrap(),
                col.get_transport(pos).unwrap(),
                "position {pos}"
            );
        }
        assert!(value_at(&c, 500).is_err());
    }

    #[test]
    fn corrupted_delta_length_rejected() {
        let mut c = DeltaFor::new(4).compress(&trending()).unwrap();
        c.parts[1].data = PartData::Plain(ColumnData::U64(vec![0, 1]));
        assert!(matches!(
            DeltaFor::new(4).decompress(&c),
            Err(CoreError::CorruptParts(_))
        ));
    }

    #[test]
    fn name_and_clamp() {
        assert_eq!(DeltaFor::new(64).name(), "dfor(l=64)");
        assert_eq!(DeltaFor::new(0).seg_len, 1);
    }

    #[test]
    fn cascade_floor_is_exact_at_segment_length() {
        use crate::compose::Cascade;
        use crate::schemes::Ns;
        let cascaded = Cascade::new(
            Box::new(DeltaFor::new(128)),
            vec![("deltas", Box::new(Ns::zz()) as Box<dyn Scheme>)],
        );
        for col in [
            trending(),
            ColumnData::U32(vec![0, 4_000_000_000, 7]),
            ColumnData::I64(vec![i64::MIN, i64::MAX, -1, 0, i64::MAX, i64::MIN]),
        ] {
            let stats = ColumnStats::collect(&col);
            let actual = cascaded.compress(&col).unwrap().compressed_bytes();
            assert_eq!(cascaded.floor(&stats), Some(actual), "{col:?}");
        }
    }

    #[test]
    fn cascade_with_ns_beats_plain_on_trend() {
        use crate::compose::Cascade;
        use crate::schemes::Ns;
        let cascaded = Cascade::new(
            Box::new(DeltaFor::new(128)),
            vec![("deltas", Box::new(Ns::zz()) as Box<dyn Scheme>)],
        );
        let col = trending();
        let c = cascaded.compress(&col).unwrap();
        assert_eq!(cascaded.decompress(&c).unwrap(), col);
        assert!(c.ratio().unwrap() > 7.0, "ratio {:?}", c.ratio());
    }
}
