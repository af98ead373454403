//! FOR — frame of reference (paper §II-B, Algorithm 2).
//!
//! Per length-ℓ segment, a reference value (we use the segment minimum,
//! so offsets are non-negative; the paper notes the reference "need not
//! necessarily be the first column element") plus per-element offsets.
//! The offsets column is kept *plain* here: in the paper's algebra the
//! narrowing belongs to the NS subscheme, so the practical configuration
//! is the cascade `for(l=ℓ)[offsets=ns]` — and the decomposition
//! `FOR ≡ STEPFUNCTION + NS` is literal code in [`crate::rewrite`].

use crate::column::ColumnData;
use crate::column::DType;
use crate::error::{CoreError, Result};
use crate::parts::{Emit, PartStream, Parts, Visitor};
use crate::plan::{Node, Plan};
use crate::scheme::{Compressed, Params, Part, PartData, Scheme};
use crate::stats::{zz_bits, zz_bits_of, BlockStats, ColumnStats};
use crate::{build_column, with_column};
use lcdc_bitpack::width::bits_needed_u64;
use lcdc_colops::segment::check_segments;
use lcdc_colops::BinOpKind;
use lcdc_colops::Scalar;

/// The frame-of-reference scheme.
#[derive(Debug, Clone, Copy)]
pub struct For {
    /// Segment length ℓ.
    pub seg_len: usize,
    /// Use the segment's *first* element as the reference instead of its
    /// minimum. The paper notes the reference "need not necessarily be
    /// the first column element" — this flag is the ablation between the
    /// two classic choices: min-reference keeps offsets non-negative
    /// (plain NS); first-reference makes compression cheaper (no min
    /// scan) at the price of signed offsets (zigzag NS, ~1 extra bit).
    pub ref_first: bool,
}

impl For {
    /// Construct with the given segment length (clamped to ≥ 1) and the
    /// minimum as reference.
    pub fn new(seg_len: usize) -> Self {
        For {
            seg_len: seg_len.max(1),
            ref_first: false,
        }
    }

    /// Construct with the segment's first element as reference.
    pub fn new_first_ref(seg_len: usize) -> Self {
        For {
            seg_len: seg_len.max(1),
            ref_first: true,
        }
    }

    /// The practical first-reference configuration: zigzagged NS offsets.
    pub fn first_ref_with_ns(seg_len: usize) -> crate::compose::Cascade {
        crate::compose::Cascade::new(
            Box::new(For::new_first_ref(seg_len)),
            vec![(ROLE_OFFSETS, Box::new(crate::schemes::ns::Ns::zz()))],
        )
    }

    /// The practical configuration: FOR with NS-packed offsets.
    pub fn with_ns(seg_len: usize) -> crate::compose::Cascade {
        crate::compose::Cascade::new(
            Box::new(For::new(seg_len)),
            vec![(ROLE_OFFSETS, Box::new(crate::schemes::ns::Ns::plain()))],
        )
    }
}

/// Role of the per-segment reference part (native dtype).
pub const ROLE_REFS: &str = "refs";
/// Role of the per-element offset part (u64, non-negative).
pub const ROLE_OFFSETS: &str = "offsets";

/// The add-reference operator, fused into the offsets stream: emit
/// `refs[i / seg_len] + offsets[i]` for every offset. `refs` must cover
/// every segment (`check_segments`).
pub(crate) fn add_references(
    offsets: &PartStream<'_>,
    seg_len: usize,
    refs: &[u64],
    out: &mut impl Emit,
) {
    offsets.for_each_in_segments(seg_len, |seg, _, piece| {
        let r = refs[seg];
        out.emit(piece, |o| r.wrapping_add(o));
    });
}

impl For {
    /// Validate the parts, then run the add-reference operator into
    /// `out`: each chunk of offsets gets its segment's reference added
    /// on the way out — no replicated references, no unpacked offsets.
    fn run(&self, parts: &Parts<'_>, out: &mut impl Emit) -> Result<()> {
        let c = parts.form();
        let refs = parts.column(ROLE_REFS)?;
        let refs = refs.as_transport();
        let offsets = parts.stream(ROLE_OFFSETS)?;
        let expected_dtype = if self.ref_first {
            crate::column::DType::I64
        } else {
            crate::column::DType::U64
        };
        if offsets.dtype() != expected_dtype {
            return Err(CoreError::CorruptParts(format!(
                "offsets part must be {}, found {}",
                expected_dtype.name(),
                offsets.dtype().name()
            )));
        }
        if offsets.len() != c.n {
            return Err(CoreError::CorruptParts(format!(
                "offsets column holds {} values, expected {}",
                offsets.len(),
                c.n
            )));
        }
        check_segments(refs.len(), self.seg_len, c.n)?;
        out.begin(c.n);
        add_references(&offsets, self.seg_len, &refs, out);
        Ok(())
    }
}

impl Scheme for For {
    fn name(&self) -> String {
        if self.ref_first {
            format!("for(l={},first=1)", self.seg_len)
        } else {
            format!("for(l={})", self.seg_len)
        }
    }

    fn compress(&self, col: &ColumnData) -> Result<Compressed> {
        // Reference = segment minimum in *native* order (or the first
        // element under `ref_first`); offsets are wrapping transport
        // differences, which for v >= ref equal the exact non-negative
        // numeric differences. First-reference offsets are signed and
        // stored as i64 so the zigzag-NS cascade packs them narrowly.
        let (refs, offsets) = with_column!(col, |v| {
            let mut refs_t = Vec::with_capacity(v.len().div_ceil(self.seg_len));
            let mut offsets = Vec::with_capacity(v.len());
            for chunk in v.chunks(self.seg_len) {
                let r = if self.ref_first {
                    chunk[0]
                } else {
                    *chunk.iter().min().expect("non-empty chunk")
                };
                let r_t = r.to_u64();
                refs_t.push(r_t);
                offsets.extend(chunk.iter().map(|x| x.to_u64().wrapping_sub(r_t)));
            }
            (ColumnData::from_transport(col.dtype(), refs_t), offsets)
        });
        let offsets_col = if self.ref_first {
            ColumnData::from_transport(crate::column::DType::I64, offsets)
        } else {
            ColumnData::U64(offsets)
        };
        Ok(Compressed {
            scheme_id: self.name(),
            n: col.len(),
            dtype: col.dtype(),
            params: Params::new().with("l", self.seg_len as i64),
            parts: vec![
                Part {
                    role: ROLE_REFS,
                    data: PartData::Plain(refs),
                },
                Part {
                    role: ROLE_OFFSETS,
                    data: PartData::Plain(offsets_col),
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

    /// Algorithm 2, literally:
    ///
    /// ```text
    /// ones        <- Constant(1, |offsets|)
    /// id          <- PrefixSum(ones)            // 0-based (exclusive)
    /// ref_indices <- Elementwise(÷, id, ℓ)
    /// replicated  <- Gather(refs, ref_indices)
    /// return Elementwise(+, replicated, offsets)
    /// ```
    fn plan(&self, c: &Compressed) -> Result<Plan> {
        Plan::new(
            vec![
                Node::Const { value: 1, len: c.n }, // %0 ones
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
                }, // %4 replicated
                Node::Part(1), // %5 offsets
                Node::Binary {
                    op: BinOpKind::Add,
                    lhs: 4,
                    rhs: 5,
                }, // %6
            ],
            6,
        )
    }

    /// The `l` parameter, one reference per segment and `n` plain
    /// offsets.
    fn floor(&self, stats: &ColumnStats) -> Option<usize> {
        Some(8 + stats.n.div_ceil(self.seg_len) * stats.dtype.bytes() + stats.n * 8)
    }

    /// Offsets from block statistics taken at `l`. Min-reference
    /// offsets are each block shifted to start at 0, so every in-block
    /// statistic carries over exactly. First-reference offsets are known
    /// at each block's extremes, which bounds both NS widths.
    fn part_stats(&self, stats: &ColumnStats, role: &str) -> Option<ColumnStats> {
        if role == ROLE_REFS {
            return Some(ColumnStats::shape(
                stats.n.div_ceil(self.seg_len),
                stats.dtype,
            ));
        }
        if role != ROLE_OFFSETS {
            return None;
        }
        let dtype = if self.ref_first {
            DType::I64
        } else {
            DType::U64
        };
        let mut part = ColumnStats::shape(stats.n, dtype);
        let Some(blocks) = stats.blocks_at(self.seg_len) else {
            return Some(part);
        };
        if self.ref_first {
            // The stored offset of each block's minimum and maximum.
            let extremes = || {
                blocks.iter().flat_map(|b| {
                    [b.min, b.max].map(|v| (v as u64).wrapping_sub(b.first as u64) as i64)
                })
            };
            part.zz_width = extremes().map(zz_bits).max().unwrap_or(0);
            part.ns_width =
                extremes().try_fold(0, |w, o| (o >= 0).then(|| w.max(bits_needed_u64(o as u64))));
        } else {
            let widest = blocks.iter().map(|b| b.max - b.min).max().unwrap_or(0);
            part.blocks = blocks
                .iter()
                .map(|b| BlockStats {
                    min: 0,
                    max: b.max - b.min,
                    first: b.first - b.min,
                    ..*b
                })
                .collect();
            part.seg_len = self.seg_len;
            part.offset_widths = stats.offset_widths;
            part.min = (stats.n > 0).then_some(0);
            part.max = (stats.n > 0).then_some(widest);
            part.ns_width = Some(bits_needed_u64(widest as u64));
            part.zz_width = zz_bits_of(widest);
        }
        Some(part)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::decompress_via_plan;

    #[test]
    fn round_trip_unsigned() {
        let col = ColumnData::U32(vec![100, 103, 101, 999, 1001, 998]);
        let f = For::new(3);
        let c = f.compress(&col).unwrap();
        assert_eq!(
            c.plain_part(ROLE_REFS).unwrap(),
            &ColumnData::U32(vec![100, 998])
        );
        assert_eq!(
            c.plain_part(ROLE_OFFSETS).unwrap(),
            &ColumnData::U64(vec![0, 3, 1, 1, 3, 0])
        );
        assert_eq!(f.decompress(&c).unwrap(), col);
    }

    #[test]
    fn round_trip_signed_with_negatives() {
        let col = ColumnData::I32(vec![-100, -97, -99, 50, 53]);
        let f = For::new(3);
        let c = f.compress(&col).unwrap();
        assert_eq!(f.decompress(&c).unwrap(), col);
        assert_eq!(decompress_via_plan(&f, &c).unwrap(), col);
    }

    #[test]
    fn extreme_ranges_round_trip() {
        let col = ColumnData::I64(vec![i64::MIN, i64::MAX, 0]);
        let f = For::new(2);
        let c = f.compress(&col).unwrap();
        assert_eq!(f.decompress(&c).unwrap(), col);
        assert_eq!(decompress_via_plan(&f, &c).unwrap(), col);

        let col = ColumnData::U64(vec![0, u64::MAX]);
        let c = f.compress(&col).unwrap();
        assert_eq!(f.decompress(&c).unwrap(), col);
    }

    #[test]
    fn plan_is_algorithm_two() {
        let col = ColumnData::U32(vec![10, 11, 22, 23]);
        let f = For::new(2);
        let c = f.compress(&col).unwrap();
        let plan = f.plan(&c).unwrap();
        assert_eq!(plan.num_nodes(), 7);
        assert!(plan.display().contains("÷"));
        assert_eq!(decompress_via_plan(&f, &c).unwrap(), col);
    }

    #[test]
    fn ns_cascade_narrows_offsets() {
        // Locally tight, globally wide: classic FOR win.
        let col = ColumnData::U64(
            (0..128u64)
                .flat_map(|s| (0..128u64).map(move |i| s * 1_000_000 + i % 7))
                .collect(),
        );
        let cascade = For::with_ns(128);
        let c = cascade.compress(&col).unwrap();
        assert!(c.ratio().unwrap() > 10.0, "ratio {:?}", c.ratio());
        assert_eq!(cascade.decompress(&c).unwrap(), col);
    }

    #[test]
    fn empty_column() {
        let col = ColumnData::U32(vec![]);
        let f = For::new(8);
        let c = f.compress(&col).unwrap();
        assert_eq!(f.decompress(&c).unwrap(), col);
        assert_eq!(decompress_via_plan(&f, &c).unwrap(), col);
    }

    #[test]
    fn corrupt_offsets_detected() {
        let col = ColumnData::U32(vec![1, 2, 3]);
        let f = For::new(2);
        let mut c = f.compress(&col).unwrap();
        c.parts[1].data = PartData::Plain(ColumnData::U64(vec![0]));
        assert!(matches!(f.decompress(&c), Err(CoreError::CorruptParts(_))));
    }

    #[test]
    fn floor_tracks_actual_cascade() {
        let col = ColumnData::U64((0..4096u64).map(|i| 1_000_000 + i % 50).collect());
        let signed = ColumnData::I64((0..300).map(|i| (i % 7) * 1_000 - 3_000).collect());
        let extremes = ColumnData::I64(vec![i64::MIN, i64::MAX, 0, -1, i64::MAX]);
        for text in [
            "for(l=128)[offsets=ns]",
            "for(l=128)[offsets=varwidth]",
            "for(l=128,first=1)[offsets=ns_zz]",
        ] {
            let scheme = crate::expr::parse_scheme(text).unwrap();
            for col in [&col, &signed, &extremes] {
                let stats = ColumnStats::collect(col);
                let actual = scheme.compress(col).unwrap().compressed_bytes();
                let floor = scheme.floor(&stats).unwrap();
                assert!(floor <= actual, "{text}: floor {floor} > {actual}");
                if text.starts_with("for(l=128)[") {
                    assert_eq!(floor, actual, "{text} is exact at l=128");
                }
            }
        }
    }
}
