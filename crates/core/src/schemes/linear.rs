//! Piecewise-linear frames — the paper's model-enrichment direction
//! (§II-B):
//!
//! "It is appealing to consider piecewise-linear functions, i.e. keep an
//! offset from a diagonal line at some slope rather than the offset from
//! a horizontal 'step' [...] this makes compression more of a challenge,
//! as it would now require non-linear curve fitting."
//!
//! Per length-ℓ segment we fit the secant line through the segment's
//! first and last values (integer slope, rounded to nearest) and store
//! signed residuals from it, zigzagged. On trending data the residuals
//! are far narrower than FOR's offsets, which must span the whole climb.

use crate::build_column;
use crate::column::{ColumnData, DType};
use crate::error::{CoreError, Result};
use crate::parts::{Emit, Parts, Visitor};
use crate::plan::{Node, Plan};
use crate::scheme::{Compressed, Params, Part, PartData, Scheme};
use crate::stats::{residual_width, ColumnStats};
use lcdc_bitpack::{zigzag_decode_i64, zigzag_encode_i64};
use lcdc_colops::BinOpKind;

/// The piecewise-linear frame scheme.
#[derive(Debug, Clone, Copy)]
pub struct LinearFor {
    /// Segment length ℓ.
    pub seg_len: usize,
}

impl LinearFor {
    /// Construct with the given segment length (clamped to ≥ 1).
    pub fn new(seg_len: usize) -> Self {
        LinearFor {
            seg_len: seg_len.max(1),
        }
    }

    /// The practical configuration: linear frames with NS-packed
    /// residuals.
    pub fn with_ns(seg_len: usize) -> crate::compose::Cascade {
        crate::compose::Cascade::new(
            Box::new(LinearFor::new(seg_len)),
            vec![(ROLE_RESIDUALS, Box::new(crate::schemes::ns::Ns::plain()))],
        )
    }
}

/// Role of the per-segment intercept part (i64).
pub const ROLE_BASES: &str = "bases";
/// Role of the per-segment slope part (i64).
pub const ROLE_SLOPES: &str = "slopes";
/// Role of the per-element zigzagged-residual part (u64).
pub const ROLE_RESIDUALS: &str = "residuals";

impl LinearFor {
    /// Validate the parts, then reconstruct into `out`: `base +
    /// slope·i + zigzag⁻¹(r)` evaluated on each chunk of residuals as it
    /// is unpacked. Transport arithmetic is congruent mod 2^64, hence
    /// exact after truncation to the original dtype.
    fn run(&self, parts: &Parts<'_>, out: &mut impl Emit) -> Result<()> {
        let c = parts.form();
        let bases = parts.column(ROLE_BASES)?;
        let slopes = parts.column(ROLE_SLOPES)?;
        let (ColumnData::I64(bases), ColumnData::I64(slopes)) = (bases.as_ref(), slopes.as_ref())
        else {
            return Err(CoreError::CorruptParts(
                "bases and slopes parts must be i64".into(),
            ));
        };
        let residuals = parts.stream(ROLE_RESIDUALS)?;
        if residuals.dtype() != DType::U64 {
            return Err(CoreError::CorruptParts("residuals part must be u64".into()));
        }
        if residuals.len() != c.n {
            return Err(CoreError::CorruptParts(format!(
                "residuals column holds {} values, expected {}",
                residuals.len(),
                c.n
            )));
        }
        if bases.len() != slopes.len() || bases.len() < c.n.div_ceil(self.seg_len) {
            return Err(CoreError::CorruptParts(
                "bases/slopes count mismatch".into(),
            ));
        }
        out.begin(c.n);
        residuals.for_each_in_segments(self.seg_len, |seg, within, piece| {
            let slope = slopes[seg] as u64;
            let mut predicted = (bases[seg] as u64).wrapping_add(slope.wrapping_mul(within as u64));
            out.emit(piece, |zz| {
                let value = predicted.wrapping_add(zigzag_decode_i64(zz) as u64);
                predicted = predicted.wrapping_add(slope);
                value
            });
        });
        Ok(())
    }
}

impl Scheme for LinearFor {
    fn name(&self) -> String {
        format!("linear(l={})", self.seg_len)
    }

    fn compress(&self, col: &ColumnData) -> Result<Compressed> {
        let numeric = col.to_numeric();
        let mut bases = Vec::with_capacity(numeric.len().div_ceil(self.seg_len));
        let mut slopes = Vec::with_capacity(bases.capacity());
        let mut residuals = Vec::with_capacity(numeric.len());
        for chunk in numeric.chunks(self.seg_len) {
            let base = chunk[0];
            let slope = if chunk.len() > 1 {
                // Secant slope, rounded to nearest integer.
                let rise = chunk[chunk.len() - 1] - base;
                let run = (chunk.len() - 1) as i128;
                let q = rise.div_euclid(run);
                let r = rise.rem_euclid(run);
                if 2 * r >= run {
                    q + 1
                } else {
                    q
                }
            } else {
                0
            };
            let base_i64 = i64::try_from(base).map_err(|_| {
                CoreError::NotRepresentable(format!("segment base {base} exceeds i64"))
            })?;
            let slope_i64 = i64::try_from(slope).map_err(|_| {
                CoreError::NotRepresentable(format!("segment slope {slope} exceeds i64"))
            })?;
            bases.push(base_i64);
            slopes.push(slope_i64);
            for (i, &v) in chunk.iter().enumerate() {
                let predicted = base + slope * i as i128;
                let residual = i64::try_from(v - predicted).map_err(|_| {
                    CoreError::NotRepresentable(format!("residual {} exceeds i64", v - predicted))
                })?;
                residuals.push(zigzag_encode_i64(residual));
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
                    data: PartData::Plain(ColumnData::I64(bases)),
                },
                Part {
                    role: ROLE_SLOPES,
                    data: PartData::Plain(ColumnData::I64(slopes)),
                },
                Part {
                    role: ROLE_RESIDUALS,
                    data: PartData::Plain(ColumnData::U64(residuals)),
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
    /// Algorithm 2 extended to a degree-1 model: gather base *and* slope
    /// per element, evaluate `base + slope·(id mod ℓ)`, add the decoded
    /// residual. Still nothing but standard columnar operators.
    fn plan(&self, c: &Compressed) -> Result<Plan> {
        let l = self.seg_len as u64;
        Plan::new(
            vec![
                Node::Const { value: 1, len: c.n }, // %0 ones
                Node::PrefixSumExclusive(0),        // %1 id
                Node::BinaryScalar {
                    op: BinOpKind::Div,
                    lhs: 1,
                    rhs: l,
                }, // %2 seg idx
                Node::BinaryScalar {
                    op: BinOpKind::Rem,
                    lhs: 1,
                    rhs: l,
                }, // %3 within
                Node::Part(0),                      // %4 bases
                Node::Gather {
                    values: 4,
                    indices: 2,
                }, // %5 base rep
                Node::Part(1),                      // %6 slopes
                Node::Gather {
                    values: 6,
                    indices: 2,
                }, // %7 slope rep
                Node::Binary {
                    op: BinOpKind::Mul,
                    lhs: 7,
                    rhs: 3,
                }, // %8 slope·i
                Node::Binary {
                    op: BinOpKind::Add,
                    lhs: 5,
                    rhs: 8,
                }, // %9 predicted
                Node::Part(2),                      // %10 residuals
                Node::ZigzagDecode(10),             // %11
                Node::Binary {
                    op: BinOpKind::Add,
                    lhs: 9,
                    rhs: 11,
                }, // %12
            ],
            12,
        )
    }

    /// The `l` parameter, 2 `i64` coefficients per segment and `n`
    /// plain residuals.
    fn floor(&self, stats: &ColumnStats) -> Option<usize> {
        Some(8 + stats.n.div_ceil(self.seg_len) * 16 + stats.n * 8)
    }

    /// Residuals from block statistics taken at `l`: a line's second
    /// difference is 0, so the column's in-segment one is the
    /// residuals'.
    fn part_stats(&self, stats: &ColumnStats, role: &str) -> Option<ColumnStats> {
        match role {
            ROLE_BASES | ROLE_SLOPES => Some(ColumnStats::shape(
                stats.n.div_ceil(self.seg_len),
                DType::I64,
            )),
            ROLE_RESIDUALS => Some(ColumnStats {
                ns_width: Some(stats.blocks_at(self.seg_len).map_or(0, |blocks| {
                    blocks
                        .iter()
                        .map(|b| residual_width(b.second_diff, 2))
                        .max()
                        .unwrap_or(0)
                })),
                ..ColumnStats::shape(stats.n, DType::U64)
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::decompress_via_plan;
    use crate::schemes::for_::For;

    fn trending() -> ColumnData {
        // Climb of 7/element with ±2 noise.
        ColumnData::U64((0..1024u64).map(|i| 1000 + 7 * i + (i * i) % 5).collect())
    }

    #[test]
    fn round_trip() {
        let s = LinearFor::new(128);
        let c = s.compress(&trending()).unwrap();
        assert_eq!(s.decompress(&c).unwrap(), trending());
    }

    #[test]
    fn plan_matches_direct() {
        let s = LinearFor::new(128);
        let c = s.compress(&trending()).unwrap();
        assert_eq!(decompress_via_plan(&s, &c).unwrap(), trending());
    }

    #[test]
    fn residuals_much_narrower_than_for_offsets() {
        let s = LinearFor::with_ns(128);
        let f = For::with_ns(128);
        let lin = s.compress(&trending()).unwrap();
        let for_ = f.compress(&trending()).unwrap();
        assert!(
            lin.compressed_bytes() * 2 < for_.compressed_bytes(),
            "linear {} vs FOR {}",
            lin.compressed_bytes(),
            for_.compressed_bytes()
        );
        assert_eq!(s.decompress(&lin).unwrap(), trending());
    }

    #[test]
    fn signed_and_descending() {
        let col = ColumnData::I64((0..300).map(|i| 5000 - 13 * i + (i % 3)).collect());
        let s = LinearFor::new(64);
        let c = s.compress(&col).unwrap();
        assert_eq!(s.decompress(&c).unwrap(), col);
        assert_eq!(decompress_via_plan(&s, &c).unwrap(), col);
    }

    #[test]
    fn single_element_segments() {
        let col = ColumnData::U32(vec![9, 100, 3]);
        let s = LinearFor::new(1);
        let c = s.compress(&col).unwrap();
        assert_eq!(s.decompress(&c).unwrap(), col);
    }

    #[test]
    fn empty_column() {
        let col = ColumnData::U32(vec![]);
        let s = LinearFor::new(16);
        let c = s.compress(&col).unwrap();
        assert_eq!(s.decompress(&c).unwrap(), col);
        assert_eq!(decompress_via_plan(&s, &c).unwrap(), col);
    }

    #[test]
    fn u64_beyond_i64_rejected() {
        let col = ColumnData::U64(vec![u64::MAX, u64::MAX - 1]);
        assert!(matches!(
            LinearFor::new(2).compress(&col),
            Err(CoreError::NotRepresentable(_))
        ));
    }

    #[test]
    fn ragged_tail() {
        let col = ColumnData::U64((0..100u64).map(|i| 3 * i).collect());
        let s = LinearFor::new(32);
        let c = s.compress(&col).unwrap();
        assert_eq!(s.decompress(&c).unwrap(), col);
        assert_eq!(decompress_via_plan(&s, &c).unwrap(), col);
    }

    #[test]
    fn corrupt_parts_detected() {
        let s = LinearFor::new(128);
        let mut c = s.compress(&trending()).unwrap();
        c.parts[0].data = PartData::Plain(ColumnData::I64(vec![]));
        assert!(matches!(s.decompress(&c), Err(CoreError::CorruptParts(_))));
    }
}
