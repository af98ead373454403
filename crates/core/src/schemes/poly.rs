//! Piecewise degree-2 polynomial frames — the paper's furthest model
//! enrichment (§II-B): "more generally, we would replace step functions
//! with stepwise low-degree polynomials, or splines."
//!
//! Per length-ℓ segment we fit `a + b·i + c·i²` through three sample
//! points (first, middle, last — integer coefficients, rounded) and
//! store zigzagged residuals. Degree 0 of this family is STEPFUNCTION,
//! degree 1 is [`crate::schemes::LinearFor`]; the three schemes form the
//! model hierarchy the E6 experiment ablates.

use crate::build_column;
use crate::column::{ColumnData, DType};
use crate::error::{CoreError, Result};
use crate::parts::{Emit, Parts, Visitor};
use crate::plan::{Node, Plan};
use crate::scheme::{Compressed, Params, Part, PartData, Scheme};
use crate::stats::{residual_width, ColumnStats};
use lcdc_bitpack::{zigzag_decode_i64, zigzag_encode_i64};
use lcdc_colops::BinOpKind;

/// The piecewise-quadratic frame scheme.
#[derive(Debug, Clone, Copy)]
pub struct PolyFor {
    /// Segment length ℓ.
    pub seg_len: usize,
}

impl PolyFor {
    /// Construct with the given segment length (clamped to ≥ 1).
    pub fn new(seg_len: usize) -> Self {
        PolyFor {
            seg_len: seg_len.max(1),
        }
    }

    /// The practical configuration: quadratic frames with NS-packed
    /// residuals.
    pub fn with_ns(seg_len: usize) -> crate::compose::Cascade {
        crate::compose::Cascade::new(
            Box::new(PolyFor::new(seg_len)),
            vec![(ROLE_RESIDUALS, Box::new(crate::schemes::ns::Ns::plain()))],
        )
    }
}

/// Role of the constant-coefficient part (i64).
pub const ROLE_C0: &str = "c0";
/// Role of the linear-coefficient part (i64).
pub const ROLE_C1: &str = "c1";
/// Role of the quadratic-coefficient part (i64).
pub const ROLE_C2: &str = "c2";
/// Role of the per-element zigzagged-residual part (u64).
pub const ROLE_RESIDUALS: &str = "residuals";

/// Fit `a + b·i + c·i²` through `(0, y0)`, `(m, ym)`, `(k, yk)` with
/// integer coefficients (rounded), `0 < m < k`.
fn fit_quadratic(y0: i128, ym: i128, yk: i128, m: i128, k: i128) -> (i128, i128, i128) {
    // Lagrange through three points; c first, then b, both rounded to
    // nearest (residuals absorb the rounding).
    let num_c = (yk - y0) * m - (ym - y0) * k;
    let den_c = m * k * (k - m);
    let c = round_div(num_c, den_c);
    let b = round_div(ym - y0 - c * m * m, m);
    (y0, b, c)
}

fn round_div(num: i128, den: i128) -> i128 {
    // Round-half-away-from-zero integer division.
    let q = num.div_euclid(den);
    let r = num.rem_euclid(den);
    if 2 * r >= den.abs() {
        q + 1
    } else {
        q
    }
}

impl PolyFor {
    /// Validate the parts, then reconstruct into `out`: the frame
    /// polynomial plus the decoded residual, evaluated on each chunk of
    /// residuals as it is unpacked. Transport arithmetic: congruent mod
    /// 2^64, exact on truncation.
    fn run(&self, parts: &Parts<'_>, out: &mut impl Emit) -> Result<()> {
        let c = parts.form();
        let coeff = |role| -> Result<Vec<u64>> {
            match parts.column(role)?.as_ref() {
                ColumnData::I64(v) => Ok(v.iter().map(|&x| x as u64).collect()),
                _ => Err(CoreError::CorruptParts(format!("{role} part must be i64"))),
            }
        };
        let (c0, c1, c2) = (coeff(ROLE_C0)?, coeff(ROLE_C1)?, coeff(ROLE_C2)?);
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
        let needed = c.n.div_ceil(self.seg_len);
        if c0.len() < needed || c1.len() != c0.len() || c2.len() != c0.len() {
            return Err(CoreError::CorruptParts(
                "coefficient counts mismatch".into(),
            ));
        }
        out.begin(c.n);
        residuals.for_each_in_segments(self.seg_len, |seg, within, piece| {
            let (a, b, q) = (c0[seg], c1[seg], c2[seg]);
            let mut i = within as u64;
            out.emit(piece, |zz| {
                let predicted = a
                    .wrapping_add(b.wrapping_mul(i))
                    .wrapping_add(q.wrapping_mul(i.wrapping_mul(i)));
                i += 1;
                predicted.wrapping_add(zigzag_decode_i64(zz) as u64)
            });
        });
        Ok(())
    }
}

impl Scheme for PolyFor {
    fn name(&self) -> String {
        format!("poly2(l={})", self.seg_len)
    }

    fn compress(&self, col: &ColumnData) -> Result<Compressed> {
        let numeric = col.to_numeric();
        let num_segments = numeric.len().div_ceil(self.seg_len);
        let mut c0 = Vec::with_capacity(num_segments);
        let mut c1 = Vec::with_capacity(num_segments);
        let mut c2 = Vec::with_capacity(num_segments);
        let mut residuals = Vec::with_capacity(numeric.len());
        for chunk in numeric.chunks(self.seg_len) {
            let k = chunk.len() - 1;
            let (a, b, c) = if k >= 2 {
                let m = k / 2;
                fit_quadratic(chunk[0], chunk[m], chunk[k], m as i128, k as i128)
            } else if k == 1 {
                (chunk[0], chunk[1] - chunk[0], 0)
            } else {
                (chunk[0], 0, 0)
            };
            let to_i64 = |v: i128, what: &str| {
                i64::try_from(v)
                    .map_err(|_| CoreError::NotRepresentable(format!("{what} {v} exceeds i64")))
            };
            c0.push(to_i64(a, "coefficient c0")?);
            c1.push(to_i64(b, "coefficient c1")?);
            c2.push(to_i64(c, "coefficient c2")?);
            for (i, &v) in chunk.iter().enumerate() {
                let i = i as i128;
                let predicted = a + b * i + c * i * i;
                let residual = to_i64(v - predicted, "residual")?;
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
                    role: ROLE_C0,
                    data: PartData::Plain(ColumnData::I64(c0)),
                },
                Part {
                    role: ROLE_C1,
                    data: PartData::Plain(ColumnData::I64(c1)),
                },
                Part {
                    role: ROLE_C2,
                    data: PartData::Plain(ColumnData::I64(c2)),
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

    /// Algorithm 2 lifted to a degree-2 model — still only standard
    /// columnar operators (one extra `Gather` and two extra
    /// `Elementwise` nodes over the linear plan).
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
                }, // %2 seg
                Node::BinaryScalar {
                    op: BinOpKind::Rem,
                    lhs: 1,
                    rhs: l,
                }, // %3 i
                Node::Binary {
                    op: BinOpKind::Mul,
                    lhs: 3,
                    rhs: 3,
                }, // %4 i^2
                Node::Part(0),                      // %5 c0
                Node::Gather {
                    values: 5,
                    indices: 2,
                }, // %6
                Node::Part(1),                      // %7 c1
                Node::Gather {
                    values: 7,
                    indices: 2,
                }, // %8
                Node::Part(2),                      // %9 c2
                Node::Gather {
                    values: 9,
                    indices: 2,
                }, // %10
                Node::Binary {
                    op: BinOpKind::Mul,
                    lhs: 8,
                    rhs: 3,
                }, // %11 b·i
                Node::Binary {
                    op: BinOpKind::Mul,
                    lhs: 10,
                    rhs: 4,
                }, // %12 c·i²
                Node::Binary {
                    op: BinOpKind::Add,
                    lhs: 6,
                    rhs: 11,
                }, // %13
                Node::Binary {
                    op: BinOpKind::Add,
                    lhs: 13,
                    rhs: 12,
                }, // %14 predicted
                Node::Part(3),                      // %15 residuals
                Node::ZigzagDecode(15),             // %16
                Node::Binary {
                    op: BinOpKind::Add,
                    lhs: 14,
                    rhs: 16,
                }, // %17
            ],
            17,
        )
    }

    /// The `l` parameter, 3 `i64` coefficients per segment and `n`
    /// plain residuals.
    fn floor(&self, stats: &ColumnStats) -> Option<usize> {
        Some(8 + stats.n.div_ceil(self.seg_len) * 24 + stats.n * 8)
    }

    /// Residuals from block statistics taken at `l`: a quadratic's third
    /// difference is 0, so the column's in-segment one is the
    /// residuals'.
    fn part_stats(&self, stats: &ColumnStats, role: &str) -> Option<ColumnStats> {
        match role {
            ROLE_C0 | ROLE_C1 | ROLE_C2 => Some(ColumnStats::shape(
                stats.n.div_ceil(self.seg_len),
                DType::I64,
            )),
            ROLE_RESIDUALS => Some(ColumnStats {
                ns_width: Some(stats.blocks_at(self.seg_len).map_or(0, |blocks| {
                    blocks
                        .iter()
                        .map(|b| residual_width(b.third_diff, 3))
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
    use crate::schemes::LinearFor;

    fn parabolic() -> ColumnData {
        // y = 1000 + 3i + 2i² per 128-segment, with ±3 noise.
        ColumnData::U64(
            (0..1024u64)
                .map(|gi| {
                    let i = gi % 128;
                    1_000_000 + 3 * i + 2 * i * i + (gi * gi) % 4
                })
                .collect(),
        )
    }

    #[test]
    fn fit_is_exact_on_true_quadratics() {
        let (a, b, c) = fit_quadratic(5, 5 + 3 * 4 + 2 * 16, 5 + 3 * 9 + 2 * 81, 4, 9);
        assert_eq!((a, b, c), (5, 3, 2));
    }

    #[test]
    fn round_div_half_away() {
        assert_eq!(round_div(7, 2), 4);
        assert_eq!(round_div(-7, 2), -3); // -3.5 rounds toward +inf here
        assert_eq!(round_div(6, 3), 2);
        assert_eq!(round_div(-6, 3), -2);
    }

    #[test]
    fn round_trip() {
        let s = PolyFor::new(128);
        let c = s.compress(&parabolic()).unwrap();
        assert_eq!(s.decompress(&c).unwrap(), parabolic());
        assert_eq!(decompress_via_plan(&s, &c).unwrap(), parabolic());
    }

    #[test]
    fn beats_linear_on_quadratic_data() {
        let quad = PolyFor::with_ns(128).compress(&parabolic()).unwrap();
        let lin = LinearFor::with_ns(128).compress(&parabolic()).unwrap();
        assert!(
            quad.compressed_bytes() * 2 < lin.compressed_bytes(),
            "poly2 {} vs linear {}",
            quad.compressed_bytes(),
            lin.compressed_bytes()
        );
    }

    #[test]
    fn degenerate_segment_lengths() {
        for col in [
            ColumnData::U32(vec![7]),
            ColumnData::U32(vec![7, 9]),
            ColumnData::U32(vec![7, 9, 2]),
            ColumnData::I64(vec![-5, 5, -5, 5, -5]),
        ] {
            for l in [1usize, 2, 3, 100] {
                let s = PolyFor::new(l);
                let c = s.compress(&col).unwrap();
                assert_eq!(s.decompress(&c).unwrap(), col, "l={l}");
                assert_eq!(decompress_via_plan(&s, &c).unwrap(), col, "plan l={l}");
            }
        }
    }

    #[test]
    fn signed_and_descending_parabola() {
        let col = ColumnData::I64((0..300).map(|i| 10_000 - 5 * i - i * i / 3).collect());
        let s = PolyFor::new(64);
        let c = s.compress(&col).unwrap();
        assert_eq!(s.decompress(&c).unwrap(), col);
    }

    #[test]
    fn empty_column() {
        let col = ColumnData::U64(vec![]);
        let s = PolyFor::new(16);
        let c = s.compress(&col).unwrap();
        assert_eq!(s.decompress(&c).unwrap(), col);
        assert_eq!(decompress_via_plan(&s, &c).unwrap(), col);
    }

    #[test]
    fn u64_beyond_i64_rejected() {
        let col = ColumnData::U64(vec![u64::MAX; 4]);
        assert!(matches!(
            PolyFor::new(4).compress(&col),
            Err(CoreError::NotRepresentable(_))
        ));
    }

    #[test]
    fn corrupt_coefficients_detected() {
        let s = PolyFor::new(128);
        let mut c = s.compress(&parabolic()).unwrap();
        c.parts[1].data = PartData::Plain(ColumnData::I64(vec![]));
        assert!(matches!(s.decompress(&c), Err(CoreError::CorruptParts(_))));
    }
}
