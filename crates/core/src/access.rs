//! Positional random access *without decompression*.
//!
//! The second axis of the paper's ratio-vs-ease trade-off: schemes
//! differ not only in decompression throughput but in what a single
//! `col[i]` costs on the compressed form. This module gives the cost
//! per scheme, where it is cheap:
//!
//! | Scheme | Access cost | Why |
//! |---|---|---|
//! | ID, NS | O(1) | direct bit arithmetic |
//! | varwidth | O(i/128) | sum the preceding blocks' width bytes, then bit arithmetic |
//! | DICT | O(1) | code lookup + dictionary index |
//! | FOR / STEP / pstep* | O(1) | `refs[i/ℓ] + offsets[i]` |
//! | linear / poly2 | O(1) | evaluate the frame + residual |
//! | CONST | O(1) | the value is the whole form |
//! | SPARSE | O(log e) | binary search the exception positions |
//! | RPE, VSTEP | O(log r) | binary search the sorted run/frame ends |
//! | DFOR | O(ℓ) | integrate only the containing segment's deltas |
//! | RLE, DELTA | O(r) / O(n) | must integrate lengths / deltas |
//!
//! (*pstep/pfor pay an extra O(log e) search of the exception list.)
//!
//! RLE-vs-RPE is the paper's §II-A pair made operational: the rewrite
//! from RLE to RPE is exactly what turns O(r) access into O(log r).

use crate::column::ColumnData;
use crate::error::{CoreError, Result};
use crate::scheme::{Compressed, PartData};
use crate::schemes;
use crate::shared::SharedRef;

/// The value at row `pos` (transport form), or `None` when the scheme
/// has no sub-linear access path (RLE, DELTA, cascades with nested
/// payload parts).
///
/// Out-of-range positions are an error, matching the columnar kernels.
pub fn value_at(c: &Compressed, pos: usize) -> Result<Option<u64>> {
    if pos >= c.n {
        return Err(CoreError::ColOps(
            lcdc_colops::ColOpsError::IndexOutOfBounds {
                index: pos,
                len: c.n,
            },
        ));
    }
    // A shared part is read through its checked reference first, so a
    // form with a missing or corrupt shared dictionary is refused on
    // every path, the ones answering `None` included.
    c.shared_part().map(SharedRef::column).transpose()?;
    // Cascaded forms carry nested payloads; answering a point lookup
    // would mean decompressing the nested part — not a sub-linear path.
    if c.parts
        .iter()
        .any(|p| matches!(p.data, PartData::Nested(_)))
    {
        return Ok(None);
    }
    let base = base_name(&c.scheme_id);
    match base {
        "id" => Ok(plain_get(c, schemes::id::ROLE_VALUES, pos)),
        "ns" | "ns_zz" | "varwidth" | "varwidth_zz" => {
            let packed = match base {
                "ns" | "ns_zz" => schemes::Ns::packed(c)?,
                _ => schemes::VarWidthNs::packed(c)?,
            };
            Ok(packed.get(pos).map(|v| {
                if c.params.get("zigzag") == Some(1) {
                    lcdc_bitpack::zigzag_decode_i64(v) as u64
                } else {
                    v
                }
            }))
        }
        "dict" => {
            let code = match plain_get(c, schemes::dict::ROLE_CODES, pos) {
                Some(code) => code as usize,
                None => return Ok(None),
            };
            let dict = c.plain_part(schemes::dict::ROLE_DICT)?;
            match dict.get_transport(code) {
                Some(v) => Ok(Some(v)),
                None => Err(CoreError::CorruptParts(format!(
                    "code {code} past dictionary"
                ))),
            }
        }
        "rpe" => Ok(Some(schemes::rpe::value_at(c, pos as u64)?)),
        "const" => {
            let v = c.plain_part(schemes::const_::ROLE_VALUE)?.get_transport(0);
            match v {
                Some(v) => Ok(Some(v)),
                None => Err(CoreError::CorruptParts(
                    "non-empty const form with empty value part".into(),
                )),
            }
        }
        "sparse" => Ok(Some(schemes::sparse::value_at(c, pos as u64)?)),
        "dfor" => Ok(Some(schemes::dfor::value_at(c, pos as u64)?)),
        "vstep" => Ok(Some(schemes::vstep::value_at(c, pos as u64)?)),
        "step" => {
            let l = c.params.require("l")? as usize;
            Ok(plain_get(c, schemes::step::ROLE_REFS, pos / l))
        }
        "for" => {
            let l = c.params.require("l")? as usize;
            let r = plain_get(c, schemes::for_::ROLE_REFS, pos / l);
            let o = plain_get(c, schemes::for_::ROLE_OFFSETS, pos);
            Ok(match (r, o) {
                (Some(r), Some(o)) => Some(r.wrapping_add(o)),
                _ => None,
            })
        }
        "pstep" => {
            let l = c.params.require("l")? as usize;
            let exc_positions = plain_u64(c, schemes::pstep::ROLE_EXC_POSITIONS)?;
            if let Ok(slot) = exc_positions.binary_search(&(pos as u64)) {
                return Ok(plain_get(c, schemes::pstep::ROLE_EXC_VALUES, slot));
            }
            Ok(plain_get(c, schemes::pstep::ROLE_REFS, pos / l))
        }
        "pfor" => {
            let l = c.params.require("l")? as usize;
            let r = plain_get(c, schemes::patch::ROLE_REFS, pos / l);
            let exc_positions = plain_u64(c, schemes::patch::ROLE_EXC_POSITIONS)?;
            let offset = if let Ok(slot) = exc_positions.binary_search(&(pos as u64)) {
                plain_get(c, schemes::patch::ROLE_EXC_OFFSETS, slot)
            } else {
                c.packed_part(schemes::patch::ROLE_OFFSETS)?.get(pos)
            };
            Ok(match (r, offset) {
                (Some(r), Some(o)) => Some(r.wrapping_add(o)),
                _ => None,
            })
        }
        "linear" => {
            let l = c.params.require("l")? as usize;
            let seg = pos / l;
            let i = (pos % l) as u64;
            let base = plain_get(c, schemes::linear::ROLE_BASES, seg);
            let slope = plain_get(c, schemes::linear::ROLE_SLOPES, seg);
            let zz = plain_get(c, schemes::linear::ROLE_RESIDUALS, pos);
            Ok(match (base, slope, zz) {
                (Some(b), Some(s), Some(zz)) => Some(
                    b.wrapping_add(s.wrapping_mul(i))
                        .wrapping_add(lcdc_bitpack::zigzag_decode_i64(zz) as u64),
                ),
                _ => None,
            })
        }
        "poly2" => {
            let l = c.params.require("l")? as usize;
            let seg = pos / l;
            let i = (pos % l) as u64;
            let c0 = plain_get(c, schemes::poly::ROLE_C0, seg);
            let c1 = plain_get(c, schemes::poly::ROLE_C1, seg);
            let c2 = plain_get(c, schemes::poly::ROLE_C2, seg);
            let zz = plain_get(c, schemes::poly::ROLE_RESIDUALS, pos);
            Ok(match (c0, c1, c2, zz) {
                (Some(a), Some(b), Some(q), Some(zz)) => Some(
                    a.wrapping_add(b.wrapping_mul(i))
                        .wrapping_add(q.wrapping_mul(i.wrapping_mul(i)))
                        .wrapping_add(lcdc_bitpack::zigzag_decode_i64(zz) as u64),
                ),
                _ => None,
            })
        }
        // RLE and DELTA have no sub-linear path; cascades would need the
        // nested parts materialised.
        _ => Ok(None),
    }
}

fn base_name(scheme_id: &str) -> &str {
    scheme_id.split(['(', '[']).next().unwrap_or(scheme_id)
}

fn plain_get(c: &Compressed, role: &'static str, idx: usize) -> Option<u64> {
    match c.part(role) {
        Ok(part) => match &part.data {
            PartData::Plain(col) => col.get_transport(idx),
            _ => None,
        },
        Err(_) => None,
    }
}

fn plain_u64<'a>(c: &'a Compressed, role: &'static str) -> Result<&'a Vec<u64>> {
    match c.plain_part(role)? {
        ColumnData::U64(v) => Ok(v),
        _ => Err(CoreError::CorruptParts(format!("{role} must be u64"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::parse_scheme;

    fn check_access(expr: &str, col: &ColumnData, expect_path: bool) {
        let scheme = parse_scheme(expr).unwrap();
        let c = scheme.compress(col).unwrap();
        let mut any = false;
        for pos in 0..col.len() {
            match value_at(&c, pos).unwrap_or_else(|e| panic!("{expr} at {pos}: {e}")) {
                Some(v) => {
                    any = true;
                    assert_eq!(Some(v), col.get_transport(pos), "{expr} at {pos}");
                }
                None => assert!(!expect_path, "{expr} should have an access path"),
            }
        }
        if expect_path && !col.is_empty() {
            assert!(any, "{expr} never produced a value");
        }
    }

    fn workload() -> ColumnData {
        ColumnData::U64((0..500u64).map(|i| 1000 + (i / 9) * 3 + i % 4).collect())
    }

    #[test]
    fn constant_time_schemes() {
        let col = workload();
        for expr in [
            "id",
            "ns",
            "varwidth",
            "dict",
            "step(l=1)",
            "for(l=16)",
            "linear(l=16)",
            "poly2(l=16)",
        ] {
            check_access(expr, &col, true);
        }
    }

    #[test]
    fn signed_access() {
        let col = ColumnData::I64(vec![-5, -5, 9, i64::MIN, i64::MAX]);
        for expr in [
            "id",
            "ns_zz",
            "varwidth_zz",
            "dict",
            "for(l=2)",
            "pstep(l=2)",
        ] {
            check_access(expr, &col, true);
        }
    }

    #[test]
    fn exception_schemes_access_through_patches() {
        let mut v: Vec<u64> = (0..300).map(|i| 50 + i % 7).collect();
        v[123] = 1 << 40;
        v[222] = 1 << 41;
        let col = ColumnData::U64(v);
        check_access("pfor(l=64,keep=950)", &col, true);
        check_access("pstep(l=64)", &col, true);
    }

    #[test]
    fn rpe_logarithmic_access() {
        let col = ColumnData::U32(vec![7, 7, 7, 9, 9, 4]);
        check_access("rpe", &col, true);
    }

    #[test]
    fn new_model_schemes_access() {
        let col = workload();
        check_access("dfor(l=16)", &col, true);
        check_access("vstep(w=6)", &col, true);
        check_access("sparse", &col, true);
        check_access("const", &ColumnData::I32(vec![-3; 40]), true);
    }

    #[test]
    fn sparse_access_through_exceptions() {
        let mut v = vec![0u64; 200];
        v[10] = 99;
        v[150] = 1 << 50;
        check_access("sparse", &ColumnData::U64(v), true);
    }

    #[test]
    fn rle_and_delta_have_no_path() {
        let col = workload();
        check_access("rle", &col, false);
        check_access("delta", &col, false);
    }

    #[test]
    fn out_of_range_is_an_error() {
        let col = ColumnData::U32(vec![1, 2, 3]);
        let c = parse_scheme("ns").unwrap().compress(&col).unwrap();
        assert!(value_at(&c, 3).is_err());
        assert!(value_at(&c, 0).unwrap().is_some());
    }

    #[test]
    fn first_ref_for_access() {
        let col = ColumnData::U64((0..200u64).map(|i| 10_000 + (i % 13)).collect());
        check_access("for(l=32,first=1)", &col, true);
    }
}
