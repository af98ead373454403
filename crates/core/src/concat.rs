//! Appending compressed columns without decompression.
//!
//! Data accrues — the paper's own motivating column is one that grows
//! with every shipped order. Under the columnar view, appending one
//! compressed column to another is *part-column surgery*, not
//! decompression: RLE concatenates runs (merging the boundary run when
//! the values meet), RPE shifts the second form's positions by the first
//! form's length, DICT merges two sorted dictionaries and remaps codes,
//! NS re-packs at the wider of the two widths. Every structural path
//! below produces the form fresh compression of the concatenated plain
//! column would produce — bit-identically — except SPARSE, whose mode
//! could in principle change (documented at [`concat()`]).

use crate::column::ColumnData;
use crate::error::{CoreError, Result};
use crate::expr::parse_expr;
use crate::scheme::{Compressed, Part, PartData, Scheme};
use crate::schemes::{dict, id, ns, rle, rpe, sparse};
use lcdc_bitpack::Packed;

/// Which route a [`concat()`] call took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConcatPath {
    /// Part-column surgery on the compressed forms.
    Structural,
    /// Generic decompress-both, concatenate, recompress.
    ViaPlain,
}

/// Append `b` to `a`, both forms of `scheme`, producing the compressed
/// form of the concatenated column.
///
/// Structural routes exist for bare `id`, `rle`, `rpe`, `dict`, `ns`
/// (incl. zigzag) and `sparse`; all are bit-identical to fresh
/// compression except `sparse` when the two halves share a base value
/// that is no longer the combined column's most frequent value — the
/// result is still a valid form, just not the canonical one. Everything
/// else (cascades, FOR-family) takes the generic route.
pub fn concat(
    scheme: &dyn Scheme,
    a: &Compressed,
    b: &Compressed,
) -> Result<(Compressed, ConcatPath)> {
    a.check_scheme(&scheme.name())?;
    b.check_scheme(&scheme.name())?;
    if a.dtype != b.dtype {
        return Err(CoreError::CorruptParts(format!(
            "cannot concatenate {} onto {}",
            b.dtype.name(),
            a.dtype.name()
        )));
    }
    if let Some(out) = structural(a, b)? {
        return Ok((out, ConcatPath::Structural));
    }
    let mut plain = scheme.decompress(a)?.to_transport();
    plain.extend(scheme.decompress(b)?.to_transport());
    let col = ColumnData::from_transport(a.dtype, plain);
    Ok((scheme.compress(&col)?, ConcatPath::ViaPlain))
}

fn structural(a: &Compressed, b: &Compressed) -> Result<Option<Compressed>> {
    // Cascaded forms carry nested payloads; take the generic route.
    let nested = |c: &Compressed| {
        c.parts
            .iter()
            .any(|p| matches!(p.data, PartData::Nested(_)))
    };
    if nested(a) || nested(b) {
        return Ok(None);
    }
    let Ok(expr) = parse_expr(&a.scheme_id) else {
        return Ok(None);
    };
    match expr.name.as_str() {
        "id" => {
            let values = concat_plain(
                a.plain_part(id::ROLE_VALUES)?,
                b.plain_part(id::ROLE_VALUES)?,
            );
            Ok(Some(rebuild(
                a,
                b,
                vec![Part {
                    role: id::ROLE_VALUES,
                    data: PartData::Plain(values),
                }],
            )))
        }
        "rle" => {
            let mut values = a.plain_part(rle::ROLE_VALUES)?.to_transport();
            let mut lengths = plain_u64(a, rle::ROLE_LENGTHS)?.clone();
            let b_values = b.plain_part(rle::ROLE_VALUES)?.to_transport();
            let b_lengths = plain_u64(b, rle::ROLE_LENGTHS)?;
            let merge = values.last().is_some() && values.last() == b_values.first();
            if merge {
                *lengths.last_mut().expect("non-empty with last value") += b_lengths[0];
                values.extend(&b_values[1..]);
                lengths.extend(&b_lengths[1..]);
            } else {
                values.extend(&b_values);
                lengths.extend(b_lengths);
            }
            Ok(Some(rebuild(
                a,
                b,
                vec![
                    Part {
                        role: rle::ROLE_VALUES,
                        data: PartData::Plain(ColumnData::from_transport(a.dtype, values)),
                    },
                    Part {
                        role: rle::ROLE_LENGTHS,
                        data: PartData::Plain(ColumnData::U64(lengths)),
                    },
                ],
            )))
        }
        "rpe" => {
            let mut values = a.plain_part(rpe::ROLE_VALUES)?.to_transport();
            let mut positions = plain_u64(a, rpe::ROLE_POSITIONS)?.clone();
            let b_values = b.plain_part(rpe::ROLE_VALUES)?.to_transport();
            let b_positions = plain_u64(b, rpe::ROLE_POSITIONS)?;
            let shift = a.n as u64;
            if values.last().is_some() && values.last() == b_values.first() {
                // The boundary runs fuse: a's last end is superseded by
                // b's first (shifted) end.
                values.pop();
                positions.pop();
            }
            Ok(Some(rpe_finish(
                a,
                b,
                values,
                positions,
                b_values,
                b_positions,
                shift,
            )))
        }
        "dict" => {
            let a_dict = a.plain_part(dict::ROLE_DICT)?.to_numeric();
            let b_dict = b.plain_part(dict::ROLE_DICT)?.to_numeric();
            let a_codes = plain_u64(a, dict::ROLE_CODES)?;
            let b_codes = plain_u64(b, dict::ROLE_CODES)?;
            // Merge the two sorted dictionaries; build remap tables.
            let mut merged: Vec<i128> = Vec::with_capacity(a_dict.len() + b_dict.len());
            let (mut ra, mut rb) = (
                Vec::with_capacity(a_dict.len()),
                Vec::with_capacity(b_dict.len()),
            );
            let (mut i, mut j) = (0usize, 0usize);
            while i < a_dict.len() || j < b_dict.len() {
                let next = match (a_dict.get(i), b_dict.get(j)) {
                    (Some(&x), Some(&y)) if x == y => {
                        i += 1;
                        j += 1;
                        ra.push(merged.len() as u64);
                        rb.push(merged.len() as u64);
                        x
                    }
                    (Some(&x), Some(&y)) if x < y => {
                        i += 1;
                        ra.push(merged.len() as u64);
                        x
                    }
                    (Some(_), Some(&y)) => {
                        j += 1;
                        rb.push(merged.len() as u64);
                        y
                    }
                    (Some(&x), None) => {
                        i += 1;
                        ra.push(merged.len() as u64);
                        x
                    }
                    (None, Some(&y)) => {
                        j += 1;
                        rb.push(merged.len() as u64);
                        y
                    }
                    (None, None) => unreachable!("loop condition"),
                };
                merged.push(next);
            }
            let remap = |codes: &[u64], table: &[u64]| -> Result<Vec<u64>> {
                codes
                    .iter()
                    .map(|&c| {
                        table.get(c as usize).copied().ok_or_else(|| {
                            CoreError::CorruptParts(format!("code {c} past dictionary"))
                        })
                    })
                    .collect()
            };
            let mut codes = remap(a_codes, &ra)?;
            codes.extend(remap(b_codes, &rb)?);
            let merged_col = ColumnData::from_numeric(a.dtype, &merged)?;
            Ok(Some(rebuild(
                a,
                b,
                vec![
                    Part {
                        role: dict::ROLE_DICT,
                        data: PartData::Plain(merged_col),
                    },
                    Part {
                        role: dict::ROLE_CODES,
                        data: PartData::Plain(ColumnData::U64(codes)),
                    },
                ],
            )))
        }
        "ns" | "ns_zz" => {
            let zz_a = a.params.get("zigzag").unwrap_or(0);
            let zz_b = b.params.get("zigzag").unwrap_or(0);
            if zz_a != zz_b {
                return Ok(None);
            }
            let pa = a.packed_part(ns::ROLE_PACKED)?;
            let pb = b.packed_part(ns::ROLE_PACKED)?;
            let width = pa.width().max(pb.width());
            let mut raw = pa.unpack();
            raw.extend(pb.unpack());
            let packed = Packed::pack(&raw, width)?;
            let mut out = rebuild(
                a,
                b,
                vec![Part {
                    role: ns::ROLE_PACKED,
                    data: PartData::Packed(packed),
                }],
            );
            out.params.set("width", width as i64);
            Ok(Some(out))
        }
        "sparse" => {
            let base_a = a.plain_part(sparse::ROLE_VALUE)?;
            let base_b = b.plain_part(sparse::ROLE_VALUE)?;
            if a.n == 0 || b.n == 0 {
                return Ok(Some(if a.n == 0 { b.clone() } else { a.clone() }));
            }
            if base_a.get_transport(0) != base_b.get_transport(0) {
                return Ok(None); // different bases: recompress
            }
            let mut positions = plain_u64(a, sparse::ROLE_EXC_POSITIONS)?.clone();
            positions.extend(
                plain_u64(b, sparse::ROLE_EXC_POSITIONS)?
                    .iter()
                    .map(|&p| p + a.n as u64),
            );
            let values = concat_plain(
                a.plain_part(sparse::ROLE_EXC_VALUES)?,
                b.plain_part(sparse::ROLE_EXC_VALUES)?,
            );
            Ok(Some(rebuild(
                a,
                b,
                vec![
                    Part {
                        role: sparse::ROLE_VALUE,
                        data: PartData::Plain(base_a.clone()),
                    },
                    Part {
                        role: sparse::ROLE_EXC_POSITIONS,
                        data: PartData::Plain(ColumnData::U64(positions)),
                    },
                    Part {
                        role: sparse::ROLE_EXC_VALUES,
                        data: PartData::Plain(values),
                    },
                ],
            )))
        }
        _ => Ok(None),
    }
}

/// Finish the RPE merge: append b's values and shifted positions.
fn rpe_finish(
    a: &Compressed,
    b: &Compressed,
    mut values: Vec<u64>,
    mut positions: Vec<u64>,
    b_values: Vec<u64>,
    b_positions: &[u64],
    shift: u64,
) -> Compressed {
    values.extend(&b_values);
    positions.extend(b_positions.iter().map(|&p| p + shift));
    rebuild(
        a,
        b,
        vec![
            Part {
                role: rpe::ROLE_VALUES,
                data: PartData::Plain(ColumnData::from_transport(a.dtype, values)),
            },
            Part {
                role: rpe::ROLE_POSITIONS,
                data: PartData::Plain(ColumnData::U64(positions)),
            },
        ],
    )
}

fn rebuild(a: &Compressed, b: &Compressed, parts: Vec<Part>) -> Compressed {
    Compressed {
        scheme_id: a.scheme_id.clone(),
        n: a.n + b.n,
        dtype: a.dtype,
        params: a.params.clone(),
        parts,
    }
}

fn concat_plain(a: &ColumnData, b: &ColumnData) -> ColumnData {
    let mut t = a.to_transport();
    t.extend(b.to_transport());
    ColumnData::from_transport(a.dtype(), t)
}

fn plain_u64<'a>(c: &'a Compressed, role: &'static str) -> Result<&'a Vec<u64>> {
    match c.plain_part(role)? {
        ColumnData::U64(v) => Ok(v),
        other => Err(CoreError::CorruptParts(format!(
            "{role} must be u64, found {}",
            other.dtype().name()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::parse_scheme;

    fn check_structural(expr: &str, a_col: &ColumnData, b_col: &ColumnData, bit_exact: bool) {
        let scheme = parse_scheme(expr).unwrap();
        let a = scheme.compress(a_col).unwrap();
        let b = scheme.compress(b_col).unwrap();
        let (joined, path) = concat(scheme.as_ref(), &a, &b).unwrap();
        assert_eq!(path, ConcatPath::Structural, "{expr}");
        let mut expect = a_col.to_transport();
        expect.extend(b_col.to_transport());
        let expect = ColumnData::from_transport(a_col.dtype(), expect);
        assert_eq!(scheme.decompress(&joined).unwrap(), expect, "{expr}");
        if bit_exact {
            assert_eq!(
                joined,
                scheme.compress(&expect).unwrap(),
                "{expr} canonical"
            );
        }
    }

    #[test]
    fn id_rle_rpe_concat() {
        let a = ColumnData::U32(vec![5, 5, 5, 9, 9]);
        let b = ColumnData::U32(vec![9, 9, 2, 2, 2]);
        check_structural("id", &a, &b, true);
        // Boundary runs (9,9)+(9,9) must fuse in both forms.
        check_structural("rle", &a, &b, true);
        check_structural("rpe", &a, &b, true);
    }

    #[test]
    fn rle_no_boundary_merge() {
        let a = ColumnData::U64(vec![1, 1, 2]);
        let b = ColumnData::U64(vec![3, 3]);
        check_structural("rle", &a, &b, true);
        check_structural("rpe", &a, &b, true);
    }

    #[test]
    fn dict_merges_and_remaps() {
        let a = ColumnData::I64(vec![10, -5, 10, 30]);
        let b = ColumnData::I64(vec![20, -5, 40, 20]);
        check_structural("dict", &a, &b, true);
    }

    #[test]
    fn ns_repacks_at_wider_width() {
        let a = ColumnData::U64(vec![1, 2, 3]); // width 2
        let b = ColumnData::U64(vec![1000, 2000]); // width 11
        check_structural("ns", &a, &b, true);
        let s = parse_scheme("ns").unwrap();
        let (joined, _) = concat(
            s.as_ref(),
            &s.compress(&a).unwrap(),
            &s.compress(&b).unwrap(),
        )
        .unwrap();
        assert_eq!(joined.params.get("width"), Some(11));
    }

    #[test]
    fn ns_zz_and_mixed_zigzag() {
        let a = ColumnData::I64(vec![-1, 2, -3]);
        let b = ColumnData::I64(vec![4, -5]);
        check_structural("ns_zz", &a, &b, true);
        // Mixing zigzag with plain is rejected as a scheme mismatch.
        let zz = parse_scheme("ns_zz").unwrap();
        let plain = parse_scheme("ns").unwrap();
        let ca = zz.compress(&a).unwrap();
        let cb = plain.compress(&ColumnData::I64(vec![4, 5])).unwrap();
        assert!(concat(zz.as_ref(), &ca, &cb).is_err()); // scheme id differs
    }

    #[test]
    fn sparse_same_base_structural() {
        let mut av = vec![0i64; 400];
        av[7] = 9;
        let mut bv = vec![0i64; 300];
        bv[200] = -4;
        let a = ColumnData::I64(av);
        let b = ColumnData::I64(bv);
        // Same dominant base (0): structural, and here also canonical.
        check_structural("sparse", &a, &b, true);
    }

    #[test]
    fn sparse_different_base_falls_back() {
        let a = ColumnData::U64(vec![1; 100]);
        let b = ColumnData::U64(vec![2; 100]);
        let s = parse_scheme("sparse").unwrap();
        let (joined, path) = concat(
            s.as_ref(),
            &s.compress(&a).unwrap(),
            &s.compress(&b).unwrap(),
        )
        .unwrap();
        assert_eq!(path, ConcatPath::ViaPlain);
        let mut expect = a.to_transport();
        expect.extend(b.to_transport());
        assert_eq!(
            s.decompress(&joined).unwrap(),
            ColumnData::from_transport(a.dtype(), expect)
        );
    }

    #[test]
    fn cascades_and_for_take_generic_path() {
        let a = ColumnData::U64((0..256u64).map(|i| 100 + i % 7).collect());
        let b = ColumnData::U64((0..128u64).map(|i| 900 + i % 5).collect());
        for expr in ["for(l=64)", "rle[lengths=ns]", "dfor(l=32)", "vstep(w=4)"] {
            let s = parse_scheme(expr).unwrap();
            let (joined, path) = concat(
                s.as_ref(),
                &s.compress(&a).unwrap(),
                &s.compress(&b).unwrap(),
            )
            .unwrap();
            assert_eq!(path, ConcatPath::ViaPlain, "{expr}");
            let mut expect = a.to_transport();
            expect.extend(b.to_transport());
            assert_eq!(
                s.decompress(&joined).unwrap(),
                ColumnData::from_transport(a.dtype(), expect),
                "{expr}"
            );
        }
    }

    #[test]
    fn empty_halves() {
        let empty = ColumnData::U64(vec![]);
        let full = ColumnData::U64(vec![3, 3, 4]);
        for expr in ["id", "rle", "rpe", "dict", "ns", "sparse"] {
            check_structural(expr, &empty, &full, true);
            check_structural(expr, &full, &empty, true);
            check_structural(expr, &empty, &empty, true);
        }
    }

    #[test]
    fn dtype_mismatch_rejected() {
        let s = parse_scheme("id").unwrap();
        let a = s.compress(&ColumnData::U32(vec![1])).unwrap();
        let b = s.compress(&ColumnData::U64(vec![1])).unwrap();
        assert!(concat(s.as_ref(), &a, &b).is_err());
    }
}
