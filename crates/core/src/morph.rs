//! Morphing: transcoding between compressed forms.
//!
//! The paper's decomposition identities are not just analytically
//! pleasing — they are *algorithms*: because a prefix of one scheme's
//! decompression DAG lands on another scheme's compressed form, an
//! engine can re-encode data **without materialising the plain column**.
//! [`morph`] packages that: given a compressed form and a target scheme
//! it picks a structural path where one is known (running only the DAG
//! fragment that separates the two schemes) and falls back to
//! decompress-then-recompress otherwise.
//!
//! Structural paths and where they come from:
//!
//! | From → To | Identity | Work |
//! |---|---|---|
//! | `rle` → `rpe` | Alg. 1 line 1 applied alone | O(runs) |
//! | `rpe` → `rle` | DELTA-compress the positions | O(runs) |
//! | `for(l)` → `pfor(l,keep)` | re-bucket the offsets, same model | O(n), no adds |
//! | `pfor(l,keep)` → `for(l)` | apply patches to the offsets | O(n), no adds |
//! | `step(l)` → `vstep(w)` | merge equal adjacent steps | O(segments) |
//! | `rle` → `vstep(w)` | runs are zero-offset frames | O(runs) |
//!
//! The FOR-family paths never execute Algorithm 2's `Gather`/`+` — the
//! model half (`refs`) passes through untouched; only the residual half
//! is re-encoded. That is the paper's model/residual separation
//! (Lessons 2) earning its keep operationally.

use crate::column::ColumnData;
use crate::error::{CoreError, Result};
use crate::expr::parse_expr;
use crate::rewrite;
use crate::scheme::{Compressed, Params, Part, PartData, Scheme};
use crate::schemes::{for_, patch, step, vstep};
use lcdc_bitpack::width::{bits_needed_u64, width_percentile};
use lcdc_bitpack::Packed;

/// Which route a [`morph`] call took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MorphPath {
    /// A structural rewrite on the compressed parts; the plain column was
    /// never materialised.
    Structural,
    /// Generic decompress-then-recompress.
    ViaPlain,
}

/// Transcode `c` (a form produced by `from`) into `to`'s compressed
/// form. Returns the new form and the path taken.
///
/// Whatever the path, the result is a bona-fide form of `to`:
/// `to.decompress(&morphed)` equals `from.decompress(c)`. For the
/// `rle↔rpe` and `for↔pfor` structural pairs the result is additionally
/// *bit-identical* to freshly compressing the plain column with `to`.
pub fn morph(
    from: &dyn Scheme,
    c: &Compressed,
    to: &dyn Scheme,
) -> Result<(Compressed, MorphPath)> {
    c.check_scheme(&from.name())?;
    if let Some(out) = structural_path(c, &to.name())? {
        return Ok((out, MorphPath::Structural));
    }
    let plain = from.decompress(c)?;
    Ok((to.compress(&plain)?, MorphPath::ViaPlain))
}

/// [`morph`] with schemes given as expressions (see [`crate::expr`]).
pub fn morph_expr(c: &Compressed, from: &str, to: &str) -> Result<(Compressed, MorphPath)> {
    let from = parse_expr(from)?.build()?;
    let to = parse_expr(to)?.build()?;
    morph(from.as_ref(), c, to.as_ref())
}

/// Try the known structural routes; `Ok(None)` means "no route, use the
/// generic path".
fn structural_path(c: &Compressed, to_name: &str) -> Result<Option<Compressed>> {
    let Ok(target) = parse_expr(to_name) else {
        return Ok(None);
    };
    // Structural paths apply only to bare (non-cascaded) source and
    // target forms: cascaded parts are nested payloads.
    if !target.subs.is_empty()
        || c.parts
            .iter()
            .any(|p| matches!(p.data, PartData::Nested(_)))
    {
        return Ok(None);
    }
    let Ok(source) = parse_expr(&c.scheme_id) else {
        return Ok(None);
    };
    let src_l = source
        .params
        .iter()
        .find(|(k, _)| k == "l")
        .map(|&(_, v)| v);
    let dst_l = target
        .params
        .iter()
        .find(|(k, _)| k == "l")
        .map(|&(_, v)| v);
    match (source.name.as_str(), target.name.as_str()) {
        ("rle", "rpe") => Ok(Some(rewrite::rle_to_rpe(c)?)),
        ("rpe", "rle") => Ok(Some(rewrite::rpe_to_rle(c)?)),
        // Same segmentation required: the refs column passes through.
        ("for", "pfor") if src_l == dst_l && !source.params.iter().any(|(k, _)| k == "first") => {
            let keep = target
                .params
                .iter()
                .find(|(k, _)| k == "keep")
                .map(|&(_, v)| v)
                .unwrap_or(990);
            if !(1..=1000).contains(&keep) {
                return Ok(None);
            }
            Ok(Some(for_to_pfor(c, to_name, keep as u32)?))
        }
        ("pfor", "for") if src_l == dst_l && !target.params.iter().any(|(k, _)| k == "first") => {
            Ok(Some(pfor_to_for(c, to_name)?))
        }
        ("step", "vstep") => Ok(Some(step_to_vstep(c, to_name, &target)?)),
        ("rle", "vstep") => Ok(Some(rle_to_vstep(c, to_name, &target)?)),
        _ => Ok(None),
    }
}

/// FOR → PFOR with the same segment length: keep `refs`, re-bucket the
/// plain offsets into a narrow payload plus exceptions — exactly
/// [`patch::PatchedFor::compress`]'s classification, skipping the
/// model-side work entirely.
fn for_to_pfor(c: &Compressed, to_name: &str, keep: u32) -> Result<Compressed> {
    let refs = c.plain_part(for_::ROLE_REFS)?.clone();
    let offsets = match c.plain_part(for_::ROLE_OFFSETS)? {
        ColumnData::U64(o) => o,
        _ => return Err(CoreError::CorruptParts("offsets part must be u64".into())),
    };
    let seg_len = c.params.require("l")?;

    let width = width_percentile(offsets, keep as f64 / 1000.0);
    let mut exc_positions = Vec::new();
    let mut exc_offsets = Vec::new();
    let payload: Vec<u64> = offsets
        .iter()
        .enumerate()
        .map(|(i, &o)| {
            if bits_needed_u64(o) > width {
                exc_positions.push(i as u64);
                exc_offsets.push(o);
                0
            } else {
                o
            }
        })
        .collect();
    let packed = Packed::pack(&payload, width)?;
    Ok(Compressed {
        scheme_id: to_name.to_string(),
        n: c.n,
        dtype: c.dtype,
        params: Params::new()
            .with("l", seg_len)
            .with("keep", keep as i64)
            .with("width", width as i64),
        parts: vec![
            Part {
                role: patch::ROLE_REFS,
                data: PartData::Plain(refs),
            },
            Part {
                role: patch::ROLE_OFFSETS,
                data: PartData::Packed(packed),
            },
            Part {
                role: patch::ROLE_EXC_POSITIONS,
                data: PartData::Plain(ColumnData::U64(exc_positions)),
            },
            Part {
                role: patch::ROLE_EXC_OFFSETS,
                data: PartData::Plain(ColumnData::U64(exc_offsets)),
            },
        ],
    })
}

/// PFOR → FOR with the same segment length: unpack the narrow payload,
/// apply the exception patches (one `ScatterOver`), keep `refs`.
fn pfor_to_for(c: &Compressed, to_name: &str) -> Result<Compressed> {
    let refs = c.plain_part(patch::ROLE_REFS)?.clone();
    let packed = c.packed_part(patch::ROLE_OFFSETS)?;
    let mut offsets = packed.unpack();
    let exc_positions = match c.plain_part(patch::ROLE_EXC_POSITIONS)? {
        ColumnData::U64(p) => p,
        _ => {
            return Err(CoreError::CorruptParts(
                "exception positions must be u64".into(),
            ))
        }
    };
    let exc_offsets = match c.plain_part(patch::ROLE_EXC_OFFSETS)? {
        ColumnData::U64(o) => o,
        _ => {
            return Err(CoreError::CorruptParts(
                "exception offsets must be u64".into(),
            ))
        }
    };
    lcdc_colops::scatter_into(exc_offsets, exc_positions, &mut offsets)?;
    Ok(Compressed {
        scheme_id: to_name.to_string(),
        n: c.n,
        dtype: c.dtype,
        params: Params::new().with("l", c.params.require("l")?),
        parts: vec![
            Part {
                role: for_::ROLE_REFS,
                data: PartData::Plain(refs),
            },
            Part {
                role: for_::ROLE_OFFSETS,
                data: PartData::Plain(ColumnData::U64(offsets)),
            },
        ],
    })
}

/// STEP → VSTEP: merge adjacent equal-level fixed segments into
/// variable frames with all-zero offsets. The result decompresses
/// identically but is not necessarily the greedy form a fresh VSTEP
/// compression would produce (fresh compression may merge *unequal*
/// neighbouring steps whose combined spread fits the budget).
fn step_to_vstep(
    c: &Compressed,
    to_name: &str,
    target: &crate::expr::SchemeExpr,
) -> Result<Compressed> {
    let w = target
        .params
        .iter()
        .find(|(k, _)| k == "w")
        .map(|&(_, v)| v)
        .ok_or_else(|| CoreError::Parse("vstep requires w=...".into()))?;
    if !(1..=64).contains(&w) {
        return Err(CoreError::Parse(format!("vstep w={w} outside 1..=64")));
    }
    let seg_len = c.params.require("l")? as usize;
    let refs = c.plain_part(step::ROLE_REFS)?;
    let refs_t = refs.to_transport();

    let mut positions: Vec<u64> = Vec::new();
    let mut frame_refs: Vec<u64> = Vec::new();
    for (seg, &level) in refs_t.iter().enumerate() {
        let end = (((seg + 1) * seg_len).min(c.n)) as u64;
        if frame_refs.last() == Some(&level) {
            *positions.last_mut().expect("non-empty with last ref") = end;
        } else {
            frame_refs.push(level);
            positions.push(end);
        }
    }
    Ok(Compressed {
        scheme_id: to_name.to_string(),
        n: c.n,
        dtype: c.dtype,
        params: Params::new().with("w", w),
        parts: vec![
            Part {
                role: vstep::ROLE_POSITIONS,
                data: PartData::Plain(ColumnData::U64(positions)),
            },
            Part {
                role: vstep::ROLE_REFS,
                data: PartData::Plain(ColumnData::from_transport(c.dtype, frame_refs)),
            },
            Part {
                role: vstep::ROLE_OFFSETS,
                data: PartData::Plain(ColumnData::U64(vec![0; c.n])),
            },
        ],
    })
}

/// RLE → VSTEP: runs are frames whose offsets are all zero — RLE is the
/// degenerate VSTEP whose every frame is exactly one run. One
/// `PrefixSum` over the lengths (the same operator as the RLE→RPE
/// rewrite) yields the frame ends; the run values become the refs.
/// Valid for any width budget; like STEP→VSTEP the result decompresses
/// identically but is not necessarily the greedy canonical form.
fn rle_to_vstep(
    c: &Compressed,
    to_name: &str,
    target: &crate::expr::SchemeExpr,
) -> Result<Compressed> {
    let w = target
        .params
        .iter()
        .find(|(k, _)| k == "w")
        .map(|&(_, v)| v)
        .ok_or_else(|| CoreError::Parse("vstep requires w=...".into()))?;
    if !(1..=64).contains(&w) {
        return Err(CoreError::Parse(format!("vstep w={w} outside 1..=64")));
    }
    let values = c.plain_part(crate::schemes::rle::ROLE_VALUES)?.clone();
    let lengths = match c.plain_part(crate::schemes::rle::ROLE_LENGTHS)? {
        ColumnData::U64(l) => l,
        _ => return Err(CoreError::CorruptParts("lengths part must be u64".into())),
    };
    let positions = lcdc_colops::prefix_sum_inclusive(lengths);
    Ok(Compressed {
        scheme_id: to_name.to_string(),
        n: c.n,
        dtype: c.dtype,
        params: Params::new().with("w", w),
        parts: vec![
            Part {
                role: vstep::ROLE_POSITIONS,
                data: PartData::Plain(ColumnData::U64(positions)),
            },
            Part {
                role: vstep::ROLE_REFS,
                data: PartData::Plain(values),
            },
            Part {
                role: vstep::ROLE_OFFSETS,
                data: PartData::Plain(ColumnData::U64(vec![0; c.n])),
            },
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::{Dict, For, PatchedFor, Rle, Rpe, StepFunction, VarStep};

    fn outlier_column() -> ColumnData {
        let mut v: Vec<u64> = (0..1000).map(|i| 100 + (i % 13)).collect();
        for i in [100usize, 300, 500, 700, 900] {
            v[i] = 1 << 40;
        }
        ColumnData::U64(v)
    }

    #[test]
    fn rle_rpe_both_ways_structural() {
        let col = ColumnData::U32(vec![7, 7, 7, 9, 9, 4, 4, 4, 4, 2]);
        let c = Rle.compress(&col).unwrap();
        let (as_rpe, path) = morph(&Rle, &c, &Rpe).unwrap();
        assert_eq!(path, MorphPath::Structural);
        assert_eq!(as_rpe, Rpe.compress(&col).unwrap()); // bit-exact
        let (back, path) = morph(&Rpe, &as_rpe, &Rle).unwrap();
        assert_eq!(path, MorphPath::Structural);
        assert_eq!(back, c);
    }

    #[test]
    fn for_to_pfor_bit_exact() {
        let col = outlier_column();
        let c = For::new(128).compress(&col).unwrap();
        let target = PatchedFor::new(128, 990);
        let (morphed, path) = morph(&For::new(128), &c, &target).unwrap();
        assert_eq!(path, MorphPath::Structural);
        assert_eq!(morphed, target.compress(&col).unwrap());
        assert_eq!(target.decompress(&morphed).unwrap(), col);
    }

    #[test]
    fn pfor_to_for_bit_exact() {
        let col = outlier_column();
        let source = PatchedFor::new(128, 990);
        let c = source.compress(&col).unwrap();
        let (morphed, path) = morph(&source, &c, &For::new(128)).unwrap();
        assert_eq!(path, MorphPath::Structural);
        assert_eq!(morphed, For::new(128).compress(&col).unwrap());
    }

    #[test]
    fn for_to_pfor_different_seg_len_falls_back() {
        let col = outlier_column();
        let c = For::new(128).compress(&col).unwrap();
        let target = PatchedFor::new(64, 990);
        let (morphed, path) = morph(&For::new(128), &c, &target).unwrap();
        assert_eq!(path, MorphPath::ViaPlain);
        assert_eq!(morphed, target.compress(&col).unwrap());
    }

    #[test]
    fn step_to_vstep_merges_equal_steps() {
        // 6 fixed segments over 3 levels -> 3 frames.
        let col = ColumnData::U64(
            [5u64, 5, 5, 5, 9, 9, 2, 2]
                .iter()
                .flat_map(|&v| [v; 4])
                .collect(),
        );
        let source = StepFunction::new(4);
        let c = source.compress(&col).unwrap();
        let target = VarStep::new(8);
        let (morphed, path) = morph(&source, &c, &target).unwrap();
        assert_eq!(path, MorphPath::Structural);
        assert_eq!(morphed.part(vstep::ROLE_POSITIONS).unwrap().data.len(), 3);
        assert_eq!(target.decompress(&morphed).unwrap(), col);
    }

    #[test]
    fn rle_to_vstep_structural() {
        let col = ColumnData::I64(vec![4, 4, 4, -9, -9, 2, 2, 2, 2]);
        let c = Rle.compress(&col).unwrap();
        let target = VarStep::new(8);
        let (morphed, path) = morph(&Rle, &c, &target).unwrap();
        assert_eq!(path, MorphPath::Structural);
        assert_eq!(target.decompress(&morphed).unwrap(), col);
        // One frame per run.
        assert_eq!(morphed.part(vstep::ROLE_POSITIONS).unwrap().data.len(), 3);
    }

    #[test]
    fn generic_fallback_works_and_is_flagged() {
        let col = ColumnData::U64((0..600u64).map(|i| (i / 37) % 5).collect());
        let c = Rle.compress(&col).unwrap();
        let (as_dict, path) = morph(&Rle, &c, &Dict).unwrap();
        assert_eq!(path, MorphPath::ViaPlain);
        assert_eq!(Dict.decompress(&as_dict).unwrap(), col);
    }

    #[test]
    fn morph_expr_parses_both_sides() {
        let col = ColumnData::U32(vec![3, 3, 3, 8, 8, 8, 8, 1]);
        let c = Rle.compress(&col).unwrap();
        let (as_rpe, path) = morph_expr(&c, "rle", "rpe").unwrap();
        assert_eq!(path, MorphPath::Structural);
        assert_eq!(Rpe.decompress(&as_rpe).unwrap(), col);
        assert!(morph_expr(&c, "rpe", "rle").is_err()); // wrong source scheme
    }

    #[test]
    fn cascaded_forms_take_generic_path() {
        let col = ColumnData::U64((0..512u64).map(|i| 40 + i / 64).collect());
        let scheme = parse_expr("rle[lengths=ns]").unwrap().build().unwrap();
        let c = scheme.compress(&col).unwrap();
        let (as_rpe, path) = morph(scheme.as_ref(), &c, &Rpe).unwrap();
        assert_eq!(path, MorphPath::ViaPlain);
        assert_eq!(Rpe.decompress(&as_rpe).unwrap(), col);
    }

    #[test]
    fn first_ref_for_is_not_structurally_morphable() {
        // first-element refs break the "refs are segment minima"
        // assumption shared with PFOR; must fall back.
        let col = outlier_column();
        let source = For::new_first_ref(128);
        let c = source.compress(&col).unwrap();
        let target = PatchedFor::new(128, 990);
        let (morphed, path) = morph(&source, &c, &target).unwrap();
        assert_eq!(path, MorphPath::ViaPlain);
        assert_eq!(target.decompress(&morphed).unwrap(), col);
    }

    #[test]
    fn morph_checks_source_scheme() {
        let col = ColumnData::U32(vec![1, 1, 2]);
        let c = Rle.compress(&col).unwrap();
        assert!(morph(&Rpe, &c, &Rle).is_err());
    }
}
