//! Patched FOR — the paper's L0-metric generalisation (§II-B):
//!
//! "For the L0 metric [...] we could add patches to the basic model; this
//! would represent columns whose data is 'really' a step function, but
//! with the occasional divergent arbitrary-value element."
//!
//! The offsets payload is packed at a width covering `keep` per-mille of
//! offsets; the divergent rest become *exceptions* — (position, offset)
//! pairs applied by a scatter after the base reconstruction, exactly the
//! PFOR idea of Zukowski et al. (paper ref. \[1]).

use crate::column::ColumnData;
use crate::error::{CoreError, Result};
use crate::parts::Parts;
use crate::plan::{Node, Plan};
use crate::scheme::{Compressed, Params, Part, PartData, Scheme};
use crate::schemes::for_::add_references;
use crate::stats::ColumnStats;
use crate::{build_column, with_column};
use lcdc_bitpack::width::{bits_needed_u64, histogram_percentile, packed_bytes, width_percentile};
use lcdc_bitpack::Packed;
use lcdc_colops::segment::check_segments;
use lcdc_colops::Scalar;
use lcdc_colops::{BinOpKind, ColOpsError};

/// FOR with a narrow packed payload and exception patches.
#[derive(Debug, Clone, Copy)]
pub struct PatchedFor {
    /// Segment length ℓ.
    pub seg_len: usize,
    /// Per-mille of offsets the packed width must cover (e.g. 990).
    pub keep_per_mille: u32,
}

impl PatchedFor {
    /// Construct with segment length and coverage (both clamped sane).
    pub fn new(seg_len: usize, keep_per_mille: u32) -> Self {
        PatchedFor {
            seg_len: seg_len.max(1),
            keep_per_mille: keep_per_mille.clamp(1, 1000),
        }
    }
}

/// Role of the per-segment reference part.
pub const ROLE_REFS: &str = "refs";
/// Role of the packed narrow-offset payload.
pub const ROLE_OFFSETS: &str = "offsets";
/// Role of the exception-position part (u64 row indices).
pub const ROLE_EXC_POSITIONS: &str = "exc_positions";
/// Role of the exception-offset part (u64 true offsets).
pub const ROLE_EXC_OFFSETS: &str = "exc_offsets";

impl Scheme for PatchedFor {
    fn name(&self) -> String {
        format!("pfor(l={},keep={})", self.seg_len, self.keep_per_mille)
    }

    fn compress(&self, col: &ColumnData) -> Result<Compressed> {
        let (refs, offsets) = with_column!(col, |v| {
            let mut refs_t = Vec::with_capacity(v.len().div_ceil(self.seg_len));
            let mut offsets = Vec::with_capacity(v.len());
            for chunk in v.chunks(self.seg_len) {
                let lo = *chunk.iter().min().expect("non-empty chunk");
                let lo_t = lo.to_u64();
                refs_t.push(lo_t);
                offsets.extend(chunk.iter().map(|x| x.to_u64().wrapping_sub(lo_t)));
            }
            (ColumnData::from_transport(col.dtype(), refs_t), offsets)
        });

        let width = width_percentile(&offsets, self.keep_per_mille as f64 / 1000.0);
        let mut exc_positions = Vec::new();
        let mut exc_offsets = Vec::new();
        let payload: Vec<u64> = offsets
            .iter()
            .enumerate()
            .map(|(i, &o)| {
                if bits_needed_u64(o) > width {
                    exc_positions.push(i as u64);
                    exc_offsets.push(o);
                    0 // placeholder in the narrow payload
                } else {
                    o
                }
            })
            .collect();
        let packed = Packed::pack(&payload, width)?;

        Ok(Compressed {
            scheme_id: self.name(),
            n: col.len(),
            dtype: col.dtype(),
            params: Params::new()
                .with("l", self.seg_len as i64)
                .with("keep", self.keep_per_mille as i64)
                .with("width", width as i64),
            parts: vec![
                Part {
                    role: ROLE_REFS,
                    data: PartData::Plain(refs),
                },
                Part {
                    role: ROLE_OFFSETS,
                    data: PartData::Packed(packed),
                },
                Part {
                    role: ROLE_EXC_POSITIONS,
                    data: PartData::Plain(ColumnData::U64(exc_positions)),
                },
                Part {
                    role: ROLE_EXC_OFFSETS,
                    data: PartData::Plain(ColumnData::U64(exc_offsets)),
                },
            ],
        })
    }

    /// Fused like FOR — reference added to each unpacked chunk on the
    /// way out — with the exceptions patched over the output afterwards.
    fn decode(&self, parts: &Parts<'_>) -> Result<ColumnData> {
        let c = parts.form();
        let refs = parts.column(ROLE_REFS)?;
        let refs = refs.as_transport();
        let offsets = parts.stream(ROLE_OFFSETS)?;
        if offsets.len() != c.n {
            return Err(CoreError::CorruptParts(format!(
                "offsets payload holds {} values, expected {}",
                offsets.len(),
                c.n
            )));
        }
        let exc_positions = parts.column(ROLE_EXC_POSITIONS)?;
        let exc_positions = exc_positions.expect_u64("exception positions")?;
        let exc_offsets = parts.column(ROLE_EXC_OFFSETS)?;
        let exc_offsets = exc_offsets.expect_u64("exception offsets")?;
        check_segments(refs.len(), self.seg_len, c.n)?;
        if exc_offsets.len() != exc_positions.len() {
            return Err(ColOpsError::LengthMismatch {
                left: exc_offsets.len(),
                right: exc_positions.len(),
            }
            .into());
        }
        Ok(build_column!(c.dtype, c.n, |out: Vec<T>| {
            add_references(&offsets, self.seg_len, &refs, &mut out);
            for (&pos, &o) in exc_positions.iter().zip(exc_offsets) {
                let index = usize::try_from(pos).map_err(|_| ColOpsError::BadIndexValue)?;
                let slot = out
                    .get_mut(index)
                    .ok_or(ColOpsError::IndexOutOfBounds { index, len: c.n })?;
                *slot = T::from_u64(refs[index / self.seg_len].wrapping_add(o));
            }
        }))
    }

    /// Algorithm 2 with one extra operator: a `ScatterOver` applying the
    /// exception patches to the unpacked offsets before the addition.
    fn plan(&self, c: &Compressed) -> Result<Plan> {
        Plan::new(
            vec![
                Node::Part(1), // %0 narrow offsets
                Node::Part(3), // %1 exc offsets
                Node::Part(2), // %2 exc positions
                Node::ScatterOver {
                    base: 0,
                    src: 1,
                    positions: 2,
                }, // %3 offsets
                Node::Const { value: 1, len: c.n }, // %4 ones
                Node::PrefixSumExclusive(4), // %5 id
                Node::BinaryScalar {
                    op: BinOpKind::Div,
                    lhs: 5,
                    rhs: self.seg_len as u64,
                },
                Node::Part(0), // %7 refs
                Node::Gather {
                    values: 7,
                    indices: 6,
                }, // %8 replicated
                Node::Binary {
                    op: BinOpKind::Add,
                    lhs: 8,
                    rhs: 3,
                }, // %9
            ],
            9,
        )
    }

    /// The three parameters and one reference per segment — and, from
    /// the histogram of offset widths taken at `l`, exactly the payload
    /// and exceptions the percentile rule leaves.
    fn floor(&self, stats: &ColumnStats) -> Option<usize> {
        let refs = stats.n.div_ceil(self.seg_len) * stats.dtype.bytes();
        let Some(hist) = stats.offset_widths_at(self.seg_len) else {
            return Some(24 + refs);
        };
        let width = histogram_percentile(hist, stats.n, self.keep_per_mille as f64 / 1000.0);
        let exceptions: usize = hist[width as usize + 1..].iter().sum();
        Some(24 + refs + packed_bytes(stats.n, width) + exceptions * 16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::decompress_via_plan;
    use crate::schemes::for_::For;

    fn outlier_column() -> ColumnData {
        // 1000 values near 100, with 5 huge outliers.
        let mut v: Vec<u64> = (0..1000).map(|i| 100 + (i % 13)).collect();
        for i in [100usize, 300, 500, 700, 900] {
            v[i] = 1 << 40;
        }
        ColumnData::U64(v)
    }

    #[test]
    fn round_trip_with_exceptions() {
        let p = PatchedFor::new(128, 990);
        let c = p.compress(&outlier_column()).unwrap();
        let exc = c.plain_part(ROLE_EXC_POSITIONS).unwrap().len();
        assert!(
            exc >= 5,
            "expected the outliers to be exceptions, got {exc}"
        );
        assert_eq!(p.decompress(&c).unwrap(), outlier_column());
    }

    #[test]
    fn plan_matches_direct() {
        let p = PatchedFor::new(128, 990);
        let c = p.compress(&outlier_column()).unwrap();
        assert_eq!(decompress_via_plan(&p, &c).unwrap(), outlier_column());
    }

    #[test]
    fn beats_plain_for_on_outliers() {
        let p = PatchedFor::new(128, 990);
        let patched = p.compress(&outlier_column()).unwrap();
        let plain = For::with_ns(128).compress(&outlier_column()).unwrap();
        assert!(
            patched.compressed_bytes() * 2 < plain.compressed_bytes(),
            "patched {} vs plain-FOR {}",
            patched.compressed_bytes(),
            plain.compressed_bytes()
        );
    }

    #[test]
    fn floor_is_exact_at_segment_length() {
        for col in [
            outlier_column(),
            ColumnData::I64(vec![i64::MIN, i64::MAX, 0]),
        ] {
            let stats = ColumnStats::collect(&col);
            let p = PatchedFor::new(128, 990);
            let actual = p.compress(&col).unwrap().compressed_bytes();
            assert_eq!(p.floor(&stats), Some(actual));
            assert!(PatchedFor::new(64, 990).floor(&stats).unwrap() <= actual);
        }
    }

    #[test]
    fn no_outliers_means_no_exceptions() {
        let col = ColumnData::U64((0..512).map(|i| 1000 + i % 16).collect());
        let p = PatchedFor::new(128, 1000);
        let c = p.compress(&col).unwrap();
        assert_eq!(c.plain_part(ROLE_EXC_POSITIONS).unwrap().len(), 0);
        assert_eq!(p.decompress(&c).unwrap(), col);
    }

    #[test]
    fn signed_columns() {
        let mut v: Vec<i64> = (0..500).map(|i| -1000 + (i % 7)).collect();
        v[250] = i64::MAX;
        let col = ColumnData::I64(v);
        let p = PatchedFor::new(64, 990);
        let c = p.compress(&col).unwrap();
        assert_eq!(p.decompress(&c).unwrap(), col);
        assert_eq!(decompress_via_plan(&p, &c).unwrap(), col);
    }

    #[test]
    fn empty_column() {
        let col = ColumnData::U32(vec![]);
        let p = PatchedFor::new(32, 990);
        let c = p.compress(&col).unwrap();
        assert_eq!(p.decompress(&c).unwrap(), col);
    }

    #[test]
    fn parameters_clamped() {
        let p = PatchedFor::new(0, 5000);
        assert_eq!(p.seg_len, 1);
        assert_eq!(p.keep_per_mille, 1000);
    }

    #[test]
    fn corrupt_payload_length_detected() {
        let p = PatchedFor::new(128, 990);
        let mut c = p.compress(&outlier_column()).unwrap();
        c.n += 1;
        assert!(matches!(p.decompress(&c), Err(CoreError::CorruptParts(_))));
    }
}
