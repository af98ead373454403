//! NS — null suppression, i.e. bit packing: "discarding redundant bits"
//! (paper §I).
//!
//! The width is chosen as the smallest covering every value. For signed
//! data (or the signed deltas/residuals other schemes cascade into NS)
//! the zigzag variant maps small-magnitude values to small codes first.
//!
//! In the paper's algebra NS is the canonical *residual* scheme: FOR is
//! `STEPFUNCTION + NS`, and its generalisations swap this subscheme for
//! the variable-width or patched variants. Variable-width NS
//! ([`super::varwidth`]) is NS with one width per 128-value block, so
//! both are one [`NullSuppression`] over one [`Packed`] container: they
//! differ only in their [`WidthRule`] — name, how `compress` packs and
//! which parameters it records, and the size floor.

use crate::column::{ColumnData, DType};
use crate::error::{CoreError, Result};
use crate::parts::{PartStream, Parts};
use crate::plan::{Node, Plan};
use crate::scheme::{Compressed, Params, Part, PartData, Scheme};
use crate::stats::ColumnStats;
use lcdc_bitpack::width::packed_bytes;
use lcdc_bitpack::{max_width, Packed, Widths};
use std::marker::PhantomData;

/// What sets one null-suppression scheme apart from another: how its
/// payload's widths are chosen.
pub trait WidthRule: std::fmt::Debug + Clone + Copy + Default + Send + Sync {
    /// The scheme's name without the zigzag suffix.
    const NAME: &'static str;
    /// Role of the packed payload part.
    const ROLE: &'static str;
    /// Whether the payload has one width per block.
    const PER_BLOCK: bool;

    /// Pack `values`, with the parameters that record the choice.
    fn pack(values: &[u64]) -> Result<(Packed, Params)>;

    /// [`Scheme::floor`] for the zigzag or the plain variant.
    fn floor(stats: &ColumnStats, zigzag: bool) -> Option<usize>;
}

/// Null suppression under the width rule `W`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSuppression<W> {
    /// Zigzag-map values before packing (for signed payloads).
    pub zigzag: bool,
    widths: PhantomData<W>,
}

/// The null-suppression scheme: one width for the whole column.
pub type Ns = NullSuppression<OneWidth>;

/// NS's width rule: the smallest width covering every value.
#[derive(Debug, Clone, Copy, Default)]
pub struct OneWidth;

/// Role of the packed payload part.
pub const ROLE_PACKED: &str = "packed";

impl WidthRule for OneWidth {
    const NAME: &'static str = "ns";
    const ROLE: &'static str = ROLE_PACKED;
    const PER_BLOCK: bool = false;

    fn pack(values: &[u64]) -> Result<(Packed, Params)> {
        let width = max_width(values);
        let params = Params::new().with("width", width as i64);
        Ok((Packed::pack(values, width)?, params))
    }

    /// Exact: the packed payload at the column's width, plus two
    /// parameters.
    fn floor(stats: &ColumnStats, zigzag: bool) -> Option<usize> {
        let width = if zigzag {
            stats.zz_width
        } else {
            stats.ns_width?
        };
        Some(packed_bytes(stats.n, width) + 16)
    }
}

impl<W: WidthRule> NullSuppression<W> {
    /// The plain variant (values must be non-negative).
    pub fn plain() -> Self {
        Self::default()
    }

    /// The zigzagged variant (any signed values).
    pub fn zz() -> Self {
        NullSuppression {
            zigzag: true,
            widths: PhantomData,
        }
    }

    /// The payload part of `c`, checked to be packed the way `W` packs
    /// and to hold `c.n` values.
    pub(crate) fn packed(c: &Compressed) -> Result<&Packed> {
        let packed = c.packed_part(W::ROLE)?;
        if matches!(packed.widths(), Widths::Blocks(_)) != W::PER_BLOCK {
            return Err(CoreError::CorruptParts(format!(
                "{} payload has the wrong kind of widths",
                W::NAME
            )));
        }
        if packed.len() != c.n {
            return Err(CoreError::CorruptParts(format!(
                "{} payload holds {} values, expected {}",
                W::NAME,
                packed.len(),
                c.n
            )));
        }
        Ok(packed)
    }

    /// The form of a `dtype` column whose transport values —
    /// zigzagged, for the zigzag variant — are `values`: what
    /// [`Scheme::compress`] builds once it has checked and mapped the
    /// column, for a caller that holds such values already (a run
    /// repacking remapped dictionary codes).
    pub fn form_of(&self, values: &[u64], dtype: DType) -> Result<Compressed> {
        let (packed, params) = W::pack(values)?;
        Ok(Compressed {
            scheme_id: self.name(),
            n: values.len(),
            dtype,
            params: params.with("zigzag", self.zigzag as i64),
            parts: vec![Part {
                role: W::ROLE,
                data: PartData::Packed(packed),
            }],
        })
    }

    /// The payload part as a stream of the column it encodes.
    fn payload<'a>(&self, c: &'a Compressed) -> Result<PartStream<'a>> {
        Ok(PartStream::packed(Self::packed(c)?, self.zigzag, c.dtype))
    }
}

impl<W: WidthRule> Scheme for NullSuppression<W> {
    fn name(&self) -> String {
        match self.zigzag {
            true => format!("{}_zz", W::NAME),
            false => W::NAME.to_string(),
        }
    }

    fn compress(&self, col: &ColumnData) -> Result<Compressed> {
        let transport = col.to_transport();
        let to_pack: Vec<u64> = if self.zigzag {
            transport
                .iter()
                .map(|&v| lcdc_bitpack::zigzag_encode_i64(v as i64))
                .collect()
        } else {
            // Non-negativity: for signed dtypes a negative value
            // sign-extends to a transport with the top bit set; unsigned
            // transports are the values themselves. Either way the data
            // must be numerically non-negative for the plain variant.
            if let Some((min, _)) = col.min_max_numeric() {
                if min < 0 {
                    return Err(CoreError::NotRepresentable(format!(
                        "plain {0} requires non-negative values (min = {min}); use {0}_zz",
                        W::NAME
                    )));
                }
            }
            transport
        };
        self.form_of(&to_pack, col.dtype())
    }

    fn decode(&self, parts: &Parts<'_>) -> Result<ColumnData> {
        Ok(self.payload(parts.form())?.into_column().into_owned())
    }

    fn visit_parts(&self, parts: &Parts<'_>, f: &mut dyn FnMut(&[u64])) -> Result<()> {
        self.payload(parts.form())?.for_each_chunk(f);
        Ok(())
    }

    /// The packed payload, unpacked (and zigzag-decoded) a chunk at a
    /// time: an outer scheme cascaded into NS never sees an unpacked
    /// column.
    fn stream<'a>(&self, c: &'a Compressed) -> Result<PartStream<'a>> {
        c.check_scheme(&self.name())?;
        self.payload(c)
    }

    fn plan(&self, _c: &Compressed) -> Result<Plan> {
        // Part resolution unpacks the bits; the plan is the identity
        // (plus the zigzag decode for the signed variant).
        if self.zigzag {
            Plan::new(vec![Node::Part(0), Node::ZigzagDecode(0)], 1)
        } else {
            Plan::new(vec![Node::Part(0)], 0)
        }
    }

    fn floor(&self, stats: &ColumnStats) -> Option<usize> {
        W::floor(stats, self.zigzag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::decompress_via_plan;

    #[test]
    fn round_trip_unsigned() {
        let col = ColumnData::U32(vec![0, 1, 1000, 65535]);
        let c = Ns::plain().compress(&col).unwrap();
        assert_eq!(c.params.get("width"), Some(16));
        assert_eq!(Ns::plain().decompress(&c).unwrap(), col);
    }

    #[test]
    fn rejects_negative_without_zigzag() {
        let col = ColumnData::I32(vec![1, -2]);
        assert!(matches!(
            Ns::plain().compress(&col),
            Err(CoreError::NotRepresentable(_))
        ));
    }

    #[test]
    fn zigzag_handles_signed() {
        let col = ColumnData::I64(vec![-3, 0, 3, i64::MIN, i64::MAX]);
        let c = Ns::zz().compress(&col).unwrap();
        assert_eq!(Ns::zz().decompress(&c).unwrap(), col);
    }

    #[test]
    fn zigzag_keeps_small_magnitudes_narrow() {
        let col = ColumnData::I32(vec![-2, -1, 0, 1, 2]);
        let c = Ns::zz().compress(&col).unwrap();
        assert_eq!(c.params.get("width"), Some(3));
    }

    #[test]
    fn compression_shrinks_narrow_columns() {
        let col = ColumnData::U64((0..1000).map(|i| i % 16).collect());
        let c = Ns::plain().compress(&col).unwrap();
        // 4 bits/value vs 64: ratio near 16 (minus param overhead).
        assert!(c.ratio().unwrap() > 12.0);
    }

    #[test]
    fn plan_matches_direct_both_variants() {
        let col = ColumnData::U32(vec![5, 9, 13]);
        let c = Ns::plain().compress(&col).unwrap();
        assert_eq!(decompress_via_plan(&Ns::plain(), &c).unwrap(), col);

        let col = ColumnData::I32(vec![-5, 9, -13]);
        let c = Ns::zz().compress(&col).unwrap();
        assert_eq!(decompress_via_plan(&Ns::zz(), &c).unwrap(), col);
    }

    #[test]
    fn corrupt_length_detected() {
        let col = ColumnData::U32(vec![1, 2, 3]);
        let mut c = Ns::plain().compress(&col).unwrap();
        c.n = 5;
        assert!(matches!(
            Ns::plain().decompress(&c),
            Err(CoreError::CorruptParts(_))
        ));
    }

    #[test]
    fn floor_is_exact() {
        let col = ColumnData::U64((0..500).map(|i| i % 1024).collect());
        let stats = ColumnStats::collect(&col);
        for ns in [Ns::plain(), Ns::zz()] {
            let actual = ns.compress(&col).unwrap().compressed_bytes();
            assert_eq!(ns.floor(&stats), Some(actual), "{}", ns.name());
        }
        let negative = ColumnStats::collect(&ColumnData::I32(vec![1, -2]));
        assert_eq!(Ns::plain().floor(&negative), None);
    }

    #[test]
    fn empty_column() {
        let col = ColumnData::U32(vec![]);
        let c = Ns::plain().compress(&col).unwrap();
        assert_eq!(Ns::plain().decompress(&c).unwrap(), col);
    }
}
