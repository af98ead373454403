//! Variable-width NS — the paper's per-element-bit-metric generalisation
//! (§II-B):
//!
//! "Let d(x,y) = ⌈log₂|x−y|+1⌉ [...] for the product metric [...] we
//! could use a variable-width encoding for the offsets column."
//!
//! Realised, as the paper suggests ("ignoring the encoding of offset
//! widths for simplicity"), with the standard engineering discretisation:
//! mini-blocks of 128 values, each packed at its own width (one width
//! byte per block *is* accounted in the size model). It is NS
//! ([`super::ns::NullSuppression`]) under the [`PerBlock`] width rule.

use crate::error::Result;
use crate::scheme::Params;
use crate::schemes::ns::{NullSuppression, WidthRule};
use crate::stats::{zz_bits_of, BlockStats, ColumnStats};
use lcdc_bitpack::width::{bits_needed_u64, packed_bytes};
use lcdc_bitpack::{Packed, BLOCK_LEN};

/// NS with per-block widths.
pub type VarWidthNs = NullSuppression<PerBlock>;

/// VARWIDTH's width rule: each block of [`BLOCK_LEN`] values at the
/// smallest width covering its own values.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerBlock;

/// Role of the per-block packed payload.
pub const ROLE_BLOCKS: &str = "blocks";

impl WidthRule for PerBlock {
    const NAME: &'static str = "varwidth";
    const ROLE: &'static str = ROLE_BLOCKS;
    const PER_BLOCK: bool = true;

    fn pack(values: &[u64]) -> Result<(Packed, Params)> {
        Ok((Packed::pack_blocks(values), Params::new()))
    }

    /// Exact from the block statistics at [`BLOCK_LEN`]: every block at
    /// its own width plus its width byte, plus one parameter (the
    /// interleaved layout pays no padding). Without them, only the width
    /// bytes and the parameter. A bound only for `varwidth_zz` on a `u64`
    /// block with values on both sides of 2^63: zigzag reads them signed,
    /// so the block's unsigned min and max are not its widest values.
    fn floor(stats: &ColumnStats, zigzag: bool) -> Option<usize> {
        if !zigzag {
            stats.ns_width?;
        }
        let width = |b: &BlockStats| {
            if zigzag {
                zz_bits_of(b.min).max(zz_bits_of(b.max))
            } else {
                bits_needed_u64(b.max.max(0) as u64)
            }
        };
        let payload: usize = stats.blocks_at(BLOCK_LEN).map_or(0, |blocks| {
            let lens = (0..stats.n)
                .step_by(BLOCK_LEN)
                .map(|i| (stats.n - i).min(BLOCK_LEN));
            blocks
                .iter()
                .zip(lens)
                .map(|(b, len)| packed_bytes(len, width(b)))
                .sum()
        });
        Some(payload + stats.n.div_ceil(BLOCK_LEN) + 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnData;
    use crate::error::CoreError;
    use crate::scheme::{decompress_via_plan, Scheme};
    use crate::schemes::ns::Ns;

    #[test]
    fn round_trip() {
        let col = ColumnData::U64((0..1000).map(|i| i % 300).collect());
        let c = VarWidthNs::plain().compress(&col).unwrap();
        assert_eq!(VarWidthNs::plain().decompress(&c).unwrap(), col);
        assert_eq!(decompress_via_plan(&VarWidthNs::plain(), &c).unwrap(), col);
    }

    #[test]
    fn zigzag_round_trip() {
        let col = ColumnData::I32(vec![-100, 5, -3, 0, i32::MIN, i32::MAX]);
        let c = VarWidthNs::zz().compress(&col).unwrap();
        assert_eq!(VarWidthNs::zz().decompress(&c).unwrap(), col);
        assert_eq!(decompress_via_plan(&VarWidthNs::zz(), &c).unwrap(), col);
    }

    #[test]
    fn rejects_negative_without_zigzag() {
        let col = ColumnData::I32(vec![-1]);
        assert!(VarWidthNs::plain().compress(&col).is_err());
    }

    #[test]
    fn beats_global_width_on_skewed_placement() {
        // First 90% tiny, last 10% huge — global NS pays the wide width
        // everywhere, per-block packing only in the hot blocks.
        let mut v = vec![3u64; 9000];
        v.extend(std::iter::repeat_n(u64::MAX / 3, 1000));
        let col = ColumnData::U64(v);
        let var = VarWidthNs::plain().compress(&col).unwrap();
        let flat = Ns::plain().compress(&col).unwrap();
        assert!(
            var.compressed_bytes() * 5 < flat.compressed_bytes(),
            "varwidth {} vs flat {}",
            var.compressed_bytes(),
            flat.compressed_bytes()
        );
        assert_eq!(VarWidthNs::plain().decompress(&var).unwrap(), col);
    }

    #[test]
    fn floor_is_exact_at_block_length() {
        let mut v: Vec<u64> = (0..1000).map(|i| i % 300).collect();
        v[700] = u64::MAX;
        let col = ColumnData::U64(v);
        let stats = ColumnStats::collect(&col);
        let actual = VarWidthNs::plain()
            .compress(&col)
            .unwrap()
            .compressed_bytes();
        assert_eq!(VarWidthNs::plain().floor(&stats), Some(actual));
        let coarse = ColumnStats::collect_with_seg_len(&col, 64);
        assert!(VarWidthNs::plain().floor(&coarse).unwrap() <= actual);
        let signed = ColumnData::I32(vec![-100, 5, -3, 0, i32::MIN, i32::MAX]);
        let stats = ColumnStats::collect(&signed);
        let actual = VarWidthNs::zz()
            .compress(&signed)
            .unwrap()
            .compressed_bytes();
        assert_eq!(VarWidthNs::zz().floor(&stats), Some(actual));
        assert_eq!(VarWidthNs::plain().floor(&stats), None);
    }

    #[test]
    fn empty_column() {
        let col = ColumnData::U32(vec![]);
        let c = VarWidthNs::plain().compress(&col).unwrap();
        assert_eq!(VarWidthNs::plain().decompress(&c).unwrap(), col);
    }

    #[test]
    fn corrupt_length_detected() {
        let col = ColumnData::U32(vec![1, 2, 3]);
        let mut c = VarWidthNs::plain().compress(&col).unwrap();
        c.n = 4;
        assert!(matches!(
            VarWidthNs::plain().decompress(&c),
            Err(CoreError::CorruptParts(_))
        ));
    }
}
