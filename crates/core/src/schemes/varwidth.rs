//! Variable-width NS — the paper's per-element-bit-metric generalisation
//! (§II-B):
//!
//! "Let d(x,y) = ⌈log₂|x−y|+1⌉ [...] for the product metric [...] we
//! could use a variable-width encoding for the offsets column."
//!
//! Realised, as the paper suggests ("ignoring the encoding of offset
//! widths for simplicity"), with the standard engineering discretisation:
//! mini-blocks of 128 values, each packed at its own width (one width
//! byte per block *is* accounted in the size model).

use crate::column::ColumnData;
use crate::error::{CoreError, Result};
use crate::parts::{PartStream, Parts};
use crate::plan::{Node, Plan};
use crate::scheme::{Compressed, Params, Part, PartData, Scheme};
use crate::stats::{zz_bits_of, BlockStats, ColumnStats};
use lcdc_bitpack::width::{bits_needed_u64, packed_bytes};
use lcdc_bitpack::{BlockPacked, BLOCK_LEN};

/// NS with per-block widths.
#[derive(Debug, Clone, Copy, Default)]
pub struct VarWidthNs {
    /// Zigzag-map values before packing (for signed payloads).
    pub zigzag: bool,
}

impl VarWidthNs {
    /// Plain variable-width NS (values must be non-negative).
    pub fn plain() -> Self {
        VarWidthNs { zigzag: false }
    }

    /// Zigzagged variable-width NS.
    pub fn zz() -> Self {
        VarWidthNs { zigzag: true }
    }
}

/// Role of the per-block packed payload.
pub const ROLE_BLOCKS: &str = "blocks";

impl VarWidthNs {
    /// The payload part as a stream of the column it encodes.
    fn payload<'a>(&self, c: &'a Compressed) -> Result<PartStream<'a>> {
        let blocks = match &c.part(ROLE_BLOCKS)?.data {
            PartData::Blocks(b) => b,
            _ => {
                return Err(CoreError::CorruptParts(
                    "blocks part must be block-packed".into(),
                ))
            }
        };
        if blocks.len() != c.n {
            return Err(CoreError::CorruptParts(format!(
                "payload holds {} values, expected {}",
                blocks.len(),
                c.n
            )));
        }
        Ok(PartStream::blocks(blocks, self.zigzag, c.dtype))
    }
}

impl Scheme for VarWidthNs {
    fn name(&self) -> String {
        if self.zigzag {
            "varwidth_zz".to_string()
        } else {
            "varwidth".to_string()
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
            if let Some((min, _)) = col.min_max_numeric() {
                if min < 0 {
                    return Err(CoreError::NotRepresentable(format!(
                        "plain varwidth requires non-negative values (min = {min}); use varwidth_zz"
                    )));
                }
            }
            transport
        };
        let blocks = BlockPacked::pack(&to_pack);
        Ok(Compressed {
            scheme_id: self.name(),
            n: col.len(),
            dtype: col.dtype(),
            params: Params::new().with("zigzag", self.zigzag as i64),
            parts: vec![Part {
                role: ROLE_BLOCKS,
                data: PartData::Blocks(blocks),
            }],
        })
    }

    fn decode(&self, parts: &Parts<'_>) -> Result<ColumnData> {
        Ok(self.payload(parts.form())?.into_column().into_owned())
    }

    fn visit_parts(&self, parts: &Parts<'_>, f: &mut dyn FnMut(&[u64])) -> Result<()> {
        self.payload(parts.form())?.for_each_chunk(f);
        Ok(())
    }

    /// The block-packed payload, unpacked (and zigzag-decoded) a block
    /// at a time.
    fn stream<'a>(&self, c: &'a Compressed) -> Result<PartStream<'a>> {
        c.check_scheme(&self.name())?;
        self.payload(c)
    }

    fn plan(&self, _c: &Compressed) -> Result<Plan> {
        if self.zigzag {
            Plan::new(vec![Node::Part(0), Node::ZigzagDecode(0)], 1)
        } else {
            Plan::new(vec![Node::Part(0)], 0)
        }
    }

    /// Exact from the block statistics at [`BLOCK_LEN`]: every block at
    /// its own width plus its width byte, plus one parameter (the
    /// interleaved layout pays no padding). Without them, only the width
    /// bytes and the parameter. A bound only for `varwidth_zz` on a `u64`
    /// block with values on both sides of 2^63: zigzag reads them signed,
    /// so the block's unsigned min and max are not its widest values.
    fn floor(&self, stats: &ColumnStats) -> Option<usize> {
        if !self.zigzag {
            stats.ns_width?;
        }
        let width = |b: &BlockStats| {
            if self.zigzag {
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
    use crate::scheme::decompress_via_plan;
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
