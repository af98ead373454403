//! The widths of a [`crate::Packed`] container: one for every value
//! (NS), or one per 128-value block (the paper's variable-width offsets,
//! §II-B: a locally narrow block costs few bits even when others are
//! wide). Both share one layout ([`crate::pack`]); one width only keeps
//! random access O(1), block `b` starting at lane bit `8·b·w`.

use crate::pack::words_for;
use crate::{Error, Result};

/// Number of values per block. 128 matches common practice
/// (cache-line multiples, Parquet/PFor-style miniblocks).
pub const BLOCK_LEN: usize = 128;

/// How wide a [`crate::Packed`] container's values are.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Widths {
    /// Every value at this width.
    One(u32),
    /// Block `b` at `widths[b]`, one byte per block of [`BLOCK_LEN`]
    /// values, the last block possibly partial.
    Blocks(Vec<u8>),
}

impl Widths {
    /// Words `len` values take at these widths: `2·w` per full block
    /// and `⌈len_b · w_b / 64⌉` for a partial one, so `⌈len·w/64⌉` at
    /// one width — what a reader of the raw parts must fetch before
    /// [`crate::Packed::from_raw_parts`].
    pub fn words(&self, len: usize) -> usize {
        match self {
            Widths::One(w) => words_for(len, *w),
            Widths::Blocks(widths) => {
                let mut remaining = len;
                widths
                    .iter()
                    .map(|&w| {
                        let block_len = remaining.min(BLOCK_LEN);
                        remaining -= block_len;
                        words_for(block_len, w as u32)
                    })
                    .sum()
            }
        }
    }

    /// The widest width: a bound on every value's width.
    pub(crate) fn max(&self) -> u32 {
        match self {
            Widths::One(w) => *w,
            Widths::Blocks(widths) => widths.iter().copied().max().unwrap_or(0) as u32,
        }
    }

    /// `Ok` when these widths can describe `len` values: one width per
    /// block, none past 64.
    pub(crate) fn check(&self, len: usize) -> Result<()> {
        if let Widths::Blocks(widths) = self {
            if widths.len() != len.div_ceil(BLOCK_LEN) {
                return Err(Error::Corrupt("block count does not match len"));
            }
        }
        match self.max() {
            0..=64 => Ok(()),
            w => Err(Error::WidthOutOfRange(w)),
        }
    }

    /// Block `block`'s width.
    #[inline]
    pub(crate) fn of(&self, block: usize) -> u32 {
        match self {
            Widths::One(w) => *w,
            Widths::Blocks(widths) => widths[block] as u32,
        }
    }

    /// The width sum of the blocks before `block`: block `block` starts
    /// at lane bit `8·prior(block)`.
    #[inline]
    pub(crate) fn prior(&self, block: usize) -> usize {
        match self {
            Widths::One(w) => block * *w as usize,
            Widths::Blocks(widths) => widths[..block].iter().map(|&w| w as usize).sum(),
        }
    }

    /// Block `block`'s width, and how many blocks from it, before
    /// `end`, share that width.
    #[inline]
    pub(crate) fn run(&self, block: usize, end: usize) -> (u32, usize) {
        match self {
            Widths::One(w) => (*w, end - block),
            Widths::Blocks(widths) => {
                let w = widths[block];
                let run = widths[block..end].iter().take_while(|&&x| x == w).count();
                (w as u32, run)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Packed;

    fn block_widths(b: &Packed) -> &[u8] {
        match b.widths() {
            Widths::Blocks(widths) => widths,
            one => panic!("expected per-block widths, found {one:?}"),
        }
    }

    #[test]
    fn empty() {
        let b = Packed::pack_blocks(&[]);
        assert!(b.is_empty());
        assert_eq!(block_widths(&b), &[] as &[u8]);
        assert_eq!(b.unpack(), Vec::<u64>::new());
        assert_eq!(Packed::from_raw_parts(b.widths().clone(), vec![], 0), Ok(b));
    }

    #[test]
    fn single_partial_block() {
        let values: Vec<u64> = (0..10).collect();
        let b = Packed::pack_blocks(&values);
        assert_eq!(block_widths(&b), &[4]);
        assert_eq!(b.unpack(), values);
    }

    #[test]
    fn exact_block_boundary() {
        let values: Vec<u64> = (0..BLOCK_LEN as u64 * 2).collect();
        let b = Packed::pack_blocks(&values);
        assert_eq!(block_widths(&b).len(), 2);
        assert_eq!(b.unpack(), values);
    }

    #[test]
    fn per_block_widths_differ() {
        // First block tiny values, second block huge: per-block widths
        // must reflect that, and total size must beat global-width packing.
        let mut values = vec![1u64; BLOCK_LEN];
        values.extend(std::iter::repeat_n(u64::MAX / 2, BLOCK_LEN));
        let b = Packed::pack_blocks(&values);
        assert_eq!(block_widths(&b), &[1, 63]);
        assert_eq!(b.width(), 63);
        let global = Packed::pack(&values, 63).unwrap();
        assert!(b.payload_bytes() < global.payload_bytes());
    }

    #[test]
    fn random_access() {
        let values: Vec<u64> = (0..300).map(|i| i * i % 1000).collect();
        let b = Packed::pack_blocks(&values);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(b.get(i), Some(v), "index {i}");
        }
        assert_eq!(b.get(300), None);
    }

    #[test]
    fn unpack_reads_a_partial_tail() {
        let values: Vec<u64> = (0..BLOCK_LEN as u64 + 17).collect();
        let b = Packed::pack_blocks(&values);
        assert_eq!(b.unpack(), values);
    }

    #[test]
    fn chunk_cursor_cuts_only_at_block_boundaries() {
        // Nine full blocks at alternating widths and a partial one: the
        // first eight go out as one group, the ninth on its own, the
        // partial block at most 64 values at a time.
        let values: Vec<u64> = (0..BLOCK_LEN as u64 * 9 + 100)
            .map(|i| (i * i) >> (i / 128 % 2 * 9))
            .collect();
        let b = Packed::pack_blocks(&values);
        let mut lens = Vec::new();
        let mut seen = Vec::new();
        b.for_each_chunk(|chunk| {
            lens.push(chunk.len());
            seen.extend_from_slice(chunk);
        });
        assert_eq!(lens, [1024, 128, 64, 36]);
        assert_eq!(seen, values);
    }

    #[test]
    fn from_raw_parts_validates() {
        let values: Vec<u64> = (0..300).collect();
        let b = Packed::pack_blocks(&values);
        let (widths, words) = (block_widths(&b).to_vec(), b.words().to_vec());
        let blocks = |widths: &[u8]| Widths::Blocks(widths.to_vec());
        assert_eq!(words.len(), blocks(&widths).words(300));
        let rebuilt = Packed::from_raw_parts(blocks(&widths), words.clone(), 300).unwrap();
        assert_eq!(rebuilt, b);
        // Wrong block count, a width past 64, short and long words.
        assert!(Packed::from_raw_parts(blocks(&widths[..2]), words.clone(), 300).is_err());
        let mut wide = widths.clone();
        wide[0] = 65;
        assert_eq!(
            Packed::from_raw_parts(blocks(&wide), words.clone(), 300),
            Err(Error::WidthOutOfRange(65))
        );
        let short = words[..words.len() - 1].to_vec();
        assert!(Packed::from_raw_parts(blocks(&widths), short, 300).is_err());
        let mut long = words;
        long.push(0);
        assert!(Packed::from_raw_parts(blocks(&widths), long, 300).is_err());
    }

    #[test]
    fn block_layout_is_pinned_at_widths_3_5_9() {
        // Three full blocks at widths 3, 5 and 9 (S = 17: two whole
        // words per lane, then 8 bits per lane packed densely) and a
        // three-value partial block at width 2.
        let mut values = vec![0u64; 3 * BLOCK_LEN];
        values[3] = 0b101; // block 0, row 0, lane 3: lane bit 0
        values[BLOCK_LEN + 16 * 7 + 7] = 0b11111; // block 1 from bit 24, row 7 at 59
        values[2 * BLOCK_LEN] = 0x1FF; // block 2 from bit 64: word 1, bit 0
        values[2 * BLOCK_LEN + 16 * 7 + 10] = 0x103; // row 7 at bit 127
        values.extend([1, 2, 3]);
        let b = Packed::pack_blocks(&values);
        assert_eq!(block_widths(&b), &[3, 5, 9, 2]);
        let mut expect = vec![0u64; 2 * 17 + 1];
        expect[3] = 0b101;
        expect[7] = 0b11111 << 59;
        expect[16] = 0x1FF;
        // Row 7 of lane 10 straddles: its low bit ends lane word 1, its
        // other eight are the lane's leftover, at dense bit 8·10 = 80.
        expect[16 + 10] = 1 << 63;
        expect[32 + 1] = 0x81 << 16;
        // The partial block follows the lanes' 2·S = 34 words.
        expect[34] = 1 | 2 << 2 | 3 << 4;
        assert_eq!(b.words(), &expect[..]);
        assert_eq!(b.unpack(), values);
        assert!((0..values.len()).all(|i| b.get(i) == Some(values[i])));
    }
}
