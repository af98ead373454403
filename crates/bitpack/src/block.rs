//! Mini-block packing with a per-block width.
//!
//! This is the backend of the paper's "variable-width encoding for the
//! offsets column" (§II-B, the per-element-bit-metric generalisation of
//! FOR). Instead of one global width, values are grouped into fixed-size
//! blocks of [`BLOCK_LEN`] and each block is packed at the smallest width
//! covering its own values. Locally-narrow regions then cost few bits even
//! when other regions are wide.
//!
//! Layout: `widths[b]` is block `b`'s width. The full blocks are
//! interleaved across 16 lanes, as a [`crate::Packed`] group is, but
//! with a width per block:
//!
//! * Value `128·b + 16·r + j` of full block `b` is field `r` of lane `j`,
//!   for row `r < 8` and lane `j < 16`.
//! * Each lane is one LSB-first bit stream that runs on across blocks:
//!   block `b`'s row `r` starts at lane bit `8·(w₀ + … + w_{b−1}) + r·w_b`,
//!   the same bit in every lane. With `S` the full blocks' width sum,
//!   each lane holds `8·S` bits.
//! * Word `k` of lane `j` is `words[16·k + j]`, for the lane's `⌊S/8⌋`
//!   whole words.
//! * The lanes' leftover `8·(S mod 8)` bits follow, packed densely: lane
//!   `j`'s at bit `8·(S mod 8)·j` of `2·(S mod 8)` contiguous words.
//!
//! So the full blocks take exactly `2·S` words, what packing each on its
//! own would cost, and no block pays padding. The partial last block, if
//! any, follows contiguously in `⌈len_b · w_b / 64⌉` words (the layout of
//! a `Packed` tail). The same two arrays are what the wire frame stores.
//!
//! Decoding a full block is the interleaved kernel run for 8 rows at
//! the block's width from the block's first lane bit: 16 values per
//! shift-and-mask, with no per-width code.

use crate::pack::{
    contiguous_chunks, get_at, pack_append, pack_rows, unpack_rows, words_for, LANES,
};
use crate::width::max_width;
use crate::{Error, Result};

/// Number of values per mini-block. 128 matches common practice
/// (cache-line multiples, Parquet/PFor-style miniblocks).
pub const BLOCK_LEN: usize = 128;

/// Rows per block: each lane holds 8 fields of every full block.
const ROWS: usize = BLOCK_LEN / LANES;

/// A column packed block-by-block, each block at its own width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockPacked {
    /// One width per block (`widths.len() == ceil(len / BLOCK_LEN)`).
    widths: Vec<u8>,
    /// The full blocks' lanes, then the partial block's words.
    words: Vec<u64>,
    len: usize,
}

impl BlockPacked {
    /// Pack `values`, choosing each block's width independently.
    pub fn pack(values: &[u64]) -> Self {
        let widths: Vec<u8> = values
            .chunks(BLOCK_LEN)
            .map(|chunk| max_width(chunk) as u8)
            .collect();
        let blocks = values.chunks_exact(BLOCK_LEN);
        let tail = blocks.remainder();
        let sum: usize = widths[..blocks.len()].iter().map(|&w| w as usize).sum();
        let whole = LANES * (sum / 8);
        // Pack the lanes with room for their partial last words, then
        // squeeze those into their dense form.
        let mut words = Vec::with_capacity(whole + LANES + tail.len());
        words.resize(whole + LANES, 0);
        let lanes = words.as_chunks_mut().0;
        let mut bit_pos = 0;
        for (block, &w) in blocks.zip(&widths) {
            pack_rows(block.as_chunks().0, w as u32, bit_pos, lanes);
            bit_pos += ROWS * w as usize;
        }
        let last: [u64; LANES] = words[whole..].try_into().expect("one row of lanes");
        words.truncate(whole);
        pack_append(&last, 8 * (sum % 8) as u32, &mut words);
        if let Some(&w) = widths.get(values.len() / BLOCK_LEN) {
            pack_append(tail, w as u32, &mut words);
        }
        BlockPacked {
            widths,
            words,
            len: values.len(),
        }
    }

    /// Reconstruct from raw parts (e.g. after deserialisation):
    /// one width ≤ 64 per block of `len` values, and exactly the words
    /// those widths call for.
    pub fn from_raw_parts(widths: Vec<u8>, words: Vec<u64>, len: usize) -> Result<Self> {
        let blocks = BlockPacked { widths, words, len };
        blocks.validate()?;
        Ok(blocks)
    }

    /// Number of packed values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Per-block widths.
    pub fn widths(&self) -> &[u8] {
        &self.widths
    }

    /// The packed words, in the layout the module docs describe.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.widths.len()
    }

    /// Total size in bytes: payload plus one byte per block for its width.
    pub fn total_bytes(&self) -> usize {
        self.words.len() * 8 + self.widths.len()
    }

    /// The full blocks' lanes: `⌊S/8⌋` whole words per lane, interleaved,
    /// and every lane's partial last word (`8·(S mod 8)` bits, zero-extended),
    /// with `S` the full blocks' width sum, read off the word count.
    fn lanes(&self) -> (&[[u64; LANES]], [u64; LANES]) {
        let full = self.len / BLOCK_LEN;
        let tail = match self.widths.get(full) {
            Some(&w) => words_for(self.len - full * BLOCK_LEN, w as u32),
            None => 0,
        };
        let sum = (self.words.len() - tail) / 2;
        let (whole, rest) = self.words.split_at(LANES * (sum / 8));
        let last = std::array::from_fn(|j| get_at(rest, 8 * (sum % 8) as u32, j));
        (whole.as_chunks().0, last)
    }

    /// Random access to the value at `i`: the preceding blocks' widths
    /// are summed to find the field's lane bit (one byte add per 128
    /// values before `i`), then direct bit arithmetic on its lane.
    pub fn get(&self, i: usize) -> Option<u64> {
        if i >= self.len {
            return None;
        }
        let block = i / BLOCK_LEN;
        let prior: usize = self.widths[..block].iter().map(|&w| w as usize).sum();
        let width = self.widths[block] as u32;
        if block == self.len / BLOCK_LEN {
            return Some(get_at(&self.words[2 * prior..], width, i % BLOCK_LEN));
        }
        if width == 0 {
            return Some(0);
        }
        let (lanes, last) = self.lanes();
        let (row, lane) = (i % BLOCK_LEN / LANES, i % LANES);
        let word = |k: usize| lanes.get(k).map_or(last[lane], |words| words[lane]);
        let bit = 8 * prior + row * width as usize;
        let (k, offset) = (bit / 64, (bit % 64) as u32);
        let mut v = word(k) >> offset;
        if offset + width > 64 {
            v |= word(k + 1) << (64 - offset);
        }
        Some(v & (u64::MAX >> (64 - width)))
    }

    /// Unpack the whole buffer.
    pub fn unpack(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len);
        self.for_each_chunk(|chunk| out.extend_from_slice(chunk));
        out
    }

    /// Unpack into a caller-provided slice of exactly `len()` elements.
    ///
    /// # Panics
    /// Panics if `out.len() != self.len()`.
    pub fn unpack_into(&self, out: &mut [u64]) {
        assert_eq!(out.len(), self.len, "output slice length mismatch");
        let mut rest = out;
        self.for_each_chunk(|chunk| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(chunk.len());
            head.copy_from_slice(chunk);
            rest = tail;
        });
    }

    /// The chunk cursor: hand the values to `f` in order, unpacked into
    /// a stack buffer, one full block ([`BLOCK_LEN`] values) per call,
    /// then the partial block in chunks of at most 64, never across a
    /// block boundary.
    pub fn for_each_chunk(&self, mut f: impl FnMut(&[u64])) {
        let full = self.len / BLOCK_LEN;
        let (lanes, last) = self.lanes();
        let mut buf = [[0u64; LANES]; ROWS];
        let mut bit_pos = 0;
        for &w in &self.widths[..full] {
            let (w, first) = (w as u32, bit_pos / 64);
            let end = first + (bit_pos % 64 + ROWS * w as usize).div_ceil(64);
            match w {
                0 => buf = [[0; LANES]; ROWS],
                _ if end <= lanes.len() => {
                    unpack_rows(&lanes[first..end], w, bit_pos % 64, &mut buf);
                }
                // The lanes' last block or blocks reach the partial word.
                _ => {
                    let mut near = [[0u64; LANES]; ROWS + 1];
                    let whole = lanes.len() - first;
                    near[..whole].copy_from_slice(&lanes[first..]);
                    near[whole] = last;
                    unpack_rows(&near[..=whole], w, bit_pos % 64, &mut buf);
                }
            }
            f(buf.as_flattened());
            bit_pos += ROWS * w as usize;
        }
        if let Some(&w) = self.widths.get(full) {
            // The lanes took `8·S` bits each, `2·S` words in all.
            let tail = &self.words[bit_pos / 4..];
            contiguous_chunks(tail, w as u32, self.len - full * BLOCK_LEN, f);
        }
    }

    /// Validate internal consistency (block count, widths, word count).
    /// Both constructors establish it, so a `BlockPacked` in hand always
    /// passes.
    pub fn validate(&self) -> Result<()> {
        if self.widths.len() != self.len.div_ceil(BLOCK_LEN) {
            return Err(Error::Corrupt("block count does not match len"));
        }
        if let Some(&w) = self.widths.iter().find(|&&w| w > 64) {
            return Err(Error::WidthOutOfRange(w as u32));
        }
        if self.words.len() != block_words(&self.widths, self.len) {
            return Err(Error::Corrupt("word count does not match block widths"));
        }
        Ok(())
    }
}

/// Words the blocks of `len` values occupy at these per-block widths
/// (every block full but possibly the last): `2·w` per full block, as
/// if each were packed on its own, and `⌈len_b · w_b / 64⌉` for the
/// partial one — what a reader of the raw parts must fetch before
/// [`BlockPacked::from_raw_parts`].
pub fn block_words(widths: &[u8], len: usize) -> usize {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Packed;

    #[test]
    fn empty() {
        let b = BlockPacked::pack(&[]);
        assert!(b.is_empty());
        assert_eq!(b.num_blocks(), 0);
        assert_eq!(b.unpack(), Vec::<u64>::new());
        b.validate().unwrap();
    }

    #[test]
    fn single_partial_block() {
        let values: Vec<u64> = (0..10).collect();
        let b = BlockPacked::pack(&values);
        assert_eq!(b.num_blocks(), 1);
        assert_eq!(b.widths(), &[4]);
        assert_eq!(b.unpack(), values);
        b.validate().unwrap();
    }

    #[test]
    fn exact_block_boundary() {
        let values: Vec<u64> = (0..BLOCK_LEN as u64 * 2).collect();
        let b = BlockPacked::pack(&values);
        assert_eq!(b.num_blocks(), 2);
        assert_eq!(b.unpack(), values);
    }

    #[test]
    fn per_block_widths_differ() {
        // First block tiny values, second block huge: per-block widths
        // must reflect that, and total size must beat global-width packing.
        let mut values = vec![1u64; BLOCK_LEN];
        values.extend(std::iter::repeat_n(u64::MAX / 2, BLOCK_LEN));
        let b = BlockPacked::pack(&values);
        assert_eq!(b.widths()[0], 1);
        assert_eq!(b.widths()[1], 63);
        let global = Packed::pack(&values, 63).unwrap();
        assert!(b.total_bytes() < global.payload_bytes());
    }

    #[test]
    fn random_access() {
        let values: Vec<u64> = (0..300).map(|i| i * i % 1000).collect();
        let b = BlockPacked::pack(&values);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(b.get(i), Some(v), "index {i}");
        }
        assert_eq!(b.get(300), None);
    }

    #[test]
    fn unpack_into_partial_tail() {
        let values: Vec<u64> = (0..BLOCK_LEN as u64 + 17).collect();
        let b = BlockPacked::pack(&values);
        let mut out = vec![0u64; values.len()];
        b.unpack_into(&mut out);
        assert_eq!(out, values);
    }

    #[test]
    fn chunk_cursor_stays_inside_blocks() {
        let values: Vec<u64> = (0..BLOCK_LEN as u64 * 2 + 17).map(|i| i * i).collect();
        let b = BlockPacked::pack(&values);
        let (mut seen, mut pos) = (Vec::new(), 0);
        b.for_each_chunk(|chunk| {
            assert!(!chunk.is_empty());
            assert_eq!(pos / BLOCK_LEN, (pos + chunk.len() - 1) / BLOCK_LEN);
            pos += chunk.len();
            seen.extend_from_slice(chunk);
        });
        assert_eq!(seen, values);
    }

    #[test]
    fn from_raw_parts_validates() {
        let values: Vec<u64> = (0..300).collect();
        let b = BlockPacked::pack(&values);
        let (widths, words) = (b.widths().to_vec(), b.words().to_vec());
        assert_eq!(words.len(), block_words(&widths, 300));
        let rebuilt = BlockPacked::from_raw_parts(widths.clone(), words.clone(), 300).unwrap();
        assert_eq!(rebuilt, b);
        // Wrong block count, a width past 64, short and long words.
        assert!(BlockPacked::from_raw_parts(widths[..2].to_vec(), words.clone(), 300).is_err());
        let mut wide = widths.clone();
        wide[0] = 65;
        assert_eq!(
            BlockPacked::from_raw_parts(wide, words.clone(), 300),
            Err(Error::WidthOutOfRange(65))
        );
        let short = words[..words.len() - 1].to_vec();
        assert!(BlockPacked::from_raw_parts(widths.clone(), short, 300).is_err());
        let mut long = words;
        long.push(0);
        assert!(BlockPacked::from_raw_parts(widths, long, 300).is_err());
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
        let b = BlockPacked::pack(&values);
        assert_eq!(b.widths(), &[3, 5, 9, 2]);
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
