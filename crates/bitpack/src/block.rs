//! Mini-block packing with a per-block width.
//!
//! This is the backend of the paper's "variable-width encoding for the
//! offsets column" (§II-B, the per-element-bit-metric generalisation of
//! FOR). Instead of one global width, values are grouped into fixed-size
//! blocks of [`BLOCK_LEN`] and each block is packed at the smallest width
//! covering its own values. Locally-narrow regions then cost few bits even
//! when other regions are wide.
//!
//! Layout: `widths[b]` is block `b`'s width and `words` the blocks'
//! packed words back to back, block `b` holding `⌈len_b · widths[b] / 64⌉`
//! of them (`2 · widths[b]` for a full block, so blocks start
//! word-aligned). The same two arrays are what the wire frame stores.

use crate::pack::{contiguous_chunks, get_at, pack_append, words_for};
use crate::width::max_width;
use crate::{Error, Result};

/// Number of values per mini-block. 128 matches common practice
/// (cache-line multiples, Parquet/PFor-style miniblocks).
pub const BLOCK_LEN: usize = 128;

/// A column packed block-by-block, each block at its own width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockPacked {
    /// One width per block (`widths.len() == ceil(len / BLOCK_LEN)`).
    widths: Vec<u8>,
    /// Every block's packed words, concatenated.
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
        let mut words = Vec::with_capacity(block_words(&widths, values.len()));
        for (chunk, &w) in values.chunks(BLOCK_LEN).zip(&widths) {
            pack_append(chunk, w as u32, &mut words);
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

    /// The blocks' packed words, concatenated.
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

    /// Random access to the value at `i`: the preceding blocks' widths
    /// are summed to find the block's first word (one byte add per 128
    /// values before `i`), then direct bit arithmetic.
    pub fn get(&self, i: usize) -> Option<u64> {
        if i >= self.len {
            return None;
        }
        let block = i / BLOCK_LEN;
        let start = block_words(&self.widths[..block], block * BLOCK_LEN);
        let width = self.widths[block] as u32;
        Some(get_at(&self.words[start..], width, i % BLOCK_LEN))
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
    /// a stack buffer, never more than one block ([`BLOCK_LEN`] values)
    /// per call and never across a block boundary.
    pub fn for_each_chunk(&self, mut f: impl FnMut(&[u64])) {
        let mut words = &self.words[..];
        let mut remaining = self.len;
        for &w in &self.widths {
            let block_len = remaining.min(BLOCK_LEN);
            let (block, rest) = words.split_at(words_for(block_len, w as u32));
            contiguous_chunks(block, w as u32, block_len, &mut f);
            words = rest;
            remaining -= block_len;
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
/// (every block full but possibly the last) — what a reader of the raw
/// parts must fetch before [`BlockPacked::from_raw_parts`].
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
}
