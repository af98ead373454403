//! Bit packing: one container, [`Packed`], for one width (NS) and for
//! one width per 128-value block (VARWIDTH, see [`crate::block`]).
//!
//! Every full block of [`BLOCK_LEN`] = 128 values is *interleaved* across
//! 16 lanes (FastLanes: Afroozeh & Boncz, PVLDB 16(9), 2023):
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
//! * The partial last block, if any, follows contiguously: its value
//!   `i` occupies bits `i·w .. (i+1)·w` of `⌈len_b · w_b / 64⌉` words.
//!
//! So the full blocks take exactly `2·S` words, with no padding; at one
//! width `w`, `len` values take `⌈len·w/64⌉` words, and a group of
//! [`GROUP_LEN`] = 1024 values fills each lane's `w` words exactly.
//!
//! Row `r` of every lane sits at one bit offset of 16 adjacent words, so
//! one kernel (`unpack_rows`, mirrored by `pack_rows`) decodes a run of
//! equal-width blocks a row at a time, a shift-and-mask per lane that the
//! compiler vectorises on baseline x86-64: no `unsafe`, no intrinsics, no
//! per-width dispatch.

use crate::block::{Widths, BLOCK_LEN};
use crate::width::max_width;
use crate::{Error, Result};
use std::ops::Range;

/// Values per group of eight full blocks, and the most values
/// [`Packed::for_each_chunk`] hands out per call.
pub const GROUP_LEN: usize = 1024;

/// Independent lanes: a block's 128 values are 8 rows of 16.
pub(crate) const LANES: usize = 16;

/// Rows per block: each lane holds 8 fields of every full block.
const ROWS: usize = BLOCK_LEN / LANES;

/// Most values per chunk of the partial block.
const CONTIGUOUS_LEN: usize = 64;

/// A bit-packed buffer of `len` values at one width or one width per
/// block, in the layout the module docs describe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packed {
    widths: Widths,
    words: Vec<u64>,
    len: usize,
}

impl Packed {
    /// Pack `values` at `width` bits each.
    ///
    /// Errors with [`Error::ValueTooWide`] if any value needs more than
    /// `width` bits, and [`Error::WidthOutOfRange`] if `width > 64`.
    pub fn pack(values: &[u64], width: u32) -> Result<Self> {
        check_fits(values, width)?;
        Ok(Self::pack_at(values, Widths::One(width)))
    }

    /// Pack `values`, each block of [`BLOCK_LEN`] at the smallest width
    /// covering its own values.
    pub fn pack_blocks(values: &[u64]) -> Self {
        let widths = values.chunks(BLOCK_LEN).map(|b| max_width(b) as u8);
        Self::pack_at(values, Widths::Blocks(widths.collect()))
    }

    /// Pack `values`, every one of which fits its block's width.
    fn pack_at(values: &[u64], widths: Widths) -> Self {
        let full = values.len() / BLOCK_LEN;
        let (rows, tail) = values.split_at(full * BLOCK_LEN);
        let rows = rows.as_chunks().0;
        let sum = widths.prior(full);
        let whole = LANES * (sum / 8);
        // Pack the lanes with room for their partial last words, then
        // squeeze those into their dense form.
        let mut words = Vec::with_capacity(whole + LANES + tail.len());
        words.resize(whole + LANES, 0);
        let lanes = words.as_chunks_mut().0;
        let (mut block, mut bit_pos) = (0, 0);
        while block < full {
            let (w, run) = widths.run(block, full);
            if w > 0 {
                pack_rows(&rows[ROWS * block..][..ROWS * run], w, bit_pos, lanes);
            }
            bit_pos += ROWS * run * w as usize;
            block += run;
        }
        let last: [u64; LANES] = words[whole..].try_into().expect("one row of lanes");
        words.truncate(whole);
        pack_append(&last, 8 * (sum % 8) as u32, &mut words);
        if !tail.is_empty() {
            pack_append(tail, widths.of(full), &mut words);
        }
        // A part lives as long as its segment: keep only its words.
        words.shrink_to_fit();
        Packed {
            widths,
            words,
            len: values.len(),
        }
    }

    /// Reconstruct from raw parts (e.g. after deserialisation): widths
    /// for `len` values, none past 64, and exactly the words they call
    /// for ([`Widths::words`]).
    pub fn from_raw_parts(widths: Widths, words: Vec<u64>, len: usize) -> Result<Self> {
        widths.check(len)?;
        if words.len() != widths.words(len) {
            return Err(Error::Corrupt("word count does not match len and widths"));
        }
        Ok(Packed { widths, words, len })
    }

    /// Number of packed values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The widths: one, or one per block.
    pub fn widths(&self) -> &Widths {
        &self.widths
    }

    /// The widest value width the buffer allows: its one width, or its
    /// widest block's.
    pub fn width(&self) -> u32 {
        self.widths.max()
    }

    /// The backing words, in the layout the module docs describe.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Payload size in bytes: the words, plus one byte per block width
    /// when the widths are per block (one width is its scheme's
    /// parameter).
    pub fn payload_bytes(&self) -> usize {
        let widths = match &self.widths {
            Widths::One(_) => 0,
            Widths::Blocks(widths) => widths.len(),
        };
        self.words.len() * 8 + widths
    }

    /// The full blocks' width sum `S`, read off the word count: the
    /// lanes take `2·S` words, the partial block the rest.
    fn lane_sum(&self) -> usize {
        let full = self.len / BLOCK_LEN;
        let tail = match self.len % BLOCK_LEN {
            0 => 0,
            len => words_for(len, self.widths.of(full)),
        };
        (self.words.len() - tail) / 2
    }

    /// Random access: the value at index `i`, or `None` out of bounds.
    ///
    /// This is NS's O(1) positional access — one of the operational
    /// advantages lightweight schemes keep over heavyweight ones. It
    /// reads one word of the field's lane, or two when the field
    /// straddles. With per-block widths, finding the lane bit sums the
    /// widths of the blocks before `i` (one byte add per 128 values).
    pub fn get(&self, i: usize) -> Option<u64> {
        (i < self.len).then(|| self.at(i))
    }

    /// The value at index `i < len`.
    fn at(&self, i: usize) -> u64 {
        let block = i / BLOCK_LEN;
        let (width, prior) = (self.widths.of(block), self.widths.prior(block));
        if block == self.len / BLOCK_LEN {
            return get_at(&self.words[2 * prior..], width, i % BLOCK_LEN);
        }
        if width == 0 {
            return 0;
        }
        let (sum, lane) = (self.lane_sum(), i % LANES);
        let whole = sum / 8;
        let word = |k: usize| match k < whole {
            true => self.words[LANES * k + lane],
            false => get_at(&self.words[LANES * whole..], 8 * (sum % 8) as u32, lane),
        };
        let bit = 8 * prior + i % BLOCK_LEN / LANES * width as usize;
        let (k, offset) = (bit / 64, (bit % 64) as u32);
        let mut v = word(k) >> offset;
        if offset + width > 64 {
            v |= word(k + 1) << (64 - offset);
        }
        v & (u64::MAX >> (64 - width))
    }

    /// Unpack the whole buffer into a fresh vector.
    pub fn unpack(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len);
        self.for_each_chunk(|chunk| out.extend_from_slice(chunk));
        out
    }

    /// The chunk cursor: hand the values to `f` in order, a chunk at a
    /// time, unpacked into a stack buffer. Each full group of
    /// [`GROUP_LEN`] values goes out as one chunk, whatever its blocks'
    /// widths; the full blocks after the last group as one more; the
    /// partial block in chunks of at most 64. So every chunk lies inside
    /// one group and starts on a block boundary, except inside the
    /// partial block. Consumers fuse their own operator into `f` and
    /// never see a materialised column.
    pub fn for_each_chunk(&self, mut f: impl FnMut(&[u64])) {
        let full = self.len / BLOCK_LEN;
        let sum = self.lane_sum();
        let (whole, rest) = self.words.split_at(LANES * (sum / 8));
        let last = std::array::from_fn(|j| get_at(rest, 8 * (sum % 8) as u32, j));
        let lanes = Lanes(&self.widths, whole.as_chunks().0, last);
        let mut buf = [[0u64; LANES]; GROUP_LEN / LANES];
        let (mut block, mut bit_pos) = (0, 0);
        while block < full {
            let end = full.min(block + GROUP_LEN / BLOCK_LEN);
            let rows = ROWS * (end - block);
            bit_pos = lanes.unpack(block..end, bit_pos, &mut buf[..rows]);
            // A full group goes out as the whole buffer, a slice whose
            // length the compiler knows: the loop a caller fuses into `f`
            // then compiles with a fixed trip count, which runs faster.
            match rows == buf.len() {
                true => f(buf.as_flattened()),
                false => f(buf[..rows].as_flattened()),
            }
            block = end;
        }
        if full * BLOCK_LEN < self.len {
            // The lanes took `8·S` bits each, `2·S` words in all.
            let tail = &self.words[2 * sum..];
            contiguous_chunks(tail, self.widths.of(full), self.len % BLOCK_LEN, f);
        }
    }
}

/// The full blocks' widths and lanes: `⌊S/8⌋` whole words per lane,
/// and every lane's partial last word (`8·(S mod 8)` bits,
/// zero-extended).
struct Lanes<'a>(&'a Widths, &'a [[u64; LANES]], [u64; LANES]);

impl Lanes<'_> {
    /// Unpack `blocks`, the first from lane bit `bit`, into `out`, a run
    /// of equal-width blocks per kernel call; returns the lane bit after
    /// them. Deliberately not `#[inline]`: compiled once here it runs
    /// faster than inlined into each caller's fused loop.
    fn unpack(&self, blocks: Range<usize>, mut bit: usize, out: &mut [[u64; LANES]]) -> usize {
        let (Lanes(widths, whole, last), mut block, mut row) = (self, blocks.start, 0);
        while block < blocks.end {
            let (w, run) = widths.run(block, blocks.end);
            let out = &mut out[row..row + ROWS * run];
            let first = bit / 64;
            let stop = first + (bit % 64 + out.len() * w as usize).div_ceil(64);
            match w {
                0 => out.fill([0; LANES]),
                _ if stop <= whole.len() => unpack_rows(&whole[first..stop], w, bit % 64, out),
                // The last rows reach the partial words.
                _ => {
                    let mut near = [*last; GROUP_LEN / LANES + 1];
                    near[..whole.len() - first].copy_from_slice(&whole[first..]);
                    unpack_rows(&near[..=whole.len() - first], w, bit % 64, out);
                }
            }
            bit += ROWS * run * w as usize;
            (block, row) = (block + run, row + ROWS * run);
        }
        bit
    }
}

/// Words holding `len` values of `width` bits.
pub(crate) fn words_for(len: usize, width: u32) -> usize {
    (len as u128 * width as u128).div_ceil(64) as usize
}

/// `Err(ValueTooWide)` for the first value needing more than `width`
/// bits, `Err(WidthOutOfRange)` for `width > 64`.
fn check_fits(values: &[u64], width: u32) -> Result<()> {
    let wide = match width {
        0..=63 => !((1u64 << width) - 1),
        64 => 0,
        _ => return Err(Error::WidthOutOfRange(width)),
    };
    match values.iter().position(|&v| v & wide != 0) {
        Some(index) => Err(Error::ValueTooWide {
            index,
            value: values[index],
            width,
        }),
        None => Ok(()),
    }
}

/// The pack kernel, mirroring `unpack_rows`: OR each row of 16
/// values, every one fitting in `1 <= width <= 64` bits, into the 16
/// lanes of `words`, row `r` at lane bit `bit_pos + r·width`. `words`
/// must be zeroed there and reach the last row's last bit.
#[inline]
fn pack_rows(rows: &[[u64; LANES]], width: u32, mut bit_pos: usize, words: &mut [[u64; LANES]]) {
    for row in rows {
        let word = bit_pos >> 6;
        let offset = (bit_pos & 63) as u32;
        for (slot, &v) in words[word].iter_mut().zip(row) {
            *slot |= v << offset;
        }
        if offset + width > 64 {
            for (slot, &v) in words[word + 1].iter_mut().zip(row) {
                *slot |= v >> (64 - offset);
            }
        }
        bit_pos += width as usize;
    }
}

/// The unpack kernel: fill `out` row by row from the 16 lanes of
/// `words`, row `r` from lane bit `bit_pos + r·width`, for
/// `1 <= width <= 64`. Every lane's field `r` starts at the same bit, so
/// the straddle test is per row, not per value, and each arm is a
/// branch-free loop over 16 lanes.
#[inline]
fn unpack_rows(words: &[[u64; LANES]], width: u32, mut bit_pos: usize, out: &mut [[u64; LANES]]) {
    let mask = u64::MAX >> (64 - width);
    for row in out {
        let word = bit_pos >> 6;
        let offset = (bit_pos & 63) as u32;
        let lo = &words[word];
        if offset + width > 64 {
            for ((slot, &lo), &hi) in row.iter_mut().zip(lo).zip(&words[word + 1]) {
                *slot = ((lo >> offset) | (hi << (64 - offset))) & mask;
            }
        } else {
            for (slot, &lo) in row.iter_mut().zip(lo) {
                *slot = (lo >> offset) & mask;
            }
        }
        bit_pos += width as usize;
    }
}

/// Append the contiguously packed words of `values`, every one of
/// which fits in `width <= 64` bits, to `words`.
fn pack_append(values: &[u64], width: u32, words: &mut Vec<u64>) {
    if width == 0 {
        return;
    }
    let start = words.len();
    words.resize(start + words_for(values.len(), width), 0);
    let dst = &mut words[start..];
    let mut bit_pos = 0usize;
    for &v in values {
        let word = bit_pos >> 6;
        let offset = (bit_pos & 63) as u32;
        dst[word] |= v << offset;
        if offset + width > 64 {
            dst[word + 1] |= v >> (64 - offset);
        }
        bit_pos += width as usize;
    }
}

/// Value `i` of a contiguous stream of `width`-bit fields starting at
/// `words[0]`.
fn get_at(words: &[u64], width: u32, i: usize) -> u64 {
    if width == 0 {
        return 0;
    }
    let bit_pos = i * width as usize;
    let word = bit_pos >> 6;
    let offset = (bit_pos & 63) as u32;
    let mut v = words[word] >> offset;
    if offset + width > 64 {
        v |= words[word + 1] << (64 - offset);
    }
    v & (u64::MAX >> (64 - width))
}

/// The contiguous cursor, behind the partial block of
/// [`Packed::for_each_chunk`]: `len` values of `width` bits starting at
/// `words[0]`, at most 64 values per call.
fn contiguous_chunks(words: &[u64], width: u32, len: usize, mut f: impl FnMut(&[u64])) {
    let mut buf = [0u64; CONTIGUOUS_LEN];
    for start in (0..len).step_by(CONTIGUOUS_LEN) {
        let chunk = &mut buf[..CONTIGUOUS_LEN.min(len - start)];
        for (i, slot) in chunk.iter_mut().enumerate() {
            *slot = get_at(words, width, start + i);
        }
        f(chunk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_any_width() {
        for w in [0, 1, 13, 64] {
            let p = Packed::pack(&[], w).unwrap();
            assert_eq!(p.len(), 0);
            assert!(p.is_empty());
            assert_eq!(p.unpack(), Vec::<u64>::new());
        }
    }

    #[test]
    fn width_zero_packs_zeros_only() {
        let p = Packed::pack(&[0, 0, 0], 0).unwrap();
        assert_eq!(p.payload_bytes(), 0);
        assert_eq!(p.unpack(), vec![0, 0, 0]);
        assert_eq!(
            Packed::pack(&[0, 1], 0),
            Err(Error::ValueTooWide {
                index: 1,
                value: 1,
                width: 0
            })
        );
    }

    #[test]
    fn width_65_rejected() {
        assert_eq!(Packed::pack(&[1], 65), Err(Error::WidthOutOfRange(65)));
    }

    #[test]
    fn too_wide_value_rejected() {
        assert_eq!(
            Packed::pack(&[7, 8], 3),
            Err(Error::ValueTooWide {
                index: 1,
                value: 8,
                width: 3
            })
        );
    }

    #[test]
    fn round_trip_every_width() {
        for width in 1..=64u32 {
            let mask = if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            let values: Vec<u64> = (0..200u64)
                .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) & mask)
                .collect();
            let p = Packed::pack(&values, width).unwrap();
            assert_eq!(p.unpack(), values, "width {width}");
        }
    }

    #[test]
    fn random_access_matches_unpack() {
        let values: Vec<u64> = (0..100).map(|i| i * 37 % 8192).collect();
        let p = Packed::pack(&values, 13).unwrap();
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(p.get(i), Some(v));
        }
        assert_eq!(p.get(values.len()), None);
    }

    #[test]
    fn word_boundary_straddling() {
        // Width 13 straddles 64-bit boundaries regularly; check the exact
        // values around the first boundary.
        let values: Vec<u64> = (0..10).map(|i| 0x1000 + i).collect();
        let p = Packed::pack(&values, 13).unwrap();
        assert_eq!(p.unpack(), values);
    }

    #[test]
    fn from_raw_parts_validates() {
        let p = Packed::pack(&[1, 2, 3], 2).unwrap();
        let rebuilt = Packed::from_raw_parts(Widths::One(2), p.words().to_vec(), 3).unwrap();
        assert_eq!(rebuilt.unpack(), vec![1, 2, 3]);
        assert!(Packed::from_raw_parts(Widths::One(2), vec![], 3).is_err());
        assert!(Packed::from_raw_parts(Widths::One(2), vec![0; 10], 3).is_err());
        assert!(Packed::from_raw_parts(Widths::One(65), vec![], 0).is_err());
    }

    #[test]
    fn payload_bytes_matches_width_module() {
        for (n, w) in [(100usize, 13u32), (64, 1), (1, 64), (0, 7)] {
            let values = vec![0u64; n];
            let p = Packed::pack(&values, w).unwrap();
            assert_eq!(p.payload_bytes(), crate::width::packed_bytes(n, w));
        }
    }

    #[test]
    fn chunk_cursor_yields_the_values_in_order() {
        // Whole groups, a tail, and the two degenerate widths.
        for (n, width) in [(0usize, 9u32), (1, 9), (63, 9), (64, 9), (65, 9), (200, 63)] {
            let mask = (1u64 << width) - 1;
            let values: Vec<u64> = (0..n as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask)
                .collect();
            let p = Packed::pack(&values, width).unwrap();
            let mut seen = Vec::new();
            p.for_each_chunk(|chunk| {
                assert!(!chunk.is_empty() && chunk.len() <= GROUP_LEN);
                seen.extend_from_slice(chunk);
            });
            assert_eq!(seen, values, "n {n} width {width}");
        }
        let zeros = Packed::pack(&[0; 130], 0).unwrap();
        let mut lens = Vec::new();
        zeros.for_each_chunk(|chunk| lens.push(chunk.len()));
        assert_eq!(lens, vec![128, 2]);
        let full = Packed::pack(&[u64::MAX, 1, 2], 64).unwrap();
        let mut seen = Vec::new();
        full.for_each_chunk(|chunk| seen.extend_from_slice(chunk));
        assert_eq!(seen, vec![u64::MAX, 1, 2]);
    }

    /// `len` pseudo-random values of at most `width` bits.
    fn sample(len: usize, width: u32) -> Vec<u64> {
        let mask = match width {
            64 => u64::MAX,
            w => (1u64 << w) - 1,
        };
        (0..len as u64)
            .map(|i| {
                (i ^ 0x5DEE_CE66)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .rotate_left(17)
                    & mask
            })
            .collect()
    }

    /// Two full groups and a three-value tail at `width`, with `set`
    /// placing `(row, lane, value)` fields in the second group.
    fn two_groups(width: u32, set: &[(usize, usize, u64)]) -> Packed {
        let mut values = vec![0u64; 2 * GROUP_LEN];
        for &(row, lane, v) in set {
            values[GROUP_LEN + 16 * row + lane] = v;
        }
        values.extend([1, 2, 3]);
        Packed::pack(&values, width).unwrap()
    }

    #[test]
    fn group_layout_is_pinned_at_width_5() {
        // Row 0 of lane 3 sits at bit 0 of word 0. Row 12 starts at
        // bit 60, so its fifth bit spills into word 1 of the same lane,
        // 16 words later. Row 63 ends exactly at bit 320 (word 4).
        let p = two_groups(5, &[(0, 3, 0b10101), (12, 7, 0b11111), (63, 15, 0b10001)]);
        let mut expect = vec![0u64; (2 * GROUP_LEN * 5 + 3 * 5).div_ceil(64)];
        let g = 16 * 5; // the second group's first word
        expect[g + 3] = 0b10101;
        expect[g + 7] = 0b1111 << 60;
        expect[g + 16 + 7] = 0b1;
        expect[g + 16 * 4 + 15] = 0b10001 << 59;
        // The tail is contiguous from word 16·w·G = 160.
        expect[2 * g] = 1 | 2 << 5 | 3 << 10;
        assert_eq!(p.words(), &expect[..]);
    }

    #[test]
    fn group_layout_is_pinned_at_width_33() {
        // Row 1 starts at bit 33: 31 bits stay in word 0, the top two
        // spill into word 1 (16 words later). Row 63 starts at bit
        // 2079 = word 32, bit 31, and ends exactly at the group's end.
        let wide = (1u64 << 32) | (1 << 31) | 1;
        let ones = (1u64 << 33) - 1;
        let p = two_groups(33, &[(1, 0, wide), (0, 5, ones), (63, 9, 1 << 32)]);
        let mut expect = vec![0u64; (2 * GROUP_LEN * 33 + 3 * 33).div_ceil(64)];
        let g = 16 * 33;
        expect[g] = 1 << 33;
        expect[g + 16] = 0b11;
        expect[g + 5] = ones;
        expect[g + 16 * 32 + 9] = 1 << 63;
        expect[2 * g] = 1 | 2 << 33;
        expect[2 * g + 1] = 3 << 2;
        assert_eq!(p.words(), &expect[..]);
    }

    /// Two full groups, three full blocks and a three-value partial
    /// block at `width`, with `set` placing `(block, row, lane, value)`
    /// fields in the three blocks after the groups.
    fn past_the_groups(width: u32, set: &[(usize, usize, usize, u64)]) -> Packed {
        let mut values = vec![0u64; 2 * GROUP_LEN + 3 * BLOCK_LEN];
        for &(block, row, lane, v) in set {
            values[2 * GROUP_LEN + BLOCK_LEN * block + 16 * row + lane] = v;
        }
        values.extend([1, 2, 3]);
        let p = Packed::pack(&values, width).unwrap();
        assert_eq!(p.unpack(), values);
        assert!((0..values.len()).all(|i| p.get(i) == Some(values[i])));
        p
    }

    #[test]
    fn tail_layout_is_pinned_at_width_5() {
        // S = 19 blocks · 5 = 95: each lane holds 760 bits, 11 whole
        // words (words 0..176) then 56 leftover bits, packed densely in
        // words 176..190. The groups fill lane words 0..10, so the three
        // blocks after them start at lane bit 640 (word 10, bit 0).
        let p = past_the_groups(
            5,
            &[
                (0, 0, 3, 0b10101),  // lane bit 640: lane word 10
                (1, 4, 15, 0b11111), // lane bit 700: straddles into the leftover
                (1, 6, 1, 0b10111),  // leftover bits 6..11: dense bits 62..67
                (2, 7, 9, 0b11011),  // leftover bits 51..56: dense bit 555
            ],
        );
        let mut expect = vec![0u64; 2 * 95 + 1];
        expect[16 * 10 + 3] = 0b10101;
        expect[16 * 10 + 15] = 0b1111 << 60;
        expect[176 + 13] = 1 << 8; // dense bit 56·15 = 840
        expect[176] = 0b11 << 62;
        expect[177] = 0b101;
        expect[176 + 8] = 0b11011 << 43;
        // The partial block follows the lanes' 2·S = 190 words.
        expect[190] = 1 | 2 << 5 | 3 << 10;
        assert_eq!(p.words(), &expect[..]);
    }

    #[test]
    fn tail_layout_is_pinned_at_width_33() {
        // S = 19 blocks · 33 = 627: each lane holds 5016 bits, 78 whole
        // words (words 0..1248) then 24 leftover bits, packed densely in
        // words 1248..1254. The three blocks after the groups start at
        // lane bit 4224 (word 66, bit 0).
        let wide = (1u64 << 32) | (1 << 31) | 1;
        let p = past_the_groups(
            33,
            &[
                (0, 0, 5, (1 << 32) | 1), // lane bit 4224: lane word 66
                (0, 1, 0, wide),          // lane bit 4257: straddles into word 67
                (2, 7, 9, (1 << 32) | 1), // lane bits 4983..5016: word 77, then the leftover
            ],
        );
        let mut expect = vec![0u64; 2 * 627 + 2];
        expect[16 * 66 + 5] = (1 << 32) | 1;
        expect[16 * 66] = 1 << 33;
        expect[16 * 67] = 0b11;
        expect[16 * 77 + 9] = 1 << 55;
        expect[1248 + 3] = 1 << 47; // leftover bit 23: dense bit 24·9 + 23 = 239
        expect[1254] = 1 | 2 << 33;
        expect[1255] = 3 << 2;
        assert_eq!(p.words(), &expect[..]);
    }

    #[test]
    fn every_reader_agrees_at_every_width_and_length() {
        for width in 0..=64u32 {
            for len in [0usize, 1, 63, 64, 1023, 1024, 1025, 1300, 2048, 4096, 4103] {
                let values = sample(len, width);
                let p = Packed::pack(&values, width).unwrap();
                let at = format!("width {width} len {len}");
                assert_eq!(p.words().len(), words_for(len, width), "{at}");
                assert_eq!(p.unpack(), values, "{at}");
                assert!((0..len).all(|i| p.get(i) == Some(values[i])), "{at}");
                assert_eq!(p.get(len), None, "{at}");
                let mut seen = Vec::new();
                p.for_each_chunk(|chunk| seen.extend_from_slice(chunk));
                assert_eq!(seen, values, "{at}");
            }
        }
    }

    #[test]
    fn chunk_cursor_hands_out_one_chunk_per_group() {
        // Groups, then the remaining full blocks as one chunk, then the
        // partial block at most 64 values at a time — at every width.
        for width in [0u32, 1, 7, 33, 63, 64] {
            let p = Packed::pack(&sample(2 * GROUP_LEN + 100, width), width).unwrap();
            let mut lens = Vec::new();
            p.for_each_chunk(|chunk| lens.push(chunk.len()));
            assert_eq!(lens, vec![GROUP_LEN, GROUP_LEN, 64, 36], "width {width}");
            let p = Packed::pack(&sample(GROUP_LEN + 3 * BLOCK_LEN + 3, width), width).unwrap();
            let mut lens = Vec::new();
            p.for_each_chunk(|chunk| lens.push(chunk.len()));
            assert_eq!(lens, vec![GROUP_LEN, 3 * BLOCK_LEN, 3], "width {width}");
        }
    }

    #[test]
    fn from_raw_parts_takes_exactly_the_words_the_layout_needs() {
        for width in [1u32, 5, 33, 63, 64] {
            for len in [1usize, 1023, 1024, 1025, 1300, 4103] {
                let p = Packed::pack(&sample(len, width), width).unwrap();
                let words = p.words().to_vec();
                assert_eq!(words.len(), (len * width as usize).div_ceil(64));
                let one = Widths::One(width);
                let back = Packed::from_raw_parts(one.clone(), words.clone(), len).unwrap();
                assert_eq!(back, p);
                let short = words[..words.len() - 1].to_vec();
                assert!(Packed::from_raw_parts(one.clone(), short, len).is_err());
                let mut long = words;
                long.push(0);
                assert!(Packed::from_raw_parts(one, long, len).is_err());
            }
        }
    }
}
