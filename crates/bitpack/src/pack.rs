//! Flat bit packing: the whole column at one width.
//!
//! A [`Packed`] buffer of `len` values at width `w` stores each full
//! group of [`GROUP_LEN`] = 1024 values *interleaved* across 16 lanes
//! (the FastLanes layout: Afroozeh & Boncz, PVLDB 16(9), 2023), and its
//! last `len % 1024` values contiguously:
//!
//! * In group `g`, value `1024·g + 16·r + j` is field `r` of lane `j`,
//!   for row `r < 64` and lane `j < 16`. Each lane packs its 64 fields
//!   LSB-first into `w` words, and word `k` of lane `j` is
//!   `words[16·w·g + 16·k + j]`. A group is exactly `16·w` words.
//! * The tail starts at word `16·w·G`, with `G = len / 1024`. Its value
//!   `i` occupies bits `i·w .. (i+1)·w` of a dense LSB-first stream.
//!
//! Either way `len` values take `⌈len·w/64⌉` words. Width 0 packs any
//! number of zeros into zero words; at width 64 the words are the
//! values themselves.
//!
//! The lanes are independent: row `r` of every lane sits at the same bit
//! offset of the same word index, so unpacking a row is one
//! shift-and-mask over 16 adjacent words. One kernel (`unpack_rows`)
//! takes the width and the first row's bit offset at run time and
//! decodes rows one by one; the compiler vectorises its lane loop on
//! baseline x86-64, with no `unsafe`, no intrinsics and no per-width
//! dispatch. `pack_rows` mirrors it. A group is 64 rows from bit 0.
//! [`crate::BlockPacked`] runs the same two kernels over its 128-value
//! blocks, 8 rows each at the block's own width. The tail goes through
//! the contiguous kernel (`unpack_contiguous`, 64 values per `w`
//! words), as does a `BlockPacked`'s partial last block.

use crate::{Error, Result};

/// Values per interleaved group, and the most values
/// [`Packed::for_each_chunk`] hands out per call below width 64.
pub const GROUP_LEN: usize = 1024;

/// Independent lanes per interleaved group: `GROUP_LEN / LANES` = 64
/// fields per lane fill `w` whole words.
pub(crate) const LANES: usize = 16;

/// Values per contiguous word group: `CONTIGUOUS_LEN` values of width
/// `w` fill `w` whole words.
const CONTIGUOUS_LEN: usize = 64;

/// An element type bulk unpacking can write: `u64` (the transport
/// type) or `u32` (codes and narrow offsets, at half the traffic).
pub trait Unpacked: Copy {
    /// Keep the low bits of an unpacked value.
    fn from_packed(v: u64) -> Self;
}

impl Unpacked for u64 {
    #[inline]
    fn from_packed(v: u64) -> Self {
        v
    }
}

impl Unpacked for u32 {
    #[inline]
    fn from_packed(v: u64) -> Self {
        v as u32
    }
}

/// A bit-packed buffer: `len` values of `width` bits each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packed {
    words: Vec<u64>,
    width: u32,
    len: usize,
}

impl Packed {
    /// Pack `values` at `width` bits each.
    ///
    /// Errors with [`Error::ValueTooWide`] if any value needs more than
    /// `width` bits, and [`Error::WidthOutOfRange`] if `width > 64`.
    pub fn pack(values: &[u64], width: u32) -> Result<Self> {
        check_fits(values, width)?;
        let mut words = Vec::with_capacity(words_for(values.len(), width));
        let groups = values.chunks_exact(GROUP_LEN);
        let tail = groups.remainder();
        if (1..64).contains(&width) {
            for group in groups {
                let start = words.len();
                words.resize(start + LANES * width as usize, 0);
                let lanes = words[start..].as_chunks_mut().0;
                pack_rows(group.as_chunks().0, width, 0, lanes);
            }
            pack_append(tail, width, &mut words);
        } else {
            pack_append(values, width, &mut words);
        }
        Ok(Packed {
            words,
            width,
            len: values.len(),
        })
    }

    /// Reconstruct a `Packed` from raw parts (e.g. after deserialisation).
    ///
    /// Validates the word count against `len * width`.
    pub fn from_raw_parts(words: Vec<u64>, width: u32, len: usize) -> Result<Self> {
        if width > 64 {
            return Err(Error::WidthOutOfRange(width));
        }
        if words.len() != words_for(len, width) {
            return Err(Error::Corrupt("word count does not match len*width"));
        }
        Ok(Packed { words, width, len })
    }

    /// Number of packed values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The per-value bit width.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The backing words, in the layout the module docs describe.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Payload size in bytes (words only, excluding struct metadata).
    pub fn payload_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Random access: the value at index `i`, or `None` out of bounds.
    ///
    /// This is the NS scheme's O(1) positional access — one of the
    /// operational advantages lightweight schemes keep over heavyweight
    /// ones. Inside a group it reads one word, or two words 16 apart
    /// when the field straddles.
    pub fn get(&self, i: usize) -> Option<u64> {
        if i >= self.len {
            return None;
        }
        let w = self.width as usize;
        if !(1..64).contains(&w) {
            return Some(get_at(&self.words, self.width, i));
        }
        let (group, within) = (i / GROUP_LEN, i % GROUP_LEN);
        if group == self.len / GROUP_LEN {
            let tail = group * LANES * w;
            return Some(get_at(&self.words[tail..], self.width, within));
        }
        let words = &self.words[group * LANES * w..];
        let (bit, lane) = (within / LANES * w, within % LANES);
        let (k, offset) = (bit >> 6, (bit & 63) as u32);
        let mut v = words[LANES * k + lane] >> offset;
        if offset + self.width > 64 {
            v |= words[LANES * (k + 1) + lane] << (64 - offset);
        }
        Some(v & ((1u64 << w) - 1))
    }

    /// Unpack the whole buffer into a fresh vector.
    pub fn unpack(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len);
        self.for_each_chunk(|chunk| out.extend_from_slice(chunk));
        out
    }

    /// Unpack into a caller-provided `u64` or `u32` slice of exactly
    /// `len()` elements (`u32` keeps the low 32 bits).
    ///
    /// # Panics
    /// Panics if `out.len() != self.len()`.
    pub fn unpack_into<T: Unpacked>(&self, out: &mut [T]) {
        assert_eq!(out.len(), self.len, "output slice length mismatch");
        let mut rest = out;
        self.for_each_chunk(|chunk| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(chunk.len());
            for (slot, &v) in head.iter_mut().zip(chunk) {
                *slot = T::from_packed(v);
            }
            rest = tail;
        });
    }

    /// The chunk cursor: hand the values to `f` in order, a chunk at a
    /// time, unpacked into a stack buffer. Each full group goes out as
    /// one chunk of [`GROUP_LEN`] values, and the tail in chunks of at
    /// most 64. At width 64 the stored words *are* the values and go out
    /// as one chunk. Consumers fuse their own operator into `f` and
    /// never see a materialised column.
    pub fn for_each_chunk(&self, mut f: impl FnMut(&[u64])) {
        let (w, groups) = (self.width as usize, self.len / GROUP_LEN);
        if w == 64 || groups == 0 {
            contiguous_chunks(&self.words, self.width, self.len, f);
            return;
        }
        let (body, tail) = self.words.split_at(groups * LANES * w);
        let mut buf = [0u64; GROUP_LEN];
        for g in 0..groups {
            if w > 0 {
                let lanes = body[g * LANES * w..][..LANES * w].as_chunks().0;
                unpack_rows(lanes, self.width, 0, buf.as_chunks_mut().0);
            }
            f(&buf);
        }
        contiguous_chunks(tail, self.width, self.len % GROUP_LEN, f);
    }

    /// Iterate over the packed values without materialising them.
    pub fn iter(&self) -> PackedIter<'_> {
        PackedIter {
            packed: self,
            idx: 0,
        }
    }
}

/// Iterator over the values of a [`Packed`] buffer.
pub struct PackedIter<'a> {
    packed: &'a Packed,
    idx: usize,
}

impl Iterator for PackedIter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let v = self.packed.get(self.idx)?;
        self.idx += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.packed.len - self.idx;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for PackedIter<'_> {}

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
pub(crate) fn pack_rows(
    rows: &[[u64; LANES]],
    width: u32,
    mut bit_pos: usize,
    words: &mut [[u64; LANES]],
) {
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
pub(crate) fn unpack_rows(
    words: &[[u64; LANES]],
    width: u32,
    mut bit_pos: usize,
    out: &mut [[u64; LANES]],
) {
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
pub(crate) fn pack_append(values: &[u64], width: u32, words: &mut Vec<u64>) {
    match width {
        0 => {}
        64 => words.extend_from_slice(values),
        _ => {
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
    }
}

/// Value `i` of a contiguous stream of `width`-bit fields starting at
/// `words[0]`.
pub(crate) fn get_at(words: &[u64], width: u32, i: usize) -> u64 {
    match width {
        0 => 0,
        64 => words[i],
        _ => {
            let bit_pos = i * width as usize;
            let word = bit_pos >> 6;
            let offset = (bit_pos & 63) as u32;
            let mut v = words[word] >> offset;
            if offset + width > 64 {
                v |= words[word + 1] << (64 - offset);
            }
            v & ((1u64 << width) - 1)
        }
    }
}

/// The contiguous cursor, behind the tail of [`Packed::for_each_chunk`]
/// and the partial last block of a [`crate::BlockPacked`]: `len` values
/// of `width` bits starting at `words[0]`, which must hold
/// `words_for(len, width)` words, at most 64 values per call except at
/// width 64.
#[inline]
pub(crate) fn contiguous_chunks(words: &[u64], width: u32, len: usize, mut f: impl FnMut(&[u64])) {
    let mut buf = [0u64; CONTIGUOUS_LEN];
    match width {
        0 => {
            for _ in 0..len / CONTIGUOUS_LEN {
                f(&buf);
            }
            let rest = &buf[..len % CONTIGUOUS_LEN];
            if !rest.is_empty() {
                f(rest);
            }
        }
        64 => {
            if len > 0 {
                f(&words[..len]);
            }
        }
        _ => {
            let (body, tail) = words.split_at(len / CONTIGUOUS_LEN * width as usize);
            for group in body.chunks_exact(width as usize) {
                unpack_contiguous(group, width, &mut buf);
                f(&buf);
            }
            let rest = &mut buf[..len % CONTIGUOUS_LEN];
            if !rest.is_empty() {
                for (i, slot) in rest.iter_mut().enumerate() {
                    *slot = get_at(tail, width, i);
                }
                f(rest);
            }
        }
    }
}

/// The contiguous kernel: `width` words in, 64 values out, for
/// `1 <= width <= 63`. The words are copied next to a zero sentinel so
/// every field reads `buf[w]` and `buf[w + 1]` without a straddle
/// branch, and the masked word index keeps both reads inside the
/// fixed-size array without bounds checks.
#[inline]
fn unpack_contiguous(group: &[u64], width: u32, out: &mut [u64; CONTIGUOUS_LEN]) {
    let mut buf = [0u64; CONTIGUOUS_LEN + 1];
    buf[..group.len()].copy_from_slice(group);
    let mask = (1u64 << width) - 1;
    let mut bit_pos = 0usize;
    for slot in out.iter_mut() {
        let word = (bit_pos >> 6) & (CONTIGUOUS_LEN - 1);
        let offset = (bit_pos & 63) as u32;
        // `<< 1 << (63 - offset)` is `<< (64 - offset)` without the
        // overflowing shift at offset 0.
        *slot = ((buf[word] >> offset) | (buf[word + 1] << 1 << (63 - offset))) & mask;
        bit_pos += width as usize;
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
    fn iterator_yields_all_values() {
        let values: Vec<u64> = (0..67).collect();
        let p = Packed::pack(&values, 7).unwrap();
        let collected: Vec<u64> = p.iter().collect();
        assert_eq!(collected, values);
        assert_eq!(p.iter().len(), 67);
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
        let rebuilt = Packed::from_raw_parts(p.words().to_vec(), 2, 3).unwrap();
        assert_eq!(rebuilt.unpack(), vec![1, 2, 3]);
        assert!(Packed::from_raw_parts(vec![], 2, 3).is_err());
        assert!(Packed::from_raw_parts(vec![0; 10], 2, 3).is_err());
        assert!(Packed::from_raw_parts(vec![], 65, 0).is_err());
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
        assert_eq!(lens, vec![64, 64, 2]);
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

    #[test]
    fn every_reader_agrees_at_every_width_and_length() {
        for width in 0..=64u32 {
            for len in [0usize, 1, 63, 64, 1023, 1024, 1025, 2048, 4096, 4103] {
                let values = sample(len, width);
                let p = Packed::pack(&values, width).unwrap();
                let at = format!("width {width} len {len}");
                assert_eq!(p.words().len(), words_for(len, width), "{at}");
                assert_eq!(p.unpack(), values, "{at}");
                if width <= 32 {
                    let mut narrow = vec![0u32; len];
                    p.unpack_into(&mut narrow);
                    assert!(
                        narrow.iter().zip(&values).all(|(&a, &b)| a as u64 == b),
                        "{at}"
                    );
                }
                assert!((0..len).all(|i| p.get(i) == Some(values[i])), "{at}");
                assert_eq!(p.get(len), None, "{at}");
                assert_eq!(p.iter().collect::<Vec<_>>(), values, "{at}");
                let mut seen = Vec::new();
                p.for_each_chunk(|chunk| seen.extend_from_slice(chunk));
                assert_eq!(seen, values, "{at}");
            }
        }
    }

    #[test]
    fn chunk_cursor_hands_out_one_chunk_per_group() {
        for width in [0u32, 1, 7, 33, 63] {
            let p = Packed::pack(&sample(2 * GROUP_LEN + 100, width), width).unwrap();
            let mut lens = Vec::new();
            p.for_each_chunk(|chunk| lens.push(chunk.len()));
            assert_eq!(lens, vec![GROUP_LEN, GROUP_LEN, 64, 36], "width {width}");
        }
        let p = Packed::pack(&sample(2 * GROUP_LEN + 100, 64), 64).unwrap();
        let mut lens = Vec::new();
        p.for_each_chunk(|chunk| lens.push(chunk.len()));
        assert_eq!(lens, vec![2 * GROUP_LEN + 100]);
    }

    #[test]
    fn from_raw_parts_takes_exactly_the_words_the_layout_needs() {
        for width in [1u32, 5, 33, 63, 64] {
            for len in [1usize, 1023, 1024, 1025, 4103] {
                let p = Packed::pack(&sample(len, width), width).unwrap();
                let words = p.words().to_vec();
                assert_eq!(words.len(), (len * width as usize).div_ceil(64));
                let back = Packed::from_raw_parts(words.clone(), width, len).unwrap();
                assert_eq!(back, p);
                let short = words[..words.len() - 1].to_vec();
                assert!(Packed::from_raw_parts(short, width, len).is_err());
                let mut long = words;
                long.push(0);
                assert!(Packed::from_raw_parts(long, width, len).is_err());
            }
        }
    }

    #[test]
    fn unpack_into_u32_keeps_the_low_bits() {
        let values: Vec<u64> = (0..150).map(|i| i * 31 % 4096).collect();
        let p = Packed::pack(&values, 12).unwrap();
        let mut narrow = vec![0u32; values.len()];
        p.unpack_into(&mut narrow);
        assert!(narrow.iter().zip(&values).all(|(&a, &b)| a as u64 == b));
        let mut wide = vec![0u64; values.len()];
        p.unpack_into(&mut wide);
        assert_eq!(wide, values);
        // A value past 32 bits is truncated, as documented.
        let p = Packed::pack(&[(7 << 32) | 5], 40).unwrap();
        let mut narrow = [0u32];
        p.unpack_into(&mut narrow);
        assert_eq!(narrow, [5]);
    }
}
