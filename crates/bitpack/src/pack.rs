//! Flat bit packing: the whole column at one width.
//!
//! Values are laid out LSB-first in a dense stream of 64-bit words:
//! value `i` occupies bits `i*w .. (i+1)*w` of the stream. Width 0 packs
//! any number of zeros into zero words; width 64 is a plain copy.
//!
//! 64 values of width `w` occupy exactly `w` words, so the stream is a
//! sequence of word-aligned *groups* of [`GROUP_LEN`] values. Bulk
//! decoding goes group by group through one kernel (`unpack_group`);
//! only the final partial group takes the per-value loop.

use crate::{Error, Result};

/// Values per word-aligned group: `GROUP_LEN` values of width `w` fill
/// `w` whole words.
pub const GROUP_LEN: usize = 64;

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
        pack_append(values, width, &mut words);
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

    /// The backing words.
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
    /// ones.
    pub fn get(&self, i: usize) -> Option<u64> {
        if i >= self.len {
            return None;
        }
        Some(get_at(&self.words, self.width, i))
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
    /// time, unpacked into a stack buffer — at most [`GROUP_LEN`] values
    /// per call, except at width 64 where the stored words *are* the
    /// values and go out as one chunk. Consumers fuse their own operator
    /// into `f` and never see a materialised column.
    pub fn for_each_chunk(&self, f: impl FnMut(&[u64])) {
        for_each_chunk(&self.words, self.width, self.len, f);
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

/// Append the packed words of `values`, every one of which fits in
/// `width <= 64` bits, to `words`.
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

/// Value `i` of a stream of `width`-bit fields starting at `words[0]`.
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

/// The cursor behind [`Packed::for_each_chunk`] and the per-block
/// cursor of [`crate::BlockPacked`]: `len` values of `width` bits
/// starting at `words[0]`, which must hold `words_for(len, width)` words.
#[inline]
pub(crate) fn for_each_chunk(words: &[u64], width: u32, len: usize, mut f: impl FnMut(&[u64])) {
    let mut buf = [0u64; GROUP_LEN];
    match width {
        0 => {
            for _ in 0..len / GROUP_LEN {
                f(&buf);
            }
            let rest = &buf[..len % GROUP_LEN];
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
            let (body, tail) = words.split_at(len / GROUP_LEN * width as usize);
            for group in body.chunks_exact(width as usize) {
                unpack_group(group, width, &mut buf);
                f(&buf);
            }
            let rest = &mut buf[..len % GROUP_LEN];
            if !rest.is_empty() {
                for (i, slot) in rest.iter_mut().enumerate() {
                    *slot = get_at(tail, width, i);
                }
                f(rest);
            }
        }
    }
}

/// The kernel: one whole group, `width` words in, [`GROUP_LEN`] values
/// out, for `1 <= width <= 63`. The words are copied next to a zero
/// sentinel so every field reads `buf[w]` and `buf[w + 1]` without a
/// straddle branch, and the masked word index keeps both reads inside
/// the fixed-size array without bounds checks.
#[inline]
fn unpack_group(group: &[u64], width: u32, out: &mut [u64; GROUP_LEN]) {
    let mut buf = [0u64; GROUP_LEN + 1];
    buf[..group.len()].copy_from_slice(group);
    let mask = (1u64 << width) - 1;
    let mut bit_pos = 0usize;
    for slot in out.iter_mut() {
        let word = (bit_pos >> 6) & (GROUP_LEN - 1);
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
