//! Binary serialization of compressed forms.
//!
//! A downstream system needs compressed columns to survive a round trip
//! through storage or a network. The format here is deliberately plain —
//! little-endian, length-prefixed, no alignment games — because the
//! *interesting* structure (parts, params, nesting) is the paper's
//! columnar view itself, serialised one-to-one (version 6):
//!
//! ```text
//! compressed := MAGIC u16-version form
//! form       := scheme_id dtype u64-n params parts
//! params     := u16-count { str-key i64-value }*
//! parts      := u16-count { str-role u8-kind payload }*
//! payload    := plain | bits | blocks | form | shared (by kind)
//! plain      := dtype u64-len { element }*
//! bits       := u8-width u64-len { u64-word }*         ⌈len·width/64⌉ words
//! blocks     := u64-len { u8-width }* { u64-word }*    ⌈len/128⌉ widths, then
//!                                                      Σ ⌈lenᵢ·widthᵢ/64⌉ words
//! shared     := u64-len                                the entries live outside
//! ```
//!
//! A `shared` payload is a reference to a dictionary stored once by the
//! frame's container ([`crate::shared`]): the frame holds only the
//! entry count it was encoded against, it reads back detached, and the
//! container attaches the dictionary
//! ([`Compressed::attach_shared`]). Every reader of a detached,
//! mis-sized or unsorted shared part fails with
//! [`CoreError::CorruptParts`].
//!
//! Both packed payloads store [`Packed::words`] as they are, in the one
//! layout of `lcdc_bitpack::pack`: the full 128-value blocks
//! interleaved across 16 lanes that run on from block to block, the
//! lanes' leftover bits packed densely, then the partial last block
//! contiguous. They differ only in their widths ([`Widths`]): `bits`
//! has one, `blocks` one per block. Each full block still costs
//! `2·width` words, so the word count above is the same in every
//! version.
//!
//! Every packed payload is stored packed — the frame costs what the size
//! model ([`Compressed::compressed_bytes`]) says plus headers, and
//! reading it re-packs nothing. Forms nest at most [`MAX_NESTING`] deep.
//! Older frames are rejected as an unsupported version, never read
//! under a guessed layout: version 1 stored block payloads unpacked,
//! version 2 stored `bits` words contiguously throughout, version 3
//! stored each `blocks` block's words contiguously, block after block,
//! and version 4 stored a `bits` payload's values past its last full
//! 1024-value group contiguously, where version 5 interleaves their
//! full blocks as a `blocks` payload does. Version 6 adds the `shared`
//! kind; version 5 is refused with the rest, so one reader never meets
//! a frame whose kinds it half knows.
//!
//! Strings are u16-length-prefixed UTF-8; columns are a dtype byte plus
//! u64-count plus raw little-endian words. Every reader validates
//! lengths and tags against the input before allocating and fails with
//! [`CoreError::CorruptParts`] (or the packing kernel's typed error)
//! rather than panicking — corrupted inputs are a test fixture here, not
//! a UB source.

use crate::column::{ColumnData, DType};
use crate::error::{CoreError, Result};
use crate::scheme::{Compressed, Params, Part, PartData};
use crate::shared::SharedRef;
use lcdc_bitpack::{Packed, Widths, BLOCK_LEN};

const MAGIC: &[u8; 4] = b"LCDC";
const VERSION: u16 = 6;

/// Deepest nesting of forms a frame may hold: the outermost form is
/// level 1. Candidate schemes nest at most 3 deep; the cap keeps a
/// hostile frame from recursing the reader off its stack.
pub const MAX_NESTING: usize = 8;

const KIND_PLAIN: u8 = 0;
const KIND_BITS: u8 = 1;
const KIND_BLOCKS: u8 = 2;
const KIND_NESTED: u8 = 3;
const KIND_SHARED: u8 = 4;

/// Serialise a compressed form to bytes.
pub fn to_bytes(c: &Compressed) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + c.compressed_bytes());
    out.extend_from_slice(MAGIC);
    write_u16(&mut out, VERSION);
    write_compressed(&mut out, c);
    out
}

/// Deserialise a compressed form from bytes.
pub fn from_bytes(bytes: &[u8]) -> Result<Compressed> {
    let mut r = Reader { rest: bytes };
    if r.take(4)? != MAGIC {
        return Err(CoreError::CorruptParts("bad magic".into()));
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(CoreError::CorruptParts(format!(
            "unsupported version {version}"
        )));
    }
    let c = read_compressed(&mut r, 1)?;
    if !r.rest.is_empty() {
        return Err(CoreError::CorruptParts(format!(
            "{} trailing bytes after compressed form",
            r.rest.len()
        )));
    }
    Ok(c)
}

fn write_compressed(out: &mut Vec<u8>, c: &Compressed) {
    write_str(out, &c.scheme_id);
    out.push(c.dtype.tag());
    write_u64(out, c.n as u64);
    write_u16(out, c.params.len() as u16);
    for (key, value) in c.params.iter() {
        write_str(out, key);
        write_u64(out, value as u64);
    }
    write_u16(out, c.parts.len() as u16);
    for part in &c.parts {
        write_str(out, part.role);
        match &part.data {
            PartData::Plain(col) => {
                out.push(KIND_PLAIN);
                write_column(out, col);
            }
            PartData::Packed(packed) => {
                match packed.widths() {
                    Widths::One(width) => {
                        out.push(KIND_BITS);
                        out.push(*width as u8);
                        write_u64(out, packed.len() as u64);
                    }
                    Widths::Blocks(widths) => {
                        out.push(KIND_BLOCKS);
                        write_u64(out, packed.len() as u64);
                        out.extend_from_slice(widths);
                    }
                }
                write_words(out, packed.words());
            }
            PartData::Nested(nested) => {
                out.push(KIND_NESTED);
                write_compressed(out, nested);
            }
            PartData::Shared(shared) => {
                out.push(KIND_SHARED);
                write_u64(out, shared.len as u64);
            }
        }
    }
}

/// Read one form at nesting level `depth` (1 = outermost).
fn read_compressed(r: &mut Reader<'_>, depth: usize) -> Result<Compressed> {
    if depth > MAX_NESTING {
        return Err(CoreError::CorruptParts(format!(
            "forms nested deeper than {MAX_NESTING}"
        )));
    }
    let scheme_id = r.string()?;
    let dtype = dtype_from_tag(r.u8()?)?;
    let n = r.u64()? as usize;
    let num_params = r.u16()? as usize;
    let mut params = Params::new();
    for _ in 0..num_params {
        let key = r.string()?;
        let value = r.u64()? as i64;
        params.set(intern_key(&key)?, value);
    }
    let num_parts = r.u16()? as usize;
    let mut parts = Vec::with_capacity(num_parts.min(64));
    for _ in 0..num_parts {
        let role = r.string()?;
        let role = intern_key(&role)?;
        let kind = r.u8()?;
        let data = match kind {
            KIND_PLAIN => PartData::Plain(read_column(r)?),
            KIND_BITS | KIND_BLOCKS => {
                // Each count is implied by what precedes it and checked
                // against the input by `take` before anything is
                // allocated; `from_raw_parts` rejects a width over 64.
                let (widths, len) = if kind == KIND_BITS {
                    let width = r.u8()? as u32;
                    (Widths::One(width), r.u64()? as usize)
                } else {
                    let len = r.u64()? as usize;
                    let widths = r.take(len.div_ceil(BLOCK_LEN))?;
                    (Widths::Blocks(widths.to_vec()), len)
                };
                let words = r.words(widths.words(len))?;
                PartData::Packed(Packed::from_raw_parts(widths, words, len)?)
            }
            KIND_NESTED => PartData::Nested(Box::new(read_compressed(r, depth + 1)?)),
            KIND_SHARED => PartData::Shared(SharedRef {
                len: r.u64()? as usize,
                dict: None,
            }),
            other => {
                return Err(CoreError::CorruptParts(format!(
                    "unknown part kind {other}"
                )))
            }
        };
        parts.push(Part { role, data });
    }
    Ok(Compressed {
        scheme_id,
        n,
        dtype,
        params,
        parts,
    })
}

/// Roles and parameter keys are `&'static str` in the in-memory form;
/// map deserialised strings back onto the crate's known set.
fn intern_key(s: &str) -> Result<&'static str> {
    const KNOWN: &[&str] = &[
        "values",
        "lengths",
        "positions",
        "deltas",
        "packed",
        "blocks",
        "dict",
        "codes",
        "refs",
        "offsets",
        "exc_positions",
        "exc_offsets",
        "exc_values",
        "bases",
        "slopes",
        "residuals",
        "c0",
        "c1",
        "c2",
        "l",
        "keep",
        "width",
        "zigzag",
        "first",
        "value",
        "w",
    ];
    KNOWN
        .iter()
        .find(|&&k| k == s)
        .copied()
        .ok_or_else(|| CoreError::CorruptParts(format!("unknown role/key {s:?}")))
}

fn dtype_from_tag(tag: u8) -> Result<DType> {
    DType::from_tag(tag).ok_or_else(|| CoreError::CorruptParts(format!("unknown dtype tag {tag}")))
}

fn write_column(out: &mut Vec<u8>, col: &ColumnData) {
    out.push(col.dtype().tag());
    write_u64(out, col.len() as u64);
    match col {
        ColumnData::U32(v) => write_le(out, v, |x| x.to_le_bytes()),
        ColumnData::U64(v) => write_words(out, v),
        ColumnData::I32(v) => write_le(out, v, |x| x.to_le_bytes()),
        ColumnData::I64(v) => write_le(out, v, |x| x.to_le_bytes()),
    }
}

fn read_column(r: &mut Reader<'_>) -> Result<ColumnData> {
    let dtype = dtype_from_tag(r.u8()?)?;
    let len = r.u64()? as usize;
    Ok(match dtype {
        DType::U32 => ColumnData::U32(r.elements(len, u32::from_le_bytes)?),
        DType::U64 => ColumnData::U64(r.words(len)?),
        DType::I32 => ColumnData::I32(r.elements(len, i32::from_le_bytes)?),
        DType::I64 => ColumnData::I64(r.elements(len, i64::from_le_bytes)?),
    })
}

fn write_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn write_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    write_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
}

fn write_words(out: &mut Vec<u8>, words: &[u64]) {
    write_le(out, words, |w| w.to_le_bytes());
}

/// Append `N`-byte little-endian elements in bulk: one reservation,
/// then fixed-size stores the compiler turns into a copy.
fn write_le<T: Copy, const N: usize>(out: &mut Vec<u8>, values: &[T], le: impl Fn(T) -> [u8; N]) {
    let start = out.len();
    out.resize(start + values.len() * N, 0);
    let (_, dst) = out.split_at_mut(start);
    for (dst, &v) in dst.as_chunks_mut::<N>().0.iter_mut().zip(values) {
        *dst = le(v);
    }
}

/// The unread rest of the input.
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let (head, rest) = self
            .rest
            .split_at_checked(n)
            .ok_or_else(|| CoreError::CorruptParts("truncated input".into()))?;
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let (head, rest) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or_else(|| CoreError::CorruptParts("truncated input".into()))?;
        self.rest = rest;
        Ok(*head)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// `n` little-endian `N`-byte elements; `n` is checked against the
    /// input before the vector is allocated.
    fn elements<T, const N: usize>(&mut self, n: usize, le: fn([u8; N]) -> T) -> Result<Vec<T>> {
        let len = n
            .checked_mul(N)
            .ok_or_else(|| CoreError::CorruptParts("length overflows".into()))?;
        let (chunks, _) = self.take(len)?.as_chunks::<N>();
        Ok(chunks.iter().map(|&b| le(b)).collect())
    }

    fn words(&mut self, n: usize) -> Result<Vec<u64>> {
        self.elements(n, u64::from_le_bytes)
    }

    fn string(&mut self) -> Result<String> {
        let len = self.u16()? as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| CoreError::CorruptParts("non-UTF-8 string".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::parse_scheme;
    use crate::shared::SharedDict;
    use std::sync::Arc;

    fn sample_exprs() -> Vec<&'static str> {
        vec![
            "id",
            "ns",
            "ns_zz",
            "delta",
            "rle[values=ns,lengths=ns]",
            "rpe[values=ns,positions=ns]",
            "dict[codes=ns]",
            "for(l=16)[offsets=ns]",
            "for(l=16,first=1)[offsets=ns_zz]",
            "pfor(l=16,keep=900)",
            "pstep(l=16)",
            "varwidth",
            "linear(l=16)[residuals=ns]",
            "poly2(l=16)[residuals=ns]",
            "rle[values=delta[deltas=ns_zz],lengths=ns]",
        ]
    }

    #[test]
    fn round_trips_every_scheme() {
        let col = ColumnData::U64((0..500u64).map(|i| 1000 + (i / 7) % 40).collect());
        for expr in sample_exprs() {
            let scheme = parse_scheme(expr).unwrap();
            let c = scheme.compress(&col).unwrap();
            let bytes = to_bytes(&c);
            let back = from_bytes(&bytes).unwrap_or_else(|e| panic!("{expr}: {e}"));
            assert_eq!(back, c, "{expr}");
            assert_eq!(scheme.decompress(&back).unwrap(), col, "{expr}");
        }
    }

    #[test]
    fn round_trips_every_dtype() {
        for col in [
            ColumnData::U32(vec![0, 1, u32::MAX]),
            ColumnData::U64(vec![u64::MAX, 0]),
            ColumnData::I32(vec![i32::MIN, -1, i32::MAX]),
            ColumnData::I64(vec![i64::MIN, 0, i64::MAX]),
        ] {
            let scheme = parse_scheme("id").unwrap();
            let c = scheme.compress(&col).unwrap();
            assert_eq!(from_bytes(&to_bytes(&c)).unwrap(), c);
        }
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let col = ColumnData::U32(vec![1, 2]);
        let c = parse_scheme("id").unwrap().compress(&col).unwrap();
        let mut bytes = to_bytes(&c);
        bytes[0] = b'X';
        assert!(from_bytes(&bytes).is_err());
        let mut bytes = to_bytes(&c);
        bytes[4] = 99;
        assert!(from_bytes(&bytes).is_err());
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let col = ColumnData::U64((0..100u64).collect());
        let c = parse_scheme("rle[values=ns,lengths=ns]")
            .unwrap()
            .compress(&col)
            .unwrap();
        let bytes = to_bytes(&c);
        // Any prefix must fail cleanly, never panic.
        for cut in 0..bytes.len() {
            assert!(from_bytes(&bytes[..cut]).is_err(), "prefix of {cut} bytes");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let col = ColumnData::U32(vec![5]);
        let c = parse_scheme("ns").unwrap().compress(&col).unwrap();
        let mut bytes = to_bytes(&c);
        bytes.push(0);
        assert!(from_bytes(&bytes).is_err());
    }

    #[test]
    fn rejects_unknown_tags() {
        let col = ColumnData::U32(vec![5]);
        let c = parse_scheme("id").unwrap().compress(&col).unwrap();
        let bytes = to_bytes(&c);
        // Flip the part-kind byte (last part is plain -> find it by
        // corrupting every byte and requiring no panics).
        for i in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0xFF;
            let _ = from_bytes(&corrupted); // must not panic
        }
    }

    #[test]
    fn deserialised_form_decompresses_after_corruption_check() {
        // End-to-end: serialise on one "node", deserialise on another,
        // decompress with a freshly parsed scheme.
        let col = ColumnData::I64((0..1000).map(|i| -500 + (i % 97)).collect());
        let expr = "for(l=64,first=1)[offsets=ns_zz]";
        let scheme = parse_scheme(expr).unwrap();
        let c = scheme.compress(&col).unwrap();
        let wire = to_bytes(&c);
        let received = from_bytes(&wire).unwrap();
        let other_node_scheme = parse_scheme(&received.scheme_id).unwrap();
        assert_eq!(other_node_scheme.decompress(&received).unwrap(), col);
    }

    /// A few column shapes with different winners: runs, steps, a
    /// trend, skewed sparse keys, narrow values with a wide tail, and
    /// wide noise.
    fn distributions(n: u64) -> Vec<ColumnData> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut noise = move |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        vec![
            ColumnData::U64((0..n).map(|i| 20_180_101 + i / 37).collect()),
            ColumnData::U64((0..n).map(|i| (i / 128) * 977_123 + noise(200)).collect()),
            ColumnData::U64((0..n).map(|i| 1_000 + i * 37 + noise(64)).collect()),
            ColumnData::U64((0..n).map(|_| (noise(32) * noise(32)) << 25).collect()),
            ColumnData::U64(
                (0..n)
                    .map(|i| noise(16) << if i >= n - n / 10 { 40 } else { 0 })
                    .collect(),
            ),
            ColumnData::U64((0..n).map(|_| noise(u64::MAX)).collect()),
        ]
    }

    /// Forms in a frame: the form itself and every nested one.
    fn forms(c: &Compressed) -> usize {
        1 + c
            .parts
            .iter()
            .map(|p| match &p.data {
                PartData::Nested(nested) => forms(nested),
                _ => 0,
            })
            .sum::<usize>()
    }

    #[test]
    fn wire_size_tracks_size_model() {
        // The frame is the size model the chooser minimises plus
        // headers: at most 256 bytes per form (scheme id, dtype, n,
        // counts, and per part a role, a kind and a length) — every
        // payload, block-packed ones included, is stored packed.
        const HEADER_ALLOWANCE: usize = 256;
        for col in distributions(10_000) {
            for expr in crate::chooser::default_candidates() {
                let Ok(c) = parse_scheme(expr).unwrap().compress(&col) else {
                    continue;
                };
                let (wire, model) = (to_bytes(&c).len(), c.compressed_bytes());
                assert!(
                    wire <= model + HEADER_ALLOWANCE * forms(&c),
                    "{expr}: wire {wire} vs model {model}"
                );
                assert!(
                    wire >= model - 8 * c.params.len(),
                    "{expr}: wire below payload"
                );
            }
        }
    }

    /// A `varwidth` frame over 300 values (three blocks at widths 6,
    /// 11 and 12, the last partial) and the offset of its blocks
    /// payload: `u64-len`, three width bytes, then the words.
    fn blocks_frame() -> (Vec<u8>, usize) {
        let col = ColumnData::U64((0..300u64).map(|i| i % 50 + (i / 128) * 1000).collect());
        let c = parse_scheme("varwidth").unwrap().compress(&col).unwrap();
        let bytes = to_bytes(&c);
        let role = bytes.windows(6).position(|w| w == b"blocks").unwrap();
        (bytes, role + 6 + 1)
    }

    #[test]
    fn blocks_words_are_lane_interleaved() {
        let (bytes, payload) = blocks_frame();
        let widths = payload + 8;
        assert_eq!(bytes[widths..widths + 3], [6, 11, 12]);
        let words: Vec<u64> = bytes[widths + 3..]
            .as_chunks::<8>()
            .0
            .iter()
            .map(|&w| u64::from_le_bytes(w))
            .collect();
        // 2·(6 + 11) words of lanes, then ⌈44·12/64⌉ of the partial block.
        assert_eq!(words.len(), 34 + 9);
        // Word 1 is lane 1's first: values 1, 17, 33, ... of block 0 at
        // 6 bits each, then block 1 (values 1000 + i % 50) from lane bit
        // 8·6 = 48. Its row 1 straddles into word 16 + 1, the same
        // lane's second word.
        let field = |word: u64, bit: u32, width: u32| (word >> bit) & ((1 << width) - 1);
        let block_0: Vec<u64> = (0..8).map(|r| field(words[1], 6 * r, 6)).collect();
        assert_eq!(block_0, [1, 17, 33, 49, 15, 31, 47, 13]);
        assert_eq!(field(words[1], 48, 11), 1000 + 129 % 50);
        assert_eq!(
            field(words[1], 59, 5) | field(words[17], 0, 6) << 5,
            1000 + 145 % 50
        );
        // The partial block starts at word 34, value 256 first.
        assert_eq!(field(words[34], 0, 12), 2000 + 256 % 50);
    }

    #[test]
    fn blocks_layout_mutations_are_typed_errors() {
        let (bytes, payload) = blocks_frame();
        assert_eq!(bytes[payload..payload + 8], 300u64.to_le_bytes());
        let widths = payload + 8;
        assert!(from_bytes(&bytes).is_ok());

        // A width past 64.
        let mut wide = bytes.clone();
        wide[widths] = 65;
        assert!(matches!(
            from_bytes(&wide),
            Err(CoreError::CorruptParts(_) | CoreError::Bits(_))
        ));

        // A narrower or wider width than the words that follow: the
        // implied word count no longer matches the rest of the frame.
        for delta in [-1i8, 1] {
            let mut shifted = bytes.clone();
            shifted[widths + 1] = shifted[widths + 1].wrapping_add_signed(delta);
            assert!(from_bytes(&shifted).is_err(), "width {delta:+}");
        }

        // Truncated widths, short words, long words.
        assert!(from_bytes(&bytes[..widths + 2]).is_err());
        assert!(from_bytes(&bytes[..bytes.len() - 8]).is_err());
        let mut long = bytes.clone();
        long.extend_from_slice(&[0; 8]);
        assert!(from_bytes(&long).is_err());

        // A length that calls for more widths than the input holds
        // fails on the bounds check, before any allocation.
        let mut huge = bytes.clone();
        huge[payload..payload + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(from_bytes(&huge), Err(CoreError::CorruptParts(_))));

        // Every prefix and every single-byte corruption: no panic.
        for cut in 0..bytes.len() {
            assert!(from_bytes(&bytes[..cut]).is_err(), "prefix of {cut} bytes");
        }
        for i in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0xFF;
            let _ = from_bytes(&corrupted);
        }
    }

    /// An `ns` frame over 1300 values at width 10 — one full group,
    /// two full blocks after it, then a 20-value partial block — and the
    /// offset of its bits payload: a width byte, `u64-len`, the words.
    fn bits_frame() -> (Vec<u8>, usize) {
        let col = ColumnData::U64((0..1300u64).map(|i| i * 7 % 1000).collect());
        let c = parse_scheme("ns").unwrap().compress(&col).unwrap();
        let bytes = to_bytes(&c);
        let role = bytes.windows(6).position(|w| w == b"packed").unwrap();
        (bytes, role + 6 + 1)
    }

    /// Read a frame and, if it reads, decode it every way a form can be
    /// read: only typed errors, never a panic.
    fn read_every_way(bytes: &[u8]) {
        let Ok(c) = from_bytes(bytes) else { return };
        let Ok(scheme) = parse_scheme(&c.scheme_id) else {
            return;
        };
        let _ = scheme.decompress(&c);
        let _ = scheme.stream(&c).map(|s| s.to_transport());
        for pos in [0, c.n / 2, c.n.saturating_sub(1)] {
            let _ = crate::access::value_at(&c, pos);
        }
    }

    #[test]
    fn bits_layout_mutations_are_typed_errors() {
        let (bytes, payload) = bits_frame();
        assert_eq!(bytes[payload], 10);
        assert_eq!(bytes[payload + 1..payload + 9], 1300u64.to_le_bytes());
        assert_eq!(
            bytes.len() - (payload + 9),
            8 * (1300 * 10usize).div_ceil(64)
        );
        assert!(from_bytes(&bytes).is_ok());

        // A narrower or wider width than the words that follow, and one
        // past 64: the implied word count no longer matches the frame.
        for width in [9, 11, 65, 255] {
            let mut shifted = bytes.clone();
            shifted[payload] = width;
            assert!(
                matches!(
                    from_bytes(&shifted),
                    Err(CoreError::CorruptParts(_) | CoreError::Bits(_))
                ),
                "width {width}"
            );
        }

        // A length that calls for more words than the input holds fails
        // on the bounds check, before any allocation.
        let mut huge = bytes.clone();
        huge[payload + 1..payload + 9].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(from_bytes(&huge), Err(CoreError::CorruptParts(_))));

        // Short words, long words.
        assert!(from_bytes(&bytes[..bytes.len() - 8]).is_err());
        let mut long = bytes.clone();
        long.extend_from_slice(&[0; 8]);
        assert!(from_bytes(&long).is_err());

        // Every prefix and every single-byte corruption: no panic.
        for cut in 0..bytes.len() {
            assert!(from_bytes(&bytes[..cut]).is_err(), "prefix of {cut} bytes");
        }
        for i in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0xFF;
            read_every_way(&corrupted);
        }

        // An `ns` form whose payload has per-block widths and a
        // `varwidth` form whose payload has one width: the frame reads,
        // and every reader of the form refuses the payload.
        let col = ColumnData::U64((0..1300u64).map(|i| i * 7 % 1000).collect());
        let values = col.to_transport();
        let wrong = [
            ("ns", Packed::pack_blocks(&values)),
            ("varwidth", Packed::pack(&values, 10).unwrap()),
        ];
        for (expr, packed) in wrong {
            let scheme = parse_scheme(expr).unwrap();
            let mut c = scheme.compress(&col).unwrap();
            c.parts[0].data = PartData::Packed(packed);
            let c = from_bytes(&to_bytes(&c)).unwrap();
            let corrupt = |e: CoreError| matches!(e, CoreError::CorruptParts(_));
            assert!(corrupt(scheme.decompress(&c).unwrap_err()), "{expr}");
            assert!(corrupt(scheme.stream(&c).err().unwrap()), "{expr}");
            assert!(
                corrupt(crate::access::value_at(&c, 5).unwrap_err()),
                "{expr}"
            );
        }
    }

    /// Stamp `version` on a bits frame and a blocks frame: each must be
    /// refused as that version, since every older version stored some
    /// payload in a layout this reader would misread, or (version 5)
    /// lacks a part kind this one writes (see the module docs).
    fn assert_version_rejected(version: u16) {
        for (frame, _) in [bits_frame(), blocks_frame()] {
            let mut bytes = frame;
            bytes[4..6].copy_from_slice(&version.to_le_bytes());
            match from_bytes(&bytes) {
                Err(CoreError::CorruptParts(msg)) => {
                    assert_eq!(msg, format!("unsupported version {version}"))
                }
                other => panic!("expected a version error, got {other:?}"),
            }
        }
    }

    #[test]
    fn version_one_frames_are_rejected() {
        assert_version_rejected(1);
    }

    #[test]
    fn version_two_frames_are_rejected() {
        assert_version_rejected(2);
    }

    #[test]
    fn version_three_frames_are_rejected() {
        assert_version_rejected(3);
    }

    #[test]
    fn older_versions_are_rejected() {
        for version in 4..VERSION {
            assert_version_rejected(version);
        }
    }

    /// The rows the shared-dictionary forms below encode.
    fn shared_rows() -> ColumnData {
        ColumnData::I64((0..300i64).map(|i| (i * 7) % 23 - 11).collect())
    }

    /// `codes` (`dict` or `dict[codes=ns]`) over [`shared_rows`], its
    /// dictionary moved out into a shared one and attached as `expr`
    /// (`dict[dict=shared...]`): what a store builds for a run.
    fn shared_form(expr: &str, codes: &str) -> (Compressed, Arc<SharedDict>) {
        let mut c = parse_scheme(codes)
            .unwrap()
            .compress(&shared_rows())
            .unwrap();
        let PartData::Plain(entries) = c.parts[0].data.clone() else {
            panic!("DICT stores its dictionary plain")
        };
        let dict = SharedDict::new(entries);
        c.parts[0].data = PartData::Shared(SharedRef::to(&dict));
        c.scheme_id = expr.to_string();
        let decoded = parse_scheme(expr).unwrap().decompress(&c).unwrap();
        assert_eq!(decoded, shared_rows(), "{expr}");
        (c, dict)
    }

    const SHARED_FORMS: [(&str, &str); 2] = [
        ("dict[dict=shared]", "dict"),
        ("dict[dict=shared,codes=ns]", "dict[codes=ns]"),
    ];

    #[test]
    fn a_shared_dictionary_is_a_reference_in_the_frame() {
        for (expr, codes) in SHARED_FORMS {
            let (c, dict) = shared_form(expr, codes);
            let own = parse_scheme(codes)
                .unwrap()
                .compress(&shared_rows())
                .unwrap();
            // The frame holds the entry count, not the dtype and entries.
            let bytes = to_bytes(&c);
            assert_eq!(
                bytes.len(),
                to_bytes(&own).len() - 1 - 8 * dict.len() + expr.len() - codes.len(),
                "{expr}"
            );
            let mut back = from_bytes(&bytes).unwrap();
            assert!(back.shared_dict().is_none(), "{expr}: reads back detached");
            back.attach_shared(&dict).unwrap();
            assert_eq!(back, c, "{expr}");
            // A dictionary of another length, and a form with no shared
            // part, refuse the attachment.
            let short = SharedDict::new(ColumnData::I64(vec![1]));
            let refused = |r: Result<()>| matches!(r, Err(CoreError::CorruptParts(_)));
            assert!(refused(from_bytes(&bytes).unwrap().attach_shared(&short)));
            assert!(refused(own.clone().attach_shared(&dict)));
        }
    }

    /// Every reader of `c` refuses it as a corrupt form; `value_at` too
    /// when `access` (a form with NS codes has no O(1) path to a code).
    fn assert_every_reader_refuses(c: &Compressed, expr: &str, access: bool, what: &str) {
        let scheme = parse_scheme(expr).unwrap();
        let corrupt = |e: CoreError| matches!(e, CoreError::CorruptParts(_));
        let last = c.n - 1;
        assert!(corrupt(scheme.decompress(c).unwrap_err()), "{expr} {what}");
        assert!(corrupt(scheme.stream(c).err().unwrap()), "{expr} {what}");
        let visited = scheme.visit(c, &mut |_| {}).unwrap_err();
        assert!(corrupt(visited), "{expr} {what}");
        if access {
            let accessed = crate::access::value_at(c, last).unwrap_err();
            assert!(corrupt(accessed), "{expr} {what}");
        }
    }

    #[test]
    fn shared_dictionary_mutations_are_typed_errors() {
        for (expr, codes) in SHARED_FORMS {
            let (c, dict) = shared_form(expr, codes);
            let with_dict = |entries: Vec<u64>| {
                let mut other = c.clone();
                let dict = SharedDict::new(ColumnData::from_transport(c.dtype, entries));
                other.parts[0].data = PartData::Shared(SharedRef::to(&dict));
                other
            };
            // No dictionary given: the frame as it reads back.
            let detached = from_bytes(&to_bytes(&c)).unwrap();
            assert_every_reader_refuses(&detached, expr, true, "not given");
            // An unsorted dictionary, and one holding a duplicate.
            let mut entries = dict.values().to_transport();
            entries.reverse();
            assert_every_reader_refuses(&with_dict(entries), expr, true, "unsorted");
            let mut entries = dict.values().to_transport();
            entries[1] = entries[0];
            assert_every_reader_refuses(&with_dict(entries), expr, true, "duplicate");
            // A code at the dictionary's length, in the last row.
            let mut raw = c.parts[1].data.clone();
            let mut past = c.clone();
            past.parts[1].data = match &mut raw {
                PartData::Plain(ColumnData::U64(codes)) => {
                    *codes.last_mut().unwrap() = dict.len() as u64;
                    raw
                }
                PartData::Nested(ns) => {
                    let mut codes = parse_scheme("ns")
                        .unwrap()
                        .decompress(ns)
                        .unwrap()
                        .to_transport();
                    *codes.last_mut().unwrap() = dict.len() as u64;
                    let ns = parse_scheme("ns")
                        .unwrap()
                        .compress(&ColumnData::U64(codes));
                    PartData::Nested(Box::new(ns.unwrap()))
                }
                other => panic!("{other:?}"),
            };
            assert_every_reader_refuses(&past, expr, codes == "dict", "code past the end");
        }
    }

    /// A frame of `depth` forms, each nested in the `values` part of
    /// the one before.
    fn nested_frame(depth: usize) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        write_u16(&mut out, VERSION);
        for level in 0..depth {
            write_str(&mut out, "id");
            out.push(DType::U64.tag());
            write_u64(&mut out, 0);
            write_u16(&mut out, 0);
            write_u16(&mut out, 1);
            write_str(&mut out, "values");
            if level + 1 < depth {
                out.push(KIND_NESTED);
            } else {
                out.push(KIND_PLAIN);
                write_column(&mut out, &ColumnData::U64(Vec::new()));
            }
        }
        out
    }

    #[test]
    fn nesting_is_capped() {
        assert!(from_bytes(&nested_frame(MAX_NESTING)).is_ok());
        assert!(matches!(
            from_bytes(&nested_frame(MAX_NESTING + 1)),
            Err(CoreError::CorruptParts(_))
        ));
        // The bomb: 200 000 nested forms in a 5 MB frame used to recurse
        // the reader off its stack.
        let bomb = nested_frame(200_000);
        assert!(matches!(from_bytes(&bomb), Err(CoreError::CorruptParts(_))));
    }
}
