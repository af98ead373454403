//! The one part reader: every part of a compressed form, whatever its
//! physical kind, read as a stream of unpacked chunks.
//!
//! Decompression is a single pass from the stored parts into the one
//! output allocation. A scheme's [`Scheme::decode`] asks [`Parts`] for
//! its big per-element part as a [`PartStream`] and for its small parts
//! (references, dictionary, run values) as columns, then fuses its own
//! operator — add-reference, gather, running sum — into the stream's
//! chunk callback, writing each output element once. A stream is backed
//! by a plain slice (a shared dictionary's too, borrowed through its
//! checked reference), a packed buffer, or — for a part compressed by an
//! inner scheme — whatever [`Scheme::stream`] of that scheme returns:
//! `ns` / `varwidth` hand out their packed payload (zigzag applied per
//! chunk), any other scheme decompresses first and streams the result.
//! So `outer[part=inner]` is fused for any outer × any streamable inner
//! without a special case per pair, and the intermediate column the
//! decompression DAG names is never materialised.

use crate::column::{ColumnData, DType};
use crate::error::{CoreError, Result};
use crate::scheme::{Compressed, PartData, Scheme};
use crate::{build_column, with_column};
use lcdc_bitpack::{zigzag_decode_i64, Packed, BLOCK_LEN};
use lcdc_colops::Scalar;
use std::borrow::Cow;

/// The parts of one compressed form, with the inner schemes that decode
/// its nested parts.
pub struct Parts<'a> {
    form: &'a Compressed,
    inner: &'a dyn Fn(&str) -> Option<&'a dyn Scheme>,
}

impl<'a> Parts<'a> {
    /// Read `form`, decoding a nested part with the scheme `inner`
    /// returns for its role.
    pub fn new(form: &'a Compressed, inner: &'a dyn Fn(&str) -> Option<&'a dyn Scheme>) -> Self {
        Parts { form, inner }
    }

    /// The compressed form being read (length, dtype, parameters).
    pub fn form(&self) -> &'a Compressed {
        self.form
    }

    /// Stream the part with the given role.
    pub fn stream(&self, role: &'static str) -> Result<PartStream<'a>> {
        match &self.form.part(role)?.data {
            PartData::Plain(_) | PartData::Shared(_) => Ok(PartStream::plain(Cow::Borrowed(
                self.form.plain_part(role)?,
            ))),
            PartData::Packed(packed) => Ok(PartStream::packed(packed, false, DType::U64)),
            PartData::Nested(nested) => (self.inner)(role)
                .ok_or_else(|| {
                    CoreError::CorruptParts(format!("nested part {role:?} has no inner scheme"))
                })?
                .stream(nested),
        }
    }

    /// The part with the given role as a plain column — borrowed when
    /// it is stored plain, unpacked or decompressed otherwise. For the
    /// small parts of a form, and for partial decompression.
    pub fn column(&self, role: &'static str) -> Result<Cow<'a, ColumnData>> {
        Ok(self.stream(role)?.into_column())
    }
}

/// Values per stack buffer when a stream converts chunks on the way out.
const CHUNK_LEN: usize = BLOCK_LEN;

/// A part column as an in-order stream of chunks in `u64` transport
/// form (see [`crate::column`]); the column itself need not exist.
pub struct PartStream<'a> {
    source: Source<'a>,
    /// Zigzag-decode packed values.
    zigzag: bool,
    /// Element type of the column being streamed.
    dtype: DType,
}

enum Source<'a> {
    Plain(Cow<'a, ColumnData>),
    Packed(&'a Packed),
}

impl<'a> PartStream<'a> {
    /// Stream a plain column.
    pub fn plain(col: Cow<'a, ColumnData>) -> Self {
        PartStream {
            zigzag: false,
            dtype: col.dtype(),
            source: Source::Plain(col),
        }
    }

    /// Stream an NS or VARWIDTH payload as the `dtype` column it
    /// encodes.
    pub fn packed(packed: &'a Packed, zigzag: bool, dtype: DType) -> Self {
        PartStream {
            source: Source::Packed(packed),
            zigzag,
            dtype,
        }
    }

    /// Number of values the stream yields.
    pub fn len(&self) -> usize {
        match &self.source {
            Source::Plain(col) => col.len(),
            Source::Packed(packed) => packed.len(),
        }
    }

    /// Whether the stream yields no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element type of the streamed column.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Hand the column to `f` in order, a chunk at a time, as transport
    /// values. Chunk sizes are the source's business (a whole plain
    /// `u64` column is one chunk; packed sources hand out stack buffers
    /// of at most a 1024-value group), so consumers track their own
    /// position.
    pub fn for_each_chunk(&self, mut f: impl FnMut(&[u64])) {
        match &self.source {
            Source::Plain(col) => match col.as_ref() {
                ColumnData::U64(v) => {
                    if !v.is_empty() {
                        f(v);
                    }
                }
                other => with_column!(other, |v| {
                    let mut buf = [0u64; CHUNK_LEN];
                    for chunk in v.chunks(CHUNK_LEN) {
                        for (slot, x) in buf.iter_mut().zip(chunk) {
                            *slot = x.to_u64();
                        }
                        f(&buf[..chunk.len()]);
                    }
                }),
            },
            Source::Packed(packed) => packed.for_each_chunk(|chunk| self.decoded(chunk, &mut f)),
        }
    }

    /// Pass a chunk of packed values on as transport values of the
    /// streamed column: zigzag-decoded, and narrowed to the column's
    /// type the way a round trip through the column would.
    fn decoded(&self, raw: &[u64], f: &mut impl FnMut(&[u64])) {
        let zz = |v| zigzag_decode_i64(v) as u64;
        match (self.dtype, self.zigzag) {
            (DType::U64 | DType::I64, false) => f(raw),
            (DType::U64 | DType::I64, true) => mapped(raw, f, zz),
            (DType::U32, false) => mapped(raw, f, |v| v as u32 as u64),
            (DType::U32, true) => mapped(raw, f, |v| zz(v) as u32 as u64),
            (DType::I32, false) => mapped(raw, f, |v| v as i32 as u64),
            (DType::I32, true) => mapped(raw, f, |v| zz(v) as i32 as u64),
        }
    }

    /// [`PartStream::for_each_chunk`] cut at multiples of `seg_len`
    /// (which must be non-zero): `f(seg, within, values)` receives
    /// values `seg * seg_len + within ..` of the column, never crossing
    /// into the next segment.
    pub fn for_each_in_segments(&self, seg_len: usize, mut f: impl FnMut(usize, usize, &[u64])) {
        let (mut seg, mut within) = (0, 0);
        self.for_each_chunk(|mut chunk| {
            while !chunk.is_empty() {
                let (piece, rest) = chunk.split_at(chunk.len().min(seg_len - within));
                f(seg, within, piece);
                within += piece.len();
                if within == seg_len {
                    (seg, within) = (seg + 1, 0);
                }
                chunk = rest;
            }
        });
    }

    /// The whole column in transport form.
    pub fn to_transport(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each_chunk(|chunk| out.extend_from_slice(chunk));
        out
    }

    /// The whole column — the one the stream was made from if there is
    /// one, built in a single pass otherwise.
    pub fn into_column(self) -> Cow<'a, ColumnData> {
        if let Source::Plain(col) = self.source {
            return col;
        }
        Cow::Owned(build_column!(self.dtype, self.len(), |out: Vec<T>| {
            self.for_each_chunk(|chunk| out.extend(chunk.iter().map(|&v| T::from_u64(v))))
        }))
    }
}

/// Hand `raw` to `f` through `map`, a stack buffer at a time.
fn mapped(raw: &[u64], f: &mut impl FnMut(&[u64]), mut map: impl FnMut(u64) -> u64) {
    let mut buf = [0u64; CHUNK_LEN];
    for chunk in raw.chunks(CHUNK_LEN) {
        for (slot, &v) in buf.iter_mut().zip(chunk) {
            *slot = map(v);
        }
        f(&buf[..chunk.len()]);
    }
}

/// Where a fused decoder writes the values it reconstructs: the one
/// reserved output column ([`Scheme::decode`]) or a visitor's chunk
/// callback ([`Scheme::visit`]). A fused scheme writes its operator
/// once, generic over this target, so decode and visit cannot diverge.
pub(crate) trait Emit {
    /// Make room for the `n` values the decoder validated it will emit.
    fn begin(&mut self, n: usize);

    /// Emit `op(v)` for every `v` of `piece`, in order, as transport
    /// values of the column being decoded.
    fn emit(&mut self, piece: &[u64], op: impl FnMut(u64) -> u64);
}

impl<T: Scalar> Emit for Vec<T> {
    fn begin(&mut self, n: usize) {
        self.reserve_exact(n);
    }

    #[inline]
    fn emit(&mut self, piece: &[u64], mut op: impl FnMut(u64) -> u64) {
        self.extend(piece.iter().map(|&v| T::from_u64(op(v))));
    }
}

/// A [`Scheme::visit`] callback as an [`Emit`] target: values go out a
/// stack buffer at a time, narrowed to `dtype` the way a round trip
/// through the decoded column would narrow them.
pub(crate) struct Visitor<'f> {
    f: &'f mut dyn FnMut(&[u64]),
    dtype: DType,
}

impl<'f> Visitor<'f> {
    /// Hand `dtype` values to `f`.
    pub(crate) fn new(f: &'f mut dyn FnMut(&[u64]), dtype: DType) -> Self {
        Visitor { f, dtype }
    }
}

impl Emit for Visitor<'_> {
    fn begin(&mut self, _n: usize) {}

    #[inline]
    fn emit(&mut self, piece: &[u64], mut op: impl FnMut(u64) -> u64) {
        let f = &mut self.f;
        match self.dtype {
            DType::U64 | DType::I64 => mapped(piece, f, op),
            DType::U32 => mapped(piece, f, |v| op(v) as u32 as u64),
            DType::I32 => mapped(piece, f, |v| op(v) as i32 as u64),
        }
    }
}
