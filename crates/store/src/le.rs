//! Little-endian primitives shared by the store's two byte formats: the
//! table files (`file.rs`) and the wire protocol (`server/protocol.rs`).
//!
//! One set of writers and one bounds-checked [`Cursor`]. A string's
//! length prefix is a `u16` in the table files and a `u32` on the wire,
//! so each width has its own pair of methods.

use crate::{Result, StoreError};

pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_i128(out: &mut Vec<u8>, v: i128) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// An optional `i128` as a presence byte (0 or 1) and the value (0 when
/// absent): a fixed 17 bytes either way.
pub(crate) fn put_opt_i128(out: &mut Vec<u8>, v: Option<i128>) {
    out.push(u8::from(v.is_some()));
    put_i128(out, v.unwrap_or(0));
}

/// A string behind a `u16` byte-length prefix (table files).
pub(crate) fn put_str16(out: &mut Vec<u8>, s: &str) {
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
}

/// A string behind a `u32` byte-length prefix (wire frames).
pub(crate) fn put_str32(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked reader over untrusted bytes: every read fails with
/// [`StoreError::CorruptFile`], naming the offset, instead of panicking
/// when the bytes are shorter than their lengths claim.
pub(crate) struct Cursor<'a> {
    rest: &'a [u8],
    len: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor {
            rest: bytes,
            len: bytes.len(),
        }
    }

    /// The unread rest of the input.
    pub(crate) fn rest(&self) -> &'a [u8] {
        self.rest
    }

    fn truncated(&self, wanted: usize) -> StoreError {
        StoreError::CorruptFile(format!(
            "truncated: {wanted} bytes wanted at offset {} of {}",
            self.len - self.rest.len(),
            self.len
        ))
    }

    /// The next `n` bytes, borrowed.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let (head, rest) = self
            .rest
            .split_at_checked(n)
            .ok_or_else(|| self.truncated(n))?;
        self.rest = rest;
        Ok(head)
    }

    pub(crate) fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let (head, rest) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or_else(|| self.truncated(N))?;
        self.rest = rest;
        Ok(*head)
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    pub(crate) fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    pub(crate) fn i128(&mut self) -> Result<i128> {
        Ok(i128::from_le_bytes(self.array()?))
    }

    /// An optional value written by [`put_opt_i128`]; any other
    /// presence byte, or a value beside an absent one, is corrupt.
    pub(crate) fn opt_i128(&mut self) -> Result<Option<i128>> {
        match (self.u8()?, self.i128()?) {
            (0, 0) => Ok(None),
            (1, v) => Ok(Some(v)),
            (flag, _) => Err(StoreError::CorruptFile(format!(
                "bad optional value (presence byte {flag})"
            ))),
        }
    }

    /// A string written by [`put_str16`].
    pub(crate) fn str16(&mut self) -> Result<String> {
        let len = self.u16()?;
        self.str(len.into())
    }

    /// A string written by [`put_str32`].
    pub(crate) fn str32(&mut self) -> Result<String> {
        let len = self.u32()?;
        self.str(len as usize)
    }

    fn str(&mut self, len: usize) -> Result<String> {
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| StoreError::CorruptFile("string is not UTF-8".into()))
    }

    /// Every byte must have been read: trailing bytes mean the writer
    /// and reader disagree about the encoding.
    pub(crate) fn finish(self) -> Result<()> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(StoreError::CorruptFile(format!("{n} trailing bytes"))),
        }
    }
}
