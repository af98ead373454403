//! # lcdc-bitpack
//!
//! Arbitrary-bit-width integer packing — the kernel layer behind the
//! Null-Suppression (**NS**) compression scheme of the paper.
//!
//! NS "discards redundant bits": a column whose values all fit in `w` bits
//! is stored as a dense bit stream of `w`-bit fields. This crate provides:
//!
//! * [`width`] — bit-width measurement utilities (`bits_needed`,
//!   width histograms, percentile widths for patched schemes),
//! * [`zigzag`] — the standard signed↔unsigned mapping so deltas and
//!   residuals can be packed as narrow non-negative integers,
//! * [`pack`] — the one bit-packed container, [`Packed`], interleaved
//!   across 16 lanes, at one width for the whole column
//!   ([`Packed::pack`]) or at one width per 128-value block
//!   ([`Packed::pack_blocks`]),
//! * [`block`] — those widths ([`Widths`]): per-block widths are the
//!   backend of the paper's "variable-width offsets" generalisation of
//!   FOR (§II-B), and one width is the case where every block agrees.
//!
//! All kernels are pure, allocation-explicit, and panic-free: fallible
//! operations return [`Error`].

#![forbid(unsafe_code)]

pub mod block;
pub mod pack;
pub mod width;
pub mod zigzag;

pub use block::{Widths, BLOCK_LEN};
pub use pack::{Packed, GROUP_LEN};
pub use width::{
    bits_needed_u64, histogram_percentile, max_width, width_histogram, width_percentile,
};
pub use zigzag::{zigzag_decode_i64, zigzag_encode_i64};

/// Errors produced by packing kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Requested width is outside `0..=64`.
    WidthOutOfRange(u32),
    /// A value does not fit in the requested width.
    ValueTooWide {
        /// Index of the offending value in the input slice.
        index: usize,
        /// The value itself.
        value: u64,
        /// The width it was required to fit in.
        width: u32,
    },
    /// A packed buffer is inconsistent (wrong word count for its
    /// declared length/width) — indicates corruption.
    Corrupt(&'static str),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::WidthOutOfRange(w) => write!(f, "bit width {w} outside 0..=64"),
            Error::ValueTooWide {
                index,
                value,
                width,
            } => {
                write!(
                    f,
                    "value {value} at index {index} does not fit in {width} bits"
                )
            }
            Error::Corrupt(msg) => write!(f, "corrupt packed buffer: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;
