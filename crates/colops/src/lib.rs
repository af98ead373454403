//! # lcdc-colops
//!
//! The columnar operator kernels of the paper's Algorithms 1 and 2 —
//! `PrefixSum`, `Scatter`, `Gather`, `Elementwise`, `Constant`, `PopBack` —
//! plus the selection/bitmap/segment operators a vectorised query engine
//! needs.
//!
//! The paper's first "lesson learned" is that *these very operators* both
//! execute queries and decompress columns: there is no separate
//! decompression machinery. Accordingly this crate is shared by
//! `lcdc-core` (which builds decompression plans out of these kernels) and
//! `lcdc-store` (which builds query execution out of them).
//!
//! All kernels are generic over [`Scalar`] (the fixed-width integer types
//! columnar DBMSes compress), bounds-checked, and return [`ColOpsError`]
//! rather than panicking on bad input.

#![forbid(unsafe_code)]

pub mod bitmap;
pub mod constant;
pub mod elementwise;
pub mod gather;
pub mod pop_back;
pub mod prefix_sum;
pub mod runs;
pub mod scalar;
pub mod scatter;
pub mod search;
pub mod segment;
pub mod select;

pub use bitmap::Bitmap;
pub use constant::constant;
pub use elementwise::{binary, binary_scalar, unary, BinOpKind};
pub use gather::gather;
pub use pop_back::pop_back;
pub use prefix_sum::{
    adjacent_diff_segmented, prefix_sum_exclusive, prefix_sum_inclusive, prefix_sum_segmented,
};
pub use runs::{runs_encode, runs_expand};
pub use scalar::{IndexScalar, Scalar};
pub use scatter::{scatter, scatter_into};
pub use search::{lower_bound, upper_bound};

/// Errors produced by columnar kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColOpsError {
    /// Two input columns that must align have different lengths.
    LengthMismatch {
        /// Length of the first operand.
        left: usize,
        /// Length of the second operand.
        right: usize,
    },
    /// An index column refers past the end of its target.
    IndexOutOfBounds {
        /// The offending index value.
        index: usize,
        /// The length of the indexed column.
        len: usize,
    },
    /// Division or remainder by zero in an elementwise kernel.
    DivisionByZero,
    /// An operation that requires a non-empty column received an empty one.
    EmptyInput(&'static str),
    /// An index value could not be represented (e.g. negative or too
    /// large for the platform).
    BadIndexValue,
}

impl std::fmt::Display for ColOpsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColOpsError::LengthMismatch { left, right } => {
                write!(f, "column length mismatch: {left} vs {right}")
            }
            ColOpsError::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for column of length {len}")
            }
            ColOpsError::DivisionByZero => write!(f, "division by zero"),
            ColOpsError::EmptyInput(op) => write!(f, "{op} requires a non-empty column"),
            ColOpsError::BadIndexValue => write!(f, "index value not representable as usize"),
        }
    }
}

impl std::error::Error for ColOpsError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ColOpsError>;
