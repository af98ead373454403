//! Dynamically-typed plain columns.
//!
//! The paper's columnar view ("stripped bare of implementation-specific
//! adornments") treats a compressed form as a set of plain columns.
//! [`ColumnData`] is that plain column: a vector of one of the fixed-width
//! integer types lightweight schemes apply to.
//!
//! ## The `u64` transport convention
//!
//! Scheme internals and the plan interpreter move values through `u64`
//! *bit-preservingly* (signed types sign-extend). Wrapping arithmetic is
//! congruent modulo 2^width, so additive reconstruction (DELTA sums, FOR
//! `ref + offset`) performed in the transport domain and truncated back
//! is bit-exact — the interpreter needs only one numeric type.

use crate::error::{CoreError, Result};
use std::borrow::Cow;

/// Element type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// Unsigned 32-bit.
    U32,
    /// Unsigned 64-bit.
    U64,
    /// Signed 32-bit.
    I32,
    /// Signed 64-bit.
    I64,
}

impl DType {
    /// Size of one element in bytes.
    pub fn bytes(self) -> usize {
        match self {
            DType::U32 | DType::I32 => 4,
            DType::U64 | DType::I64 => 8,
        }
    }

    /// Bit width of the type.
    pub fn bits(self) -> u32 {
        self.bytes() as u32 * 8
    }

    /// Whether the type is signed.
    pub fn signed(self) -> bool {
        matches!(self, DType::I32 | DType::I64)
    }

    /// Type name as written in scheme expressions and reports.
    pub fn name(self) -> &'static str {
        match self {
            DType::U32 => "u32",
            DType::U64 => "u64",
            DType::I32 => "i32",
            DType::I64 => "i64",
        }
    }

    /// The one-byte tag frames, table manifests and wire messages
    /// store the type as.
    pub fn tag(self) -> u8 {
        match self {
            DType::U32 => 0,
            DType::U64 => 1,
            DType::I32 => 2,
            DType::I64 => 3,
        }
    }

    /// Inverse of [`DType::tag`]; `None` for a tag no type has.
    pub fn from_tag(tag: u8) -> Option<DType> {
        [DType::U32, DType::U64, DType::I32, DType::I64]
            .into_iter()
            .find(|d| d.tag() == tag)
    }
}

/// A plain, uncompressed column of one of the supported element types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnData {
    /// Unsigned 32-bit values.
    U32(Vec<u32>),
    /// Unsigned 64-bit values.
    U64(Vec<u64>),
    /// Signed 32-bit values.
    I32(Vec<i32>),
    /// Signed 64-bit values.
    I64(Vec<i64>),
}

/// Dispatch a generic expression over the typed payload of a column.
///
/// `with_column!(col, |slice| expr)` binds `slice` to the `&Vec<T>` of the
/// active variant and evaluates `expr` for each possible `T`.
#[macro_export]
macro_rules! with_column {
    ($col:expr, |$slice:ident| $body:expr) => {
        match $col {
            $crate::column::ColumnData::U32($slice) => $body,
            $crate::column::ColumnData::U64($slice) => $body,
            $crate::column::ColumnData::I32($slice) => $body,
            $crate::column::ColumnData::I64($slice) => $body,
        }
    };
}

/// Build a column of `dtype` in one allocation:
/// `build_column!(dtype, n, |out: Vec<T>| fill)` evaluates `fill` with
/// `T` naming the element type and `out` an empty `Vec<T>` reserved for
/// `n` elements, and wraps what `fill` pushed. Pushing exactly `n`
/// never reallocates and nothing is zeroed first — this is the single
/// output allocation of a decompression.
#[macro_export]
macro_rules! build_column {
    ($dtype:expr, $n:expr, |$out:ident: Vec<$T:ident>| $fill:expr) => {
        match $dtype {
            $crate::column::DType::U32 => {
                $crate::build_column!(@arm U32, u32, $n, $out, $T, $fill)
            }
            $crate::column::DType::U64 => {
                $crate::build_column!(@arm U64, u64, $n, $out, $T, $fill)
            }
            $crate::column::DType::I32 => {
                $crate::build_column!(@arm I32, i32, $n, $out, $T, $fill)
            }
            $crate::column::DType::I64 => {
                $crate::build_column!(@arm I64, i64, $n, $out, $T, $fill)
            }
        }
    };
    (@arm $variant:ident, $ty:ty, $n:expr, $out:ident, $T:ident, $fill:expr) => {{
        #[allow(dead_code)]
        type $T = $ty;
        let mut $out: Vec<$ty> = Vec::with_capacity($n);
        $fill;
        $crate::column::ColumnData::$variant($out)
    }};
}

impl ColumnData {
    /// Number of elements.
    pub fn len(&self) -> usize {
        with_column!(self, |v| v.len())
    }

    /// Whether the column has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The element type.
    pub fn dtype(&self) -> DType {
        match self {
            ColumnData::U32(_) => DType::U32,
            ColumnData::U64(_) => DType::U64,
            ColumnData::I32(_) => DType::I32,
            ColumnData::I64(_) => DType::I64,
        }
    }

    /// Size of the plain representation in bytes.
    pub fn uncompressed_bytes(&self) -> usize {
        self.len() * self.dtype().bytes()
    }

    /// An empty column of the given type.
    pub fn empty(dtype: DType) -> Self {
        match dtype {
            DType::U32 => ColumnData::U32(Vec::new()),
            DType::U64 => ColumnData::U64(Vec::new()),
            DType::I32 => ColumnData::I32(Vec::new()),
            DType::I64 => ColumnData::I64(Vec::new()),
        }
    }

    /// Bit-preserving transport of element `i` to `u64` (signed types
    /// sign-extend). `None` out of bounds.
    pub fn get_transport(&self, i: usize) -> Option<u64> {
        match self {
            ColumnData::U32(v) => v.get(i).map(|&x| x as u64),
            ColumnData::U64(v) => v.get(i).copied(),
            ColumnData::I32(v) => v.get(i).map(|&x| x as i64 as u64),
            ColumnData::I64(v) => v.get(i).map(|&x| x as u64),
        }
    }

    /// Numeric value of element `i` widened to `i128` (exact for every
    /// supported type). `None` out of bounds.
    pub fn get_numeric(&self, i: usize) -> Option<i128> {
        match self {
            ColumnData::U32(v) => v.get(i).map(|&x| x as i128),
            ColumnData::U64(v) => v.get(i).map(|&x| x as i128),
            ColumnData::I32(v) => v.get(i).map(|&x| x as i128),
            ColumnData::I64(v) => v.get(i).map(|&x| x as i128),
        }
    }

    /// Whole column in `u64` transport form.
    pub fn to_transport(&self) -> Vec<u64> {
        self.as_transport().into_owned()
    }

    /// Whole column in `u64` transport form, borrowed when the column
    /// already is `U64` (what part columns — codes, lengths, positions —
    /// decode to), converted otherwise.
    pub fn as_transport(&self) -> Cow<'_, [u64]> {
        match self {
            ColumnData::U32(v) => v.iter().map(|&x| x as u64).collect(),
            ColumnData::U64(v) => Cow::Borrowed(v),
            ColumnData::I32(v) => v.iter().map(|&x| x as i64 as u64).collect(),
            ColumnData::I64(v) => v.iter().map(|&x| x as u64).collect(),
        }
    }

    /// The values of a `u64` column — what positions, lengths, codes
    /// and packed offsets are stored as — or a corruption error naming
    /// `what` for any other type.
    pub fn expect_u64(&self, what: &str) -> Result<&[u64]> {
        match self {
            ColumnData::U64(v) => Ok(v),
            other => Err(CoreError::CorruptParts(format!(
                "{what} must be u64, found {}",
                other.dtype().name()
            ))),
        }
    }

    /// Rebuild a column of type `dtype` from transport values
    /// (inverse of [`ColumnData::to_transport`]; truncates high bits for
    /// 32-bit types, which is exact for values produced by transport).
    pub fn from_transport(dtype: DType, values: Vec<u64>) -> Self {
        match dtype {
            DType::U32 => ColumnData::U32(values.into_iter().map(|v| v as u32).collect()),
            DType::U64 => ColumnData::U64(values),
            DType::I32 => ColumnData::I32(values.into_iter().map(|v| v as i32).collect()),
            DType::I64 => ColumnData::I64(values.into_iter().map(|v| v as i64).collect()),
        }
    }

    /// Numeric minimum and maximum, or `None` for an empty column.
    pub fn min_max_numeric(&self) -> Option<(i128, i128)> {
        fn mm<T: Copy + Ord + Into<i128>>(v: &[T]) -> Option<(i128, i128)> {
            let mut iter = v.iter();
            let &first = iter.next()?;
            let (mut lo, mut hi) = (first, first);
            for &x in iter {
                lo = lo.min(x);
                hi = hi.max(x);
            }
            Some((lo.into(), hi.into()))
        }
        match self {
            ColumnData::U32(v) => mm(v),
            ColumnData::U64(v) => {
                let mut iter = v.iter();
                let &first = iter.next()?;
                let (mut lo, mut hi) = (first, first);
                for &x in iter {
                    lo = lo.min(x);
                    hi = hi.max(x);
                }
                Some((lo as i128, hi as i128))
            }
            ColumnData::I32(v) => mm(v),
            ColumnData::I64(v) => mm(v),
        }
    }

    /// Build a column of type `dtype` from exact numeric values, failing
    /// if any value is out of the type's range.
    pub fn from_numeric(dtype: DType, values: &[i128]) -> Result<Self> {
        for &v in values {
            Self::check_fits(dtype, v)?;
        }
        Ok(match dtype {
            DType::U32 => ColumnData::U32(values.iter().map(|&v| v as u32).collect()),
            DType::U64 => ColumnData::U64(values.iter().map(|&v| v as u64).collect()),
            DType::I32 => ColumnData::I32(values.iter().map(|&v| v as i32).collect()),
            DType::I64 => ColumnData::I64(values.iter().map(|&v| v as i64).collect()),
        })
    }

    /// Whole column as exact numeric values.
    pub fn to_numeric(&self) -> Vec<i128> {
        (0..self.len())
            .map(|i| self.get_numeric(i).expect("in range"))
            .collect()
    }

    /// Check that a numeric value fits the column's element type.
    pub fn check_fits(dtype: DType, v: i128) -> Result<()> {
        let ok = match dtype {
            DType::U32 => (0..=u32::MAX as i128).contains(&v),
            DType::U64 => (0..=u64::MAX as i128).contains(&v),
            DType::I32 => (i32::MIN as i128..=i32::MAX as i128).contains(&v),
            DType::I64 => (i64::MIN as i128..=i64::MAX as i128).contains(&v),
        };
        if ok {
            Ok(())
        } else {
            Err(CoreError::NotRepresentable(format!(
                "value {v} outside the range of {}",
                dtype.name()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn len_and_dtype() {
        let c = ColumnData::I32(vec![-1, 2, 3]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.dtype(), DType::I32);
        assert_eq!(c.uncompressed_bytes(), 12);
        assert!(!c.is_empty());
        assert!(ColumnData::empty(DType::U64).is_empty());
    }

    #[test]
    fn transport_is_bit_preserving() {
        let c = ColumnData::I32(vec![-1, i32::MIN, i32::MAX]);
        let t = c.to_transport();
        assert_eq!(t[0], u64::MAX); // sign-extended
        let back = ColumnData::from_transport(DType::I32, t);
        assert_eq!(back, c);
    }

    #[test]
    fn as_transport_borrows_only_u64() {
        let plain = ColumnData::U64(vec![3, u64::MAX]);
        assert!(matches!(plain.as_transport(), Cow::Borrowed(_)));
        let signed = ColumnData::I32(vec![-1, 2]);
        assert!(matches!(signed.as_transport(), Cow::Owned(_)));
        assert_eq!(*signed.as_transport(), signed.to_transport()[..]);
    }

    #[test]
    fn transport_round_trips_every_type() {
        let cols = [
            ColumnData::U32(vec![0, 1, u32::MAX]),
            ColumnData::U64(vec![0, u64::MAX]),
            ColumnData::I32(vec![i32::MIN, -1, 0, i32::MAX]),
            ColumnData::I64(vec![i64::MIN, -1, 0, i64::MAX]),
        ];
        for c in cols {
            let back = ColumnData::from_transport(c.dtype(), c.to_transport());
            assert_eq!(back, c);
        }
    }

    #[test]
    fn numeric_min_max() {
        assert_eq!(
            ColumnData::I64(vec![3, -7, 5]).min_max_numeric(),
            Some((-7, 5))
        );
        assert_eq!(
            ColumnData::U64(vec![u64::MAX, 1]).min_max_numeric(),
            Some((1, u64::MAX as i128))
        );
        assert_eq!(ColumnData::U32(vec![]).min_max_numeric(), None);
    }

    #[test]
    fn get_accessors() {
        let c = ColumnData::I64(vec![-9, 4]);
        assert_eq!(c.get_numeric(0), Some(-9));
        assert_eq!(c.get_transport(0), Some((-9i64) as u64));
        assert_eq!(c.get_numeric(2), None);
    }

    #[test]
    fn fits_checks() {
        assert!(ColumnData::check_fits(DType::U32, u32::MAX as i128).is_ok());
        assert!(ColumnData::check_fits(DType::U32, -1).is_err());
        assert!(ColumnData::check_fits(DType::I32, i32::MAX as i128 + 1).is_err());
        assert!(ColumnData::check_fits(DType::U64, u64::MAX as i128).is_ok());
        assert!(ColumnData::check_fits(DType::I64, i128::MAX).is_err());
    }

    #[test]
    fn dtype_metadata() {
        assert_eq!(DType::U32.bytes(), 4);
        assert_eq!(DType::I64.bits(), 64);
        assert!(DType::I32.signed());
        assert!(!DType::U64.signed());
        assert_eq!(DType::U64.name(), "u64");
    }
}
