//! Parts stored once and shared by handle: a run's dictionary.
//!
//! DICT's decode is `Gather(dict, codes)` (paper, Lessons 1): the
//! dictionary is just a part. When many forms of one column gather from
//! the same sorted dictionary, that part is stored once, outside every
//! form, and each form holds a [`SharedRef`] to it — composition with
//! sharing. A form says so in its expression (`dict[dict=shared,...]`,
//! the [`Shared`] leaf), its frame stores only the reference's length
//! ([`crate::bytes`]), and the container that stores the dictionary
//! attaches it to every form that references it
//! ([`crate::Compressed::attach_shared`]).
//!
//! Every reader of a shared part goes through [`SharedRef::column`],
//! which refuses a reference with no dictionary attached, a dictionary
//! of another length than the form expects, and one that is not
//! strictly increasing (unsorted, or holding a duplicate) — each a
//! [`CoreError::CorruptParts`], never a panic.

use crate::column::ColumnData;
use crate::error::{CoreError, Result};
use crate::parts::Parts;
use crate::scheme::{Compressed, Scheme};
use crate::with_column;
use std::sync::Arc;

/// A sorted dictionary shared by handle between the forms of a column.
/// Whether its entries strictly increase is checked once, here; a
/// reader refuses an unsorted one ([`SharedRef::column`]).
#[derive(Debug, PartialEq)]
pub struct SharedDict {
    values: ColumnData,
    sorted: bool,
}

impl SharedDict {
    /// Wrap `values` for sharing.
    pub fn new(values: ColumnData) -> Arc<SharedDict> {
        let sorted = with_column!(&values, |v| v.windows(2).all(|w| w[0] < w[1]));
        Arc::new(SharedDict { values, sorted })
    }

    /// The entries, in code order.
    pub fn values(&self) -> &ColumnData {
        &self.values
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the dictionary has no entries.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Whether the entries strictly increase: sorted and distinct, as
    /// a dictionary must be for its codes to be order-preserving.
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }
}

/// A form's reference to a [`SharedDict`]: the entry count the form
/// was encoded against, and the dictionary once attached.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedRef {
    /// Entries the form expects the dictionary to hold.
    pub len: usize,
    /// The dictionary, once the container attached it.
    pub dict: Option<Arc<SharedDict>>,
}

impl SharedRef {
    /// A reference to `dict`, attached.
    pub fn to(dict: &Arc<SharedDict>) -> SharedRef {
        SharedRef {
            len: dict.len(),
            dict: Some(Arc::clone(dict)),
        }
    }

    /// The attached dictionary's entries, checked to be there, of the
    /// expected length, and strictly increasing.
    pub fn column(&self) -> Result<&ColumnData> {
        let dict = self.dict.as_ref().ok_or_else(|| {
            CoreError::CorruptParts(format!(
                "a shared dictionary of {} entries was referenced but not given",
                self.len
            ))
        })?;
        if dict.len() != self.len {
            return Err(CoreError::CorruptParts(format!(
                "shared dictionary holds {} entries, the form expects {}",
                dict.len(),
                self.len
            )));
        }
        if !dict.is_sorted() {
            return Err(CoreError::CorruptParts(
                "shared dictionary is not strictly increasing".into(),
            ));
        }
        Ok(dict.values())
    }
}

/// The expression leaf `shared`: the part with this role is a
/// [`SharedRef`], stored once by the form's container. It is never
/// compressed per form (the container builds it across forms) and never
/// decoded as a form of its own (readers take the column by reference),
/// so both are errors.
#[derive(Debug, Clone, Copy, Default)]
pub struct Shared;

impl Scheme for Shared {
    fn name(&self) -> String {
        "shared".to_string()
    }

    fn compress(&self, _col: &ColumnData) -> Result<Compressed> {
        Err(CoreError::NotRepresentable(
            "a shared part is built once by its container, not per form".into(),
        ))
    }

    fn decode(&self, _parts: &Parts<'_>) -> Result<ColumnData> {
        Err(CoreError::CorruptParts(
            "a shared part is read by reference, not decoded as a form".into(),
        ))
    }

    /// Never representable per form (see [`Shared::compress`]).
    fn floor(&self, _stats: &crate::stats::ColumnStats) -> Option<usize> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sortedness_is_checked_in_native_order() {
        assert!(SharedDict::new(ColumnData::I64(vec![-5, 0, 7])).is_sorted());
        assert!(!SharedDict::new(ColumnData::I64(vec![0, -5])).is_sorted());
        assert!(!SharedDict::new(ColumnData::U32(vec![1, 1])).is_sorted());
        assert!(SharedDict::new(ColumnData::U64(vec![])).is_sorted());
    }

    #[test]
    fn a_reference_reads_only_a_fitting_sorted_dictionary() {
        let dict = SharedDict::new(ColumnData::U64(vec![3, 9]));
        assert_eq!(SharedRef::to(&dict).column().unwrap(), dict.values());
        let corrupt = |r: SharedRef| matches!(r.column(), Err(CoreError::CorruptParts(_)));
        assert!(corrupt(SharedRef { len: 2, dict: None }));
        assert!(corrupt(SharedRef {
            len: 3,
            dict: Some(Arc::clone(&dict))
        }));
        assert!(corrupt(SharedRef::to(&SharedDict::new(ColumnData::U64(
            vec![9, 3]
        )))));
    }
}
