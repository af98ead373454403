//! SPARSE — a constant model plus L0-metric patches (paper §II-B).
//!
//! The paper proposes enriching model-based schemes via the L0 metric,
//! `d(x⃗, y⃗) = |{i < n | xᵢ ≠ yᵢ}|`: "we could add patches to the basic
//! model; this would represent columns whose data is 'really' a step
//! function, but with the occasional divergent arbitrary-value element."
//! SPARSE instantiates that recipe with the *simplest* model of all —
//! a constant ([`super::Const`]): the compressed form is the single
//! dominant value plus an exception list of `(position, value)` pairs
//! for every element that diverges.
//!
//! It captures all columns that are L0-close to a constant — default-
//! heavy columns (unset flags, zero quantities, a dominant status code),
//! exactly the shape the DBMS literature calls *sparse* data. Unlike
//! [`super::Const`] it is **total**: any column compresses (in the worst
//! case everything is an exception), making the ratio/ease trade
//! continuous rather than all-or-nothing.

use crate::column::ColumnData;
use crate::error::{CoreError, Result};
use crate::parts::Parts;
use crate::plan::{Node, Plan};
use crate::scheme::{Compressed, Params, Part, PartData, Scheme};
use crate::stats::ColumnStats;
use std::collections::HashMap;

/// The constant-plus-exceptions scheme.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sparse;

/// Role of the single-element base-value part (empty for an empty
/// column).
pub const ROLE_VALUE: &str = "value";
/// Role of the sorted exception-position part (u64 row indices).
pub const ROLE_EXC_POSITIONS: &str = "exc_positions";
/// Role of the exception-value part (original element type).
pub const ROLE_EXC_VALUES: &str = "exc_values";

impl Scheme for Sparse {
    fn name(&self) -> String {
        "sparse".to_string()
    }

    fn compress(&self, col: &ColumnData) -> Result<Compressed> {
        let transport = col.to_transport();
        let base = mode_transport(&transport);
        let (positions, exc_values): (Vec<u64>, Vec<u64>) = transport
            .iter()
            .enumerate()
            .filter(|&(_, &v)| Some(v) != base)
            .map(|(i, &v)| (i as u64, v))
            .unzip();
        let value_part = match base {
            Some(v) => ColumnData::from_transport(col.dtype(), vec![v]),
            None => ColumnData::empty(col.dtype()),
        };
        Ok(Compressed {
            scheme_id: self.name(),
            n: col.len(),
            dtype: col.dtype(),
            params: Params::new(),
            parts: vec![
                Part {
                    role: ROLE_VALUE,
                    data: PartData::Plain(value_part),
                },
                Part {
                    role: ROLE_EXC_POSITIONS,
                    data: PartData::Plain(ColumnData::U64(positions)),
                },
                Part {
                    role: ROLE_EXC_VALUES,
                    data: PartData::Plain(ColumnData::from_transport(col.dtype(), exc_values)),
                },
            ],
        })
    }

    fn decode(&self, parts: &Parts<'_>) -> Result<ColumnData> {
        let c = parts.form();
        if c.n == 0 {
            return Ok(ColumnData::empty(c.dtype));
        }
        let base = base_value(parts.column(ROLE_VALUE)?.as_ref())?;
        let positions = parts.column(ROLE_EXC_POSITIONS)?;
        let positions = positions.expect_u64("exception positions")?;
        let exc_values = parts.column(ROLE_EXC_VALUES)?;
        let exc_values = exc_values.as_transport();
        validate_exceptions(positions, &exc_values, c.n)?;
        let mut out = lcdc_colops::constant(base, c.n);
        lcdc_colops::scatter_into(&exc_values, positions, &mut out)?;
        Ok(ColumnData::from_transport(c.dtype, out))
    }

    /// `Constant` then `ScatterOver` — the patch-application step shared
    /// with the other L0-metric schemes (pstep, pfor).
    fn plan(&self, c: &Compressed) -> Result<Plan> {
        if c.n == 0 {
            return Plan::new(vec![Node::Const { value: 0, len: 0 }], 0);
        }
        let base = base_value(c.plain_part(ROLE_VALUE)?)?;
        // Parts order: 0 = value, 1 = exc_positions, 2 = exc_values.
        Plan::new(
            vec![
                Node::Const {
                    value: base,
                    len: c.n,
                }, // %0 model
                Node::Part(2), // %1 patch values
                Node::Part(1), // %2 patch positions
                Node::ScatterOver {
                    base: 0,
                    src: 1,
                    positions: 2,
                }, // %3
            ],
            3,
        )
    }

    /// Every value but the base is an exception; every run boundary has
    /// an exception on at least one side, and one exception touches at
    /// most two boundaries.
    fn floor(&self, stats: &ColumnStats) -> Option<usize> {
        let exceptions = (stats.runs / 2).max(stats.distinct.saturating_sub(1));
        let b = stats.dtype.bytes();
        Some(stats.n.min(1) * b + exceptions * (8 + b))
    }
}

/// The model value of a non-empty form, from its `value` part.
fn base_value(value: &ColumnData) -> Result<u64> {
    value.get_transport(0).ok_or_else(|| {
        CoreError::CorruptParts("non-empty sparse form with empty value part".into())
    })
}

/// O(log e) positional access: binary-search the exception positions,
/// fall back to the base value.
pub fn value_at(c: &Compressed, pos: u64) -> Result<u64> {
    c.check_scheme("sparse")?;
    if pos >= c.n as u64 {
        return Err(CoreError::ColOps(
            lcdc_colops::ColOpsError::IndexOutOfBounds {
                index: pos as usize,
                len: c.n,
            },
        ));
    }
    let positions = exc_positions(c)?;
    match positions.binary_search(&pos) {
        Ok(idx) => c
            .plain_part(ROLE_EXC_VALUES)?
            .get_transport(idx)
            .ok_or_else(|| CoreError::CorruptParts("exception index past exception values".into())),
        Err(_) => base_value(c.plain_part(ROLE_VALUE)?),
    }
}

/// The most frequent transport value, or `None` for an empty column.
/// Ties break toward the smallest transport value, keeping compression
/// deterministic.
fn mode_transport(transport: &[u64]) -> Option<u64> {
    let mut counts: HashMap<u64, usize> = HashMap::with_capacity(64);
    for &v in transport {
        *counts.entry(v).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .max_by(|(va, ca), (vb, cb)| ca.cmp(cb).then(vb.cmp(va)))
        .map(|(v, _)| v)
}

fn exc_positions(c: &Compressed) -> Result<&[u64]> {
    c.plain_part(ROLE_EXC_POSITIONS)?
        .expect_u64("exception positions")
}

fn validate_exceptions(positions: &[u64], values: &[u64], n: usize) -> Result<()> {
    if positions.len() != values.len() {
        return Err(CoreError::CorruptParts(format!(
            "{} exception positions but {} exception values",
            positions.len(),
            values.len()
        )));
    }
    if positions.windows(2).any(|w| w[0] >= w[1]) {
        return Err(CoreError::CorruptParts(
            "exception positions not strictly increasing".into(),
        ));
    }
    if let Some(&last) = positions.last() {
        if last >= n as u64 {
            return Err(CoreError::CorruptParts(format!(
                "exception position {last} past column length {n}"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::DType;
    use crate::scheme::decompress_via_plan;

    fn sparse_col() -> ColumnData {
        let mut v = vec![0i64; 1000];
        v[17] = -5;
        v[400] = 99;
        v[999] = 1;
        ColumnData::I64(v)
    }

    #[test]
    fn round_trip_sparse() {
        let col = sparse_col();
        let c = Sparse.compress(&col).unwrap();
        assert_eq!(Sparse.decompress(&c).unwrap(), col);
        assert_eq!(decompress_via_plan(&Sparse, &c).unwrap(), col);
        assert!(c.ratio().unwrap() > 100.0, "ratio {:?}", c.ratio());
    }

    #[test]
    fn total_on_all_distinct() {
        // Worst case: every element an exception except the mode.
        let col = ColumnData::U32(vec![4, 1, 2, 3]);
        let c = Sparse.compress(&col).unwrap();
        assert_eq!(c.part(ROLE_EXC_POSITIONS).unwrap().data.len(), 3);
        assert_eq!(Sparse.decompress(&c).unwrap(), col);
    }

    #[test]
    fn deterministic_mode_tie_break() {
        let col = ColumnData::U32(vec![7, 3, 7, 3]);
        let c = Sparse.compress(&col).unwrap();
        // Ties break toward the smaller value: base = 3.
        assert_eq!(c.plain_part(ROLE_VALUE).unwrap(), &ColumnData::U32(vec![3]));
        assert_eq!(Sparse.decompress(&c).unwrap(), col);
    }

    #[test]
    fn empty_and_single() {
        for col in [ColumnData::U64(vec![]), ColumnData::U64(vec![9])] {
            let c = Sparse.compress(&col).unwrap();
            assert_eq!(Sparse.decompress(&c).unwrap(), col);
            assert_eq!(decompress_via_plan(&Sparse, &c).unwrap(), col);
        }
    }

    #[test]
    fn positional_access_matches() {
        let col = sparse_col();
        let c = Sparse.compress(&col).unwrap();
        for pos in [0usize, 17, 18, 400, 999] {
            assert_eq!(
                value_at(&c, pos as u64).unwrap(),
                col.get_transport(pos).unwrap(),
                "position {pos}"
            );
        }
        assert!(value_at(&c, 1000).is_err());
    }

    #[test]
    fn corrupted_forms_rejected() {
        let col = sparse_col();
        let mut c = Sparse.compress(&col).unwrap();
        // Non-monotone positions.
        c.parts[1].data = PartData::Plain(ColumnData::U64(vec![400, 17, 999]));
        assert!(matches!(
            Sparse.decompress(&c),
            Err(CoreError::CorruptParts(_))
        ));

        let mut c = Sparse.compress(&col).unwrap();
        // Position past the end.
        c.parts[1].data = PartData::Plain(ColumnData::U64(vec![17, 400, 5000]));
        assert!(matches!(
            Sparse.decompress(&c),
            Err(CoreError::CorruptParts(_))
        ));

        let mut c = Sparse.compress(&col).unwrap();
        // Length mismatch between positions and values.
        c.parts[2].data = PartData::Plain(ColumnData::empty(DType::I64));
        assert!(matches!(
            Sparse.decompress(&c),
            Err(CoreError::CorruptParts(_))
        ));
    }

    #[test]
    fn floor_tracks_exception_count() {
        let stats = ColumnStats::collect(&sparse_col());
        // 3 isolated exceptions × (8-byte position + 8-byte value) +
        // 8-byte base: the floor is exact.
        let actual = Sparse.compress(&sparse_col()).unwrap().compressed_bytes();
        assert_eq!(Sparse.floor(&stats), Some(8 + 3 * 16));
        assert_eq!(actual, 8 + 3 * 16);
    }
}
