//! RPE — run-*position* encoding (paper §II-A; Plattner's course book
//! §7.2).
//!
//! Identical to RLE except that instead of per-run lengths it stores the
//! cumulative (exclusive-end) run positions — i.e. `PrefixSum(lengths)`
//! already applied. Its decompression is *Algorithm 1 minus its first
//! operation*: this is the scheme the paper exhibits when it decomposes
//! RLE, giving
//!
//! ```text
//! RLE ≡ (ID for values, DELTA for run_positions) ∘ RPE
//! ```
//!
//! What RPE trades away (lengths delta-compress better than positions)
//! it gains in *ease of decompression* — one `PrefixSum` less — and in
//! O(log r) positional random access: positions are sorted, so locating
//! the run containing row `i` is a binary search, where RLE would first
//! have to reconstruct the positions.

use crate::column::ColumnData;
use crate::error::{CoreError, Result};
use crate::parts::Parts;
use crate::plan::{Node, Plan};
use crate::scheme::{Compressed, Params, Part, PartData, Scheme};
use crate::schemes::rle::run_values;
use crate::stats::ColumnStats;
use crate::with_column;
use lcdc_colops::{prefix_sum_inclusive, runs_encode};

/// The run-position encoding scheme.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rpe;

/// Role of the run-value part.
pub const ROLE_VALUES: &str = "values";
/// Role of the run-position part: `positions[i]` is the exclusive end of
/// run `i`; `positions.last() == n`.
pub const ROLE_POSITIONS: &str = "positions";

impl Scheme for Rpe {
    fn name(&self) -> String {
        "rpe".to_string()
    }

    fn compress(&self, col: &ColumnData) -> Result<Compressed> {
        let (values, lengths) = with_column!(col, |v| {
            let (values, lengths) = runs_encode(v);
            (
                ColumnData::from_transport(
                    col.dtype(),
                    values
                        .iter()
                        .map(|&x| lcdc_colops::Scalar::to_u64(x))
                        .collect(),
                ),
                lengths,
            )
        });
        let positions = prefix_sum_inclusive(&lengths);
        Ok(Compressed {
            scheme_id: self.name(),
            n: col.len(),
            dtype: col.dtype(),
            params: Params::new(),
            parts: vec![
                Part {
                    role: ROLE_VALUES,
                    data: PartData::Plain(values),
                },
                Part {
                    role: ROLE_POSITIONS,
                    data: PartData::Plain(ColumnData::U64(positions)),
                },
            ],
        })
    }

    fn decode(&self, parts: &Parts<'_>) -> Result<ColumnData> {
        let c = parts.form();
        let values = parts.column(ROLE_VALUES)?;
        let values = values.as_transport();
        let positions = parts.column(ROLE_POSITIONS)?;
        let positions = positions.expect_u64("positions part")?;
        validate_positions(positions, c.n, values.len())?;
        let mut out = Vec::with_capacity(c.n);
        let mut start = 0u64;
        for (&v, &end) in values.iter().zip(positions) {
            out.extend(std::iter::repeat_n(v, (end - start) as usize));
            start = end;
        }
        Ok(ColumnData::from_transport(c.dtype, out))
    }

    /// Algorithm 1 *without line 1* — the positions arrive materialised.
    fn plan(&self, c: &Compressed) -> Result<Plan> {
        let num_runs = c.part(ROLE_VALUES)?.data.len();
        if c.n == 0 || num_runs == 0 {
            return Plan::new(vec![Node::Const { value: 0, len: 0 }], 0);
        }
        // Parts order: 0 = values, 1 = positions.
        Plan::new(
            vec![
                Node::Part(1),    // %0 run_positions
                Node::PopBack(0), // %1 run_positions'
                Node::Const {
                    value: 1,
                    len: num_runs - 1,
                }, // %2 ones
                Node::Scatter {
                    src: 2,
                    positions: 1,
                    len: c.n,
                }, // %3 pos_delta
                Node::PrefixSum(3), // %4 positions
                Node::Part(0),    // %5 values
                Node::Gather {
                    values: 5,
                    indices: 4,
                }, // %6
            ],
            6,
        )
    }

    /// One value and one position per run.
    fn floor(&self, stats: &ColumnStats) -> Option<usize> {
        Some(stats.runs * (stats.dtype.bytes() + 8))
    }

    /// The last position is the column length.
    fn part_stats(&self, stats: &ColumnStats, role: &str) -> Option<ColumnStats> {
        match role {
            ROLE_VALUES => Some(run_values(stats)),
            ROLE_POSITIONS => Some(ColumnStats::indices(stats.runs, stats.n)),
            _ => None,
        }
    }
}

/// O(log r) positional access: the value at row `pos` without
/// decompressing anything — RPE's operational advantage over RLE.
pub fn value_at(c: &Compressed, pos: u64) -> Result<u64> {
    c.check_scheme("rpe")?;
    let positions = positions_part(c)?;
    let run = lcdc_colops::search::run_of_position(positions, pos).ok_or(CoreError::ColOps(
        lcdc_colops::ColOpsError::IndexOutOfBounds {
            index: pos as usize,
            len: c.n,
        },
    ))?;
    c.plain_part(ROLE_VALUES)?
        .get_transport(run)
        .ok_or_else(|| CoreError::CorruptParts("run index past values".into()))
}

fn positions_part(c: &Compressed) -> Result<&[u64]> {
    c.plain_part(ROLE_POSITIONS)?.expect_u64("positions part")
}

fn validate_positions(positions: &[u64], n: usize, num_values: usize) -> Result<()> {
    if positions.len() != num_values {
        return Err(CoreError::CorruptParts(format!(
            "{num_values} run values but {} positions",
            positions.len()
        )));
    }
    if positions.windows(2).any(|w| w[0] >= w[1]) {
        return Err(CoreError::CorruptParts(
            "run positions not strictly increasing".into(),
        ));
    }
    match positions.last() {
        Some(&last) if last as usize != n => Err(CoreError::CorruptParts(format!(
            "last run position {last} != n = {n}"
        ))),
        None if n != 0 => Err(CoreError::CorruptParts("no runs but n > 0".into())),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::decompress_via_plan;

    fn sample() -> ColumnData {
        ColumnData::U32(vec![7, 7, 8, 8, 8, 9])
    }

    #[test]
    fn round_trip() {
        let c = Rpe.compress(&sample()).unwrap();
        let positions = c.plain_part(ROLE_POSITIONS).unwrap();
        assert_eq!(positions, &ColumnData::U64(vec![2, 5, 6]));
        assert_eq!(Rpe.decompress(&c).unwrap(), sample());
    }

    #[test]
    fn plan_is_algorithm_one_minus_one_op() {
        let c_rpe = Rpe.compress(&sample()).unwrap();
        let c_rle = crate::schemes::rle::Rle.compress(&sample()).unwrap();
        let rpe_plan = Rpe.plan(&c_rpe).unwrap();
        let rle_plan = crate::schemes::rle::Rle.plan(&c_rle).unwrap();
        assert_eq!(rpe_plan.num_nodes() + 1, rle_plan.num_nodes());
        assert_eq!(decompress_via_plan(&Rpe, &c_rpe).unwrap(), sample());
    }

    #[test]
    fn random_access() {
        let c = Rpe.compress(&sample()).unwrap();
        assert_eq!(value_at(&c, 0).unwrap(), 7);
        assert_eq!(value_at(&c, 1).unwrap(), 7);
        assert_eq!(value_at(&c, 2).unwrap(), 8);
        assert_eq!(value_at(&c, 5).unwrap(), 9);
        assert!(value_at(&c, 6).is_err());
    }

    #[test]
    fn empty_and_single_run() {
        for col in [ColumnData::U32(vec![]), ColumnData::U32(vec![3; 10])] {
            let c = Rpe.compress(&col).unwrap();
            assert_eq!(Rpe.decompress(&c).unwrap(), col);
            assert_eq!(decompress_via_plan(&Rpe, &c).unwrap(), col);
        }
    }

    #[test]
    fn corrupt_positions_detected() {
        let c = Rpe.compress(&sample()).unwrap();

        // Non-monotone positions.
        let mut bad = c.clone();
        bad.parts[1].data = PartData::Plain(ColumnData::U64(vec![5, 2, 6]));
        assert!(matches!(
            Rpe.decompress(&bad),
            Err(CoreError::CorruptParts(_))
        ));

        // Wrong total.
        let mut bad = c.clone();
        bad.parts[1].data = PartData::Plain(ColumnData::U64(vec![2, 5, 7]));
        assert!(matches!(
            Rpe.decompress(&bad),
            Err(CoreError::CorruptParts(_))
        ));

        // Count mismatch.
        let mut bad = c;
        bad.parts[1].data = PartData::Plain(ColumnData::U64(vec![6]));
        assert!(matches!(
            Rpe.decompress(&bad),
            Err(CoreError::CorruptParts(_))
        ));
    }

    #[test]
    fn same_size_as_rle_under_plain_parts() {
        // Undeniably: positions and lengths are both one u64 per run.
        let col = ColumnData::U64(vec![1, 1, 2, 2, 2, 9, 9]);
        let rle = crate::schemes::rle::Rle.compress(&col).unwrap();
        let rpe = Rpe.compress(&col).unwrap();
        assert_eq!(rle.compressed_bytes(), rpe.compressed_bytes());
    }
}
