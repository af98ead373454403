//! RLE — run-length encoding (paper §II-A, Algorithm 1).
//!
//! "A single column `col` of values is compressed into a pair of
//! corresponding columns, `lengths` and `values`, whose length is the
//! number of runs in `col`."
//!
//! The operator-DAG plan is Algorithm 1 verbatim, with two pedantic
//! corrections preserved in comments: the zeroed scatter target (the
//! paper's line 5 reads `Constant(1, n)`, an evident typo for 0), and
//! 0-based element ids.

use crate::column::ColumnData;
use crate::error::{CoreError, Result};
use crate::parts::Parts;
use crate::plan::{Node, Plan};
use crate::scheme::{Compressed, Params, Part, PartData, Scheme};
use crate::stats::ColumnStats;
use crate::with_column;
use lcdc_colops::{runs_encode, runs_expand};

/// The run-length encoding scheme.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rle;

/// Role of the run-value part.
pub const ROLE_VALUES: &str = "values";
/// Role of the run-length part (u64 counts).
pub const ROLE_LENGTHS: &str = "lengths";

impl Scheme for Rle {
    fn name(&self) -> String {
        "rle".to_string()
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
                    role: ROLE_LENGTHS,
                    data: PartData::Plain(ColumnData::U64(lengths)),
                },
            ],
        })
    }

    fn decode(&self, parts: &Parts<'_>) -> Result<ColumnData> {
        let c = parts.form();
        let values = parts.column(ROLE_VALUES)?;
        let lengths = parts.column(ROLE_LENGTHS)?;
        let lengths = lengths.expect_u64("lengths part")?;
        validate_lengths(lengths, c.n)?;
        let expanded = runs_expand(&values.as_transport(), lengths)?;
        Ok(ColumnData::from_transport(c.dtype, expanded))
    }

    /// Algorithm 1, literally:
    ///
    /// ```text
    /// run_positions  <- PrefixSum(lengths)
    /// run_positions' <- PopBack(run_positions)
    /// ones           <- Constant(1, |run_positions'|)
    /// zeros          <- Constant(0, n)            // paper's line 5 says 1; typo
    /// pos_delta      <- Scatter(ones, run_positions')
    /// positions      <- PrefixSum(pos_delta)
    /// return Gather(values, positions)
    /// ```
    fn plan(&self, c: &Compressed) -> Result<Plan> {
        let num_runs = c.part(ROLE_VALUES)?.data.len();
        if c.n == 0 || num_runs == 0 {
            return Plan::new(vec![Node::Const { value: 0, len: 0 }], 0);
        }
        // Parts order: 0 = values, 1 = lengths (as produced by compress).
        Plan::new(
            vec![
                Node::Part(1),      // %0 lengths
                Node::PrefixSum(0), // %1 run_positions
                Node::PopBack(1),   // %2 run_positions'
                Node::Const {
                    value: 1,
                    len: num_runs - 1,
                }, // %3 ones
                Node::Scatter {
                    src: 3,
                    positions: 2,
                    len: c.n,
                }, // %4 pos_delta
                Node::PrefixSum(4), // %5 positions
                Node::Part(0),      // %6 values
                Node::Gather {
                    values: 6,
                    indices: 5,
                }, // %7
            ],
            7,
        )
    }

    /// One value and one length per run.
    fn floor(&self, stats: &ColumnStats) -> Option<usize> {
        Some(stats.runs * (stats.dtype.bytes() + 8))
    }

    fn part_stats(&self, stats: &ColumnStats, role: &str) -> Option<ColumnStats> {
        match role {
            ROLE_VALUES => Some(run_values(stats)),
            ROLE_LENGTHS => Some(ColumnStats::indices(stats.runs, stats.longest_run)),
            _ => None,
        }
    }
}

/// The run values of a column (RLE's and RPE's `values` part): one per
/// run, with the column's extremes and, adjacent runs differing, its
/// nonzero adjacent deltas.
pub(crate) fn run_values(stats: &ColumnStats) -> ColumnStats {
    let mut jump_widths = stats.jump_widths;
    jump_widths[0] = 0;
    ColumnStats {
        min: stats.min,
        max: stats.max,
        ns_width: stats.ns_width,
        zz_width: stats.zz_width,
        runs: stats.runs,
        delta_width: stats.delta_width,
        jump_widths,
        distinct: stats.distinct,
        ..ColumnStats::shape(stats.runs, stats.dtype)
    }
}

/// The run lengths must add up to exactly `n` — checked before the
/// expansion allocates anything, so a crafted length cannot ask for an
/// allocation larger than the column the frame claims to hold.
fn validate_lengths(lengths: &[u64], n: usize) -> Result<()> {
    let total = lengths
        .iter()
        .try_fold(0u64, |total, &len| total.checked_add(len));
    match total {
        Some(total) if total == n as u64 => Ok(()),
        Some(total) => Err(CoreError::CorruptParts(format!(
            "runs expand to {total} values, expected {n}"
        ))),
        None => Err(CoreError::CorruptParts("run lengths overflow u64".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::decompress_via_plan;

    #[test]
    fn round_trip() {
        let col = ColumnData::U32(vec![7, 7, 8, 8, 8, 9]);
        let c = Rle.compress(&col).unwrap();
        assert_eq!(c.part(ROLE_VALUES).unwrap().data.len(), 3);
        assert_eq!(Rle.decompress(&c).unwrap(), col);
    }

    #[test]
    fn plan_is_algorithm_one() {
        let col = ColumnData::U32(vec![7, 7, 8, 8, 8, 9]);
        let c = Rle.compress(&col).unwrap();
        let plan = Rle.plan(&c).unwrap();
        assert_eq!(plan.num_nodes(), 8);
        assert_eq!(decompress_via_plan(&Rle, &c).unwrap(), col);
        let text = plan.display();
        assert!(text.contains("PrefixSum"));
        assert!(text.contains("PopBack"));
        assert!(text.contains("Scatter"));
        assert!(text.contains("Gather"));
    }

    #[test]
    fn single_run_column() {
        let col = ColumnData::I64(vec![-4; 100]);
        let c = Rle.compress(&col).unwrap();
        assert_eq!(c.compressed_bytes(), 16); // one value + one length
        assert_eq!(Rle.decompress(&c).unwrap(), col);
        assert_eq!(decompress_via_plan(&Rle, &c).unwrap(), col);
    }

    #[test]
    fn empty_column() {
        let col = ColumnData::U32(vec![]);
        let c = Rle.compress(&col).unwrap();
        assert_eq!(Rle.decompress(&c).unwrap(), col);
        assert_eq!(decompress_via_plan(&Rle, &c).unwrap(), col);
    }

    #[test]
    fn no_runs_worst_case() {
        let col = ColumnData::U32((0..50).collect());
        let c = Rle.compress(&col).unwrap();
        // 50 runs of 1: compressed is *larger* than plain (values + lengths).
        assert!(c.compressed_bytes() > col.uncompressed_bytes());
        assert_eq!(Rle.decompress(&c).unwrap(), col);
        assert_eq!(decompress_via_plan(&Rle, &c).unwrap(), col);
    }

    #[test]
    fn signed_values() {
        let col = ColumnData::I32(vec![-1, -1, 5, 5, 5, -9]);
        let c = Rle.compress(&col).unwrap();
        assert_eq!(Rle.decompress(&c).unwrap(), col);
        assert_eq!(decompress_via_plan(&Rle, &c).unwrap(), col);
    }

    #[test]
    fn floor_matches_shape() {
        let col = ColumnData::U64(vec![1, 1, 1, 2, 2, 3]);
        let stats = ColumnStats::collect(&col);
        assert_eq!(Rle.floor(&stats), Some(3 * 16));
        assert_eq!(Rle.compress(&col).unwrap().compressed_bytes(), 3 * 16);
        let cascades = [
            "rle[values=ns,lengths=ns]",
            "rle[values=delta[deltas=ns_zz],lengths=ns]",
            "rpe[values=ns,positions=ns]",
        ];
        for text in cascades {
            let scheme = crate::expr::parse_scheme(text).unwrap();
            let actual = scheme.compress(&col).unwrap().compressed_bytes();
            assert_eq!(scheme.floor(&stats), Some(actual), "{text}");
        }
    }

    #[test]
    fn corrupt_total_detected() {
        let col = ColumnData::U32(vec![5, 5, 6]);
        let mut c = Rle.compress(&col).unwrap();
        c.n = 7;
        assert!(matches!(
            Rle.decompress(&c),
            Err(CoreError::CorruptParts(_))
        ));
    }
}
