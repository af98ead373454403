//! DICT — dictionary encoding: "using small dictionaries" (paper §I).
//!
//! The dictionary is the sorted distinct values; codes are positions in
//! it. Sorted dictionaries are the standard engineering choice because
//! they make the code mapping order-preserving, which lets range
//! predicates be evaluated directly on codes — another instance of the
//! paper's "no clear distinction between decompression and query
//! execution".
//!
//! A run's segments may share one dictionary stored once
//! (`dict[dict=shared,...]`, see [`crate::shared`]); the dictionary
//! part is then a reference, read exactly like an own one.

use crate::column::ColumnData;
use crate::error::{CoreError, Result};
use crate::parts::{Emit, Parts, Visitor};
use crate::plan::{Node, Plan};
use crate::scheme::{Compressed, Params, Part, PartData, Scheme};
use crate::stats::ColumnStats;
use crate::{build_column, with_column};
use lcdc_colops::ColOpsError;

/// The dictionary-encoding scheme.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dict;

/// Role of the sorted-distinct-values part.
pub const ROLE_DICT: &str = "dict";
/// Role of the code part (u64 positions into the dictionary).
pub const ROLE_CODES: &str = "codes";

impl Dict {
    /// Validate the parts, then gather each unpacked chunk of codes
    /// into `out` — a code past the dictionary gathers a default and
    /// lowers a flag, so the loop carries no `Result` — never
    /// materialising the codes column. Gathering stops at the first
    /// chunk holding a bad code, which is the error: an index out of
    /// bounds, or — past a dictionary shared by handle, where the frame
    /// and the dictionary it was given disagree — a corrupt form.
    fn run(&self, parts: &Parts<'_>, out: &mut impl Emit) -> Result<()> {
        let c = parts.form();
        let shared = c.shared_part().is_some();
        let dict = parts.column(ROLE_DICT)?;
        let dict = dict.as_transport();
        let codes = parts.stream(ROLE_CODES)?;
        if codes.len() != c.n {
            return Err(CoreError::CorruptParts(format!(
                "codes column holds {} values, expected {}",
                codes.len(),
                c.n
            )));
        }
        out.begin(c.n);
        let entry = |code: u64| usize::try_from(code).ok().and_then(|i| dict.get(i));
        let mut bad = None;
        codes.for_each_chunk(|chunk| {
            if bad.is_some() {
                return;
            }
            let mut all_in_range = true;
            out.emit(chunk, |code| match entry(code) {
                Some(&v) => v,
                None => {
                    all_in_range = false;
                    0
                }
            });
            if !all_in_range {
                bad = chunk.iter().copied().find(|&code| entry(code).is_none());
            }
        });
        match bad {
            Some(code) if shared => Err(CoreError::CorruptParts(format!(
                "code {code} past a shared dictionary of {} entries",
                dict.len()
            ))),
            Some(code) => Err(match usize::try_from(code) {
                Ok(index) => ColOpsError::IndexOutOfBounds {
                    index,
                    len: dict.len(),
                },
                Err(_) => ColOpsError::BadIndexValue,
            }
            .into()),
            None => Ok(()),
        }
    }
}

impl Scheme for Dict {
    fn name(&self) -> String {
        "dict".to_string()
    }

    fn compress(&self, col: &ColumnData) -> Result<Compressed> {
        let (dict, codes) = with_column!(col, |v| {
            let mut dict: Vec<_> = v.clone();
            dict.sort_unstable();
            dict.dedup();
            let codes: Vec<u64> = v
                .iter()
                .map(|x| dict.binary_search(x).expect("present by construction") as u64)
                .collect();
            (
                ColumnData::from_transport(
                    col.dtype(),
                    dict.iter()
                        .map(|&x| lcdc_colops::Scalar::to_u64(x))
                        .collect(),
                ),
                codes,
            )
        });
        Ok(Compressed {
            scheme_id: self.name(),
            n: col.len(),
            dtype: col.dtype(),
            params: Params::new(),
            parts: vec![
                Part {
                    role: ROLE_DICT,
                    data: PartData::Plain(dict),
                },
                Part {
                    role: ROLE_CODES,
                    data: PartData::Plain(ColumnData::U64(codes)),
                },
            ],
        })
    }

    fn decode(&self, parts: &Parts<'_>) -> Result<ColumnData> {
        Ok(build_column!(parts.form().dtype, 0, |out: Vec<T>| self
            .run(parts, &mut out)?))
    }

    fn visit_parts(&self, parts: &Parts<'_>, f: &mut dyn FnMut(&[u64])) -> Result<()> {
        self.run(parts, &mut Visitor::new(f, parts.form().dtype))
    }

    fn plan(&self, _c: &Compressed) -> Result<Plan> {
        // Parts order: 0 = dict, 1 = codes.
        Plan::new(
            vec![
                Node::Part(0),
                Node::Part(1),
                Node::Gather {
                    values: 0,
                    indices: 1,
                },
            ],
            2,
        )
    }

    /// The dictionary at its least possible size, and one code per row.
    fn floor(&self, stats: &ColumnStats) -> Option<usize> {
        Some(distinct_floor(stats) * stats.dtype.bytes() + stats.n * 8)
    }

    /// Codes index the dictionary: the largest is at least `d - 1`.
    fn part_stats(&self, stats: &ColumnStats, role: &str) -> Option<ColumnStats> {
        let d = distinct_floor(stats);
        match role {
            ROLE_DICT => Some(ColumnStats::shape(d, stats.dtype)),
            ROLE_CODES => Some(ColumnStats::indices(stats.n, d.saturating_sub(1))),
            _ => None,
        }
    }
}

/// The fewest distinct values a column with these statistics can hold.
fn distinct_floor(stats: &ColumnStats) -> usize {
    stats
        .distinct
        .max(stats.n.min(1) + (stats.min != stats.max) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::Cascade;
    use crate::scheme::decompress_via_plan;
    use crate::schemes::ns::Ns;

    #[test]
    fn round_trip() {
        let col = ColumnData::I64(vec![30, -10, 20, -10, 30, 30]);
        let c = Dict.compress(&col).unwrap();
        assert_eq!(
            c.plain_part(ROLE_DICT).unwrap(),
            &ColumnData::I64(vec![-10, 20, 30])
        );
        assert_eq!(
            c.plain_part(ROLE_CODES).unwrap(),
            &ColumnData::U64(vec![2, 0, 1, 0, 2, 2])
        );
        assert_eq!(Dict.decompress(&c).unwrap(), col);
    }

    #[test]
    fn plan_is_a_single_gather() {
        let col = ColumnData::U32(vec![9, 9, 3]);
        let c = Dict.compress(&col).unwrap();
        assert_eq!(Dict.plan(&c).unwrap().num_nodes(), 3);
        assert_eq!(decompress_via_plan(&Dict, &c).unwrap(), col);
    }

    #[test]
    fn dictionary_is_order_preserving() {
        let col = ColumnData::I32(vec![5, -5, 0]);
        let c = Dict.compress(&col).unwrap();
        let dict = c.plain_part(ROLE_DICT).unwrap().to_numeric();
        assert!(dict.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn codes_cascade_with_ns() {
        // 8 distinct values in 100k rows: codes pack into 3 bits.
        let col = ColumnData::U64((0..100_000).map(|i| (i * i) % 8 * 1_000_000).collect());
        let cascade = Cascade::new(Box::new(Dict), vec![(ROLE_CODES, Box::new(Ns::plain()))]);
        // 3 bits vs 64 bits/value: ratio near 21.
        let c = cascade.compress(&col).unwrap();
        assert!(c.ratio().unwrap() > 15.0, "ratio {:?}", c.ratio());
        assert_eq!(cascade.decompress(&c).unwrap(), col);
    }

    #[test]
    fn empty_column() {
        let col = ColumnData::U32(vec![]);
        let c = Dict.compress(&col).unwrap();
        assert_eq!(Dict.decompress(&c).unwrap(), col);
        assert_eq!(decompress_via_plan(&Dict, &c).unwrap(), col);
    }

    #[test]
    fn corrupt_code_detected() {
        let col = ColumnData::U32(vec![5, 6]);
        let mut c = Dict.compress(&col).unwrap();
        c.parts[1].data = PartData::Plain(ColumnData::U64(vec![0, 9]));
        assert!(Dict.decompress(&c).is_err());
    }

    #[test]
    fn floor_shape() {
        let col = ColumnData::U32(vec![1, 1, 2, 2, 2]);
        let stats = ColumnStats::collect(&col);
        assert_eq!(Dict.floor(&stats), Some(2 * 4 + 5 * 8));
        let cascade = Cascade::new(Box::new(Dict), vec![(ROLE_CODES, Box::new(Ns::plain()))]);
        let actual = cascade.compress(&col).unwrap().compressed_bytes();
        assert_eq!(cascade.floor(&stats), Some(actual));
    }
}
