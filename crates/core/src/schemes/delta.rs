//! DELTA — "storing the difference between elements rather than the
//! actual values" (paper §I).
//!
//! The first value is kept as a scalar parameter (the standard practice:
//! leaving it in the delta column would dominate the packed width of the
//! usual `delta[deltas=ns_zz]` cascade); the deltas column holds the
//! `n-1` consecutive differences in the *signed* counterpart of the input
//! type, since differences are naturally signed and the signed form is
//! what zigzag+NS packs narrowly. Arithmetic is wrapping, so the scheme
//! is total — any column round-trips, including ones whose deltas
//! overflow.
//!
//! Decompression is `PrefixSum(Concat(first, deltas))` — the operator
//! whose removal from Algorithm 1 turns RLE into RPE, which is why DELTA
//! is the bridging scheme of the paper's central identity.

use crate::build_column;
use crate::column::{ColumnData, DType};
use crate::error::{CoreError, Result};
use crate::parts::{Emit, Parts, Visitor};
use crate::plan::{Node, Plan};
use crate::scheme::{Compressed, Params, Part, PartData, Scheme};
use crate::stats::ColumnStats;

/// The delta-encoding scheme.
#[derive(Debug, Clone, Copy, Default)]
pub struct Delta;

/// Role of the deltas part: `deltas[i] = v[i+1] - v[i]` (wrapping),
/// length `n - 1` (empty for `n <= 1`).
pub const ROLE_DELTAS: &str = "deltas";

fn signed_counterpart(dtype: DType) -> DType {
    match dtype {
        DType::U32 | DType::I32 => DType::I32,
        DType::U64 | DType::I64 => DType::I64,
    }
}

impl Delta {
    /// Validate the parts, then reconstruct into `out`: a running sum
    /// carried across the chunks of deltas as they are unpacked.
    fn run(&self, parts: &Parts<'_>, out: &mut impl Emit) -> Result<()> {
        let c = parts.form();
        if c.n == 0 {
            return Ok(());
        }
        let deltas = parts.stream(ROLE_DELTAS)?;
        if deltas.len() + 1 != c.n {
            return Err(CoreError::CorruptParts(format!(
                "deltas column holds {} values, expected {}",
                deltas.len(),
                c.n - 1
            )));
        }
        let mut acc = c.params.require("first")? as u64;
        out.begin(c.n);
        out.emit(&[acc], |first| first);
        deltas.for_each_chunk(|chunk| {
            out.emit(chunk, |d| {
                acc = acc.wrapping_add(d);
                acc
            })
        });
        Ok(())
    }
}

impl Scheme for Delta {
    fn name(&self) -> String {
        "delta".to_string()
    }

    fn compress(&self, col: &ColumnData) -> Result<Compressed> {
        // Differences in the transport domain are congruent to the native
        // differences mod 2^width, so one u64 pass serves all types; the
        // signed-counterpart storage then sign-extends correctly on read
        // because `from_transport` truncates to the (32- or 64-bit)
        // signed type.
        let transport = col.to_transport();
        let first = transport.first().copied().unwrap_or(0);
        let deltas: Vec<u64> = transport
            .windows(2)
            .map(|w| w[1].wrapping_sub(w[0]))
            .collect();
        let delta_dtype = signed_counterpart(col.dtype());
        Ok(Compressed {
            scheme_id: self.name(),
            n: col.len(),
            dtype: col.dtype(),
            params: Params::new().with("first", first as i64),
            parts: vec![Part {
                role: ROLE_DELTAS,
                data: PartData::Plain(ColumnData::from_transport(delta_dtype, deltas)),
            }],
        })
    }

    fn decode(&self, parts: &Parts<'_>) -> Result<ColumnData> {
        Ok(build_column!(parts.form().dtype, 0, |out: Vec<T>| self
            .run(parts, &mut out)?))
    }

    fn visit_parts(&self, parts: &Parts<'_>, f: &mut dyn FnMut(&[u64])) -> Result<()> {
        self.run(parts, &mut Visitor::new(f, parts.form().dtype))
    }

    fn plan(&self, c: &Compressed) -> Result<Plan> {
        if c.n == 0 {
            return Plan::new(vec![Node::Const { value: 0, len: 0 }], 0);
        }
        let first = c.params.require("first")? as u64;
        Plan::new(
            vec![
                Node::Const {
                    value: first,
                    len: 1,
                }, // %0 first value
                Node::Part(0),                      // %1 deltas
                Node::Concat { first: 0, rest: 1 }, // %2
                Node::PrefixSum(2),                 // %3
            ],
            3,
        )
    }

    /// The `first` parameter plus `n - 1` plain deltas.
    fn floor(&self, stats: &ColumnStats) -> Option<usize> {
        Some(8 + stats.n.saturating_sub(1) * stats.dtype.bytes())
    }

    /// The deltas are as wide as the column's widest adjacent delta.
    fn part_stats(&self, stats: &ColumnStats, role: &str) -> Option<ColumnStats> {
        (role == ROLE_DELTAS).then(|| ColumnStats {
            zz_width: stats.delta_width,
            ..ColumnStats::shape(stats.n.saturating_sub(1), signed_counterpart(stats.dtype))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::Cascade;
    use crate::scheme::decompress_via_plan;
    use crate::schemes::ns::Ns;

    #[test]
    fn round_trip_monotone() {
        let col = ColumnData::U64((100..200).collect());
        let c = Delta.compress(&col).unwrap();
        assert_eq!(Delta.decompress(&c).unwrap(), col);
    }

    #[test]
    fn first_is_a_parameter_and_deltas_signed() {
        let col = ColumnData::U32(vec![10, 5, 20]);
        let c = Delta.compress(&col).unwrap();
        assert_eq!(c.params.get("first"), Some(10));
        let deltas = c.plain_part(ROLE_DELTAS).unwrap();
        assert_eq!(deltas, &ColumnData::I32(vec![-5, 15]));
        assert_eq!(Delta.decompress(&c).unwrap(), col);
    }

    #[test]
    fn wrapping_extremes_round_trip() {
        let col = ColumnData::I64(vec![i64::MIN, i64::MAX, 0, -1, i64::MAX]);
        let c = Delta.compress(&col).unwrap();
        assert_eq!(Delta.decompress(&c).unwrap(), col);

        let col = ColumnData::U64(vec![0, u64::MAX, 1, u64::MAX / 2]);
        let c = Delta.compress(&col).unwrap();
        assert_eq!(Delta.decompress(&c).unwrap(), col);
    }

    #[test]
    fn plan_concat_prefix_sum() {
        let col = ColumnData::U32(vec![3, 7, 7, 2]);
        let c = Delta.compress(&col).unwrap();
        let plan = Delta.plan(&c).unwrap();
        assert!(plan.display().contains("Concat"));
        assert_eq!(decompress_via_plan(&Delta, &c).unwrap(), col);
    }

    #[test]
    fn empty_and_single() {
        for col in [ColumnData::U32(vec![]), ColumnData::U32(vec![42])] {
            let c = Delta.compress(&col).unwrap();
            assert_eq!(Delta.decompress(&c).unwrap(), col);
            assert_eq!(decompress_via_plan(&Delta, &c).unwrap(), col);
        }
    }

    #[test]
    fn ns_cascade_packs_small_gaps() {
        // Sorted with constant gap 3: zigzag deltas fit 3 bits regardless
        // of the (large) starting value.
        let col = ColumnData::U64((0..1000u64).map(|i| 20_180_101 + i * 3).collect());
        let cascade = Cascade::new(
            Box::new(Delta),
            vec![(ROLE_DELTAS, Box::new(Ns::zz()) as Box<dyn Scheme>)],
        );
        let c = cascade.compress(&col).unwrap();
        assert!(c.ratio().unwrap() > 15.0, "ratio {:?}", c.ratio());
        assert_eq!(cascade.decompress(&c).unwrap(), col);
    }

    #[test]
    fn cascade_floor_is_exact() {
        let cascade = Cascade::new(
            Box::new(Delta),
            vec![(ROLE_DELTAS, Box::new(Ns::zz()) as Box<dyn Scheme>)],
        );
        for col in [
            ColumnData::U64((0..1000u64).map(|i| 20_180_101 + i * 3).collect()),
            ColumnData::U32(vec![0, 4_000_000_000, 7]),
            ColumnData::I64(vec![i64::MIN, i64::MAX, -1]),
            ColumnData::U32(vec![]),
        ] {
            let stats = ColumnStats::collect(&col);
            let actual = cascade.compress(&col).unwrap().compressed_bytes();
            assert_eq!(cascade.floor(&stats), Some(actual), "{col:?}");
        }
    }

    #[test]
    fn corrupt_length_detected() {
        let col = ColumnData::U32(vec![1, 2]);
        let mut c = Delta.compress(&col).unwrap();
        c.n = 3;
        assert!(matches!(
            Delta.decompress(&c),
            Err(CoreError::CorruptParts(_))
        ));
    }

    #[test]
    fn signed_32bit_wrap() {
        let col = ColumnData::I32(vec![i32::MIN, i32::MAX, -1]);
        let c = Delta.compress(&col).unwrap();
        assert_eq!(Delta.decompress(&c).unwrap(), col);
        assert_eq!(decompress_via_plan(&Delta, &c).unwrap(), col);
    }
}
