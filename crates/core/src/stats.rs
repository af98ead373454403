//! Column statistics: what the schemes' size floors read.
//!
//! [`ColumnStats::collect`] reads the native values once, block by
//! block, with no sort and no copy (a block is looked at twice while it
//! is in cache: for its extremes, then for its differences). It records:
//!
//! - `n`, `dtype`, `min` and `max`, and the NS widths they imply
//!   (`ns_width`, `zz_width`);
//! - `runs`, the `longest_run`, the widest zigzagged adjacent delta
//!   (`delta_width`) and a histogram of adjacent jump widths
//!   (`jump_widths`);
//! - a lower bound on the distinct count (`distinct`): the distinct
//!   hash buckets the values fill among 4096, from a 512-byte bitmap;
//! - a histogram of each row's offset from its block minimum
//!   (`offset_widths`), FOR's and PFOR's payload widths;
//! - per block of `seg_len` rows ([`BlockStats`]): min, max, first value,
//!   runs, the widest in-block delta and the largest second and third
//!   differences.
//!
//! A statistics value also describes a *part* a scheme would produce
//! ([`crate::scheme::Scheme::part_stats`]): its length and type are
//! exact, and every other field is a bound in the direction the floors
//! read it (widths and counts from below; `ns_width` is `None` only when
//! a negative value is certain). [`ColumnStats::shape`] is the weakest
//! such description.

use crate::column::{ColumnData, DType};
use lcdc_bitpack::width::bits_needed_u64;
use lcdc_bitpack::zigzag_encode_i64;

/// Statistics over one column, at a fixed block length.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Element count.
    pub n: usize,
    /// Element type.
    pub dtype: DType,
    /// Numeric minimum (`None` when empty or not tracked).
    pub min: Option<i128>,
    /// Numeric maximum (`None` when empty or not tracked).
    pub max: Option<i128>,
    /// Bits plain NS packs every value at; `None` when a value is
    /// negative, which plain NS cannot encode.
    pub ns_width: Option<u32>,
    /// Bits zigzagged NS packs every value at (a lower bound: exact
    /// except for `u64` columns straddling 2^63).
    pub zz_width: u32,
    /// Number of maximal runs.
    pub runs: usize,
    /// Length of the longest run.
    pub longest_run: usize,
    /// Bits of the widest zigzagged adjacent delta, the delta wrapped to
    /// the signed counterpart of `dtype`: DELTA's `deltas=ns_zz` width.
    pub delta_width: u32,
    /// `jump_widths[w]` counts the adjacent pairs whose numeric
    /// difference `|v[i+1] - v[i]|` needs exactly `w` bits.
    pub jump_widths: [usize; 65],
    /// At most the number of distinct values.
    pub distinct: usize,
    /// Block length the block statistics below were computed at.
    pub seg_len: usize,
    /// `offset_widths[w]` counts the rows whose offset from their
    /// block's minimum needs exactly `w` bits (all zero when not
    /// tracked).
    pub offset_widths: [usize; 65],
    /// One entry per block of `seg_len` rows (the last may be short);
    /// empty when not tracked.
    pub blocks: Vec<BlockStats>,
}

/// Statistics of one block of rows. `min`, `max` and `first` are exact;
/// the rest are lower bounds when the block describes a derived part.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockStats {
    /// Numeric minimum.
    pub min: i128,
    /// Numeric maximum.
    pub max: i128,
    /// The block's first value.
    pub first: i128,
    /// Number of maximal runs inside the block.
    pub runs: usize,
    /// Bits of the widest zigzagged in-block delta, wrapped to 64 bits:
    /// DFOR's `deltas=ns_zz` width.
    pub delta_width: u32,
    /// Largest `|v[i+1] - 2v[i] + v[i-1]|` over triples inside the block.
    pub second_diff: u128,
    /// Largest third difference magnitude over quadruples inside the
    /// block.
    pub third_diff: u128,
}

/// Default segment length used by FOR-family schemes and the chooser.
pub const DEFAULT_SEG_LEN: usize = 128;

/// Hash buckets behind [`ColumnStats::distinct`]: values in distinct
/// buckets are distinct, so the filled buckets bound the count.
const DISTINCT_BUCKETS: usize = 4096;

impl ColumnStats {
    /// Collect statistics with the default segment length.
    pub fn collect(col: &ColumnData) -> Self {
        Self::collect_with_seg_len(col, DEFAULT_SEG_LEN)
    }

    /// Collect statistics with an explicit segment length.
    pub fn collect_with_seg_len(col: &ColumnData, seg_len: usize) -> Self {
        let seg_len = seg_len.max(1);
        crate::with_column!(col, |v| collect_native(v, col.dtype(), seg_len))
    }

    /// The weakest sound description of `n` values of `dtype`: nothing
    /// is known beyond the length and type.
    pub fn shape(n: usize, dtype: DType) -> Self {
        ColumnStats {
            n,
            dtype,
            min: None,
            max: None,
            ns_width: Some(0),
            zz_width: 0,
            runs: n.min(1),
            longest_run: n.min(1),
            delta_width: 0,
            jump_widths: [0; 65],
            distinct: n.min(1),
            seg_len: DEFAULT_SEG_LEN,
            offset_widths: [0; 65],
            blocks: Vec::new(),
        }
    }

    /// `n` non-negative `u64` values — lengths, positions, codes — the
    /// largest of which is `largest`.
    pub fn indices(n: usize, largest: usize) -> Self {
        ColumnStats {
            ns_width: Some(bits_needed_u64(largest as u64)),
            zz_width: zz_bits(largest as i64),
            ..ColumnStats::shape(n, DType::U64)
        }
    }

    /// Size of these values stored as a plain column.
    pub fn plain_bytes(&self) -> usize {
        self.n * self.dtype.bytes()
    }

    /// The offset-width histogram, if it was taken at `seg_len` and
    /// counts every row.
    pub fn offset_widths_at(&self, seg_len: usize) -> Option<&[usize; 65]> {
        (self.seg_len == seg_len && self.offset_widths.iter().sum::<usize>() == self.n)
            .then_some(&self.offset_widths)
    }

    /// The block statistics, if they were taken at `seg_len` and cover
    /// every row.
    pub fn blocks_at(&self, seg_len: usize) -> Option<&[BlockStats]> {
        (self.seg_len == seg_len && self.blocks.len() == self.n.div_ceil(seg_len))
            .then_some(&self.blocks[..])
    }
}

/// Bits zigzagged NS spends on the signed value `v`.
pub(crate) fn zz_bits(v: i64) -> u32 {
    bits_needed_u64(zigzag_encode_i64(v))
}

/// Bits zigzagged NS spends on the value `v` of a column: NS zigzags its
/// transport (the low 64 bits) read as `i64`.
pub(crate) fn zz_bits_of(v: i128) -> u32 {
    zz_bits(v as i64)
}

/// Bits of the widest zigzagged residual a segment model with integer
/// coefficients and a zero `k`-th difference (degree `k - 1`) must
/// leave where the column shows a `k`-th difference of `diff`: the
/// residuals then have that `k`-th difference, which is at most `2^k`
/// times their largest magnitude.
pub(crate) fn residual_width(diff: u128, k: u32) -> u32 {
    match diff.div_ceil(1 << k) {
        0 => 0,
        m => (128 - (2 * m - 1).leading_zeros()).min(64),
    }
}

fn collect_native<T: Copy + Ord + Into<i128>>(
    v: &[T],
    dtype: DType,
    seg_len: usize,
) -> ColumnStats {
    let mut scan = Scan {
        stats: ColumnStats::shape(v.len(), dtype),
        narrow: dtype.bytes() == 4,
        delta_or: 0,
        run_len: 0,
        longest: 0,
    };
    scan.stats.seg_len = seg_len;
    scan.stats.blocks = Vec::with_capacity(v.len().div_ceil(seg_len));
    let mut buckets = [0u64; DISTINCT_BUCKETS / 64];
    let mut prev: Option<i128> = None;
    for chunk in v.chunks(seg_len) {
        // Extremes and distinct buckets, on the native values.
        let (mut lo, mut hi) = (chunk[0], chunk[0]);
        for &x in chunk {
            (lo, hi) = (lo.min(x), hi.max(x));
            let bucket = ((x.into() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 52) as usize;
            buckets[bucket / 64] |= 1 << (bucket % 64);
        }
        let first = chunk[0].into();
        let mut block = BlockStats {
            min: lo.into(),
            max: hi.into(),
            first,
            runs: 1,
            delta_width: 0,
            second_diff: 0,
            third_diff: 0,
        };
        // The pair straddling a block boundary counts globally only.
        scan.run_len = match prev {
            Some(p) => scan.pair(first - p),
            None => 1,
        };
        scan.longest = scan.longest.max(scan.run_len);
        // Differences of the offsets from the block minimum: in `i64`
        // when the block's range leaves room for third differences
        // (always, for 32-bit columns), in `i128` otherwise.
        let min = block.min;
        let offsets = chunk.iter().map(|&x| x.into() - min);
        if block.max - min < 1 << 61 {
            scan.block(offsets.map(|o| o as i64), &mut block);
        } else {
            scan.block(offsets, &mut block);
        }
        prev = Some(chunk[chunk.len() - 1].into());
        scan.stats.blocks.push(block);
    }
    let mut stats = scan.stats;
    if let (Some(lo), Some(hi)) = (
        stats.blocks.iter().map(|b| b.min).min(),
        stats.blocks.iter().map(|b| b.max).max(),
    ) {
        stats.min = Some(lo);
        stats.max = Some(hi);
        stats.ns_width = (lo >= 0).then(|| bits_needed_u64(hi as u64));
        stats.zz_width = zz_bits_of(lo).max(zz_bits_of(hi));
        stats.runs = v.len() - stats.jump_widths[0];
        stats.longest_run = scan.longest;
        stats.delta_width = bits_needed_u64(scan.delta_or);
        stats.distinct = buckets.iter().map(|w| w.count_ones() as usize).sum();
    }
    stats
}

/// The running state of [`collect_native`]'s pass.
struct Scan {
    stats: ColumnStats,
    narrow: bool,
    delta_or: u64,
    run_len: usize,
    longest: usize,
}

impl Scan {
    /// Count the adjacent pair with difference `d` globally; the length
    /// of the run it continues or starts.
    fn pair<L: Lane>(&mut self, d: L) -> usize {
        self.stats.jump_widths[bits(d.magnitude())] += 1;
        // DELTA's deltas wrap to the signed counterpart of the type.
        let wrapped = if self.narrow {
            d.low() as i32 as i64
        } else {
            d.low()
        };
        self.delta_or |= zigzag_encode_i64(wrapped);
        if d == L::ZERO {
            self.run_len + 1
        } else {
            1
        }
    }

    /// One block, as offsets from its minimum (differences are those
    /// of the values).
    fn block<L: Lane>(&mut self, offsets: impl Iterator<Item = L>, block: &mut BlockStats) {
        let (mut prev, mut d1, mut d2) = (L::ZERO, L::ZERO, L::ZERO);
        let (mut block_or, mut second, mut third) = (0u64, 0u128, 0u128);
        for (i, o) in offsets.enumerate() {
            self.stats.offset_widths[bits(o.magnitude())] += 1;
            if i > 0 {
                let d = o - prev;
                self.run_len = self.pair(d);
                self.longest = self.longest.max(self.run_len);
                block_or |= zigzag_encode_i64(d.low());
                block.runs += (d != L::ZERO) as usize;
                if i > 1 {
                    let dd = d - d1;
                    second = second.max(dd.magnitude());
                    if i > 2 {
                        third = third.max((dd - d2).magnitude());
                    }
                    d2 = dd;
                }
                d1 = d;
            }
            prev = o;
        }
        block.delta_width = bits_needed_u64(block_or);
        block.second_diff = second;
        block.third_diff = third;
    }
}

/// The integer the pass computes differences in: `i64` where it cannot
/// overflow, `i128` otherwise.
trait Lane: Copy + PartialEq + std::ops::Sub<Output = Self> {
    const ZERO: Self;
    fn magnitude(self) -> u128;
    /// The low 64 bits, as `i64`.
    fn low(self) -> i64;
}

impl Lane for i64 {
    const ZERO: Self = 0;
    fn magnitude(self) -> u128 {
        self.unsigned_abs().into()
    }
    fn low(self) -> i64 {
        self
    }
}

impl Lane for i128 {
    const ZERO: Self = 0;
    fn magnitude(self) -> u128 {
        self.unsigned_abs()
    }
    fn low(self) -> i64 {
        self as i64
    }
}

/// Bits needed by a magnitude.
fn bits(m: u128) -> usize {
    128 - m.leading_zeros() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_column() {
        let s = ColumnStats::collect(&ColumnData::U32(vec![]));
        assert_eq!(s.n, 0);
        assert_eq!(s.runs, 0);
        assert_eq!(s.longest_run, 0);
        assert_eq!(s.min, None);
        assert_eq!(s.ns_width, Some(0));
        assert!(s.blocks.is_empty());
        assert_eq!(s.blocks_at(DEFAULT_SEG_LEN), Some(&[][..]));
    }

    #[test]
    fn basic_statistics() {
        let s = ColumnStats::collect(&ColumnData::U32(vec![5, 5, 5, 9, 9, 5]));
        assert_eq!(s.n, 6);
        assert_eq!(s.runs, 3);
        assert_eq!(s.longest_run, 3);
        assert_eq!((s.min, s.max), (Some(5), Some(9)));
        assert_eq!(s.ns_width, Some(4));
        assert_eq!(s.jump_widths[0], 3);
        assert_eq!(s.jump_widths[3], 2);
        assert_eq!(s.blocks.len(), 1);
        assert_eq!(s.blocks[0].runs, 3);
        assert_eq!(s.blocks[0].first, 5);
        assert_eq!(s.distinct, 2);
        assert_eq!(s.offset_widths[0], 4);
        assert_eq!(s.offset_widths[3], 2);
    }

    #[test]
    fn distinct_bounds_the_count() {
        let col = ColumnData::U64((0..4096u64).map(|i| i % 50).collect());
        assert_eq!(ColumnStats::collect(&col).distinct, 50);
        // Multiples of 2^52 all differ, whatever buckets they share.
        let col = ColumnData::U64((0..4096u64).map(|i| (i % 4) << 52).collect());
        let d = ColumnStats::collect(&col).distinct;
        assert!((1..=4).contains(&d));
        let col = ColumnData::U64((0..4096u64).map(|i| i * 2654435761).collect());
        assert!(ColumnStats::collect(&col).distinct <= 4096);
    }

    #[test]
    fn negative_columns_have_no_ns_width() {
        let s = ColumnStats::collect(&ColumnData::I32(vec![-1, 2]));
        assert_eq!(s.ns_width, None);
        assert_eq!(s.zz_width, 3);
    }

    #[test]
    fn delta_width_tracks_gaps() {
        // Constant deltas of +1 -> zigzag 2 -> width 2.
        let s = ColumnStats::collect(&ColumnData::U64((0..100).collect()));
        assert_eq!(s.delta_width, 2);
        // A single big jump dominates.
        let s = ColumnStats::collect(&ColumnData::U64(vec![0, 1, 1 << 40]));
        assert!(s.delta_width > 40);
    }

    #[test]
    fn narrow_deltas_wrap_like_delta_stores_them() {
        // 0 -> 4e9 is +4e9 numerically but -294967296 as an i32 delta.
        let s = ColumnStats::collect(&ColumnData::U32(vec![0, 4_000_000_000]));
        assert_eq!(s.delta_width, zz_bits(4_000_000_000u32 as i32 as i64));
        // Within a block DFOR keeps the 64-bit difference.
        assert_eq!(s.blocks[0].delta_width, zz_bits(4_000_000_000));
    }

    #[test]
    fn for_widths_respect_segments() {
        // Two segments with tiny internal spread but far-apart levels.
        let mut data = vec![1_000_000u64; 128];
        data.extend(vec![5u64; 128]);
        for (i, v) in data.iter_mut().enumerate() {
            *v += (i % 4) as u64;
        }
        let s = ColumnStats::collect_with_seg_len(&ColumnData::U64(data), 128);
        let ranges: Vec<i128> = s.blocks.iter().map(|b| b.max - b.min).collect();
        assert_eq!(ranges, vec![3, 3]);
        // The jump between the blocks is global, not in-block.
        assert!(s.blocks.iter().all(|b| b.delta_width <= 3));
        assert!(s.delta_width > 20);
        assert_eq!(s.blocks_at(64), None);
    }

    #[test]
    fn exception_rate_sees_outliers() {
        // One wide offset among narrow ones: exactly one row of the
        // offset histogram is wide, the PFOR exception.
        let mut data = vec![10u64; 1000];
        data[500] = 1 << 40;
        let s = ColumnStats::collect(&ColumnData::U64(data));
        assert_eq!(s.offset_widths[40], 1);
        assert_eq!(s.offset_widths[0], 999);
        assert_eq!(s.offset_widths_at(DEFAULT_SEG_LEN), Some(&s.offset_widths));
    }

    #[test]
    fn differences_see_curvature() {
        // v = i^2: second difference 2, third difference 0.
        let s = ColumnStats::collect(&ColumnData::U64((0..100u64).map(|i| i * i).collect()));
        assert_eq!(s.blocks[0].second_diff, 2);
        assert_eq!(s.blocks[0].third_diff, 0);
    }

    #[test]
    fn residual_width_bounds_the_model() {
        assert_eq!(residual_width(0, 2), 0);
        // A second difference of 8: some |r| >= 2, zigzag >= 3.
        assert_eq!(residual_width(8, 2), 2);
        assert_eq!(residual_width(9, 2), 3);
        assert_eq!(residual_width(u128::MAX, 2), 64);
    }

    #[test]
    fn extreme_deltas_wrap() {
        let s = ColumnStats::collect(&ColumnData::I64(vec![i64::MIN, i64::MAX]));
        // i64::MAX - i64::MIN wraps to -1 as a stored delta.
        assert_eq!(s.delta_width, 1);
        assert_eq!(s.jump_widths[64], 1);
    }

    #[test]
    fn shape_is_weakest() {
        let s = ColumnStats::shape(10, DType::U64);
        assert_eq!((s.runs, s.ns_width, s.zz_width), (1, Some(0), 0));
        assert_eq!(s.plain_bytes(), 80);
        assert_eq!(s.blocks_at(DEFAULT_SEG_LEN), None);
    }
}
