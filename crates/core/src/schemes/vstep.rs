//! VSTEP — variable-length step frames with a residual width budget.
//!
//! §II-B invites "enriching the space of low-dimensional models". FOR's
//! model is a step function with *fixed-length* steps — the segment
//! length ℓ is a parameter, not a property of the data. VSTEP frees the
//! step boundaries: a greedy scan opens a new frame whenever the running
//! `max − min` of the current frame would exceed the residual budget
//! `2^w − 1`, so every offset is guaranteed to fit in `w` bits and the
//! frame boundaries land where the data actually jumps.
//!
//! Structurally VSTEP marries the crate's two decomposition families:
//! its boundary column is RPE's `positions` (exclusive frame ends), its
//! `refs`/`offsets` pair is FOR's — and its decompression DAG is
//! literally RPE's plan (scatter ones at boundaries, prefix-sum to frame
//! ids, gather) feeding Algorithm 2's final addition. A scheme born from
//! re-composing two decomposed halves.
//!
//! Offsets are stored as a plain u64 column; cascade `offsets=ns` to
//! realise the `w`-bit budget as actual storage.

use crate::column::{ColumnData, DType};
use crate::error::{CoreError, Result};
use crate::parts::Parts;
use crate::plan::{Node, Plan};
use crate::scheme::{Compressed, Params, Part, PartData, Scheme};
use crate::stats::ColumnStats;
use lcdc_bitpack::width::bits_needed_u64;
use lcdc_colops::BinOpKind;

/// The variable-length step-frame scheme.
#[derive(Debug, Clone, Copy)]
pub struct VarStep {
    /// Residual width budget in bits (1..=64): every offset < 2^w.
    pub width: u32,
}

impl VarStep {
    /// Construct with the given width budget (clamped to 1..=64).
    pub fn new(width: u32) -> Self {
        VarStep {
            width: width.clamp(1, 64),
        }
    }

    /// The fewest frames a column can take: an adjacent jump wider than
    /// the budget can never share a frame, so each one starts a frame.
    fn frames_floor(&self, stats: &ColumnStats) -> usize {
        let forced: usize = stats.jump_widths[self.width as usize + 1..].iter().sum();
        stats.n.min(1) + forced
    }

    /// The column's range, when it fits the budget: then the column is
    /// one frame and its widest offset is that range.
    fn single_frame_range(&self, stats: &ColumnStats) -> Option<u64> {
        let range = (stats.max? - stats.min?) as u128;
        (range <= self.budget()).then_some(range as u64)
    }

    fn budget(&self) -> u128 {
        if self.width >= 64 {
            u64::MAX as u128
        } else {
            (1u128 << self.width) - 1
        }
    }
}

/// Role of the exclusive frame-end part (u64; last element == n).
pub const ROLE_POSITIONS: &str = "positions";
/// Role of the per-frame reference part (frame minimum, element type).
pub const ROLE_REFS: &str = "refs";
/// Role of the per-element offset part (u64, each < 2^w).
pub const ROLE_OFFSETS: &str = "offsets";

impl Scheme for VarStep {
    fn name(&self) -> String {
        format!("vstep(w={})", self.width)
    }

    fn compress(&self, col: &ColumnData) -> Result<Compressed> {
        let numeric = col.to_numeric();
        let budget = self.budget();
        let mut positions: Vec<u64> = Vec::new();
        let mut refs_numeric: Vec<i128> = Vec::new();
        let (mut lo, mut hi) = (0i128, 0i128);
        let mut frame_start = 0usize;
        for (i, &v) in numeric.iter().enumerate() {
            if i == frame_start {
                (lo, hi) = (v, v);
                continue;
            }
            let (new_lo, new_hi) = (lo.min(v), hi.max(v));
            if (new_hi - new_lo) as u128 > budget {
                positions.push(i as u64);
                refs_numeric.push(lo);
                frame_start = i;
                (lo, hi) = (v, v);
            } else {
                (lo, hi) = (new_lo, new_hi);
            }
        }
        if !numeric.is_empty() {
            positions.push(numeric.len() as u64);
            refs_numeric.push(lo);
        }
        // Offsets relative to the containing frame's minimum.
        let mut offsets: Vec<u64> = Vec::with_capacity(numeric.len());
        let mut frame = 0usize;
        for (i, &v) in numeric.iter().enumerate() {
            while positions[frame] <= i as u64 {
                frame += 1;
            }
            offsets.push((v - refs_numeric[frame]) as u64);
        }
        let refs = ColumnData::from_numeric(col.dtype(), &refs_numeric)
            .expect("frame minima are column values");
        Ok(Compressed {
            scheme_id: self.name(),
            n: col.len(),
            dtype: col.dtype(),
            params: Params::new().with("w", self.width as i64),
            parts: vec![
                Part {
                    role: ROLE_POSITIONS,
                    data: PartData::Plain(ColumnData::U64(positions)),
                },
                Part {
                    role: ROLE_REFS,
                    data: PartData::Plain(refs),
                },
                Part {
                    role: ROLE_OFFSETS,
                    data: PartData::Plain(ColumnData::U64(offsets)),
                },
            ],
        })
    }

    fn decode(&self, parts: &Parts<'_>) -> Result<ColumnData> {
        let c = parts.form();
        let positions = parts.column(ROLE_POSITIONS)?;
        let positions = positions.expect_u64("positions part")?;
        let refs = parts.column(ROLE_REFS)?;
        let refs = refs.as_transport();
        let offsets = parts.column(ROLE_OFFSETS)?;
        let offsets = offsets.expect_u64("offsets part")?;
        validate_form(positions, refs.len(), offsets.len(), c.n)?;
        let mut out = Vec::with_capacity(c.n);
        let mut start = 0u64;
        for (&r, &end) in refs.iter().zip(positions) {
            for i in start..end {
                out.push(r.wrapping_add(offsets[i as usize]));
            }
            start = end;
        }
        Ok(ColumnData::from_transport(c.dtype, out))
    }

    /// The `w` parameter, one end and one reference per frame and `n`
    /// plain offsets.
    fn floor(&self, stats: &ColumnStats) -> Option<usize> {
        Some(8 + self.frames_floor(stats) * (8 + stats.dtype.bytes()) + stats.n * 8)
    }

    fn part_stats(&self, stats: &ColumnStats, role: &str) -> Option<ColumnStats> {
        let frames = self.frames_floor(stats);
        match role {
            ROLE_POSITIONS => Some(ColumnStats::indices(frames, stats.n)),
            ROLE_REFS => Some(ColumnStats::shape(frames, stats.dtype)),
            ROLE_OFFSETS => Some(ColumnStats {
                ns_width: Some(self.single_frame_range(stats).map_or(0, bits_needed_u64)),
                ..ColumnStats::shape(stats.n, DType::U64)
            }),
            _ => None,
        }
    }

    /// RPE's plan (Algorithm 1 sans line 1) composed with Algorithm 2's
    /// final addition — the re-composition this scheme is named for.
    fn plan(&self, c: &Compressed) -> Result<Plan> {
        let num_frames = c.part(ROLE_POSITIONS)?.data.len();
        if c.n == 0 || num_frames == 0 {
            return Plan::new(vec![Node::Const { value: 0, len: 0 }], 0);
        }
        // Parts order: 0 = positions, 1 = refs, 2 = offsets.
        Plan::new(
            vec![
                Node::Part(0),    // %0 positions
                Node::PopBack(0), // %1 interior boundaries
                Node::Const {
                    value: 1,
                    len: num_frames - 1,
                }, // %2 ones
                Node::Scatter {
                    src: 2,
                    positions: 1,
                    len: c.n,
                }, // %3 frame deltas
                Node::PrefixSum(3), // %4 frame ids
                Node::Part(1),    // %5 refs
                Node::Gather {
                    values: 5,
                    indices: 4,
                }, // %6 replicated refs
                Node::Part(2),    // %7 offsets
                Node::Binary {
                    op: BinOpKind::Add,
                    lhs: 6,
                    rhs: 7,
                },
            ],
            8,
        )
    }
}

/// O(log f) positional access: binary-search the frame ends, then
/// `refs[frame] + offsets[pos]`.
pub fn value_at(c: &Compressed, pos: u64) -> Result<u64> {
    let width = c.params.require("w")? as u32;
    c.check_scheme(&VarStep::new(width).name())?;
    let positions = positions_part(c)?;
    let frame = lcdc_colops::search::run_of_position(positions, pos).ok_or(CoreError::ColOps(
        lcdc_colops::ColOpsError::IndexOutOfBounds {
            index: pos as usize,
            len: c.n,
        },
    ))?;
    let r = c
        .plain_part(ROLE_REFS)?
        .get_transport(frame)
        .ok_or_else(|| CoreError::CorruptParts("frame index past refs".into()))?;
    let off = c
        .plain_part(ROLE_OFFSETS)?
        .get_transport(pos as usize)
        .ok_or_else(|| CoreError::CorruptParts("position past offsets".into()))?;
    Ok(r.wrapping_add(off))
}

/// Per-frame `(start, end, lo, hi)` bounds read directly off the
/// compressed form — the zone map VSTEP gives away for free, with
/// data-aligned (rather than arbitrary ℓ-aligned) boundaries.
pub fn frame_bounds(c: &Compressed) -> Result<Vec<(u64, u64, i128, i128)>> {
    let width = c.params.require("w")? as u32;
    c.check_scheme(&VarStep::new(width).name())?;
    let positions = positions_part(c)?;
    let refs = c.plain_part(ROLE_REFS)?;
    let offsets = match c.plain_part(ROLE_OFFSETS)? {
        ColumnData::U64(o) => o,
        _ => return Err(CoreError::CorruptParts("offsets part must be u64".into())),
    };
    validate_form(positions, refs.len(), offsets.len(), c.n)?;
    let mut bounds = Vec::with_capacity(refs.len());
    let mut start = 0u64;
    for (frame, &end) in positions.iter().enumerate() {
        let lo = refs.get_numeric(frame).expect("in range");
        let max_off = offsets[start as usize..end as usize]
            .iter()
            .copied()
            .max()
            .unwrap_or(0);
        bounds.push((start, end, lo, lo + max_off as i128));
        start = end;
    }
    Ok(bounds)
}

fn positions_part(c: &Compressed) -> Result<&[u64]> {
    c.plain_part(ROLE_POSITIONS)?.expect_u64("positions part")
}

fn validate_form(positions: &[u64], num_refs: usize, num_offsets: usize, n: usize) -> Result<()> {
    if positions.len() != num_refs {
        return Err(CoreError::CorruptParts(format!(
            "{num_refs} frame refs but {} frame ends",
            positions.len()
        )));
    }
    if num_offsets != n {
        return Err(CoreError::CorruptParts(format!(
            "{num_offsets} offsets for column length {n}"
        )));
    }
    if positions.windows(2).any(|w| w[0] >= w[1]) {
        return Err(CoreError::CorruptParts(
            "frame ends not strictly increasing".into(),
        ));
    }
    match positions.last() {
        Some(&last) if last != n as u64 => Err(CoreError::CorruptParts(format!(
            "last frame end {last} != column length {n}"
        ))),
        None if n > 0 => Err(CoreError::CorruptParts(
            "non-empty column with no frames".into(),
        )),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::decompress_via_plan;

    /// Steps of uneven length with small within-step jitter.
    fn uneven_steps() -> ColumnData {
        let mut v = Vec::new();
        for (level, len) in [(100i64, 7usize), (5000, 300), (-200, 13), (0, 80)] {
            v.extend((0..len).map(|i| level + (i % 5) as i64));
        }
        ColumnData::I64(v)
    }

    #[test]
    fn round_trip_uneven_steps() {
        let s = VarStep::new(4);
        let col = uneven_steps();
        let c = s.compress(&col).unwrap();
        assert_eq!(s.decompress(&c).unwrap(), col);
        assert_eq!(decompress_via_plan(&s, &c).unwrap(), col);
        // 4 plateaus with jitter < 16 -> exactly 4 frames.
        assert_eq!(c.part(ROLE_POSITIONS).unwrap().data.len(), 4);
    }

    #[test]
    fn offsets_respect_budget() {
        let s = VarStep::new(6);
        let col = ColumnData::U64((0..1000u64).map(|i| i * 17 % 5000).collect());
        let c = s.compress(&col).unwrap();
        let offsets = c.plain_part(ROLE_OFFSETS).unwrap().to_transport();
        assert!(offsets.iter().all(|&o| o < 64), "offset budget violated");
        assert_eq!(s.decompress(&c).unwrap(), col);
    }

    #[test]
    fn total_even_on_extremes() {
        let col = ColumnData::I64(vec![i64::MIN, i64::MAX, 0, i64::MAX, i64::MIN]);
        for w in [1, 32, 64] {
            let s = VarStep::new(w);
            let c = s.compress(&col).unwrap();
            assert_eq!(s.decompress(&c).unwrap(), col, "w={w}");
            assert_eq!(decompress_via_plan(&s, &c).unwrap(), col, "w={w}");
        }
    }

    #[test]
    fn empty_and_single() {
        let s = VarStep::new(8);
        for col in [ColumnData::U32(vec![]), ColumnData::U32(vec![77])] {
            let c = s.compress(&col).unwrap();
            assert_eq!(s.decompress(&c).unwrap(), col);
            assert_eq!(decompress_via_plan(&s, &c).unwrap(), col);
        }
    }

    #[test]
    fn fewer_frames_than_fixed_step_on_uneven_data() {
        // FOR at l=64 must cut the 300-long plateau into 5 segments and
        // pays a wide offset wherever a fixed boundary straddles a jump;
        // VSTEP places exactly one frame per plateau.
        let col = uneven_steps();
        let c = VarStep::new(4).compress(&col).unwrap();
        let frames = c.part(ROLE_POSITIONS).unwrap().data.len();
        assert_eq!(frames, 4);
        assert!(frames < col.len().div_ceil(64));
    }

    #[test]
    fn positional_access_matches() {
        let col = uneven_steps();
        let c = VarStep::new(4).compress(&col).unwrap();
        for pos in [0usize, 6, 7, 306, 307, 319, 320, 399] {
            assert_eq!(
                value_at(&c, pos as u64).unwrap(),
                col.get_transport(pos).unwrap(),
                "position {pos}"
            );
        }
        assert!(value_at(&c, 400).is_err());
    }

    #[test]
    fn frame_bounds_are_sound_and_tight() {
        let col = uneven_steps();
        let c = VarStep::new(4).compress(&col).unwrap();
        let bounds = frame_bounds(&c).unwrap();
        assert_eq!(bounds.len(), 4);
        for &(start, end, lo, hi) in &bounds {
            let mut seen_lo = i128::MAX;
            let mut seen_hi = i128::MIN;
            for i in start..end {
                let v = col.get_numeric(i as usize).unwrap();
                assert!(v >= lo && v <= hi);
                seen_lo = seen_lo.min(v);
                seen_hi = seen_hi.max(v);
            }
            // Tight: bounds equal the actual frame extrema.
            assert_eq!((seen_lo, seen_hi), (lo, hi));
        }
    }

    #[test]
    fn corrupted_forms_rejected() {
        let s = VarStep::new(4);
        let col = uneven_steps();

        let mut c = s.compress(&col).unwrap();
        c.parts[0].data = PartData::Plain(ColumnData::U64(vec![7, 7, 320, 400]));
        assert!(matches!(s.decompress(&c), Err(CoreError::CorruptParts(_))));

        let mut c = s.compress(&col).unwrap();
        c.parts[0].data = PartData::Plain(ColumnData::U64(vec![7, 307, 320, 999]));
        assert!(matches!(s.decompress(&c), Err(CoreError::CorruptParts(_))));

        let mut c = s.compress(&col).unwrap();
        c.parts[2].data = PartData::Plain(ColumnData::U64(vec![0; 3]));
        assert!(matches!(s.decompress(&c), Err(CoreError::CorruptParts(_))));
    }

    #[test]
    fn floor_counts_forced_frames() {
        let col = uneven_steps();
        let stats = ColumnStats::collect(&col);
        let s = VarStep::new(4);
        // Three jumps wider than 15 force exactly the four frames.
        assert_eq!(s.frames_floor(&stats), 4);
        let actual = s.compress(&col).unwrap().compressed_bytes();
        assert_eq!(s.floor(&stats), Some(actual));
    }

    #[test]
    fn width_clamped_and_named() {
        assert_eq!(VarStep::new(0).width, 1);
        assert_eq!(VarStep::new(99).width, 64);
        assert_eq!(VarStep::new(8).name(), "vstep(w=8)");
    }

    #[test]
    fn ns_cascade_on_offsets() {
        use crate::compose::Cascade;
        use crate::schemes::Ns;
        let s = Cascade::new(
            Box::new(VarStep::new(4)),
            vec![("offsets", Box::new(Ns::plain()) as Box<dyn Scheme>)],
        );
        let col = uneven_steps();
        let c = s.compress(&col).unwrap();
        assert_eq!(s.decompress(&c).unwrap(), col);
        assert!(c.ratio().unwrap() > 10.0, "ratio {:?}", c.ratio());
    }
}
