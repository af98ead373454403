//! The group-by sink's table: one hash probe per *key unit*, dense
//! accumulators per unit.
//!
//! A key is hashed once per unit a tier can name — a constant segment,
//! a run, or a segment-local distinct key — and resolves to a dense
//! *slot*. The value columns fold first into per-unit sums
//! ([`UnitFold`]) straight off their streams, with no hashing, no key
//! decode and no per-group heap object on the way, and each unit
//! reaches its slot once. A DICT key folds per code of its dictionary
//! instead ([`CodeFold`]), across every segment that shares it, and
//! each touched code reaches its slot once per dictionary.

use super::codes::{CodeFold, SegmentCodes};
use crate::agg::{narrow_fits, widen, AggResult};
use crate::hash::IntMap;
use crate::segment::Segment;
use crate::{Result, StoreError};

/// One value column's running aggregates, struct-of-arrays by slot.
/// `min`/`max` are kept only when the plan asks for an extremum of the
/// column (`extrema`): a `SUM`-only fold then touches one array, not
/// three.
#[derive(Debug, Clone)]
struct GroupCol {
    extrema: bool,
    sum: Vec<i128>,
    min: Vec<i128>,
    max: Vec<i128>,
}

/// See the module doc. `keys`, `rows` and every column's arrays are
/// parallel, indexed by slot; `slot_of` is their only index.
#[derive(Debug, Clone)]
pub(crate) struct GroupTable {
    slot_of: IntMap<i128, usize>,
    keys: Vec<i128>,
    rows: Vec<usize>,
    cols: Vec<GroupCol>,
    /// Scratch of the segment being visited: the slot of each of its
    /// key units ([`GroupTable::resolve`]). Reused across segments,
    /// never merged.
    slots: Vec<usize>,
    /// The DICT tier's per-code fold, pending until its dictionary
    /// changes or the table is merged ([`GroupTable::resolve_codes`]).
    codes: CodeFold,
}

impl GroupTable {
    /// An empty table with one value column per entry of `extrema`,
    /// which says whether that column's `MIN`/`MAX` will be read.
    pub(crate) fn new(extrema: impl Iterator<Item = bool>) -> GroupTable {
        GroupTable {
            slot_of: IntMap::default(),
            keys: Vec::new(),
            rows: Vec::new(),
            cols: extrema
                .map(|extrema| GroupCol {
                    extrema,
                    sum: Vec::new(),
                    min: Vec::new(),
                    max: Vec::new(),
                })
                .collect(),
            slots: Vec::new(),
            codes: CodeFold::default(),
        }
    }

    /// The slot of `key` — created empty on first sight — credited with
    /// `rows` more rows.
    pub(crate) fn slot(&mut self, key: i128, rows: usize) -> usize {
        let GroupTable {
            slot_of,
            keys,
            rows: counts,
            cols,
            ..
        } = self;
        let slot = *slot_of.entry(key).or_insert_with(|| {
            keys.push(key);
            counts.push(0);
            for col in cols.iter_mut() {
                col.sum.push(0);
                if col.extrema {
                    col.min.push(i128::MAX);
                    col.max.push(i128::MIN);
                }
            }
            keys.len() - 1
        });
        counts[slot] += rows;
        slot
    }

    /// Resolve a segment's key units — the constant, runs or
    /// segment-local keys — to slots: `units` yields each unit's `(key,
    /// selected rows)` in unit order. A unit with no selected rows gets
    /// no group, and [`GroupTable::absorb_units`] never reads its slot.
    pub(crate) fn resolve(&mut self, units: impl Iterator<Item = (i128, usize)>) {
        let mut slots = std::mem::take(&mut self.slots);
        slots.clear();
        slots.extend(units.map(|(key, rows)| match rows {
            0 => 0,
            _ => self.slot(key, rows),
        }));
        self.slots = slots;
    }

    /// Count one DICT key segment's selected rows per code, resolving
    /// the pending dictionary first when `codes` reads another. Returns
    /// how many codes the segment touched.
    pub(crate) fn fold_codes(&mut self, codes: &SegmentCodes<'_>) -> Result<usize> {
        if !self.codes.holds(&codes.dict) {
            self.resolve_codes()?;
            let extrema = self.cols.iter().map(|col| col.extrema);
            self.codes.start(&codes.dict, codes.len, extrema);
        }
        Ok(self.codes.add_rows(codes.counts))
    }

    /// Fold value segment `seg` into value column `col` per code of the
    /// key segment [`GroupTable::fold_codes`] last counted, whose codes
    /// are `codes`.
    pub(crate) fn fold_code_values(
        &mut self,
        col: usize,
        seg: &Segment,
        codes: &[u32],
    ) -> Result<()> {
        self.codes.fold(col, seg, codes)
    }

    /// Resolve the pending dictionary's touched codes to slots, once
    /// each, folding their rows and aggregates in.
    pub(crate) fn resolve_codes(&mut self) -> Result<()> {
        let mut codes = std::mem::take(&mut self.codes);
        let resolved = codes.resolve(|key, rows, part| {
            let slot = self.slot(key, rows as usize);
            for col in 0..self.cols.len() {
                self.absorb(col, slot, &part(col));
            }
        });
        self.codes = codes;
        resolved
    }

    /// Whether value column `col` keeps MIN / MAX.
    pub(crate) fn extrema(&self, col: usize) -> bool {
        self.cols[col].extrema
    }

    /// Fold one pre-aggregated part per key unit into value column
    /// `col`, at the slots [`GroupTable::resolve`] gave the units:
    /// `part(u)` for every unit `u` that has selected rows.
    pub(crate) fn absorb_units(
        &mut self,
        col: usize,
        rows: impl Iterator<Item = usize>,
        part: impl Fn(usize) -> AggResult,
    ) {
        let slots = std::mem::take(&mut self.slots);
        for (unit, rows) in rows.enumerate() {
            if rows > 0 {
                self.absorb(col, slots[unit], &part(unit));
            }
        }
        self.slots = slots;
    }

    /// Fold a pre-aggregated part (a run, a whole segment) into `slot`
    /// of value column `col`.
    pub(crate) fn absorb(&mut self, col: usize, slot: usize, part: &AggResult) {
        let col = &mut self.cols[col];
        col.sum[slot] += part.sum;
        if let (true, Some(min), Some(max)) = (col.extrema, part.min, part.max) {
            col.min[slot] = col.min[slot].min(min);
            col.max[slot] = col.max[slot].max(max);
        }
    }

    /// Every group as `(key, rows, aggregates per value column)`, in
    /// first-seen order. An extremum the plan never asked for reads
    /// `None`.
    pub(crate) fn groups(&self) -> impl Iterator<Item = (i128, usize, Vec<AggResult>)> + '_ {
        self.keys
            .iter()
            .zip(&self.rows)
            .enumerate()
            .map(|(slot, (&key, &rows))| {
                let per_col = self.cols.iter().map(|col| {
                    let tracked = col.extrema && rows > 0;
                    AggResult {
                        sum: col.sum[slot],
                        min: tracked.then(|| col.min[slot]),
                        max: tracked.then(|| col.max[slot]),
                        count: rows,
                    }
                });
                (key, rows, per_col.collect())
            })
    }

    /// Merge another partial table in (a job's lease slots), whose
    /// codes are resolved.
    pub(crate) fn merge(&mut self, other: &GroupTable) {
        for (key, rows, per_col) in other.groups() {
            let slot = self.slot(key, rows);
            for (col, part) in per_col.iter().enumerate() {
                self.absorb(col, slot, part);
            }
        }
    }
}

/// One value column's running sums (and extrema) per key unit of a
/// segment — a segment-local key id — folded
/// straight off the value stream. Sums run in `u64` while
/// [`narrow_fits`] proves no unit's sum can overflow — every unit
/// accumulates at most the segment's rows, each below the OR of all
/// values seen — and switch to exact `i128` for the rest of the segment
/// the moment it cannot. Reused across segments (per lease slot).
#[derive(Debug, Default)]
pub(crate) struct UnitFold {
    narrow: Vec<u64>,
    wide: Vec<i128>,
    min: Vec<i128>,
    max: Vec<i128>,
    or: u64,
    is_wide: bool,
    extrema: bool,
}

impl UnitFold {
    /// Fold `seg`'s values into the unit of each row: row `i` belongs to
    /// `units[i]`, every unit below `count`.
    pub(crate) fn fold(
        &mut self,
        seg: &Segment,
        units: &[u32],
        count: usize,
        extrema: bool,
    ) -> Result<()> {
        let reset = |v: &mut Vec<i128>, fill| {
            v.clear();
            v.resize(count, fill);
        };
        self.narrow.clear();
        self.narrow.resize(count, 0);
        self.wide.clear();
        (self.or, self.is_wide, self.extrema) = (0, false, extrema);
        if extrema {
            reset(&mut self.min, i128::MAX);
            reset(&mut self.max, i128::MIN);
        }
        let signed = seg.compressed.dtype.signed();
        let (mut pos, mut aligned) = (0usize, true);
        seg.visit(&mut |chunk| {
            let Some(rows) = units.get(pos..pos + chunk.len()) else {
                aligned = false;
                return;
            };
            pos += chunk.len();
            self.or |= chunk.iter().fold(0, |or, &v| or | v);
            if !self.is_wide && !narrow_fits(units.len(), self.or, signed) {
                self.wide.extend(self.narrow.iter().map(|&s| s as i128));
                self.is_wide = true;
            }
            if self.is_wide {
                for (&unit, &v) in rows.iter().zip(chunk) {
                    self.wide[unit as usize] += widen(v, signed);
                }
            } else {
                for (&unit, &v) in rows.iter().zip(chunk) {
                    let sum = &mut self.narrow[unit as usize];
                    *sum = sum.wrapping_add(v);
                }
            }
            if extrema {
                for (&unit, &v) in rows.iter().zip(chunk) {
                    let (v, unit) = (widen(v, signed), unit as usize);
                    self.min[unit] = self.min[unit].min(v);
                    self.max[unit] = self.max[unit].max(v);
                }
            }
        })?;
        if !aligned || pos != units.len() {
            return Err(StoreError::Shape(format!(
                "value segment of {} rows against {} key rows",
                seg.num_rows(),
                units.len()
            )));
        }
        Ok(())
    }

    /// Unit `unit`'s aggregate over the segment (its count is the
    /// caller's: rows per unit are counted once, for every column).
    pub(crate) fn part(&self, unit: usize) -> AggResult {
        AggResult {
            sum: if self.is_wide {
                self.wide[unit]
            } else {
                self.narrow[unit] as i128
            },
            min: self.extrema.then(|| self.min[unit]),
            max: self.extrema.then(|| self.max[unit]),
            count: 0,
        }
    }
}
