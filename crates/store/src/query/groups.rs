//! The group-by sink's table: one hash probe per *key unit*, dense
//! accumulators per row.
//!
//! A key is hashed once per unit a tier can name — a constant segment,
//! a run, a touched dictionary code, or (row tier) a row — and resolves
//! to a dense *slot*. Everything per row then happens in slot space:
//! the value columns fold through `slots[unit of row]` into plain
//! arrays, one typed pass per column, with no hashing, no key decode
//! and no per-group heap object on the way.

use crate::agg::{AggResult, Native};
use crate::hash::IntMap;

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

    /// Resolve a segment's key units — dictionary codes, or rows — to
    /// slots: `units` yields each unit's `(key, selected rows)` in unit
    /// order. A unit with no selected rows gets no group, and
    /// [`GroupTable::fold`] never reads its slot.
    pub(crate) fn resolve(&mut self, units: impl Iterator<Item = (i128, usize)>) {
        let mut slots = std::mem::take(&mut self.slots);
        slots.clear();
        slots.extend(units.map(|(key, rows)| match rows {
            0 => 0,
            _ => self.slot(key, rows),
        }));
        self.slots = slots;
    }

    /// Fold `values[i]` for every `i` of `rows` into value column `col`,
    /// at the slot [`GroupTable::resolve`] gave unit `unit_of(i)`: the
    /// per-row kernel, monomorphic in the column's native type.
    pub(crate) fn fold<T: Native>(
        &mut self,
        col: usize,
        values: &[T],
        rows: impl Iterator<Item = usize>,
        unit_of: impl Fn(usize) -> usize,
    ) {
        let slots = &self.slots[..];
        let GroupCol {
            extrema,
            sum,
            min,
            max,
        } = &mut self.cols[col];
        if *extrema {
            rows.for_each(|i| {
                let (slot, v): (usize, i128) = (slots[unit_of(i)], values[i].into());
                sum[slot] += v;
                min[slot] = min[slot].min(v);
                max[slot] = max[slot].max(v);
            });
        } else {
            rows.for_each(|i| sum[slots[unit_of(i)]] += values[i].into());
        }
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

    /// Merge another partial table in (parallel partials, shard fan-in).
    pub(crate) fn merge(&mut self, other: &GroupTable) {
        for (key, rows, per_col) in other.groups() {
            let slot = self.slot(key, rows);
            for (col, part) in per_col.iter().enumerate() {
                self.absorb(col, slot, part);
            }
        }
    }
}
