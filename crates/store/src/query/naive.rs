//! The decoded baseline: every query answered by decoding each column
//! it touches, segment by segment, and testing and folding row by row.
//!
//! This is the oracle the pushdown tiers are tested and benchmarked
//! against ([`super::QueryBuilder::execute_naive`]), so past the
//! compiled plan it shares nothing with them: no zone maps, no scheme
//! tiers, no executor, no sink states — one sequential pass over
//! `i128` rows. Its ledger is the decoded one: every segment with a
//! touched column charges [`QueryStats::rows_materialized`] once, no
//! segment is pruned but an empty one or one the filters empty, and the
//! structural counters stay 0.

use super::physical::{AggSpec, Leaf, PhysicalPlan, Sink};
use super::result::{eval_spec, QueryResult, Rows};
use super::stats::QueryStats;
use crate::agg::AggResult;
use crate::hash::IntMap;
use crate::table::Table;
use crate::{Result, StoreError};
use lcdc_core::with_column;

/// Run `plan` on the decoded baseline.
pub(crate) fn execute(plan: &PhysicalPlan) -> Result<QueryResult> {
    let table = &plan.table;
    let mut stats = QueryStats::default();
    let mut answer = Answer::default();
    for seg in 0..table.num_segments() {
        stats.segments += 1;
        let mut rows = Decoded {
            table,
            seg,
            n: table.meta_at(0, seg).rows,
            cols: Vec::new(),
        };
        let selected = rows.filter(&plan.filters, &mut stats)?;
        if selected.is_empty() {
            stats.segments_pruned += 1;
            continue;
        }
        stats.values_processed += selected.len();
        answer.fold(&plan.sink, &selected, &mut rows, &mut stats)?;
    }
    let rows = answer.finish(&plan.sink, &mut stats)?;
    Ok(QueryResult { rows, stats })
}

/// One segment's decoded columns, each decoded on first use.
struct Decoded<'t> {
    table: &'t Table,
    seg: usize,
    n: usize,
    cols: Vec<(usize, Vec<i128>)>,
}

impl Decoded<'_> {
    /// Where column `col`'s rows sit in `cols`, fetching and decoding
    /// them on first use. The first decode of the segment charges its
    /// rows as materialised.
    fn load(&mut self, col: usize, stats: &mut QueryStats) -> Result<usize> {
        if let Some(at) = self.cols.iter().position(|(c, _)| *c == col) {
            return Ok(at);
        }
        let values = decode(self.table, col, self.seg, stats)?;
        if self.cols.is_empty() {
            stats.rows_materialized += self.n;
        }
        self.cols.push((col, values));
        Ok(self.cols.len() - 1)
    }

    /// Column `col`'s rows (see [`Decoded::load`]).
    fn column(&mut self, col: usize, stats: &mut QueryStats) -> Result<&[i128]> {
        let at = self.load(col, stats)?;
        Ok(&self.cols[at].1)
    }

    /// The rows every CNF clause keeps (some leaf of the clause holds),
    /// ascending; later clauses stop decoding once none is left.
    fn filter(&mut self, clauses: &[Vec<Leaf>], stats: &mut QueryStats) -> Result<Vec<usize>> {
        let mut rows: Vec<usize> = (0..self.n).collect();
        for clause in clauses {
            if rows.is_empty() {
                break;
            }
            let mut keep = vec![false; self.n];
            for (col, _, predicate) in clause {
                let values = self.column(*col, stats)?;
                for &row in &rows {
                    keep[row] |= predicate.test(values[row]);
                }
            }
            rows.retain(|&row| keep[row]);
        }
        Ok(rows)
    }
}

/// Fetch and decode one segment of one column into `i128` rows.
fn decode(table: &Table, col: usize, seg: usize, stats: &mut QueryStats) -> Result<Vec<i128>> {
    let segment = table.source_at(col).segment(seg)?;
    stats.segments_loaded += 1;
    let plain = segment.decompress()?;
    let rows = table.meta_at(col, seg).rows;
    if plain.len() != rows {
        return Err(StoreError::Shape(format!(
            "column {col} decoded to {} rows in a segment of {rows}",
            plain.len()
        )));
    }
    Ok(with_column!(&plain, |values| values
        .iter()
        .map(|&v| v.into())
        .collect()))
}

/// The running answer: folds per group (an aggregate is the one group
/// keyed 0), the largest values seen (top-k: at most `k` between
/// segments), or selected rows per value (distinct, a join's left).
#[derive(Default)]
struct Answer {
    groups: IntMap<i128, (usize, Vec<AggResult>)>,
    top: Vec<i128>,
    counts: IntMap<i128, i128>,
}

impl Answer {
    /// Fold one segment's `selected` rows into the answer.
    fn fold(
        &mut self,
        sink: &Sink,
        selected: &[usize],
        rows: &mut Decoded<'_>,
        stats: &mut QueryStats,
    ) -> Result<()> {
        match sink {
            Sink::Aggregate { cols, .. } | Sink::GroupBy { cols, .. } => {
                let key = match sink {
                    Sink::GroupBy { key, .. } => Some(rows.load(*key, stats)?),
                    _ => None,
                };
                let cols = cols
                    .iter()
                    .map(|&col| rows.load(col, stats))
                    .collect::<Result<Vec<_>>>()?;
                for &row in selected {
                    let group = key.map_or(0, |key| rows.cols[key].1[row]);
                    let (count, per_col) = self
                        .groups
                        .entry(group)
                        .or_insert_with(|| (0, vec![AggResult::default(); cols.len()]));
                    *count += 1;
                    for (acc, &at) in per_col.iter_mut().zip(&cols) {
                        acc.push(rows.cols[at].1[row]);
                    }
                }
            }
            Sink::TopK { col, k } => {
                let values = rows.column(*col, stats)?;
                self.top.extend(selected.iter().map(|&row| values[row]));
                if self.top.len() > *k {
                    self.top.select_nth_unstable_by(*k, |a, b| b.cmp(a));
                    self.top.truncate(*k);
                }
            }
            Sink::Distinct { col } | Sink::Join { key: col, .. } => {
                let values = rows.column(*col, stats)?;
                for &row in selected {
                    *self.counts.entry(values[row]).or_insert(0) += 1;
                }
            }
        }
        Ok(())
    }

    /// The finished rows. A join decodes its right side here, once.
    fn finish(mut self, sink: &Sink, stats: &mut QueryStats) -> Result<Rows> {
        let specs_of = |specs: &[AggSpec], per_col: &[AggResult], rows: usize| {
            specs
                .iter()
                .map(|spec| eval_spec(spec, per_col, rows))
                .collect()
        };
        Ok(match sink {
            Sink::Aggregate { specs, cols } => {
                let none = || (0, vec![AggResult::default(); cols.len()]);
                let (rows, per_col) = self.groups.remove(&0).unwrap_or_else(none);
                Rows::Aggregates(specs_of(specs, &per_col, rows))
            }
            Sink::GroupBy { specs, .. } => {
                let mut groups: Vec<_> = self
                    .groups
                    .into_iter()
                    .map(|(key, (rows, per_col))| (key, specs_of(specs, &per_col, rows)))
                    .collect();
                groups.sort_unstable_by_key(|&(key, _)| key);
                Rows::Groups(groups)
            }
            Sink::TopK { .. } => {
                self.top.sort_unstable_by(|a, b| b.cmp(a));
                Rows::TopK(self.top)
            }
            Sink::Distinct { .. } => {
                let mut values: Vec<i128> = self.counts.into_keys().collect();
                values.sort_unstable();
                Rows::Distinct(values)
            }
            Sink::Join { right, .. } => {
                let mut counts: IntMap<i128, i128> = IntMap::default();
                if !self.counts.is_empty() {
                    let table = &right.table;
                    for seg in 0..table.num_segments() {
                        let rows = table.meta_at(right.key, seg).rows;
                        if rows == 0 {
                            continue;
                        }
                        stats.rows_materialized += rows;
                        for v in decode(table, right.key, seg, stats)? {
                            *counts.entry(v).or_insert(0) += 1;
                        }
                    }
                }
                let mut pairs: Vec<(i128, i128)> = self
                    .counts
                    .into_iter()
                    .filter_map(|(key, l)| counts.get(&key).map(|&r| (key, l * r)))
                    .collect();
                pairs.sort_unstable_by_key(|&(key, _)| key);
                Rows::Joined(pairs)
            }
        })
    }
}
