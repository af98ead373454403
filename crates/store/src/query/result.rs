//! Query results: one shape per sink, plus the unified counters.

use super::physical::{AggSpec, Sink, SinkState};
use super::stats::QueryStats;
use crate::agg::AggKind;
use crate::Result;

/// One aggregate output value. `Min`/`Max` are `None` over zero rows;
/// `Sum` and `Count` are always present (`0` over zero rows).
pub type AggValue = Option<i128>;

/// The rows a query produced, shaped by its sink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rows {
    /// One row of aggregates, in the order they were requested.
    Aggregates(Vec<AggValue>),
    /// `(group key, aggregates)` pairs, ascending by key.
    Groups(Vec<(i128, Vec<AggValue>)>),
    /// The k largest values, descending.
    TopK(Vec<i128>),
    /// Distinct values, ascending.
    Distinct(Vec<i128>),
    /// `(join key, pair count)` rows of an equi-join, ascending by key;
    /// keys with no match on either side are absent.
    Joined(Vec<(i128, i128)>),
}

/// A finished query: rows plus execution accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResult {
    /// The produced rows.
    pub rows: Rows,
    /// How execution went, unified across every operator.
    pub stats: QueryStats,
}

impl QueryResult {
    /// The aggregate row, if this was an `aggregate` query.
    pub fn aggregates(&self) -> Option<&[AggValue]> {
        match &self.rows {
            Rows::Aggregates(values) => Some(values),
            _ => None,
        }
    }

    /// The group rows, if this was a `group_by` query.
    pub fn groups(&self) -> Option<&[(i128, Vec<AggValue>)]> {
        match &self.rows {
            Rows::Groups(groups) => Some(groups),
            _ => None,
        }
    }

    /// The ranked values, if this was a `top_k` query.
    pub fn top_k(&self) -> Option<&[i128]> {
        match &self.rows {
            Rows::TopK(values) => Some(values),
            _ => None,
        }
    }

    /// The distinct values, if this was a `distinct` query.
    pub fn distinct(&self) -> Option<&[i128]> {
        match &self.rows {
            Rows::Distinct(values) => Some(values),
            _ => None,
        }
    }

    /// The `(key, pair count)` rows, if this was a `join` query.
    pub fn joined(&self) -> Option<&[(i128, i128)]> {
        match &self.rows {
            Rows::Joined(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Approximate heap footprint of the produced rows, in bytes — what
    /// the catalog's result cache charges against its byte budget.
    /// Aggregates are a handful of values; a top-k is `k` values; a
    /// high-cardinality group-by can be megabytes. Counting payload
    /// instead of entries is what keeps one huge group-by from pinning
    /// the cache while hundreds of tiny aggregates thrash.
    pub fn payload_bytes(&self) -> usize {
        const VALUE: usize = std::mem::size_of::<i128>();
        const OPT: usize = std::mem::size_of::<AggValue>();
        match &self.rows {
            Rows::Aggregates(values) => values.len() * OPT,
            Rows::Groups(groups) => groups
                .iter()
                .map(|(_, values)| VALUE + values.len() * OPT)
                .sum(),
            Rows::TopK(values) | Rows::Distinct(values) => values.len() * VALUE,
            Rows::Joined(pairs) => pairs.len() * 2 * VALUE,
        }
    }

    pub(crate) fn from_state(
        sink: &Sink,
        state: SinkState,
        stats: QueryStats,
    ) -> Result<QueryResult> {
        let rows = match (state, sink) {
            (SinkState::Aggregate { acc }, Sink::Aggregate { specs, .. }) => Rows::Aggregates(
                specs
                    .iter()
                    .map(|spec| eval_spec(spec, &acc.per_col, acc.rows))
                    .collect(),
            ),
            (SinkState::Groups { table, .. }, Sink::GroupBy { specs, .. }) => {
                let mut out: Vec<(i128, Vec<AggValue>)> = table
                    .groups()
                    .map(|(key, rows, per_col)| {
                        let values = specs
                            .iter()
                            .map(|spec| eval_spec(spec, &per_col, rows))
                            .collect();
                        (key, values)
                    })
                    .collect();
                out.sort_unstable_by_key(|&(key, _)| key);
                Rows::Groups(out)
            }
            (SinkState::TopK { heap, .. }, Sink::TopK { .. }) => {
                let mut values: Vec<i128> =
                    heap.into_iter().map(|std::cmp::Reverse(v)| v).collect();
                values.sort_unstable_by(|a, b| b.cmp(a));
                Rows::TopK(values)
            }
            (SinkState::Distinct { set }, Sink::Distinct { .. }) => {
                let mut values: Vec<i128> = set.into_iter().collect();
                values.sort_unstable();
                Rows::Distinct(values)
            }
            (SinkState::Join { pairs, .. }, Sink::Join { .. }) => {
                let mut out: Vec<(i128, i128)> = pairs.into_iter().collect();
                out.sort_unstable_by_key(|&(key, _)| key);
                Rows::Joined(out)
            }
            _ => unreachable!("sink/state mismatch"),
        };
        Ok(QueryResult { rows, stats })
    }
}

pub(crate) fn eval_spec(
    spec: &AggSpec,
    per_col: &[crate::agg::AggResult],
    rows: usize,
) -> AggValue {
    match (spec.kind, spec.slot) {
        (AggKind::Count, _) => Some(rows as i128),
        (AggKind::Sum, Some(slot)) => Some(per_col[slot].sum),
        (AggKind::Min, Some(slot)) => per_col[slot].min,
        (AggKind::Max, Some(slot)) => per_col[slot].max,
        (kind, None) => unreachable!("{kind:?} without a column"),
    }
}
