//! The classic filtered-aggregate query, as a thin adapter over the
//! planner.
//!
//! [`Query`] predates the logical-plan API: one filter plus one
//! aggregate column (the canonical analytic scan shape, "total quantity
//! shipped in this date range"). It survives as a convenience wrapper —
//! [`Query::run_naive`] and [`Query::run_pushdown`] compile to the same
//! [`crate::QueryBuilder`] plan in naive and pushdown mode respectively,
//! so the E7/E8 benches keep measuring exactly the separation the
//! planner's tiers produce. New code should use
//! [`crate::QueryBuilder`] directly.

use crate::agg::AggResult;
use crate::predicate::Predicate;
use crate::query::{Agg, QueryBuilder, QueryResult};
use crate::table::Table;
use crate::Result;

pub use crate::query::QueryStats;

/// A filtered aggregate over one table.
#[derive(Debug, Clone)]
pub struct Query {
    /// Column the predicate applies to.
    pub filter_column: String,
    /// The predicate.
    pub predicate: Predicate,
    /// Column to aggregate.
    pub agg_column: String,
}

/// The answer plus execution accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOutput {
    /// The aggregate over the selected rows.
    pub agg: AggResult,
    /// Execution counters.
    pub stats: QueryStats,
}

impl Query {
    /// Construct a filtered-aggregate query.
    pub fn new(filter_column: &str, predicate: Predicate, agg_column: &str) -> Self {
        Query {
            filter_column: filter_column.to_string(),
            predicate,
            agg_column: agg_column.to_string(),
        }
    }

    /// The equivalent logical plan: the filter, then every aggregate of
    /// the column (an aggregate sink folds them all in one pass anyway).
    pub fn builder<'t>(&self, table: &'t Table) -> QueryBuilder<'t> {
        let col = self.agg_column.as_str();
        QueryBuilder::scan(table)
            .filter(&self.filter_column, self.predicate.clone())
            .aggregate(&[Agg::Sum(col), Agg::Min(col), Agg::Max(col), Agg::Count])
    }

    /// Decompress-everything baseline.
    pub fn run_naive(&self, table: &Table) -> Result<QueryOutput> {
        self.builder(table).execute_naive().map(output)
    }

    /// Compression-aware execution through every pushdown tier.
    pub fn run_pushdown(&self, table: &Table) -> Result<QueryOutput> {
        self.builder(table).execute().map(output)
    }
}

/// Reassemble the aggregated column's [`AggResult`] from the
/// `[sum, min, max, count]` row [`Query::builder`] requests.
fn output(result: QueryResult) -> QueryOutput {
    let agg = match result.aggregates() {
        Some(&[Some(sum), min, max, Some(count)]) => AggResult {
            sum,
            min,
            max,
            count: count as usize,
        },
        _ => unreachable!("filtered-aggregate plan yields [sum, min, max, count]"),
    };
    QueryOutput {
        agg,
        stats: result.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;
    use crate::segment::CompressionPolicy;
    use lcdc_core::{ColumnData, DType};

    fn orders_table(policy: CompressionPolicy) -> Table {
        // 100 days x 100 orders; quantity cycles 1..=50.
        let schema = TableSchema::new(&[("date", DType::U64), ("qty", DType::U64)]);
        let date = ColumnData::U64((0..10_000u64).map(|i| 20_180_101 + i / 100).collect());
        let qty = ColumnData::U64((0..10_000u64).map(|i| 1 + i % 50).collect());
        Table::build(schema, &[date, qty], &[policy.clone(), policy], 1000).unwrap()
    }

    fn range_query(lo: u64, hi: u64) -> Query {
        Query::new(
            "date",
            Predicate::Range {
                lo: lo as i128,
                hi: hi as i128,
            },
            "qty",
        )
    }

    #[test]
    fn naive_and_pushdown_agree() {
        let table = orders_table(CompressionPolicy::Auto);
        for (lo, hi) in [
            (20_180_101, 20_180_200), // all
            (20_180_110, 20_180_115), // narrow
            (20_190_101, 20_190_102), // none
            (20_180_105, 20_180_105), // single day
        ] {
            let q = range_query(lo, hi);
            let naive = q.run_naive(&table).unwrap();
            let push = q.run_pushdown(&table).unwrap();
            assert_eq!(naive.agg, push.agg, "range {lo}..{hi}");
        }
    }

    #[test]
    fn pushdown_materializes_fewer_rows() {
        let table = orders_table(CompressionPolicy::Auto);
        let q = range_query(20_180_110, 20_180_115);
        let naive = q.run_naive(&table).unwrap();
        let push = q.run_pushdown(&table).unwrap();
        // Naive counts each row once, even though it decompresses both
        // the filter and the aggregate column of every segment: rows
        // materialised is a row count, not a (column, row) count.
        assert_eq!(naive.stats.rows_materialized, table.num_rows());
        assert!(
            push.stats.rows_materialized * 2 < naive.stats.rows_materialized,
            "pushdown {} vs naive {}",
            push.stats.rows_materialized,
            naive.stats.rows_materialized
        );
        assert!(push.stats.pushdown.zonemap_hits > 0);
    }

    #[test]
    fn all_predicate_with_run_structured_agg_never_materializes() {
        // Filter All never touches the filter column; the date column's
        // run structure lets the sum run entirely on the compressed form.
        let schema = TableSchema::new(&[("date", DType::U64), ("qty", DType::U64)]);
        let date = ColumnData::U64((0..10_000u64).map(|i| 20_180_101 + i / 100).collect());
        let qty = ColumnData::U64((0..10_000u64).map(|i| 1 + i % 50).collect());
        let table = Table::build(
            schema,
            &[date, qty],
            &[
                CompressionPolicy::Fixed("rle[values=delta[deltas=ns],lengths=ns]".into()),
                CompressionPolicy::Auto,
            ],
            1000,
        )
        .unwrap();
        let q = Query::new("qty", Predicate::All, "date");
        let push = q.run_pushdown(&table).unwrap();
        assert_eq!(push.stats.rows_materialized, 0, "{:?}", push.stats);
        assert!(push.stats.segments_structural > 0);
        let naive = q.run_naive(&table).unwrap();
        assert_eq!(naive.agg, push.agg);
    }

    #[test]
    fn empty_selection_sums_to_zero() {
        let table = orders_table(CompressionPolicy::Auto);
        let q = range_query(1, 2);
        let out = q.run_pushdown(&table).unwrap();
        assert_eq!(out.agg.count, 0);
        assert_eq!(out.agg.sum, 0);
        assert_eq!(out.stats.rows_materialized, 0);
        assert_eq!(out.stats.segments_pruned, table.num_segments());
    }

    #[test]
    fn works_on_uncompressed_tables_too() {
        let table = orders_table(CompressionPolicy::None);
        let q = range_query(20_180_110, 20_180_120);
        let naive = q.run_naive(&table).unwrap();
        let push = q.run_pushdown(&table).unwrap();
        assert_eq!(naive.agg, push.agg);
    }

    #[test]
    fn unknown_columns_error() {
        let table = orders_table(CompressionPolicy::None);
        assert!(Query::new("nope", Predicate::All, "qty")
            .run_naive(&table)
            .is_err());
        assert!(Query::new("date", Predicate::All, "nope")
            .run_pushdown(&table)
            .is_err());
    }

    #[test]
    fn eq_predicate_on_single_day() {
        let table = orders_table(CompressionPolicy::Auto);
        let q = Query::new("date", Predicate::Eq(20_180_105), "qty");
        let naive = q.run_naive(&table).unwrap();
        let push = q.run_pushdown(&table).unwrap();
        assert_eq!(naive.agg, push.agg);
        assert_eq!(naive.agg.count, 100);
    }
}
