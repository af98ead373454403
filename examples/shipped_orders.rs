//! The shipped-orders scenario end to end: build the lineitem-like
//! table, compress it with per-segment auto choice, and run a date-range
//! revenue query through the naive and pushdown executors.
//!
//! ```text
//! cargo run --release --example shipped_orders
//! ```

use lcdc::core::{ColumnData, DType};
use lcdc::store::{Agg, CompressionPolicy, Predicate, QueryBuilder, Table, TableSchema};
use std::time::Instant;

fn main() {
    let t = lcdc::datagen::tpch_like::lineitem_like(1000, 300, 42);
    println!("generated {} order lines over 1000 days", t.len());

    let schema = TableSchema::new(&[
        ("shipdate", DType::U64),
        ("quantity", DType::U64),
        ("extendedprice", DType::U64),
    ]);
    let table = Table::build(
        schema,
        &[
            ColumnData::U64(t.shipdate),
            ColumnData::U64(t.quantity),
            ColumnData::U64(t.extendedprice),
        ],
        &[
            CompressionPolicy::Auto,
            CompressionPolicy::Auto,
            CompressionPolicy::Auto,
        ],
        16_384,
    )
    .expect("table builds");

    println!(
        "table: {} -> {} bytes ({:.1}x compressed)\n",
        table.uncompressed_bytes(),
        table.compressed_bytes(),
        table.uncompressed_bytes() as f64 / table.compressed_bytes() as f64
    );
    for col in ["shipdate", "quantity", "extendedprice"] {
        let seg = &table.column_segments(col).expect("column exists")[0];
        println!("  {col:<14} first segment scheme: {}", seg.expr);
    }

    // Q: total revenue for a 30-day window.
    let q = QueryBuilder::scan(&table)
        .filter(
            "shipdate",
            Predicate::Range {
                lo: 19_920_201,
                hi: 19_920_301,
            },
        )
        .aggregate(&[Agg::Count, Agg::Sum("extendedprice")]);

    let start = Instant::now();
    let naive = q.execute_naive().expect("naive runs");
    let naive_t = start.elapsed();
    let start = Instant::now();
    let push = q.execute().expect("pushdown runs");
    let push_t = start.elapsed();

    assert_eq!(naive.rows, push.rows, "both executors must agree");
    let (count, revenue) = match push.aggregates() {
        Some(&[Some(count), Some(sum)]) => (count, sum),
        other => panic!("unexpected aggregate row {other:?}"),
    };
    println!("\n30-day revenue query:");
    println!("  rows selected          {count:>12}");
    println!("  SUM(extendedprice)     {revenue:>12}");
    println!(
        "  naive executor         {:>9.2?} ({} rows materialised)",
        naive_t, naive.stats.rows_materialized
    );
    println!(
        "  pushdown executor      {:>9.2?} ({} rows materialised)",
        push_t, push.stats.rows_materialized
    );
    println!(
        "  pushdown tiers: {} zone-map, {} run-granularity, {} row-granularity",
        push.stats.pushdown.zonemap_hits,
        push.stats.pushdown.run_granularity,
        push.stats.pushdown.row_granularity
    );
}
