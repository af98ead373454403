//! Approximate and gradual-refinement aggregation from model metadata
//! (paper §II-B: "the rough correspondence of the column data to a
//! simple model can be used [...] in the context of approximate or
//! gradual-refinement query processing").
//!
//! ```text
//! cargo run --release --example approximate_query
//! ```
//!
//! A sensor-readings table is scanned for `SUM(v)`. Instead of the
//! exact answer, the store first answers from zone maps alone — an
//! *interval certified to contain the truth* — then refines
//! widest-segment-first until the interval is tight enough.

use lcdc::core::{ColumnData, DType};
use lcdc::store::segment::CompressionPolicy;
use lcdc::store::table::Table;
use lcdc::store::{GradualAggregate, TableSchema};

fn main() {
    // A drifting random walk: sensor-like, locally tight, globally wide.
    let readings = ColumnData::U64(lcdc::datagen::steps::bounded_walk(1 << 20, 1 << 28, 48, 42));
    let schema = TableSchema::new(&[("v", DType::U64)]);
    let table = Table::build(
        schema,
        std::slice::from_ref(&readings),
        &[CompressionPolicy::Auto],
        8192,
    )
    .expect("table builds");

    let exact: i128 = lcdc::store::agg::aggregate_plain(&readings).sum;
    println!(
        "{} rows in {} segments; exact SUM = {exact}\n",
        table.num_rows(),
        table.num_segments()
    );

    let mut g = GradualAggregate::new(&table, "v").expect("aggregate starts");
    let zero_read = g.interval();
    assert!(zero_read.contains_sum(exact));
    println!(
        "segments read:   0  interval width {:>14}  (zone maps only)",
        zero_read.sum_width()
    );

    // Refine widest-first to successively tighter tolerances.
    for tolerance in [4e-6f64, 1e-6, 1e-7, 0.0] {
        let read = g.refine_to(tolerance).expect("refines");
        let interval = g.interval();
        assert!(interval.contains_sum(exact), "certification must hold");
        println!(
            "segments read: {:>3}  interval width {:>14}  (tolerance {tolerance})",
            read,
            interval.sum_width()
        );
    }
    println!("\nevery intermediate answer was certified to contain the exact SUM ✓");
}
