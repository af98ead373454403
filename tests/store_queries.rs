//! Store-level integration: the pushdown executor must agree with the
//! naive executor on every query, table, policy and predicate — and the
//! compression-aware paths must actually engage.

use lcdc::core::{ColumnData, DType};
use lcdc::store::{Agg, CompressionPolicy, Predicate, QueryBuilder, Table, TableSchema};
use proptest::prelude::*;

fn lineitem_table(policy: CompressionPolicy, seg_rows: usize) -> Table {
    let t = lcdc::datagen::tpch_like::lineitem_like(200, 80, 99);
    let schema = TableSchema::new(&[
        ("shipdate", DType::U64),
        ("qty", DType::U64),
        ("price", DType::U64),
    ]);
    Table::build(
        schema,
        &[
            ColumnData::U64(t.shipdate),
            ColumnData::U64(t.quantity),
            ColumnData::U64(t.extendedprice),
        ],
        &[policy.clone(), policy.clone(), policy],
        seg_rows,
    )
    .expect("table builds")
}

/// `SUM`, `MIN`, `MAX` and `COUNT` of `agg` over the rows where
/// `filter` satisfies `predicate`.
fn filtered<'t>(
    table: &'t Table,
    filter: &str,
    predicate: Predicate,
    agg: &str,
) -> QueryBuilder<'t> {
    QueryBuilder::scan(table)
        .filter(filter, predicate)
        .aggregate(&[Agg::Sum(agg), Agg::Min(agg), Agg::Max(agg), Agg::Count])
}

#[test]
fn executors_agree_across_policies() {
    let policies = [
        CompressionPolicy::None,
        CompressionPolicy::Auto,
        CompressionPolicy::Fixed("ns".into()),
        CompressionPolicy::Fixed("for(l=128)[offsets=ns]".into()),
    ];
    for policy in policies {
        let table = lineitem_table(policy.clone(), 2048);
        for (filter, agg) in [("shipdate", "price"), ("qty", "price"), ("shipdate", "qty")] {
            for pred in [
                Predicate::All,
                Predicate::Range {
                    lo: 19_920_110,
                    hi: 19_920_150,
                },
                Predicate::Range { lo: 0, hi: 10 },
                Predicate::Eq(19_920_120),
                Predicate::Eq(25),
            ] {
                let q = filtered(&table, filter, pred.clone(), agg);
                let naive = q.execute_naive().expect("naive runs");
                let push = q.execute().expect("pushdown runs");
                assert_eq!(naive.rows, push.rows, "{policy:?} {filter}/{agg} {pred:?}");
            }
        }
    }
}

#[test]
fn materialization_is_lossless_for_every_policy() {
    for policy in [
        CompressionPolicy::None,
        CompressionPolicy::Auto,
        CompressionPolicy::Fixed("varwidth".into()),
    ] {
        let t = lcdc::datagen::tpch_like::lineitem_like(100, 40, 5);
        let schema = TableSchema::new(&[("shipdate", DType::U64)]);
        let col = ColumnData::U64(t.shipdate);
        let table = Table::build(schema, std::slice::from_ref(&col), &[policy], 1000)
            .expect("table builds");
        assert_eq!(table.materialize("shipdate").expect("materializes"), col);
    }
}

#[test]
fn auto_policy_compresses_the_table() {
    let table = lineitem_table(CompressionPolicy::Auto, 4096);
    assert!(
        table.compressed_bytes() * 3 < table.uncompressed_bytes(),
        "{} vs {}",
        table.compressed_bytes(),
        table.uncompressed_bytes()
    );
}

#[test]
fn pushdown_tiers_engage_on_runny_filter_column() {
    // Date column = long runs -> auto picks an RLE composite; a narrow
    // range query must answer mostly from zone maps + run granularity.
    let table = lineitem_table(CompressionPolicy::Auto, 2048);
    let out = filtered(
        &table,
        "shipdate",
        Predicate::Range {
            lo: 19_920_120,
            hi: 19_920_125,
        },
        "price",
    )
    .execute()
    .expect("runs");
    assert!(out.stats.pushdown.zonemap_hits > 0, "{:?}", out.stats);
    assert_eq!(out.stats.pushdown.row_granularity, 0, "{:?}", out.stats);
}

#[test]
fn seg_rows_do_not_change_answers() {
    let window = Predicate::Range {
        lo: 19_920_115,
        hi: 19_920_140,
    };
    let none = lineitem_table(CompressionPolicy::None, 512);
    let reference = filtered(&none, "shipdate", window.clone(), "price")
        .execute_naive()
        .expect("runs")
        .rows;
    for seg_rows in [128usize, 1000, 4096, 1 << 20] {
        let table = lineitem_table(CompressionPolicy::Auto, seg_rows);
        assert_eq!(
            filtered(&table, "shipdate", window.clone(), "price")
                .execute()
                .expect("runs")
                .rows,
            reference,
            "seg_rows={seg_rows}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_range_queries_agree(lo in 19_920_000i128..19_921_000, width in 0i128..400) {
        let table = lineitem_table(CompressionPolicy::Auto, 2048);
        let q = filtered(&table, "shipdate", Predicate::Range { lo, hi: lo + width }, "price");
        prop_assert_eq!(q.execute_naive().unwrap().rows, q.execute().unwrap().rows);
    }

    #[test]
    fn random_qty_queries_agree(lo in 0i128..60, width in 0i128..60) {
        let table = lineitem_table(CompressionPolicy::Auto, 2048);
        let q = filtered(&table, "qty", Predicate::Range { lo, hi: lo + width }, "price");
        prop_assert_eq!(q.execute_naive().unwrap().rows, q.execute().unwrap().rows);
    }
}
