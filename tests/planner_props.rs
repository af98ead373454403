//! The planner's contract, property-tested: for every operator kind,
//! over randomized tables (per-segment scheme choice via
//! `CompressionPolicy::Auto`) and random predicate conjunctions, the
//! pushdown execution of a `QueryBuilder` plan must equal the naive
//! full-decompress execution — and never materialise a row: only the
//! decoded baseline decodes a column.

use lcdc::core::{ColumnData, DType};
use lcdc::store::{
    Agg, CompressionPolicy, Predicate, QueryBuilder, QueryStats, Rows, Segment, Table, TableSchema,
};
use proptest::prelude::*;

/// Three columns with different statistical structure, so the Auto
/// chooser exercises different schemes per segment: runs (RLE family),
/// local plateaus (FOR/STEP family), small-domain noise (DICT/NS).
fn build_table(seed: u64, n: usize, seg_rows: usize) -> Table {
    let schema = TableSchema::new(&[
        ("runs", DType::U64),
        ("steps", DType::U64),
        ("noise", DType::U64),
    ]);
    let runs = ColumnData::U64(lcdc::datagen::runs::runs_over_domain(n, 60, 40, seed));
    let steps = ColumnData::U64(lcdc::datagen::step_column(n, 64, 2000, 16, seed ^ 0xA5));
    let noise = ColumnData::U64(lcdc::datagen::uniform(n, 500, seed ^ 0x5A));
    Table::build(
        schema,
        &[runs, steps, noise],
        &[
            CompressionPolicy::Auto,
            CompressionPolicy::Auto,
            CompressionPolicy::Auto,
        ],
        seg_rows,
    )
    .expect("table builds")
}

const COLUMNS: [&str; 3] = ["runs", "steps", "noise"];

/// Apply up to two random conjuncts over random columns.
fn with_filters<'t>(
    mut builder: QueryBuilder<'t>,
    conjuncts: &[(usize, i128, i128)],
) -> QueryBuilder<'t> {
    for &(col, lo, width) in conjuncts {
        builder = builder.filter(COLUMNS[col % 3], Predicate::Range { lo, hi: lo + width });
    }
    builder
}

/// Pushdown, naive and parallel execution agree; returns the pushdown
/// ledger.
fn assert_pushdown_equals_naive(builder: &QueryBuilder<'_>, context: &str) -> QueryStats {
    let push = builder.execute().expect("pushdown runs");
    let naive = builder.execute_naive().expect("naive runs");
    assert_eq!(push.rows, naive.rows, "{context}");
    assert_eq!(
        push.stats.rows_materialized, 0,
        "{context}: {:?}",
        push.stats
    );
    // Parallel execution is the same plan over the same segments.
    let parallel = builder.execute_parallel(4).expect("parallel runs");
    assert_eq!(parallel.rows, push.rows, "{context} (parallel)");
    push.stats
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_operator_kind_agrees(
        seed in any::<u64>(),
        seg_rows in 128usize..1024,
        operator in 0usize..4,
        conjuncts in prop::collection::vec((0usize..3, 0i128..2100, 0i128..700), 0..3),
    ) {
        let table = build_table(seed, 3000, seg_rows);
        let base = with_filters(QueryBuilder::scan(&table), &conjuncts);
        let builder = match operator {
            0 => base.aggregate(&[
                Agg::Sum("noise"),
                Agg::Min("steps"),
                Agg::Max("steps"),
                Agg::Count,
            ]),
            1 => base.group_by("runs").aggregate(&[Agg::Sum("noise"), Agg::Count]),
            2 => base.top_k("steps", 17),
            3 => base.distinct("runs"),
            _ => unreachable!(),
        };
        assert_pushdown_equals_naive(&builder, &format!("op {operator} {conjuncts:?}"));
    }

    #[test]
    fn random_range_filtered_aggregates_agree(
        seed in any::<u64>(),
        lo in 0i128..60,
        width in 0i128..40,
    ) {
        let table = build_table(seed, 2000, 256);
        let builder = QueryBuilder::scan(&table)
            .filter("runs", Predicate::Range { lo, hi: lo + width })
            .aggregate(&[Agg::Sum("noise"), Agg::Count]);
        assert_pushdown_equals_naive(&builder, &format!("runs in {lo}..={}", lo + width));
    }
}

/// The acceptance-criteria queries, end to end through the builder
/// alone: a filter -> group-by -> aggregate and a filter -> top-k, with
/// pushdown matching naive while materialising strictly fewer rows.
#[test]
fn e2e_filter_group_by_aggregate_and_filter_top_k() {
    let t = lcdc::datagen::tpch_like::lineitem_like(300, 120, 7);
    let schema = TableSchema::new(&[
        ("shipdate", DType::U64),
        ("qty", DType::U64),
        ("price", DType::U64),
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
        2048,
    )
    .expect("table builds");

    // Revenue per day over one ship-date week.
    let per_day = QueryBuilder::scan(&table)
        .filter(
            "shipdate",
            Predicate::Range {
                lo: 19_920_130,
                hi: 19_920_136,
            },
        )
        .group_by("shipdate")
        .aggregate(&[Agg::Sum("price"), Agg::Count]);
    let push = per_day.execute().expect("pushdown runs");
    let naive = per_day.execute_naive().expect("naive runs");
    assert_eq!(push.rows, naive.rows);
    assert!(matches!(push.rows, Rows::Groups(ref g) if g.len() == 7));
    assert!(
        push.stats.rows_materialized < naive.stats.rows_materialized,
        "pushdown {} vs naive {}",
        push.stats.rows_materialized,
        naive.stats.rows_materialized
    );

    // Top 10 order prices within a quantity band.
    let top = QueryBuilder::scan(&table)
        .filter("qty", Predicate::Range { lo: 10, hi: 20 })
        .top_k("price", 10);
    let push = top.execute().expect("pushdown runs");
    let naive = top.execute_naive().expect("naive runs");
    assert_eq!(push.rows, naive.rows);
    assert_eq!(push.top_k().unwrap().len(), 10);
    assert!(
        push.stats.rows_materialized < naive.stats.rows_materialized,
        "pushdown {} vs naive {}",
        push.stats.rows_materialized,
        naive.stats.rows_materialized
    );

    // The per-day groups add up to the same filter's plain aggregate.
    let week = QueryBuilder::scan(&table)
        .filter(
            "shipdate",
            Predicate::Range {
                lo: 19_920_130,
                hi: 19_920_136,
            },
        )
        .aggregate(&[Agg::Sum("price")]);
    let total = week.execute().expect("runs");
    assert_eq!(total.rows, week.execute_naive().expect("naive runs").rows);
    let per_day_sum: i128 = per_day
        .execute()
        .expect("runs")
        .groups()
        .unwrap()
        .iter()
        .map(|(_, values)| values[0].unwrap())
        .sum();
    assert_eq!(total.aggregates().unwrap(), &[Some(per_day_sum)]);
}

/// A one-column table named `v`.
fn one_column(col: ColumnData, expr: &str, seg_rows: usize) -> Table {
    let schema = TableSchema::new(&[("v", col.dtype())]);
    let policy = CompressionPolicy::Fixed(expr.into());
    Table::build(schema, &[col], &[policy], seg_rows).expect("table builds")
}

/// 100 days x 100 orders in 10 segments; quantity cycles 1..=50.
fn orders_table(date_policy: CompressionPolicy) -> Table {
    let n = 10_000u64;
    let schema = TableSchema::new(&[("date", DType::U64), ("qty", DType::U64)]);
    let date = ColumnData::U64((0..n).map(|i| 20_180_101 + i / 100).collect());
    let qty = ColumnData::U64((0..n).map(|i| 1 + i % 50).collect());
    Table::build(
        schema,
        &[date, qty],
        &[date_policy, CompressionPolicy::Auto],
        1000,
    )
    .expect("table builds")
}

/// Filter `All` never touches the filter column, and the date column's
/// run structure lets every aggregate fold on the compressed form.
#[test]
fn run_encoded_aggregate_never_materializes() {
    let rle = CompressionPolicy::Fixed("rle[values=delta[deltas=ns],lengths=ns]".into());
    let table = orders_table(rle);
    let all = QueryBuilder::scan(&table)
        .filter("qty", Predicate::All)
        .aggregate(&[
            Agg::Sum("date"),
            Agg::Min("date"),
            Agg::Max("date"),
            Agg::Count,
        ]);
    let stats = assert_pushdown_equals_naive(&all, "run-encoded aggregate");
    assert_eq!(stats.rows_materialized, 0, "{stats:?}");
    assert!(stats.segments_structural > 0, "{stats:?}");
}

/// A filter no zone map overlaps sums to zero without reading a payload.
#[test]
fn zone_disjoint_filter_sums_to_zero() {
    let table = orders_table(CompressionPolicy::Auto);
    let none = QueryBuilder::scan(&table)
        .filter("date", Predicate::Range { lo: 1, hi: 2 })
        .aggregate(&[Agg::Sum("qty"), Agg::Count]);
    assert_pushdown_equals_naive(&none, "disjoint filter");
    let result = none.execute().expect("runs");
    assert_eq!(result.aggregates().unwrap(), &[Some(0), Some(0)]);
    assert_eq!(result.stats.rows_materialized, 0, "{:?}", result.stats);
    assert_eq!(result.stats.segments_pruned, table.num_segments());
}

/// A narrow date filter: naive charges each row once though it decodes
/// both columns, and pushdown materialises under half of that.
#[test]
fn pushdown_materializes_fewer_rows_than_naive() {
    let table = orders_table(CompressionPolicy::Auto);
    let narrow = QueryBuilder::scan(&table)
        .filter(
            "date",
            Predicate::Range {
                lo: 20_180_110,
                hi: 20_180_115,
            },
        )
        .aggregate(&[
            Agg::Sum("qty"),
            Agg::Min("qty"),
            Agg::Max("qty"),
            Agg::Count,
        ]);
    let push = assert_pushdown_equals_naive(&narrow, "narrow filter");
    let naive = narrow.execute_naive().expect("naive runs").stats;
    assert_eq!(naive.rows_materialized, table.num_rows());
    assert!(
        push.rows_materialized * 2 < naive.rows_materialized,
        "pushdown {} vs naive {}",
        push.rows_materialized,
        naive.rows_materialized
    );
    assert!(push.pushdown.zonemap_hits > 0, "{push:?}");
}

/// A date range over the sorted orders reads only its edge segments.
/// Days 15..=72 lie wholly over segments 2..=6 (days 20..=69), which
/// the metadata tier answers from their summaries; the edge segments 1
/// and 7 each fetch their date and qty frames and fold their 500 and
/// 300 selected rows; segments 0, 8 and 9 are zone-pruned. Every
/// segment but the edges is a zone-map hit.
#[test]
fn a_range_aggregate_reads_only_its_edge_segments() {
    let table = orders_table(CompressionPolicy::Auto);
    let day = |d: i128| 20_180_101 + d;
    let range = QueryBuilder::scan(&table)
        .filter(
            "date",
            Predicate::Range {
                lo: day(15),
                hi: day(72),
            },
        )
        .aggregate(&[
            Agg::Sum("qty"),
            Agg::Min("qty"),
            Agg::Max("qty"),
            Agg::Count,
        ]);
    let stats = assert_pushdown_equals_naive(&range, "range aggregate");
    let qty: Vec<i128> = (1500..7300).map(|i| 1 + i % 50).collect();
    let want = [
        qty.iter().sum::<i128>(),
        *qty.iter().min().unwrap(),
        *qty.iter().max().unwrap(),
        qty.len() as i128,
    ];
    let got = range.execute().expect("runs");
    assert_eq!(got.aggregates().unwrap(), want.map(Some));
    assert_eq!(stats.segments, 10, "{stats:?}");
    assert_eq!(stats.segments_pruned, 3, "{stats:?}");
    assert_eq!(stats.segments_from_metadata, 5, "{stats:?}");
    assert_eq!(stats.segments_structural, 5, "{stats:?}");
    assert_eq!(stats.segments_loaded, 4, "{stats:?}");
    assert_eq!(stats.values_processed, 800, "{stats:?}");
    assert_eq!(stats.pushdown.zonemap_hits, 8, "{stats:?}");
    assert_eq!(stats.pushdown.total(), 10, "{stats:?}");
}

/// A zone-disjoint first conjunct short-circuits the second: every
/// segment is pruned on metadata and no payload is fetched.
#[test]
fn disjoint_first_conjunct_short_circuits_the_rest() {
    let rle = CompressionPolicy::Fixed("rle[values=delta[deltas=ns],lengths=ns]".into());
    let table = orders_table(rle);
    let none = QueryBuilder::scan(&table)
        .filter("date", Predicate::Range { lo: 1, hi: 2 })
        .filter("qty", Predicate::Range { lo: 1, hi: 10 })
        .keep_filter_order()
        .aggregate(&[Agg::Sum("qty"), Agg::Count]);
    let result = none.execute().expect("runs");
    assert_eq!(result.aggregates().unwrap(), &[Some(0), Some(0)]);
    let stats = result.stats;
    assert_eq!(stats.rows_materialized, 0, "{stats:?}");
    assert_eq!(stats.segments_pruned, table.num_segments(), "{stats:?}");
    assert_eq!(stats.segments_loaded, 0, "{stats:?}");
    assert_eq!(
        stats.pushdown.total(),
        stats.pushdown.zonemap_hits,
        "{stats:?}"
    );
}

/// Later segments of a drifting walk dominate, so best-max-first order
/// prunes the rest on zone maps alone.
#[test]
fn top_k_prunes_most_segments_for_small_k() {
    let drift = ColumnData::I64((0..8000i64).map(|i| i / 4 + (i % 29) - 14).collect());
    let drift = one_column(drift, "for(l=128)[offsets=ns]", 512);
    let stats = assert_pushdown_equals_naive(&QueryBuilder::scan(&drift).top_k("v", 10), "top-k");
    let scanned = stats.segments - stats.segments_pruned;
    assert!(stats.segments_pruned > scanned * 3, "{stats:?}");
    assert!(
        stats.values_processed + stats.rows_materialized < 2048,
        "{stats:?}"
    );
}

/// 40 distinct values over 8000 rows in 8 segments, runny.
fn runny_column(expr: &str) -> Table {
    let runny = ColumnData::I64((0..8000i64).map(|i| ((i / 50) * 31 % 40) - 20).collect());
    one_column(runny, expr, 1024)
}

/// Distinct over part-structured schemes reads the parts only.
#[test]
fn distinct_reads_parts_only_per_scheme() {
    for expr in [
        "dict[codes=ns]",
        "rle[values=ns_zz,lengths=ns]",
        "rpe",
        "sparse[exc_positions=ns,exc_values=ns_zz]",
    ] {
        let t = runny_column(expr);
        let stats = assert_pushdown_equals_naive(&QueryBuilder::scan(&t).distinct("v"), expr);
        assert_eq!(
            stats.segments_structural, stats.segments,
            "{expr}: {stats:?}"
        );
        assert_eq!(stats.rows_materialized, 0, "{expr}: {stats:?}");
        assert!(stats.values_processed < 8000, "{expr}: {stats:?}");
    }
}

/// Each of the 8 DICT segments contributes its (<= 40)-entry dictionary.
#[test]
fn dict_distinct_reads_only_the_dictionaries() {
    let t = runny_column("dict[codes=ns]");
    let result = QueryBuilder::scan(&t)
        .distinct("v")
        .execute()
        .expect("runs");
    assert_eq!(result.distinct().unwrap().len(), 40);
    let stats = result.stats;
    assert!(stats.values_processed <= 8 * 40, "{stats:?}");
}

#[test]
fn const_distinct_reads_one_value_per_segment() {
    let t = one_column(ColumnData::U32(vec![9; 3000]), "const", 1000);
    let stats = assert_pushdown_equals_naive(&QueryBuilder::scan(&t).distinct("v"), "const");
    assert_eq!(stats.values_processed, 3, "one value per const segment");
}

/// Segments of uneven height, as a table assembled from sources may
/// hold, group like uniform ones.
#[test]
fn ragged_segments_group_like_uniform_ones() {
    let build = |values: Vec<u64>, expr: &str| {
        Segment::build(
            &ColumnData::U64(values),
            &CompressionPolicy::Fixed(expr.into()),
        )
        .expect("segment builds")
    };
    let rle = "rle[values=ns,lengths=ns]";
    let keys = vec![
        build(vec![1; 100], rle),
        build(vec![2; 70], rle),
        build(vec![1; 100], rle),
    ];
    let values = vec![
        build((0..100).collect(), "ns"),
        build((0..70).collect(), "ns"),
        build(vec![5; 100], "ns"),
    ];
    let schema = TableSchema::new(&[("k", DType::U64), ("v", DType::U64)]);
    let table = Table::from_segments(schema, vec![keys, values], 100).expect("aligned");
    let groups = QueryBuilder::scan(&table)
        .group_by("k")
        .aggregate(&[Agg::Sum("v"), Agg::Count]);
    assert_pushdown_equals_naive(&groups, "ragged group-by");
    let want = vec![
        (1, vec![Some((0..100).sum::<i128>() + 500), Some(200)]),
        (2, vec![Some((0..70).sum::<i128>()), Some(70)]),
    ];
    assert_eq!(groups.execute().expect("runs").rows, Rows::Groups(want));
}

/// The builder's explain output names every stage of the acceptance
/// queries — the logical plan is inspectable before execution.
#[test]
fn e2e_explain_describes_the_plan() {
    let table = build_table(7, 2000, 512);
    let text = QueryBuilder::scan(&table)
        .filter("runs", Predicate::Range { lo: 0, hi: 10 })
        .filter("noise", Predicate::Range { lo: 0, hi: 100 })
        .group_by("runs")
        .aggregate(&[Agg::Sum("noise")])
        .explain()
        .expect("explains");
    for needle in [
        "scan",
        "filter runs",
        "filter noise",
        "group-by runs",
        "Sum(noise)",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}

/// The decoded baseline's ledger: each segment a filter leaves in is
/// charged its rows once however many columns it decodes, each touched
/// `(column, segment)` is fetched once, only the filter prunes, and no
/// pushdown or structural counter moves.
#[test]
fn the_baseline_decodes_every_touched_segment_once() {
    let schema = TableSchema::new(&[("day", DType::U64), ("qty", DType::U64)]);
    let day = ColumnData::U64((0..4000u64).map(|i| i / 100).collect());
    let qty = ColumnData::U64((0..4000u64).map(|i| i % 7).collect());
    let rle = CompressionPolicy::Fixed("rle".into());
    let table = Table::build(schema, &[day, qty], &[rle, CompressionPolicy::Auto], 1000)
        .expect("table builds");
    let result = QueryBuilder::scan(&table)
        .filter("day", Predicate::Range { lo: 5, hi: 12 })
        .group_by("day")
        .aggregate(&[Agg::Sum("qty"), Agg::Count])
        .execute_naive()
        .expect("runs");
    assert_eq!(result.groups().map(<[_]>::len), Some(8));
    // Every segment decodes its filter column; the two holding days
    // 5..=12 also decode the value column and fold 500 + 300 rows.
    assert_eq!(
        result.stats.to_string(),
        "segments=4 segments_pruned=2 segments_loaded=6 rows_materialized=4000 \
         values_processed=800"
    );
}
