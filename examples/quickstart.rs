//! Quickstart: compress a column, compose schemes, inspect the
//! decompression plan — then query a compressed table through the
//! logical-plan builder, and walk the full table lifecycle:
//! create → ingest → query → re-ingest → query.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use lcdc::core::scheme::decompress_via_plan;
use lcdc::core::{chooser, parse_scheme, ColumnData, DType};
use lcdc::store::{
    shard_table, Agg, Catalog, CatalogTable, CompressionPolicy, Predicate, QueryBuilder, QuerySpec,
    Table, TableSchema,
};

fn main() {
    // The paper's §I motivating column: shipped-order dates — a
    // monotone-increasing sequence with a run per day.
    let dates = ColumnData::U64(lcdc::datagen::shipped_order_dates(365, 40, 20_180_101, 7));
    println!(
        "column: {} rows, {} plain bytes\n",
        dates.len(),
        dates.uncompressed_bytes()
    );

    // 1. A single scheme.
    let rle = parse_scheme("rle[values=ns,lengths=ns]").expect("valid expression");
    let c = rle.compress(&dates).expect("compresses");
    println!(
        "rle[values=ns,lengths=ns]          ratio {:>6.1}x",
        c.ratio().unwrap()
    );

    // 2. The paper's composition: DELTA on the run values.
    let composite =
        parse_scheme("rle[values=delta[deltas=ns_zz],lengths=ns]").expect("valid expression");
    let c2 = composite.compress(&dates).expect("compresses");
    println!(
        "rle[values=delta[deltas=ns_zz],..] ratio {:>6.1}x",
        c2.ratio().unwrap()
    );
    assert_eq!(composite.decompress(&c2).expect("round-trips"), dates);

    // 3. Or let the chooser decide.
    let choice = chooser::choose_best(&dates).expect("chooser runs");
    println!("chooser picks: {}\n", choice.expr);

    // 4. Decompression is a DAG of ordinary columnar operators
    //    (Algorithm 1 of the paper) — print and execute it.
    let plan = composite.plan(&c2).expect("rle has a plan");
    println!("decompression plan (Algorithm 1):\n{}", plan.display());
    let via_plan = decompress_via_plan(composite.as_ref(), &c2).expect("plan executes");
    assert_eq!(via_plan, dates);
    println!("plan output == fused decompression output == original column ✓\n");

    // 5. And the payoff: query operators run on the compressed form.
    //    Build a two-column table (per-segment scheme choice is
    //    automatic) and express a filtered grouped aggregate as a
    //    logical plan; the planner picks the pushdown tier per segment.
    let qty = ColumnData::U64((0..dates.len() as u64).map(|i| 1 + i % 50).collect());
    let schema = TableSchema::new(&[("date", DType::U64), ("qty", DType::U64)]);
    let table = Table::build(
        schema,
        &[dates, qty],
        &[CompressionPolicy::Auto, CompressionPolicy::Auto],
        4096,
    )
    .expect("table builds");
    let result = QueryBuilder::scan(&table)
        .filter(
            "date",
            Predicate::Range {
                lo: 20_180_110,
                hi: 20_180_116,
            },
        )
        .group_by("date")
        .aggregate(&[Agg::Sum("qty"), Agg::Count])
        .execute()
        .expect("query runs");
    println!("quantity shipped per day, one week in January:");
    for (day, values) in result.groups().expect("grouped query") {
        println!(
            "  {day}: sum {:>6}  ({} orders)",
            values[0].unwrap(),
            values[1].unwrap()
        );
    }
    println!(
        "answered from {} of {} segments, {} rows materialised ✓\n",
        result.stats.segments - result.stats.segments_pruned,
        result.stats.segments,
        result.stats.rows_materialized
    );

    // 6. Scale out: register the table in a `Catalog` — sharded — and
    //    query it by name with an owned, table-free `QuerySpec`. Shards
    //    scan in parallel and merge; repeating the identical plan is
    //    answered from the result cache (keyed on the plan fingerprint
    //    and the table's version, so any mutation invalidates it).
    //    Each shard's columns could just as well be read lazily from
    //    saved tables (see `examples/persistence.rs`).
    let catalog = Catalog::new();
    let pieces = shard_table(&table, 3).expect("shards");
    let shards = pieces.len();
    catalog
        .register_sharded("orders", pieces)
        .expect("registers");
    let spec = QuerySpec::new()
        .filter(
            "date",
            Predicate::Range {
                lo: 20_180_110,
                hi: 20_180_116,
            },
        )
        .group_by("date")
        .aggregate(&[Agg::Sum("qty"), Agg::Count]);
    println!(
        "catalog: table \"orders\" v{}, {} shards, plan fingerprint {:#018x}",
        catalog.version("orders").expect("registered"),
        shards,
        spec.fingerprint()
    );
    let fanned = catalog
        .execute_parallel("orders", &spec, 3)
        .expect("fans out");
    assert_eq!(fanned.rows, result.rows);
    println!("sharded fan-in agrees with the single-table answer ✓");
    let again = catalog.execute("orders", &spec).expect("repeats");
    assert_eq!(again.stats.result_cache_hits, 1);
    assert_eq!(again.rows, result.rows);
    println!("repeat of the identical plan served from the result cache ✓\n");

    // 7. The write path: the full create → ingest → query → re-ingest
    //    → query lifecycle. Register two shards with a routing *key* —
    //    each shard owns a date range, and is one run of the entry's
    //    one table — and ingest row batches: a batch is split along the
    //    shard key ranges, compressed into fresh segments for each
    //    shard's run it lands in (per-segment scheme choice, zone maps,
    //    scheme tags, just like built data), attached to those runs
    //    alone and published under exactly one version bump, so every
    //    cached result self-invalidates and the next identical query
    //    re-executes over the new rows.
    let day_table = |first: u64, days: u64| {
        let day = ColumnData::U64((0..days * 50).map(|i| first + i / 50).collect());
        let qty = ColumnData::U64((0..days * 50).map(|i| 1 + i % 50).collect());
        Table::build(
            TableSchema::new(&[("day", DType::U64), ("qty", DType::U64)]),
            &[day, qty],
            &[CompressionPolicy::Auto, CompressionPolicy::Auto],
            1024,
        )
        .expect("shard builds")
    };
    // Create: January in shard 0, February in shard 1.
    let v1 = catalog
        .register_sharded_keyed(
            "sales",
            vec![day_table(20_180_101, 31), day_table(20_180_201, 28)],
            "day",
        )
        .expect("registers keyed");
    let totals = QuerySpec::new()
        .filter(
            "day",
            Predicate::Range {
                lo: 20_180_101,
                hi: 20_180_301,
            },
        )
        .aggregate(&[Agg::Sum("qty"), Agg::Count]);
    let created = catalog.execute("sales", &totals).expect("queries");
    println!(
        "lifecycle: \"sales\" v{v1} created, count {}",
        created.aggregates().expect("agg")[1].expect("count")
    );

    // Ingest: a batch spanning both shard key ranges splits at the
    // boundary, grows both shards' runs and bumps the version once.
    let v2 = catalog
        .ingest(
            "sales",
            &[
                ColumnData::U64(vec![20_180_115, 20_180_215, 20_180_131]),
                ColumnData::U64(vec![40, 40, 40]),
            ],
        )
        .expect("ingests");
    assert_eq!(v2, v1 + 1, "one version bump for the whole batch");
    let (sales, _) = catalog.get("sales").expect("registered");
    if let CatalogTable::Sharded(sharded) = &sales {
        println!(
            "ingest: v{v1} -> v{v2}, shard rows now {:?} (batch split at the key boundary)",
            sharded
                .shards()
                .iter()
                .map(|s| s.num_rows())
                .collect::<Vec<_>>()
        );
    }

    // Query: the cached v1 result is *not* served — the plan re-runs
    // and sees all three new rows.
    let after = catalog.execute("sales", &totals).expect("re-queries");
    assert_eq!(after.stats.result_cache_hits, 0, "stale cache dropped");
    assert_eq!(
        after.aggregates().expect("agg")[1],
        created.aggregates().expect("agg")[1].map(|c| c + 3)
    );

    // Re-ingest and query again: same contract, every round.
    let v3 = catalog
        .ingest(
            "sales",
            &[ColumnData::U64(vec![20_180_102]), ColumnData::U64(vec![9])],
        )
        .expect("re-ingests");
    let last = catalog.execute("sales", &totals).expect("queries again");
    assert_eq!(last.stats.result_cache_hits, 0);
    assert_eq!(
        last.aggregates().expect("agg")[1],
        created.aggregates().expect("agg")[1].map(|c| c + 4)
    );
    println!("re-ingest: v{v2} -> v{v3}, repeated query re-executed and sees every batch ✓");
}
