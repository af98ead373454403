//! The storage redesign's contracts, property-tested end to end:
//!
//! * **Shard transparency** — for every operator kind and random
//!   filter shapes (ranges, IN lists, disjunctions), executing a
//!   `QuerySpec` over a randomly sharded registration of a table
//!   equals executing it over the single table, across thread counts —
//!   and sequentially it charges the same ledger, shard count aside.
//! * **Cache soundness** — a result cache hit is only ever served for
//!   the exact plan fingerprint at the exact table version: any
//!   mutation (add_shard / re-register) bumps the version and the next
//!   execution runs for real, reflecting the new data.
//! * **Lazy-plan equivalence** — a table reopened through lazy
//!   `FileSource`s plans and answers identically to its resident
//!   original, reading only the frames the pushdown tiers touch.

use lcdc::core::{ColumnData, DType};
use lcdc::store::{
    load_table, open_table_lazy, save_table, shard_table, Agg, Catalog, CatalogTable,
    CompressionPolicy, Predicate, QuerySpec, Table, TableSchema,
};
use proptest::prelude::*;

/// Three columns with different statistical structure, so the Auto
/// chooser exercises different schemes per segment.
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

/// A random filter leaf: range, equality, or a small IN list.
fn leaf(col: usize, kind: usize, lo: i128, width: i128) -> (String, Predicate) {
    let column = COLUMNS[col % 3].to_string();
    let predicate = match kind % 3 {
        0 => Predicate::Range { lo, hi: lo + width },
        1 => Predicate::Eq(lo),
        _ => Predicate::in_list(&[lo, lo + width / 2, lo + width, 7]),
    };
    (column, predicate)
}

/// Attach random conjuncts — every third one a two-leaf disjunction.
fn with_filters(mut spec: QuerySpec, conjuncts: &[(usize, usize, i128, i128)]) -> QuerySpec {
    for (i, &(col, kind, lo, width)) in conjuncts.iter().enumerate() {
        let (c1, p1) = leaf(col, kind, lo, width);
        if i % 3 == 2 {
            let (c2, p2) = leaf(col + 1, kind + 1, lo / 2, width * 2);
            spec = spec.filter_any(&[(c1.as_str(), p1), (c2.as_str(), p2)]);
        } else {
            spec = spec.filter(&c1, p1);
        }
    }
    spec
}

fn sink(spec: QuerySpec, operator: usize) -> QuerySpec {
    match operator % 4 {
        0 => spec.aggregate(&[
            Agg::Sum("noise"),
            Agg::Min("steps"),
            Agg::Max("steps"),
            Agg::Count,
        ]),
        1 => spec
            .group_by("runs")
            .aggregate(&[Agg::Sum("noise"), Agg::Count]),
        2 => spec.top_k("steps", 17),
        _ => spec.distinct("runs"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn sharded_execution_equals_single_table(
        seed in any::<u64>(),
        seg_rows in 128usize..1024,
        shards in 1usize..7,
        operator in 0usize..4,
        conjuncts in prop::collection::vec(
            (0usize..3, 0usize..3, 0i128..2100, 0i128..700), 0..4),
    ) {
        let table = build_table(seed, 3000, seg_rows);
        let spec = sink(with_filters(QuerySpec::new(), &conjuncts), operator);
        let single = spec.bind(&table).execute().expect("single runs");

        // Result cache off: every execution runs, so its ledger counts.
        let catalog = Catalog::with_cache_capacity(0);
        catalog
            .register_sharded("t", shard_table(&table, shards).expect("shards"))
            .expect("registers");
        for threads in [1usize, 4] {
            let fanned = catalog
                .execute_parallel("t", &spec, threads)
                .expect("fan-in runs");
            prop_assert_eq!(
                &fanned.rows, &single.rows,
                "op {} x{} shards x{} threads", operator, shards, threads
            );
            if threads == 1 {
                // The shards read as one table: the sequential ledger
                // is the single table's, bar the shard count.
                let mut stats = fanned.stats;
                stats.shards_pruned = single.stats.shards_pruned;
                prop_assert_eq!(stats, single.stats, "op {} x{} shards", operator, shards);
            }
        }
        // And the pushdown path never does worse than naive on rows.
        let naive = spec.bind(&table).execute_naive().expect("naive runs");
        prop_assert_eq!(&single.rows, &naive.rows);
        prop_assert!(single.stats.rows_materialized <= naive.stats.rows_materialized);
    }

    #[test]
    fn cache_hits_never_cross_a_version_bump(
        seed in any::<u64>(),
        operator in 0usize..4,
        extra_rows in 500usize..1500,
    ) {
        let catalog = Catalog::new();
        let spec = sink(
            QuerySpec::new().filter("steps", Predicate::Range { lo: 0, hi: 1500 }),
            operator,
        );
        let v1 = catalog.register("t", build_table(seed, 2000, 256));
        let first = catalog.execute("t", &spec).expect("runs");
        prop_assert_eq!(first.stats.result_cache_hits, 0);

        // Identical plan, same version: served from cache, same rows.
        let repeat = catalog.execute("t", &spec).expect("repeats");
        prop_assert_eq!(repeat.stats.result_cache_hits, 1);
        prop_assert_eq!(&repeat.rows, &first.rows);

        // Mutation bumps the version: the stale result must not be
        // served, and the fresh run sees the new shard's rows.
        let v2 = catalog
            .add_shard("t", build_table(seed ^ 1, extra_rows, 256))
            .expect("adds shard");
        prop_assert!(v2 > v1);
        let after = catalog.execute("t", &spec).expect("runs again");
        prop_assert_eq!(after.stats.result_cache_hits, 0);
        // The new shard is non-empty and unfiltered sinks see it; for
        // every operator the merged answer covers both shards, so a
        // second repeat caches *that*.
        let again = catalog.execute("t", &spec).expect("repeats again");
        prop_assert_eq!(again.stats.result_cache_hits, 1);
        prop_assert_eq!(&again.rows, &after.rows);
    }

    #[test]
    fn lazy_tables_plan_and_answer_like_resident_ones(
        seed in any::<u64>(),
        operator in 0usize..4,
        lo in 0i128..1200,
        width in 0i128..500,
    ) {
        let table = build_table(seed, 2500, 300);
        let dir = std::env::temp_dir().join(format!(
            "lcdc_props_lazy_{}_{seed:x}_{operator}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        save_table(&table, &dir).expect("saves");
        let resident = load_table(&dir).expect("loads");
        let lazy = open_table_lazy(&dir, 8).expect("opens");

        let spec = sink(
            QuerySpec::new().filter("steps", Predicate::Range { lo, hi: lo + width }),
            operator,
        );
        let a = spec.bind(&resident).execute().expect("resident runs");
        let b = spec.bind(&lazy).execute().expect("lazy runs");
        // Identical plans: same answer *and* same planner counters —
        // pruning decisions come from identical metadata.
        prop_assert_eq!(&a.rows, &b.rows);
        prop_assert_eq!(a.stats, b.stats);
        // Laziness: disk reads never exceed the loads the plan made.
        prop_assert!(lazy.io_reads() <= b.stats.segments_loaded);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The ISSUE's acceptance scenario, end to end: a sharded, file-backed
/// table answers an aggregate through the catalog with lazy loads
/// (frames read < frames stored, thanks to zone-map pruning), and the
/// identical repeated query is served from the result cache.
#[test]
fn acceptance_sharded_lazy_catalog_with_result_cache() {
    let root = std::env::temp_dir().join(format!("lcdc_acceptance_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // One logical orders table, split into 3 shard dirs on disk.
    let table = build_table(42, 9000, 512);
    let shards = shard_table(&table, 3).expect("shards");
    let mut lazy_shards = Vec::new();
    let mut total_frames = 0usize;
    for (i, shard) in shards.iter().enumerate() {
        let dir = root.join(format!("orders.shard{i}"));
        save_table(shard, &dir).expect("saves");
        let lazy = open_table_lazy(&dir, 8).expect("opens");
        total_frames += lazy.num_segments() * lazy.schema().width();
        lazy_shards.push(lazy);
    }

    let catalog = Catalog::new();
    catalog
        .register_sharded("orders", lazy_shards)
        .expect("registers");
    let (handle, _) = catalog.get("orders").expect("registered");
    let CatalogTable::Sharded(sharded) = &handle else {
        panic!("registered sharded")
    };
    assert_eq!(sharded.shards().len(), 3);
    assert_eq!(handle.io_reads(), 0, "registration reads no frames");

    // A selective aggregate: zone maps prune most segments, so far
    // fewer frames than stored are ever read from disk.
    let spec = QuerySpec::new()
        .filter("steps", Predicate::Range { lo: 0, hi: 260 })
        .aggregate(&[Agg::Sum("noise"), Agg::Count]);
    let first = catalog
        .execute_parallel("orders", &spec, 3)
        .expect("aggregates");
    assert_eq!(first.stats.result_cache_hits, 0);
    let frames_read = handle.io_reads();
    assert!(frames_read > 0, "something was read");
    assert!(
        frames_read < total_frames,
        "lazy + zone maps must not read everything: {frames_read} of {total_frames}"
    );
    // The answer is right: compare against the resident original.
    let want = spec.bind(&table).execute().expect("resident");
    assert_eq!(first.rows, want.rows);

    // The identical query again: served from the result cache, no new
    // I/O, visible in QueryStats.
    let second = catalog
        .execute_parallel("orders", &spec, 3)
        .expect("repeats");
    assert_eq!(second.stats.result_cache_hits, 1, "{:?}", second.stats);
    assert_eq!(second.stats.segments, 0, "nothing executed");
    assert_eq!(second.rows, first.rows);
    assert_eq!(handle.io_reads(), frames_read, "a cache hit reads nothing");

    std::fs::remove_dir_all(&root).ok();
}
