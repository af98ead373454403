//! The morsel executor's contract, end to end over the full storage
//! stack: a lazy, sharded catalog table must answer — and account —
//! exactly like the resident sequential reference under every worker
//! count and prefetch depth, and a shard whose key range the query
//! bounds exclude must never be touched at all.

use lcdc::core::{ColumnData, DType};
use lcdc::store::{
    open_table_lazy, save_table, shard_table, Agg, Catalog, CatalogTable, CompressionPolicy,
    ExecOptions, Predicate, QuerySpec, QueryStats, Rows, Table, TableSchema,
};
use lcdc::store::{Client, Response, Server, ServerConfig};
use std::path::Path;
use std::sync::Arc;

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

/// Save `table` as `shards` lazy shard directories under `root` and
/// register them with a (cache-disabled) catalog.
fn lazy_sharded_catalog(table: &Table, shards: usize, root: &Path) -> Catalog {
    let mut lazy_shards = Vec::new();
    for (i, shard) in shard_table(table, shards)
        .expect("shards")
        .iter()
        .enumerate()
    {
        let dir = root.join(format!("t.shard{i}"));
        save_table(shard, &dir).expect("saves");
        lazy_shards.push(open_table_lazy(&dir, 8).expect("opens"));
    }
    // Cache capacity 0: every execution in the matrix runs for real.
    let catalog = Catalog::with_cache_capacity(0);
    catalog
        .register_sharded("t", lazy_shards)
        .expect("registers");
    catalog
}

/// The segment/row accounting that must be schedule-independent.
/// Prefetch counters vary with timing, pushdown tier counters shrink
/// when whole shards are pruned from table-level ranges — everything
/// else is exact.
fn core_accounting(stats: &QueryStats) -> (usize, usize, usize, usize, usize, usize) {
    (
        stats.segments,
        stats.segments_pruned,
        stats.segments_structural,
        stats.segments_loaded,
        stats.rows_materialized,
        stats.values_processed,
    )
}

#[test]
fn lazy_sharded_matches_resident_sequential_across_threads_and_prefetch() {
    let root = std::env::temp_dir().join(format!("lcdc_morsel_eq_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let table = build_table(11, 6000, 300);
    let catalog = lazy_sharded_catalog(&table, 3, &root);

    let specs = [
        QuerySpec::new()
            .filter("steps", Predicate::Range { lo: 0, hi: 900 })
            .aggregate(&[Agg::Sum("noise"), Agg::Min("steps"), Agg::Count]),
        // Multi-clause spec with the order pinned: cost estimates are
        // per-compiled-table, so a shard could legitimately pick a
        // different clause order than the whole table — pinning keeps
        // the per-segment work (and so the accounting) bit-comparable.
        QuerySpec::new()
            .filter("runs", Predicate::Range { lo: 3, hi: 21 })
            .filter_in("noise", &[1, 5, 250, 499])
            .keep_filter_order()
            .group_by("runs")
            .aggregate(&[Agg::Sum("noise"), Agg::Count]),
        QuerySpec::new()
            .filter_any(&[
                ("runs", Predicate::Range { lo: 0, hi: 8 }),
                ("noise", Predicate::Eq(77)),
            ])
            .distinct("runs"),
    ];
    for (i, spec) in specs.iter().enumerate() {
        let want = spec.bind(&table).execute().expect("resident sequential");
        for threads in [1usize, 2, 4, 64] {
            for prefetch in [0usize, 6] {
                let opts = ExecOptions::threads(threads).with_prefetch(prefetch);
                let got = catalog
                    .execute_opts("t", spec, &opts)
                    .expect("lazy sharded runs");
                assert_eq!(
                    got.rows, want.rows,
                    "spec {i} x{threads} threads, prefetch {prefetch}"
                );
                assert_eq!(
                    core_accounting(&got.stats),
                    core_accounting(&want.stats),
                    "spec {i} x{threads} threads, prefetch {prefetch}: \
                     {:?} vs {:?}",
                    got.stats,
                    want.stats
                );
                if prefetch == 0 {
                    assert_eq!(
                        (got.stats.prefetch_hits, got.stats.prefetch_wasted),
                        (0, 0),
                        "no prefetcher ran"
                    );
                }
            }
        }
    }

    // Top-k: answers are schedule-independent; prune counters are not
    // (each worker tightens its own threshold), so only rows compare.
    let topk = QuerySpec::new()
        .filter("steps", Predicate::Range { lo: 0, hi: 1500 })
        .top_k("steps", 23);
    let want = topk.bind(&table).execute().expect("resident top-k");
    for threads in [1usize, 4, 64] {
        for prefetch in [0usize, 6] {
            let got = catalog
                .execute_opts(
                    "t",
                    &topk,
                    &ExecOptions::threads(threads).with_prefetch(prefetch),
                )
                .expect("lazy sharded top-k");
            assert_eq!(got.rows, want.rows, "top-k x{threads}, prefetch {prefetch}");
        }
    }
    std::fs::remove_dir_all(&root).ok();
}

/// The shard-pruning acceptance scenario: bounds that exclude a shard's
/// key range execute with *zero* segments loaded from that shard — no
/// frame of it is read — under every sink. Aggregate, group-by and
/// distinct plans never make its segments morsels, which
/// `QueryStats::shards_pruned` counts; top-k and join plans visit them
/// but zone-check their filters (and the join its key pairs) before any
/// fetch, so they report no pruned shard and still read nothing of it.
#[test]
fn excluded_shard_is_never_loaded() {
    let root = std::env::temp_dir().join(format!("lcdc_shard_prune_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // Two shards with disjoint `day` ranges, saved lazily.
    let schema = TableSchema::new(&[("day", DType::U64), ("qty", DType::U64)]);
    // Days 1..=30 then 1000..=1029, 100 rows each.
    let columns = |rows: std::ops::Range<u64>| {
        let day = |i: u64| if i < 3000 { 1 + i / 100 } else { 970 + i / 100 };
        let day = ColumnData::U64(rows.clone().map(day).collect());
        let qty = ColumnData::U64(rows.map(|i| 1 + i % 50).collect());
        vec![day, qty]
    };
    let build = |columns: &[ColumnData]| {
        let policies = vec![CompressionPolicy::Auto; columns.len()];
        Table::build(schema.clone(), columns, &policies, 256).unwrap()
    };
    let near_dir = root.join("orders.shard0");
    let far_dir = root.join("orders.shard1");
    save_table(&build(&columns(0..3000)), &near_dir).unwrap();
    save_table(&build(&columns(3000..6000)), &far_dir).unwrap();
    let near = open_table_lazy(&near_dir, 8).unwrap();
    let far = open_table_lazy(&far_dir, 8).unwrap();
    let total_segments = near.num_segments() + far.num_segments();
    // The same rows as one resident table, and a small resident right
    // side for the join: one row per day 1..=40.
    let unsharded = build(&columns(0..6000));
    let dim = Table::build(
        TableSchema::new(&[("day", DType::U64)]),
        &[ColumnData::U64((1..=40).collect())],
        &[CompressionPolicy::Auto],
        16,
    )
    .unwrap();

    let catalog = Catalog::with_cache_capacity(0);
    catalog.register_sharded("orders", vec![near, far]).unwrap();
    catalog.register("dim", dim.clone());
    let (handle, _) = catalog.get("orders").expect("registered");
    let CatalogTable::Sharded(sharded) = &handle else {
        panic!("registered sharded");
    };

    // Bounds inside shard 0's day range: shard 1 must not be touched.
    let filtered = QuerySpec::new().filter("day", Predicate::Range { lo: 5, hi: 14 });
    let spec = filtered.clone().aggregate(&[Agg::Sum("qty"), Agg::Count]);
    let result = catalog
        .execute_opts("orders", &spec, &ExecOptions::threads(4))
        .expect("runs");
    assert_eq!(result.stats.shards_pruned, 1, "{:?}", result.stats);
    assert_eq!(
        sharded.shards()[1].io_reads(),
        0,
        "no frame of the excluded shard was read"
    );
    // The pruned shard's segments are accounted as visited-and-pruned,
    // and every payload the query did load came from shard 0 alone.
    assert_eq!(result.stats.segments, total_segments);
    assert_eq!(
        result.stats.segments_loaded,
        sharded.shards()[0].io_reads(),
        "loads == shard 0's cold reads"
    );
    // And the answer equals shard 0's alone.
    let want = spec.bind(sharded.shards()[0].as_ref()).execute().unwrap();
    assert_eq!(result.rows, want.rows);

    // Every sink, as `(spec, shards_pruned)`.
    let sinks = [
        (spec, 1),
        (
            filtered
                .clone()
                .group_by("day")
                .aggregate(&[Agg::Sum("qty")]),
            1,
        ),
        (filtered.clone().top_k("qty", 5), 0),
        (filtered.clone().distinct("qty"), 1),
        (filtered.join("dim", "day"), 0),
    ];
    for (spec, shards_pruned) in &sinks {
        let got = catalog
            .execute_opts("orders", spec, &ExecOptions::threads(4))
            .expect("runs");
        let want = match spec.join_spec() {
            Some(join) => spec
                .bind(&unsharded)
                .join(&join.table, Arc::new(dim.clone()), &join.on),
            None => spec.bind(&unsharded),
        };
        assert_eq!(got.rows, want.execute().unwrap().rows, "{spec:?}");
        assert_eq!(got.stats.shards_pruned, *shards_pruned, "{spec:?}");
        assert_eq!(sharded.shards()[1].io_reads(), 0, "{spec:?} read shard 1");
    }
    std::fs::remove_dir_all(&root).ok();
}

/// The metadata tier over a lazy 3-shard table: SUM / MIN / MAX /
/// COUNT over a sorted key's range reads only the range's two edge
/// segments — each its filter and its sink frame — and answers every
/// interior segment from the manifests' summaries, so the table's
/// `io_reads` equals `segments_loaded`, which equals the edges'
/// fetches. With a prefetch window the reads are the same and no warm
/// is wasted: the window counts only morsels that fetch.
#[test]
fn fully_selected_segments_read_only_the_edges() {
    let root = std::env::temp_dir().join(format!("lcdc_metadata_tier_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    const SEG: usize = 256;
    let rows = 24_000u64;
    let day: Vec<u64> = (0..rows).map(|i| i / 100).collect();
    let qty: Vec<u64> = (0..rows).map(|i| 1 + i * 7 % 50).collect();
    let table = Table::build(
        TableSchema::new(&[("day", DType::U64), ("qty", DType::U64)]),
        &[ColumnData::U64(day.clone()), ColumnData::U64(qty.clone())],
        &[CompressionPolicy::Auto, CompressionPolicy::Auto],
        SEG,
    )
    .expect("table builds");
    let (lo, hi) = (30, 200);
    let inside = |d: u64| (lo..=hi).contains(&d);
    // Segments straddling a range end are the edges; the rest of those
    // it touches lie wholly inside.
    let (mut edges, mut interior) = (0, 0);
    for days in day.chunks(SEG) {
        match days.iter().filter(|&&d| inside(d)).count() {
            0 => {}
            n if n == days.len() => interior += 1,
            _ => edges += 1,
        }
    }
    assert_eq!((edges, interior), (2, 66), "the fixture's shape");
    let picked: Vec<i128> = (0..day.len())
        .filter(|&i| inside(day[i]))
        .map(|i| qty[i] as i128)
        .collect();
    let want = [
        picked.iter().sum::<i128>(),
        *picked.iter().min().unwrap(),
        *picked.iter().max().unwrap(),
        picked.len() as i128,
    ]
    .map(Some);
    let spec = QuerySpec::new()
        .filter(
            "day",
            Predicate::Range {
                lo: lo as i128,
                hi: hi as i128,
            },
        )
        .aggregate(&[
            Agg::Sum("qty"),
            Agg::Min("qty"),
            Agg::Max("qty"),
            Agg::Count,
        ]);
    let naive = spec.bind(&table).execute_naive().expect("naive runs");
    assert_eq!(naive.aggregates().unwrap(), want);
    for threads in [1usize, 2] {
        for prefetch in [0usize, 4] {
            // Cold caches for every run.
            let catalog =
                lazy_sharded_catalog(&table, 3, &root.join(format!("x{threads}p{prefetch}")));
            let (handle, _) = catalog.get("t").expect("registered");
            let got = catalog
                .execute_opts(
                    "t",
                    &spec,
                    &ExecOptions::threads(threads).with_prefetch(prefetch),
                )
                .expect("runs");
            let what = format!("x{threads} prefetch {prefetch}: {:?}", got.stats);
            assert_eq!(got.aggregates().unwrap(), want, "{what}");
            assert_eq!(got.stats.segments_from_metadata, interior, "{what}");
            assert_eq!(got.stats.segments_loaded, 2 * edges, "{what}");
            assert_eq!(handle.io_reads(), 2 * edges, "{what}");
            assert_eq!(got.stats.prefetch_wasted, 0, "{what}");
        }
    }

    // Over the wire the session warms the window before the scan
    // starts. The window counts fetching morsels, so it reaches both
    // edges across the interior: every frame the query reads was warmed
    // and consumed, and no interior frame was warmed at all.
    let catalog = Arc::new(lazy_sharded_catalog(&table, 3, &root.join("wire")));
    let server = Server::start(Arc::clone(&catalog), "127.0.0.1:0", ServerConfig::default())
        .expect("serves");
    let mut client = Client::connect(server.addr()).expect("connects");
    let args = [
        "--filter",
        "day=30..200",
        "--sum",
        "qty",
        "--min",
        "qty",
        "--max",
        "qty",
        "--count",
        "--prefetch",
        "4",
    ]
    .map(String::from);
    match client.query("t", &args).expect("answers") {
        Response::Rows { rows, stats, .. } => {
            assert_eq!(rows, Rows::Aggregates(want.to_vec()), "{stats:?}");
            assert_eq!(stats.segments_from_metadata, interior, "{stats:?}");
            assert_eq!(stats.segments_loaded, 2 * edges, "{stats:?}");
            assert_eq!(
                (stats.prefetch_hits, stats.prefetch_wasted),
                (2 * edges, 0),
                "{stats:?}"
            );
        }
        other => panic!("expected rows, got {other:?}"),
    }
    let (handle, _) = catalog.get("t").expect("registered");
    assert_eq!(handle.io_reads(), 2 * edges);
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

/// The prefetch-depth clamp: a window that does not fit the
/// `FileSource` cache alongside the frame under the scan cursor lets
/// the prefetcher evict warmed frames before the scan reaches them —
/// each one a wasted read plus a re-read. The executor clamps the
/// window to `capacity - 2`, so even an absurd requested depth reads
/// each frame exactly once; caches of one or two frames disable
/// prefetch outright.
#[test]
fn prefetch_depth_is_clamped_below_cache_capacity() {
    let root = std::env::temp_dir().join(format!("lcdc_prefetch_clamp_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let table = build_table(7, 6000, 300);
    let dir = root.join("t");
    save_table(&table, &dir).expect("saves");

    // Half the noise domain: undecidable from every zone map, never
    // empty at the data tier — every frame of both touched columns is
    // read on every pass, so read counts compare exactly.
    let spec = QuerySpec::new()
        .filter("noise", Predicate::Range { lo: 0, hi: 249 })
        .aggregate(&[Agg::Sum("steps"), Agg::Count]);

    let plain = open_table_lazy(&dir, 4).expect("opens");
    let want = spec.bind(&plain).execute().expect("no-prefetch reference");
    let frames = plain.io_reads();
    assert!(frames > 0);

    // Requested depth 64 against 4-frame caches: clamped to 2, and the
    // warmed frames actually get consumed.
    let deep = open_table_lazy(&dir, 4).expect("opens");
    let got = spec
        .bind(&deep)
        .execute_opts(&ExecOptions::threads(1).with_prefetch(64))
        .expect("clamped run");
    assert_eq!(got.rows, want.rows);
    assert_eq!(
        deep.io_reads(),
        frames,
        "clamped prefetch never evicts ahead of the scan: {:?}",
        got.stats
    );

    // Capacity 2 clamps the window to 0: no fetcher runs at all.
    let tiny = open_table_lazy(&dir, 2).expect("opens");
    let got = spec
        .bind(&tiny)
        .execute_opts(&ExecOptions::threads(1).with_prefetch(64))
        .expect("disabled run");
    assert_eq!(got.rows, want.rows);
    assert_eq!(tiny.io_reads(), frames);
    assert_eq!(
        (got.stats.prefetch_hits, got.stats.prefetch_wasted),
        (0, 0),
        "prefetch disabled outright"
    );
    std::fs::remove_dir_all(&root).ok();
}

/// The served surface of the same fixture: `--prefetch` over the wire
/// means what it means in process. The session thread runs the job's
/// prefetcher while it waits on the pool, so a wire query with a
/// window reports real hits, reads each frame exactly once (the same
/// I/O as without), answers identically — and the server still
/// executes no wider than its pool.
#[test]
fn prefetch_over_the_wire_overlaps_without_extra_reads() {
    const POOL_THREADS: usize = 2;
    let root = std::env::temp_dir().join(format!("lcdc_wire_prefetch_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    // ~27 segments per shard against 8-frame caches: a sequential pass
    // evicts everything it read, so every query reads every frame.
    let table = build_table(23, 24_000, 300);
    let catalog = Arc::new(lazy_sharded_catalog(&table, 3, &root));
    let config = ServerConfig {
        threads: POOL_THREADS,
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&catalog), "127.0.0.1:0", config).expect("serves");
    let mut client = Client::connect(server.addr()).expect("connects");

    // Undecidable from every zone map (see the clamp test): both
    // touched columns fetch every frame on every pass.
    let base = ["--filter", "noise=0..249", "--sum", "steps", "--count"];
    let mut run = |extra: &[&str]| {
        let args: Vec<String> = base.iter().chain(extra).map(|s| s.to_string()).collect();
        let (handle, _) = catalog.get("t").expect("registered");
        let before = handle.io_reads();
        match client.query("t", &args).expect("answers") {
            Response::Rows { rows, stats, .. } => (rows, stats, handle.io_reads() - before),
            other => panic!("expected rows, got {other:?}"),
        }
    };
    let (plain_rows, plain_stats, plain_reads) = run(&[]);
    let (rows, stats, reads) = run(&["--prefetch", "4"]);
    assert!(plain_reads > 0);
    assert_eq!(
        (plain_stats.prefetch_hits, plain_stats.prefetch_wasted),
        (0, 0),
        "no window, no prefetcher"
    );
    assert_eq!(rows, plain_rows);
    assert!(
        stats.prefetch_hits > 0,
        "the session warmed frames: {stats:?}"
    );
    assert_eq!(reads, plain_reads, "same I/O, overlapped: {stats:?}");
    assert_eq!(core_accounting(&stats), core_accounting(&plain_stats));

    let report = server.shutdown();
    assert!(
        report.peak_leases <= POOL_THREADS as u64,
        "peak {} leases on a {POOL_THREADS}-wide pool",
        report.peak_leases
    );
    std::fs::remove_dir_all(&root).ok();
}
