//! E7 — selection pushdown: naive decompress-then-filter vs zone-map /
//! run-granularity pushdown, across selectivities on the lineitem-like
//! table — plus the storage surfaces the same plan runs on since the
//! catalog redesign (sharded fan-in, lazy file-backed scans, the
//! plan-fingerprint result cache), the lease-driven executor on a
//! skew-tiered table, and I/O-overlapped prefetch on a lazy table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lcdc_bench::lineitem;
use lcdc_core::{ColumnData, DType};
use lcdc_store::{
    open_table_lazy, save_table, shard_table, Agg, Catalog, Client, CompressionPolicy, ExecOptions,
    Predicate, QuerySpec, Response, Server, ServerConfig, ShardedTable, Table, TableSchema,
};
use std::hint::black_box;
use std::sync::{Arc, Mutex};

fn build_table() -> Table {
    let t = lineitem(400, 250);
    let schema = TableSchema::new(&[("shipdate", DType::U64), ("price", DType::U64)]);
    Table::build(
        schema,
        &[
            ColumnData::U64(t.shipdate),
            ColumnData::U64(t.extendedprice),
        ],
        &[CompressionPolicy::Auto, CompressionPolicy::Auto],
        8192,
    )
    .unwrap()
}

fn bench_query(c: &mut Criterion) {
    let table = build_table();
    let d0 = 19_920_101u64;
    let mut group = c.benchmark_group("e7/filtered_sum");
    for days in [4u64, 40, 400] {
        let spec = QuerySpec::new()
            .filter(
                "shipdate",
                Predicate::Range {
                    lo: d0 as i128,
                    hi: (d0 + days - 1) as i128,
                },
            )
            .aggregate(&[Agg::Sum("price"), Agg::Count]);
        // Answers must agree before we time anything.
        assert_eq!(
            spec.bind(&table).execute_naive().unwrap().rows,
            spec.bind(&table).execute().unwrap().rows
        );
        group.bench_with_input(BenchmarkId::new("naive", days), &days, |b, _| {
            b.iter(|| spec.bind(black_box(&table)).execute_naive().unwrap())
        });
        group.bench_with_input(BenchmarkId::new("pushdown", days), &days, |b, _| {
            b.iter(|| spec.bind(black_box(&table)).execute().unwrap())
        });
    }
    group.finish();
}

/// The same filtered sum across storage surfaces: one resident table,
/// a 4-shard catalog fan-in, a lazy file-backed table (zone-map pruning
/// extends down to disk reads), and a catalog result-cache hit.
fn bench_storage_surfaces(c: &mut Criterion) {
    let table = build_table();
    let d0 = 19_920_101i128;
    let spec = QuerySpec::new()
        .filter(
            "shipdate",
            Predicate::Range {
                lo: d0,
                hi: d0 + 39,
            },
        )
        .aggregate(&[Agg::Sum("price")]);

    let dir = std::env::temp_dir().join(format!("lcdc_e7_lazy_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    save_table(&table, &dir).unwrap();
    // Cache capacity below the per-column working set, so the timed
    // loop actually exercises FileSource's disk-read path, not just
    // the LRU hit path.
    let lazy = open_table_lazy(&dir, 2).unwrap();

    // Fan-out measured without result caching; a caching catalog
    // alongside shows the ceiling.
    let uncached = Catalog::with_cache_capacity(0);
    uncached
        .register_sharded("lineitem", shard_table(&table, 4).unwrap())
        .unwrap();
    let cached = Catalog::new();
    cached.register("lineitem", table.clone());
    cached.execute("lineitem", &spec).unwrap(); // warm the cache

    // All surfaces must agree before anything is timed.
    let want = spec.bind(&table).execute().unwrap().rows;
    assert_eq!(spec.bind(&lazy).execute().unwrap().rows, want);
    assert_eq!(uncached.execute("lineitem", &spec).unwrap().rows, want);
    assert_eq!(cached.execute("lineitem", &spec).unwrap().rows, want);

    let mut group = c.benchmark_group("e7/storage_surfaces");
    group.bench_function("resident_pushdown", |b| {
        b.iter(|| spec.bind(black_box(&table)).execute().unwrap())
    });
    group.bench_function("lazy_file_backed", |b| {
        b.iter(|| spec.bind(black_box(&lazy)).execute().unwrap())
    });
    group.bench_function("sharded_fanout_x4", |b| {
        b.iter(|| {
            uncached
                .execute_parallel(black_box("lineitem"), black_box(&spec), 4)
                .unwrap()
        })
    });
    group.bench_function("result_cache_hit", |b| {
        b.iter(|| {
            cached
                .execute(black_box("lineitem"), black_box(&spec))
                .unwrap()
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The executor on a table whose pushdown tiers are *skewed*: the first
/// 12 of 16 segments zone-prune for free, the last 4 are noise that
/// must decompress at the row tier. Threads lease short runs of
/// segments from the one job, so the expensive tail spreads across
/// whoever is idle instead of tail-blocking one contiguous partition,
/// and the lease cap never exceeds `available_parallelism`.
fn bench_morsel_skew(c: &mut Criterion) {
    const SEG_ROWS: usize = 16_384;
    const SEGMENTS: usize = 16;
    const CHEAP: usize = 12;
    let n = SEG_ROWS * SEGMENTS;
    let key: Vec<u64> = (0..n)
        .map(|i| {
            if i / SEG_ROWS < CHEAP {
                5 // constant: the filter's zone check settles the segment
            } else {
                1000 + ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 43) % 1000
            }
        })
        .collect();
    let val: Vec<u64> = (0..n)
        .map(|i| (i as u64).wrapping_mul(0xD134_2543_DE82_EF95) >> 40)
        .collect();
    let schema = TableSchema::new(&[("key", DType::U64), ("val", DType::U64)]);
    let table = Table::build(
        schema,
        &[ColumnData::U64(key), ColumnData::U64(val)],
        &[CompressionPolicy::Auto, CompressionPolicy::Auto],
        SEG_ROWS,
    )
    .unwrap();
    // Half the noise range: undecidable from the zone map, so the last
    // four segments pay row-tier filtering plus the aggregate.
    let builder = QuerySpec::new()
        .filter("key", Predicate::Range { lo: 1000, hi: 1499 })
        .aggregate(&[Agg::Sum("val"), Agg::Count])
        .bind(&table);

    // All schedules must agree before anything is timed.
    let want = builder.execute().unwrap();
    for threads in [2usize, 4, 8] {
        assert_eq!(builder.execute_parallel(threads).unwrap().rows, want.rows);
    }

    let mut group = c.benchmark_group("e7/morsel_skew");
    group.bench_function("sequential", |b| {
        b.iter(|| black_box(&builder).execute().unwrap())
    });
    for threads in [4usize, 8] {
        group.bench_with_input(
            BenchmarkId::new("morsel", threads),
            &threads,
            |b, &threads| b.iter(|| black_box(&builder).execute_parallel(threads).unwrap()),
        );
    }
    group.finish();
}

/// I/O-overlapped prefetch on a lazily-backed table: every segment of
/// both columns is undecidable from the zone map, so a full pass
/// fetches every frame; the per-column LRU (capacity 16 of 32 frames)
/// guarantees each pass re-reads everything. With prefetch, a
/// prefetch helper warms frames N+1..N+4 while the scan filters
/// frame N — same reads, overlapped instead of serial.
fn bench_prefetch(c: &mut Criterion) {
    const SEG_ROWS: usize = 8_192;
    const SEGMENTS: usize = 32;
    let n = SEG_ROWS * SEGMENTS;
    let key: Vec<u64> = (0..n)
        .map(|i| ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 43) % 1000)
        .collect();
    let val: Vec<u64> = (0..n)
        .map(|i| (i as u64).wrapping_mul(0xD134_2543_DE82_EF95) >> 40)
        .collect();
    let schema = TableSchema::new(&[("key", DType::U64), ("val", DType::U64)]);
    let table = Table::build(
        schema,
        &[ColumnData::U64(key), ColumnData::U64(val)],
        &[CompressionPolicy::Auto, CompressionPolicy::Auto],
        SEG_ROWS,
    )
    .unwrap();
    let dir = std::env::temp_dir().join(format!("lcdc_e7_prefetch_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    save_table(&table, &dir).unwrap();

    let spec = QuerySpec::new()
        .filter("key", Predicate::Range { lo: 0, hi: 499 })
        .aggregate(&[Agg::Sum("val"), Agg::Count]);
    let want = spec.bind(&table).execute().unwrap();

    // One fresh lazy instance per mode: identical frame reads, with the
    // overlap visible only in wall clock and the prefetch counters. The
    // per-column cache (16 of 32 frames) is deliberately smaller than a
    // full pass, so every pass re-reads every frame, while leaving the
    // prefetch window (4 morsels ahead) comfortable eviction headroom.
    let plain = open_table_lazy(&dir, 16).unwrap();
    let warmed = open_table_lazy(&dir, 16).unwrap();
    let no_prefetch = spec.bind(&plain).execute().unwrap();
    let frames_read = plain.io_reads();
    let with_prefetch = spec
        .bind(&warmed)
        .execute_opts(&ExecOptions::threads(1).with_prefetch(4))
        .unwrap();
    assert_eq!(no_prefetch.rows, want.rows);
    assert_eq!(with_prefetch.rows, want.rows);
    assert!(
        with_prefetch.stats.prefetch_hits > 0,
        "prefetch must overlap: {:?}",
        with_prefetch.stats
    );
    assert_eq!(
        warmed.io_reads(),
        frames_read,
        "prefetch must not change what is read, only when: {:?}",
        with_prefetch.stats
    );
    println!(
        "  [prefetch overlap: {} frames read either way, {} served from warmed cache, \
         {} wasted]",
        frames_read, with_prefetch.stats.prefetch_hits, with_prefetch.stats.prefetch_wasted
    );

    let mut group = c.benchmark_group("e7/prefetch");
    group.bench_function("lazy_no_prefetch", |b| {
        b.iter(|| spec.bind(black_box(&plain)).execute().unwrap())
    });
    group.bench_function("lazy_prefetch4", |b| {
        b.iter(|| {
            spec.bind(black_box(&warmed))
                .execute_opts(&ExecOptions::threads(1).with_prefetch(4))
                .unwrap()
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The write path: encode-and-append throughput for a resident table
/// and a key-routed two-shard table (the batch spans the shard
/// boundary, so every iteration pays the split), plus the post-ingest
/// scan next to the pre-ingest scan of the same plan — appended
/// segments carry zone maps and scheme tags exactly like built ones,
/// so a grown table must prune (and therefore scan) like the original.
fn bench_ingest(c: &mut Criterion) {
    const BATCH: u64 = 8_192;
    let table = build_table();
    let d0 = 19_920_101i128;
    let spec = QuerySpec::new()
        .filter(
            "shipdate",
            Predicate::Range {
                lo: d0,
                hi: d0 + 39,
            },
        )
        .aggregate(&[Agg::Sum("price")]);

    // New rows dated past the existing data, as a real ingest would be.
    let batch = vec![
        ColumnData::U64((0..BATCH).map(|i| 19_990_101 + i / 250).collect()),
        ColumnData::U64((0..BATCH).map(|i| 900 + (i * 13) % 1000).collect()),
    ];
    // Append must neither disturb the existing answer nor lose rows,
    // before anything is timed.
    let want = spec.bind(&table).execute().unwrap();
    let grown = table.append(&batch).unwrap();
    assert_eq!(grown.num_rows(), table.num_rows() + BATCH as usize);
    assert_eq!(spec.bind(&grown).execute().unwrap().rows, want.rows);

    // A keyed two-shard split of the same rows at a date boundary.
    let ship = table.materialize("shipdate").unwrap().to_numeric();
    let price = table.materialize("price").unwrap().to_numeric();
    assert!(ship.windows(2).all(|w| w[0] <= w[1]), "shipdate is sorted");
    let split = ship.partition_point(|&d| d <= ship[ship.len() / 2]);
    let build_shard = |range: std::ops::Range<usize>| {
        Table::build(
            TableSchema::new(&[("shipdate", DType::U64), ("price", DType::U64)]),
            &[
                ColumnData::from_numeric(DType::U64, &ship[range.clone()]).unwrap(),
                ColumnData::from_numeric(DType::U64, &price[range]).unwrap(),
            ],
            &[CompressionPolicy::Auto, CompressionPolicy::Auto],
            8192,
        )
        .unwrap()
    };
    let sharded = ShardedTable::with_key(
        vec![build_shard(0..split), build_shard(split..ship.len())],
        "shipdate",
    )
    .unwrap();
    // Half the batch keys inside shard 0's range, half past shard 1's.
    let spanning = vec![
        ColumnData::U64(
            (0..BATCH)
                .map(|i| if i % 2 == 0 { 19_920_103 } else { 19_990_101 })
                .collect(),
        ),
        ColumnData::U64((0..BATCH).map(|i| 900 + (i * 13) % 1000).collect()),
    ];
    let routed = sharded.append_batch(&spanning).unwrap();
    assert_eq!(
        routed.table().num_rows(),
        sharded.table().num_rows() + BATCH as usize
    );
    assert_eq!(
        routed.shards()[0].num_rows(),
        sharded.shards()[0].num_rows() + BATCH as usize / 2,
        "even keys land in shard 0"
    );

    let mut group = c.benchmark_group("e7/ingest");
    group.bench_function("append_resident", |b| {
        b.iter(|| black_box(table.append(black_box(&batch)).unwrap()))
    });
    group.bench_function("route_and_append_sharded_x2", |b| {
        b.iter(|| black_box(sharded.append_batch(black_box(&spanning)).unwrap()))
    });
    group.bench_function("scan_pre_ingest", |b| {
        b.iter(|| spec.bind(black_box(&table)).execute().unwrap())
    });
    group.bench_function("scan_post_ingest", |b| {
        b.iter(|| spec.bind(black_box(&grown)).execute().unwrap())
    });
    group.finish();
}

/// Decompression-avoiding group-by: a high-cardinality DICT key column
/// (509 distinct values in pseudo-random order — no runs for the RLE
/// tier to lean on) and a skewed Zipf key column, each grouped with a
/// sum. The decoded baseline materialises the key column and probes a
/// hash table per row; the code-space tier aggregates straight on the
/// dictionary codes into a dense per-code accumulator and decodes each
/// distinct key exactly once at merge time. Same answers, and the
/// `rows_undecoded` / `groups_folded` counters prove the key column
/// was never decompressed.
fn bench_groupby_dict(c: &mut Criterion) {
    const SEG_ROWS: usize = 8_192;
    const N: usize = SEG_ROWS * 24;
    let schema = TableSchema::new(&[("key", DType::U64), ("val", DType::U64)]);
    let build = |key: Vec<u64>| {
        let val: Vec<u64> = (0..N)
            .map(|i| (i as u64).wrapping_mul(0xD134_2543_DE82_EF95) >> 40)
            .collect();
        Table::build(
            schema.clone(),
            &[ColumnData::U64(key), ColumnData::U64(val)],
            &[
                CompressionPolicy::Fixed("dict[codes=ns]".into()),
                CompressionPolicy::Auto,
            ],
            SEG_ROWS,
        )
        .unwrap()
    };
    // High cardinality, no runs: 509 distinct keys, scrambled.
    let high_card = build(
        (0..N)
            .map(|i| (i as u64).wrapping_mul(7919) % 509)
            .collect(),
    );
    // Skewed: Zipf(1.1) over 256 keys — a few groups dominate.
    let skewed = build(lcdc_datagen::zipf::zipf_codes(N, 256, 1.1, 17));

    let spec = QuerySpec::new()
        .group_by("key")
        .aggregate(&[Agg::Sum("val"), Agg::Count]);

    let mut group = c.benchmark_group("e7/groupby_dict");
    for (name, table) in [("high_card", &high_card), ("skewed_zipf", &skewed)] {
        let builder = spec.bind(table);
        let decoded = builder.execute_naive().unwrap();
        let codes = builder.execute().unwrap();
        // Equal answers, with the key column provably never decoded.
        assert_eq!(codes.rows, decoded.rows, "{name}");
        assert!(
            codes.stats.rows_undecoded > 0,
            "{name}: code-space tier must fire: {:?}",
            codes.stats
        );
        assert_eq!(
            codes.stats.rows_undecoded,
            table.num_rows(),
            "{name}: every key row aggregated in code space"
        );
        assert!(codes.stats.groups_folded > 0, "{name}: {:?}", codes.stats);
        assert_eq!(decoded.stats.rows_undecoded, 0, "{name}: baseline decodes");

        group.bench_function(BenchmarkId::new("decoded", name), |b| {
            b.iter(|| spec.bind(black_box(table)).execute_naive().unwrap())
        });
        group.bench_function(BenchmarkId::new("dict_codes", name), |b| {
            b.iter(|| spec.bind(black_box(table)).execute().unwrap())
        });
    }
    // Bare group-by (count per key): fully structural — not a single
    // payload row materialised.
    let bare = QuerySpec::new().group_by("key");
    let bare_result = bare.bind(&high_card).execute().unwrap();
    assert_eq!(
        bare_result.stats.rows_materialized, 0,
        "{:?}",
        bare_result.stats
    );
    group.bench_function(BenchmarkId::new("dict_codes", "bare_count"), |b| {
        b.iter(|| bare.bind(black_box(&high_card)).execute().unwrap())
    });
    group.finish();
}

/// Compressed-domain equi-join vs the decoded nested-loop baseline, on
/// the two key distributions that stress opposite ends of the DICT⋈DICT
/// tier: a high-cardinality scrambled key (509 distinct values — every
/// left segment's dictionary translates into the right's code space,
/// runs are useless) and a Zipf(1.1) key (a few heavy hitters dominate
/// both sides, so per-code counts fold millions of row pairs each).
/// The decoded baseline materialises both key columns and probes row by
/// row; the code-space tier folds histogram×histogram per live segment
/// pair. Same `(key, pairs)` ledgers, and the in-bench asserts pin the
/// proof counters: `join_rows_undecoded` covers every key row on both
/// sides, `join_code_translations` fires once per live DICT⋈DICT pair,
/// and the baseline reports zeros across the board.
fn bench_join(c: &mut Criterion) {
    const SEG_ROWS: usize = 8_192;
    const LEFT_N: usize = SEG_ROWS * 16;
    const RIGHT_N: usize = SEG_ROWS * 4;
    let schema = TableSchema::new(&[("key", DType::U64), ("val", DType::U64)]);
    let build = |key: Vec<u64>| {
        let n = key.len();
        let val: Vec<u64> = (0..n)
            .map(|i| (i as u64).wrapping_mul(0xD134_2543_DE82_EF95) >> 40)
            .collect();
        Table::build(
            schema.clone(),
            &[ColumnData::U64(key), ColumnData::U64(val)],
            &[
                CompressionPolicy::Fixed("dict[codes=ns]".into()),
                CompressionPolicy::Auto,
            ],
            SEG_ROWS,
        )
        .unwrap()
    };
    // High cardinality, scrambled: distinct multipliers keep the two
    // sides' dictionaries (and hence code spaces) different, so the
    // join cannot shortcut through identical code assignments.
    let high_card = (
        build(
            (0..LEFT_N)
                .map(|i| (i as u64).wrapping_mul(7919) % 509)
                .collect(),
        ),
        build(
            (0..RIGHT_N)
                .map(|i| (i as u64).wrapping_mul(104_729) % 509)
                .collect(),
        ),
    );
    // Skewed: Zipf(1.1) over 256 keys on both sides, different seeds.
    let skewed = (
        build(lcdc_datagen::zipf::zipf_codes(LEFT_N, 256, 1.1, 17)),
        build(lcdc_datagen::zipf::zipf_codes(RIGHT_N, 256, 1.1, 91)),
    );

    let spec = QuerySpec::new();
    let mut group = c.benchmark_group("e7/join");
    for (name, (left, right)) in [("high_card", &high_card), ("skewed_zipf", &skewed)] {
        let right = Arc::new(right.clone());
        let builder = spec.bind(left).join("r", Arc::clone(&right), "key");
        let decoded = builder.execute_naive().unwrap();
        let codes = builder.execute().unwrap();
        // Equal pair ledgers, with neither key column ever decoded.
        assert_eq!(codes.rows, decoded.rows, "{name}");
        assert_eq!(
            codes.stats.join_rows_undecoded,
            left.num_rows() + right.num_rows(),
            "{name}: every key row on both sides stays compressed: {:?}",
            codes.stats
        );
        assert!(
            codes.stats.join_code_translations > 0,
            "{name}: DICT⋈DICT pairs must translate code spaces: {:?}",
            codes.stats
        );
        assert_eq!(
            decoded.stats.join_rows_undecoded, 0,
            "{name}: baseline decodes"
        );
        assert_eq!(decoded.stats.join_code_translations, 0, "{name}");

        group.bench_function(BenchmarkId::new("decoded", name), |b| {
            b.iter(|| {
                spec.bind(black_box(left))
                    .join("r", Arc::clone(&right), "key")
                    .execute_naive()
                    .unwrap()
            })
        });
        group.bench_function(BenchmarkId::new("code_space", name), |b| {
            b.iter(|| {
                spec.bind(black_box(left))
                    .join("r", Arc::clone(&right), "key")
                    .execute()
                    .unwrap()
            })
        });
    }
    group.finish();
}

/// The shared top-k bound: one "hot" segment holds the entire top-k
/// (its zone max dwarfs the rest), the other 15 segments are moderate
/// noise whose maxima tie each other — so a worker's *own* heap, built
/// from a moderate segment, can never prune its neighbours, while the
/// bound published by whoever drew the hot segment prunes them all.
/// Best-max-first visit order hands the hot segment out first; from
/// then on every worker — and every later segment, under any worker
/// count the hardware allows — skips on the shared bound
/// (`topk_segments_skipped`).
fn bench_topk_bound(c: &mut Criterion) {
    const SEG_ROWS: usize = 16_384;
    const SEGMENTS: usize = 16;
    const K: usize = 64;
    let n = SEG_ROWS * SEGMENTS;
    let v: Vec<u64> = (0..n)
        .map(|i| {
            let noise = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 54;
            if i / SEG_ROWS == 0 {
                2_000_000 + noise // the hot segment: all of the top-k
            } else {
                noise // moderate noise, max ~1023 in every segment
            }
        })
        .collect();
    let schema = TableSchema::new(&[("v", DType::U64)]);
    let table = Table::build(
        schema,
        &[ColumnData::U64(v)],
        &[CompressionPolicy::Auto],
        SEG_ROWS,
    )
    .unwrap();
    let spec = QuerySpec::new().top_k("v", K);
    let shared = ExecOptions::threads(4);

    // All schedules agree; the shared bound provably skips segments.
    // The exact-count assert runs on one worker — `execute()` itself
    // (race-free under any core count: the queue is drained in
    // best-max order, so the hot segment publishes before any moderate
    // segment is considered); more workers can only race the
    // publication, never over-skip.
    let want = spec.bind(&table).execute().unwrap();
    assert_eq!(
        want.stats.topk_segments_skipped,
        SEGMENTS - 1,
        "the shared bound must skip every moderate segment: {:?}",
        want.stats
    );
    let with_bound = spec.bind(&table).execute_opts(&shared).unwrap();
    assert_eq!(with_bound.rows, want.rows);
    assert!(with_bound.stats.topk_segments_skipped < SEGMENTS);

    let mut group = c.benchmark_group("e7/topk_bound");
    group.bench_function("sequential", |b| {
        b.iter(|| spec.bind(black_box(&table)).execute().unwrap())
    });
    group.bench_function("shared_x4", |b| {
        b.iter(|| spec.bind(black_box(&table)).execute_opts(&shared).unwrap())
    });
    group.finish();
}

/// The serving layer: N wire clients against one `Server`, concurrent
/// vs the same N requests down one connection sequentially. The result
/// cache is disabled so every request really executes, and the shared
/// worker pool — not per-query thread spawning — is what absorbs the
/// concurrency: in-bench asserts pin the pool's peak lease count at or
/// below its configured width and require zero admission rejections.
/// Measured per *round* of N requests; the concurrent number includes
/// the client-side thread scatter/gather, which a real fan-in client
/// would pay too.
fn bench_serve(c: &mut Criterion) {
    const CLIENTS: usize = 4;
    const POOL_THREADS: usize = 2;
    let catalog = Catalog::with_cache_capacity(0);
    catalog.register("lineitem", build_table());
    let catalog = Arc::new(catalog);
    let server = Server::start(
        Arc::clone(&catalog),
        "127.0.0.1:0",
        ServerConfig {
            threads: POOL_THREADS,
            max_inflight: 64,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr().to_string();

    let flags: Vec<String> = [
        "--filter",
        "shipdate=19920101..19920140",
        "--sum",
        "price",
        "--count",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let ask = |client: &mut Client| match client.query("lineitem", &flags).unwrap() {
        Response::Rows { rows, .. } => rows,
        other => panic!("expected rows, got {other:?}"),
    };

    // Every wire answer must equal the direct in-process execution of
    // the same catalog before anything is timed.
    let spec = QuerySpec::new()
        .filter(
            "shipdate",
            Predicate::Range {
                lo: 19_920_101,
                hi: 19_920_140,
            },
        )
        .aggregate(&[Agg::Sum("price"), Agg::Count]);
    let want = catalog.execute("lineitem", &spec).unwrap().rows;
    let mut sequential = Client::connect(addr.as_str()).unwrap();
    assert_eq!(ask(&mut sequential), want);
    let concurrent: Vec<Mutex<Client>> = (0..CLIENTS)
        .map(|_| Mutex::new(Client::connect(addr.as_str()).unwrap()))
        .collect();
    std::thread::scope(|scope| {
        for client in &concurrent {
            scope.spawn(|| assert_eq!(ask(&mut client.lock().unwrap()), want));
        }
    });

    let mut group = c.benchmark_group("e7/serve");
    group.bench_function(BenchmarkId::new("sequential", CLIENTS), |b| {
        b.iter(|| {
            for _ in 0..CLIENTS {
                black_box(ask(&mut sequential));
            }
        })
    });
    group.bench_function(BenchmarkId::new("concurrent", CLIENTS), |b| {
        b.iter(|| {
            std::thread::scope(|scope| {
                for client in &concurrent {
                    scope.spawn(|| black_box(ask(&mut client.lock().unwrap())));
                }
            })
        })
    });
    group.finish();

    // The pool held its width the whole time and admitted everything.
    let report = sequential.stats().unwrap();
    assert_eq!(report.pool_threads, POOL_THREADS as u64);
    assert!(
        report.peak_leases <= POOL_THREADS as u64,
        "pool overshot its width: {report}"
    );
    assert_eq!(report.rejected, 0, "{report}");
    drop(sequential);
    drop(concurrent);
    server.shutdown();
}

criterion_group!(
    benches,
    bench_query,
    bench_storage_surfaces,
    bench_morsel_skew,
    bench_prefetch,
    bench_ingest,
    bench_groupby_dict,
    bench_join,
    bench_topk_bound,
    bench_serve
);
criterion_main!(benches);
