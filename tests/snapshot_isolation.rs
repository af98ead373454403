//! Snapshot-isolation stress: `Catalog::ingest` racing concurrent
//! queries and other ingests, in-process and through the serving layer.
//!
//! The catalog's contract is that an ingest is **one version bump** —
//! a query either sees the whole batch or none of it, and the result
//! cache never serves rows across a bump. These tests hammer that
//! contract from many threads: every answer must equal the exact rows
//! of *one* published version (identified by the version tag
//! [`Catalog::execute_versioned_with`] returns), never a torn mix.

use lcdc::core::{ColumnData, DType};
use lcdc::store::{
    Agg, Catalog, Client, CompressionPolicy, ExecOptions, Predicate, QuerySpec, Response, Rows,
    Server, ServerConfig, Table, TableSchema,
};
use std::sync::Arc;

const BASE_ROWS: u64 = 3000;
const BATCH_ROWS: u64 = 128;
const BATCHES: u64 = 8;
const HOT_DAY: u64 = 777;
const HOT_QTY: u64 = 3;

fn base_table(seg_rows: usize) -> Table {
    let schema = TableSchema::new(&[("day", DType::U64), ("qty", DType::U64)]);
    let day = ColumnData::U64((0..BASE_ROWS).map(|i| 1 + i / 100).collect());
    let qty = ColumnData::U64((0..BASE_ROWS).map(|i| 1 + i % 50).collect());
    Table::build(
        schema,
        &[day, qty],
        &[CompressionPolicy::Auto, CompressionPolicy::Auto],
        seg_rows,
    )
    .unwrap()
}

fn hot_batch() -> Vec<ColumnData> {
    vec![
        ColumnData::U64(vec![HOT_DAY; BATCH_ROWS as usize]),
        ColumnData::U64(vec![HOT_QTY; BATCH_ROWS as usize]),
    ]
}

fn hot_spec() -> QuerySpec {
    QuerySpec::new()
        .filter(
            "day",
            Predicate::Range {
                lo: HOT_DAY as i128,
                hi: HOT_DAY as i128,
            },
        )
        .aggregate(&[Agg::Sum("qty"), Agg::Count])
}

/// The exact hot-filter rows at `v0 + committed`.
fn expected_hot(committed: u64) -> Rows {
    let count = committed * BATCH_ROWS;
    Rows::Aggregates(vec![Some((count * HOT_QTY) as i128), Some(count as i128)])
}

/// Direct in-process race: reader threads execute through the
/// version-tagged seam while a writer ingests. Every observed
/// `(version, rows)` pair must match exactly; versions must never run
/// backwards within one reader.
#[test]
fn direct_queries_see_exactly_one_version() {
    let catalog = Arc::new(Catalog::new());
    catalog.register("orders", base_table(256));
    let v0 = catalog.version("orders").unwrap();
    let spec = hot_spec();

    std::thread::scope(|scope| {
        for r in 0..4 {
            let (catalog, spec) = (&catalog, &spec);
            scope.spawn(move || {
                let opts = ExecOptions::threads(1 + r % 3);
                let mut last_version = v0;
                for _ in 0..60 {
                    let (result, version) = catalog
                        .execute_versioned_with("orders", spec, |t, join| {
                            spec.execute_on(t, join, &opts)
                        })
                        .unwrap();
                    let committed = version - v0;
                    assert!(committed <= BATCHES);
                    assert_eq!(
                        result.rows,
                        expected_hot(committed),
                        "rows must be version {version}'s snapshot"
                    );
                    assert!(version >= last_version, "versions ran backwards");
                    last_version = version;
                }
            });
        }
        scope.spawn(|| {
            for b in 0..BATCHES {
                std::thread::sleep(std::time::Duration::from_millis(2));
                let version = catalog.ingest("orders", &hot_batch()).unwrap();
                assert_eq!(version, v0 + b + 1);
            }
        });
    });
    assert_eq!(catalog.version("orders").unwrap(), v0 + BATCHES);
}

/// The same race through a keyed *sharded* table: routed ingest is
/// still one atomic bump across all shards — a reader must never see a
/// batch split across shards at two different versions.
#[test]
fn sharded_ingest_publishes_all_shards_atomically() {
    let catalog = Arc::new(Catalog::new());
    let full = base_table(256);
    let shards = lcdc::store::shard_table(&full, 3).unwrap();
    catalog
        .register_sharded_keyed("orders", shards, "day")
        .unwrap();
    let v0 = catalog.version("orders").unwrap();
    // Rows routing to different shards in one batch: days drawn from
    // every third of the base day range [1, 31]. The filter then spans
    // all shards, so a torn publish would be visible as a partial sum.
    let batch = || {
        let days: Vec<u64> = (0..BATCH_ROWS).map(|i| 1 + (i % 3) * 10).collect();
        vec![
            ColumnData::U64(days),
            ColumnData::U64(vec![HOT_QTY; BATCH_ROWS as usize]),
        ]
    };
    let spec = QuerySpec::new()
        .filter_in("day", &[1, 11, 21])
        .aggregate(&[Agg::Count]);
    let base_count = (catalog
        .execute("orders", &spec)
        .unwrap()
        .aggregates()
        .unwrap()[0])
        .unwrap();

    std::thread::scope(|scope| {
        for _ in 0..3 {
            let (catalog, spec) = (&catalog, &spec);
            scope.spawn(move || {
                for _ in 0..50 {
                    let (result, version) = catalog
                        .execute_versioned_with("orders", spec, |t, join| {
                            spec.execute_on(t, join, &ExecOptions::threads(2))
                        })
                        .unwrap();
                    let committed = (version - v0) as i128;
                    assert_eq!(
                        result.aggregates().unwrap()[0],
                        Some(base_count + committed * BATCH_ROWS as i128),
                        "batch visible in full or not at all at v{version}"
                    );
                }
            });
        }
        scope.spawn(|| {
            for _ in 0..BATCHES {
                std::thread::sleep(std::time::Duration::from_millis(2));
                catalog.ingest("orders", &batch()).unwrap();
            }
        });
    });
}

/// Two writers racing readers, on a single table, an unrouted sharded
/// one and a routed one. Each ingest encodes outside the catalog's locks
/// and publishes onto the entry as it is then, so both writers' batches
/// all land: the versions the ingests return are distinct and, with
/// nothing else mutating the catalog, contiguous; and every answer
/// equals the exact rows of the version it is tagged with.
#[test]
fn concurrent_writers_land_every_batch_once() {
    // Days from every third of the base range, so a routed batch spans
    // all shards.
    let batch = || {
        let days: Vec<u64> = (0..BATCH_ROWS).map(|i| 1 + (i % 3) * 10).collect();
        vec![
            ColumnData::U64(days),
            ColumnData::U64(vec![HOT_QTY; BATCH_ROWS as usize]),
        ]
    };
    let spec = QuerySpec::new()
        .filter_in("day", &[1, 11, 21])
        .aggregate(&[Agg::Sum("qty"), Agg::Count]);
    for layout in ["single", "unrouted", "routed"] {
        let catalog = Catalog::new();
        let shards = || lcdc::store::shard_table(&base_table(256), 3).unwrap();
        let v0 = match layout {
            "single" => catalog.register("orders", base_table(256)),
            "unrouted" => catalog.register_sharded("orders", shards()).unwrap(),
            _ => catalog
                .register_sharded_keyed("orders", shards(), "day")
                .unwrap(),
        };
        let base = catalog.execute("orders", &spec).unwrap().rows;
        let Rows::Aggregates(base) = base else {
            panic!("{layout}: {base:?}")
        };
        let (base_sum, base_count) = (base[0].unwrap(), base[1].unwrap());
        let expected = |committed: u64| {
            let rows = (committed * BATCH_ROWS) as i128;
            Rows::Aggregates(vec![
                Some(base_sum + rows * HOT_QTY as i128),
                Some(base_count + rows),
            ])
        };

        let mut versions: Vec<u64> = std::thread::scope(|scope| {
            for r in 0..2 {
                let (catalog, spec, expected) = (&catalog, &spec, &expected);
                scope.spawn(move || {
                    let opts = ExecOptions::threads(1 + r);
                    for _ in 0..40 {
                        let (result, version) = catalog
                            .execute_versioned_with("orders", spec, |t, join| {
                                spec.execute_on(t, join, &opts)
                            })
                            .unwrap();
                        assert!(version - v0 <= 2 * BATCHES, "{layout}: v{version}");
                        assert_eq!(
                            result.rows,
                            expected(version - v0),
                            "{layout}: rows must be version {version}'s"
                        );
                    }
                });
            }
            let writers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        (0..BATCHES)
                            .map(|_| {
                                std::thread::sleep(std::time::Duration::from_millis(1));
                                catalog.ingest("orders", &batch()).unwrap()
                            })
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            writers
                .into_iter()
                .flat_map(|writer| writer.join().unwrap())
                .collect()
        });
        versions.sort_unstable();
        let want: Vec<u64> = (v0 + 1..=v0 + 2 * BATCHES).collect();
        assert_eq!(versions, want, "{layout}: one distinct bump per batch");
        assert_eq!(
            catalog.execute("orders", &spec).unwrap().rows,
            expected(2 * BATCHES),
            "{layout}: every batch landed once"
        );
    }
}

/// Cache coherence under racing bumps: a cached result may only ever
/// be served for the version it was computed against. The version tag
/// on every answer makes the check exact, cache hit or miss.
#[test]
fn result_cache_never_crosses_version_bumps() {
    let catalog = Arc::new(Catalog::new());
    catalog.register("orders", base_table(512));
    let v0 = catalog.version("orders").unwrap();
    let spec = hot_spec();

    std::thread::scope(|scope| {
        for _ in 0..3 {
            let (catalog, spec) = (&catalog, &spec);
            scope.spawn(move || {
                let mut hits = 0u32;
                for _ in 0..80 {
                    let (result, version) = catalog
                        .execute_versioned_with("orders", spec, |t, join| {
                            spec.execute_on(t, join, &ExecOptions::threads(1))
                        })
                        .unwrap();
                    if result.stats.result_cache_hits > 0 {
                        hits += 1;
                    }
                    // Hit or miss, the rows must be the tagged
                    // version's — a stale cache entry served across a
                    // bump would pair new-version tags with old rows
                    // or vice versa.
                    assert_eq!(result.rows, expected_hot(version - v0));
                }
                // With 80 probes against 8 slow bumps, re-probes of an
                // unchanged version must hit the cache at least once —
                // this test exercises hits, not just misses.
                assert!(hits > 0, "cache never engaged; the test lost its teeth");
            });
        }
        scope.spawn(|| {
            for _ in 0..BATCHES {
                std::thread::sleep(std::time::Duration::from_millis(3));
                catalog.ingest("orders", &hot_batch()).unwrap();
            }
        });
    });
}

/// The join-specific cache hazard: a join's classic cache key —
/// `(fingerprint, left version)` — never moves when only the *right*
/// table is ingested into. Isolation then rests entirely on the cached
/// entry's right-table version. Readers race a right-side writer: every
/// answer's pair count must be an exact whole number of committed
/// batches, non-decreasing per reader, and the post-race probe must see
/// all of them — a stale cached join would stay frozen at batch zero.
#[test]
fn join_results_track_the_right_tables_version() {
    const LEFT_DAY1_ROWS: i128 = 100; // base_table: 100 rows per day
    let unit = LEFT_DAY1_ROWS * BATCH_ROWS as i128;
    let catalog = Arc::new(Catalog::new());
    catalog.register("orders", base_table(256)); // left: never written again
                                                 // The right side starts fully disjoint from the left's day range,
                                                 // so batch zero joins to nothing.
    catalog.register(
        "days",
        Table::build(
            TableSchema::new(&[("day", DType::U64)]),
            &[ColumnData::U64(vec![9999; 512])],
            &[CompressionPolicy::Auto],
            256,
        )
        .unwrap(),
    );
    let v0 = catalog.version("orders").unwrap();
    let spec = QuerySpec::new().join("days", "day");
    let committed_of = |result: &lcdc::store::QueryResult| -> i128 {
        match result.joined().unwrap() {
            [] => 0,
            [(1, pairs)] => {
                assert_eq!(pairs % unit, 0, "a torn batch leaked into the join");
                pairs / unit
            }
            other => panic!("unexpected join rows {other:?}"),
        }
    };

    std::thread::scope(|scope| {
        for _ in 0..3 {
            let (catalog, spec) = (&catalog, &spec);
            scope.spawn(move || {
                let mut last = 0i128;
                for _ in 0..60 {
                    let (result, version) = catalog
                        .execute_versioned_with("orders", spec, |t, join| {
                            spec.execute_on(t, join, &ExecOptions::threads(2))
                        })
                        .unwrap();
                    assert_eq!(version, v0, "the left table never bumps");
                    let committed = committed_of(&result);
                    assert!((0..=BATCHES as i128).contains(&committed));
                    assert!(committed >= last, "right-table versions ran backwards");
                    last = committed;
                }
            });
        }
        scope.spawn(|| {
            for _ in 0..BATCHES {
                std::thread::sleep(std::time::Duration::from_millis(2));
                catalog
                    .ingest("days", &[ColumnData::U64(vec![1; BATCH_ROWS as usize])])
                    .unwrap();
            }
        });
    });

    // Deterministic staleness probe: the left version is still v0, so a
    // cache keyed on the left version alone would happily serve the
    // pre-ingest pairs here. Run twice — the second answer must be a
    // cache hit *and* current.
    let after = catalog.execute("orders", &spec).unwrap();
    assert_eq!(committed_of(&after), BATCHES as i128, "all batches visible");
    let cached = catalog.execute("orders", &spec).unwrap();
    assert!(
        cached.stats.result_cache_hits > 0,
        "the probe re-used the cache"
    );
    assert_eq!(committed_of(&cached), BATCHES as i128);
}

/// The same isolation guarantee holds end to end through the server:
/// wire ingests racing wire queries, plus a direct in-process writer
/// on the *same* catalog the server holds — the server is just another
/// `Arc` holder, and isolation comes from the catalog, not the wire.
#[test]
fn server_and_direct_writers_stay_snapshot_isolated() {
    let catalog = Arc::new(Catalog::new());
    catalog.register("orders", base_table(256));
    let v0 = catalog.version("orders").unwrap();
    let server = Server::start(
        Arc::clone(&catalog),
        "127.0.0.1:0",
        ServerConfig {
            threads: 2,
            max_inflight: 32,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    let args: Vec<String> = ["--filter", "day=777..777", "--sum", "qty", "--count"]
        .iter()
        .map(|s| s.to_string())
        .collect();

    std::thread::scope(|scope| {
        for _ in 0..4 {
            let args = &args;
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for _ in 0..40 {
                    match client.query("orders", args).unwrap() {
                        Response::Rows { version, rows, .. } => {
                            assert_eq!(rows, expected_hot(version - v0));
                        }
                        other => panic!("{other:?}"),
                    }
                }
            });
        }
        // Half the batches commit over the wire, half directly in
        // process, interleaved.
        scope.spawn(|| {
            let mut client = Client::connect(addr).unwrap();
            for b in 0..BATCHES {
                std::thread::sleep(std::time::Duration::from_millis(2));
                if b % 2 == 0 {
                    let r = client.ingest("orders", hot_batch()).unwrap();
                    assert!(matches!(r, Response::Ingested { .. }), "{r:?}");
                } else {
                    catalog.ingest("orders", &hot_batch()).unwrap();
                }
            }
        });
    });

    assert_eq!(catalog.version("orders").unwrap(), v0 + BATCHES);
    server.shutdown();
}
