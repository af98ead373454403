//! End-to-end exercise of `lcdc serve`: many concurrent wire clients,
//! an ingester committing versions mid-flight, admission control, and
//! the per-endpoint stats report — all over real TCP sockets against
//! the real server.

use lcdc::core::{ColumnData, DType};
use lcdc::store::{
    open_table_lazy, save_table, Catalog, Client, CompressionPolicy, FaultPlan, Response, Rows,
    Server, ServerConfig, Table, TableSchema,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const BASE_ROWS: u64 = 4000;
const BATCH_ROWS: u64 = 200;
const BATCHES: u64 = 6;
/// Marker day value every ingested batch carries — disjoint from the
/// base rows' days, so each version's answer is exactly computable.
const HOT_DAY: u64 = 1000;
const HOT_QTY: u64 = 7;

fn base_table() -> Table {
    let schema = TableSchema::new(&[("day", DType::U64), ("qty", DType::U64)]);
    let day = ColumnData::U64((0..BASE_ROWS).map(|i| 1 + i / 100).collect());
    let qty = ColumnData::U64((0..BASE_ROWS).map(|i| 1 + i % 50).collect());
    Table::build(
        schema,
        &[day, qty],
        &[CompressionPolicy::Auto, CompressionPolicy::Auto],
        256,
    )
    .unwrap()
}

fn hot_batch() -> Vec<ColumnData> {
    vec![
        ColumnData::U64(vec![HOT_DAY; BATCH_ROWS as usize]),
        ColumnData::U64(vec![HOT_QTY; BATCH_ROWS as usize]),
    ]
}

/// The exact rows every version must answer for the hot-day filter:
/// `batches_committed` is `version - v0`.
fn expected_hot(batches_committed: u64) -> Rows {
    let count = batches_committed * BATCH_ROWS;
    Rows::Aggregates(vec![Some((count * HOT_QTY) as i128), Some(count as i128)])
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

/// The acceptance scenario: 8 concurrent clients hammer the server
/// while a 9th commits ingest batches mid-flight. Every answer must be
/// a clean snapshot of exactly one published version, the pool must
/// never execute wider than configured, and the final stats report
/// must account for every request.
#[test]
fn concurrent_clients_race_wire_ingest_with_snapshot_answers() {
    const CLIENTS: u64 = 8;
    const QUERIES_PER_CLIENT: u64 = 25;
    const POOL_THREADS: usize = 3;

    let catalog = Arc::new(Catalog::new());
    catalog.register("orders", base_table());
    let v0 = catalog.version("orders").unwrap();
    let server = Server::start(
        Arc::clone(&catalog),
        "127.0.0.1:0",
        ServerConfig {
            threads: POOL_THREADS,
            // Deep enough that this test never trips admission — BUSY
            // determinism is its own test below.
            max_inflight: 64,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // The hot query: only ingested batches satisfy it, so its answer
    // *is* the version number, restated as rows. Vary the execution
    // knobs across clients; `--threads` caps each client's pool share.
    let queries_sent = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (queries_sent, catalog) = (&queries_sent, &catalog);
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let hot = args(&[
                    "--filter",
                    "day=1000..1000",
                    "--sum",
                    "qty",
                    "--count",
                    "--threads",
                    &(1 + c % 4).to_string(),
                ]);
                for _ in 0..QUERIES_PER_CLIENT {
                    queries_sent.fetch_add(1, Ordering::Relaxed);
                    match client.query("orders", &hot).unwrap() {
                        Response::Rows { version, rows, .. } => {
                            let committed = version - v0;
                            assert!(committed <= BATCHES, "impossible version {version}");
                            assert_eq!(
                                rows,
                                expected_hot(committed),
                                "answer must be version {version}'s snapshot, \
                                 never a torn mix of versions"
                            );
                            // The version the server claims is one the
                            // catalog actually published.
                            assert!(catalog.version("orders").unwrap() >= version);
                        }
                        other => panic!("expected rows, got {other:?}"),
                    }
                }
            });
        }
        // The ingester commits batches over the wire, mid-flight.
        scope.spawn(|| {
            let mut client = Client::connect(addr).unwrap();
            for b in 0..BATCHES {
                std::thread::sleep(std::time::Duration::from_millis(5));
                match client.ingest("orders", hot_batch()).unwrap() {
                    Response::Ingested { version, rows } => {
                        assert_eq!(rows, BATCH_ROWS);
                        assert_eq!(version, v0 + b + 1, "one bump per batch");
                    }
                    other => panic!("expected ingested, got {other:?}"),
                }
            }
        });
    });

    // After the race: the server's answer equals a direct in-process
    // query of the same catalog (the single-process baseline).
    let mut client = Client::connect(addr).unwrap();
    let spec = lcdc::store::QueryArgs::parse(&args(&[
        "--filter",
        "day=1000..1000",
        "--sum",
        "qty",
        "--count",
    ]))
    .unwrap()
    .spec;
    let direct = catalog.execute("orders", &spec).unwrap();
    let Response::Rows { version, rows, .. } = client
        .query(
            "orders",
            &args(&["--filter", "day=1000..1000", "--sum", "qty", "--count"]),
        )
        .unwrap()
    else {
        panic!("expected rows");
    };
    assert_eq!(version, v0 + BATCHES);
    assert_eq!(rows, direct.rows);
    assert_eq!(rows, expected_hot(BATCHES));

    // The stats request accounts for everything: every query and
    // ingest admitted (none rejected), the pool never wider than
    // configured.
    let report = client.stats().unwrap();
    assert_eq!(report.pool_threads, POOL_THREADS as u64);
    assert!(
        report.peak_leases <= POOL_THREADS as u64,
        "peak {} leases on a {POOL_THREADS}-wide pool",
        report.peak_leases
    );
    assert_eq!(report.rejected, 0);
    let expected_served = queries_sent.load(Ordering::Relaxed) // hot queries
        + BATCHES // ingests
        + 1; // the post-race verification query
    assert_eq!(report.served, expected_served);
    let query_endpoint = report
        .endpoints
        .iter()
        .find(|e| e.endpoint == "query")
        .expect("query endpoint present");
    assert_eq!(
        query_endpoint.requests,
        queries_sent.load(Ordering::Relaxed) + 1
    );
    assert_eq!(query_endpoint.errors, 0);

    let final_report = server.shutdown();
    assert!(final_report.served > expected_served, "+ the stats request");
    assert_eq!(
        final_report.connections_opened,
        final_report.connections_closed
    );
}

/// Concurrent *join* queries over the wire, racing wire ingest into
/// the join's **right** table. The left table never changes, so the
/// version tag on every answer stays constant — correctness rests on
/// the catalog snapshotting both tables under one lock and keying the
/// result cache on the version *pair*. Every answer's pair count must
/// be an exact whole number of committed right-side batches,
/// non-decreasing per client; `Rows::Joined` and the three join
/// counters must survive the wire round trip.
#[test]
fn concurrent_join_queries_race_right_side_ingest() {
    const CLIENTS: u64 = 4;
    const QUERIES_PER_CLIENT: u64 = 20;
    // base_table: 100 rows at day 1, each pairing with every ingested
    // day-1 right row.
    const UNIT: i128 = 100 * BATCH_ROWS as i128;

    let catalog = Arc::new(Catalog::new());
    catalog.register("orders", base_table());
    // The right side starts disjoint from every left day, so batch
    // zero joins to nothing.
    catalog.register(
        "days",
        Table::build(
            TableSchema::new(&[("day", DType::U64)]),
            &[ColumnData::U64(vec![9999; 256])],
            &[CompressionPolicy::Auto],
            256,
        )
        .unwrap(),
    );
    let v0 = catalog.version("orders").unwrap();
    let dv0 = catalog.version("days").unwrap();
    let server = Server::start(
        Arc::clone(&catalog),
        "127.0.0.1:0",
        ServerConfig {
            threads: 3,
            max_inflight: 64,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    let committed_of = |rows: &Rows| -> i128 {
        match rows {
            Rows::Joined(pairs) => match pairs.as_slice() {
                [] => 0,
                [(1, n)] => {
                    assert_eq!(n % UNIT, 0, "a torn right batch leaked into the join");
                    n / UNIT
                }
                other => panic!("unexpected join rows {other:?}"),
            },
            other => panic!("expected joined rows, got {other:?}"),
        }
    };

    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let join = args(&[
                    "--join",
                    "days",
                    "--on",
                    "day",
                    "--threads",
                    &(1 + c % 3).to_string(),
                ]);
                let mut last = 0i128;
                for _ in 0..QUERIES_PER_CLIENT {
                    match client.query("orders", &join).unwrap() {
                        Response::Rows { version, rows, .. } => {
                            assert_eq!(version, v0, "the left table never bumps");
                            let committed = committed_of(&rows);
                            assert!((0..=BATCHES as i128).contains(&committed));
                            assert!(committed >= last, "right versions ran backwards");
                            last = committed;
                        }
                        other => panic!("expected rows, got {other:?}"),
                    }
                }
            });
        }
        scope.spawn(|| {
            let mut client = Client::connect(addr).unwrap();
            for b in 0..BATCHES {
                std::thread::sleep(std::time::Duration::from_millis(4));
                match client
                    .ingest("days", vec![ColumnData::U64(vec![1; BATCH_ROWS as usize])])
                    .unwrap()
                {
                    Response::Ingested { version, rows } => {
                        assert_eq!(rows, BATCH_ROWS);
                        assert_eq!(version, dv0 + b + 1, "one right-side bump per batch");
                    }
                    other => panic!("expected ingested, got {other:?}"),
                }
            }
        });
    });

    // Post-race: the wire answer equals the in-process answer, sees
    // every batch, and carries the join ledger — CONST right segments
    // histogram from metadata (undecoded rows) and the disjoint
    // initial right segment zone-prunes against every left segment.
    let mut client = Client::connect(addr).unwrap();
    let Response::Rows { rows, stats, .. } = client
        .query("orders", &args(&["--join", "days", "--on", "day"]))
        .unwrap()
    else {
        panic!("expected rows");
    };
    assert_eq!(committed_of(&rows), BATCHES as i128, "all batches visible");
    let spec = lcdc::store::QuerySpec::new().join("days", "day");
    assert_eq!(rows, catalog.execute("orders", &spec).unwrap().rows);
    if stats.result_cache_hits == 0 {
        assert!(stats.join_rows_undecoded > 0, "{stats:?}");
        assert!(stats.join_pairs_pruned > 0, "{stats:?}");
    }
    let report = server.shutdown();
    assert_eq!(report.rejected, 0);
    assert_eq!(report.served, CLIENTS * QUERIES_PER_CLIENT + BATCHES + 1);
}

/// Joins compose with the serving controls: a full server answers a
/// join with a typed BUSY, an expired deadline mid-join answers a
/// typed DEADLINE (the abandoned work drains at the next lease
/// boundary), and the freed slot then serves the same join to
/// completion.
#[test]
fn join_queries_face_admission_and_deadlines() {
    let join_args = args(&["--join", "days", "--on", "day"]);
    let days_table = || {
        Table::build(
            TableSchema::new(&[("day", DType::U64)]),
            &[ColumnData::U64((0..1024u64).map(|i| 1 + i / 26).collect())],
            &[CompressionPolicy::Auto],
            256,
        )
        .unwrap()
    };

    // Admission: joins take an in-flight slot like any query.
    let full = Arc::new(Catalog::new());
    full.register("orders", base_table());
    full.register("days", days_table());
    let server = Server::start(
        Arc::clone(&full),
        "127.0.0.1:0",
        ServerConfig {
            threads: 2,
            max_inflight: 0,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    match client.query("orders", &join_args).unwrap() {
        Response::Busy { .. } => {}
        other => panic!("a join must face admission, got {other:?}"),
    }
    server.shutdown();

    // Deadlines: lazy tables whose every disk read stalls 30ms make
    // the join deterministically slower than a 100ms deadline.
    let dir = std::env::temp_dir().join(format!("lcdc_join_deadline_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    save_table(&base_table(), &dir.join("orders")).unwrap();
    save_table(&days_table(), &dir.join("days")).unwrap();
    let plan = Arc::new(FaultPlan::parse("io_stall:ms=30,every=1", 0).unwrap());
    let catalog = Arc::new(Catalog::new());
    for name in ["orders", "days"] {
        let table = open_table_lazy(&dir.join(name), 4).unwrap();
        table.inject_faults(&plan);
        catalog.register(name, table);
    }
    let server = Server::start(
        Arc::clone(&catalog),
        "127.0.0.1:0",
        ServerConfig {
            threads: 1,
            max_inflight: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.set_deadline_ms(Some(100));
    match client.query("orders", &join_args).unwrap() {
        Response::Deadline { deadline_ms } => assert_eq!(deadline_ms, 100),
        other => panic!("expected a typed deadline, got {other:?}"),
    }
    // The expired join freed its slot; without a deadline the same
    // join runs to completion through every stalled read.
    client.set_deadline_ms(None);
    match client.query("orders", &join_args).unwrap() {
        Response::Rows { rows, stats, .. } => {
            let Rows::Joined(pairs) = &rows else {
                panic!("expected joined rows, got {rows:?}");
            };
            assert!(!pairs.is_empty(), "days 1..=40 overlap");
            assert!(stats.join_pairs_pruned > 0, "narrow left zones prune");
        }
        other => panic!("expected rows, got {other:?}"),
    }
    let report = server.shutdown();
    let query_endpoint = report
        .endpoints
        .iter()
        .find(|e| e.endpoint == "query")
        .expect("query endpoint present");
    assert_eq!(query_endpoint.deadline_exceeded, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Admission control, deterministically: a `max_inflight = 0` server
/// refuses every query and ingest with a typed BUSY — and still
/// answers `stats`/`ping`, which is how an operator sees the overload.
#[test]
fn admission_rejections_are_typed_and_counted() {
    let catalog = Arc::new(Catalog::new());
    catalog.register("orders", base_table());
    let server = Server::start(
        catalog,
        "127.0.0.1:0",
        ServerConfig {
            threads: 2,
            max_inflight: 0,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    const REJECTIONS: u64 = 5;
    let mut client = Client::connect(server.addr()).unwrap();
    for _ in 0..REJECTIONS {
        match client.query("orders", &args(&["--count"])).unwrap() {
            Response::Busy { in_flight, max, .. } => assert_eq!((in_flight, max), (0, 0)),
            other => panic!("expected busy, got {other:?}"),
        }
    }
    match client.ingest("orders", hot_batch()).unwrap() {
        Response::Busy { .. } => {}
        other => panic!("ingest must face admission too, got {other:?}"),
    }
    client.ping().unwrap();
    let report = client.stats().unwrap();
    assert_eq!(report.rejected, REJECTIONS + 1);
    assert_eq!(report.served, 1, "only the ping went through");
    server.shutdown();
}

/// A wire query runs under `--threads` and `--prefetch N` and nothing
/// else: a flag outside that grammar is refused with a typed error
/// naming it, never silently ignored — and the session serves on.
#[test]
fn unknown_execution_flags_are_refused_by_name() {
    let catalog = Arc::new(Catalog::new());
    catalog.register("orders", base_table());
    let server = Server::start(catalog, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for (flags, named) in [
        (["--topk-shared-bound", "off"], "--topk-shared-bound"),
        (["--prefetch", "auto"], "bad --prefetch"),
    ] {
        let mut query = args(&["--top-k", "qty:5"]);
        query.extend(args(&flags));
        match client.query("orders", &query).unwrap() {
            Response::Error { message } => {
                assert!(message.contains(named), "{message:?} names {named}")
            }
            other => panic!("{flags:?} must be refused, got {other:?}"),
        }
    }
    match client
        .query("orders", &args(&["--top-k", "qty:5"]))
        .unwrap()
    {
        Response::Rows { rows, .. } => assert_eq!(rows, Rows::TopK(vec![50; 5])),
        other => panic!("expected rows, got {other:?}"),
    }
    server.shutdown();
}

/// A saturating client sees BUSY while a slow query holds the only
/// admission slot, then succeeds once it drains.
#[test]
fn busy_window_closes_after_drain() {
    let catalog = Arc::new(Catalog::new());
    // A deliberately heavy table so the holder's group-by keeps the
    // single admission slot occupied for a real window.
    let rows = 100_000u64;
    let schema = TableSchema::new(&[("day", DType::U64), ("qty", DType::U64)]);
    let day = ColumnData::U64((0..rows).map(|i| 1 + i / 100).collect());
    let qty = ColumnData::U64((0..rows).map(|i| 1 + i % 50).collect());
    let table = Table::build(
        schema,
        &[day, qty],
        &[CompressionPolicy::Auto, CompressionPolicy::Auto],
        256,
    )
    .unwrap();
    catalog.register("orders", table);
    let server = Server::start(
        Arc::clone(&catalog),
        "127.0.0.1:0",
        ServerConfig {
            threads: 1,
            max_inflight: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // Client A re-runs the heavy group-by until told to stop; client B
    // probes cheap counts until it has been both refused (overlap with
    // A's slot) and served (a gap between A's requests).
    let stop = std::sync::atomic::AtomicBool::new(false);
    let (busy, served) = std::thread::scope(|scope| {
        let holder = scope.spawn(|| {
            let mut a = Client::connect(addr).unwrap();
            // Distinct filters defeat the result cache: every holder
            // query really executes.
            let mut lo = 1u64;
            while !stop.load(Ordering::Relaxed) {
                lo = 1 + (lo % 50);
                let filter = format!("day={lo}..1001");
                let r = a
                    .query(
                        "orders",
                        &args(&["--filter", &filter, "--group-by", "day", "--sum", "qty"]),
                    )
                    .unwrap();
                assert!(
                    matches!(r, Response::Rows { .. } | Response::Busy { .. }),
                    "{r:?}"
                );
            }
        });
        let prober = scope.spawn(|| {
            let mut b = Client::connect(addr).unwrap();
            let mut busy = 0u32;
            let mut served = 0u32;
            for _ in 0..2000 {
                match b
                    .query("orders", &args(&["--filter", "day=1..1", "--count"]))
                    .unwrap()
                {
                    Response::Busy { max, .. } => {
                        assert_eq!(max, 1);
                        busy += 1;
                    }
                    Response::Rows { .. } => served += 1,
                    other => panic!("{other:?}"),
                }
                if busy > 0 && served > 0 {
                    break;
                }
            }
            stop.store(true, Ordering::Relaxed);
            (busy, served)
        });
        holder.join().unwrap();
        prober.join().unwrap()
    });
    assert!(busy > 0, "never saw BUSY while the slot was held");
    assert!(served > 0, "never served in the gaps");
    // After the contention ends, the slot is free again.
    let mut c = Client::connect(addr).unwrap();
    assert!(matches!(
        c.query("orders", &args(&["--filter", "day=2..2", "--count"]))
            .unwrap(),
        Response::Rows { .. }
    ));
    let report = server.shutdown();
    assert!(report.rejected >= busy as u64);
}
