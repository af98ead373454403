//! The traced run (`--trace 1`): per-layer numbers for one workload.
//!
//! Three parts, none of them inside a timed end-to-end window:
//!
//! 1. the dedicated probe pass ([`crate::probes`]);
//! 2. the workload again for a fixed request count on **one**
//!    connection — once untraced, once with in-memory spans around
//!    `request` → `client.encode` / `client.wait` / `client.decode` /
//!    `verify` — so counts repeat exactly and the two rates give
//!    `trace.overhead_ratio`;
//! 3. a replay of the traced requests in process, against a catalog
//!    opened exactly as the server opened its own, with spans around
//!    each layer's public call for a seeded 1-in-16 sample.
//!
//! The program has no spans of its own yet, so the storage layers
//! under `catalog.execute` are measured by a *shadow replay*: after the
//! call returns, the harness fetches, frame-parses and decompresses as
//! many segments of the request's footprint as the returned
//! `QueryStats` says were loaded, through a second, identically opened
//! set of lazy tables. Spans are kept in memory and written to
//! `out/trace-<workload>.jsonl` only after the run ends.

use crate::codec::{families, round_trip, Family};
use crate::data::{Fixture, CODEC_VALUES, LINEITEM, PART};
use crate::load::{
    account, closed_loop, pin_to_core, Gen, Mix, Outcome, Pool, Request, Stop, CONNECTIONS,
};
use crate::probes::open_catalog;
use crate::proc::{Cache, ServerProc};
use crate::registry::{CODEC, SERVE_COLD, SERVE_INGEST, SERVE_POINT, SERVE_SINKS, SPANS};
use crate::serve::{
    priming, shape, warm_up, INGEST_BATCHES, READS_PER_BATCH, STREAM_MEASURE, STREAM_TRACE,
    STREAM_WARM, WARM_BURST,
};
use crate::stats::{median, tail};
use crate::{json, Config, RunResult};
use lcdc::core::bytes;
use lcdc::store::file::open_table_lazy;
use lcdc::store::{
    Catalog, CatalogTable, QueryArgs, QuerySpec, QueryStats, Request as WireRequest, Response,
    Table,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

/// One in this many traced requests is replayed with layer spans.
const REPLAY_SAMPLE: u32 = 16;

/// One recorded interval. Spans of one request share `request`.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one; 0 for a root.
    pub parent: u32,
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id (ids start at 1).
    pub fn open(&mut self, name: &'static str, parent: u32, request: u32) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now();
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn close(&mut self, id: u32) {
        let end_ns = self.now();
        self.spans[id as usize - 1].end_ns = end_ns;
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let value = f();
        self.close(id);
        value
    }

    /// Record a span measured elsewhere, as the last `duration_ns` of
    /// `parent`'s interval (or as much of it as there is).
    pub fn record_at_end_of(&mut self, name: &'static str, parent: u32, duration_ns: u64) {
        let (request, start_ns, end_ns) = {
            let p = &self.spans[parent as usize - 1];
            (p.request, p.start_ns, p.end_ns)
        };
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: end_ns.saturating_sub(duration_ns).max(start_ns),
            end_ns,
        });
    }

    pub fn duration_ns(&self, id: u32) -> u64 {
        let s = &self.spans[id as usize - 1];
        s.end_ns - s.start_ns
    }
}

/// Total self time per span name, nanoseconds: a span's duration minus
/// the part of its interval that its child spans cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut totals = BTreeMap::new();
    for s in spans {
        let mut covered = 0;
        if let Some(intervals) = children.get_mut(&s.id) {
            intervals.sort_unstable();
            // Union of the child intervals, clipped to the span.
            let mut reach = s.start_ns;
            for &(start, end) in intervals.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
        }
        *totals.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(covered);
    }
    totals
}

fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> Result<(), String> {
    let fail = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut file = std::io::BufWriter::new(std::fs::File::create(path).map_err(fail)?);
    for s in spans {
        writeln!(
            file,
            "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.id,
            s.parent,
            s.request,
            json::string(s.name),
            s.start_ns,
            s.end_ns
        )
        .map_err(fail)?;
    }
    file.flush().map_err(fail)
}

/// What the traced pass sends, in order.
enum Op<'a> {
    Read(Request),
    Write(&'a WireRequest),
}

/// The workload's request sequence for one connection: reads from its
/// mix, and for `serve_ingest` one batch before every eight reads.
fn ops<'a>(
    workload: &str,
    gen: &mut Gen,
    pool: &Pool,
    batches: &'a [WireRequest],
    reads: usize,
) -> Vec<Op<'a>> {
    let mut out = Vec::new();
    let mut batches = batches.iter();
    for i in 0..reads {
        if workload == SERVE_INGEST && i % READS_PER_BATCH == 0 {
            out.extend(batches.next().map(Op::Write));
        }
        out.push(Op::Read(pool.resolve(gen.next())));
    }
    out
}

/// Reads per traced pass.
fn traced_reads(cfg: &Config, workload: &str) -> usize {
    let full = match workload {
        SERVE_POINT => 2048,
        SERVE_SINKS => 168,
        SERVE_COLD => 320,
        SERVE_INGEST => INGEST_BATCHES * READS_PER_BATCH,
        other => unreachable!("{other} is not a serve workload"),
    };
    if cfg.quick {
        full / 8
    } else {
        full
    }
}

/// Client-side results of the traced wire pass.
struct WirePass {
    outcome: Outcome,
    /// Span id of each op's `request` root, in op order.
    roots: Vec<u32>,
    /// Span id of each op's `client.wait`.
    waits: Vec<u32>,
    elapsed_s: f64,
}

/// Send `ops` over one connection, a span around every step.
fn wire_pass(
    addr: &str,
    ops: &[Op<'_>],
    pool: &Pool,
    tracer: &mut Tracer,
) -> Result<WirePass, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut pass = WirePass {
        outcome: Outcome::default(),
        roots: Vec::with_capacity(ops.len()),
        waits: Vec::with_capacity(ops.len()),
        elapsed_s: 0.0,
    };
    let started = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let request = i as u32 + 1;
        let root = tracer.open("request", 0, request);
        let mut frame = Vec::new();
        tracer
            .span("client.encode", root, request, || match op {
                Op::Read(read) => WireRequest::Query {
                    table: LINEITEM.to_string(),
                    args: read.args.clone(),
                    deadline_ms: None,
                }
                .write_to(&mut frame),
                Op::Write(batch) => batch.write_to(&mut frame),
            })
            .map_err(|e| format!("encode: {e}"))?;
        let wait = tracer.open("client.wait", root, request);
        // The answer's first byte ends the wait; reading and parsing
        // the frame is `client.decode`.
        let arrived = stream
            .write_all(&frame)
            .and_then(|()| stream.peek(&mut [0u8; 1]));
        tracer.close(wait);
        let response = tracer.span("client.decode", root, request, || match arrived {
            Ok(_) => match Response::read_from(&mut stream) {
                Ok(Some(response)) => Ok(response),
                Ok(None) => Err("transport: server closed the connection".to_string()),
                Err(e) => Err(format!("transport: {e}")),
            },
            Err(e) => Err(format!("transport: {e}")),
        });
        let broken = response.is_err();
        tracer.span("verify", root, request, || match op {
            Op::Read(read) => account(&mut pass.outcome, read, pool, response),
            Op::Write(_) => {
                pass.outcome.attempted += 1;
                match response {
                    Ok(Response::Ingested { version, rows }) => {
                        pass.outcome.acks.push((version, rows));
                    }
                    other => pass.outcome.fail(format!("ingest answered {other:?}")),
                }
            }
        });
        tracer.close(root);
        pass.roots.push(root);
        pass.waits.push(wait);
        if matches!(op, Op::Write(_)) {
            pass.outcome
                .write_ms
                .push(tracer.duration_ns(root) as f64 / 1e6);
        }
        if broken {
            return Err(format!(
                "traced pass lost its connection: {:?}",
                pass.outcome.errors
            ));
        }
    }
    pass.elapsed_s = started.elapsed().as_secs_f64();
    Ok(pass)
}

/// The segments of `column` a request confined to `days` can touch,
/// by the `shipdate` zone maps — `(shard, segment)` pairs.
fn footprint(shards: &[Table], days: Option<(u64, u64)>) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (s, shard) in shards.iter().enumerate() {
        let Ok(dates) = shard.source("shipdate") else {
            continue;
        };
        for idx in 0..dates.num_segments() {
            let meta = dates.meta(idx);
            let inside = days.is_none_or(|(from, to)| {
                meta.max >= i128::from(from) && meta.min <= i128::from(to)
            });
            if inside {
                out.push((s, idx));
            }
        }
    }
    out
}

/// Run `f`, as a root span of `request` when `spans` is on.
fn in_span<T>(
    spans: &mut Option<&mut Tracer>,
    name: &'static str,
    request: u32,
    f: impl FnOnce() -> T,
) -> T {
    match spans {
        Some(tracer) => tracer.span(name, 0, request, f),
        None => f(),
    }
}

/// In-process counterpart of the server: the replay catalog (counted,
/// never touched by shadow work) and the shadow tables.
struct Replay {
    catalog: Catalog,
    shadow: Vec<Table>,
}

impl Replay {
    fn open(fixture: &Fixture, cache: Cache) -> Result<Replay, String> {
        let shadow: Vec<Table> = fixture
            .shard_dirs()
            .iter()
            .map(|dir| open_table_lazy(dir, cache.segments()).map_err(|e| format!("shadow: {e}")))
            .collect::<Result<_, _>>()?;
        if cache == Cache::Fits {
            // The server's caches are warm; so is the shadow's.
            for shard in &shadow {
                for column in &shard.schema().columns {
                    let source = shard.source(&column.name).map_err(|e| e.to_string())?;
                    for idx in 0..source.num_segments() {
                        source
                            .segment(idx)
                            .map_err(|e| format!("shadow warm: {e}"))?;
                    }
                }
            }
        }
        Ok(Replay {
            catalog: open_catalog(fixture, cache)?,
            shadow,
        })
    }

    /// Bring the replay catalog's caches to where [`warm_up`] left the
    /// server's: the same priming requests, then the same burst.
    fn warm(&self, mix: Mix, seed: u64, fixture: &Fixture, pool: &Pool) -> Result<(), String> {
        let mut requests = priming(mix, seed, fixture, pool);
        for c in 0..CONNECTIONS as u64 {
            let mut gen = Gen::new(mix, seed, STREAM_WARM + c, fixture);
            requests.extend((0..WARM_BURST).map(|_| pool.resolve(gen.next()).args));
        }
        for args in requests {
            let parsed = QueryArgs::parse(&args)?;
            self.catalog
                .execute_opts(LINEITEM, &parsed.spec, &parsed.opts)
                .map_err(|e| format!("replay warm-up: {e}"))?;
        }
        Ok(())
    }

    fn io_reads(&self) -> usize {
        self.catalog
            .get(LINEITEM)
            .map_or(0, |(table, _)| table.io_reads())
    }

    /// Compile `spec` against every shard of the current snapshot, as
    /// a query must before it can run anywhere.
    fn compile(&self, spec: &QuerySpec) -> Result<usize, String> {
        let (left, _) = self.catalog.get(LINEITEM).ok_or("lineitem is gone")?;
        let right: Option<Arc<Table>> = match self.catalog.get(PART) {
            Some((CatalogTable::Single(t), _)) => Some(t),
            _ => None,
        };
        let shards: Vec<Arc<Table>> = match left {
            CatalogTable::Single(t) => vec![t],
            CatalogTable::Sharded(s) => s.shards().to_vec(),
        };
        let mut operators = 0;
        for shard in &shards {
            let builder = match (spec.join_spec(), &right) {
                (Some(join), Some(right)) => {
                    spec.bind(shard).join(&join.table, right.clone(), &join.on)
                }
                _ => spec.bind(shard),
            };
            operators += builder
                .compile()
                .map_err(|e| format!("compile: {e}"))?
                .display()
                .len();
        }
        Ok(operators)
    }

    /// One op, in process. With `spans`, each layer's public call is
    /// recorded as a root span of the same request id.
    fn run(
        &self,
        op: &Op<'_>,
        request: u32,
        mut spans: Option<&mut Tracer>,
    ) -> Result<QueryStats, String> {
        match op {
            Op::Write(WireRequest::Ingest { table, columns }) => {
                in_span(&mut spans, "catalog.ingest", request, || {
                    self.catalog.ingest(table, columns)
                })
                .map_err(|e| format!("replay ingest: {e}"))?;
                Ok(QueryStats::default())
            }
            Op::Write(other) => Err(format!("cannot replay {other:?}")),
            Op::Read(read) => {
                let parsed = in_span(&mut spans, "query.logical.parse", request, || {
                    QueryArgs::parse(&read.args)
                })?;
                if spans.is_some() {
                    // Compilation happens inside `catalog.execute` too;
                    // only the replays under spans pay for it twice.
                    in_span(&mut spans, "query.physical.compile", request, || {
                        self.compile(&parsed.spec)
                    })?;
                }
                let stats = in_span(&mut spans, "catalog.execute", request, || {
                    self.catalog
                        .execute_opts(LINEITEM, &parsed.spec, &parsed.opts)
                })
                .map_err(|e| format!("replay execute: {e}"))?
                .stats;
                if let Some(tracer) = spans {
                    self.shadow_storage(read, stats.segments_loaded, request, tracer)?;
                }
                Ok(stats)
            }
        }
    }

    /// Redo, under spans, the storage work `catalog.execute` reported:
    /// `loaded` fetches over the request's footprint, each followed by
    /// the frame parse and the decompression a fetched segment costs.
    fn shadow_storage(
        &self,
        read: &Request,
        loaded: usize,
        request: u32,
        tracer: &mut Tracer,
    ) -> Result<(), String> {
        let segments = footprint(&self.shadow, read.days);
        let mut todo = loaded;
        'columns: for &(column, materialised) in &read.columns {
            for &(s, idx) in &segments {
                if todo == 0 {
                    break 'columns;
                }
                todo -= 1;
                let source = self.shadow[s].source(column).map_err(|e| e.to_string())?;
                let misses = source.io_reads();
                let fetch = tracer.open("source.fetch", 0, request);
                let segment = source.segment(idx);
                tracer.close(fetch);
                let segment = segment.map_err(|e| format!("shadow fetch: {e}"))?;
                if source.io_reads() > misses {
                    // A miss read, checksummed and parsed the frame.
                    // The parse is timed again on its own and recorded
                    // as the fetch's child, so the fetch's self time is
                    // the read and the checksum.
                    let frame = bytes::to_bytes(&segment.compressed);
                    let at = Instant::now();
                    bytes::from_bytes(&frame).map_err(|e| format!("shadow parse: {e}"))?;
                    let parse_ns = at.elapsed().as_nanos() as u64;
                    tracer.record_at_end_of("core.from_bytes", fetch, parse_ns);
                }
                if materialised {
                    tracer
                        .span("segment.decompress", 0, request, || segment.decompress())
                        .map_err(|e| format!("shadow decompress: {e}"))?;
                }
            }
        }
        Ok(())
    }
}

/// The per-layer metrics that describe the traced workload rather
/// than a layer in isolation; the probe pass measures all the others.
const OF_THE_WORKLOAD: &[&str] = &[
    "source.io_reads_per_query",
    "source.cache_hit_ratio",
    "catalog.result_cache_hit_ratio",
    "catalog.shards_pruned_per_query",
    "query.physical.rows_undecoded_ratio",
    "query.physical.rows_materialized_per_query",
    "query.physical.segments_pruned_ratio",
    "server.query_p99_ms",
    "server.ingest_p50_ms",
    "server.ingest_p99_ms",
    "server.reported_p50_us",
    "server.peak_leases",
    "server.rejected",
    "trace.overhead_ratio",
    "trace.decode_share",
    "trace.server_overhead_share",
];

type Metrics = BTreeMap<String, f64>;

/// What a workload's traced pass produced.
struct Traced {
    metrics: Metrics,
    outcome: Outcome,
    extras: Vec<(String, f64)>,
}

/// Every workload metric at 0: a workload fills in what it has
/// (`codec` has no server, so its serve-side counts stay 0).
fn workload_metrics() -> Metrics {
    OF_THE_WORKLOAD
        .iter()
        .map(|n| n.to_string())
        .chain(SPANS.iter().map(|s| format!("trace.self_us.{s}")))
        .map(|n| (n, 0.0))
        .collect()
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Fill `trace.self_us.*` from the recorded spans, in microseconds per
/// request: wire spans per traced request, replay spans per replay
/// that ran under spans. Returns the totals, nanoseconds.
fn put_self_times(
    m: &mut Metrics,
    spans: &[Span],
    traced: usize,
    with_spans: usize,
) -> BTreeMap<&'static str, u64> {
    const ON_THE_WIRE: [&str; 5] = [
        "request",
        "client.encode",
        "client.wait",
        "client.decode",
        "verify",
    ];
    let totals = self_times(spans);
    for (span, total) in &totals {
        let per = if ON_THE_WIRE.contains(span) || with_spans == 0 {
            traced
        } else {
            with_spans
        };
        m.insert(
            format!("trace.self_us.{span}"),
            ratio(*total as f64 / 1e3, per as f64),
        );
    }
    totals
}

fn traced_serve(
    cfg: &Config,
    workload: &str,
    fixture: &Fixture,
    pool: &Pool,
) -> Result<Traced, String> {
    let shape = shape(workload);
    let reads = traced_reads(cfg, workload);
    let batches: Vec<WireRequest> = if workload == SERVE_INGEST {
        (0..reads / READS_PER_BATCH)
            .map(|k| WireRequest::Ingest {
                table: LINEITEM.to_string(),
                columns: fixture.ingest_batch(cfg.seed, k),
            })
            .collect()
    } else {
        Vec::new()
    };
    let serve = || -> Result<ServerProc, String> {
        let server = ServerProc::spawn(&cfg.lcdc, fixture.dir.path(), shape.cache)?;
        warm_up(&server, fixture, pool, shape.mix, cfg.seed)?;
        Ok(server)
    };

    // Untraced: the same shape of traffic through the plain client.
    let server = serve()?;
    let gen = Gen::new(shape.mix, cfg.seed, STREAM_MEASURE, fixture);
    let stop = if workload == SERVE_INGEST {
        Stop::Batches {
            batches: &batches,
            reads_per_batch: READS_PER_BATCH,
        }
    } else {
        Stop::Requests(reads)
    };
    let untraced = Outcome::merge(closed_loop(server.addr(), vec![gen], pool, &stop));
    let untraced_rate =
        (untraced.samples.len() + untraced.write_ms.len()) as f64 / untraced.elapsed_s;
    // Ingest mutated the first server's table: trace on a fresh one.
    let server = if workload == SERVE_INGEST {
        server.shutdown()?;
        serve()?
    } else {
        server
    };

    // Traced, on one connection, with its own request stream (the
    // untraced pass left its fresh specs in the result cache).
    let mut gen = Gen::new(shape.mix, cfg.seed, STREAM_TRACE, fixture);
    let ops = ops(workload, &mut gen, pool, &batches, reads);
    let mut tracer = Tracer::new();
    // On a thread of its own, pinned like the untraced pass's, so the
    // two rates compare.
    let mut wire = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                pin_to_core(0);
                wire_pass(server.addr(), &ops, pool, &mut tracer)
            })
            .join()
            .expect("traced pass panicked")
    })?;
    let report = server
        .connect()?
        .stats()
        .map_err(|e| format!("stats: {e}"))?;
    server.shutdown()?;

    // Replay in process: every op for the exact counts, a seeded
    // 1-in-16 sample under spans.
    let replay = Replay::open(fixture, shape.cache)?;
    replay.warm(shape.mix, cfg.seed, fixture, pool)?;
    let mut pick = StdRng::seed_from_u64(cfg.seed ^ 0x7ACE);
    let mut sampled: Vec<usize> = (0..ops.len())
        .filter(|_| pick.random_range(0..REPLAY_SAMPLE) == 0)
        .collect();
    if sampled.is_empty() {
        sampled.push(0);
    }
    let reads_before = replay.io_reads();
    let mut replayed = QueryStats::default();
    let mut executes = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let request = i as u32 + 1;
        if sampled.binary_search(&i).is_ok() {
            let first = tracer.spans.len();
            replayed.absorb(&replay.run(op, request, Some(&mut tracer))?);
            executes.extend(
                tracer.spans[first..]
                    .iter()
                    .filter(|s| matches!(s.name, "catalog.execute" | "catalog.ingest"))
                    .map(|s| (s.end_ns - s.start_ns) as f64),
            );
        } else {
            replayed.absorb(&replay.run(op, request, None)?);
        }
    }
    let io_reads = replay.io_reads() - reads_before;
    wire.outcome.verify(fixture);

    let mut m = workload_metrics();
    let queries = reads as f64;
    let stats = wire.outcome.stats;
    m.insert(
        "source.io_reads_per_query".into(),
        io_reads as f64 / queries,
    );
    m.insert(
        "source.cache_hit_ratio".into(),
        1.0 - ratio(io_reads as f64, replayed.segments_loaded as f64),
    );
    m.insert(
        "catalog.result_cache_hit_ratio".into(),
        stats.result_cache_hits as f64 / queries,
    );
    m.insert(
        "catalog.shards_pruned_per_query".into(),
        stats.shards_pruned as f64 / queries,
    );
    let undecoded = (stats.rows_undecoded + stats.join_rows_undecoded) as f64;
    m.insert(
        "query.physical.rows_undecoded_ratio".into(),
        ratio(undecoded, undecoded + stats.rows_materialized as f64),
    );
    m.insert(
        "query.physical.rows_materialized_per_query".into(),
        stats.rows_materialized as f64 / queries,
    );
    m.insert(
        "query.physical.segments_pruned_ratio".into(),
        ratio(stats.segments_pruned as f64, stats.segments as f64),
    );

    let latencies_ms: Vec<f64> = ops
        .iter()
        .zip(&wire.roots)
        .filter(|(op, _)| matches!(op, Op::Read(_)))
        .map(|(_, root)| tracer.duration_ns(*root) as f64 / 1e6)
        .collect();
    let (p_tail, percentile) = tail(&latencies_ms);
    m.insert("server.query_p99_ms".into(), p_tail);
    let mut extras = vec![
        ("server.query_tail_percentile".to_string(), percentile),
        ("trace.requests".to_string(), ops.len() as f64),
        ("trace.replays_with_spans".to_string(), sampled.len() as f64),
    ];
    if !wire.outcome.write_ms.is_empty() {
        m.insert(
            "server.ingest_p50_ms".into(),
            median(&wire.outcome.write_ms),
        );
        let (p_tail, percentile) = tail(&wire.outcome.write_ms);
        m.insert("server.ingest_p99_ms".into(), p_tail);
        extras.push(("server.ingest_tail_percentile".to_string(), percentile));
    }
    let endpoint = |name: &str| report.endpoints.iter().find(|e| e.endpoint == name);
    m.insert(
        "server.reported_p50_us".into(),
        endpoint("query").map_or(0.0, |e| e.p50_us as f64),
    );
    m.insert("server.peak_leases".into(), report.peak_leases as f64);
    m.insert("server.rejected".into(), report.rejected as f64);

    let traced_rate = ops.len() as f64 / wire.elapsed_s;
    m.insert("trace.overhead_ratio".into(), traced_rate / untraced_rate);
    let totals = put_self_times(&mut m, &tracer.spans, ops.len(), sampled.len());
    // Shares of the sampled requests' own wire time.
    let sampled_request_ns: f64 = sampled
        .iter()
        .map(|&i| tracer.duration_ns(wire.roots[i]) as f64)
        .sum();
    let sampled_wait_ns: f64 = sampled
        .iter()
        .map(|&i| tracer.duration_ns(wire.waits[i]) as f64)
        .sum();
    let storage_ns: u64 = ["source.fetch", "core.from_bytes", "segment.decompress"]
        .iter()
        .map(|n| totals.get(n).copied().unwrap_or(0))
        .sum();
    m.insert(
        "trace.decode_share".into(),
        ratio(storage_ns as f64, sampled_request_ns),
    );
    m.insert(
        "trace.server_overhead_share".into(),
        ratio(
            (sampled_wait_ns - executes.iter().sum::<f64>()).max(0.0),
            sampled_request_ns,
        ),
    );

    let path = cfg.out.join(format!("trace-{workload}.jsonl"));
    write_jsonl(&path, &tracer.spans)?;
    Ok(Traced {
        metrics: m,
        outcome: wire.outcome,
        extras,
    })
}

fn traced_codec(cfg: &Config) -> Result<Traced, String> {
    let fams: Vec<Family> = families(cfg.seed, CODEC_VALUES)?;
    let rounds = if cfg.quick { 1 } else { 8 };
    let mut outcome = Outcome::default();

    let started = Instant::now();
    for family in fams.iter().cycle().take(rounds * fams.len()) {
        round_trip(family)?;
    }
    let untraced_s = started.elapsed().as_secs_f64();

    // The same round trip, one span per public call.
    let mut tracer = Tracer::new();
    let started = Instant::now();
    for (i, family) in fams.iter().cycle().take(rounds * fams.len()).enumerate() {
        let request = i as u32 + 1;
        let fail = |e: lcdc::core::CoreError| format!("{}: {e}", family.name);
        let root = tracer.open("request", 0, request);
        let compressed = tracer
            .span("core.compress", root, request, || {
                family.scheme.compress(&family.column)
            })
            .map_err(fail)?;
        let frame = tracer.span("core.to_bytes", root, request, || {
            bytes::to_bytes(&compressed)
        });
        let parsed = tracer
            .span("core.from_bytes", root, request, || {
                bytes::from_bytes(&frame)
            })
            .map_err(fail)?;
        let decoded = tracer
            .span("core.decompress", root, request, || {
                family.scheme.decompress(&parsed)
            })
            .map_err(fail)?;
        let intact = tracer.span("verify", root, request, || decoded == family.column);
        tracer.close(root);
        outcome.attempted += 1;
        if !intact {
            outcome.failed += 1;
            outcome
                .errors
                .push(format!("{} did not round-trip", family.name));
        }
    }
    let traced_s = started.elapsed().as_secs_f64();

    let mut m = workload_metrics();
    let traced = rounds * fams.len();
    m.insert("trace.overhead_ratio".into(), untraced_s / traced_s);
    let totals = put_self_times(&mut m, &tracer.spans, traced, 0);
    let total = |name: &str| totals.get(name).copied().unwrap_or(0) as f64;
    let requests_ns: f64 = tracer
        .spans
        .iter()
        .filter(|s| s.name == "request")
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .sum();
    m.insert(
        "trace.decode_share".into(),
        ratio(
            total("core.from_bytes") + total("core.decompress"),
            requests_ns,
        ),
    );
    write_jsonl(&cfg.out.join(format!("trace-{CODEC}.jsonl")), &tracer.spans)?;
    Ok(Traced {
        metrics: m,
        outcome,
        extras: vec![("trace.requests".to_string(), traced as f64)],
    })
}

/// The traced run of one workload: the probe pass on a warmed
/// `serve_point`-shaped server, then the workload's own traced pass.
pub fn run(cfg: &Config, workload: &str) -> Result<RunResult, String> {
    let fixture = Fixture::build(cfg.seed, &cfg.out).map_err(|e| format!("fixture: {e}"))?;
    let pool = Pool::build(cfg.seed, &fixture)?;
    let probe_shape = shape(SERVE_POINT);
    let probe_server = ServerProc::spawn(&cfg.lcdc, fixture.dir.path(), probe_shape.cache)?;
    warm_up(&probe_server, &fixture, &pool, probe_shape.mix, cfg.seed)?;
    let mut metrics = crate::probes::run(cfg, &fixture, &pool, &probe_server)?;
    probe_server.shutdown()?;

    let traced = match workload {
        CODEC => traced_codec(cfg)?,
        SERVE_POINT | SERVE_SINKS | SERVE_COLD | SERVE_INGEST => {
            traced_serve(cfg, workload, &fixture, &pool)?
        }
        other => unreachable!("{other} is not a workload"),
    };
    metrics.extend(traced.metrics);
    Ok(RunResult {
        attempted: traced.outcome.attempted,
        failed: traced.outcome.failed,
        errors: traced.outcome.errors,
        metrics,
        extras: traced.extras,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "request", 0, 100),
            span(2, 1, "client.wait", 10, 60),
            // Overlaps its sibling and sticks out of the parent.
            span(3, 1, "client.decode", 50, 120),
            span(4, 2, "verify", 20, 30),
        ];
        let t = self_times(&spans);
        assert_eq!(t["request"], 10); // 100 - [10, 100)
        assert_eq!(t["client.wait"], 40); // 50 - 10
        assert_eq!(t["client.decode"], 70);
        assert_eq!(t["verify"], 10);
    }

    #[test]
    fn workload_metrics_and_probes_partition_the_registry() {
        let traced = workload_metrics();
        assert!(traced.contains_key("trace.overhead_ratio"));
        assert!(traced.contains_key("server.query_p99_ms"));
        assert!(traced.contains_key("source.io_reads_per_query"));
        assert!(!traced.contains_key("source.fetch_cold_us"));
        assert!(!traced.contains_key("bitpack.pack_gbps"));
    }
}
