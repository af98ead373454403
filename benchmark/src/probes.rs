//! The dedicated probe pass: each layer timed from outside, through its
//! public functions, on the same generated data the workloads use.
//! Spans inside the program are a later change; until then this is how
//! a layer's cost gets a number. Never run inside a timed window.

use crate::codec::{families, Family};
use crate::data::{Fixture, TempDir, LINEITEM, PART};
use crate::load::{
    bind, closed_loop, one_of, Class, Gen, Mix, Outcome, Pool, Stop, CONNECTIONS, SINK_CLASSES,
};
use crate::proc::{Cache, ServerProc};
use crate::registry::CLASSES;
use crate::stats::median;
use crate::Config;
use lcdc::bitpack::{zigzag, Packed};
use lcdc::colops::{self, Bitmap};
use lcdc::core::{bytes, parse_scheme};
use lcdc::datagen::uniform;
use lcdc::store::file::{open_table_lazy, save_table};
use lcdc::store::{
    shard_table, Catalog, CompressionPolicy, ExecOptions, QueryArgs, QueryStats, Response, Rows,
    Segment, Table,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Stream id of the probes' own request generators.
const STREAM_PROBE: u64 = 400;

/// How much each probe measures.
#[derive(Clone, Copy)]
struct Effort {
    /// Wall time one timing loop may spend (at least three calls).
    budget: Duration,
    /// Values per kernel input.
    kernel_values: usize,
    /// Values per codec family.
    family_values: usize,
    /// Requests per wire probe.
    requests: usize,
}

impl Effort {
    fn of(cfg: &Config) -> Effort {
        if cfg.quick {
            Effort {
                budget: Duration::from_millis(5),
                kernel_values: 1 << 16,
                family_values: 1 << 14,
                requests: 64,
            }
        } else {
            Effort {
                budget: Duration::from_millis(60),
                kernel_values: 1 << 20,
                family_values: 1 << 18,
                requests: 1000,
            }
        }
    }
}

/// Median seconds of one call to `f`.
fn time<T>(effort: Effort, mut f: impl FnMut() -> T) -> f64 {
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < 3 || (started.elapsed() < effort.budget && samples.len() < 10_000) {
        let at = Instant::now();
        black_box(f());
        samples.push(at.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// [`time`] for calls too short for the clock: times batches of 256.
fn time_short<T>(effort: Effort, mut f: impl FnMut() -> T) -> f64 {
    const BATCH: usize = 256;
    time(effort, || {
        for _ in 0..BATCH {
            black_box(f());
        }
    }) / BATCH as f64
}

fn gbps(bytes: usize, seconds: f64) -> f64 {
    bytes as f64 / seconds / 1e9
}

struct Out(Vec<(String, f64)>);

impl Out {
    fn put(&mut self, name: &str, value: f64) {
        self.0.push((name.to_string(), value));
    }
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("probe {what}: {e}")
}

/// `bitpack.*`: pack and unpack at widths 7/13/33, against a memcpy
/// roofline measured in the same run.
fn bitpack(out: &mut Out, effort: Effort, seed: u64) -> Result<(), String> {
    let n = effort.kernel_values;
    let raw = uniform(n, 1 << 33, seed ^ 0xB17);
    let (mut pack_s, mut unpack_s) = (0.0, 0.0);
    for width in [7u32, 13, 33] {
        let values: Vec<u64> = raw.iter().map(|v| v & ((1 << width) - 1)).collect();
        let packed = Packed::pack(&values, width).map_err(err("pack"))?;
        pack_s += time(effort, || Packed::pack(black_box(&values), width));
        unpack_s += time(effort, || black_box(&packed).unpack());
    }
    let mut copy = vec![0u64; n];
    let memcpy_s = time(effort, || {
        black_box(&mut copy[..]).copy_from_slice(black_box(&raw))
    });
    out.put("bitpack.pack_gbps", gbps(3 * n * 8, pack_s));
    out.put("bitpack.unpack_gbps", gbps(3 * n * 8, unpack_s));
    out.put("bitpack.memcpy_ceiling_gbps", gbps(n * 8, memcpy_s));
    Ok(())
}

/// `colops.*`: the operators decompression plans are made of, in bytes
/// of plain column produced (consumed, for select) per second.
fn colops(out: &mut Out, effort: Effort, seed: u64) -> Result<(), String> {
    let n = effort.kernel_values;
    let data = uniform(n, 1 << 20, seed ^ 0xC01);
    out.put(
        "colops.prefix_sum_gbps",
        gbps(
            n * 8,
            time(effort, || colops::prefix_sum_inclusive(black_box(&data))),
        ),
    );
    let run_values = &data[..n / 32];
    let run_lengths = vec![32u64; n / 32];
    colops::runs_expand(run_values, &run_lengths).map_err(err("runs_expand"))?;
    out.put(
        "colops.run_expand_gbps",
        gbps(
            n * 8,
            time(effort, || {
                colops::runs_expand(black_box(run_values), &run_lengths)
            }),
        ),
    );
    let indices = uniform(n, n as u64, seed ^ 0xC02);
    colops::gather(&data, &indices).map_err(err("gather"))?;
    out.put(
        "colops.gather_gbps",
        gbps(
            n * 8,
            time(effort, || colops::gather(black_box(&data), &indices)),
        ),
    );
    let mask = Bitmap::from_predicate(&data, |v| v % 2 == 0);
    out.put(
        "colops.select_gbps",
        gbps(
            n * 8,
            time(effort, || {
                colops::select::filter_by_bitmap(black_box(&data), &mask)
            }),
        ),
    );
    Ok(())
}

/// Scheme decompress time over the summed time of the kernels it is
/// made of — the paper's "a scheme costs the sum of its operators" as a
/// number. 1.0 is no overhead.
fn plan_overhead(
    effort: Effort,
    family: &Family,
    expr: &str,
    kernels: impl FnOnce(&[u64]) -> Result<f64, String>,
) -> Result<f64, String> {
    let scheme = parse_scheme(expr).map_err(err("scheme"))?;
    let compressed = scheme.compress(&family.column).map_err(err("compress"))?;
    let scheme_s = time(effort, || scheme.decompress(black_box(&compressed)));
    Ok(scheme_s / kernels(&family.column.to_transport())?)
}

/// Kernels of `rle[values=delta[deltas=ns_zz],lengths=ns]`: unpack
/// lengths and deltas, zigzag-decode, prefix-sum, expand runs.
fn rle_delta_kernels(effort: Effort, column: &[u64]) -> Result<f64, String> {
    let (values, lengths) = colops::runs_encode(column);
    let deltas: Vec<u64> = colops::prefix_sum::adjacent_diff(&values)
        .into_iter()
        .map(|d| zigzag::zigzag_encode_i64(d as i64))
        .collect();
    let pack = |v: &[u64]| Packed::pack(v, lcdc::bitpack::max_width(v)).map_err(err("pack"));
    let (packed_deltas, packed_lengths) = (pack(&deltas)?, pack(&lengths)?);
    Ok(time(effort, || black_box(&packed_lengths).unpack())
        + time(effort, || black_box(&packed_deltas).unpack())
        + time(effort, || {
            black_box(&deltas)
                .iter()
                .map(|d| zigzag::zigzag_decode_i64(*d) as u64)
                .collect::<Vec<u64>>()
        })
        + time(effort, || colops::prefix_sum_inclusive(black_box(&values)))
        + time(effort, || colops::runs_expand(black_box(&values), &lengths)))
}

/// Kernels of `for(l=128)[offsets=ns]`: unpack offsets, replicate the
/// per-segment references, add.
fn for_ns_kernels(effort: Effort, column: &[u64]) -> Result<f64, String> {
    let refs = colops::segment::segment_min(column, 128).map_err(err("segment_min"))?;
    let replicated =
        colops::segment::replicate_segments(&refs, 128, column.len()).map_err(err("replicate"))?;
    let offsets: Vec<u64> = column.iter().zip(&replicated).map(|(v, r)| v - r).collect();
    let packed = Packed::pack(&offsets, lcdc::bitpack::max_width(&offsets)).map_err(err("pack"))?;
    let mut sum = vec![0u64; column.len()];
    Ok(time(effort, || black_box(&packed).unpack())
        + time(effort, || {
            colops::segment::replicate_segments(black_box(&refs), 128, column.len())
        })
        + time(effort, || {
            colops::elementwise::add_into(black_box(&replicated), &offsets, &mut sum)
        }))
}

/// `core.*`: per-family scheme throughput, the chooser, the wire frame,
/// and the plan-overhead ratios.
fn core(out: &mut Out, effort: Effort, seed: u64) -> Result<(), String> {
    let n = effort.family_values;
    let started = Instant::now();
    let fams = families(seed, n)?;
    let choose_s = started.elapsed().as_secs_f64();
    out.put(
        "core.choose_ms_per_mvalue",
        choose_s * 1e3 / ((fams.len() * n) as f64 / 1e6),
    );
    let (mut frame_bytes, mut to_s, mut from_s) = (0usize, 0.0, 0.0);
    for f in &fams {
        let compressed = f.scheme.compress(&f.column).map_err(err("compress"))?;
        let mvalues = n as f64 / 1e6;
        out.put(
            &format!("core.compress_mvps.{}", f.name),
            mvalues / time(effort, || f.scheme.compress(black_box(&f.column))),
        );
        out.put(
            &format!("core.decompress_mvps.{}", f.name),
            mvalues / time(effort, || f.scheme.decompress(black_box(&compressed))),
        );
        let frame = bytes::to_bytes(&compressed);
        frame_bytes += frame.len();
        to_s += time(effort, || bytes::to_bytes(black_box(&compressed)));
        from_s += time(effort, || bytes::from_bytes(black_box(&frame)));
    }
    out.put("core.to_bytes_gbps", gbps(frame_bytes, to_s));
    out.put("core.from_bytes_gbps", gbps(frame_bytes, from_s));
    out.put(
        "core.plan_overhead_ratio.rle_delta",
        plan_overhead(
            effort,
            &fams[0],
            "rle[values=delta[deltas=ns_zz],lengths=ns]",
            |col| rle_delta_kernels(effort, col),
        )?,
    );
    out.put(
        "core.plan_overhead_ratio.for_ns",
        plan_overhead(effort, &fams[1], "for(l=128)[offsets=ns]", |col| {
            for_ns_kernels(effort, col)
        })?,
    );
    Ok(())
}

/// `segment.*` and `table.append_us`: the write path's unit of work —
/// chooser + compress of one 4096-row segment — and its inverse, as a
/// mean over four segments of each of the six columns.
fn segment_and_table(
    out: &mut Out,
    effort: Effort,
    fixture: &Fixture,
    seed: u64,
) -> Result<(), String> {
    let (mut build_us, mut decompress_us) = (Vec::new(), Vec::new());
    for column in fixture.lineitem.schema().columns.iter().map(|c| &c.name) {
        let segments = fixture
            .lineitem
            .column_segments(column)
            .map_err(err("segments"))?;
        for segment in segments.iter().step_by(segments.len() / 4) {
            let rows = segment.decompress().map_err(err("decompress"))?;
            decompress_us.push(1e6 * time(effort, || segment.decompress()));
            build_us.push(
                1e6 * time(effort, || {
                    Segment::build(black_box(&rows), &CompressionPolicy::Auto)
                }),
            );
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    out.put("segment.build_us", mean(&build_us));
    out.put("segment.decompress_us", mean(&decompress_us));
    let batch = fixture.ingest_batch(seed, 0);
    out.put(
        "table.append_us",
        1e6 * time(effort, || fixture.lineitem.append(black_box(&batch))),
    );
    Ok(())
}

/// The lazily opened shards of `lineitem`, as `lcdc serve --lazy
/// --cache N` opens them.
fn open_shards(fixture: &Fixture, cache: Cache) -> Result<Vec<Table>, String> {
    fixture
        .shard_dirs()
        .iter()
        .map(|dir| open_table_lazy(dir, cache.segments()).map_err(err("open_table_lazy")))
        .collect()
}

/// An in-process catalog over the same files and with the same cache
/// size as the server's — what `lcdc serve` holds, minus the wire.
pub fn open_catalog(fixture: &Fixture, cache: Cache) -> Result<Catalog, String> {
    let catalog = Catalog::new();
    catalog
        .register_sharded(LINEITEM, open_shards(fixture, cache)?)
        .map_err(err("register"))?;
    let part = open_table_lazy(&fixture.dir.path().join(PART), cache.segments())
        .map_err(err("open part"))?;
    catalog.register(PART, part);
    Ok(catalog)
}

/// `source.*` and `file.*`: a cold fetch (read + checksum + frame
/// parse), a warm one (LRU hit), prefetch usefulness, open and save.
fn source_and_file(
    out: &mut Out,
    cfg: &Config,
    effort: Effort,
    fixture: &Fixture,
) -> Result<(), String> {
    let shard_dir = &fixture.shard_dirs()[0];
    let table = open_table_lazy(shard_dir, Cache::Tiny.segments()).map_err(err("open"))?;
    let source = table.source("price").map_err(err("source"))?;
    // Sequential passes over more segments than the LRU holds: every
    // fetch misses.
    let mut cold = Vec::new();
    for idx in (0..source.num_segments())
        .cycle()
        .take(2 * source.num_segments())
    {
        let at = Instant::now();
        source.segment(idx).map_err(err("fetch"))?;
        cold.push(at.elapsed().as_secs_f64());
    }
    out.put("source.fetch_cold_us", 1e6 * median(&cold));
    out.put(
        "source.fetch_warm_us",
        1e6 * time_short(effort, || source.segment(source.num_segments() - 1)),
    );

    // Prefetch runs only in the in-process executor (the server's pool
    // ignores it): cold range scans, one worker, four frames ahead.
    let catalog = open_catalog(fixture, Cache::Tiny)?;
    let opts = ExecOptions::threads(1).with_prefetch(4);
    let mut ledger = QueryStats::default();
    for i in 0..16 {
        let request = one_of(Class::Cold, cfg.seed ^ i, fixture);
        let spec = QueryArgs::parse(&request.args)?.spec;
        let result = catalog
            .execute_opts(LINEITEM, &spec, &opts)
            .map_err(err("prefetch scan"))?;
        ledger.absorb(&result.stats);
    }
    let attempted = ledger.prefetch_hits + ledger.prefetch_wasted;
    out.put(
        "source.prefetch_hit_ratio",
        if attempted == 0 {
            0.0
        } else {
            ledger.prefetch_hits as f64 / attempted as f64
        },
    );

    out.put(
        "file.open_lazy_ms",
        1e3 * time(effort, || {
            open_table_lazy(shard_dir, Cache::Tiny.segments())
        }),
    );
    let scratch = TempDir::new(&cfg.out, "save").map_err(err("temp dir"))?;
    let mut saves = Vec::new();
    for i in 0..3 {
        let dir = scratch.path().join(format!("copy{i}"));
        let at = Instant::now();
        save_table(&fixture.lineitem, &dir).map_err(err("save_table"))?;
        saves.push(at.elapsed().as_secs_f64());
    }
    let saved: u64 = std::fs::read_dir(scratch.path().join("copy0"))
        .map_err(err("read_dir"))?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    out.put("file.save_mbps", saved as f64 / median(&saves) / 1e6);
    Ok(())
}

/// `catalog.cache_hit_us`, `catalog.ingest_us`.
fn catalog(
    out: &mut Out,
    effort: Effort,
    fixture: &Fixture,
    pool: &Pool,
    seed: u64,
) -> Result<(), String> {
    let lazy = open_catalog(fixture, Cache::Fits)?;
    let spec = QueryArgs::parse(&pool.specs[0])?.spec;
    lazy.execute(LINEITEM, &spec).map_err(err("execute"))?;
    out.put(
        "catalog.cache_hit_us",
        1e6 * time_short(effort, || lazy.execute(LINEITEM, &spec)),
    );
    // Keyed registration, so the batch goes through `partition_batch`.
    let keyed = Catalog::new();
    let shards = shard_table(&fixture.lineitem, crate::data::SHARDS).map_err(err("shard"))?;
    keyed
        .register_sharded_keyed(LINEITEM, shards, "shipdate")
        .map_err(err("register keyed"))?;
    let mut ingests = Vec::new();
    for k in 0..8 {
        let batch = fixture.ingest_batch(seed, k);
        let at = Instant::now();
        keyed.ingest(LINEITEM, &batch).map_err(err("ingest"))?;
        ingests.push(at.elapsed().as_secs_f64());
    }
    out.put("catalog.ingest_us", 1e6 * median(&ingests));
    Ok(())
}

/// `query.*`: parse, fingerprint, compile; each class executed in
/// process on one worker, pushdown against the decoded oracle; and the
/// morsel executor at two workers against one.
fn query(out: &mut Out, effort: Effort, fixture: &Fixture, seed: u64) -> Result<(), String> {
    let point = one_of(Class::Point, seed, fixture);
    out.put(
        "query.logical.parse_us",
        1e6 * time_short(effort, || QueryArgs::parse(black_box(&point.args))),
    );
    let spec = QueryArgs::parse(&point.args)?.spec;
    out.put(
        "query.logical.fingerprint_ns",
        1e9 * time_short(effort, || black_box(&spec).fingerprint()),
    );
    let builder = bind(fixture, &point.args)?;
    builder.compile().map_err(err("compile"))?;
    out.put(
        "query.physical.compile_us",
        1e6 * time_short(effort, || {
            builder.compile().map(|plan| plan.display().len())
        }),
    );
    for (class, name) in [Class::Point].into_iter().chain(SINK_CLASSES).zip(CLASSES) {
        let builder = bind(fixture, &one_of(class, seed, fixture).args)?;
        let pushed = builder.execute().map_err(err("execute"))?;
        let naive = builder.execute_naive().map_err(err("execute_naive"))?;
        if pushed.rows != naive.rows {
            return Err(format!("probe {name}: pushdown and oracle disagree"));
        }
        let push_s = time(effort, || builder.execute());
        let naive_s = time(effort, || builder.execute_naive());
        out.put(&format!("query.physical.exec_us.{name}"), 1e6 * push_s);
        out.put(
            &format!("query.physical.naive_over_pushdown.{name}"),
            naive_s / push_s,
        );
        if matches!(class, Class::GroupbyDict | Class::RowScan) {
            let one = time(effort, || builder.execute_parallel(1));
            let two = time(effort, || builder.execute_parallel(2));
            out.put(&format!("query.morsel.speedup_2w.{name}"), one / two);
        }
    }
    Ok(())
}

/// A `Rows` frame of 4096 groups, the payload of a `groupby_dict` answer.
fn rows_frame() -> Response {
    Response::Rows {
        version: 1,
        rows: Rows::Groups(
            (0..4096)
                .map(|k| (k << 20, vec![Some(k * 1_000_003), Some(k)]))
                .collect(),
        ),
        stats: QueryStats::default(),
    }
}

/// `server.*` probes that need the wire: ping round trip, frame
/// encode/decode, the wire's overhead over in-process execution of the
/// same point specs, and two connections against one.
fn server(
    out: &mut Out,
    cfg: &Config,
    effort: Effort,
    fixture: &Fixture,
    pool: &Pool,
    server: &ServerProc,
) -> Result<(), String> {
    let mut client = server.connect()?;
    let mut pings = Vec::new();
    for _ in 0..effort.requests {
        let at = Instant::now();
        client.ping().map_err(err("ping"))?;
        pings.push(at.elapsed().as_secs_f64());
    }
    out.put("server.rtt_ping_us", 1e6 * median(&pings));

    let frame = rows_frame();
    let mut encoded = Vec::new();
    frame.write_to(&mut encoded).map_err(err("encode"))?;
    out.put(
        "server.protocol_encode_us",
        1e6 * time(effort, || {
            let mut buf = Vec::with_capacity(encoded.len());
            frame.write_to(&mut buf).map(|()| buf.len())
        }),
    );
    out.put(
        "server.protocol_decode_us",
        1e6 * time(effort, || Response::read_from(&mut black_box(&encoded[..]))),
    );

    // The same fresh point specs over the wire and in process: the
    // difference is admission + lease + session tick + serialisation.
    let catalog = open_catalog(fixture, Cache::Fits)?;
    let warm = QueryArgs::parse(&one_of(Class::GroupbyRun, cfg.seed, fixture).args)?.spec;
    catalog.execute(LINEITEM, &warm).map_err(err("warm"))?;
    let mut gen = Gen::new(Mix::Point, cfg.seed, STREAM_PROBE, fixture);
    let (mut wire, mut local) = (Vec::new(), Vec::new());
    while wire.len() < effort.requests {
        let request = gen.next();
        if request.pooled.is_some() {
            continue;
        }
        let at = Instant::now();
        match client.query(LINEITEM, &request.args) {
            Ok(Response::Rows { .. }) => wire.push(at.elapsed().as_secs_f64()),
            other => return Err(format!("probe overhead: {other:?}")),
        }
        let at = Instant::now();
        let parsed = QueryArgs::parse(&request.args)?;
        catalog
            .execute_opts(LINEITEM, &parsed.spec, &parsed.opts)
            .map_err(err("execute"))?;
        local.push(at.elapsed().as_secs_f64());
    }
    out.put("server.overhead_us", 1e6 * (median(&wire) - median(&local)));

    let window = Duration::from_secs_f64(if cfg.quick { 0.1 } else { 0.75 });
    let rate = |connections: usize| {
        let gens = (0..connections as u64)
            .map(|c| Gen::new(Mix::Point, cfg.seed, STREAM_PROBE + 1 + c, fixture))
            .collect();
        let done = Outcome::merge(closed_loop(server.addr(), gens, pool, &Stop::After(window)));
        match done.failed {
            0 => Ok(done.samples.len() as f64 / window.as_secs_f64()),
            n => Err(format!("probe concurrency: {n} failed: {:?}", done.errors)),
        }
    };
    let sequential = rate(1)?;
    let concurrent = rate(CONNECTIONS)?;
    out.put("server.concurrent_over_sequential", concurrent / sequential);
    Ok(())
}

/// Every workload-independent per-layer metric. `server` is a warmed
/// `Cache::Fits` server over `fixture`.
pub fn run(
    cfg: &Config,
    fixture: &Fixture,
    pool: &Pool,
    probe_server: &ServerProc,
) -> Result<Vec<(String, f64)>, String> {
    let effort = Effort::of(cfg);
    let mut out = Out(Vec::new());
    bitpack(&mut out, effort, cfg.seed)?;
    colops(&mut out, effort, cfg.seed)?;
    core(&mut out, effort, cfg.seed)?;
    segment_and_table(&mut out, effort, fixture, cfg.seed)?;
    source_and_file(&mut out, cfg, effort, fixture)?;
    catalog(&mut out, effort, fixture, pool, cfg.seed)?;
    query(&mut out, effort, fixture, cfg.seed)?;
    server(&mut out, cfg, effort, fixture, pool, probe_server)?;
    Ok(out.0)
}
