//! The four serve workloads, measured end to end with tracing off: a
//! real `lcdc serve` child on a lazy sharded table, driven over the
//! wire by two closed-loop connections.

use crate::data::{Fixture, BATCH_ROWS, LINEITEM};
use crate::load::{
    closed_loop, one_of, windows, Args, Class, Gen, Mix, Outcome, Pool, Stop, CONNECTIONS,
    SINK_CLASSES,
};
use crate::proc::{Cache, ServerProc};
use crate::registry::{
    ENCODE_MVALUES_PER_S, OPS_PER_S, OP_P50_MS, PEAK_RSS_MB, SERVE_COLD, SERVE_INGEST, SERVE_POINT,
    SERVE_SINKS, SETUP_S, STORED_RATIO,
};
use crate::stats::{median, quartiles, tail};
use crate::{Config, RunResult};
use lcdc::store::{Request, Response};
use std::time::Instant;

/// Timed windows per run; every timing is the median window.
const WINDOWS: usize = 5;
/// Ingest batches per repetition of `serve_ingest`: a fixed operation
/// count, so table shape and chain depth are identical run to run. It
/// is small because every append nests one more `ChainedSource` and a
/// metadata walk costs O(segments x depth^2): reads at depth 48
/// already take several times their depth-0 time, and a few hundred
/// appends would not finish within a run.
pub const INGEST_BATCHES: usize = 48;
/// Fresh-server repetitions per second of `--seconds`, sized so that
/// the repetitions together take about `--seconds` on the reference
/// sandbox.
const INGEST_REPS_PER_SECOND: f64 = 1.2;
/// Reads after every ingest batch, on the same connection.
pub const READS_PER_BATCH: usize = 8;

/// How each serve workload configures server and traffic.
pub struct Shape {
    pub cache: Cache,
    pub mix: Mix,
}

pub fn shape(workload: &str) -> Shape {
    match workload {
        SERVE_POINT => Shape {
            cache: Cache::Fits,
            mix: Mix::Point,
        },
        SERVE_SINKS => Shape {
            cache: Cache::Fits,
            mix: Mix::Sinks,
        },
        SERVE_COLD => Shape {
            cache: Cache::Tiny,
            mix: Mix::Cold,
        },
        SERVE_INGEST => Shape {
            cache: Cache::Fits,
            mix: Mix::PointAndCount,
        },
        other => unreachable!("{other} is not a serve workload"),
    }
}

fn ingest_reps(seconds: f64) -> usize {
    ((INGEST_REPS_PER_SECOND * seconds).round() as usize).max(3)
}

/// Everything a serve workload needs before its clock starts.
pub struct SetUp {
    pub fixture: Fixture,
    pub pool: Pool,
    pub server: ServerProc,
    /// Pre-built ingest requests (`serve_ingest` only).
    pub batches: Vec<Request>,
    /// Generate + build + save + oracle + server start + warm-up.
    pub setup_s: f64,
}

/// Stream ids keep warm-up, measurement and tracing traffic disjoint.
pub const STREAM_WARM: u64 = 100;
pub const STREAM_MEASURE: u64 = 200;
pub const STREAM_TRACE: u64 = 300;

/// The requests that fill a server's caches for `mix`: every payload
/// the mix reads (segment LRU) and every pooled spec (result cache).
pub fn priming(mix: Mix, seed: u64, fixture: &Fixture, pool: &Pool) -> Vec<Args> {
    match mix {
        Mix::Point | Mix::PointAndCount => {
            // Touches every `shipdate` and `price` payload.
            let mut args = vec![one_of(Class::GroupbyRun, seed, fixture).args];
            args.extend(pool.specs.iter().cloned());
            args
        }
        Mix::Sinks => SINK_CLASSES
            .into_iter()
            .map(|class| one_of(class, seed, fixture).args)
            .collect(),
        // The LRU cannot hold the working set; the warm-up burst
        // brings it to its steady state.
        Mix::Cold => Vec::new(),
    }
}

/// Requests per connection of the warm-up burst.
pub const WARM_BURST: usize = 32;

/// Warm a server up: the [`priming`] requests, then a short burst of
/// the mix itself so both session threads exist before the clock
/// starts.
pub fn warm_up(
    server: &ServerProc,
    fixture: &Fixture,
    pool: &Pool,
    mix: Mix,
    seed: u64,
) -> Result<(), String> {
    let mut client = server.connect()?;
    for args in priming(mix, seed, fixture, pool) {
        match client.query(LINEITEM, &args) {
            Ok(Response::Rows { .. }) => {}
            Ok(other) => return Err(format!("warm-up {args:?} answered {other:?}")),
            Err(e) => return Err(format!("warm-up {args:?}: {e}")),
        }
    }
    let gens = (0..CONNECTIONS as u64)
        .map(|c| Gen::new(mix, seed, STREAM_WARM + c, fixture))
        .collect();
    let burst = Outcome::merge(closed_loop(
        server.addr(),
        gens,
        pool,
        &Stop::Requests(WARM_BURST),
    ));
    match burst.failed {
        0 => Ok(()),
        n => Err(format!("{n} warm-up requests failed: {:?}", burst.errors)),
    }
}

pub fn set_up(cfg: &Config, workload: &str) -> Result<SetUp, String> {
    let started = Instant::now();
    let shape = shape(workload);
    let fixture = Fixture::build(cfg.seed, &cfg.out).map_err(|e| format!("fixture: {e}"))?;
    let pool = Pool::build(cfg.seed, &fixture)?;
    let batches = if workload == SERVE_INGEST {
        (0..INGEST_BATCHES)
            .map(|k| Request::Ingest {
                table: LINEITEM.to_string(),
                columns: fixture.ingest_batch(cfg.seed, k),
            })
            .collect()
    } else {
        Vec::new()
    };
    let server = ServerProc::spawn(&cfg.lcdc, fixture.dir.path(), shape.cache)?;
    warm_up(&server, &fixture, &pool, shape.mix, cfg.seed)?;
    Ok(SetUp {
        fixture,
        pool,
        server,
        batches,
        setup_s: started.elapsed().as_secs_f64(),
    })
}

/// Set up `cfg.setup_reps` times — each a complete, independent set-up
/// torn down again — and keep the last one for the measurement.
/// Returns it with every repetition's set-up time and encode rate.
fn set_up_repeatedly(cfg: &Config, workload: &str) -> Result<(SetUp, Vec<f64>, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut build_rates = Vec::new();
    loop {
        let ready = set_up(cfg, workload)?;
        times.push(ready.setup_s);
        build_rates.push(ready.fixture.values_built() as f64 / ready.fixture.times.build_s / 1e6);
        if times.len() == cfg.setup_reps {
            return Ok((ready, times, build_rates));
        }
        ready.server.shutdown()?;
    }
}

/// A finished run's operation ledger.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Ledger {
    fn take(&mut self, mut reads: Outcome, fixture: &Fixture) {
        reads.verify(fixture);
        self.attempted += reads.attempted;
        self.failed += reads.failed;
        self.errors.extend(reads.errors);
    }
}

/// The samples behind each end-to-end metric; the run reports medians.
struct Measured<'a> {
    setup_s: &'a [f64],
    ops_per_s: &'a [f64],
    p50_ms: &'a [f64],
    encode_mvps: &'a [f64],
    rss_mb: &'a [f64],
}

fn finish(
    ledger: Ledger,
    m: Measured<'_>,
    fixture: &Fixture,
    mut extras: Vec<(String, f64)>,
) -> RunResult {
    for (name, values) in [
        (OPS_PER_S, m.ops_per_s),
        (OP_P50_MS, m.p50_ms),
        (ENCODE_MVALUES_PER_S, m.encode_mvps),
    ] {
        let (q1, q3) = quartiles(values);
        extras.push((format!("{name}.q1"), q1));
        extras.push((format!("{name}.q3"), q3));
    }
    extras.push(("setup.generate_s".into(), fixture.times.generate_s));
    extras.push(("setup.build_s".into(), fixture.times.build_s));
    extras.push(("setup.save_s".into(), fixture.times.save_s));
    RunResult {
        attempted: ledger.attempted,
        failed: ledger.failed,
        errors: ledger.errors,
        metrics: vec![
            (SETUP_S.into(), median(m.setup_s)),
            (OPS_PER_S.into(), median(m.ops_per_s)),
            (OP_P50_MS.into(), median(m.p50_ms)),
            (ENCODE_MVALUES_PER_S.into(), median(m.encode_mvps)),
            (
                STORED_RATIO.into(),
                fixture.stored_bytes as f64 / fixture.user_bytes as f64,
            ),
            (PEAK_RSS_MB.into(), median(m.rss_mb)),
        ],
        extras,
    }
}

/// `serve_point`, `serve_sinks`, `serve_cold`: five consecutive timed
/// windows on one warmed server.
fn run_reads(cfg: &Config, workload: &str) -> Result<RunResult, String> {
    let (ready, setup_times, build_rates) = set_up_repeatedly(cfg, workload)?;
    let mix = shape(workload).mix;
    let gens = (0..CONNECTIONS as u64)
        .map(|c| Gen::new(mix, cfg.seed, STREAM_MEASURE + c, &ready.fixture))
        .collect();
    let run = std::time::Duration::from_secs_f64(cfg.seconds);
    let reads = Outcome::merge(closed_loop(
        ready.server.addr(),
        gens,
        &ready.pool,
        &Stop::After(run),
    ));
    let rss = ready.server.peak_rss_mb()?;
    let report = ready
        .server
        .connect()?
        .stats()
        .map_err(|e| format!("stats: {e}"))?;
    ready.server.shutdown()?;

    let w = windows(&reads.samples, WINDOWS, cfg.seconds / WINDOWS as f64);
    let latencies: Vec<f64> = reads.samples.iter().map(|s| s.latency_s * 1e3).collect();
    let mut extras = vec![
        ("samples".to_string(), latencies.len() as f64),
        ("server.rejected".to_string(), report.rejected as f64),
    ];
    if !latencies.is_empty() {
        let (value, percentile) = tail(&latencies);
        extras.push(("op_tail_ms".into(), value));
        extras.push(("op_tail_percentile".into(), percentile));
    }
    // Per class: a change that helps one sink at another's cost shows.
    let mut by_class: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for s in &reads.samples {
        by_class
            .entry(s.class.name())
            .or_default()
            .push(s.latency_s * 1e3);
    }
    for (class, latencies) in &by_class {
        extras.push((format!("p50_ms.{class}"), median(latencies)));
    }
    let mut ledger = Ledger::default();
    ledger.take(reads, &ready.fixture);
    Ok(finish(
        ledger,
        Measured {
            setup_s: &setup_times,
            ops_per_s: &w.ops_per_s,
            p50_ms: &w.p50_ms,
            encode_mvps: &build_rates,
            rss_mb: &[rss],
        },
        &ready.fixture,
        extras,
    ))
}

/// `serve_ingest`: each of the two connections alternates one ingest
/// batch with [`READS_PER_BATCH`] reads of the point mix (one of them a
/// `count(*)`), so at any moment the other connection may be writing —
/// holding the catalog's write lock while it encodes — or reading. A
/// fixed batch count, on a fresh server each repetition: ingest mutates
/// the table in memory only, so a restart over the same directory
/// restores the base table.
fn run_ingest(cfg: &Config) -> Result<RunResult, String> {
    let (ready, setup_times, _) = set_up_repeatedly(cfg, SERVE_INGEST)?;
    let SetUp {
        fixture,
        pool,
        server,
        batches,
        ..
    } = ready;
    let mix = shape(SERVE_INGEST).mix;
    let (mut ops, mut p50, mut encode, mut rss, mut ingest_p50) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut ledger = Ledger::default();
    let mut server = Some(server);
    for rep in 0..ingest_reps(cfg.seconds) {
        let current = match server.take() {
            Some(server) => server,
            None => {
                let fresh = ServerProc::spawn(&cfg.lcdc, fixture.dir.path(), Cache::Fits)?;
                warm_up(&fresh, &fixture, &pool, mix, cfg.seed)?;
                fresh
            }
        };
        let gens = (0..CONNECTIONS)
            .map(|c| {
                let stream = STREAM_MEASURE + (rep * CONNECTIONS + c) as u64;
                Gen::new(mix, cfg.seed, stream, &fixture)
            })
            .collect();
        let done = Outcome::merge(closed_loop(
            current.addr(),
            gens,
            &pool,
            &Stop::Batches {
                batches: &batches,
                reads_per_batch: READS_PER_BATCH,
            },
        ));
        rss.push(current.peak_rss_mb()?);
        current.shutdown()?;

        let latencies: Vec<f64> = done.samples.iter().map(|s| s.latency_s * 1e3).collect();
        if latencies.is_empty() || done.write_ms.is_empty() {
            return Err(format!("serve_ingest measured nothing: {:?}", done.errors));
        }
        ops.push(latencies.len() as f64 / done.elapsed_s);
        p50.push(median(&latencies));
        encode.push((done.acks.len() * BATCH_ROWS * 6) as f64 / done.elapsed_s / 1e6);
        ingest_p50.push(median(&done.write_ms));
        ledger.take(done, &fixture);
    }
    let extras = vec![
        ("ingest.reps".to_string(), ops.len() as f64),
        ("ingest_p50_ms".to_string(), median(&ingest_p50)),
    ];
    Ok(finish(
        ledger,
        Measured {
            setup_s: &setup_times,
            ops_per_s: &ops,
            p50_ms: &p50,
            encode_mvps: &encode,
            rss_mb: &rss,
        },
        &fixture,
        extras,
    ))
}

pub fn run(cfg: &Config, workload: &str) -> Result<RunResult, String> {
    if workload == SERVE_INGEST {
        run_ingest(cfg)
    } else {
        run_reads(cfg, workload)
    }
}
