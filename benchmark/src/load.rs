//! The traffic: seeded request generators per workload, the closed-loop
//! driver, and answer verification against the decoded oracle.
//!
//! Load shape: a closed loop — each connection sends its next request
//! only after the previous answer arrived, which is what callers of
//! `lcdc client` do — on two connections, no more than the host's two
//! cores.

use crate::data::{Fixture, FIRST_DAY, LINEITEM, LINEITEM_ROWS, NOISE_BOUND};
use crate::stats::median;
use lcdc::store::{
    Client, QueryArgs, QueryBuilder, QueryStats, Request as WireRequest, Response, Rows,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Barrier;
use std::time::{Duration, Instant};

pub type Args = Vec<String>;

/// Connections of the generator (see the module doc).
pub const CONNECTIONS: usize = 2;
/// Pooled request specs: repeated, so the result cache answers them.
pub const POOL_SIZE: usize = 16;
/// Every n-th fresh (non-pooled) answer is kept for verification…
const VERIFY_EVERY: u64 = 8;
/// …up to this many per connection: the oracle decodes whole columns
/// (tens of ms per query), and a run has seconds, not minutes.
const VERIFY_CAP: usize = 24;

/// What a request exercises. The first seven are the query classes of
/// the per-layer `query.physical.*.<class>` metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Point,
    GroupbyDict,
    GroupbyRun,
    TopK,
    Distinct,
    Join,
    RowScan,
    /// A range scan over a 5-20 % slice of the days.
    Cold,
    /// `count(*)`, for read-your-writes checks during ingest.
    Count,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Point => "point",
            Class::GroupbyDict => "groupby_dict",
            Class::GroupbyRun => "groupby_run",
            Class::TopK => "topk",
            Class::Distinct => "distinct",
            Class::Join => "join",
            Class::RowScan => "rowscan",
            Class::Cold => "cold",
            Class::Count => "count",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Request {
    pub class: Class,
    pub args: Args,
    /// Index into the pool when this is one of the repeated specs.
    pub pooled: Option<usize>,
    /// The columns whose payloads the request reads — `true` when their
    /// rows are materialised, `false` when a run or code tier works on
    /// the compressed form — and the `shipdate` range it is confined to
    /// (`None`: the whole table): what the traced run's shadow replay
    /// fetches and decompresses.
    pub columns: Vec<(&'static str, bool)>,
    pub days: Option<(u64, u64)>,
}

/// Which requests a connection sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// One third pooled point queries, two thirds fresh ones.
    Point,
    /// The `Point` mix with a `count(*)` every eighth request.
    PointAndCount,
    /// Blocks of seven full-table sink queries in seeded order.
    Sinks,
    /// Range scans that must fetch payloads.
    Cold,
}

/// The six full-table sink classes.
pub const SINK_CLASSES: [Class; 6] = [
    Class::GroupbyDict,
    Class::GroupbyRun,
    Class::TopK,
    Class::Distinct,
    Class::Join,
    Class::RowScan,
];

/// `groupby_run` a second time in every block of the sinks mix, so
/// that the median request sits inside one class (sorted by cost it
/// occupies ranks 3-4 of 7) instead of on the boundary between two
/// classes an order of magnitude apart, where p50 would flip.
const SINK_BLOCK_EXTRA: Class = Class::GroupbyRun;

fn strs(args: &[&str]) -> Args {
    args.iter().map(|s| s.to_string()).collect()
}

/// A selective query over `len + 1` days from `from`. `tag` varies an
/// always-true clause (`quantity` never exceeds 50), which changes the
/// plan fingerprint — and so defeats the result cache — without
/// changing the answer's cost.
fn point_args(from: u64, len: u64, tag: u64) -> Args {
    strs(&[
        "--filter",
        &format!("shipdate={from}..{}", from + len),
        "--filter",
        &format!("quantity=0..{}", 50 + tag),
        "--sum",
        "price",
        "--count",
    ])
}

/// The request generator of one connection.
pub struct Gen {
    mix: Mix,
    rng: StdRng,
    days: u64,
    issued: u64,
    block: Vec<Class>,
}

impl Gen {
    /// `stream` separates the connections (and the warm-up, and the
    /// traced pass) of one seed.
    pub fn new(mix: Mix, seed: u64, stream: u64, fixture: &Fixture) -> Gen {
        Gen {
            mix,
            rng: StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            days: fixture.last_day - FIRST_DAY + 1,
            issued: 0,
            block: Vec::new(),
        }
    }

    /// A tag no pooled spec uses (those have tags below `POOL_SIZE`).
    fn fresh_tag(&mut self) -> u64 {
        self.rng.random_range(1_000..u64::from(u32::MAX))
    }

    fn fresh_point(&mut self) -> Request {
        let from = FIRST_DAY + self.rng.random_range(0..self.days - 1);
        let len = self.rng.random_range(0..=1);
        let tag = self.fresh_tag();
        Request {
            class: Class::Point,
            args: point_args(from, len, tag),
            pooled: None,
            columns: vec![("shipdate", false), ("price", true)],
            days: Some((from, from + len)),
        }
    }

    /// Pooled requests are result-cache hits, several times cheaper
    /// than fresh ones: latency is bimodal. At one third pooled the
    /// median request sits inside the fresh mode (its 25th percentile);
    /// at one half it would sit on the gap between the modes and flip.
    fn point_mix(&mut self) -> Request {
        if self.rng.random_range(0..3u32) == 0 {
            let i = self.rng.random_range(0..POOL_SIZE);
            Request {
                class: Class::Point,
                args: Vec::new(), // filled from the pool by the driver
                pooled: Some(i),
                // Answered by the result cache: no payload is read.
                columns: Vec::new(),
                days: None,
            }
        } else {
            self.fresh_point()
        }
    }

    fn sink(&mut self, class: Class) -> Request {
        let tag = self.fresh_tag();
        let always = format!("quantity=0..{}", 50 + tag);
        let (mut args, columns) = match class {
            Class::GroupbyDict => (
                strs(&["--group-by", "partkey", "--sum", "price"]),
                vec![("partkey", false), ("price", true)],
            ),
            Class::GroupbyRun => (
                strs(&["--group-by", "shipdate", "--sum", "price"]),
                vec![("shipdate", false), ("price", true)],
            ),
            Class::TopK => {
                let lo = self.rng.random_range(1..=20u64);
                let filter = format!("quantity={lo}..{}", lo + 20);
                (
                    strs(&["--filter", &filter, "--top-k", "price:100"]),
                    vec![("quantity", true), ("price", true)],
                )
            }
            Class::Distinct => (strs(&["--distinct", "discount"]), vec![("discount", true)]),
            Class::Join => (
                strs(&["--join", "part", "--on", "partkey"]),
                vec![("partkey", false)],
            ),
            // 100 % selective, yet fresh: the bound moves above the domain.
            Class::RowScan => {
                let filter = format!("noise=0..{}", NOISE_BOUND + tag);
                (
                    strs(&["--filter", &filter, "--sum", "noise"]),
                    vec![("noise", true)],
                )
            }
            other => unreachable!("{other:?} is not a sink class"),
        };
        if class != Class::RowScan {
            args.extend(strs(&["--filter", &always]));
        }
        // No `--threads`: like `lcdc client` without flags, a job holds
        // one lease at a time, so the two connections' jobs fill the
        // pool's two workers side by side. With `--threads 2` the jobs
        // interleave lease by lease, and a cheap query's latency then
        // depends on which expensive one it happened to overlap: p50
        // spread 30 % between runs.
        Request {
            class,
            args,
            pooled: None,
            columns,
            days: None,
        }
    }

    fn cold(&mut self) -> Request {
        let span = self.rng.random_range(self.days / 20..=self.days / 5);
        let from = FIRST_DAY + self.rng.random_range(0..self.days - span);
        let column = ["price", "quantity", "noise"][self.rng.random_range(0..3usize)];
        Request {
            class: Class::Cold,
            args: strs(&[
                "--filter",
                &format!("shipdate={from}..{}", from + span),
                "--sum",
                column,
                "--count",
            ]),
            pooled: None,
            columns: vec![(column, true)],
            days: Some((from, from + span)),
        }
    }

    pub fn next(&mut self) -> Request {
        self.issued += 1;
        match self.mix {
            Mix::Point => self.point_mix(),
            Mix::PointAndCount if self.issued.is_multiple_of(8) => Request {
                class: Class::Count,
                args: strs(&["--count"]),
                pooled: None,
                // Answered from zone maps alone.
                columns: Vec::new(),
                days: None,
            },
            Mix::PointAndCount => self.point_mix(),
            Mix::Sinks => {
                if self.block.is_empty() {
                    self.block = SINK_CLASSES.to_vec();
                    self.block.push(SINK_BLOCK_EXTRA);
                    // Fisher-Yates: every block holds the same classes.
                    for i in (1..self.block.len()).rev() {
                        let j = self.rng.random_range(0..=i);
                        self.block.swap(i, j);
                    }
                }
                let class = self.block.pop().expect("block was just filled");
                self.sink(class)
            }
            Mix::Cold => self.cold(),
        }
    }
}

/// One request of `class` with seeded bounds, for the layer probes.
pub fn one_of(class: Class, seed: u64, fixture: &Fixture) -> Request {
    let mut gen = Gen::new(Mix::Sinks, seed, 0xC1A5, fixture);
    match class {
        Class::Point => gen.fresh_point(),
        Class::Cold => gen.cold(),
        Class::Count => unreachable!("count(*) has no probe"),
        sink => gen.sink(sink),
    }
}

/// Bind a request's flag vector to the harness's resident, unsharded
/// copy of the data (and `part`, when it joins).
pub fn bind<'t>(fixture: &'t Fixture, args: &[String]) -> Result<QueryBuilder<'t>, String> {
    let parsed = QueryArgs::parse(args)?;
    Ok(match parsed.spec.join_spec() {
        Some(join) => {
            parsed
                .spec
                .bind(&fixture.lineitem)
                .join(&join.table, fixture.part.clone(), &join.on)
        }
        None => parsed.spec.bind(&fixture.lineitem),
    })
}

/// The decoded oracle: `execute_naive` over the resident copy.
pub fn oracle(fixture: &Fixture, args: &[String]) -> Result<Rows, String> {
    bind(fixture, args)?
        .execute_naive()
        .map(|r| r.rows)
        .map_err(|e| format!("oracle: {e}"))
}

/// The pooled specs and the rows the oracle expects for each.
pub struct Pool {
    pub specs: Vec<Args>,
    pub expected: Vec<Rows>,
}

impl Pool {
    pub fn build(seed: u64, fixture: &Fixture) -> Result<Pool, String> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9001);
        let days = fixture.last_day - FIRST_DAY + 1;
        let specs: Vec<Args> = (0..POOL_SIZE as u64)
            .map(|i| {
                let from = FIRST_DAY + rng.random_range(0..days - 1);
                point_args(from, rng.random_range(0..=1), i)
            })
            .collect();
        let expected = specs
            .iter()
            .map(|args| oracle(fixture, args))
            .collect::<Result<_, _>>()?;
        Ok(Pool { specs, expected })
    }

    /// Fill a pooled request's arguments in.
    pub fn resolve(&self, mut request: Request) -> Request {
        if let Some(i) = request.pooled {
            request.args = self.specs[i].clone();
        }
        request
    }
}

/// One completed request, as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time, seconds since the loop's common start.
    pub done_s: f64,
    pub latency_s: f64,
    pub class: Class,
}

/// What one connection did.
#[derive(Default)]
pub struct Outcome {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    /// Fresh answers kept for the oracle, checked after the clock stops
    /// so verification never competes with the server for the cores.
    pub unverified: Vec<(Args, Rows)>,
    /// `(table version, count(*))` of every `Count` answer.
    pub counts: Vec<(u64, i128)>,
    /// Client-observed latency of every ingest batch, milliseconds.
    pub write_ms: Vec<f64>,
    /// `(published version, rows)` of every acknowledged batch.
    pub acks: Vec<(u64, u64)>,
    /// How long the connection's loop ran (the longest, once merged).
    pub elapsed_s: f64,
    /// The server's own ledger for the answers received.
    pub stats: QueryStats,
    /// The first few failures, verbatim, for the report.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Count one failed operation, keeping the first few reasons.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 4 {
            self.errors.push(why);
        }
    }

    pub fn merge(outcomes: Vec<Outcome>) -> Outcome {
        let mut all = Outcome::default();
        for o in outcomes {
            all.samples.extend(o.samples);
            all.attempted += o.attempted;
            all.failed += o.failed;
            all.unverified.extend(o.unverified);
            all.counts.extend(o.counts);
            all.write_ms.extend(o.write_ms);
            all.acks.extend(o.acks);
            all.elapsed_s = all.elapsed_s.max(o.elapsed_s);
            all.stats.absorb(&o.stats);
            all.errors.extend(o.errors);
        }
        all
    }

    /// Check the kept answers against the oracle, and every `count(*)`
    /// against the acknowledged ingests: it must equal the base rows
    /// plus the rows of every batch published at or below the version
    /// the answer is tagged with. Mismatches count as failed operations.
    pub fn verify(&mut self, fixture: &Fixture) {
        for (args, rows) in std::mem::take(&mut self.unverified) {
            match oracle(fixture, &args) {
                Ok(expected) if expected == rows => {}
                Ok(_) => self.fail(format!("wrong answer for {args:?}")),
                Err(e) => self.fail(e),
            }
        }
        for (version, count) in std::mem::take(&mut self.counts) {
            let ingested: u64 = self
                .acks
                .iter()
                .filter(|(published, _)| *published <= version)
                .map(|(_, rows)| rows)
                .sum();
            let expected = (LINEITEM_ROWS as u64 + ingested) as i128;
            if count != expected {
                self.fail(format!(
                    "count(*) at version {version} is {count}, expected {expected}"
                ));
            }
        }
    }
}

/// Account one answer: anything but the right rows is a failed
/// operation — `Busy`, `Error`, `Deadline`, a transport failure, a
/// wrong answer alike.
pub fn account(
    outcome: &mut Outcome,
    request: &Request,
    pool: &Pool,
    response: Result<Response, String>,
) {
    outcome.attempted += 1;
    match response {
        Ok(Response::Rows {
            version,
            rows,
            stats,
        }) => {
            outcome.stats.absorb(&stats);
            match request.pooled {
                Some(i) if rows != pool.expected[i] => {
                    outcome.fail(format!("wrong answer for pooled spec {i}"));
                }
                Some(_) => {}
                None if request.class == Class::Count => match &rows {
                    Rows::Aggregates(v) if v.len() == 1 && v[0].is_some() => {
                        outcome
                            .counts
                            .push((version, v[0].expect("checked is_some")));
                    }
                    other => outcome.fail(format!("count(*) answered {other:?}")),
                },
                None => {
                    // A 1-in-8 sample by position in the connection's
                    // stream: seeded, like the stream itself.
                    let keep = outcome.attempted.is_multiple_of(VERIFY_EVERY);
                    if keep && outcome.unverified.len() < VERIFY_CAP {
                        outcome.unverified.push((request.args.clone(), rows));
                    }
                }
            }
        }
        Ok(other) => outcome.fail(format!("{:?} answered {other:?}", request.class)),
        Err(e) => outcome.fail(e),
    }
}

/// When a closed loop stops sending.
pub enum Stop<'a> {
    After(Duration),
    /// After this many requests per connection.
    Requests(usize),
    /// When the connection has sent its share of `batches` — every
    /// n-th one, n being the connection count — each followed by
    /// `reads_per_batch` reads: a fixed operation count, so table shape
    /// and chain depth are the same run to run.
    Batches {
        batches: &'a [WireRequest],
        reads_per_batch: usize,
    },
}

/// One connection's closed loop.
struct Conn<'a> {
    client: Option<Client>,
    gen: Gen,
    pool: &'a Pool,
    start: Instant,
    outcome: Outcome,
}

impl Conn<'_> {
    /// Send `request` and wait for its answer. A transport error ends
    /// the connection: the stream's framing is unknown after it.
    fn exchange(&mut self, request: &WireRequest) -> Option<(Result<Response, String>, f64)> {
        let client = self.client.as_mut()?;
        let sent_at = Instant::now();
        let response = client.request(request);
        let latency_s = sent_at.elapsed().as_secs_f64();
        if response.is_err() {
            self.client = None;
        }
        Some((response.map_err(|e| format!("transport: {e}")), latency_s))
    }

    fn read(&mut self) {
        let request = self.pool.resolve(self.gen.next());
        let wire = WireRequest::Query {
            table: LINEITEM.to_string(),
            args: request.args.clone(),
            deadline_ms: None,
        };
        let Some((response, latency_s)) = self.exchange(&wire) else {
            return;
        };
        account(&mut self.outcome, &request, self.pool, response);
        self.outcome.samples.push(Sample {
            done_s: self.start.elapsed().as_secs_f64(),
            latency_s,
            class: request.class,
        });
    }

    fn write(&mut self, batch: &WireRequest) {
        let Some((response, latency_s)) = self.exchange(batch) else {
            return;
        };
        self.outcome.attempted += 1;
        self.outcome.write_ms.push(latency_s * 1e3);
        match response {
            Ok(Response::Ingested { version, rows }) => self.outcome.acks.push((version, rows)),
            Ok(other) => self.outcome.fail(format!("ingest answered {other:?}")),
            Err(e) => self.outcome.fail(e),
        }
    }
}

/// Keep this generator thread on core `c`, where util-linux `taskset`
/// exists (best effort; without it the thread floats as before). The
/// server's threads are never touched.
pub fn pin_to_core(c: usize) {
    let Ok(link) = std::fs::read_link("/proc/thread-self") else {
        return;
    };
    let Some(tid) = link.file_name().and_then(|t| t.to_str()) else {
        return;
    };
    let _ = std::process::Command::new("taskset")
        .args(["-cp", &c.to_string(), tid])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status();
}

/// Drive `gens.len()` closed-loop connections against `addr` until
/// `stop`, starting them together.
pub fn closed_loop(addr: &str, gens: Vec<Gen>, pool: &Pool, stop: &Stop<'_>) -> Vec<Outcome> {
    let connections = gens.len();
    let barrier = Barrier::new(connections);
    let mut outcomes: Vec<Outcome> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = gens
            .into_iter()
            .enumerate()
            .map(|(c, gen)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut outcome = Outcome::default();
                    let client = match Client::connect(addr) {
                        Ok(client) => Some(client),
                        Err(e) => {
                            outcome.attempted += 1;
                            outcome.fail(format!("connect: {e}"));
                            None
                        }
                    };
                    pin_to_core(c);
                    barrier.wait();
                    let mut conn = Conn {
                        client,
                        gen,
                        pool,
                        start: Instant::now(),
                        outcome,
                    };
                    match stop {
                        Stop::After(d) => {
                            while conn.client.is_some() && conn.start.elapsed() < *d {
                                conn.read();
                            }
                        }
                        Stop::Requests(n) => (0..*n).for_each(|_| conn.read()),
                        Stop::Batches {
                            batches,
                            reads_per_batch,
                        } => {
                            for batch in batches.iter().skip(c).step_by(connections) {
                                conn.write(batch);
                                (0..*reads_per_batch).for_each(|_| conn.read());
                            }
                        }
                    }
                    conn.outcome.elapsed_s = conn.start.elapsed().as_secs_f64();
                    conn.outcome
                })
            })
            .collect();
        for handle in handles {
            outcomes.push(handle.join().expect("load thread panicked"));
        }
    });
    outcomes
}

/// Throughput and median latency of each of `n` consecutive windows of
/// `window_s` seconds.
pub struct Windows {
    pub ops_per_s: Vec<f64>,
    pub p50_ms: Vec<f64>,
}

pub fn windows(samples: &[Sample], n: usize, window_s: f64) -> Windows {
    let mut per_window: Vec<Vec<f64>> = vec![Vec::new(); n];
    for s in samples {
        let w = (s.done_s / window_s) as usize;
        if w < n {
            per_window[w].push(s.latency_s * 1e3);
        }
    }
    Windows {
        ops_per_s: per_window
            .iter()
            .map(|w| w.len() as f64 / window_s)
            .collect(),
        // An empty window (a stalled server) reads as a whole-window
        // latency, not as a missing sample.
        p50_ms: per_window
            .iter()
            .map(|w| {
                if w.is_empty() {
                    window_s * 1e3
                } else {
                    median(w)
                }
            })
            .collect(),
    }
}
