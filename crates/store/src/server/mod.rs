//! `lcdc serve`: a concurrent query service over the catalog.
//!
//! Everything below this module serves one process at a time: a CLI
//! invocation opens a table, runs one query (driving it on its own
//! thread plus a few helpers), and exits. This module makes the catalog a long-lived *service*
//! without changing what a query means:
//!
//! * **One wire protocol** (`protocol.rs`): length-prefixed, XXH64
//!   checksummed frames whose query payload is the verbatim
//!   `lcdc query` flag vector — the server parses it with
//!   [`crate::QueryArgs`], the exact grammar the CLI uses, so the two
//!   front doors cannot drift.
//! * **One worker pool** (`pool.rs`): every client's query compiles
//!   once into the same [`crate::query`] job in-process callers drive
//!   themselves, and a fixed set of workers leases segments from it.
//!   Concurrency is a *server* property (`--threads`), not a per-query
//!   spawn; queries interleave fairly at lease granularity, a client's
//!   own `--threads` caps its share, and its `--prefetch` is work the
//!   waiting session thread does.
//! * **Admission control**: at most `max_inflight` query/ingest
//!   requests execute at once; the next one gets a typed
//!   [`Response::Busy`] with the observed load, so overload is a
//!   backpressure signal rather than a timeout. `stats`/`ping` bypass
//!   admission — they observe saturation from outside the queue.
//! * **Snapshot answers**: each query runs against the catalog version
//!   its cache probe captured ([`crate::Catalog::execute_versioned_with`])
//!   and the response carries that version, so clients racing
//!   [`crate::Catalog::ingest`] can pin every answer to one published
//!   table state.
//! * **Per-endpoint observability** (`metrics.rs`): served/rejected
//!   counts, p50/p99 latency per endpoint, and the absorbed
//!   [`crate::QueryStats`] ledger — served over the wire as a `stats`
//!   request and printed on graceful shutdown.
//!
//! In-process use (tests, benches) skips the CLI entirely:
//!
//! ```
//! use lcdc_store::{Catalog, Client, Response, Rows, Server, ServerConfig};
//! use lcdc_store::{CompressionPolicy, Table, TableSchema};
//! use lcdc_core::{ColumnData, DType};
//! use std::sync::Arc;
//!
//! let catalog = Arc::new(Catalog::new());
//! let schema = TableSchema::new(&[("qty", DType::U64)]);
//! let qty = ColumnData::U64((0..500).map(|i| i % 50).collect());
//! let table =
//!     Table::build(schema, &[qty], &[CompressionPolicy::Auto], 128).unwrap();
//! catalog.register("orders", table);
//!
//! let server =
//!     Server::start(catalog, "127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! let args: Vec<String> =
//!     ["--filter", "qty=10..19", "--count"].iter().map(|s| s.to_string()).collect();
//! match client.query("orders", &args).unwrap() {
//!     Response::Rows { rows, .. } => assert_eq!(rows, Rows::Aggregates(vec![Some(100)])),
//!     other => panic!("{other:?}"),
//! }
//! let report = server.shutdown();
//! assert_eq!(report.served, 1);
//! ```

mod client;
mod metrics;
mod pool;
mod protocol;
mod session;

pub use client::{Client, RetryPolicy};
pub use metrics::{EndpointStats, StatsReport};
pub use protocol::{Request, Response, MAX_FRAME};

use crate::catalog::Catalog;
use crate::fault::FaultPlan;
use crate::Result;
use pool::WorkerPool;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// How often the accept loop and [`Server::wait`] poll the shutdown
/// flag — and so the longest a connecting client waits to be accepted.
/// Short enough that connections are accepted in arrival order: at
/// 50 ms, clients tens of milliseconds apart were accepted as one batch
/// and their sessions raced to submit.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Tunables for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Workers in the shared pool — the server's *total*
    /// execution width, shared by all clients. Defaults to the host's
    /// available parallelism.
    pub threads: usize,
    /// Most query/ingest requests in flight at once; the next is
    /// refused with a typed [`Response::Busy`]. Defaults to 32.
    pub max_inflight: usize,
    /// Socket read/write timeout armed on every session: a peer that
    /// stalls mid-frame longer than this is disconnected rather than
    /// pinning its session thread. Defaults to 10 s.
    pub session_timeout: Duration,
    /// Deadline applied to queries that do not carry their own
    /// `deadline_ms` on the wire. `None` (the default) means no
    /// server-imposed deadline.
    pub default_deadline_ms: Option<u64>,
    /// An armed fault-injection plan for the session I/O layer (and,
    /// via `lcdc serve --faults`, the storage layer). `None` — the
    /// default and the production setting — is zero-cost: one
    /// `Option` check per seam.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            threads: crate::par::host_width(),
            max_inflight: 32,
            session_timeout: Duration::from_secs(10),
            default_deadline_ms: None,
            faults: None,
        }
    }
}

/// State every session thread shares: the catalog, the one worker
/// pool, the metrics ledger, and the admission/shutdown switches.
pub(crate) struct Shared {
    pub(crate) catalog: Arc<Catalog>,
    pub(crate) pool: WorkerPool,
    pub(crate) metrics: metrics::ServerMetrics,
    pub(crate) shutdown: AtomicBool,
    pub(crate) in_flight: AtomicUsize,
    pub(crate) max_inflight: usize,
    pub(crate) session_timeout: Duration,
    pub(crate) default_deadline_ms: Option<u64>,
    pub(crate) faults: Option<Arc<FaultPlan>>,
}

impl Shared {
    /// Claim an in-flight slot, or `None` when the server is at its
    /// admission limit. The slot releases when the guard drops.
    pub(crate) fn try_admit(&self) -> Option<AdmitSlot<'_>> {
        // ordering: the counter is only an admission gauge — the CAS
        // below re-reads it, and no other memory is published through
        // an admit.
        let mut current = self.in_flight.load(Ordering::Relaxed);
        loop {
            if current >= self.max_inflight {
                return None;
            }
            // ordering: same gauge; a stale failure just re-loops with
            // the observed value, and over-admission is impossible
            // because the CAS is atomic.
            match self.in_flight.compare_exchange(
                current,
                current + 1,
                Ordering::Relaxed, // ordering: gauge CAS, see above
                Ordering::Relaxed, // ordering: failure re-reads the gauge
            ) {
                Ok(_) => return Some(AdmitSlot(self)),
                Err(observed) => current = observed,
            }
        }
    }

    pub(crate) fn report(&self) -> StatsReport {
        self.metrics
            .report(self.pool.threads(), self.pool.peak_leases())
    }
}

/// An admitted request's slot; dropping it re-opens admission.
pub(crate) struct AdmitSlot<'a>(&'a Shared);

impl Drop for AdmitSlot<'_> {
    fn drop(&mut self) {
        // ordering: releases the admission gauge claimed in
        // `try_admit`; nothing reads memory "through" the counter.
        self.0.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A running `lcdc serve` instance: an accept loop, one session thread
/// per connection, and the shared worker pool behind them.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    sessions: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) over `catalog`
    /// and start serving. The catalog stays fully usable in-process —
    /// the server is just another `Arc` holder, so tests and embedders
    /// can race direct [`Catalog::ingest`] calls against wire queries.
    pub fn start(catalog: Arc<Catalog>, addr: &str, config: ServerConfig) -> Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            catalog,
            pool: WorkerPool::new(config.threads)?,
            metrics: metrics::ServerMetrics::default(),
            shutdown: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            max_inflight: config.max_inflight,
            session_timeout: config.session_timeout,
            default_deadline_ms: config.default_deadline_ms,
            faults: config.faults,
        });
        let sessions: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
        let accept = {
            let (accept_shared, sessions) = (Arc::clone(&shared), Arc::clone(&sessions));
            let spawned = std::thread::Builder::new()
                .name("lcdc-accept".into())
                .spawn(move || accept_loop(&listener, &accept_shared, &sessions));
            match spawned {
                Ok(handle) => handle,
                Err(e) => {
                    // No accept loop means no server: tear the pool
                    // back down and report the spawn failure.
                    shared.pool.stop();
                    return Err(e.into());
                }
            }
        };
        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
            sessions,
        })
    }

    /// The bound address — the port to hand to [`Client::connect`].
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A live metrics snapshot, without going over the wire.
    pub fn report(&self) -> StatsReport {
        self.shared.report()
    }

    /// True once a shutdown was requested (wire `shutdown` request or
    /// [`Server::shutdown`]).
    pub fn is_shutting_down(&self) -> bool {
        // ordering: advisory stop flag, polled; no data is published
        // through it (sessions finish via join, not via this load).
        self.shared.shutdown.load(Ordering::Relaxed)
    }

    /// Block until a shutdown is requested — how `lcdc serve` parks its
    /// main thread while sessions do the work.
    pub fn wait(&self) {
        while !self.is_shutting_down() {
            std::thread::sleep(ACCEPT_POLL);
        }
    }

    /// Graceful shutdown: stop accepting, let every session finish its
    /// in-flight request and disconnect, drain the worker pool, and
    /// return the final metrics report.
    pub fn shutdown(mut self) -> StatsReport {
        // ordering: advisory stop flag; every thread re-checks it on
        // its own poll cadence and the joins below are the real
        // synchronization points.
        self.shared.shutdown.store(true, Ordering::Relaxed);
        if let Some(accept) = self.accept.take() {
            if accept.join().is_err() {
                eprintln!("lcdc server: accept thread panicked; continuing shutdown");
            }
        }
        let sessions =
            std::mem::take(&mut *self.sessions.lock().unwrap_or_else(PoisonError::into_inner));
        for session in sessions {
            // A panicked session already lost its connection; the
            // remaining sessions still deserve a clean drain.
            if session.join().is_err() {
                eprintln!("lcdc server: a session thread panicked; continuing shutdown");
            }
        }
        self.shared.pool.stop();
        self.shared.report()
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    sessions: &Mutex<Vec<JoinHandle<()>>>,
) {
    // ordering: advisory stop flag poll; joining the accept thread is
    // what actually orders shutdown.
    while !shared.shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, peer)) => {
                // The listener is non-blocking so this loop can poll the
                // shutdown flag; sessions want plain blocking reads
                // (with timeouts) back.
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                let session_shared = Arc::clone(shared);
                let spawned = std::thread::Builder::new()
                    .name("lcdc-session".into())
                    .spawn(move || run_session(&session_shared, stream, peer));
                match spawned {
                    Ok(session) => sessions
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(session),
                    // Out of threads: drop the connection (the stream
                    // closes) and keep serving existing sessions.
                    Err(e) => eprintln!("lcdc server: cannot spawn session thread: {e}"),
                }
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

fn run_session(shared: &Shared, stream: TcpStream, peer: SocketAddr) {
    session::run(shared, stream, &peer.to_string());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Rows;
    use crate::schema::TableSchema;
    use crate::segment::CompressionPolicy;
    use crate::table::Table;
    use lcdc_core::{ColumnData, DType};

    fn serve_orders(rows: u64, config: ServerConfig) -> (Server, Arc<Catalog>) {
        let catalog = Arc::new(Catalog::new());
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
        let server = Server::start(Arc::clone(&catalog), "127.0.0.1:0", config).unwrap();
        (server, catalog)
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn serves_queries_and_reports() {
        let (server, catalog) = serve_orders(3000, ServerConfig::default());
        let mut client = Client::connect(server.addr()).unwrap();
        client.ping().unwrap();

        let query = args(&["--filter", "day=2..4", "--sum", "qty", "--count"]);
        let Response::Rows {
            version,
            rows,
            stats,
        } = client.query("orders", &query).unwrap()
        else {
            panic!("expected rows");
        };
        assert_eq!(version, catalog.version("orders").unwrap());
        let want = catalog
            .execute(
                "orders",
                &crate::query::QueryArgs::parse(&query).unwrap().spec,
            )
            .unwrap();
        assert_eq!(rows, want.rows);
        assert!(stats.segments > 0);

        // Same query again: served from the catalog's result cache.
        let Response::Rows { stats, .. } = client.query("orders", &query).unwrap() else {
            panic!("expected rows");
        };
        assert_eq!(stats.result_cache_hits, 1);

        // Errors are typed, not connection drops.
        let bad = client.query("orders", &args(&["--wat"])).unwrap();
        assert!(matches!(bad, Response::Error { .. }));
        let storage = client
            .query("orders", &args(&["--lazy", "--count"]))
            .unwrap();
        let Response::Error { message } = storage else {
            panic!("storage flags must be rejected");
        };
        assert!(message.contains("--lazy"), "{message}");
        let missing = client.query("nope", &args(&["--count"])).unwrap();
        assert!(matches!(missing, Response::Error { .. }));

        let report = client.stats().unwrap();
        // Served counts every admitted-and-answered request, error
        // answers included: ping + 2 good queries + 3 typed errors.
        assert_eq!(report.served, 6);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.connections_opened, 1);
        let endpoints: Vec<&str> = report
            .endpoints
            .iter()
            .map(|e| e.endpoint.as_str())
            .collect();
        assert!(endpoints.contains(&"query") && endpoints.contains(&"ping"));

        let final_report = server.shutdown();
        assert!(final_report.served >= report.served);
        assert_eq!(final_report.connections_closed, 1);
    }

    #[test]
    fn admission_control_rejects_with_busy() {
        let config = ServerConfig {
            max_inflight: 0,
            ..ServerConfig::default()
        };
        let (server, _catalog) = serve_orders(500, config);
        let mut client = Client::connect(server.addr()).unwrap();
        // max_inflight 0: every query is deterministically refused...
        let Response::Busy {
            in_flight,
            max,
            retry_after_ms,
        } = client.query("orders", &args(&["--count"])).unwrap()
        else {
            panic!("expected busy");
        };
        assert_eq!((in_flight, max), (0, 0));
        assert!(retry_after_ms >= 1, "hint is never zero");
        // ...but stats still answer, and count the rejection.
        let report = client.stats().unwrap();
        assert_eq!(report.rejected, 1);
        server.shutdown();
    }

    #[test]
    fn wire_ingest_bumps_version_and_answers_move() {
        let (server, catalog) = serve_orders(1000, ServerConfig::default());
        let v0 = catalog.version("orders").unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let Response::Ingested { version, rows } = client
            .ingest(
                "orders",
                vec![
                    ColumnData::U64(vec![99; 300]),
                    ColumnData::U64(vec![7; 300]),
                ],
            )
            .unwrap()
        else {
            panic!("expected ingested");
        };
        assert_eq!(rows, 300);
        assert_eq!(version, v0 + 1);
        let Response::Rows { version, rows, .. } = client
            .query("orders", &args(&["--filter", "day=99..99", "--count"]))
            .unwrap()
        else {
            panic!("expected rows");
        };
        assert_eq!(version, v0 + 1);
        assert_eq!(rows, Rows::Aggregates(vec![Some(300)]));
        server.shutdown();
    }

    #[test]
    fn wire_shutdown_drains_and_reports() {
        let (server, _catalog) = serve_orders(500, ServerConfig::default());
        let mut client = Client::connect(server.addr()).unwrap();
        client.query("orders", &args(&["--count"])).unwrap();
        client.shutdown().unwrap();
        server.wait();
        let report = server.shutdown();
        assert_eq!(report.served, 2, "query + shutdown");
    }
}
