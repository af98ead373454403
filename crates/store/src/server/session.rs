//! One connection's request loop.
//!
//! A session is a thread that owns one [`TcpStream`]: it reads request
//! frames, answers them in order, and keeps a private
//! [`ConnectionStats`] ledger it summarises to stderr on disconnect.
//! Between frames the socket is polled with a short read timeout so the
//! session notices a server shutdown within a beat even when the client
//! is idle; once the first byte of a frame shows up, the read switches
//! to the configured session timeout and pulls the frame whole. Writes
//! carry the same timeout, so a peer that stops draining cannot pin a
//! session thread forever.
//!
//! Admission control happens here, *before* any catalog or pool work:
//! `query` and `ingest` requests take an in-flight slot or get a typed
//! [`Response::Busy`] carrying the observed load and a backoff hint.
//! `stats` and `ping` bypass admission — they exist to observe a
//! saturated server, which they could not do from inside its queue.
//!
//! Queries run under a [`CancelToken`]: the wire deadline (or the
//! server default) arms it, the session compiles the query once into
//! its [`Job`], and while the pool drives that job the session waits on
//! it — running the job's prefetcher when the client asked for one,
//! and ticking: re-checking the token and peeking the socket for a
//! vanished client. An expired or cancelled query answers a *typed*
//! [`Response::Deadline`] / [`Response::Cancelled`] immediately,
//! freeing its admission slot; the job abandons its unclaimed morsels
//! at the next lease boundary.

use super::metrics::{ConnectionStats, Outcome};
use super::protocol::{Request, Response};
use super::Shared;
use crate::query::{CancelToken, Job, QueryArgs};
use crate::StoreError;
use std::io::{ErrorKind, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Idle poll period — how quickly an idle session notices shutdown.
const POLL_TIMEOUT: Duration = Duration::from_millis(200);

/// Patience of the mid-query client-liveness peek: long enough to see
/// a FIN, short enough that the wait tick stays a tick.
const PEEK_TIMEOUT: Duration = Duration::from_millis(1);

pub(super) fn run(shared: &Shared, stream: TcpStream, peer: &str) {
    shared.metrics.connection_opened();
    let mut conn = ConnectionStats::default();
    serve_requests(shared, &stream, &mut conn);
    shared.metrics.connection_closed();
    eprintln!("{}", conn.summary(peer));
}

fn serve_requests(shared: &Shared, mut stream: &TcpStream, conn: &mut ConnectionStats) {
    // A peer that stops draining responses is a disconnect, not a
    // parked thread.
    if stream
        .set_write_timeout(Some(shared.session_timeout))
        .is_err()
    {
        return;
    }
    loop {
        // Idle poll: wait for a first byte, watching the shutdown flag.
        if stream.set_read_timeout(Some(POLL_TIMEOUT)).is_err() {
            return;
        }
        match stream.peek(&mut [0u8; 1]) {
            Ok(0) => return, // clean disconnect
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // ordering: advisory stop flag poll between requests;
                // no data is read through it.
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        // A frame is arriving: read it whole, with the session's
        // patience.
        if stream
            .set_read_timeout(Some(shared.session_timeout))
            .is_err()
        {
            return;
        }
        let request = match Request::read_from(&mut stream) {
            Ok(Some(request)) => request,
            Ok(None) => return,
            Err(e) => {
                // A malformed frame poisons the stream — answer once,
                // loudly, and hang up.
                conn.errors += 1;
                let _ = Response::Error {
                    message: format!("malformed request: {e}"),
                }
                .write_to(&mut stream);
                return;
            }
        };
        conn.requests += 1;
        let started = Instant::now();
        let (response, hang_up, token) = answer(shared, conn, request, stream, started);
        match &response {
            Response::Error { .. } => conn.errors += 1,
            Response::Busy { .. } => conn.rejected += 1,
            Response::Deadline { .. } => conn.deadline_exceeded += 1,
            Response::Cancelled => conn.cancelled += 1,
            _ => {}
        }
        if !write_response(shared, stream, &response) {
            // The client vanished mid-answer: fire the request's token
            // so any work still draining in the pool stops at its next
            // lease boundary.
            if let Some(token) = token {
                token.cancel();
            }
            return;
        }
        if hang_up {
            return;
        }
    }
}

/// Write one response, through the fault seam when a plan is armed: an
/// injected stall sleeps first, an injected truncation sends a strict
/// prefix of the frame and reports failure (a torn frame poisons the
/// stream, exactly like a real mid-write disconnect). Returns whether
/// the connection is still usable.
fn write_response(shared: &Shared, mut stream: &TcpStream, response: &Response) -> bool {
    let Some(plan) = shared.faults.as_ref() else {
        return response.write_to(&mut stream).is_ok();
    };
    if let Some(pause) = plan.response_stall() {
        std::thread::sleep(pause);
    }
    let mut frame = Vec::new();
    if response.write_to(&mut frame).is_err() {
        return false;
    }
    if let Some(keep) = plan.truncate_frame(frame.len()) {
        let torn = frame.get(..keep).unwrap_or_default();
        let _ = stream.write_all(torn);
        let _ = stream.flush();
        return false;
    }
    stream.write_all(&frame).is_ok() && stream.flush().is_ok()
}

/// Answer one request. The bool asks the caller to close the
/// connection after writing; the token, when present, is the query's
/// cancellation switch for the caller to fire on a failed write.
fn answer(
    shared: &Shared,
    conn: &mut ConnectionStats,
    request: Request,
    stream: &TcpStream,
    started: Instant,
) -> (Response, bool, Option<Arc<CancelToken>>) {
    match request {
        Request::Ping => {
            shared
                .metrics
                .served("ping", started.elapsed(), Outcome::Ok, None);
            (Response::Pong, false, None)
        }
        Request::Stats => {
            let report = shared.report();
            shared
                .metrics
                .served("stats", started.elapsed(), Outcome::Ok, None);
            (Response::Stats(report), false, None)
        }
        Request::Shutdown => {
            // ordering: advisory stop flag; every loop observes it on
            // its own poll and the server's joins do the real ordering.
            shared.shutdown.store(true, Ordering::Relaxed);
            shared
                .metrics
                .served("shutdown", started.elapsed(), Outcome::Ok, None);
            (Response::ShuttingDown, true, None)
        }
        Request::Query {
            table,
            args,
            deadline_ms,
        } => {
            let token = Arc::new(match deadline_ms.or(shared.default_deadline_ms) {
                Some(ms) => CancelToken::with_deadline_ms(ms),
                None => CancelToken::unbounded(),
            });
            let response = query(shared, conn, &table, &args, &token, stream, started);
            (response, false, Some(token))
        }
        Request::Ingest { table, columns } => {
            // ordering: advisory stop flag; a racing shutdown is
            // answered on the next request either way.
            if shared.shutdown.load(Ordering::Relaxed) {
                return (Response::ShuttingDown, false, None);
            }
            let Some(_slot) = shared.try_admit() else {
                shared.metrics.rejected("ingest", started.elapsed());
                return (busy(shared), false, None);
            };
            let rows = columns.first().map_or(0, |c| c.len()) as u64;
            let (outcome, response) = match shared.catalog.ingest(&table, &columns) {
                Ok(version) => (Outcome::Ok, Response::Ingested { version, rows }),
                Err(e) => classify(e),
            };
            shared
                .metrics
                .served("ingest", started.elapsed(), outcome, None);
            (response, false, None)
        }
    }
}

fn query(
    shared: &Shared,
    conn: &mut ConnectionStats,
    table: &str,
    args: &[String],
    token: &Arc<CancelToken>,
    stream: &TcpStream,
    started: Instant,
) -> Response {
    // Parse with the CLI's own grammar, then refuse the flags that only
    // make sense against local storage — by name, not silently.
    let parsed = match QueryArgs::parse(args) {
        Ok(parsed) => parsed,
        Err(message) => {
            shared
                .metrics
                .served("query", started.elapsed(), Outcome::Error, None);
            return Response::Error { message };
        }
    };
    if let Some(flag) = parsed.storage_flag() {
        shared
            .metrics
            .served("query", started.elapsed(), Outcome::Error, None);
        return Response::Error {
            message: format!("{flag} is a local-storage flag; the server owns storage"),
        };
    }
    // ordering: advisory stop flag; a racing shutdown is answered on
    // the next request either way.
    if shared.shutdown.load(Ordering::Relaxed) {
        return Response::ShuttingDown;
    }
    let Some(_slot) = shared.try_admit() else {
        shared.metrics.rejected("query", started.elapsed());
        return busy(shared);
    };
    // The serving-layer seam: cache probe + version capture in the
    // catalog, then the query compiles once — here, on the session
    // thread — into the job the shared pool drives. `opts.threads`
    // caps this client's pool leases; `opts.prefetch` is work this
    // thread does while it waits, never a server thread. Between
    // prefetch steps the session ticks: an expired deadline or a
    // vanished client turns into a typed answer *now* — the admission
    // slot frees on return, and the job drops its unclaimed morsels at
    // its next token check.
    let outcome = shared
        .catalog
        .execute_versioned_with(table, &parsed.spec, |t, join| {
            let job = Arc::new(Job::compile(
                t,
                &parsed.spec,
                join.map(|j| &j.right),
                &parsed.opts,
                shared.pool.threads(),
                Arc::clone(token),
            )?);
            job.submit_and_wait(
                || shared.pool.submit(&job),
                || {
                    token.check()?;
                    if client_vanished(stream) {
                        token.cancel();
                        token.check()?;
                    }
                    Ok(())
                },
            )
        });
    match outcome {
        Ok((result, version)) => {
            conn.query_stats.absorb(&result.stats);
            shared
                .metrics
                .served("query", started.elapsed(), Outcome::Ok, Some(&result.stats));
            Response::Rows {
                version,
                rows: result.rows,
                stats: result.stats,
            }
        }
        Err(e) => {
            let (outcome, response) = classify(e);
            shared
                .metrics
                .served("query", started.elapsed(), outcome, None);
            response
        }
    }
}

/// Map a failed request to its ledger outcome and typed wire answer.
fn classify(e: StoreError) -> (Outcome, Response) {
    match e {
        StoreError::DeadlineExceeded { deadline_ms } => {
            (Outcome::Deadline, Response::Deadline { deadline_ms })
        }
        StoreError::Cancelled => (Outcome::Cancelled, Response::Cancelled),
        other => {
            let outcome = if matches!(other, StoreError::Io(_)) {
                Outcome::IoFault
            } else {
                Outcome::Error
            };
            (
                outcome,
                Response::Error {
                    message: other.to_string(),
                },
            )
        }
    }
}

/// A 1 ms peek at the request stream: `true` when the client's side is
/// closed. `WouldBlock`/`TimedOut` — no bytes, connection alive — is
/// the common mid-query answer; pipelined request bytes also count as
/// alive.
fn client_vanished(stream: &TcpStream) -> bool {
    if stream.set_read_timeout(Some(PEEK_TIMEOUT)).is_err() {
        return true;
    }
    match stream.peek(&mut [0u8; 1]) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) => !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
    }
}

fn busy(shared: &Shared) -> Response {
    Response::Busy {
        // ordering: load-only snapshot of the admission gauge for the
        // Busy payload; approximate by design.
        in_flight: shared.in_flight.load(Ordering::Relaxed) as u64,
        max: shared.max_inflight as u64,
        retry_after_ms: shared.metrics.retry_after_ms(shared.max_inflight),
    }
}
