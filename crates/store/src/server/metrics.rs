//! Per-endpoint observability for `lcdc serve`.
//!
//! Every request updates two ledgers: the **connection's** (a plain
//! [`ConnectionStats`] owned by its session thread, summarised to
//! stderr when the client disconnects) and the **server-wide**
//! [`ServerMetrics`] (one mutex-held accumulator shared by every
//! session). The server-wide ledger snapshots into a [`StatsReport`] —
//! the payload of the `stats` wire request, and what the server prints
//! on graceful shutdown.
//!
//! Latency is tracked per endpoint (`query`, `ingest`, `stats`, `ping`)
//! in a bounded reservoir of microsecond samples; p50/p99 are computed
//! at snapshot time, so the per-request cost is one push under a mutex
//! already taken for the counters. Query executions additionally fold
//! their full [`QueryStats`] into one server-wide ledger — cache hits,
//! `rows_undecoded`, prefetch cancellations and the rest stay
//! observable per *server*, exactly as `-- stats` lines expose them per
//! *query*.

use super::protocol::{put_stats, take_stats};
use crate::le::{put_str32, put_u32, put_u64, Cursor};
use crate::query::QueryStats;
use crate::Result;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

/// Latency samples kept per endpoint. Old samples are overwritten
/// ring-style once the reservoir is full, so percentiles track recent
/// behaviour and memory stays bounded no matter how long the server
/// runs.
const LATENCY_RESERVOIR: usize = 4096;

/// One endpoint's aggregated counters in a [`StatsReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EndpointStats {
    /// Endpoint name: `query`, `ingest`, `stats`, or `ping`.
    pub endpoint: String,
    /// Requests that reached the endpoint (admitted or not).
    pub requests: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Requests answered with a typed deadline-expiry response.
    pub deadline_exceeded: u64,
    /// Requests cancelled mid-flight (client disconnect observed).
    pub cancelled: u64,
    /// Errors whose root cause was an I/O failure (including injected
    /// faults) — a subset of `errors`.
    pub io_faults: u64,
    /// Median request latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: u64,
}

/// A server-wide metrics snapshot: what the `stats` wire request
/// returns and the server prints on shutdown.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsReport {
    /// Workers in the shared morsel pool (fixed at startup).
    pub pool_threads: u64,
    /// Most pool leases ever executing at once — never exceeds
    /// `pool_threads`, the proof the pool is the only execution lane.
    pub peak_leases: u64,
    /// Requests admitted and answered (any endpoint).
    pub served: u64,
    /// Requests refused by admission control with a typed `Busy`.
    pub rejected: u64,
    /// Connections accepted since startup.
    pub connections_opened: u64,
    /// Connections that have ended.
    pub connections_closed: u64,
    /// Per-endpoint request/error/latency breakdown, sorted by name.
    pub endpoints: Vec<EndpointStats>,
    /// Every served query's [`QueryStats`], absorbed into one ledger.
    pub query_stats: QueryStats,
}

// Encode and `fmt` destructure exhaustively and decode builds full
// literals: a field added to `StatsReport`, `EndpointStats` or
// `ConnectionStats` but not wired through here fails to compile.

impl StatsReport {
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        let StatsReport {
            pool_threads,
            peak_leases,
            served,
            rejected,
            connections_opened,
            connections_closed,
            endpoints,
            query_stats,
        } = self;
        put_u64(out, *pool_threads);
        put_u64(out, *peak_leases);
        put_u64(out, *served);
        put_u64(out, *rejected);
        put_u64(out, *connections_opened);
        put_u64(out, *connections_closed);
        put_u32(out, endpoints.len() as u32);
        for e in endpoints {
            let EndpointStats {
                endpoint,
                requests,
                errors,
                deadline_exceeded,
                cancelled,
                io_faults,
                p50_us,
                p99_us,
            } = e;
            put_str32(out, endpoint);
            put_u64(out, *requests);
            put_u64(out, *errors);
            put_u64(out, *deadline_exceeded);
            put_u64(out, *cancelled);
            put_u64(out, *io_faults);
            put_u64(out, *p50_us);
            put_u64(out, *p99_us);
        }
        put_stats(out, query_stats);
    }

    pub(crate) fn decode(cur: &mut Cursor<'_>) -> Result<StatsReport> {
        // Struct-literal fields evaluate in source order: the wire order.
        Ok(StatsReport {
            pool_threads: cur.u64()?,
            peak_leases: cur.u64()?,
            served: cur.u64()?,
            rejected: cur.u64()?,
            connections_opened: cur.u64()?,
            connections_closed: cur.u64()?,
            endpoints: (0..cur.u32()?)
                .map(|_| {
                    Ok(EndpointStats {
                        endpoint: cur.str32()?,
                        requests: cur.u64()?,
                        errors: cur.u64()?,
                        deadline_exceeded: cur.u64()?,
                        cancelled: cur.u64()?,
                        io_faults: cur.u64()?,
                        p50_us: cur.u64()?,
                        p99_us: cur.u64()?,
                    })
                })
                .collect::<Result<_>>()?,
            query_stats: take_stats(cur)?,
        })
    }
}

impl std::fmt::Display for StatsReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let StatsReport {
            pool_threads,
            peak_leases,
            served,
            rejected,
            connections_opened,
            connections_closed,
            endpoints,
            query_stats,
        } = self;
        // A decoded report is untrusted: more closed than opened must
        // print, not underflow.
        let still_open = connections_opened.saturating_sub(*connections_closed);
        writeln!(
            f,
            "served {served} / rejected {rejected} requests over {connections_opened} \
             connections ({still_open} still open), pool {pool_threads} workers \
             (peak {peak_leases} leases in flight)",
        )?;
        for e in endpoints {
            let EndpointStats {
                endpoint,
                requests,
                errors,
                deadline_exceeded,
                cancelled,
                io_faults,
                p50_us,
                p99_us,
            } = e;
            writeln!(
                f,
                "  {endpoint:<7} {requests:>6} requests, {errors:>4} errors ({io_faults} io-fault), \
                 {deadline_exceeded} deadline, {cancelled} cancelled, p50 {p50_us:>7}us, \
                 p99 {p99_us:>7}us",
            )?;
        }
        write!(f, "  queries: {query_stats}")
    }
}

/// One connection's tally, owned by its session thread — no locking.
#[derive(Debug, Default)]
pub(crate) struct ConnectionStats {
    pub(crate) requests: u64,
    pub(crate) errors: u64,
    pub(crate) rejected: u64,
    pub(crate) deadline_exceeded: u64,
    pub(crate) cancelled: u64,
    pub(crate) query_stats: QueryStats,
}

impl ConnectionStats {
    /// The one-line disconnect summary.
    pub(crate) fn summary(&self, peer: &str) -> String {
        let ConnectionStats {
            requests,
            errors,
            rejected,
            deadline_exceeded,
            cancelled,
            query_stats,
        } = self;
        format!(
            "-- {peer}: {requests} requests ({errors} errors, {rejected} busy-rejected, \
             {deadline_exceeded} deadline-expired, {cancelled} cancelled) {query_stats}"
        )
    }
}

/// How an admitted request ended, for the per-endpoint ledgers. More
/// than ok/error because overload triage needs the *kind* of failure:
/// deadline expiries and cancellations are the client's (or the
/// clock's) doing, I/O faults are the storage layer's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// Answered successfully.
    Ok,
    /// Answered with a generic typed error.
    Error,
    /// Answered with a typed error rooted in an I/O failure.
    IoFault,
    /// The request's deadline expired mid-flight.
    Deadline,
    /// The request was cancelled mid-flight.
    Cancelled,
}

#[derive(Debug, Default)]
struct EndpointAcc {
    /// The counters; name and percentiles are filled in at snapshot.
    counts: EndpointStats,
    /// Microsecond samples, ring-overwritten past the reservoir cap.
    latencies_us: Vec<u64>,
    next_slot: usize,
}

impl EndpointAcc {
    fn record(&mut self, latency: Duration, outcome: Outcome) {
        let c = &mut self.counts;
        c.requests += 1;
        match outcome {
            Outcome::Ok => {}
            Outcome::Error => c.errors += 1,
            Outcome::IoFault => {
                c.errors += 1;
                c.io_faults += 1;
            }
            Outcome::Deadline => c.deadline_exceeded += 1,
            Outcome::Cancelled => c.cancelled += 1,
        }
        let us = latency.as_micros().min(u64::MAX as u128) as u64;
        if self.latencies_us.len() < LATENCY_RESERVOIR {
            self.latencies_us.push(us);
        } else if let Some(slot) = self.latencies_us.get_mut(self.next_slot) {
            *slot = us;
            self.next_slot = (self.next_slot + 1) % LATENCY_RESERVOIR;
        }
    }

    fn percentiles(&self) -> (u64, u64) {
        if self.latencies_us.is_empty() {
            return (0, 0);
        }
        let mut sorted = self.latencies_us.clone();
        sorted.sort_unstable();
        // `(len - 1) * p / 100 < len` for p <= 100, so the lookup
        // always hits; `unwrap_or` keeps the proof local.
        let at = |p: usize| {
            let rank = (sorted.len() - 1) * p / 100;
            sorted.get(rank).copied().unwrap_or(0)
        };
        (at(50), at(99))
    }
}

#[derive(Debug, Default)]
struct MetricsInner {
    /// The totals; pool facts and endpoints are filled in at snapshot.
    totals: StatsReport,
    endpoints: BTreeMap<&'static str, EndpointAcc>,
}

/// The server-wide accumulator every session records into.
#[derive(Debug, Default)]
pub(crate) struct ServerMetrics {
    inner: Mutex<MetricsInner>,
}

impl ServerMetrics {
    pub(crate) fn connection_opened(&self) {
        self.lock().totals.connections_opened += 1;
    }

    pub(crate) fn connection_closed(&self) {
        self.lock().totals.connections_closed += 1;
    }

    /// Record one admitted request's outcome.
    pub(crate) fn served(
        &self,
        endpoint: &'static str,
        latency: Duration,
        outcome: Outcome,
        query_stats: Option<&QueryStats>,
    ) {
        let mut inner = self.lock();
        inner.totals.served += 1;
        if let Some(stats) = query_stats {
            inner.totals.query_stats.absorb(stats);
        }
        inner
            .endpoints
            .entry(endpoint)
            .or_default()
            .record(latency, outcome);
    }

    /// Record one admission-control rejection.
    pub(crate) fn rejected(&self, endpoint: &'static str, latency: Duration) {
        let mut inner = self.lock();
        inner.totals.rejected += 1;
        inner
            .endpoints
            .entry(endpoint)
            .or_default()
            .record(latency, Outcome::Ok);
    }

    /// Snapshot everything into a wire-encodable report. Pool facts are
    /// passed in — the pool owns them.
    pub(crate) fn report(&self, pool_threads: usize, peak_leases: usize) -> StatsReport {
        let inner = self.lock();
        StatsReport {
            pool_threads: pool_threads as u64,
            peak_leases: peak_leases as u64,
            endpoints: inner
                .endpoints
                .iter()
                .map(|(name, acc)| {
                    let (p50_us, p99_us) = acc.percentiles();
                    EndpointStats {
                        endpoint: (*name).to_string(),
                        p50_us,
                        p99_us,
                        ..acc.counts.clone()
                    }
                })
                .collect(),
            ..inner.totals.clone()
        }
    }

    /// The `Busy` backoff hint: with `max_inflight` slots draining at
    /// the observed median work-endpoint latency, roughly one slot
    /// frees every `p50 / max_inflight`. Clamped to `[1, 10_000]` ms —
    /// never 0, so a hinted client always waits at least a tick, and
    /// never absurd when the reservoir holds one slow outlier.
    pub(crate) fn retry_after_ms(&self, max_inflight: usize) -> u64 {
        let inner = self.lock();
        let p50_us = ["query", "ingest"]
            .iter()
            .filter_map(|name| inner.endpoints.get(name))
            .map(|acc| acc.percentiles().0)
            .max()
            .unwrap_or(0);
        let per_slot_us = p50_us / max_inflight.max(1) as u64;
        per_slot_us.div_ceil(1000).clamp(1, 10_000)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MetricsInner> {
        // The ledger is counters and sample vectors, all valid after
        // every individual store — a poisoned guard still holds a
        // consistent snapshot, so recover it rather than panic a
        // session.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_aggregates_per_endpoint() {
        let metrics = ServerMetrics::default();
        metrics.connection_opened();
        let qs = QueryStats {
            segments: 5,
            result_cache_hits: 1,
            ..QueryStats::default()
        };
        metrics.served("query", Duration::from_micros(100), Outcome::Ok, Some(&qs));
        metrics.served(
            "query",
            Duration::from_micros(300),
            Outcome::IoFault,
            Some(&qs),
        );
        metrics.served("ping", Duration::from_micros(10), Outcome::Ok, None);
        metrics.served("query", Duration::from_micros(200), Outcome::Deadline, None);
        metrics.served(
            "query",
            Duration::from_micros(200),
            Outcome::Cancelled,
            None,
        );
        metrics.rejected("query", Duration::from_micros(5));
        metrics.connection_closed();

        let mut report = metrics.report(3, 2);
        assert_eq!(report.pool_threads, 3);
        assert_eq!(report.peak_leases, 2);
        assert_eq!(report.served, 5);
        assert_eq!(report.rejected, 1);
        assert_eq!(report.connections_opened, 1);
        assert_eq!(report.connections_closed, 1);
        assert_eq!(report.query_stats.segments, 10);
        assert_eq!(report.query_stats.result_cache_hits, 2);
        let names: Vec<&str> = report
            .endpoints
            .iter()
            .map(|e| e.endpoint.as_str())
            .collect();
        assert_eq!(names, ["ping", "query"], "sorted by endpoint");
        let query = &report.endpoints[1];
        assert_eq!(query.requests, 5, "rejections count as requests");
        assert_eq!(query.errors, 1);
        assert_eq!(query.deadline_exceeded, 1);
        assert_eq!(query.cancelled, 1);
        assert_eq!(query.io_faults, 1, "io faults are a subset of errors");
        assert!(query.p50_us <= query.p99_us);
        // And the report survives the wire: every field is non-zero (the
        // query endpoint's included), so a decode that drops one fails.
        // More connections closed than opened (an untrusted reply) must
        // still format.
        report.connections_closed = 2;
        report.query_stats.pushdown.row_granularity = 3;
        let mut wire = Vec::new();
        report.encode(&mut wire);
        let back = StatsReport::decode(&mut Cursor::new(&wire)).expect("decodes");
        assert_eq!(back, report);
        let text = back.to_string();
        assert!(text.contains("over 1 connections (0 still open)"), "{text}");
        let queries = "queries: segments=10 result_cache_hits=2 pushdown.row_granularity=3";
        assert!(text.ends_with(queries), "{text}");
    }

    #[test]
    fn retry_after_hint_tracks_drain_rate() {
        let metrics = ServerMetrics::default();
        // No samples yet: the 1ms floor, never zero.
        assert_eq!(metrics.retry_after_ms(4), 1);
        for _ in 0..3 {
            metrics.served("query", Duration::from_millis(80), Outcome::Ok, None);
        }
        assert_eq!(metrics.retry_after_ms(4), 20, "p50 80ms over 4 slots");
        assert_eq!(
            metrics.retry_after_ms(0),
            80,
            "zero slots clamps to one slot"
        );
    }

    #[test]
    fn latency_reservoir_is_bounded() {
        let mut acc = EndpointAcc::default();
        for i in 0..(LATENCY_RESERVOIR as u64 * 3) {
            acc.record(Duration::from_micros(i), Outcome::Ok);
        }
        assert_eq!(acc.latencies_us.len(), LATENCY_RESERVOIR);
        assert_eq!(acc.counts.requests, LATENCY_RESERVOIR as u64 * 3);
        let (p50, p99) = acc.percentiles();
        assert!(p50 <= p99);
    }
}
