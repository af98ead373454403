//! The `lcdc serve` wire protocol: length-prefixed, checksummed frames
//! over a byte stream.
//!
//! A frame is `[len: u32 LE] [kind: u8] [payload] [sum: u64 LE]`, where
//! `len` counts everything after itself (kind + payload + checksum) and
//! `sum` is [XXH64] over kind + payload — the same hash the persistence
//! layer and [`crate::QuerySpec::fingerprint`] use, so a torn or
//! corrupted frame is rejected loudly instead of decoded into garbage.
//! Frames larger than [`MAX_FRAME`] are refused before any allocation;
//! a stream that ends cleanly *between* frames is an orderly close, a
//! stream that ends inside one is a [`StoreError::CorruptFile`].
//!
//! Payloads reuse the store's existing vocabularies instead of
//! inventing parallel ones:
//!
//! * a [`Request::Query`] carries the table name and the *verbatim
//!   `lcdc query` flag vector* — parsed server-side by
//!   [`crate::QueryArgs::parse`], so anything a script can say to the
//!   CLI it can say to a server, and the grammar can never drift
//!   between the two front doors;
//! * a [`Request::Ingest`] batch ships each column as its
//!   [`lcdc_core::DType`] tag plus [`ColumnData::to_transport`] values;
//! * a [`Response::Rows`] carries the [`Rows`] shape, the full
//!   [`QueryStats`] ledger, and the **catalog version the answer was
//!   computed against** — the snapshot tag that lets a client racing
//!   ingests pin each answer to one table version.
//!
//! All integers are little-endian; `i128` values travel as two `u64`
//! halves. Every encode/decode pair round-trips bit-exactly (see the
//! tests at the bottom).
//!
//! [XXH64]: https://github.com/Cyan4973/xxHash/blob/dev/doc/xxhash_spec.md

use super::metrics::StatsReport;
use crate::digest;
use crate::le::{put_i128, put_str32, put_u32, put_u64, Cursor};
use crate::query::{QueryStats, Rows};
use crate::{Result, StoreError};
use lcdc_core::{ColumnData, DType};
use std::io::{Read, Write};

/// Hard ceiling on one frame's post-length bytes (64 MiB): large enough
/// for any realistic ingest batch or group-by result, small enough that
/// a corrupted length prefix cannot OOM the peer.
pub const MAX_FRAME: usize = 64 << 20;

/// Bytes in the little-endian length prefix that precedes every frame.
pub(crate) const LEN_PREFIX_BYTES: usize = 4;

/// Bytes of frame-kind tag at the start of every frame body.
pub(crate) const KIND_BYTES: usize = 1;

/// Bytes of trailing XXH64 checksum at the end of every frame body.
pub(crate) const CHECKSUM_BYTES: usize = 8;

/// Smallest legal frame body: a bare kind tag plus its checksum.
pub(crate) const MIN_FRAME: usize = KIND_BYTES + CHECKSUM_BYTES;

/// What a client asks of a server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Run a query against a named catalog table. `args` is an
    /// `lcdc query`-style flag vector (filters, sink, execution knobs)
    /// — storage-mode flags are rejected server-side, by name.
    Query {
        /// The catalog table to query.
        table: String,
        /// Verbatim `lcdc query` flags describing plan and options.
        args: Vec<String>,
        /// Milliseconds the client is willing to wait, measured from
        /// the server's receipt. `None` defers to the server's
        /// configured default; expiry answers [`Response::Deadline`].
        deadline_ms: Option<u64>,
    },
    /// Append a row batch to a named catalog table (the wire form of
    /// [`crate::Catalog::ingest`]: one version bump, routed to the
    /// owning shards).
    Ingest {
        /// The catalog table to append to.
        table: String,
        /// The batch, one column per schema column, in schema order.
        columns: Vec<ColumnData>,
    },
    /// Fetch the server-wide [`StatsReport`].
    Stats,
    /// Liveness probe.
    Ping,
    /// Ask the server to shut down gracefully: stop admitting, drain
    /// in-flight queries, then exit.
    Shutdown,
}

/// What a server answers.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A finished query: the rows, the execution ledger, and the
    /// catalog version the answer was computed against.
    Rows {
        /// Table version this answer is a snapshot of.
        version: u64,
        /// The produced rows.
        rows: Rows,
        /// The execution accounting.
        stats: QueryStats,
    },
    /// Admission control refused the request: the server already holds
    /// its configured maximum of in-flight requests. Typed — a client
    /// can tell overload from failure and back off.
    Busy {
        /// In-flight requests at the moment of rejection.
        in_flight: u64,
        /// The configured admission limit.
        max: u64,
        /// The server's backoff hint: roughly how long, in
        /// milliseconds, until one in-flight slot is expected to
        /// drain. Always at least 1 — clients multiply it into their
        /// backoff schedule.
        retry_after_ms: u64,
    },
    /// The request failed (parse error, unknown table, rejected flag,
    /// execution error); the message says why.
    Error {
        /// Human-readable failure description.
        message: String,
    },
    /// The server-wide metrics snapshot.
    Stats(StatsReport),
    /// Liveness answer.
    Pong,
    /// An ingest landed: the post-ingest table version and the row
    /// count appended.
    Ingested {
        /// Version the batch was published under.
        version: u64,
        /// Rows appended.
        rows: u64,
    },
    /// The server is draining and no longer admits requests.
    ShuttingDown,
    /// The request's deadline expired before its query finished; the
    /// query's remaining work was abandoned.
    Deadline {
        /// The millisecond budget that expired.
        deadline_ms: u64,
    },
    /// The request was cancelled before completion (the server
    /// observed this client's disconnect, or an explicit abort).
    Cancelled,
}

// -- optional values --------------------------------------------------

fn put_opt_i128(out: &mut Vec<u8>, v: Option<i128>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put_i128(out, v);
        }
    }
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put_u64(out, v);
        }
    }
}

fn take_opt_i128(cur: &mut Cursor<'_>) -> Result<Option<i128>> {
    match cur.u8()? {
        0 => Ok(None),
        1 => Ok(Some(cur.i128()?)),
        t => Err(bad_tag("optional value", t)),
    }
}

fn take_opt_u64(cur: &mut Cursor<'_>) -> Result<Option<u64>> {
    match cur.u8()? {
        0 => Ok(None),
        1 => Ok(Some(cur.u64()?)),
        t => Err(bad_tag("optional value", t)),
    }
}

fn truncated(what: &str) -> StoreError {
    StoreError::CorruptFile(format!("frame truncated inside {what}"))
}

fn bad_tag(what: &str, tag: u8) -> StoreError {
    StoreError::CorruptFile(format!("unknown {what} tag {tag}"))
}

// -- framing ----------------------------------------------------------

/// Write one frame: length prefix, kind, payload, XXH64 checksum.
pub(crate) fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> Result<()> {
    let len = KIND_BYTES + payload.len() + CHECKSUM_BYTES;
    if len > MAX_FRAME {
        return Err(StoreError::Shape(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME}-byte wire limit"
        )));
    }
    let mut body = Vec::with_capacity(LEN_PREFIX_BYTES + len);
    put_u32(&mut body, len as u32);
    body.push(kind);
    body.extend_from_slice(payload);
    let sum = digest::checksum(body.get(LEN_PREFIX_BYTES..).unwrap_or_default());
    put_u64(&mut body, sum);
    w.write_all(&body)?;
    w.flush()?;
    Ok(())
}

/// Read one frame. `Ok(None)` is a clean end-of-stream *between*
/// frames; inside a frame, EOF and checksum mismatches are
/// [`StoreError::CorruptFile`].
pub(crate) fn read_frame(r: &mut impl Read) -> Result<Option<(u8, Vec<u8>)>> {
    let mut len_bytes = [0u8; LEN_PREFIX_BYTES];
    let mut got = 0;
    while got < LEN_PREFIX_BYTES {
        let Some(rest) = len_bytes.get_mut(got..) else {
            return Err(truncated("length prefix"));
        };
        match r.read(rest)? {
            0 if got == 0 => return Ok(None),
            0 => return Err(truncated("length prefix")),
            n => got += n,
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if !(MIN_FRAME..=MAX_FRAME).contains(&len) {
        return Err(StoreError::CorruptFile(format!(
            "frame length {len} outside [{MIN_FRAME}, {MAX_FRAME}]"
        )));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)
        .map_err(|_| truncated("frame body"))?;
    // `len >= MIN_FRAME` guarantees room for the trailer, so `None`
    // here is a mismatch.
    let content = digest::verified(&body)
        .ok_or_else(|| StoreError::CorruptFile("frame checksum mismatch".to_string()))?;
    let kind = content
        .first()
        .copied()
        .ok_or_else(|| truncated("frame kind"))?;
    let payload = content.get(KIND_BYTES..).unwrap_or_default().to_vec();
    Ok(Some((kind, payload)))
}

// -- compound encoders ------------------------------------------------

fn put_column(out: &mut Vec<u8>, col: &ColumnData) {
    out.push(col.dtype().tag());
    let transport = col.to_transport();
    put_u64(out, transport.len() as u64);
    for v in transport {
        put_u64(out, v);
    }
}

fn take_column(cur: &mut Cursor<'_>) -> Result<ColumnData> {
    let tag = cur.u8()?;
    let dtype = DType::from_tag(tag).ok_or_else(|| bad_tag("dtype", tag))?;
    let len = cur.u64()? as usize;
    if len.saturating_mul(8) > MAX_FRAME {
        return Err(StoreError::CorruptFile(format!(
            "column of {len} values cannot fit one frame"
        )));
    }
    let mut values = Vec::with_capacity(len);
    for _ in 0..len {
        values.push(cur.u64()?);
    }
    Ok(ColumnData::from_transport(dtype, values))
}

/// [`QueryStats`] as a fixed-order run of `u64` counters: its own in
/// declaration order, then its nested pushdown ledger's. The ledger
/// declares each counter once, so a new counter joins the wire form by
/// being declared.
pub(crate) fn put_stats(out: &mut Vec<u8>, s: &QueryStats) {
    for v in s.values().into_iter().chain(s.pushdown.values()) {
        put_u64(out, v as u64);
    }
}

/// Inverse of [`put_stats`].
pub(crate) fn take_stats(cur: &mut Cursor<'_>) -> Result<QueryStats> {
    let mut s = QueryStats::default();
    for field in s.values_mut() {
        *field = cur.u64()? as usize;
    }
    for field in s.pushdown.values_mut() {
        *field = cur.u64()? as usize;
    }
    Ok(s)
}

fn put_rows(out: &mut Vec<u8>, rows: &Rows) {
    match rows {
        Rows::Aggregates(values) => {
            out.push(0);
            put_u32(out, values.len() as u32);
            for &v in values {
                put_opt_i128(out, v);
            }
        }
        Rows::Groups(groups) => {
            out.push(1);
            put_u32(out, groups.len() as u32);
            for (key, values) in groups {
                put_i128(out, *key);
                put_u32(out, values.len() as u32);
                for &v in values {
                    put_opt_i128(out, v);
                }
            }
        }
        Rows::TopK(values) => {
            out.push(2);
            put_u32(out, values.len() as u32);
            for &v in values {
                put_i128(out, v);
            }
        }
        Rows::Distinct(values) => {
            out.push(3);
            put_u32(out, values.len() as u32);
            for &v in values {
                put_i128(out, v);
            }
        }
        Rows::Joined(pairs) => {
            out.push(4);
            put_u32(out, pairs.len() as u32);
            for &(key, count) in pairs {
                put_i128(out, key);
                put_i128(out, count);
            }
        }
    }
}

fn take_rows(cur: &mut Cursor<'_>) -> Result<Rows> {
    let tag = cur.u8()?;
    let n = cur.u32()? as usize;
    Ok(match tag {
        0 => {
            let mut values = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                values.push(take_opt_i128(cur)?);
            }
            Rows::Aggregates(values)
        }
        1 => {
            let mut groups = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let key = cur.i128()?;
                let cols = cur.u32()? as usize;
                let mut values = Vec::with_capacity(cols.min(1024));
                for _ in 0..cols {
                    values.push(take_opt_i128(cur)?);
                }
                groups.push((key, values));
            }
            Rows::Groups(groups)
        }
        2 | 3 => {
            let mut values = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                values.push(cur.i128()?);
            }
            if tag == 2 {
                Rows::TopK(values)
            } else {
                Rows::Distinct(values)
            }
        }
        4 => {
            let mut pairs = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let key = cur.i128()?;
                let count = cur.i128()?;
                pairs.push((key, count));
            }
            Rows::Joined(pairs)
        }
        t => return Err(bad_tag("rows", t)),
    })
}

// -- request / response -----------------------------------------------

const REQ_QUERY: u8 = 1;
const REQ_INGEST: u8 = 2;
const REQ_STATS: u8 = 3;
const REQ_PING: u8 = 4;
const REQ_SHUTDOWN: u8 = 5;

const RESP_ROWS: u8 = 1;
const RESP_BUSY: u8 = 2;
const RESP_ERROR: u8 = 3;
const RESP_STATS: u8 = 4;
const RESP_PONG: u8 = 5;
const RESP_INGESTED: u8 = 6;
const RESP_SHUTTING_DOWN: u8 = 7;
const RESP_DEADLINE: u8 = 8;
const RESP_CANCELLED: u8 = 9;

impl Request {
    /// Write this request as one frame.
    pub fn write_to(&self, w: &mut impl Write) -> Result<()> {
        let mut payload = Vec::new();
        let kind = match self {
            Request::Query {
                table,
                args,
                deadline_ms,
            } => {
                put_str32(&mut payload, table);
                put_u32(&mut payload, args.len() as u32);
                for arg in args {
                    put_str32(&mut payload, arg);
                }
                put_opt_u64(&mut payload, *deadline_ms);
                REQ_QUERY
            }
            Request::Ingest { table, columns } => {
                put_str32(&mut payload, table);
                put_u32(&mut payload, columns.len() as u32);
                for col in columns {
                    put_column(&mut payload, col);
                }
                REQ_INGEST
            }
            Request::Stats => REQ_STATS,
            Request::Ping => REQ_PING,
            Request::Shutdown => REQ_SHUTDOWN,
        };
        write_frame(w, kind, &payload)
    }

    /// Read one request frame; `Ok(None)` is a clean end-of-stream.
    pub fn read_from(r: &mut impl Read) -> Result<Option<Request>> {
        let Some((kind, payload)) = read_frame(r)? else {
            return Ok(None);
        };
        let mut cur = Cursor::new(&payload);
        let request = match kind {
            REQ_QUERY => {
                let table = cur.str32()?;
                let n = cur.u32()? as usize;
                let mut args = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    args.push(cur.str32()?);
                }
                let deadline_ms = take_opt_u64(&mut cur)?;
                Request::Query {
                    table,
                    args,
                    deadline_ms,
                }
            }
            REQ_INGEST => {
                let table = cur.str32()?;
                let n = cur.u32()? as usize;
                let mut columns = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    columns.push(take_column(&mut cur)?);
                }
                Request::Ingest { table, columns }
            }
            REQ_STATS => Request::Stats,
            REQ_PING => Request::Ping,
            REQ_SHUTDOWN => Request::Shutdown,
            t => return Err(bad_tag("request", t)),
        };
        cur.finish()?;
        Ok(Some(request))
    }
}

impl Response {
    /// Write this response as one frame.
    pub fn write_to(&self, w: &mut impl Write) -> Result<()> {
        let mut payload = Vec::new();
        let kind = match self {
            Response::Rows {
                version,
                rows,
                stats,
            } => {
                put_u64(&mut payload, *version);
                put_rows(&mut payload, rows);
                put_stats(&mut payload, stats);
                RESP_ROWS
            }
            Response::Busy {
                in_flight,
                max,
                retry_after_ms,
            } => {
                put_u64(&mut payload, *in_flight);
                put_u64(&mut payload, *max);
                put_u64(&mut payload, *retry_after_ms);
                RESP_BUSY
            }
            Response::Error { message } => {
                put_str32(&mut payload, message);
                RESP_ERROR
            }
            Response::Stats(report) => {
                report.encode(&mut payload);
                RESP_STATS
            }
            Response::Pong => RESP_PONG,
            Response::Ingested { version, rows } => {
                put_u64(&mut payload, *version);
                put_u64(&mut payload, *rows);
                RESP_INGESTED
            }
            Response::ShuttingDown => RESP_SHUTTING_DOWN,
            Response::Deadline { deadline_ms } => {
                put_u64(&mut payload, *deadline_ms);
                RESP_DEADLINE
            }
            Response::Cancelled => RESP_CANCELLED,
        };
        write_frame(w, kind, &payload)
    }

    /// Read one response frame; `Ok(None)` is a clean end-of-stream.
    pub fn read_from(r: &mut impl Read) -> Result<Option<Response>> {
        let Some((kind, payload)) = read_frame(r)? else {
            return Ok(None);
        };
        let mut cur = Cursor::new(&payload);
        let response = match kind {
            RESP_ROWS => Response::Rows {
                version: cur.u64()?,
                rows: take_rows(&mut cur)?,
                stats: take_stats(&mut cur)?,
            },
            RESP_BUSY => Response::Busy {
                in_flight: cur.u64()?,
                max: cur.u64()?,
                retry_after_ms: cur.u64()?,
            },
            RESP_ERROR => Response::Error {
                message: cur.str32()?,
            },
            RESP_STATS => Response::Stats(StatsReport::decode(&mut cur)?),
            RESP_PONG => Response::Pong,
            RESP_INGESTED => Response::Ingested {
                version: cur.u64()?,
                rows: cur.u64()?,
            },
            RESP_SHUTTING_DOWN => Response::ShuttingDown,
            RESP_DEADLINE => Response::Deadline {
                deadline_ms: cur.u64()?,
            },
            RESP_CANCELLED => Response::Cancelled,
            t => return Err(bad_tag("response", t)),
        };
        cur.finish()?;
        Ok(Some(response))
    }
}

#[cfg(test)]
mod tests {
    use super::super::metrics::EndpointStats;
    use super::*;

    fn roundtrip_request(req: &Request) -> Request {
        let mut wire = Vec::new();
        req.write_to(&mut wire).expect("encodes");
        Request::read_from(&mut wire.as_slice())
            .expect("decodes")
            .expect("one frame")
    }

    fn roundtrip_response(resp: &Response) -> Response {
        let mut wire = Vec::new();
        resp.write_to(&mut wire).expect("encodes");
        Response::read_from(&mut wire.as_slice())
            .expect("decodes")
            .expect("one frame")
    }

    #[test]
    fn requests_roundtrip() {
        let reqs = [
            Request::Query {
                table: "orders".into(),
                args: vec!["--filter".into(), "day=1..9".into(), "--count".into()],
                deadline_ms: None,
            },
            Request::Query {
                table: "orders".into(),
                args: vec!["--count".into()],
                deadline_ms: Some(1500),
            },
            Request::Ingest {
                table: "orders".into(),
                columns: vec![
                    ColumnData::U64(vec![1, 2, u64::MAX]),
                    ColumnData::I32(vec![-5, 0, 5]),
                ],
            },
            Request::Stats,
            Request::Ping,
            Request::Shutdown,
        ];
        for req in &reqs {
            assert_eq!(&roundtrip_request(req), req);
        }
    }

    #[test]
    fn responses_roundtrip() {
        let mut stats = QueryStats {
            segments: 12,
            prefetch_cancelled: 3,
            ..QueryStats::default()
        };
        stats.pushdown.zonemap_hits = 7;
        let mut report = StatsReport {
            pool_threads: 4,
            served: 10,
            rejected: 2,
            ..StatsReport::default()
        };
        report.endpoints.push(EndpointStats {
            endpoint: "query".into(),
            requests: 10,
            errors: 1,
            deadline_exceeded: 2,
            cancelled: 1,
            io_faults: 3,
            p50_us: 120,
            p99_us: 900,
        });
        let resps = [
            Response::Rows {
                version: 7,
                rows: Rows::Groups(vec![(i128::MIN, vec![Some(3), None]), (9, vec![Some(1)])]),
                stats,
            },
            Response::Rows {
                version: 1,
                rows: Rows::Aggregates(vec![None, Some(-42)]),
                stats: QueryStats::default(),
            },
            Response::Rows {
                version: 2,
                rows: Rows::TopK(vec![i128::MAX, 0, i128::MIN]),
                stats: QueryStats::default(),
            },
            Response::Rows {
                version: 3,
                rows: Rows::Distinct(vec![-1, 0, 1]),
                stats: QueryStats::default(),
            },
            Response::Rows {
                version: 4,
                rows: Rows::Joined(vec![(i128::MIN, 3), (0, i128::MAX), (77, 1)]),
                stats: QueryStats {
                    join_pairs_pruned: 5,
                    join_rows_undecoded: 4096,
                    join_code_translations: 9,
                    ..QueryStats::default()
                },
            },
            Response::Busy {
                in_flight: 8,
                max: 8,
                retry_after_ms: 40,
            },
            Response::Error {
                message: "no such table \"orders\"".into(),
            },
            Response::Stats(report),
            Response::Pong,
            Response::Ingested {
                version: 9,
                rows: 4096,
            },
            Response::ShuttingDown,
            Response::Deadline { deadline_ms: 250 },
            Response::Cancelled,
        ];
        for resp in &resps {
            assert_eq!(&roundtrip_response(resp), resp);
        }
    }

    #[test]
    fn stats_wire_order_is_pinned() {
        // Counter i (pushdown last) holds i + 1: the frame must carry
        // exactly 1..=21, the order every earlier peer decodes.
        let stats = QueryStats {
            segments: 1,
            segments_pruned: 2,
            segments_structural: 3,
            segments_loaded: 4,
            rows_materialized: 5,
            values_processed: 6,
            result_cache_hits: 7,
            prefetch_hits: 8,
            prefetch_wasted: 9,
            prefetch_cancelled: 10,
            shards_pruned: 11,
            groups_folded: 12,
            rows_undecoded: 13,
            topk_segments_skipped: 14,
            join_pairs_pruned: 15,
            join_rows_undecoded: 16,
            join_code_translations: 17,
            pushdown: crate::PushdownStats {
                zonemap_hits: 18,
                run_granularity: 19,
                code_granularity: 20,
                row_granularity: 21,
            },
        };
        let mut wire = Vec::new();
        put_stats(&mut wire, &stats);
        let words: Vec<u64> = wire
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
            .collect();
        assert_eq!(words, (1..=21).collect::<Vec<u64>>());
        assert_eq!(take_stats(&mut Cursor::new(&wire)).unwrap(), stats);
    }

    #[test]
    fn corruption_is_loud() {
        let mut wire = Vec::new();
        Request::Ping.write_to(&mut wire).unwrap();
        // Flip one payload byte: checksum mismatch.
        let mut flipped = wire.clone();
        *flipped.last_mut().unwrap() ^= 0x40;
        assert!(Request::read_from(&mut flipped.as_slice()).is_err());
        // Truncate mid-frame: corrupt, not clean EOF.
        let cut = &wire[..wire.len() - 3];
        assert!(Request::read_from(&mut &cut[..]).is_err());
        // Absurd length prefix: refused before allocation.
        let huge = [0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        assert!(Request::read_from(&mut &huge[..]).is_err());
        // Clean EOF between frames: None.
        assert!(Request::read_from(&mut [].as_slice()).unwrap().is_none());
    }
}
