//! # lcdc-store — a miniature column store with a logical-plan query API
//!
//! The substrate for the paper's "why it matters" claims: a vectorised
//! column store whose segments are compressed with per-segment scheme
//! choice, and whose query operators can run **on the compressed form**.
//!
//! ## The query API
//!
//! Queries are built as **logical plans** and compiled to
//! **compression-aware physical plans** (see [`crate::query`]):
//!
//! ```
//! use lcdc_core::{ColumnData, DType};
//! use lcdc_store::{Agg, CompressionPolicy, Predicate, QueryBuilder, Table, TableSchema};
//!
//! # let schema = TableSchema::new(&[("shipdate", DType::U64), ("qty", DType::U64)]);
//! # let shipdate = ColumnData::U64((0..2000u64).map(|i| 19_920_101 + i / 40).collect());
//! # let qty = ColumnData::U64((0..2000u64).map(|i| 1 + i % 50).collect());
//! # let table = Table::build(
//! #     schema,
//! #     &[shipdate, qty],
//! #     &[CompressionPolicy::Auto, CompressionPolicy::Auto],
//! #     256,
//! # ).unwrap();
//! let result = QueryBuilder::scan(&table)
//!     .filter("shipdate", Predicate::Range { lo: 19_920_110, hi: 19_920_120 })
//!     .group_by("shipdate")
//!     .aggregate(&[Agg::Sum("qty"), Agg::Count])
//!     .execute()
//!     .unwrap();
//! assert_eq!(result.groups().unwrap().len(), 11);
//! ```
//!
//! The physical plan executes segment by segment, choosing the cheapest
//! pushdown tier each segment's scheme offers — zone-map pruning from
//! FOR/STEP model metadata, run-granularity predicates on RLE/RPE,
//! code-granularity on DICT, run-weighted aggregation, part-column
//! distinct — and otherwise folds each column's value stream, never
//! building a plain column. One executor drives that per-segment
//! pipeline everywhere — a query compiles once into a job whose
//! segments the calling thread, its helpers
//! ([`QueryBuilder::execute_parallel`], [`ExecOptions`]) or `lcdc
//! serve`'s worker pool lease — so every operator parallelises.
//! [`QueryBuilder`] is the one way to run a filter, aggregate,
//! group-by, top-k, distinct or join; its decompress-everything path
//! ([`QueryBuilder::execute_naive`]), which shares only the compiled
//! plan, is the one decoded baseline every pushdown tier is tested and
//! benchmarked against. One [`QueryStats`] records the segment/row/tier
//! accounting uniformly across operators.
//!
//! Three of the paper's §II experiments have no planner sink and stand
//! beside it: run-aware sorting ([`sort`]), certified zone-map
//! intervals with gradual refinement ([`GradualAggregate`]), and
//! positional late materialisation ([`selvec`]).
//!
//! ## The storage API
//!
//! A [`Table`] is a schema plus, per column, a [`SegmentSource`] handle
//! — segments may be fully resident ([`Table::build`]) or lazily
//! loaded from disk behind an LRU cache
//! ([`file::open_table_lazy`]); the planner consults resident
//! [`source::SegmentMeta`] (zone maps, scheme tags) for every pruning
//! decision and fetches payloads only for segments a pushdown tier
//! actually touches. The [`Catalog`] layers multi-table storage on
//! top: named tables, horizontal sharding ([`ShardedTable`], scanned
//! fan-in with merged [`QueryStats`]), monotonic versions stamped on
//! every mutation, and a query-result cache keyed on
//! `(plan fingerprint, table version)` via the stable
//! [`QuerySpec::fingerprint`].
//!
//! ## The write path
//!
//! Tables are immutable values; *growth* happens by appending:
//! [`Table::append`] encodes a row batch into fresh compressed
//! segments (per-segment scheme choice, zone maps and scheme tags like
//! built data) chained after the existing — possibly lazily-backed —
//! segments, [`Catalog::ingest`] routes a batch to the owning shards
//! by key range ([`Catalog::register_sharded_keyed`]) and publishes it
//! under one version bump so cached results self-invalidate, and
//! [`file::append_table`] is the on-disk counterpart: new frames
//! appended to the column files without rewriting existing ones, the
//! manifest rewritten last so torn writes are rejected on open.
//!
//! Deliberately small: no transactions, no SQL — the paper's claims are
//! about scans over compressed columns, and that is what is here, built
//! on the same `lcdc-colops` kernels the decompression plans use.
//!
//! See `docs/ARCHITECTURE.md` at the repository root for the layer map
//! (segment → source → table → catalog → plans → executor) and the
//! version / cache-invalidation contract the write path relies on.

#![warn(missing_docs)]

pub mod agg;
pub mod approx;
pub mod catalog;
pub(crate) mod digest;
pub mod fault;
pub mod file;
pub(crate) mod hash;
pub(crate) mod le;
pub mod predicate;
pub mod query;
pub mod schema;
pub mod segment;
pub mod selvec;
pub mod server;
pub mod sort;
pub mod source;
pub mod table;

pub use agg::{AggKind, AggResult};
pub use approx::{AggInterval, GradualAggregate};
pub use catalog::{shard_table, Catalog, CatalogTable, ResolvedJoin, ShardRouting, ShardedTable};
pub use fault::{FaultPlan, FaultSite};
pub use file::{append_table, load_table, open_table_lazy, read_segment, save_table};
pub use predicate::{InList, Predicate, PushdownStats};
pub use query::{
    Agg, ExecOptions, JoinSpec, PhysicalPlan, QueryArgs, QueryBuilder, QueryResult, QuerySpec,
    QueryStats, Rows,
};
pub use schema::{ColumnSchema, TableSchema};
pub use segment::{CompressionPolicy, SchemeKind, Segment};
pub use selvec::{gather_early, gather_late, select, GatherStats, SelVec};
pub use server::{
    Client, EndpointStats, Request, Response, RetryPolicy, Server, ServerConfig, StatsReport,
};
pub use sort::{sort_column_compressed, sort_column_naive, SortStats};
pub use source::{ChainedSource, FileSource, ResidentSource, SegmentMeta, SegmentSource};
pub use table::Table;

/// Errors produced by the store.
#[derive(Debug)]
pub enum StoreError {
    /// A core-layer operation failed.
    Core(lcdc_core::CoreError),
    /// A named column does not exist.
    NoSuchColumn(String),
    /// A named catalog table does not exist.
    NoSuchTable(String),
    /// Input columns of unequal length, or segment bookkeeping broken.
    Shape(String),
    /// Filesystem I/O failed (persistence layer).
    Io(std::io::Error),
    /// A persisted file is malformed or fails its checksum.
    CorruptFile(String),
    /// A request's deadline expired before its query finished; its
    /// job abandoned the unclaimed morsels.
    DeadlineExceeded {
        /// The deadline that expired, in milliseconds.
        deadline_ms: u64,
    },
    /// The request was cancelled before completion — typically because
    /// the server observed the client's disconnect mid-query.
    Cancelled,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Core(e) => write!(f, "core: {e}"),
            StoreError::NoSuchColumn(name) => write!(f, "no such column {name:?}"),
            StoreError::NoSuchTable(name) => write!(f, "no such table {name:?}"),
            StoreError::Shape(msg) => write!(f, "shape error: {msg}"),
            StoreError::Io(e) => write!(f, "io: {e}"),
            StoreError::CorruptFile(msg) => write!(f, "corrupt file: {msg}"),
            StoreError::DeadlineExceeded { deadline_ms } => {
                write!(f, "deadline of {deadline_ms}ms exceeded")
            }
            StoreError::Cancelled => write!(f, "request cancelled"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<lcdc_core::CoreError> for StoreError {
    fn from(e: lcdc_core::CoreError) -> Self {
        StoreError::Core(e)
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, StoreError>;
