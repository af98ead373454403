//! The catalog: named tables, horizontal shards, versions, and a
//! plan-keyed result cache.
//!
//! A [`Catalog`] is the multi-table face of the store:
//!
//! * **Registration** — tables are registered under names, singly or as
//!   a [`ShardedTable`] (N tables with one schema). Every mutation —
//!   register, replace, [`Catalog::add_shard`], drop — stamps the entry
//!   with a fresh value of one catalog-wide monotonic version counter.
//! * **One table per entry** — an entry is one [`Table`] plus, when
//!   sharded, its routing. Shard `i` is the table's run `i`: a sharded
//!   entry's columns list every shard's run in shard order, sharing
//!   them by handle ([`ShardedTable::table`]). A query compiles once
//!   against it; a shard its filters exclude is skipped by the same
//!   per-segment zone-map pruning every table gets, so none of its
//!   sources is touched (visible as [`QueryStats::shards_pruned`]).
//! * **Result caching** — results are cached under
//!   `(table name, plan fingerprint)` and validated against the entry's
//!   version: a version bump silently invalidates every cached result
//!   for that table. A hit is visible as
//!   [`QueryStats::result_cache_hits`] `== 1` (a hit's other counters
//!   are zero — nothing executed).
//! * **Ingest** — [`Catalog::ingest`] is the write path: a row batch is
//!   encoded into fresh compressed segments (per-column scheme choice,
//!   zone maps and scheme tags exactly like built data) for the run of
//!   each shard it lands in — split by key range when the table was
//!   registered with a routing key ([`Catalog::register_sharded_keyed`]
//!   / [`ShardedTable::with_key`]), the last run otherwise — and
//!   attached to those runs alone ([`Table::attach`]) under **one**
//!   version bump: in-flight queries keep their pre-ingest snapshot,
//!   every cached result for the table stops being served, and the next
//!   identical query re-executes over the new rows.
//!
//! Tables may mix backends freely: resident shards, lazily-backed
//! shards ([`crate::file::open_table_lazy`]), or both.

use crate::query::{ExecOptions, JoinRight, QueryResult, QuerySpec, QueryStats};
use crate::table::{check_batch, EncodedBatch, Table};
use crate::{Result, StoreError};
use lcdc_core::ColumnData;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Default number of cached query results per catalog.
pub const DEFAULT_RESULT_CACHE: usize = 128;

/// Byte budget for cached result payloads per catalog (32 MiB). Result
/// sizes vary wildly between sinks — one high-cardinality group-by can
/// outweigh thousands of single-row aggregates — so the cache is bounded
/// by what the entries *hold*, not only by how many there are.
pub const DEFAULT_RESULT_CACHE_BYTES: usize = 32 << 20;

/// Write-time placement for a sharded table: the routing key column
/// and the ordered key boundaries between shards. Shard `i` owns every
/// key `<=` `uppers[i]` (and above shard `i-1`'s bound); the last
/// shard owns everything past the last bound — so a key exactly *on* a
/// boundary lands in the lower shard, and keys outside every observed
/// range still have exactly one owner. Derived from the shards'
/// per-column key ranges at registration
/// ([`ShardedTable::with_key`]), which must ascend without overlapping
/// (touching at a boundary value is fine).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRouting {
    key: String,
    /// One boundary per adjacent shard pair (`shards - 1` entries).
    uppers: Vec<i128>,
}

impl ShardRouting {
    /// The routing key column.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The key boundaries between adjacent shards.
    pub fn uppers(&self) -> &[i128] {
        &self.uppers
    }

    /// The shard owning `key`: the first whose upper bound is not
    /// below it, else the last.
    pub fn shard_of(&self, key: i128) -> usize {
        self.uppers.partition_point(|&upper| upper < key)
    }
}

/// N tables sharing one schema, queried as one: a catalog entry's one
/// [`Table`], whose run `i` is shard `i` ([`Self::shards`]), plus its
/// routing. Shards are typically row-disjoint horizontal partitions
/// (see [`shard_table`]), but the catalog only requires schema
/// agreement. Registering with a routing key
/// ([`ShardedTable::with_key`]) additionally gives the table write-time
/// placement: ingested batches are split along the shard key ranges.
#[derive(Debug, Clone)]
pub struct ShardedTable {
    table: Arc<Table>,
    routing: Option<ShardRouting>,
}

impl ShardedTable {
    /// Assemble from at least one shard; all shards must share a
    /// schema. Each run of a shard becomes a shard of its own: a built,
    /// opened or appended table is one.
    pub fn new(shards: Vec<Table>) -> Result<ShardedTable> {
        Ok(ShardedTable {
            table: Arc::new(Table::concat(&shards)?),
            routing: None,
        })
    }

    /// Assemble like [`ShardedTable::new`] *and* derive write-time
    /// routing from `key`: each shard's `[min, max]` over the key
    /// column (resident metadata) must ascend in shard order without
    /// overlapping (ranges may touch at a boundary value — the shared
    /// key routes to the lower shard), and the boundaries between them
    /// become the batch splitter [`Catalog::ingest`] routes by.
    pub fn with_key(shards: Vec<Table>, key: &str) -> Result<ShardedTable> {
        let mut sharded = ShardedTable::new(shards)?;
        sharded.routing = Some(derive_routing(&sharded.table, key)?);
        Ok(sharded)
    }

    /// The write-time placement policy, if one was derived at assembly.
    pub fn routing(&self) -> Option<&ShardRouting> {
        self.routing.as_ref()
    }

    /// Split a row batch (columns aligned with the schema) into one
    /// per-shard batch along the routing key's shard boundaries. Parts
    /// come back in shard order; a shard the batch does not touch gets
    /// empty columns. Errors when the table has no routing key or the
    /// batch does not match the schema.
    pub fn partition_batch(&self, columns: &[ColumnData]) -> Result<Vec<Vec<ColumnData>>> {
        let routing = self.routing.as_ref().ok_or_else(|| {
            StoreError::Shape(
                "table has no routing key: register with ShardedTable::with_key \
                 (or Catalog::register_sharded_keyed) to route ingest batches"
                    .into(),
            )
        })?;
        partition(&self.table, routing, columns)
    }

    /// The shards, in order: run `i` of [`Self::table`] as a table of
    /// its own, sharing the run's handles and its base's cache. A shard
    /// keeps the entry's segment height, shard 0's.
    pub fn shards(&self) -> Vec<Arc<Table>> {
        self.table.runs().into_iter().map(Arc::new).collect()
    }

    /// The shards as one table: each column lists every shard's run in
    /// shard order, shared by handle. Every query reads this.
    pub fn table(&self) -> &Arc<Table> {
        &self.table
    }

    /// A new sharded table with `columns` appended: split along the
    /// routing key's shard boundaries when the table has one
    /// ([`Self::partition_batch`]), appended whole to the *last* shard
    /// otherwise (log-style placement — the only shard whose key range
    /// growing upward cannot overlap a neighbour). Only the touched
    /// shards' runs are rebuilt ([`Table::attach`]); the others are
    /// shared by handle and nothing is re-encoded.
    pub fn append_batch(&self, columns: &[ColumnData]) -> Result<ShardedTable> {
        let parts = encode_parts(&self.table, self.routing.as_ref(), columns)?;
        Ok(ShardedTable {
            table: Arc::new(self.table.attach(parts)?),
            routing: self.routing.clone(),
        })
    }
}

/// `columns` split along `routing`'s key ranges into one batch per run
/// of `table`, in run order ([`ShardedTable::partition_batch`]).
fn partition(
    table: &Table,
    routing: &ShardRouting,
    columns: &[ColumnData],
) -> Result<Vec<Vec<ColumnData>>> {
    let schema = table.schema();
    let rows = check_batch(schema, columns, None)?;
    let key_col = schema
        .index_of(&routing.key)
        .and_then(|idx| columns.get(idx))
        .ok_or_else(|| StoreError::NoSuchColumn(routing.key.clone()))?;
    // One bucketing pass over the rows, gathering every column's
    // transport value into the owning shard's buckets — dtypes
    // survive the round-trip exactly, and the cost stays
    // O(rows x columns) no matter how many shards there are.
    let short = || StoreError::Shape("batch column shorter than its row count".into());
    let mut buckets: Vec<Vec<Vec<u64>>> = vec![vec![Vec::new(); columns.len()]; table.num_runs()];
    for row in 0..rows {
        let key = key_col.get_numeric(row).ok_or_else(short)?;
        let target = buckets
            .get_mut(routing.shard_of(key))
            .ok_or_else(|| StoreError::Shape("routing names a missing shard".into()))?;
        for (bucket, col) in target.iter_mut().zip(columns) {
            bucket.push(col.get_transport(row).ok_or_else(short)?);
        }
    }
    Ok(buckets
        .into_iter()
        .map(|shard_cols| {
            shard_cols
                .into_iter()
                .zip(columns)
                .map(|(picked, col)| ColumnData::from_transport(col.dtype(), picked))
                .collect()
        })
        .collect())
}

/// `columns` encoded for an entry's one table: one part per run the
/// batch touches, split along `routing`'s key ranges, or the whole
/// batch for the last run when the entry has no routing.
fn encode_parts(
    table: &Table,
    routing: Option<&ShardRouting>,
    columns: &[ColumnData],
) -> Result<Vec<EncodedBatch>> {
    let Some(routing) = routing else {
        return Ok(vec![table.encode_batch(columns)?]);
    };
    (partition(table, routing, columns)?.iter().enumerate())
        .filter(|(_, part)| part.first().is_some_and(|col| !col.is_empty()))
        .map(|(run, part)| table.encode_run(run, part))
        .collect()
}

/// Derive [`ShardRouting`] over `key` from the key ranges of `table`'s
/// runs, its shards: every shard must hold rows (an empty shard has no
/// range to own), and the ranges must ascend in shard order without
/// overlapping. Ranges that *touch* at a boundary value are accepted —
/// a table split on segment boundaries (see [`shard_table`]) routinely
/// has one key straddling the cut — and the shared key routes to the
/// lower shard, consistent with [`ShardRouting::shard_of`].
fn derive_routing(table: &Table, key: &str) -> Result<ShardRouting> {
    let idx =
        (table.schema().index_of(key)).ok_or_else(|| StoreError::NoSuchColumn(key.to_string()))?;
    let starts = table.run_starts();
    let mut ranges = Vec::with_capacity(table.num_runs());
    for (i, (&start, &end)) in starts.iter().zip(starts.iter().skip(1)).enumerate() {
        let range = (start..end)
            .map(|s| table.meta_at(idx, s))
            .filter(|meta| meta.rows > 0)
            .map(|meta| (meta.min, meta.max))
            .reduce(|(lo, hi), (min, max)| (lo.min(min), hi.max(max)));
        ranges.push(range.ok_or_else(|| {
            StoreError::Shape(format!(
                "shard {i} holds no rows: cannot derive a key range to route by"
            ))
        })?);
    }
    for (i, window) in ranges.windows(2).enumerate() {
        if let &[(_, hi), (lo, _)] = window {
            if hi > lo {
                return Err(StoreError::Shape(format!(
                    "shard {i} key range ends at {hi} but shard {} starts at {lo}: \
                     key ranges must ascend without overlapping to route writes",
                    i + 1
                )));
            }
        }
    }
    let mut uppers: Vec<i128> = ranges.iter().map(|&(_, hi)| hi).collect();
    uppers.pop();
    Ok(ShardRouting {
        key: key.to_string(),
        uppers,
    })
}

/// Split a table into `shards` row-disjoint tables along contiguous
/// segment ranges (segments are never split, so shard sizes differ by
/// at most one segment). Shards *share* the original's segment payloads
/// (`Arc` handles, zero copies). The inverse of registering the pieces
/// as one [`ShardedTable`]: queries over the shards answer exactly like
/// queries over `table`.
pub fn shard_table(table: &Table, shards: usize) -> Result<Vec<Table>> {
    let num_segments = table.num_segments();
    let shards = shards.clamp(1, num_segments.max(1));
    // Balanced split: the first `num_segments % shards` shards take one
    // extra segment, so exactly `shards` shards come back and sizes
    // differ by at most one.
    let base = num_segments / shards;
    let extra = num_segments % shards;
    // Fetch every column's segments once (loads lazily-backed tables).
    let mut columns: Vec<Vec<Arc<crate::segment::Segment>>> =
        Vec::with_capacity(table.schema().width());
    for col in &table.schema().columns {
        columns.push(table.column_segments(&col.name)?);
    }
    let mut out = Vec::with_capacity(shards);
    let mut start = 0usize;
    for shard_idx in 0..shards {
        let end = start + base + usize::from(shard_idx < extra);
        let segments = columns
            .iter()
            .map(|col| col.get(start..end).map(<[_]>::to_vec))
            .collect::<Option<_>>()
            .ok_or_else(|| StoreError::Shape("shard split past the last segment".into()))?;
        out.push(Table::from_segments(
            table.schema().clone(),
            segments,
            table.seg_rows(),
        )?);
        start = end;
    }
    Ok(out)
}

/// A catalog entry's table, single or sharded.
#[derive(Debug, Clone)]
pub enum CatalogTable {
    /// One table.
    Single(Arc<Table>),
    /// A horizontally sharded table.
    Sharded(Arc<ShardedTable>),
}

impl CatalogTable {
    /// The table every query reads: the single table, or the sharded
    /// table's shards as one ([`ShardedTable::table`]).
    pub fn table(&self) -> &Arc<Table> {
        match self {
            CatalogTable::Single(t) => t,
            CatalogTable::Sharded(s) => s.table(),
        }
    }

    /// Payload fetches that hit a backing store so far.
    pub fn io_reads(&self) -> usize {
        self.table().io_reads()
    }

    fn routing(&self) -> Option<&ShardRouting> {
        match self {
            CatalogTable::Single(_) => None,
            CatalogTable::Sharded(s) => s.routing(),
        }
    }
}

/// A join's right side, resolved against the same catalog snapshot as
/// the left table: the right entry's table plus the version the capture
/// saw. The version is what the result cache validates alongside the
/// left table's, so a cached join stops being served the moment
/// *either* table mutates.
#[derive(Debug, Clone)]
pub struct ResolvedJoin {
    pub(crate) right: Arc<JoinRight>,
    version: u64,
}

impl ResolvedJoin {
    /// The right table's catalog version at resolution time.
    pub fn version(&self) -> u64 {
        self.version
    }
}

/// Resolve `on` against the right table and capture its handle.
fn resolve_join(table: &CatalogTable, on: &str, version: u64) -> Result<ResolvedJoin> {
    let key = table
        .table()
        .schema()
        .index_of(on)
        .ok_or_else(|| StoreError::NoSuchColumn(on.to_string()))?;
    Ok(ResolvedJoin {
        right: Arc::new(JoinRight {
            table: Arc::clone(table.table()),
            key,
        }),
        version,
    })
}

#[derive(Debug, Clone)]
struct Entry {
    table: CatalogTable,
    version: u64,
}

#[derive(Debug, Clone)]
struct CachedResult {
    version: u64,
    /// The join's right-table version at execution, when the plan
    /// joined: a cached join must be validated against *both* tables,
    /// or an ingest into the right side would keep serving stale pairs
    /// (the left entry's version never moved).
    join_version: Option<u64>,
    /// The exact plan that produced `result`. The fingerprint indexes
    /// the cache, but a 64-bit hash is not collision-free — a hit is only
    /// served after this spec compares equal to the query's.
    spec: QuerySpec,
    result: QueryResult,
    /// The result's payload footprint, computed once at admission and
    /// charged against the cache's byte budget.
    bytes: usize,
}

/// Result cache over the shared [`crate::source`] LRU, keyed
/// `(table name, plan fingerprint)` and validated on hit against both
/// the entry's table version and its full spec. Entries are behind an
/// `Arc`, so a probe is an `Arc` bump — the (possibly large) rows are
/// cloned only for validated hits.
///
/// Bounded twice: by entry count (the LRU's capacity) and by **total
/// payload bytes** — result sizes vary wildly between aggregates,
/// top-k, and high-cardinality group-bys, so admission evicts least
/// recent entries until the new result fits the byte budget, and a
/// result larger than the whole budget is simply not cached.
#[derive(Debug)]
struct ResultCache {
    lru: crate::source::LruCache<(String, u64), Arc<CachedResult>>,
    /// Total payload bytes the cache may hold (0 disables caching).
    budget: usize,
    /// Payload bytes currently held.
    held: usize,
}

impl ResultCache {
    /// A validated entry, handed back as an `Arc` so the caller clones
    /// the (possibly large) rows *after* releasing the cache lock.
    fn get(
        &mut self,
        key: &(String, u64),
        spec: &QuerySpec,
        version: u64,
        join_version: Option<u64>,
    ) -> Option<Arc<CachedResult>> {
        let cached = self.lru.get(key)?;
        if cached.version != version || cached.join_version != join_version {
            // Stale: the table (or a join's right table) mutated since
            // this was cached.
            self.held = self.held.saturating_sub(cached.bytes);
            self.lru.remove(key);
            return None;
        }
        if &cached.spec != spec {
            // Fingerprint collision between distinct plans: never serve
            // another query's rows (the newer plan will overwrite).
            return None;
        }
        Some(cached)
    }

    /// Whether a result of `bytes` payload bytes is cached: never with
    /// caching off, nor when larger than the whole budget, where caching
    /// it would evict everything and still not fit.
    fn admits(&self, bytes: usize) -> bool {
        0 < self.budget && bytes <= self.budget
    }

    fn put(&mut self, key: (String, u64), entry: Arc<CachedResult>) {
        if !self.admits(entry.bytes) {
            return;
        }
        // Evict least recent until the newcomer's payload fits.
        while self.held + entry.bytes > self.budget {
            match self.lru.pop_lru() {
                Some((_, dropped)) => self.held = self.held.saturating_sub(dropped.bytes),
                None => break,
            }
        }
        self.lru.put(key, entry);
        // Recount rather than increment: the LRU's own entry-count
        // bound may have evicted, and a same-key put replaces silently.
        // O(entries), with entries capped in the low hundreds.
        self.held = self.lru.values().map(|e| e.bytes).sum();
    }

    fn purge_table(&mut self, name: &str) {
        self.lru.retain(|(table, _)| table != name);
        self.held = self.lru.values().map(|e| e.bytes).sum();
    }
}

/// Named tables with versions and a result cache. All methods take
/// `&self`: the catalog is internally synchronised and meant to be
/// shared (`Arc<Catalog>`) across query threads.
///
/// Both locks recover from poisoning instead of panicking every later
/// request: the table map is valid after a panic under its write lock,
/// because an entry changes only by assignments made after a successful
/// append (an ingest encodes first and publishes last), and the result
/// cache is valid after each of its individual operations.
///
/// ```
/// use lcdc_core::{ColumnData, DType};
/// use lcdc_store::{Agg, Catalog, CompressionPolicy, QuerySpec, Table, TableSchema};
///
/// let table = Table::build(
///     TableSchema::new(&[("qty", DType::U64)]),
///     &[ColumnData::U64((0..2000).map(|i| 1 + i % 50).collect())],
///     &[CompressionPolicy::Auto],
///     256,
/// )
/// .unwrap();
/// let catalog = Catalog::new();
/// catalog.register("orders", table);
///
/// let spec = QuerySpec::new().aggregate(&[Agg::Sum("qty")]);
/// let first = catalog.execute("orders", &spec).unwrap();
/// assert_eq!(first.stats.result_cache_hits, 0);
/// // The identical plan against the same table version is a cache hit:
/// // nothing executes, the rows come back verbatim.
/// let again = catalog.execute("orders", &spec).unwrap();
/// assert_eq!(again.stats.result_cache_hits, 1);
/// assert_eq!(again.rows, first.rows);
/// ```
#[derive(Debug)]
pub struct Catalog {
    tables: RwLock<HashMap<String, Entry>>,
    cache: Mutex<ResultCache>,
    next_version: AtomicU64,
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog::new()
    }
}

impl Catalog {
    /// An empty catalog with the default result-cache bounds
    /// ([`DEFAULT_RESULT_CACHE`] entries, [`DEFAULT_RESULT_CACHE_BYTES`]
    /// of payload).
    pub fn new() -> Catalog {
        Catalog::with_cache_capacity(DEFAULT_RESULT_CACHE)
    }

    /// An empty catalog caching at most `capacity` query results
    /// (0 disables result caching), under the default byte budget.
    pub fn with_cache_capacity(capacity: usize) -> Catalog {
        Catalog::with_cache(capacity, DEFAULT_RESULT_CACHE_BYTES)
    }

    /// An empty catalog caching at most `capacity` results and `budget`
    /// payload bytes (either at 0 caches nothing).
    fn with_cache(capacity: usize, budget: usize) -> Catalog {
        Catalog {
            tables: RwLock::new(HashMap::new()),
            cache: Mutex::new(ResultCache {
                lru: crate::source::LruCache::new(capacity),
                // No room for an entry is no room for a byte.
                budget: if capacity == 0 { 0 } else { budget },
                held: 0,
            }),
            next_version: AtomicU64::new(1),
        }
    }

    fn tables_read(&self) -> RwLockReadGuard<'_, HashMap<String, Entry>> {
        self.tables.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn tables_write(&self) -> RwLockWriteGuard<'_, HashMap<String, Entry>> {
        self.tables.write().unwrap_or_else(PoisonError::into_inner)
    }

    fn cache(&self) -> MutexGuard<'_, ResultCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn bump(&self) -> u64 {
        // ordering: unique-ticket counter; the version becomes visible
        // to readers via the tables lock, not via this atomic.
        self.next_version.fetch_add(1, Ordering::Relaxed)
    }

    /// Register (or replace) a single table under `name`. Returns the
    /// entry's new version.
    pub fn register(&self, name: &str, table: Table) -> u64 {
        self.install(name, CatalogTable::Single(Arc::new(table)))
    }

    /// Register (or replace) a sharded table under `name`. Returns the
    /// entry's new version.
    pub fn register_sharded(&self, name: &str, shards: Vec<Table>) -> Result<u64> {
        let sharded = ShardedTable::new(shards)?;
        Ok(self.install(name, CatalogTable::Sharded(Arc::new(sharded))))
    }

    /// Register (or replace) a sharded table with a routing key
    /// ([`ShardedTable::with_key`]): reads prune shards by the key
    /// ranges, and [`Catalog::ingest`] batches split along them.
    /// Returns the entry's new version.
    pub fn register_sharded_keyed(&self, name: &str, shards: Vec<Table>, key: &str) -> Result<u64> {
        let sharded = ShardedTable::with_key(shards, key)?;
        Ok(self.install(name, CatalogTable::Sharded(Arc::new(sharded))))
    }

    /// Ingest a row batch into the named table — the write path.
    ///
    /// The batch (columns aligned with the table's schema, exactly as
    /// in [`Table::build`]) is encoded into fresh compressed segments
    /// through the per-column scheme chooser, routed to the owning
    /// shard(s) by key range when the table is sharded with a routing
    /// key (a batch spanning ranges is split; an unrouted sharded
    /// table appends log-style to its last shard), and published
    /// atomically under **one** version bump regardless of how many
    /// shards the batch touched. Queries that already fetched their
    /// snapshot keep reading the pre-ingest tables; every cached
    /// result for `name` stops being served the moment the bump lands,
    /// so a repeated query re-executes over the new rows. An empty
    /// batch is a no-op: nothing changes, nothing is invalidated, and
    /// the current version comes back.
    ///
    /// Only the publish takes the catalog's table write lock. The batch
    /// is encoded — the chooser and the compression, the write path's
    /// whole cost — against a snapshot of the entry taken under the read
    /// lock and released before encoding starts, so queries keep
    /// fetching snapshots while it runs, and racing ingests encode in
    /// parallel. The publish then attaches the new segments to the entry
    /// *as it is now*, not to the snapshot, so two racing batches both
    /// land, each under its own bump, in lock order. It holds the write
    /// lock for one handle copy per resident segment of each touched
    /// run. When the entry was replaced or re-sharded in between (its
    /// schema, segment height, routing or shard count changed), the
    /// batch is encoded again against the new entry; when it was
    /// dropped, the ingest fails with [`StoreError::NoSuchTable`].
    ///
    /// Returns the entry's post-ingest version.
    ///
    /// ```
    /// use lcdc_core::{ColumnData, DType};
    /// use lcdc_store::{Agg, Catalog, CompressionPolicy, Predicate, QuerySpec, Table, TableSchema};
    ///
    /// let build = |days: std::ops::Range<u64>| {
    ///     Table::build(
    ///         TableSchema::new(&[("day", DType::U64)]),
    ///         &[ColumnData::U64(days.collect())],
    ///         &[CompressionPolicy::Auto],
    ///         64,
    ///     )
    ///     .unwrap()
    /// };
    /// let catalog = Catalog::new();
    /// let v1 = catalog
    ///     .register_sharded_keyed("orders", vec![build(0..100), build(100..200)], "day")
    ///     .unwrap();
    ///
    /// let spec = QuerySpec::new()
    ///     .filter("day", Predicate::Range { lo: 0, hi: 1000 })
    ///     .aggregate(&[Agg::Count]);
    /// assert_eq!(
    ///     catalog.execute("orders", &spec).unwrap().aggregates().unwrap(),
    ///     &[Some(200)]
    /// );
    ///
    /// // The batch spans both shard key ranges; the version bumps once
    /// // and the repeated query re-executes instead of serving the
    /// // cached 200.
    /// let v2 = catalog
    ///     .ingest("orders", &[ColumnData::U64(vec![50, 150])])
    ///     .unwrap();
    /// assert_eq!(v2, v1 + 1);
    /// let after = catalog.execute("orders", &spec).unwrap();
    /// assert_eq!(after.stats.result_cache_hits, 0);
    /// assert_eq!(after.aggregates().unwrap(), &[Some(202)]);
    /// ```
    pub fn ingest(&self, name: &str, columns: &[ColumnData]) -> Result<u64> {
        loop {
            let (parts, routing, version) = self.encode(name, columns)?;
            if parts.is_empty() {
                return Ok(version);
            }
            if let Some(version) = self.publish(name, parts, routing.as_ref())? {
                return Ok(version);
            }
        }
    }

    /// The encode half of [`Self::ingest`]: `columns` encoded against a
    /// snapshot of `name`, one part per run (shard) they touch, with
    /// the snapshot's routing and version. No part for an empty batch,
    /// which publishes nothing. The read lock is held only to take the
    /// snapshot.
    fn encode(
        &self,
        name: &str,
        columns: &[ColumnData],
    ) -> Result<(Vec<EncodedBatch>, Option<ShardRouting>, u64)> {
        let (entry, version) = self
            .get(name)
            .ok_or_else(|| StoreError::NoSuchTable(name.to_string()))?;
        let routing = entry.routing().cloned();
        // Shape first: a ragged batch is an error even when its first
        // column is empty.
        let parts = match check_batch(entry.table().schema(), columns, None)? {
            0 => Vec::new(),
            _ => encode_parts(entry.table(), routing.as_ref(), columns)?,
        };
        Ok((parts, routing, version))
    }

    /// The publish half of [`Self::ingest`]: under the write lock, the
    /// `parts` attached to the entry's table as it is now
    /// ([`Table::attach`], which rebuilds only the runs they touch), one
    /// version bump, and the table's cached results purged. `None`,
    /// with nothing published, when the entry no longer has the shape
    /// the parts were encoded for — its schema, segment height, shard
    /// count or `routing` changed since the snapshot.
    fn publish(
        &self,
        name: &str,
        parts: Vec<EncodedBatch>,
        routing: Option<&ShardRouting>,
    ) -> Result<Option<u64>> {
        let mut tables = self.tables_write();
        let entry = tables
            .get_mut(name)
            .ok_or_else(|| StoreError::NoSuchTable(name.to_string()))?;
        let current = entry.table.table();
        if entry.table.routing() != routing || !parts.iter().all(|part| part.fits(current)) {
            return Ok(None);
        }
        let table = Arc::new(current.attach(parts)?);
        entry.table = match &entry.table {
            CatalogTable::Single(_) => CatalogTable::Single(table),
            CatalogTable::Sharded(_) => CatalogTable::Sharded(Arc::new(ShardedTable {
                table,
                routing: routing.cloned(),
            })),
        };
        entry.version = self.bump();
        let version = entry.version;
        drop(tables);
        self.cache().purge_table(name);
        Ok(Some(version))
    }

    fn install(&self, name: &str, table: CatalogTable) -> u64 {
        let version = self.bump();
        self.tables_write()
            .insert(name.to_string(), Entry { table, version });
        self.cache().purge_table(name);
        version
    }

    /// Append one shard to `name` (a single table becomes a two-shard
    /// table). The mutation bumps the version, so every cached result
    /// for `name` stops being served. Returns the new version.
    pub fn add_shard(&self, name: &str, shard: Table) -> Result<u64> {
        let mut tables = self.tables_write();
        let entry = tables
            .get_mut(name)
            .ok_or_else(|| StoreError::NoSuchTable(name.to_string()))?;
        let table = Table::concat(&[entry.table.table(), &shard])?;
        // A routed table stays routed: the grown table's shards must
        // still carry disjoint ascending key ranges, or the mutation is
        // rejected before anything is published.
        let routing = (entry.table.routing())
            .map(|r| derive_routing(&table, r.key()))
            .transpose()?;
        entry.table = CatalogTable::Sharded(Arc::new(ShardedTable {
            table: Arc::new(table),
            routing,
        }));
        entry.version = self.bump();
        let version = entry.version;
        drop(tables);
        self.cache().purge_table(name);
        Ok(version)
    }

    /// Remove a table. Returns whether it existed.
    pub fn drop_table(&self, name: &str) -> bool {
        let existed = self.tables_write().remove(name).is_some();
        if existed {
            self.cache().purge_table(name);
        }
        existed
    }

    /// The registered table and its version, if present.
    pub fn get(&self, name: &str) -> Option<(CatalogTable, u64)> {
        self.tables_read()
            .get(name)
            .map(|e| (e.table.clone(), e.version))
    }

    /// A table's current version, if present.
    pub fn version(&self, name: &str) -> Option<u64> {
        self.get(name).map(|(_, v)| v)
    }

    /// Registered table names, sorted.
    pub fn tables(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables_read().keys().cloned().collect();
        names.sort_unstable();
        names
    }

    /// Execute `spec` against the named table, serving from the result
    /// cache when an identical plan already ran against the same table
    /// version. A cache hit returns the cached rows with fresh stats
    /// whose only nonzero counter is `result_cache_hits == 1`.
    pub fn execute(&self, name: &str, spec: &QuerySpec) -> Result<QueryResult> {
        self.execute_parallel(name, spec, 1)
    }

    /// [`Self::execute`] with up to `threads` threads leasing from the
    /// one job's morsel list.
    pub fn execute_parallel(
        &self,
        name: &str,
        spec: &QuerySpec,
        threads: usize,
    ) -> Result<QueryResult> {
        self.execute_opts(name, spec, &ExecOptions::threads(threads))
    }

    /// [`Self::execute`] under explicit [`ExecOptions`] — lease cap
    /// plus prefetch depth for lazily-backed tables.
    pub fn execute_opts(
        &self,
        name: &str,
        spec: &QuerySpec,
        opts: &ExecOptions,
    ) -> Result<QueryResult> {
        self.execute_versioned_with(name, spec, |table, join| spec.execute_on(table, join, opts))
            .map(|(result, _)| result)
    }

    /// The cache-wrapping core of [`Self::execute_opts`], with the
    /// execution strategy injected and the **table version the answer
    /// was computed against** returned alongside the result — the
    /// snapshot tag a serving layer stamps on every wire response, so a
    /// client racing [`Self::ingest`] can tell exactly which version it
    /// read.
    ///
    /// `run` receives the entry's one table ([`CatalogTable::table`])
    /// captured *before* the cache probe — plus the join's right side when the spec
    /// carries one, resolved against the **same** snapshot (one pass
    /// under the tables lock, so a join never pairs a pre-ingest left
    /// with a post-ingest right) — and is only called on a miss; its
    /// result is admitted to the cache under that same captured
    /// version pair, so a concurrent ingest landing mid-execution can
    /// never cause the stale answer to be served against the new
    /// version. The injected strategy is how `lcdc serve` routes
    /// executions onto its shared worker pool while keeping this
    /// cache/version contract — the in-process path injects
    /// [`QuerySpec::execute_on`].
    pub fn execute_versioned_with<F>(
        &self,
        name: &str,
        spec: &QuerySpec,
        run: F,
    ) -> Result<(QueryResult, u64)>
    where
        F: FnOnce(&Arc<Table>, Option<&ResolvedJoin>) -> Result<QueryResult>,
    {
        // Left entry and join right side come from one pass under the
        // tables read lock: the snapshot the closure executes against
        // is a consistent cut across both tables.
        let (table, version, join) = {
            let tables = self.tables_read();
            let entry = tables
                .get(name)
                .ok_or_else(|| StoreError::NoSuchTable(name.to_string()))?;
            let join = match spec.join_spec() {
                Some(js) => {
                    let rentry = tables
                        .get(&js.table)
                        .ok_or_else(|| StoreError::NoSuchTable(js.table.clone()))?;
                    Some(resolve_join(&rentry.table, &js.on, rentry.version)?)
                }
                None => None,
            };
            (Arc::clone(entry.table.table()), entry.version, join)
        };
        let join_version = join.as_ref().map(ResolvedJoin::version);
        let key = (name.to_string(), spec.fingerprint());
        // Hold the cache lock only for validation; clone the (possibly
        // large) rows after releasing it so other queries never wait
        // behind the copy.
        let hit = self.cache().get(&key, spec, version, join_version);
        if let Some(cached) = hit {
            return Ok((
                QueryResult {
                    rows: cached.result.rows.clone(),
                    stats: QueryStats {
                        result_cache_hits: 1,
                        ..QueryStats::default()
                    },
                },
                version,
            ));
        }
        let result = run(&table, join.as_ref())?;
        let bytes = result.payload_bytes();
        if self.cache().admits(bytes) {
            // Clones happen outside the lock too.
            let entry = Arc::new(CachedResult {
                version,
                join_version,
                spec: spec.clone(),
                bytes,
                result: result.clone(),
            });
            self.cache().put(key, entry);
        }
        Ok((result, version))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use crate::query::{Agg, QueryBuilder};
    use crate::schema::TableSchema;
    use crate::segment::CompressionPolicy;
    use lcdc_core::{ColumnData, DType};

    fn orders(n: u64, day_offset: u64) -> Table {
        let schema = TableSchema::new(&[("day", DType::U64), ("qty", DType::U64)]);
        let day = ColumnData::U64((0..n).map(|i| day_offset + i / 100).collect());
        let qty = ColumnData::U64((0..n).map(|i| 1 + i % 50).collect());
        Table::build(
            schema,
            &[day, qty],
            &[CompressionPolicy::Auto, CompressionPolicy::Auto],
            256,
        )
        .unwrap()
    }

    fn spec() -> QuerySpec {
        QuerySpec::new()
            .filter("day", Predicate::Range { lo: 5, hi: 14 })
            .aggregate(&[Agg::Sum("qty"), Agg::Count])
    }

    /// `spec` over the sharded table's one table, sequentially.
    fn run(sharded: &ShardedTable, spec: &QuerySpec) -> QueryResult {
        spec.execute_on(sharded.table(), None, &ExecOptions::default())
            .unwrap()
    }

    #[test]
    fn sharded_execution_equals_single_table() {
        let table = orders(6000, 1);
        let want = spec().bind(&table).execute().unwrap();
        for shards in [1usize, 2, 3, 7, 100] {
            let pieces = shard_table(&table, shards).unwrap();
            assert_eq!(pieces.len(), shards.min(table.num_segments()));
            let sizes: Vec<usize> = pieces.iter().map(Table::num_segments).collect();
            let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(hi - lo <= 1, "unbalanced split {sizes:?}");
            let sharded = ShardedTable::new(pieces).unwrap();
            assert_eq!(sharded.table().num_rows(), table.num_rows());
            for threads in [1usize, 4] {
                let opts = ExecOptions::threads(threads);
                let got = spec().execute_on(sharded.table(), None, &opts).unwrap();
                assert_eq!(got.rows, want.rows, "{shards} shards x{threads}");
                assert_eq!(got.stats.segments, want.stats.segments, "{shards} shards");
            }
        }
    }

    #[test]
    fn every_sink_survives_sharding() {
        let table = orders(5000, 1);
        let pieces = shard_table(&table, 4).unwrap();
        let sharded = ShardedTable::new(pieces).unwrap();
        let specs = [
            QuerySpec::new()
                .group_by("day")
                .aggregate(&[Agg::Sum("qty")]),
            QuerySpec::new().top_k("qty", 7),
            QuerySpec::new().distinct("day"),
            QuerySpec::new()
                .filter_any(&[
                    ("day", Predicate::Range { lo: 2, hi: 9 }),
                    ("qty", Predicate::Eq(50)),
                ])
                .aggregate(&[Agg::Count]),
        ];
        for (i, s) in specs.iter().enumerate() {
            let single = s.bind(&table).execute().unwrap();
            let fanned = run(&sharded, s);
            assert_eq!(fanned.rows, single.rows, "spec {i}");
        }
    }

    #[test]
    fn catalog_serves_repeat_queries_from_cache() {
        let catalog = Catalog::new();
        catalog.register("orders", orders(4000, 1));
        let first = catalog.execute("orders", &spec()).unwrap();
        assert_eq!(first.stats.result_cache_hits, 0);
        assert!(first.stats.segments > 0);
        let second = catalog.execute("orders", &spec()).unwrap();
        assert_eq!(second.rows, first.rows);
        assert_eq!(second.stats.result_cache_hits, 1, "{:?}", second.stats);
        assert_eq!(second.stats.segments, 0, "a hit executes nothing");
        // A different plan is a different key.
        let other = QuerySpec::new().top_k("qty", 3);
        assert_eq!(
            catalog
                .execute("orders", &other)
                .unwrap()
                .stats
                .result_cache_hits,
            0
        );
    }

    #[test]
    fn version_bump_invalidates_cached_results() {
        let catalog = Catalog::new();
        let v1 = catalog.register("orders", orders(4000, 1));
        let first = catalog.execute("orders", &spec()).unwrap();
        // Mutation: a new shard arrives with more rows in range.
        let v2 = catalog.add_shard("orders", orders(2000, 1)).unwrap();
        assert!(v2 > v1, "versions are monotonic");
        let after = catalog.execute("orders", &spec()).unwrap();
        assert_eq!(after.stats.result_cache_hits, 0, "stale result not served");
        assert_ne!(after.rows, first.rows, "new shard contributes rows");
        // And the new result caches under the new version.
        assert_eq!(
            catalog
                .execute("orders", &spec())
                .unwrap()
                .stats
                .result_cache_hits,
            1
        );
    }

    #[test]
    fn replacing_a_table_invalidates_too() {
        let catalog = Catalog::new();
        catalog.register("t", orders(3000, 1));
        let a = catalog.execute("t", &spec()).unwrap();
        catalog.register("t", orders(3000, 1000)); // different days
        let b = catalog.execute("t", &spec()).unwrap();
        assert_eq!(b.stats.result_cache_hits, 0);
        assert_ne!(a.rows, b.rows);
    }

    #[test]
    fn byte_budget_bounds_cached_payload_not_entry_count() {
        // Each distinct top-k result holds k i128s = 16k bytes. A
        // budget of ~2.5 results must keep the two most recent and
        // evict the oldest, regardless of the (large) entry capacity.
        let budgeted = |budget| Catalog::with_cache(DEFAULT_RESULT_CACHE, budget);
        let catalog = budgeted(40 * 16);
        catalog.register("t", orders(4000, 1));
        let specs: Vec<QuerySpec> = (14..=16)
            .map(|k| QuerySpec::new().top_k("qty", k))
            .collect();
        for spec in &specs {
            catalog.execute("t", spec).unwrap();
        }
        // 14+15+16 = 45 values > 40: the k=14 result was evicted to
        // admit k=16; the newer two still fit (15+16 = 31).
        assert_eq!(
            catalog
                .execute("t", &specs[0])
                .unwrap()
                .stats
                .result_cache_hits,
            0,
            "oldest result evicted by the byte budget"
        );
        // (Re-running spec[0] cached it again, evicting the now-oldest
        // k=15; k=16 survives as most recent before it.)
        assert_eq!(
            catalog
                .execute("t", &specs[2])
                .unwrap()
                .stats
                .result_cache_hits,
            1,
            "recent result retained under the budget"
        );

        // A result bigger than the whole budget is never admitted.
        let tiny = budgeted(8);
        tiny.register("t", orders(1000, 1));
        let spec = QuerySpec::new().top_k("qty", 10);
        tiny.execute("t", &spec).unwrap();
        assert_eq!(
            tiny.execute("t", &spec).unwrap().stats.result_cache_hits,
            0,
            "oversized result skipped caching"
        );

        // Budget 0 disables caching like capacity 0 does.
        let off = budgeted(0);
        off.register("t", orders(1000, 1));
        off.execute("t", &spec).unwrap();
        assert_eq!(off.execute("t", &spec).unwrap().stats.result_cache_hits, 0);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let catalog = Catalog::with_cache_capacity(0);
        catalog.register("t", orders(2000, 1));
        catalog.execute("t", &spec()).unwrap();
        assert_eq!(
            catalog
                .execute("t", &spec())
                .unwrap()
                .stats
                .result_cache_hits,
            0
        );
    }

    #[test]
    fn schema_mismatch_rejected() {
        let catalog = Catalog::new();
        catalog.register("t", orders(1000, 1));
        let other_schema = Table::build(
            TableSchema::new(&[("x", DType::U32)]),
            &[ColumnData::U32(vec![1, 2, 3])],
            &[CompressionPolicy::None],
            64,
        )
        .unwrap();
        assert!(catalog.add_shard("t", other_schema).is_err());
        assert!(ShardedTable::new(vec![]).is_err());
    }

    #[test]
    fn drop_and_introspection() {
        let catalog = Catalog::new();
        catalog.register("a", orders(1000, 1));
        catalog
            .register_sharded("b", shard_table(&orders(2000, 1), 2).unwrap())
            .unwrap();
        assert_eq!(catalog.tables(), vec!["a".to_string(), "b".to_string()]);
        let (b, _) = catalog.get("b").unwrap();
        assert_eq!(b.table().num_rows(), 2000);
        assert!(matches!(b, CatalogTable::Sharded(s) if s.shards().len() == 2));
        assert!(catalog.drop_table("a"));
        assert!(!catalog.drop_table("a"));
        assert!(catalog.execute("a", &spec()).is_err());
    }

    #[test]
    fn sharded_matches_builder_stats_shape() {
        // Sharding must not change *what* is measured: the shards read
        // as one table charge exactly the single-table run's ledger,
        // plus the two shards no segment of which became a morsel.
        let table = orders(4000, 1);
        let sharded = ShardedTable::new(shard_table(&table, 4).unwrap()).unwrap();
        let single = QueryBuilder::scan(&table)
            .filter("day", Predicate::Range { lo: 5, hi: 14 })
            .aggregate(&[Agg::Sum("qty"), Agg::Count])
            .execute()
            .unwrap();
        let fanned = run(&sharded, &spec());
        assert_eq!(fanned.rows, single.rows);
        assert_eq!(fanned.stats.shards_pruned, 2);
        let stats = QueryStats {
            shards_pruned: 0,
            ..fanned.stats
        };
        assert_eq!(stats, single.stats);
    }

    #[test]
    fn routing_derivation_and_boundaries() {
        // Shard 0 holds days 1..=20, shard 1 holds days 1001..=1020.
        let sharded =
            ShardedTable::with_key(vec![orders(2000, 1), orders(2000, 1001)], "day").unwrap();
        let routing = sharded.routing().unwrap();
        assert_eq!(routing.key(), "day");
        assert_eq!(routing.uppers(), &[20]);
        // On-boundary keys belong to the lower shard; everything past
        // the last bound belongs to the last shard.
        assert_eq!(routing.shard_of(0), 0);
        assert_eq!(routing.shard_of(20), 0, "boundary key stays low");
        assert_eq!(routing.shard_of(21), 1);
        assert_eq!(routing.shard_of(99_999), 1);

        // Overlapping or unordered key ranges are rejected.
        assert!(ShardedTable::with_key(vec![orders(2000, 1), orders(2000, 10)], "day").is_err());
        assert!(ShardedTable::with_key(vec![orders(2000, 1001), orders(2000, 1)], "day").is_err());
        // Ranges touching at one boundary value are fine (a table split
        // on segment boundaries has a key straddling the cut): the
        // shared key routes low.
        let touching =
            ShardedTable::with_key(vec![orders(2000, 1), orders(2000, 20)], "day").unwrap();
        assert_eq!(touching.routing().unwrap().uppers(), &[20]);
        assert_eq!(touching.routing().unwrap().shard_of(20), 0);
        // Unknown key column is rejected.
        assert!(ShardedTable::with_key(vec![orders(2000, 1), orders(2000, 1001)], "nope").is_err());
        // An unkeyed assembly carries no routing.
        assert!(ShardedTable::new(vec![orders(2000, 1)])
            .unwrap()
            .routing()
            .is_none());
    }

    #[test]
    fn partition_batch_splits_along_key_ranges() {
        let sharded =
            ShardedTable::with_key(vec![orders(2000, 1), orders(2000, 1001)], "day").unwrap();
        let day = ColumnData::U64(vec![5, 1010, 20, 21, 1020]);
        let qty = ColumnData::U64(vec![1, 2, 3, 4, 5]);
        let parts = sharded.partition_batch(&[day, qty]).unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0][0], ColumnData::U64(vec![5, 20]));
        assert_eq!(parts[0][1], ColumnData::U64(vec![1, 3]));
        assert_eq!(parts[1][0], ColumnData::U64(vec![1010, 21, 1020]));
        assert_eq!(parts[1][1], ColumnData::U64(vec![2, 4, 5]));
        // Shape errors surface before any row moves.
        assert!(sharded
            .partition_batch(&[ColumnData::U64(vec![1])])
            .is_err());
        assert!(sharded
            .partition_batch(&[ColumnData::U64(vec![1]), ColumnData::I64(vec![1])])
            .is_err());
        // No routing key: partitioning refuses.
        let unkeyed = ShardedTable::new(vec![orders(2000, 1)]).unwrap();
        assert!(unkeyed
            .partition_batch(&[ColumnData::U64(vec![1]), ColumnData::U64(vec![1])])
            .is_err());
    }

    #[test]
    fn ingest_routes_bumps_once_and_invalidates() {
        let catalog = Catalog::new();
        let v1 = catalog
            .register_sharded_keyed("orders", vec![orders(2000, 1), orders(2000, 1001)], "day")
            .unwrap();
        let cached = catalog.execute("orders", &spec()).unwrap();
        assert_eq!(
            catalog
                .execute("orders", &spec())
                .unwrap()
                .stats
                .result_cache_hits,
            1
        );

        // The batch spans both shard ranges: days 5..=14 (shard 0, in
        // the queried window) and 1010 (shard 1).
        let day = ColumnData::U64(vec![5, 1010, 14]);
        let qty = ColumnData::U64(vec![100, 7, 100]);
        let v2 = catalog.ingest("orders", &[day, qty]).unwrap();
        assert_eq!(v2, v1 + 1, "one bump for a batch spanning two shards");

        let (table, _) = catalog.get("orders").unwrap();
        let CatalogTable::Sharded(sharded) = &table else {
            panic!("stays sharded")
        };
        assert_eq!(sharded.shards()[0].num_rows(), 2002);
        assert_eq!(sharded.shards()[1].num_rows(), 2001);
        assert!(sharded.routing().is_some(), "routing survives ingest");

        // The stale cached result is not served; the re-execution sees
        // the two new in-window rows.
        let after = catalog.execute("orders", &spec()).unwrap();
        assert_eq!(after.stats.result_cache_hits, 0);
        let before_vals = cached.aggregates().unwrap();
        let after_vals = after.aggregates().unwrap();
        assert_eq!(after_vals[1], before_vals[1].map(|c| c + 2));
        assert_eq!(after_vals[0], before_vals[0].map(|s| s + 200));
    }

    #[test]
    fn ingest_single_table_and_empty_batch() {
        let catalog = Catalog::new();
        let v1 = catalog.register("t", orders(1000, 1));
        // Empty batch: no bump, cache untouched.
        let first = catalog.execute("t", &spec()).unwrap();
        let same = catalog
            .ingest("t", &[ColumnData::U64(vec![]), ColumnData::U64(vec![])])
            .unwrap();
        assert_eq!(same, v1);
        assert_eq!(
            catalog
                .execute("t", &spec())
                .unwrap()
                .stats
                .result_cache_hits,
            1,
            "empty ingest keeps serving the cache"
        );
        // A real batch into a single (unsharded) table appends in place.
        let v2 = catalog
            .ingest("t", &[ColumnData::U64(vec![7]), ColumnData::U64(vec![9])])
            .unwrap();
        assert!(v2 > v1);
        let (table, _) = catalog.get("t").unwrap();
        assert!(matches!(table, CatalogTable::Single(_)), "stays single");
        assert_eq!(table.table().num_rows(), 1001);
        let after = catalog.execute("t", &spec()).unwrap();
        assert_eq!(after.stats.result_cache_hits, 0);
        assert_ne!(after.rows, first.rows);
        // Errors: unknown table, wrong width.
        assert!(catalog.ingest("nope", &[]).is_err());
        assert!(catalog.ingest("t", &[ColumnData::U64(vec![1])]).is_err());
        // A ragged batch whose *first* column is empty must error, not
        // silently drop the other columns' rows as an empty no-op.
        assert!(catalog
            .ingest("t", &[ColumnData::U64(vec![]), ColumnData::U64(vec![1, 2])])
            .is_err());
        // Wrong dtype is caught even for an all-empty batch.
        assert!(catalog
            .ingest("t", &[ColumnData::U64(vec![]), ColumnData::I64(vec![])])
            .is_err());
        assert_eq!(
            catalog.get("t").unwrap().0.table().num_rows(),
            1001,
            "rejected batches change nothing"
        );
    }

    /// `count(*)` and the rows of `day` on a single-table entry.
    fn count_day(catalog: &Catalog, day: u64) -> (Option<i128>, u64) {
        let spec = QuerySpec::new()
            .filter(
                "day",
                Predicate::Range {
                    lo: day.into(),
                    hi: day.into(),
                },
            )
            .aggregate(&[Agg::Count]);
        let (result, version) = catalog
            .execute_versioned_with("t", &spec, |t, join| {
                spec.execute_on(t, join, &ExecOptions::default())
            })
            .unwrap();
        (result.aggregates().unwrap()[0], version)
    }

    fn batch(day: u64, rows: usize) -> Vec<ColumnData> {
        vec![
            ColumnData::U64(vec![day; rows]),
            ColumnData::U64(vec![1; rows]),
        ]
    }

    /// Encode and publish interleave: batch A encodes on version v, a
    /// query and a whole ingest of B (v + 1) run before A publishes, and
    /// A lands on the entry as it is then (v + 2), beside B.
    #[test]
    fn a_publish_attaches_to_the_entry_as_it_is_now() {
        let catalog = Catalog::new();
        let v = catalog.register("t", orders(1000, 1));
        let total = |catalog: &Catalog| catalog.get("t").unwrap().0.table().num_rows();
        let (a, routing, encoded_at) = catalog.encode("t", &batch(500, 300)).unwrap();
        assert_eq!(encoded_at, v);
        assert_eq!(count_day(&catalog, 500), (Some(0), v), "A is not visible");
        assert_eq!(total(&catalog), 1000);
        assert_eq!(catalog.ingest("t", &batch(600, 200)).unwrap(), v + 1);
        assert_eq!(count_day(&catalog, 600), (Some(200), v + 1));
        assert_eq!(total(&catalog), 1200);
        assert_eq!(
            catalog.publish("t", a, routing.as_ref()).unwrap(),
            Some(v + 2)
        );
        assert_eq!(count_day(&catalog, 500), (Some(300), v + 2));
        assert_eq!(count_day(&catalog, 600), (Some(200), v + 2));
        assert_eq!(total(&catalog), 1500, "each batch exactly once");
        let days = catalog
            .get("t")
            .unwrap()
            .0
            .table()
            .materialize("day")
            .unwrap();
        let tail: Vec<u64> = (1000..1500)
            .map(|i| days.get_numeric(i).unwrap() as u64)
            .collect();
        assert_eq!(tail, [vec![600; 200], vec![500; 300]].concat(), "B, then A");
        // An empty batch publishes nothing and reports the version.
        let (none, _, at) = catalog.encode("t", &batch(1, 0)).unwrap();
        assert!(none.is_empty());
        assert_eq!(at, v + 2);
    }

    /// A batch encoded for an entry that is then replaced by another
    /// shape, re-sharded or dropped is never attached to it: the
    /// publish reports the shape change (and `ingest` encodes again) or
    /// the missing table.
    #[test]
    fn a_publish_never_attaches_to_another_shape() {
        let catalog = Catalog::new();
        catalog.register("t", orders(1000, 1));

        // Replaced by another schema: the re-encode sees the new one.
        let (a, routing, _) = catalog.encode("t", &batch(500, 10)).unwrap();
        let other = Table::build(
            TableSchema::new(&[("day", DType::U64)]),
            &[ColumnData::U64(vec![1; 100])],
            &[CompressionPolicy::Auto],
            256,
        )
        .unwrap();
        let replaced = catalog.register("t", other);
        assert_eq!(catalog.publish("t", a, routing.as_ref()).unwrap(), None);
        assert_eq!(catalog.version("t"), Some(replaced), "nothing published");
        assert!(catalog.ingest("t", &batch(500, 10)).is_err(), "two columns");
        assert_eq!(
            catalog
                .ingest("t", &[ColumnData::U64(vec![500; 10])])
                .unwrap(),
            replaced + 1
        );

        // Replaced by the same schema at another segment height.
        catalog.register("t", orders(1000, 1));
        let (a, routing, _) = catalog.encode("t", &batch(500, 300)).unwrap();
        let taller = Table::build(
            orders(1, 1).schema().clone(),
            &batch(1, 100),
            &[CompressionPolicy::Auto, CompressionPolicy::Auto],
            1024,
        )
        .unwrap();
        catalog.register("t", taller);
        assert_eq!(catalog.publish("t", a, routing.as_ref()).unwrap(), None);

        // Re-sharded: a shard added since the encode.
        catalog.register("t", orders(1000, 1));
        let (a, routing, _) = catalog.encode("t", &batch(500, 10)).unwrap();
        let resharded = catalog.add_shard("t", orders(1000, 1)).unwrap();
        assert_eq!(catalog.publish("t", a, routing.as_ref()).unwrap(), None);
        let (b, routing, _) = catalog.encode("t", &batch(500, 10)).unwrap();
        catalog.add_shard("t", orders(1000, 1)).unwrap();
        assert_eq!(catalog.publish("t", b, routing.as_ref()).unwrap(), None);
        assert_eq!(catalog.version("t"), Some(resharded + 1));

        // Routed by other key ranges over as many shards.
        let routed = |low_rows| vec![orders(low_rows, 1), orders(2000, 1001)];
        catalog
            .register_sharded_keyed("t", routed(2000), "day")
            .unwrap();
        let (a, routing, _) = catalog.encode("t", &batch(30, 10)).unwrap();
        catalog
            .register_sharded_keyed("t", routed(4000), "day")
            .unwrap();
        assert_eq!(catalog.publish("t", a, routing.as_ref()).unwrap(), None);

        // Dropped.
        let (a, routing, _) = catalog.encode("t", &batch(500, 10)).unwrap();
        assert!(catalog.drop_table("t"));
        assert!(matches!(
            catalog.publish("t", a, routing.as_ref()),
            Err(StoreError::NoSuchTable(_))
        ));
    }

    /// A publish rebuilds only the runs its batch touches: a routed
    /// ingest into shard 0 leaves every other shard's run the same
    /// handle, and an unrouted (log-style) or single-table ingest
    /// touches only the last run.
    #[test]
    fn a_publish_rebuilds_only_the_runs_it_touches() {
        let runs = |catalog: &Catalog| -> Vec<Vec<Arc<crate::source::Run>>> {
            let table = Arc::clone(catalog.get("t").unwrap().0.table());
            (0..table.schema().width())
                .map(|c| table.source_at(c).runs().to_vec())
                .collect()
        };
        let rows = |catalog: &Catalog| -> Vec<usize> {
            let (entry, _) = catalog.get("t").unwrap();
            entry.table().runs().iter().map(Table::num_rows).collect()
        };
        // Ingest one batch of day 5 (shard 0's range) and check that
        // exactly run `touched` of every column was rebuilt and grew.
        let ingest_touches = |catalog: &Catalog, touched: usize| {
            let (before, mut grown) = (runs(catalog), rows(catalog));
            catalog.ingest("t", &batch(5, 10)).unwrap();
            grown[touched] += 10;
            assert_eq!(rows(catalog), grown);
            for (old, new) in before.iter().zip(&runs(catalog)) {
                assert_eq!(old.len(), new.len(), "an ingest adds no run");
                for (r, (old, new)) in old.iter().zip(new).enumerate() {
                    assert_eq!(!Arc::ptr_eq(old, new), r == touched, "run {r}");
                }
            }
        };
        let shards = || vec![orders(1000, 1), orders(1000, 1001), orders(1000, 2001)];
        let catalog = Catalog::new();
        catalog
            .register_sharded_keyed("t", shards(), "day")
            .unwrap();
        ingest_touches(&catalog, 0);
        catalog.register_sharded("t", shards()).unwrap();
        ingest_touches(&catalog, 2);
        catalog.register("t", orders(1000, 1));
        ingest_touches(&catalog, 0);
    }

    #[test]
    fn add_shard_preserves_or_rejects_routing() {
        let catalog = Catalog::new();
        catalog
            .register_sharded_keyed("t", vec![orders(2000, 1), orders(2000, 1001)], "day")
            .unwrap();
        // A shard extending the key order re-derives routing.
        catalog.add_shard("t", orders(2000, 5001)).unwrap();
        let (table, _) = catalog.get("t").unwrap();
        let CatalogTable::Sharded(sharded) = &table else {
            panic!("sharded")
        };
        assert_eq!(sharded.routing().unwrap().uppers(), &[20, 1020]);
        // A shard overlapping existing ranges is rejected outright.
        assert!(catalog.add_shard("t", orders(2000, 1)).is_err());
    }

    #[test]
    fn out_of_range_shards_are_pruned_before_any_source_access() {
        // Days 1..=20 in shard 0, 1001..=1020 in shard 1.
        let near = orders(2000, 1);
        let far = orders(2000, 1001);
        let sharded = ShardedTable::new(vec![near, far]).unwrap();
        let per_shard_segments = sharded.shards()[0].num_segments();

        // Bounds inside shard 0's range exclude shard 1 wholesale.
        let got = run(&sharded, &spec());
        assert_eq!(got.stats.shards_pruned, 1, "{:?}", got.stats);
        // The pruned shard's segments count as visited-and-pruned, so
        // fan-in accounting still covers the whole table...
        assert_eq!(
            got.stats.segments,
            sharded.shards().iter().map(|s| s.num_segments()).sum()
        );
        assert!(got.stats.segments_pruned >= per_shard_segments);
        // ...and the answer only reflects shard 0.
        let want = spec().bind(&sharded.shards()[0]).execute().unwrap();
        assert_eq!(got.rows, want.rows);

        // A disjunctive clause prunes only when *every* leaf misses.
        let half_in = QuerySpec::new()
            .filter_any(&[
                ("day", Predicate::Range { lo: 5, hi: 14 }),
                ("day", Predicate::Range { lo: 1005, hi: 1014 }),
            ])
            .aggregate(&[Agg::Count]);
        let both = run(&sharded, &half_in);
        assert_eq!(both.stats.shards_pruned, 0, "{:?}", both.stats);

        // Bounds that miss every shard prune everything; the answer is
        // a well-formed zero row.
        let nowhere = QuerySpec::new()
            .filter("day", Predicate::Range { lo: 5000, hi: 6000 })
            .aggregate(&[Agg::Sum("qty"), Agg::Count]);
        let empty = run(&sharded, &nowhere);
        assert_eq!(empty.stats.shards_pruned, 2);
        assert_eq!(empty.stats.segments_loaded, 0);
        assert_eq!(empty.aggregates().unwrap(), &[Some(0), Some(0)]);
    }
}
