//! Columns: where a column's segments live and how they are fetched.
//!
//! The planner never holds a `&[Segment]` — it plans against
//! [`SegmentMeta`] (zone map, row count, scheme tag: everything a
//! pushdown-tier decision needs, resident by construction) and fetches
//! payloads one segment at a time through [`Column::segment`] only when
//! a tier actually has to touch bytes. A [`Column`] is what a
//! [`crate::Table`] holds per column: a list of runs, each an optional
//! base followed by resident segments. A base is a `FileSource`: lazy
//! per-segment loads from the on-disk column file (see
//! [`crate::file`]), behind a small LRU cache, so a zone-map-pruned
//! segment's frame is *never read from disk*. A built table is one
//! resident run, an opened one is one base run, an append extends the
//! last run, and a sharded table lists one run per shard, of which an
//! ingest extends those its rows land in.
//!
//! Each run also carries two zone trees (`ZoneTree`): one over its
//! base's zone maps, built once when the base is opened and shared by
//! every append, and one over its resident segments, rebuilt with them.
//! A tree node holds the hull of the zone maps below it, so the
//! planner's zone walks settle many segments with one test.
//!
//! Columns are `Send + Sync`: the parallel executor shares one column
//! across workers, and a base's LRU cache takes an internal lock only
//! on the fetch path. Fetches are *single-flight* — concurrent misses
//! on one frame coalesce into one read — which lets the executor's
//! background prefetcher (`Column::prefetch`) warm the cache ahead of
//! the scan without ever duplicating I/O.

use crate::fault::FaultPlan;
use crate::segment::{SchemeKind, Segment};
use crate::{Result, StoreError};
use lcdc_core::{DType, SharedDict};
use std::collections::HashSet;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

/// Per-segment metadata the planner can consult without loading the
/// segment payload: the zone map, the row count, the exact sum where
/// the store computed one, the compressed size, and the scheme
/// expression that produced the frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Rows in the segment.
    pub rows: usize,
    /// Numeric minimum over the segment (zone map).
    pub min: i128,
    /// Numeric maximum over the segment (zone map).
    pub max: i128,
    /// The exact sum of the segment's rows ([`Segment::sum`]): `Some`
    /// only where the store computed it from the rows, and then `min`
    /// and `max` are the rows' own. With `rows`, a summary that answers
    /// SUM / MIN / MAX / COUNT over the whole segment.
    pub sum: Option<i128>,
    /// Compressed payload size in bytes. A dictionary the segment
    /// shares with others counts at its column, once
    /// ([`Column::dictionary_bytes`]).
    pub bytes: usize,
    /// The scheme expression the segment was compressed under.
    pub expr: String,
    /// That expression's [`SchemeKind`], resolved once.
    pub kind: SchemeKind,
}

impl SegmentMeta {
    /// Metadata of an in-memory segment.
    pub fn of(segment: &Segment) -> SegmentMeta {
        SegmentMeta {
            rows: segment.num_rows(),
            min: segment.min,
            max: segment.max,
            sum: segment.sum(),
            bytes: segment.compressed_bytes(),
            expr: segment.expr.clone(),
            kind: segment.kind(),
        }
    }
}

/// One table column: a list of **runs**, each an optional base
/// followed by resident segments. A built or opened table's columns are
/// one run: resident only for a built table, all base (a lazily read
/// column file) for an opened one. [`crate::Table::append`] keeps the
/// base and extends the last run's resident list, so however many
/// appends a column has seen, a lookup makes at most one call into a
/// base and no segment payload is ever copied or re-encoded. A sharded
/// catalog entry's columns list one run per shard, in shard order,
/// sharing them by handle: each shard's base keeps its own cache, and a
/// prefix table of run starts maps a segment index to its run.
///
/// Metadata access ([`Column::meta`]) is always cheap and in-memory;
/// [`Column::segment`] is the only call that may touch the disk.
#[derive(Debug, Clone)]
pub struct Column {
    /// At least one run, in segment order.
    runs: Vec<Arc<Run>>,
    /// `starts[r]` is run `r`'s first segment index; one more entry
    /// closes the last run, so it is also the column's segment count.
    starts: Vec<usize>,
}

/// One run of a [`Column`]: an optional base, then resident segments,
/// each part with its [`ZoneTree`].
#[derive(Debug)]
pub(crate) struct Run {
    /// The base: a column file, read lazily.
    base: Option<Arc<FileSource>>,
    /// The base's zone tree (empty without a base): built once from the
    /// base's metadata, then shared by every run that extends this one.
    base_zones: Arc<ZoneTree>,
    /// The resident segments after the base, with their metadata —
    /// shared by handle with the run this one extends, so an append
    /// derives metadata for its new segments only — and their zone
    /// tree, rebuilt with them.
    segments: Vec<Arc<Segment>>,
    metas: Vec<Arc<SegmentMeta>>,
    zones: ZoneTree,
}

/// Where one segment of a [`Run`] lives: in the base at the same index,
/// or at a position of the resident list.
enum Slot<'a> {
    Base(&'a FileSource),
    Resident(usize),
}

impl Run {
    /// `base`'s segments, if any, followed by `segments` (shared
    /// handles, no copies). The base's zone tree is built here, from
    /// its metadata.
    fn new(base: Option<Arc<FileSource>>, segments: Vec<Arc<Segment>>) -> Run {
        let base_zones = match &base {
            Some(source) => ZoneTree::build(source.metas.iter()),
            None => ZoneTree::default(),
        };
        let metas = segments
            .iter()
            .map(|s| Arc::new(SegmentMeta::of(s)))
            .collect();
        Run::with_resident(base, Arc::new(base_zones), segments, metas)
    }

    /// This run with `segments`, whose metadata the encode derived as
    /// `metas`, after its resident ones: the base, its zone tree and the
    /// resident handles and metadata are shared, and only the tail's
    /// tree is rebuilt.
    fn extended(&self, segments: Vec<Arc<Segment>>, metas: Vec<Arc<SegmentMeta>>) -> Run {
        let metas = self.metas.iter().cloned().chain(metas).collect();
        let resident = self.segments.iter().cloned().chain(segments).collect();
        Run::with_resident(
            self.base.clone(),
            Arc::clone(&self.base_zones),
            resident,
            metas,
        )
    }

    fn with_resident(
        base: Option<Arc<FileSource>>,
        base_zones: Arc<ZoneTree>,
        segments: Vec<Arc<Segment>>,
        metas: Vec<Arc<SegmentMeta>>,
    ) -> Run {
        Run {
            base,
            base_zones,
            zones: ZoneTree::build(metas.iter().map(Arc::as_ref)),
            metas,
            segments,
        }
    }

    fn len(&self) -> usize {
        self.base.as_ref().map_or(0, |base| base.num_segments()) + self.segments.len()
    }

    fn slot(&self, idx: usize) -> Slot<'_> {
        match &self.base {
            Some(base) if idx < base.num_segments() => Slot::Base(base),
            Some(base) => Slot::Resident(idx - base.num_segments()),
            None => Slot::Resident(idx),
        }
    }

    fn meta(&self, idx: usize) -> &SegmentMeta {
        match self.slot(idx) {
            Slot::Base(base) => base.meta(idx),
            Slot::Resident(i) => &self.metas[i], // lint: allow(panic) — `meta` indexes like a slice: past the end is a caller bug
        }
    }
}

/// The zone tree of no segments.
static NO_ZONES: ZoneTree = ZoneTree {
    len: 0,
    hulls: Vec::new(),
    live: Vec::new(),
};

/// The hull of no segment: every `min` and `max` folds into it.
const NO_HULL: (i128, i128) = (i128::MAX, i128::MIN);

/// An implicit binary tree of zone hulls over a list of segments — the
/// zone map one level up. A leaf is one segment. A node holds the hull
/// of the non-empty segments below it (the min of their mins, the max
/// of their maxes) and how many they are; empty segments stay out of
/// every hull. One test against a node's hull can settle every segment
/// under it (see `clause_zone` in `query::physical`).
///
/// The tree is complete over the segment count rounded up to a power of
/// two, p, in heap order: node 0 is the root, node i's children are
/// 2i + 1 and 2i + 2, and segment j is node p − 1 + j. That is 2p − 1
/// nodes, built bottom-up in one pass; nodes past the last segment hold
/// nothing and are never visited.
#[derive(Default)]
pub(crate) struct ZoneTree {
    /// How many segments the tree covers.
    len: usize,
    /// Every node's `(min, max)` hull, in heap order.
    hulls: Vec<(i128, i128)>,
    /// Every node's count of non-empty segments, in heap order.
    live: Vec<u32>,
}

impl ZoneTree {
    /// The tree over `metas`' zone maps, in order.
    pub(crate) fn build<'m>(metas: impl ExactSizeIterator<Item = &'m SegmentMeta>) -> ZoneTree {
        let len = metas.len();
        if len == 0 {
            return ZoneTree::default();
        }
        let first_leaf = len.next_power_of_two() - 1;
        let mut hulls = vec![NO_HULL; 2 * first_leaf + 1];
        let mut live = vec![0; 2 * first_leaf + 1];
        let leaves = hulls.iter_mut().zip(&mut live).skip(first_leaf);
        for ((hull, count), meta) in leaves.zip(metas) {
            if meta.rows > 0 {
                (*hull, *count) = ((meta.min, meta.max), 1);
            }
        }
        for node in (0..first_leaf).rev() {
            let (left, right) = (2 * node + 1, 2 * node + 2);
            if let (Some(&(lmin, lmax)), Some(&(rmin, rmax))) = (hulls.get(left), hulls.get(right))
            {
                let count =
                    live.get(left).copied().unwrap_or(0) + live.get(right).copied().unwrap_or(0);
                if let (Some(hull), Some(live)) = (hulls.get_mut(node), live.get_mut(node)) {
                    (*hull, *live) = ((lmin.min(rmin), lmax.max(rmax)), count);
                }
            }
        }
        ZoneTree { len, hulls, live }
    }

    /// How many segments the tree covers.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Node `index`'s `(min, max)` hull; inverted (`min > max`) for a
    /// node without a non-empty segment.
    pub(crate) fn hull(&self, index: usize) -> (i128, i128) {
        self.hulls.get(index).copied().unwrap_or(NO_HULL)
    }

    /// Walk the tree top-down in segment order: `visit` sees a node and
    /// says whether to descend into its children. A node over one
    /// segment has none.
    pub(crate) fn descend(&self, mut visit: impl FnMut(ZoneNode) -> bool) {
        if self.len > 0 {
            self.descend_from(0, 0, self.len.next_power_of_two(), &mut visit);
        }
    }

    /// Visit node `index`, which spans `width` leaves from segment
    /// `lo`, then its children if asked; nodes past the last segment
    /// are skipped.
    fn descend_from<F: FnMut(ZoneNode) -> bool>(
        &self,
        index: usize,
        lo: usize,
        width: usize,
        visit: &mut F,
    ) {
        if lo >= self.len {
            return;
        }
        let hi = (lo + width).min(self.len);
        let live = self.live.get(index).map_or(0, |&live| live as usize);
        if visit(ZoneNode {
            index,
            lo,
            hi,
            live,
        }) && hi - lo > 1
        {
            let half = width / 2;
            self.descend_from(2 * index + 1, lo, half, visit);
            self.descend_from(2 * index + 2, lo + half, half, visit);
        }
    }
}

impl std::fmt::Debug for ZoneTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ZoneTree")
            .field("segments", &self.len())
            .field("root", &self.hull(0))
            .finish()
    }
}

/// One node of a [`ZoneTree`], as a walk sees it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ZoneNode {
    /// Heap-order position, for [`ZoneTree::hull`].
    pub(crate) index: usize,
    /// First segment covered, as an index into the tree's list.
    pub(crate) lo: usize,
    /// One past the last segment covered.
    pub(crate) hi: usize,
    /// How many of the covered segments are non-empty.
    pub(crate) live: usize,
}

impl Column {
    /// One run: `base`'s segments, if any, followed by `segments`.
    pub(crate) fn new(base: Option<Arc<FileSource>>, segments: Vec<Arc<Segment>>) -> Column {
        Column::of_runs(vec![Arc::new(Run::new(base, segments))])
    }

    /// The runs of `columns`, in order, shared by handle: no metadata
    /// is copied and no segment re-checked. `None` without a column.
    pub(crate) fn concat<'c>(columns: impl IntoIterator<Item = &'c Column>) -> Option<Column> {
        let runs: Vec<Arc<Run>> = columns
            .into_iter()
            .flat_map(|column| column.runs.iter().cloned())
            .collect();
        (!runs.is_empty()).then(|| Column::of_runs(runs))
    }

    fn of_runs(runs: Vec<Arc<Run>>) -> Column {
        let ends = runs.iter().scan(0, |end, run| {
            *end += run.len();
            Some(*end)
        });
        let starts = std::iter::once(0).chain(ends).collect();
        Column { runs, starts }
    }

    /// This column with `segments` (and their `metas`, in order)
    /// appended to run `run`: that run's base and resident handles are
    /// kept, every other run shared. Past the last run changes nothing.
    pub(crate) fn extend(
        &self,
        run: usize,
        segments: Vec<Arc<Segment>>,
        metas: Vec<Arc<SegmentMeta>>,
    ) -> Column {
        let mut runs = self.runs.clone();
        if let Some(slot) = runs.get_mut(run) {
            *slot = Arc::new(slot.extended(segments, metas));
        }
        Column::of_runs(runs)
    }

    #[cfg(test)]
    pub(crate) fn runs(&self) -> &[Arc<Run>] {
        &self.runs
    }

    /// Run `run` alone, as a one-run column sharing its handle (its
    /// base, cache and zone trees included).
    pub(crate) fn run(&self, run: usize) -> Option<Column> {
        let run = self.runs.get(run)?;
        Some(Column::of_runs(vec![Arc::clone(run)]))
    }

    /// How many zone trees the column has: two per run, its base's and
    /// its resident tail's.
    pub(crate) fn zone_parts(&self) -> usize {
        2 * self.runs.len()
    }

    /// Zone tree `part`, in segment order: run `part / 2`'s base tree
    /// for an even part, its resident tail's for an odd one (empty past
    /// the end). Columns of one table share their run shapes, so part
    /// `p` covers the same segments in every column.
    pub(crate) fn zone_tree(&self, part: usize) -> &ZoneTree {
        match (self.runs.get(part / 2), part % 2) {
            (Some(run), 0) => &run.base_zones,
            (Some(run), _) => &run.zones,
            (None, _) => &NO_ZONES,
        }
    }

    /// The first segment index of every run, then the segment count.
    pub(crate) fn run_starts(&self) -> &[usize] {
        &self.starts
    }

    /// The resident segments of every run, in order.
    pub(crate) fn resident_segments(&self) -> impl Iterator<Item = &Arc<Segment>> {
        self.runs.iter().flat_map(|run| run.segments.iter())
    }

    /// Bytes of the distinct shared dictionaries the column's segments
    /// reference, each counted once — what their metadata leaves out.
    pub fn dictionary_bytes(&self) -> usize {
        let mut seen: Vec<&Arc<SharedDict>> = Vec::new();
        for run in &self.runs {
            let base = run.base.iter().flat_map(|base| base.dicts.iter().flatten());
            let resident = run
                .segments
                .iter()
                .filter_map(|seg| seg.compressed.shared_dict());
            for dict in base.chain(resident) {
                if !seen.iter().any(|d| Arc::ptr_eq(d, dict)) {
                    seen.push(dict);
                }
            }
        }
        seen.iter()
            .map(|dict| dict.values().uncompressed_bytes())
            .sum()
    }

    /// Every run's base, in order.
    pub(crate) fn bases(&self) -> impl Iterator<Item = &Arc<FileSource>> {
        self.runs.iter().filter_map(|run| run.base.as_ref())
    }

    /// The run holding segment `idx`, and the index inside it. A
    /// one-run column pays one comparison; past the end lands in the
    /// last run, whose own lookup reports it.
    fn locate(&self, idx: usize) -> (&Run, usize) {
        let last = self.runs.len().saturating_sub(1);
        let r = match last {
            0 => 0,
            _ => (self
                .starts
                .partition_point(|&start| start <= idx)
                .saturating_sub(1))
            .min(last),
        };
        // lint: allow(panic) — a column holds at least one run, and `starts` one entry per run more
        (&self.runs[r], idx - self.starts[r])
    }

    /// Number of segments.
    pub fn num_segments(&self) -> usize {
        self.starts.last().copied().unwrap_or(0)
    }

    /// Planner-visible metadata of segment `idx` (no payload access).
    /// Panics at or past [`Column::num_segments`], like a slice index.
    pub fn meta(&self, idx: usize) -> &SegmentMeta {
        let (run, i) = self.locate(idx);
        run.meta(i)
    }

    /// The payload of segment `idx`: a resident handle, or a frame read
    /// through its base's cache on demand. Past the end is a typed
    /// error.
    pub fn segment(&self, idx: usize) -> Result<Arc<Segment>> {
        let (run, i) = self.locate(idx);
        match run.slot(i) {
            Slot::Base(base) => base.segment(i),
            Slot::Resident(r) => run
                .segments
                .get(r)
                .map(Arc::clone)
                .ok_or_else(|| no_segment(idx, self.num_segments())),
        }
    }

    /// Payload fetches that actually hit the disk so far, summed over
    /// the bases' cache misses — 0 forever for a resident column.
    pub fn io_reads(&self) -> usize {
        self.bases().map(|base| base.io_reads()).sum()
    }

    /// Hint that segment `idx` will be fetched soon: warm its base's
    /// cache. Returns `true` only when the hint did real work (this
    /// call read the frame from disk). Best-effort — I/O errors are
    /// swallowed here and resurface on the real [`Column::segment`]
    /// fetch. Resident segments have nothing to warm.
    pub(crate) fn prefetch(&self, idx: usize) -> bool {
        let (run, i) = self.locate(idx);
        matches!(run.slot(i), Slot::Base(base) if base.prefetch(i))
    }

    /// Drain the bases' `(prefetch hits, prefetch wasted)` counters
    /// accumulated since the last drain: hits are fetches served from a
    /// frame a [`Column::prefetch`] call loaded, wasted are frames
    /// prefetch loaded that no fetch ever consumed — whether they were
    /// evicted before the scan reached them (counted once per frame at
    /// eviction, however many times the frame is re-warmed) or simply
    /// left warm and untouched at the end. The executor drains once per
    /// query, once per distinct column; concurrent queries over one
    /// column share the counters (they describe the column, not a
    /// single plan).
    pub(crate) fn take_prefetch_counters(&self) -> (usize, usize) {
        self.bases().fold((0, 0), |(hits, wasted), base| {
            let (h, w) = base.take_prefetch_counters();
            (hits + h, wasted + w)
        })
    }

    /// How many decoded segments the tightest base can keep resident at
    /// once, or `None` for a resident column, whose fetches are free.
    /// The executor clamps its prefetch window *below* this bound so the
    /// prefetcher can never evict a frame before the scan consumes it
    /// (see [`crate::ExecOptions::prefetch`]).
    pub(crate) fn cache_capacity(&self) -> Option<usize> {
        self.bases().map(|base| base.cache_capacity).min()
    }

    /// Arm a [`FaultPlan`] on every base: their subsequent disk reads
    /// run through the plan's `io_read`/`io_stall` rules. Resident
    /// segments have no reads to fail.
    pub(crate) fn inject_faults(&self, plan: &Arc<FaultPlan>) {
        for base in self.bases() {
            base.inject_faults(plan);
        }
    }
}

/// The typed error for a segment index at or past a source's end.
fn no_segment(idx: usize, segments: usize) -> StoreError {
    StoreError::Shape(format!("segment {idx} out of range ({segments} segments)"))
}

/// Where one record sits inside its column file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FrameLocation {
    /// Byte offset of the record (header, frame, checksum) in the file.
    pub offset: u64,
    /// Total record length in bytes.
    pub len: u64,
}

/// Lazily loads segments from a `.col` file written by
/// [`crate::file::save_table`], one frame per request, behind a small
/// LRU cache. Zone maps and scheme tags come from the table manifest,
/// so planning never touches the file. Every mutex below guards a
/// structure that is valid after each individual operation, so a
/// poisoned guard is recovered rather than panicking a session.
pub(crate) struct FileSource {
    path: PathBuf,
    column: String,
    dtype: DType,
    metas: Vec<SegmentMeta>,
    locations: Vec<FrameLocation>,
    /// Per segment, the shared dictionary its frame references, read
    /// at open: one handle per dictionary, attached at every fetch.
    dicts: Vec<Option<Arc<SharedDict>>>,
    cache_capacity: usize,
    cache: Mutex<LruCache<usize, Arc<Segment>>>,
    /// Opened on the first fetch, then reused — cache misses pay a
    /// positioned read, not an open+seek+read+close cycle. Unix-only:
    /// other targets lack positioned reads and reopen per miss.
    #[cfg(unix)]
    handle: Mutex<Option<Arc<fs::File>>>,
    io_reads: AtomicUsize,
    /// Single-flight guard: frame indices currently being loaded.
    /// Fetchers of an in-flight frame wait on the condvar instead of
    /// issuing a duplicate read — that keeps `io_reads` identical with
    /// and without a prefetcher racing the scan.
    inflight: Mutex<HashSet<usize>>,
    loaded: Condvar,
    /// Frames loaded by [`FileSource::prefetch`] and not yet consumed
    /// by a fetch; drained by `take_prefetch_counters`.
    prefetched: Mutex<HashSet<usize>>,
    /// Frames a prefetch warmed that the cache evicted *before* any
    /// fetch consumed them — the definitive waste. A set, not a
    /// counter: a frame re-warmed after such an eviction (a retry) and
    /// evicted again still counts one wasted frame, and a retry that
    /// finally gets consumed keeps its one recorded eviction (the read
    /// it wasted really happened) alongside its hit.
    wasted: Mutex<HashSet<usize>>,
    prefetch_hits: AtomicUsize,
    /// Armed once (before serving) by [`FileSource::inject_faults`];
    /// the read path pays one pointer load when no plan is set.
    faults: OnceLock<Arc<FaultPlan>>,
    /// A test's trap, armed once by [`FileSource::arm_trap`]: it sees
    /// every fetch's index first, and may panic or block on it.
    #[cfg(test)]
    trap: OnceLock<Box<dyn Fn(usize) + Send + Sync>>,
}

impl std::fmt::Debug for FileSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileSource")
            .field("path", &self.path)
            .field("column", &self.column)
            .field("segments", &self.metas.len())
            .field("io_reads", &self.io_reads())
            .finish()
    }
}

impl FileSource {
    /// A lazy source over one persisted column. `metas` and `locations`
    /// come from the table manifest, each segment's `dicts` entry from
    /// the column file's dictionary records; `cache_capacity` bounds how
    /// many decoded segments stay resident (minimum 1).
    pub(crate) fn new(
        path: PathBuf,
        column: &str,
        dtype: DType,
        (metas, locations, dicts): (
            Vec<SegmentMeta>,
            Vec<FrameLocation>,
            Vec<Option<Arc<SharedDict>>>,
        ),
        cache_capacity: usize,
    ) -> Result<FileSource> {
        if metas.len() != locations.len() || metas.len() != dicts.len() {
            return Err(StoreError::Shape(format!(
                "column {column}: {} segment metas, {} frame locations, {} dictionary references",
                metas.len(),
                locations.len(),
                dicts.len()
            )));
        }
        // Every frame must fit the file — checked up front with
        // overflow-safe arithmetic, so no later fetch can attempt a
        // manifest-length-sized allocation past the file's end.
        let file_len = fs::metadata(&path)?.len();
        for (idx, loc) in locations.iter().enumerate() {
            if loc
                .offset
                .checked_add(loc.len)
                .is_none_or(|end| end > file_len)
            {
                return Err(StoreError::CorruptFile(format!(
                    "{column}: segment {idx} extends past end of file"
                )));
            }
        }
        Ok(FileSource {
            path,
            column: column.to_string(),
            dtype,
            metas,
            locations,
            dicts,
            cache_capacity: cache_capacity.max(1),
            cache: Mutex::new(LruCache::new(cache_capacity.max(1))),
            #[cfg(unix)]
            handle: Mutex::new(None),
            io_reads: AtomicUsize::new(0),
            inflight: Mutex::new(HashSet::new()),
            loaded: Condvar::new(),
            prefetched: Mutex::new(HashSet::new()),
            wasted: Mutex::new(HashSet::new()),
            prefetch_hits: AtomicUsize::new(0),
            faults: OnceLock::new(),
            #[cfg(test)]
            trap: OnceLock::new(),
        })
    }

    /// Serve `idx` from the cache if present, counting a prefetch hit
    /// when the cached frame came from a prefetch and was not yet
    /// consumed. Consuming a *prefetched* frame deliberately does not
    /// bump its recency: warmed frames then age out of the cache in
    /// warm order, consumed-first — if the hit bumped instead, a few
    /// consumed frames would sit at the recent end and the next
    /// eviction would take the oldest *unconsumed* warmed frame, the
    /// exact one the scan needs next. Scan-initiated fetches (never
    /// warmed) keep normal LRU recency.
    fn cached(&self, idx: usize) -> Option<Arc<Segment>> {
        // The cache guard drops at the end of each statement: the
        // prefetched lock is never taken while holding it (the load
        // path acquires them in the opposite order).
        let hit = self
            .cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .peek(&idx)?;
        if self
            .prefetched
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&idx)
        {
            // ordering: statistics counter; drained via swap and read
            // after the consuming scan joined its workers.
            self.prefetch_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            // The cache guard from the probe above was already dropped:
            // a sequential re-acquisition for the LRU touch, never nested
            // inside `prefetched`.
            self.cache
                .lock() // lint: allow(locks) — sequential, never nested
                .unwrap_or_else(PoisonError::into_inner)
                .touch(&idx);
        }
        Some(hit)
    }

    /// Release the single-flight claim on `idx` and wake waiters.
    fn release(&self, idx: usize) {
        self.inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&idx);
        self.loaded.notify_all();
    }

    /// Load `idx` under a held single-flight claim, publishing to the
    /// cache on success. Always releases the claim. With
    /// `mark_prefetched`, the frame joins the `prefetched` set *before*
    /// it becomes visible in the cache — a concurrent fetch can never
    /// observe the frame without its mark, so the hits/wasted ledger
    /// stays exact even when prefetch and scan race on one frame.
    fn load_claimed(&self, idx: usize, mark_prefetched: bool) -> Result<Arc<Segment>> {
        let frame = (
            self.locations.get(idx),
            self.metas.get(idx),
            self.dicts.get(idx),
        );
        let result = match frame {
            (Some(&loc), Some(meta), Some(dict)) => self.read_record(idx, loc).and_then(|record| {
                let dtype = self.dtype;
                let dict = dict.as_ref();
                crate::file::decode_record(&record, &self.column, idx, meta, dtype, dict)
            }),
            _ => Err(no_segment(idx, self.metas.len())),
        };
        let out = match result {
            Ok(segment) => {
                let loaded = Arc::new(segment);
                // ordering: statistics counter, read by tests after the
                // loading threads are joined.
                self.io_reads.fetch_add(1, Ordering::Relaxed);
                if mark_prefetched {
                    self.prefetched
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .insert(idx);
                }
                // The mark-then-publish sequence is deliberate (see the
                // doc comment); the prefetched guard is already dropped,
                // so the two locks never nest.
                let evicted = self
                    .cache
                    .lock() // lint: allow(locks) — sequential after prefetched, never nested
                    .unwrap_or_else(PoisonError::into_inner)
                    .put(idx, Arc::clone(&loaded));
                // A warmed frame pushed out before any fetch consumed
                // it is waste, settled here at eviction time — once per
                // frame, no matter how many retries re-warm it. (The
                // cache guard is already released; lock order stays
                // cache → prefetched → wasted everywhere.)
                if let Some((evicted_idx, _)) = evicted {
                    if self
                        .prefetched
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .remove(&evicted_idx)
                    {
                        self.wasted
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .insert(evicted_idx);
                    }
                }
                Ok(loaded)
            }
            Err(e) => Err(e),
        };
        self.release(idx);
        out
    }

    /// The shared column-file handle, opened on first use.
    #[cfg(unix)]
    fn file(&self) -> Result<Arc<fs::File>> {
        let mut guard = self.handle.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(file) = &*guard {
            return Ok(Arc::clone(file));
        }
        let file = Arc::new(fs::File::open(&self.path)?);
        *guard = Some(Arc::clone(&file));
        Ok(file)
    }

    /// Read one frame's record bytes. Positioned reads on Unix keep
    /// concurrent misses seek-free on one shared handle; elsewhere each
    /// read reopens and seeks. Only a short read is reported as
    /// truncation — transient I/O failures stay `StoreError::Io`.
    fn read_record(&self, idx: usize, loc: FrameLocation) -> Result<Vec<u8>> {
        // The chaos seam: an armed plan may stall this read or fail it
        // with a typed injected error before any bytes move.
        if let Some(plan) = self.faults.get() {
            plan.on_io_read(&self.column)?;
        }
        let mut record = vec![0u8; loc.len as usize];
        let read_failed = |e: std::io::Error| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                StoreError::CorruptFile(format!(
                    "{}: segment {idx} truncated (wanted {} bytes at offset {})",
                    self.column, loc.len, loc.offset
                ))
            } else {
                StoreError::Io(e)
            }
        };
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file()?
                .read_exact_at(&mut record, loc.offset)
                .map_err(read_failed)?;
        }
        #[cfg(not(unix))]
        {
            use std::io::{Read, Seek, SeekFrom};
            let mut file = fs::File::open(&self.path)?;
            file.seek(SeekFrom::Start(loc.offset))?;
            file.read_exact(&mut record).map_err(read_failed)?;
        }
        Ok(record)
    }

    /// Number of segments in the column file.
    pub(crate) fn num_segments(&self) -> usize {
        self.metas.len()
    }

    /// Segment `idx`'s manifest metadata (no file access).
    pub(crate) fn meta(&self, idx: usize) -> &SegmentMeta {
        &self.metas[idx] // lint: allow(panic) — `meta` indexes like a slice: past the end is a caller bug
    }

    /// Arm a test trap that sees every [`FileSource::segment`] call's
    /// index before the fetch; the first trap armed wins.
    #[cfg(test)]
    pub(crate) fn arm_trap(&self, trap: impl Fn(usize) + Send + Sync + 'static) {
        let _ = self.trap.set(Box::new(trap));
    }

    /// The segment payload, served from the cache or read from the file
    /// (single-flight: concurrent misses on one frame make one read).
    pub(crate) fn segment(&self, idx: usize) -> Result<Arc<Segment>> {
        #[cfg(test)]
        if let Some(trap) = self.trap.get() {
            trap(idx);
        }
        loop {
            if let Some(hit) = self.cached(idx) {
                return Ok(hit);
            }
            // Miss: either claim the load or wait for whoever holds it
            // (I/O happens outside every lock; waiters re-check the
            // cache on wake, so a loader's failure just hands the claim
            // to the next fetcher).
            let mut inflight = self.inflight.lock().unwrap_or_else(PoisonError::into_inner);
            if inflight.insert(idx) {
                drop(inflight);
                // Re-probe before reading: the previous claim holder
                // may have published the frame between our cache miss
                // and winning this claim — loading again would break
                // the one-read-per-frame invariant.
                if let Some(hit) = self.cached(idx) {
                    self.release(idx);
                    return Ok(hit);
                }
                return self.load_claimed(idx, false);
            }
            let _waited = self
                .loaded
                .wait(inflight)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Frames read from the file so far (cache misses).
    pub(crate) fn io_reads(&self) -> usize {
        // ordering: statistics read; callers only compare totals after
        // the threads that loaded have been joined.
        self.io_reads.load(Ordering::Relaxed)
    }

    /// Warm frame `idx` in the cache; `true` only when this call read
    /// it from the file. A failed read warms nothing and stays silent.
    pub(crate) fn prefetch(&self, idx: usize) -> bool {
        if idx >= self.metas.len()
            || self
                .cache
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .contains(&idx)
        {
            return false;
        }
        {
            let mut inflight = self.inflight.lock().unwrap_or_else(PoisonError::into_inner);
            if !inflight.insert(idx) {
                // Someone (the scan, most likely) is already loading it;
                // adding a second read would defeat the overlap.
                return false;
            }
        }
        // Re-probe before reading (same race as in `segment`): a claim
        // holder may have published the frame since the probe above.
        // The inflight guard was dropped at the end of the claim block:
        // cache is re-probed sequentially, not nested under inflight.
        if self
            .cache
            .lock() // lint: allow(locks) — sequential, never nested
            .unwrap_or_else(PoisonError::into_inner)
            .contains(&idx)
        {
            self.release(idx);
            return false;
        }
        // The prefetched mark is set by `load_claimed` before the frame
        // is published, so even a fetch racing this load counts as a
        // hit, never as waste. A failed load warms nothing and stays
        // silent — the scan's own fetch will surface the error.
        self.load_claimed(idx, true).is_ok()
    }

    /// Drain `(prefetch hits, prefetch wasted)` (see
    /// [`Column::take_prefetch_counters`]).
    pub(crate) fn take_prefetch_counters(&self) -> (usize, usize) {
        // ordering: drain of a statistics counter; exactness per frame
        // comes from the prefetched-mark protocol, not the atomic.
        let hits = self.prefetch_hits.swap(0, Ordering::Relaxed);
        // Wasted = frames evicted before use plus frames still warm and
        // never consumed, as a *union*: a frame evicted, re-warmed, and
        // left pending is one wasted frame, not two. Locks are taken
        // one at a time, never nested.
        let mut union: HashSet<usize> = self
            .prefetched
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain()
            .collect();
        union.extend(
            self.wasted
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .drain(),
        );
        (hits, union.len())
    }

    /// Arm a [`FaultPlan`] on this file's reads.
    pub(crate) fn inject_faults(&self, plan: &Arc<FaultPlan>) {
        // First plan wins; re-arming is a startup-configuration error,
        // not a runtime hazard, so it is simply ignored.
        let _ = self.faults.set(Arc::clone(plan));
    }
}

/// Tiny exact LRU over `(key, value)` pairs — most-recently-used at
/// the back. Capacities are small (tens to hundreds), so a `Vec` scan
/// beats a linked hash map. Shared by the per-column segment cache
/// (`usize -> Arc<Segment>`) and the catalog's result cache.
#[derive(Debug)]
pub(crate) struct LruCache<K: PartialEq, V: Clone> {
    capacity: usize,
    entries: Vec<(K, V)>,
}

impl<K: PartialEq, V: Clone> LruCache<K, V> {
    /// An empty cache holding at most `capacity` entries (0 caches
    /// nothing).
    pub(crate) fn new(capacity: usize) -> LruCache<K, V> {
        LruCache {
            capacity,
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Whether `key` is cached, *without* touching recency — probe used
    /// by the prefetcher, which must not distort the scan's LRU order.
    pub(crate) fn contains(&self, key: &K) -> bool {
        self.entries.iter().any(|(k, _)| k == key)
    }

    /// The cached value for `key`, if any, *without* touching recency.
    pub(crate) fn peek(&self, key: &K) -> Option<V> {
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    }

    /// Mark `key` most recent if present (the bump half of
    /// [`Self::get`], for callers that decided on a [`Self::peek`]).
    pub(crate) fn touch(&mut self, key: &K) {
        if let Some(pos) = self.entries.iter().position(|(k, _)| k == key) {
            let entry = self.entries.remove(pos);
            self.entries.push(entry);
        }
    }

    /// The cached value for `key`, if any, marking it most recent.
    pub(crate) fn get(&mut self, key: &K) -> Option<V> {
        let pos = self.entries.iter().position(|(k, _)| k == key)?;
        let entry = self.entries.remove(pos);
        let value = entry.1.clone();
        self.entries.push(entry);
        Some(value)
    }

    /// Insert (or refresh) `key`, evicting the least recent entry at
    /// capacity. Returns the entry evicted to make room (`None` when
    /// there was room, when the put only refreshed an existing key, or
    /// when a zero-capacity cache dropped the insert outright) so the
    /// segment cache can move the victim's prefetch mark to the wasted
    /// ledger. Note the `None`-on-refresh case: byte-budget accounting
    /// cannot be settled from this return alone (a same-key replacement
    /// swaps payloads invisibly), which is why the result cache recounts
    /// via [`Self::values`] / evicts via [`Self::pop_lru`] instead.
    pub(crate) fn put(&mut self, key: K, value: V) -> Option<(K, V)> {
        if self.capacity == 0 {
            return None;
        }
        let mut evicted = None;
        if let Some(pos) = self.entries.iter().position(|(k, _)| k == &key) {
            self.entries.remove(pos);
        } else if self.entries.len() == self.capacity {
            evicted = Some(self.entries.remove(0));
        }
        self.entries.push((key, value));
        evicted
    }

    /// Iterate the cached values, least recent first (byte-budget
    /// recounts in the result cache).
    pub(crate) fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Drop and return the least recent entry, if any (byte-budget
    /// eviction in the result cache).
    pub(crate) fn pop_lru(&mut self) -> Option<(K, V)> {
        if self.entries.is_empty() {
            None
        } else {
            Some(self.entries.remove(0))
        }
    }

    /// Drop every entry whose key fails `keep`.
    pub(crate) fn retain(&mut self, keep: impl Fn(&K) -> bool) {
        self.entries.retain(|(k, _)| keep(k));
    }

    /// Remove one entry, if present.
    pub(crate) fn remove(&mut self, key: &K) {
        self.entries.retain(|(k, _)| k != key);
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::CompressionPolicy;
    use lcdc_core::ColumnData;

    fn segments() -> Vec<Segment> {
        (0..4)
            .map(|s| {
                let col = ColumnData::U64((0..100u64).map(|i| s * 1000 + i).collect());
                Segment::build(&col, &CompressionPolicy::Auto).unwrap()
            })
            .collect()
    }

    #[test]
    fn resident_source_round_trips() {
        let segs = segments();
        let want: Vec<ColumnData> = segs.iter().map(|s| s.decompress().unwrap()).collect();
        let src = Column::new(None, segs.into_iter().map(Arc::new).collect());
        assert_eq!(src.num_segments(), 4);
        assert_eq!(src.io_reads(), 0);
        for (i, plain) in want.iter().enumerate() {
            assert_eq!(src.meta(i).rows, 100);
            assert_eq!(src.meta(i).min, i as i128 * 1000);
            assert_eq!(&src.segment(i).unwrap().decompress().unwrap(), plain);
        }
        assert_eq!(src.io_reads(), 0, "resident fetches are never I/O");
        assert!(src.segment(4).is_err(), "out of range is a typed error");
    }

    #[test]
    fn meta_of_mirrors_segment() {
        let col = ColumnData::U64(vec![5, 9, 7, 6]);
        let seg = Segment::build(&col, &CompressionPolicy::Auto).unwrap();
        let m = SegmentMeta::of(&seg);
        assert_eq!(m.rows, 4);
        assert_eq!((m.min, m.max, m.sum), (5, 9, Some(27)));
        assert_eq!(m.bytes, seg.compressed_bytes());
        assert_eq!(m.expr, seg.expr);
    }

    #[test]
    fn prefetch_warms_hits_and_counts_waste() {
        let dir = std::env::temp_dir().join(format!("lcdc_src_prefetch_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let schema = crate::schema::TableSchema::new(&[("v", lcdc_core::DType::U64)]);
        let v = ColumnData::U64((0..1000u64).collect());
        let table =
            crate::table::Table::build(schema, &[v], &[CompressionPolicy::Auto], 100).unwrap();
        crate::file::save_table(&table, &dir).unwrap();
        let lazy = crate::file::open_table_lazy(&dir, 8).unwrap();
        let source = lazy.source("v").unwrap();

        // Prefetch two frames: both are real reads.
        assert!(source.prefetch(0));
        assert!(source.prefetch(1));
        assert!(!source.prefetch(1), "already cached: no second read");
        assert!(!source.prefetch(99), "out of range is a no-op");
        assert!(source.segment(99).is_err(), "out of range is a typed error");
        assert_eq!(source.io_reads(), 2);

        // Consuming one is a hit; fetching an unprefetched frame is not.
        source.segment(0).unwrap();
        source.segment(5).unwrap();
        assert_eq!(source.io_reads(), 3, "frame 0 came from the cache");
        let (hits, wasted) = source.take_prefetch_counters();
        assert_eq!((hits, wasted), (1, 1), "frame 1 was warmed for nothing");
        // Drained: the next drain starts from zero.
        assert_eq!(source.take_prefetch_counters(), (0, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn evicted_before_use_is_wasted_once_even_across_retries() {
        let dir = std::env::temp_dir().join(format!("lcdc_src_evict_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let schema = crate::schema::TableSchema::new(&[("v", lcdc_core::DType::U64)]);
        let v = ColumnData::U64((0..1000u64).collect());
        let table =
            crate::table::Table::build(schema, &[v], &[CompressionPolicy::Auto], 100).unwrap();
        crate::file::save_table(&table, &dir).unwrap();
        // Two-frame cache: the third warm evicts the first.
        let lazy = crate::file::open_table_lazy(&dir, 2).unwrap();
        let source = lazy.source("v").unwrap();

        assert!(source.prefetch(0));
        assert!(source.prefetch(1));
        assert!(source.prefetch(2), "evicts frame 0 before any use");
        // Retry frame 0 (evicts 1), then actually consume it: the
        // retry's read is a hit, the first read stays exactly one
        // recorded waste — not zero (the eviction happened), not two.
        assert!(source.prefetch(0));
        source.segment(0).unwrap();
        let (hits, wasted) = source.take_prefetch_counters();
        assert_eq!(hits, 1);
        // Wasted union: {0, 1} evicted-before-use + {2} warmed and never
        // consumed; frame 0's hit does not erase its wasted first read.
        assert_eq!(wasted, 3);
        assert_eq!(source.take_prefetch_counters(), (0, 0), "drained");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resident_prefetch_is_a_no_op() {
        let src = Column::new(None, segments().into_iter().map(Arc::new).collect());
        assert!(!src.prefetch(0));
        assert_eq!(src.take_prefetch_counters(), (0, 0));
    }

    /// A column over two lazily opened shards, the first with an
    /// appended resident tail, routes each call to the run that owns
    /// the segment and sums what it reports over both bases.
    #[test]
    fn concatenated_columns_route_to_the_owning_base() {
        let dir = std::env::temp_dir().join(format!("lcdc_src_concat_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = |name: &str, cache: usize, from: u64| {
            let schema = crate::schema::TableSchema::new(&[("v", lcdc_core::DType::U64)]);
            let v = ColumnData::U64((from..from + 400).collect());
            let table =
                crate::table::Table::build(schema, &[v], &[CompressionPolicy::Auto], 100).unwrap();
            crate::file::save_table(&table, &dir.join(name)).unwrap();
            crate::file::open_table_lazy(&dir.join(name), cache).unwrap()
        };
        let a = open("a", 2, 0);
        let a = a.append(&[ColumnData::U64(vec![400, 401])]).unwrap();
        let b = open("b", 8, 1000);
        // Segments 0..4 are a's file, 4 its resident tail, 5..9 b's file.
        let column = Column::concat([a.source_at(0), b.source_at(0)]).unwrap();
        assert_eq!(column.num_segments(), 9);
        assert_eq!(column.cache_capacity(), Some(2), "the tightest base");

        assert!(!column.prefetch(4), "a resident tail has nothing to warm");
        assert!(column.prefetch(1));
        assert_eq!((a.io_reads(), b.io_reads()), (1, 0), "segment 1 is a's");
        assert!(column.prefetch(6));
        assert_eq!((a.io_reads(), b.io_reads()), (1, 1), "segment 6 is b's");
        assert_eq!(
            column.segment(6).unwrap().decompress().unwrap(),
            ColumnData::U64((1100..1200).collect())
        );
        column.segment(8).unwrap();
        assert_eq!(column.io_reads(), 3, "summed over both bases");
        // b's warmed frame was consumed, a's never was.
        assert_eq!(column.take_prefetch_counters(), (1, 1));
        assert_eq!(column.take_prefetch_counters(), (0, 0), "drained");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lru_evicts_least_recent() {
        let segs = segments();
        let arcs: Vec<Arc<Segment>> = segs.into_iter().map(Arc::new).collect();
        let mut lru = LruCache::new(2);
        lru.put(0usize, Arc::clone(&arcs[0]));
        lru.put(1, Arc::clone(&arcs[1]));
        assert!(lru.get(&0).is_some()); // 0 now most recent
        lru.put(2, Arc::clone(&arcs[2])); // evicts 1
        assert!(lru.get(&1).is_none());
        assert!(lru.get(&0).is_some());
        assert!(lru.get(&2).is_some());
        lru.put(0, Arc::clone(&arcs[3])); // overwrite, no growth
        assert_eq!(lru.len(), 2);
        lru.remove(&0);
        assert!(lru.get(&0).is_none());
        lru.retain(|_| false);
        assert_eq!(lru.len(), 0);
    }
}
