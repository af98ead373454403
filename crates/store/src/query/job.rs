//! The executor: a compile-once [`Job`] any thread can drive.
//!
//! A query compiles **once** into a `Job` — one [`PhysicalPlan`], the
//! morsel list (segment indices in visit order), the pruned ledger, a
//! cancel token, the shared top-k bound, the prefetch window and the
//! partial results — and execution is one loop: claim a *lease* (a
//! short run of morsels), push it through
//! [`PhysicalPlan::execute_segment`], return. A sharded catalog entry
//! is one table whose columns list every shard's runs, so it compiles
//! and runs exactly like any other table. Who runs that loop is the
//! only thing callers differ in:
//!
//! * **In process** ([`Job::run`]): the calling thread plus
//!   `threads − 1` scoped helpers, so `threads = 1` is sequential
//!   execution by construction.
//! * **`lcdc serve`**: the server's long-lived pool workers take one
//!   lease at a time from a round-robin queue of jobs, while the
//!   session thread waits in [`Job::submit_and_wait`].
//!
//! Pruning happens at compile, on resident metadata: a segment whose
//! zone maps end its visit before any fetch
//! ([`PhysicalPlan::morsels`]) never becomes a morsel, and is
//! charged to the pruned ledger exactly as its visit would have been.
//! The morsel list of a filtered plan therefore holds only the segments
//! the zone maps cannot exclude — a point query over hundreds of
//! segments is one lease, and a shard the filters exclude contributes
//! no morsel ([`QueryStats::shards_pruned`]) — except on top-k and join
//! plans, which keep every segment.
//!
//! Partial sink states belong to a job's lease **slots** — at most its
//! lease cap, handed from one lease to the next and merged once when
//! the result is collected — so per-worker scratch (the join's
//! right-side build maps, the DICT group-by's dense accumulator)
//! survives across leases, and a `threads = 1` job reports the
//! sequential counter ledger wherever it runs.
//!
//! With [`ExecOptions::prefetch`] `> 0` over lazily-backed sources,
//! the job's prefetcher — one step function, stepped by the server
//! session while it waits between cancel ticks, or in process by one
//! more scoped helper — walks the published visit order ahead of
//! the scan cursor and warms the next N *fetching* morsels' un-pruned
//! `(column, segment)` frames in each source's LRU (a morsel answered
//! from metadata alone fetches nothing, so it takes no window slot)
//! (`Column::prefetch`). Frame loads are
//! single-flight, so the prefetcher never duplicates a read the scan
//! already issued — total I/O is unchanged, it just stops blocking the
//! scan. [`QueryStats::prefetch_hits`] / [`QueryStats::prefetch_wasted`]
//! account for the overlap. On top-k runs each queued warm
//! is re-checked against the published bound and dropped when the
//! bound already outbids its segment —
//! [`QueryStats::prefetch_cancelled`] counts the loads saved.
//!
//! Answers and (for non-top-k sinks) segment/row accounting are
//! bit-identical under any lease cap and any prefetch depth: every
//! morsel is executed exactly once by the identical per-segment
//! pipeline, and partial sink states and counters merge associatively.
//! Top-k prune counters may differ, as each slot tightens its own
//! threshold.

use super::cancel::CancelToken;
use super::logical::QuerySpec;
use super::physical::{JoinRight, PhysicalPlan, Scratch, Sink, SinkState, TOPK_BOUND_UNSET};
use super::result::QueryResult;
use super::stats::QueryStats;
use crate::source::Column;
use crate::table::Table;
use crate::{Result, StoreError};
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How a compiled plan should be driven: worker count and prefetch
/// depth. Execution options never change a query's answer — only how
/// the same per-segment pipeline is scheduled.
///
/// ```
/// use lcdc_core::{ColumnData, DType};
/// use lcdc_store::{Agg, CompressionPolicy, ExecOptions, QueryBuilder, Table, TableSchema};
///
/// let table = Table::build(
///     TableSchema::new(&[("v", DType::U64)]),
///     &[ColumnData::U64((0..4000).collect())],
///     &[CompressionPolicy::Auto],
///     512,
/// )
/// .unwrap();
/// let opts = ExecOptions::threads(4).with_prefetch(6);
/// let parallel = QueryBuilder::scan(&table)
///     .aggregate(&[Agg::Sum("v"), Agg::Count])
///     .execute_opts(&opts)
///     .unwrap();
/// let sequential = QueryBuilder::scan(&table)
///     .aggregate(&[Agg::Sum("v"), Agg::Count])
///     .execute()
///     .unwrap();
/// assert_eq!(parallel.rows, sequential.rows, "options never change answers");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Most leases of the query executing at once, clamped to
    /// `[1, morsel count]` and to the executing width: in process, the
    /// calling thread plus `threads − 1` scoped helpers (never more
    /// than the hardware's parallelism; `1` is sequential execution on
    /// the calling thread); over the wire, this query's share of the
    /// server's worker pool.
    pub threads: usize,
    /// How many morsels ahead of the scan cursor the prefetcher keeps
    /// warm (`0` disables prefetch). The prefetcher is a step function
    /// of the job — stepped in process by one more scoped helper beside
    /// the drivers, over the wire by the session thread while it waits
    /// between cancel ticks — so it means the same thing on both, and
    /// the server spawns no thread for it. Only lazily-backed sources
    /// have anything to warm; a plan over resident sources runs no
    /// prefetcher at all.
    ///
    /// **Invariant:** the effective window plus the frame under the
    /// scan cursor always fit inside every touched source's
    /// decoded-segment cache (`Column::cache_capacity`).
    /// A deeper window lets the prefetcher evict a warmed frame before
    /// the scan reaches it (the scan's fetch of the *current* frame
    /// marks it most-recent, leaving the next-needed warmed frame as
    /// the LRU victim) — each eviction a wasted read *plus* a re-read,
    /// strictly worse than no prefetch. The executor enforces this by
    /// clamping: ask for any depth, and a plan over a `FileSource` with
    /// an `N`-frame cache prefetches at most `N - 2` ahead (caches of
    /// one or two frames disable prefetch outright).
    pub prefetch: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            threads: 1,
            prefetch: 0,
        }
    }
}

impl ExecOptions {
    /// Options with a lease cap of `threads` and prefetch off.
    pub fn threads(threads: usize) -> ExecOptions {
        ExecOptions {
            threads,
            ..ExecOptions::default()
        }
    }

    /// Set the prefetch depth.
    pub fn with_prefetch(mut self, depth: usize) -> ExecOptions {
        self.prefetch = depth;
        self
    }
}

/// Most segments one lease claims: small enough that concurrent jobs
/// interleave finely (a worker revisits the queue every few segments),
/// large enough that claiming stays off the per-segment path.
const MAX_LEASE: usize = 8;

/// How many leases per slot a job wider than one slot is cut into
/// (until [`MAX_LEASE`] caps the length): a slot that drew cheap,
/// zone-pruned segments comes back for more, so a 16-segment plan
/// still balances across 4 slots instead of tail-blocking on the one
/// that drew the row tier.
const LEASES_PER_SLOT: usize = 4;

/// How often [`Job::submit_and_wait`] wakes its caller between deliveries —
/// the cadence at which a session notices an expired deadline or a
/// vanished client while its query executes.
const WAIT_TICK: Duration = Duration::from_millis(25);

/// Fires a job's token on drop; see [`Job::run`].
struct ScanOver<'j>(&'j CancelToken);

impl Drop for ScanOver<'_> {
    fn drop(&mut self) {
        self.0.cancel();
    }
}

/// Returns a lease's accounting when its execution unwinds, and fails
/// its job with a typed error: the waiter gets an answer instead of a
/// lease that never comes back. The panicked slot's partial state is
/// dropped — a failed job's partials are never collected.
struct LeaseUnwind<'j>(&'j Job);

impl Drop for LeaseUnwind<'_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        let job = self.0;
        let mut inner = job.lock();
        // Saturating: a panic inside a drop that runs during an unwind
        // would abort the process.
        inner.active = inner.active.saturating_sub(1);
        job.fail(&mut inner, StoreError::Shape("a lease panicked".into()));
        if job.finished(&inner) {
            job.delivered.notify_all();
        }
    }
}

/// A partial result: one lease slot's sink state and counters, plus the
/// scratch its segment visits reuse.
struct Slot {
    state: SinkState,
    stats: QueryStats,
    scratch: Scratch,
}

/// A claimed run of morsels plus the slot its results accumulate in;
/// [`Job::run_lease`] executes it and hands the slot back.
pub(crate) struct Lease {
    start: usize,
    end: usize,
    slot: Slot,
}

struct JobInner {
    /// Leases currently executing.
    active: usize,
    /// Slots no lease holds right now. With no lease active these are
    /// *all* the job's partial results.
    idle: Vec<Slot>,
    /// First error any lease (or the cancel token) raised; the job
    /// hands out no further leases and reports it once in-flight
    /// leases return.
    error: Option<StoreError>,
}

/// One compiled query: everything a thread needs to execute a lease of
/// it, and everything the waiting thread needs to collect the result.
pub(crate) struct Job {
    /// The compiled plan.
    plan: PhysicalPlan,
    /// Every segment to execute, in visit order — only the segments the
    /// zone maps cannot exclude.
    morsels: Vec<usize>,
    /// What segment pruning skipped, accounted without executing.
    pruned: QueryStats,
    /// Checked at every claim and between morsels, so a fired token
    /// abandons all unclaimed work within one lease.
    cancel: Arc<CancelToken>,
    /// The job-wide top-k bound — every slot publishes into and prunes
    /// against the same atomic, so a late lease prunes with an early
    /// one's heap instead of only its own — whenever the sink is top-k.
    /// At one slot it never exceeds that slot's own threshold: it prunes
    /// nothing more, it only counts
    /// ([`QueryStats::topk_segments_skipped`]).
    bound: Option<Arc<AtomicI64>>,
    /// Most leases allowed to execute at once: [`ExecOptions::threads`]
    /// clamped to the executing width and the morsel count.
    lease_cap: usize,
    /// Morsels per lease, derived from the morsel count and the cap.
    lease_len: usize,
    /// How many morsels ahead of the scan cursor the prefetcher keeps
    /// warm (0: no prefetcher).
    prefetch: usize,
    /// Next unclaimed morsel — the scan cursor the prefetch window runs
    /// ahead of. Advanced only under `inner`; read lock-free.
    cursor: AtomicUsize,
    /// Most leases ever executing at once.
    peak_leases: AtomicUsize,
    inner: Mutex<JobInner>,
    /// Signalled when the job finishes, for [`Job::submit_and_wait`].
    delivered: Condvar,
}

impl Job {
    /// A job over `table` (a catalog snapshot, shards and all): `spec`
    /// compiles here, once — where an unknown column errors, before
    /// anything executes. `width` is how many threads can drive the job
    /// at once (the hardware's parallelism in process, the pool's worker
    /// count on the server); `cancel` is checked before anything
    /// compiles.
    pub(crate) fn compile(
        table: &Arc<Table>,
        spec: &QuerySpec,
        right: Option<&Arc<JoinRight>>,
        opts: &ExecOptions,
        width: usize,
        cancel: Arc<CancelToken>,
    ) -> Result<Job> {
        cancel.check()?;
        let plan = spec.compile_join(table, right)?;
        Ok(Job::new(plan, opts, width, cancel))
    }

    /// A job over one already-compiled plan, for in-process execution.
    pub(crate) fn over_plan(plan: PhysicalPlan, opts: &ExecOptions) -> Job {
        let cancel = Arc::new(CancelToken::unbounded());
        Job::new(plan, opts, crate::par::host_width(), cancel)
    }

    fn new(plan: PhysicalPlan, opts: &ExecOptions, width: usize, cancel: Arc<CancelToken>) -> Job {
        let mut pruned = QueryStats::default();
        let morsels = plan.morsels(&mut pruned);
        let lease_cap = opts
            .threads
            .clamp(1, width.max(1))
            .min(morsels.len().max(1));
        let prefetch = prefetch_window(&plan, opts);
        // A prefetching job leases one segment at a time, so the claim
        // cursor *is* the scan cursor its window runs ahead of (such a
        // job is I/O-bound; the claim is noise). A one-slot job has
        // nothing to balance: its leases are as long as fairness to
        // other jobs allows. A wider one is cut so every slot comes
        // back several times.
        let lease_len = if prefetch > 0 {
            1
        } else {
            let leases = if lease_cap == 1 {
                1
            } else {
                lease_cap * LEASES_PER_SLOT
            };
            morsels.len().div_ceil(leases).clamp(1, MAX_LEASE)
        };
        let bound = matches!(plan.sink, Sink::TopK { .. })
            .then(|| Arc::new(AtomicI64::new(TOPK_BOUND_UNSET)));
        Job {
            plan,
            morsels,
            pruned,
            cancel,
            bound,
            lease_cap,
            lease_len,
            prefetch,
            cursor: AtomicUsize::new(0),
            peak_leases: AtomicUsize::new(0),
            inner: Mutex::new(JobInner {
                active: 0,
                idle: Vec::new(),
                error: None,
            }),
            delivered: Condvar::new(),
        }
    }

    /// A poisoned job lock means a lease panicked mid-merge; the
    /// bookkeeping is valid after every individual mutation, so recover
    /// the guard and let the job finish (or fail) normally.
    fn lock(&self) -> MutexGuard<'_, JobInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn next_unclaimed(&self) -> usize {
        // ordering: the cursor only publishes an index — it is advanced
        // under `inner`, and a stale lock-free read merely mis-sizes
        // the prefetch window (or re-queues a drained job) once.
        self.cursor.load(Ordering::Relaxed)
    }

    /// Whether morsels remain that no lease has claimed.
    pub(crate) fn has_unclaimed(&self) -> bool {
        self.next_unclaimed() < self.morsels.len()
    }

    /// Most leases of this job that ever executed at once.
    #[cfg(test)]
    pub(crate) fn peak_leases(&self) -> usize {
        // ordering: statistics read, after the job finished.
        self.peak_leases.load(Ordering::Relaxed)
    }

    /// No lease is running and none will start: every morsel was
    /// claimed (an error claims the rest), so `idle` is the whole
    /// answer.
    fn finished(&self, inner: &JobInner) -> bool {
        inner.active == 0 && !self.has_unclaimed()
    }

    /// Record the job's first error and abandon its unclaimed morsels.
    fn fail(&self, inner: &mut JobInner, error: StoreError) {
        inner.error.get_or_insert(error);
        // ordering: index publication under `inner`, see `next_unclaimed`.
        self.cursor.store(self.morsels.len(), Ordering::Relaxed);
    }

    /// Claim the next lease. `None` with morsels still
    /// [unclaimed](Self::has_unclaimed) means the job is at its lease
    /// cap — come back when a lease returns; `None` without means it is
    /// finished, failed, or fully claimed.
    pub(crate) fn claim(&self) -> Option<Lease> {
        let mut inner = self.lock();
        let start = self.next_unclaimed();
        if start >= self.morsels.len() {
            return None;
        }
        // A fired token abandons every unclaimed morsel right here —
        // the next thread to even look at the job drops it. With no
        // lease in flight this claim is the job's last observer, so it
        // also wakes the waiter; otherwise the last returning lease
        // does.
        if let Err(e) = self.cancel.check() {
            self.fail(&mut inner, e);
            if inner.active == 0 {
                self.delivered.notify_all();
            }
            return None;
        }
        if inner.active >= self.lease_cap {
            return None;
        }
        let end = (start + self.lease_len).min(self.morsels.len());
        // ordering: index publication under `inner`, see `next_unclaimed`.
        self.cursor.store(end, Ordering::Relaxed);
        inner.active += 1;
        // ordering: monotonic high-water mark, read after the fact.
        self.peak_leases.fetch_max(inner.active, Ordering::Relaxed);
        let slot = inner.idle.pop().unwrap_or_else(|| Slot {
            state: SinkState::for_sink_shared(&self.plan.sink, self.bound.clone()),
            stats: QueryStats::default(),
            scratch: Scratch::default(),
        });
        Some(Lease { start, end, slot })
    }

    /// Execute a claimed lease through the per-segment pipeline and
    /// hand its slot back. An error (or a token that fires between
    /// morsels) fails the job: unclaimed morsels are abandoned, leases
    /// already in flight finish their current segment. A panic fails
    /// it too ([`LeaseUnwind`]), so nobody waits on a lease that will
    /// never return.
    pub(crate) fn run_lease(&self, lease: Lease) {
        let Lease {
            start,
            end,
            mut slot,
        } = lease;
        let outcome = {
            let _unwind = LeaseUnwind(self);
            let morsels = self.morsels.get(start..end).unwrap_or_default();
            let outcome = morsels.iter().try_for_each(|&s| {
                self.cancel.check()?;
                self.plan
                    .execute_segment(s, &mut slot.state, &mut slot.scratch, &mut slot.stats)
            });
            // Lease over: hand any improvement publication batching
            // held back to the leases still running.
            slot.state.flush_topk_bound();
            outcome
        };
        let mut inner = self.lock();
        inner.active -= 1;
        inner.idle.push(slot);
        if let Err(e) = outcome {
            self.fail(&mut inner, e);
        }
        if self.finished(&inner) {
            self.delivered.notify_all();
        }
    }

    /// Claim and execute leases until the job has none left for this
    /// thread.
    fn drive(&self) {
        while let Some(lease) = self.claim() {
            self.run_lease(lease);
        }
    }

    /// Execute in process: the calling thread plus `lease cap − 1`
    /// scoped helpers drive the job, and a job with a prefetch window
    /// gets one more scoped helper to step its prefetcher. (Measured:
    /// stepping it on the calling thread instead, with `lease cap`
    /// helpers driving, let the napping caller's wake-ups preempt a
    /// helper between its claim and its fetch several times per query —
    /// the stall the window clamp cannot survive.)
    pub(crate) fn run(&self) -> Result<QueryResult> {
        let fetcher = self.prefetcher();
        let (panicked, prefetch_cancelled) = std::thread::scope(|scope| {
            let fetching = fetcher.map(|mut fetcher| {
                scope.spawn(move || {
                    while fetcher.follow() {}
                    fetcher.cancelled
                })
            });
            let mut panicked = {
                // Fires when the scan is over — by return or by
                // unwinding — so the prefetcher never outlives it, even
                // if every driver died with morsels unclaimed.
                let _scan = ScanOver(&self.cancel);
                let helpers: Vec<_> = (1..self.lease_cap)
                    .map(|_| scope.spawn(|| self.drive()))
                    .collect();
                self.drive();
                // Join every helper before reporting: a panic the scope
                // joined implicitly would re-panic the caller instead.
                let mut panicked = false;
                for helper in helpers {
                    panicked |= helper.join().is_err();
                }
                panicked
            };
            let cancelled = fetching.map(|fetching| fetching.join());
            panicked |= matches!(cancelled, Some(Err(_)));
            (panicked, cancelled.and_then(|joined| joined.ok()))
        });
        if panicked {
            return Err(StoreError::Shape("an executor thread panicked".into()));
        }
        self.collect(prefetch_cancelled)
    }

    /// Hand the job to `submit` (the server's pool queue) and block
    /// until it finishes on whatever threads drive it, calling `tick`
    /// roughly every [`WAIT_TICK`] — the session's chance to poll its
    /// connection and fire the job's [`CancelToken`]. Between ticks the
    /// waiting thread runs the job's prefetcher, so `--prefetch`
    /// overlaps I/O over the wire without the server spawning a thread
    /// per query. Before `submit` it warms the window's first morsels:
    /// no scan runs yet, so nothing races those loads, the window clamp
    /// keeps them cached, and the first leases start on warm frames. A
    /// `tick` error abandons the wait immediately with that error: the
    /// job's token is expected to be fired too, so its unclaimed
    /// morsels are dropped at the next claim and nobody collects the
    /// partials.
    pub(crate) fn submit_and_wait(
        &self,
        submit: impl FnOnce() -> Result<()>,
        mut tick: impl FnMut() -> Result<()>,
    ) -> Result<QueryResult> {
        let mut fetcher = self.prefetcher();
        if let Some(fetcher) = &mut fetcher {
            fetcher.lead();
        }
        submit()?;
        loop {
            let until = Instant::now() + WAIT_TICK;
            if let Some(fetcher) = &mut fetcher {
                while Instant::now() < until && fetcher.follow() {}
            }
            let left = until.saturating_duration_since(Instant::now());
            let (inner, _) = self
                .delivered
                .wait_timeout_while(self.lock(), left, |inner| !self.finished(inner))
                .unwrap_or_else(PoisonError::into_inner);
            let finished = self.finished(&inner);
            drop(inner);
            if finished {
                return self.collect(fetcher.map(|fetcher| fetcher.cancelled));
            }
            tick()?;
        }
    }

    /// Merge a finished job's slots into its result. `prefetched` is
    /// the prefetcher's dropped-warm count, when the job ran one.
    fn collect(&self, prefetched: Option<usize>) -> Result<QueryResult> {
        let (slots, error) = {
            let mut inner = self.lock();
            (std::mem::take(&mut inner.idle), inner.error.take())
        };
        let mut stats = self.pruned;
        if let Some(cancelled) = prefetched {
            // Drain even when a lease failed: stale prefetched marks
            // left in a source would otherwise leak into the next
            // query's hit/wasted ledger.
            for source in touched_sources(&self.plan) {
                let (hits, wasted) = source.take_prefetch_counters();
                stats.prefetch_hits += hits;
                stats.prefetch_wasted += wasted;
            }
            stats.prefetch_cancelled += cancelled;
        }
        if let Some(e) = error {
            return Err(e);
        }
        let mut state = SinkState::for_sink(&self.plan.sink);
        for slot in slots {
            state.merge(slot.state)?;
            stats.absorb(&slot.stats);
        }
        QueryResult::from_state(&self.plan.sink, state, stats)
    }

    /// The job's prefetcher, for one thread to step — `None` when the
    /// window is 0.
    fn prefetcher(&self) -> Option<Prefetcher<'_>> {
        (self.prefetch > 0).then(|| {
            let (entries, fetching_before) = self.prefetch_entries();
            Prefetcher {
                job: self,
                entries,
                fetching_before,
                next: 0,
                depth: self.prefetch,
                cancelled: 0,
            }
        })
    }

    /// The frames the plan is expected to fetch, in morsel order:
    /// `(morsel position, column, segment)`, and for every morsel
    /// position `p` (and the end) how many morsels before `p` fetch
    /// anything. Zone-pruned segments contribute nothing — they were
    /// charged at compile and are not morsels at all.
    fn prefetch_entries(&self) -> (Vec<(usize, usize, usize)>, Vec<usize>) {
        let mut entries = Vec::new();
        let mut fetching_before = Vec::with_capacity(self.morsels.len() + 1);
        let mut fetching = 0;
        let mut cols: Vec<usize> = Vec::new();
        for (pos, &s) in self.morsels.iter().enumerate() {
            fetching_before.push(fetching);
            self.plan.expected_fetches(s, &mut cols);
            entries.extend(cols.iter().map(|&col| (pos, col, s)));
            fetching += usize::from(!cols.is_empty());
        }
        fetching_before.push(fetching);
        (entries, fetching_before)
    }
}

/// The prefetch window for `plan` under `opts`, clamped so it fits
/// every touched source's decoded-segment cache *alongside the frame
/// under the scan cursor*: a deeper window lets the prefetcher evict a
/// warmed frame before the scan consumes it (the scan's fetch of the
/// current frame bumps its recency, leaving the next-needed warmed
/// frame as the LRU victim) — every such eviction is a wasted read
/// plus a re-read, strictly worse than no prefetch (see
/// [`ExecOptions::prefetch`]). Fully resident plans have nothing to
/// warm: their window is 0.
fn prefetch_window(plan: &PhysicalPlan, opts: &ExecOptions) -> usize {
    touched_sources(plan)
        .filter_map(|source| source.cache_capacity())
        .min()
        .map_or(0, |capacity| opts.prefetch.min(capacity.saturating_sub(2)))
}

/// Every column the plan's filter leaves and sink can touch, once
/// each. A column reaches every run's base, so the window clamp and the
/// per-query counter drain cover each shard's cache.
fn touched_sources(plan: &PhysicalPlan) -> impl Iterator<Item = &Column> {
    plan.touched_columns()
        .into_iter()
        .map(|col| plan.table.source_at(col))
}

/// The prefetcher: a step function over a job's expected fetches, run
/// by one thread beside the scan ([`Job::run`]'s extra helper, or the
/// session in [`Job::submit_and_wait`]). Each step warms one entry's
/// frame once its morsel falls inside the window of the next `depth`
/// fetching morsels from the scan cursor, or naps while the window is
/// full. Counting only fetching morsels keeps the window's frames per
/// source at most `depth` (the cache clamp's premise) while letting it
/// reach past morsels that fetch nothing — a range aggregate's far edge
/// segment is warmed while the scan is still on the near one. Entries whose
/// morsel the scan already claimed are skipped — the scan's own
/// (single-flight) fetch covers them — so a finished or failed job
/// (cursor at the end) drains the rest at once.
///
/// On top-k jobs each entry is re-checked against the *current*
/// published bound just before its warm: a segment the bound already
/// outbids is dropped instead of loaded — its visit will zone-prune
/// anyway, so the frame could only ever be a wasted read. Dropped warms
/// count into `cancelled` (the prefetch ledger's third column).
struct Prefetcher<'j> {
    job: &'j Job,
    entries: Vec<(usize, usize, usize)>,
    /// For each morsel position (and the end), how many morsels before
    /// it fetch a frame: the window's unit.
    fetching_before: Vec<usize>,
    /// Next entry to consider.
    next: usize,
    /// The window: how many morsels ahead of the scan cursor to warm.
    depth: usize,
    /// Warms dropped against the shared top-k bound.
    cancelled: usize,
}

impl Prefetcher<'_> {
    /// Warm the frames of the first `depth` morsels, for a thread that
    /// runs before any scan starts.
    fn lead(&mut self) {
        while self
            .entries
            .get(self.next)
            .is_some_and(|&(pos, ..)| self.rank(pos) < self.depth)
            && self.step()
        {}
    }

    /// [`Self::step`] once the scan has started, a nap until then. A
    /// prefetcher runs *ahead of* a scan: warming the first morsels'
    /// frames while the first leases are being claimed races the scan
    /// to the very same loads, and a lease that queues behind this
    /// thread's read sits on its claim while its siblings advance the
    /// window past it — the eviction the window clamp exists to
    /// prevent. (It also means a queued job that expires untouched has
    /// read nothing.)
    fn follow(&mut self) -> bool {
        let job = self.job;
        if job.next_unclaimed() == 0 && job.has_unclaimed() && job.cancel.check().is_ok() {
            Self::nap();
            return true;
        }
        self.step()
    }

    fn nap() {
        std::thread::sleep(Duration::from_micros(20));
    }

    /// Morsel position `pos` in window units: how many morsels before
    /// it fetch a frame (every one of them, for a position past the
    /// end).
    fn rank(&self, pos: usize) -> usize {
        let counts = &self.fetching_before;
        counts.get(pos).or(counts.last()).copied().unwrap_or(0)
    }

    /// Advance by one entry (or one nap). `false` once every entry is
    /// settled or the job's token fired — nothing left to warm.
    fn step(&mut self) -> bool {
        let job = self.job;
        let Some(&(pos, col, seg)) = self.entries.get(self.next) else {
            return false;
        };
        let plan = &job.plan;
        if job.cancel.check().is_err() {
            return false;
        }
        let scanned = job.next_unclaimed();
        if self.rank(pos) >= self.rank(scanned).saturating_add(self.depth) {
            Self::nap();
            return true;
        }
        self.next += 1;
        if pos < scanned {
            return true;
        }
        if let Some(bound) = job.bound.as_deref() {
            if plan.topk_shared_prunes(seg, bound) {
                self.cancelled += 1;
                return true;
            }
        }
        plan.table.source_at(col).prefetch(seg);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use crate::query::{Agg, QuerySpec};
    use crate::schema::TableSchema;
    use crate::segment::CompressionPolicy;
    use crate::table::Table;
    use lcdc_core::{ColumnData, DType};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Four segments with strictly descending zone-map maxima.
    fn descending_table() -> Table {
        let v: Vec<u64> = (0..256u64)
            .map(|i| 1000 - (i / 64) * 100 - i % 64)
            .collect();
        Table::build(
            TableSchema::new(&[("v", DType::U64)]),
            &[ColumnData::U64(v)],
            &[CompressionPolicy::Auto],
            64,
        )
        .expect("builds")
    }

    /// A top-3 job over [`descending_table`] under `cancel`, and a
    /// prefetcher over it with the whole queue inside the window (the
    /// table is resident, so the job itself asks for none).
    fn top3_job(cancel: Arc<CancelToken>) -> Job {
        let spec = QuerySpec::new().top_k("v", 3);
        let table = Arc::new(descending_table());
        Job::compile(&table, &spec, None, &ExecOptions::default(), 1, cancel).expect("compiles")
    }

    fn whole_queue_fetcher(job: &Job) -> Prefetcher<'_> {
        let (entries, fetching_before) = job.prefetch_entries();
        Prefetcher {
            job,
            depth: entries.len() + 1,
            entries,
            fetching_before,
            next: 0,
            cancelled: 0,
        }
    }

    /// The fetcher consults the shared bound per queued warm: with a
    /// bound that outbids every segment, every warm is dropped and
    /// counted; with no publication yet, none are.
    #[test]
    fn fetcher_drops_warms_the_bound_outbids() {
        let job = top3_job(Arc::new(CancelToken::unbounded()));
        let (entries, _) = job.prefetch_entries();
        assert!(!entries.is_empty());

        let run = |published: i64| {
            let bound = job.bound.as_ref().expect("top-k jobs share a bound");
            bound.store(published, Ordering::Relaxed);
            let mut fetcher = whole_queue_fetcher(&job);
            while fetcher.step() {}
            fetcher.cancelled
        };
        assert_eq!(run(5000), entries.len(), "bound outbids every segment");
        assert_eq!(
            run(TOPK_BOUND_UNSET),
            0,
            "nothing published, nothing dropped"
        );
        assert_eq!(run(850), 2, "only the two segments with max <= 850 drop");
    }

    /// A fired token stops the prefetcher where it stands: an expired
    /// or abandoned query warms nothing further.
    #[test]
    fn fired_token_stops_the_prefetcher() {
        let cancel = Arc::new(CancelToken::unbounded());
        let job = top3_job(Arc::clone(&cancel));
        let mut fetcher = whole_queue_fetcher(&job);
        assert!(fetcher.step(), "first entry settles");
        cancel.cancel();
        assert!(!fetcher.step());
        assert_eq!(fetcher.next, 1, "no entry past the cancellation");
    }

    /// Lease length follows the morsel count and the lease cap: wide
    /// jobs are cut so every slot comes back several times, long jobs
    /// stay off the per-segment claim path, and a one-slot job — with
    /// nothing to balance — is only bounded by fairness to other jobs.
    #[test]
    fn lease_length_follows_morsels_and_cap() {
        let lease_len = |segments: u64, threads: usize| {
            let table = Table::build(
                TableSchema::new(&[("v", DType::U64)]),
                &[ColumnData::U64((0..segments * 4).collect())],
                &[CompressionPolicy::None],
                4,
            )
            .expect("builds");
            let spec = QuerySpec::new().distinct("v");
            let opts = ExecOptions::threads(threads);
            let cancel = Arc::new(CancelToken::unbounded());
            let job = Job::compile(&Arc::new(table), &spec, None, &opts, 4, cancel);
            let job = job.expect("compiles");
            assert_eq!(job.morsels.len() as u64, segments);
            job.lease_len
        };
        assert_eq!(lease_len(16, 4), 1, "16 segments balance across 4 slots");
        assert_eq!(lease_len(64, 4), 4);
        assert_eq!(lease_len(1024, 4), MAX_LEASE, "never a claim per segment");
        assert_eq!(lease_len(1024, 64), MAX_LEASE, "cap clamps to the width");
        assert_eq!(lease_len(6, 1), 6, "one slot: nothing to balance");
        assert_eq!(lease_len(1024, 1), MAX_LEASE);
    }

    /// Three row-interleaved shards of `day = 1 + i / 100` over 20 000
    /// rows, each sorted (so every shard spans every day), plus a
    /// fourth holding only days 500..=520.
    fn interleaved_shards() -> Vec<Arc<Table>> {
        let shard = |rows: Vec<u64>| {
            let day = rows.iter().map(|i| 1 + i / 100).collect();
            let qty = rows.iter().map(|i| 1 + i % 50).collect();
            let table = Table::build(
                TableSchema::new(&[("day", DType::U64), ("qty", DType::U64)]),
                &[ColumnData::U64(day), ColumnData::U64(qty)],
                &[CompressionPolicy::Auto, CompressionPolicy::Auto],
                256,
            );
            Arc::new(table.expect("builds"))
        };
        let mut shards: Vec<_> = (0..3)
            .map(|k| shard((0..20_000).filter(|i| i % 3 == k).collect()))
            .collect();
        shards.push(shard((49_900..52_000).collect()));
        shards
    }

    /// A one-day filter over the shards as one table: only the segments
    /// whose zone maps overlap the day become morsels — one lease, none
    /// from the excluded shard — while the ledger stays what visiting
    /// every segment charged. Top-k and join plans keep every segment.
    #[test]
    fn zone_pruned_segments_never_become_morsels() {
        let shards = interleaved_shards();
        let live = &shards[..3];
        let day = Predicate::Range { lo: 50, hi: 50 };
        let filtered = QuerySpec::new().filter("day", day.clone());
        let spec = filtered.clone().aggregate(&[Agg::Sum("qty"), Agg::Count]);
        let opts = ExecOptions::default();
        let cancel = || Arc::new(CancelToken::unbounded());

        let overlapping: usize = live
            .iter()
            .map(|shard| {
                (0..shard.num_segments())
                    .filter(|&s| {
                        let meta = shard.meta_at(0, s);
                        day.zone_decides(meta.min, meta.max) != Some(false)
                    })
                    .count()
            })
            .sum();
        let table = Arc::new(Table::concat(&shards).expect("one schema"));
        let job = Job::compile(&table, &spec, None, &opts, 2, cancel()).expect("compiles");
        assert_eq!(job.morsels.len(), overlapping);
        assert!(job.morsels.len() <= job.lease_len, "fits one lease");
        let result = job.run().expect("runs");
        assert_eq!(result.aggregates(), Some(&[Some(2550), Some(100)][..]));
        // Pinned from a build that still visited every segment; the
        // masked fold streams its values, so nothing is materialised.
        assert_eq!(
            result.stats.to_string(),
            "segments=90 segments_pruned=87 segments_loaded=6 values_processed=100 \
             shards_pruned=1 pushdown.zonemap_hits=87 pushdown.run_granularity=3"
        );

        let live_table = Arc::new(Table::concat(live).expect("one schema"));
        let morsels = |spec: &QuerySpec, right: Option<&Arc<JoinRight>>| {
            let job = Job::compile(&live_table, spec, right, &opts, 2, cancel());
            job.expect("compiles").morsels.len()
        };
        let every: usize = live.iter().map(|shard| shard.num_segments()).sum();
        assert_eq!(morsels(&spec, None), overlapping);
        assert_eq!(morsels(&filtered.clone().top_k("qty", 3), None), every);
        let right = Arc::new(JoinRight {
            table: Arc::clone(&shards[0]),
            key: 0,
        });
        let join = filtered.join("right", "day");
        assert_eq!(morsels(&join, Some(&right)), every, "join");
    }

    /// `flush_topk_bound` publishes a batched-but-unpublished threshold
    /// improvement — and nothing else.
    #[test]
    fn flush_publishes_held_back_improvements() {
        let bound = Arc::new(AtomicI64::new(5));
        let mut state = SinkState::TopK {
            heap: BinaryHeap::from([Reverse(10), Reverse(20)]),
            k: 2,
            shared: Some(Arc::clone(&bound)),
            published: 5,
            pending_publish: 3,
        };
        state.flush_topk_bound();
        assert_eq!(
            bound.load(Ordering::Relaxed),
            10,
            "held-back k-th published"
        );

        // Already current: flushing again writes nothing new.
        state.flush_topk_bound();
        assert_eq!(bound.load(Ordering::Relaxed), 10);

        // A partially filled heap never publishes (its k-th is not a
        // bound yet).
        let mut partial = SinkState::TopK {
            heap: BinaryHeap::from([Reverse(40)]),
            k: 2,
            shared: Some(Arc::clone(&bound)),
            published: TOPK_BOUND_UNSET,
            pending_publish: 0,
        };
        partial.flush_topk_bound();
        assert_eq!(bound.load(Ordering::Relaxed), 10);
    }
}
