//! The server's shared worker pool.
//!
//! In-process callers drive a query's [`Job`] on the calling thread
//! plus a few scoped helpers ([`Job::run`]). A server cannot do that —
//! N concurrent clients each spawning `available_parallelism` helpers
//! is N-fold oversubscription, and the thread count stops being a
//! configuration. Here the relationship is inverted: **one** pool of
//! `threads` long-lived workers drives *every* query's job, one lease
//! at a time. The job is the executor's; what is the pool's own is:
//!
//! * **Fair interleaving.** Jobs live in a round-robin queue. A worker
//!   claims one *lease* from the front job, re-enqueues the job at the
//!   back if it still has unclaimed segments, then executes the lease.
//!   Segments of different queries interleave at lease granularity, so
//!   a short aggregate is never stuck behind a giant group-by's whole
//!   segment list.
//! * **Per-client width caps.** A job's [`crate::ExecOptions::threads`]
//!   bounds how many of its leases may execute at once: a client that
//!   asks for `--threads 1` gets sequential execution (and the
//!   sequential counter ledger) even on a wide pool, while capped jobs
//!   rotate past so the pool never idles on one client's modesty.
//! * **The width proof.** `peak_leases` is the high-water mark of
//!   leases executing across all jobs — bounded by the worker count by
//!   construction, and reported so tests can hold the server to it.
//!
//! A job owns an `Arc` handle to its snapshot's table, so a concurrent
//! [`crate::Catalog::ingest`] publishing new versions never invalidates
//! an executing lease.

use crate::query::{Job, Lease};
use crate::{Result, StoreError};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

struct PoolState {
    queue: VecDeque<Arc<Job>>,
    stopping: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled on submit, lease completion, and stop.
    work_ready: Condvar,
    /// Leases executing across all jobs, and the high-water mark — the
    /// observable proof that execution concurrency never exceeds the
    /// worker count.
    active_leases: AtomicUsize,
    peak_leases: AtomicUsize,
}

/// The fixed-width worker pool. Construct once per server
/// ([`WorkerPool::new`] spawns the workers immediately), submit
/// jobs from any thread with [`WorkerPool::submit`], and
/// [`WorkerPool::stop`] drains and joins on shutdown.
pub(crate) struct WorkerPool {
    threads: usize,
    shared: Arc<PoolShared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// Spawn `threads` workers (clamped to at least 1). Spawning can
    /// fail under OS thread exhaustion; a partial pool is torn down and
    /// the error surfaced so the server never runs under-width.
    pub(crate) fn new(threads: usize) -> Result<WorkerPool> {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                stopping: false,
            }),
            work_ready: Condvar::new(),
            active_leases: AtomicUsize::new(0),
            peak_leases: AtomicUsize::new(0),
        });
        let mut workers = Vec::with_capacity(threads);
        for i in 0..threads {
            let worker_shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("lcdc-pool-{i}"))
                .spawn(move || worker_loop(&worker_shared));
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    let pool = WorkerPool {
                        threads,
                        shared,
                        workers: Mutex::new(workers),
                    };
                    pool.stop();
                    return Err(StoreError::Io(e));
                }
            }
        }
        Ok(WorkerPool {
            threads,
            shared,
            workers: Mutex::new(workers),
        })
    }

    /// The configured worker count — the width jobs are built for.
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// Most leases ever executing at once across all jobs — bounded by
    /// [`Self::threads`] by construction (only workers execute leases).
    pub(crate) fn peak_leases(&self) -> usize {
        // ordering: advisory high-water mark read after the fact; no
        // other memory is published through it.
        self.shared.peak_leases.load(Ordering::Relaxed)
    }

    /// Execute `spec` against a catalog snapshot's table on the pool,
    /// blocking until the result is ready — what a session does, minus
    /// the connection to watch.
    #[cfg(test)]
    pub(crate) fn execute(
        &self,
        table: &Arc<crate::Table>,
        spec: &crate::QuerySpec,
        opts: &crate::ExecOptions,
        cancel: Arc<crate::query::CancelToken>,
    ) -> Result<crate::QueryResult> {
        let job = Job::compile(table, spec, None, opts, self.threads, cancel)?;
        let job = Arc::new(job);
        job.submit_and_wait(|| self.submit(&job), || Ok(()))
    }

    /// Queue `job` for the workers, as the `submit` step of
    /// [`Job::submit_and_wait`]. The job was compiled by the submitter —
    /// workers only ever claim and execute leases. A job that pruning
    /// left without morsels is already finished: it is never queued,
    /// and its waiter collects it at once.
    pub(crate) fn submit(&self, job: &Arc<Job>) -> Result<()> {
        {
            // A poisoned pool lock means a worker panicked mid-scan;
            // the queue itself is valid at every step, so recover the
            // guard and keep serving.
            let mut state = self
                .shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if state.stopping {
                return Err(StoreError::Shape("worker pool is shutting down".into()));
            }
            if !job.has_unclaimed() {
                return Ok(());
            }
            state.queue.push_back(Arc::clone(job));
        }
        self.shared.work_ready.notify_all();
        Ok(())
    }

    /// Drain queued jobs, then stop and join every worker. Queued and
    /// in-flight jobs complete normally; jobs submitted after this call
    /// are refused.
    pub(crate) fn stop(&self) {
        {
            let mut state = self
                .shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            state.stopping = true;
        }
        self.shared.work_ready.notify_all();
        let workers =
            std::mem::take(&mut *self.workers.lock().unwrap_or_else(PoisonError::into_inner));
        for handle in workers {
            if handle.join().is_err() {
                eprintln!("lcdc server: a pool worker panicked; continuing shutdown");
            }
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    while let Some((job, lease)) = next_lease(shared) {
        // ordering: advisory concurrency gauge; correctness of lease
        // accounting lives in the job, not in these counters.
        let active = shared.active_leases.fetch_add(1, Ordering::Relaxed) + 1;
        // ordering: monotonic high-water mark folded from the gauge
        // above; readers only ever see it after joining or stopping
        // the pool.
        shared.peak_leases.fetch_max(active, Ordering::Relaxed);
        // A panicking lease has already failed its job on the way out
        // (`Job::run_lease`); catching the unwind keeps the pool at its
        // width.
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| job.run_lease(lease)));
        // ordering: advisory gauge decrement, paired with the fetch_add
        // above; never synchronizes data.
        shared.active_leases.fetch_sub(1, Ordering::Relaxed);
        // A finished lease may unblock a capped sibling or finish the
        // drain another worker is waiting on.
        shared.work_ready.notify_all();
    }
}

/// Block until some queued job hands out a lease; `None` once the pool
/// is stopping and the queue has drained. The queue lock is held only
/// for the scan itself, never while a lease executes.
fn next_lease(shared: &PoolShared) -> Option<(Arc<Job>, Lease)> {
    let mut state = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
    loop {
        // One pass over the queue. A job with unclaimed segments
        // keeps rotating — leased or at its cap — so other workers (and
        // later visits) interleave it with its peers; a finished,
        // failed or fully claimed one drops out.
        for _ in 0..state.queue.len() {
            let Some(job) = state.queue.pop_front() else {
                break;
            };
            let lease = job.claim();
            if job.has_unclaimed() {
                state.queue.push_back(Arc::clone(&job));
            }
            if let Some(lease) = lease {
                return Some((job, lease));
            }
        }
        if state.queue.is_empty() && state.stopping {
            return None;
        }
        state = shared
            .work_ready
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::shard_table;
    use crate::predicate::Predicate;
    use crate::query::{Agg, CancelToken};
    use crate::schema::TableSchema;
    use crate::segment::CompressionPolicy;
    use crate::table::Table;
    use crate::{ExecOptions, QuerySpec, ShardedTable};
    use lcdc_core::{ColumnData, DType};
    use std::sync::Barrier;

    fn orders(n: u64) -> Table {
        let schema = TableSchema::new(&[("day", DType::U64), ("qty", DType::U64)]);
        let day = ColumnData::U64((0..n).map(|i| 1 + i / 100).collect());
        let qty = ColumnData::U64((0..n).map(|i| 1 + i % 50).collect());
        Table::build(
            schema,
            &[day, qty],
            &[CompressionPolicy::Auto, CompressionPolicy::Auto],
            256,
        )
        .unwrap()
    }

    fn nocancel() -> Arc<CancelToken> {
        Arc::new(CancelToken::unbounded())
    }

    fn specs() -> Vec<QuerySpec> {
        vec![
            QuerySpec::new()
                .filter("day", Predicate::Range { lo: 5, hi: 24 })
                .aggregate(&[Agg::Sum("qty"), Agg::Min("qty"), Agg::Count]),
            QuerySpec::new()
                .filter("qty", Predicate::Range { lo: 10, hi: 40 })
                .group_by("day")
                .aggregate(&[Agg::Sum("qty"), Agg::Count]),
            QuerySpec::new().top_k("qty", 13),
            QuerySpec::new()
                .filter("day", Predicate::Range { lo: 0, hi: 9 })
                .distinct("qty"),
        ]
    }

    #[test]
    fn pool_matches_direct_execution() {
        let table = orders(6000);
        let single = Arc::new(table.clone());
        let sharded = ShardedTable::new(shard_table(&table, 3).unwrap()).unwrap();
        let sharded = Arc::clone(sharded.table());
        let pool = WorkerPool::new(3).unwrap();
        for spec in specs() {
            let want = spec.bind(&table).execute().unwrap();
            for handle in [&single, &sharded] {
                for threads in [1usize, 2, 8] {
                    let got = pool
                        .execute(handle, &spec, &ExecOptions::threads(threads), nocancel())
                        .unwrap();
                    assert_eq!(got.rows, want.rows, "{spec:?} x{threads}");
                }
            }
        }
        assert!(pool.peak_leases() <= pool.threads());
        pool.stop();
    }

    #[test]
    fn concurrent_jobs_interleave_and_all_finish() {
        let table = Arc::new(orders(20_000));
        let handle = Arc::clone(&table);
        let pool = Arc::new(WorkerPool::new(2).unwrap());
        let all = specs();
        let answers: Vec<_> = all
            .iter()
            .map(|s| s.bind(table.as_ref()).execute().unwrap())
            .collect();
        std::thread::scope(|scope| {
            for round in 0..3 {
                for (spec, want) in all.iter().zip(&answers) {
                    let (pool, handle) = (Arc::clone(&pool), handle.clone());
                    scope.spawn(move || {
                        let got = pool
                            .execute(
                                &handle,
                                spec,
                                &ExecOptions::threads(1 + round % 4),
                                nocancel(),
                            )
                            .unwrap();
                        assert_eq!(got.rows, want.rows);
                    });
                }
            }
        });
        assert!(pool.peak_leases() <= 2, "2-wide pool never over-executes");
        pool.stop();
    }

    #[test]
    fn client_thread_cap_bounds_a_jobs_leases() {
        // A sequential client on a wide pool: execution never runs two
        // of its leases at once (the job's own peak), and — because
        // partial states belong to the job's slots, not to leases — it
        // reports exactly the in-process sequential ledger. Every table
        // here spans ~200 segments, far more than one lease.
        let schema = TableSchema::new(&[("day", DType::U64), ("qty", DType::U64)]);
        let n = 50_000u64;
        let dict = Table::build(
            schema,
            &[
                ColumnData::U64((0..n).map(|i| 1 + i / 100).collect()),
                ColumnData::U64((0..n).map(|i| (i * 17) % 23).collect()),
            ],
            &[
                CompressionPolicy::Auto,
                CompressionPolicy::Fixed("dict[codes=ns]".into()),
            ],
            256,
        )
        .unwrap();
        let catalog = crate::Catalog::with_cache_capacity(0);
        catalog.register("orders", orders(n));
        catalog.register("dict", dict);
        catalog.register("right", orders(5000));
        let mut cases: Vec<(&str, QuerySpec)> =
            specs().into_iter().map(|spec| ("orders", spec)).collect();
        cases.push((
            "dict",
            QuerySpec::new()
                .group_by("qty")
                .aggregate(&[Agg::Sum("day"), Agg::Count]),
        ));
        cases.push((
            "orders",
            QuerySpec::new()
                .filter("qty", Predicate::Range { lo: 5, hi: 45 })
                .join("right", "day"),
        ));

        let pool = WorkerPool::new(3).unwrap();
        let opts = ExecOptions::threads(1);
        for (name, spec) in &cases {
            let want = catalog.execute_opts(name, spec, &opts).unwrap();
            // The session's path: the catalog resolves the snapshot,
            // the job compiles once, the pool drives it.
            let (got, _) = catalog
                .execute_versioned_with(name, spec, |table, join| {
                    let right = join.map(|j| &j.right);
                    let width = pool.threads();
                    let job = Job::compile(table, spec, right, &opts, width, nocancel())?;
                    let job = Arc::new(job);
                    let result = job.submit_and_wait(|| pool.submit(&job), || Ok(()))?;
                    assert_eq!(job.peak_leases(), 1, "{spec:?}");
                    Ok(result)
                })
                .unwrap();
            assert_eq!(got.rows, want.rows, "{spec:?}");
            assert_eq!(got.stats, want.stats, "{spec:?}");
        }
        let (_, dict_spec) = &cases[cases.len() - 2];
        let folded = catalog
            .execute_opts("dict", dict_spec, &opts)
            .unwrap()
            .stats;
        assert!(
            folded.rows_undecoded > 0,
            "code-space tier fired: {folded:?}"
        );
        pool.stop();
    }

    #[test]
    fn errors_deliver_and_pool_survives() {
        let table = orders(3000);
        let handle = Arc::new(table.clone());
        let pool = WorkerPool::new(2).unwrap();
        // Unknown column: rejected at submit-time compile.
        let bad = QuerySpec::new().aggregate(&[Agg::Sum("nope")]);
        assert!(pool
            .execute(&handle, &bad, &ExecOptions::threads(2), nocancel())
            .is_err());
        // The pool still works afterwards.
        let spec = QuerySpec::new().aggregate(&[Agg::Count]);
        let got = pool
            .execute(&handle, &spec, &ExecOptions::threads(2), nocancel())
            .unwrap();
        assert_eq!(
            got.aggregates().unwrap(),
            spec.bind(&table).execute().unwrap().aggregates().unwrap()
        );
        pool.stop();
    }

    #[test]
    fn pre_cancelled_token_rejects_at_submit_and_pool_survives() {
        let table = orders(3000);
        let handle = Arc::new(table.clone());
        let pool = WorkerPool::new(2).unwrap();
        let token = nocancel();
        token.cancel();
        let spec = QuerySpec::new().aggregate(&[Agg::Count]);
        assert!(matches!(
            pool.execute(&handle, &spec, &ExecOptions::threads(2), token),
            Err(StoreError::Cancelled)
        ));
        // The pool keeps answering healthy requests afterwards.
        let got = pool
            .execute(&handle, &spec, &ExecOptions::threads(2), nocancel())
            .unwrap();
        assert_eq!(
            got.aggregates().unwrap(),
            spec.bind(&table).execute().unwrap().aggregates().unwrap()
        );
        pool.stop();
    }

    #[test]
    fn expired_deadline_surfaces_typed_and_aborts_morsels() {
        let table = orders(20_000);
        let handle = Arc::new(table);
        let pool = WorkerPool::new(2).unwrap();
        let spec = QuerySpec::new()
            .filter("qty", Predicate::Range { lo: 0, hi: 49 })
            .group_by("day")
            .aggregate(&[Agg::Sum("qty")]);
        // deadline_ms = 0 is expired before submit: the typed error
        // comes back without executing a single morsel.
        let token = Arc::new(CancelToken::with_deadline_ms(0));
        assert!(matches!(
            pool.execute(&handle, &spec, &ExecOptions::threads(2), token),
            Err(StoreError::DeadlineExceeded { deadline_ms: 0 })
        ));
        // A generous deadline executes normally.
        let token = Arc::new(CancelToken::with_deadline_ms(60_000));
        let got = pool
            .execute(&handle, &spec, &ExecOptions::threads(2), token)
            .unwrap();
        assert!(got.stats.segments > 0);
        pool.stop();
    }

    /// A one-column, 16-segment table, saved under `dir` and opened
    /// lazily, whose file panics fetching segment `panic_at`, or holds
    /// the fetch of segment `meet_at` at a barrier until a second fetch
    /// meets it.
    fn trapped(
        dir: &std::path::Path,
        panic_at: Option<usize>,
        meet_at: Option<(usize, Barrier)>,
    ) -> Arc<Table> {
        let table = Table::build(
            TableSchema::new(&[("v", DType::U64)]),
            &[ColumnData::U64((0..4096).collect())],
            &[CompressionPolicy::Auto],
            256,
        )
        .unwrap();
        let _ = std::fs::remove_dir_all(dir);
        crate::file::save_table(&table, dir).unwrap();
        let table = crate::file::open_table_lazy(dir, 16).unwrap();
        let file = table.source_at(0).bases().next().unwrap();
        file.arm_trap(move |idx| {
            assert_ne!(panic_at, Some(idx), "trapped segment {idx}");
            if let Some((_, barrier)) = meet_at.as_ref().filter(|(at, _)| *at == idx) {
                barrier.wait();
            }
        });
        Arc::new(table)
    }

    /// Run `f` on its own thread and wait at most a generous watchdog
    /// for its answer — a hang fails the test instead of the suite.
    fn within_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        let got = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("answered within the watchdog");
        runner.join().expect("the runner sent its answer");
        got
    }

    /// A lease that panics fails its query with a typed error instead
    /// of stranding it, and the pool keeps its full width: two healthy
    /// queries afterwards each hold a lease at once (they meet at a
    /// barrier only two concurrent workers can pass). The filter keeps
    /// every row, but no zone map can prove it, so every segment is
    /// fetched (an unfiltered SUM would be answered from metadata).
    #[test]
    fn panicking_lease_fails_its_query_and_pool_keeps_width() {
        let pool = Arc::new(WorkerPool::new(2).unwrap());
        let every: Vec<i128> = (0..4096).collect();
        let spec = QuerySpec::new()
            .filter("v", Predicate::in_list(&every))
            .aggregate(&[Agg::Sum("v"), Agg::Count]);
        let (p, s) = (Arc::clone(&pool), spec.clone());
        let dir = std::env::temp_dir().join(format!("lcdc_pool_trap_{}", std::process::id()));
        let broken = trapped(&dir.join("broken"), Some(5), None);
        let got =
            within_watchdog(move || p.execute(&broken, &s, &ExecOptions::threads(1), nocancel()));
        assert!(matches!(got, Err(StoreError::Shape(_))), "{got:?}");
        assert_eq!(pool.peak_leases(), 1);

        let healthy = trapped(&dir.join("healthy"), None, Some((0, Barrier::new(2))));
        let want = (0..4096i128).sum::<i128>();
        let p = Arc::clone(&pool);
        let answers = within_watchdog(move || {
            let runs: Vec<_> = (0..2)
                .map(|_| {
                    let (p, s, t) = (Arc::clone(&p), spec.clone(), healthy.clone());
                    std::thread::spawn(move || {
                        p.execute(&t, &s, &ExecOptions::threads(1), nocancel())
                    })
                })
                .collect();
            runs.into_iter()
                .map(|run| run.join().unwrap())
                .collect::<Vec<_>>()
        });
        for got in answers {
            assert_eq!(
                got.unwrap().aggregates().unwrap(),
                &[Some(want), Some(4096)]
            );
        }
        assert_eq!(pool.peak_leases(), 2, "both workers survived");
        pool.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn all_pruned_shards_shape_an_empty_result() {
        let table = orders(3000); // days 1..=30
        let sharded = ShardedTable::new(shard_table(&table, 2).unwrap()).unwrap();
        let handle = Arc::clone(sharded.table());
        let pool = WorkerPool::new(2).unwrap();
        let spec = QuerySpec::new()
            .filter("day", Predicate::Range { lo: 900, hi: 999 })
            .aggregate(&[Agg::Sum("qty"), Agg::Count]);
        let got = pool
            .execute(&handle, &spec, &ExecOptions::threads(2), nocancel())
            .unwrap();
        assert_eq!(got.aggregates().unwrap(), &[Some(0), Some(0)]);
        assert_eq!(got.stats.shards_pruned, 2);
        pool.stop();
    }
}
