//! Physical plans: segment-granular operators over compressed columns.
//!
//! A [`PhysicalPlan`] is the compiled form of a [`super::QuerySpec`]
//! logical plan: resolved column indices, an ordered CNF of filter
//! clauses (each a disjunction of per-column predicates), and exactly
//! one sink operator. Execution walks the table one segment at a time
//! through its [`crate::source::SegmentSource`] handles: every
//! zone-map decision is made on resident [`crate::source::SegmentMeta`]
//! alone, and a segment's payload is *fetched* — possibly from disk,
//! for lazily-backed tables — only when some tier actually has to
//! touch bytes ([`QueryStats::segments_loaded`] counts those fetches).
//! The filter CNF is evaluated at the cheapest granularity that decides
//! it, and the sink consumes the surviving selection — structurally off
//! the compressed form where the scheme allows (run values, dictionary
//! codes), and otherwise folding each column's value stream
//! ([`Segment::visit`]), under a mask only the selected rows' values.
//! No tier builds a plain column: decoding everything is the decoded
//! baseline's job, a path of its own (`super::naive`). Segments are
//! independent, so one per-segment pipeline —
//! [`PhysicalPlan::execute_segment`], called only by the executor's
//! lease loop (`super::job`) — serves every schedule, from one thread
//! to the server's pool.

use super::groups::{GroupTable, UnitFold};
use super::keys::{key_units, KeyScratch, RowMap};
use super::stats::QueryStats;
use crate::agg::{
    aggregate_runs, fold_runs, fold_selected, for_each_run, widen, AggKind, AggResult,
};
use crate::hash::{IntMap, IntSet};
use crate::predicate::Predicate;
use crate::segment::{SchemeKind, Segment};
use crate::table::Table;
use crate::{Result, StoreError};
use lcdc_colops::Bitmap;
use lcdc_core::schemes::{const_, dict, ns, rle, rpe, sparse};
use lcdc_core::with_column;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// The sentinel a shared top-k bound starts from: no worker has filled
/// a k-heap yet, so nothing may be pruned against it. `i64::MIN` is
/// also unreachable as a *published* bound (publication clamps down,
/// never below the smallest real value), so the sentinel can never be
/// confused with a real threshold that would wrongly prune.
pub(crate) const TOPK_BOUND_UNSET: i64 = i64::MIN;

/// How many *improved* k-th thresholds a worker accumulates before
/// publishing into the shared top-k bound again. The very first fill of
/// a worker's heap publishes immediately — that is the transition from
/// "no bound exists, nothing can be pruned" to "every moderate segment
/// is prunable", and delaying it would cost real skips — but each
/// subsequent improvement only tightens an already-useful bound, so
/// those batch: one `fetch_max` per `TOPK_PUBLISH_BATCH` improved
/// visits instead of one per visit, cutting the cross-core atomic
/// write traffic on the hot path. Purely a publication cadence:
/// answers and correctness never depend on the bound at all.
pub(crate) const TOPK_PUBLISH_BATCH: usize = 8;

/// One resolved aggregate: what to compute, over which column slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AggSpec {
    /// The aggregate function.
    pub kind: AggKind,
    /// Index into the sink's agg-column list; `None` for `Count`.
    pub slot: Option<usize>,
}

/// The resolved build side of an equi-join sink: snapshot `Arc` handles
/// to the right table's shards (a racing ingest swaps the catalog
/// entry, never these handles, so a running plan keeps a consistent
/// right side) plus the join key's column index in the *right* schema.
/// One `Arc<JoinRight>` is shared by every shard plan and worker of a
/// join, so equality is identity: two sinks are the same join only when
/// they hold the same resolved snapshot.
#[derive(Debug, Clone)]
pub(crate) struct JoinRight {
    /// The right table's shards, in registration order (one entry for
    /// an unsharded table).
    pub(crate) shards: Vec<Arc<Table>>,
    /// The join key column, resolved against the right schema.
    pub(crate) key: usize,
}

impl PartialEq for JoinRight {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
            && self.shards.len() == other.shards.len()
            && self
                .shards
                .iter()
                .zip(&other.shards)
                .all(|(a, b)| Arc::ptr_eq(a, b))
    }
}

impl Eq for JoinRight {}

/// The terminal operator of a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Sink {
    /// Fold every selected row into one row of aggregates.
    Aggregate {
        /// Requested aggregates, in output order.
        specs: Vec<AggSpec>,
        /// Distinct aggregated columns (indices into the table).
        cols: Vec<usize>,
    },
    /// Hash selected rows by a key column, aggregating per group.
    GroupBy {
        /// The key column.
        key: usize,
        /// Requested aggregates, in output order.
        specs: Vec<AggSpec>,
        /// Distinct aggregated columns (indices into the table).
        cols: Vec<usize>,
    },
    /// Keep the `k` largest values of a column.
    TopK {
        /// The ranked column.
        col: usize,
        /// How many values to keep.
        k: usize,
    },
    /// Collect the distinct values of a column.
    Distinct {
        /// The collected column.
        col: usize,
    },
    /// Equi-join the selected left rows against a second table's rows
    /// on a shared key column, producing `(key, pair count)` rows.
    Join {
        /// The join key column in the *left* (probe) table.
        key: usize,
        /// The resolved right (build) side.
        right: Arc<JoinRight>,
    },
}

/// Per-group accumulator: one [`AggResult`] per aggregated column plus
/// the bare row count (for `Count` with no column).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct GroupAcc {
    pub per_col: Vec<AggResult>,
    pub rows: usize,
}

impl GroupAcc {
    fn new(cols: usize) -> Self {
        GroupAcc {
            per_col: vec![AggResult::default(); cols],
            rows: 0,
        }
    }

    fn merge(&mut self, other: &GroupAcc) {
        for (a, b) in self.per_col.iter_mut().zip(&other.per_col) {
            a.merge(b);
        }
        self.rows += other.rows;
    }
}

/// Running sink state; merged associatively across parallel partials
/// and across shards.
#[derive(Debug, Clone)]
pub(crate) enum SinkState {
    Aggregate {
        acc: GroupAcc,
    },
    Groups {
        table: GroupTable,
    },
    TopK {
        heap: BinaryHeap<Reverse<i128>>,
        k: usize,
        /// The job-wide k-th bound shared across lease slots and shard
        /// fan-ins (`None` only on the merge target): every slot
        /// whose heap holds `k` values publishes its threshold here,
        /// and every lease consults it before visiting a segment, so
        /// late leases prune with early leases' work.
        shared: Option<Arc<AtomicI64>>,
        /// The threshold this slot last wrote into `shared`
        /// ([`TOPK_BOUND_UNSET`] before the first publication) —
        /// the reference point publication batching measures
        /// improvements against.
        published: i64,
        /// Improved-threshold visits accumulated since the last
        /// publication; flushes every [`TOPK_PUBLISH_BATCH`].
        pending_publish: usize,
    },
    Distinct {
        set: IntSet<i128>,
    },
    Join {
        /// key value → number of joined `(left row, right row)` pairs.
        pairs: IntMap<i128, i128>,
        /// Per-worker build-side cache: `(right shard, right segment)` →
        /// its build side, built once per worker and reused across
        /// every left segment the worker visits, with the pairs joined
        /// against each of its keys so far. Flushed into `pairs` when
        /// the worker's state merges — only `pairs` is the answer.
        cache: IntMap<(usize, usize), JoinBuild>,
    },
}

impl SinkState {
    pub(crate) fn for_sink(sink: &Sink) -> SinkState {
        SinkState::for_sink_shared(sink, None)
    }

    /// [`SinkState::for_sink`] with a shared top-k bound attached (a
    /// job hands every slot the same `Arc`). Non-top-k sinks ignore
    /// the bound.
    pub(crate) fn for_sink_shared(sink: &Sink, bound: Option<Arc<AtomicI64>>) -> SinkState {
        match sink {
            Sink::Aggregate { cols, .. } => SinkState::Aggregate {
                acc: GroupAcc::new(cols.len()),
            },
            Sink::GroupBy { cols, specs, .. } => SinkState::Groups {
                table: GroupTable::new((0..cols.len()).map(|slot| wants_extrema(specs, slot))),
            },
            Sink::TopK { k, .. } => SinkState::TopK {
                heap: BinaryHeap::with_capacity(k + 1),
                k: *k,
                shared: bound,
                published: TOPK_BOUND_UNSET,
                pending_publish: 0,
            },
            Sink::Distinct { .. } => SinkState::Distinct {
                set: IntSet::default(),
            },
            Sink::Join { .. } => SinkState::Join {
                pairs: IntMap::default(),
                cache: IntMap::default(),
            },
        }
    }

    pub(crate) fn merge(&mut self, other: SinkState) {
        match (self, other) {
            (SinkState::Aggregate { acc }, SinkState::Aggregate { acc: o }) => acc.merge(&o),
            (SinkState::Groups { table }, SinkState::Groups { table: o }) => table.merge(&o),
            (SinkState::TopK { heap, k, .. }, SinkState::TopK { heap: o, .. }) => {
                for Reverse(v) in o {
                    push_topk(heap, *k, v);
                }
            }
            (SinkState::Distinct { set }, SinkState::Distinct { set: o }) => set.extend(o),
            (SinkState::Join { pairs, .. }, SinkState::Join { pairs: o, cache }) => {
                // Fan-in merges the answer: the other worker's pairs, and
                // the pairs its cached build sides accumulated.
                for (key, count) in o {
                    *pairs.entry(key).or_insert(0) += count;
                }
                for build in cache.into_values() {
                    for (key, (_, joined)) in build.keys {
                        if joined != 0 {
                            *pairs.entry(key).or_insert(0) += joined;
                        }
                    }
                }
            }
            _ => unreachable!("mismatched sink states"),
        }
    }

    /// Publish any batched-but-unpublished top-k threshold improvement
    /// into the shared bound. The executor calls this at the end of
    /// every lease so an improvement held back by publication batching
    /// still reaches the leases that keep running. No-op for non-top-k
    /// sinks, the merge target (which has no bound), and slots whose
    /// last publication is already current.
    pub(crate) fn flush_topk_bound(&mut self) {
        if let SinkState::TopK {
            heap,
            k,
            shared: Some(bound),
            published,
            pending_publish,
        } = self
        {
            if let Some(&Reverse(kth)) = heap.peek() {
                let kth = kth.min(i64::MAX as i128) as i64;
                if heap.len() == *k && kth > *published {
                    // ordering: the shared top-k bound is a monotonic
                    // hint — fetch_max keeps it tightening, and a
                    // reader acting on a stale value only prunes less.
                    bound.fetch_max(kth, Ordering::Relaxed);
                    *published = kth;
                    *pending_publish = 0;
                }
            }
        }
    }
}

fn push_topk(heap: &mut BinaryHeap<Reverse<i128>>, k: usize, v: i128) {
    if k == 0 {
        return;
    }
    if heap.len() < k {
        heap.push(Reverse(v));
    } else if v > heap.peek().expect("non-empty").0 {
        heap.pop();
        heap.push(Reverse(v));
    }
}

/// What the filter conjunction decided for one segment.
pub(crate) enum Selection {
    /// Every row selected (proved without a bitmap where possible).
    All,
    /// The surviving rows.
    Mask(Bitmap),
}

impl Selection {
    /// The surviving rows' bitmap, `None` when every row survives.
    pub(crate) fn mask(&self) -> Option<&Bitmap> {
        match self {
            Selection::All => None,
            Selection::Mask(mask) => Some(mask),
        }
    }

    /// How many of a segment's `n` rows are selected.
    pub(crate) fn count(&self, n: usize) -> usize {
        match self {
            Selection::All => n,
            Selection::Mask(mask) => mask.count_ones(),
        }
    }

    /// Hand `f` the selected values of `seg`, a chunk at a time in row
    /// order: the whole value stream, or under a mask each chunk's
    /// selected values ([`Segment::visit_masked`]).
    fn visit(&self, seg: &Segment, f: &mut dyn FnMut(&[u64])) -> Result<()> {
        match self {
            Selection::All => seg.visit(f),
            Selection::Mask(mask) => seg.visit_masked(mask, f),
        }
    }
}

/// What one CNF clause decided for one segment.
enum ClauseOutcome {
    /// Every row satisfies the clause.
    AllRows,
    /// No row does: the segment is out.
    Empty,
    /// The satisfying rows.
    Mask(Bitmap),
}

/// One resolved CNF leaf: `(column index, column name, predicate)`.
pub(crate) type Leaf = (usize, String, Predicate);

/// What resident zone maps alone decide about one clause on one
/// segment.
pub(crate) enum ClauseZone<'c> {
    /// Some leaf is proven all-matching: the clause costs nothing.
    AllRows,
    /// Every leaf is proven empty: the segment is out.
    Empty,
    /// The leaves the zone map could not decide, in clause order.
    Undecided(Vec<&'c Leaf>),
}

/// Walk one clause's leaves against a segment's zone maps — the single
/// decision procedure shared by the executor's zone pass
/// (`eval_clause`), the prefetcher's fetch prediction
/// ([`PhysicalPlan::expected_fetches`]), and the planner's cost model
/// (`cost_based_clause_order`), so the three can never drift apart.
/// `on_decided` fires once per leaf the zone map settles (the
/// executor's `zonemap_hits` accounting); leaves after a decided-true
/// leaf are not examined, exactly like the evaluation short-circuit.
pub(crate) fn clause_zone<'c>(
    table: &Table,
    clause: &'c [Leaf],
    seg_idx: usize,
    mut on_decided: impl FnMut(),
) -> ClauseZone<'c> {
    let mut undecided = Vec::new();
    for leaf in clause {
        let (col, _, predicate) = leaf;
        let meta = table.meta_at(*col, seg_idx);
        match predicate.zone_decides(meta.min, meta.max) {
            Some(true) => {
                on_decided();
                return ClauseZone::AllRows;
            }
            Some(false) => on_decided(),
            None => undecided.push(leaf),
        }
    }
    if undecided.is_empty() {
        ClauseZone::Empty
    } else {
        ClauseZone::Undecided(undecided)
    }
}

/// The payloads one segment *visit* has fetched, as `(column index,
/// segment)` — a handful of entries at most. Each is fetched once per
/// visit, however many filter leaves and sink columns read it: the
/// source may be disk-backed, and `segments_loaded` counts one fetch
/// per `(column, segment)` pair.
type Fetched = Vec<(usize, Arc<Segment>)>;

/// A compiled query: resolved columns, filter CNF, one sink.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    /// The table snapshot the plan reads — owned, so a compiled plan
    /// outlives its builder and any thread may execute its segments.
    pub(crate) table: Arc<Table>,
    /// CNF clauses, each `(column index, column name, predicate)`
    /// leaves ORed together — evaluated in order, short-circuiting per
    /// segment.
    pub(crate) filters: Vec<Vec<Leaf>>,
    pub(crate) sink: Sink,
    /// Whether the planner reordered the filter CNF away from the
    /// caller's order (cost-based, from zone-map selectivity estimates).
    pub(crate) reordered: bool,
}

impl PhysicalPlan {
    /// Human-readable plan, one operator per line.
    pub fn display(&self) -> String {
        let mut out = format!(
            "scan: {} columns x {} segments ({} rows)",
            self.table.schema().width(),
            self.table.num_segments(),
            self.table.num_rows(),
        );
        if self.reordered {
            out.push_str(
                "\n  filter order: cost-based (zone-map selectivity x scheme leaf cost; \
                 clauses shown in evaluation order)",
            );
        }
        for clause in &self.filters {
            let leaves: Vec<String> = clause
                .iter()
                .map(|(_, name, pred)| format!("{name}: {pred:?}"))
                .collect();
            if clause.len() == 1 {
                let (_, name, pred) = &clause[0];
                out.push_str(&format!(
                    "\n  filter {name}: {pred:?} (zone-map -> run/code granularity -> rows)"
                ));
            } else {
                out.push_str(&format!("\n  filter any-of ({})", leaves.join(" OR ")));
            }
        }
        let col_name = |idx: usize| self.table.schema().columns[idx].name.clone();
        let spec_text = |specs: &[AggSpec], cols: &[usize]| {
            specs
                .iter()
                .map(|s| match s.slot {
                    Some(slot) => format!("{:?}({})", s.kind, col_name(cols[slot])),
                    None => "Count".to_string(),
                })
                .collect::<Vec<_>>()
                .join(", ")
        };
        out.push_str(&match &self.sink {
            Sink::Aggregate { specs, cols } => {
                format!("\n  aggregate: [{}]", spec_text(specs, cols))
            }
            Sink::GroupBy { key, specs, cols } => format!(
                "\n  group-by {}: [{}]",
                col_name(*key),
                spec_text(specs, cols)
            ),
            Sink::TopK { col, k } => format!(
                "\n  top-{k} {} (segments visited best-first, zone-map threshold pruning)",
                col_name(*col)
            ),
            Sink::Distinct { col } => format!(
                "\n  distinct {} (structural: dict/rle/rpe/const/sparse part columns)",
                col_name(*col)
            ),
            Sink::Join { key, right } => format!(
                "\n  join on {} ({} right shard{}; zone pair pruning, \
                 dict code-translation / run / const tiers)",
                col_name(*key),
                right.shards.len(),
                if right.shards.len() == 1 { "" } else { "s" },
            ),
        });
        out
    }

    /// The order segments are visited in. Top-k visits best-max first
    /// (a metadata-only sort) so the prune threshold tightens as early
    /// as possible; everything else scans in position order.
    pub(crate) fn segment_order(&self) -> Vec<usize> {
        let n = self.table.num_segments();
        let mut order: Vec<usize> = (0..n).collect();
        if let Sink::TopK { col, .. } = &self.sink {
            order.sort_unstable_by_key(|&i| Reverse(self.table.meta_at(*col, i).max));
        }
        order
    }

    /// Whether the published shared top-k bound already proves
    /// `seg_idx` prunable — the same zone test `execute_segment` runs
    /// before fetching, exposed so the prefetcher can cancel a queued
    /// warm instead of loading a frame no visit will consume. The
    /// bound only ever tightens, so a segment outbid at warm time is
    /// still outbid at visit time; `false` is always safe (the warm
    /// merely risks being wasted).
    pub(crate) fn topk_shared_prunes(&self, seg_idx: usize, bound: &AtomicI64) -> bool {
        let Sink::TopK { col, .. } = &self.sink else {
            return false;
        };
        // ordering: monotonic-hint read — a stale bound can only be
        // looser than current, so it never wrongly prunes.
        let published = bound.load(Ordering::Relaxed);
        published != TOPK_BOUND_UNSET && self.table.meta_at(*col, seg_idx).max <= published as i128
    }

    // -- per-segment pipeline -----------------------------------------

    /// Rows in one segment (metadata only; columns share segmentation).
    fn rows_at(&self, seg_idx: usize) -> usize {
        self.table.meta_at(0, seg_idx).rows
    }

    /// Fetch one segment's payload through its source, at most once per
    /// visit, counting the fetch.
    fn fetch(
        &self,
        col: usize,
        seg_idx: usize,
        fetched: &mut Fetched,
        stats: &mut QueryStats,
    ) -> Result<Arc<Segment>> {
        if let Some((_, seg)) = fetched.iter().find(|(c, _)| *c == col) {
            return Ok(Arc::clone(seg));
        }
        let seg = self.table.source_at(col).segment(seg_idx)?;
        stats.segments_loaded += 1;
        fetched.push((col, Arc::clone(&seg)));
        Ok(seg)
    }

    /// Whether a visit of `seg_idx` would end before any fetch: the
    /// segment is empty, or — walking the CNF in order — a clause the
    /// zone maps prove empty comes before any clause they cannot
    /// decide. If so, `stats` is charged exactly what that visit
    /// charges (the segment, its prune, one `zonemap_hits` per decided
    /// leaf) and the executor never makes the segment a morsel — the
    /// segment-level twin of shard pruning. Top-k checks its heap bound
    /// before the filters and a join runs its own zone-pair pipeline,
    /// so neither prunes here.
    pub(crate) fn zone_prunes(&self, seg_idx: usize, stats: &mut QueryStats) -> bool {
        if matches!(self.sink, Sink::TopK { .. } | Sink::Join { .. }) {
            return false;
        }
        let mut hits = 0;
        let pruned = self.rows_at(seg_idx) == 0
            || self.filters.iter().find_map(|clause| {
                match clause_zone(&self.table, clause, seg_idx, || hits += 1) {
                    ClauseZone::AllRows => None,
                    ClauseZone::Empty => Some(true),
                    ClauseZone::Undecided(_) => Some(false),
                }
            }) == Some(true);
        if pruned {
            stats.segments += 1;
            stats.segments_pruned += 1;
            stats.pushdown.zonemap_hits += hits;
        }
        pruned
    }

    /// The columns whose frames the plan's filter clauses and sink can
    /// fetch for one segment — exactly the fetches `execute_segment`
    /// would issue, minus data-tier outcomes that cannot be known from
    /// metadata (a clause emptied at a data tier still skips the sink
    /// fetches; a prefetched frame for it is counted *wasted*).
    /// Zone-settled leaves fetch nothing; a segment any clause
    /// zone-proves empty fetches nothing at all (the executor asks only
    /// about morsels, so for filtered plans that clause sits behind an
    /// undecided one; see [`Self::zone_prunes`]).
    pub(crate) fn expected_fetches(&self, seg_idx: usize, out: &mut Vec<usize>) {
        out.clear();
        if self.rows_at(seg_idx) == 0 {
            return;
        }
        if let Sink::Join { key, right } = &self.sink {
            if self.join_pair_scan(seg_idx, *key, right).0.is_empty() {
                // Every right segment is zone-pruned against this left
                // segment: the visit returns before fetching anything
                // on either side.
                return;
            }
        }
        let push = |col: usize, out: &mut Vec<usize>| {
            if !out.contains(&col) {
                out.push(col);
            }
        };
        for clause in &self.filters {
            match clause_zone(&self.table, clause, seg_idx, || ()) {
                ClauseZone::AllRows => {}
                ClauseZone::Empty => {
                    // Clause zone-proves the segment empty: no fetch at
                    // all, for this clause or anything after it.
                    out.clear();
                    return;
                }
                ClauseZone::Undecided(leaves) => {
                    for (col, _, _) in leaves {
                        push(*col, out);
                    }
                }
            }
        }
        self.for_each_sink_column(|col| push(col, out));
    }

    /// Visit each sink column once (the group-by key first).
    pub(crate) fn for_each_sink_column(&self, mut f: impl FnMut(usize)) {
        match &self.sink {
            Sink::Aggregate { cols, .. } => cols.iter().copied().for_each(&mut f),
            Sink::GroupBy { key, cols, .. } => {
                f(*key);
                cols.iter().copied().for_each(&mut f);
            }
            Sink::TopK { col, .. } | Sink::Distinct { col } => f(*col),
            Sink::Join { key, .. } => f(*key),
        }
    }

    /// Every column the plan can touch (filter leaves + sink columns),
    /// deduplicated — the set whose sources the executor drains
    /// prefetch counters from.
    pub(crate) fn touched_columns(&self) -> Vec<usize> {
        let mut cols: Vec<usize> = Vec::new();
        let push = |col: usize, cols: &mut Vec<usize>| {
            if !cols.contains(&col) {
                cols.push(col);
            }
        };
        for clause in &self.filters {
            for (col, _, _) in clause {
                push(*col, &mut cols);
            }
        }
        self.for_each_sink_column(|col| push(col, &mut cols));
        cols
    }

    pub(crate) fn execute_segment(
        &self,
        seg_idx: usize,
        state: &mut SinkState,
        scratch: &mut Scratch,
        stats: &mut QueryStats,
    ) -> Result<()> {
        stats.segments += 1;
        let n = self.rows_at(seg_idx);
        if n == 0 {
            stats.segments_pruned += 1;
            return Ok(());
        }
        // The join sink runs its own pipeline: zone pair pruning first,
        // then the shared filter evaluation, then the per-pair tiers.
        if let Sink::Join { key, right } = &self.sink {
            return self.sink_join(seg_idx, n, *key, right, state, scratch, stats);
        }
        // Top-k threshold pruning consults only the zone map — before
        // the filters, before any payload fetch. Two bounds apply: this
        // worker's own k-heap, and the shared bound other workers (or
        // other shards in a fan-in) have already published.
        if let (Sink::TopK { col, k }, SinkState::TopK { heap, shared, .. }) =
            (&self.sink, &mut *state)
        {
            if *k == 0 {
                stats.segments_pruned += 1;
                return Ok(());
            }
            let max = self.table.meta_at(*col, seg_idx).max;
            let local_prunes = heap.len() == *k
                && max
                    <= heap
                        .peek()
                        .map(|&Reverse(threshold)| threshold)
                        .expect("k > 0");
            let shared_prunes = shared
                .as_ref()
                // ordering: monotonic-hint read; stale is just looser.
                .map(|bound| bound.load(Ordering::Relaxed))
                .is_some_and(|bound| bound != TOPK_BOUND_UNSET && max <= bound as i128);
            if shared_prunes {
                stats.topk_segments_skipped += 1;
            }
            if local_prunes || shared_prunes {
                stats.segments_pruned += 1;
                return Ok(());
            }
        }
        let mut fetched = Fetched::new();
        let Some(selection) = self.eval_filters(seg_idx, n, &mut fetched, scratch, stats)? else {
            stats.segments_pruned += 1;
            return Ok(());
        };
        let fetched = &mut fetched;
        match (&self.sink, state) {
            (Sink::Aggregate { specs, cols }, SinkState::Aggregate { acc }) => self.sink_aggregate(
                seg_idx,
                n,
                &selection,
                (specs, cols),
                acc,
                fetched,
                scratch,
                stats,
            ),
            (Sink::GroupBy { key, cols, .. }, SinkState::Groups { table }) => self.sink_group_by(
                seg_idx, &selection, *key, cols, table, fetched, scratch, stats,
            ),
            (
                Sink::TopK { col, k },
                SinkState::TopK {
                    heap,
                    shared,
                    published,
                    pending_publish,
                    ..
                },
            ) => {
                self.sink_top_k(seg_idx, n, &selection, *col, *k, heap, fetched, stats)?;
                // Publish this worker's tightened threshold so every
                // other worker — and every other shard in a fan-in —
                // can prune against it. `fetch_max` keeps the bound
                // monotonic; clamping *down* to `i64::MAX` on overflow
                // only weakens the bound, never wrongly prunes. The
                // first fill of the heap publishes immediately (it
                // creates the bound); later improvements batch, one
                // write per [`TOPK_PUBLISH_BATCH`] improved visits,
                // with [`SinkState::flush_topk_bound`] draining the
                // remainder when a worker runs out of segments.
                if let (Some(bound), Some(&Reverse(kth))) = (shared.as_ref(), heap.peek()) {
                    if heap.len() == *k {
                        let kth = kth.min(i64::MAX as i128) as i64;
                        if *published == TOPK_BOUND_UNSET {
                            // ordering: monotonic bound publication;
                            // fetch_max commutes with racing publishes
                            // and readers tolerate staleness.
                            bound.fetch_max(kth, Ordering::Relaxed);
                            *published = kth;
                        } else if kth > *published {
                            *pending_publish += 1;
                            if *pending_publish >= TOPK_PUBLISH_BATCH {
                                // ordering: as above.
                                bound.fetch_max(kth, Ordering::Relaxed);
                                *published = kth;
                                *pending_publish = 0;
                            }
                        }
                    }
                }
                Ok(())
            }
            (Sink::Distinct { col }, SinkState::Distinct { set }) => {
                self.sink_distinct(seg_idx, n, &selection, *col, set, fetched, stats)
            }
            _ => unreachable!("sink/state mismatch"),
        }
    }

    /// Evaluate one CNF clause (a disjunction of leaves) for one
    /// segment. Zone maps run first across the alternatives: any leaf
    /// proven all-matching settles the clause without touching bytes,
    /// and leaves proven empty drop out of the union. The rest are
    /// tested at their segment's cheapest data tier
    /// ([`Predicate::eval_segment`]).
    fn eval_clause(
        &self,
        clause: &[Leaf],
        seg_idx: usize,
        n: usize,
        fetched: &mut Fetched,
        scratch: &mut Scratch,
        stats: &mut QueryStats,
    ) -> Result<ClauseOutcome> {
        // Pass 1 — zone maps across *all* alternatives before any
        // payload work: one leaf proven all-matching settles the clause
        // even if an earlier leaf would have needed a fetch.
        let undecided = match clause_zone(&self.table, clause, seg_idx, || {
            stats.pushdown.zonemap_hits += 1
        }) {
            ClauseZone::AllRows => return Ok(ClauseOutcome::AllRows),
            ClauseZone::Empty => Vec::new(),
            ClauseZone::Undecided(leaves) => leaves,
        };
        // Pass 2 — evaluate the survivors at the cheapest data tier.
        let mut union: Option<Bitmap> = None;
        for (col, _, predicate) in undecided {
            let seg = self.fetch(*col, seg_idx, fetched, stats)?;
            let step =
                predicate.eval_segment_with(&seg, &mut stats.pushdown, &mut scratch.codes)?;
            if step.count_ones() == n {
                return Ok(ClauseOutcome::AllRows);
            }
            let combined = match union {
                None => step,
                Some(u) => u.or(&step),
            };
            // Leaves can cover the segment jointly (e.g. complementary
            // ranges): once the union is total, later alternatives must
            // not cost fetches or decompression.
            if combined.count_ones() == n {
                return Ok(ClauseOutcome::AllRows);
            }
            union = Some(combined);
        }
        // A total union already returned AllRows inside the loop; what
        // remains is empty (no leaf selected anything) or a strict
        // subset.
        Ok(match union {
            None => ClauseOutcome::Empty,
            Some(u) if u.count_ones() == 0 => ClauseOutcome::Empty,
            Some(u) => ClauseOutcome::Mask(u),
        })
    }

    /// Evaluate the filter CNF clause by clause, short-circuiting once
    /// the segment is out. `None` means the segment is out entirely.
    fn eval_filters(
        &self,
        seg_idx: usize,
        n: usize,
        fetched: &mut Fetched,
        scratch: &mut Scratch,
        stats: &mut QueryStats,
    ) -> Result<Option<Selection>> {
        let mut mask: Option<Bitmap> = None;
        for clause in &self.filters {
            let step = match self.eval_clause(clause, seg_idx, n, fetched, scratch, stats)? {
                ClauseOutcome::Empty => return Ok(None),
                ClauseOutcome::AllRows => continue,
                ClauseOutcome::Mask(step) => step,
            };
            mask = Some(match mask {
                None => step,
                Some(m) => {
                    let combined = m.and(&step);
                    if combined.count_ones() == 0 {
                        return Ok(None);
                    }
                    combined
                }
            });
        }
        Ok(Some(match mask {
            None => Selection::All,
            Some(m) => Selection::Mask(m),
        }))
    }

    // -- sinks --------------------------------------------------------

    /// The aggregate sink. A whole segment folds every column off its
    /// compressed form — a count with no agg columns is answered from
    /// the zone map alone, structural, as is a segment whose every
    /// column folds per run; a mask folds each column's selected values
    /// off its stream.
    #[allow(clippy::too_many_arguments)]
    fn sink_aggregate(
        &self,
        seg_idx: usize,
        n: usize,
        selection: &Selection,
        (specs, cols): (&[AggSpec], &[usize]),
        acc: &mut GroupAcc,
        fetched: &mut Fetched,
        scratch: &mut Scratch,
        stats: &mut QueryStats,
    ) -> Result<()> {
        let mut structural = matches!(selection, Selection::All);
        for (slot, col) in cols.iter().enumerate() {
            let seg = self.fetch(*col, seg_idx, fetched, stats)?;
            let extrema = wants_extrema(specs, slot);
            let part = match selection {
                Selection::All => {
                    structural &= matches!(seg.kind(), SchemeKind::Rle | SchemeKind::Rpe);
                    aggregate_whole_segment(&seg, extrema, &mut scratch.runs, stats)?
                }
                Selection::Mask(mask) => {
                    stats.values_processed += mask.count_ones();
                    fold_selected(&seg, mask, extrema)?
                }
            };
            acc.per_col[slot].merge(&part);
        }
        if structural {
            stats.segments_structural += 1;
        }
        acc.rows += selection.count(n);
        Ok(())
    }

    /// The group-by sink: the key segment splits into key units at its
    /// best structural tier ([`key_units`]), each unit resolves to a
    /// [`GroupTable`] slot once, and every value column folds per unit
    /// through the units' row map — the whole segment (its selected
    /// values under a mask), per run, or per code / segment-local key
    /// ([`UnitFold`]), each straight off the value stream.
    /// [`QueryStats::groups_folded`] counts the units the structural
    /// tiers fold; [`QueryStats::rows_undecoded`] counts the rows whose
    /// key those tiers never read row by row.
    #[allow(clippy::too_many_arguments)]
    fn sink_group_by(
        &self,
        seg_idx: usize,
        selection: &Selection,
        key: usize,
        cols: &[usize],
        table: &mut GroupTable,
        fetched: &mut Fetched,
        scratch: &mut Scratch,
        stats: &mut QueryStats,
    ) -> Result<()> {
        let kseg = self.fetch(key, seg_idx, fetched, stats)?;
        let keys = key_units(&kseg, selection, &mut scratch.keys)?;
        stats.values_processed += keys.values;
        stats.rows_undecoded += keys.undecoded;
        if keys.structural() {
            stats.groups_folded += keys.units.iter().filter(|&&(_, rows)| rows > 0).count();
            stats.segments_structural += usize::from(cols.is_empty());
        }
        table.resolve(keys.units.iter().copied());
        let rows = || keys.units.iter().map(|&(_, rows)| rows);
        for (slot_col, col) in cols.iter().enumerate() {
            let seg = self.fetch(*col, seg_idx, fetched, stats)?;
            let extrema = table.extrema(slot_col);
            match &keys.rows {
                RowMap::Whole => {
                    let part = match selection {
                        Selection::All => {
                            aggregate_whole_segment(&seg, extrema, &mut scratch.runs, stats)?
                        }
                        Selection::Mask(mask) => fold_selected(&seg, mask, extrema)?,
                    };
                    table.absorb_units(slot_col, rows(), |_| part);
                }
                RowMap::Runs(ends) => {
                    fold_runs(&seg, keys.units.len(), ends, extrema, &mut scratch.runs)?;
                    table.absorb_units(slot_col, rows(), |run| scratch.runs[run]);
                }
                RowMap::Codes(units) | RowMap::Rows(units) => {
                    let fold = &mut scratch.fold;
                    fold.fold(&seg, units, keys.units.len(), extrema)?;
                    table.absorb_units(slot_col, rows(), |unit| fold.part(unit));
                }
            }
        }
        Ok(())
    }

    /// The top-k sink: RLE/RPE segments under a full selection fold one
    /// value per *run*, weighted by `min(run length, k)` — a run longer
    /// than k can contribute at most k copies — off the part columns
    /// alone; everything else pushes its selected values off the value
    /// stream.
    #[allow(clippy::too_many_arguments)]
    fn sink_top_k(
        &self,
        seg_idx: usize,
        n: usize,
        selection: &Selection,
        col: usize,
        k: usize,
        heap: &mut BinaryHeap<Reverse<i128>>,
        fetched: &mut Fetched,
        stats: &mut QueryStats,
    ) -> Result<()> {
        let seg = self.fetch(col, seg_idx, fetched, stats)?;
        if matches!(selection, Selection::All) {
            if let Some((values, ends)) = seg.run_structure()? {
                stats.values_processed += values.len();
                stats.segments_structural += 1;
                for_each_run(&values, &ends, n, |v, rows| {
                    for _ in 0..rows.len().min(k) {
                        push_topk(heap, k, v);
                    }
                });
                return Ok(());
            }
        }
        stats.values_processed += selection.count(n);
        let signed = seg.compressed.dtype.signed();
        selection.visit(&seg, &mut |values| {
            for &v in values {
                push_topk(heap, k, widen(v, signed));
            }
        })
    }

    /// The distinct sink. Under a full selection, several schemes
    /// *store* the distinct structure outright — the part column
    /// suffices, no rows touched. Everything else marks its selected
    /// values, off the value stream, into a bitmap ([`DistinctMarks`])
    /// over the span its frame proves (a plain NS segment packed at
    /// most 16 bits wide: `[0, 2^width)`) or, failing that, its zone
    /// map suggests.
    #[allow(clippy::too_many_arguments)]
    fn sink_distinct(
        &self,
        seg_idx: usize,
        n: usize,
        selection: &Selection,
        col: usize,
        set: &mut IntSet<i128>,
        fetched: &mut Fetched,
        stats: &mut QueryStats,
    ) -> Result<()> {
        let seg = self.fetch(col, seg_idx, fetched, stats)?;
        if matches!(selection, Selection::All) {
            if let Some(roles) = distinct_part_roles(seg.kind()) {
                stats.segments_structural += 1;
                for role in roles {
                    let part = seg.scheme().decompress_part(&seg.compressed, role)?;
                    stats.values_processed += part.len();
                    with_column!(&part, |part| set
                        .extend(part.iter().map(|&v| i128::from(v))));
                }
                return Ok(());
            }
        }
        let width = match seg.kind() {
            SchemeKind::Ns => Some(seg.compressed.bits_part(ns::ROLE_PACKED)?.width()),
            _ => None,
        };
        let (base, span) = match width {
            Some(width) if width <= 16 => (0, 1 << width),
            _ => {
                // The zone span, when a bitmap over it is no larger than
                // the decoded rows themselves; an empty span hashes every
                // value.
                let span = seg.max.saturating_sub(seg.min).saturating_add(1);
                let fits = (1..=8 * (n * seg.compressed.dtype.bytes()) as i128).contains(&span);
                (seg.min as u64, if fits { span as u64 } else { 0 })
            }
        };
        stats.values_processed += selection.count(n);
        let mut marks = DistinctMarks::new(base, span, seg.compressed.dtype.signed(), set);
        selection.visit(&seg, &mut |values| marks.add_chunk(values))?;
        marks.finish();
        Ok(())
    }

    /// Walk the right side's segment metadata against one left
    /// segment's key zone: overlapping `(shard, segment)` pairs are
    /// live, the rest are pruned (counted). Resident metadata only —
    /// no payload is fetched on either side. Empty right segments are
    /// neither live nor pruned.
    fn join_pair_scan(
        &self,
        seg_idx: usize,
        key: usize,
        right: &JoinRight,
    ) -> (Vec<(usize, usize)>, usize) {
        let lmeta = self.table.meta_at(key, seg_idx);
        let mut live = Vec::new();
        let mut pruned = 0usize;
        for (shard_idx, shard) in right.shards.iter().enumerate() {
            for rseg in 0..shard.num_segments() {
                let rmeta = shard.meta_at(right.key, rseg);
                if rmeta.rows == 0 {
                    continue;
                }
                if lmeta.min <= rmeta.max && rmeta.min <= lmeta.max {
                    live.push((shard_idx, rseg));
                } else {
                    pruned += 1;
                }
            }
        }
        (live, pruned)
    }

    /// The equi-join sink for one left segment, the join mirror of the
    /// filter/aggregation tiers:
    ///
    /// 1. **Zone pair pruning** — before the filters and before any
    ///    payload fetch, every `(left segment, right segment)` pair
    ///    whose key zones don't overlap is dismissed
    ///    ([`QueryStats::join_pairs_pruned`]); a left segment with no
    ///    surviving pair never fetches anything at all.
    /// 2. **Probe side** — the left key segment splits into key units
    ///    ([`key_units`]): CONST from the zone map, DICT per code,
    ///    RLE/RPE (full selection) per run
    ///    ([`QueryStats::join_rows_undecoded`]); only unstructured keys
    ///    hash their selected values off the key's stream.
    /// 3. **Per-pair fold** — each surviving right segment's build side
    ///    is built once per worker (cached across left segments) from
    ///    the same ladder; a DICT left side probing a DICT build side is
    ///    a code→code translation ([`QueryStats::join_code_translations`]).
    ///    Per key, the pair count is `left count × right count`.
    #[allow(clippy::too_many_arguments)]
    fn sink_join(
        &self,
        seg_idx: usize,
        n: usize,
        key: usize,
        right: &JoinRight,
        state: &mut SinkState,
        scratch: &mut Scratch,
        stats: &mut QueryStats,
    ) -> Result<()> {
        let SinkState::Join { cache, .. } = state else {
            unreachable!("sink/state mismatch")
        };
        let (live, pruned) = self.join_pair_scan(seg_idx, key, right);
        stats.join_pairs_pruned += pruned;
        if live.is_empty() {
            stats.segments_pruned += 1;
            return Ok(());
        }
        let mut fetched = Fetched::new();
        let Some(selection) = self.eval_filters(seg_idx, n, &mut fetched, scratch, stats)? else {
            stats.segments_pruned += 1;
            return Ok(());
        };
        let kseg = self.fetch(key, seg_idx, &mut fetched, stats)?;
        let left = key_units(&kseg, &selection, &mut scratch.keys)?;
        stats.join_rows_undecoded += left.undecoded;
        stats.values_processed += left.values;
        let dict = matches!(left.rows, RowMap::Codes(_));
        for (shard_idx, rseg) in live {
            let build = match cache.entry((shard_idx, rseg)) {
                Entry::Occupied(cached) => cached.into_mut(),
                Entry::Vacant(slot) => slot.insert(join_right_side(
                    right,
                    shard_idx,
                    rseg,
                    &mut scratch.build,
                    stats,
                )?),
            };
            // DICT⋈DICT: the left dictionary's touched entries probe
            // the right dictionary's, multiplying per-code counts. A
            // left code with no entry on the right drops here, without
            // either side decoding a row. Every other pair probes the
            // same way, by whatever unit each side was counted in —
            // one probe per left unit, the pairs accumulating on the
            // right key it found.
            stats.join_code_translations += usize::from(dict && build.dict);
            for &(v, rows) in left.units.iter().filter(|&&(_, rows)| rows > 0) {
                if let Some((rc, joined)) = build.keys.get_mut(&v) {
                    *joined += rows as i128 * *rc as i128;
                }
            }
        }
        Ok(())
    }
}

/// Build (once per worker, cached by the caller) the build side of one
/// right segment. CONST segments build from resident metadata alone —
/// no payload fetch, so a lazily-backed shard's `io_reads` stays
/// untouched; every other scheme fetches the payload and merges its key
/// units ([`key_units`]) with `+=`: a dictionary or a run list may
/// repeat a value.
fn join_right_side(
    right: &JoinRight,
    shard_idx: usize,
    rseg: usize,
    scratch: &mut KeyScratch,
    stats: &mut QueryStats,
) -> Result<JoinBuild> {
    let shard = &right.shards[shard_idx];
    let rmeta = shard.meta_at(right.key, rseg);
    if rmeta.kind == SchemeKind::Const {
        stats.join_rows_undecoded += rmeta.rows;
        return Ok(JoinBuild {
            keys: IntMap::from_iter([(rmeta.min, (rmeta.rows as u64, 0))]),
            dict: false,
        });
    }
    let seg = shard.source_at(right.key).segment(rseg)?;
    stats.segments_loaded += 1;
    let units = key_units(&seg, &Selection::All, scratch)?;
    stats.join_rows_undecoded += units.undecoded;
    let mut keys = IntMap::with_capacity_and_hasher(units.units.len(), Default::default());
    for &(key, rows) in units.units.iter().filter(|&&(_, rows)| rows > 0) {
        keys.entry(key).or_insert((0, 0)).0 += rows as u64;
    }
    Ok(JoinBuild {
        keys,
        dict: matches!(units.rows, RowMap::Codes(_)),
    })
}

/// Whether the plan reads MIN or MAX of agg column `slot`: extrema are
/// folded only where asked for.
fn wants_extrema(specs: &[AggSpec], slot: usize) -> bool {
    specs
        .iter()
        .any(|spec| spec.slot == Some(slot) && matches!(spec.kind, AggKind::Min | AggKind::Max))
}

/// Aggregate one whole segment off its compressed form: RLE/RPE fold
/// one weighted value per *run* (`values_processed` counts runs, like
/// the other structural sinks), every other scheme folds its value
/// stream (every value is touched, so `values_processed` counts rows).
/// Nothing is materialised.
fn aggregate_whole_segment(
    seg: &Segment,
    extrema: bool,
    runs: &mut Vec<AggResult>,
    stats: &mut QueryStats,
) -> Result<AggResult> {
    if let Some((values, ends)) = seg.run_structure()? {
        stats.values_processed += values.len();
        return Ok(aggregate_runs(&values, &ends, seg.num_rows()));
    }
    stats.values_processed += seg.num_rows();
    fold_runs(seg, 1, &[], extrema, runs)?;
    Ok(runs[0])
}

/// Buffers one lease slot reuses across every segment it visits — the
/// code-space and streamed tiers' working memory. Never merged, never
/// shared.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// A DICT filter segment's codes (the predicate's code tier).
    codes: Vec<u32>,
    /// The group-by key's or the join probe side's units.
    keys: KeyScratch,
    /// A join build side's units.
    build: KeyScratch,
    /// One value column's per-unit sums.
    fold: UnitFold,
    /// Per-run (or whole-segment) value aggregates ([`fold_runs`]).
    runs: Vec<AggResult>,
}

/// One right segment's build side as a worker caches it: every key's
/// right rows, and the pairs this worker's left segments have joined
/// against that key so far (flushed into the answer on merge), and
/// whether it was counted off a dictionary.
#[derive(Debug, Clone)]
pub(crate) struct JoinBuild {
    keys: IntMap<i128, (u64, i128)>,
    dict: bool,
}

/// The distinct sink's collector. Values of `[base, base + span)`
/// (transport order) mark one bit each — at most `span` set insertions
/// instead of one per row — and any value outside is hashed directly,
/// so the span only ever decides the shortcut, never the answer: a zone
/// map that lies costs speed, not correctness.
struct DistinctMarks<'s> {
    base: u64,
    words: Vec<u64>,
    signed: bool,
    set: &'s mut IntSet<i128>,
}

impl<'s> DistinctMarks<'s> {
    fn new(base: u64, span: u64, signed: bool, set: &'s mut IntSet<i128>) -> Self {
        DistinctMarks {
            base,
            words: vec![0; span.div_ceil(64) as usize],
            signed,
            set,
        }
    }

    #[inline]
    fn add(&mut self, v: u64) {
        let offset = v.wrapping_sub(self.base);
        match self.words.get_mut((offset >> 6) as usize) {
            Some(word) => *word |= 1 << (offset & 63),
            None => {
                self.set.insert(widen(v, self.signed));
            }
        }
    }

    /// [`DistinctMarks::add`] over a chunk. A one-word bitmap ORs the
    /// chunk's bits in a register first: marking one word in memory
    /// row by row is a store-to-load chain.
    fn add_chunk(&mut self, chunk: &[u64]) {
        if let [word] = self.words.as_mut_slice() {
            let (bits, far) = chunk.iter().fold((0u64, 0u64), |(bits, far), &v| {
                let offset = v.wrapping_sub(self.base);
                (bits | 1 << (offset & 63), far | offset >> 6)
            });
            if far == 0 {
                *word |= bits;
                return;
            }
        }
        for &v in chunk {
            self.add(v);
        }
    }

    /// Insert every marked value into the set.
    fn finish(self) {
        for (word, &bits) in self.words.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let offset = (word * 64) as u64 + u64::from(bits.trailing_zeros());
                self.set
                    .insert(widen(self.base.wrapping_add(offset), self.signed));
                bits &= bits - 1;
            }
        }
    }
}

/// Which part columns carry a segment's distinct candidates, per scheme.
fn distinct_part_roles(kind: SchemeKind) -> Option<&'static [&'static str]> {
    match kind {
        SchemeKind::Dict => Some(&[dict::ROLE_DICT]),
        SchemeKind::Rle => Some(&[rle::ROLE_VALUES]),
        SchemeKind::Rpe => Some(&[rpe::ROLE_VALUES]),
        SchemeKind::Const => Some(&[const_::ROLE_VALUE]),
        SchemeKind::Sparse => Some(&[sparse::ROLE_VALUE, sparse::ROLE_EXC_VALUES]),
        _ => None,
    }
}

/// Resolve a column name against a table.
pub(crate) fn resolve(table: &Table, name: &str) -> Result<usize> {
    table
        .schema()
        .index_of(name)
        .ok_or_else(|| StoreError::NoSuchColumn(name.to_string()))
}
