//! The logical plan: what to compute, not how — and not *where*.
//!
//! Two layers since the storage redesign:
//!
//! * [`QuerySpec`] — an owned, table-free logical plan: a CNF filter
//!   (conjunction of disjunction clauses), and one sink. Because it
//!   borrows nothing it can be stored, sent across threads, bound to
//!   any table, and *fingerprinted* — the stable
//!   [`QuerySpec::fingerprint`] hash keys the catalog's result cache.
//! * [`QueryBuilder`] — the familiar fluent builder: a `QuerySpec`
//!   under construction plus the table it will run against.

use super::job::{ExecOptions, Job};
use super::physical::{
    clause_zone, resolve, AggSpec, ClauseZone, JoinRight, Leaf, PhysicalPlan, Sink,
};
use super::result::QueryResult;
use crate::agg::AggKind;
use crate::digest::Digest;
use crate::predicate::Predicate;
use crate::segment::SchemeKind;
use crate::table::Table;
use crate::{Result, StoreError};
use std::ops::Range;
use std::sync::Arc;

/// One requested aggregate, named over the builder's borrowed strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg<'a> {
    /// Sum of a column over the selected rows.
    Sum(&'a str),
    /// Minimum of a column over the selected rows.
    Min(&'a str),
    /// Maximum of a column over the selected rows.
    Max(&'a str),
    /// Number of selected rows.
    Count,
}

impl Agg<'_> {
    fn kind(&self) -> AggKind {
        match self {
            Agg::Sum(_) => AggKind::Sum,
            Agg::Min(_) => AggKind::Min,
            Agg::Max(_) => AggKind::Max,
            Agg::Count => AggKind::Count,
        }
    }

    fn column(&self) -> Option<&str> {
        match self {
            Agg::Sum(c) | Agg::Min(c) | Agg::Max(c) => Some(c),
            Agg::Count => None,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct OwnedAgg {
    kind: AggKind,
    column: Option<String>,
}

/// One CNF clause: a disjunction of `(column, predicate)` leaves. A
/// single-leaf clause is the ordinary conjunct.
pub(crate) type Clause = Vec<(String, Predicate)>;

/// An equi-join request on a [`QuerySpec`]: the right (build-side)
/// table's catalog name and the shared key column both sides join on.
/// Owned and table-free like the rest of the spec, so it fingerprints
/// into the result-cache key; the right table itself is resolved at
/// execution time — by [`crate::Catalog`] under the same lock
/// acquisition that snapshots the left table, or by
/// [`QueryBuilder::join`] for direct execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinSpec {
    /// The right table's catalog name.
    pub table: String,
    /// The join key column name, present in both schemas.
    pub on: String,
}

/// An owned, table-free logical query: a conjunction of (possibly
/// disjunctive) filter clauses and exactly one sink. Bind it to a table
/// with [`QuerySpec::bind`], or hand it to
/// [`crate::Catalog::execute`] to run it against a registered —
/// possibly sharded — table with result caching.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuerySpec {
    pub(crate) clauses: Vec<Clause>,
    pub(crate) group_key: Option<String>,
    aggs: Vec<OwnedAgg>,
    pub(crate) top: Option<(String, usize)>,
    pub(crate) distinct_col: Option<String>,
    pub(crate) join: Option<JoinSpec>,
    /// Evaluate filter clauses exactly in the order given instead of
    /// letting the planner reorder them by estimated selectivity (see
    /// [`QuerySpec::keep_filter_order`]).
    pub(crate) ordered_filters: bool,
}

impl QuerySpec {
    /// An empty spec (no filters, no sink yet).
    pub fn new() -> Self {
        QuerySpec::default()
    }

    /// Add one conjunct: rows must satisfy `predicate` on `column`.
    /// The planner reorders clauses by estimated selectivity at compile
    /// time (cheapest, most-pruning first) unless
    /// [`keep_filter_order`](Self::keep_filter_order) pins the order
    /// given here.
    pub fn filter(mut self, column: &str, predicate: Predicate) -> Self {
        self.clauses.push(vec![(column.to_string(), predicate)]);
        self
    }

    /// Add one *disjunctive* conjunct: rows must satisfy at least one
    /// of the `(column, predicate)` alternatives. With clauses this is
    /// CNF — `filter(a).filter_any(&[b, c])` selects `a AND (b OR c)`.
    pub fn filter_any(mut self, any_of: &[(&str, Predicate)]) -> Self {
        self.clauses.push(
            any_of
                .iter()
                .map(|(col, p)| (col.to_string(), p.clone()))
                .collect(),
        );
        self
    }

    /// Add a membership conjunct: `column ∈ values` (see
    /// [`Predicate::in_list`]).
    pub fn filter_in(self, column: &str, values: &[i128]) -> Self {
        self.filter(column, Predicate::in_list(values))
    }

    /// Group the selected rows by `column` (combine with
    /// [`aggregate`](Self::aggregate); a bare `group_by` counts rows per
    /// group).
    ///
    /// The physical plan picks an aggregation tier per key segment from
    /// its scheme tag: DICT keys aggregate directly on dictionary codes
    /// (dense, no hash, key decoded once per distinct value), RLE/RPE
    /// keys fold whole runs, CONST segments fold in one probe — only
    /// unstructured keys fall back to hashing each row's key off the
    /// value stream. The join reads its key segments the same way. The
    /// choice shows up in [`crate::QueryStats::groups_folded`] and
    /// [`crate::QueryStats::rows_undecoded`].
    pub fn group_by(mut self, column: &str) -> Self {
        self.group_key = Some(column.to_string());
        self
    }

    /// Request aggregates over the selected rows (or per group after
    /// [`group_by`](Self::group_by)).
    pub fn aggregate(mut self, aggs: &[Agg<'_>]) -> Self {
        self.aggs.extend(aggs.iter().map(|a| OwnedAgg {
            kind: a.kind(),
            column: a.column().map(str::to_string),
        }));
        self
    }

    /// Keep the `k` largest selected values of `column` (descending).
    pub fn top_k(mut self, column: &str, k: usize) -> Self {
        self.top = Some((column.to_string(), k));
        self
    }

    /// Collect the distinct selected values of `column` (ascending).
    pub fn distinct(mut self, column: &str) -> Self {
        self.distinct_col = Some(column.to_string());
        self
    }

    /// Equi-join the selected rows against catalog table `table` on the
    /// shared key column `on`, producing one `(key, pair count)` row
    /// per matching key (ascending). A sink like the others — combine
    /// with filters (they apply to the *left* side), not with another
    /// sink.
    ///
    /// The physical plan picks a tier per `(left segment, right
    /// segment)` pair from the scheme tags: zone maps prune
    /// non-overlapping pairs before any payload fetch, DICT⋈DICT pairs
    /// fold through a code→code translation of the two dictionaries,
    /// RLE/RPE keys fold run-at-a-time with run multiplicities, CONST
    /// segments resolve in one probe. The tiers show up in
    /// [`crate::QueryStats::join_pairs_pruned`],
    /// [`crate::QueryStats::join_rows_undecoded`], and
    /// [`crate::QueryStats::join_code_translations`].
    pub fn join(mut self, table: &str, on: &str) -> Self {
        self.join = Some(JoinSpec {
            table: table.to_string(),
            on: on.to_string(),
        });
        self
    }

    /// The join request, if this spec is a join.
    pub fn join_spec(&self) -> Option<&JoinSpec> {
        self.join.as_ref()
    }

    /// Force filter clauses to evaluate in exactly the order they were
    /// added, disabling the planner's cost-based reordering — the
    /// pre-reordering behaviour, kept for comparisons and for callers
    /// who know their data better than the zone maps do. Answers are
    /// identical either way; only evaluation cost differs.
    pub fn keep_filter_order(mut self) -> Self {
        self.ordered_filters = true;
        self
    }

    /// Bind this spec to a table for execution. A spec carrying a join
    /// also needs the right table in hand — rebind it with
    /// [`QueryBuilder::join`], or execute through a [`crate::Catalog`]
    /// which resolves the right side by name.
    pub fn bind<'t>(&self, table: &'t Table) -> QueryBuilder<'t> {
        QueryBuilder {
            table,
            spec: self.clone(),
            right: None,
        }
    }

    /// Compile this spec against `table` once and run it in process
    /// under `opts`, with a join's right side resolved by
    /// [`crate::Catalog::execute_versioned_with`] — which is how
    /// [`crate::Catalog::execute_opts`] runs a query.
    pub fn execute_on(
        &self,
        table: &Arc<Table>,
        join: Option<&crate::ResolvedJoin>,
        opts: &ExecOptions,
    ) -> Result<QueryResult> {
        let plan = self.compile_join(table, join.map(|j| &j.right))?;
        Job::over_plan(plan, opts).run()
    }

    /// A stable 64-bit hash of the logical plan — identical across
    /// processes and runs for equal plans (XXH64 over a canonical
    /// encoding, no process-seeded hasher). The catalog keys its
    /// result cache on `(fingerprint, table version)`.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Digest::new();
        h.tag(b'F');
        h.usize(self.clauses.len());
        for clause in &self.clauses {
            h.usize(clause.len());
            for (column, predicate) in clause {
                h.str(column);
                match predicate {
                    Predicate::All => h.tag(b'A'),
                    Predicate::Range { lo, hi } => {
                        h.tag(b'R');
                        h.i128(*lo);
                        h.i128(*hi);
                    }
                    Predicate::Eq(v) => {
                        h.tag(b'E');
                        h.i128(*v);
                    }
                    Predicate::In(values) => {
                        h.tag(b'I');
                        h.usize(values.len());
                        for v in values.iter() {
                            h.i128(*v);
                        }
                    }
                }
            }
        }
        h.tag(b'G');
        h.opt_str(self.group_key.as_deref());
        h.tag(b'a');
        h.usize(self.aggs.len());
        for agg in &self.aggs {
            h.tag(match agg.kind {
                AggKind::Sum => b's',
                AggKind::Min => b'm',
                AggKind::Max => b'M',
                AggKind::Count => b'c',
            });
            h.opt_str(agg.column.as_deref());
        }
        h.tag(b'T');
        match &self.top {
            Some((column, k)) => {
                h.tag(b'+');
                h.str(column);
                h.usize(*k);
            }
            None => h.tag(b'-'),
        }
        h.tag(b'D');
        h.opt_str(self.distinct_col.as_deref());
        h.tag(b'J');
        match &self.join {
            Some(join) => {
                h.tag(b'+');
                h.str(&join.table);
                h.str(&join.on);
            }
            None => h.tag(b'-'),
        }
        // Plan-shaping options ride along so the result cache never
        // thrashes between two specs that differ only here.
        h.tag(b'O');
        h.tag(u8::from(self.ordered_filters));
        h.finish()
    }

    /// Resolve names and operators against `table` into a
    /// [`PhysicalPlan`]. Unless [`Self::keep_filter_order`] pinned the
    /// caller's order, the filter CNF is reordered here — a pure
    /// plan-time decision from resident [`crate::source::SegmentMeta`]
    /// alone, visible in [`PhysicalPlan::display`].
    ///
    /// The plan owns its `table` snapshot handle, so it outlives the
    /// caller's borrow: a query compiles once (at job construction) and
    /// any thread executes its segments. `right` is the join's resolved
    /// right side, supplied by the callers that carry one (catalog
    /// execution, [`QueryBuilder::join`]). A spec with a join and no
    /// right side fails in `compile_sink` — the right table can only
    /// come from whoever holds the catalog snapshot.
    pub(crate) fn compile_join(
        &self,
        table: &Arc<Table>,
        right: Option<&Arc<JoinRight>>,
    ) -> Result<PhysicalPlan> {
        let mut clauses = Vec::with_capacity(self.clauses.len());
        for clause in &self.clauses {
            if clause.is_empty() {
                return Err(StoreError::Shape(
                    "a disjunction clause needs at least one alternative".into(),
                ));
            }
            let mut leaves = Vec::with_capacity(clause.len());
            for (name, predicate) in clause {
                leaves.push((resolve(table, name)?, name.clone(), predicate.clone()));
            }
            clauses.push(leaves);
        }
        let mut reordered = false;
        if !self.ordered_filters && clauses.len() > 1 {
            let order = cost_based_clause_order(table, &clauses);
            if order.iter().enumerate().any(|(i, &o)| i != o) {
                let mut by_cost = Vec::with_capacity(clauses.len());
                for &idx in &order {
                    by_cost.push(std::mem::take(&mut clauses[idx]));
                }
                clauses = by_cost;
                reordered = true;
            }
        }
        let sink = self.compile_sink(table, right)?;
        Ok(PhysicalPlan {
            table: Arc::clone(table),
            filters: clauses,
            sink,
            reordered,
        })
    }

    fn compile_sink(&self, table: &Table, right: Option<&Arc<JoinRight>>) -> Result<Sink> {
        let wants_agg = !self.aggs.is_empty() || self.group_key.is_some();
        let sinks_requested = usize::from(wants_agg)
            + usize::from(self.top.is_some())
            + usize::from(self.distinct_col.is_some())
            + usize::from(self.join.is_some());
        if sinks_requested > 1 {
            return Err(StoreError::Shape(
                "a query takes one sink: aggregate/group_by, top_k, distinct, or join".into(),
            ));
        }
        if let Some(join) = &self.join {
            let Some(right) = right else {
                return Err(StoreError::Shape(format!(
                    "join against '{}' needs its right side resolved: execute through a \
                     Catalog (or QueryBuilder::join for an in-hand table)",
                    join.table
                )));
            };
            return Ok(Sink::Join {
                key: resolve(table, &join.on)?,
                right: Arc::clone(right),
            });
        }
        if let Some((column, k)) = &self.top {
            return Ok(Sink::TopK {
                col: resolve(table, column)?,
                k: *k,
            });
        }
        if let Some(column) = &self.distinct_col {
            return Ok(Sink::Distinct {
                col: resolve(table, column)?,
            });
        }
        if !wants_agg {
            return Err(StoreError::Shape(
                "a query needs a sink: aggregate(..), group_by(..), top_k(..), distinct(..), \
                 or join(..)"
                    .into(),
            ));
        }
        // Aggregate / group-by: resolve each agg column once, share slots.
        let aggs: Vec<OwnedAgg> = if self.aggs.is_empty() {
            vec![OwnedAgg {
                kind: AggKind::Count,
                column: None,
            }]
        } else {
            self.aggs.clone()
        };
        let mut cols: Vec<usize> = Vec::new();
        let mut specs = Vec::with_capacity(aggs.len());
        for agg in &aggs {
            let slot = match &agg.column {
                None => None,
                Some(name) => {
                    let idx = resolve(table, name)?;
                    Some(match cols.iter().position(|&c| c == idx) {
                        Some(slot) => slot,
                        None => {
                            cols.push(idx);
                            cols.len() - 1
                        }
                    })
                }
            };
            specs.push(AggSpec {
                kind: agg.kind,
                slot,
            });
        }
        match &self.group_key {
            Some(key) => Ok(Sink::GroupBy {
                key: resolve(table, key)?,
                specs,
                cols,
            }),
            None => Ok(Sink::Aggregate { specs, cols }),
        }
    }
}

/// Sequence CNF clauses by what resident zone maps prove about them:
/// the clause that prunes the most segments outright goes first (a
/// pruned segment pays for *no* later clause), ties broken by the
/// estimated cost of evaluating the clause where the zone map cannot
/// decide (scheme-aware: run/code-granular leaves are cheap, row-tier
/// leaves dear), then by caller order. Answers are order-independent —
/// this is purely a cost decision, made once at plan time from
/// metadata alone.
pub(super) fn cost_based_clause_order(table: &Table, clauses: &[Vec<Leaf>]) -> Vec<usize> {
    let (prunes, costs) = clause_estimates(table, clauses);
    let mut order: Vec<usize> = (0..clauses.len()).collect();
    order.sort_by(|&a, &b| {
        prunes[b]
            .cmp(&prunes[a])
            .then(costs[a].cmp(&costs[b]))
            .then(a.cmp(&b))
    });
    order
}

/// Per clause, the segments its zone walk prunes and the estimated
/// cost of the leaves it leaves undecided. The walk descends the zone
/// trees ([`Table::descend_zones`]) through the same [`clause_zone`]
/// the executor and prefetcher run, so the estimate can never drift
/// from the evaluation: a node whose walk decides every leaf it
/// examines, over no empty segment, settles its range with one test.
/// Empty segments stay out of the hulls and are estimated on their own
/// metadata.
pub(super) fn clause_estimates(table: &Table, clauses: &[Vec<Leaf>]) -> (Vec<usize>, Vec<u64>) {
    let mut prunes = vec![0usize; clauses.len()];
    let mut costs = vec![0u64; clauses.len()];
    for ((clause, prunes), costs) in clauses.iter().zip(&mut prunes).zip(&mut costs) {
        // What one outcome decides for a range of segments: it is
        // never undecided on more than one.
        let mut tally = |outcome: ClauseZone<'_>, segments: Range<usize>| match outcome {
            ClauseZone::Empty => *prunes += segments.len(),
            ClauseZone::AllRows => {}
            ClauseZone::Undecided(leaves) => {
                for seg in segments {
                    *costs += leaves
                        .iter()
                        .map(|(col, _, _)| scheme_leaf_cost(table.meta_at(*col, seg).kind))
                        .sum::<u64>();
                }
            }
        };
        table.descend_zones(|_, segments, live, zone| {
            if live == 0 {
                for seg in segments {
                    tally(
                        clause_zone(clause, table.segment_zone(seg), |_| ()),
                        seg..seg + 1,
                    );
                }
                return false;
            }
            let mut settled = true;
            let outcome = clause_zone(clause, zone, |decided| settled &= decided);
            let decides = segments.len() == 1 || (settled && live == segments.len());
            if decides {
                tally(outcome, segments);
            }
            !decides
        });
    }
    (prunes, costs)
}

/// Relative cost of deciding one predicate leaf on a segment the zone
/// map left undecided, by the segment's compression scheme: the tiers
/// of [`Predicate::eval_segment`], cheapest first.
pub(super) fn scheme_leaf_cost(kind: SchemeKind) -> u64 {
    match kind {
        SchemeKind::Const => 1,
        SchemeKind::Rle | SchemeKind::Rpe | SchemeKind::Sparse => 2, // run-granular painting
        SchemeKind::Dict => 3,                                       // code-granular membership
        SchemeKind::For => 6, // the row tier today, as ns below
        SchemeKind::Ns | SchemeKind::Other => 8, // ns / delta / raw: full row tier
    }
}

/// A logical query under construction against one table: a scan, a CNF
/// of filters, and exactly one sink (`aggregate`, `group_by` +
/// `aggregate`, `top_k`, or `distinct`).
///
/// Compilation ([`QueryBuilder::compile`]) resolves column names and
/// picks the physical operators; nothing touches the data until one of
/// the `execute*` methods runs the plan.
///
/// ```
/// use lcdc_core::{ColumnData, DType};
/// use lcdc_store::{Agg, CompressionPolicy, Predicate, QueryBuilder, Table, TableSchema};
///
/// let table = Table::build(
///     TableSchema::new(&[("day", DType::U64), ("qty", DType::U64)]),
///     &[
///         ColumnData::U64((0..3000).map(|i| 1 + i / 100).collect()),
///         ColumnData::U64((0..3000).map(|i| 1 + i % 50).collect()),
///     ],
///     &[CompressionPolicy::Auto, CompressionPolicy::Auto],
///     512,
/// )
/// .unwrap();
/// let result = QueryBuilder::scan(&table)
///     .filter("day", Predicate::Range { lo: 10, hi: 19 })
///     .aggregate(&[Agg::Sum("qty"), Agg::Count])
///     .execute()
///     .unwrap();
/// assert_eq!(result.aggregates().unwrap()[1], Some(1000));
/// assert!(
///     result.stats.segments_pruned > 0,
///     "zone maps pruned the out-of-range segments: {:?}",
///     result.stats
/// );
/// ```
#[derive(Debug, Clone)]
pub struct QueryBuilder<'t> {
    table: &'t Table,
    spec: QuerySpec,
    /// The in-hand right table of a [`QueryBuilder::join`], resolved
    /// into the sink at compile time. Catalog execution resolves the
    /// right side by name instead and never goes through here.
    right: Option<Arc<Table>>,
}

impl<'t> QueryBuilder<'t> {
    /// Start a query over `table`.
    pub fn scan(table: &'t Table) -> Self {
        QueryBuilder {
            table,
            spec: QuerySpec::new(),
            right: None,
        }
    }

    /// Add one conjunct: rows must satisfy `predicate` on `column`.
    /// The planner orders clauses by estimated cost at compile time
    /// (see [`QuerySpec::filter`]); evaluation short-circuits per
    /// segment.
    pub fn filter(mut self, column: &str, predicate: Predicate) -> Self {
        self.spec = self.spec.filter(column, predicate);
        self
    }

    /// Add one disjunctive conjunct (see [`QuerySpec::filter_any`]).
    pub fn filter_any(mut self, any_of: &[(&str, Predicate)]) -> Self {
        self.spec = self.spec.filter_any(any_of);
        self
    }

    /// Add a membership conjunct (see [`QuerySpec::filter_in`]).
    pub fn filter_in(mut self, column: &str, values: &[i128]) -> Self {
        self.spec = self.spec.filter_in(column, values);
        self
    }

    /// Group the selected rows by `column` (combine with
    /// [`aggregate`](Self::aggregate); a bare `group_by` counts rows per
    /// group).
    pub fn group_by(mut self, column: &str) -> Self {
        self.spec = self.spec.group_by(column);
        self
    }

    /// Request aggregates over the selected rows (or per group after
    /// [`group_by`](Self::group_by)).
    pub fn aggregate(mut self, aggs: &[Agg<'_>]) -> Self {
        self.spec = self.spec.aggregate(aggs);
        self
    }

    /// Keep the `k` largest selected values of `column` (descending).
    pub fn top_k(mut self, column: &str, k: usize) -> Self {
        self.spec = self.spec.top_k(column, k);
        self
    }

    /// Collect the distinct selected values of `column` (ascending).
    pub fn distinct(mut self, column: &str) -> Self {
        self.spec = self.spec.distinct(column);
        self
    }

    /// Equi-join against an in-hand right table on the shared key
    /// column `on` (see [`QuerySpec::join`]); `name` is the label the
    /// spec's fingerprint and explain output carry. For catalog tables
    /// prefer [`crate::Catalog::execute`] with a [`QuerySpec::join`]
    /// spec — the catalog snapshots both tables consistently.
    pub fn join(mut self, name: &str, right: Arc<Table>, on: &str) -> Self {
        self.spec = self.spec.join(name, on);
        self.right = Some(right);
        self
    }

    /// Pin the filter clauses to the order they were added (see
    /// [`QuerySpec::keep_filter_order`]).
    pub fn keep_filter_order(mut self) -> Self {
        self.spec = self.spec.keep_filter_order();
        self
    }

    /// The table-free logical plan built so far.
    pub fn spec(&self) -> &QuerySpec {
        &self.spec
    }

    /// Take the table-free logical plan out of the builder.
    pub fn into_spec(self) -> QuerySpec {
        self.spec
    }

    /// Resolve names and operators into a [`PhysicalPlan`], against an
    /// owned handle to the borrowed table (a `Table` is a bundle of
    /// `Arc`'d sources, so the clone copies no data), resolving the
    /// in-hand right table when this builder carries a join: its key
    /// column against its own schema.
    pub fn compile(&self) -> Result<PhysicalPlan> {
        let right = match (&self.spec.join, &self.right) {
            (Some(join), Some(table)) => Some(Arc::new(JoinRight {
                key: resolve(table, &join.on)?,
                table: Arc::clone(table),
            })),
            _ => None,
        };
        self.spec
            .compile_join(&Arc::new(self.table.clone()), right.as_ref())
    }

    /// Compile and run with every pushdown tier enabled, sequentially
    /// on the calling thread — [`execute_opts`](Self::execute_opts)
    /// under [`ExecOptions::default`], the same configuration `lcdc
    /// query` and a one-thread wire query run, and the reference every
    /// other configuration must reproduce.
    pub fn execute(&self) -> Result<QueryResult> {
        self.execute_opts(&ExecOptions::default())
    }

    /// Compile and run the decoded baseline: every touched column of
    /// every segment decoded, every filter tested and every row folded
    /// one by one, sequentially on the calling thread — the oracle the
    /// pushdown tiers are tested and benchmarked against. It shares the
    /// compiled plan and nothing else with [`execute`](Self::execute).
    pub fn execute_naive(&self) -> Result<QueryResult> {
        super::naive::execute(&self.compile()?)
    }

    /// Compile and run the pushdown plan with up to `threads` threads
    /// leasing segments from the one job. Answers are identical to
    /// [`execute`](Self::execute); top-k prune counters may differ
    /// (each lease slot tightens its own threshold).
    pub fn execute_parallel(&self, threads: usize) -> Result<QueryResult> {
        self.execute_opts(&ExecOptions::threads(threads))
    }

    /// Compile and run under explicit [`ExecOptions`] — lease cap plus
    /// I/O prefetch depth for lazily-backed tables. Answers are
    /// identical to [`execute`](Self::execute) for every option
    /// combination.
    pub fn execute_opts(&self, opts: &ExecOptions) -> Result<QueryResult> {
        Job::over_plan(self.compile()?, opts).run()
    }

    /// The physical plan as text, one operator per line.
    pub fn explain(&self) -> Result<String> {
        Ok(self.compile()?.display())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> QuerySpec {
        QuerySpec::new()
            .filter("day", Predicate::Range { lo: 1, hi: 9 })
            .group_by("day")
            .aggregate(&[Agg::Sum("qty"), Agg::Count])
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        assert_eq!(base().fingerprint(), base().fingerprint());
        let variants = [
            QuerySpec::new()
                .filter("day", Predicate::Range { lo: 1, hi: 9 })
                .group_by("day")
                .aggregate(&[Agg::Sum("qty")]),
            base().filter("qty", Predicate::Eq(3)),
            QuerySpec::new()
                .filter("day", Predicate::Range { lo: 1, hi: 8 })
                .group_by("day")
                .aggregate(&[Agg::Sum("qty"), Agg::Count]),
            QuerySpec::new()
                .filter("day", Predicate::in_list(&[1, 9]))
                .group_by("day")
                .aggregate(&[Agg::Sum("qty"), Agg::Count]),
            QuerySpec::new()
                .filter_any(&[
                    ("day", Predicate::Range { lo: 1, hi: 9 }),
                    ("qty", Predicate::Eq(3)),
                ])
                .group_by("day")
                .aggregate(&[Agg::Sum("qty"), Agg::Count]),
            QuerySpec::new().top_k("day", 3),
            QuerySpec::new().top_k("day", 4),
            QuerySpec::new().distinct("day"),
            QuerySpec::new().join("items", "day"),
            QuerySpec::new().join("items2", "day"),
            QuerySpec::new().join("items", "qty"),
        ];
        let mut prints: Vec<u64> = variants.iter().map(QuerySpec::fingerprint).collect();
        prints.push(base().fingerprint());
        let unique: std::collections::HashSet<u64> = prints.iter().copied().collect();
        assert_eq!(unique.len(), prints.len(), "{prints:?}");
    }

    #[test]
    fn two_single_filters_differ_from_one_disjunction() {
        let conj = QuerySpec::new()
            .filter("a", Predicate::Eq(1))
            .filter("b", Predicate::Eq(2))
            .aggregate(&[Agg::Count]);
        let disj = QuerySpec::new()
            .filter_any(&[("a", Predicate::Eq(1)), ("b", Predicate::Eq(2))])
            .aggregate(&[Agg::Count]);
        assert_ne!(conj.fingerprint(), disj.fingerprint());
    }
}
