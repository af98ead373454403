//! The two-layer query API: logical plans compiled to compression-aware
//! physical plans.
//!
//! The paper's "why it matters" claim is that decomposed compression
//! schemes let *query operators* — not just decompression — run on the
//! compressed form. This module turns that from a set of disconnected
//! entry points into one composable surface:
//!
//! * [`QuerySpec`] / [`QueryBuilder`] — the **logical plan**: a CNF of
//!   filter clauses (`.filter(column, predicate)` conjuncts,
//!   `.filter_any(..)` disjunctions, `.filter_in(..)` membership),
//!   closed by one sink — `.aggregate(..)`,
//!   `.group_by(..).aggregate(..)`, `.top_k(..)`, `.distinct(..)`, or
//!   `.join(..)` (an equi-join against a second table, executed in the
//!   compressed domain with zone-map pair pruning).
//!   A `QuerySpec` is table-free and owned: bindable to any table,
//!   and stably hashable ([`QuerySpec::fingerprint`]) for the
//!   catalog's result cache.
//! * [`PhysicalPlan`] — the **physical plan** it compiles to: a list of
//!   segment-granular operators, each choosing its pushdown tier *per
//!   segment* (zone-map prune on resident metadata — no payload fetch
//!   at all — → run-granular predicate on RLE/RPE → code-granular on
//!   DICT → segment-granular structural sink → the value stream as the
//!   last resort; no tier builds a plain column). Aggregation gets the
//!   same treatment: group-by keys fold in code space (DICT) or run
//!   space (RLE/RPE/CONST) without reading the key row by row
//!   ([`QueryStats::groups_folded`], [`QueryStats::rows_undecoded`]),
//!   and top-k shares one discovered threshold across every lease
//!   ([`QueryStats::topk_segments_skipped`]).
//!
//! Execution is per segment end-to-end, which makes the segment the
//! unit of parallelism for **every** operator, and there is one
//! executor (`job.rs`): a query compiles once into a job — a plan that
//! owns its table snapshot, the segment visit order, the partial
//! results — and whoever runs it (the calling thread and its scoped
//! helpers under [`ExecOptions`], or `lcdc serve`'s worker pool) claims
//! short leases of segments and pushes them through the same
//! per-segment pipeline. Every operator reports into one
//! [`QueryStats`] so the naive/pushdown separation stays measurable
//! across the whole API. The decoded baseline
//! ([`QueryBuilder::execute_naive`]) is a path of its own (`naive.rs`):
//! it shares the compiled plan with pushdown and nothing else.
//!
//! ```
//! use lcdc_core::{ColumnData, DType};
//! use lcdc_store::{Agg, CompressionPolicy, Predicate, QueryBuilder, Table, TableSchema};
//!
//! let schema = TableSchema::new(&[("day", DType::U64), ("qty", DType::U64)]);
//! let day = ColumnData::U64((0..4000u64).map(|i| 20_180_101 + i / 100).collect());
//! let qty = ColumnData::U64((0..4000u64).map(|i| 1 + i % 50).collect());
//! let table = Table::build(
//!     schema,
//!     &[day, qty],
//!     &[CompressionPolicy::Auto, CompressionPolicy::Auto],
//!     512,
//! )
//! .unwrap();
//!
//! let result = QueryBuilder::scan(&table)
//!     .filter("day", Predicate::Range { lo: 20_180_105, hi: 20_180_114 })
//!     .group_by("day")
//!     .aggregate(&[Agg::Sum("qty"), Agg::Count])
//!     .execute()
//!     .unwrap();
//! assert_eq!(result.groups().unwrap().len(), 10);
//! ```

pub mod args;
mod cancel;
mod codes;
mod groups;
mod job;
mod keys;
mod logical;
mod naive;
mod physical;
mod result;
pub(crate) mod stats;

pub use args::QueryArgs;
pub use job::ExecOptions;
pub use logical::{Agg, JoinSpec, QueryBuilder, QuerySpec};
pub use physical::PhysicalPlan;
pub use result::{QueryResult, Rows};
pub use stats::QueryStats;

pub(crate) use cancel::CancelToken;
pub(crate) use job::{Job, Lease};
pub(crate) use physical::JoinRight;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use crate::schema::TableSchema;
    use crate::segment::CompressionPolicy;
    use crate::table::Table;
    use lcdc_core::{ColumnData, DType};

    /// day = runs, qty = cycle, price = steps; three policies exercised.
    fn table(policy: CompressionPolicy, seg_rows: usize) -> Table {
        let n = 6000u64;
        let schema = TableSchema::new(&[
            ("day", DType::U64),
            ("qty", DType::U64),
            ("price", DType::I64),
        ]);
        let day = ColumnData::U64((0..n).map(|i| 1 + i / 150).collect());
        let qty = ColumnData::U64((0..n).map(|i| 1 + i % 50).collect());
        let price = ColumnData::I64((0..n as i64).map(|i| (i * 13) % 997 - 400).collect());
        Table::build(
            schema,
            &[day, qty, price],
            &[policy.clone(), policy.clone(), policy],
            seg_rows,
        )
        .unwrap()
    }

    fn policies() -> Vec<CompressionPolicy> {
        vec![
            CompressionPolicy::None,
            CompressionPolicy::Auto,
            CompressionPolicy::Fixed("ns_zz".into()),
        ]
    }

    #[test]
    fn aggregate_matches_naive_across_policies() {
        for policy in policies() {
            let t = table(policy.clone(), 512);
            let b = QueryBuilder::scan(&t)
                .filter("day", Predicate::Range { lo: 10, hi: 20 })
                .aggregate(&[
                    Agg::Sum("qty"),
                    Agg::Min("price"),
                    Agg::Max("price"),
                    Agg::Count,
                ]);
            let push = b.execute().unwrap();
            let naive = b.execute_naive().unwrap();
            assert_eq!(push.rows, naive.rows, "{policy:?}");
            assert!(
                push.stats.rows_materialized <= naive.stats.rows_materialized,
                "{policy:?}"
            );
        }
    }

    #[test]
    fn conjunction_narrows_like_sequential_intersection() {
        let t = table(CompressionPolicy::Auto, 512);
        let both = QueryBuilder::scan(&t)
            .filter("day", Predicate::Range { lo: 5, hi: 30 })
            .filter("qty", Predicate::Range { lo: 1, hi: 10 })
            .aggregate(&[Agg::Count])
            .execute()
            .unwrap();
        // Reference: count rows satisfying both predicates on plain data.
        let day = t.materialize("day").unwrap();
        let qty = t.materialize("qty").unwrap();
        let expected = (0..t.num_rows())
            .filter(|&i| {
                let d = day.get_numeric(i).unwrap();
                let q = qty.get_numeric(i).unwrap();
                (5..=30).contains(&d) && (1..=10).contains(&q)
            })
            .count() as i128;
        assert_eq!(both.aggregates().unwrap(), &[Some(expected)]);
    }

    #[test]
    fn group_by_matches_hand_rolled() {
        for policy in policies() {
            let t = table(policy.clone(), 700);
            let result = QueryBuilder::scan(&t)
                .filter("qty", Predicate::Range { lo: 1, hi: 25 })
                .group_by("day")
                .aggregate(&[Agg::Sum("price"), Agg::Count])
                .execute()
                .unwrap();
            let day = t.materialize("day").unwrap();
            let qty = t.materialize("qty").unwrap();
            let price = t.materialize("price").unwrap();
            let mut expect: std::collections::HashMap<i128, (i128, i128)> =
                std::collections::HashMap::new();
            for i in 0..t.num_rows() {
                if (1..=25).contains(&qty.get_numeric(i).unwrap()) {
                    let e = expect.entry(day.get_numeric(i).unwrap()).or_default();
                    e.0 += price.get_numeric(i).unwrap();
                    e.1 += 1;
                }
            }
            let groups = result.groups().unwrap();
            assert_eq!(groups.len(), expect.len(), "{policy:?}");
            for (key, values) in groups {
                let &(sum, count) = expect.get(key).unwrap();
                assert_eq!(
                    values.as_slice(),
                    &[Some(sum), Some(count)],
                    "{policy:?} key {key}"
                );
            }
        }
    }

    #[test]
    fn filtered_top_k_and_distinct_match_naive() {
        for policy in policies() {
            let t = table(policy.clone(), 512);
            let topk = QueryBuilder::scan(&t)
                .filter("day", Predicate::Range { lo: 3, hi: 17 })
                .top_k("price", 25);
            assert_eq!(
                topk.execute().unwrap().rows,
                topk.execute_naive().unwrap().rows,
                "{policy:?}"
            );
            let distinct = QueryBuilder::scan(&t)
                .filter("qty", Predicate::Range { lo: 40, hi: 50 })
                .distinct("qty");
            assert_eq!(
                distinct.execute().unwrap().rows,
                distinct.execute_naive().unwrap().rows,
                "{policy:?}"
            );
        }
    }

    /// Every sink answers the same at any width, and `execute()` *is*
    /// `execute_opts(&ExecOptions::default())`: equal rows and an equal
    /// counter ledger, top-k's shared-bound skips included.
    #[test]
    fn every_sink_parallelizes() {
        let t = table(CompressionPolicy::Auto, 300);
        let right = std::sync::Arc::new(table(CompressionPolicy::Auto, 700));
        let builders = [
            QueryBuilder::scan(&t)
                .filter("day", Predicate::Range { lo: 2, hi: 35 })
                .aggregate(&[Agg::Sum("qty"), Agg::Count]),
            QueryBuilder::scan(&t)
                .filter("day", Predicate::Range { lo: 2, hi: 35 })
                .group_by("day")
                .aggregate(&[Agg::Sum("price")]),
            QueryBuilder::scan(&t).top_k("price", 40),
            QueryBuilder::scan(&t).distinct("qty"),
            QueryBuilder::scan(&t)
                .filter("qty", Predicate::Range { lo: 1, hi: 25 })
                .join("right", right, "day"),
        ];
        for (i, b) in builders.iter().enumerate() {
            let sequential = b.execute().unwrap();
            let default = b.execute_opts(&ExecOptions::default()).unwrap();
            assert_eq!(default.rows, sequential.rows, "sink {i}");
            assert_eq!(default.stats, sequential.stats, "sink {i}");
            for threads in [1usize, 2, 7, 64] {
                let parallel = b.execute_parallel(threads).unwrap();
                assert_eq!(parallel.rows, sequential.rows, "sink {i} x{threads}");
            }
        }
    }

    #[test]
    fn join_builder_matches_naive_and_parallelizes() {
        use std::sync::Arc;
        for policy in policies() {
            let left = table(policy.clone(), 300);
            let right = Arc::new(table(policy.clone(), 700));
            let b = QueryBuilder::scan(&left)
                .filter("qty", Predicate::Range { lo: 1, hi: 25 })
                .join("right", Arc::clone(&right), "day");
            let push = b.execute().unwrap();
            let naive = b.execute_naive().unwrap();
            assert_eq!(push.rows, naive.rows, "{policy:?}");
            assert_eq!(
                naive.stats.join_rows_undecoded, 0,
                "naive never goes structural: {policy:?}"
            );
            for threads in [2usize, 7] {
                assert_eq!(
                    b.execute_parallel(threads).unwrap().rows,
                    push.rows,
                    "{policy:?} x{threads}"
                );
            }
        }
    }

    #[test]
    fn parallel_aggregate_counters_match_sequential() {
        let t = table(CompressionPolicy::Auto, 300);
        let b = QueryBuilder::scan(&t)
            .filter("day", Predicate::Range { lo: 2, hi: 9 })
            .aggregate(&[Agg::Sum("qty")]);
        let sequential = b.execute().unwrap();
        for threads in [2usize, 5, 16] {
            assert_eq!(b.execute_parallel(threads).unwrap().stats, sequential.stats);
        }
    }

    #[test]
    fn compile_errors_are_loud() {
        let t = table(CompressionPolicy::None, 512);
        // No sink.
        assert!(QueryBuilder::scan(&t)
            .filter("day", Predicate::All)
            .execute()
            .is_err());
        // Two sinks.
        assert!(QueryBuilder::scan(&t)
            .top_k("qty", 3)
            .distinct("qty")
            .execute()
            .is_err());
        assert!(QueryBuilder::scan(&t)
            .aggregate(&[Agg::Count])
            .top_k("qty", 3)
            .execute()
            .is_err());
        // Unknown columns, wherever they appear.
        assert!(QueryBuilder::scan(&t)
            .filter("nope", Predicate::All)
            .aggregate(&[Agg::Count])
            .execute()
            .is_err());
        assert!(QueryBuilder::scan(&t)
            .aggregate(&[Agg::Sum("nope")])
            .execute()
            .is_err());
        assert!(QueryBuilder::scan(&t).group_by("nope").execute().is_err());
    }

    #[test]
    fn top_k_on_unknown_column_errors() {
        let t = table(CompressionPolicy::Auto, 512);
        let top = QueryBuilder::scan(&t).top_k("nope", 3);
        assert!(top.execute().is_err());
        assert!(top.execute_naive().is_err());
    }

    #[test]
    fn distinct_on_unknown_column_errors() {
        let t = table(CompressionPolicy::Auto, 512);
        let distinct = QueryBuilder::scan(&t).distinct("nope");
        assert!(distinct.execute().is_err());
        assert!(distinct.execute_naive().is_err());
    }

    #[test]
    fn repeated_column_conjuncts_stream_without_decoding() {
        // Two row-tier conjuncts on the same ns-compressed column: each
        // tests its values off the column's stream, so the row tier
        // fires once per conjunct per segment, the payload is fetched
        // once per segment, and no row is ever materialised.
        let n = 2000u64;
        let schema = TableSchema::new(&[("noise", DType::U64), ("payload", DType::U64)]);
        let noise = ColumnData::U64((0..n).map(|i| (i * 7919) % 1000).collect());
        let payload = ColumnData::U64((0..n).collect());
        let t = Table::build(
            schema,
            &[noise, payload],
            &[
                CompressionPolicy::Fixed("ns".into()),
                CompressionPolicy::Fixed("ns".into()),
            ],
            500,
        )
        .unwrap();
        let b = QueryBuilder::scan(&t)
            .filter("noise", Predicate::Range { lo: 100, hi: 900 })
            .filter("noise", Predicate::Range { lo: 200, hi: 800 })
            .aggregate(&[Agg::Sum("payload"), Agg::Count]);
        let push = b.execute().unwrap();
        assert_eq!(push.stats.pushdown.row_granularity, 2 * t.num_segments());
        assert_eq!(push.stats.segments_loaded, 2 * t.num_segments());
        assert_eq!(push.stats.rows_materialized, 0);
        assert_eq!(push.rows, b.execute_naive().unwrap().rows);
    }

    #[test]
    fn count_only_aggregate_is_fully_structural() {
        // No agg columns: every fully-selected segment is answered from
        // its metadata alone — same structural convention as group-by.
        let t = table(CompressionPolicy::Auto, 512);
        let result = QueryBuilder::scan(&t)
            .aggregate(&[Agg::Count])
            .execute()
            .unwrap();
        assert_eq!(result.aggregates().unwrap(), &[Some(6000)]);
        assert_eq!(result.stats.segments_structural, t.num_segments());
        assert_eq!(result.stats.rows_materialized, 0);
    }

    #[test]
    fn bare_group_by_counts_rows() {
        let t = table(CompressionPolicy::Auto, 512);
        let result = QueryBuilder::scan(&t).group_by("day").execute().unwrap();
        let groups = result.groups().unwrap();
        assert_eq!(groups.len(), 40);
        assert!(groups.iter().all(|(_, v)| v == &vec![Some(150)]));
        // Runny day column + no value columns: structural throughout.
        assert!(result.stats.rows_materialized < t.num_rows());
    }

    #[test]
    fn explain_names_the_operators() {
        let t = table(CompressionPolicy::Auto, 512);
        let text = QueryBuilder::scan(&t)
            .filter("day", Predicate::Range { lo: 2, hi: 9 })
            .group_by("day")
            .aggregate(&[Agg::Sum("qty"), Agg::Count])
            .explain()
            .unwrap();
        assert!(text.contains("scan"), "{text}");
        assert!(text.contains("filter day"), "{text}");
        assert!(text.contains("group-by day"), "{text}");
        assert!(text.contains("Sum(qty)"), "{text}");
        let top = QueryBuilder::scan(&t).top_k("price", 3).explain().unwrap();
        assert!(top.contains("top-3 price"), "{top}");
    }

    #[test]
    fn disjunction_matches_hand_rolled_or() {
        for policy in policies() {
            let t = table(policy.clone(), 512);
            let b = QueryBuilder::scan(&t)
                .filter_any(&[
                    ("day", Predicate::Range { lo: 3, hi: 7 }),
                    ("qty", Predicate::Eq(49)),
                ])
                .aggregate(&[Agg::Count, Agg::Sum("price")]);
            let push = b.execute().unwrap();
            assert_eq!(push.rows, b.execute_naive().unwrap().rows, "{policy:?}");
            // Reference on plain data.
            let day = t.materialize("day").unwrap();
            let qty = t.materialize("qty").unwrap();
            let expected = (0..t.num_rows())
                .filter(|&i| {
                    let d = day.get_numeric(i).unwrap();
                    let q = qty.get_numeric(i).unwrap();
                    (3..=7).contains(&d) || q == 49
                })
                .count() as i128;
            assert_eq!(push.aggregates().unwrap()[0], Some(expected), "{policy:?}");
        }
    }

    #[test]
    fn disjunction_composes_with_conjuncts() {
        let t = table(CompressionPolicy::Auto, 512);
        let b = QueryBuilder::scan(&t)
            .filter("day", Predicate::Range { lo: 2, hi: 30 })
            .filter_any(&[
                ("qty", Predicate::Range { lo: 1, hi: 5 }),
                ("price", Predicate::Range { lo: 500, hi: 600 }),
            ])
            .group_by("day")
            .aggregate(&[Agg::Count]);
        assert_eq!(b.execute().unwrap().rows, b.execute_naive().unwrap().rows);
    }

    #[test]
    fn in_predicate_matches_naive_across_policies() {
        for policy in policies() {
            let t = table(policy.clone(), 512);
            let b = QueryBuilder::scan(&t)
                .filter_in("qty", &[1, 7, 13, 50, 999])
                .aggregate(&[Agg::Count, Agg::Min("price")]);
            assert_eq!(
                b.execute().unwrap().rows,
                b.execute_naive().unwrap().rows,
                "{policy:?}"
            );
        }
        // Dictionary pushdown specifically: small-domain column.
        let schema = TableSchema::new(&[("d", DType::U64)]);
        let d = ColumnData::U64((0..4000u64).map(|i| (i * 17) % 23).collect());
        let t = Table::build(
            schema,
            &[d],
            &[CompressionPolicy::Fixed("dict[codes=ns]".into())],
            512,
        )
        .unwrap();
        let b = QueryBuilder::scan(&t)
            .filter_in("d", &[2, 3, 5, 7, 11])
            .aggregate(&[Agg::Count]);
        let push = b.execute().unwrap();
        assert_eq!(push.rows, b.execute_naive().unwrap().rows);
        assert!(push.stats.pushdown.code_granularity > 0, "{:?}", push.stats);
        assert_eq!(push.stats.pushdown.row_granularity, 0, "{:?}", push.stats);
    }

    #[test]
    fn run_structural_top_k_never_materializes_rows() {
        // Run-heavy column under RLE: top-k folds run values with
        // min(run length, k) multiplicity straight off the part columns.
        let n = 8000u64;
        let schema = TableSchema::new(&[("v", DType::U64)]);
        let v = ColumnData::U64((0..n).map(|i| (i / 40) % 150).collect());
        let t = Table::build(
            schema,
            &[v],
            &[CompressionPolicy::Fixed("rle[values=ns,lengths=ns]".into())],
            1000,
        )
        .unwrap();
        for k in [1usize, 3, 75, 9000] {
            let b = QueryBuilder::scan(&t).top_k("v", k);
            let push = b.execute().unwrap();
            assert_eq!(push.rows, b.execute_naive().unwrap().rows, "k={k}");
            assert_eq!(push.stats.rows_materialized, 0, "k={k}: {:?}", push.stats);
        }
    }

    #[test]
    fn pure_count_fetches_no_payloads() {
        let t = table(CompressionPolicy::Auto, 512);
        let result = QueryBuilder::scan(&t)
            .aggregate(&[Agg::Count])
            .execute()
            .unwrap();
        assert_eq!(result.aggregates().unwrap(), &[Some(6000)]);
        assert_eq!(result.stats.segments_loaded, 0, "{:?}", result.stats);
    }

    #[test]
    fn shared_agg_column_resolves_once() {
        let t = table(CompressionPolicy::Auto, 512);
        let result = QueryBuilder::scan(&t)
            .aggregate(&[
                Agg::Sum("qty"),
                Agg::Min("qty"),
                Agg::Max("qty"),
                Agg::Count,
            ])
            .execute()
            .unwrap();
        let values = result.aggregates().unwrap();
        assert_eq!(values[1], Some(1));
        assert_eq!(values[2], Some(50));
        assert_eq!(values[3], Some(6000));
        assert_eq!(
            values[0],
            Some((0..6000u64).map(|i| 1 + i % 50).sum::<u64>() as i128)
        );
    }

    #[test]
    fn empty_table_yields_empty_results() {
        let schema = TableSchema::new(&[("v", DType::U32)]);
        let t = Table::build(
            schema,
            &[ColumnData::U32(vec![])],
            &[CompressionPolicy::None],
            64,
        )
        .unwrap();
        let agg = QueryBuilder::scan(&t)
            .aggregate(&[Agg::Sum("v"), Agg::Min("v"), Agg::Count])
            .execute()
            .unwrap();
        assert_eq!(agg.aggregates().unwrap(), &[Some(0), None, Some(0)]);
        assert!(QueryBuilder::scan(&t)
            .top_k("v", 5)
            .execute()
            .unwrap()
            .top_k()
            .unwrap()
            .is_empty());
        assert!(QueryBuilder::scan(&t)
            .distinct("v")
            .execute()
            .unwrap()
            .distinct()
            .unwrap()
            .is_empty());
        assert!(QueryBuilder::scan(&t)
            .group_by("v")
            .execute()
            .unwrap()
            .groups()
            .unwrap()
            .is_empty());
    }
}
