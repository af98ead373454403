//! The aggregation-pushdown tier's contract, property-tested:
//!
//! * **Code-space group-by** — for DICT / RLE / auto-chosen key
//!   columns, under random filters, the structural group-by (dense
//!   per-code accumulators, run folding) must produce exactly the
//!   decoded (naive) group-by's answer, while never decompressing the
//!   key column on the structural paths
//!   (`QueryStats::rows_undecoded`).
//! * **Shared-threshold top-k** — under every worker count and over
//!   sharded catalogs, parallel top-k (whose lease slots share one
//!   job-wide bound) must equal the sequential reference, values and
//!   multiplicities included.

use lcdc::core::{ColumnData, DType};
use lcdc::store::{
    shard_table, Agg, Catalog, CompressionPolicy, ExecOptions, Predicate, QueryBuilder, QuerySpec,
    Table, TableSchema,
};
use proptest::prelude::*;

mod mixed_runs;
use mixed_runs::{MixedRuns, SEG_ROWS};

/// A two-column table whose key column is built under an explicit
/// policy: 0 = DICT codes, 1 = RLE runs, 2 = chooser's pick. Key values
/// are scrambled over `domain` (no runs) for DICT/auto, runny for RLE —
/// each the shape its tier targets.
fn keyed_table(seed: u64, n: usize, seg_rows: usize, domain: u64, key_policy: usize) -> Table {
    let domain = domain.max(1);
    let keys: Vec<u64> = match key_policy {
        1 => lcdc::datagen::runs::runs_over_domain(n, 40, domain, seed),
        _ => (0..n as u64)
            .map(|i| i.wrapping_mul(seed | 1).wrapping_add(seed >> 3) % domain)
            .collect(),
    };
    let vals = lcdc::datagen::uniform(n, 1000, seed ^ 0xC0FFEE);
    let key_policy = match key_policy {
        0 => CompressionPolicy::Fixed("dict[codes=ns]".into()),
        1 => CompressionPolicy::Fixed("rle[values=ns,lengths=ns]".into()),
        _ => CompressionPolicy::Auto,
    };
    Table::build(
        TableSchema::new(&[("key", DType::U64), ("val", DType::U64)]),
        &[ColumnData::U64(keys), ColumnData::U64(vals)],
        &[key_policy, CompressionPolicy::Auto],
        seg_rows,
    )
    .expect("table builds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// DICT/RLE code-space group-by ≡ decoded group-by, with and
    /// without filters, for every key policy.
    #[test]
    fn code_space_group_by_equals_decoded(
        seed in any::<u64>(),
        seg_rows in 128usize..900,
        domain in 1u64..300,
        key_policy in 0usize..3,
        filter in (any::<bool>(), 0u64..1000, 0u64..600),
    ) {
        let table = keyed_table(seed, 3000, seg_rows, domain, key_policy);
        let mut builder = QueryBuilder::scan(&table);
        let (filtered, lo, width) = filter;
        if filtered {
            builder = builder.filter("val", Predicate::Range {
                lo: lo as i128,
                hi: (lo + width) as i128,
            });
        }
        let builder = builder
            .group_by("key")
            .aggregate(&[Agg::Sum("val"), Agg::Min("val"), Agg::Count]);
        let push = builder.execute().expect("code-space runs");
        let naive = builder.execute_naive().expect("decoded runs");
        prop_assert_eq!(&push.rows, &naive.rows);
        prop_assert_eq!(naive.stats.rows_undecoded, 0, "the baseline decodes keys");
        // Forced structural key schemes never decode a selected key
        // row: the DICT tier composes with filter masks, the RLE tier
        // fires under full selections (a filtered RLE segment may fall
        // back, so its exact ledger is asserted unfiltered only).
        let selected: usize = push.groups().expect("group rows")
            .iter()
            .map(|(_, values)| values[2].expect("count") as usize)
            .sum();
        if key_policy == 0 || (key_policy == 1 && !filtered) {
            prop_assert_eq!(
                push.stats.rows_undecoded, selected,
                "every selected key row stayed in code/run space: {:?}", push.stats
            );
            prop_assert!(push.stats.groups_folded > 0 || selected == 0);
        }
        // Parallel execution folds the same tiers per segment.
        let parallel = builder.execute_parallel(4).expect("parallel runs");
        prop_assert_eq!(&parallel.rows, &push.rows);
        prop_assert_eq!(parallel.stats.rows_undecoded, push.stats.rows_undecoded);
    }

    /// Shared-threshold parallel top-k ≡ sequential top-k for worker
    /// counts 1/2/4/64, including sharded catalogs.
    #[test]
    fn shared_bound_top_k_equals_sequential(
        seed in any::<u64>(),
        seg_rows in 128usize..900,
        k in 1usize..200,
        shards in 1usize..5,
        filter in (any::<bool>(), 0u64..1000, 0u64..600),
    ) {
        let table = keyed_table(seed, 3000, seg_rows, 300, 2);
        let mut spec = QuerySpec::new();
        let (filtered, lo, width) = filter;
        if filtered {
            spec = spec.filter("val", Predicate::Range {
                lo: lo as i128,
                hi: (lo + width) as i128,
            });
        }
        let spec = spec.top_k("val", k);
        let want = spec.bind(&table).execute().expect("sequential reference");

        for threads in [1usize, 2, 4, 64] {
            let opts = ExecOptions::threads(threads);
            let got = spec.bind(&table).execute_opts(&opts).expect("parallel runs");
            prop_assert_eq!(&got.rows, &want.rows, "threads {}", threads);
        }

        // The same spec over a sharded catalog: the bound spans shards.
        let catalog = Catalog::with_cache_capacity(0);
        catalog
            .register_sharded("t", shard_table(&table, shards).expect("shards"))
            .expect("registers");
        for threads in [1usize, 4, 64] {
            let got = catalog
                .execute_parallel("t", &spec, threads)
                .expect("sharded runs");
            prop_assert_eq!(&got.rows, &want.rows, "sharded x{}", threads);
        }
    }
}

/// Deterministic acceptance scenario for the shared bound: one hot
/// segment holds the whole top-k, the other segments' maxima tie each
/// other — only the published bound (not a moderate segment's own heap)
/// can prune them. Best-max-first order guarantees the hot segment is
/// drawn first, so the sequential skip count is exact.
#[test]
fn shared_bound_skips_moderate_segments() {
    const SEG_ROWS: usize = 512;
    const SEGMENTS: usize = 12;
    let v: Vec<u64> = (0..SEG_ROWS * SEGMENTS)
        .map(|i| {
            let noise = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 54;
            if i / SEG_ROWS == 0 {
                1_000_000 + noise
            } else {
                noise
            }
        })
        .collect();
    let table = Table::build(
        TableSchema::new(&[("v", DType::U64)]),
        &[ColumnData::U64(v)],
        &[CompressionPolicy::Auto],
        SEG_ROWS,
    )
    .unwrap();
    let spec = QuerySpec::new().top_k("v", 32);
    // One worker drains the queue in best-max order: the hot segment
    // fills the heap, publishes, and every moderate segment is skipped
    // against the published bound — an exact, race-free count.
    let want = spec.bind(&table).execute().unwrap();
    assert_eq!(
        want.stats.topk_segments_skipped,
        SEGMENTS - 1,
        "every moderate segment skipped on the published bound: {:?}",
        want.stats
    );

    // More workers can only *race* the publication, never over-skip —
    // and the answer never moves.
    let racy = spec
        .bind(&table)
        .execute_opts(&ExecOptions::threads(4))
        .unwrap();
    assert_eq!(racy.rows, want.rows);
    assert!(racy.stats.topk_segments_skipped < SEGMENTS);
}

/// Group-by and key filters over DICT key columns that mix segments
/// sharing a run dictionary, segments with their own (an appended one
/// bringing new keys) and non-DICT segments, on every storage surface
/// at 1 and 2 threads: each equals the decoded baseline. The unfiltered
/// group-by's structural ledger is predicted exactly per segment: a
/// DICT segment — shared dictionary or own — folds its distinct keys
/// and never decodes a key row (the per-dictionary fold still counts
/// per segment), CONST one unit with `val` folded whole, the row tier
/// none; so is the unfiltered distinct's.
#[test]
fn mixed_runs_group_by_and_key_filters_equal_decoded() {
    use lcdc::store::SchemeKind;
    for (seed, signed) in [(7, false), (11, true), (12345, false)] {
        let mixed = MixedRuns::build(seed, signed, "codespace");
        let aggs = [
            Agg::Sum("val"),
            Agg::Min("val"),
            Agg::Max("val"),
            Agg::Count,
        ];
        let group_by = |t| QueryBuilder::scan(t).group_by("key").aggregate(&aggs);
        let want = group_by(mixed.resident()).execute_naive().unwrap().rows;
        let (lo, hi) = (
            mixed.keys[3].min(mixed.keys[900]),
            mixed.keys[3].max(mixed.keys[900]),
        );
        let members: Vec<i128> = [0, 5, 700, 1900, 2200]
            .map(|i| mixed.keys[i] as i128)
            .to_vec();
        for (surface, table) in &mixed.surfaces {
            let queries = [
                ("group-by", group_by(table)),
                (
                    "masked group-by",
                    QueryBuilder::scan(table)
                        .filter("val", Predicate::Range { lo: 100, hi: 600 })
                        .group_by("key")
                        .aggregate(&aggs),
                ),
                (
                    "key range",
                    QueryBuilder::scan(table)
                        .filter(
                            "key",
                            Predicate::Range {
                                lo: lo.into(),
                                hi: hi.into(),
                            },
                        )
                        .aggregate(&[Agg::Sum("val"), Agg::Count]),
                ),
                (
                    "key list, grouped",
                    QueryBuilder::scan(table)
                        .filter_in("key", &members)
                        .group_by("key")
                        .aggregate(&[Agg::Count]),
                ),
            ];
            for (what, query) in &queries {
                let naive = query.execute_naive().unwrap();
                for threads in [1, 2] {
                    let got = query.execute_parallel(threads).unwrap();
                    assert_eq!(got.rows, naive.rows, "{surface} {what} x{threads}");
                }
            }
            let full = group_by(table);
            assert_eq!(full.execute().unwrap().rows, want, "{surface}");
            let (mut folded, mut values, mut undecoded) = (0, 0, 0);
            let source = table.source("key").unwrap();
            for i in 0..source.num_segments() {
                let keys = mixed.segment_keys(i);
                let mut distinct = keys.to_vec();
                distinct.sort_unstable();
                distinct.dedup();
                match source.meta(i).kind {
                    SchemeKind::Dict => {
                        (folded, values, undecoded) = (
                            folded + distinct.len(),
                            values + SEG_ROWS,
                            undecoded + SEG_ROWS,
                        )
                    }
                    // One key unit; `val` folds as a whole segment.
                    SchemeKind::Const => {
                        (folded, values, undecoded) =
                            (folded + 1, values + 1 + SEG_ROWS, undecoded + SEG_ROWS)
                    }
                    kind => {
                        assert!(!matches!(kind, SchemeKind::Rle | SchemeKind::Rpe));
                        values += SEG_ROWS;
                    }
                }
            }
            for threads in [1, 2] {
                let stats = full.execute_parallel(threads).unwrap().stats;
                let got = (
                    stats.groups_folded,
                    stats.values_processed,
                    stats.rows_undecoded,
                );
                assert_eq!(got, (folded, values, undecoded), "{surface} x{threads}");
            }
            // The unfiltered distinct: a segment sharing its run's
            // dictionary reads its codes (every row) and keeps the
            // entries they touch; one with its own dictionary reads just
            // the dictionary, CONST its one value; both structural.
            let distinct = QueryBuilder::scan(table).distinct("key");
            let (mut structural, mut values) = (0, 0);
            for i in 0..source.num_segments() {
                let meta = source.meta(i);
                let mut keys = mixed.segment_keys(i).to_vec();
                keys.sort_unstable();
                keys.dedup();
                match meta.kind {
                    SchemeKind::Dict if meta.expr.contains("dict=shared") => {
                        (structural, values) = (structural + 1, values + SEG_ROWS)
                    }
                    SchemeKind::Dict => {
                        (structural, values) = (structural + 1, values + keys.len())
                    }
                    SchemeKind::Const => (structural, values) = (structural + 1, values + 1),
                    _ => values += SEG_ROWS,
                }
            }
            for threads in [1, 2] {
                let stats = distinct.execute_parallel(threads).unwrap().stats;
                let got = (stats.segments_structural, stats.values_processed);
                assert_eq!(got, (structural, values), "{surface} distinct x{threads}");
            }
        }
    }
}
