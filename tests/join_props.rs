//! The equi-join sink's contract, property-tested differentially:
//!
//! * **Rows** — for every combination of key schemes (CONST / DICT /
//!   RLE / chooser-picked), key distributions, shard layouts, and
//!   filters, the compressed-domain join must produce exactly the
//!   decoded nested-loop oracle's `(key, pair count)` rows — compared
//!   both against `execute_naive` and against an independent oracle
//!   computed here from the raw vectors the tables were built from.
//! * **Ledgers** — on the race-free single-worker path with forced
//!   structural schemes, the three join counters are predicted
//!   *exactly* from the raw data: zone-pair pruning from per-segment
//!   `[min, max]`, undecoded rows from which segments' tiers fire,
//!   code→code translations from the live DICT⋈DICT pair count. The
//!   naive baseline reports zero on all three.
//! * **I/O** — zone-pruned `(left, right)` segment pairs on lazily
//!   opened tables fetch nothing at all (`io_reads == 0`), and CONST
//!   right segments build from resident metadata alone.

use lcdc::core::{ColumnData, DType};
use lcdc::store::{
    open_table_lazy, save_table, shard_table, Catalog, CompressionPolicy, Predicate, QueryBuilder,
    QuerySpec, Table, TableSchema,
};
use proptest::prelude::*;

mod mixed_runs;
use mixed_runs::MixedRuns;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Key-column shapes, one per structural join tier plus the chooser.
const CONST: usize = 0;
const DICT: usize = 1;
const RLE: usize = 2;
const AUTO_SORTED: usize = 3;
const AUTO_SCRAMBLED: usize = 4;

/// Build a two-column table — `key` shaped and compressed per `shape`,
/// `val` uniform in `0..1000` under the chooser — and return it with
/// the raw vectors the oracle recomputes everything from.
fn join_table(
    seed: u64,
    n: usize,
    seg_rows: usize,
    domain: u64,
    shift: u64,
    shape: usize,
) -> (Table, Vec<u64>, Vec<u64>) {
    let domain = domain.max(1);
    let keys: Vec<u64> = match shape {
        // Constant within each segment, varying across segments.
        CONST => (0..n)
            .map(|i| shift + ((i / seg_rows) as u64).wrapping_mul(131).wrapping_add(seed) % domain)
            .collect(),
        // Scrambled over the domain: no runs, DICT's target shape.
        DICT | AUTO_SCRAMBLED => (0..n as u64)
            .map(|i| shift + i.wrapping_mul(seed | 1).wrapping_add(seed >> 3) % domain)
            .collect(),
        // Runny over the domain: RLE's target shape.
        RLE => lcdc::datagen::runs::runs_over_domain(n, 40, domain, seed)
            .into_iter()
            .map(|k| shift + k)
            .collect(),
        // Sorted and clustered: narrow zones, the chooser's pick.
        _ => (0..n as u64)
            .map(|i| shift + i * domain / n as u64)
            .collect(),
    };
    let vals = lcdc::datagen::uniform(n, 1000, seed ^ 0xC0FFEE);
    let key_policy = match shape {
        CONST => CompressionPolicy::Fixed("const".into()),
        DICT => CompressionPolicy::Fixed("dict[codes=ns]".into()),
        RLE => CompressionPolicy::Fixed("rle[values=ns,lengths=ns]".into()),
        _ => CompressionPolicy::Auto,
    };
    let table = Table::build(
        TableSchema::new(&[("key", DType::U64), ("val", DType::U64)]),
        &[ColumnData::U64(keys.clone()), ColumnData::U64(vals.clone())],
        &[key_policy, CompressionPolicy::Auto],
        seg_rows,
    )
    .expect("table builds");
    (table, keys, vals)
}

/// The independent nested-loop oracle: per key, selected left rows ×
/// right rows, ascending — exactly the shape `Rows::Joined` promises.
fn oracle_pairs(
    left_keys: &[u64],
    selected: impl Fn(usize) -> bool,
    right_keys: &[u64],
) -> Vec<(i128, i128)> {
    let mut lh: BTreeMap<i128, i128> = BTreeMap::new();
    for (i, &k) in left_keys.iter().enumerate() {
        if selected(i) {
            *lh.entry(k as i128).or_insert(0) += 1;
        }
    }
    let mut rh: BTreeMap<i128, i128> = BTreeMap::new();
    for &k in right_keys {
        *rh.entry(k as i128).or_insert(0) += 1;
    }
    lh.into_iter()
        .filter_map(|(k, lc)| rh.get(&k).map(|rc| (k, lc * rc)))
        .collect()
}

/// Per-segment `(min, max, rows)` of a raw vector chunked at
/// `seg_rows` — the zone maps the pair scan reads, recomputed here.
fn zones(keys: &[u64], seg_rows: usize) -> Vec<(u64, u64, usize)> {
    keys.chunks(seg_rows)
        .map(|c| {
            let min = c.iter().copied().min().expect("non-empty chunk");
            let max = c.iter().copied().max().expect("non-empty chunk");
            (min, max, c.len())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every scheme pairing × distribution × optional filter: the
    /// compressed join's rows equal both the decoded baseline's and
    /// the independent raw-vector oracle's, and the baseline reports
    /// zero on every join counter.
    #[test]
    fn join_rows_match_decoded_oracle(
        seed in any::<u64>(),
        seg_rows in 100usize..700,
        domain in 1u64..400,
        shift in 0u64..300,
        lshape in 0usize..5,
        rshape in 0usize..5,
        filter in (any::<bool>(), 0u64..1000, 0u64..600),
    ) {
        let (left, lkeys, lvals) = join_table(seed, 2500, seg_rows, domain, 0, lshape);
        let (right, rkeys, _) =
            join_table(seed ^ 0x9E37, 2000, seg_rows, domain, shift, rshape);
        let right = Arc::new(right);

        let mut builder = QueryBuilder::scan(&left);
        let (filtered, lo, width) = filter;
        if filtered {
            builder = builder.filter("val", Predicate::Range {
                lo: lo as i128,
                hi: (lo + width) as i128,
            });
        }
        let builder = builder.join("r", Arc::clone(&right), "key");

        let push = builder.execute().expect("compressed join runs");
        let naive = builder.execute_naive().expect("decoded join runs");
        prop_assert_eq!(&push.rows, &naive.rows, "compressed == decoded rows");
        let want = oracle_pairs(
            &lkeys,
            |i| !filtered || (lvals[i] >= lo && lvals[i] <= lo + width),
            &rkeys,
        );
        prop_assert_eq!(push.joined().expect("joined rows"), &want[..]);

        // The baseline decodes row-wise, prunes nothing, translates
        // nothing: its ledger is the all-zero reference.
        prop_assert_eq!(naive.stats.join_pairs_pruned, 0);
        prop_assert_eq!(naive.stats.join_rows_undecoded, 0);
        prop_assert_eq!(naive.stats.join_code_translations, 0);

        // Parallel execution reaches the same rows; the per-left-segment
        // pair-pruning count is worker-count-invariant.
        let parallel = builder.execute_parallel(4).expect("parallel join runs");
        prop_assert_eq!(&parallel.rows, &push.rows);
        prop_assert_eq!(
            parallel.stats.join_pairs_pruned,
            push.stats.join_pairs_pruned
        );
    }

    /// Race-free single-worker path, forced structural schemes, no
    /// filter: all three join counters predicted exactly from the raw
    /// vectors — pruning from recomputed zone maps, undecoded rows
    /// from which segments' tiers fire, translations from the live
    /// DICT⋈DICT pair count.
    #[test]
    fn join_ledgers_are_exact(
        seed in any::<u64>(),
        seg_rows in 100usize..700,
        domain in 1u64..400,
        shift in 0u64..500,
        lshape in 0usize..3,
        rshape in 0usize..3,
    ) {
        let (left, lkeys, _) = join_table(seed, 2500, seg_rows, domain, 0, lshape);
        let (right, rkeys, _) =
            join_table(seed ^ 0x9E37, 2000, seg_rows, domain, shift, rshape);
        let right = Arc::new(right);
        let builder = QueryBuilder::scan(&left).join("r", Arc::clone(&right), "key");
        let got = builder.execute().expect("compressed join runs");
        prop_assert_eq!(
            got.joined().expect("joined rows"),
            &oracle_pairs(&lkeys, |_| true, &rkeys)[..]
        );

        let lzones = zones(&lkeys, seg_rows);
        let rzones = zones(&rkeys, seg_rows);
        let overlap = |l: &(u64, u64, usize), r: &(u64, u64, usize)| l.0 <= r.1 && r.0 <= l.1;
        let mut pruned = 0usize;
        let mut translations = 0usize;
        let mut undecoded = 0usize;
        let mut right_used = vec![false; rzones.len()];
        for lz in &lzones {
            let live: Vec<usize> = (0..rzones.len())
                .filter(|&i| overlap(lz, &rzones[i]))
                .collect();
            pruned += rzones.len() - live.len();
            if live.is_empty() {
                continue; // no pair survives: the left build never runs
            }
            // Forced CONST/DICT/RLE left keys: every selected (= all)
            // row of the segment stays structural.
            undecoded += lz.2;
            if lshape == DICT && rshape == DICT {
                translations += live.len();
            }
            for i in live {
                right_used[i] = true;
            }
        }
        // Each used right segment histograms once per worker, whole —
        // CONST from its zone map, DICT per code, RLE per run.
        undecoded += right_used
            .iter()
            .zip(&rzones)
            .filter_map(|(&used, rz)| used.then_some(rz.2))
            .sum::<usize>();

        prop_assert_eq!(got.stats.join_pairs_pruned, pruned, "{:?}", got.stats);
        prop_assert_eq!(got.stats.join_rows_undecoded, undecoded, "{:?}", got.stats);
        prop_assert_eq!(
            got.stats.join_code_translations, translations,
            "{:?}", got.stats
        );
    }

    /// Sharded catalogs: left and right split into independent shard
    /// counts, joined shard-to-shard through the catalog on the shared
    /// pool — same rows as the unsharded decoded baseline, for worker
    /// counts 1 and 4.
    #[test]
    fn sharded_catalog_join_matches_unsharded(
        seed in any::<u64>(),
        seg_rows in 100usize..700,
        domain in 1u64..400,
        lshards in 1usize..4,
        rshards in 1usize..4,
        lshape in 0usize..5,
        rshape in 0usize..5,
    ) {
        let (left, lkeys, _) = join_table(seed, 2500, seg_rows, domain, 0, lshape);
        let (right, rkeys, _) =
            join_table(seed ^ 0x9E37, 2000, seg_rows, domain, domain / 2, rshape);
        let want = oracle_pairs(&lkeys, |_| true, &rkeys);

        let catalog = Catalog::with_cache_capacity(0);
        catalog
            .register_sharded("l", shard_table(&left, lshards).expect("left shards"))
            .expect("left registers");
        catalog
            .register_sharded("r", shard_table(&right, rshards).expect("right shards"))
            .expect("right registers");
        let spec = QuerySpec::new().join("r", "key");
        for threads in [1usize, 4] {
            let got = catalog
                .execute_parallel("l", &spec, threads)
                .expect("sharded join runs");
            prop_assert_eq!(
                got.joined().expect("joined rows"),
                &want[..],
                "x{}", threads
            );
        }
    }
}

/// Zone-pair pruning is an I/O property, proven on lazy tables: fully
/// disjoint key ranges prune every pair before any payload fetch, so
/// neither side reads a single frame from disk.
#[test]
fn pruned_pairs_fetch_nothing() {
    let root = std::env::temp_dir().join(format!("lcdc_join_prune_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (left, _, _) = join_table(7, 2000, 256, 100, 0, AUTO_SORTED);
    let (right, _, _) = join_table(11, 1500, 256, 100, 50_000, AUTO_SORTED);
    save_table(&left, &root.join("l")).unwrap();
    save_table(&right, &root.join("r")).unwrap();

    let lazy_left = open_table_lazy(&root.join("l"), 8).unwrap();
    let lazy_right = Arc::new(open_table_lazy(&root.join("r"), 8).unwrap());
    let got = QueryBuilder::scan(&lazy_left)
        .join("r", Arc::clone(&lazy_right), "key")
        .execute()
        .unwrap();
    assert!(got.joined().unwrap().is_empty(), "disjoint keys");
    assert_eq!(
        got.stats.join_pairs_pruned,
        lazy_left.num_segments() * lazy_right.num_segments(),
        "every pair dismissed on resident metadata: {:?}",
        got.stats
    );
    assert_eq!(lazy_left.io_reads(), 0, "no left payload fetched");
    assert_eq!(lazy_right.io_reads(), 0, "no right payload fetched");
    std::fs::remove_dir_all(&root).ok();
}

/// Partial overlap on a lazy DICT right side: only the live right
/// segments are fetched, each exactly once per worker (the build cache
/// holds them across left segments).
#[test]
fn live_pairs_fetch_each_right_segment_once() {
    let root = std::env::temp_dir().join(format!("lcdc_join_live_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    // Left covers keys 0..100; the right's later segments sit far
    // above every left zone and must never be read.
    let (left, lkeys, _) = join_table(3, 2000, 256, 100, 0, DICT);
    let n = 1500usize;
    let seg_rows = 250usize;
    let rkeys: Vec<u64> = (0..n)
        .map(|i| {
            let seg = i / seg_rows;
            if seg < 3 {
                (i as u64).wrapping_mul(7) % 100
            } else {
                1_000_000 + (i as u64 % 50)
            }
        })
        .collect();
    let right = Table::build(
        TableSchema::new(&[("key", DType::U64), ("val", DType::U64)]),
        &[
            ColumnData::U64(rkeys.clone()),
            ColumnData::U64(lcdc::datagen::uniform(n, 1000, 5)),
        ],
        &[
            CompressionPolicy::Fixed("dict[codes=ns]".into()),
            CompressionPolicy::Auto,
        ],
        seg_rows,
    )
    .unwrap();
    save_table(&right, &root.join("r")).unwrap();
    let lazy_right = Arc::new(open_table_lazy(&root.join("r"), 8).unwrap());

    let got = QueryBuilder::scan(&left)
        .join("r", Arc::clone(&lazy_right), "key")
        .execute()
        .unwrap();
    assert_eq!(
        got.joined().unwrap(),
        &oracle_pairs(&lkeys, |_| true, &rkeys)[..]
    );
    assert_eq!(
        lazy_right.io_reads(),
        3,
        "only the overlapping right segments were fetched, once each: {:?}",
        got.stats
    );
    assert!(got.stats.join_code_translations > 0, "DICT⋈DICT fired");
    std::fs::remove_dir_all(&root).ok();
}

/// CONST right segments build their histogram from resident metadata:
/// live pairs, correct rows, and still zero right-side I/O.
#[test]
fn const_right_builds_from_metadata_alone() {
    let root = std::env::temp_dir().join(format!("lcdc_join_const_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (left, lkeys, _) = join_table(9, 2000, 256, 60, 0, DICT);
    let (right, rkeys, _) = join_table(13, 1500, 250, 60, 0, CONST);
    save_table(&right, &root.join("r")).unwrap();
    let lazy_right = Arc::new(open_table_lazy(&root.join("r"), 8).unwrap());

    let got = QueryBuilder::scan(&left)
        .join("r", Arc::clone(&lazy_right), "key")
        .execute()
        .unwrap();
    let want = oracle_pairs(&lkeys, |_| true, &rkeys);
    assert_eq!(got.joined().unwrap(), &want[..]);
    assert!(!want.is_empty(), "the overlap is real, not vacuous");
    assert_eq!(
        lazy_right.io_reads(),
        0,
        "CONST build sides never fetch a payload: {:?}",
        got.stats
    );
    std::fs::remove_dir_all(&root).ok();
}

/// The result cache keys on the *pair* of table versions: ingesting
/// into the right table must evict, even though the left version (part
/// of the classic cache key) never moved. Exercised end to end through
/// the catalog here; the snapshot-isolation suite races it.
#[test]
fn right_table_ingest_invalidates_cached_join() {
    let (left, lkeys, _) = join_table(21, 1200, 200, 50, 0, DICT);
    let (right, mut rkeys, _) = join_table(23, 800, 200, 50, 0, RLE);
    let catalog = Catalog::new();
    catalog.register("l", left);
    catalog.register("r", right);
    let spec = QuerySpec::new().join("r", "key");

    let first = catalog.execute("l", &spec).unwrap();
    assert_eq!(
        first.joined().unwrap(),
        &oracle_pairs(&lkeys, |_| true, &rkeys)[..]
    );
    let cached = catalog.execute("l", &spec).unwrap();
    assert_eq!(cached.rows, first.rows);
    assert!(cached.stats.result_cache_hits > 0, "second run is a hit");

    // Grow the right side: every key 0..50 gains rows.
    let batch_keys: Vec<u64> = (0..100u64).map(|i| i % 50).collect();
    let batch_vals = vec![1u64; 100];
    catalog
        .ingest(
            "r",
            &[
                ColumnData::U64(batch_keys.clone()),
                ColumnData::U64(batch_vals),
            ],
        )
        .unwrap();
    rkeys.extend(batch_keys);

    let after = catalog.execute("l", &spec).unwrap();
    assert_eq!(
        after.stats.result_cache_hits, 0,
        "right-side ingest evicted the cached pairs"
    );
    assert_eq!(
        after.joined().unwrap(),
        &oracle_pairs(&lkeys, |_| true, &rkeys)[..],
        "the new rows are visible"
    );
}

/// Joins whose key columns, on both sides, mix segments sharing a run
/// dictionary, segments with their own (an appended one bringing new
/// keys) and non-DICT segments: on every storage surface of the left
/// side, at 1 and 2 threads, the rows equal the decoded baseline's, and
/// the code→code translations are exactly the live (left DICT segment,
/// right DICT segment) pairs — a left side folded per dictionary still
/// counts its pairs per segment.
#[test]
fn mixed_runs_join_equals_decoded() {
    use lcdc::store::SchemeKind;
    for (seed, signed) in [(5, false), (6, true)] {
        let left = MixedRuns::build(seed, signed, "join_left");
        let right = MixedRuns::build(seed ^ 0xF00D, signed, "join_right");
        let right = Arc::new(right.resident().clone());
        let rsource = right.source("key").unwrap();
        let want = QueryBuilder::scan(left.resident())
            .join("r", Arc::clone(&right), "key")
            .execute_naive()
            .unwrap()
            .rows;
        for (surface, table) in &left.surfaces {
            let lsource = table.source("key").unwrap();
            let mut translations = 0;
            for l in 0..lsource.num_segments() {
                let lm = lsource.meta(l);
                for r in 0..rsource.num_segments() {
                    let rm = rsource.meta(r);
                    let live = lm.min <= rm.max && rm.min <= lm.max;
                    let dicts = lm.kind == SchemeKind::Dict && rm.kind == SchemeKind::Dict;
                    translations += usize::from(live && dicts);
                }
            }
            let joined = QueryBuilder::scan(table).join("r", Arc::clone(&right), "key");
            let masked = QueryBuilder::scan(table)
                .filter("val", Predicate::Range { lo: 200, hi: 700 })
                .join("r", Arc::clone(&right), "key");
            let naive = masked.execute_naive().unwrap();
            for threads in [1, 2] {
                let got = joined.execute_parallel(threads).unwrap();
                assert_eq!(got.rows, want, "{surface} x{threads}");
                assert_eq!(
                    got.stats.join_code_translations, translations,
                    "{surface} x{threads}"
                );
                let got = masked.execute_parallel(threads).unwrap();
                assert_eq!(got.rows, naive.rows, "{surface} masked x{threads}");
            }
            // And as the right side.
            let flipped = QueryBuilder::scan(&right).join("l", Arc::new(table.clone()), "key");
            let got = flipped.execute_parallel(2).unwrap();
            assert_eq!(
                got.rows,
                flipped.execute_naive().unwrap().rows,
                "{surface} right"
            );
        }
    }
}
