//! Exact segment summaries on every storage surface.
//!
//! A segment the store builds carries its rows' exact sum beside its
//! zone map, and a fully selected segment answers SUM / MIN / MAX /
//! COUNT from that summary without a fetch. Here:
//!
//! 1. saving a table and reopening it through `load_table` and
//!    `open_table_lazy` yields the metas it was built with — summaries
//!    where the store computed them, none where a caller built the
//!    segment by hand;
//! 2. aggregates whose filters the zone maps settle equal
//!    `execute_naive` and an independent `i128` oracle, resident, lazy
//!    and as a lazy 3-shard catalog table, at one and two workers, and
//!    after `Table::append` and `append_table`.

use lcdc::core::{ColumnData, DType};
use lcdc::store::{
    append_table, load_table, open_table_lazy, save_table, shard_table, Agg, Catalog,
    CompressionPolicy, ExecOptions, Predicate, QuerySpec, Segment, SegmentMeta, Table, TableSchema,
};
use std::path::{Path, PathBuf};

const SEG: usize = 256;
/// Rows per day: four days to a segment, so day ranges can cover whole
/// segments.
const PER_DAY: usize = 64;

const VALUES: [(&str, DType); 4] = [
    ("big", DType::U64),
    ("neg", DType::I64),
    ("small", DType::U32),
    ("signed", DType::I32),
];

/// Row `i`'s day and value columns, as exact numbers. Segment 1 of
/// `big` is all `u64::MAX` and segment 2 of `neg` all `i64::MIN`: their
/// sums only an `i128` holds.
fn row(i: usize) -> [i128; 5] {
    let spread = (i as i128 * 7919) % 1000;
    let big = match i / SEG {
        1 => u64::MAX as i128,
        _ => u64::MAX as i128 - spread,
    };
    let neg = match (i / SEG, i % 3) {
        (2, _) | (_, 0) => i64::MIN as i128,
        (_, 1) => i64::MAX as i128 - spread,
        _ => spread - 500,
    };
    [(i / PER_DAY) as i128, big, neg, spread * 7, spread - 500]
}

/// Rows `range` as the table's columns (`day` first).
fn columns(range: std::ops::Range<usize>) -> Vec<ColumnData> {
    let rows: Vec<[i128; 5]> = range.map(row).collect();
    let dtypes = [DType::U64].into_iter().chain(VALUES.map(|(_, d)| d));
    dtypes
        .enumerate()
        .map(|(c, dtype)| {
            let values: Vec<i128> = rows.iter().map(|r| r[c]).collect();
            ColumnData::from_numeric(dtype, &values).expect("in range")
        })
        .collect()
}

fn schema() -> TableSchema {
    let mut cols = vec![("day", DType::U64)];
    cols.extend(VALUES);
    TableSchema::new(&cols)
}

fn policies() -> Vec<CompressionPolicy> {
    vec![CompressionPolicy::Auto; 1 + VALUES.len()]
}

fn build(rows: usize) -> Table {
    Table::build(schema(), &columns(0..rows), &policies(), SEG).expect("builds")
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lcdc_summaries_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every column's segment metas, in order.
fn metas(table: &Table) -> Vec<Vec<SegmentMeta>> {
    table
        .schema()
        .columns
        .iter()
        .map(|col| {
            let source = table.source(&col.name).expect("column");
            (0..source.num_segments())
                .map(|i| source.meta(i).clone())
                .collect()
        })
        .collect()
}

#[test]
fn summaries_survive_both_opens() {
    let built = build(3000);
    let hand_built = {
        let columns = built
            .schema()
            .columns
            .iter()
            .map(|col| {
                let segments = built.column_segments(&col.name).expect("column");
                segments
                    .iter()
                    .map(|s| Segment::new(s.compressed.clone(), s.expr.clone(), s.min, s.max))
                    .collect::<Result<Vec<_>, _>>()
                    .expect("same frames")
            })
            .collect();
        Table::from_segments(schema(), columns, SEG).expect("same shape")
    };
    for (tag, table, summarised) in [("built", &built, true), ("hand", &hand_built, false)] {
        let want = metas(table);
        assert!(
            want.iter().flatten().all(|m| m.sum.is_some() == summarised),
            "{tag}"
        );
        let dir = tmpdir(tag);
        save_table(table, &dir).expect("saves");
        assert_eq!(metas(&load_table(&dir).expect("loads")), want, "{tag} load");
        let lazy = open_table_lazy(&dir, 4).expect("opens");
        assert_eq!(metas(&lazy), want, "{tag} lazy");
        // A lazy table's frames decode to segments with the same metas.
        for (c, col) in table.schema().columns.iter().enumerate() {
            for (i, seg) in lazy.column_segments(&col.name).unwrap().iter().enumerate() {
                assert_eq!(SegmentMeta::of(seg), want[c][i], "{tag} {} {i}", col.name);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// `[SUM, MIN, MAX]` of every value column and `COUNT`, over the rows
/// `0..rows` whose day lies in `lo..=hi`: the independent oracle.
fn oracle(rows: usize, (lo, hi): (i128, i128)) -> Vec<Option<i128>> {
    let picked: Vec<[i128; 5]> = (0..rows)
        .map(row)
        .filter(|r| (lo..=hi).contains(&r[0]))
        .collect();
    let mut out = Vec::new();
    for c in 1..=VALUES.len() {
        let values = picked.iter().map(|r| r[c]);
        out.push(Some(values.clone().sum()));
        out.push(values.clone().min());
        out.push(values.max());
    }
    out.push(Some(picked.len() as i128));
    out
}

fn spec((lo, hi): (i128, i128)) -> QuerySpec {
    let mut aggs = Vec::new();
    for (name, _) in VALUES {
        aggs.extend([Agg::Sum(name), Agg::Min(name), Agg::Max(name)]);
    }
    aggs.push(Agg::Count);
    QuerySpec::new()
        .filter("day", Predicate::Range { lo, hi })
        .aggregate(&aggs)
}

/// Day ranges over `rows`: one covering whole segments (every touched
/// segment zone-settled), one with edges, one over everything.
fn ranges(rows: usize) -> [(i128, i128); 3] {
    let last = ((rows - 1) / PER_DAY) as i128;
    [(8, 23), (6, last - 3), (0, last)]
}

/// A 3-shard catalog entry over `table`, each shard saved under `root`
/// and opened lazily.
fn lazy_shards(table: &Table, root: &Path) -> Catalog {
    let shards = shard_table(table, 3)
        .expect("shards")
        .iter()
        .enumerate()
        .map(|(i, shard)| {
            let dir = root.join(format!("t.shard{i}"));
            save_table(shard, &dir).expect("saves");
            open_table_lazy(&dir, 4).expect("opens")
        })
        .collect();
    let catalog = Catalog::with_cache_capacity(0);
    catalog.register_sharded("t", shards).expect("registers");
    catalog
}

/// Every range over every surface at one and two workers equals the
/// naive answer over `reference` and the oracle over `rows` rows; the
/// whole-segment range is answered from metadata on every surface.
fn check_surfaces(what: &str, rows: usize, reference: &Table, lazy: &Table, catalog: &Catalog) {
    for (r, range) in ranges(rows).into_iter().enumerate() {
        let spec = spec(range);
        let want = oracle(rows, range);
        let naive = spec.bind(reference).execute_naive().expect("naive runs");
        assert_eq!(naive.aggregates().unwrap(), want, "{what} {range:?} naive");
        for threads in [1, 2] {
            let opts = ExecOptions::threads(threads);
            let results = [
                ("resident", spec.bind(reference).execute_opts(&opts)),
                ("lazy", spec.bind(lazy).execute_opts(&opts)),
                ("3 shards", catalog.execute_opts("t", &spec, &opts)),
            ];
            for (surface, got) in results {
                let got = got.unwrap_or_else(|e| panic!("{what} {surface}: {e}"));
                let at = format!("{what} {surface} x{threads} {range:?}: {:?}", got.stats);
                assert_eq!(got.aggregates().unwrap(), want, "{at}");
                assert!(got.stats.segments_from_metadata > 0, "{at}");
                if r == 0 {
                    assert_eq!(got.stats.segments_loaded, 0, "{at}");
                }
            }
        }
    }
}

#[test]
fn zone_settled_aggregates_equal_the_oracle_on_every_surface() {
    let root = tmpdir("surfaces");
    let (rows, more) = (3000, 1100);
    let table = build(rows);
    let dir = root.join("t");
    save_table(&table, &dir).expect("saves");
    let lazy = open_table_lazy(&dir, 4).expect("opens");
    check_surfaces(
        "built",
        rows,
        &table,
        &lazy,
        &lazy_shards(&table, &root.join("built")),
    );

    // Appends summarise their new segments as `build` does: in memory,
    // and on disk through `append_table`.
    let batch = columns(rows..rows + more);
    let appended = table.append(&batch).expect("appends");
    append_table(&dir, &batch, &policies()).expect("appends on disk");
    let reopened = open_table_lazy(&dir, 4).expect("reopens");
    assert_eq!(metas(&load_table(&dir).expect("loads")), metas(&reopened));
    assert!(metas(&reopened).iter().flatten().all(|m| m.sum.is_some()));
    check_surfaces(
        "appended",
        rows + more,
        &appended,
        &reopened,
        &lazy_shards(&appended, &root.join("appended")),
    );
    std::fs::remove_dir_all(&root).ok();
}
