//! E9 — compression-aware query operators beyond filter/aggregate:
//! run-aware sort, zone-map-pruned top-k, and late materialisation.
//!
//! Each group pits the compression-aware operator against its
//! decompress-everything baseline on the same table — the "why it
//! matters" trio that falls out of treating decompression as just more
//! query plan (Lessons 1) and the model metadata as an index (§II-B).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lcdc_bench::SEED;
use lcdc_core::{ColumnData, DType};
use lcdc_store::segment::CompressionPolicy;
use lcdc_store::table::Table;
use lcdc_store::{
    gather_early, gather_late, select, sort_column_compressed, sort_column_naive, Predicate,
    QuerySpec, TableSchema,
};
use std::hint::black_box;

fn runs_table(n: usize, mean_run: usize) -> Table {
    let col = ColumnData::U64(lcdc_datagen::runs::runs_over_domain(
        n, mean_run, 1000, SEED,
    ));
    let schema = TableSchema::new(&[("v", DType::U64)]);
    Table::build(
        schema,
        &[col],
        &[CompressionPolicy::Fixed("rle[values=ns,lengths=ns]".into())],
        1 << 16,
    )
    .unwrap()
}

fn bench_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9/sort");
    for mean_run in [16usize, 128, 1024] {
        let table = runs_table(1 << 20, mean_run);
        group.throughput(Throughput::Bytes((table.num_rows() * 8) as u64));
        group.bench_with_input(
            BenchmarkId::new("run_aware", mean_run),
            &mean_run,
            |b, _| b.iter(|| sort_column_compressed(black_box(&table), "v").unwrap()),
        );
        group.bench_with_input(BenchmarkId::new("naive", mean_run), &mean_run, |b, _| {
            b.iter(|| sort_column_naive(black_box(&table), "v").unwrap())
        });
    }
    group.finish();
}

fn drift_table(n: usize) -> Table {
    let col = ColumnData::U64(
        lcdc_datagen::steps::bounded_walk(n, 1 << 30, 64, SEED)
            .into_iter()
            .enumerate()
            .map(|(i, v)| v + (i as u64 / 2)) // drift: later segments dominate
            .collect::<Vec<_>>(),
    );
    let schema = TableSchema::new(&[("v", DType::U64)]);
    Table::build(
        schema,
        &[col],
        &[CompressionPolicy::Fixed("for(l=128)[offsets=ns]".into())],
        1 << 13,
    )
    .unwrap()
}

fn bench_topk(c: &mut Criterion) {
    let table = drift_table(1 << 20);
    let mut group = c.benchmark_group("e9/topk");
    group.throughput(Throughput::Bytes((table.num_rows() * 8) as u64));
    for k in [10usize, 1000] {
        let spec = QuerySpec::new().top_k("v", k);
        assert_eq!(
            spec.bind(&table).execute().unwrap().rows,
            spec.bind(&table).execute_naive().unwrap().rows
        );
        group.bench_with_input(BenchmarkId::new("pruned", k), &k, |b, _| {
            b.iter(|| spec.bind(black_box(&table)).execute().unwrap())
        });
        group.bench_with_input(BenchmarkId::new("naive", k), &k, |b, _| {
            b.iter(|| spec.bind(black_box(&table)).execute_naive().unwrap())
        });
    }
    group.finish();

    // Run-structural top-k: on an RLE column the planner folds run
    // values with min(run length, k) multiplicity — zero rows
    // decompressed — vs the decompress-everything baseline.
    let runs = runs_table(1 << 20, 128);
    let mut group = c.benchmark_group("e9/topk_rle");
    group.throughput(Throughput::Bytes((runs.num_rows() * 8) as u64));
    for k in [10usize, 1000] {
        let spec = QuerySpec::new().top_k("v", k);
        let structural = spec.bind(&runs).execute().unwrap();
        assert_eq!(
            structural.rows,
            spec.bind(&runs).execute_naive().unwrap().rows
        );
        assert_eq!(structural.stats.rows_materialized, 0);
        group.bench_with_input(BenchmarkId::new("run_structural", k), &k, |b, _| {
            b.iter(|| spec.bind(black_box(&runs)).execute().unwrap())
        });
        group.bench_with_input(BenchmarkId::new("naive", k), &k, |b, _| {
            b.iter(|| spec.bind(black_box(&runs)).execute_naive().unwrap())
        });
    }
    group.finish();
}

fn two_column_table(n: usize) -> Table {
    let filter = ColumnData::U64((0..n as u64).map(|i| i / 512).collect());
    let payload = ColumnData::U64(lcdc_datagen::step_column(n, 128, 1 << 40, 16, SEED));
    let schema = TableSchema::new(&[("f", DType::U64), ("p", DType::U64)]);
    Table::build(
        schema,
        &[filter, payload],
        &[
            CompressionPolicy::Fixed("rle[values=ns,lengths=ns]".into()),
            CompressionPolicy::Fixed("for(l=128)".into()),
        ],
        1 << 14,
    )
    .unwrap()
}

fn bench_materialization(c: &mut Criterion) {
    let table = two_column_table(1 << 20);
    let n_groups = (1 << 20) / 512u64;
    let mut group = c.benchmark_group("e9/materialization");
    group.throughput(Throughput::Bytes((table.num_rows() * 8) as u64));
    // Selectivity sweep: 0.1%, 1%, 10% of groups.
    for permille in [1u64, 10, 100] {
        let hi = (n_groups * permille / 1000).max(1) - 1;
        let (sel, _) = select(
            &table,
            "f",
            &Predicate::Range {
                lo: 0,
                hi: hi as i128,
            },
        )
        .unwrap();
        group.bench_with_input(BenchmarkId::new("late", permille), &permille, |b, _| {
            b.iter(|| gather_late(black_box(&table), "p", black_box(&sel)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("early", permille), &permille, |b, _| {
            b.iter(|| gather_early(black_box(&table), "p", black_box(&sel)).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sort, bench_topk, bench_materialization);
criterion_main!(benches);
