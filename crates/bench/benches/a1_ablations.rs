//! Ablation benches (the `report` binary's "Ablations" section): FOR
//! reference choice, the model hierarchy's decompression costs, and the
//! run-aware join.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lcdc_bench::{locally_tight_column, runs_column, trending_column};
use lcdc_core::{parse_scheme, ColumnData, DType};
use lcdc_store::{CompressionPolicy, QueryBuilder, Table, TableSchema};
use std::hint::black_box;
use std::sync::Arc;

fn bench_ref_choice(c: &mut Criterion) {
    let col = locally_tight_column(1 << 20, 128, 256);
    let mut group = c.benchmark_group("a1/for_reference_choice");
    group.throughput(Throughput::Bytes(col.uncompressed_bytes() as u64));
    for (label, expr) in [
        ("min_ref", "for(l=128)[offsets=ns]"),
        ("first_ref", "for(l=128,first=1)[offsets=ns_zz]"),
    ] {
        let scheme = parse_scheme(expr).unwrap();
        let compressed = scheme.compress(&col).unwrap();
        group.bench_function(BenchmarkId::new("decompress", label), |b| {
            b.iter(|| scheme.decompress(black_box(&compressed)).unwrap())
        });
        group.bench_function(BenchmarkId::new("compress", label), |b| {
            b.iter(|| scheme.compress(black_box(&col)).unwrap())
        });
    }
    group.finish();
}

fn bench_model_hierarchy(c: &mut Criterion) {
    let col = trending_column(1 << 20, 7, 16);
    let mut group = c.benchmark_group("a1/model_hierarchy_decompress");
    group.throughput(Throughput::Bytes(col.uncompressed_bytes() as u64));
    for (label, expr) in [
        ("pstep", "pstep(l=128)"),
        ("for", "for(l=128)[offsets=ns]"),
        ("linear", "linear(l=128)[residuals=ns]"),
        ("poly2", "poly2(l=128)[residuals=ns]"),
    ] {
        let scheme = parse_scheme(expr).unwrap();
        let compressed = scheme.compress(&col).unwrap();
        group.bench_function(label, |b| {
            b.iter(|| scheme.decompress(black_box(&compressed)).unwrap())
        });
    }
    group.finish();
}

fn bench_join(c: &mut Criterion) {
    let build = |col: ColumnData| {
        let rows = col.len();
        Table::build(
            TableSchema::new(&[("v", DType::U64)]),
            &[col],
            &[CompressionPolicy::Fixed("rle[values=ns,lengths=ns]".into())],
            rows,
        )
        .unwrap()
    };
    let a = build(runs_column(1 << 18, 64));
    let b = Arc::new(build(runs_column(1 << 17, 64)));
    let q = QueryBuilder::scan(&a).join("b", b, "v");
    assert_eq!(q.execute_naive().unwrap().rows, q.execute().unwrap().rows);
    let mut group = c.benchmark_group("a1/equi_join_cardinality");
    group.bench_function("decompress_then_hash", |bch| {
        bch.iter(|| black_box(&q).execute_naive().unwrap())
    });
    group.bench_function("per_run_hash", |bch| {
        bch.iter(|| black_box(&q).execute().unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_ref_choice, bench_model_hierarchy, bench_join);
criterion_main!(benches);
