//! E8 — decompression-as-query-execution: aggregate directly over the
//! compressed run structure vs decompress-then-aggregate, and the cost
//! of interpreting Algorithm 1 operator-at-a-time vs the fused loop.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use lcdc_bench::dates_column;
use lcdc_core::scheme::decompress_via_plan;
use lcdc_core::schemes::Rle;
use lcdc_core::Scheme;
use lcdc_store::{agg, CompressionPolicy, Segment};
use std::hint::black_box;

fn bench_aggregate(c: &mut Criterion) {
    let col = dates_column(2000, 500);
    let seg = Segment::build(
        &col,
        &CompressionPolicy::Fixed("rle[values=delta[deltas=ns_zz],lengths=ns]".into()),
    )
    .unwrap();
    assert_eq!(
        agg::aggregate_segment(&seg, None).unwrap(),
        agg::aggregate_plain(&seg.decompress().unwrap())
    );
    let mut group = c.benchmark_group("e8/sum_over_rle_column");
    group.throughput(Throughput::Elements(col.len() as u64));
    group.bench_function("decompress_then_fold", |b| {
        b.iter(|| agg::aggregate_plain(&black_box(&seg).decompress().unwrap()))
    });
    group.bench_function("per_run_fold", |b| {
        b.iter(|| agg::aggregate_segment(black_box(&seg), None).unwrap())
    });
    group.finish();
}

fn bench_plan_interpretation(c: &mut Criterion) {
    let col = dates_column(2000, 500);
    let compressed = Rle.compress(&col).unwrap();
    let mut group = c.benchmark_group("e8/rle_decompression_path");
    group.throughput(Throughput::Bytes(col.uncompressed_bytes() as u64));
    group.bench_function("fused_loop", |b| {
        b.iter(|| Rle.decompress(black_box(&compressed)).unwrap())
    });
    group.bench_function("algorithm1_interpreted", |b| {
        b.iter(|| decompress_via_plan(&Rle, black_box(&compressed)).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_aggregate, bench_plan_interpretation);
criterion_main!(benches);
