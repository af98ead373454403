//! The experiment report: prints every table of E1–E11, A2–A3 and the
//! ablations. The paper each experiment tests is restated in
//! `lcdc-core`'s module docs (`lib`, `compose`, `plan`, `planopt`,
//! `rewrite`, `morph`, `concat`, `access`, `parts`).
//!
//! ```text
//! cargo run --release -p lcdc-bench --bin report
//! ```
//!
//! Wall-clock numbers here are medians of a few repetitions — indicative
//! only; the Criterion benches in `benches/` are the rigorous timing
//! source. Ratios and row counts are exact and deterministic (fixed
//! seed).

#![forbid(unsafe_code)]

use lcdc_bench::*;
use lcdc_core::scheme::decompress_via_plan;
use lcdc_core::schemes::{For, LinearFor, PatchedFor, Rle, Rpe};
use lcdc_core::{chooser, parse_scheme, rewrite, ColumnData, Scheme};
use lcdc_store::{Agg, CompressionPolicy, Predicate, QueryBuilder, Table, TableSchema};
use std::sync::Arc;

const REPS: usize = 7;

fn main() {
    println!("lcdc experiment report — reproduction of Rozenberg, ICDE 2018");
    println!("==============================================================\n");
    e1_composition();
    e2_rle_rpe();
    e3_for_step_ns();
    e4_patches();
    e5_varwidth();
    e6_linear();
    e7_pushdown();
    e8_fusion();
    e9_join();
    e10_gradual();
    e11_query_ops();
    ablations();
    a2_new_models();
    a3_morphing();
    chooser_appendix();
}

fn header(title: &str) {
    println!("\n{title}");
    println!("{}", "-".repeat(title.len()));
}

/// E1 — §I composition example: DELTA∘RLE beats every single scheme on
/// the shipped-orders date column.
fn e1_composition() {
    header("E1  Composition on shipped-order dates (1000 days × ~50 orders)");
    let col = dates_column(1000, 50);
    println!(
        "rows = {}, plain bytes = {}",
        col.len(),
        col.uncompressed_bytes()
    );
    println!("{:<48} {:>12}", "scheme", "ratio");
    for expr in [
        "id",
        "ns",
        "delta[deltas=ns_zz]",
        "dict[codes=ns]",
        "rle[values=ns,lengths=ns]",
        "for(l=128)[offsets=ns]",
        "rle[values=delta[deltas=ns_zz],lengths=ns]",
    ] {
        match ratio_of(expr, &col) {
            Some(r) => println!("{expr:<48} {r:>11.1}x"),
            None => println!("{expr:<48} {:>12}", "n/a"),
        }
    }
}

/// E2 — RLE ≡ (ID, DELTA) ∘ RPE: equivalence, the ratio/decompression
/// trade-off, and RPE's O(log r) random access.
fn e2_rle_rpe() {
    header("E2  RLE vs RPE: the decomposition trade-off");
    println!(
        "{:>8} {:>10} {:>10} {:>13} {:>13} {:>14}",
        "mean_run", "rle_ratio", "rpe_ratio", "rle_plan_ms", "rpe_plan_ms", "rpe_access_ns"
    );
    for mean_run in [4usize, 16, 64, 256] {
        let col = runs_column(1 << 20, mean_run);
        let rle_scheme = parse_scheme("rle[values=ns,lengths=ns]").unwrap();
        let rpe_scheme = parse_scheme("rpe[values=ns,positions=ns]").unwrap();
        let c_rle = rle_scheme.compress(&col).unwrap();
        let c_rpe = rpe_scheme.compress(&col).unwrap();
        assert_eq!(
            rle_scheme.decompress(&c_rle).unwrap(),
            rpe_scheme.decompress(&c_rpe).unwrap()
        );

        // Plain-part forms for the plan path and random access; the plan
        // timings expose "Algorithm 1 minus its first operation" directly.
        let c_rle_plain = Rle.compress(&col).unwrap();
        let c_rpe_plain = rewrite::rle_to_rpe(&c_rle_plain).unwrap();
        let rle_plan = time_median(REPS, || decompress_via_plan(&Rle, &c_rle_plain).unwrap());
        let rpe_plan = time_median(REPS, || decompress_via_plan(&Rpe, &c_rpe_plain).unwrap());
        let n = col.len() as u64;
        let access = time_median(REPS, || {
            let mut acc = 0u64;
            for i in (0..n).step_by(997) {
                acc ^= lcdc_core::schemes::rpe::value_at(&c_rpe_plain, i).unwrap();
            }
            acc
        });
        println!(
            "{:>8} {:>9.1}x {:>9.1}x {:>13.3} {:>13.3} {:>14.1}",
            mean_run,
            c_rle.ratio().unwrap_or(0.0),
            c_rpe.ratio().unwrap_or(0.0),
            rle_plan * 1e3,
            rpe_plan * 1e3,
            access * 1e9 / (n as f64 / 997.0),
        );
    }
    println!("(positions NS-pack wider than lengths -> rpe_ratio <= rle_ratio;");
    println!(" rpe's plan is Alg.1 minus its first PrefixSum; access via binary search)");
}

/// E3 — FOR ≡ STEPFUNCTION + NS; operator-DAG vs fused decompression.
fn e3_for_step_ns() {
    header("E3  FOR = STEPFUNCTION + NS; plan-interpreted vs fused decompression");
    let n = 1 << 20;
    println!(
        "{:>8} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "seg_len", "ratio", "fused_ms", "plan_ms", "opt_plan_ms", "plan_ops"
    );
    for seg_len in [64usize, 128, 512, 2048] {
        let col = locally_tight_column(n, seg_len, 256);
        let f = For::new(seg_len);
        let c = f.compress(&col).unwrap();
        let mr = rewrite::for_to_step_plus_ns(&c).unwrap();
        assert_eq!(mr.reconstruct().unwrap(), col, "identity must hold");
        let cascade = For::with_ns(seg_len);
        let c_ns = cascade.compress(&col).unwrap();
        let fused = time_median(REPS, || cascade.decompress(&c_ns).unwrap());
        let plan = time_median(REPS, || decompress_via_plan(&cascade, &c_ns).unwrap());
        // The optimiser's strength-reduced plan (Iota instead of
        // PrefixSumExcl(Constant)) interpreted over the same parts.
        let raw_plan = cascade.plan(&c_ns).unwrap();
        let (opt_plan, opt_stats) = lcdc_core::planopt::optimize(&raw_plan).unwrap();
        let parts = cascade.resolve_parts(&c_ns).unwrap();
        assert_eq!(
            opt_plan.execute(&parts).unwrap(),
            raw_plan.execute(&parts).unwrap()
        );
        let opt = time_median(REPS, || opt_plan.execute(&parts).unwrap());
        println!(
            "{:>8} {:>9.1}x {:>12.3} {:>12.3} {:>12.3} {:>5}->{:<4}",
            seg_len,
            c_ns.ratio().unwrap_or(0.0),
            fused * 1e3,
            plan * 1e3,
            opt * 1e3,
            opt_stats.nodes_before,
            opt_stats.nodes_after,
        );
    }
    println!("(plan path = Algorithm 2 interpreted operator-at-a-time; opt_plan = after");
    println!(" strength-reduction/CSE/DCE, parts pre-resolved)");
}

/// E4 — patched FOR vs plain FOR as the outlier fraction grows.
fn e4_patches() {
    header("E4  Patches (L0 metric): pfor vs for under outliers");
    let n = 1 << 20;
    println!(
        "{:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "outlier_%", "for", "pfor990", "pfor950", "pfor900", "pfor750"
    );
    for fraction in [0.0, 0.005, 0.02, 0.05, 0.10, 0.20] {
        let col = outlier_column(n, fraction);
        println!(
            "{:>10.1} {:>9.1}x {:>9.1}x {:>9.1}x {:>9.1}x {:>9.1}x",
            fraction * 100.0,
            ratio_of("for(l=128)[offsets=ns]", &col).unwrap_or(0.0),
            ratio_of("pfor(l=128,keep=990)", &col).unwrap_or(0.0),
            ratio_of("pfor(l=128,keep=950)", &col).unwrap_or(0.0),
            ratio_of("pfor(l=128,keep=900)", &col).unwrap_or(0.0),
            ratio_of("pfor(l=128,keep=750)", &col).unwrap_or(0.0),
        );
    }
    println!("(keep=K‰ packs offsets at the K-percentile width; a variant wins while the");
    println!(" outlier rate stays below its exception budget, then exception storage bites)");
}

/// E5 — variable-width NS vs flat NS under width skew.
fn e5_varwidth() {
    header("E5  Variable-width offsets: varwidth vs flat ns under width skew");
    let n = 1 << 20;
    println!(
        "{:>12} {:>10} {:>14}",
        "wide_tail_%", "ns_ratio", "varwidth_ratio"
    );
    for wide_fraction in [0.0, 0.01, 0.05, 0.25, 1.0] {
        let col = skewed_width_column(n, wide_fraction);
        println!(
            "{:>12.1} {:>9.1}x {:>13.1}x",
            wide_fraction * 100.0,
            ratio_of("ns", &col).unwrap_or(0.0),
            ratio_of("varwidth", &col).unwrap_or(0.0),
        );
    }
    println!("(flat NS pays the widest value everywhere; per-block widths localise it)");
}

/// E6 — piecewise-linear frames vs FOR on trending data.
fn e6_linear() {
    header("E6  Linear frames: linear vs for on trending data");
    let n = 1 << 20;
    println!(
        "{:>8} {:>8} {:>9} {:>9} {:>9} {:>10}",
        "slope", "noise", "for", "linear", "poly2", "winner"
    );
    for (slope, noise) in [(0u64, 16u64), (1, 16), (7, 16), (7, 1024), (50, 16)] {
        let col = trending_column(n, slope, noise);
        let f = ratio_of("for(l=128)[offsets=ns]", &col).unwrap_or(0.0);
        let l = ratio_of("linear(l=128)[residuals=ns]", &col).unwrap_or(0.0);
        let p = ratio_of("poly2(l=128)[residuals=ns]", &col).unwrap_or(0.0);
        let winner = if l >= f && l >= p {
            "linear"
        } else if p >= f {
            "poly2"
        } else {
            "for"
        };
        println!("{slope:>8} {noise:>8} {f:>8.1}x {l:>8.1}x {p:>8.1}x {winner:>10}");
        // Sanity: all must round-trip.
        let scheme = LinearFor::with_ns(128);
        let c = scheme.compress(&col).unwrap();
        assert_eq!(scheme.decompress(&c).unwrap(), col);
    }
    println!(
        "(FOR's offsets span the in-segment climb slope*l; linear/poly residuals only the noise)"
    );
}

/// E7 — selection pushdown vs decompress-then-filter across
/// selectivities.
fn e7_pushdown() {
    header("E7  Selection pushdown on the lineitem-like table");
    let t = lineitem(2000, 500);
    let schema = TableSchema::new(&[
        ("shipdate", lcdc_core::DType::U64),
        ("qty", lcdc_core::DType::U64),
        ("price", lcdc_core::DType::U64),
    ]);
    let table = Table::build(
        schema,
        &[
            ColumnData::U64(t.shipdate.clone()),
            ColumnData::U64(t.quantity.clone()),
            ColumnData::U64(t.extendedprice.clone()),
        ],
        &[
            CompressionPolicy::Auto,
            CompressionPolicy::Auto,
            CompressionPolicy::Auto,
        ],
        16_384,
    )
    .unwrap();
    println!(
        "rows = {}, table {} -> {} bytes ({:.1}x)",
        table.num_rows(),
        table.uncompressed_bytes(),
        table.compressed_bytes(),
        table.uncompressed_bytes() as f64 / table.compressed_bytes() as f64
    );
    println!(
        "{:>12} {:>10} {:>11} {:>11} {:>9} {:>12}",
        "selectivity", "sel_rows", "naive_ms", "push_ms", "speedup", "mat_rows"
    );
    let d0 = 19_920_101u64;
    let filtered_sum = |hi: u64| {
        QueryBuilder::scan(&table)
            .filter(
                "shipdate",
                Predicate::Range {
                    lo: d0 as i128,
                    hi: hi as i128,
                },
            )
            .aggregate(&[Agg::Sum("price"), Agg::Count])
    };
    for days in [1u64, 20, 200, 1000, 2000] {
        let q = filtered_sum(d0 + days - 1);
        let naive = q.execute_naive().unwrap();
        let push = q.execute().unwrap();
        assert_eq!(naive.rows, push.rows, "answers must agree");
        let selected = push.aggregates().unwrap()[1].unwrap_or(0);
        let naive_t = time_median(3, || q.execute_naive().unwrap());
        let push_t = time_median(3, || q.execute().unwrap());
        println!(
            "{:>11.1}% {:>10} {:>11.2} {:>11.2} {:>8.1}x {:>12}",
            100.0 * selected as f64 / table.num_rows() as f64,
            selected,
            naive_t * 1e3,
            push_t * 1e3,
            naive_t / push_t,
            push.stats.rows_materialized,
        );
    }
    println!(
        "(zone maps skip disjoint segments; fully-covered segments answer from their summaries)"
    );

    // Parallel scan: the same pushdown pipeline, segments leased by
    // several threads from the one job. Answers asserted equal.
    let builder = filtered_sum(d0 + 1998);
    let sequential = builder.execute().unwrap();
    for threads in [1usize, 2, 4, 8] {
        let parallel = builder.execute_parallel(threads).unwrap();
        assert_eq!(parallel.rows, sequential.rows);
    }
    let seq_t = time_median(5, || builder.execute().unwrap());
    let par_t = time_median(5, || builder.execute_parallel(4).unwrap());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "parallel scan (~100% selectivity, 4 workers on {cores} core(s)): {:.2} ms vs {:.2} ms sequential ({:.1}x)",
        par_t * 1e3,
        seq_t * 1e3,
        seq_t / par_t
    );
    println!("(answers asserted identical; speedup requires >1 core)");
}

/// E8 — fusion: aggregate directly over runs vs decompress-then-
/// aggregate; plan-interpreted vs fused RLE decompression.
fn e8_fusion() {
    header("E8  Fusion: operating on the compressed form");
    let col = dates_column(2000, 500);
    let n = col.len();
    let seg = lcdc_store::Segment::build(
        &col,
        &CompressionPolicy::Fixed("rle[values=delta[deltas=ns_zz],lengths=ns]".into()),
    )
    .unwrap();
    let naive_agg = time_median(REPS, || {
        lcdc_store::agg::aggregate_plain(&seg.decompress().unwrap())
    });
    let fused_agg = time_median(REPS, || {
        lcdc_store::agg::aggregate_segment(&seg, None).unwrap()
    });
    assert_eq!(
        lcdc_store::agg::aggregate_segment(&seg, None).unwrap(),
        lcdc_store::agg::aggregate_plain(&seg.decompress().unwrap())
    );
    println!("rows = {n}");
    println!(
        "SUM over RLE column: decompress-then-fold {:.3} ms, per-run fold {:.3} ms ({:.0}x)",
        naive_agg * 1e3,
        fused_agg * 1e3,
        naive_agg / fused_agg
    );

    let c = Rle.compress(&col).unwrap();
    let fused_dec = time_median(REPS, || Rle.decompress(&c).unwrap());
    let plan_dec = time_median(REPS, || decompress_via_plan(&Rle, &c).unwrap());
    println!(
        "RLE decompression: fused loop {:.3} ms, Algorithm-1 plan {:.3} ms ({:.1}x overhead)",
        fused_dec * 1e3,
        plan_dec * 1e3,
        plan_dec / fused_dec
    );

    // Sanity: the patched/for schemes must agree between paths too.
    let col4 = outlier_column(1 << 18, 0.02);
    let p = PatchedFor::new(128, 990);
    let cp = p.compress(&col4).unwrap();
    assert_eq!(
        decompress_via_plan(&p, &cp).unwrap(),
        p.decompress(&cp).unwrap()
    );
}

/// E9 — joins on the compressed form: the planner's equi-join (pair
/// count per key) with run-granularity build and probe sides vs its
/// decompress-then-hash baseline.
fn e9_join() {
    header("E9  Join on compressed columns (equi-join pairs per key)");
    println!(
        "{:>10} {:>12} {:>12} {:>9}",
        "mean_run", "naive_ms", "run_aware_ms", "speedup"
    );
    for mean_run in [8usize, 64, 512] {
        let build = |col: ColumnData| {
            let rows = col.len();
            Table::build(
                TableSchema::new(&[("v", lcdc_core::DType::U64)]),
                &[col],
                &[CompressionPolicy::Fixed("rle[values=ns,lengths=ns]".into())],
                rows,
            )
            .unwrap()
        };
        let a = build(runs_column(1 << 19, mean_run));
        let b = Arc::new(build(runs_column(1 << 18, mean_run)));
        let q = QueryBuilder::scan(&a).join("b", b, "v");
        assert_eq!(
            q.execute_naive().unwrap().rows,
            q.execute().unwrap().rows,
            "join answers must agree"
        );
        let naive = time_median(3, || q.execute_naive().unwrap());
        let fast = time_median(3, || q.execute().unwrap());
        println!(
            "{:>10} {:>12.2} {:>12.2} {:>8.1}x",
            mean_run,
            naive * 1e3,
            fast * 1e3,
            naive / fast
        );
    }
    println!("(one hash update per run instead of per row; speedup tracks run length)");
}

/// E10 — approximate and gradual-refinement aggregation from the model
/// metadata (paper §II-B).
fn e10_gradual() {
    header("E10 Gradual refinement: SUM from zone maps, refined to tolerance");
    let col = walk_column(1 << 20);
    let schema = TableSchema::new(&[("v", lcdc_core::DType::U64)]);
    let table = Table::build(
        schema,
        std::slice::from_ref(&col),
        &[CompressionPolicy::Auto],
        8192,
    )
    .unwrap();
    let exact: i128 = lcdc_store::agg::aggregate_plain(&col).sum;
    println!("exact SUM = {exact}; {} segments", table.num_segments());
    println!(
        "{:>12} {:>18} {:>10}",
        "tolerance", "interval_width", "segments_read"
    );
    for tolerance in [f64::INFINITY, 4e-6, 2e-6, 1e-6, 0.0] {
        let mut g = lcdc_store::GradualAggregate::new(&table, "v").unwrap();
        let refined = if tolerance.is_finite() {
            g.refine_to(tolerance).unwrap()
        } else {
            0
        };
        let interval = g.interval();
        assert!(
            interval.contains_sum(exact),
            "certified interval must contain the truth"
        );
        let label = if tolerance.is_infinite() {
            "zone-map".to_string()
        } else {
            format!("{tolerance}")
        };
        println!("{:>12} {:>18} {:>10}", label, interval.sum_width(), refined);
    }
    println!("(each answer carries a certified interval containing the exact SUM)");
}

/// E11 — compression-aware sort / top-k / late materialisation against
/// their decompress-everything baselines.
fn e11_query_ops() {
    header("E11 Query operators: run-aware sort, pruned top-k, late materialisation");
    // Sort: comparisons over runs instead of rows.
    println!(
        "{:>10} {:>10} {:>12} {:>14} {:>9}",
        "mean_run", "runs", "naive_ms", "run_aware_ms", "speedup"
    );
    for mean_run in [16usize, 128, 1024] {
        let col = ColumnData::U64(lcdc_datagen::runs::runs_over_domain(
            1 << 20,
            mean_run,
            1000,
            SEED,
        ));
        let schema = TableSchema::new(&[("v", lcdc_core::DType::U64)]);
        let table = Table::build(
            schema,
            std::slice::from_ref(&col),
            &[CompressionPolicy::Fixed("rle[values=ns,lengths=ns]".into())],
            1 << 16,
        )
        .unwrap();
        let naive = lcdc_store::sort_column_naive(&table, "v").unwrap();
        let (fast, stats) = lcdc_store::sort_column_compressed(&table, "v").unwrap();
        assert_eq!(naive, fast, "sorts must agree");
        let naive_t = time_median(3, || lcdc_store::sort_column_naive(&table, "v").unwrap());
        let fast_t = time_median(3, || {
            lcdc_store::sort_column_compressed(&table, "v").unwrap()
        });
        println!(
            "{:>10} {:>10} {:>12.2} {:>14.2} {:>8.1}x",
            mean_run,
            stats.runs_sorted,
            naive_t * 1e3,
            fast_t * 1e3,
            naive_t / fast_t
        );
    }

    // Top-k: zone maps prune segments that cannot beat the k-th value.
    let col = ColumnData::U64(
        lcdc_datagen::steps::bounded_walk(1 << 20, 1 << 30, 64, SEED)
            .into_iter()
            .enumerate()
            .map(|(i, v)| v + (i as u64 / 2))
            .collect::<Vec<_>>(),
    );
    let schema = TableSchema::new(&[("v", lcdc_core::DType::U64)]);
    let table = Table::build(
        schema,
        std::slice::from_ref(&col),
        &[CompressionPolicy::Fixed("for(l=128)[offsets=ns]".into())],
        1 << 13,
    )
    .unwrap();
    println!(
        "\n{:>8} {:>14} {:>14} {:>12} {:>12} {:>9}",
        "k", "segs_pruned", "rows_touched", "naive_ms", "pruned_ms", "speedup"
    );
    for k in [10usize, 100, 10_000] {
        let q = QueryBuilder::scan(&table).top_k("v", k);
        let pruned = q.execute().unwrap();
        assert_eq!(
            q.execute_naive().unwrap().rows,
            pruned.rows,
            "top-k answers must agree"
        );
        let naive_t = time_median(3, || q.execute_naive().unwrap());
        let pruned_t = time_median(3, || q.execute().unwrap());
        println!(
            "{:>8} {:>8}/{:<5} {:>14} {:>12.2} {:>12.2} {:>8.1}x",
            k,
            pruned.stats.segments_pruned,
            pruned.stats.segments,
            pruned.stats.rows_materialized,
            naive_t * 1e3,
            pruned_t * 1e3,
            naive_t / pruned_t
        );
    }

    // Late materialisation: positional access on the payload column.
    let n = 1 << 20;
    let filter = ColumnData::U64((0..n as u64).map(|i| i / 512).collect());
    let payload = ColumnData::U64(lcdc_datagen::step_column(n, 128, 1 << 40, 16, SEED));
    let schema = TableSchema::new(&[("f", lcdc_core::DType::U64), ("p", lcdc_core::DType::U64)]);
    let table = Table::build(
        schema,
        &[filter, payload],
        &[
            CompressionPolicy::Fixed("rle[values=ns,lengths=ns]".into()),
            CompressionPolicy::Fixed("for(l=128)".into()),
        ],
        1 << 14,
    )
    .unwrap();
    let groups = n as u64 / 512;
    println!(
        "\n{:>12} {:>10} {:>11} {:>10} {:>9}",
        "selectivity", "sel_rows", "early_ms", "late_ms", "speedup"
    );
    for permille in [1u64, 10, 100] {
        let hi = (groups * permille / 1000).max(1) - 1;
        let (sel, _) = lcdc_store::select(
            &table,
            "f",
            &Predicate::Range {
                lo: 0,
                hi: hi as i128,
            },
        )
        .unwrap();
        let early = lcdc_store::gather_early(&table, "p", &sel).unwrap();
        let (late, stats) = lcdc_store::gather_late(&table, "p", &sel).unwrap();
        assert_eq!(early, late, "materialisation paths must agree");
        assert_eq!(
            stats.segments_decompressed, 0,
            "FOR payload has an access path"
        );
        let early_t = time_median(3, || lcdc_store::gather_early(&table, "p", &sel).unwrap());
        let late_t = time_median(3, || lcdc_store::gather_late(&table, "p", &sel).unwrap());
        println!(
            "{:>11.1}% {:>10} {:>11.2} {:>10.2} {:>8.1}x",
            sel.selectivity() * 100.0,
            sel.len(),
            early_t * 1e3,
            late_t * 1e3,
            early_t / late_t
        );
    }
    println!("(late answers each selected row off the compressed form; early decompresses all)");

    // DISTINCT and GROUP BY: answered from part columns.
    let col = ColumnData::U64(lcdc_datagen::runs::runs_over_domain(
        1 << 20,
        100,
        200,
        SEED,
    ));
    let schema = TableSchema::new(&[("v", lcdc_core::DType::U64)]);
    let table = Table::build(
        schema,
        std::slice::from_ref(&col),
        &[CompressionPolicy::Fixed(
            "dict[codes=rle[values=ns,lengths=ns]]".into(),
        )],
        1 << 16,
    )
    .unwrap();
    let q = QueryBuilder::scan(&table).distinct("v");
    let fast = q.execute().unwrap();
    assert_eq!(q.execute_naive().unwrap().rows, fast.rows);
    let naive_t = time_median(3, || q.execute_naive().unwrap());
    let fast_t = time_median(3, || q.execute().unwrap());
    println!(
        "\ndistinct: {} values found hashing {} part entries instead of {} rows — {:.2} ms vs {:.1} ms ({:.0}x)",
        fast.distinct().unwrap().len(),
        fast.stats.values_processed,
        table.num_rows(),
        fast_t * 1e3,
        naive_t * 1e3,
        naive_t / fast_t
    );

    let values = ColumnData::U64(lcdc_datagen::uniform(1 << 20, 1000, SEED ^ 9));
    let table = Table::build(
        TableSchema::new(&[("k", lcdc_core::DType::U64), ("v", lcdc_core::DType::U64)]),
        &[col, values],
        &[
            CompressionPolicy::Fixed("rle[values=ns,lengths=ns]".into()),
            CompressionPolicy::Fixed("ns".into()),
        ],
        1 << 20,
    )
    .unwrap();
    let q = QueryBuilder::scan(&table)
        .group_by("k")
        .aggregate(&[Agg::Sum("v"), Agg::Count]);
    let fast = q.execute().unwrap();
    assert_eq!(q.execute_naive().unwrap().rows, fast.rows);
    let naive_t = time_median(3, || q.execute_naive().unwrap());
    let fast_t = time_median(3, || q.execute().unwrap());
    println!(
        "group-by: {} groups, one probe per run — {:.2} ms vs {:.1} ms naive ({:.0}x)",
        fast.groups().unwrap().len(),
        fast_t * 1e3,
        naive_t * 1e3,
        naive_t / fast_t
    );
}

/// A2 — the §II-B generalisation program: adaptive frames, restarted
/// deltas, constant+patches.
fn a2_new_models() {
    header("A2  New models: vstep / dfor / sparse vs the schemes they generalise");
    // Adaptive step frames on uneven plateaus.
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>12}",
        "mean_len", "for_l64", "for_l512", "vstep_w4", "vstep+delta"
    );
    for mean_len in [48usize, 200, 1000] {
        let col = ColumnData::U64(lcdc_datagen::uneven_plateaus(
            1 << 20,
            mean_len,
            1 << 40,
            12,
            SEED,
        ));
        println!(
            "{:>10} {:>11.1}x {:>11.1}x {:>11.1}x {:>11.1}x",
            mean_len,
            ratio_of("for(l=64)[offsets=ns]", &col).unwrap_or(0.0),
            ratio_of("for(l=512)[offsets=ns]", &col).unwrap_or(0.0),
            ratio_of("vstep(w=4)[offsets=ns]", &col).unwrap_or(0.0),
            ratio_of("vstep(w=4)[offsets=ns,refs=delta[deltas=ns_zz]]", &col).unwrap_or(0.0),
        );
    }
    println!("(fixed-l FOR straddles plateau boundaries; vstep frames end where the data jumps)");

    // Delta restart: ratio cost, access gain.
    let col = ColumnData::U64(lcdc_datagen::steps::bounded_walk(
        1 << 20,
        1 << 30,
        48,
        SEED,
    ));
    let delta = parse_scheme("delta[deltas=ns_zz]").unwrap();
    let dfor = parse_scheme("dfor(l=128)[deltas=ns_zz]").unwrap();
    let c_delta = delta.compress(&col).unwrap();
    let c_dfor = dfor.compress(&col).unwrap();
    let c_dfor_plain = parse_scheme("dfor(l=128)").unwrap().compress(&col).unwrap();
    let probes: Vec<u64> = (0..1024u64)
        .map(|i| (i * 7919) % col.len() as u64)
        .collect();
    let dfor_access = time_median(REPS, || {
        let mut acc = 0u64;
        for &p in &probes {
            acc ^= lcdc_core::schemes::dfor::value_at(&c_dfor_plain, p).unwrap();
        }
        acc
    });
    let delta_access = time_median(3, || {
        let plain = delta.decompress(&c_delta).unwrap();
        let mut acc = 0u64;
        for &p in &probes {
            acc ^= plain.get_transport(p as usize).unwrap();
        }
        acc
    });
    println!(
        "\ndfor vs delta on a bounded walk: ratio {:.1}x vs {:.1}x; 1024 probes {:.3} ms vs {:.3} ms ({:.0}x)",
        c_dfor.ratio().unwrap_or(0.0),
        c_delta.ratio().unwrap_or(0.0),
        dfor_access * 1e3,
        delta_access * 1e3,
        delta_access / dfor_access
    );

    // Sparse: constant + L0 patches.
    println!(
        "\n{:>12} {:>10} {:>10} {:>10} {:>10}",
        "exc_rate_%", "sparse", "sparse+ns", "rle", "dict"
    );
    for rate in [0.0005, 0.005, 0.05] {
        let col = ColumnData::U64(lcdc_datagen::default_heavy(1 << 20, 0, rate, 1 << 40, SEED));
        println!(
            "{:>12.2} {:>9.1}x {:>9.1}x {:>9.1}x {:>9.1}x",
            rate * 100.0,
            ratio_of("sparse", &col).unwrap_or(0.0),
            ratio_of("sparse[exc_positions=ns,exc_values=ns]", &col).unwrap_or(0.0),
            ratio_of("rle[values=ns,lengths=ns]", &col).unwrap_or(0.0),
            ratio_of("dict[codes=ns]", &col).unwrap_or(0.0),
        );
    }
    println!("(cascading NS onto the exception parts is what makes SPARSE win: one packed");
    println!(" (position, value) pair per exception vs RLE's two runs per exception)");
}

/// A3 — morphing along the decomposition identities vs re-compressing.
fn a3_morphing() {
    header("A3  Morphing: structural transcodes vs decompress-then-recompress");
    use lcdc_core::morph::{morph, MorphPath};
    let col = runs_column(1 << 20, 64);
    let c_rle = Rle.compress(&col).unwrap();
    let structural = time_median(REPS, || morph(&Rle, &c_rle, &Rpe).unwrap());
    let via_plain = time_median(REPS, || {
        Rpe.compress(&Rle.decompress(&c_rle).unwrap()).unwrap()
    });
    let (out, path) = morph(&Rle, &c_rle, &Rpe).unwrap();
    assert_eq!(path, MorphPath::Structural);
    assert_eq!(out, Rpe.compress(&col).unwrap(), "morph must be bit-exact");
    println!(
        "rle->rpe: structural {:.3} ms vs via-plain {:.3} ms ({:.0}x); bit-exact",
        structural * 1e3,
        via_plain * 1e3,
        via_plain / structural
    );

    let col = outlier_column(1 << 20, 0.005);
    let source = For::new(128);
    let target = PatchedFor::new(128, 990);
    let c_for = source.compress(&col).unwrap();
    let structural = time_median(REPS, || morph(&source, &c_for, &target).unwrap());
    let via_plain = time_median(REPS, || {
        target
            .compress(&source.decompress(&c_for).unwrap())
            .unwrap()
    });
    let (out, path) = morph(&source, &c_for, &target).unwrap();
    assert_eq!(path, MorphPath::Structural);
    assert_eq!(
        out,
        target.compress(&col).unwrap(),
        "morph must be bit-exact"
    );
    println!(
        "for->pfor: structural {:.3} ms vs via-plain {:.3} ms ({:.0}x); bit-exact",
        structural * 1e3,
        via_plain * 1e3,
        via_plain / structural
    );
}

/// The ablations: FOR reference choice, the model hierarchy on
/// trending data, and per-segment scheme choice against one global
/// scheme.
fn ablations() {
    header("Ablations");
    // (a) FOR reference choice: min (plain NS) vs first element (zigzag NS).
    let col = locally_tight_column(1 << 20, 128, 256);
    println!(
        "FOR reference: min {:.2}x vs first-element {:.2}x  (first pays ~1 zigzag bit)",
        ratio_of("for(l=128)[offsets=ns]", &col).unwrap_or(0.0),
        ratio_of("for(l=128,first=1)[offsets=ns_zz]", &col).unwrap_or(0.0),
    );
    // (b) Model hierarchy on trending data: step-with-patches / FOR /
    //     linear / poly2 (the paper's §II-B enrichment ladder).
    let trend = trending_column(1 << 20, 7, 16);
    println!(
        "model ladder on trend: pstep {:.2}x, for {:.2}x, linear {:.2}x, poly2 {:.2}x",
        ratio_of("pstep(l=128)", &trend).unwrap_or(0.0),
        ratio_of("for(l=128)[offsets=ns]", &trend).unwrap_or(0.0),
        ratio_of("linear(l=128)[residuals=ns]", &trend).unwrap_or(0.0),
        ratio_of("poly2(l=128)[residuals=ns]", &trend).unwrap_or(0.0),
    );
    // (c) Per-segment auto choice vs one global scheme on a mixed table.
    let t = lineitem(500, 200);
    let schema = TableSchema::new(&[
        ("shipdate", lcdc_core::DType::U64),
        ("qty", lcdc_core::DType::U64),
        ("price", lcdc_core::DType::U64),
    ]);
    let columns = [
        ColumnData::U64(t.shipdate),
        ColumnData::U64(t.quantity),
        ColumnData::U64(t.extendedprice),
    ];
    let auto = Table::build(
        schema.clone(),
        &columns,
        &[
            CompressionPolicy::Auto,
            CompressionPolicy::Auto,
            CompressionPolicy::Auto,
        ],
        16_384,
    )
    .unwrap();
    let mut best_global = ("none", usize::MAX);
    for expr in [
        "ns",
        "for(l=128)[offsets=ns]",
        "rle[values=delta[deltas=ns_zz],lengths=ns]",
    ] {
        let policy = CompressionPolicy::Fixed(expr.to_string());
        if let Ok(table) = Table::build(
            schema.clone(),
            &columns,
            &[policy.clone(), policy.clone(), policy],
            16_384,
        ) {
            if table.compressed_bytes() < best_global.1 {
                best_global = (expr, table.compressed_bytes());
            }
        }
    }
    println!(
        "per-segment auto {} bytes vs best single global scheme ({}) {} bytes ({:.2}x better)",
        auto.compressed_bytes(),
        best_global.0,
        best_global.1,
        best_global.1 as f64 / auto.compressed_bytes() as f64
    );
}

/// Appendix: what the chooser picks per column of the lineitem table.
fn chooser_appendix() {
    header("Appendix  Per-column scheme choice (lineitem-like, auto policy)");
    let t = lineitem(500, 200);
    for (name, col) in [
        ("shipdate", ColumnData::U64(t.shipdate.clone())),
        ("quantity", ColumnData::U64(t.quantity.clone())),
        ("discount", ColumnData::U64(t.discount.clone())),
        ("extendedprice", ColumnData::U64(t.extendedprice.clone())),
    ] {
        let choice = chooser::choose_best(&col).unwrap();
        println!(
            "{:<14} -> {:<48} ({:.1}x)",
            name,
            choice.expr,
            col.uncompressed_bytes() as f64 / choice.bytes as f64
        );
    }
}
