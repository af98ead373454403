//! Integration tests for the morphing layer and the compression-aware
//! query operators (sort / top-k / late materialisation): every
//! transcoding route must preserve the data exactly, and every operator
//! must agree with its decompress-everything baseline across policies
//! and generated workloads.

use lcdc::core::morph::{morph_expr, MorphPath};
use lcdc::core::{parse_scheme, ColumnData, DType};
use lcdc::store::segment::CompressionPolicy;
use lcdc::store::table::Table;
use lcdc::store::{
    gather_early, gather_late, select, sort_column_compressed, sort_column_naive, Predicate,
    QueryBuilder, TableSchema,
};
use proptest::prelude::*;

/// Scheme pairs with a structural route, plus pairs that must fall back.
const MORPH_PAIRS: &[(&str, &str, bool)] = &[
    ("rle", "rpe", true),
    ("rpe", "rle", true),
    ("for(l=64)", "pfor(l=64,keep=950)", true),
    ("pfor(l=64,keep=950)", "for(l=64)", true),
    ("rle", "dict", false),
    ("for(l=64)", "delta[deltas=ns_zz]", false),
    ("rpe", "vstep(w=8)[offsets=ns]", false),
    ("dict", "sparse", false),
];

fn morph_workloads() -> Vec<ColumnData> {
    vec![
        ColumnData::U64(lcdc::datagen::runs::runs_over_domain(5000, 40, 100, 1)),
        ColumnData::U64(lcdc::datagen::step_column(5000, 64, 1 << 30, 50, 2)),
        ColumnData::I64(
            lcdc::datagen::uniform(5000, 1 << 20, 3)
                .into_iter()
                .map(|v| v as i64 - (1 << 19))
                .collect(),
        ),
        ColumnData::U32(vec![7; 1000]),
    ]
}

#[test]
fn every_morph_route_preserves_the_column() {
    for col in morph_workloads() {
        for &(from, to, structural) in MORPH_PAIRS {
            let from_scheme = parse_scheme(from).unwrap();
            let to_scheme = parse_scheme(to).unwrap();
            let Ok(c) = from_scheme.compress(&col) else {
                continue;
            };
            let (morphed, path) =
                morph_expr(&c, from, to).unwrap_or_else(|e| panic!("{from} -> {to}: {e}"));
            assert_eq!(
                path,
                if structural {
                    MorphPath::Structural
                } else {
                    MorphPath::ViaPlain
                },
                "{from} -> {to} took the wrong route"
            );
            assert_eq!(
                to_scheme.decompress(&morphed).unwrap(),
                col,
                "{from} -> {to} corrupted the data"
            );
        }
    }
}

#[test]
fn structural_morphs_match_fresh_compression_bit_for_bit() {
    for col in morph_workloads() {
        for &(from, to, structural) in MORPH_PAIRS {
            if !structural {
                continue;
            }
            let from_scheme = parse_scheme(from).unwrap();
            let to_scheme = parse_scheme(to).unwrap();
            let Ok(c) = from_scheme.compress(&col) else {
                continue;
            };
            let (morphed, _) = morph_expr(&c, from, to).unwrap();
            assert_eq!(
                morphed,
                to_scheme.compress(&col).unwrap(),
                "{from} -> {to} structural morph must be canonical"
            );
        }
    }
}

fn policies() -> Vec<CompressionPolicy> {
    vec![
        CompressionPolicy::None,
        CompressionPolicy::Auto,
        CompressionPolicy::Fixed("rle[values=ns_zz,lengths=ns]".into()),
        CompressionPolicy::Fixed("rpe".into()),
        CompressionPolicy::Fixed("for(l=64)[offsets=ns]".into()),
        CompressionPolicy::Fixed("vstep(w=8)[offsets=ns]".into()),
        CompressionPolicy::Fixed("dfor(l=64)[deltas=ns_zz]".into()),
        CompressionPolicy::Fixed("sparse[exc_positions=ns,exc_values=ns_zz]".into()),
    ]
}

fn one_column_table(col: ColumnData, policy: &CompressionPolicy, seg_rows: usize) -> Table {
    let schema = TableSchema::new(&[("v", col.dtype())]);
    Table::build(schema, &[col], std::slice::from_ref(policy), seg_rows).unwrap()
}

#[test]
fn sort_and_topk_agree_with_naive_across_policies() {
    let col = ColumnData::U64(lcdc::datagen::runs::runs_over_domain(6000, 30, 200, 5));
    for policy in policies() {
        let t = one_column_table(col.clone(), &policy, 700);
        let naive = sort_column_naive(&t, "v").unwrap();
        let (fast, _) = sort_column_compressed(&t, "v").unwrap();
        assert_eq!(fast, naive, "sort under {policy:?}");
        for k in [0usize, 1, 7, 500, 10_000] {
            let top = QueryBuilder::scan(&t).top_k("v", k);
            let pruned = top.execute().unwrap();
            assert_eq!(
                pruned.rows,
                top.execute_naive().unwrap().rows,
                "top-{k} under {policy:?}"
            );
        }
    }
}

/// Nothing can enter an empty heap: every segment is pruned.
#[test]
fn top_k_zero_touches_nothing() {
    let col = ColumnData::U64(lcdc::datagen::runs::runs_over_domain(6000, 30, 200, 5));
    for policy in policies() {
        let t = one_column_table(col.clone(), &policy, 700);
        let top = QueryBuilder::scan(&t).top_k("v", 0).execute().unwrap();
        assert_eq!(top.top_k().unwrap(), &[] as &[i128], "{policy:?}");
        assert_eq!(top.stats.segments_pruned, t.num_segments(), "{policy:?}");
        assert_eq!(top.stats.rows_materialized, 0, "{policy:?}");
    }
}

#[test]
fn late_materialisation_agrees_across_policies_and_predicates() {
    let filter = ColumnData::U64((0..6000u64).map(|i| i / 50).collect());
    let payload = ColumnData::I64(
        (0..6000i64)
            .map(|i| (i * 31) % 1009 - 500)
            .collect::<Vec<_>>(),
    );
    for policy in policies() {
        let schema = TableSchema::new(&[("f", DType::U64), ("p", DType::I64)]);
        let t = Table::build(
            schema,
            &[filter.clone(), payload.clone()],
            &[CompressionPolicy::Auto, policy.clone()],
            700,
        )
        .unwrap();
        for pred in [
            Predicate::All,
            Predicate::Eq(55),
            Predicate::Range { lo: 10, hi: 40 },
            Predicate::Range { lo: 5000, hi: 9000 }, // empty
        ] {
            let (sel, _) = select(&t, "f", &pred).unwrap();
            let early = gather_early(&t, "p", &sel).unwrap();
            let (late, _) = gather_late(&t, "p", &sel).unwrap();
            assert_eq!(late, early, "{pred:?} under {policy:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary data: rle <-> rpe morphs round-trip bit-exactly.
    #[test]
    fn prop_rle_rpe_morph_round_trips(values in prop::collection::vec(0u64..50, 0..400)) {
        let col = ColumnData::U64(values);
        let rle = parse_scheme("rle").unwrap();
        let c = rle.compress(&col).unwrap();
        let (as_rpe, _) = morph_expr(&c, "rle", "rpe").unwrap();
        let (back, _) = morph_expr(&as_rpe, "rpe", "rle").unwrap();
        prop_assert_eq!(back, c);
    }

    /// Arbitrary data: compressed sort equals std sort, any run shape.
    #[test]
    fn prop_compressed_sort_is_a_sort(values in prop::collection::vec(-100i64..100, 0..500)) {
        let col = ColumnData::I64(values.clone());
        let t = one_column_table(col, &CompressionPolicy::Auto, 128);
        let (sorted, _) = sort_column_compressed(&t, "v").unwrap();
        let mut expect = values;
        expect.sort_unstable();
        prop_assert_eq!(sorted, ColumnData::I64(expect));
    }

    /// Arbitrary data + k: pruned top-k equals naive top-k.
    #[test]
    fn prop_topk_pruning_is_sound(
        values in prop::collection::vec(-1000i64..1000, 1..500),
        k in 0usize..60,
    ) {
        let col = ColumnData::I64(values);
        let t = one_column_table(col, &CompressionPolicy::Auto, 64);
        let top = QueryBuilder::scan(&t).top_k("v", k);
        prop_assert_eq!(top.execute().unwrap().rows, top.execute_naive().unwrap().rows);
    }

    /// Arbitrary split point: structurally concatenating the two halves
    /// of a column equals compressing the whole column, for every scheme
    /// with a structural append route.
    #[test]
    fn prop_structural_concat_is_canonical(
        values in prop::collection::vec(0u64..40, 1..300),
        split in 0usize..300,
    ) {
        use lcdc::core::concat::concat;
        let split = split.min(values.len());
        let (a_half, b_half) = values.split_at(split);
        for expr in ["id", "rle", "rpe", "dict", "ns"] {
            let scheme = parse_scheme(expr).unwrap();
            let a = scheme.compress(&ColumnData::U64(a_half.to_vec())).unwrap();
            let b = scheme.compress(&ColumnData::U64(b_half.to_vec())).unwrap();
            let (joined, _) = concat(scheme.as_ref(), &a, &b).unwrap();
            let whole = scheme.compress(&ColumnData::U64(values.clone())).unwrap();
            prop_assert_eq!(&joined, &whole, "{}", expr);
        }
    }

    /// Arbitrary selection: late == early materialisation.
    #[test]
    fn prop_materialisation_paths_agree(
        payload in prop::collection::vec(0u64..1_000_000, 1..400),
        lo in 0u64..100,
        span in 0u64..100,
    ) {
        let n = payload.len() as u64;
        let filter = ColumnData::U64((0..n).map(|i| i % 100).collect());
        let schema = TableSchema::new(&[("f", DType::U64), ("p", DType::U64)]);
        let t = Table::build(
            schema,
            &[filter, ColumnData::U64(payload)],
            &[CompressionPolicy::Auto, CompressionPolicy::Auto],
            64,
        )
        .unwrap();
        let pred = Predicate::Range { lo: lo as i128, hi: (lo + span) as i128 };
        let (sel, _) = select(&t, "f", &pred).unwrap();
        let early = gather_early(&t, "p", &sel).unwrap();
        let (late, _) = gather_late(&t, "p", &sel).unwrap();
        prop_assert_eq!(late, early);
    }
}
