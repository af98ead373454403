//! Property tests for the scheme-expression language: display∘parse and
//! parse∘display are identities, and every generated expression either
//! builds or fails with a parse error (never a panic).

use lcdc::core::expr::{parse_expr, SchemeExpr};
use proptest::prelude::*;

fn leaf_names() -> Vec<&'static str> {
    vec![
        "id",
        "ns",
        "ns_zz",
        "delta",
        "rle",
        "rpe",
        "dict",
        "varwidth",
        "varwidth_zz",
        "shared",
    ]
}

fn param_names() -> Vec<&'static str> {
    vec!["step", "for", "linear", "poly2", "pstep"]
}

fn arb_expr(depth: u32) -> BoxedStrategy<SchemeExpr> {
    let leaf = prop_oneof![
        prop::sample::select(leaf_names()).prop_map(SchemeExpr::bare),
        (prop::sample::select(param_names()), 1i64..512).prop_map(|(name, l)| {
            let mut e = SchemeExpr::bare(name);
            e.params.push(("l".to_string(), l));
            e
        }),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let roles = prop::sample::select(vec![
        "values",
        "lengths",
        "positions",
        "deltas",
        "codes",
        "offsets",
        "residuals",
    ]);
    leaf.prop_recursive(depth, 16, 3, move |inner| {
        (
            prop::sample::select(leaf_names()),
            prop::collection::vec((roles.clone(), inner), 1..3),
        )
            .prop_map(|(name, subs)| {
                let mut e = SchemeExpr::bare(name);
                // Deduplicate roles to keep the expression well-formed.
                let mut seen = std::collections::HashSet::new();
                for (role, sub) in subs {
                    if seen.insert(role) {
                        e.subs.push((role.to_string(), sub));
                    }
                }
                e
            })
    })
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn display_then_parse_is_identity(expr in arb_expr(3)) {
        let text = expr.to_string();
        let reparsed = parse_expr(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        prop_assert_eq!(reparsed, expr);
    }

    #[test]
    fn build_never_panics(expr in arb_expr(3)) {
        // Building may fail (unknown role for the outer scheme surfaces
        // at compress time, not build time; bad params at build time),
        // but must never panic.
        let _ = expr.build();
    }

    #[test]
    fn arbitrary_text_never_panics(text in "[a-z0-9_=,\\[\\]() ]{0,60}") {
        let _ = parse_expr(&text);
    }

    #[test]
    fn parse_then_display_round_trips_textually(expr in arb_expr(2)) {
        // Canonical text -> parse -> display is a fixpoint.
        let canonical = expr.to_string();
        let twice = parse_expr(&canonical).unwrap().to_string();
        prop_assert_eq!(canonical, twice);
    }
}
