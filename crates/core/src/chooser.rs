//! Per-column scheme choice.
//!
//! Real engines pick a scheme per column (or per segment) from a
//! candidate set. The chooser here compresses *every* candidate and
//! keeps the smallest result: compression is cheap for these schemes,
//! so exactness beats cleverness. No estimate is consulted;
//! [`crate::scheme::Scheme::estimate`] is the per-scheme size model an
//! estimate-first chooser would rank by.

use crate::column::ColumnData;
use crate::error::Result;
use crate::expr::parse_expr;
use crate::scheme::Compressed;

/// The outcome of a scheme choice.
#[derive(Debug)]
pub struct Choice {
    /// The winning scheme expression (parseable text).
    pub expr: String,
    /// The column compressed with it.
    pub compressed: Compressed,
    /// Its size under the uniform size model.
    pub bytes: usize,
    /// Every candidate that compressed successfully, with its size
    /// (including the winner), sorted ascending.
    pub ranking: Vec<(String, usize)>,
}

/// The default candidate set: one practical configuration per scheme
/// family, segment length 128 for the FOR family.
pub fn default_candidates() -> Vec<&'static str> {
    vec![
        "id",
        "const",
        "sparse",
        "ns",
        "varwidth",
        "delta[deltas=ns_zz]",
        "rle[values=ns,lengths=ns]",
        "rle[values=delta[deltas=ns_zz],lengths=ns]",
        "rpe[values=ns,positions=ns]",
        "dict[codes=ns]",
        "for(l=128)[offsets=ns]",
        "for(l=128)[offsets=varwidth]",
        "for(l=128,first=1)[offsets=ns_zz]",
        "pfor(l=128,keep=990)",
        "pstep(l=128)",
        "dfor(l=128)[deltas=ns_zz]",
        "vstep(w=8)[offsets=ns]",
        "linear(l=128)[residuals=ns]",
        "poly2(l=128)[residuals=ns]",
    ]
}

/// Choose the smallest-output scheme for `col` among
/// [`default_candidates`].
pub fn choose_best(col: &ColumnData) -> Result<Choice> {
    choose_among(col, &default_candidates())
}

/// Choose the smallest-output scheme for `col` among the given
/// expressions. Candidates that fail to parse return an error; ones that
/// fail to *compress* (e.g. plain NS on negative data) are skipped.
/// `id` is always appended as a safety net.
pub fn choose_among(col: &ColumnData, candidates: &[&str]) -> Result<Choice> {
    let mut ranking: Vec<(String, usize, Compressed)> = Vec::new();
    let mut texts: Vec<String> = candidates.iter().map(|s| s.to_string()).collect();
    if !texts.iter().any(|t| t == "id") {
        texts.push("id".to_string());
    }
    for text in &texts {
        let scheme = parse_expr(text)?.build()?;
        match scheme.compress(col) {
            Ok(c) => {
                let bytes = c.compressed_bytes();
                ranking.push((text.clone(), bytes, c));
            }
            Err(crate::error::CoreError::NotRepresentable(_)) => continue,
            Err(other) => return Err(other),
        }
    }
    // Stable sort: candidates that tie on size keep their list order, so
    // the caller's candidate ordering doubles as a preference order.
    ranking.sort_by_key(|&(_, bytes, _)| bytes);
    let (expr, bytes, compressed) = ranking
        .first()
        .map(|(t, b, c)| (t.clone(), *b, c.clone()))
        .expect("id always succeeds");
    Ok(Choice {
        expr,
        compressed,
        bytes,
        ranking: ranking.into_iter().map(|(t, b, _)| (t, b)).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_rle_composite_for_dates() {
        let col = ColumnData::U64((0..100u64).flat_map(|d| [20180101 + d; 40]).collect());
        let choice = choose_best(&col).unwrap();
        assert_eq!(choice.expr, "rle[values=delta[deltas=ns_zz],lengths=ns]");
        assert!(choice.bytes < col.uncompressed_bytes() / 50);
    }

    #[test]
    fn picks_ns_for_narrow_uniform() {
        // No runs, no locality, just narrow: NS or varwidth should win.
        let col = ColumnData::U64((0..10_000u64).map(|i| (i * 2654435761) % 64).collect());
        let choice = choose_best(&col).unwrap();
        assert!(
            choice.expr == "ns" || choice.expr == "varwidth",
            "chose {}",
            choice.expr
        );
    }

    #[test]
    fn picks_dict_for_few_heavy_values() {
        // 4 distinct huge values, randomly ordered (no runs, no locality).
        let col = ColumnData::U64(
            (0..10_000u64)
                .map(|i| ((i * 2654435761) % 4) * (1 << 50))
                .collect(),
        );
        let choice = choose_best(&col).unwrap();
        assert_eq!(choice.expr, "dict[codes=ns]");
    }

    #[test]
    fn picks_for_family_on_locally_tight_data() {
        let col = ColumnData::U64(
            (0..4096u64)
                .map(|i| (i / 128) * 1_000_000_000 + (i * 7919) % 17)
                .collect(),
        );
        let choice = choose_best(&col).unwrap();
        assert!(
            choice.expr.starts_with("for(") || choice.expr.starts_with("pfor("),
            "chose {}",
            choice.expr
        );
    }

    #[test]
    fn id_is_safety_net() {
        // Negative, adversarial data: many candidates fail to compress
        // (plain NS) or inflate; the choice must still succeed.
        let col = ColumnData::I64(vec![i64::MIN, i64::MAX, -1, 1, i64::MIN]);
        let choice = choose_among(&col, &["ns"]).unwrap();
        assert_eq!(choice.expr, "id");
    }

    #[test]
    fn ranking_is_sorted_and_complete() {
        let col = ColumnData::U32(vec![1, 1, 1, 2, 2, 3]);
        let choice = choose_best(&col).unwrap();
        assert!(choice.ranking.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(choice.ranking[0].0, choice.expr);
        assert!(choice.ranking.iter().any(|(t, _)| t == "id"));
    }

    #[test]
    fn estimates_rank_plausibly() {
        let col = ColumnData::U64((0..100u64).flat_map(|d| [d; 50]).collect());
        let stats = crate::stats::ColumnStats::collect(&col);
        let estimate = |text: &str| {
            let scheme = parse_expr(text).unwrap().build().unwrap();
            scheme.estimate(&stats).unwrap()
        };
        // The run-based scheme must be estimated far smaller than id.
        assert!(estimate("rle") * 10 < estimate("id"));
    }

    #[test]
    fn bad_candidate_expression_is_an_error() {
        let col = ColumnData::U32(vec![1]);
        assert!(choose_among(&col, &["noscheme"]).is_err());
    }
}
