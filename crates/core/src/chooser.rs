//! Per-column scheme choice by branch and bound over proven size floors.
//!
//! Real engines pick a scheme per column (or per segment) from a
//! candidate set. The chooser keeps the smallest result — exactly the
//! candidate an exhaustive loop (compress every candidate, keep the
//! smallest, ties to the earlier list entry) would keep — without
//! compressing the candidates that cannot win:
//!
//! 1. One [`ColumnStats`] pass over the column.
//! 2. Every candidate reports [`Scheme::floor`]: `Some(f)` proves any
//!    output it produces has `compressed_bytes() >= f`; `None` proves
//!    it cannot encode the column. Cascades compose their floors from
//!    the parts' shapes (Lessons 2: the outer scheme's parts, fed to
//!    inner schemes), so a candidate's size is bounded before it is
//!    built.
//! 3. Candidates are compressed in `(floor, list index)` order. The
//!    loop stops at the first candidate whose floor exceeds the best
//!    size so far, or equals it with a later list index — no remaining
//!    candidate can then beat the best, nor tie it from earlier in the
//!    list.
//!
//! The default candidates are parsed once per process.

use crate::column::ColumnData;
use crate::error::{CoreError, Result};
use crate::expr::parse_expr;
use crate::scheme::{Compressed, Scheme};
use crate::stats::ColumnStats;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The outcome of a scheme choice.
#[derive(Debug)]
pub struct Choice {
    /// The winning scheme expression (parseable text).
    pub expr: String,
    /// The winning scheme, built once per candidate list: a caller that
    /// keeps the compressed form decodes through it without parsing
    /// `expr` again.
    pub scheme: Arc<dyn Scheme>,
    /// The column compressed with it.
    pub compressed: Compressed,
    /// Its size under the uniform size model.
    pub bytes: usize,
    /// Every candidate once, with what the choice learned of its size,
    /// sorted by that size (ties in list order), the winner first and
    /// the unrepresentable last.
    pub ranking: Vec<(String, Size)>,
}

/// What the chooser knows of one candidate's size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Compressed: its exact size.
    Exact(usize),
    /// Pruned without compressing: its floor, which the winner beats.
    AtLeast(usize),
    /// The scheme cannot encode the column.
    NotRepresentable,
}

impl Size {
    /// The exact size, or the floor of a pruned candidate.
    pub fn bytes(self) -> Option<usize> {
        match self {
            Size::Exact(n) | Size::AtLeast(n) => Some(n),
            Size::NotRepresentable => None,
        }
    }
}

impl fmt::Display for Size {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Size::Exact(n) => write!(f, "{n}"),
            Size::AtLeast(n) => write!(f, ">= {n} (pruned)"),
            Size::NotRepresentable => f.write_str("not representable"),
        }
    }
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

/// Parsed candidates, in list order.
type Candidates = Vec<(String, Arc<dyn Scheme>)>;

/// Choose the smallest-output scheme for `col` among
/// [`default_candidates`].
pub fn choose_best(col: &ColumnData) -> Result<Choice> {
    static DEFAULTS: OnceLock<Candidates> = OnceLock::new();
    let candidates = DEFAULTS
        .get_or_init(|| parse_candidates(&default_candidates()).expect("default candidates parse"));
    choose(col, candidates)
}

/// Choose the smallest-output scheme for `col` among the given
/// expressions. Candidates that fail to parse return an error; ones that
/// cannot encode the column (e.g. plain NS on negative data) are
/// skipped. `id` is always appended as a safety net.
pub fn choose_among(col: &ColumnData, candidates: &[&str]) -> Result<Choice> {
    choose(col, &parse_candidates(candidates)?)
}

fn parse_candidates(candidates: &[&str]) -> Result<Candidates> {
    let mut texts: Vec<&str> = candidates.to_vec();
    if !texts.contains(&"id") {
        texts.push("id");
    }
    texts
        .into_iter()
        .map(|text| Ok((text.to_string(), Arc::from(parse_expr(text)?.build()?))))
        .collect()
}

fn choose(col: &ColumnData, candidates: &Candidates) -> Result<Choice> {
    let stats = ColumnStats::collect(col);
    let mut sizes: Vec<Size> = vec![Size::NotRepresentable; candidates.len()];
    let mut order: Vec<(usize, usize)> = Vec::with_capacity(candidates.len());
    for (index, (_, scheme)) in candidates.iter().enumerate() {
        if let Some(floor) = scheme.floor(&stats) {
            sizes[index] = Size::AtLeast(floor);
            order.push((floor, index));
        }
    }
    order.sort_unstable();
    // (bytes, list index, form) of the best candidate so far.
    let mut best: Option<(usize, usize, Compressed)> = None;
    for (floor, index) in order {
        if let Some((bytes, best_index, _)) = &best {
            if (floor, index) > (*bytes, *best_index) {
                break;
            }
        }
        match candidates[index].1.compress(col) {
            Ok(c) => {
                let bytes = c.compressed_bytes();
                sizes[index] = Size::Exact(bytes);
                if best.as_ref().is_none_or(|b| (bytes, index) < (b.0, b.1)) {
                    best = Some((bytes, index, c));
                }
            }
            Err(CoreError::NotRepresentable(_)) => sizes[index] = Size::NotRepresentable,
            Err(other) => return Err(other),
        }
    }
    let (bytes, index, compressed) = best.expect("id always succeeds");
    let mut ranking: Vec<(String, Size)> = candidates
        .iter()
        .zip(sizes)
        .map(|((text, _), size)| (text.clone(), size))
        .collect();
    // Stable: equal sizes stay in list order, so the winner leads.
    ranking.sort_by_key(|(_, size)| (size.bytes().is_none(), size.bytes()));
    let (expr, scheme) = &candidates[index];
    Ok(Choice {
        expr: expr.clone(),
        scheme: Arc::clone(scheme),
        compressed,
        bytes,
        ranking,
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
        assert_eq!(
            choice.ranking[1],
            ("ns".to_string(), Size::NotRepresentable)
        );
    }

    #[test]
    fn ranking_is_sorted_and_complete() {
        let col = ColumnData::U32(vec![1, 1, 1, 2, 2, 3]);
        let choice = choose_best(&col).unwrap();
        let sizes: Vec<Option<usize>> = choice.ranking.iter().map(|(_, s)| s.bytes()).collect();
        let known = sizes.iter().take_while(|s| s.is_some()).count();
        assert!(sizes[..known].windows(2).all(|w| w[0] <= w[1]));
        assert!(sizes[known..].iter().all(Option::is_none));
        assert_eq!(
            choice.ranking[0],
            (choice.expr.clone(), Size::Exact(choice.bytes))
        );
        assert_eq!(choice.ranking.len(), default_candidates().len());
    }

    #[test]
    fn floors_prune_run_heavy_columns() {
        let col = ColumnData::U64((0..100u64).flat_map(|d| [d; 50]).collect());
        let choice = choose_best(&col).unwrap();
        let size = |text: &str| choice.ranking.iter().find(|(t, _)| t == text).unwrap().1;
        // The run-based scheme wins; id and the per-row schemes are
        // priced by their floors alone.
        assert!(choice.expr.starts_with("rle["), "chose {}", choice.expr);
        assert!(matches!(size("id"), Size::AtLeast(40_000)));
        assert!(matches!(
            size("poly2(l=128)[residuals=ns]"),
            Size::AtLeast(_)
        ));
        assert_eq!(size("const"), Size::NotRepresentable);
    }

    #[test]
    fn bad_candidate_expression_is_an_error() {
        let col = ColumnData::U32(vec![1]);
        assert!(choose_among(&col, &["noscheme"]).is_err());
    }
}
