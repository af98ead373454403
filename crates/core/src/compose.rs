//! Composition of schemes: the cascade combinator.
//!
//! The paper's §I example composes RLE with DELTA *on the run values*;
//! its §II-A identity composes RPE with `(ID for values, DELTA for
//! run_positions)`. The general shape is: compress with an *outer*
//! scheme, then compress selected *parts* of its output with *inner*
//! schemes. [`Cascade`] is that combinator; because parts are plain
//! columns, any scheme can be an inner scheme, recursively.

use crate::column::ColumnData;
use crate::error::{CoreError, Result};
use crate::parts::Parts;
use crate::plan::Plan;
use crate::scheme::{Compressed, PartData, Scheme};
use crate::stats::ColumnStats;

/// A composed scheme: `outer` with named parts re-compressed by `inner`
/// schemes. Written `outer[role₁=inner₁, role₂=inner₂]` in the scheme
/// expression language.
#[derive(Debug)]
pub struct Cascade {
    outer: Box<dyn Scheme>,
    inner: Vec<(String, Box<dyn Scheme>)>,
}

impl Cascade {
    /// Compose `outer` with inner schemes applied to its named parts.
    ///
    /// Roles not present in the outer scheme's output surface as
    /// [`CoreError::MissingPart`] at compression time.
    pub fn new<R: Into<String>>(outer: Box<dyn Scheme>, inner: Vec<(R, Box<dyn Scheme>)>) -> Self {
        Cascade {
            outer,
            inner: inner.into_iter().map(|(r, s)| (r.into(), s)).collect(),
        }
    }

    /// The outer scheme.
    pub fn outer(&self) -> &dyn Scheme {
        self.outer.as_ref()
    }

    /// The inner `(role, scheme)` pairs.
    pub fn inner(&self) -> impl Iterator<Item = (&str, &dyn Scheme)> {
        self.inner.iter().map(|(r, s)| (r.as_str(), s.as_ref()))
    }
}

impl Scheme for Cascade {
    fn name(&self) -> String {
        let subs: Vec<String> = self
            .inner
            .iter()
            .map(|(role, scheme)| format!("{role}={}", scheme.name()))
            .collect();
        format!("{}[{}]", self.outer.name(), subs.join(","))
    }

    fn compress(&self, col: &ColumnData) -> Result<Compressed> {
        let mut c = self.outer.compress(col)?;
        for (role, inner) in &self.inner {
            let part = c
                .parts
                .iter_mut()
                .find(|p| p.role == role.as_str())
                .ok_or_else(|| {
                    CoreError::CorruptParts(format!(
                        "scheme {} produced no part named {role:?}",
                        self.outer.name()
                    ))
                })?;
            let plain = match &part.data {
                PartData::Plain(col) => col,
                _ => {
                    return Err(CoreError::CorruptParts(format!(
                        "part {role:?} of {} is not plain; cannot cascade into it",
                        self.outer.name()
                    )))
                }
            };
            part.data = PartData::Nested(Box::new(inner.compress(plain)?));
        }
        c.scheme_id = self.name();
        Ok(c)
    }

    /// The outer scheme decodes the cascade's form as it is: it reads
    /// its parts through `parts`, which decodes (or streams) the nested
    /// ones with [`Cascade::inner_for`]'s schemes.
    fn decode(&self, parts: &Parts<'_>) -> Result<ColumnData> {
        self.outer.decode(parts)
    }

    /// Visited the same way: by the outer scheme, over the nested parts.
    fn visit_parts(&self, parts: &Parts<'_>, f: &mut dyn FnMut(&[u64])) -> Result<()> {
        self.outer.visit_parts(parts, f)
    }

    fn inner_for(&self, role: &str) -> Option<&dyn Scheme> {
        self.inner
            .iter()
            .find(|(r, _)| r == role)
            .map(|(_, s)| s.as_ref())
            .or_else(|| self.outer.inner_for(role))
    }

    /// The *outer* scheme's plan; nested parts are handled by
    /// [`Scheme::resolve_parts`], which decompresses them first. (A
    /// fully spliced cross-scheme plan is possible in principle — the
    /// parts are columns and the inner plans are DAGs — but keeping the
    /// boundary makes the partial-decompression experiments legible.)
    fn plan(&self, c: &Compressed) -> Result<Plan> {
        self.outer.plan(c)
    }

    /// Lessons 2 as arithmetic: the outer floor, with each cascaded
    /// part's plain size replaced by the inner floor over the shape the
    /// outer derives for that part. An inner `None` is the cascade's
    /// (the inner `compress` fails, so the cascade's does); a part the
    /// outer derives no shape for leaves only the always-sound 0.
    fn floor(&self, stats: &ColumnStats) -> Option<usize> {
        let mut floor = self.outer.floor(stats)?;
        for (role, inner) in &self.inner {
            let Some(part) = self.outer.part_stats(stats, role) else {
                return Some(0);
            };
            floor = floor.saturating_sub(part.plain_bytes()) + inner.floor(&part)?;
        }
        Some(floor)
    }

    /// Parts left plain keep the outer scheme's shape.
    fn part_stats(&self, stats: &ColumnStats, role: &str) -> Option<ColumnStats> {
        if self.inner.iter().any(|(r, _)| r == role) {
            return None;
        }
        self.outer.part_stats(stats, role)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::decompress_via_plan;
    use crate::schemes::{Delta, Dict, Ns, Rle, Rpe};

    fn dates() -> ColumnData {
        // §I example: monotone with runs.
        ColumnData::U64((0..200u64).flat_map(|d| [20180101 + d; 37]).collect())
    }

    #[test]
    fn paper_intro_composition() {
        // RLE, then DELTA on the run values (per §I), then NS on the
        // deltas and lengths for actual bit savings.
        let scheme = Cascade::new(
            Box::new(Rle),
            vec![
                (
                    "values",
                    Box::new(Cascade::new(
                        Box::new(Delta),
                        vec![("deltas", Box::new(Ns::zz()) as Box<dyn Scheme>)],
                    )) as Box<dyn Scheme>,
                ),
                ("lengths", Box::new(Ns::plain()) as Box<dyn Scheme>),
            ],
        );
        let c = scheme.compress(&dates()).unwrap();
        assert!(c.ratio().unwrap() > 100.0, "ratio {:?}", c.ratio());
        assert_eq!(scheme.decompress(&c).unwrap(), dates());
    }

    #[test]
    fn cascade_name_is_expression() {
        let scheme = Cascade::new(
            Box::new(Rle),
            vec![("values", Box::new(Delta) as Box<dyn Scheme>)],
        );
        assert_eq!(scheme.name(), "rle[values=delta]");
    }

    #[test]
    fn plan_works_through_nesting() {
        let scheme = Cascade::new(
            Box::new(Rle),
            vec![("values", Box::new(Delta) as Box<dyn Scheme>)],
        );
        let c = scheme.compress(&dates()).unwrap();
        assert_eq!(decompress_via_plan(&scheme, &c).unwrap(), dates());
    }

    #[test]
    fn unknown_role_rejected() {
        let scheme = Cascade::new(
            Box::new(Rle),
            vec![("nope", Box::new(Delta) as Box<dyn Scheme>)],
        );
        assert!(matches!(
            scheme.compress(&dates()),
            Err(CoreError::CorruptParts(_))
        ));
    }

    #[test]
    fn wrong_scheme_rejected() {
        let a = Cascade::new(
            Box::new(Rle),
            vec![("values", Box::new(Delta) as Box<dyn Scheme>)],
        );
        let b = Cascade::new(
            Box::new(Rpe),
            vec![("values", Box::new(Delta) as Box<dyn Scheme>)],
        );
        let c = a.compress(&dates()).unwrap();
        assert!(matches!(
            b.decompress(&c),
            Err(CoreError::SchemeMismatch { .. })
        ));
    }

    #[test]
    fn triple_nesting() {
        // dict -> codes rle -> lengths ns.
        let scheme = Cascade::new(
            Box::new(Dict),
            vec![(
                "codes",
                Box::new(Cascade::new(
                    Box::new(Rle),
                    vec![
                        ("lengths", Box::new(Ns::plain()) as Box<dyn Scheme>),
                        ("values", Box::new(Ns::plain()) as Box<dyn Scheme>),
                    ],
                )) as Box<dyn Scheme>,
            )],
        );
        let col = ColumnData::U64((0..5000u64).map(|i| (i / 100) % 7 * 1_000_000).collect());
        let c = scheme.compress(&col).unwrap();
        assert!(c.ratio().unwrap() > 50.0);
        assert_eq!(scheme.decompress(&c).unwrap(), col);
    }

    #[test]
    fn composite_beats_both_singles_on_dates() {
        let composite = Cascade::new(
            Box::new(Rle),
            vec![
                (
                    "values",
                    Box::new(Cascade::new(
                        Box::new(Delta),
                        vec![("deltas", Box::new(Ns::zz()) as Box<dyn Scheme>)],
                    )) as Box<dyn Scheme>,
                ),
                ("lengths", Box::new(Ns::plain()) as Box<dyn Scheme>),
            ],
        );
        let col = dates();
        let composite_bytes = composite.compress(&col).unwrap().compressed_bytes();
        let rle_bytes = Rle.compress(&col).unwrap().compressed_bytes();
        let delta_ns = Cascade::new(
            Box::new(Delta),
            vec![("deltas", Box::new(Ns::zz()) as Box<dyn Scheme>)],
        );
        let delta_bytes = delta_ns.compress(&col).unwrap().compressed_bytes();
        assert!(
            composite_bytes * 4 < rle_bytes,
            "{composite_bytes} vs rle {rle_bytes}"
        );
        assert!(
            composite_bytes * 4 < delta_bytes,
            "{composite_bytes} vs delta {delta_bytes}"
        );
    }
}
