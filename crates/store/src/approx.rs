//! Approximate and gradual-refinement aggregation.
//!
//! The paper (§II-B): the "rough correspondence of the column data to a
//! simple model can be used [...] in the context of approximate or
//! gradual-refinement query processing." Concretely:
//!
//! * An **approximate aggregate** is answered from the segments' zone
//!   maps alone — a certified `[lo, hi]` interval per aggregate, with
//!   *zero* payload bytes touched ([`GradualAggregate::new`], then
//!   [`GradualAggregate::interval`]).
//! * **Gradual refinement** then decompresses segments one at a time
//!   (widest-interval first), shrinking the interval monotonically until
//!   it is tight enough or the budget runs out; the exact answer is the
//!   fixpoint.

use crate::agg::aggregate_segment;
use crate::table::Table;
use crate::Result;

/// A certified interval around an aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggInterval {
    /// Certified lower bound of the SUM.
    pub sum_lo: i128,
    /// Certified upper bound of the SUM.
    pub sum_hi: i128,
    /// Certified lower bound of the MIN.
    pub min_lo: Option<i128>,
    /// Certified upper bound of the MAX.
    pub max_hi: Option<i128>,
    /// Exact row count (always known from segment metadata).
    pub count: usize,
}

impl AggInterval {
    /// Width of the SUM interval (0 = exact).
    pub fn sum_width(&self) -> i128 {
        self.sum_hi - self.sum_lo
    }

    /// Whether the interval certifies the exact SUM.
    pub fn is_exact(&self) -> bool {
        self.sum_width() == 0
    }

    /// Whether `exact` lies inside the certified bounds.
    pub fn contains_sum(&self, exact: i128) -> bool {
        self.sum_lo <= exact && exact <= self.sum_hi
    }
}

/// The state of a gradually-refined aggregate over one column.
#[derive(Debug)]
pub struct GradualAggregate<'a> {
    table: &'a Table,
    column: String,
    /// Per still-unrefined segment: (segment index, row count, lo, hi).
    pending: Vec<(usize, usize, i128, i128)>,
    /// Exact partial sums from refined segments.
    refined_sum: i128,
    refined_min: Option<i128>,
    refined_max: Option<i128>,
    count: usize,
}

impl<'a> GradualAggregate<'a> {
    /// Start a gradual aggregate over `column`. The initial interval
    /// (available immediately via [`GradualAggregate::interval`]) comes
    /// from zone maps only.
    pub fn new(table: &'a Table, column: &str) -> Result<Self> {
        // Zone maps come from segment *metadata* — on a lazily-backed
        // table the initial interval costs zero payload reads.
        let source = table.source(column)?;
        let mut pending = Vec::with_capacity(source.num_segments());
        let mut count = 0usize;
        for idx in 0..source.num_segments() {
            let meta = source.meta(idx);
            count += meta.rows;
            if meta.rows > 0 {
                pending.push((idx, meta.rows, meta.min, meta.max));
            }
        }
        Ok(GradualAggregate {
            table,
            column: column.to_string(),
            pending,
            refined_sum: 0,
            refined_min: None,
            refined_max: None,
            count,
        })
    }

    /// The current certified interval.
    pub fn interval(&self) -> AggInterval {
        let mut sum_lo = self.refined_sum;
        let mut sum_hi = self.refined_sum;
        let mut min_lo = self.refined_min;
        let mut max_hi = self.refined_max;
        for &(_, rows, lo, hi) in &self.pending {
            sum_lo += lo * rows as i128;
            sum_hi += hi * rows as i128;
            min_lo = Some(min_lo.map_or(lo, |m| m.min(lo)));
            max_hi = Some(max_hi.map_or(hi, |m| m.max(hi)));
        }
        AggInterval {
            sum_lo,
            sum_hi,
            min_lo,
            max_hi,
            count: self.count,
        }
    }

    /// Segments not yet refined.
    pub fn pending_segments(&self) -> usize {
        self.pending.len()
    }

    /// Refine the segment contributing the widest slice of the SUM
    /// interval. Returns `false` when everything is already exact.
    pub fn refine_one(&mut self) -> Result<bool> {
        let Some(widest) = self
            .pending
            .iter()
            .enumerate()
            .max_by_key(|(_, &(_, rows, lo, hi))| (hi - lo) * rows as i128)
            .map(|(slot, _)| slot)
        else {
            return Ok(false);
        };
        let (seg_idx, _, _, _) = self.pending.swap_remove(widest);
        let segment = self.table.source(&self.column)?.segment(seg_idx)?;
        let exact = aggregate_segment(&segment, None)?;
        self.refined_sum += exact.sum;
        self.refined_min = match (self.refined_min, exact.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.refined_max = match (self.refined_max, exact.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        Ok(true)
    }

    /// Refine until the SUM interval's *relative* width drops below
    /// `rel_width` (e.g. 0.01 = ±0.5 %), or everything is exact. Returns
    /// the number of segments refined.
    pub fn refine_to(&mut self, rel_width: f64) -> Result<usize> {
        let mut refined = 0usize;
        loop {
            let interval = self.interval();
            let mid = (interval.sum_lo + interval.sum_hi) / 2;
            let rel = if mid == 0 {
                if interval.is_exact() {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                interval.sum_width() as f64 / (mid.abs() as f64)
            };
            if rel <= rel_width || !self.refine_one()? {
                return Ok(refined);
            }
            refined += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::aggregate_plain;
    use crate::schema::TableSchema;
    use crate::segment::CompressionPolicy;
    use crate::table::Table;
    use lcdc_core::{ColumnData, DType};

    fn table() -> (Table, ColumnData) {
        let col = ColumnData::U64((0..20_000u64).map(|i| (i / 1000) * 100 + i % 17).collect());
        let schema = TableSchema::new(&[("v", DType::U64)]);
        let t = Table::build(
            schema,
            std::slice::from_ref(&col),
            &[CompressionPolicy::Auto],
            1000,
        )
        .unwrap();
        (t, col)
    }

    #[test]
    fn zone_map_interval_contains_exact_sum() {
        let (t, col) = table();
        let exact = aggregate_plain(&col);
        let approx = GradualAggregate::new(&t, "v").unwrap().interval();
        assert!(
            approx.contains_sum(exact.sum),
            "{approx:?} vs {}",
            exact.sum
        );
        assert!(approx.min_lo.unwrap() <= exact.min.unwrap());
        assert!(approx.max_hi.unwrap() >= exact.max.unwrap());
        assert_eq!(approx.count, exact.count);
        // Locally tight data: zone maps alone are already quite narrow.
        assert!(approx.sum_width() < exact.sum / 10, "{approx:?}");
    }

    #[test]
    fn refinement_shrinks_monotonically_to_exact() {
        let (t, col) = table();
        let exact = aggregate_plain(&col).sum;
        let mut g = GradualAggregate::new(&t, "v").unwrap();
        let mut prev_width = g.interval().sum_width();
        let mut steps = 0;
        while g.refine_one().unwrap() {
            let interval = g.interval();
            assert!(interval.contains_sum(exact), "step {steps}");
            assert!(interval.sum_width() <= prev_width, "step {steps}");
            prev_width = interval.sum_width();
            steps += 1;
        }
        assert_eq!(steps, 20, "one refinement per segment");
        let final_interval = g.interval();
        assert!(final_interval.is_exact());
        assert_eq!(final_interval.sum_lo, exact);
    }

    #[test]
    fn refine_to_tolerance_stops_early() {
        let (t, col) = table();
        let exact = aggregate_plain(&col).sum;
        let mut g = GradualAggregate::new(&t, "v").unwrap();
        let refined = g.refine_to(0.05).unwrap();
        assert!(
            refined < 20,
            "should not need every segment, used {refined}"
        );
        let interval = g.interval();
        assert!(interval.contains_sum(exact));
        assert!(interval.sum_width() as f64 <= 0.05 * exact as f64 + 1.0);
    }

    #[test]
    fn refine_to_zero_reaches_exact() {
        let (t, col) = table();
        let exact = aggregate_plain(&col).sum;
        let mut g = GradualAggregate::new(&t, "v").unwrap();
        g.refine_to(0.0).unwrap();
        assert_eq!(g.interval().sum_lo, exact);
        assert_eq!(g.pending_segments(), 0);
    }

    #[test]
    fn empty_table_interval() {
        let schema = TableSchema::new(&[("v", DType::U64)]);
        let t = Table::build(
            schema,
            &[ColumnData::U64(vec![])],
            &[CompressionPolicy::None],
            100,
        )
        .unwrap();
        let approx = GradualAggregate::new(&t, "v").unwrap().interval();
        assert_eq!(approx.count, 0);
        assert!(approx.is_exact());
        assert_eq!(approx.min_lo, None);
    }

    #[test]
    fn unknown_column_errors() {
        let (t, _) = table();
        assert!(GradualAggregate::new(&t, "nope").is_err());
    }

    #[test]
    fn signed_data_bounds() {
        let col = ColumnData::I64((0..5000).map(|i| -2500 + i).collect());
        let schema = TableSchema::new(&[("v", DType::I64)]);
        let t = Table::build(
            schema,
            std::slice::from_ref(&col),
            &[CompressionPolicy::Auto],
            500,
        )
        .unwrap();
        let exact = aggregate_plain(&col);
        let approx = GradualAggregate::new(&t, "v").unwrap().interval();
        assert!(approx.contains_sum(exact.sum));
    }
}
