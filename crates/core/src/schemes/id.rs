//! ID: "the 'compression scheme' of not applying any compression"
//! (paper §II-A). The identity of the composition algebra — cascading a
//! part with ID leaves it plain, which is exactly how the paper writes
//! the RLE decomposition: `RLE ≡ (ID for values, DELTA for positions) ∘ RPE`.

use crate::column::ColumnData;
use crate::error::Result;
use crate::parts::Parts;
use crate::plan::{Node, Plan};
use crate::scheme::{Compressed, Params, Part, PartData, Scheme};
use crate::stats::ColumnStats;

/// The identity scheme.
#[derive(Debug, Clone, Copy, Default)]
pub struct Id;

/// Role of ID's single part.
pub const ROLE_VALUES: &str = "values";

impl Scheme for Id {
    fn name(&self) -> String {
        "id".to_string()
    }

    fn compress(&self, col: &ColumnData) -> Result<Compressed> {
        Ok(Compressed {
            scheme_id: self.name(),
            n: col.len(),
            dtype: col.dtype(),
            params: Params::new(),
            parts: vec![Part {
                role: ROLE_VALUES,
                data: PartData::Plain(col.clone()),
            }],
        })
    }

    fn decode(&self, parts: &Parts<'_>) -> Result<ColumnData> {
        Ok(parts.column(ROLE_VALUES)?.into_owned())
    }

    fn visit_parts(&self, parts: &Parts<'_>, f: &mut dyn FnMut(&[u64])) -> Result<()> {
        parts.stream(ROLE_VALUES)?.for_each_chunk(f);
        Ok(())
    }

    fn plan(&self, _c: &Compressed) -> Result<Plan> {
        Plan::new(vec![Node::Part(0)], 0)
    }

    fn floor(&self, stats: &ColumnStats) -> Option<usize> {
        Some(stats.plain_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::decompress_via_plan;

    #[test]
    fn round_trip() {
        let col = ColumnData::I32(vec![-3, 0, 7]);
        let c = Id.compress(&col).unwrap();
        assert_eq!(Id.decompress(&c).unwrap(), col);
        assert_eq!(c.n, 3);
        assert_eq!(c.compressed_bytes(), col.uncompressed_bytes());
    }

    #[test]
    fn plan_matches_direct() {
        let col = ColumnData::U64(vec![5, 6, 7]);
        let c = Id.compress(&col).unwrap();
        assert_eq!(decompress_via_plan(&Id, &c).unwrap(), col);
    }

    #[test]
    fn wrong_scheme_rejected() {
        let col = ColumnData::U32(vec![1]);
        let mut c = Id.compress(&col).unwrap();
        c.scheme_id = "rle".into();
        assert!(Id.decompress(&c).is_err());
    }

    #[test]
    fn floor_is_exact() {
        let col = ColumnData::U32(vec![1, 2, 3]);
        let stats = ColumnStats::collect(&col);
        assert_eq!(
            Id.floor(&stats),
            Some(Id.compress(&col).unwrap().compressed_bytes())
        );
    }
}
