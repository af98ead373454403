//! Tables whose DICT key columns mix every kind of segment the write
//! path makes, on every storage surface — for the props suites'
//! decoded-oracle differentials.
//!
//! The `key` column of [`MixedRuns::build`] holds, in order:
//!
//! * a built run: sparse keys the chooser picks `dict[codes=ns]` for,
//!   sharing one dictionary, with a constant segment and a
//!   sequential (non-DICT) one among them;
//! * an appended one-segment batch of partly new keys, which keeps its
//!   own dictionary;
//! * an appended two-segment batch of new keys, which shares a second
//!   dictionary of its own.
//!
//! `val` is uniform in `0..1000`. Every surface holds the same rows.

#![allow(dead_code)]

use lcdc::core::{ColumnData, DType};
use lcdc::store::{
    append_table, load_table, open_table_lazy, save_table, shard_table, CompressionPolicy,
    SchemeKind, ShardedTable, Table, TableSchema,
};
use std::path::PathBuf;
use std::sync::Arc;

pub const SEG_ROWS: usize = 256;

/// One mixed table on every storage surface, with the raw rows.
pub struct MixedRuns {
    /// `(surface, table)`: resident, saved then appended and loaded,
    /// the same lazily opened, the resident one sharded, and its shards
    /// saved and lazily opened as one sharded table.
    pub surfaces: Vec<(&'static str, Table)>,
    pub keys: Vec<i64>,
    pub vals: Vec<u64>,
    dir: PathBuf,
}

impl Drop for MixedRuns {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// `rows` keys drawn from `distinct` sparse values (about 2^30 apart,
/// so a segment's dictionary is cheaper than packing the keys) starting
/// at value index `first`.
fn sparse(rows: usize, first: i64, distinct: i64, seed: u64, signed: bool) -> Vec<i64> {
    let sign = if signed { -1 } else { 1 };
    (0..rows as u64)
        .map(|i| {
            let pick = (i.wrapping_mul(seed | 1).wrapping_add(seed >> 5) % distinct as u64) as i64;
            sign * ((first + pick) * ((1 << 30) + 7) + 3)
        })
        .collect()
}

fn keyed(keys: &[i64], vals: &[u64], dtype: DType) -> Vec<ColumnData> {
    let keys = match dtype {
        DType::I64 => ColumnData::I64(keys.to_vec()),
        _ => ColumnData::U64(keys.iter().map(|&k| k as u64).collect()),
    };
    vec![keys, ColumnData::U64(vals.to_vec())]
}

impl MixedRuns {
    /// The mixed table for `seed`, its keys `u64` or (`signed`) `i64`.
    pub fn build(seed: u64, signed: bool, tag: &str) -> MixedRuns {
        let dtype = if signed { DType::I64 } else { DType::U64 };
        let schema = TableSchema::new(&[("key", dtype), ("val", DType::U64)]);
        let policies = [CompressionPolicy::Auto, CompressionPolicy::Auto];
        let mut built: Vec<i64> = sparse(4 * SEG_ROWS, 0, 24, seed, signed);
        built.extend(std::iter::repeat_n(built[0], SEG_ROWS));
        built.extend((0..SEG_ROWS as i64).map(|i| if signed { -i } else { i }));
        built.extend(sparse(SEG_ROWS, 4, 24, seed ^ 1, signed));
        let own = sparse(SEG_ROWS, 12, 24, seed ^ 2, signed);
        let second = sparse(2 * SEG_ROWS, 40, 16, seed ^ 3, signed);
        let vals: Vec<u64> = lcdc::datagen::uniform(built.len() + 3 * SEG_ROWS, 1000, seed);
        let (built_vals, rest) = vals.split_at(built.len());
        let (own_vals, second_vals) = rest.split_at(SEG_ROWS);
        let batches = [
            keyed(&own, own_vals, dtype),
            keyed(&second, second_vals, dtype),
        ];
        let base = Table::build(
            schema,
            &keyed(&built, built_vals, dtype),
            &policies,
            SEG_ROWS,
        )
        .expect("base builds");
        let resident = batches
            .iter()
            .fold(base.clone(), |t, batch| t.append(batch).expect("appends"));
        assert_mixed(&resident);

        let dir = std::env::temp_dir().join(format!("lcdc_mixed_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let saved = dir.join("saved");
        save_table(&base, &saved).expect("saves");
        for batch in &batches {
            append_table(&saved, batch, &policies).expect("appends on disk");
        }
        let shards = shard_table(&resident, 3).expect("shards");
        let mut lazy_shards = Vec::new();
        for (i, shard) in shards.iter().enumerate() {
            let at = dir.join(format!("shard{i}"));
            save_table(shard, &at).expect("saves a shard");
            lazy_shards.push(open_table_lazy(&at, 2).expect("opens a shard"));
        }
        let sharded = |shards: Vec<Table>| {
            let sharded = ShardedTable::new(shards).expect("shards assemble");
            sharded.table().as_ref().clone()
        };
        let surfaces = vec![
            ("resident", resident),
            ("loaded", load_table(&saved).expect("loads")),
            ("lazy", open_table_lazy(&saved, 2).expect("opens")),
            ("sharded", sharded(shards)),
            ("sharded lazy", sharded(lazy_shards)),
        ];
        let mut keys = built;
        keys.extend(own);
        keys.extend(second);
        MixedRuns {
            surfaces,
            keys,
            vals,
            dir,
        }
    }

    /// The resident surface.
    pub fn resident(&self) -> &Table {
        &self.surfaces[0].1
    }

    /// The keys of segment `i` (every segment holds [`SEG_ROWS`]).
    pub fn segment_keys(&self, i: usize) -> &[i64] {
        &self.keys[i * SEG_ROWS..(i + 1) * SEG_ROWS]
    }
}

/// The mix the module doc promises: shared, own and non-DICT key
/// segments, and two distinct shared dictionaries.
fn assert_mixed(table: &Table) {
    let segments = table.column_segments("key").expect("key column");
    let exprs: Vec<&str> = segments.iter().map(|s| s.expr.as_str()).collect();
    let count = |expr: &str| exprs.iter().filter(|&&e| e == expr).count();
    assert!(count("dict[dict=shared,codes=ns]") >= 4, "{exprs:?}");
    assert!(count("dict[codes=ns]") >= 1, "{exprs:?}");
    assert!(
        segments.iter().any(|s| s.kind() != SchemeKind::Dict),
        "{exprs:?}"
    );
    let mut dicts: Vec<_> = segments
        .iter()
        .filter_map(|s| s.compressed.shared_dict())
        .collect();
    dicts.dedup_by(|a, b| Arc::ptr_eq(a, b));
    assert_eq!(dicts.len(), 2, "{exprs:?}");
}
