//! Seeded inputs. Everything the program under test sees — table
//! directories, wire requests, ingest batches, codec columns — is
//! generated here from the run's seed, through the library's own
//! `datagen` generators.

use lcdc::core::{ColumnData, DType};
use lcdc::datagen::tpch_like::lineitem_like;
use lcdc::datagen::{
    locally_varying_with_outliers, shipped_order_dates, sorted_unique, step_column, uniform,
    zipf_codes,
};
use lcdc::store::file::save_table;
use lcdc::store::{shard_table, CompressionPolicy, StoreError, Table, TableSchema};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The issue's default sizes (8 M lineitem rows, 4 M values per codec
/// family) times this one common factor, chosen so that a run's three
/// set-ups and its measurement fit the driver's time budget.
pub const SCALE_FACTOR: f64 = 0.125;

/// `lineitem` rows: 8 Mi x [`SCALE_FACTOR`], a whole number of segments.
pub const LINEITEM_ROWS: usize = 1 << 20;
pub const SEG_ROWS: usize = 4096;
pub const SHARDS: usize = 4;
/// `part` rows, which is also the `partkey` domain.
pub const PART_ROWS: usize = 4096;
pub const BRANDS: u64 = 64;
/// Values per codec column family: 4 Mi x [`SCALE_FACTOR`].
pub const CODEC_VALUES: usize = 1 << 19;
/// Rows per ingest batch: one segment.
pub const BATCH_ROWS: usize = SEG_ROWS;
/// Upper bound (exclusive) of the incompressible `noise` column.
pub const NOISE_BOUND: u64 = 1 << 40;

pub const LINEITEM: &str = "lineitem";
pub const PART: &str = "part";
pub const FIRST_DAY: u64 = 19_920_101;

const LINEITEM_COLUMNS: [&str; 6] = [
    "shipdate", "quantity", "discount", "price", "partkey", "noise",
];

/// A directory under the benchmark's `out/` that is removed on drop.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(parent: &Path, label: &str) -> std::io::Result<TempDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        // ordering: a unique-name ticket, publishes nothing.
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = parent
            .join("tmp")
            .join(format!("{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn lineitem_schema() -> TableSchema {
    let cols: Vec<(&str, DType)> = LINEITEM_COLUMNS.iter().map(|c| (*c, DType::U64)).collect();
    TableSchema::new(&cols)
}

/// The 4096 part ids: sparse 40-bit keys, so a segment of Zipf-drawn
/// keys is cheaper as dictionary codes than as null-suppressed values
/// and the chooser picks DICT for `partkey`.
fn part_ids(seed: u64) -> Vec<u64> {
    sorted_unique(PART_ROWS, 1 << 36, 1 << 25, seed ^ 0x9A27)
}

/// `rows` lineitem-like rows starting at day `first_day`, as raw
/// columns in schema order. `rows_per_day` sets the run length of
/// `shipdate`.
fn lineitem_columns(
    rows: usize,
    rows_per_day: usize,
    first_day: u64,
    ids: &[u64],
    seed: u64,
) -> Vec<Vec<u64>> {
    // The generator draws each day's row count around `rows_per_day`;
    // ask for enough days to cover `rows` even if every draw is low,
    // then cut to exactly `rows` so the table shape never varies.
    let days = rows / (rows_per_day / 2 + 1) + 1;
    let mut t = lineitem_like(days, rows_per_day, seed);
    assert!(t.len() >= rows, "generator came up short");
    for col in [
        &mut t.shipdate,
        &mut t.quantity,
        &mut t.discount,
        &mut t.extendedprice,
    ] {
        col.truncate(rows);
    }
    for d in &mut t.shipdate {
        *d = *d - FIRST_DAY + first_day;
    }
    let partkey = zipf_codes(rows, ids.len(), 1.1, seed ^ 0x21)
        .into_iter()
        .map(|code| ids[code as usize])
        .collect();
    let noise = uniform(rows, NOISE_BOUND, seed ^ 0x40);
    vec![
        t.shipdate,
        t.quantity,
        t.discount,
        t.extendedprice,
        partkey,
        noise,
    ]
}

fn as_columns(raw: Vec<Vec<u64>>) -> Vec<ColumnData> {
    raw.into_iter().map(ColumnData::U64).collect()
}

/// Seconds each set-up phase took, for the per-phase report.
#[derive(Debug, Clone, Copy, Default)]
pub struct FixtureTimes {
    pub generate_s: f64,
    pub build_s: f64,
    pub save_s: f64,
}

/// The generated store: table directories on disk for `lcdc serve`,
/// and a resident copy the harness verifies answers against.
pub struct Fixture {
    /// Holds `lineitem.shard{0..3}/` and `part/`; this is the catalog
    /// root handed to `lcdc serve`.
    pub dir: TempDir,
    /// The unsharded resident copy — the oracle's table.
    pub lineitem: Table,
    pub part: Arc<Table>,
    pub last_day: u64,
    pub ids: Vec<u64>,
    pub times: FixtureTimes,
    /// Raw bytes of every generated column.
    pub user_bytes: u64,
    /// Bytes of every file under `dir`.
    pub stored_bytes: u64,
}

impl Fixture {
    /// Generate, compress (`CompressionPolicy::Auto`), shard by row
    /// range — `shipdate` ascends, so the shards' key ranges ascend —
    /// and save.
    pub fn build(seed: u64, out: &Path) -> Result<Fixture, StoreError> {
        let started = Instant::now();
        let ids = part_ids(seed);
        // ~2/3 of a segment per day: runs straddle segment boundaries.
        let raw = lineitem_columns(LINEITEM_ROWS, 2730, FIRST_DAY, &ids, seed);
        let last_day = *raw[0].last().expect("rows > 0");
        let brand = uniform(PART_ROWS, BRANDS, seed ^ 0xB4);
        let user_bytes = 8 * (raw.len() * LINEITEM_ROWS + 2 * PART_ROWS) as u64;
        let generate_s = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let auto = |n| vec![CompressionPolicy::Auto; n];
        let lineitem = Table::build(lineitem_schema(), &as_columns(raw), &auto(6), SEG_ROWS)?;
        let part = Table::build(
            TableSchema::new(&[("partkey", DType::U64), ("brand", DType::U64)]),
            &[ColumnData::U64(ids.clone()), ColumnData::U64(brand)],
            &auto(2),
            SEG_ROWS,
        )?;
        let build_s = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let dir = TempDir::new(out, "data")?;
        for (i, shard) in shard_table(&lineitem, SHARDS)?.iter().enumerate() {
            save_table(shard, &dir.path().join(format!("{LINEITEM}.shard{i}")))?;
        }
        save_table(&part, &dir.path().join(PART))?;
        let stored_bytes = dir_bytes(dir.path())?;
        let save_s = started.elapsed().as_secs_f64();

        Ok(Fixture {
            dir,
            lineitem,
            part: Arc::new(part),
            last_day,
            ids,
            times: FixtureTimes {
                generate_s,
                build_s,
                save_s,
            },
            user_bytes,
            stored_bytes,
        })
    }

    /// Values `Table::build` encoded, for the encode-side throughput.
    pub fn values_built(&self) -> usize {
        6 * LINEITEM_ROWS + 2 * PART_ROWS
    }

    pub fn shard_dirs(&self) -> Vec<PathBuf> {
        (0..SHARDS)
            .map(|i| self.dir.path().join(format!("{LINEITEM}.shard{i}")))
            .collect()
    }

    /// Ingest batch `k`: one segment of rows for the day after the
    /// last one already stored, so batches append in key order.
    pub fn ingest_batch(&self, seed: u64, k: usize) -> Vec<ColumnData> {
        let day = self.last_day + 1 + k as u64;
        let batch_seed = seed ^ (0x1A6E_5700 + k as u64);
        // A day twice the batch size: the generator's one day covers
        // the whole batch, so `shipdate` is the constant `day`.
        as_columns(lineitem_columns(
            BATCH_ROWS,
            2 * BATCH_ROWS,
            day,
            &self.ids,
            batch_seed,
        ))
    }
}

fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// The six paper column families of the `codec` workload, `n` values
/// each, in [`crate::registry::FAMILIES`] order.
pub fn codec_families(seed: u64, n: usize) -> Vec<ColumnData> {
    let cut = |mut v: Vec<u64>| {
        assert!(v.len() >= n, "generator came up short");
        v.truncate(n);
        ColumnData::U64(v)
    };
    let skew_ids = sorted_unique(1024, 1 << 36, 1 << 25, seed ^ 6);
    vec![
        // rle_delta: shipped dates — long runs of a +1 sequence.
        cut(shipped_order_dates(n / 32 + 1, 64, 20_180_101, seed ^ 1)),
        // for_ns: locally tight around a per-128 level.
        cut(step_column(n, 128, 1 << 40, 1 << 9, seed ^ 2)),
        // pfor: the same with 0.5% arbitrary outliers.
        cut(locally_varying_with_outliers(
            n,
            128,
            1 << 20,
            16,
            0.005,
            1 << 44,
            seed ^ 3,
        )),
        // varwidth: mostly 4-bit values, a wide tenth at the end.
        cut(uniform(n, 16, seed ^ 4)
            .into_iter()
            .enumerate()
            .map(|(i, v)| {
                if i >= n - n / 10 {
                    (v << 40) | (i as u64 & 0xFFFF)
                } else {
                    v
                }
            })
            .collect()),
        // linear: a sawtooth trend with small noise.
        cut(lcdc::datagen::sawtooth_trend(
            n,
            4096,
            37,
            1 << 20,
            64,
            seed ^ 5,
        )),
        // dict: Zipf over 1024 sparse wide keys.
        cut(zipf_codes(n, skew_ids.len(), 1.1, seed ^ 7)
            .into_iter()
            .map(|code| skew_ids[code as usize])
            .collect()),
    ]
}
