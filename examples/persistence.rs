//! Persistence: write a compressed table to disk, read a single segment
//! back without touching the rest, survive a reload, detect rot.
//!
//! ```text
//! cargo run --release --example persistence
//! ```
//!
//! The paper's columnar view keeps this layer thin: a segment's wire
//! form *is* its storage form, so the file format is just framing +
//! zone-map metadata + checksums — and zone-map pruning extends down to
//! the I/O layer (a pruned segment's frame is never read).

use lcdc::core::{ColumnData, DType};
use lcdc::store::segment::CompressionPolicy;
use lcdc::store::table::Table;
use lcdc::store::{
    load_table, open_table_lazy, read_segment, save_table, Agg, Predicate, QueryBuilder,
    TableSchema,
};

fn main() {
    // Build a two-column orders table.
    let n = 200_000;
    let date = ColumnData::U64((0..n as u64).map(|i| 20_180_101 + i / 400).collect());
    let price = ColumnData::U64(lcdc::datagen::step_column(n, 128, 1 << 30, 500, 3));
    let schema = TableSchema::new(&[("date", DType::U64), ("price", DType::U64)]);
    let table = Table::build(
        schema,
        &[date, price],
        &[CompressionPolicy::Auto, CompressionPolicy::Auto],
        16_384,
    )
    .expect("table builds");

    let dir = std::env::temp_dir().join("lcdc_persistence_demo");
    let _ = std::fs::remove_dir_all(&dir);
    save_table(&table, &dir).expect("saves");
    let on_disk: u64 = std::fs::read_dir(&dir)
        .expect("readable")
        .map(|e| e.expect("entry").metadata().expect("meta").len())
        .sum();
    println!(
        "saved {} rows: {} plain bytes -> {} on disk ({:.1}x)\n  at {}",
        table.num_rows(),
        table.uncompressed_bytes(),
        on_disk,
        table.uncompressed_bytes() as f64 / on_disk as f64,
        dir.display()
    );

    // Segment-granular read: one frame, not the whole column.
    let seg = read_segment(&dir, "price", 3).expect("reads");
    println!(
        "segment 3 of 'price': {} rows as {} ({} bytes, zone [{}, {}])",
        seg.num_rows(),
        seg.expr,
        seg.compressed_bytes(),
        seg.min,
        seg.max
    );

    // Reload and run the same query; answers must agree.
    let loaded = load_table(&dir).expect("loads");
    let query = |t| {
        QueryBuilder::scan(t)
            .filter(
                "date",
                Predicate::Range {
                    lo: 20_180_120,
                    hi: 20_180_180,
                },
            )
            .aggregate(&[Agg::Sum("price"), Agg::Count])
            .execute()
            .expect("queries")
    };
    let before = query(&table);
    let after = query(&loaded);
    assert_eq!(before.rows, after.rows);
    let (sum, count) = match after.aggregates() {
        Some(&[Some(sum), Some(count)]) => (sum, count),
        other => panic!("unexpected aggregate row {other:?}"),
    };
    println!("query over the reloaded table agrees: SUM = {sum} over {count} rows ✓");

    // Lazy open: only the manifest is read now; the planner prunes on
    // manifest zone maps, so the narrow query below fetches a handful
    // of frames instead of the whole table.
    let lazy = open_table_lazy(&dir, 16).expect("opens");
    assert_eq!(lazy.io_reads(), 0);
    let narrow = QueryBuilder::scan(&lazy)
        .filter(
            "date",
            Predicate::Range {
                lo: 20_180_120,
                hi: 20_180_124,
            },
        )
        .aggregate(&[Agg::Sum("price")])
        .execute()
        .expect("queries");
    let total_frames = lazy.num_segments() * lazy.schema().width();
    println!(
        "lazy scan read {} of {total_frames} frames from disk ({} of {} segment visits pruned) ✓",
        lazy.io_reads(),
        narrow.stats.segments_pruned,
        narrow.stats.segments,
    );
    assert!(lazy.io_reads() < total_frames);

    // Flip one bit in a column file: the checksum catches it.
    let col_file = dir.join("price.col");
    let mut bytes = std::fs::read(&col_file).expect("readable");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&col_file, bytes).expect("writable");
    match load_table(&dir) {
        Err(e) => println!("single flipped bit detected on reload: {e} ✓"),
        Ok(_) => panic!("corruption went unnoticed"),
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
