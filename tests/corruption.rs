//! Single-bit-flip sweep over every trust boundary, through the public
//! API only: a saved table's segment records and manifest, and wire
//! frames. Since table format v3 a checksum covers every stored and
//! transmitted byte, so each flipped bit must surface as a typed error —
//! never a panic, never an `Ok` (and so never an answer that differs
//! from the oracle).

use lcdc::core::{ColumnData, CoreError, DType};
use lcdc::store::{
    load_table, open_table_lazy, save_table, CompressionPolicy, QueryStats, Request, Response,
    Rows, StoreError, Table, TableSchema,
};
use std::fs;
use std::path::{Path, PathBuf};

const SEG_ROWS: usize = 128;

struct Col {
    name: &'static str,
    dtype: DType,
    policy: &'static str,
    value: fn(usize) -> i64,
}

/// One column per scheme family the tiers special-case, each a
/// different dtype.
const COLUMNS: [Col; 4] = [
    Col {
        name: "runs",
        dtype: DType::U64,
        policy: "rle[values=ns,lengths=ns]",
        value: |i| 20_180_101 + (i / 24) as i64,
    },
    Col {
        name: "codes",
        dtype: DType::I64,
        policy: "dict[codes=ns]",
        value: |i| [-7, 1 << 40, 3, 99_999][i * 7 % 4],
    },
    Col {
        name: "offsets",
        dtype: DType::U32,
        policy: "for(l=128)[offsets=ns]",
        value: |i| 1_000_000 + (i as i64 * 37) % 500,
    },
    Col {
        name: "plain",
        dtype: DType::I32,
        policy: "ns",
        value: |i| (i as i64 * 13) % 1000,
    },
];

fn column(c: &Col, rows: usize) -> ColumnData {
    let values = (0..rows).map(c.value);
    match c.dtype {
        DType::U32 => ColumnData::U32(values.map(|v| v as u32).collect()),
        DType::U64 => ColumnData::U64(values.map(|v| v as u64).collect()),
        DType::I32 => ColumnData::I32(values.map(|v| v as i32).collect()),
        DType::I64 => ColumnData::I64(values.collect()),
    }
}

fn table(rows: usize) -> Table {
    let schema: Vec<(&str, DType)> = COLUMNS.iter().map(|c| (c.name, c.dtype)).collect();
    let data: Vec<ColumnData> = COLUMNS.iter().map(|c| column(c, rows)).collect();
    let policies: Vec<CompressionPolicy> = COLUMNS
        .iter()
        .map(|c| CompressionPolicy::Fixed(c.policy.to_string()))
        .collect();
    Table::build(TableSchema::new(&schema), &data, &policies, SEG_ROWS).unwrap()
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lcdc_corruption_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn column_file(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.col"))
}

/// The error kinds a corrupt input may surface as.
fn typed(e: &StoreError) -> bool {
    matches!(
        e,
        StoreError::CorruptFile(_)
            | StoreError::Core(CoreError::CorruptParts(_) | CoreError::SchemeMismatch { .. })
    )
}

/// Every column of `t`, fully decoded: the full scan.
fn scan(t: &Table) -> Result<Vec<ColumnData>, StoreError> {
    COLUMNS.iter().map(|c| t.materialize(c.name)).collect()
}

/// Flip each bit of `path` in `range` in turn; both open paths, then
/// `scan` of what they opened, must reject every flip with a typed
/// error.
fn sweep<T>(
    dir: &Path,
    path: &Path,
    range: std::ops::Range<usize>,
    what: &str,
    scan: impl Fn(&Table) -> Result<T, StoreError>,
) {
    let clean = fs::read(path).unwrap();
    for byte in range {
        for bit in 0..8 {
            let mut flipped = clean.clone();
            flipped[byte] ^= 1 << bit;
            fs::write(path, &flipped).unwrap();
            let eager = load_table(dir).and_then(|t| scan(&t));
            let lazy = open_table_lazy(dir, 4).and_then(|t| scan(&t));
            for (open, outcome) in [("load_table", eager), ("open_table_lazy", lazy)] {
                match outcome {
                    Err(e) => assert!(typed(&e), "{what} byte {byte} bit {bit}, {open}: {e:?}"),
                    Ok(_) => panic!("{what} byte {byte} bit {bit}, {open}: flip accepted"),
                }
            }
        }
    }
    fs::write(path, &clean).unwrap();
}

#[test]
fn every_record_and_manifest_bit_flip_is_a_typed_error() {
    let rows = 3 * SEG_ROWS;
    let full = table(rows);
    let dir = tmpdir("table");
    save_table(&full, &dir).unwrap();
    let loaded = load_table(&dir).unwrap();
    for c in COLUMNS {
        assert_eq!(
            loaded.column_segments(c.name).unwrap()[0].expr,
            c.policy,
            "{} keeps its scheme",
            c.name
        );
    }
    let oracle = scan(&full).unwrap();
    assert_eq!(scan(&loaded).unwrap(), oracle);
    assert_eq!(scan(&open_table_lazy(&dir, 4).unwrap()).unwrap(), oracle);

    // Segment 1's record spans the bytes a one-segment save lacks and a
    // two-segment save has: record boundaries without reading the format.
    let prefix = |segments: usize, tag: &str| {
        let d = tmpdir(tag);
        save_table(&table(segments * SEG_ROWS), &d).unwrap();
        let lens: Vec<usize> = COLUMNS
            .iter()
            .map(|c| fs::metadata(column_file(&d, c.name)).unwrap().len() as usize)
            .collect();
        fs::remove_dir_all(&d).unwrap();
        lens
    };
    let (one, two) = (prefix(1, "one"), prefix(2, "two"));
    for (c, (start, end)) in COLUMNS.iter().zip(one.into_iter().zip(two)) {
        sweep(&dir, &column_file(&dir, c.name), start..end, c.name, scan);
    }
    let manifest = dir.join("MANIFEST.lcdc");
    let len = fs::metadata(&manifest).unwrap().len() as usize;
    sweep(&dir, &manifest, 0..len, "manifest", scan);

    // The sweep restored every file: the table answers as before.
    assert_eq!(scan(&load_table(&dir).unwrap()).unwrap(), oracle);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_shared_dictionary_bit_flip_is_a_typed_error() {
    // Eight sparse keys over three segments: the chooser picks DICT on
    // each, and the column shares one dictionary of eight entries.
    let keys = |i: usize| (1u64 << 40) + (i as u64 * 5 % 8) * 1_000_003;
    let schema = TableSchema::new(&[("key", DType::U64), ("val", DType::U32)]);
    let data = [
        ColumnData::U64((0..3 * SEG_ROWS).map(keys).collect()),
        ColumnData::U32((0..3 * SEG_ROWS as u32).collect()),
    ];
    let policies = [CompressionPolicy::Auto, CompressionPolicy::Auto];
    let shared = Table::build(schema, &data, &policies, SEG_ROWS).unwrap();
    let dir = tmpdir("shared");
    save_table(&shared, &dir).unwrap();
    let scan = |t: &Table| -> Result<Vec<ColumnData>, StoreError> {
        ["key", "val"].iter().map(|c| t.materialize(c)).collect()
    };
    let oracle = data.to_vec();
    for opened in [load_table(&dir).unwrap(), open_table_lazy(&dir, 4).unwrap()] {
        let segments = opened.column_segments("key").unwrap();
        assert!(segments
            .iter()
            .all(|s| s.expr == "dict[dict=shared,codes=ns]"));
        assert_eq!(scan(&opened).unwrap(), oracle);
    }
    // The dictionary's record opens the key file (it precedes the first
    // segment referencing it): an entry count, 8 entries, a checksum.
    let key_file = column_file(&dir, "key");
    sweep(&dir, &key_file, 0..8 + 8 * 8 + 8, "dictionary", scan);
    // The manifest holds the dictionary's entry and every segment's
    // reference to it.
    let manifest = dir.join("MANIFEST.lcdc");
    let len = fs::metadata(&manifest).unwrap().len() as usize;
    sweep(&dir, &manifest, 0..len, "manifest", scan);
    assert_eq!(scan(&load_table(&dir).unwrap()).unwrap(), oracle);
    fs::remove_dir_all(&dir).unwrap();
}

/// Flip each bit of one encoded frame; `read` must reject every flip.
fn sweep_frame<T: std::fmt::Debug>(
    wire: &[u8],
    read: impl Fn(&mut &[u8]) -> Result<Option<T>, StoreError>,
    what: &str,
) {
    for byte in 0..wire.len() {
        for bit in 0..8 {
            let mut flipped = wire.to_vec();
            flipped[byte] ^= 1 << bit;
            match read(&mut flipped.as_slice()) {
                Err(e) => assert!(typed(&e), "{what} byte {byte} bit {bit}: {e:?}"),
                Ok(frame) => panic!("{what} byte {byte} bit {bit}: flip accepted as {frame:?}"),
            }
        }
    }
}

#[test]
fn every_wire_frame_bit_flip_is_an_error() {
    let request = Request::Query {
        table: "orders".into(),
        args: vec![
            "--filter".into(),
            "day=1..9".into(),
            "--sum".into(),
            "price".into(),
        ],
        deadline_ms: Some(1500),
    };
    let mut wire = Vec::new();
    request.write_to(&mut wire).unwrap();
    assert_eq!(
        Request::read_from(&mut wire.as_slice()).unwrap(),
        Some(request)
    );
    sweep_frame(&wire, |r| Request::read_from(r), "query frame");

    let response = Response::Rows {
        version: 7,
        rows: Rows::Groups(vec![(i128::MIN, vec![Some(3), None]), (9, vec![Some(-1)])]),
        stats: QueryStats {
            segments: 12,
            ..QueryStats::default()
        },
    };
    let mut wire = Vec::new();
    response.write_to(&mut wire).unwrap();
    assert_eq!(
        Response::read_from(&mut wire.as_slice()).unwrap(),
        Some(response)
    );
    sweep_frame(&wire, |r| Response::read_from(r), "rows frame");
}
