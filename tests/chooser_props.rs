//! The chooser against the exhaustive loop it replaces.
//!
//! 1. Floor soundness: on every input, a candidate's floor is at most
//!    the size `compress` produces, and a `None` floor means `compress`
//!    refuses the column (`NotRepresentable`). The block-packed floors
//!    are exact, since the layout pays no padding (except `varwidth_zz`
//!    on a `u64` block holding values on both sides of 2^63).
//! 2. Equivalence: branch and bound picks what compressing every
//!    candidate and keeping the smallest (ties to the earlier entry)
//!    picks — same expression, same size, byte-identical frame.
//! 3. A golden digest (XXH64) of every segment's expression and frame
//!    on a seeded lineitem-shaped table and the six codec families.
//! 4. A pruning ledger: how many candidates that fixture compresses.
//! 5. Summaries: every candidate's segment carries its rows' exact sum,
//!    min and max.

use lcdc::core::chooser::{self, Size};
use lcdc::core::{bytes, parse_scheme, ColumnData, ColumnStats, CoreError, Scheme, SharedDict};
use lcdc::datagen::runs::runs_over_domain;
use lcdc::datagen::steps::bounded_walk;
use lcdc::datagen::tpch_like::lineitem_like;
use lcdc::datagen::{
    default_heavy, locally_varying_with_outliers, noisy_linear, sawtooth_trend,
    shipped_order_dates, sorted_unique, step_column, uniform, zipf_codes,
};
use lcdc::store::agg::{aggregate_plain, aggregate_segment};
use lcdc::store::{CompressionPolicy, Segment, SegmentMeta, StoreError, Table, TableSchema};
use proptest::prelude::*;
use std::sync::Arc;

/// The repository's XXH64, for the golden digest.
#[allow(dead_code)]
#[path = "../crates/store/src/digest.rs"]
mod digest;

/// Expressions outside the default set whose floors compose through
/// part shapes the defaults do not exercise: checked for soundness only.
const EXTRA: &[&str] = &[
    "ns_zz",
    "varwidth_zz",
    "delta[deltas=ns]",
    "step(l=128)",
    "for(l=64)[offsets=ns]",
    "for(l=128,first=1)[offsets=ns]",
    "for(l=128)[offsets=pfor(l=128,keep=990)]",
    "for(l=128)[offsets=for(l=128,first=1)[offsets=ns_zz]]",
    "pfor(l=64,keep=900)",
    "pstep(l=64)",
    "rle[values=dict[codes=ns],lengths=ns]",
    "rle[values=rle[values=ns,lengths=ns],lengths=delta[deltas=ns_zz]]",
    "dict[codes=rle[values=ns,lengths=ns]]",
    "dict[codes=ns,dict=delta[deltas=ns_zz]]",
    "rpe[values=id,positions=delta[deltas=ns_zz]]",
    "vstep(w=4)[offsets=ns,positions=ns,refs=delta[deltas=ns_zz]]",
    "vstep(w=64)[offsets=ns]",
    "linear(l=64)[residuals=ns]",
    "linear(l=128)[residuals=varwidth]",
    "poly2(l=128)[residuals=ns,c0=ns_zz]",
    "dfor(l=128)[deltas=varwidth_zz]",
    "sparse[exc_positions=ns,exc_values=ns]",
];

/// Candidates whose floor is their compressed size: every block-packed
/// block costs its own bits, rounded to whole words, and nothing more.
const EXACT_FLOORS: &[&str] = &["varwidth", "varwidth_zz"];

/// Whether `text`'s floor must equal its size on `col`. The `varwidth_zz`
/// floor reads a block's width off its numeric min and max, which on a
/// `u64` block holding values on both sides of 2^63 are not the signed
/// extremes zigzag sees: there it is a bound only.
fn floor_is_exact(text: &str, col: &ColumnData) -> bool {
    let straddles = |block: &[u64]| {
        let signs = block.iter().map(|&v| v >> 63);
        signs.clone().min() != signs.max()
    };
    match (text, col) {
        ("varwidth_zz", ColumnData::U64(v)) => !v.chunks(128).any(straddles),
        _ => EXACT_FLOORS.contains(&text),
    }
}

fn parsed(texts: &[&str]) -> Vec<(String, Box<dyn Scheme>)> {
    texts
        .iter()
        .map(|t| (t.to_string(), parse_scheme(t).expect("candidate parses")))
        .collect()
}

/// Check (1) for every candidate and (2) for the default set on `col`.
fn check(
    col: &ColumnData,
    defaults: &[(String, Box<dyn Scheme>)],
    extra: &[(String, Box<dyn Scheme>)],
) {
    let stats = ColumnStats::collect(col);
    let what = || format!("{:?} x {}", col.dtype(), col.len());
    let mut best: Option<(usize, &str, Vec<u8>)> = None;
    for (index, (text, scheme)) in defaults.iter().chain(extra).enumerate() {
        let floor = scheme.floor(&stats);
        match (floor, scheme.compress(col)) {
            (Some(f), Ok(c)) => {
                let bytes = c.compressed_bytes();
                assert!(f <= bytes, "{text} on {}: floor {f} > {bytes}", what());
                if floor_is_exact(text, col) {
                    assert_eq!(f, bytes, "{text} on {}: floor is not exact", what());
                }
                let wins = best.as_ref().is_none_or(|b| bytes < b.0);
                if index < defaults.len() && wins {
                    best = Some((bytes, text, bytes::to_bytes(&c)));
                }
            }
            (None, Err(CoreError::NotRepresentable(_)))
            | (Some(_), Err(CoreError::NotRepresentable(_))) => {}
            (None, Ok(_)) => panic!("{text} on {}: floor None but compress succeeded", what()),
            (_, Err(e)) => panic!("{text} on {}: {e}", what()),
        }
    }
    let (bytes, expr, frame) = best.expect("id always succeeds");
    let choice = chooser::choose_best(col).expect("chooser runs");
    assert_eq!(
        (choice.expr.as_str(), choice.bytes),
        (expr, bytes),
        "chooser differs from exhaustive on {}",
        what()
    );
    assert!(
        bytes::to_bytes(&choice.compressed) == frame,
        "frames differ on {}",
        what()
    );
    assert_eq!(choice.ranking.len(), defaults.len());
}

fn exact_entries(choice: &chooser::Choice) -> usize {
    choice
        .ranking
        .iter()
        .filter(|(_, s)| matches!(s, Size::Exact(_)))
        .count()
}

/// The shape of every element type: `u32` and `i32` truncate, `i64`
/// reinterprets (wide values turn negative).
fn typed(values: &[u64]) -> [ColumnData; 4] {
    [
        ColumnData::U32(values.iter().map(|&v| v as u32).collect()),
        ColumnData::U64(values.to_vec()),
        ColumnData::I32(values.iter().map(|&v| v as i32).collect()),
        ColumnData::I64(values.iter().map(|&v| v as i64).collect()),
    ]
}

/// The six codec families of the benchmark, `n` values each.
fn codec_families(seed: u64, n: usize) -> Vec<Vec<u64>> {
    let cut = |mut v: Vec<u64>| {
        v.truncate(n);
        v
    };
    let skew_ids = sorted_unique(1024, 1 << 36, 1 << 25, seed ^ 6);
    vec![
        cut(shipped_order_dates(n / 32 + 1, 64, 20_180_101, seed ^ 1)),
        cut(step_column(n, 128, 1 << 40, 1 << 9, seed ^ 2)),
        cut(locally_varying_with_outliers(
            n,
            128,
            1 << 20,
            16,
            0.005,
            1 << 44,
            seed ^ 3,
        )),
        uniform(n, 16, seed ^ 4)
            .into_iter()
            .enumerate()
            .map(|(i, v)| {
                if i >= n - n / 10 {
                    (v << 40) | (i as u64 & 0xFFFF)
                } else {
                    v
                }
            })
            .collect(),
        cut(sawtooth_trend(n, 4096, 37, 1 << 20, 64, seed ^ 5)),
        zipf_codes(n, skew_ids.len(), 1.1, seed ^ 7)
            .into_iter()
            .map(|code| skew_ids[code as usize])
            .collect(),
    ]
}

/// The benchmark's lineitem columns, `rows` of each, at
/// `rows_per_day` rows per ship date.
fn lineitem(rows: usize, rows_per_day: usize, seed: u64) -> Vec<Vec<u64>> {
    let ids = sorted_unique(4096, 1 << 36, 1 << 25, seed ^ 0x9A27);
    let t = lineitem_like(rows / (rows_per_day / 2 + 1) + 1, rows_per_day, seed);
    let mut cols = vec![t.shipdate, t.quantity, t.discount, t.extendedprice];
    for col in &mut cols {
        col.truncate(rows);
    }
    cols.push(
        zipf_codes(rows, ids.len(), 1.1, seed ^ 0x21)
            .into_iter()
            .map(|code| ids[code as usize])
            .collect(),
    );
    cols.push(uniform(rows, 1 << 40, seed ^ 0x40));
    cols
}

/// Every distribution of the matrix at length `n`.
fn distributions(n: usize, seed: u64) -> Vec<Vec<u64>> {
    let extremes = [
        0,
        u64::MAX,
        i64::MAX as u64,
        i64::MIN as u64,
        u32::MAX as u64,
        i32::MIN as u32 as u64,
        i32::MAX as u64,
        1,
    ];
    let mut out = codec_families(seed, n);
    out.extend(lineitem(n, 100, seed));
    out.extend([
        sorted_unique(n, 1_000, 9, seed),
        zipf_codes(n, 64, 1.1, seed),
        uniform(n, 16, seed),
        uniform(n, u64::MAX, seed),
        step_column(n, 128, 1 << 30, 64, seed),
        runs_over_domain(n, 8, 100, seed),
        noisy_linear(n, 1 << 20, 7, 5, seed),
        (0..n as u64).map(|i| i * i).collect(),
        vec![0xDEAD_BEEF; n],
        default_heavy(n, 7, 0.02, 1 << 20, seed),
        (0..n).map(|i| extremes[i % extremes.len()]).collect(),
        // Negatives: a walk around zero, read as signed.
        bounded_walk(n, 500, 40, seed)
            .into_iter()
            .map(|v| (v as i64 - 600) as u64)
            .collect(),
    ]);
    for d in &mut out {
        d.resize(n, 0);
    }
    out
}

/// Check every distribution at each length in every type — or, with
/// `rotate`, distribution `i` in type `i % 4` only (the long columns,
/// where the whole matrix would take minutes unoptimised).
fn check_lengths(lengths: &[usize], rotate: bool) {
    let defaults = parsed(&chooser::default_candidates());
    let extra = parsed(EXTRA);
    for &n in lengths {
        for (i, values) in distributions(n, 11).iter().enumerate() {
            for (t, col) in typed(values).iter().enumerate() {
                if !rotate || t == i % 4 {
                    check(col, &defaults, &extra);
                }
            }
        }
    }
}

#[test]
fn floors_are_sound_and_choice_is_exhaustive_short() {
    check_lengths(&[0, 1, 2, 127, 128, 129], false);
}

#[test]
fn floors_are_sound_and_choice_is_exhaustive_segment() {
    check_lengths(&[4096], false);
}

#[test]
fn floors_are_sound_and_choice_is_exhaustive_long() {
    check_lengths(&[1 << 16], true);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn floors_are_sound_on_random_columns(
        values in prop::collection::vec(any::<u64>(), 0..700),
        width in 0u32..65,
        repeat in 1usize..6,
        sorted in any::<bool>(),
    ) {
        let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        let mut shaped: Vec<u64> = values
            .iter()
            .flat_map(|&v| std::iter::repeat_n(v & mask, repeat))
            .collect();
        if sorted {
            shaped.sort_unstable();
        }
        let defaults = parsed(&chooser::default_candidates());
        let extra = parsed(EXTRA);
        for col in typed(&shaped) {
            check(&col, &defaults, &extra);
        }
    }
}

/// A segment built under any default candidate (or the chooser) has
/// the exact summary of its rows: `SegmentMeta::of` carries the sum,
/// min and max of `aggregate_plain` over the rows, of an independent
/// `i128` fold, and of the streamed fold over the frame — on every
/// distribution in every type, and on a segment of `u64::MAX` and one
/// of `i64::MIN`, whose sums only an `i128` holds.
#[test]
fn every_candidate_summary_is_exact() {
    let mut columns = vec![
        ColumnData::U64(vec![u64::MAX; 4096]),
        ColumnData::I64(vec![i64::MIN; 4096]),
    ];
    for n in [0, 1, 129, 4096] {
        for values in distributions(n, 11) {
            columns.extend(typed(&values));
        }
    }
    let policies: Vec<CompressionPolicy> = chooser::default_candidates()
        .into_iter()
        .map(|text| CompressionPolicy::Fixed(text.into()))
        .chain([CompressionPolicy::Auto])
        .collect();
    for col in &columns {
        let values = col.to_numeric();
        let oracle = (
            Some(values.iter().sum::<i128>()),
            values
                .iter()
                .copied()
                .min()
                .zip(values.iter().copied().max()),
        );
        let plain = aggregate_plain(col);
        for policy in &policies {
            let what = || format!("{policy:?} on {:?} x {}", col.dtype(), col.len());
            let seg = match Segment::build(col, policy) {
                Ok(seg) => seg,
                Err(StoreError::Core(CoreError::NotRepresentable(_))) => continue,
                Err(e) => panic!("{}: {e}", what()),
            };
            let meta = SegmentMeta::of(&seg);
            let summary = (meta.sum, (meta.rows > 0).then_some((meta.min, meta.max)));
            let folded = (Some(plain.sum), plain.min.zip(plain.max));
            assert_eq!(summary, folded, "{}", what());
            assert_eq!(summary, oracle, "{}", what());
            let streamed = aggregate_segment(&seg, None).expect("folds");
            assert_eq!(streamed, plain, "{}", what());
        }
    }
}

#[test]
fn every_default_floor_is_informative() {
    // No default candidate but `id` relies on the trait's `Some(0)`:
    // each bounds a non-empty column above zero, or refuses it.
    let stats = ColumnStats::collect(&ColumnData::U64((0..1000u64).map(|i| i % 7).collect()));
    for (text, scheme) in parsed(&chooser::default_candidates()) {
        let floor = scheme.floor(&stats);
        assert!(floor != Some(0), "{text} has floor 0 on 1000 rows");
    }
}

const LINEITEM: [&str; 6] = [
    "shipdate", "quantity", "discount", "price", "partkey", "noise",
];

/// The fixture of (3) and (4): a lineitem-shaped table of 6 columns x
/// 64 segments x 4096 rows, and the six codec families at 2^16.
fn fixture() -> (Table, Vec<ColumnData>) {
    let cols: Vec<ColumnData> = lineitem(64 * 4096, 2730, 23)
        .into_iter()
        .map(ColumnData::U64)
        .collect();
    let schema = TableSchema::new(&LINEITEM.map(|n| (n, lcdc::core::DType::U64)));
    let table =
        Table::build(schema, &cols, &vec![CompressionPolicy::Auto; 6], 4096).expect("table builds");
    let families = codec_families(23, 1 << 16)
        .into_iter()
        .map(ColumnData::U64)
        .collect();
    (table, families)
}

/// XXH64s of the chooser's pick for every segment's rows — expression
/// and frame, in column order — and for every family: `(bytes, shape)`,
/// the first over each frame itself, the second over its length only.
/// The picks are taken per 4096-row chunk, as `Table::build` takes them
/// before its columns share their DICT picks' dictionaries.
fn golden_digests(table: &Table, families: &[ColumnData]) -> (u64, u64) {
    let (mut stream, mut shape) = (Vec::new(), Vec::new());
    let mut push = |expr: &str, frame: Vec<u8>| {
        for s in [&mut stream, &mut shape] {
            s.extend_from_slice(&(expr.len() as u64).to_le_bytes());
            s.extend_from_slice(expr.as_bytes());
            s.extend_from_slice(&(frame.len() as u64).to_le_bytes());
        }
        stream.extend_from_slice(&frame);
    };
    for name in LINEITEM {
        let col = table
            .materialize(name)
            .expect("column exists")
            .to_transport();
        for rows in col.chunks(4096) {
            let choice =
                chooser::choose_best(&ColumnData::U64(rows.to_vec())).expect("chooser runs");
            push(&choice.expr, bytes::to_bytes(&choice.compressed));
        }
    }
    for col in families {
        let choice = chooser::choose_best(col).expect("chooser runs");
        push(&choice.expr, bytes::to_bytes(&choice.compressed));
    }
    (digest::xxh64(&stream, 0), digest::xxh64(&shape, 0))
}

/// XXH64 of what `Table::build` stores for [`fixture`]: every segment's
/// expression and frame, in column order, each shared dictionary's
/// entries where its first segment references it. Pins the sharing
/// decision and the re-encoded `dict[dict=shared,codes=ns]` frames,
/// which [`golden_digests`]' per-chunk picks precede.
fn table_digest(table: &Table) -> u64 {
    let mut stream = Vec::new();
    let mut seen: Vec<Arc<SharedDict>> = Vec::new();
    for name in LINEITEM {
        for seg in table.column_segments(name).expect("column exists") {
            let frame = bytes::to_bytes(&seg.compressed);
            stream.extend_from_slice(&(seg.expr.len() as u64).to_le_bytes());
            stream.extend_from_slice(seg.expr.as_bytes());
            stream.extend_from_slice(&(frame.len() as u64).to_le_bytes());
            stream.extend_from_slice(&frame);
            if let Some(dict) = seg.compressed.shared_dict() {
                if !seen.iter().any(|d| Arc::ptr_eq(d, dict)) {
                    seen.push(Arc::clone(dict));
                    for entry in dict.values().to_transport() {
                        stream.extend_from_slice(&entry.to_le_bytes());
                    }
                }
            }
        }
    }
    digest::xxh64(&stream, 0)
}

/// The digest of [`fixture`]'s stored segments ([`table_digest`]).
const GOLDEN_TABLE: u64 = 0x1747_6c1c_264f_2c0d;

/// The digest the exhaustive chooser produced on [`fixture`].
const GOLDEN: u64 = 0xb5c4_2ae2_7163_7a06;

/// The digest of the picks and frame sizes alone: a change to the
/// packing layout moves [`GOLDEN`] but must leave this one alone.
const GOLDEN_SHAPE: u64 = 0x5a4b_101a_8850_e8cf;

/// Default candidates the chooser compresses on [`fixture`]'s 384
/// segments and 6 families.
const COMPRESSED: usize = 458;

#[test]
fn golden_digest_and_pruning_ledger() {
    let (table, families) = fixture();
    let (bytes, shape) = golden_digests(&table, &families);
    assert_eq!(shape, GOLDEN_SHAPE, "same picks and frame sizes");
    assert_eq!(bytes, GOLDEN, "same bytes out as the exhaustive chooser");
    assert_eq!(
        table_digest(&table),
        GOLDEN_TABLE,
        "same segments and shared dictionaries stored"
    );
    let mut compressed = 0;
    let mut choices = 0;
    for name in LINEITEM {
        let col = match table.materialize(name).expect("column exists") {
            ColumnData::U64(v) => v,
            other => panic!("unexpected {:?}", other.dtype()),
        };
        for rows in col.chunks(4096) {
            compressed +=
                exact_entries(&chooser::choose_best(&ColumnData::U64(rows.to_vec())).unwrap());
            choices += 1;
        }
    }
    for col in &families {
        compressed += exact_entries(&chooser::choose_best(col).unwrap());
        choices += 1;
    }
    assert_eq!(choices, 6 * 64 + 6);
    assert_eq!(
        compressed, COMPRESSED,
        "candidates compressed on the fixture"
    );
    assert!(compressed as f64 / choices as f64 <= 6.0);
}
