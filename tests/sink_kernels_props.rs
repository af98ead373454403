//! The typed sink kernels' contract, differentially and for every
//! element type: for each sink × key/value dtype in {U32, U64, I32,
//! I64} × {full selection, mask, empty mask} × key scheme {dict, rle,
//! rpe, const, ns, for, id},
//!
//! ```text
//! pushdown rows == execute_naive rows == an independent i128 oracle
//! ```
//!
//! where the oracle is a `BTreeMap` fold over the raw `i128` values —
//! it shares no code with the store. The fixtures carry each type's
//! extremes (`i64::MIN`, `u64::MAX`), a whole segment of the maximum
//! (the sum must be exact in `i128`), negative keys through the
//! distinct bitmap, and spans just inside and just outside the bitmap
//! bound. A second part hand-builds frames no compressor would emit —
//! a DICT code past its dictionary, a zone map that lies — and checks
//! the code-space tiers answer with a typed error or the right rows,
//! never a panic.

use lcdc::core::scheme::Params;
use lcdc::core::schemes::dict;
use lcdc::core::{ColumnData, Compressed, CoreError, DType, Part, PartData};
use lcdc::store::{
    Agg, CompressionPolicy, ExecOptions, Predicate, QueryBuilder, QueryResult, Rows, SchemeKind,
    Segment, StoreError, Table, TableSchema,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

mod mixed_runs;
use mixed_runs::MixedRuns;

const DTYPES: [DType; 4] = [DType::U32, DType::U64, DType::I32, DType::I64];
const SEG_ROWS: usize = 4096;
const ROWS: usize = 3 * SEG_ROWS - 100;

fn bounds(dtype: DType) -> (i128, i128) {
    match dtype {
        DType::U32 => (0, u32::MAX as i128),
        DType::U64 => (0, u64::MAX as i128),
        DType::I32 => (i32::MIN as i128, i32::MAX as i128),
        DType::I64 => (i64::MIN as i128, i64::MAX as i128),
    }
}

/// A tiny deterministic generator (the oracle must not share the
/// store's dependencies either).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

/// Runny keys over a 12-value domain that includes the type's extremes
/// and, for signed types, negatives around zero.
fn keys(dtype: DType, seed: u64) -> Vec<i128> {
    let (lo, hi) = bounds(dtype);
    let mid = if dtype.signed() { -3 } else { 1 << 20 };
    let domain = [
        lo,
        lo + 1,
        hi,
        hi - 1,
        mid,
        mid + 1,
        mid + 2,
        0,
        7,
        8,
        1000,
        65_537,
    ];
    let mut rng = Lcg(seed);
    let mut out = Vec::with_capacity(ROWS);
    while out.len() < ROWS {
        let key = domain[rng.next() as usize % domain.len()];
        let run = 1 + rng.next() as usize % 40;
        out.extend(std::iter::repeat_n(key, run.min(ROWS - out.len())));
    }
    out
}

/// Values: the whole first segment is the type's maximum, the rest is
/// spread over the full range, minimum included.
fn values(dtype: DType, seed: u64) -> Vec<i128> {
    let (lo, hi) = bounds(dtype);
    let mut rng = Lcg(seed ^ 0xABCD);
    (0..ROWS)
        .map(|i| match i {
            _ if i < SEG_ROWS => hi,
            _ if i % 97 == 0 => lo,
            _ => lo + (rng.next() as i128 * 0x1_0001) % (hi - lo + 1),
        })
        .collect()
}

/// The selector column: values in {0, 1, 2, 4, 5, 6}, so `sel <= 2`
/// masks every segment and `sel == 3` empties every segment at the
/// data tier (the zone map cannot decide either).
fn selector() -> Vec<i128> {
    (0..ROWS as i128)
        .map(|i| [0, 1, 2, 4, 5, 6][(i * 7 % 6) as usize])
        .collect()
}

#[derive(Clone, Copy, Debug)]
enum Sel {
    Full,
    Mask,
    Empty,
}

const SELECTIONS: [Sel; 3] = [Sel::Full, Sel::Mask, Sel::Empty];

impl Sel {
    fn keeps(self, sel: i128) -> bool {
        match self {
            Sel::Full => true,
            Sel::Mask => sel <= 2,
            Sel::Empty => sel == 3,
        }
    }

    fn apply<'t>(self, builder: QueryBuilder<'t>) -> QueryBuilder<'t> {
        match self {
            Sel::Full => builder,
            Sel::Mask => builder.filter("sel", Predicate::Range { lo: 0, hi: 2 }),
            Sel::Empty => builder.filter("sel", Predicate::Eq(3)),
        }
    }
}

/// The key schemes under test, spelled for the type's signedness.
/// `const` needs constant data and has its own fixture below.
fn key_schemes(dtype: DType) -> [&'static str; 6] {
    if dtype.signed() {
        [
            "dict[codes=ns]",
            "rle[values=ns_zz,lengths=ns]",
            "rpe[values=id,positions=ns]",
            "ns_zz",
            "for(l=128)[offsets=ns]",
            "id",
        ]
    } else {
        [
            "dict[codes=ns]",
            "rle[values=ns,lengths=ns]",
            "rpe[values=ns,positions=ns]",
            "ns",
            "for(l=128)[offsets=ns]",
            "id",
        ]
    }
}

struct Fixture {
    table: Table,
    key: Vec<i128>,
    val: Vec<i128>,
    sel: Vec<i128>,
}

fn fixture(key: (DType, Vec<i128>, &str), val: (DType, Vec<i128>)) -> Fixture {
    let sel = selector();
    let column =
        |dtype, values: &[i128]| ColumnData::from_numeric(dtype, values).expect("in range");
    let table = Table::build(
        TableSchema::new(&[("key", key.0), ("val", val.0), ("sel", DType::U32)]),
        &[
            column(key.0, &key.1),
            column(val.0, &val.1),
            column(DType::U32, &sel),
        ],
        &[
            CompressionPolicy::Fixed(key.2.into()),
            CompressionPolicy::Auto,
            CompressionPolicy::Fixed("ns".into()),
        ],
        SEG_ROWS,
    )
    .unwrap_or_else(|e| panic!("{:?} key under {}: {e}", key.0, key.2));
    Fixture {
        table,
        key: key.1,
        val: val.1,
        sel,
    }
}

impl Fixture {
    fn selected(&self, sel: Sel) -> impl Iterator<Item = usize> + '_ {
        (0..self.key.len()).filter(move |&i| sel.keeps(self.sel[i]))
    }
}

/// Pushdown and naive must agree with each other and with `want`, and
/// only the naive path may decode a column.
fn check(what: &str, builder: &QueryBuilder<'_>, want: &Rows) -> QueryResult {
    let push = builder
        .execute()
        .unwrap_or_else(|e| panic!("{what}: pushdown: {e}"));
    let naive = builder
        .execute_naive()
        .unwrap_or_else(|e| panic!("{what}: naive: {e}"));
    assert_eq!(&push.rows, want, "{what}: pushdown vs oracle");
    assert_eq!(&naive.rows, want, "{what}: naive vs oracle");
    assert_eq!(naive.stats.rows_undecoded, 0, "{what}: the oracle decodes");
    assert_eq!(
        push.stats.rows_materialized, 0,
        "{what}: pushdown decodes nothing"
    );
    push
}

const AGGS: [Agg<'static>; 4] = [
    Agg::Sum("val"),
    Agg::Min("val"),
    Agg::Max("val"),
    Agg::Count,
];

/// `[sum, min, max, count]` of `values`, in `AGGS` order.
fn agg_row(values: impl Iterator<Item = i128>) -> Vec<Option<i128>> {
    let (mut sum, mut min, mut max, mut count) = (0i128, None, None, 0i128);
    for v in values {
        sum += v;
        min = Some(min.map_or(v, |m: i128| m.min(v)));
        max = Some(max.map_or(v, |m: i128| m.max(v)));
        count += 1;
    }
    vec![Some(sum), min, max, Some(count)]
}

/// A join's right (build) side: the table, its raw keys, its label.
type Right = (Arc<Table>, Vec<i128>, String);

fn check_all_sinks(what: &str, f: &Fixture, rights: &[Right]) {
    for sel in SELECTIONS {
        let what = format!("{what}, {sel:?}");
        let scan = || sel.apply(QueryBuilder::scan(&f.table));

        let want = Rows::Aggregates(agg_row(f.selected(sel).map(|i| f.val[i])));
        check(
            &format!("aggregate: {what}"),
            &scan().aggregate(&AGGS),
            &want,
        );

        let mut groups: BTreeMap<i128, Vec<i128>> = BTreeMap::new();
        for i in f.selected(sel) {
            groups.entry(f.key[i]).or_default().push(f.val[i]);
        }
        let want = Rows::Groups(
            groups
                .iter()
                .map(|(&key, vals)| (key, agg_row(vals.iter().copied())))
                .collect(),
        );
        check(
            &format!("group-by: {what}"),
            &scan().group_by("key").aggregate(&AGGS),
            &want,
        );
        // A SUM-only plan keeps no extrema; a COUNT-only one no values.
        let sums = |pick: fn(&[Option<i128>]) -> Vec<Option<i128>>| match &want {
            Rows::Groups(rows) => {
                Rows::Groups(rows.iter().map(|(key, row)| (*key, pick(row))).collect())
            }
            _ => unreachable!(),
        };
        check(
            &format!("group-by sum: {what}"),
            &scan().group_by("key").aggregate(&[Agg::Sum("val")]),
            &sums(|row| vec![row[0]]),
        );
        check(
            &format!("group-by count: {what}"),
            &scan().group_by("key").aggregate(&[Agg::Count]),
            &sums(|row| vec![row[3]]),
        );

        for (column, data) in [("key", &f.key), ("val", &f.val)] {
            let mut ranked: Vec<i128> = f.selected(sel).map(|i| data[i]).collect();
            ranked.sort_unstable_by(|a, b| b.cmp(a));
            ranked.truncate(50);
            check(
                &format!("top-k {column}: {what}"),
                &scan().top_k(column, 50),
                &Rows::TopK(ranked),
            );
            let distinct: BTreeSet<i128> = f.selected(sel).map(|i| data[i]).collect();
            check(
                &format!("distinct {column}: {what}"),
                &scan().distinct(column),
                &Rows::Distinct(distinct.into_iter().collect()),
            );
        }

        let mut left: BTreeMap<i128, i128> = BTreeMap::new();
        for i in f.selected(sel) {
            *left.entry(f.key[i]).or_default() += 1;
        }
        for (right, right_keys, right_what) in rights {
            let mut pairs: BTreeMap<i128, i128> = BTreeMap::new();
            for key in right_keys {
                if let Some(&count) = left.get(key) {
                    *pairs.entry(*key).or_default() += count;
                }
            }
            check(
                &format!("join with {right_what}: {what}"),
                &scan().join("right", Arc::clone(right), "key"),
                &Rows::Joined(pairs.into_iter().collect()),
            );
        }
    }
}

/// A right (build) side for the join: a short key column of the same
/// type under its own scheme, overlapping the left domain partly.
fn right_side(dtype: DType, scheme: &str, seed: u64) -> Right {
    let mut key = keys(dtype, seed ^ 0x51DE);
    key.truncate(SEG_ROWS + 500);
    let (lo, _) = bounds(dtype);
    // Drop one extreme and add a key the left side never holds.
    for k in key.iter_mut() {
        if *k == lo + 1 {
            *k = 424_242;
        }
    }
    let table = Table::build(
        TableSchema::new(&[("key", dtype)]),
        &[ColumnData::from_numeric(dtype, &key).expect("in range")],
        &[CompressionPolicy::Fixed(scheme.into())],
        SEG_ROWS,
    )
    .expect("right side builds");
    (Arc::new(table), key, format!("right side under {scheme}"))
}

/// One key dtype's slice of the matrix (a test each, so they run side
/// by side). Value dtypes rotate with the scheme index — every (key
/// dtype, value dtype) pair occurs — and each left scheme joins a right
/// side under the same scheme and under the next one.
fn every_sink_selection_and_key_scheme_matches_the_oracle(k: usize) {
    let key_dtype = DTYPES[k];
    for (s, scheme) in key_schemes(key_dtype).into_iter().enumerate() {
        let seed = (k * 16 + s) as u64 + 1;
        let rights = [scheme, key_schemes(key_dtype)[(s + 1) % 6]]
            .map(|right_scheme| right_side(key_dtype, right_scheme, seed));
        for val_dtype in [DTYPES[(k + s) % 4], DTYPES[(k + s + 1) % 4]] {
            let f = fixture(
                (key_dtype, keys(key_dtype, seed), scheme),
                (val_dtype, values(val_dtype, seed)),
            );
            let what = format!("{key_dtype:?} key under {scheme}, {val_dtype:?} values");
            check_all_sinks(&what, &f, &rights);
        }
    }
}

#[test]
fn u32_keys_match_the_oracle() {
    every_sink_selection_and_key_scheme_matches_the_oracle(0);
}

#[test]
fn u64_keys_match_the_oracle() {
    every_sink_selection_and_key_scheme_matches_the_oracle(1);
}

#[test]
fn i32_keys_match_the_oracle() {
    every_sink_selection_and_key_scheme_matches_the_oracle(2);
}

#[test]
fn i64_keys_match_the_oracle() {
    every_sink_selection_and_key_scheme_matches_the_oracle(3);
}

/// CONST keys: each segment holds one key (the type's extremes among
/// them), so every key tier-1 folds is read off a zone map.
#[test]
fn const_key_segments_match_the_oracle() {
    for (k, dtype) in DTYPES.into_iter().enumerate() {
        let (lo, hi) = bounds(dtype);
        let per_segment = [hi, lo, hi];
        let key: Vec<i128> = (0..ROWS).map(|i| per_segment[i / SEG_ROWS]).collect();
        let val_dtype = DTYPES[(k + 1) % 4];
        let f = fixture((dtype, key, "const"), (val_dtype, values(val_dtype, 9)));
        let rights = ["const", "id"].map(|right_scheme| {
            let right_key = vec![hi; 300];
            let right = Table::build(
                TableSchema::new(&[("key", dtype)]),
                &[ColumnData::from_numeric(dtype, &right_key).unwrap()],
                &[CompressionPolicy::Fixed(right_scheme.into())],
                SEG_ROWS,
            )
            .unwrap();
            (
                Arc::new(right),
                right_key,
                format!("right side under {right_scheme}"),
            )
        });
        check_all_sinks(&format!("{dtype:?} const key"), &f, &rights);
    }
}

/// The distinct kernel marks `v − min` in a bitmap when the zone span
/// fits one no larger than the decoded segment (here 4096 rows of 4 or
/// 8 bytes), and hashes per value otherwise — off the value stream
/// under a full selection, off the decoded rows under a mask. Both
/// sides of that bound, negative keys, and a masked selection must
/// agree with the oracle.
#[test]
fn distinct_spans_around_the_bitmap_bound() {
    for dtype in DTYPES {
        let bound = 8 * SEG_ROWS as i128 * dtype.bytes() as i128;
        let base = if dtype.signed() { -70_000 } else { 5 };
        for span in [1, 11, bound - 1, bound, bound + 1, 3 * bound] {
            // Values scattered inside [base, base + span), both ends hit.
            let mut rng = Lcg(span as u64);
            let data: Vec<i128> = (0..SEG_ROWS)
                .map(|i| match i {
                    0 => base,
                    1 => base + span - 1,
                    _ => base + (rng.next() as i128 % span),
                })
                .collect();
            let table = Table::build(
                TableSchema::new(&[("v", dtype), ("sel", DType::U32)]),
                &[
                    ColumnData::from_numeric(dtype, &data).unwrap(),
                    ColumnData::U32((0..SEG_ROWS as u32).map(|i| i % 5).collect()),
                ],
                &[
                    CompressionPolicy::Fixed("id".into()),
                    CompressionPolicy::Fixed("ns".into()),
                ],
                SEG_ROWS,
            )
            .unwrap();
            let what = format!("{dtype:?} span {span}");
            let all: BTreeSet<i128> = data.iter().copied().collect();
            let push = check(
                &what,
                &QueryBuilder::scan(&table).distinct("v"),
                &Rows::Distinct(all.into_iter().collect()),
            );
            assert_eq!(
                push.stats.rows_materialized, 0,
                "{what}: the value stream, never the column"
            );
            let masked: BTreeSet<i128> = (0..SEG_ROWS)
                .filter(|i| i % 5 <= 1)
                .map(|i| data[i])
                .collect();
            check(
                &format!("{what}, masked"),
                &QueryBuilder::scan(&table)
                    .filter("sel", Predicate::Range { lo: 0, hi: 1 })
                    .distinct("v"),
                &Rows::Distinct(masked.into_iter().collect()),
            );
        }
    }
}

// -- frames no compressor would emit ----------------------------------

fn hand_built(compressed: Compressed, expr: &str, zone: (i128, i128)) -> Segment {
    Segment::new(compressed, expr.into(), zone.0, zone.1).expect("expr names the frame's scheme")
}

/// `table` with every segment rebuilt by hand ([`Segment::new`]): the
/// same frames and zone maps, but no summaries — so a fully selected
/// aggregate folds each value stream instead of reading its metadata.
fn unsummarised(table: &Table) -> Table {
    let columns = table
        .schema()
        .columns
        .iter()
        .map(|col| {
            let segments = table.column_segments(&col.name).expect("column exists");
            segments
                .iter()
                .map(|seg| hand_built(seg.compressed.clone(), &seg.expr, (seg.min, seg.max)))
                .collect()
        })
        .collect();
    Table::from_segments(table.schema().clone(), columns, table.seg_rows()).expect("same shape")
}

/// A two-column table: `key` is the hand-built segment, `sel` an honest
/// selector over the same rows.
fn around(key: Segment) -> Table {
    let n = key.num_rows();
    let sel = Segment::build(
        &ColumnData::U32((0..n as u32).map(|i| i % 4).collect()),
        &CompressionPolicy::Fixed("ns".into()),
    )
    .unwrap();
    Table::from_segments(
        TableSchema::new(&[("key", key.compressed.dtype), ("sel", DType::U32)]),
        vec![vec![key], vec![sel]],
        n,
    )
    .expect("shapes agree")
}

/// A DICT frame whose last code points one past its dictionary. The
/// frame checksums and reloads fine — nothing about its bytes is torn —
/// so only the tiers that index by code can notice.
fn dict_with_code_past_the_dictionary() -> Segment {
    let codes: Vec<u64> = (0..200u64).map(|i| i % 3).chain([3]).collect();
    hand_built(
        Compressed {
            scheme_id: "dict".into(),
            n: codes.len(),
            dtype: DType::I64,
            params: Params::new(),
            parts: vec![
                Part {
                    role: dict::ROLE_DICT,
                    data: PartData::Plain(ColumnData::I64(vec![-4, 10, 99])),
                },
                Part {
                    role: dict::ROLE_CODES,
                    data: PartData::Plain(ColumnData::U64(codes)),
                },
            ],
        },
        "dict",
        (-4, 99),
    )
}

#[test]
fn a_dict_code_past_the_dictionary_is_a_typed_error_in_every_tier() {
    let honest = Table::build(
        TableSchema::new(&[("key", DType::I64)]),
        &[ColumnData::I64(vec![-4, 10, 10, 99])],
        &[CompressionPolicy::Fixed("dict[codes=ns]".into())],
        64,
    )
    .unwrap();
    let dir = std::env::temp_dir().join(format!("lcdc_sink_kernels_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let resident = around(dict_with_code_past_the_dictionary());
    lcdc::store::save_table(&resident, &dir).expect("the frame itself is well-formed");
    let reloaded = lcdc::store::open_table_lazy(&dir, 4).expect("and reloads: checksums hold");

    for (surface, table) in [("resident", &resident), ("reloaded", &reloaded)] {
        let masked = || QueryBuilder::scan(table).filter("sel", Predicate::Range { lo: 1, hi: 3 });
        let corrupt_on_either_side = [
            QueryBuilder::scan(table).join("honest", Arc::new(honest.clone()), "key"),
            QueryBuilder::scan(&honest).join("corrupt", Arc::new(table.clone()), "key"),
        ];
        let queries = [
            (
                "group-by",
                QueryBuilder::scan(table)
                    .group_by("key")
                    .aggregate(&[Agg::Count]),
            ),
            (
                "masked group-by",
                masked().group_by("key").aggregate(&[Agg::Sum("sel")]),
            ),
            ("masked distinct", masked().distinct("key")),
            ("join, corrupt left", corrupt_on_either_side[0].clone()),
            ("join, corrupt right", corrupt_on_either_side[1].clone()),
            (
                "masked join",
                masked().join("honest", Arc::new(honest.clone()), "key"),
            ),
        ];
        for (what, query) in &queries {
            for (path, result) in [
                ("pushdown", query.execute()),
                ("naive", query.execute_naive()),
            ] {
                assert!(
                    result.is_err(),
                    "{surface} {what} on the {path} path answered {:?}",
                    result.map(|r| r.rows)
                );
            }
        }
        // A full-selection DISTINCT reads only the dictionary part: it
        // never touches the bad code, so it may answer — but the
        // decoded oracle, which gathers through the codes, must not.
        let distinct = QueryBuilder::scan(table).distinct("key");
        assert!(
            distinct.execute_naive().is_err(),
            "{surface} naive distinct"
        );
        if let Ok(result) = distinct.execute() {
            assert_eq!(result.rows, Rows::Distinct(vec![-4, 10, 99]), "{surface}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A zone map that lies (narrower than the data) may cost the distinct
/// bitmap its shortcut, never its answer: out-of-zone values are
/// hashed directly.
#[test]
fn distinct_does_not_trust_the_zone_map_for_its_answer() {
    let data = ColumnData::I32(vec![-9, 5, 6, 7, 5, 400, -9, 6]);
    let honest = Segment::build(&data, &CompressionPolicy::Fixed("id".into())).unwrap();
    let table = around(hand_built(honest.compressed, "id", (5, 7)));
    let result = QueryBuilder::scan(&table)
        .distinct("key")
        .execute()
        .unwrap();
    assert_eq!(result.rows, Rows::Distinct(vec![-9, 5, 6, 7, 400]));
}

// -- the streamed value tiers: a differential matrix --------------------

const MATRIX_SEG: usize = 512;
const MATRIX_ROWS: usize = 3 * MATRIX_SEG - 37;

/// Value schemes whose full-selection tiers fold the value stream
/// instead of a decoded column.
const VALUE_SCHEMES: [&str; 9] = [
    "for(l=128)[offsets=ns]",
    "for(l=128)[offsets=varwidth]",
    "for(l=128,first=1)[offsets=ns_zz]",
    "pfor(l=128,keep=990)",
    "ns",
    "varwidth",
    "linear(l=128)[residuals=ns]",
    "delta[deltas=ns_zz]",
    "id",
];

/// Value columns for the matrix: near (and, signed, around) zero; the
/// type's extremes (a whole
/// segment at the maximum, the minimum sprinkled in); for 64-bit types,
/// segments straddling the `u64` partial-sum boundary — a 512-row
/// segment's per-unit sums stay narrow below `2^55` and a 64-value
/// chunk's below `2^58`; and, for NS, columns packing to exact widths.
fn value_shapes(dtype: DType, scheme: &str) -> Vec<(String, Vec<i128>)> {
    let (lo, hi) = bounds(dtype);
    let spread = |i: usize| (i as i128 * 7919) % 1001;
    let mut shapes = vec![(
        "near zero".to_string(),
        (0..MATRIX_ROWS).map(spread).collect(),
    )];
    if dtype.signed() {
        shapes.push((
            "around zero".into(),
            (0..MATRIX_ROWS).map(|i| spread(i) - 500).collect(),
        ));
    }
    let mut rng = Lcg(dtype.bits() as u64);
    shapes.push((
        "extremes".into(),
        (0..MATRIX_ROWS)
            .map(|i| match i {
                _ if i < MATRIX_SEG => hi,
                _ if i % 97 == 0 => lo,
                _ => lo + (rng.next() as i128 * 0x1_0001) % (hi - lo + 1),
            })
            .collect(),
    ));
    if dtype.bits() == 64 {
        let levels = [(1 << 55) - 1001, (1 << 55) - 500, (1 << 58) - 600];
        shapes.push((
            "partial-sum boundary".into(),
            (0..MATRIX_ROWS)
                .map(|i| levels[i / MATRIX_SEG] + spread(i))
                .collect(),
        ));
    }
    if scheme == "ns" {
        for width in [1u32, 16, 17, 40] {
            let top = (1i128 << width) - 1;
            if top <= hi {
                shapes.push((
                    format!("ns width {width}"),
                    (0..MATRIX_ROWS)
                        .map(|i| {
                            if i % 61 == 0 {
                                top
                            } else {
                                (i as i128 * 7919) & top
                            }
                        })
                        .collect(),
                ));
            }
        }
    }
    shapes
}

/// The matrix table: `val` under the scheme under test, the same group
/// keys under a DICT, RLE, CONST and fallback (FOR) key scheme, and the
/// selector.
fn matrix_table(dtype: DType, scheme: &str, values: &[i128]) -> Option<Table> {
    let column = |values: &[i128]| ColumnData::from_numeric(dtype, values).expect("in range");
    let keys: Vec<i128> = keys(dtype, dtype.bits() as u64)[..MATRIX_ROWS].to_vec();
    let (lo, hi) = bounds(dtype);
    let consts: Vec<i128> = (0..MATRIX_ROWS)
        .map(|i| [hi, lo, 7][i / MATRIX_SEG])
        .collect();
    let sel: Vec<i128> = selector()[..MATRIX_ROWS].to_vec();
    let rle = if dtype.signed() {
        "rle[values=ns_zz,lengths=ns]"
    } else {
        "rle[values=ns,lengths=ns]"
    };
    let built = Table::build(
        TableSchema::new(&[
            ("val", dtype),
            ("kdict", dtype),
            ("krle", dtype),
            ("kconst", dtype),
            ("kflat", dtype),
            ("sel", DType::U32),
        ]),
        &[
            column(values),
            column(&keys),
            column(&keys),
            column(&consts),
            column(&keys),
            ColumnData::from_numeric(DType::U32, &sel).expect("in range"),
        ],
        &[
            CompressionPolicy::Fixed(scheme.into()),
            CompressionPolicy::Fixed("dict[codes=ns]".into()),
            CompressionPolicy::Fixed(rle.into()),
            CompressionPolicy::Fixed("const".into()),
            CompressionPolicy::Fixed("for(l=128)[offsets=ns]".into()),
            CompressionPolicy::Fixed("ns".into()),
        ],
        MATRIX_SEG,
    );
    match built {
        Ok(table) => Some(table),
        Err(StoreError::Core(CoreError::NotRepresentable(_))) => None,
        Err(other) => panic!("{scheme} over {dtype:?}: {other}"),
    }
}

/// Every sink of the matrix over `t`, under `sel`.
fn matrix_queries<'t>(
    t: &'t Table,
    sel: Sel,
    right: &Arc<Table>,
) -> Vec<(String, QueryBuilder<'t>)> {
    let scan = || sel.apply(QueryBuilder::scan(t));
    let mut queries = vec![
        ("aggregate".to_string(), scan().aggregate(&AGGS)),
        ("aggregate sum".into(), scan().aggregate(&[Agg::Sum("val")])),
        ("distinct".into(), scan().distinct("val")),
        ("top-k".into(), scan().top_k("val", 20)),
        (
            "join".into(),
            scan().join("right", Arc::clone(right), "val"),
        ),
    ];
    for key in ["kdict", "krle", "kconst", "kflat"] {
        queries.push((
            format!("group-by {key}"),
            scan().group_by(key).aggregate(&AGGS),
        ));
        queries.push((
            format!("group-by {key} sum"),
            scan().group_by(key).aggregate(&[Agg::Sum("val")]),
        ));
    }
    queries
}

/// Every sink over `table`, its reloaded copy and its unsummarised copy
/// (full selections fold instead of answering from metadata), full and
/// masked, at one and two workers, must equal the decoded oracle.
fn check_matrix(what: &str, table: &Table, values: &[i128], dir: &std::path::Path) {
    lcdc::store::save_table(table, dir).expect("saves");
    let reloaded = lcdc::store::open_table_lazy(dir, 4).expect("reopens");
    let folded = unsummarised(table);
    let dtype = table.schema().dtype_of("val").expect("val");
    let mut right_keys: Vec<i128> = values[..200].to_vec();
    right_keys.push(424_242);
    let right = Arc::new(
        Table::build(
            TableSchema::new(&[("val", dtype)]),
            &[ColumnData::from_numeric(dtype, &right_keys).expect("in range")],
            &[CompressionPolicy::Fixed("id".into())],
            MATRIX_SEG,
        )
        .expect("right side builds"),
    );
    for sel in [Sel::Full, Sel::Mask] {
        let on_reloaded = matrix_queries(&reloaded, sel, &right);
        let on_folded = matrix_queries(&folded, sel, &right);
        for (((name, query), (_, on_reloaded)), (_, on_folded)) in
            matrix_queries(table, sel, &right)
                .into_iter()
                .zip(on_reloaded)
                .zip(on_folded)
        {
            let what = format!("{what}, {sel:?} {name}");
            let want = query
                .execute_naive()
                .unwrap_or_else(|e| panic!("{what}: naive: {e}"));
            for (surface, query) in [
                ("resident", &query),
                ("reloaded", &on_reloaded),
                ("unsummarised", &on_folded),
            ] {
                for threads in [1, 2] {
                    let got = query
                        .execute_opts(&ExecOptions::threads(threads))
                        .unwrap_or_else(|e| panic!("{what} {surface} x{threads}: {e}"));
                    assert_eq!(got.rows, want.rows, "{what} {surface} x{threads}");
                }
            }
        }
    }
    std::fs::remove_dir_all(dir).ok();
}

fn value_schemes_match_the_oracle(dtype: DType) {
    let dir = std::env::temp_dir().join(format!(
        "lcdc_value_matrix_{}_{}",
        dtype.name(),
        std::process::id()
    ));
    for scheme in VALUE_SCHEMES {
        let mut ran = 0;
        for (shape, values) in value_shapes(dtype, scheme) {
            if let Some(table) = matrix_table(dtype, scheme, &values) {
                let what = format!("{dtype:?} {shape} under {scheme}");
                check_matrix(&what, &table, &values, &dir);
                ran += 1;
            }
        }
        assert!(ran > 0, "{scheme} holds no {dtype:?} shape");
    }
}

#[test]
fn u32_value_schemes_match_the_oracle() {
    value_schemes_match_the_oracle(DType::U32);
}

#[test]
fn u64_value_schemes_match_the_oracle() {
    value_schemes_match_the_oracle(DType::U64);
}

#[test]
fn i32_value_schemes_match_the_oracle() {
    value_schemes_match_the_oracle(DType::I32);
}

#[test]
fn i64_value_schemes_match_the_oracle() {
    value_schemes_match_the_oracle(DType::I64);
}

/// First-reference FOR stores signed offsets, and a block may span more
/// than `2^63`: the reconstruction wraps, so only the decoded values —
/// never `reference + offset` taken as numbers — are the answer. Both
/// repros, through `aggregate_segment`, the aggregate sink and a
/// group-by SUM, resident and reloaded.
#[test]
fn first_reference_for_blocks_wider_than_2_pow_63_aggregate_exactly() {
    let cases = [
        (
            ColumnData::U64(vec![0, u64::MAX, 5, 7]),
            (u64::MAX as i128 + 12, 0, u64::MAX as i128),
        ),
        (
            ColumnData::I64(vec![i64::MIN, i64::MAX, 0]),
            (-1, i64::MIN as i128, i64::MAX as i128),
        ),
    ];
    let expr = "for(l=128,first=1)[offsets=ns_zz]";
    for (col, (sum, min, max)) in cases {
        let n = col.len();
        let segment = Segment::build(&col, &CompressionPolicy::Fixed(expr.into())).unwrap();
        let agg = lcdc::store::agg::aggregate_segment(&segment, None).unwrap();
        assert_eq!((agg.sum, agg.min, agg.max), (sum, Some(min), Some(max)));

        let table = Table::build(
            TableSchema::new(&[("k", DType::U32), ("v", col.dtype())]),
            &[ColumnData::U32(vec![1; n]), col.clone()],
            &[
                CompressionPolicy::Fixed("const".into()),
                CompressionPolicy::Fixed(expr.into()),
            ],
            64,
        )
        .unwrap();
        let dir = std::env::temp_dir().join(format!(
            "lcdc_first_ref_{}_{}",
            col.dtype().name(),
            std::process::id()
        ));
        lcdc::store::save_table(&table, &dir).unwrap();
        let reloaded = lcdc::store::open_table_lazy(&dir, 4).unwrap();
        for (surface, t) in [("resident", &table), ("reloaded", &reloaded)] {
            let aggs = [Agg::Sum("v"), Agg::Min("v"), Agg::Max("v")];
            let want = Rows::Aggregates(vec![Some(sum), Some(min), Some(max)]);
            check(surface, &QueryBuilder::scan(t).aggregate(&aggs), &want);
            let want = Rows::Groups(vec![(1, vec![Some(sum)])]);
            let group_sum = QueryBuilder::scan(t)
                .group_by("k")
                .aggregate(&[Agg::Sum("v")]);
            check(surface, &group_sum, &want);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A zone map narrower than its data — here it claims a few small
/// values over `u64::MAX`s, which a zone-trusting `u64` partial sum
/// would overflow on — may cost the streamed tiers a shortcut, never an
/// answer: sums, extrema and distinct values stay exact, full and
/// masked. An NS segment's distinct bitmap is sized by its packed
/// width, which the frame proves, so its zone map cannot shrink it.
#[test]
fn a_zone_map_narrower_than_its_data_costs_shortcuts_not_answers() {
    let frames = [
        (
            ColumnData::U64(vec![u64::MAX, 3, u64::MAX, 5, u64::MAX - 1, 4, 0, 3]),
            "for(l=128)[offsets=ns]",
            (3, 5),
        ),
        (
            ColumnData::U32((0..300u32).map(|i| i % 13).collect()),
            "ns",
            (0, 1),
        ),
        (
            ColumnData::I32(vec![-9, 5, 6, 7, 5, 400, -9, 6]),
            "id",
            (5, 7),
        ),
    ];
    for (col, expr, zone) in frames {
        let honest = Segment::build(&col, &CompressionPolicy::Fixed(expr.into())).unwrap();
        let table = around(hand_built(honest.compressed, expr, zone));
        let values = col.to_numeric();
        for (sel, rows) in [
            (None, (0..values.len()).collect::<Vec<_>>()),
            (
                Some(1..=3),
                (0..values.len()).filter(|i| i % 4 >= 1).collect(),
            ),
        ] {
            let scan = || match &sel {
                None => QueryBuilder::scan(&table),
                Some(range) => QueryBuilder::scan(&table).filter(
                    "sel",
                    Predicate::Range {
                        lo: *range.start(),
                        hi: *range.end(),
                    },
                ),
            };
            let what = format!("{expr} under a lying zone map, selection {sel:?}");
            let picked = || rows.iter().map(|&i| values[i]);
            let aggs = [
                Agg::Sum("key"),
                Agg::Min("key"),
                Agg::Max("key"),
                Agg::Count,
            ];
            let want = Rows::Aggregates(agg_row(picked()));
            check(&what, &scan().aggregate(&aggs), &want);
            let distinct: BTreeSet<i128> = picked().collect();
            let want = Rows::Distinct(distinct.into_iter().collect());
            check(&what, &scan().distinct("key"), &want);
        }
    }
}

/// The streamed tiers' exact ledger: a full selection folds every value
/// of its value (or fallback key) column off the stream — every row
/// counted in `values_processed`, none in `rows_materialized`, and no
/// segment structural unless its parts alone answered it; a mask folds
/// its selected values off the same streams, materialising nothing
/// either. The table's segments are built by hand, without summaries:
/// the aggregate below would otherwise be answered from metadata (the
/// next test).
#[test]
fn streamed_tiers_fold_every_value_and_materialise_nothing() {
    let values: Vec<i128> = (0..MATRIX_ROWS as i128).map(|i| 1_000 + i % 300).collect();
    let table = unsummarised(&matrix_table(DType::U64, "for(l=128)[offsets=ns]", &values).unwrap());
    let segments = table.num_segments();
    let full = [
        (
            "aggregate",
            QueryBuilder::scan(&table).aggregate(&[Agg::Sum("val")]),
        ),
        (
            "group-by dict",
            QueryBuilder::scan(&table)
                .group_by("kdict")
                .aggregate(&[Agg::Sum("val")]),
        ),
        (
            "group-by fallback",
            QueryBuilder::scan(&table)
                .group_by("kflat")
                .aggregate(&[Agg::Sum("val")]),
        ),
        ("distinct", QueryBuilder::scan(&table).distinct("val")),
        ("top-k", QueryBuilder::scan(&table).top_k("val", 5)),
    ];
    for (what, query) in full {
        let stats = query.execute().unwrap().stats;
        assert_eq!(stats.rows_materialized, 0, "{what}: {stats:?}");
        assert_eq!(stats.values_processed, MATRIX_ROWS, "{what}: {stats:?}");
        assert_eq!(stats.segments_structural, 0, "{what}: {stats:?}");
        assert_eq!(
            stats.segments_loaded,
            segments * (1 + usize::from(what.starts_with("group")))
        );
    }
    let stats = QueryBuilder::scan(&table)
        .group_by("kdict")
        .aggregate(&[Agg::Sum("val")])
        .execute()
        .unwrap()
        .stats;
    assert_eq!(
        stats.rows_undecoded, MATRIX_ROWS,
        "the dict key stays in code space"
    );

    let masked = QueryBuilder::scan(&table)
        .filter("sel", Predicate::Range { lo: 0, hi: 2 })
        .aggregate(&[Agg::Sum("val")]);
    let stats = masked.execute().unwrap().stats;
    let selected = selector()[..MATRIX_ROWS]
        .iter()
        .filter(|&&s| s <= 2)
        .count();
    assert_eq!(stats.rows_materialized, 0, "{stats:?}");
    assert_eq!(stats.values_processed, selected, "{stats:?}");
}

/// The metadata tier's exact ledger. Over segments the store built, a
/// fully selected aggregate reads every segment's summary: each is
/// `segments_from_metadata` and `segments_structural`, none is fetched
/// or folds a value, and SUM / MIN / MAX / COUNT equal the oracle. A
/// filter the zone maps settle whole keeps the tier (charging its
/// `zonemap_hits`); a mask folds its selected values instead.
#[test]
fn a_fully_selected_aggregate_reads_only_metadata() {
    let values: Vec<i128> = (0..MATRIX_ROWS as i128).map(|i| 1_000 + i % 300).collect();
    let table = matrix_table(DType::U64, "for(l=128)[offsets=ns]", &values).unwrap();
    let segments = table.num_segments();
    let want = Rows::Aggregates(agg_row(values.iter().copied()));
    let whole = [
        QueryBuilder::scan(&table).aggregate(&AGGS),
        QueryBuilder::scan(&table)
            .filter("val", Predicate::Range { lo: 0, hi: 5_000 })
            .aggregate(&AGGS),
    ];
    for (filters, query) in whole.iter().enumerate() {
        let stats = check("metadata", query, &want).stats;
        assert_eq!(stats.segments_from_metadata, segments, "{stats:?}");
        assert_eq!(stats.segments_structural, segments, "{stats:?}");
        assert_eq!(stats.segments_loaded, 0, "{stats:?}");
        assert_eq!(stats.values_processed, 0, "{stats:?}");
        assert_eq!(stats.pushdown.zonemap_hits, filters * segments, "{stats:?}");
    }
    let masked = QueryBuilder::scan(&table)
        .filter("sel", Predicate::Range { lo: 0, hi: 2 })
        .aggregate(&AGGS);
    let selected: Vec<usize> = (0..MATRIX_ROWS).filter(|&i| selector()[i] <= 2).collect();
    let want = Rows::Aggregates(agg_row(selected.iter().map(|&i| values[i])));
    let stats = check("masked", &masked, &want).stats;
    assert_eq!(stats.segments_from_metadata, 0, "{stats:?}");
    assert_eq!(stats.segments_loaded, 2 * segments, "{stats:?}");
    assert_eq!(stats.values_processed, selected.len(), "{stats:?}");
}

/// A segment's expression must name the scheme its frame was compressed
/// under: a mismatch, or an expression that does not parse, is a typed
/// error at construction — before any tier could dispatch on it.
#[test]
fn an_expression_naming_another_scheme_is_a_typed_error() {
    let frame = Segment::build(
        &ColumnData::U64(vec![1, 2, 3]),
        &CompressionPolicy::Fixed("ns".into()),
    )
    .unwrap()
    .compressed;
    assert!(matches!(
        Segment::new(frame.clone(), "dict".into(), 1, 3),
        Err(StoreError::Core(CoreError::SchemeMismatch { .. }))
    ));
    assert!(matches!(
        Segment::new(frame.clone(), "ns[".into(), 1, 3),
        Err(StoreError::Core(CoreError::Parse(_)))
    ));
    let segment = Segment::new(frame, "ns".into(), 1, 3).unwrap();
    assert_eq!(segment.kind(), SchemeKind::Ns);
    assert_eq!(
        segment.decompress().unwrap(),
        ColumnData::U64(vec![1, 2, 3])
    );
}

/// A masked fold reads exactly the selected rows off the value stream,
/// whatever the scheme's chunking and wherever the mask's words fall —
/// empty, full or ragged — and a mask of the wrong height is a typed
/// error, not a partial answer.
#[test]
fn a_masked_segment_folds_exactly_its_selected_rows() {
    use lcdc::colops::Bitmap;
    use lcdc::store::agg::aggregate_segment;
    let rows: Vec<u64> = (0..500u64).map(|i| 1000 + (i * 37) % 41).collect();
    let plain = ColumnData::U64(rows.clone());
    for expr in [
        "for(l=128)[offsets=ns]",
        "dict[codes=ns]",
        "delta[deltas=ns_zz]",
        "id",
    ] {
        let seg = Segment::build(&plain, &CompressionPolicy::Fixed(expr.into())).unwrap();
        for pick in [0usize, 1, 3, 64, 130, 499] {
            let keep = |i: usize| pick > 0 && (i.is_multiple_of(pick) || (64..128).contains(&i));
            let mask = Bitmap::from_bools(&(0..rows.len()).map(keep).collect::<Vec<_>>());
            let got = aggregate_segment(&seg, Some(&mask)).unwrap();
            let picked = (0..rows.len())
                .filter(|&i| keep(i))
                .map(|i| rows[i] as i128);
            let want = agg_row(picked);
            assert_eq!(
                vec![Some(got.sum), got.min, got.max, Some(got.count as i128)],
                want,
                "{expr}, pick {pick}"
            );
        }
        let short = Bitmap::new_ones(rows.len() - 1);
        assert!(matches!(
            aggregate_segment(&seg, Some(&short)),
            Err(StoreError::Shape(_))
        ));
    }
}

/// Group-by, distinct, a key filter and the join over DICT key columns
/// that mix segments sharing a run dictionary, segments with their own
/// (an appended one bringing new keys) and non-DICT segments: on every
/// storage surface, at 1 and 2 threads, under a full selection and a
/// mask, each equals the `i128` oracle.
#[test]
fn mixed_runs_match_the_oracle() {
    for (seed, signed) in [(3, false), (4, true)] {
        let mixed = MixedRuns::build(seed, signed, "sinks");
        let other = MixedRuns::build(seed ^ 0xBEEF, signed, "sinks_right");
        let right = Arc::new(other.resident().clone());
        let key: Vec<i128> = mixed.keys.iter().map(|&k| k.into()).collect();
        let val: Vec<i128> = mixed.vals.iter().map(|&v| v.into()).collect();
        let (lo, hi) = (key[10].min(key[2000]), key[10].max(key[2000]));
        for mask in [None, Some((100i128, 600i128))] {
            let kept: Vec<usize> = (0..key.len())
                .filter(|&i| mask.is_none_or(|(a, b)| (a..=b).contains(&val[i])))
                .collect();
            let mut groups: BTreeMap<i128, Vec<i128>> = BTreeMap::new();
            let mut counts: BTreeMap<i128, i128> = BTreeMap::new();
            for &i in &kept {
                groups.entry(key[i]).or_default().push(val[i]);
                *counts.entry(key[i]).or_default() += 1;
            }
            let want_groups = Rows::Groups(
                groups
                    .iter()
                    .map(|(&k, vals)| (k, agg_row(vals.iter().copied())))
                    .collect(),
            );
            let want_distinct = Rows::Distinct(groups.keys().copied().collect());
            let in_range = kept.iter().filter(|&&i| (lo..=hi).contains(&key[i]));
            let want_range = Rows::Aggregates(agg_row(in_range.map(|&i| val[i])));
            let mut pairs: BTreeMap<i128, i128> = BTreeMap::new();
            for &k in &other.keys {
                if let Some(&count) = counts.get(&k.into()) {
                    *pairs.entry(k.into()).or_default() += count;
                }
            }
            let want_join = Rows::Joined(pairs.into_iter().collect());
            for (surface, table) in &mixed.surfaces {
                let scan = || match mask {
                    None => QueryBuilder::scan(table),
                    Some((lo, hi)) => {
                        QueryBuilder::scan(table).filter("val", Predicate::Range { lo, hi })
                    }
                };
                let queries = [
                    (
                        "group-by",
                        scan().group_by("key").aggregate(&AGGS),
                        &want_groups,
                    ),
                    ("distinct", scan().distinct("key"), &want_distinct),
                    (
                        "key range",
                        scan()
                            .filter("key", Predicate::Range { lo, hi })
                            .aggregate(&AGGS),
                        &want_range,
                    ),
                    (
                        "join",
                        scan().join("right", Arc::clone(&right), "key"),
                        &want_join,
                    ),
                ];
                for (what, query, want) in &queries {
                    for threads in [1, 2] {
                        let at = format!("{surface} {what} {mask:?} x{threads}");
                        let got = query.execute_parallel(threads).unwrap();
                        assert_eq!(&got.rows, *want, "{at}");
                    }
                    let naive = query.execute_naive().unwrap();
                    assert_eq!(&naive.rows, *want, "{surface} {what} {mask:?} naive");
                }
            }
        }
    }
}

/// Distinct, group-by and join under key ranges the zone maps decide
/// for whole DICT segments: one covering the built run's first four
/// segments' zones (fully selected, while another segment sharing their
/// dictionary is masked and the second dictionary's segments are
/// pruned), and one covering exactly one segment's zone. A fully
/// selected segment's shared dictionary holds keys only the other
/// segments hold; none of them may reach the answer.
#[test]
fn mixed_runs_under_zone_decided_key_ranges_match_the_oracle() {
    for (seed, signed) in [(5, false), (6, true)] {
        let mixed = MixedRuns::build(seed, signed, "sinks_zoned");
        let other = MixedRuns::build(seed ^ 0xBEEF, signed, "sinks_zoned_right");
        let right = Arc::new(other.resident().clone());
        let key: Vec<i128> = mixed.keys.iter().map(|&k| k.into()).collect();
        let zone = |segs: std::ops::Range<usize>| {
            let keys = segs.flat_map(|s| mixed.segment_keys(s).iter().map(|&k| i128::from(k)));
            let (lo, hi) = keys.fold((i128::MAX, i128::MIN), |(lo, hi), k| (lo.min(k), hi.max(k)));
            (lo, hi)
        };
        for (what, (lo, hi)) in [("first four", zone(0..4)), ("one", zone(6..7))] {
            let kept: Vec<i128> = key
                .iter()
                .copied()
                .filter(|k| (lo..=hi).contains(k))
                .collect();
            let mut counts: BTreeMap<i128, i128> = BTreeMap::new();
            for &k in &kept {
                *counts.entry(k).or_default() += 1;
            }
            let unfiltered: BTreeSet<i128> = key.iter().copied().collect();
            assert!(
                counts.len() < unfiltered.len(),
                "{what}: the range drops keys"
            );
            let want_distinct = Rows::Distinct(counts.keys().copied().collect());
            let want_groups =
                Rows::Groups(counts.iter().map(|(&k, &n)| (k, vec![Some(n)])).collect());
            let mut pairs: BTreeMap<i128, i128> = BTreeMap::new();
            for &k in &other.keys {
                if let Some(&count) = counts.get(&k.into()) {
                    *pairs.entry(k.into()).or_default() += count;
                }
            }
            let want_join = Rows::Joined(pairs.into_iter().collect());
            for (surface, table) in &mixed.surfaces {
                let scan = || QueryBuilder::scan(table).filter("key", Predicate::Range { lo, hi });
                let queries = [
                    ("distinct", scan().distinct("key"), &want_distinct),
                    (
                        "group-by",
                        scan().group_by("key").aggregate(&[Agg::Count]),
                        &want_groups,
                    ),
                    (
                        "join",
                        scan().join("right", Arc::clone(&right), "key"),
                        &want_join,
                    ),
                ];
                for (query_what, query, want) in &queries {
                    let at = format!("{surface} {query_what} over {what}");
                    for threads in [1, 2] {
                        let got = query.execute_parallel(threads).unwrap();
                        assert_eq!(&got.rows, *want, "{at} x{threads}");
                    }
                    assert_eq!(&query.execute_naive().unwrap().rows, *want, "{at} naive");
                }
            }
        }
    }
}
