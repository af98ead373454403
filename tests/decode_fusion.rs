//! The differential decode matrix for single-pass decompression.
//!
//! `decompress` streams packed parts chunk by chunk into one output
//! allocation; `visit` runs the same fused operator into a chunk
//! callback; `decompress_via_plan` interprets the scheme's operator DAG
//! over fully materialised parts. For every scheme × element type ×
//! length around the 64- and 1024-value packing groups and the
//! 128-value block boundaries the three must agree with each other and
//! with the original column — and a part read as a stream must equal
//! the part decompressed on its own.
//! Corrupt forms must fail with the typed errors the multi-pass
//! decoders returned, through `decompress` and `visit` alike, never a
//! panic.

use lcdc::colops::ColOpsError;
use lcdc::core::bytes::{from_bytes, to_bytes};
use lcdc::core::scheme::decompress_via_plan;
use lcdc::core::{
    chooser, parse_scheme, ColumnData, Compressed, CoreError, DType, PartData, Parts, Scheme,
};

fn exprs() -> Vec<&'static str> {
    let mut v = chooser::default_candidates();
    v.extend([
        "ns_zz",
        "varwidth_zz",
        "for(l=100)[offsets=ns]",
        "for(l=1)[offsets=varwidth]",
        "dict[codes=varwidth]",
        "rle[values=delta[deltas=ns_zz],lengths=ns]",
    ]);
    v
}

const LENGTHS: [usize; 11] = [0, 1, 63, 64, 65, 127, 128, 129, 4095, 4096, 4097];
const DTYPES: [DType; 4] = [DType::U32, DType::U64, DType::I32, DType::I64];

/// Three shapes per type and length: locally tight levels with runs and
/// the odd outlier (something for every scheme family), all zeros
/// (width 0), and the type's extremes (width 64 for the 64-bit types).
fn columns(dtype: DType, n: usize) -> Vec<ColumnData> {
    let mut state = 0x2545_F491_4F6C_DD1Du64 ^ n as u64;
    let mut noise = move |bound: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % bound
    };
    let mixed: Vec<i128> = (0..n)
        .map(|i| {
            let level = (i / 128) as i128 * 1000 - 2000;
            let outlier = if noise(200) == 0 { 1 << 29 } else { 0 };
            level + (i / 5 % 7) as i128 + outlier
        })
        .map(|v| if dtype.signed() { v } else { v + 2000 })
        .collect();
    let (lo, hi) = match dtype {
        DType::U32 => (0, u32::MAX as i128),
        DType::U64 => (0, u64::MAX as i128),
        DType::I32 => (i32::MIN as i128, i32::MAX as i128),
        DType::I64 => (i64::MIN as i128, i64::MAX as i128),
    };
    let extremes: Vec<i128> = (0..n)
        .map(|i| match i % 3 {
            0 => lo,
            1 => hi,
            _ => lo + noise(1 << 20) as i128,
        })
        .collect();
    [mixed, vec![0; n], extremes]
        .iter()
        .map(|values| ColumnData::from_numeric(dtype, values).expect("in range"))
        .collect()
}

/// A part decompressed on its own, without the part reader: plain
/// parts as they are, packed parts unpacked, nested parts through the
/// scheme their own id names, shared parts as attached.
fn part_alone(data: &PartData) -> Vec<u64> {
    match data {
        PartData::Plain(col) => col.to_transport(),
        PartData::Packed(packed) => packed.unpack(),
        PartData::Nested(nested) => parse_scheme(&nested.scheme_id)
            .expect("nested id parses")
            .decompress(nested)
            .expect("nested part decompresses")
            .to_transport(),
        PartData::Shared(shared) => shared.column().expect("dictionary attached").to_transport(),
    }
}

/// The column `visit` hands out, chunks concatenated (transport form).
fn visited(scheme: &dyn Scheme, c: &Compressed) -> Result<Vec<u64>, CoreError> {
    let mut out = Vec::new();
    scheme.visit(c, &mut |chunk| {
        assert!(!chunk.is_empty(), "{}: empty chunk", c.scheme_id);
        out.extend_from_slice(chunk);
    })?;
    Ok(out)
}

/// `decompress` and `visit` agree on a form: the same column, or the
/// same error.
fn assert_visit_agrees(scheme: &dyn Scheme, c: &Compressed, label: &str) {
    match scheme.decompress(c) {
        Ok(col) => assert_eq!(visited(scheme, c), Ok(col.to_transport()), "{label} visit"),
        Err(e) => assert_eq!(visited(scheme, c), Err(e), "{label} visit"),
    }
}

fn check(expr: &str, scheme: &dyn Scheme, col: &ColumnData) {
    let label = format!("{expr} on {} x{}", col.dtype().name(), col.len());
    let c = match scheme.compress(col) {
        Ok(c) => c,
        Err(CoreError::NotRepresentable(_)) => return,
        Err(other) => panic!("{label}: {other}"),
    };
    assert_eq!(&scheme.decompress(&c).expect(&label), col, "{label}");
    assert_eq!(
        visited(scheme, &c).expect(&label),
        col.to_transport(),
        "{label} visit"
    );
    match decompress_via_plan(scheme, &c) {
        Ok(via_plan) => assert_eq!(&via_plan, col, "{label} via plan"),
        Err(CoreError::PlanUnsupported(_)) => {}
        Err(other) => panic!("{label} via plan: {other}"),
    }
    let inner = |role: &str| scheme.inner_for(role);
    let parts = Parts::new(&c, &inner);
    for part in &c.parts {
        let expected = part_alone(&part.data);
        let mut streamed = Vec::new();
        parts
            .stream(part.role)
            .expect(&label)
            .for_each_chunk(|chunk| {
                assert!(!chunk.is_empty(), "{label}: empty chunk");
                streamed.extend_from_slice(chunk);
            });
        assert_eq!(streamed, expected, "{label}: part {}", part.role);
        let alone = scheme.decompress_part(&c, part.role).expect(&label);
        assert_eq!(
            alone.to_transport(),
            expected,
            "{label}: part {}",
            part.role
        );
    }
}

#[test]
fn fused_decode_equals_plan_and_original() {
    for expr in exprs() {
        let scheme = parse_scheme(expr).unwrap();
        for dtype in DTYPES {
            for n in LENGTHS {
                for col in columns(dtype, n) {
                    check(expr, scheme.as_ref(), &col);
                }
            }
        }
    }
}

/// A column every scheme below can hold: levels per 128 rows, short
/// runs, and a few wide outliers for PFOR's exception list.
fn sample() -> ColumnData {
    ColumnData::U64(
        (0..1000u64)
            .map(|i| (i / 128) * 5000 + i / 4 % 9 + if i % 211 == 0 { 1 << 33 } else { 0 })
            .collect(),
    )
}

fn compressed(expr: &str) -> (Box<dyn Scheme>, Compressed) {
    let scheme = parse_scheme(expr).unwrap();
    let c = scheme.compress(&sample()).unwrap();
    assert_eq!(scheme.decompress(&c).unwrap(), sample(), "{expr}");
    (scheme, c)
}

fn plain_part_mut<'a>(c: &'a mut Compressed, role: &str) -> &'a mut ColumnData {
    match &mut c.parts.iter_mut().find(|p| p.role == role).unwrap().data {
        PartData::Plain(col) => col,
        other => panic!("part {role} is not plain: {other:?}"),
    }
}

fn truncate(col: &mut ColumnData, len: usize) {
    match col {
        ColumnData::U32(v) => v.truncate(len),
        ColumnData::U64(v) => v.truncate(len),
        ColumnData::I32(v) => v.truncate(len),
        ColumnData::I64(v) => v.truncate(len),
    }
}

#[test]
fn code_past_the_dictionary_is_index_out_of_bounds() {
    for expr in ["dict", "dict[codes=ns]", "dict[codes=varwidth]"] {
        let (scheme, mut c) = compressed(expr);
        let dict = plain_part_mut(&mut c, "dict");
        let len = dict.len() - 1;
        truncate(dict, len);
        assert_eq!(
            scheme.decompress(&c),
            Err(CoreError::ColOps(ColOpsError::IndexOutOfBounds {
                index: len,
                len
            })),
            "{expr}"
        );
        assert_visit_agrees(scheme.as_ref(), &c, expr);
    }
}

#[test]
fn exception_position_past_the_column_is_index_out_of_bounds() {
    let (scheme, mut c) = compressed("pfor(l=128,keep=990)");
    let n = c.n;
    match plain_part_mut(&mut c, "exc_positions") {
        ColumnData::U64(positions) => *positions.last_mut().expect("has exceptions") = n as u64,
        other => panic!("{other:?}"),
    }
    assert_eq!(
        scheme.decompress(&c),
        Err(CoreError::ColOps(ColOpsError::IndexOutOfBounds {
            index: n,
            len: n
        }))
    );
    assert_visit_agrees(scheme.as_ref(), &c, "pfor, position past the column");
    // One position short of its offsets: the scatter's length check.
    let (scheme, mut c) = compressed("pfor(l=128,keep=990)");
    let positions = plain_part_mut(&mut c, "exc_positions");
    let fewer = positions.len() - 1;
    truncate(positions, fewer);
    assert!(matches!(
        scheme.decompress(&c),
        Err(CoreError::ColOps(ColOpsError::LengthMismatch { .. }))
    ));
    assert_visit_agrees(scheme.as_ref(), &c, "pfor, one position short");
}

#[test]
fn too_few_references_is_a_typed_error() {
    // 1000 rows in segments of 128 need 8 per-segment values.
    for (expr, role) in [
        ("for(l=128)", "refs"),
        ("for(l=128)[offsets=ns]", "refs"),
        ("for(l=128)[offsets=varwidth]", "refs"),
        ("pfor(l=128,keep=990)", "refs"),
        ("dfor(l=128)[deltas=ns_zz]", "bases"),
    ] {
        let (scheme, mut c) = compressed(expr);
        truncate(plain_part_mut(&mut c, role), 7);
        assert_eq!(
            scheme.decompress(&c),
            Err(CoreError::ColOps(ColOpsError::IndexOutOfBounds {
                index: 7,
                len: 7
            })),
            "{expr}"
        );
        assert_visit_agrees(scheme.as_ref(), &c, expr);
    }
    for (expr, role) in [
        ("linear(l=128)[residuals=ns]", "bases"),
        ("linear(l=128)[residuals=ns]", "slopes"),
        ("poly2(l=128)[residuals=ns]", "c1"),
    ] {
        let (scheme, mut c) = compressed(expr);
        truncate(plain_part_mut(&mut c, role), 7);
        assert!(
            matches!(scheme.decompress(&c), Err(CoreError::CorruptParts(_))),
            "{expr} with short {role}"
        );
        assert_visit_agrees(scheme.as_ref(), &c, expr);
    }
}

#[test]
fn payload_length_other_than_n_is_corrupt_parts() {
    for expr in exprs() {
        if matches!(expr, "id" | "const" | "sparse" | "pstep(l=128)") {
            // `id` hands its part back unchecked; for the model-only forms
            // `n` is the only record of the length.
            continue;
        }
        let (scheme, mut c) = compressed(expr);
        for n in [c.n - 1, c.n + 1] {
            c.n = n;
            assert!(
                matches!(scheme.decompress(&c), Err(CoreError::CorruptParts(_))),
                "{expr} with n = {n}: {:?}",
                scheme.decompress(&c).map(|col| col.len())
            );
            assert_visit_agrees(scheme.as_ref(), &c, expr);
        }
    }
    // A run length past the column: rejected before the expansion
    // allocates, whatever the sum of the lengths asks for.
    let rle = parse_scheme("rle").unwrap();
    let mut c = rle.compress(&ColumnData::U64(vec![3; 10])).unwrap();
    for lengths in [vec![1u64 << 40], vec![u64::MAX, 11]] {
        *plain_part_mut(&mut c, "lengths") = ColumnData::U64(lengths);
        let c = from_bytes(&to_bytes(&c)).expect("the frame itself is well formed");
        assert!(matches!(
            rle.decompress(&c),
            Err(CoreError::CorruptParts(_))
        ));
        assert_visit_agrees(rle.as_ref(), &c, "rle, run length past the column");
    }
}
