//! Property-based round-trip tests for the packing kernels.

use lcdc_bitpack::pack::Packed;
use lcdc_bitpack::width::{bits_needed_u64, max_width, width_percentile};
use lcdc_bitpack::zigzag::{zigzag_decode_i64, zigzag_encode_i64};
use lcdc_bitpack::{Widths, BLOCK_LEN, GROUP_LEN};
use proptest::prelude::*;

fn values_at_width(width: u32, max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    let mask = if width == 0 {
        0
    } else if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    prop::collection::vec(any::<u64>().prop_map(move |v| v & mask), 0..max_len)
}

/// The shape of a block-packed column: full-block widths (0..=64), the
/// length (0 for none) and width of a partial last block, and a seed.
type Shape = (Vec<u32>, usize, u32, u64);

fn shapes() -> impl Strategy<Value = Shape> {
    (
        prop::collection::vec(0u32..=64, 0..6),
        0..BLOCK_LEN,
        0u32..=64,
        any::<u64>(),
    )
}

/// A column of `shape`'s blocks, each at exactly its width, behind one
/// lead block whose width in 0..8 brings the full blocks' width sum to
/// `residue` mod 8.
fn blocked_column((drawn, tail, tail_width, seed): &Shape, residue: u32) -> Vec<u64> {
    let lead = (residue + 8 - drawn.iter().sum::<u32>() % 8) % 8;
    let blocks = std::iter::once(lead).chain(drawn.iter().copied());
    column(
        blocks.map(|w| (w, BLOCK_LEN)).chain([(*tail_width, *tail)]),
        *seed,
    )
}

/// Pseudo-random blocks of `(width, len)`, each block's widest value
/// needing exactly its width.
fn column(blocks: impl Iterator<Item = (u32, usize)>, seed: u64) -> Vec<u64> {
    let mut rng = seed;
    let mut values = Vec::new();
    for (width, len) in blocks {
        let mask = if width == 0 {
            0
        } else {
            u64::MAX >> (64 - width)
        };
        let start = values.len();
        values.extend((0..len).map(|_| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng & mask
        }));
        // One value with the top bit set pins the block's width.
        if width > 0 && len > 0 {
            values[start + (rng as usize) % len] |= 1 << (width - 1);
        }
    }
    values
}

proptest! {
    #[test]
    fn flat_pack_round_trips(width in 0u32..=64, seed in any::<u64>()) {
        let mut rng = seed;
        let mask = if width == 0 { 0 } else if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        let values: Vec<u64> = (0..257).map(|_| {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            rng & mask
        }).collect();
        let packed = Packed::pack(&values, width).unwrap();
        prop_assert_eq!(packed.unpack(), values);
    }

    #[test]
    fn flat_pack_arbitrary_values(values in values_at_width(17, 500)) {
        let packed = Packed::pack(&values, 17).unwrap();
        prop_assert_eq!(packed.unpack(), values.clone());
        // Random access agrees with bulk unpack.
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(packed.get(i), Some(v));
        }
    }

    #[test]
    fn minimal_width_is_tight(values in prop::collection::vec(any::<u64>(), 1..200)) {
        let w = max_width(&values);
        // Everything fits at w...
        prop_assert!(Packed::pack(&values, w).is_ok());
        // ...and at least one value fails at w-1 (when w > 0).
        if w > 0 {
            prop_assert!(Packed::pack(&values, w - 1).is_err());
        }
    }

    #[test]
    fn block_pack_round_trips(values in prop::collection::vec(any::<u64>(), 0..700)) {
        let b = Packed::pack_blocks(&values);
        prop_assert_eq!(b.words().len(), b.widths().words(values.len()));
        prop_assert_eq!(b.unpack(), values.clone());
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(b.get(i), Some(v));
        }
    }

    #[test]
    fn block_never_beaten_by_flat_on_payload(values in prop::collection::vec(any::<u64>(), 1..700)) {
        // Per-block widths are at most the global width, so the per-block
        // *payload* (excluding the 1-byte/block header) never exceeds the
        // flat payload.
        let b = Packed::pack_blocks(&values);
        let flat = Packed::pack(&values, max_width(&values)).unwrap();
        let block_payload = 8 * b.words().len();
        let num_blocks = values.len().div_ceil(BLOCK_LEN);
        // Rounding to whole words per block can cost up to 7 bytes/block.
        prop_assert!(block_payload <= flat.payload_bytes() + 8 * num_blocks);
    }

    #[test]
    fn zigzag_round_trips(v in any::<i64>()) {
        prop_assert_eq!(zigzag_decode_i64(zigzag_encode_i64(v)), v);
    }

    #[test]
    fn zigzag_is_monotone_in_magnitude(a in -1_000_000i64..1_000_000, b in -1_000_000i64..1_000_000) {
        if a.unsigned_abs() < b.unsigned_abs() {
            prop_assert!(zigzag_encode_i64(a) < 2 * zigzag_encode_i64(b).max(1));
        }
    }

    #[test]
    fn percentile_width_covers_fraction(values in prop::collection::vec(any::<u64>(), 1..300), num in 0u32..=100) {
        let fraction = num as f64 / 100.0;
        let w = width_percentile(&values, fraction);
        let fitting = values.iter().filter(|&&v| bits_needed_u64(v) <= w).count();
        prop_assert!(fitting as f64 >= fraction * values.len() as f64 - 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_block_reader_agrees(shape in shapes(), width in 0u32..=64) {
        for residue in 0..8 {
            let values = blocked_column(&shape, residue);
            let b = Packed::pack_blocks(&values);
            let Widths::Blocks(widths) = b.widths() else {
                panic!("pack_blocks gave one width");
            };
            let full = values.len() / BLOCK_LEN;
            let sum: u32 = widths[..full].iter().map(|&w| w as u32).sum();
            prop_assert_eq!(sum % 8, residue);
            agrees(&b, &values);
        }
        // One width: the shape's length at `width`, the same readers.
        let values = uniform_column(&shape, width);
        agrees(&Packed::pack(&values, width).unwrap(), &values);
    }

    #[test]
    fn one_width_is_every_block_at_that_width(shape in shapes(), width in 0u32..=64) {
        // Every block's widest value needs exactly `width` bits, so
        // per-block packing picks `width` everywhere and must lay out
        // the very words one-width packing does.
        let values = uniform_column(&shape, width);
        let one = Packed::pack(&values, width).unwrap();
        prop_assert_eq!(one.words(), Packed::pack_blocks(&values).words());
    }
}

/// A column of `shape`'s length (its full blocks plus a lead block,
/// then its partial block) with every block at exactly `width`.
fn uniform_column((drawn, tail, _, seed): &Shape, width: u32) -> Vec<u64> {
    let full = std::iter::repeat_n((width, BLOCK_LEN), drawn.len() + 1);
    column(full.chain([(width, *tail)]), *seed)
}

/// Every reader of `p` yields `values`: `get`, `unpack`, the chunk
/// cursor and a rebuild from its raw parts. The cursor keeps
/// its contract: every chunk is non-empty, lies inside one group of
/// [`GROUP_LEN`] values and starts on a block boundary, except inside
/// the partial block.
fn agrees(p: &Packed, values: &[u64]) {
    prop_assert_eq!(p.words().len(), p.widths().words(values.len()));
    prop_assert_eq!(p.unpack(), values);
    for (i, &v) in values.iter().enumerate() {
        prop_assert_eq!(p.get(i), Some(v));
    }
    prop_assert_eq!(p.get(values.len()), None);
    let partial = values.len() / BLOCK_LEN * BLOCK_LEN;
    let (mut seen, mut broken) = (Vec::<u64>::new(), false);
    p.for_each_chunk(|chunk| {
        let start = seen.len();
        let last = start + chunk.len().max(1) - 1;
        broken |= chunk.is_empty() || start / GROUP_LEN != last / GROUP_LEN;
        broken |= start < partial && start % BLOCK_LEN != 0;
        seen.extend_from_slice(chunk);
    });
    prop_assert!(!broken);
    prop_assert_eq!(&seen, values);
    let back = Packed::from_raw_parts(p.widths().clone(), p.words().to_vec(), values.len());
    prop_assert_eq!(back.as_ref(), Ok(p));
}
