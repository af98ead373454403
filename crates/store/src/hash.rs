//! The sink tables' one hasher: a folded-multiply integer hash, seeded
//! once per process.
//!
//! Every hash table a sink keeps — group-by groups, the distinct set,
//! join pair counts and build-side histograms — is keyed by integers
//! the sinks have already widened to `i128`. std's SipHash spends most
//! of its time on those 16 bytes defending against a flood the key type
//! cannot even express; two 64×64→128 multiplies, each folded back to 64
//! bits, mix the same bits in a few cycles. Results are sorted at
//! render, so iteration order is unobservable.
//!
//! The hash is **seeded** because `lcdc serve` ingests client-chosen
//! keys: with a fixed multiplier anyone can precompute keys that share
//! a bucket and turn every probe into a list walk. Both seed words are
//! drawn once per process from std's `RandomState`, so colliding keys
//! cannot be prepared ahead of the process they are aimed at (the tests
//! below build such a set against one seed and watch it scatter under
//! another).

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A hash map keyed by integers, on the seeded folded-multiply hasher.
pub(crate) type IntMap<K, V> = HashMap<K, V, IntHashState>;
/// The set form of [`IntMap`].
pub(crate) type IntSet<K> = HashSet<K, IntHashState>;

/// The two seed words of an [`IntHasher`]. `Default` is the process
/// seed, so `IntMap::default()` is the ordinary constructor.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IntHashState {
    acc: u64,
    fold: u64,
}

impl Default for IntHashState {
    fn default() -> Self {
        static PROCESS: OnceLock<IntHashState> = OnceLock::new();
        #[cfg(test)]
        if let Some(state) = tests::OVERRIDE.with(|seed| seed.get()) {
            return state;
        }
        *PROCESS.get_or_init(|| {
            let word = || RandomState::new().build_hasher().finish();
            IntHashState {
                acc: word(),
                fold: word(),
            }
        })
    }
}

impl BuildHasher for IntHashState {
    type Hasher = IntHasher;

    fn build_hasher(&self) -> IntHasher {
        IntHasher {
            acc: self.acc,
            fold: self.fold,
        }
    }
}

/// Multiply to 128 bits and xor the halves: every input bit reaches
/// both the low bits (the bucket index) and the high bits (the tag).
fn folded_multiply(a: u64, b: u64) -> u64 {
    let product = a as u128 * b as u128;
    product as u64 ^ (product >> 64) as u64
}

/// See the module doc. A 128-bit key is one seeded multiply (`low ^
/// acc` by `high ^ fold`), narrower integers one each; `finish` folds
/// once more by a fixed odd constant, which is what spreads sequential
/// and power-of-two-strided keys over both ends of the word (the
/// seeded multiply alone leaves 13 of 4096 sequential keys in one
/// bucket of 8192 under the test seeds; with the second, 6).
#[derive(Debug, Clone, Copy)]
pub(crate) struct IntHasher {
    acc: u64,
    fold: u64,
}

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        folded_multiply(self.acc, 0x9e37_79b9_7f4a_7c15)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.acc = folded_multiply(self.acc ^ v, self.fold);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_u128(&mut self, v: u128) {
        self.acc = folded_multiply(v as u64 ^ self.acc, (v >> 64) as u64 ^ self.fold);
    }

    fn write_i128(&mut self, v: i128) {
        self.write_u128(v as u128);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Agg, QueryBuilder};
    use crate::schema::TableSchema;
    use crate::segment::CompressionPolicy;
    use crate::table::Table;
    use lcdc_core::{ColumnData, DType};
    use std::cell::Cell;
    use std::sync::Arc;

    thread_local! {
        /// A seed `IntHashState::default()` returns on this thread
        /// instead of the process seed (see [`with_seed`]).
        pub(super) static OVERRIDE: Cell<Option<IntHashState>> = const { Cell::new(None) };
    }

    /// Run `f` with every table this thread creates seeded by `state`.
    fn with_seed<R>(state: IntHashState, f: impl FnOnce() -> R) -> R {
        OVERRIDE.with(|seed| seed.set(Some(state)));
        let out = f();
        OVERRIDE.with(|seed| seed.set(None));
        out
    }

    const SEED_A: IntHashState = IntHashState {
        acc: 0x243f_6a88_85a3_08d3,
        fold: 0x1319_8a2e_0370_7344,
    };
    const SEED_B: IntHashState = IntHashState {
        acc: 0xa409_3822_299f_31d0,
        fold: 0x082e_fa98_ec4e_6c89,
    };

    /// Hashbrown's two uses of a hash for `keys` in a table sized for
    /// them: the most keys sharing one of `2 * len` buckets (low bits)
    /// and the most keys sharing one 7-bit tag (high bits).
    fn worst_bucket_and_tag(state: IntHashState, keys: &[i128]) -> (usize, usize) {
        let buckets = (2 * keys.len()).next_power_of_two();
        let mut bucket_load = vec![0usize; buckets];
        let mut tag_load = [0usize; 128];
        for key in keys {
            let hash = state.hash_one(key);
            bucket_load[hash as usize & (buckets - 1)] += 1;
            tag_load[(hash >> 57) as usize] += 1;
        }
        (
            bucket_load.into_iter().max().unwrap_or(0),
            tag_load.into_iter().max().unwrap_or(0),
        )
    }

    #[test]
    fn explicit_seeds_are_deterministic_and_distinct() {
        let state = |acc, fold| IntHashState { acc, fold };
        let a = state(1, 2);
        assert_eq!(a.hash_one(77i128), state(1, 2).hash_one(77i128));
        assert_ne!(a.hash_one(77i128), state(1, 3).hash_one(77i128));
        assert_ne!(a.hash_one(77i128), a.hash_one(78i128));
        // The process seed is drawn once: two default states agree.
        let (p, q) = (IntHashState::default(), IntHashState::default());
        assert_eq!(p.hash_one((3usize, 4usize)), q.hash_one((3usize, 4usize)));
    }

    /// 4096 keys of each awkward shape land in an 8192-bucket table
    /// with no bucket holding more than 8 keys and no 7-bit tag more
    /// than 64 (a uniform hash puts ~6 and ~50 there).
    #[test]
    fn awkward_key_shapes_spread_over_buckets_and_tags() {
        type Shape = fn(i128) -> i128;
        let shapes: [(&str, Shape); 5] = [
            ("high 64 bits only", |i| i << 64),
            ("sequential", |i| i),
            ("negative sequential", |i| -i),
            ("multiples of 2^32", |i| i << 32),
            ("sparse 40-bit part ids", |i| {
                (i << 28) | ((i * 0x9e37_79b9) & 0x0fff_ffff)
            }),
        ];
        for (name, shape) in shapes {
            let keys: Vec<i128> = (0..4096).map(shape).collect();
            for state in [SEED_A, SEED_B] {
                let (bucket, tag) = worst_bucket_and_tag(state, &keys);
                assert!(bucket <= 8, "{name}: {bucket} keys in one bucket");
                assert!(tag <= 64, "{name}: {tag} keys under one tag");
            }
        }
    }

    /// The hash-flooding argument for seeding: 2^20 keys built to
    /// collide under seed A (its `fold` word cancels their high half,
    /// so every product is zero) are ordinary keys under seed B.
    #[test]
    fn keys_colliding_under_one_seed_scatter_under_another() {
        let keys: Vec<i128> = (0..1i128 << 20)
            .map(|low| (SEED_A.fold as i128) << 64 | low)
            .collect();
        let first = SEED_A.hash_one(keys[0]);
        assert!(keys.iter().all(|key| SEED_A.hash_one(key) == first));
        let (bucket, _) = worst_bucket_and_tag(SEED_B, &keys);
        assert!(bucket <= 12, "{bucket} keys in one bucket under seed B");
        // And a real table under seed B takes them without degrading.
        let mut set: IntSet<i128> = IntSet::with_hasher(SEED_B);
        set.extend(keys.iter().copied());
        assert_eq!(set.len(), keys.len());
    }

    #[test]
    fn query_answers_do_not_depend_on_the_seed() {
        let n = 20_000u64;
        let schema = TableSchema::new(&[("k", DType::U64), ("v", DType::I64)]);
        let table = Arc::new(
            Table::build(
                schema,
                &[
                    ColumnData::U64((0..n).map(|i| ((i * i) % 977) << 20).collect()),
                    ColumnData::I64((0..n as i64).map(|i| i % 101 - 50).collect()),
                ],
                &[
                    CompressionPolicy::Fixed("dict[codes=ns]".into()),
                    CompressionPolicy::Fixed("ns_zz".into()),
                ],
                4096,
            )
            .unwrap(),
        );
        let run = |state| {
            with_seed(state, || {
                let scan = || QueryBuilder::scan(&table);
                [
                    scan()
                        .group_by("k")
                        .aggregate(&[Agg::Sum("v"), Agg::Min("v")])
                        .execute(),
                    scan()
                        .group_by("v")
                        .aggregate(&[Agg::Count])
                        .execute_naive(),
                    scan().distinct("k").execute(),
                    scan().join("self", Arc::clone(&table), "k").execute(),
                ]
                .map(|result| result.unwrap().rows)
            })
        };
        assert_eq!(run(SEED_A), run(SEED_B));
    }
}
