//! Selection bitmaps: the boolean result columns of predicate evaluation.
//!
//! One bit per row, packed into 64-bit words. Predicate pushdown into
//! compressed segments (paper §II-B, "speed up selections") produces
//! these without materialising the decompressed column.

/// A fixed-length packed bitmap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// All-zeros bitmap of `len` bits.
    pub fn new_zeroed(len: usize) -> Self {
        Bitmap {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// All-ones bitmap of `len` bits.
    pub fn new_ones(len: usize) -> Self {
        let mut b = Bitmap {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        b.clear_tail();
        b
    }

    /// Build from a boolean slice.
    pub fn from_bools(bools: &[bool]) -> Self {
        let mut b = Bitmap::new_zeroed(bools.len());
        for (i, &v) in bools.iter().enumerate() {
            if v {
                b.set(i);
            }
        }
        b
    }

    /// Build from packed words, bit `i` of the bitmap being bit `i % 64`
    /// of word `i / 64`: missing words read 0, and bits past `len` are
    /// dropped.
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Self {
        words.resize(len.div_ceil(64), 0);
        let mut b = Bitmap { words, len };
        b.clear_tail();
        b
    }

    /// Build by evaluating a predicate over a column.
    pub fn from_predicate<T, F: Fn(&T) -> bool>(col: &[T], pred: F) -> Self {
        let mut b = Bitmap::new_zeroed(col.len());
        for (i, v) in col.iter().enumerate() {
            if pred(v) {
                b.set(i);
            }
        }
        b
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i >> 6] |= 1u64 << (i & 63);
    }

    /// Clear bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i >> 6] &= !(1u64 << (i & 63));
    }

    /// Read bit `i` (`false` past the end).
    pub fn get(&self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        self.words[i >> 6] >> (i & 63) & 1 == 1
    }

    /// The 64 bits starting at bit `i`, bit `i` lowest; bits past the
    /// end read 0. Lets a caller walk a selection a word at a time from
    /// any offset.
    pub fn bits_at(&self, i: usize) -> u64 {
        let (word, shift) = (i >> 6, i & 63);
        let at = |w: usize| self.words.get(w).copied().unwrap_or(0);
        match shift {
            0 => at(word),
            _ => at(word) >> shift | at(word + 1) << (64 - shift),
        }
    }

    /// Set bits `lo..hi` (clamped to `len`). The run-at-a-time fast path
    /// for RLE-aware predicate evaluation.
    pub fn set_range(&mut self, lo: usize, hi: usize) {
        let hi = hi.min(self.len);
        if lo >= hi {
            return;
        }
        let (first_word, last_word) = (lo >> 6, (hi - 1) >> 6);
        let lo_mask = u64::MAX << (lo & 63);
        let hi_mask = u64::MAX >> (63 - ((hi - 1) & 63));
        if first_word == last_word {
            self.words[first_word] |= lo_mask & hi_mask;
        } else {
            self.words[first_word] |= lo_mask;
            for w in &mut self.words[first_word + 1..last_word] {
                *w = u64::MAX;
            }
            self.words[last_word] |= hi_mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Bitwise AND with another bitmap of the same length.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a & b)
            .collect();
        Bitmap {
            words,
            len: self.len,
        }
    }

    /// Bitwise OR with another bitmap of the same length.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn or(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a | b)
            .collect();
        Bitmap {
            words,
            len: self.len,
        }
    }

    /// Bitwise NOT (within `len`).
    pub fn not(&self) -> Bitmap {
        let mut b = Bitmap {
            words: self.words.iter().map(|w| !w).collect(),
            len: self.len,
        };
        b.clear_tail();
        b
    }

    /// Iterate over the indices of set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let base = wi * 64;
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let tz = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(base + tz)
            })
        })
    }

    /// Materialise the set-bit indices as a selection vector.
    pub fn to_selection_vector(&self) -> Vec<usize> {
        self.iter_ones().collect()
    }

    fn clear_tail(&mut self) {
        let tail_bits = self.len & 63;
        if tail_bits != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= u64::MAX >> (64 - tail_bits);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_in_and_out_at_any_offset() {
        let bools: Vec<bool> = (0..150).map(|i| i % 3 == 0 || i == 149).collect();
        let b = Bitmap::from_bools(&bools);
        for i in [0, 1, 63, 64, 65, 100, 149, 150, 400] {
            let want = (0..64)
                .filter(|&k| bools.get(i + k) == Some(&true))
                .fold(0u64, |w, k| w | 1 << k);
            assert_eq!(b.bits_at(i), want, "offset {i}");
        }
        let words = vec![b.bits_at(0), b.bits_at(64), b.bits_at(128) | !0 << 22];
        assert_eq!(Bitmap::from_words(words, 150), b, "bits past len dropped");
        let first_word = Bitmap::from_bools(&(0..70).map(|i| i < 64).collect::<Vec<_>>());
        assert_eq!(Bitmap::from_words(vec![u64::MAX], 70), first_word);
    }

    #[test]
    fn set_get_clear() {
        let mut b = Bitmap::new_zeroed(100);
        assert!(!b.get(63));
        b.set(63);
        b.set(64);
        b.set(99);
        assert!(b.get(63) && b.get(64) && b.get(99));
        b.clear(64);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    fn ones_respects_tail() {
        let b = Bitmap::new_ones(70);
        assert_eq!(b.count_ones(), 70);
        assert!(!b.get(70));
        assert!(!b.get(1000));
    }

    #[test]
    fn from_bools_round_trip() {
        let bools = [true, false, true, true, false];
        let b = Bitmap::from_bools(&bools);
        for (i, &v) in bools.iter().enumerate() {
            assert_eq!(b.get(i), v);
        }
    }

    #[test]
    fn predicate_construction() {
        let col = [5u32, 10, 15, 20];
        let b = Bitmap::from_predicate(&col, |&v| (10..20).contains(&v));
        assert_eq!(b.to_selection_vector(), vec![1, 2]);
    }

    #[test]
    fn set_range_within_one_word() {
        let mut b = Bitmap::new_zeroed(64);
        b.set_range(3, 7);
        assert_eq!(b.to_selection_vector(), vec![3, 4, 5, 6]);
    }

    #[test]
    fn set_range_across_words() {
        let mut b = Bitmap::new_zeroed(200);
        b.set_range(60, 135);
        assert_eq!(b.count_ones(), 75);
        assert!(b.get(60) && b.get(134));
        assert!(!b.get(59) && !b.get(135));
    }

    #[test]
    fn set_range_clamps_and_ignores_empty() {
        let mut b = Bitmap::new_zeroed(10);
        b.set_range(8, 100);
        assert_eq!(b.count_ones(), 2);
        b.set_range(5, 5);
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    fn boolean_algebra() {
        let a = Bitmap::from_bools(&[true, true, false, false]);
        let b = Bitmap::from_bools(&[true, false, true, false]);
        assert_eq!(a.and(&b).to_selection_vector(), vec![0]);
        assert_eq!(a.or(&b).to_selection_vector(), vec![0, 1, 2]);
        assert_eq!(a.not().to_selection_vector(), vec![2, 3]);
    }

    #[test]
    fn not_does_not_leak_past_len() {
        let b = Bitmap::new_zeroed(3).not();
        assert_eq!(b.count_ones(), 3);
    }

    #[test]
    fn iter_ones_matches_gets() {
        let mut b = Bitmap::new_zeroed(300);
        for i in [0usize, 1, 63, 64, 127, 128, 299] {
            b.set(i);
        }
        assert_eq!(b.to_selection_vector(), vec![0, 1, 63, 64, 127, 128, 299]);
    }
}
