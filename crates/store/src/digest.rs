//! XXH64 — the store's one non-cryptographic hash, shared by the
//! persistence layer's record and manifest checksums, the wire
//! protocol's frame checksums and the logical plan fingerprint.
//!
//! Four independent multiply-rotate lanes consume 32-byte stripes, so
//! the loop runs at memory speed instead of paying one serial multiply
//! per byte. Values are byte-for-byte the published XXH64 (see the
//! vectors in the tests), little-endian on every host.

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn merge_round(acc: u64, lane: u64) -> u64 {
    (acc ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

/// XXH64 of `data` under `seed`.
pub(crate) fn xxh64(data: &[u8], seed: u64) -> u64 {
    let (stripes, tail) = data.as_chunks::<32>();
    let mut h = if stripes.is_empty() {
        seed.wrapping_add(P5)
    } else {
        let mut v = [
            seed.wrapping_add(P1).wrapping_add(P2),
            seed.wrapping_add(P2),
            seed,
            seed.wrapping_sub(P1),
        ];
        for stripe in stripes {
            for (acc, lane) in v.iter_mut().zip(stripe.as_chunks::<8>().0) {
                *acc = round(*acc, u64::from_le_bytes(*lane));
            }
        }
        let h = (v.iter().zip([1, 7, 12, 18]))
            .fold(0u64, |h, (&lane, r)| h.wrapping_add(lane.rotate_left(r)));
        v.iter().fold(h, |h, &lane| merge_round(h, lane))
    };
    h = h.wrapping_add(data.len() as u64);
    let (words, rest) = tail.as_chunks::<8>();
    for word in words {
        h ^= round(0, u64::from_le_bytes(*word));
        h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
    }
    let (halves, bytes) = rest.as_chunks::<4>();
    for half in halves {
        h ^= u64::from(u32::from_le_bytes(*half)).wrapping_mul(P1);
        h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
    }
    for &byte in bytes {
        h ^= u64::from(byte).wrapping_mul(P5);
        h = h.rotate_left(11).wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// The checksum every record, manifest and wire frame carries.
pub(crate) fn checksum(data: &[u8]) -> u64 {
    xxh64(data, 0)
}

/// The body of `data` when its trailing 8 bytes are the little-endian
/// [`checksum`] of everything before them; `None` when `data` is too
/// short to carry one or the checksum disagrees.
pub(crate) fn verified(data: &[u8]) -> Option<&[u8]> {
    let (body, sum) = data.split_last_chunk::<8>()?;
    (checksum(body) == u64::from_le_bytes(*sum)).then_some(body)
}

/// A fingerprint under construction: typed values append a canonical,
/// length-prefixed encoding to a small buffer (so composite encodings
/// stay injective), and [`Digest::finish`] hashes it once.
pub(crate) struct Digest(Vec<u8>);

impl Digest {
    pub(crate) fn new() -> Digest {
        Digest(Vec::with_capacity(128))
    }

    /// A one-byte domain/variant tag.
    pub(crate) fn tag(&mut self, b: u8) {
        self.0.push(b);
    }

    pub(crate) fn usize(&mut self, v: usize) {
        self.0.extend_from_slice(&(v as u64).to_le_bytes());
    }

    pub(crate) fn i128(&mut self, v: i128) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Length-prefixed string, so adjacent strings cannot alias.
    pub(crate) fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.0.extend_from_slice(s.as_bytes());
    }

    pub(crate) fn opt_str(&mut self, s: Option<&str>) {
        match s {
            Some(s) => {
                self.tag(b'+');
                self.str(s);
            }
            None => self.tag(b'-'),
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        checksum(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_known_vectors() {
        // Published XXH64 test vectors.
        assert_eq!(checksum(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(checksum(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(checksum(b"abc"), 0x44BC_2CF5_AD77_0999);
        // 39 bytes: one 32-byte stripe plus a 4-byte and 3 single-byte tails.
        assert_eq!(
            checksum(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
        assert_eq!(xxh64(b"xxhash", 20_141_025), 0xB559_B98D_844E_0635);
    }

    #[test]
    fn digest_equals_one_shot_hash_at_every_tail_length() {
        // 0..=200 bytes runs every stripe count 0..6 against every mix
        // of 8-byte, 4-byte and single-byte tails.
        let data: Vec<u8> = (0..=200u32)
            .map(|i| (i.wrapping_mul(167) >> 3) as u8)
            .collect();
        for len in 0..=data.len() {
            let mut d = Digest::new();
            data[..len].iter().for_each(|&b| d.tag(b));
            assert_eq!(d.finish(), xxh64(&data[..len], 0), "len {len}");
        }
    }

    #[test]
    fn verified_accepts_only_a_matching_trailer() {
        let mut framed = b"body".to_vec();
        framed.extend_from_slice(&checksum(b"body").to_le_bytes());
        assert_eq!(verified(&framed), Some(&b"body"[..]));
        framed[1] ^= 1;
        assert_eq!(verified(&framed), None);
        assert_eq!(verified(&[0; 7]), None);
    }

    #[test]
    fn framing_distinguishes_adjacent_strings() {
        let mut a = Digest::new();
        a.str("ab");
        a.str("c");
        let mut b = Digest::new();
        b.str("a");
        b.str("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
