//! Fast non-cryptographic hashing.
//!
//! Data-Juicer's deduplicators fingerprint billions of shingles; SipHash (the
//! std default) is needlessly slow for that. This module implements an
//! Fx-style multiply-xor word hasher (the algorithm used inside rustc) plus a
//! seedable 64-bit string hash used to derive the independent MinHash
//! permutations.

use std::hash::{BuildHasherDefault, Hasher};

const SEED64: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fx-style streaming hasher: fast, low-quality-but-sufficient mixing.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED64);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(c);
            self.add_to_hash(u64::from_le_bytes(word));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            // Mix in the remainder length so "a" and "a\0" differ.
            self.add_to_hash(load_partial(rem) ^ (rem.len() as u64));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // Final avalanche (xorshift-multiply) to spread low-entropy inputs.
        let mut h = self.hash;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h
    }
}

/// The 1–7 bytes of `rem` as a little-endian `u64`, zero-padded. Two
/// overlapping loads cover the bytes; where they overlap they carry the
/// same bytes at the same positions, so OR-ing them is exact — and avoids
/// a variable-length copy into a padded buffer.
#[inline]
fn load_partial(rem: &[u8]) -> u64 {
    let n = rem.len();
    if n >= 4 {
        let lo = u32::from_le_bytes([rem[0], rem[1], rem[2], rem[3]]) as u64;
        let hi = u32::from_le_bytes([rem[n - 4], rem[n - 3], rem[n - 2], rem[n - 1]]) as u64;
        lo | hi << (8 * (n - 4))
    } else if n >= 2 {
        let lo = u16::from_le_bytes([rem[0], rem[1]]) as u64;
        let hi = u16::from_le_bytes([rem[n - 2], rem[n - 1]]) as u64;
        lo | hi << (8 * (n - 2))
    } else {
        rem[0] as u64
    }
}

/// `BuildHasher` for `HashMap`/`HashSet` with [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the fast hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with the fast hasher.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// Hash arbitrary bytes to 64 bits with a seed (independent hash families).
#[inline]
pub fn hash64_seeded(bytes: &[u8], seed: u64) -> u64 {
    let mut h = FxHasher { hash: seed };
    h.write(bytes);
    h.finish()
}

/// Hash arbitrary bytes to 64 bits (seed 0).
#[inline]
pub fn hash64(bytes: &[u8]) -> u64 {
    hash64_seeded(bytes, 0)
}

/// Hash a string to 128 bits by combining two independent 64-bit hashes.
/// Used as an exact-duplicate document fingerprint where 64 bits would risk
/// birthday collisions at billion-document scale.
#[inline]
pub fn hash128(bytes: &[u8]) -> u128 {
    let lo = hash64_seeded(bytes, 0x9e37_79b9_7f4a_7c15);
    let hi = hash64_seeded(bytes, 0xc2b2_ae3d_27d4_eb4f);
    ((hi as u128) << 64) | lo as u128
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_seed_sensitive() {
        assert_eq!(hash64(b"hello"), hash64(b"hello"));
        assert_ne!(hash64(b"hello"), hash64(b"hellp"));
        assert_ne!(hash64_seeded(b"hello", 1), hash64_seeded(b"hello", 2));
    }

    #[test]
    fn partial_load_matches_zero_padded_buffer() {
        let bytes: Vec<u8> = (0..7u8).map(|i| 0x80 | (i * 37)).collect();
        for n in 1..=7 {
            let mut buf = [0u8; 8];
            buf[..n].copy_from_slice(&bytes[..n]);
            assert_eq!(
                load_partial(&bytes[..n]),
                u64::from_le_bytes(buf),
                "len {n}"
            );
        }
    }

    #[test]
    fn remainder_length_matters() {
        assert_ne!(hash64(b"a"), hash64(b"a\0"));
        assert_ne!(hash64(b""), hash64(b"\0"));
    }

    #[test]
    fn hash128_combines_independent_halves() {
        let h = hash128(b"doc");
        assert_ne!((h >> 64) as u64, h as u64);
        assert_eq!(h, hash128(b"doc"));
        assert_ne!(hash128(b"doc"), hash128(b"Doc"));
    }

    #[test]
    fn distribution_sanity_low_bits() {
        // 4k sequential keys should spread across 16 buckets roughly evenly.
        let mut buckets = [0usize; 16];
        for i in 0..4096u32 {
            let h = hash64(&i.to_le_bytes());
            buckets[(h & 15) as usize] += 1;
        }
        for &b in &buckets {
            assert!(b > 128, "bucket underfilled: {b}");
        }
    }

    #[test]
    fn fx_map_works() {
        let mut m: FxHashMap<String, i32> = FxHashMap::default();
        m.insert("k".into(), 1);
        assert_eq!(m.get("k"), Some(&1));
    }
}
