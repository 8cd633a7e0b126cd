//! Hashing primitives for the analysis hot path.
//!
//! [`FxHashMap`] is the multiply-rotate hasher used by every per-step map
//! on the exploration hot path. The keys there are small dense integers
//! (variable ids, node ids, packed tuples) for which the default SipHash
//! is pure overhead; the Fx construction (one multiply and a rotate per
//! word, as popularized by the rustc compiler's FxHash) is a measurable
//! share of the copy-on-write path-state speedup. [`mix`] (the
//! `splitmix64` finalizer) and [`fnv64`] are the stable hashes behind the
//! store's fingerprints and the fault plan's coin flips.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A fast, non-cryptographic hasher for small integer-like keys.
///
/// Multiply-rotate over each 8-byte word. Not DoS-resistant — only ever
/// used for in-process analysis tables keyed by ids the analysis itself
/// allocates, never by untrusted input.
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_word(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_word(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_word(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_word(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_word(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_word(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // Final avalanche so low bits (the table index) depend on all input
        // words even for sequential keys.
        mix(self.hash)
    }
}

/// `BuildHasher` for [`FxHasher`].
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`] — drop-in for the hot analysis tables.
pub(crate) type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// `splitmix64` finalizer — the same zero-dependency mixer the corpus
/// generator uses for its PRNG. Good avalanche at two multiplies.
#[inline]
pub(crate) fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over a byte string. Stable across processes and platforms
/// (unlike `std`'s `DefaultHasher`, which documents no such guarantee) —
/// a hard requirement for fingerprints that outlive the process.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fx_hasher_behaves_like_a_map_hasher() {
        // Deterministic, and sensitive to every word and to order.
        let h = |words: &[u64]| {
            let mut hasher = FxHasher::default();
            for &w in words {
                hasher.write_u64(w);
            }
            hasher.finish()
        };
        assert_eq!(h(&[1, 2]), h(&[1, 2]));
        assert_ne!(h(&[1, 2]), h(&[2, 1]));
        assert_ne!(h(&[0]), h(&[1]));
        // Sequential small keys spread across low bits (no trivial
        // clustering when masked down to a table index).
        let idx: std::collections::HashSet<u64> = (0..64u64).map(|k| h(&[k]) & 63).collect();
        assert!(idx.len() > 32, "low-bit spread too poor: {}", idx.len());

        let mut m: FxHashMap<(u8, u64), u64> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert((3, i), i * 2);
        }
        assert_eq!(m.get(&(3, 500)), Some(&1000));
        assert_eq!(m.len(), 1000);
    }
}
