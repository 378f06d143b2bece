//! A deterministic multiplicative hasher for the simulator's
//! integer-keyed maps.
//!
//! Every hot-path map in the reproduction is keyed by a page number, a
//! frame id or a raw 64-bit store key that the simulator generated
//! itself, so the collision resistance `std`'s SipHash buys is never
//! used, and its per-process random seed only makes iteration order
//! differ between runs. [`FastHasher`] is one multiply per word plus a
//! fold of the product's high half into its low half — external keys
//! carry a constant 12-bit partition in their low bits, and a bare
//! multiply would leave the table's bucket bits constant with them.
//!
//! Do not use it for keys that arrive from outside the program.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 / φ, the Fibonacci-hashing multiplier.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// The hasher behind [`FastMap`] and [`FastSet`]: a pure function of the
/// key, identical in every process.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// `BuildHasher` for [`FastHasher`] (stateless, so maps built with it
/// hash identically everywhere).
pub(crate) type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` over [`FastHasher`]; construct with `FastMap::default()`.
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// A `HashSet` over [`FastHasher`]; construct with `FastSet::default()`.
pub type FastSet<K> = HashSet<K, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: T) -> u64 {
        FastBuildHasher::default().hash_one(value)
    }

    #[test]
    fn hash_is_a_pure_function_of_the_key() {
        // Pinned values: changing the multiplier or the fold is a
        // conscious re-baseline, not an accident.
        assert_eq!(hash_of(0u64), 0);
        assert_eq!(hash_of(1u64), 0x9E37_79B9_E17D_05AC);
        assert_eq!(hash_of(42u64), 0xF519_F86E_1721_A31C);
        assert_eq!(hash_of(0x1002u64), 0xB40A_8B67_125C_C34D);
        assert_eq!(hash_of(7u16), hash_of(7u64));
        assert_eq!(hash_of((1u64, 2u64)), 0x6A34_B9AB_56C9_CD2E);
        assert_eq!(hash_of("vm-3"), hash_of("vm-3"));
        assert_ne!(hash_of("vm-3"), hash_of("vm-4"));
    }

    #[test]
    fn keys_differing_only_above_the_partition_bits_spread_over_buckets() {
        // One VM's store keys share their low 12 bits; the low bits of
        // the hash pick the bucket, so they must not be shared too.
        let mut low_bits = FastSet::default();
        for vpn in 0..4096u64 {
            low_bits.insert(hash_of((vpn << 12) | 7) & 0xFFF);
        }
        assert!(low_bits.len() > 2048, "only {} buckets", low_bits.len());
    }

    #[test]
    fn fast_map_behaves_like_a_map() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        for k in 0..1000 {
            m.insert(k, k * 2);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&500), Some(&1000));
        assert_eq!(m.remove(&500), Some(1000));
        assert!(!m.contains_key(&500));
    }
}
