//! Fx-style fast hashing.
//!
//! The router's tag store and the database's series index are hot hash maps
//! keyed by short strings (hostnames, measurement names, serialized tag
//! sets). SipHash's HashDoS protection buys nothing there — all keys come
//! from the site's own infrastructure — and costs real time on short keys.
//! `rustc-hash` is not in the offline dependency set, so this module
//! reimplements the same multiply-rotate construction (the one used inside
//! rustc).

use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit Fx hasher: word-at-a-time multiply-rotate.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            // Mix in the length so "a" and "a\0" (same padded word) differ.
            self.add_to_hash(u64::from_le_bytes(buf) ^ (rem.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// Hashes a single value with [`FxHasher`] (convenience for tests/sharding).
pub fn fx_hash<T: std::hash::Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// IEEE CRC-32 (the zlib/PNG polynomial) — the integrity check used by
/// every on-disk frame in the stack (spool segments, WAL records, TSM
/// segment blocks).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(fx_hash("host042"), fx_hash("host042"));
        assert_eq!(fx_hash(&12345u64), fx_hash(&12345u64));
    }

    #[test]
    fn crc32_known_vectors() {
        // Reference values from the zlib crc32() implementation.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"hello"), 0x3610_A686);
    }

    #[test]
    fn distinguishes_close_keys() {
        assert_ne!(fx_hash("host001"), fx_hash("host002"));
        assert_ne!(fx_hash("a"), fx_hash("b"));
        assert_ne!(fx_hash(""), fx_hash("a"));
    }

    #[test]
    fn length_is_mixed_into_tail() {
        // Same bytes once padded — must still hash differently.
        assert_ne!(fx_hash(b"ab".as_slice()), fx_hash(b"ab\0".as_slice()));
    }

    #[test]
    fn map_usable_with_string_keys() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(format!("host{i:03}"), i);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m["host512"], 512);
    }

    #[test]
    fn spread_over_buckets_is_reasonable() {
        // All 4096 hostnames into 64 buckets: no bucket should hold more
        // than 4x the mean — a weak but meaningful anti-degeneracy check.
        let mut buckets = [0u32; 64];
        for i in 0..4096 {
            let h = fx_hash(&format!("node{i:04}"));
            buckets[(h % 64) as usize] += 1;
        }
        let max = buckets.iter().max().unwrap();
        assert!(*max < 4 * (4096 / 64), "worst bucket has {max} entries");
    }
}
