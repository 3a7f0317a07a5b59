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

/// Slicing-by-8 tables of the IEEE CRC-32: `T[0]` is the classic bytewise
/// table, and `T[k][b]` is the CRC of byte `b` followed by `k` zero bytes,
/// so eight table loads fold a whole 8-byte word into the register.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// IEEE CRC-32 (the zlib/PNG polynomial) — the integrity check used by
/// every on-disk frame in the stack (spool segments, WAL records, TSM
/// segment blocks). Eight bytes per step (slicing-by-8); the result is
/// the bytewise algorithm's, bit for bit.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
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

    /// The bytewise table CRC that every frame on disk was written with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_equals_the_bytewise_reference() {
        let mut rng = crate::rng::XorShift64::new(0x5eed);
        let data: Vec<u8> = (0..4096).map(|_| rng.next_u64() as u8).collect();
        for len in 0..=257 {
            assert_eq!(crc32(&data[..len]), crc32_bytewise(&data[..len]), "length {len}");
        }
        // Unaligned starts and lengths across the 8-byte steps.
        for _ in 0..2000 {
            let start = rng.below(2048) as usize;
            let len = rng.below(2048) as usize;
            let slice = &data[start..start + len];
            assert_eq!(crc32(slice), crc32_bytewise(slice), "{start}+{len}");
        }
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
