//! Immutable sealed blocks: the compressed at-rest form of a column run.
//!
//! When a series' mutable head is flushed, its points are sealed into one
//! [`SealedBlock`] per field: an owned compressed byte payload (see
//! [`crate::encode`]) plus the metadata queries need to skip the block
//! without decoding it (time bounds, point count) and to resolve
//! last-write-wins across overlapping blocks (the generation number).
//!
//! Blocks are shared (`Arc`) between the in-memory column that serves
//! queries and the flush/compaction sessions that write them to segment
//! files — sealing compresses once, and the bytes are never copied again.

use crate::agg::Agg;
use crate::encode::{decode_block, encode_block};
use lms_lineproto::FieldValue;

/// One immutable, compressed run of a field column. Deliberately not
/// `Clone`: holders share it through `Arc`.
#[derive(Debug)]
pub struct SealedBlock {
    /// Monotonic seal generation: among blocks holding the same timestamp,
    /// the highest generation wins (the mutable head outranks all blocks).
    pub gen: u64,
    /// Smallest timestamp in the block.
    pub min_ts: i64,
    /// Largest timestamp in the block.
    pub max_ts: i64,
    /// Number of encoded points.
    pub count: u32,
    bytes: Vec<u8>,
    /// The aggregate of the whole run, computed at seal time; `None` only
    /// for a block whose segment entry recorded none (`present = 0`: a
    /// corrupt payload).
    summary: Option<Agg>,
}

impl SealedBlock {
    /// Seals a timestamp-ascending, unique-timestamp run of points.
    ///
    /// Panics on an empty run (callers seal only non-empty heads).
    pub fn seal(gen: u64, points: &[(i64, FieldValue)]) -> SealedBlock {
        assert!(!points.is_empty(), "cannot seal an empty run");
        SealedBlock {
            gen,
            min_ts: points[0].0,
            max_ts: points[points.len() - 1].0,
            count: points.len() as u32,
            bytes: encode_block(points),
            summary: Agg::of_run(points),
        }
    }

    /// Reconstructs a block from already-encoded bytes and its persisted
    /// aggregate (segment file load).
    pub fn from_parts(
        gen: u64,
        min_ts: i64,
        max_ts: i64,
        count: u32,
        bytes: Vec<u8>,
        summary: Option<Agg>,
    ) -> Self {
        SealedBlock { gen, min_ts, max_ts, count, bytes, summary }
    }

    /// The aggregate of the whole run, when available.
    pub fn summary(&self) -> Option<&Agg> {
        self.summary.as_ref()
    }

    /// The compressed payload.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Compressed size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// True when the block may contain points in `[start, end)`.
    pub fn overlaps(&self, start: i64, end: i64) -> bool {
        self.min_ts < end && self.max_ts >= start
    }

    /// Decompresses the full point run.
    ///
    /// Returns an empty vec if the payload is structurally corrupt — only
    /// reachable past the segment frame CRC, so treated as data loss rather
    /// than a panic.
    pub fn decode(&self) -> Vec<(i64, FieldValue)> {
        decode_block(&self.bytes).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(ts: std::ops::Range<i64>, gen: u64) -> SealedBlock {
        let points: Vec<(i64, FieldValue)> =
            ts.map(|t| (t, FieldValue::Float(t as f64))).collect();
        SealedBlock::seal(gen, &points)
    }

    #[test]
    fn seal_records_bounds_and_count() {
        let b = block(10..20, 3);
        assert_eq!((b.gen, b.min_ts, b.max_ts, b.count), (3, 10, 19, 10));
        assert_eq!(b.decode().len(), 10);
    }

    #[test]
    fn overlap_is_inclusive_of_bounds() {
        let b = block(10..20, 0);
        assert!(b.overlaps(19, 100));
        assert!(b.overlaps(0, 11));
        assert!(b.overlaps(i64::MIN, i64::MAX));
        assert!(!b.overlaps(20, 100)); // [20, ..) excludes max_ts 19
        assert!(!b.overlaps(0, 10)); // [0, 10) excludes min_ts 10
    }

    #[test]
    fn corrupt_bytes_decode_empty() {
        let b = SealedBlock::from_parts(0, 0, 10, 5, vec![0xFF, 0xFF, 0xFF], None);
        assert!(b.decode().is_empty());
    }
}
