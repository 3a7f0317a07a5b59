//! Time-partitioned segment files: the durable home of sealed blocks.
//!
//! A segment file holds the sealed blocks flushed (or compacted) in one
//! maintenance pass for one time partition. Layout:
//!
//! ```text
//! [magic: b"LMSTSM2\n"]
//! repeated lms_util::seglog frames: [payload_len: u32 LE][crc32(payload): u32 LE][payload]
//! ```
//!
//! Each frame payload is one [`BlockEntry`] — enough metadata to rebuild
//! the owning series in the in-memory index without consulting any other
//! file, followed by the compressed block bytes:
//!
//! ```text
//! [gen: u64][min_ts: i64][max_ts: i64][count: u32]
//! [key_len: u16][series_key][meas_len: u16][measurement]
//! [ntags: u16] ntags * ([klen: u16][key][vlen: u16][value])
//! [field_len: u16][field]
//! [block_len: u32][compressed block bytes]
//! [summary: see below]
//! ```
//!
//! The block's [`Agg`] follows the block bytes, so queries can answer
//! every aggregate (`count`/`sum`/`mean`/`min`/`max`/`stddev`/`first`/
//! `last`) over a fully-covered block without ever decoding it. Its count
//! and first/last timestamps are the entry's `count`, `min_ts` and
//! `max_ts`; the footer holds the rest:
//!
//! ```text
//! [present: u8]                      0 = no aggregate (corrupt block)
//! [numeric: u8][sum: f64][sum_sq: f64][min: f64][max: f64]
//! [first: tagged value][last: tagged value]
//! ```
//!
//! Tagged values reuse the mixed-block tags: `0` float (8-byte LE bits),
//! `1` integer (zigzag varint), `2` bool (1 byte), `3` text (varint
//! length + UTF-8 bytes).
//!
//! Segments are written to a `.tmp` sibling, fsynced, then atomically
//! renamed into place — readers never observe a half-written `.tsm` file,
//! and stray `.tmp` files from a crash are deleted on open. Reads are
//! corruption-tolerant: a frame whose CRC fails is skipped and counted
//! (the frame length lets the scan resynchronize), so one bad sector
//! loses one block, not the rest of the file; only a torn tail — where
//! the framing itself is unreadable — ends the scan.

use crate::agg::Agg;
use crate::block::SealedBlock;
use crate::encode::{get_uvarint, put_uvarint, unzigzag, zigzag};
use lms_lineproto::FieldValue;
use lms_util::seglog;
use lms_util::{Error, Result};
use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

/// File magic: identifies format + version.
pub const MAGIC: &[u8; 8] = b"LMSTSM2\n";

const MAX_PAYLOAD: usize = 256 * 1024 * 1024;

/// The identity of one series: what a segment frame records so the owning
/// series can be rebuilt in the in-memory index from that frame alone.
#[derive(Debug, PartialEq, Eq)]
pub struct SeriesId {
    /// The series key exactly as used by the database shard maps.
    pub series_key: String,
    /// Measurement name.
    pub measurement: String,
    /// Sorted tag pairs.
    pub tags: Vec<(String, String)>,
}

/// One sealed block plus the series and field it belongs to. Every part is
/// shared: the identity with the series (and with every other entry of
/// it), the field name with the column, the block with the column's sealed
/// layer — building, grouping and writing entries copies no bytes.
#[derive(Debug, Clone)]
pub struct BlockEntry {
    /// The owning series.
    pub series: Arc<SeriesId>,
    /// Field name within the series.
    pub field: Arc<str>,
    /// The compressed block.
    pub block: Arc<SealedBlock>,
}

fn put_str16(out: &mut Vec<u8>, s: &str) {
    assert!(s.len() <= u16::MAX as usize, "identifier too long for segment file");
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_value(out: &mut Vec<u8>, v: &FieldValue) {
    match v {
        FieldValue::Float(f) => {
            out.push(0);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        FieldValue::Integer(n) => {
            out.push(1);
            put_uvarint(out, zigzag(*n));
        }
        FieldValue::Boolean(b) => {
            out.push(2);
            out.push(*b as u8);
        }
        FieldValue::Text(s) => {
            out.push(3);
            put_uvarint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
    }
}

/// An aggregate's count and edge timestamps are the entry's own `count`,
/// `min_ts` and `max_ts`, so only the rest is written.
fn put_summary(out: &mut Vec<u8>, summary: Option<&Agg>) {
    match summary {
        Some(Agg {
            numeric, sum, sum_sq, min, max, first: Some((_, first)), last: Some((_, last)), ..
        }) => {
            out.push(1);
            out.push(*numeric as u8);
            for x in [sum, sum_sq, min, max] {
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
            put_value(out, first);
            put_value(out, last);
        }
        _ => out.push(0),
    }
}

fn encode_entry(entry: &BlockEntry, out: &mut Vec<u8>) {
    let b = &entry.block;
    out.extend_from_slice(&b.gen.to_le_bytes());
    out.extend_from_slice(&b.min_ts.to_le_bytes());
    out.extend_from_slice(&b.max_ts.to_le_bytes());
    out.extend_from_slice(&b.count.to_le_bytes());
    let series = &*entry.series;
    put_str16(out, &series.series_key);
    put_str16(out, &series.measurement);
    assert!(series.tags.len() <= u16::MAX as usize);
    out.extend_from_slice(&(series.tags.len() as u16).to_le_bytes());
    for (k, v) in &series.tags {
        put_str16(out, k);
        put_str16(out, v);
    }
    put_str16(out, &entry.field);
    out.extend_from_slice(&(b.bytes().len() as u32).to_le_bytes());
    out.extend_from_slice(b.bytes());
    put_summary(out, b.summary());
}

struct Cursor<'a> {
    buf: &'a [u8],
    off: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.off.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.off..end];
        self.off = end;
        Some(s)
    }

    fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Option<i64> {
        Some(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str16(&mut self) -> Option<String> {
        let len = self.u16()? as usize;
        std::str::from_utf8(self.take(len)?).ok().map(str::to_string)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(u64::from_le_bytes(self.take(8)?.try_into().unwrap())))
    }

    fn uvarint(&mut self) -> Option<u64> {
        let v = get_uvarint(self.buf, &mut self.off)?;
        Some(v)
    }

    fn value(&mut self) -> Option<FieldValue> {
        Some(match self.u8()? {
            0 => FieldValue::Float(f64::from_bits(u64::from_le_bytes(
                self.take(8)?.try_into().unwrap(),
            ))),
            1 => FieldValue::Integer(unzigzag(self.uvarint()?)),
            2 => FieldValue::Boolean(self.u8()? != 0),
            3 => {
                let len = self.uvarint()? as usize;
                FieldValue::Text(std::str::from_utf8(self.take(len)?).ok()?.to_string())
            }
            _ => return None,
        })
    }

    /// The footer aggregate of an entry holding `count` points over
    /// `[min_ts, max_ts]`.
    fn summary(&mut self, count: u32, min_ts: i64, max_ts: i64) -> Option<Option<Agg>> {
        match self.u8()? {
            0 => Some(None),
            1 => Some(Some(Agg {
                count: count.into(),
                numeric: self.u8()? != 0,
                sum: self.f64()?,
                sum_sq: self.f64()?,
                min: self.f64()?,
                max: self.f64()?,
                first: Some((min_ts, self.value()?)),
                last: Some((max_ts, self.value()?)),
            })),
            _ => None,
        }
    }
}

fn decode_entry(payload: &[u8]) -> Option<BlockEntry> {
    let mut c = Cursor { buf: payload, off: 0 };
    let gen = c.u64()?;
    let min_ts = c.i64()?;
    let max_ts = c.i64()?;
    let count = c.u32()?;
    let series_key = c.str16()?;
    let measurement = c.str16()?;
    let ntags = c.u16()? as usize;
    let mut tags = Vec::with_capacity(ntags.min(64));
    for _ in 0..ntags {
        tags.push((c.str16()?, c.str16()?));
    }
    let field = c.str16()?;
    let block_len = c.u32()? as usize;
    let bytes = c.take(block_len)?.to_vec();
    let summary = c.summary(count, min_ts, max_ts)?;
    let block = SealedBlock::from_parts(gen, min_ts, max_ts, count, bytes, summary);
    if c.off != payload.len() {
        return None; // trailing garbage inside a CRC-clean frame
    }
    let series = Arc::new(SeriesId { series_key, measurement, tags });
    Some(BlockEntry { series, field: field.into(), block: Arc::new(block) })
}

/// Writes `entries` to `path` atomically (tmp + fsync + rename). Returns the
/// file size in bytes. A write that fails leaves at most the `.tmp` file,
/// which the next open deletes: the `.tsm` file never appears half-written.
pub fn write_segment(path: &Path, entries: &[&BlockEntry]) -> Result<u64> {
    let mut buf = Vec::with_capacity(4096);
    buf.extend_from_slice(MAGIC);
    for &e in entries {
        seglog::put_frame(&mut buf, MAX_PAYLOAD, |out| encode_entry(e, out));
    }
    let tmp = path.with_extension("tmp");
    {
        let mut f = OpenOptions::new().create(true).write(true).truncate(true).open(&tmp)?;
        f.write_all(&buf)?;
        f.sync_data()?;
    }
    fs::rename(&tmp, path)?;
    Ok(buf.len() as u64)
}

/// Result of scanning one segment file frame by frame.
///
/// A frame whose length header is plausible but whose CRC (or decode)
/// fails is *skipped and counted* — the scan resynchronizes at the next
/// frame boundary, so one bad sector loses one block, not the file's
/// suffix. A short frame or an implausible length means the framing
/// itself is gone; the remainder is reported as a torn tail and the scan
/// stops.
#[derive(Debug, Default)]
pub struct SegmentScan {
    /// Every entry whose frame passed CRC and decoded cleanly.
    pub entries: Vec<BlockEntry>,
    /// Frames with a plausible length but failed CRC or decode.
    pub corrupt_frames: u64,
    /// File offset of each corrupt frame header.
    pub corrupt_offsets: Vec<u64>,
    /// Bytes of unreadable tail (short frame / implausible length).
    pub torn_bytes: u64,
    /// Total file bytes examined (the whole file).
    pub bytes_scanned: u64,
}

impl SegmentScan {
    /// True when every frame verified clean end to end.
    pub fn is_clean(&self) -> bool {
        self.corrupt_frames == 0 && self.torn_bytes == 0
    }
}

fn scan_segment_impl(path: &Path, decode: bool) -> Result<SegmentScan> {
    let buf = fs::read(path)?;
    if !buf.starts_with(MAGIC) {
        return Err(Error::invalid(format!("{}: bad segment magic", path.display())));
    }
    let mut scan = SegmentScan { bytes_scanned: buf.len() as u64, ..SegmentScan::default() };
    let mut frames = seglog::frames(&buf[MAGIC.len()..], 0..=MAX_PAYLOAD);
    for (at, payload) in frames.by_ref() {
        let intact = match payload {
            Some(payload) if decode => {
                decode_entry(payload).map(|e| scan.entries.push(e)).is_some()
            }
            Some(_) => true,
            None => false,
        };
        if !intact {
            scan.corrupt_frames += 1;
            scan.corrupt_offsets.push((MAGIC.len() + at) as u64);
        }
    }
    scan.torn_bytes = (buf.len() - MAGIC.len() - frames.offset()) as u64;
    Ok(scan)
}

/// Scans a segment file, decoding every intact entry and counting what
/// could not be read. A bad magic is an error (the file is not ours).
pub fn scan_segment(path: &Path) -> Result<SegmentScan> {
    scan_segment_impl(path, true)
}

/// CRC-verifies every frame of a segment file without decoding blocks —
/// the cheap integrity pass the scrubber runs. Counters are filled the
/// same as [`scan_segment`]; `entries` stays empty.
pub fn verify_segment(path: &Path) -> Result<SegmentScan> {
    scan_segment_impl(path, false)
}

/// Reads every intact entry from a segment file, skipping (silently, at
/// this API level) corrupt frames — callers who need the corruption
/// counters use [`scan_segment`].
pub fn read_segment(path: &Path) -> Result<Vec<BlockEntry>> {
    Ok(scan_segment(path)?.entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_lineproto::FieldValue;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lms-tsm-seg-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn entry(key: &str, field: &str, gen: u64, ts: std::ops::Range<i64>) -> BlockEntry {
        let points: Vec<(i64, FieldValue)> =
            ts.map(|t| (t, FieldValue::Float(t as f64 * 0.5))).collect();
        BlockEntry {
            series: Arc::new(SeriesId {
                series_key: key.to_string(),
                measurement: "cpu".to_string(),
                tags: vec![("host".to_string(), "n01".to_string())],
            }),
            field: field.into(),
            block: Arc::new(SealedBlock::seal(gen, &points)),
        }
    }

    /// Writes owned entries (the writer takes them by reference).
    fn write(path: &Path, entries: &[BlockEntry]) -> Result<u64> {
        write_segment(path, &entries.iter().collect::<Vec<_>>())
    }

    #[test]
    fn round_trip() {
        let dir = tmp("rt");
        let path = dir.join("seg-0-0000000000000000.tsm");
        let entries =
            vec![entry("cpu,host=n01", "usage", 1, 0..100), entry("cpu,host=n01", "temp", 2, 50..80)];
        let bytes = write(&path, &entries).unwrap();
        assert_eq!(bytes, fs::metadata(&path).unwrap().len());
        let back = read_segment(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].series, entries[0].series);
        assert_eq!(back[0].block.gen, 1);
        assert_eq!(back[0].block.decode(), entries[0].block.decode());
        assert_eq!(&*back[1].field, "temp");
        assert_eq!(back[1].block.decode().len(), 30);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_injection_leaves_no_visible_segment() {
        let dir = tmp("fault");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg-0-0000000000000001.tsm");
        // A full disk at the temp file's path: every write fails ENOSPC.
        std::os::unix::fs::symlink("/dev/full", path.with_extension("tmp")).unwrap();
        match write(&path, &[entry("k", "f", 0, 0..10)]) {
            Err(Error::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::StorageFull, "{e}"),
            other => panic!("the write must fail with ENOSPC, got {other:?}"),
        }
        assert!(!path.exists(), "aborted write must not surface a .tsm file");
        assert!(path.with_extension("tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_frame_is_skipped_and_counted() {
        let dir = tmp("corrupt");
        let path = dir.join("seg-0-0000000000000002.tsm");
        let entries = vec![entry("a", "f", 0, 0..10), entry("b", "f", 1, 0..10)];
        write(&path, &entries).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 4] ^= 0xFF; // clobber the last entry's block bytes
        fs::write(&path, &bytes).unwrap();
        let scan = scan_segment(&path).unwrap();
        assert_eq!(scan.entries.len(), 1);
        assert_eq!(scan.entries[0].series.series_key, "a");
        assert_eq!(scan.corrupt_frames, 1);
        assert_eq!(scan.corrupt_offsets.len(), 1);
        assert_eq!(scan.torn_bytes, 0);
        assert!(!scan.is_clean());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_middle_frame_keeps_the_suffix() {
        let dir = tmp("resync");
        let path = dir.join("seg-0-0000000000000007.tsm");
        let entries =
            vec![entry("a", "f", 0, 0..10), entry("b", "f", 1, 0..10), entry("c", "f", 2, 0..10)];
        write(&path, &entries).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        // Locate the middle frame and flip a payload byte inside it.
        let first_len =
            u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize + seglog::FRAME_HEADER;
        let mid = 8 + first_len + seglog::FRAME_HEADER + 4;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let scan = scan_segment(&path).unwrap();
        assert_eq!(scan.corrupt_frames, 1);
        let keys: Vec<&str> = scan.entries.iter().map(|e| e.series.series_key.as_str()).collect();
        assert_eq!(keys, ["a", "c"], "scan must resynchronize past the bad frame");
        // verify_segment sees the same corruption without decoding.
        let v = verify_segment(&path).unwrap();
        assert_eq!(v.corrupt_frames, 1);
        assert_eq!(v.corrupt_offsets, scan.corrupt_offsets);
        assert!(v.entries.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_is_torn_not_corrupt() {
        let dir = tmp("torn");
        let path = dir.join("seg-0-0000000000000008.tsm");
        let entries = vec![entry("a", "f", 0, 0..10), entry("b", "f", 1, 0..10)];
        write(&path, &entries).unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let scan = scan_segment(&path).unwrap();
        assert_eq!(scan.entries.len(), 1);
        assert_eq!(scan.corrupt_frames, 0);
        assert!(scan.torn_bytes > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn round_trips_summaries() {
        let dir = tmp("sum");
        let path = dir.join("seg-0-0000000000000004.tsm");
        let entries = vec![entry("cpu,host=n01", "usage", 1, 0..100)];
        write(&path, &entries).unwrap();
        let back = read_segment(&path).unwrap();
        let s = back[0].block.summary().expect("footer carries a summary");
        assert_eq!(s, entries[0].block.summary().unwrap());
        assert!(s.numeric);
        // Values are t * 0.5 for t in 0..100.
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 49.5);
        assert_eq!(s.sum, (0..100).map(|t| t as f64 * 0.5).sum::<f64>());
        assert_eq!(s.first, Some((0, FieldValue::Float(0.0))));
        assert_eq!(s.last, Some((99, FieldValue::Float(49.5))));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn text_and_mixed_summaries_survive_the_footer() {
        let dir = tmp("textsum");
        let path = dir.join("seg-0-0000000000000006.tsm");
        let points = vec![
            (10, FieldValue::Text("job start".into())),
            (20, FieldValue::Integer(7)),
            (30, FieldValue::Boolean(true)),
        ];
        let e = BlockEntry {
            series: Arc::new(SeriesId {
                series_key: "events,jobid=9".into(),
                measurement: "events".into(),
                tags: vec![("jobid".into(), "9".into())],
            }),
            field: "text".into(),
            block: Arc::new(SealedBlock::seal(3, &points)),
        };
        write(&path, std::slice::from_ref(&e)).unwrap();
        let back = read_segment(&path).unwrap();
        let s = back[0].block.summary().unwrap();
        assert_eq!(s.first, Some((10, FieldValue::Text("job start".into()))));
        assert_eq!(s.last, Some((30, FieldValue::Boolean(true))));
        assert_eq!(s.count, 3);
        assert!(s.numeric); // integer + boolean are numeric-viewed
        assert_eq!(s.sum, 8.0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_magic_is_an_error() {
        let dir = tmp("magic");
        let path = dir.join("seg-0-0000000000000003.tsm");
        // A foreign file and the retired `LMSTSM1` format fail alike.
        for foreign in [&b"not a segment"[..], b"LMSTSM1\n"] {
            fs::write(&path, foreign).unwrap();
            let err = read_segment(&path).unwrap_err().to_string();
            assert!(err.contains("bad segment magic"), "{err}");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
