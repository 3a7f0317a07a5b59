//! Time-partitioned segment files: the durable home of sealed blocks.
//!
//! A segment file holds the sealed blocks flushed (or compacted) in one
//! maintenance pass for one time partition. Layout:
//!
//! ```text
//! [magic: b"LMSTSM3\n"]
//! repeated lms_util::seglog frames: [payload_len: u32 LE][crc32(payload): u32 LE][payload]
//! ```
//!
//! Each frame payload is one series' blocks: its identity once — enough to
//! rebuild the series in the in-memory index without consulting any other
//! file — then runs of one field's blocks, each run to the end of the
//! payload:
//!
//! ```text
//! [key_len: u16][series_key][meas_len: u16][measurement]
//! [ntags: u16] ntags * ([klen: u16][key][vlen: u16][value])
//! repeated: [field_len: u16][field][nblocks: varint]
//!           nblocks * ([gen: varint][min_ts: zigzag varint][max_ts - min_ts: varint]
//!                      [count: varint][block_len: varint][compressed block bytes]
//!                      [summary: see below])
//! ```
//!
//! The writer starts a frame where the series changes, and before a block
//! that would take the frame's block bytes past 1 MiB
//! (`FRAME_BLOCK_BYTES`); it never reorders entries, because recovery
//! relies on their order. A series may therefore own several frames of
//! one file — a flush that retries a failed write hands over the blocks
//! it kept before the new ones, so a series can be in both — and the
//! reader takes each frame as it comes.
//!
//! The block's [`Agg`] follows the block bytes, so queries can answer
//! every aggregate (`count`/`sum`/`mean`/`min`/`max`/`stddev`/`first`/
//! `last`) over a fully-covered block without ever decoding it. Its count
//! and first/last timestamps are the block header's `count`, `min_ts` and
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
//! Files of the previous format, `LMSTSM2`, are still read: there each
//! frame holds one block with its own copy of the identity (see
//! `decode_v2_frame`). Nothing writes them any more, and a compaction
//! rewrites their blocks as `LMSTSM3`.
//!
//! Segments are written to a `.tmp` sibling, fsynced, then atomically
//! renamed into place — readers never observe a half-written `.tsm` file,
//! and stray `.tmp` files from a crash are deleted on open. Reads are
//! corruption-tolerant: a frame whose CRC fails is skipped and counted
//! (the frame length lets the scan resynchronize), so one bad sector
//! loses one frame — that series' blocks in that file — not the rest of
//! the file; only a torn tail — where the framing itself is unreadable —
//! ends the scan.

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

/// File magic of the format the writer writes.
pub const MAGIC: &[u8; 8] = b"LMSTSM3\n";

/// File magic of the previous format: one block per frame, read only.
const MAGIC_V2: &[u8; 8] = b"LMSTSM2\n";

const MAX_PAYLOAD: usize = 256 * 1024 * 1024;

/// The compressed block bytes one frame gathers before the writer starts
/// another for the same series: it keeps every frame far below
/// `MAX_PAYLOAD`, and a bad sector's loss small.
const FRAME_BLOCK_BYTES: usize = 1024 * 1024;

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

fn put_series(out: &mut Vec<u8>, series: &SeriesId) {
    put_str16(out, &series.series_key);
    put_str16(out, &series.measurement);
    assert!(series.tags.len() <= u16::MAX as usize);
    out.extend_from_slice(&(series.tags.len() as u16).to_le_bytes());
    for (k, v) in &series.tags {
        put_str16(out, k);
        put_str16(out, v);
    }
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

/// An aggregate's count and edge timestamps are the block's own `count`,
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

/// Encodes one frame: `frame`'s series once, then its runs of one field.
fn encode_frame(frame: &[&BlockEntry], out: &mut Vec<u8>) {
    put_series(out, &frame[0].series);
    for run in frame.chunk_by(|a, b| a.field == b.field) {
        put_str16(out, &run[0].field);
        put_uvarint(out, run.len() as u64);
        for e in run {
            let b = &e.block;
            put_uvarint(out, b.gen);
            put_uvarint(out, zigzag(b.min_ts));
            put_uvarint(out, b.max_ts.wrapping_sub(b.min_ts) as u64);
            put_uvarint(out, b.count.into());
            put_uvarint(out, b.bytes().len() as u64);
            out.extend_from_slice(b.bytes());
            put_summary(out, b.summary());
        }
    }
}

/// Splits `entries` into frames: runs of one series, each cut before the
/// block that would take its block bytes past `FRAME_BLOCK_BYTES`.
fn frames<'e, 'a>(entries: &'e [&'a BlockEntry]) -> impl Iterator<Item = &'e [&'a BlockEntry]> {
    let mut rest = entries;
    std::iter::from_fn(move || {
        let first = rest.first()?;
        let mut bytes = first.block.bytes().len();
        let n = 1 + rest[1..]
            .iter()
            .take_while(|e| {
                bytes += e.block.bytes().len();
                e.series.series_key == first.series.series_key && bytes <= FRAME_BLOCK_BYTES
            })
            .count();
        let (frame, tail) = rest.split_at(n);
        rest = tail;
        Some(frame)
    })
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

    fn at_end(&self) -> bool {
        self.off == self.buf.len()
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

    fn series(&mut self) -> Option<SeriesId> {
        let series_key = self.str16()?;
        let measurement = self.str16()?;
        let ntags = self.u16()? as usize;
        let mut tags = Vec::with_capacity(ntags.min(64));
        for _ in 0..ntags {
            tags.push((self.str16()?, self.str16()?));
        }
        Some(SeriesId { series_key, measurement, tags })
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

    /// The footer aggregate of a block holding `count` points over
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

    /// One block of an `LMSTSM3` field run: its varint header, bytes and
    /// footer.
    fn block(&mut self) -> Option<SealedBlock> {
        let gen = self.uvarint()?;
        let min_ts = unzigzag(self.uvarint()?);
        let max_ts = min_ts.wrapping_add(self.uvarint()? as i64);
        let count = u32::try_from(self.uvarint()?).ok()?;
        let block_len = usize::try_from(self.uvarint()?).ok()?;
        let bytes = self.take(block_len)?.to_vec();
        let summary = self.summary(count, min_ts, max_ts)?;
        Some(SealedBlock::from_parts(gen, min_ts, max_ts, count, bytes, summary))
    }
}

/// Decodes one `LMSTSM3` frame into `out`: every block shares the frame's
/// one series identity, and each run's blocks its one field name.
fn decode_frame(payload: &[u8], out: &mut Vec<BlockEntry>) -> Option<()> {
    let mut c = Cursor { buf: payload, off: 0 };
    let series = Arc::new(c.series()?);
    while !c.at_end() {
        let field: Arc<str> = c.str16()?.into();
        for _ in 0..c.uvarint()? {
            let block = Arc::new(c.block()?);
            out.push(BlockEntry { series: series.clone(), field: field.clone(), block });
        }
    }
    Some(())
}

/// Decodes one `LMSTSM2` frame into `out`: one block behind a fixed-width
/// header and its own copy of the series identity and field name.
fn decode_v2_frame(payload: &[u8], out: &mut Vec<BlockEntry>) -> Option<()> {
    let mut c = Cursor { buf: payload, off: 0 };
    let gen = c.u64()?;
    let min_ts = c.i64()?;
    let max_ts = c.i64()?;
    let count = c.u32()?;
    let series = Arc::new(c.series()?);
    let field = c.str16()?;
    let block_len = c.u32()? as usize;
    let bytes = c.take(block_len)?.to_vec();
    let summary = c.summary(count, min_ts, max_ts)?;
    if !c.at_end() {
        return None; // trailing garbage inside a CRC-clean frame
    }
    let block = SealedBlock::from_parts(gen, min_ts, max_ts, count, bytes, summary);
    out.push(BlockEntry { series, field: field.into(), block: Arc::new(block) });
    Some(())
}

/// Writes `entries` to `path` atomically (tmp + fsync + rename), in the
/// order given (see the module docs for the frames). Returns the file size
/// in bytes. A write that fails leaves at most the `.tmp` file, which the
/// next open deletes: the `.tsm` file never appears half-written.
pub fn write_segment(path: &Path, entries: &[&BlockEntry]) -> Result<u64> {
    let mut buf = Vec::with_capacity(4096);
    buf.extend_from_slice(MAGIC);
    for frame in frames(entries) {
        seglog::put_frame(&mut buf, MAX_PAYLOAD, |out| encode_frame(frame, out));
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
/// frame boundary, so one bad sector loses one frame (one series' blocks
/// in this file), not the file's suffix. A short frame or an implausible
/// length means the framing itself is gone; the remainder is reported as
/// a torn tail and the scan stops.
#[derive(Debug, Default)]
pub struct SegmentScan {
    /// Every block of every frame that passed CRC and decoded cleanly, in
    /// file order; the blocks of one `LMSTSM3` frame share one identity.
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
    let decoder: fn(&[u8], &mut Vec<BlockEntry>) -> Option<()> = match buf.get(..MAGIC.len()) {
        Some(m) if m == MAGIC => decode_frame,
        Some(m) if m == MAGIC_V2 => decode_v2_frame,
        _ => return Err(Error::invalid(format!("{}: bad segment magic", path.display()))),
    };
    let mut scan = SegmentScan { bytes_scanned: buf.len() as u64, ..SegmentScan::default() };
    let mut frames = seglog::frames(&buf[MAGIC.len()..], 0..=MAX_PAYLOAD);
    for (at, payload) in frames.by_ref() {
        let intact = match payload {
            Some(payload) if decode => {
                // A frame decodes whole or not at all.
                let before = scan.entries.len();
                let ok = decoder(payload, &mut scan.entries).is_some();
                if !ok {
                    scan.entries.truncate(before);
                }
                ok
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

/// Scans a segment file of either format, decoding every intact frame and
/// counting what could not be read. A bad magic is an error (the file is
/// not ours).
pub fn scan_segment(path: &Path) -> Result<SegmentScan> {
    scan_segment_impl(path, true)
}

/// CRC-verifies every frame of a segment file without decoding blocks —
/// the cheap integrity pass the scrubber runs. Counters are filled the
/// same as [`scan_segment`]; `entries` stays empty.
pub fn verify_segment(path: &Path) -> Result<SegmentScan> {
    scan_segment_impl(path, false)
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

    fn series(key: &str) -> Arc<SeriesId> {
        Arc::new(SeriesId {
            series_key: key.to_string(),
            measurement: "cpu".to_string(),
            tags: vec![("host".to_string(), "n01".to_string())],
        })
    }

    fn entry(key: &str, field: &str, gen: u64, ts: std::ops::Range<i64>) -> BlockEntry {
        let points: Vec<(i64, FieldValue)> =
            ts.map(|t| (t, FieldValue::Float(t as f64 * 0.5))).collect();
        BlockEntry {
            series: series(key),
            field: field.into(),
            block: Arc::new(SealedBlock::seal(gen, &points)),
        }
    }

    /// Writes owned entries (the writer takes them by reference).
    fn write(path: &Path, entries: &[BlockEntry]) -> Result<u64> {
        write_segment(path, &entries.iter().collect::<Vec<_>>())
    }

    fn read(path: &Path) -> Vec<BlockEntry> {
        scan_segment(path).unwrap().entries
    }

    /// The number of frames in a clean segment file.
    fn frame_count(path: &Path) -> usize {
        let bytes = fs::read(path).unwrap();
        seglog::frames(&bytes[MAGIC.len()..], 0..=MAX_PAYLOAD).count()
    }

    #[test]
    fn round_trip() {
        let dir = tmp("rt");
        let path = dir.join("seg-0-0000000000000000.tsm");
        let entries =
            vec![entry("cpu,host=n01", "usage", 1, 0..100), entry("cpu,host=n01", "temp", 2, 50..80)];
        let bytes = write(&path, &entries).unwrap();
        assert_eq!(bytes, fs::metadata(&path).unwrap().len());
        let back = read(&path);
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].series, entries[0].series);
        assert_eq!(back[0].block.gen, 1);
        assert_eq!(back[0].block.decode(), entries[0].block.decode());
        assert_eq!(&*back[1].field, "temp");
        assert_eq!(back[1].block.decode().len(), 30);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_frame_per_series_in_the_order_given() {
        let dir = tmp("frames");
        let path = dir.join("seg-0-0000000000000009.tsm");
        // Series `a` twice in a row (two fields, the second with two
        // blocks), then `b`, then `a` again as a retried flush re-sends it.
        let entries = vec![
            entry("a", "f", 4, 0..10),
            entry("a", "g", 2, 0..10),
            entry("a", "g", 3, 10..20),
            entry("b", "f", 1, 0..10),
            entry("a", "f", 0, 20..30),
        ];
        write(&path, &entries).unwrap();
        assert_eq!(frame_count(&path), 3);
        let back = read(&path);
        let got: Vec<(&str, &str, u64)> = back
            .iter()
            .map(|e| (e.series.series_key.as_str(), &*e.field, e.block.gen))
            .collect();
        let want = [("a", "f", 4), ("a", "g", 2), ("a", "g", 3), ("b", "f", 1), ("a", "f", 0)];
        assert_eq!(got, want);
        for (got, want) in back.iter().zip(&entries) {
            assert_eq!(got.block.decode(), want.block.decode());
            let span = |b: &SealedBlock| (b.min_ts, b.max_ts, b.count);
            assert_eq!(span(&got.block), span(&want.block));
        }
        // One identity per frame, one field name per run.
        assert!(Arc::ptr_eq(&back[0].series, &back[2].series));
        assert!(!Arc::ptr_eq(&back[0].series, &back[4].series));
        assert!(Arc::ptr_eq(&back[1].field, &back[2].field));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_series_past_the_frame_budget_takes_more_frames() {
        let dir = tmp("budget");
        let path = dir.join("seg-0-000000000000000a.tsm");
        let big = |gen| BlockEntry {
            series: series("a"),
            field: "f".into(),
            block: Arc::new(SealedBlock::from_parts(
                gen,
                0,
                9,
                10,
                vec![gen as u8; FRAME_BLOCK_BYTES / 3 + 1],
                None,
            )),
        };
        write(&path, &[big(0), big(1), big(2)]).unwrap();
        assert_eq!(frame_count(&path), 2, "a frame stops short of the budget");
        let back = read(&path);
        assert_eq!(back.iter().map(|e| e.block.gen).collect::<Vec<_>>(), [0, 1, 2]);
        assert!(back.iter().all(|e| e.block.bytes()[0] == e.block.gen as u8));
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
        let entries = vec![
            entry("a", "f", 0, 0..10),
            entry("b", "f", 1, 0..10),
            entry("b", "g", 2, 0..10),
        ];
        write(&path, &entries).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 4] ^= 0xFF; // clobber the last series' frame
        fs::write(&path, &bytes).unwrap();
        let scan = scan_segment(&path).unwrap();
        // The frame goes whole: both of `b`'s blocks.
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
    fn a_crc_clean_frame_that_does_not_decode_loses_all_its_blocks() {
        let dir = tmp("undecodable");
        let path = dir.join("seg-0-000000000000000b.tsm");
        // Two intact blocks in a run that claims a third, not there.
        let a = entry("a", "f", 0, 0..10);
        let mut payload = Vec::new();
        encode_frame(&[&a, &a], &mut payload);
        let mut identity = Vec::new();
        put_series(&mut identity, &a.series);
        let nblocks = identity.len() + 2 + a.field.len();
        assert_eq!(payload[nblocks], 2);
        payload[nblocks] = 3;
        let mut file = MAGIC.to_vec();
        seglog::put_frame(&mut file, MAX_PAYLOAD, |out| out.extend_from_slice(&payload));
        fs::write(&path, &file).unwrap();
        let scan = scan_segment(&path).unwrap();
        assert!(scan.entries.is_empty(), "a frame decodes whole or not at all");
        assert_eq!(scan.corrupt_frames, 1);
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
        let back = read(&path);
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
        let back = read(&path);
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
            let err = scan_segment(&path).unwrap_err().to_string();
            assert!(err.contains("bad segment magic"), "{err}");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
