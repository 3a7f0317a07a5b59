//! One segmented, CRC-framed, append-only log. Its frames are those of the
//! storage engine's WAL, its sealed segment files and the router's spool;
//! its segment directory holds the WAL and the spool.
//!
//! ## Frames
//!
//! ```text
//! [payload_len: u32 LE][crc32(payload): u32 LE][payload]
//! ```
//!
//! [`put_frame`] writes one; [`frames`] reads a buffer of them back. The
//! CRC covers the payload. The length is checked against the caller's
//! payload-length range and the end of the buffer, and a frame failing
//! either check is where the *torn tail* starts (a crash mid-append). A
//! frame whose length holds but whose CRC does not is *corrupt* (a bit
//! flipped at rest): the scanner reports it and steps over it by its
//! declared length. The caller chooses what a corrupt frame means — the
//! WAL stops replay there, the spool and the segment files skip it and
//! keep the frames behind it.
//!
//! ## Segment files
//!
//! [`SegmentLog`] owns a directory of `<seq:016x>.<ext>` files (hex-padded,
//! so name order is append order). Opening it hands each file to the
//! caller's decoder, truncates the file to the clean length the decoder
//! returns and deletes the file when that length is zero. Appends go to
//! the active file, created on the first append after a rotation; when the
//! directory has vanished, the log creates it again. A full active file
//! rotates before the next append, with an fsync. So does one whose last
//! write or fsync failed (its *dirty tail*): recovery stops at the torn
//! frame such a failure leaves, so nothing may land behind it. A file
//! whose first write fails holds nothing and is deleted at once, so an
//! append that keeps failing leaves no file behind.

use crate::hash::crc32;
use crate::Result;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};

/// Frame header size: payload length + CRC.
pub const FRAME_HEADER: usize = 8;

/// Appends one frame to `out`: `payload` writes the payload bytes, then
/// the header's length and CRC are patched in front of them. Panics when
/// the payload exceeds `max_payload` bytes.
pub fn put_frame(out: &mut Vec<u8>, max_payload: usize, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    payload(out);
    let len = out.len() - start - FRAME_HEADER;
    assert!(
        len <= max_payload && len <= u32::MAX as usize,
        "a {len}-byte payload overflows its frame"
    );
    let crc = crc32(&out[start + FRAME_HEADER..]);
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    out[start + 4..start + FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
}

/// Scans the frames of `buf` whose payload length lies in `lens`.
pub fn frames(buf: &[u8], lens: RangeInclusive<usize>) -> Frames<'_> {
    Frames { buf, off: 0, lens }
}

/// Iterator over the frames of a buffer (see [`frames`]). Each item is a
/// frame's offset and its payload, or `None` when the CRC fails. It ends
/// at the torn tail: a short header, a length outside the range, or a
/// payload running past the buffer.
pub struct Frames<'a> {
    buf: &'a [u8],
    off: usize,
    lens: RangeInclusive<usize>,
}

impl Frames<'_> {
    /// The offset of the next frame; once the scan has ended, where the
    /// torn tail starts (the buffer length when there is none).
    pub fn offset(&self) -> usize {
        self.off
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = (usize, Option<&'a [u8]>);

    fn next(&mut self) -> Option<Self::Item> {
        let rest = &self.buf[self.off..];
        let header = rest.get(..FRAME_HEADER)?;
        let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if !self.lens.contains(&len) {
            return None;
        }
        let payload = rest.get(FRAME_HEADER..FRAME_HEADER + len)?;
        let at = self.off;
        self.off += FRAME_HEADER + len;
        Some((at, (crc32(payload) == crc).then_some(payload)))
    }
}

/// Deletes the file at `path`; one that is already gone counts as deleted.
pub fn unlink(path: &Path) -> Result<()> {
    match fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e.into()),
        _ => Ok(()),
    }
}

/// A segment file of the log: its sequence number and the bytes it holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Sequence number, the file name's stem.
    pub seq: u64,
    /// Bytes appended (for a recovered file, its clean length).
    pub bytes: u64,
}

struct Active {
    file: File,
    seg: Segment,
    /// A write or fsync failed: the file may end in a torn frame.
    dirty: bool,
}

/// A directory of append-only segment files (see the module docs).
pub struct SegmentLog {
    dir: PathBuf,
    ext: &'static str,
    segment_bytes: u64,
    active: Option<Active>,
    /// Frozen segments, oldest first.
    frozen: Vec<Segment>,
    next_seq: u64,
    fsyncs: u64,
    sync_failures: u64,
}

impl SegmentLog {
    /// Opens (or creates) the log in `dir`. Each `<seq:016x>.<ext>` file is
    /// read, oldest first, and handed to `recover` with its sequence number;
    /// the file is then truncated to the length `recover` returns, or
    /// deleted when that is zero. Other files are left alone.
    pub fn open(
        dir: impl Into<PathBuf>,
        ext: &'static str,
        segment_bytes: u64,
        mut recover: impl FnMut(u64, &[u8]) -> usize,
    ) -> Result<SegmentLog> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut seqs: Vec<u64> = fs::read_dir(&dir)?
            .filter_map(|e| {
                let name = e.ok()?.file_name().into_string().ok()?;
                let stem = name.strip_suffix(ext)?.strip_suffix('.')?;
                if stem.len() != 16 {
                    return None;
                }
                u64::from_str_radix(stem, 16).ok()
            })
            .collect();
        seqs.sort_unstable();
        let mut log = SegmentLog {
            dir,
            ext,
            segment_bytes,
            active: None,
            frozen: Vec::new(),
            next_seq: seqs.last().map_or(0, |s| s + 1),
            fsyncs: 0,
            sync_failures: 0,
        };
        for seq in seqs {
            let path = log.path(seq);
            let data = fs::read(&path)?;
            let clean = recover(seq, &data).min(data.len());
            if clean == 0 {
                fs::remove_file(&path)?;
                continue;
            }
            if clean < data.len() {
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(clean as u64)?;
                f.sync_data()?;
            }
            log.frozen.push(Segment { seq, bytes: clean as u64 });
        }
        Ok(log)
    }

    /// The path of segment `seq`.
    pub fn path(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("{seq:016x}.{}", self.ext))
    }

    /// Appends `bytes` (whole frames) to the active segment and returns its
    /// sequence number. Rotates first when the active segment is full or
    /// its tail is dirty. A failed write leaves the tail dirty, or deletes
    /// the segment when nothing was appended to it yet.
    pub fn append(&mut self, bytes: &[u8]) -> Result<u64> {
        if self.active.as_ref().is_some_and(|a| a.dirty || a.seg.bytes >= self.segment_bytes) {
            self.rotate()?;
        }
        let active = match &mut self.active {
            Some(active) => active,
            None => {
                let seq = self.next_seq;
                let path = self.path(seq);
                let open = || OpenOptions::new().create(true).append(true).open(&path);
                let file = match open() {
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                        fs::create_dir_all(&self.dir)?;
                        open()?
                    }
                    file => file?,
                };
                self.next_seq += 1;
                self.active.insert(Active { file, seg: Segment { seq, bytes: 0 }, dirty: false })
            }
        };
        if let Err(e) = active.file.write_all(bytes) {
            if active.seg.bytes == 0 {
                let seq = active.seg.seq;
                self.active = None;
                let _ = fs::remove_file(self.path(seq));
            } else {
                active.dirty = true;
            }
            return Err(e.into());
        }
        active.seg.bytes += bytes.len() as u64;
        Ok(active.seg.seq)
    }

    /// Fsyncs the active segment. A failure leaves its tail dirty: the
    /// kernel may have dropped the pages, so nothing after them is trusted.
    pub fn sync(&mut self) -> Result<()> {
        let Some(active) = &mut self.active else { return Ok(()) };
        if let Err(e) = active.file.sync_data() {
            active.dirty = true;
            self.sync_failures += 1;
            return Err(e.into());
        }
        self.fsyncs += 1;
        Ok(())
    }

    /// Freezes the active segment with an fsync (an empty one is deleted
    /// instead) and returns the sequence number the next segment gets:
    /// every frozen segment is below it. A segment whose fsync fails is
    /// frozen all the same — its frames are with the OS and replay — and
    /// the error is returned.
    pub fn rotate(&mut self) -> Result<u64> {
        if let Some(active) = self.active.take() {
            if active.seg.bytes == 0 {
                let _ = fs::remove_file(self.path(active.seg.seq));
            } else {
                self.frozen.push(active.seg);
                if let Err(e) = active.file.sync_data() {
                    self.sync_failures += 1;
                    return Err(e.into());
                }
                self.fsyncs += 1;
            }
        }
        Ok(self.next_seq)
    }

    /// Deletes frozen segment `seq` (see [`unlink`]); the log forgets it
    /// only once it is gone.
    pub fn remove(&mut self, seq: u64) -> Result<()> {
        unlink(&self.path(seq))?;
        self.frozen.retain(|s| s.seq != seq);
        Ok(())
    }

    /// Reads segment `seq` whole.
    pub fn read(&self, seq: u64) -> Result<Vec<u8>> {
        Ok(fs::read(self.path(seq))?)
    }

    /// Frozen segments, oldest first.
    pub fn frozen(&self) -> &[Segment] {
        &self.frozen
    }

    /// The segment being appended to, if one is open.
    pub fn active(&self) -> Option<Segment> {
        self.active.as_ref().map(|a| a.seg)
    }

    /// Bytes in every segment, frozen and active.
    pub fn bytes(&self) -> u64 {
        self.frozen.iter().chain(self.active().as_ref()).map(|s| s.bytes).sum()
    }

    /// Successful fsyncs since open.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Failed fsyncs since open.
    pub fn sync_failures(&self) -> u64 {
        self.sync_failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lms-seglog-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn framed(payloads: &[&[u8]]) -> Vec<u8> {
        let mut buf = Vec::new();
        for p in payloads {
            put_frame(&mut buf, usize::MAX, |out| out.extend_from_slice(p));
        }
        buf
    }

    type Scanned<'a> = Vec<(usize, Option<&'a [u8]>)>;

    /// `(offset, payload)` of every frame, and where the torn tail starts.
    fn scan(buf: &[u8], lens: RangeInclusive<usize>) -> (Scanned<'_>, usize) {
        let mut frames = frames(buf, lens);
        let all = frames.by_ref().collect();
        (all, frames.offset())
    }

    #[test]
    fn frames_round_trip_with_offsets() {
        let buf = framed(&[b"alpha", b"", b"gamma delta"]);
        let (all, torn_at) = scan(&buf, 0..=64);
        assert_eq!(
            all,
            [(0, Some(&b"alpha"[..])), (13, Some(&b""[..])), (21, Some(&b"gamma delta"[..]))]
        );
        assert_eq!(torn_at, buf.len());
        // The header is the payload's length and CRC-32, little-endian.
        assert_eq!(buf[..8], [5, 0, 0, 0, 0x6a, 0x39, 0xe0, 0xd0]);
    }

    #[test]
    fn torn_tail_ends_the_scan_at_the_last_whole_frame() {
        let buf = framed(&[b"first", b"second"]);
        for cut in 13..buf.len() {
            let (all, torn_at) = scan(&buf[..cut], 0..=64);
            assert_eq!(all.len(), 1, "cut at {cut}");
            assert_eq!(torn_at, 13, "cut at {cut}");
        }
        // A length outside the caller's range is a torn tail too.
        let (all, torn_at) = scan(&buf, 6..=64);
        assert!(all.is_empty());
        assert_eq!(torn_at, 0);
    }

    #[test]
    fn corrupt_frame_is_reported_and_stepped_over() {
        let mut buf = framed(&[b"first", b"second", b"third"]);
        buf[13 + FRAME_HEADER + 2] ^= 0x10;
        let (all, torn_at) = scan(&buf, 0..=64);
        assert_eq!(all, [(0, Some(&b"first"[..])), (13, None), (27, Some(&b"third"[..]))]);
        assert_eq!(torn_at, buf.len());
    }

    #[test]
    fn recovery_truncates_to_the_decoders_length_and_drops_empty_files() {
        let dir = tmp("recover");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("0000000000000002.log"), b"keep this|torn").unwrap();
        fs::write(dir.join("0000000000000005.log"), b"all torn").unwrap();
        fs::write(dir.join("short.log"), b"not a segment").unwrap();
        fs::write(dir.join("0000000000000007.other"), b"not ours").unwrap();
        let mut seen = Vec::new();
        let log = SegmentLog::open(&dir, "log", 1024, |seq, _| {
            seen.push(seq);
            if seq == 2 {
                9
            } else {
                0
            }
        })
        .unwrap();
        assert_eq!(seen, [2, 5]);
        assert_eq!(log.frozen(), [Segment { seq: 2, bytes: 9 }]);
        assert_eq!(fs::read(log.path(2)).unwrap(), b"keep this");
        assert!(!log.path(5).exists());
        assert!(dir.join("short.log").exists() && dir.join("0000000000000007.other").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotates_when_full_and_numbers_past_every_recovered_file() {
        let dir = tmp("rotate");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("0000000000000003.log"), b"x").unwrap();
        let mut log = SegmentLog::open(&dir, "log", 4, |_, data| data.len()).unwrap();
        assert_eq!(log.append(b"abc").unwrap(), 4, "a fresh segment past the recovered one");
        assert_eq!(log.append(b"de").unwrap(), 4, "not full yet: 3 < 4 bytes");
        assert_eq!(log.append(b"f").unwrap(), 5, "full: rotated before the write");
        assert_eq!(
            log.frozen().iter().map(|s| (s.seq, s.bytes)).collect::<Vec<_>>(),
            [(3, 1), (4, 5)]
        );
        assert_eq!(log.bytes(), 7);
        assert_eq!(log.fsyncs(), 1);
        assert_eq!(log.rotate().unwrap(), 6);
        assert_eq!(log.rotate().unwrap(), 6, "no active segment: nothing to freeze");
        log.remove(4).unwrap();
        assert_eq!(log.frozen().iter().map(|s| s.seq).collect::<Vec<_>>(), [3, 5]);
        assert_eq!(log.read(5).unwrap(), b"f");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_vanished_directory_is_created_again() {
        let dir = tmp("vanished");
        let mut log = SegmentLog::open(&dir, "log", 1024, |_, data| data.len()).unwrap();
        log.append(b"abc").unwrap();
        log.rotate().unwrap();
        fs::remove_dir_all(&dir).unwrap();
        assert_eq!(log.append(b"de").unwrap(), 1);
        assert_eq!(fs::read(log.path(1)).unwrap(), b"de");
        // A frozen segment that went with the directory is gone already.
        log.remove(0).unwrap();
        assert!(log.frozen().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_first_write_leaves_no_file_behind() {
        let dir = tmp("full");
        let mut log = SegmentLog::open(&dir, "log", 1024, |_, data| data.len()).unwrap();
        // A full disk at the next segment's path.
        std::os::unix::fs::symlink("/dev/full", log.path(0)).unwrap();
        let err = log.append(b"abc").unwrap_err();
        assert!(matches!(&err, crate::Error::Io(e) if e.kind() == std::io::ErrorKind::StorageFull));
        assert!(fs::read_dir(&dir).unwrap().next().is_none(), "the failed segment is deleted");
        assert_eq!(log.active(), None);
        assert_eq!(log.append(b"abc").unwrap(), 1, "the next append takes a fresh file");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_empty_active_segment_is_deleted_not_frozen() {
        let dir = tmp("empty");
        let mut log = SegmentLog::open(&dir, "log", 1024, |_, data| data.len()).unwrap();
        log.append(b"").unwrap();
        assert!(log.path(0).exists());
        assert_eq!(log.rotate().unwrap(), 1);
        assert!(log.frozen().is_empty());
        assert!(!log.path(0).exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
