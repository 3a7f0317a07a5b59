//! # lms-spool
//!
//! A durable, segmented, append-only on-disk spool for the router's
//! delivery path. When the database is unreachable for longer than the
//! retry window, the forwarder spills batches here instead of dropping
//! them; a drainer replays them in order once the database is healthy
//! again. The paper's operational requirement — the router "must keep
//! accepting metrics while the database hiccups" — thus holds without
//! silent data loss.
//!
//! ## On-disk format
//!
//! The spool directory holds segment files named `<seq:016x>.seg` with a
//! strictly increasing sequence number (hex-padded so lexicographic order
//! is replay order). Each segment is a run of length+CRC frames (see
//! [`frame`]); segments rotate at a configurable size and the directory is
//! bounded by a byte cap enforced by evicting whole oldest segments.
//!
//! ## Crash recovery
//!
//! [`Spool::open`] scans the directory, decodes every segment, truncates
//! torn tails (a crash mid-append leaves a half-written frame) and deletes
//! empty segments. A mid-segment frame that fails its CRC (a bit flip at
//! rest) is skipped and counted in [`SpoolStats::corrupt_records`] rather
//! than truncated: the records around it still replay, mirroring the
//! storage engine's segment-quarantine behavior of never amplifying one
//! damaged record into losing a whole file. Replay progress within the
//! head segment is *not*
//! persisted, so a crash between delivery and acknowledgement re-delivers
//! that segment: the spool is an **at-least-once** buffer (idempotent for
//! LMS because a re-written point overwrites the same series+timestamp).

pub mod frame;

pub use frame::Record;

use lms_util::{Error, Result};
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::PathBuf;
use std::sync::Mutex;

/// Spool configuration.
#[derive(Debug, Clone)]
pub struct SpoolConfig {
    /// Directory holding segment files (created if missing).
    pub dir: PathBuf,
    /// Rotate the active segment once it reaches this size.
    pub segment_bytes: usize,
    /// Total on-disk cap; exceeding it evicts whole oldest segments
    /// (clamped to at least two segments' worth).
    pub max_bytes: u64,
    /// `fsync` segment data on rotation (durability/throughput trade-off;
    /// appends are always flushed to the OS).
    pub sync_on_rotate: bool,
}

impl SpoolConfig {
    /// Defaults: 4 MiB segments, 256 MiB cap, fsync on rotate.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        SpoolConfig {
            dir: dir.into(),
            segment_bytes: 4 * 1024 * 1024,
            max_bytes: 256 * 1024 * 1024,
            sync_on_rotate: true,
        }
    }
}

/// Spool counters (monotonic except `pending`/`segments`/`bytes`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpoolStats {
    /// Records ever appended.
    pub appended: u64,
    /// Records replayed and acknowledged.
    pub replayed: u64,
    /// Records lost to cap eviction.
    pub evicted: u64,
    /// Bytes discarded during crash recovery (torn tails — a half-written
    /// frame truncated away, or a tail made unscannable by corruption).
    pub torn_bytes: u64,
    /// Mid-segment frames skipped because their CRC did not verify (a bit
    /// flip at rest). Each skip loses one record; the records around it
    /// keep replaying.
    pub corrupt_records: u64,
    /// Rotation fsyncs that failed (the segment stays replayable — its
    /// frames were already flushed to the OS — but its durability across
    /// a power loss is no longer guaranteed).
    pub sync_failures: u64,
    /// Records currently on disk awaiting replay.
    pub pending: u64,
    /// Segment files currently on disk.
    pub segments: u64,
    /// Bytes currently on disk.
    pub bytes: u64,
}

/// A record handed out by [`Spool::peek`]; pass it back to [`Spool::ack`]
/// after successful delivery.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Target database.
    pub db: String,
    /// Line-protocol batch.
    pub body: String,
    gen: u64,
}

#[derive(Debug)]
struct SegMeta {
    seq: u64,
    path: PathBuf,
    bytes: u64,
    records: u64,
    /// Corrupt frames already counted for this segment — the head decode
    /// re-scans the file, so only *new* corruption increments the counter.
    corrupt: u64,
}

struct Active {
    meta: SegMeta,
    file: File,
}

struct Head {
    meta: SegMeta,
    records: VecDeque<Record>,
    gen: u64,
}

struct Inner {
    cfg: SpoolConfig,
    /// Closed segments awaiting replay, oldest first (excludes `head`).
    closed: VecDeque<SegMeta>,
    /// The oldest segment, decoded for replay.
    head: Option<Head>,
    /// The segment currently being appended to.
    active: Option<Active>,
    next_seq: u64,
    next_gen: u64,
    appended: u64,
    replayed: u64,
    evicted: u64,
    torn_bytes: u64,
    corrupt_records: u64,
    sync_failures: u64,
    scratch: Vec<u8>,
}

/// The durable spill-to-disk spool. All methods take `&self`; a single
/// internal lock serializes writers (forwarder workers) and the reader
/// (the drainer).
pub struct Spool {
    inner: Mutex<Inner>,
}

impl Spool {
    /// Opens (or creates) the spool at `cfg.dir`, recovering existing
    /// segments: torn tails are truncated away, empty segments deleted.
    pub fn open(cfg: SpoolConfig) -> Result<Spool> {
        let mut cfg = cfg;
        cfg.segment_bytes = cfg.segment_bytes.max(4 * 1024);
        cfg.max_bytes = cfg.max_bytes.max(cfg.segment_bytes as u64 * 2);
        std::fs::create_dir_all(&cfg.dir)?;

        let mut segments: Vec<SegMeta> = Vec::new();
        let mut torn_bytes = 0u64;
        let mut corrupt_records = 0u64;
        for entry in std::fs::read_dir(&cfg.dir)? {
            let entry = entry?;
            let path = entry.path();
            let Some(seq) = segment_seq(&path) else { continue };
            let data = std::fs::read(&path)?;
            let out = frame::decode_all(&data);
            corrupt_records += out.corrupt_records;
            if out.clean_len < data.len() {
                torn_bytes += (data.len() - out.clean_len) as u64;
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(out.clean_len as u64)?;
                f.sync_data()?;
            }
            if out.records.is_empty() {
                std::fs::remove_file(&path)?;
                continue;
            }
            segments.push(SegMeta {
                seq,
                path,
                bytes: out.clean_len as u64,
                records: out.records.len() as u64,
                corrupt: out.corrupt_records,
            });
        }
        segments.sort_by_key(|s| s.seq);
        let next_seq = segments.last().map_or(0, |s| s.seq + 1);
        Ok(Spool {
            inner: Mutex::new(Inner {
                cfg,
                closed: segments.into(),
                head: None,
                active: None,
                next_seq,
                next_gen: 0,
                appended: 0,
                replayed: 0,
                evicted: 0,
                torn_bytes,
                corrupt_records,
                sync_failures: 0,
                scratch: Vec::new(),
            }),
        })
    }

    /// Durably appends one batch. Rotates and evicts as configured. A
    /// record one frame cannot hold — a payload over [`frame::MAX_PAYLOAD`]
    /// or a db name over `u16::MAX` bytes — is refused with
    /// `Error::Invalid`.
    pub fn append(&self, db: &str, body: &str) -> Result<()> {
        let payload = frame::encoded_len(db, body) - frame::HEADER_LEN;
        if payload > frame::MAX_PAYLOAD || db.len() > u16::MAX as usize {
            return Err(Error::invalid(format!(
                "a record of {payload} bytes (db name {} bytes) does not fit one spool frame",
                db.len()
            )));
        }
        let inner = &mut *self.inner.lock().expect("spool lock");
        if inner.active.is_none() {
            let seq = inner.next_seq;
            inner.next_seq += 1;
            let path = inner.cfg.dir.join(format!("{seq:016x}.seg"));
            let file = OpenOptions::new().create(true).append(true).open(&path)?;
            inner.active = Some(Active {
                meta: SegMeta { seq, path, bytes: 0, records: 0, corrupt: 0 },
                file,
            });
        }
        let mut buf = std::mem::take(&mut inner.scratch);
        buf.clear();
        frame::encode_record(db, body, &mut buf);
        let active = inner.active.as_mut().expect("just ensured");
        active.file.write_all(&buf)?;
        active.file.flush()?;
        active.meta.bytes += buf.len() as u64;
        active.meta.records += 1;
        inner.scratch = buf;
        inner.appended += 1;
        if active.meta.bytes >= inner.cfg.segment_bytes as u64 {
            // The record is already framed and flushed: a rotation fsync
            // failure must not fail the append, or the caller would count
            // a replayable record as dropped. rotate() keeps the segment
            // accounted and bumps `sync_failures` on error.
            let _ = inner.rotate();
        }
        inner.enforce_cap();
        Ok(())
    }

    /// The oldest unreplayed record, if any. Does not remove it — call
    /// [`ack`](Self::ack) after successful delivery. Rotates the active
    /// segment when it is the only data left, so appends never starve the
    /// reader.
    pub fn peek(&self) -> Option<Entry> {
        let inner = &mut *self.inner.lock().expect("spool lock");
        inner.ensure_head();
        let head = inner.head.as_ref()?;
        let rec = head.records.front()?;
        Some(Entry { db: rec.db.clone(), body: rec.body.clone(), gen: head.gen })
    }

    /// Acknowledges delivery of the record returned by the matching
    /// [`peek`](Self::peek); deletes the head segment once fully replayed.
    /// Stale acknowledgements (the segment was evicted in between) are
    /// ignored.
    pub fn ack(&self, entry: &Entry) {
        let inner = &mut *self.inner.lock().expect("spool lock");
        let Some(head) = inner.head.as_mut() else { return };
        if head.gen != entry.gen || head.records.is_empty() {
            return;
        }
        head.records.pop_front();
        inner.replayed += 1;
        if inner.head.as_ref().is_some_and(|h| h.records.is_empty()) {
            let head = inner.head.take().expect("just checked");
            let _ = std::fs::remove_file(&head.meta.path);
        }
    }

    /// Records awaiting replay.
    pub fn pending(&self) -> u64 {
        self.stats().pending
    }

    /// True when nothing awaits replay.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Current statistics.
    pub fn stats(&self) -> SpoolStats {
        let inner = &*self.inner.lock().expect("spool lock");
        let head_records = inner.head.as_ref().map_or(0, |h| h.records.len() as u64);
        let head_bytes = inner.head.as_ref().map_or(0, |h| h.meta.bytes);
        let closed_records: u64 = inner.closed.iter().map(|s| s.records).sum();
        let closed_bytes: u64 = inner.closed.iter().map(|s| s.bytes).sum();
        let active_records = inner.active.as_ref().map_or(0, |a| a.meta.records);
        let active_bytes = inner.active.as_ref().map_or(0, |a| a.meta.bytes);
        SpoolStats {
            appended: inner.appended,
            replayed: inner.replayed,
            evicted: inner.evicted,
            torn_bytes: inner.torn_bytes,
            corrupt_records: inner.corrupt_records,
            sync_failures: inner.sync_failures,
            pending: head_records + closed_records + active_records,
            segments: inner.head.is_some() as u64
                + inner.closed.len() as u64
                + inner.active.is_some() as u64,
            bytes: head_bytes + closed_bytes + active_bytes,
        }
    }
}

impl Inner {
    /// Closes the active segment, making it available to the reader. The
    /// segment stays accounted (pushed to `closed`) even when the
    /// rotation fsync fails: its frames are already flushed to the OS and
    /// remain replayable now and recoverable after a restart, so dropping
    /// the meta would desynchronize in-memory accounting from the disk.
    fn rotate(&mut self) -> Result<()> {
        let Some(active) = self.active.take() else { return Ok(()) };
        if active.meta.records == 0 {
            let _ = std::fs::remove_file(&active.meta.path);
            return Ok(());
        }
        let synced =
            if self.cfg.sync_on_rotate { active.file.sync_data() } else { Ok(()) };
        self.closed.push_back(active.meta);
        if synced.is_err() {
            self.sync_failures += 1;
        }
        synced.map_err(Into::into)
    }

    /// Loads the oldest segment into `head` for replay.
    fn ensure_head(&mut self) {
        if self.head.is_some() {
            return;
        }
        if self.closed.is_empty() {
            // Reader caught up with the writer: rotate the active segment
            // (if it holds records) so they become replayable. Even a
            // failed rotation fsync leaves the segment in `closed`.
            if self.active.as_ref().is_some_and(|a| a.meta.records > 0) {
                let _ = self.rotate();
            }
        }
        let Some(mut meta) = self.closed.pop_front() else { return };
        let data = std::fs::read(&meta.path).unwrap_or_default();
        let out = frame::decode_all(&data);
        // Decoding short means on-disk damage since the segment was
        // written; surface what survives and account the loss. Corrupt
        // frames are counted as a delta against what this segment already
        // reported at open, so a re-scan does not double-bill them.
        self.torn_bytes += (data.len() as u64).saturating_sub(out.clean_len as u64);
        self.corrupt_records += out.corrupt_records.saturating_sub(meta.corrupt);
        meta.corrupt = out.corrupt_records;
        self.evicted += meta.records.saturating_sub(out.records.len() as u64);
        meta.records = out.records.len() as u64;
        if out.records.is_empty() {
            let _ = std::fs::remove_file(&meta.path);
            // Try the next segment rather than reporting empty.
            return self.ensure_head();
        }
        self.next_gen += 1;
        self.head = Some(Head { meta, records: out.records.into(), gen: self.next_gen });
    }

    /// Evicts whole oldest segments until the cap holds. The active
    /// segment is never evicted (the cap is clamped to ≥ 2 segments).
    fn enforce_cap(&mut self) {
        loop {
            let total = self.head.as_ref().map_or(0, |h| h.meta.bytes)
                + self.closed.iter().map(|s| s.bytes).sum::<u64>()
                + self.active.as_ref().map_or(0, |a| a.meta.bytes);
            if total <= self.cfg.max_bytes {
                return;
            }
            if let Some(head) = self.head.take() {
                self.evicted += head.records.len() as u64;
                let _ = std::fs::remove_file(&head.meta.path);
            } else if let Some(meta) = self.closed.pop_front() {
                self.evicted += meta.records;
                let _ = std::fs::remove_file(&meta.path);
            } else {
                return;
            }
        }
    }
}

/// Parses `<seq:016x>.seg` file names; `None` for anything else.
fn segment_seq(path: &std::path::Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let stem = name.strip_suffix(".seg")?;
    if stem.len() != 16 {
        return None;
    }
    u64::from_str_radix(stem, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmpdir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "lms-spool-{}-{}-{}",
            std::process::id(),
            tag,
            N.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn small(dir: &PathBuf) -> SpoolConfig {
        SpoolConfig { segment_bytes: 0, max_bytes: 0, ..SpoolConfig::new(dir) }
    }

    #[test]
    fn a_record_over_max_payload_is_refused_and_the_spool_keeps_working() {
        let dir = tmpdir("oversized");
        let spool = Spool::open(SpoolConfig::new(&dir)).unwrap();
        let err = spool.append("lms", &"x".repeat(frame::MAX_PAYLOAD)).unwrap_err();
        assert!(matches!(err, Error::Invalid(_)), "{err}");
        assert_eq!(spool.pending(), 0);
        spool.append("lms", "m v=1 1").unwrap();
        let e = spool.peek().unwrap();
        assert_eq!((e.db.as_str(), e.body.as_str()), ("lms", "m v=1 1"));
        spool.ack(&e);
        assert!(spool.peek().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_peek_ack_in_order() {
        let dir = tmpdir("order");
        let spool = Spool::open(SpoolConfig::new(&dir)).unwrap();
        for i in 0..5 {
            spool.append("lms", &format!("m v={i} {i}")).unwrap();
        }
        assert_eq!(spool.pending(), 5);
        for i in 0..5 {
            let e = spool.peek().unwrap();
            assert_eq!(e.body, format!("m v={i} {i}"));
            assert_eq!(e.db, "lms");
            spool.ack(&e);
        }
        assert!(spool.is_empty());
        assert_eq!(spool.stats().replayed, 5);
        // Fully replayed segments are deleted from disk.
        assert_eq!(spool.stats().segments, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn peek_without_ack_repeats_same_record() {
        let dir = tmpdir("peek");
        let spool = Spool::open(SpoolConfig::new(&dir)).unwrap();
        spool.append("lms", "a v=1 1").unwrap();
        spool.append("lms", "b v=2 2").unwrap();
        assert_eq!(spool.peek().unwrap().body, "a v=1 1");
        assert_eq!(spool.peek().unwrap().body, "a v=1 1");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_produces_multiple_segments_and_preserves_order() {
        let dir = tmpdir("rotate");
        // 4 KiB floor on segment size: payloads below make each segment
        // hold a couple of records. Cap stays large so nothing is evicted.
        let spool =
            Spool::open(SpoolConfig { segment_bytes: 0, ..SpoolConfig::new(&dir) }).unwrap();
        let blob = "x".repeat(3000);
        for i in 0..6 {
            spool.append("lms", &format!("{i}:{blob}")).unwrap();
        }
        assert!(spool.stats().segments >= 3, "{:?}", spool.stats());
        for i in 0..6 {
            let e = spool.peek().unwrap();
            assert!(e.body.starts_with(&format!("{i}:")), "record {i} out of order");
            spool.ack(&e);
        }
        assert!(spool.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_replays_after_reopen() {
        let dir = tmpdir("recover");
        {
            let spool = Spool::open(SpoolConfig::new(&dir)).unwrap();
            for i in 0..4 {
                spool.append("db", &format!("m v={i} {i}")).unwrap();
            }
        }
        let spool = Spool::open(SpoolConfig::new(&dir)).unwrap();
        assert_eq!(spool.pending(), 4);
        for i in 0..4 {
            let e = spool.peek().unwrap();
            assert_eq!(e.body, format!("m v={i} {i}"));
            spool.ack(&e);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_truncates_torn_tail() {
        let dir = tmpdir("torn");
        let path;
        {
            let spool = Spool::open(SpoolConfig::new(&dir)).unwrap();
            spool.append("db", "good v=1 1").unwrap();
            let inner = spool.inner.lock().unwrap();
            path = inner.active.as_ref().unwrap().meta.path.clone();
        }
        // Simulate a crash mid-append: garbage half-frame at the tail.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0x55; 11]).unwrap();
        drop(f);

        let spool = Spool::open(SpoolConfig::new(&dir)).unwrap();
        assert_eq!(spool.stats().torn_bytes, 11);
        assert_eq!(spool.pending(), 1);
        let e = spool.peek().unwrap();
        assert_eq!(e.body, "good v=1 1");
        spool.ack(&e);
        assert!(spool.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_skips_and_counts_mid_segment_corruption() {
        let dir = tmpdir("flip");
        let path;
        {
            let spool = Spool::open(SpoolConfig::new(&dir)).unwrap();
            spool.append("db", "a v=1 1").unwrap();
            spool.append("db", "b v=2 2").unwrap();
            spool.append("db", "c v=3 3").unwrap();
            let inner = spool.inner.lock().unwrap();
            path = inner.active.as_ref().unwrap().meta.path.clone();
        }
        // A bit flip at rest inside the middle record's payload.
        let mut data = std::fs::read(&path).unwrap();
        let first_len = frame::encoded_len("db", "a v=1 1");
        data[first_len + frame::HEADER_LEN + 3] ^= 0x01;
        std::fs::write(&path, &data).unwrap();

        let spool = Spool::open(SpoolConfig::new(&dir)).unwrap();
        let s = spool.stats();
        assert_eq!(s.corrupt_records, 1, "{s:?}");
        assert_eq!(s.torn_bytes, 0, "{s:?}");
        assert_eq!(s.pending, 2, "{s:?}");
        // The neighbors replay in order; the re-scan at head load does not
        // double-count the already-reported corruption.
        for body in ["a v=1 1", "c v=3 3"] {
            let e = spool.peek().unwrap();
            assert_eq!(e.body, body);
            spool.ack(&e);
        }
        assert!(spool.is_empty());
        assert_eq!(spool.stats().corrupt_records, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_drops_fully_corrupt_segment() {
        let dir = tmpdir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("0000000000000000.seg"), [0xAB; 64]).unwrap();
        let spool = Spool::open(SpoolConfig::new(&dir)).unwrap();
        assert_eq!(spool.pending(), 0);
        assert_eq!(spool.stats().torn_bytes, 64);
        // The empty (post-truncation) segment is removed.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cap_evicts_oldest_segments() {
        let dir = tmpdir("evict");
        // 4 KiB segments (floor), 8 KiB cap (floor): ~2 records per
        // segment at 3 KiB payloads, at most 2 segments on disk.
        let spool = Spool::open(small(&dir)).unwrap();
        let blob = "y".repeat(3000);
        for i in 0..10 {
            spool.append("lms", &format!("{i}:{blob}")).unwrap();
        }
        let s = spool.stats();
        assert!(s.evicted > 0, "{s:?}");
        assert!(s.bytes <= 8 * 1024, "{s:?}");
        assert_eq!(s.pending + s.evicted, s.appended, "{s:?}");
        // Survivors are the newest records, still in order.
        let first = spool.peek().unwrap();
        let first_idx: usize = first.body.split(':').next().unwrap().parse().unwrap();
        assert!(first_idx > 0, "oldest records were evicted");
        let mut expect = first_idx;
        while let Some(e) = spool.peek() {
            assert!(e.body.starts_with(&format!("{expect}:")));
            spool.ack(&e);
            expect += 1;
        }
        assert_eq!(expect, 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_segment_files_are_ignored() {
        let dir = tmpdir("ignore");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("README"), b"not a segment").unwrap();
        std::fs::write(dir.join("short.seg"), b"x").unwrap();
        let spool = Spool::open(SpoolConfig::new(&dir)).unwrap();
        assert_eq!(spool.pending(), 0);
        spool.append("lms", "m v=1 1").unwrap();
        assert_eq!(spool.pending(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    mod properties {
        use super::*;
        use crate::frame::{decode_all, encode_record, encoded_len};
        use proptest::prelude::*;

        fn record_strategy() -> impl Strategy<Value = (String, String)> {
            (
                proptest::string::string_regex("[a-z_][a-z0-9_]{0,12}").unwrap(),
                proptest::string::string_regex("[ -~\n]{0,64}").unwrap(),
            )
        }

        proptest! {
            /// encode ∘ decode == identity over record sequences.
            #[test]
            fn frame_round_trip(records in proptest::collection::vec(record_strategy(), 0..12)) {
                let mut buf = Vec::new();
                for (db, body) in &records {
                    encode_record(db, body, &mut buf);
                }
                let out = decode_all(&buf);
                prop_assert_eq!(out.clean_len, buf.len());
                prop_assert_eq!(out.records.len(), records.len());
                for (rec, (db, body)) in out.records.iter().zip(&records) {
                    prop_assert_eq!(&rec.db, db);
                    prop_assert_eq!(&rec.body, body);
                }
            }

            /// Truncating at any byte yields the longest intact prefix —
            /// never a panic, never a partial record.
            #[test]
            fn truncated_tail_recovers_prefix(
                records in proptest::collection::vec(record_strategy(), 1..8),
                cut_frac in 0.0f64..1.0,
            ) {
                let mut buf = Vec::new();
                let mut boundaries = vec![0usize];
                for (db, body) in &records {
                    encode_record(db, body, &mut buf);
                    boundaries.push(boundaries.last().unwrap() + encoded_len(db, body));
                }
                let cut = (buf.len() as f64 * cut_frac) as usize;
                let out = decode_all(&buf[..cut]);
                // clean_len is the largest record boundary ≤ cut.
                let expect_n = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
                prop_assert_eq!(out.records.len(), expect_n);
                prop_assert_eq!(out.clean_len, boundaries[expect_n]);
            }

            /// A flipped byte never panics the decoder and never yields a
            /// record that was not written (the CRC bars fabrication); the
            /// frames before the flip always survive, and a skipped frame
            /// is always counted.
            #[test]
            fn corrupted_byte_never_fabricates_or_silently_drops(
                records in proptest::collection::vec(record_strategy(), 1..8),
                pos_frac in 0.0f64..1.0,
                flip in 1u8..255,
            ) {
                let mut buf = Vec::new();
                let mut boundaries = vec![0usize];
                for (db, body) in &records {
                    encode_record(db, body, &mut buf);
                    boundaries.push(boundaries.last().unwrap() + encoded_len(db, body));
                }
                let pos = ((buf.len() - 1) as f64 * pos_frac) as usize;
                buf[pos] ^= flip;
                let out = decode_all(&buf);
                prop_assert!(out.clean_len <= buf.len());
                // Frames entirely before the flip decode untouched, in order.
                let intact = boundaries[1..].iter().filter(|&&b| b <= pos).count();
                prop_assert!(out.records.len() >= intact);
                for (rec, (db, body)) in out.records.iter().take(intact).zip(&records) {
                    prop_assert_eq!(&rec.db, db);
                    prop_assert_eq!(&rec.body, body);
                }
                // Every decoded record was actually written.
                for rec in &out.records {
                    prop_assert!(
                        records.iter().any(|(db, body)| rec.db == *db && rec.body == *body),
                        "fabricated record {rec:?}"
                    );
                }
                // Losses are visible: every written record either decodes,
                // is inside a counted-corrupt region, or sits past the torn
                // point where recovery truncates (torn bytes are accounted
                // by the caller from clean_len).
                if out.clean_len == buf.len() && out.records.len() < records.len() {
                    prop_assert!(out.corrupt_records > 0, "silent loss: {out:?}");
                }
            }

            /// Spool-level: appends survive a reopen in order.
            #[test]
            fn spool_reopen_round_trip(records in proptest::collection::vec(record_strategy(), 1..10)) {
                let dir = tmpdir("prop");
                {
                    let spool = Spool::open(small(&dir)).unwrap();
                    for (db, body) in &records {
                        spool.append(db, body).unwrap();
                    }
                }
                let spool = Spool::open(small(&dir)).unwrap();
                prop_assert_eq!(spool.pending(), records.len() as u64);
                for (db, body) in &records {
                    let e = spool.peek().unwrap();
                    prop_assert_eq!(&e.db, db);
                    prop_assert_eq!(&e.body, body);
                    spool.ack(&e);
                }
                prop_assert!(spool.is_empty());
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}
