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
//! The spool directory is a [`SegmentLog`]: segment files named
//! `<seq:016x>.seg`, each a run of length+CRC frames holding one record
//! apiece (see [`frame`]). Segments rotate at a configurable size, with an
//! fsync, and the directory is bounded by a byte cap enforced by evicting
//! whole oldest segments.
//!
//! ## Crash recovery
//!
//! [`Spool::open`] decodes every segment, truncates torn tails (a crash
//! mid-append leaves a half-written frame) and deletes segments left with
//! no record. A mid-segment frame that fails its CRC (a bit flip at rest)
//! is skipped and counted in [`SpoolStats::corrupt_records`] rather than
//! truncated: the records around it still replay, mirroring the storage
//! engine's segment-quarantine behavior of never amplifying one damaged
//! record into losing a whole file. An append whose write fails leaves
//! the segment's tail dirty, and the next append starts a new segment, so
//! no later record lands behind the torn frame. Replay progress within
//! the head segment is *not* persisted, so a crash between delivery and
//! acknowledgement re-delivers that segment: the spool is an
//! **at-least-once** buffer (idempotent for LMS because a re-written point
//! overwrites the same series+timestamp).

pub mod frame;

pub use frame::Record;

use lms_util::seglog::SegmentLog;
use lms_util::{Error, Result};
use std::collections::{BTreeMap, VecDeque};
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
}

impl SpoolConfig {
    /// Defaults: 4 MiB segments, 256 MiB cap.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        SpoolConfig {
            dir: dir.into(),
            segment_bytes: 4 * 1024 * 1024,
            max_bytes: 256 * 1024 * 1024,
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
    /// Segment fsyncs that failed (the segment stays replayable — its
    /// frames were already handed to the OS — but its durability across a
    /// power loss is no longer guaranteed).
    pub sync_failures: u64,
    /// Records currently on disk awaiting replay.
    pub pending: u64,
    /// Segment files currently on disk.
    pub segments: u64,
    /// Bytes currently on disk.
    pub bytes: u64,
}

/// A run of records handed out by [`Spool::peek`]; pass it back to
/// [`Spool::ack`] after successful delivery.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Target database of every record in the run.
    pub db: String,
    /// The run's line-protocol batches, joined by newlines.
    pub body: String,
    /// Records joined into `body`.
    pub records: u64,
    gen: u64,
}

/// What the spool knows of a segment awaiting replay.
#[derive(Debug, Default)]
struct SegRecords {
    records: u64,
    /// Corrupt frames already counted for this segment — the head decode
    /// re-scans the file, so only *new* corruption increments the counter.
    corrupt: u64,
}

/// The oldest segment, decoded for replay.
struct Head {
    seq: u64,
    records: VecDeque<Record>,
    gen: u64,
}

struct Inner {
    max_bytes: u64,
    log: SegmentLog,
    /// Every segment awaiting replay except the head, by sequence number.
    waiting: BTreeMap<u64, SegRecords>,
    head: Option<Head>,
    next_gen: u64,
    appended: u64,
    replayed: u64,
    evicted: u64,
    torn_bytes: u64,
    corrupt_records: u64,
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
        let segment_bytes = cfg.segment_bytes.max(4 * 1024) as u64;
        let mut waiting = BTreeMap::new();
        let (mut torn_bytes, mut corrupt_records) = (0, 0);
        let log = SegmentLog::open(cfg.dir, "seg", segment_bytes, |seq, data| {
            let out = frame::decode_segment(data);
            torn_bytes += (data.len() - out.clean_len) as u64;
            corrupt_records += out.corrupt_records;
            if out.records.is_empty() {
                return 0;
            }
            let records = out.records.len() as u64;
            waiting.insert(seq, SegRecords { records, corrupt: out.corrupt_records });
            out.clean_len
        })?;
        Ok(Spool {
            inner: Mutex::new(Inner {
                max_bytes: cfg.max_bytes.max(segment_bytes * 2),
                log,
                waiting,
                head: None,
                next_gen: 0,
                appended: 0,
                replayed: 0,
                evicted: 0,
                torn_bytes,
                corrupt_records,
                scratch: Vec::new(),
            }),
        })
    }

    /// Durably appends one batch. Rotates and evicts as configured. A
    /// record one frame cannot hold — a payload over [`frame::MAX_PAYLOAD`]
    /// or a db name over `u16::MAX` bytes — is refused with
    /// `Error::Invalid`.
    pub fn append(&self, db: &str, body: &str) -> Result<()> {
        let payload = 2 + db.len() + body.len();
        if payload > frame::MAX_PAYLOAD || db.len() > u16::MAX as usize {
            return Err(Error::invalid(format!(
                "a record of {payload} bytes (db name {} bytes) does not fit one spool frame",
                db.len()
            )));
        }
        let inner = &mut *self.inner.lock().expect("spool lock");
        let mut buf = std::mem::take(&mut inner.scratch);
        buf.clear();
        frame::encode_record(db, body, &mut buf);
        let written = inner.log.append(&buf);
        inner.scratch = buf;
        inner.waiting.entry(written?).or_default().records += 1;
        inner.appended += 1;
        inner.enforce_cap();
        Ok(())
    }

    /// The oldest unreplayed records as one batch: the head segment's next
    /// run of consecutive records for one database, joined while the body
    /// stays within `max_bytes` (`0`: one record). Does not remove them —
    /// call [`ack`](Self::ack) after successful delivery. Rotates the
    /// active segment when it is the only data left, so appends never
    /// starve the reader.
    pub fn peek(&self, max_bytes: usize) -> Option<Entry> {
        let inner = &mut *self.inner.lock().expect("spool lock");
        inner.ensure_head();
        let head = inner.head.as_ref()?;
        let mut run = head.records.iter();
        let first = run.next()?;
        let (db, mut body) = (first.db.clone(), first.body.clone());
        let mut records = 1;
        for rec in run.take_while(|rec| rec.db == db) {
            if body.len() + 1 + rec.body.len() > max_bytes {
                break;
            }
            body.push('\n');
            body.push_str(&rec.body);
            records += 1;
        }
        Some(Entry { db, body, records, gen: head.gen })
    }

    /// Acknowledges delivery of the run returned by the matching
    /// [`peek`](Self::peek); deletes the head segment once fully replayed.
    /// Stale acknowledgements (the segment was evicted in between) are
    /// ignored.
    pub fn ack(&self, entry: &Entry) {
        let inner = &mut *self.inner.lock().expect("spool lock");
        let Some(head) = inner.head.as_mut() else { return };
        let n = entry.records as usize;
        if head.gen != entry.gen || head.records.len() < n {
            return;
        }
        head.records.drain(..n);
        inner.replayed += entry.records;
        if head.records.is_empty() {
            let seq = head.seq;
            inner.head = None;
            let _ = inner.log.remove(seq);
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
        SpoolStats {
            appended: inner.appended,
            replayed: inner.replayed,
            evicted: inner.evicted,
            torn_bytes: inner.torn_bytes,
            corrupt_records: inner.corrupt_records,
            sync_failures: inner.log.sync_failures(),
            pending: head_records + inner.waiting.values().map(|s| s.records).sum::<u64>(),
            segments: (inner.log.frozen().len() + inner.log.active().is_some() as usize) as u64,
            bytes: inner.log.bytes(),
        }
    }
}

impl Inner {
    /// Loads the oldest segment into `head` for replay. A segment that
    /// cannot be read right now stays queued for the next poll.
    fn ensure_head(&mut self) {
        while self.head.is_none() {
            if self.log.frozen().is_empty() && self.log.active().is_some_and(|a| a.bytes > 0) {
                // Reader caught up with the writer: rotate the active
                // segment so its records become replayable. A failed
                // rotation fsync still freezes it (and is counted).
                let _ = self.log.rotate();
            }
            let Some(seq) = self.log.frozen().first().map(|s| s.seq) else { return };
            let data = match self.log.read(seq) {
                Ok(data) => data,
                // The file is gone: its records are lost, not pending.
                Err(Error::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
                // Anything else may pass (out of descriptors, say).
                Err(_) => return,
            };
            let out = frame::decode_segment(&data);
            // Decoding short means on-disk damage since the segment was
            // written; surface what survives and account the loss. Corrupt
            // frames are counted as a delta against what this segment
            // already reported, so a re-scan does not double-bill them.
            let known = self.waiting.remove(&seq).unwrap_or_default();
            self.torn_bytes += (data.len() - out.clean_len) as u64;
            self.corrupt_records += out.corrupt_records.saturating_sub(known.corrupt);
            self.evicted += known.records.saturating_sub(out.records.len() as u64);
            if out.records.is_empty() {
                // Try the next segment rather than reporting empty; one
                // that cannot be deleted right now waits for the next poll.
                if self.log.remove(seq).is_err() {
                    return;
                }
                continue;
            }
            self.next_gen += 1;
            self.head = Some(Head { seq, records: out.records.into(), gen: self.next_gen });
        }
    }

    /// Evicts whole oldest segments until the cap holds. The active
    /// segment is never evicted (the cap is clamped to ≥ 2 segments).
    fn enforce_cap(&mut self) {
        while self.log.bytes() > self.max_bytes {
            let Some(seq) = self.log.frozen().first().map(|s| s.seq) else { return };
            if self.log.remove(seq).is_err() {
                return;
            }
            self.evicted += match self.head.take_if(|h| h.seq == seq) {
                Some(head) => head.records.len() as u64,
                None => self.waiting.remove(&seq).map_or(0, |s| s.records),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write;
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
        let e = spool.peek(0).unwrap();
        assert_eq!((e.db.as_str(), e.body.as_str()), ("lms", "m v=1 1"));
        spool.ack(&e);
        assert!(spool.peek(0).is_none());
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
            let e = spool.peek(0).unwrap();
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
    fn peek_joins_the_head_run_of_one_db_up_to_the_byte_cap() {
        let dir = tmpdir("run");
        let spool = Spool::open(SpoolConfig::new(&dir)).unwrap();
        for (db, body) in [("a", "m v=1 1"), ("a", "m v=2 2"), ("a", "m v=3 3"), ("b", "m v=4 4")] {
            spool.append(db, body).unwrap();
        }
        // Two 7-byte records and their newline fit 15 bytes; a third does not.
        let e = spool.peek(15).unwrap();
        assert_eq!((e.db.as_str(), e.body.as_str(), e.records), ("a", "m v=1 1\nm v=2 2", 2));
        spool.ack(&e);
        // The run ends where the database changes, whatever the cap.
        let e = spool.peek(1 << 20).unwrap();
        assert_eq!((e.body.as_str(), e.records), ("m v=3 3", 1));
        spool.ack(&e);
        let e = spool.peek(1 << 20).unwrap();
        assert_eq!((e.db.as_str(), e.records), ("b", 1));
        spool.ack(&e);
        assert!(spool.is_empty());
        assert_eq!(spool.stats().replayed, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn peek_without_ack_repeats_same_record() {
        let dir = tmpdir("peek");
        let spool = Spool::open(SpoolConfig::new(&dir)).unwrap();
        spool.append("lms", "a v=1 1").unwrap();
        spool.append("lms", "b v=2 2").unwrap();
        assert_eq!(spool.peek(0).unwrap().body, "a v=1 1");
        assert_eq!(spool.peek(0).unwrap().body, "a v=1 1");
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
            let e = spool.peek(0).unwrap();
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
            let e = spool.peek(0).unwrap();
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
            path = inner.log.path(inner.log.active().unwrap().seq);
        }
        // Simulate a crash mid-append: garbage half-frame at the tail.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0x55; 11]).unwrap();
        drop(f);

        let spool = Spool::open(SpoolConfig::new(&dir)).unwrap();
        assert_eq!(spool.stats().torn_bytes, 11);
        assert_eq!(spool.pending(), 1);
        let e = spool.peek(0).unwrap();
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
            path = inner.log.path(inner.log.active().unwrap().seq);
        }
        // A bit flip at rest inside the middle record's payload.
        let mut data = std::fs::read(&path).unwrap();
        let first_len = frame::encoded_len("db", "a v=1 1");
        data[first_len + lms_util::seglog::FRAME_HEADER + 3] ^= 0x01;
        std::fs::write(&path, &data).unwrap();

        let spool = Spool::open(SpoolConfig::new(&dir)).unwrap();
        let s = spool.stats();
        assert_eq!(s.corrupt_records, 1, "{s:?}");
        assert_eq!(s.torn_bytes, 0, "{s:?}");
        assert_eq!(s.pending, 2, "{s:?}");
        // The neighbors replay in order; the re-scan at head load does not
        // double-count the already-reported corruption.
        for body in ["a v=1 1", "c v=3 3"] {
            let e = spool.peek(0).unwrap();
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
    fn a_deleted_head_segment_counts_as_lost_and_replay_moves_on() {
        let dir = tmpdir("deleted");
        Spool::open(SpoolConfig::new(&dir)).unwrap().append("lms", "a").unwrap();
        let spool = Spool::open(SpoolConfig::new(&dir)).unwrap();
        spool.append("lms", "b").unwrap();
        std::fs::remove_file(dir.join("0000000000000000.seg")).unwrap();
        let e = spool.peek(0).unwrap();
        assert_eq!(e.body, "b");
        spool.ack(&e);
        let s = spool.stats();
        assert_eq!((s.pending, s.evicted, s.replayed), (0, 1, 1), "{s:?}");
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
        let first = spool.peek(0).unwrap();
        let first_idx: usize = first.body.split(':').next().unwrap().parse().unwrap();
        assert!(first_idx > 0, "oldest records were evicted");
        let mut expect = first_idx;
        while let Some(e) = spool.peek(0) {
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
        use crate::frame::{decode_segment, encode_record, encoded_len};
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
                let out = decode_segment(&buf);
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
                let out = decode_segment(&buf[..cut]);
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
                let out = decode_segment(&buf);
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
                    let e = spool.peek(0).unwrap();
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
