//! The write-ahead log: crash durability for the mutable head.
//!
//! Every acknowledged write batch is appended to the WAL before the write
//! call returns; the in-memory head can then be rebuilt after a crash by
//! replaying the log. The WAL is a [`SegmentLog`] (`<seq:016x>.wal`
//! segments, the log the router's spool also runs on) and each record is
//! one length+CRC frame:
//!
//! ```text
//! [payload_len: u32 LE][crc32(payload): u32 LE][payload]
//! payload = [record_seq: u64 LE][batch: UTF-8 line protocol, explicit ns timestamps]
//! ```
//!
//! ## Group commit
//!
//! Concurrent appends do not serialize on the file: each appender encodes
//! its record into a shared staging buffer under a short mutex and then
//! waits; the first-in appender becomes the *leader* and commits the whole
//! group — one `write_all` (and one `sync_data`, when fsync is configured)
//! for every record staged so far. While the leader is inside the write
//! syscall the staging buffer keeps accepting records for the *next* group,
//! so the commit pipeline never stalls arriving writers.
//!
//! An append only returns once its record's group is durably committed
//! (acks release after the group fsync). With
//! [`WalConfig::fsync_every_append`] set, the leader additionally holds
//! the group open for up to [`WalConfig::group_commit_delay`] (or until
//! [`WalConfig::group_commit_bytes`] accumulate), bounding the fsync rate
//! under load; without per-append fsync, or with a zero delay, there is no
//! hold window — a group is whatever concurrent appends staged while the
//! previous leader was inside its write.
//!
//! ## Recovery
//!
//! [`Wal::open`] scans segments in order, decodes every intact record, and
//! truncates the first torn or corrupt frame and everything after it in
//! that file (a crash mid-append leaves a half-written frame; only records
//! of the unacknowledged tail group can be affected). Unlike the spool,
//! which skips a corrupt frame, the WAL stops at it: the records after it
//! may depend on ordering. Recovery therefore yields exactly the
//! acknowledged prefix — zero silent loss, no torn records. Symmetrically,
//! a group write that *fails* leaves the active segment's tail dirty: the
//! log rotates to a fresh segment before the next commit, so later
//! acknowledged records are never stranded behind a torn middle.
//!
//! ## Checkpointing
//!
//! A flush calls [`Wal::rotate`] *before* sealing the head. Writers append
//! to the WAL before they apply the batch in memory, and the caller rotates
//! only between the two steps of no writer, so every record in the frozen
//! segments is applied in memory; once the sealed blocks are durably in a
//! segment file those segments are deleted with [`Wal::remove_frozen`]. Records landing in the new active segment during
//! the flush may be sealed *and* replayed after a crash — replay is
//! idempotent (last-write-wins on series+timestamp), so over-persisting is
//! safe; only under-persisting would lose data.

use lms_util::seglog::{self, SegmentLog};
use lms_util::{Error, Result};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Upper bound on one payload; larger lengths read as corruption.
const MAX_PAYLOAD: usize = 64 * 1024 * 1024;

/// The largest batch one record holds: the payload less its sequence
/// number. [`Wal::append`] refuses a larger one.
pub const MAX_BATCH_BYTES: usize = MAX_PAYLOAD - 8;

/// WAL configuration.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding WAL segments (created if missing).
    pub dir: PathBuf,
    /// Rotate the active segment once it reaches this size.
    pub segment_bytes: usize,
    /// `fsync` after every commit (true durability across power loss) or
    /// only on rotation/flush (crash-safe against process death, the
    /// default throughput trade-off — same policy as `lms-spool`).
    pub fsync_every_append: bool,
    /// How long the commit leader holds a group open waiting for more
    /// appends (only when `fsync_every_append` is set — the delay exists
    /// to amortize fsyncs, not writes). Zero means no hold window.
    pub group_commit_delay: Duration,
    /// Commit the group early once this many staged bytes accumulate
    /// (`0` = no size bound).
    pub group_commit_bytes: usize,
}

impl WalConfig {
    /// Defaults: 4 MiB segments, fsync on rotation only, 2 ms group window
    /// bounded at 1 MiB.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalConfig {
            dir: dir.into(),
            segment_bytes: 4 * 1024 * 1024,
            fsync_every_append: false,
            group_commit_delay: Duration::from_millis(2),
            group_commit_bytes: 1024 * 1024,
        }
    }
}

/// One recovered WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Monotonic record sequence number.
    pub seq: u64,
    /// The write batch, line protocol with explicit nanosecond timestamps.
    pub batch: String,
}

/// Outcome of WAL recovery.
#[derive(Debug, Default)]
pub struct WalRecovery {
    /// Intact records in append order.
    pub records: Vec<WalRecord>,
    /// Bytes discarded as torn tails or corruption.
    pub torn_bytes: u64,
    /// Frames whose length header was plausible but whose CRC failed — a
    /// torn tail from a crash mid-append is *expected* and not counted
    /// here; a complete frame that fails its CRC means the storage
    /// corrupted data we already acknowledged.
    pub corrupt_frames: u64,
}

/// Group-commit gauges (monotonic counters since open).
#[derive(Debug, Clone, Copy, Default)]
pub struct WalGroupStats {
    /// Committed record groups.
    pub group_commits: u64,
    /// `sync_data` calls on WAL files (commits, rotations, explicit syncs).
    pub fsyncs: u64,
    /// Exponentially-weighted moving average of points per committed group.
    pub points_per_commit: f64,
}

/// Record staging and sequencing; guarded by `Wal::state` and never held
/// across file I/O by the commit leader.
struct GroupState {
    /// Encoded frames of the group being formed.
    buf: Vec<u8>,
    /// Recycled buffer swapped in when the leader takes `buf`.
    spare: Vec<u8>,
    /// Points staged in `buf` (for the points-per-commit gauge).
    buf_points: u64,
    /// Sequence of the first record staged in `buf`.
    buf_first_seq: u64,
    /// When the current group's first record was staged (deadline base).
    opened_at: Option<Instant>,
    next_record_seq: u64,
    /// Every record with `seq < durable_seq` is resolved: durably written,
    /// or part of a failed group listed in `failed`.
    durable_seq: u64,
    /// True while one appender is committing a group.
    leader: bool,
    /// Seq ranges `[start, end)` whose group write failed, with the error
    /// to report to their waiters (bounded; disk faults are rare and the
    /// engine degrades on the first of them anyway).
    failed: Vec<(u64, u64, std::io::ErrorKind, String)>,
}

/// A segmented, CRC-framed write-ahead log with group commit.
pub struct Wal {
    cfg: WalConfig,
    state: Mutex<GroupState>,
    cv: Condvar,
    /// The segment files; acquired after (never before) releasing `state`.
    log: Mutex<SegmentLog>,
    /// The log's fsync count, mirrored for lock-free gauges.
    fsyncs: AtomicU64,
    group_commits: AtomicU64,
    /// f64 bits of the points-per-commit EWMA.
    ewma_bits: AtomicU64,
}

fn encode_record(seq: u64, batch: &str, out: &mut Vec<u8>) {
    out.reserve(seglog::FRAME_HEADER + 8 + batch.len());
    seglog::put_frame(out, MAX_PAYLOAD, |out| {
        out.extend_from_slice(&seq.to_le_bytes());
        out.extend_from_slice(batch.as_bytes());
    });
}

/// Decodes intact records until the first torn/corrupt frame; returns the
/// records, the byte offset of the clean prefix, and — when the stop was a
/// complete frame failing its CRC rather than a short/implausible tail —
/// the offset of that corrupt frame. Replay must stop either way (records
/// after the bad frame may depend on ordering), but the two causes mean
/// different things: a torn tail is an expected crash artifact, a corrupt
/// complete frame is the disk flipping bits under acknowledged data.
fn decode_segment(buf: &[u8]) -> (Vec<WalRecord>, usize, Option<usize>) {
    let mut records = Vec::new();
    let mut frames = seglog::frames(buf, 8..=MAX_PAYLOAD);
    for (at, payload) in frames.by_ref() {
        match payload.and_then(decode_record) {
            Some(record) => records.push(record),
            None => return (records, at, Some(at)),
        }
    }
    (records, frames.offset(), None)
}

fn decode_record(payload: &[u8]) -> Option<WalRecord> {
    let (seq, batch) = payload.split_at(8);
    let batch = std::str::from_utf8(batch).ok()?.to_string();
    Some(WalRecord { seq: u64::from_le_bytes(seq.try_into().unwrap()), batch })
}

/// CRC-verifies every frame of one WAL segment file without materializing
/// records — the scrubber's cheap pass over the durable tail. Returns
/// `(bytes_scanned, corrupt_frame_offset)`.
pub(crate) fn verify_wal_segment(path: &Path) -> Result<(u64, Option<u64>)> {
    let buf = fs::read(path)?;
    let (_, _, corrupt) = decode_segment(&buf);
    Ok((buf.len() as u64, corrupt.map(|o| o as u64)))
}

impl Wal {
    /// Opens (or creates) the WAL, recovering every intact record. Torn
    /// tails are truncated in place; appending resumes in a fresh segment
    /// so recovery never re-reads replayed records after the next
    /// checkpoint.
    pub fn open(cfg: WalConfig) -> Result<(Wal, WalRecovery)> {
        let mut recovery = WalRecovery::default();
        let log = SegmentLog::open(&cfg.dir, "wal", cfg.segment_bytes as u64, |seq, buf| {
            let (records, clean_len, corrupt_at) = decode_segment(buf);
            if let Some(off) = corrupt_at {
                recovery.corrupt_frames += 1;
                eprintln!(
                    "lms-tsm: warning: WAL corruption: CRC-failed frame at {}/{seq:016x}.wal:{off} \
                     (not a torn tail — acknowledged data may be lost); \
                     truncating to the clean prefix",
                    cfg.dir.display()
                );
            }
            recovery.torn_bytes += (buf.len() - clean_len) as u64;
            recovery.records.extend(records);
            clean_len
        })?;
        let next_record_seq = recovery.records.last().map(|r| r.seq + 1).unwrap_or(0);
        let wal = Wal {
            cfg,
            state: Mutex::new(GroupState {
                buf: Vec::new(),
                spare: Vec::new(),
                buf_points: 0,
                buf_first_seq: next_record_seq,
                opened_at: None,
                next_record_seq,
                durable_seq: next_record_seq,
                leader: false,
                failed: Vec::new(),
            }),
            cv: Condvar::new(),
            log: Mutex::new(log),
            fsyncs: AtomicU64::new(0),
            group_commits: AtomicU64::new(0),
            ewma_bits: AtomicU64::new(0),
        };
        Ok((wal, recovery))
    }

    /// Appends one batch of `points` points; returns once the record's
    /// group is written to the OS (and fsynced, when configured). The
    /// record survives any subsequent process crash. A batch over
    /// [`MAX_BATCH_BYTES`] is refused with `Error::Invalid` and logs nothing.
    pub fn append(&self, batch: &str, points: u64) -> Result<u64> {
        if batch.len() > MAX_BATCH_BYTES {
            return Err(Error::invalid(format!(
                "a batch of {} bytes exceeds the {MAX_BATCH_BYTES}-byte WAL record limit",
                batch.len()
            )));
        }
        let mut st = self.state.lock().unwrap();
        let seq = st.next_record_seq;
        st.next_record_seq += 1;
        if st.buf.is_empty() {
            st.buf_first_seq = seq;
            st.opened_at = Some(Instant::now());
        }
        encode_record(seq, batch, &mut st.buf);
        st.buf_points += points;
        if self.cfg.group_commit_bytes > 0 && st.buf.len() >= self.cfg.group_commit_bytes {
            // Wake a leader blocked in its group window: the size bound is
            // reached.
            self.cv.notify_all();
        }
        loop {
            if st.durable_seq > seq {
                if let Some((_, _, kind, msg)) =
                    st.failed.iter().find(|f| f.0 <= seq && seq < f.1)
                {
                    return Err(Error::Io(std::io::Error::new(*kind, msg.clone())));
                }
                return Ok(seq);
            }
            if !st.leader {
                st.leader = true;
                st = self.lead_commit(st);
            } else {
                st = self.cv.wait(st).unwrap();
            }
        }
    }

    /// Commits the staged group as its leader: optionally holds the group
    /// open (fsync amortization), then writes and syncs outside the state
    /// lock so the next group can form during the I/O. Returns with the
    /// state lock re-held, `durable_seq` advanced past the group and all
    /// waiters notified.
    fn lead_commit<'a>(&'a self, mut st: MutexGuard<'a, GroupState>) -> MutexGuard<'a, GroupState> {
        if self.cfg.fsync_every_append && !self.cfg.group_commit_delay.is_zero() {
            let deadline =
                st.opened_at.unwrap_or_else(Instant::now) + self.cfg.group_commit_delay;
            let size_bound =
                if self.cfg.group_commit_bytes == 0 { usize::MAX } else { self.cfg.group_commit_bytes };
            loop {
                if st.buf.len() >= size_bound {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, _) = self.cv.wait_timeout(st, deadline - now).unwrap();
                st = guard;
            }
        }
        let spare = std::mem::take(&mut st.spare);
        let group = std::mem::replace(&mut st.buf, spare);
        let points = std::mem::replace(&mut st.buf_points, 0);
        let first_seq = st.buf_first_seq;
        let end_seq = st.next_record_seq;
        st.opened_at = None;
        drop(st);

        let result = self.write_group(&group);

        let mut st = self.state.lock().unwrap();
        let mut group = group;
        group.clear();
        st.spare = group;
        st.durable_seq = end_seq;
        st.leader = false;
        match result {
            Ok(()) => {
                self.group_commits.fetch_add(1, Ordering::Relaxed);
                let prev = f64::from_bits(self.ewma_bits.load(Ordering::Relaxed));
                let next = if prev == 0.0 {
                    points as f64
                } else {
                    prev + 0.2 * (points as f64 - prev)
                };
                self.ewma_bits.store(next.to_bits(), Ordering::Relaxed);
            }
            Err(e) => {
                let (kind, msg) = match &e {
                    Error::Io(io) => (io.kind(), io.to_string()),
                    other => (std::io::ErrorKind::Other, other.to_string()),
                };
                st.failed.push((first_seq, end_seq, kind, msg));
                if st.failed.len() > 16 {
                    st.failed.remove(0);
                }
            }
        }
        self.cv.notify_all();
        st
    }

    /// Writes one encoded group to the active segment (the log rotates
    /// first when it is full or its tail is dirty).
    fn write_group(&self, group: &[u8]) -> Result<()> {
        self.with_log(|log| {
            log.append(group)?;
            if self.cfg.fsync_every_append {
                log.sync()?;
            }
            Ok(())
        })
    }

    /// Runs `f` on the segment log and mirrors its fsync count.
    fn with_log<R>(&self, f: impl FnOnce(&mut SegmentLog) -> R) -> R {
        let mut log = self.log.lock().expect("no panic while holding the WAL log");
        let r = f(&mut log);
        self.fsyncs.store(log.fsyncs(), Ordering::Relaxed);
        r
    }

    /// Rotates to a fresh active segment and returns the checkpoint
    /// boundary: every record in segments `< boundary` is in memory now
    /// and may be deleted once sealed blocks covering them are durable.
    pub fn rotate(&self) -> Result<u64> {
        self.with_log(SegmentLog::rotate)
    }

    /// Deletes frozen segments below `boundary` (returned by
    /// [`rotate`](Self::rotate)) after their contents were durably sealed.
    pub fn remove_frozen(&self, boundary: u64) -> Result<()> {
        let mut log = self.log.lock().expect("no panic while holding the WAL log");
        while let Some(seq) = log.frozen().first().map(|s| s.seq).filter(|&s| s < boundary) {
            log.remove(seq)?;
        }
        Ok(())
    }

    /// Total bytes currently on disk (frozen + active).
    pub fn bytes(&self) -> u64 {
        self.log.lock().expect("no panic while holding the WAL log").bytes()
    }

    /// Paths of the frozen (immutable, pre-checkpoint) segments. The
    /// scrubber verifies these — never the active segment, whose tail is
    /// legitimately mid-write under group commit.
    pub(crate) fn frozen_paths(&self) -> Vec<PathBuf> {
        let log = self.log.lock().expect("no panic while holding the WAL log");
        log.frozen().iter().map(|s| log.path(s.seq)).collect()
    }

    /// Fsyncs the active segment (graceful-shutdown hook).
    pub fn sync(&self) -> Result<()> {
        self.with_log(SegmentLog::sync)
    }

    /// Group-commit gauges.
    pub fn group_stats(&self) -> WalGroupStats {
        WalGroupStats {
            group_commits: self.group_commits.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            points_per_commit: f64::from_bits(self.ewma_bits.load(Ordering::Relaxed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lms-tsm-wal-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_and_recover() {
        let dir = tmp("basic");
        {
            let (wal, rec) = Wal::open(WalConfig::new(&dir)).unwrap();
            assert!(rec.records.is_empty());
            wal.append("m v=1 1", 1).unwrap();
            wal.append("m v=2 2\nm v=3 3", 2).unwrap();
        }
        let (_, rec) = Wal::open(WalConfig::new(&dir)).unwrap();
        assert_eq!(rec.torn_bytes, 0);
        let batches: Vec<&str> = rec.records.iter().map(|r| r.batch.as_str()).collect();
        assert_eq!(batches, vec!["m v=1 1", "m v=2 2\nm v=3 3"]);
        assert_eq!(rec.records[0].seq, 0);
        assert_eq!(rec.records[1].seq, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_oversized_batch_is_refused_and_the_wal_keeps_working() {
        let dir = tmp("oversized");
        {
            let (wal, _) = Wal::open(WalConfig::new(&dir)).unwrap();
            let err = wal.append(&"x".repeat(MAX_BATCH_BYTES + 1), 1).unwrap_err();
            assert!(matches!(err, Error::Invalid(_)), "{err}");
            assert_eq!(wal.append("m v=1 1", 1).unwrap(), 0, "the refused batch took no seq");
        }
        let (_, rec) = Wal::open(WalConfig::new(&dir)).unwrap();
        let batches: Vec<&str> = rec.records.iter().map(|r| r.batch.as_str()).collect();
        assert_eq!(batches, vec!["m v=1 1"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_to_acknowledged_prefix() {
        let dir = tmp("torn");
        let (wal, _) = Wal::open(WalConfig::new(&dir)).unwrap();
        wal.append("a v=1 1", 1).unwrap();
        wal.append("b v=2 2", 1).unwrap();
        drop(wal);
        // Find the single non-empty segment and cut its tail mid-record.
        let seg = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| fs::metadata(p).unwrap().len() > 0)
            .unwrap();
        let full = fs::metadata(&seg).unwrap().len();
        fs::OpenOptions::new().write(true).open(&seg).unwrap().set_len(full - 3).unwrap();

        let (_, rec) = Wal::open(WalConfig::new(&dir)).unwrap();
        assert_eq!(rec.records.len(), 1, "second record torn, first intact");
        assert_eq!(rec.records[0].batch, "a v=1 1");
        assert!(rec.torn_bytes > 0);
        assert_eq!(rec.corrupt_frames, 0, "a torn tail is not corruption");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_and_checkpoint_removal() {
        let dir = tmp("rotate");
        let cfg = WalConfig { segment_bytes: 64, ..WalConfig::new(&dir) };
        let (wal, _) = Wal::open(cfg.clone()).unwrap();
        for i in 0..20 {
            wal.append(&format!("m v={i} {i}"), 1).unwrap();
        }
        let boundary = wal.rotate().unwrap();
        wal.append("m v=99 99", 1).unwrap(); // lands after the checkpoint
        wal.remove_frozen(boundary).unwrap();
        drop(wal);
        let (_, rec) = Wal::open(cfg).unwrap();
        assert_eq!(rec.records.len(), 1, "only the post-checkpoint record survives");
        assert_eq!(rec.records[0].batch, "m v=99 99");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_middle_record_discards_suffix_not_prefix() {
        let dir = tmp("corrupt");
        let (wal, _) = Wal::open(WalConfig::new(&dir)).unwrap();
        wal.append("a v=1 1", 1).unwrap();
        wal.append("b v=2 2", 1).unwrap();
        wal.append("c v=3 3", 1).unwrap();
        drop(wal);
        let seg = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| fs::metadata(p).unwrap().len() > 0)
            .unwrap();
        let mut bytes = fs::read(&seg).unwrap();
        let record_len = bytes.len() / 3;
        bytes[record_len + seglog::FRAME_HEADER + 9] ^= 0xFF; // flip a byte of record 2
        fs::write(&seg, &bytes).unwrap();
        let (_, rec) = Wal::open(WalConfig::new(&dir)).unwrap();
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.records[0].batch, "a v=1 1");
        assert!(rec.torn_bytes > 0);
        assert_eq!(rec.corrupt_frames, 1, "mid-file CRC failure is corruption, not a tear");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_group_appends_all_recovered_in_seq_order() {
        // Default knobs, then both knobs at zero with per-append fsync: the
        // same leader/follower path minus the hold window — acks still follow
        // the group's fsync, and appends staged during it share the next one.
        for (tag, zero_knobs) in [("group-concurrent", false), ("zero-knobs", true)] {
            let dir = tmp(tag);
            let mut cfg = WalConfig::new(&dir);
            if zero_knobs {
                cfg.fsync_every_append = true;
                cfg.group_commit_delay = Duration::ZERO;
                cfg.group_commit_bytes = 0;
            }
            let (wal, _) = Wal::open(cfg.clone()).unwrap();
            let barrier = std::sync::Barrier::new(8);
            let mut acked: Vec<u64> = std::thread::scope(|s| {
                let appenders: Vec<_> = (0..8)
                    .map(|t| {
                        let (wal, barrier) = (&wal, &barrier);
                        s.spawn(move || {
                            barrier.wait();
                            (0..50)
                                .map(|i| wal.append(&format!("m,t=t{t} v={i} {i}"), 1).unwrap())
                                .collect::<Vec<u64>>()
                        })
                    })
                    .collect();
                appenders.into_iter().flat_map(|h| h.join().unwrap()).collect()
            });
            acked.sort_unstable();
            assert_eq!(acked, (0..400).collect::<Vec<u64>>(), "{tag}: one distinct seq per ack");
            let stats = wal.group_stats();
            assert!((1..=400).contains(&stats.group_commits), "{tag}: {stats:?}");
            assert!(stats.fsyncs <= 400, "{tag}: more fsyncs than appends: {stats:?}");
            drop(wal);
            let (_, rec) = Wal::open(cfg).unwrap();
            let recovered: Vec<u64> = rec.records.iter().map(|r| r.seq).collect();
            assert_eq!(recovered, acked, "{tag}: every ack recovered, file order = seq order");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn fsync_group_window_coalesces_concurrent_appends() {
        let dir = tmp("group-fsync");
        let cfg = WalConfig {
            fsync_every_append: true,
            group_commit_delay: Duration::from_millis(250),
            group_commit_bytes: 0, // time bound only
            ..WalConfig::new(&dir)
        };
        let (wal, _) = Wal::open(cfg.clone()).unwrap();
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for t in 0..8 {
                let wal = &wal;
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    wal.append(&format!("m v={t} {t}"), 1).unwrap();
                });
            }
        });
        let stats = wal.group_stats();
        assert!(
            stats.fsyncs <= 3,
            "8 simultaneous appends inside one 250ms window must share fsyncs, got {}",
            stats.fsyncs
        );
        assert!(stats.points_per_commit > 1.0, "groups hold more than one point on average");
        drop(wal);
        let (_, rec) = Wal::open(cfg).unwrap();
        assert_eq!(rec.records.len(), 8);
        let _ = fs::remove_dir_all(&dir);
    }
}
