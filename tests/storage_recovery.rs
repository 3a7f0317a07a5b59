//! Storage-engine crash recovery: the database is killed at arbitrary
//! WAL offsets (torn tails) and seal offsets (mid-segment-write), then
//! reopened — **no acknowledged-and-checkpointed point may be silently
//! lost**, and recovered state is always a clean record-boundary prefix.
//!
//! Like `chaos_recovery.rs`, the fault schedule derives from
//! `LMS_CHAOS_SEED` (default 1), so CI sweeps a seed matrix and any
//! failure reproduces exactly by exporting the same seed.

use lms::influx::{Influx, StorageConfig};
use lms::util::rng::{chaos_seed, XorShift64};
use lms::util::{Clock, Timestamp};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "lms-storage-recovery-{}-{tag}-{}-{}",
        std::process::id(),
        chaos_seed(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &PathBuf) -> Influx {
    Influx::open(Clock::simulated(Timestamp::from_secs(9_000)), 4, StorageConfig::new(dir))
        .expect("open persistent influx")
}

/// Writes points `1..=n` (one WAL record each: unique timestamps,
/// value == index) to measurement `m`.
fn write_points(ix: &Influx, n: usize) {
    for i in 1..=n {
        let line = format!("m,hostname=h1 v={i}i {}", i as i64 * 1_000_000_000);
        ix.write_lines("lms", &line, Default::default()).expect("write");
    }
}

/// Returns (count, sum(v)) for measurement `m` — the loss detector.
fn count_and_sum(ix: &Influx) -> (i64, i64) {
    let r = ix.query("lms", "SELECT count(v), sum(v) FROM m").expect("query");
    if r.series.is_empty() {
        return (0, 0);
    }
    let row = &r.series[0].values[0];
    (row[1].as_i64().unwrap_or(0), row[2].as_i64().unwrap_or(0))
}

/// The largest-sequence (active) WAL file under `<dir>/lms/wal`.
fn active_wal(dir: &std::path::Path) -> PathBuf {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir.join("lms").join("wal"))
        .expect("wal dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "wal"))
        .collect();
    files.sort();
    files.pop().expect("an active WAL file")
}

/// Kill at an arbitrary WAL offset: the process dies before the tail of
/// the log reaches disk. Recovery must keep exactly the longest intact
/// record prefix — never a torn record, never dropping an earlier one.
#[test]
fn torn_wal_tail_recovers_to_record_boundary_prefix() {
    let mut rng = XorShift64::new(chaos_seed());
    for round in 0..8 {
        let dir = tmp_dir(&format!("torn-{round}"));
        let n = 5 + rng.below(40) as usize;
        {
            let ix = open(&dir);
            write_points(&ix, n);
            // Dropped without flush: every point lives only in the WAL.
        }
        let wal = active_wal(&dir);
        let len = std::fs::metadata(&wal).expect("wal meta").len();
        let cut = rng.below(len + 1); // 0..=len bytes survive the crash
        std::fs::OpenOptions::new()
            .write(true)
            .open(&wal)
            .expect("open wal")
            .set_len(cut)
            .expect("truncate");

        let ix = open(&dir);
        let (count, sum) = count_and_sum(&ix);
        // Prefix-consistent: the first `count` points, nothing else.
        assert!(count <= n as i64, "more points than written: {count} > {n}");
        assert_eq!(sum, count * (count + 1) / 2, "recovered set is not the write prefix");
        let stats = ix.storage_stats();
        assert_eq!(stats.recovered_records, count as u64, "every intact record replayed");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Kill mid-group: concurrent writers push batches through the grouped
/// WAL (fsync on, a real commit window), then the process dies with a
/// torn tail that may split a commit group in half. Group commit amplifies
/// the blast radius of a torn byte — one bad offset can now cut through a
/// multi-batch record run — so recovery must still yield an exact prefix
/// of each writer's acknowledged batches: no holes, no reordering, no
/// duplicates.
#[test]
fn torn_group_commit_recovers_exact_prefix_of_acked_batches() {
    const WRITERS: usize = 8;
    const BATCHES: usize = 10;
    let mut rng = XorShift64::new(chaos_seed() ^ 0x6c0b);
    for round in 0..3 {
        let dir = tmp_dir(&format!("group-{round}"));
        {
            let mut cfg = StorageConfig::new(&dir);
            cfg.wal_fsync = true;
            cfg.wal_group_commit = Duration::from_millis(3);
            let ix = Influx::open(Clock::simulated(Timestamp::from_secs(9_000)), 4, cfg)
                .expect("open persistent influx");
            std::thread::scope(|s| {
                for t in 0..WRITERS {
                    let ix = ix.clone();
                    s.spawn(move || {
                        for i in 1..=BATCHES {
                            // A write returning Ok is an acknowledged
                            // batch: its WAL group has been fsynced.
                            let ts = (t * BATCHES + i) as i64 * 1_000_000_000;
                            let line = format!("m{t},hostname=h{t} v={i}i {ts}");
                            ix.write_lines("lms", &line, Default::default()).expect("acked write");
                        }
                    });
                }
            });
            // The test is only meaningful if batches actually coalesced
            // into shared commit groups.
            let stats = ix.storage_stats();
            assert!(
                stats.group_commits < (WRITERS * BATCHES) as u64,
                "no coalescing happened: {} commits for {} acked batches",
                stats.group_commits,
                WRITERS * BATCHES
            );
        }
        let wal = active_wal(&dir);
        let len = std::fs::metadata(&wal).expect("wal meta").len();
        let cut = rng.below(len + 1); // 0..=len bytes survive the crash
        std::fs::OpenOptions::new()
            .write(true)
            .open(&wal)
            .expect("open wal")
            .set_len(cut)
            .expect("truncate");

        let ix = open(&dir);
        let mut total = 0;
        for t in 0..WRITERS {
            let r =
                ix.query("lms", &format!("SELECT count(v), sum(v) FROM m{t}")).expect("query");
            let (count, sum) = if r.series.is_empty() {
                (0, 0)
            } else {
                let row = &r.series[0].values[0];
                (row[1].as_i64().unwrap_or(0), row[2].as_i64().unwrap_or(0))
            };
            // Each writer issued batch i+1 only after batch i was acked,
            // so its WAL sequence numbers are increasing: a torn-tail cut
            // must leave each writer an exact prefix 1..=count.
            assert!(count <= BATCHES as i64, "writer {t} gained batches: {count}");
            assert_eq!(
                sum,
                count * (count + 1) / 2,
                "writer {t}: recovered set is not its acknowledged prefix (round {round})"
            );
            total += count;
        }
        assert_eq!(
            ix.storage_stats().recovered_records,
            total as u64,
            "every intact record replayed (round {round})"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Kill mid-seal: the segment write fails (`/dev/full` at its temp path,
/// so every write is `ENOSPC`), and the crash leaves a temp file holding a
/// prefix of random length of the segment being written. The flush must
/// fail without losing anything — all points stay queryable, survive a
/// reopen (WAL not checkpointed), and the next flush succeeds.
#[test]
fn seal_crash_at_arbitrary_offset_loses_nothing() {
    let mut rng = XorShift64::new(chaos_seed() ^ 0xabcd);
    for round in 0..6 {
        let dir = tmp_dir(&format!("seal-{round}"));
        let n = 10 + rng.below(50) as usize;
        let expect_sum = (n as i64) * (n as i64 + 1) / 2;
        // The segment the flush would write: the same points, sealed in a
        // scratch database.
        let scratch = tmp_dir(&format!("seal-{round}-whole"));
        let whole = {
            let ix = open(&scratch);
            write_points(&ix, n);
            ix.flush_storage().expect("flush");
            std::fs::read(scratch.join("lms").join("seg-0-0000000000000000.tsm")).expect("segment")
        };
        let _ = std::fs::remove_dir_all(&scratch);
        let tmp = dir.join("lms").join("seg-0-0000000000000000.tmp");
        {
            let ix = open(&dir);
            write_points(&ix, n);
            std::os::unix::fs::symlink("/dev/full", &tmp).unwrap();
            assert!(ix.flush_storage().is_err(), "the seal fault must surface");
            // Nothing lost in the running instance...
            assert_eq!(count_and_sum(&ix), (n as i64, expect_sum));
        }
        std::fs::remove_file(&tmp).unwrap();
        std::fs::write(&tmp, &whole[..rng.below(whole.len() as u64) as usize]).unwrap();
        // ...nor across the simulated crash (WAL was not checkpointed).
        {
            let ix = open(&dir);
            assert_eq!(count_and_sum(&ix), (n as i64, expect_sum), "round {round}");
            assert!(ix.flush_storage().is_ok(), "flush recovers after the fault clears");
        }
        // And the sealed, checkpointed state serves the same data.
        let ix = open(&dir);
        assert_eq!(count_and_sum(&ix), (n as i64, expect_sum));
        assert!(ix.storage_stats().sealed_blocks > 0, "data is in sealed blocks now");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Kill between segment write and WAL checkpoint: both the segments and
/// the stale WAL survive (the WAL is copied aside before the flush and put
/// back after it). Replay over sealed blocks must deduplicate
/// (last-write-wins), not double-count.
#[test]
fn crash_between_seal_and_checkpoint_does_not_duplicate() {
    let mut rng = XorShift64::new(chaos_seed() ^ 0x5eed);
    let dir = tmp_dir("dup");
    let n = 10 + rng.below(50) as usize;
    let expect_sum = (n as i64) * (n as i64 + 1) / 2;
    let wal = dir.join("lms").join("wal");
    let mut aside = Vec::new();
    {
        let ix = open(&dir);
        write_points(&ix, n);
        for entry in std::fs::read_dir(&wal).expect("wal dir") {
            let path = entry.expect("wal entry").path();
            aside.push((path.clone(), std::fs::read(&path).expect("wal segment")));
        }
        ix.flush_storage().expect("flush");
        assert_eq!(count_and_sum(&ix), (n as i64, expect_sum));
    }
    assert!(!aside.is_empty());
    for (path, bytes) in &aside {
        std::fs::write(path, bytes).expect("restore wal segment");
    }
    let ix = open(&dir);
    // Segments AND the un-removed WAL both hold the points; LWW replay
    // must yield each exactly once.
    assert_eq!(count_and_sum(&ix), (n as i64, expect_sum));
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    /// Property form of the torn-tail invariant: for ANY batch count and
    /// ANY crash offset, recovery yields the exact write prefix.
    #[test]
    fn recovery_is_prefix_consistent(n in 1usize..30, frac in 0.0f64..1.0) {
        let dir = tmp_dir("prop");
        {
            let ix = open(&dir);
            write_points(&ix, n);
        }
        let wal = active_wal(&dir);
        let len = std::fs::metadata(&wal).unwrap().len();
        let cut = (len as f64 * frac) as u64;
        std::fs::OpenOptions::new().write(true).open(&wal).unwrap().set_len(cut).unwrap();

        let ix = open(&dir);
        let (count, sum) = count_and_sum(&ix);
        prop_assert!(count <= n as i64);
        prop_assert_eq!(sum, count * (count + 1) / 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
