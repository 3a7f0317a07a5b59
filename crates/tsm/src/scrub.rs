//! Background integrity scrub: incremental CRC re-verification of sealed
//! segments and frozen WAL tails.
//!
//! Disks corrupt data silently; a CRC check at write time proves nothing
//! about what a sector holds a month later. The scrubber walks the
//! engine's sealed segment files in path order, re-verifying every frame's
//! CRC under a byte budget per pass, so a full cycle over the data
//! completes on a configurable cadence without stealing meaningful
//! bandwidth from ingest. A file that fails verification — CRC-failed
//! frames, a torn tail in what must be an immutable file, or a destroyed
//! magic — is handed to [`TsmEngine::quarantine_segment`]: renamed to
//! `*.quarantine` with a JSON sidecar, unregistered, and its partition's
//! time range marked damaged for the cluster's anti-entropy repair pass to
//! restore from a replica.
//!
//! The scrubber holds no lock while reading files (segments are immutable
//! once renamed into place); only the quarantine itself serializes with
//! maintenance. Frozen WAL segments are verified once per completed cycle
//! — the active WAL segment is skipped, since its tail is legitimately
//! mid-write under group commit.

use crate::engine::{list_segment_files, QuarantineReport, TsmEngine};
use crate::segment;
use lms_util::rng::XorShift64;
use lms_util::seglog;
use lms_util::{Error, Result};
use std::path::{Path, PathBuf};

/// What one scrub pass did.
#[derive(Debug, Default)]
pub struct ScrubOutcome {
    /// Bytes re-verified this pass.
    pub scrubbed_bytes: u64,
    /// Files fully verified this pass.
    pub files_verified: u64,
    /// CRC-failed frames found this pass.
    pub corrupt_frames: u64,
    /// Segments quarantined this pass.
    pub quarantined: Vec<QuarantineReport>,
    /// True when the pass reached the end of the file list (and verified
    /// the frozen WAL tails): the next pass starts a fresh cycle.
    pub cycle_completed: bool,
}

/// Incremental scrubber for one engine. Holds only cursors (the last
/// paths verified), so it survives files appearing and disappearing under
/// compaction between passes.
#[derive(Debug, Default)]
pub struct Scrubber {
    /// Resume segment verification after this path; `None` = start of a
    /// cycle.
    cursor: Option<PathBuf>,
    /// Resume frozen-WAL verification after this path — set when the
    /// segment list was finished but the byte budget ran out mid-WAL, so
    /// a busy node's large frozen WAL cannot turn one pass into an
    /// unbounded I/O burst.
    wal_cursor: Option<PathBuf>,
}

impl Scrubber {
    /// A scrubber at the start of its first cycle.
    pub fn new() -> Self {
        Scrubber::default()
    }

    /// Runs one budgeted pass: verifies segment files (whole files; at
    /// least one per pass so progress is guaranteed) until roughly
    /// `budget_bytes` bytes are read, quarantining every file that fails.
    /// When the pass reaches the end of the list it continues into the
    /// frozen WAL segments under the same budget, and reports the cycle
    /// complete once those are verified too.
    pub fn run(&mut self, engine: &TsmEngine, budget_bytes: u64) -> Result<ScrubOutcome> {
        let mut targets = engine.scrub_targets();
        targets.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = ScrubOutcome::default();

        let start = match &self.cursor {
            Some(c) => targets.partition_point(|(p, _, _)| p <= c),
            None => 0,
        };
        let mut reached_end = true;
        for (path, _, _) in &targets[start..] {
            match self.verify_one(engine, path, &mut out) {
                Ok(()) => {}
                // Compaction may have deleted the file after the snapshot.
                Err(Error::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
            self.cursor = Some(path.clone());
            if out.scrubbed_bytes >= budget_bytes {
                reached_end = targets[start..].last().map(|(p, _, _)| p) == Some(path);
                break;
            }
        }

        if reached_end {
            // End of the segment list: verify the frozen WAL tails under
            // the same byte budget (resuming where the last pass left
            // off), then rewind for the next cycle.
            let mut paths = engine.wal_frozen_paths();
            paths.sort();
            let wstart = match &self.wal_cursor {
                Some(c) => paths.partition_point(|p| p <= c),
                None => 0,
            };
            let mut verified_to_end = true;
            for path in &paths[wstart..] {
                match engine.verify_wal_file(path) {
                    Ok((bytes, corrupt_at)) => {
                        out.scrubbed_bytes += bytes;
                        engine.record_scrubbed(bytes);
                        if let Some(off) = corrupt_at {
                            out.corrupt_frames += 1;
                            engine.record_corrupt_frames(1);
                            eprintln!(
                                "lms-tsm: warning: scrub found a CRC-failed WAL frame at \
                                 {}:{off}; the records are already applied in memory, \
                                 recovery will truncate here after a crash",
                                path.display()
                            );
                        }
                    }
                    Err(Error::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e),
                }
                self.wal_cursor = Some(path.clone());
                if out.scrubbed_bytes >= budget_bytes {
                    verified_to_end = paths.last() == Some(path);
                    break;
                }
            }
            if verified_to_end {
                out.cycle_completed = true;
                self.cursor = None;
                self.wal_cursor = None;
            }
        }
        Ok(out)
    }

    /// Verifies one sealed segment file; quarantines it on any damage.
    fn verify_one(
        &mut self,
        engine: &TsmEngine,
        path: &Path,
        out: &mut ScrubOutcome,
    ) -> Result<()> {
        let scan = match segment::verify_segment(path) {
            Ok(scan) => scan,
            Err(Error::Invalid(_)) => {
                // Destroyed magic: the whole file is unreadable.
                out.corrupt_frames += 1;
                engine.record_corrupt_frames(1);
                out.quarantined.push(engine.quarantine_segment(path, &[0])?);
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        out.scrubbed_bytes += scan.bytes_scanned;
        out.files_verified += 1;
        engine.record_scrubbed(scan.bytes_scanned);
        if scan.is_clean() {
            return Ok(());
        }
        // Sealed segments are immutable: a torn tail here is corruption
        // just like a failed CRC (segment writes are tmp+fsync+rename, so
        // a registered file can never be legitimately half-written).
        out.corrupt_frames += scan.corrupt_frames.max(1);
        engine.record_corrupt_frames(scan.corrupt_frames.max(1));
        let offsets = if scan.corrupt_offsets.is_empty() {
            vec![scan.bytes_scanned - scan.torn_bytes]
        } else {
            scan.corrupt_offsets.clone()
        };
        out.quarantined.push(engine.quarantine_segment(path, &offsets)?);
        Ok(())
    }
}

/// Test hook: seeded bit-flip corruption. Picks one sealed segment file
/// under `dir` and flips one bit inside its *first frame's payload* —
/// guaranteed to fail that frame's CRC while leaving the framing intact,
/// so the corruption class is deterministic across seeds. Returns the
/// file and byte offset hit, or `None` when `dir` holds no segment file
/// large enough.
pub fn inject_bit_flip(dir: &Path, rng: &mut XorShift64) -> Option<(PathBuf, u64)> {
    let files = list_segment_files(dir);
    if files.is_empty() {
        return None;
    }
    let path = files[rng.below(files.len() as u64) as usize].clone();
    let mut bytes = std::fs::read(&path).ok()?;
    let (_, payload) = seglog::frames(bytes.get(segment::MAGIC.len()..)?, 1..=usize::MAX).next()?;
    let payload_len = payload?.len() as u64;
    let off = segment::MAGIC.len() + seglog::FRAME_HEADER + rng.below(payload_len) as usize;
    bytes[off] ^= 1u8 << rng.below(8);
    std::fs::write(&path, &bytes).ok()?;
    Some((path, off as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::SealedBlock;
    use crate::engine::{TsmConfig, TsmEngine};
    use crate::segment::{BlockEntry, SeriesId};
    use std::sync::Arc;
    use lms_lineproto::FieldValue;
    use std::fs;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lms-tsm-scrub-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn cfg(dir: &Path) -> TsmConfig {
        TsmConfig { partition_ns: 1_000, ..TsmConfig::new(dir) }
    }

    fn entry(key: &str, gen: u64, ts: std::ops::Range<i64>) -> BlockEntry {
        let points: Vec<(i64, FieldValue)> =
            ts.map(|t| (t, FieldValue::Float(t as f64))).collect();
        BlockEntry {
            series: Arc::new(SeriesId {
                series_key: key.to_string(),
                measurement: "m".to_string(),
                tags: Vec::new(),
            }),
            field: "v".into(),
            block: Arc::new(SealedBlock::seal(gen, &points)),
        }
    }

    fn flush(engine: &TsmEngine, entries: &[BlockEntry]) {
        let mut f = engine.begin_flush(|| ()).unwrap();
        f.write(entries).unwrap();
        f.commit().unwrap();
    }

    #[test]
    fn clean_files_scrub_clean() {
        let dir = tmp("clean");
        let (engine, _) = TsmEngine::open(cfg(&dir)).unwrap();
        flush(&engine, &[entry("a", 0, 0..100), entry("b", 1, 1500..1600)]);
        let mut s = Scrubber::new();
        let out = s.run(&engine, u64::MAX).unwrap();
        assert_eq!(out.files_verified, 2);
        assert_eq!(out.corrupt_frames, 0);
        assert!(out.quarantined.is_empty());
        assert!(out.cycle_completed);
        assert!(out.scrubbed_bytes > 0);
        let stats = engine.stats();
        assert_eq!(stats.scrubbed_bytes, out.scrubbed_bytes);
        assert_eq!(stats.quarantined_segments, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_is_detected_and_quarantined() {
        let dir = tmp("flip");
        let (engine, _) = TsmEngine::open(cfg(&dir)).unwrap();
        flush(&engine, &[entry("a", 0, 0..100)]);
        flush(&engine, &[entry("b", 1, 0..100)]);
        let mut rng = XorShift64::new(7);
        let (hit, _) = inject_bit_flip(&dir, &mut rng).expect("segments exist");

        let mut s = Scrubber::new();
        let out = s.run(&engine, u64::MAX).unwrap();
        assert_eq!(out.corrupt_frames, 1);
        assert_eq!(out.quarantined.len(), 1);
        let q = &out.quarantined[0];
        assert_eq!(q.original, hit);
        assert!(!hit.exists(), "corrupt file renamed away");
        assert!(q.quarantined.exists());
        assert!(q.quarantined.to_string_lossy().ends_with(".quarantine"));
        assert!(q.sidecar.exists());
        let sidecar = fs::read_to_string(&q.sidecar).unwrap();
        let json = lms_util::json::Json::parse(&sidecar).unwrap();
        assert_eq!(json.get("partition").unwrap().as_i64(), Some(q.partition));
        assert!(!json.get("corrupt_offsets").unwrap().as_arr().unwrap().is_empty());

        let stats = engine.stats();
        assert_eq!(stats.quarantined_segments, 1);
        assert_eq!(stats.damaged_ranges, 1);
        assert!(stats.corrupt_frames >= 1);
        let ranges = engine.damaged_ranges();
        assert_eq!(ranges.len(), 1);
        assert_eq!(ranges[0].partition, q.partition);

        // The surviving file scrubs clean on the next cycle.
        let out2 = s.run(&engine, u64::MAX).unwrap();
        assert_eq!(out2.corrupt_frames, 0);
        assert!(out2.quarantined.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_paces_the_cycle() {
        let dir = tmp("budget");
        let (engine, _) = TsmEngine::open(cfg(&dir)).unwrap();
        for i in 0..4u64 {
            flush(&engine, &[entry("a", i, (i as i64 * 1000)..(i as i64 * 1000 + 50))]);
        }
        let mut s = Scrubber::new();
        // A 1-byte budget verifies exactly one file per pass.
        let mut passes = 0;
        loop {
            passes += 1;
            let out = s.run(&engine, 1).unwrap();
            assert!(out.files_verified <= 1);
            if out.cycle_completed {
                break;
            }
            assert!(passes < 10, "cycle must terminate");
        }
        assert_eq!(passes, 4, "one pass per file");
        let _ = fs::remove_dir_all(&dir);
    }

    /// The byte budget bounds the frozen-WAL phase too: a pass that
    /// finishes the segment list with no budget left must not burn
    /// through a large frozen WAL in one burst, but resume it across
    /// passes via the WAL cursor.
    #[test]
    fn wal_verification_respects_the_byte_budget() {
        let dir = tmp("wal-budget");
        let mut c = cfg(&dir);
        c.wal_segment_bytes = 256; // force rotations every few appends
        let (engine, _) = TsmEngine::open(c).unwrap();
        flush(&engine, &[entry("a", 0, 0..50)]);
        for i in 0..40 {
            let batch = format!("m v={i} {i}\n").repeat(8);
            engine.append_wal(&batch, 8).unwrap();
        }
        let frozen = engine.wal_frozen_paths().len();
        assert!(frozen >= 2, "need several frozen WAL segments, got {frozen}");

        let mut s = Scrubber::new();
        let mut passes = 0;
        loop {
            passes += 1;
            // A 1-byte budget allows at most one WAL file beyond the
            // point where the budget ran out.
            let out = s.run(&engine, 1).unwrap();
            assert!(out.files_verified <= 1);
            if out.cycle_completed {
                break;
            }
            assert!(passes < 64, "cycle must terminate");
        }
        // Pass 1 covers the lone segment plus the first frozen WAL file;
        // every further pass advances the WAL cursor by exactly one.
        assert_eq!(passes, frozen, "the WAL walk must be spread across passes");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn destroyed_magic_quarantines_whole_file() {
        let dir = tmp("magic");
        let (engine, _) = TsmEngine::open(cfg(&dir)).unwrap();
        flush(&engine, &[entry("a", 0, 0..50)]);
        let path = list_segment_files(&dir).pop().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[0] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let mut s = Scrubber::new();
        let out = s.run(&engine, u64::MAX).unwrap();
        assert_eq!(out.quarantined.len(), 1);
        assert_eq!(engine.segment_file_count(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_sealed_segment_is_treated_as_corruption() {
        let dir = tmp("torn");
        let (engine, _) = TsmEngine::open(cfg(&dir)).unwrap();
        flush(&engine, &[entry("a", 0, 0..50), entry("b", 1, 0..50)]);
        let path = list_segment_files(&dir).pop().unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let mut s = Scrubber::new();
        let out = s.run(&engine, u64::MAX).unwrap();
        assert_eq!(out.quarantined.len(), 1, "immutable files must not shrink");
        let _ = fs::remove_dir_all(&dir);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

            /// scrub(quarantine(corrupt(segments))) never loses a point
            /// that a healthy replica holds *without marking its time
            /// range damaged*: every written point is either still served
            /// bit-exact by the surviving files, or falls inside a
            /// reported damaged range — so a repair pass re-fetching
            /// exactly the damaged ranges from a healthy replica restores
            /// everything.
            #[test]
            fn quarantine_never_silently_loses_a_point(
                seed in 0u64..1u64 << 48,
                nflips in 1usize..4,
                series in proptest::collection::vec((0u8..4, 0i64..8000, 1u16..60), 1..6),
            ) {
                let dir = tmp(&format!("prop-{seed}-{nflips}"));
                let (engine, _) = TsmEngine::open(cfg(&dir)).unwrap();
                // Healthy-replica ground truth: every (series, ts, value).
                let mut truth: Vec<(String, i64, f64)> = Vec::new();
                for (gen, &(sid, start, n)) in series.iter().enumerate() {
                    let key = format!("s{sid}");
                    let points: Vec<(i64, FieldValue)> = (start..start + n as i64)
                        .map(|t| (t, FieldValue::Float(t as f64 + sid as f64)))
                        .collect();
                    for (t, v) in &points {
                        if let FieldValue::Float(f) = v {
                            truth.push((key.clone(), *t, *f));
                        }
                    }
                    let e = BlockEntry {
                        series: Arc::new(SeriesId {
                            series_key: key.clone(),
                            measurement: "m".into(),
                            tags: Vec::new(),
                        }),
                        field: "v".into(),
                        block: Arc::new(SealedBlock::seal(gen as u64, &points)),
                    };
                    flush(&engine, &[e]);
                }
                // Corrupt: seeded random byte flips anywhere in random files.
                let mut rng = XorShift64::new(seed);
                let files = list_segment_files(&dir);
                for _ in 0..nflips {
                    let path = &files[rng.below(files.len() as u64) as usize];
                    if let Ok(mut bytes) = fs::read(path) {
                        if bytes.is_empty() { continue; }
                        let off = rng.below(bytes.len() as u64) as usize;
                        bytes[off] ^= 1u8 << rng.below(8);
                        let _ = fs::write(path, &bytes);
                    }
                }
                // Scrub until the cycle completes (quarantining as it goes).
                let mut s = Scrubber::new();
                loop {
                    if s.run(&engine, u64::MAX).unwrap().cycle_completed { break; }
                }
                // Survivors: decode every remaining registered file.
                let mut surviving: std::collections::HashSet<(String, i64, u64)> =
                    std::collections::HashSet::new();
                for (path, _, _) in engine.scrub_targets() {
                    for e in segment::scan_segment(&path).unwrap().entries {
                        for (t, v) in e.block.decode() {
                            if let FieldValue::Float(f) = v {
                                surviving.insert((e.series.series_key.clone(), t, f.to_bits()));
                            }
                        }
                    }
                }
                let damaged = engine.damaged_ranges();
                for (key, t, v) in &truth {
                    let held = surviving.contains(&(key.clone(), *t, v.to_bits()));
                    let covered = damaged.iter().any(|d| d.start_ns <= *t && *t < d.end_ns);
                    prop_assert!(
                        held || covered,
                        "point ({key}, {t}) lost without a damaged-range mark"
                    );
                }
                let _ = fs::remove_dir_all(&dir);
            }
        }
    }
}
