//! The storage engine: orchestrates WAL, segment files, and compaction.
//!
//! [`TsmEngine`] owns the on-disk layout of one database:
//!
//! ```text
//! <dir>/wal/<seq:016x>.wal          write-ahead log segments
//! <dir>/seg-<p>-<seq:016x>.tsm      sealed-block segment files
//! ```
//!
//! where `p` is the time partition (decimal, possibly negative):
//! `p = max_ts.div_euclid(partition_ns)` of each block, so a whole file is
//! provably expired — and droppable without scanning — once
//! `(p + 1) * partition_ns <= retention cutoff` (every block in the file
//! has `max_ts < (p + 1) * partition_ns`, and a block's points never
//! exceed its `max_ts`).
//!
//! The engine does not know about series or queries; the in-memory index
//! (`lms-influx`) drives it through two session types, serialized by an
//! internal maintenance lock:
//!
//! * [`FlushSession`] — rotates the WAL *first* (capturing a checkpoint
//!   boundary), then receives the sealed heads as [`BlockEntry`]s, writes
//!   them to per-partition segment files, and on [`FlushSession::commit`]
//!   deletes the frozen WAL segments. Crash anywhere before commit leaves
//!   the WAL intact, so replay restores every acknowledged point; records
//!   that were both sealed and replayed deduplicate via last-write-wins.
//! * [`RewriteSession`] — compaction of a set of partitions (those that
//!   reached `compact_min_files`, or all of them): receives the merged,
//!   re-encoded blocks, writes fresh segment files, and on commit deletes
//!   the pre-session files of those partitions. A crash mid-rewrite leaves
//!   old and new files coexisting; both load at next open and
//!   last-write-wins hides the stale versions until the next compaction
//!   removes them.
//!
//! ## Storage health
//!
//! One value, [`Health`], says whether the engine's writers work. Any I/O
//! error from one — WAL append, sync or rotation, segment write, the
//! unlinks of a checkpoint, a compaction, a retention drop or a
//! quarantine — sets it to [`Health::Degraded`] with the error's text.
//! While degraded, [`TsmEngine::append_wal`] refuses every batch up front
//! with the transient `Error::Unavailable`, so a caller keeps it for a
//! retry; reads and sealed data stay available. [`TsmEngine::probe`], run
//! by the storage worker on its tick, tries the store whose write failed —
//! one trial append through the WAL, or a trial file at the next segment's
//! tmp path, written, synced and unlinked — and clears the value when it
//! succeeds. A probe leaves no file behind (see `lms_util::seglog`).

use crate::segment::{self, BlockEntry};
use crate::wal::{Wal, WalConfig, WalRecord};
use lms_util::seglog::unlink;
use lms_util::{Error, Result};
use parking_lot::Mutex;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Storage engine configuration.
#[derive(Debug, Clone)]
pub struct TsmConfig {
    /// Directory for this database's files (created if missing).
    pub dir: PathBuf,
    /// Width of one time partition in nanoseconds. Segment files never span
    /// partitions, so retention drops whole files. Default: 2 hours.
    pub partition_ns: i64,
    /// WAL segment rotation size.
    pub wal_segment_bytes: usize,
    /// Fsync the WAL on every append (see [`WalConfig`]).
    pub wal_fsync: bool,
    /// Compaction trigger: rewrite once any partition holds at least this
    /// many segment files.
    pub compact_min_files: usize,
    /// WAL group-commit window in milliseconds (see
    /// [`WalConfig::group_commit_delay`]); zero means no hold window.
    pub wal_group_commit_ms: u64,
    /// WAL group-commit size bound (see [`WalConfig::group_commit_bytes`]).
    pub wal_group_commit_bytes: usize,
    /// Maximum time span of one sealed block in nanoseconds, aligned to
    /// epoch multiples. Sealing splits runs at these boundaries so a
    /// `GROUP BY time(w)` window with `w` a multiple of the span fully
    /// contains every interior block and can consume its pre-aggregated
    /// summary without decoding. Default: 1 hour (dashboards bucket by
    /// hours far more often than by partition widths).
    pub block_span_ns: i64,
}

impl TsmConfig {
    /// Defaults: 2-hour partitions, 4 MiB WAL segments, fsync on rotate,
    /// compact at 4 files per partition, 2 ms / 1 MiB group commits.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        TsmConfig {
            dir: dir.into(),
            partition_ns: 2 * 3600 * 1_000_000_000,
            wal_segment_bytes: 4 * 1024 * 1024,
            wal_fsync: false,
            compact_min_files: 4,
            wal_group_commit_ms: 2,
            wal_group_commit_bytes: 1024 * 1024,
            block_span_ns: 3600 * 1_000_000_000,
        }
    }
}

/// Everything recovered at open: sealed blocks plus WAL records to replay.
#[derive(Debug, Default)]
pub struct Recovered {
    /// Block entries from all segment files, sorted by generation — install
    /// in order and series re-appear with their pre-crash field layout.
    pub blocks: Vec<BlockEntry>,
    /// Acknowledged-but-unflushed write batches, in append order. Replay
    /// after installing `blocks`; overlap is resolved by last-write-wins.
    pub wal_records: Vec<WalRecord>,
    /// WAL bytes discarded as torn tails (crash mid-append).
    pub torn_wal_bytes: u64,
    /// CRC-failed frames found while loading segment files and the WAL —
    /// acknowledged data the disk corrupted, as opposed to torn tails.
    pub corrupt_frames: u64,
}

/// Point-in-time storage gauges for `/stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct TsmStats {
    /// Bytes currently in the WAL (frozen + active segments).
    pub wal_bytes: u64,
    /// Number of sealed segment files.
    pub segment_files: u64,
    /// Total bytes across segment files.
    pub segment_bytes: u64,
    /// Compactions completed since open.
    pub compactions: u64,
    /// WAL records replayed at the last open.
    pub recovered_records: u64,
    /// The engine's [`Health`] is degraded: writes are refused.
    pub degraded: bool,
    /// WAL record groups committed since open.
    pub wal_group_commits: u64,
    /// `sync_data` calls on WAL files since open.
    pub wal_fsyncs: u64,
    /// EWMA of points per committed WAL group.
    pub wal_points_per_commit: f64,
    /// Bytes re-verified by the scrubber since open.
    pub scrubbed_bytes: u64,
    /// CRC-failed frames seen since open (load time + scrub passes).
    pub corrupt_frames: u64,
    /// Segment files quarantined since open.
    pub quarantined_segments: u64,
    /// Time ranges currently marked damaged (quarantined, awaiting
    /// anti-entropy repair from a replica).
    pub damaged_ranges: u64,
}

/// Whether the engine's storage writers work (see the module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum Health {
    /// No storage write has failed since open or the last heal.
    #[default]
    Ok,
    /// A storage write failed; writes are refused until a probe heals.
    Degraded {
        /// The text of the I/O error that failed it.
        reason: String,
    },
}

/// The engine's two stores: what a failed write went to, and so what the
/// heal probe tries.
#[derive(Debug, Clone, Copy)]
enum Store {
    Wal,
    Segments,
}

/// A per-partition time range lost to a quarantined segment. The points it
/// covered are restored by the cluster's anti-entropy repair pass (or by a
/// surviving overlapping generation); until then queries over the range
/// may be missing data on this node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DamagedRange {
    /// Time partition of the quarantined file.
    pub partition: i64,
    /// Partition start (inclusive, ns).
    pub start_ns: i64,
    /// Partition end (exclusive, ns).
    pub end_ns: i64,
    /// The quarantined file (post-rename).
    pub file: PathBuf,
}

/// Outcome of quarantining one corrupt segment file.
#[derive(Debug, Clone)]
pub struct QuarantineReport {
    /// Original segment path (no longer present).
    pub original: PathBuf,
    /// Where the file went (`<name>.quarantine`).
    pub quarantined: PathBuf,
    /// Sidecar report path (`<name>.quarantine.json`).
    pub sidecar: PathBuf,
    /// The file's time partition.
    pub partition: i64,
    /// Damaged range start (inclusive, ns) — the whole partition,
    /// conservatively, since the corrupt frames' blocks are unreadable.
    pub start_ns: i64,
    /// Damaged range end (exclusive, ns).
    pub end_ns: i64,
    /// Offsets of the CRC-failed frames inside the original file.
    pub corrupt_offsets: Vec<u64>,
    /// Series whose blocks were still readable in the file (the corrupt
    /// frames' series are unknown by definition).
    pub intact_series: Vec<String>,
}

struct SegFile {
    partition: i64,
    seq: u64,
    path: PathBuf,
    bytes: u64,
}

/// Persistent storage engine for one database. See the module docs.
pub struct TsmEngine {
    cfg: TsmConfig,
    wal: Wal,
    files: Mutex<Vec<SegFile>>,
    /// Serializes flush/compaction sessions (held by the session structs).
    maint: Mutex<()>,
    next_gen: AtomicU64,
    next_seg_seq: AtomicU64,
    compactions: AtomicU64,
    recovered_records: u64,
    /// The health value and the store whose failed write set it.
    health: Mutex<(Health, Store)>,
    /// Hard ceiling on retention cutoffs ([`TsmEngine::set_drop_floor`]):
    /// `drop_expired` never unlinks a partition reaching at or past this
    /// timestamp, whatever cutoff the caller computed. `i64::MAX` = no
    /// floor.
    drop_floor: AtomicI64,
    /// Bytes re-verified by scrub passes.
    scrubbed_bytes: AtomicU64,
    /// CRC-failed frames observed (segment load, WAL recovery, scrub).
    corrupt_frames: AtomicU64,
    /// Segment files quarantined since open.
    quarantined: AtomicU64,
    /// Time ranges lost to quarantine, pending anti-entropy repair.
    damaged: Mutex<Vec<DamagedRange>>,
}

fn segment_file_name(partition: i64, seq: u64) -> String {
    format!("seg-{partition}-{seq:016x}.tsm")
}

/// Parses `seg-<p>-<seq:016x>.tsm`; `p` is decimal and may be negative.
fn parse_segment_name(name: &str) -> Option<(i64, u64)> {
    let stem = name.strip_prefix("seg-")?.strip_suffix(".tsm")?;
    let (partition, seq) = stem.rsplit_once('-')?;
    Some((partition.parse().ok()?, u64::from_str_radix(seq, 16).ok()?))
}

/// `seg-<p>-<seq>.tsm` → `seg-<p>-<seq>.tsm.quarantine`. The suffix is
/// appended (not substituted) so the original name — and therefore the
/// partition/seq — stays recoverable, and `parse_segment_name` no longer
/// matches, keeping the file out of every future open.
fn quarantine_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
    name.push_str(".quarantine");
    path.with_file_name(name)
}

fn sidecar_path(quarantined: &Path) -> PathBuf {
    let mut name =
        quarantined.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
    name.push_str(".json");
    quarantined.with_file_name(name)
}

fn quarantine_sidecar_json(report: &QuarantineReport) -> String {
    use lms_util::json::Json;
    Json::obj([
        ("file", Json::str(report.original.display().to_string())),
        ("quarantined", Json::str(report.quarantined.display().to_string())),
        ("partition", Json::Int(report.partition)),
        ("start_ns", Json::Int(report.start_ns)),
        ("end_ns", Json::Int(report.end_ns)),
        (
            "corrupt_offsets",
            Json::arr(report.corrupt_offsets.iter().map(|&o| Json::Int(o as i64))),
        ),
        ("intact_series", Json::arr(report.intact_series.iter().map(Json::str))),
    ])
    .to_pretty()
}

impl TsmEngine {
    /// Opens the engine, recovering sealed blocks from segment files and
    /// unflushed batches from the WAL. Stray `.tmp` files (crash mid-flush)
    /// are deleted.
    pub fn open(cfg: TsmConfig) -> Result<(TsmEngine, Recovered)> {
        assert!(cfg.partition_ns > 0, "partition width must be positive");
        fs::create_dir_all(&cfg.dir)?;

        let mut files = Vec::new();
        for entry in fs::read_dir(&cfg.dir)? {
            let entry = entry?;
            let name = match entry.file_name().into_string() {
                Ok(n) => n,
                Err(_) => continue,
            };
            if name.ends_with(".tmp") {
                let _ = fs::remove_file(entry.path());
                continue;
            }
            if let Some((partition, seq)) = parse_segment_name(&name) {
                let bytes = entry.metadata()?.len();
                files.push(SegFile { partition, seq, path: entry.path(), bytes });
            }
        }
        files.sort_by_key(|f| f.seq);

        let mut blocks = Vec::new();
        let mut corrupt_frames = 0u64;
        for f in &files {
            let scan = segment::scan_segment(&f.path)?;
            if scan.corrupt_frames > 0 {
                corrupt_frames += scan.corrupt_frames;
                eprintln!(
                    "lms-tsm: warning: {} CRC-failed frame(s) in {} at offsets {:?}; \
                     intact blocks loaded, file left for the scrubber to quarantine",
                    scan.corrupt_frames,
                    f.path.display(),
                    scan.corrupt_offsets
                );
            }
            blocks.extend(scan.entries);
        }
        blocks.sort_by_key(|e| e.block.gen);

        let (wal, wal_recovery) = Wal::open(WalConfig {
            dir: cfg.dir.join("wal"),
            segment_bytes: cfg.wal_segment_bytes,
            fsync_every_append: cfg.wal_fsync,
            group_commit_delay: std::time::Duration::from_millis(cfg.wal_group_commit_ms),
            group_commit_bytes: cfg.wal_group_commit_bytes,
        })?;

        let next_gen = blocks.last().map(|e| e.block.gen + 1).unwrap_or(0);
        let next_seg_seq = files.last().map(|f| f.seq + 1).unwrap_or(0);
        corrupt_frames += wal_recovery.corrupt_frames;
        let recovered = Recovered {
            blocks,
            wal_records: wal_recovery.records,
            torn_wal_bytes: wal_recovery.torn_bytes,
            corrupt_frames,
        };
        let engine = TsmEngine {
            cfg,
            wal,
            files: Mutex::new(files),
            maint: Mutex::new(()),
            next_gen: AtomicU64::new(next_gen),
            next_seg_seq: AtomicU64::new(next_seg_seq),
            compactions: AtomicU64::new(0),
            recovered_records: recovered.wal_records.len() as u64,
            health: Mutex::new((Health::Ok, Store::Wal)),
            drop_floor: AtomicI64::new(i64::MAX),
            scrubbed_bytes: AtomicU64::new(0),
            corrupt_frames: AtomicU64::new(corrupt_frames),
            quarantined: AtomicU64::new(0),
            damaged: Mutex::new(Vec::new()),
        };
        Ok((engine, recovered))
    }

    /// Appends one acknowledged write batch of `points` points to the WAL
    /// (the count only feeds the points-per-commit gauge). The call
    /// returns once the record's commit group is durable; concurrent
    /// appends share one write (and fsync) per group. Refused up front
    /// while degraded (see [`TsmEngine::writable`]).
    pub fn append_wal(&self, batch: &str, points: u64) -> Result<u64> {
        self.writable()?;
        self.degrade_on(Store::Wal, self.wal.append(batch, points))
    }

    /// The write gate: `Error::Unavailable` with the reason while the
    /// engine is degraded — transient, so the delivery pipeline keeps the
    /// data spooled instead of dropping it.
    pub fn writable(&self) -> Result<()> {
        match &self.health.lock().0 {
            Health::Ok => Ok(()),
            Health::Degraded { reason } => {
                Err(Error::unavailable(format!("storage degraded ({reason}): writes refused")))
            }
        }
    }

    /// The engine's storage health.
    pub fn health(&self) -> Health {
        self.health.lock().0.clone()
    }

    /// The heal probe: while degraded, one trial write to the store whose
    /// failed write degraded the engine — an empty WAL batch, which
    /// replays as nothing, or a file at the next segment's tmp path,
    /// written, synced and unlinked; success clears the health value.
    /// Returns whether the engine is healthy afterwards.
    pub fn probe(&self) -> bool {
        let store = match &*self.health.lock() {
            (Health::Ok, _) => return true,
            (_, store) => *store,
        };
        let trial = match store {
            Store::Wal => self.wal.append("", 0).map(drop),
            Store::Segments => self.probe_segments(),
        };
        let healed = self.degrade_on(store, trial).is_ok();
        if healed {
            self.health.lock().0 = Health::Ok;
        }
        healed
    }

    /// The segment writer's trial: a file at the next segment's tmp path,
    /// written, synced and unlinked, so that success or failure leaves no
    /// file. A vanished database directory is made again first, but not a
    /// vanished data root: a node whose whole tree is gone stays degraded.
    fn probe_segments(&self) -> Result<()> {
        let seq = self.next_seg_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = self.cfg.dir.join(segment_file_name(0, seq)).with_extension("tmp");
        let dir = match fs::create_dir(&self.cfg.dir) {
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => Ok(()),
            made => made,
        };
        let written = dir.and_then(|()| {
            let mut f = fs::OpenOptions::new().create(true).write(true).truncate(true).open(&tmp)?;
            f.write_all(b"probe")?;
            f.sync_data()
        });
        written.map_err(Error::from).and(unlink(&tmp))
    }

    /// Passes `result` through; an I/O error degrades the engine first,
    /// naming `store` for the probe.
    fn degrade_on<T>(&self, store: Store, result: Result<T>) -> Result<T> {
        if let Err(Error::Io(e)) = &result {
            *self.health.lock() = (Health::Degraded { reason: e.to_string() }, store);
        }
        result
    }

    /// Allocates the next seal generation (monotonic across restarts).
    pub fn next_gen(&self) -> u64 {
        self.next_gen.fetch_add(1, Ordering::Relaxed)
    }

    /// The partition a block with this `max_ts` belongs to.
    pub fn partition_of(&self, max_ts: i64) -> i64 {
        max_ts.div_euclid(self.cfg.partition_ns)
    }

    /// The epoch-aligned block-span bucket of a timestamp: sealing splits
    /// point runs where this changes, bounding every block to one span so
    /// window-aligned queries can answer interior blocks from summaries.
    pub fn span_of(&self, ts: i64) -> i64 {
        ts.div_euclid(self.cfg.block_span_ns.max(1))
    }

    /// Starts a flush: waits for any other maintenance session, then
    /// rotates the WAL while it holds what `hold` returns (the caller's
    /// write gate, or `()`), and returns a session to write the sealed heads
    /// through. The lock order is the maintenance lock, then the gate.
    pub fn begin_flush<G>(&self, hold: impl FnOnce() -> G) -> Result<FlushSession<'_>> {
        let guard = self.maint.lock();
        let gate = hold();
        let boundary = self.degrade_on(Store::Wal, self.wal.rotate())?;
        drop(gate);
        Ok(FlushSession { engine: self, _guard: guard, boundary })
    }

    /// Starts a compaction rewrite session over `partitions` (`None` =
    /// every partition). The caller merges and re-encodes the blocks that
    /// live in them however it likes; on commit the session replaces the
    /// segment files those partitions held when it began.
    pub fn begin_rewrite(&self, partitions: Option<&[i64]>) -> RewriteSession<'_> {
        let guard = self.maint.lock();
        let old: Vec<PathBuf> = self
            .files
            .lock()
            .iter()
            .filter(|f| partitions.is_none_or(|ps| ps.contains(&f.partition)))
            .map(|f| f.path.clone())
            .collect();
        RewriteSession { engine: self, _guard: guard, old, new: Vec::new() }
    }

    /// Writes `entries` grouped into one segment file per partition and
    /// registers the files. Used by both session types.
    fn write_entries(&self, entries: &[BlockEntry]) -> Result<Vec<SegFile>> {
        let mut by_partition: Vec<(i64, Vec<&BlockEntry>)> = Vec::new();
        for e in entries {
            let p = self.partition_of(e.block.max_ts);
            match by_partition.iter_mut().find(|(q, _)| *q == p) {
                Some((_, v)) => v.push(e),
                None => by_partition.push((p, vec![e])),
            }
        }
        by_partition.sort_by_key(|(p, _)| *p);

        let mut written = Vec::new();
        for (partition, group) in by_partition {
            let seq = self.next_seg_seq.fetch_add(1, Ordering::Relaxed);
            let path = self.cfg.dir.join(segment_file_name(partition, seq));
            let bytes = self.degrade_on(Store::Segments, segment::write_segment(&path, &group))?;
            written.push(SegFile { partition, seq, path, bytes });
        }
        Ok(written)
    }

    /// Sets the retention drop floor: [`TsmEngine::drop_expired`] clamps
    /// every cutoff to at most `floor_ns`. The rollup layer uses this as
    /// defense in depth — raw segments holding points not yet covered by a
    /// durable rollup tier must survive even a miscomputed cutoff.
    pub fn set_drop_floor(&self, floor_ns: i64) {
        self.drop_floor.store(floor_ns, Ordering::Release);
    }

    /// Deletes every segment file whose partition is entirely older than
    /// `cutoff_ns` (clamped to the drop floor, see
    /// [`TsmEngine::set_drop_floor`]). Returns the number of files removed;
    /// a file stays registered until its unlink succeeds, and the first
    /// failure ends the sweep.
    pub fn drop_expired(&self, cutoff_ns: i64) -> Result<usize> {
        let cutoff_ns = cutoff_ns.min(self.drop_floor.load(Ordering::Acquire));
        let _g = self.maint.lock();
        let mut files = self.files.lock();
        let mut dropped = 0;
        let mut result = Ok(());
        files.retain(|f| {
            // All points in the file satisfy ts <= max_ts < (p+1)*width.
            let partition_end = (f.partition + 1).saturating_mul(self.cfg.partition_ns);
            if result.is_err() || partition_end > cutoff_ns {
                return true;
            }
            result = unlink(&f.path);
            dropped += result.is_ok() as usize;
            result.is_err()
        });
        self.degrade_on(Store::Segments, result.map(|()| dropped))
    }

    /// The partitions that have accumulated `compact_min_files` segment
    /// files, ascending — the scope of the next background compaction.
    pub fn partitions_to_compact(&self) -> Vec<i64> {
        let files = self.files.lock();
        let mut counts: std::collections::BTreeMap<i64, usize> = Default::default();
        for f in files.iter() {
            *counts.entry(f.partition).or_default() += 1;
        }
        counts
            .into_iter()
            .filter(|&(_, n)| n >= self.cfg.compact_min_files)
            .map(|(p, _)| p)
            .collect()
    }

    /// Number of live segment files.
    #[cfg(test)]
    pub(crate) fn segment_file_count(&self) -> usize {
        self.files.lock().len()
    }

    /// Current storage gauges.
    pub fn stats(&self) -> TsmStats {
        let (segment_files, segment_bytes) = {
            let files = self.files.lock();
            (files.len() as u64, files.iter().map(|f| f.bytes).sum())
        };
        let group = self.wal.group_stats();
        TsmStats {
            wal_bytes: self.wal.bytes(),
            segment_files,
            segment_bytes,
            compactions: self.compactions.load(Ordering::Relaxed),
            recovered_records: self.recovered_records,
            degraded: self.health.lock().0 != Health::Ok,
            wal_group_commits: group.group_commits,
            wal_fsyncs: group.fsyncs,
            wal_points_per_commit: group.points_per_commit,
            scrubbed_bytes: self.scrubbed_bytes.load(Ordering::Relaxed),
            corrupt_frames: self.corrupt_frames.load(Ordering::Relaxed),
            quarantined_segments: self.quarantined.load(Ordering::Relaxed),
            damaged_ranges: self.damaged.lock().len() as u64,
        }
    }

    /// Snapshot of the registered segment files for the scrubber:
    /// `(path, partition, bytes)`, in registration (seq) order.
    pub fn scrub_targets(&self) -> Vec<(PathBuf, i64, u64)> {
        self.files.lock().iter().map(|f| (f.path.clone(), f.partition, f.bytes)).collect()
    }

    /// Paths of the frozen (immutable) WAL segments, safe to CRC-verify
    /// concurrently with appends to the active segment.
    pub fn wal_frozen_paths(&self) -> Vec<PathBuf> {
        self.wal.frozen_paths()
    }

    /// CRC-verifies one frozen WAL segment; returns `(bytes, corrupt_at)`.
    pub(crate) fn verify_wal_file(&self, path: &Path) -> Result<(u64, Option<u64>)> {
        crate::wal::verify_wal_segment(path)
    }

    /// Accounts bytes the scrubber re-verified.
    pub fn record_scrubbed(&self, bytes: u64) {
        self.scrubbed_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Accounts CRC failures the scrubber (or a reader) observed.
    pub fn record_corrupt_frames(&self, n: u64) {
        if n > 0 {
            self.corrupt_frames.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The configured partition width in nanoseconds.
    pub fn partition_ns(&self) -> i64 {
        self.cfg.partition_ns
    }

    /// Quarantines a corrupt segment file: atomically renames it to
    /// `<name>.quarantine`, writes a `<name>.quarantine.json` sidecar
    /// (offsets + affected time range + surviving series), unregisters the
    /// file once it is renamed, and marks the partition's time range
    /// damaged. The caller then rebuilds its in-memory state for the
    /// partition from the surviving files ([`TsmEngine::reload_partition`])
    /// and relies on anti-entropy repair to restore the lost points from a
    /// replica.
    pub fn quarantine_segment(&self, path: &Path, corrupt_offsets: &[u64]) -> Result<QuarantineReport> {
        let _g = self.maint.lock();
        let partition = self
            .files
            .lock()
            .iter()
            .find(|f| f.path == path)
            .map(|f| f.partition)
            .ok_or_else(|| Error::invalid(format!("{}: not a registered segment", path.display())))?;
        // The corrupt frames' contents are unreadable, so the damage is
        // bounded only by the file's partition.
        let start_ns = partition.saturating_mul(self.cfg.partition_ns);
        let end_ns = (partition + 1).saturating_mul(self.cfg.partition_ns);
        let intact_series: Vec<String> = {
            let mut keys: Vec<String> = segment::scan_segment(path)
                .map(|s| s.entries.iter().map(|e| e.series.series_key.clone()).collect())
                .unwrap_or_default();
            keys.sort();
            keys.dedup();
            keys
        };
        let quarantined = quarantine_path(path);
        let sidecar = sidecar_path(&quarantined);
        self.degrade_on(Store::Segments, fs::rename(path, &quarantined).map_err(Error::from))?;
        self.files.lock().retain(|f| f.path != path);
        let report = QuarantineReport {
            original: path.to_path_buf(),
            quarantined,
            sidecar: sidecar.clone(),
            partition,
            start_ns,
            end_ns,
            corrupt_offsets: corrupt_offsets.to_vec(),
            intact_series,
        };
        // Best-effort: the sidecar is forensic, the rename is the safety.
        let _ = fs::write(&sidecar, quarantine_sidecar_json(&report));
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        self.damaged.lock().push(DamagedRange {
            partition,
            start_ns,
            end_ns,
            file: report.quarantined.clone(),
        });
        eprintln!(
            "lms-tsm: warning: quarantined {} ({} corrupt frame(s), partition {} covering \
             [{start_ns}, {end_ns}) ns); awaiting anti-entropy repair",
            report.quarantined.display(),
            corrupt_offsets.len(),
            partition
        );
        Ok(report)
    }

    /// The time ranges currently marked damaged by quarantines.
    pub fn damaged_ranges(&self) -> Vec<DamagedRange> {
        self.damaged.lock().clone()
    }

    /// Re-reads every surviving segment file of one partition, returning
    /// its intact entries sorted by generation — the caller swaps these in
    /// for the partition's previous in-memory sealed blocks after a
    /// quarantine.
    pub fn reload_partition(&self, partition: i64) -> Result<Vec<BlockEntry>> {
        let paths: Vec<PathBuf> = {
            let files = self.files.lock();
            files.iter().filter(|f| f.partition == partition).map(|f| f.path.clone()).collect()
        };
        let mut blocks = Vec::new();
        for p in &paths {
            let scan = segment::scan_segment(p)?;
            self.record_corrupt_frames(scan.corrupt_frames);
            blocks.extend(scan.entries);
        }
        blocks.sort_by_key(|e| e.block.gen);
        Ok(blocks)
    }

    /// Fsyncs the active WAL segment (graceful shutdown).
    pub fn sync(&self) -> Result<()> {
        self.degrade_on(Store::Wal, self.wal.sync())
    }
}

impl std::fmt::Debug for TsmEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TsmEngine").field("dir", &self.cfg.dir).finish_non_exhaustive()
    }
}

/// An in-progress flush (see [`TsmEngine::begin_flush`]).
pub struct FlushSession<'a> {
    engine: &'a TsmEngine,
    _guard: parking_lot::MutexGuard<'a, ()>,
    boundary: u64,
}

impl FlushSession<'_> {
    /// Writes one batch of sealed heads to per-partition segment files.
    /// May be called multiple times (e.g. once per shard).
    pub fn write(&mut self, entries: &[BlockEntry]) -> Result<()> {
        if entries.is_empty() {
            return Ok(());
        }
        let written = self.engine.write_entries(entries)?;
        self.engine.files.lock().extend(written);
        Ok(())
    }

    /// Completes the flush: the sealed data is durable, so the frozen WAL
    /// segments below the checkpoint boundary are deleted.
    pub fn commit(self) -> Result<()> {
        self.engine.degrade_on(Store::Wal, self.engine.wal.remove_frozen(self.boundary))
    }
}

/// An in-progress compaction (see [`TsmEngine::begin_rewrite`]).
pub struct RewriteSession<'a> {
    engine: &'a TsmEngine,
    _guard: parking_lot::MutexGuard<'a, ()>,
    old: Vec<PathBuf>,
    new: Vec<SegFile>,
}

impl RewriteSession<'_> {
    /// Writes one batch of merged, re-encoded blocks.
    pub fn write(&mut self, entries: &[BlockEntry]) -> Result<()> {
        if entries.is_empty() {
            return Ok(());
        }
        self.new.extend(self.engine.write_entries(entries)?);
        Ok(())
    }

    /// Installs the rewritten files and deletes the pre-session files of
    /// the session's partitions; each stays registered until its unlink
    /// succeeds, and the first failure ends the commit.
    pub fn commit(self) -> Result<()> {
        let engine = self.engine;
        engine.files.lock().extend(self.new);
        for path in &self.old {
            engine.degrade_on(Store::Segments, unlink(path))?;
            engine.files.lock().retain(|f| &f.path != path);
        }
        engine.compactions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// Lists the segment files currently registered, for tests and tooling.
pub fn list_segment_files(dir: &Path) -> Vec<PathBuf> {
    let Ok(rd) = fs::read_dir(dir) else { return Vec::new() };
    let mut out: Vec<PathBuf> = rd
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| parse_segment_name(n).is_some())
        })
        .collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::SealedBlock;
    use crate::segment::SeriesId;
    use lms_lineproto::FieldValue;
    use std::sync::Arc;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lms-tsm-eng-{}-{tag}", std::process::id()));
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

    #[test]
    fn segment_name_round_trip() {
        assert_eq!(parse_segment_name(&segment_file_name(0, 0)), Some((0, 0)));
        assert_eq!(parse_segment_name(&segment_file_name(-3, 0xabc)), Some((-3, 0xabc)));
        assert_eq!(
            parse_segment_name(&segment_file_name(i64::MAX / 2, u64::MAX)),
            Some((i64::MAX / 2, u64::MAX))
        );
        assert_eq!(parse_segment_name("seg-1.tsm"), None);
        assert_eq!(parse_segment_name("wal-1-0.tsm"), None);
    }

    #[test]
    fn flush_persists_and_checkpoints() {
        let dir = tmp("flush");
        let (engine, rec) = TsmEngine::open(cfg(&dir)).unwrap();
        assert!(rec.blocks.is_empty() && rec.wal_records.is_empty());
        engine.append_wal("m v=1 500", 1).unwrap();
        let gen = engine.next_gen();
        let mut flush = engine.begin_flush(|| ()).unwrap();
        flush.write(&[entry("m", gen, 500..501)]).unwrap();
        flush.commit().unwrap();
        assert_eq!(engine.segment_file_count(), 1);
        drop(engine);

        let (engine2, rec2) = TsmEngine::open(cfg(&dir)).unwrap();
        assert_eq!(rec2.blocks.len(), 1, "sealed block survives restart");
        assert_eq!(rec2.wal_records.len(), 0, "checkpointed WAL is gone");
        assert_eq!(engine2.next_gen(), gen + 1, "generation counter resumes past sealed max");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_before_commit_keeps_wal() {
        let dir = tmp("crash");
        {
            let (engine, _) = TsmEngine::open(cfg(&dir)).unwrap();
            engine.append_wal("m v=1 500", 1).unwrap();
            let gen = engine.next_gen();
            let mut flush = engine.begin_flush(|| ()).unwrap();
            flush.write(&[entry("m", gen, 500..501)]).unwrap();
            // No commit: simulated crash after segment write, before WAL delete.
        }
        let (_, rec) = TsmEngine::open(cfg(&dir)).unwrap();
        assert_eq!(rec.blocks.len(), 1);
        assert_eq!(rec.wal_records.len(), 1, "WAL still replayable (idempotent overlap)");
        assert_eq!(rec.wal_records[0].batch, "m v=1 500");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Plants a full disk (`/dev/full`, every write fails `ENOSPC`) at
    /// each of `paths`.
    fn plant_full_disk(paths: &[PathBuf]) {
        for p in paths {
            std::os::unix::fs::symlink("/dev/full", p).unwrap();
        }
    }

    fn listing(dir: &Path) -> Vec<PathBuf> {
        fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()).collect()
    }

    #[test]
    fn segment_write_fault_aborts_flush_without_data_loss() {
        let dir = tmp("fault");
        {
            let (engine, _) = TsmEngine::open(cfg(&dir)).unwrap();
            engine.append_wal("m v=1 500", 1).unwrap();
            let next = dir.join(segment_file_name(0, 0)).with_extension("tmp");
            plant_full_disk(&[next]);
            let gen = engine.next_gen();
            let mut flush = engine.begin_flush(|| ()).unwrap();
            assert!(flush.write(&[entry("m", gen, 500..501)]).is_err());
            assert!(engine.stats().degraded, "a failed segment write degrades");
        }
        let (engine, rec) = TsmEngine::open(cfg(&dir)).unwrap();
        assert_eq!(rec.blocks.len(), 0, "aborted segment never became visible");
        assert_eq!(rec.wal_records.len(), 1, "WAL covers the lost flush");
        assert_eq!(engine.segment_file_count(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_segment_write_is_probed_at_the_segment_writer() {
        let dir = tmp("segprobe");
        let (engine, _) = TsmEngine::open(cfg(&dir)).unwrap();
        engine.append_wal("m v=1 500", 1).unwrap();
        // The disk is full under the next segment files; the WAL works.
        let full: Vec<PathBuf> =
            (0..4).map(|seq| dir.join(segment_file_name(0, seq)).with_extension("tmp")).collect();
        plant_full_disk(&full);
        let gen = engine.next_gen();
        let mut flush = engine.begin_flush(|| ()).unwrap();
        assert!(flush.write(&[entry("m", gen, 500..501)]).is_err());
        drop(flush);

        // The probe tries the segment writer, not the WAL: it fails and
        // leaves no file of its own.
        let before = listing(&dir);
        assert!(!engine.probe());
        assert!(engine.stats().degraded);
        assert!(listing(&dir).iter().all(|f| before.contains(f)), "the probe left a file");

        for p in &full {
            let _ = fs::remove_file(p);
        }
        assert!(engine.probe());
        assert_eq!(engine.health(), Health::Ok);
        assert!(listing(&dir).iter().all(|f| f.extension().is_none_or(|e| e != "tmp")));
        let mut flush = engine.begin_flush(|| ()).unwrap();
        flush.write(&[entry("m", gen, 500..501)]).unwrap();
        flush.commit().unwrap();
        assert_eq!(engine.segment_file_count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_on_wal_append_degrades_to_read_only() {
        let dir = tmp("enospc");
        let (engine, _) = TsmEngine::open(cfg(&dir)).unwrap();
        engine.append_wal("m v=1 500", 1).unwrap();
        assert_eq!(engine.health(), Health::Ok);

        // The disk fills up under the next WAL segments; a flush's rotation
        // moves the log onto them.
        let wal_dir = dir.join("wal");
        let full: Vec<PathBuf> = (1..4).map(|seq| wal_dir.join(format!("{seq:016x}.wal"))).collect();
        plant_full_disk(&full);
        drop(engine.begin_flush(|| ()).unwrap());
        let err = engine.append_wal("m v=2 501", 1).unwrap_err();
        assert!(
            matches!(&err, Error::Io(e) if e.kind() == std::io::ErrorKind::StorageFull),
            "first failure surfaces the ENOSPC: {err}"
        );
        let Health::Degraded { reason } = engine.health() else { panic!("not degraded") };
        assert!(reason.contains("No space left on device"), "{reason}");
        assert!(engine.stats().degraded);

        // Degraded mode refuses up front — no disk I/O, transient error.
        let err = engine.append_wal("m v=3 502", 1).unwrap_err();
        assert!(matches!(err, Error::Unavailable(_)), "{err}");
        assert!(err.is_transient(), "callers must keep the data spooled, not drop it");
        assert!(err.to_string().contains(&reason), "the refusal names the reason: {err}");

        // A probe while the disk is still full fails and leaves no file.
        let before = listing(&wal_dir);
        assert!(!engine.probe());
        assert!(engine.stats().degraded);
        assert!(listing(&wal_dir).iter().all(|f| before.contains(f)), "the probe left a file");

        // Space is freed: the next probe heals, with no other call, and
        // writes resume.
        for p in &full {
            let _ = fs::remove_file(p);
        }
        assert!(engine.probe());
        assert_eq!(engine.health(), Health::Ok);
        engine.append_wal("m v=4 503", 1).unwrap();
        drop(engine);
        let (_, rec) = TsmEngine::open(cfg(&dir)).unwrap();
        let batches: Vec<&str> =
            rec.wal_records.iter().map(|r| r.batch.as_str()).filter(|b| !b.is_empty()).collect();
        assert_eq!(batches, ["m v=1 500", "m v=4 503"], "every acknowledged batch replays");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn partitioning_and_retention_drop() {
        let dir = tmp("retention");
        let (engine, _) = TsmEngine::open(cfg(&dir)).unwrap();
        let mut flush = engine.begin_flush(|| ()).unwrap();
        // Three partitions: [0,1000), [1000,2000), [2000,3000).
        flush.write(&[entry("a", 0, 0..10), entry("b", 1, 1500..1510), entry("c", 2, 2500..2510)])
            .unwrap();
        flush.commit().unwrap();
        assert_eq!(engine.segment_file_count(), 3, "one file per partition");

        assert_eq!(engine.drop_expired(1000).unwrap(), 1);
        assert_eq!(engine.drop_expired(1999).unwrap(), 0, "partition 1 ends at 2000");
        assert_eq!(engine.drop_expired(2000).unwrap(), 1);
        assert_eq!(engine.segment_file_count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_segment_stays_registered_until_its_unlink_succeeds() {
        let dir = tmp("unlink");
        let (engine, _) = TsmEngine::open(cfg(&dir)).unwrap();
        let mut flush = engine.begin_flush(|| ()).unwrap();
        flush.write(&[entry("a", 0, 0..10), entry("b", 1, 1500..1510), entry("c", 2, 2500..2510)])
            .unwrap();
        flush.commit().unwrap();
        let files = list_segment_files(&dir);
        assert_eq!(files.len(), 3);

        // Deleted by hand: retention counts it as gone and keeps the rest.
        fs::remove_file(&files[0]).unwrap();
        assert_eq!(engine.drop_expired(1000).unwrap(), 1);
        assert_eq!(engine.segment_file_count(), 2, "the live files stay registered");
        assert_eq!(engine.health(), Health::Ok);

        // An unlink that fails (a directory in the file's place) keeps the
        // file registered and degrades; once it can go, it goes.
        fs::remove_file(&files[1]).unwrap();
        fs::create_dir(&files[1]).unwrap();
        assert!(engine.drop_expired(2000).is_err());
        assert_eq!(engine.segment_file_count(), 2);
        assert!(engine.stats().degraded);
        fs::remove_dir(&files[1]).unwrap();
        assert!(engine.probe());
        assert_eq!(engine.drop_expired(2000).unwrap(), 1);
        assert_eq!(engine.segment_file_count(), 1);
        assert!(files[2].exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rewrite_replaces_its_partitions_files_and_counts_compactions() {
        let dir = tmp("rewrite");
        let (engine, _) = TsmEngine::open(cfg(&dir)).unwrap();
        for i in 0..4u64 {
            let mut flush = engine.begin_flush(|| ()).unwrap();
            flush.write(&[entry("a", i, 0..10)]).unwrap();
            flush.commit().unwrap();
        }
        let mut flush = engine.begin_flush(|| ()).unwrap();
        flush.write(&[entry("a", 4, 1500..1510)]).unwrap();
        flush.commit().unwrap();
        assert_eq!(engine.segment_file_count(), 5);
        assert_eq!(engine.partitions_to_compact(), [0], "partition 1 holds one file");
        let other: Vec<PathBuf> = list_segment_files(&dir)
            .into_iter()
            .filter(|p| p.to_string_lossy().contains("seg-1-"))
            .collect();

        // Scoped to partition 0: partition 1's file is neither replaced
        // nor deleted.
        let mut rw = engine.begin_rewrite(Some(&[0]));
        rw.write(&[entry("a", 5, 0..10)]).unwrap();
        rw.commit().unwrap();
        assert_eq!(engine.segment_file_count(), 2);
        assert!(engine.partitions_to_compact().is_empty());
        assert_eq!(engine.stats().compactions, 1);
        assert!(other.iter().all(|p| p.exists()) && other.len() == 1);

        // Unscoped: every pre-session file goes.
        let mut rw = engine.begin_rewrite(None);
        rw.write(&[entry("a", 6, 0..10), entry("a", 6, 1500..1510)]).unwrap();
        rw.commit().unwrap();
        assert_eq!(engine.segment_file_count(), 2);
        assert!(!other[0].exists());
        assert_eq!(list_segment_files(&dir).len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }
}
