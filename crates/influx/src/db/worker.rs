//! The storage configuration and gauges, and the supervised background
//! worker that flushes, compacts and scrubs, with its health accessors.

use super::{Database, Influx};
use lms_lineproto::FieldValue;
use lms_tsm::{Health, TsmConfig};
use lms_util::{FxHashMap, Supervisor, SupervisorConfig, WorkerReport};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Configuration of the one storage mode: every database a node holds is
/// an `lms-tsm` engine (WAL and sealed segment files) rooted at
/// `data_dir/<db name>`; a name that cannot be a directory name is refused.
#[derive(Debug, Clone)]
pub struct StorageConfig {
    /// Root directory; each database gets a subdirectory named after it.
    pub data_dir: PathBuf,
    /// Flush (seal heads to disk) once a database holds this many
    /// un-sealed **field values** (a line with five fields counts five). A
    /// bound on what un-sealed data costs — head memory (≈40 B per value)
    /// and the WAL a restart must replay (≈25 B per value) — not a block
    /// size: how many values a sealed block holds is `flush_interval`'s
    /// business.
    pub flush_points: usize,
    /// Flush a database once its oldest un-sealed value is this old — the
    /// trigger in normal operation; `flush_points` cuts it short only
    /// under a burst.
    pub flush_interval: Duration,
    /// Time-partition width of segment files (retention drops whole files).
    pub partition: Duration,
    /// Fsync the WAL on every write (durability over throughput).
    pub wal_fsync: bool,
    /// Compact a partition once it accumulates this many segment files.
    pub compact_min_files: usize,
    /// WAL group-commit window: with `wal_fsync`, concurrent appends
    /// within this window share one fsync; zero means no hold window.
    pub wal_group_commit: Duration,
    /// WAL group-commit size bound: commit early once this many staged
    /// bytes accumulate (`0` = no size bound).
    pub wal_group_commit_bytes: usize,
    /// Background integrity-scrub cadence: how often the storage worker
    /// re-verifies sealed segment CRCs. Zero disables scrubbing.
    pub scrub_interval: Duration,
    /// Byte budget per scrub pass; bounds the read-bandwidth the scrubber
    /// steals from queries. Zero disables scrubbing.
    pub scrub_rate_bytes: u64,
    /// WAL segment size: the active segment rotates (freezes) past this
    /// many bytes. Scrub verification is whole-file granular, so keep
    /// this at or below `scrub_rate_bytes` — a frozen WAL file larger
    /// than the pass budget makes every WAL-phase pass overshoot it.
    pub wal_segment_bytes: usize,
}

impl StorageConfig {
    /// Defaults: flush every 10s or at 1M un-sealed field values (≈40 MB
    /// of heads, ≈25 MB of WAL to replay), scrub 8 MiB per minute, and the
    /// engine's own defaults ([`TsmConfig::new`]) for the partition width,
    /// the WAL segment size, fsync, compaction and group commits.
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        let engine = TsmConfig::new(data_dir);
        StorageConfig {
            flush_points: 1_000_000,
            flush_interval: Duration::from_secs(10),
            partition: Duration::from_nanos(engine.partition_ns as u64),
            wal_fsync: engine.wal_fsync,
            compact_min_files: engine.compact_min_files,
            wal_group_commit: Duration::from_millis(engine.wal_group_commit_ms),
            wal_group_commit_bytes: engine.wal_group_commit_bytes,
            scrub_interval: Duration::from_secs(60),
            scrub_rate_bytes: 8 * 1024 * 1024,
            wal_segment_bytes: engine.wal_segment_bytes,
            data_dir: engine.dir,
        }
    }

    /// The engine configuration of database `db`.
    pub(super) fn tsm_config(&self, db: &str) -> TsmConfig {
        TsmConfig {
            partition_ns: self.partition.as_nanos().clamp(1, i64::MAX as u128) as i64,
            wal_fsync: self.wal_fsync,
            compact_min_files: self.compact_min_files.max(2),
            wal_group_commit_ms: self.wal_group_commit.as_millis().min(u64::MAX as u128) as u64,
            wal_group_commit_bytes: self.wal_group_commit_bytes,
            wal_segment_bytes: self.wal_segment_bytes.max(1),
            ..TsmConfig::new(self.data_dir.join(db))
        }
    }
}

/// Aggregate storage gauges, served under `/stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StorageStats {
    /// Points in mutable heads (not yet sealed).
    pub head_points: u64,
    /// Point versions in sealed blocks.
    pub sealed_points: u64,
    /// Sealed block count across all columns.
    pub sealed_blocks: u64,
    /// Compressed bytes across sealed blocks.
    pub sealed_bytes: u64,
    /// Bytes in write-ahead logs.
    pub wal_bytes: u64,
    /// Segment files on disk.
    pub segment_files: u64,
    /// Bytes in segment files.
    pub segment_bytes: u64,
    /// Compactions since open.
    pub compactions: u64,
    /// WAL records replayed at the last open.
    pub recovered_records: u64,
    /// WAL record groups committed since open.
    pub group_commits: u64,
    /// WAL fsync calls since open.
    pub wal_fsyncs: u64,
    /// EWMA of points per committed WAL group.
    pub batched_points_per_commit: f64,
    /// Points currently staged in shard append buffers, not yet drained
    /// into series heads.
    pub shard_buffer_depth: u64,
    /// Bytes re-verified by the background integrity scrubber since open.
    pub scrubbed_bytes: u64,
    /// CRC-failed frames observed (at segment load or by the scrubber).
    pub corrupt_frames: u64,
    /// Segment files quarantined after failing verification.
    pub quarantined_segments: u64,
    /// Time ranges currently marked damaged and awaiting repair.
    pub damaged_ranges: u64,
}

impl StorageStats {
    /// Sealed compression ratio: in-memory representation bytes per
    /// compressed byte (`0` when nothing is sealed).
    pub fn compression_ratio(&self) -> f64 {
        if self.sealed_bytes == 0 {
            return 0.0;
        }
        let raw = self.sealed_points * std::mem::size_of::<(i64, FieldValue)>() as u64;
        raw as f64 / self.sealed_bytes as f64
    }

    fn add(&mut self, other: StorageStats) {
        self.head_points += other.head_points;
        self.sealed_points += other.sealed_points;
        self.sealed_blocks += other.sealed_blocks;
        self.sealed_bytes += other.sealed_bytes;
        self.wal_bytes += other.wal_bytes;
        self.segment_files += other.segment_files;
        self.segment_bytes += other.segment_bytes;
        self.compactions += other.compactions;
        self.recovered_records += other.recovered_records;
        self.group_commits += other.group_commits;
        self.wal_fsyncs += other.wal_fsyncs;
        // An EWMA does not sum meaningfully; report the busiest database.
        self.batched_points_per_commit =
            self.batched_points_per_commit.max(other.batched_points_per_commit);
        self.shard_buffer_depth += other.shard_buffer_depth;
        self.scrubbed_bytes += other.scrubbed_bytes;
        self.corrupt_frames += other.corrupt_frames;
        self.quarantined_segments += other.quarantined_segments;
        self.damaged_ranges += other.damaged_ranges;
    }
}

impl Database {
    /// Storage gauges for this database (engine gauges plus a live sweep
    /// of the in-memory layer) under read locks only: a scrape that drained
    /// would apply every shard's backlog in scrape-sized pieces. Staged
    /// points are head points not yet applied, so `head_points` includes
    /// them — an upper bound while overwrites of one point sit staged.
    pub fn storage_stats(&self) -> StorageStats {
        let staged = self.shards.iter().map(|s| s.staged.depth() as u64).sum();
        let mut stats =
            StorageStats { shard_buffer_depth: staged, head_points: staged, ..Default::default() };
        let e = self.engine.stats();
        stats.wal_bytes = e.wal_bytes;
        stats.segment_files = e.segment_files;
        stats.segment_bytes = e.segment_bytes;
        stats.compactions = e.compactions;
        stats.recovered_records = e.recovered_records;
        stats.group_commits = e.wal_group_commits;
        stats.wal_fsyncs = e.wal_fsyncs;
        stats.batched_points_per_commit = e.wal_points_per_commit;
        stats.scrubbed_bytes = e.scrubbed_bytes;
        stats.corrupt_frames = e.corrupt_frames;
        stats.quarantined_segments = e.quarantined_segments;
        stats.damaged_ranges = e.damaged_ranges;
        for shard in self.shards.iter() {
            let shard = shard.data.read();
            for series in shard.series.iter() {
                for (_, col) in series.fields() {
                    stats.head_points += col.head_len() as u64;
                    let (points, bytes) = col.sealed_sizes();
                    stats.sealed_points += points as u64;
                    stats.sealed_bytes += bytes as u64;
                    stats.sealed_blocks += col.sealed().len() as u64;
                }
            }
        }
        stats
    }
}

impl Influx {
    /// Aggregate storage gauges across all databases.
    pub fn storage_stats(&self) -> StorageStats {
        let mut stats = StorageStats::default();
        for (_, db) in self.databases() {
            stats.add(db.storage_stats());
        }
        stats
    }

    /// Spawns the background flush/compaction worker under a supervisor.
    /// Returns `None` when the thread cannot be spawned. The worker
    /// flushes a database once its oldest un-sealed value is
    /// `flush_interval` old or it holds `flush_points` un-sealed field
    /// values, and compacts the partitions that are due after flushing;
    /// stopping it performs a final flush. A panicking worker is
    /// restarted with backoff; its health feeds [`Influx::workers_ready`].
    pub fn spawn_storage_worker(&self) -> Option<StorageWorker> {
        self.spawn_storage_worker_with(SupervisorConfig::default())
    }

    /// [`Influx::spawn_storage_worker`] with an explicit restart policy
    /// (tests shrink the backoff and budget).
    pub fn spawn_storage_worker_with(&self, sup_cfg: SupervisorConfig) -> Option<StorageWorker> {
        let cfg = self.inner.read().storage.clone();
        let supervisor = Supervisor::new(sup_cfg);
        let ix = self.clone();
        let panics = self.worker_panics.clone();
        let spawned = supervisor.spawn("storage", move |ctx| {
            let tick = Duration::from_millis(200).min(cfg.flush_interval);
            // Per database: when it last had nothing un-sealed or was last
            // flushed successfully — its oldest un-sealed value is no
            // older. A flush of one database (or a failed one) does not
            // restart another's interval.
            let mut clean_at: FxHashMap<String, Instant> = FxHashMap::default();
            let mut last_scrub = Instant::now();
            let scrub_enabled = cfg.scrub_interval > Duration::ZERO && cfg.scrub_rate_bytes > 0;
            while !ctx.should_stop() {
                ctx.sleep(tick);
                if panics
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok()
                {
                    panic!("injected storage worker panic");
                }
                for (name, db) in ix.databases() {
                    // A degraded engine is probed, not flushed: one trial
                    // WAL append heals it once its storage works again.
                    if !db.engine.probe() {
                        continue;
                    }
                    let now = Instant::now();
                    let unsealed = db.unsealed_values();
                    let clean_at = clean_at.entry(name.clone()).or_insert(now);
                    if unsealed == 0 {
                        *clean_at = now;
                    } else if (now.duration_since(*clean_at) >= cfg.flush_interval
                        || unsealed >= cfg.flush_points)
                        && db.flush_storage().is_ok()
                    {
                        *clean_at = Instant::now();
                        // Downsample the freshly sealed ranges; an
                        // error leaves them claimed-back for retry.
                        let _ = ix.rollup_pass(&name);
                    }
                    let _ = db.compact_due_partitions();
                }
                // Budgeted background scrub: re-verify sealed-segment CRCs
                // and quarantine damage so the router's repair pass can
                // heal it from a healthy replica.
                if scrub_enabled && last_scrub.elapsed() >= cfg.scrub_interval {
                    let _ = ix.scrub_storage(cfg.scrub_rate_bytes);
                    last_scrub = Instant::now();
                }
            }
            let _ = ix.flush_storage();
        });
        spawned.ok()?;
        self.inner.write().supervisor = Some(supervisor.clone());
        Some(StorageWorker { supervisor })
    }

    /// Readiness of the supervised background workers: `true` when no
    /// worker is mid-restart or permanently failed (also `true` before the
    /// worker is spawned).
    pub fn workers_ready(&self) -> bool {
        self.inner.read().supervisor.as_ref().map(|s| s.is_ready()).unwrap_or(true)
    }

    /// Health reports of the supervised background workers.
    pub fn worker_reports(&self) -> Vec<WorkerReport> {
        self.inner.read().supervisor.as_ref().map(|s| s.reports()).unwrap_or_default()
    }

    /// The storage health of the node: the first degraded database's
    /// [`Health`], its reason prefixed with the database's name, or
    /// [`Health::Ok`].
    pub fn storage_health(&self) -> Health {
        let degraded = self.databases().into_iter().find_map(|(name, db)| {
            match db.engine.health() {
                Health::Ok => None,
                Health::Degraded { reason } => Some(format!("{name}: {reason}")),
            }
        });
        degraded.map_or(Health::Ok, |reason| Health::Degraded { reason })
    }

    /// Fault injection: make the storage worker panic on its next `n`
    /// ticks (each tick consumes one pending panic).
    pub fn inject_storage_worker_panics(&self, n: u64) {
        self.worker_panics.store(n, Ordering::SeqCst);
    }
}

/// Handle to the supervised background flush/compaction worker; stopping
/// (or dropping) it performs a final flush so a graceful shutdown loses
/// nothing even with WAL fsync disabled.
pub struct StorageWorker {
    supervisor: Supervisor,
}

impl StorageWorker {
    /// Signals the worker and waits for its final flush.
    pub fn stop(self) {
        self.supervisor.shutdown();
    }
}

impl Drop for StorageWorker {
    fn drop(&mut self) {
        self.supervisor.shutdown();
    }
}
