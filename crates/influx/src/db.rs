//! Databases and the embedded [`Influx`] handle.
//!
//! A [`Database`] owns the series of one logical database (the paper's
//! global database, its rollup tiers, any other a client writes to).
//! [`Influx`] bundles multiple databases behind one thread-safe handle —
//! the same object backs the embedded API and the HTTP server — and serves
//! each user's view of the global database (see [`crate::user_view`]).
//!
//! # Ingest concurrency
//!
//! Writers never take a storage-wide exclusive lock. The outer
//! `db name → Database` map is read-mostly (`RwLock` around an
//! [`Arc<Database>`] map: writes only when a database is created), and each
//! database partitions its series across [`DEFAULT_SHARDS`] lock-striped
//! shards selected by series-key hash. Points enter a shard one way only,
//! WAL replay included: [`Database::write_parsed_batch`] stages them in the
//! shard's append buffer, and whichever writer finds the shard backlogged
//! and free drains it (the `staging` submodule owns the buffer and that
//! decision).
//!
//! A series is registered in `meta` — its measurement's list and the tag
//! postings — before any of its points is staged, and retention, the one
//! path that removes series, excludes staging (the retention gate). So
//! `meta` names the series of every completed write, and a read finds its
//! series there and drains only the shards they live in before it looks:
//! every caller observes its own completed writes. Whole-database readers
//! (flush, integrity digests, counts) drain every shard.
//!
//! Lock order is `meta` → shard `data` → staging buffer, established in
//! `series_slot`'s callers and [`Database::enforce_retention`]; the hot
//! path takes a single shard lock and nothing else. The retention gate
//! sits outside them all: staging holds it shared, retention exclusively,
//! and neither takes it while holding another lock. Series are stored as
//! `Arc<Series>` so queries snapshot cheaply (clone the `Arc`s under a
//! shard read lock) while writers mutate in place through `Arc::make_mut`
//! — the copy-on-write clone only triggers when a query holds the same
//! series concurrently.

mod index;
mod staging;

use crate::exec::{self, QueryResult};
use crate::query::{Condition, Select, Statement};
use crate::storage::{lww_dedup, Series};
use index::{shrink_sparse_map, shrink_sparse_vec, MeasurementIndex};
use lms_lineproto::{parse_batch, FieldValue, ParsedLine, Point, Precision};
use lms_rollup::{align_down, align_up, is_rollup_db, rollup_db_name, Tier, TIERS};
use lms_rollup::{WATERMARK_FIELD, WATERMARK_MEASUREMENT};
use lms_tsm::wal::MAX_BATCH_BYTES;
use lms_tsm::{
    Agg, BlockEntry, Recovered, ScrubOutcome, Scrubber, SealedBlock, SeriesId, TsmConfig, TsmEngine,
};
use lms_util::digest::{bucket_of, owner_mask, point_hash, BucketDigest};
use lms_util::ring::HashRing;
use lms_util::{
    hash::fx_hash, Clock, Error, FxHashMap, FxHashSet, Result, Supervisor, SupervisorConfig,
    WorkerReport,
};
use parking_lot::{Mutex, RwLock};
use std::collections::hash_map::Entry;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Default number of lock-striped series shards per database.
pub const DEFAULT_SHARDS: usize = 16;

/// Configuration of the persistent storage layer (one `lms-tsm` engine per
/// database, rooted at `data_dir/<db name>`). Absent entirely for the
/// memory-only mode that predates persistence.
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
    /// of heads, ≈25 MB of WAL to replay), 2h partitions, fsync on
    /// rotation only, compact a partition at 4 files, 2 ms / 1 MiB group
    /// commits, scrub 8 MiB per minute.
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        StorageConfig {
            data_dir: data_dir.into(),
            flush_points: 1_000_000,
            flush_interval: Duration::from_secs(10),
            partition: Duration::from_secs(2 * 3600),
            wal_fsync: false,
            compact_min_files: 4,
            wal_group_commit: Duration::from_millis(2),
            wal_group_commit_bytes: 1024 * 1024,
            scrub_interval: Duration::from_secs(60),
            scrub_rate_bytes: 8 * 1024 * 1024,
            wal_segment_bytes: 4 * 1024 * 1024,
        }
    }

    fn tsm_config(&self, db: &str) -> TsmConfig {
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

/// Splits a sorted point run into contiguous sub-runs that neither
/// straddle a segment-file time partition (retention drops whole files)
/// nor an epoch-aligned block span (a `GROUP BY time(w)` window with `w` a
/// multiple of the span fully contains every interior block, so the
/// executor answers it from the block summary without decoding).
fn partition_runs<'a>(
    engine: &'a TsmEngine,
    points: &'a [(i64, FieldValue)],
) -> impl Iterator<Item = &'a [(i64, FieldValue)]> {
    points.chunk_by(move |a, b| {
        engine.partition_of(a.0) == engine.partition_of(b.0)
            && engine.span_of(a.0) == engine.span_of(b.0)
    })
}

/// A database name that is safe to use verbatim as a directory name (and
/// to round-trip back from one at startup). Other names fall back to
/// memory-only storage.
fn is_safe_db_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 128
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
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
    /// True when any database's engine is in degraded read-only mode
    /// (`ENOSPC` on WAL append or segment write).
    pub degraded: bool,
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
        self.degraded |= other.degraded;
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

/// Options for a write request.
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteOptions {
    /// Precision of timestamps in the batch (default nanoseconds).
    pub precision: Precision,
}

/// Outcome of writing a batch: how many points landed, how many lines were
/// rejected (with the first error kept for reporting).
#[derive(Debug, Default)]
pub struct WriteOutcome {
    /// Accepted points.
    pub written: usize,
    /// Rejected lines.
    pub rejected: usize,
    /// First rejection, if any (line number, message).
    pub first_error: Option<(usize, String)>,
}

/// One lock stripe: a slab of series and the slot of each series key. A
/// slot holds until retention (which drains the shard first) removes a
/// series, so a staged point names its series by slot.
#[derive(Debug, Default)]
struct Shard {
    slots: FxHashMap<String, u32>,
    series: Vec<Arc<Series>>,
}

impl Shard {
    fn get(&self, key: &str) -> Option<&Arc<Series>> {
        self.slots.get(key).map(|&slot| &self.series[slot as usize])
    }

    fn get_mut(&mut self, key: &str) -> Option<&mut Arc<Series>> {
        self.slots.get(key).map(|&slot| &mut self.series[slot as usize])
    }

    /// Keeps the series `keep` accepts, in order, and renumbers the slots.
    fn retain(&mut self, mut keep: impl FnMut(&mut Arc<Series>) -> bool) {
        let (mut moved_to, mut next) = (Vec::with_capacity(self.series.len()), 0);
        self.series.retain_mut(|series| {
            let kept = keep(series);
            moved_to.push(if kept { next } else { u32::MAX });
            next += kept as u32;
            kept
        });
        self.slots.retain(|_, slot| {
            *slot = moved_to[*slot as usize];
            *slot != u32::MAX
        });
        shrink_sparse_map(&mut self.slots);
        shrink_sparse_vec(&mut self.series);
    }
}

/// One lock stripe plus the staging buffer writes reach it through (see
/// [`staging`]).
#[derive(Debug, Default)]
struct ShardSlot {
    data: RwLock<Shard>,
    staged: staging::Staged,
}

/// The series behind `key`, created from `id()` and registered in the
/// measurement index when new. The caller holds `meta`, then the shard —
/// the lock order every series creation follows.
fn series_slot<'a>(
    meta: &mut Meta,
    shard: &'a mut Shard,
    key: &str,
    id: impl FnOnce() -> Arc<SeriesId>,
) -> &'a mut Arc<Series> {
    let slot = match shard.slots.entry(key.to_string()) {
        Entry::Occupied(slot) => *slot.get(),
        Entry::Vacant(slot) => {
            let id = id();
            meta.measurements.entry(id.measurement.clone()).or_default().add(id.clone());
            shard.series.push(Arc::new(Series::new(id)));
            *slot.insert(shard.series.len() as u32 - 1)
        }
    };
    &mut shard.series[slot as usize]
}

/// Cross-shard metadata, guarded by its own lock (taken *before* any shard
/// lock — see the module docs for the lock order).
#[derive(Debug, Default)]
struct Meta {
    /// measurement → its series and tag postings.
    measurements: FxHashMap<String, MeasurementIndex>,
    retention: Option<Duration>,
}

/// Executor tuning knobs, per database. Both default on; tests and the
/// equivalence suite flip them to force the full-decode reference path
/// (`cargo test` shares one process, so these are runtime switches rather
/// than compile-time features).
#[derive(Debug, Clone, Copy)]
pub struct QueryTuning {
    /// Answer aggregates over fully-covered sealed blocks from their
    /// pre-computed summaries instead of decoding.
    pub use_summaries: bool,
    /// Scan the columns of a large group on a small worker pool.
    pub parallel_scan: bool,
}

impl Default for QueryTuning {
    fn default() -> Self {
        QueryTuning { use_summaries: true, parallel_scan: true }
    }
}

/// One logical database with lock-striped series storage and an optional
/// persistent engine beneath it.
#[derive(Debug)]
pub struct Database {
    /// The stripes; length is a power of two so shard selection is a mask.
    shards: Box<[ShardSlot]>,
    meta: RwLock<Meta>,
    /// Held shared by a batch from its series' registration through the
    /// staging of their points, and exclusively by retention, which removes
    /// series: every staged point's series exists when its shard drains.
    retention_gate: RwLock<()>,
    /// Persistence, when configured. The in-memory layer is always the
    /// source of truth for reads; the engine makes it durable.
    engine: Option<Arc<TsmEngine>>,
    /// Blocks sealed in memory whose segment write failed: retried by the
    /// next flush so the on-disk state catches up (the WAL still covers
    /// them in the meantime).
    unflushed: Mutex<Vec<BlockEntry>>,
    /// The flush-trigger gauge: field values staged since the last flush
    /// settled it (see [`Self::unsealed_values`]).
    unsealed: AtomicUsize,
    /// [`QueryTuning::use_summaries`].
    use_summaries: AtomicBool,
    /// [`QueryTuning::parallel_scan`].
    parallel_scan: AtomicBool,
    /// True when this database feeds rollup tiers: flushes then record the
    /// time ranges they sealed in [`Self::rollup_dirty`] so the next rollup
    /// pass recomputes exactly the touched windows.
    rollup_tracked: AtomicBool,
    /// Closed `[min_ts, max_ts]` ranges sealed since the last rollup pass.
    rollup_dirty: Mutex<Vec<(i64, i64)>>,
    /// Rollup watermark: every raw point with `ts < watermark` has been
    /// incorporated into the rollup tiers (`i64::MIN` = no rollups yet).
    /// Recovered from the 1m tier database at startup.
    rollup_watermark: AtomicI64,
    /// Ceiling on retention cutoffs: [`Self::enforce_retention`] never
    /// evicts at or past this timestamp (`i64::MAX` = unclamped). Set from
    /// the rollup watermark so raw data outlives its un-rolled tail and the
    /// tier window it straddles.
    retention_clamp: AtomicI64,
    /// High-water mark of applied retention cutoffs: raw points below this
    /// may already be gone, so rollup recomputation must never touch
    /// windows starting under it (a late backfill would otherwise replace
    /// an exact tier row with a partial recompute).
    raw_drop_cutoff: AtomicI64,
    /// Incremental CRC-scrub cursor over this database's segment files.
    scrubber: Mutex<Scrubber>,
}

impl Default for Database {
    fn default() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }
}

impl Database {
    /// An empty database with no retention limit and the default shard
    /// count.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty database with `shards` lock stripes (rounded up to a power
    /// of two).
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        Database {
            shards: (0..n).map(|_| ShardSlot::default()).collect(),
            meta: RwLock::new(Meta::default()),
            retention_gate: RwLock::new(()),
            engine: None,
            unflushed: Mutex::new(Vec::new()),
            unsealed: AtomicUsize::new(0),
            use_summaries: AtomicBool::new(true),
            parallel_scan: AtomicBool::new(true),
            rollup_tracked: AtomicBool::new(false),
            rollup_dirty: Mutex::new(Vec::new()),
            rollup_watermark: AtomicI64::new(i64::MIN),
            retention_clamp: AtomicI64::new(i64::MAX),
            raw_drop_cutoff: AtomicI64::new(i64::MIN),
            scrubber: Mutex::new(Scrubber::new()),
        }
    }

    /// The executor tuning knobs currently in effect.
    pub fn query_tuning(&self) -> QueryTuning {
        QueryTuning {
            use_summaries: self.use_summaries.load(Ordering::Relaxed),
            parallel_scan: self.parallel_scan.load(Ordering::Relaxed),
        }
    }

    /// Replaces the executor tuning knobs (takes effect on the next query).
    pub fn set_query_tuning(&self, tuning: QueryTuning) {
        self.use_summaries.store(tuning.use_summaries, Ordering::Relaxed);
        self.parallel_scan.store(tuning.parallel_scan, Ordering::Relaxed);
    }

    /// Opens (or creates) a persistent database: sealed blocks are loaded
    /// from segment files and acknowledged-but-unflushed batches are
    /// replayed from the WAL, so the result serves the same queries as the
    /// pre-restart instance.
    pub fn open_persistent(shards: usize, cfg: TsmConfig) -> Result<Database> {
        let (engine, recovered) = TsmEngine::open(cfg)?;
        let mut db = Database::with_shards(shards);
        db.engine = Some(Arc::new(engine));
        db.install_recovered(recovered);
        Ok(db)
    }

    /// The persistent engine, when this database has one.
    pub fn engine(&self) -> Option<&Arc<TsmEngine>> {
        self.engine.as_ref()
    }

    /// Installs recovered state: sealed blocks first (ascending generation,
    /// which re-creates series in their pre-crash first-write order), then
    /// the WAL replay on top (its newer values win over sealed duplicates
    /// because the head outranks every block).
    fn install_recovered(&self, recovered: Recovered) {
        for BlockEntry { series: id, field, block } in recovered.blocks {
            let mut meta = self.meta.write();
            let mut shard = self.shard_of(&id.series_key).data.write();
            let series = series_slot(&mut meta, &mut shard, &id.series_key, || id.clone());
            Arc::make_mut(series).field_mut_or_create(&field).push_sealed(block);
        }
        for record in &recovered.wal_records {
            // WAL batches are normalized at append time: every line carries
            // an explicit nanosecond timestamp, so replay is deterministic.
            // Records stage in log order, so overwrites resolve as they did
            // before the crash.
            self.write_parsed_batch(&parse_batch(&record.batch).lines, WriteOptions::default(), 0);
        }
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_index(&self, key: &str) -> usize {
        (fx_hash(key.as_bytes()) as usize) & (self.shards.len() - 1)
    }

    fn shard_of(&self, key: &str) -> &ShardSlot {
        &self.shards[self.shard_index(key)]
    }

    /// Sets the retention window (points older than `now - retention` are
    /// dropped by [`enforce_retention`](Self::enforce_retention)).
    pub fn set_retention(&self, retention: Option<Duration>) {
        self.meta.write().retention = retention;
    }

    /// Marks this database as a rollup source: flushes record the sealed
    /// time ranges so rollup passes can recompute the touched windows.
    pub fn set_rollup_tracked(&self, tracked: bool) {
        self.rollup_tracked.store(tracked, Ordering::Release);
    }

    /// The rollup watermark: every raw point with `ts` below it is covered
    /// by the rollup tiers. `None` before the first rollup pass.
    pub fn rollup_watermark(&self) -> Option<i64> {
        match self.rollup_watermark.load(Ordering::Acquire) {
            i64::MIN => None,
            wm => Some(wm),
        }
    }

    /// Installs a recovered or freshly advanced rollup watermark.
    pub fn set_rollup_watermark(&self, watermark: i64) {
        self.rollup_watermark.fetch_max(watermark, Ordering::AcqRel);
    }

    /// Clamps future retention cutoffs to at most `floor` ([`i64::MAX`] to
    /// unclamp): the rollup layer pins this to the last tier-complete
    /// boundary so raw eviction cannot outrun rollup coverage.
    pub fn set_retention_clamp(&self, floor: i64) {
        self.retention_clamp.store(floor, Ordering::Release);
    }

    /// The highest retention cutoff ever applied to this database
    /// (`i64::MIN` before the first eviction).
    pub fn raw_drop_cutoff(&self) -> i64 {
        self.raw_drop_cutoff.load(Ordering::Acquire)
    }

    /// Snapshots the series of `measurement` that the tag predicates among
    /// `conditions` admit (time bounds are the executor's), in first-write
    /// order. Candidates come from the tag postings and are filtered under
    /// the `meta` read lock; the shards the matches live in are drained, so
    /// the snapshot holds every write completed before the call, and only
    /// then are the matches fetched.
    ///
    /// The returned `Arc`s are consistent point-in-time views: a writer
    /// updating the same series afterwards copies it (`Arc::make_mut`)
    /// instead of mutating the snapshot — which is why every drain comes
    /// before the first fetch: a drain must not copy a series this very
    /// snapshot holds.
    pub fn series_where(&self, measurement: &str, conditions: &[Condition]) -> Vec<Arc<Series>> {
        let meta = self.meta.read();
        let Some(index) = meta.measurements.get(measurement) else {
            return Vec::new();
        };
        for id in index.matching(conditions) {
            self.drain_shard(self.shard_index(&id.series_key));
        }
        index
            .matching(conditions)
            .filter_map(|id| {
                self.shard_of(&id.series_key).data.read().get(&id.series_key).cloned()
            })
            .collect()
    }

    /// Sorted names of the measurements holding a series the tag
    /// predicates among `conditions` admit (every measurement for none).
    pub fn measurement_names(&self, conditions: &[Condition]) -> Vec<String> {
        let meta = self.meta.read();
        let mut names: Vec<String> = meta
            .measurements
            .iter()
            .filter(|(_, index)| index.matching(conditions).next().is_some())
            .map(|(name, _)| name.clone())
            .collect();
        names.sort_unstable();
        names
    }

    /// Sorted tag keys across the series of a measurement that
    /// `conditions` admit (the label set of a metric, in Prometheus terms),
    /// from the tag postings alone. Empty when the measurement is unknown.
    pub fn tag_keys(&self, measurement: &str, conditions: &[Condition]) -> Vec<String> {
        let meta = self.meta.read();
        let index = meta.measurements.get(measurement);
        let mut keys: Vec<String> =
            index.into_iter().flat_map(|i| i.tag_keys(conditions)).cloned().collect();
        keys.sort_unstable();
        keys
    }

    /// Sorted values of tag `key` across the series of a measurement that
    /// `conditions` admit, from the tag postings alone.
    pub fn tag_values(&self, measurement: &str, key: &str, conditions: &[Condition]) -> Vec<String> {
        let meta = self.meta.read();
        let index = meta.measurements.get(measurement);
        let mut values: Vec<String> =
            index.into_iter().flat_map(|i| i.tag_values(key, conditions)).cloned().collect();
        values.sort_unstable();
        values
    }

    /// Total series count. Exact without draining: series are registered
    /// eagerly at write time, before their points are staged.
    pub fn series_count(&self) -> usize {
        self.shards.iter().map(|s| s.data.read().series.len()).sum()
    }

    /// Total stored points.
    pub fn point_count(&self) -> usize {
        self.drain_all_pending();
        self.shards
            .iter()
            .map(|s| s.data.read().series.iter().map(|s| s.point_count()).sum::<usize>())
            .sum()
    }

    /// Points currently in mutable heads, exactly: drains every shard and
    /// walks every column. The flush trigger reads the O(1)
    /// `unsealed_values` gauge instead.
    pub fn head_point_count(&self) -> usize {
        self.drain_all_pending();
        self.shards
            .iter()
            .map(|s| {
                s.data
                    .read()
                    .series
                    .iter()
                    .map(|series| series.fields().map(|(_, c)| c.head_len()).sum::<usize>())
                    .sum::<usize>()
            })
            .sum()
    }

    /// Series in flush order: measurements sorted by name, series in
    /// first-write order within each. Sealing in a deterministic order
    /// keeps generation numbers aligned with first-write order, so recovery
    /// (which installs blocks by ascending generation) rebuilds the
    /// measurement index in the same order queries saw before the restart.
    fn series_in_flush_order(&self) -> Vec<Arc<SeriesId>> {
        let meta = self.meta.read();
        let mut names: Vec<&String> = meta.measurements.keys().collect();
        names.sort_unstable();
        names.iter().flat_map(|m| meta.measurements[*m].series().iter().cloned()).collect()
    }

    /// Flushes every mutable head to disk: seals heads into compressed
    /// blocks, writes them to segment files, then checkpoints (deletes) the
    /// WAL segments they cover. Returns the number of blocks sealed.
    ///
    /// Crash/fault behaviour: the WAL is rotated before anything is
    /// sealed, so on any failure the log still covers every point; blocks
    /// already sealed in memory are kept in `unflushed` and
    /// re-written by the next flush.
    pub fn flush_storage(&self) -> Result<usize> {
        let Some(engine) = &self.engine else { return Ok(0) };
        let mut session = engine.begin_flush()?;
        // Every value the gauge has counted by now is staged or in a head
        // (see `unsealed_values`), so the drain and the sweep below seal it
        // and a successful flush may settle the gauge by this much.
        let claimed = self.unsealed.load(Ordering::Acquire);
        // Drain AFTER rotating the WAL: any point staged before its WAL
        // record landed in a now-frozen segment is applied (and sealed)
        // below, so checkpointing those segments loses nothing. Points
        // whose records land in the new active segment may be sealed *and*
        // replayed — replay is idempotent.
        self.drain_all_pending();
        let mut entries = std::mem::take(&mut *self.unflushed.lock());
        for id in self.series_in_flush_order() {
            let mut shard = self.shard_of(&id.series_key).data.write();
            let Some(series) = shard.get_mut(&id.series_key) else { continue };
            if series.fields().all(|(_, col)| col.head().is_empty()) {
                continue; // nothing to seal: leave a shared snapshot shared
            }
            for (field, col) in Arc::make_mut(series).fields_mut() {
                if col.head().is_empty() {
                    continue;
                }
                // Seal one block per time partition (the head is sorted, so
                // partitions are contiguous runs): segment files then hold
                // only one partition's data and retention can unlink them
                // whole.
                let head = col.take_head();
                for run in partition_runs(engine, &head) {
                    let block = Arc::new(SealedBlock::seal(engine.next_gen(), run));
                    col.push_sealed(block.clone());
                    entries.push(BlockEntry { series: id.clone(), field: field.clone(), block });
                }
            }
        }
        let sealed = entries.len();
        if let Err(e) = session.write(&entries) {
            *self.unflushed.lock() = entries;
            return Err(e);
        }
        session.commit()?;
        self.unsealed.fetch_sub(claimed, Ordering::AcqRel);
        if self.rollup_tracked.load(Ordering::Acquire) && !entries.is_empty() {
            // Record what this flush sealed; the next rollup pass recomputes
            // every tier window these ranges touch (exact under backfill —
            // recomputation reads the full column, not just the new blocks).
            let mut dirty = self.rollup_dirty.lock();
            for e in &entries {
                dirty.push((e.block.min_ts, e.block.max_ts));
            }
        }
        Ok(sealed)
    }

    /// Claims the sealed-range backlog for a rollup pass. Call
    /// [`Self::restore_rollup_dirty`] if the pass fails so no range is lost.
    pub fn take_rollup_dirty(&self) -> Vec<(i64, i64)> {
        std::mem::take(&mut *self.rollup_dirty.lock())
    }

    /// Returns claimed sealed ranges after a failed rollup pass.
    pub fn restore_rollup_dirty(&self, ranges: Vec<(i64, i64)>) {
        self.rollup_dirty.lock().extend(ranges);
    }

    /// Major compaction: merges every column's sealed blocks into one per
    /// partition and block span (dropping overwritten versions and
    /// retention-floored points), rewrites all segment files, and deletes
    /// the old ones. Returns the number of blocks written.
    pub fn compact_storage(&self) -> Result<usize> {
        self.compact_partitions(None)
    }

    /// Background compaction: the same merge, confined to the partitions
    /// that have accumulated `compact_min_files` segment files — their
    /// files and the blocks that live in them; every other partition keeps
    /// its files untouched. Returns the number of blocks written (0 when no
    /// partition is due).
    pub fn compact_due_partitions(&self) -> Result<usize> {
        let Some(engine) = &self.engine else { return Ok(0) };
        let due = engine.partitions_to_compact();
        if due.is_empty() {
            return Ok(0);
        }
        self.compact_partitions(Some(&due))
    }

    /// Merges, per column, the sealed blocks living in `partitions` (`None`
    /// = every block) and replaces those partitions' segment files.
    fn compact_partitions(&self, partitions: Option<&[i64]>) -> Result<usize> {
        let Some(engine) = &self.engine else { return Ok(0) };
        let mut session = engine.begin_rewrite(partitions);
        let mut entries: Vec<BlockEntry> = Vec::new();
        // (series, field, blocks merged away, their replacement) to install
        // after a durable write; an empty replacement means every merged
        // point had expired.
        type Install = (Arc<SeriesId>, Arc<str>, Vec<Arc<SealedBlock>>, Vec<Arc<SealedBlock>>);
        let mut installs: Vec<Install> = Vec::new();
        for id in self.series_in_flush_order() {
            let shard = self.shard_of(&id.series_key).data.read();
            let Some(series) = shard.get(&id.series_key) else { continue };
            for (field, col) in series.fields() {
                let partition_pure = |b: &SealedBlock| {
                    engine.partition_of(b.min_ts) == engine.partition_of(b.max_ts)
                };
                // A block lives in the partition (and file) of its `max_ts`.
                // One that reaches back into an earlier partition may shadow
                // or be shadowed by blocks there, so a column holding one is
                // merged whole, as a major compaction would.
                let in_scope = |b: &SealedBlock| {
                    partitions.is_none_or(|ps| ps.contains(&engine.partition_of(b.max_ts)))
                };
                if !col.sealed().iter().any(|b| in_scope(b)) {
                    continue;
                }
                let whole = !col.sealed().iter().all(|b| partition_pure(b));
                let blocks: Vec<Arc<SealedBlock>> =
                    col.sealed().iter().filter(|b| whole || in_scope(b)).cloned().collect();
                let entry = |block: Arc<SealedBlock>| BlockEntry {
                    series: id.clone(),
                    field: field.clone(),
                    block,
                };
                if blocks.len() == 1 && col.floor().is_none() && !whole {
                    // Already compact: carry the block over verbatim.
                    entries.push(entry(blocks[0].clone()));
                    continue;
                }
                // Merge all versions, newest generation wins, drop points
                // hidden by the retention floor.
                let floor = col.floor().unwrap_or(i64::MIN);
                let versions: Vec<(i64, u64, FieldValue)> = blocks
                    .iter()
                    .flat_map(|b| b.decode().into_iter().map(move |(t, v)| (t, b.gen, v)))
                    .filter(|&(t, _, _)| t >= floor)
                    .collect();
                let merged = lww_dedup(versions);
                // One merged block per partition and span (same reasoning as
                // flush); they share the max source generation — they never
                // overlap each other, so relative order among them is
                // irrelevant.
                let gen = blocks.iter().map(|b| b.gen).max().unwrap_or(0);
                let layer: Vec<Arc<SealedBlock>> = partition_runs(engine, &merged)
                    .map(|run| Arc::new(SealedBlock::seal(gen, run)))
                    .collect();
                entries.extend(layer.iter().cloned().map(entry));
                installs.push((id.clone(), field.clone(), blocks, layer));
            }
        }
        let written = entries.len();
        session.write(&entries)?;
        // Install the merged blocks in memory before deleting old files:
        // if the deletes fail, disk merely holds redundant versions that
        // last-write-wins hides at the next open.
        for (id, field, merged_away, layer) in installs {
            let mut shard = self.shard_of(&id.series_key).data.write();
            let Some(series) = shard.get_mut(&id.series_key) else { continue };
            let col = Arc::make_mut(series).field_mut_or_create(&field);
            let mut sealed: Vec<Arc<SealedBlock>> = col
                .sealed()
                .iter()
                .filter(|b| !merged_away.iter().any(|m| Arc::ptr_eq(m, b)))
                .cloned()
                .chain(layer)
                .collect();
            sealed.sort_by_key(|b| b.gen);
            col.set_sealed(sealed);
        }
        session.commit()?;
        Ok(written)
    }

    /// Runs one budgeted pass of the background integrity scrubber:
    /// re-verifies sealed segment CRCs (and frozen WAL segments at the end
    /// of each full cycle), quarantines any file that fails, and replaces
    /// the quarantined partitions' in-memory sealed blocks with whatever
    /// the surviving files still hold — so reads stop serving data whose
    /// backing file is gone, and the damaged range is visible for repair.
    /// No-op without a persistent engine.
    pub fn scrub_storage(&self, budget_bytes: u64) -> Result<ScrubOutcome> {
        let Some(engine) = &self.engine else { return Ok(ScrubOutcome::default()) };
        let outcome = self.scrubber.lock().run(engine, budget_bytes)?;
        for report in &outcome.quarantined {
            let reloaded = engine.reload_partition(report.partition).unwrap_or_default();
            self.replace_partition_blocks(report.start_ns, report.end_ns, reloaded);
        }
        Ok(outcome)
    }

    /// Replaces every column's sealed blocks inside `[start_ns, end_ns)`
    /// with `reloaded` (the blocks re-read from the partition's surviving
    /// segment files after a quarantine). Blocks outside the range are
    /// untouched; flushes seal one block per partition, so a block's
    /// `min_ts` decides membership for the whole block.
    fn replace_partition_blocks(&self, start_ns: i64, end_ns: i64, reloaded: Vec<BlockEntry>) {
        let mut by_col: FxHashMap<(String, Arc<str>), Vec<Arc<SealedBlock>>> =
            FxHashMap::default();
        for e in reloaded {
            by_col.entry((e.series.series_key.clone(), e.field)).or_default().push(e.block);
        }
        for idx in 0..self.shards.len() {
            let mut shard = self.shards[idx].data.write();
            for series in shard.series.iter_mut() {
                let series = Arc::make_mut(series);
                let key = series.key().to_string();
                for (field, col) in series.fields_mut() {
                    let in_range =
                        |b: &Arc<SealedBlock>| b.min_ts >= start_ns && b.min_ts < end_ns;
                    let replacement = by_col.remove(&(key.clone(), field.clone()));
                    if replacement.is_none() && !col.sealed().iter().any(in_range) {
                        continue;
                    }
                    let mut layer: Vec<Arc<SealedBlock>> =
                        col.sealed().iter().filter(|b| !in_range(b)).cloned().collect();
                    layer.extend(replacement.unwrap_or_default());
                    layer.sort_by_key(|b| b.gen);
                    col.set_sealed(layer);
                }
            }
        }
    }

    /// The stable bits of one field value for integrity hashing. Replicas
    /// compare point sets by XORed hashes, so this must be identical on
    /// every node and invariant under an export → write-back round trip.
    fn field_value_bits(v: &FieldValue) -> u64 {
        match v {
            FieldValue::Float(f) => f.to_bits(),
            FieldValue::Integer(i) => fx_hash(&(1u8, i)),
            FieldValue::Boolean(b) => fx_hash(&(2u8, b)),
            FieldValue::Text(s) => fx_hash(&(3u8, s.as_str())),
        }
    }

    /// Merkle-style range digests of this database's visible points, for
    /// the router's anti-entropy repair pass: per (hour bucket, owner set)
    /// a point count and an XOR of per-point hashes. `db_name` and the ring
    /// parameters must match the router's placement exactly — the owner
    /// set is derived from the same `fx_hash((db, series_key))` the write
    /// path routes by, so two replicas are only compared over series they
    /// both own.
    pub fn integrity_digests(
        &self,
        db_name: &str,
        ring: &HashRing,
        replication: usize,
    ) -> Vec<BucketDigest> {
        self.drain_all_pending();
        let mut groups: std::collections::BTreeMap<(i64, u64), (u64, u64)> = Default::default();
        for shard in self.shards.iter() {
            let shard = shard.data.read();
            for series in shard.series.iter() {
                let key = series.key();
                let mask = owner_mask(ring, replication, fx_hash(&(db_name, key)));
                for field in series.field_names() {
                    let Some(col) = series.field(field) else { continue };
                    for (ts, v) in col.points_in(i64::MIN, i64::MAX) {
                        let slot = groups.entry((bucket_of(ts), mask)).or_insert((0, 0));
                        slot.0 += 1;
                        slot.1 ^= point_hash(key, field, ts, Self::field_value_bits(&v));
                    }
                }
            }
        }
        groups
            .into_iter()
            .map(|((bucket_start, owners), (count, hash))| BucketDigest {
                bucket_start,
                owners,
                count,
                hash,
            })
            .collect()
    }

    /// Exports every visible point in `[start_ns, end_ns)` as canonical
    /// line protocol (one field per line, explicit nanosecond timestamps).
    /// The repair pass replays this through the normal replicated write
    /// path; last-write-wins makes the replay idempotent.
    pub fn export_lines(&self, start_ns: i64, end_ns: i64) -> String {
        self.drain_all_pending();
        let mut out = String::new();
        for shard in self.shards.iter() {
            let shard = shard.data.read();
            for series in shard.series.iter() {
                for field in series.field_names() {
                    let Some(col) = series.field(field) else { continue };
                    let mut point = Point::new(series.measurement());
                    for (k, v) in series.tags() {
                        point.add_tag(k.clone(), v.clone());
                    }
                    for (ts, v) in col.points_in(start_ns, end_ns) {
                        point.add_field_value(field, v);
                        point.set_timestamp(ts);
                        out.push_str(&point.to_line());
                        out.push('\n');
                    }
                }
            }
        }
        out
    }

    /// Storage gauges for this database (engine gauges plus a live sweep
    /// of the in-memory layer) under read locks only: a scrape that drained
    /// would apply every shard's backlog in scrape-sized pieces. Staged
    /// points are head points not yet applied, so `head_points` includes
    /// them — an upper bound while overwrites of one point sit staged.
    pub fn storage_stats(&self) -> StorageStats {
        let staged = self.shards.iter().map(|s| s.staged.depth() as u64).sum();
        let mut stats =
            StorageStats { shard_buffer_depth: staged, head_points: staged, ..Default::default() };
        if let Some(engine) = &self.engine {
            let e = engine.stats();
            stats.wal_bytes = e.wal_bytes;
            stats.segment_files = e.segment_files;
            stats.segment_bytes = e.segment_bytes;
            stats.compactions = e.compactions;
            stats.recovered_records = e.recovered_records;
            stats.degraded = e.degraded;
            stats.group_commits = e.wal_group_commits;
            stats.wal_fsyncs = e.wal_fsyncs;
            stats.batched_points_per_commit = e.wal_points_per_commit;
            stats.scrubbed_bytes = e.scrubbed_bytes;
            stats.corrupt_frames = e.corrupt_frames;
            stats.quarantined_segments = e.quarantined_segments;
            stats.damaged_ranges = e.damaged_ranges;
        }
        for shard in self.shards.iter() {
            let shard = shard.data.read();
            for series in shard.series.iter() {
                for field in series.field_names() {
                    let Some(col) = series.field(field) else { continue };
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

    /// Applies the retention policy relative to `now_ns`; returns evicted
    /// point count. Emptied series and measurements are garbage-collected.
    ///
    /// Holds the retention gate and the `meta` write lock across the sweep
    /// (then shards ascending): no batch stages points meanwhile, so every
    /// staged point is drained into a series the sweep sees, and none is
    /// staged for a series the sweep removes.
    pub fn enforce_retention(&self, now_ns: i64) -> usize {
        let Some(retention) = self.meta.read().retention else { return 0 };
        let _gate = self.retention_gate.write();
        let mut meta = self.meta.write();
        // The rollup layer clamps the cutoff to the last tier-complete
        // boundary: points past the clamp are either not yet rolled up or
        // sit in a tier window that would be recomputed partially if its
        // raw points vanished, so they must survive this sweep.
        let clamp = self.retention_clamp.load(Ordering::Acquire);
        let cutoff = now_ns
            .saturating_sub(retention.as_nanos().min(i64::MAX as u128) as i64)
            .min(clamp);
        if cutoff == i64::MIN {
            return 0; // clamped to "nothing rolled up yet": keep everything
        }
        let mut evicted = 0;
        let mut removed: FxHashSet<String> = FxHashSet::default();
        for idx in 0..self.shards.len() {
            // Drain staged writes first so the sweep sees them: a fresh
            // staged point keeps its series, a stale one is evicted with it.
            self.drain_shard(idx);
            let mut shard = self.shards[idx].data.write();
            shard.retain(|series| {
                let series = Arc::make_mut(series);
                evicted += series.evict_before(cutoff);
                if series.is_empty() {
                    removed.insert(series.key().to_string());
                }
                !series.is_empty()
            });
        }
        if !removed.is_empty() {
            meta.measurements.retain(|_, index| index.remove(&removed));
            shrink_sparse_map(&mut meta.measurements);
        }
        self.raw_drop_cutoff.fetch_max(cutoff, Ordering::AcqRel);
        if let Some(engine) = &self.engine {
            // Defense in depth: the engine refuses to unlink partitions
            // reaching past the rollup clamp even if a future caller passes
            // a miscomputed cutoff.
            engine.set_drop_floor(clamp);
            // Best-effort: whole expired segment files are unlinked without
            // scanning; a failed unlink retries next sweep.
            let _ = engine.drop_expired(cutoff);
        }
        evicted
    }
}

/// The tier rows a rollup pass writes into one tier database. Each row is
/// formatted once ([`lms_rollup::write_row`]) and recorded as the values it
/// was formatted from, so it is staged without a parse and logged as its
/// text, one batch per [`TIER_CHUNK_BYTES`] of text.
#[derive(Default)]
struct TierRows<'s> {
    text: String,
    /// Per row: its series, window start, length with the newline, values.
    rows: Vec<(&'s Series, i64, usize, usize)>,
    /// Per stat field: its key's byte range in the row, its value.
    values: Vec<(std::ops::Range<usize>, FieldValue)>,
}

/// The most text one rollup batch holds unless one row is longer: small
/// enough to stay in cache from formatting to staging (1 MiB cost ~12 %).
const TIER_CHUNK_BYTES: usize = 256 << 10;

impl<'s> TierRows<'s> {
    /// Stages and logs the first `n` rows; returns `n`.
    fn stage(&mut self, ix: &Influx, db: &Database, n: usize) -> Result<usize> {
        let held: usize = self.rows[..n].iter().map(|row| row.3).sum();
        let (mut values, mut at) = (self.values.drain(..held), 0);
        let lines: Vec<ParsedLine<'_>> = (self.rows.drain(..n))
            .map(|(series, ws, len, held)| {
                at += len;
                let (raw, fields) = (&self.text[at - len..at - 1], values.by_ref().take(held));
                ParsedLine::canonical(raw, series.measurement(), series.tags(), fields, ws)
            })
            .collect();
        ix.stage_and_log(db, &lines, &self.text[..at], WriteOptions::default(), 0)?;
        drop(lines);
        self.text.drain(..at);
        Ok(n)
    }
}

/// Tiered-retention policy: how long each resolution tier keeps data.
/// Raw retention applies to every base (non-rollup) database; the 1m/1h
/// retentions apply to the corresponding tier databases. `None` keeps a
/// tier forever.
#[derive(Debug, Clone, Default)]
pub struct RollupPolicy {
    /// Retention of raw points in base databases.
    pub retention_raw: Option<Duration>,
    /// Retention of the 1-minute rollup tier.
    pub retention_1m: Option<Duration>,
    /// Retention of the 1-hour rollup tier.
    pub retention_1h: Option<Duration>,
}

impl RollupPolicy {
    /// The retention of one tier database.
    fn tier_retention(&self, tier: Tier) -> Option<Duration> {
        match tier {
            Tier::Minute => self.retention_1m,
            Tier::Hour => self.retention_1h,
        }
    }
}

struct Inner {
    databases: FxHashMap<String, Arc<Database>>,
    /// Create databases on first write (convenience for a self-contained
    /// stack; real InfluxDB requires CREATE DATABASE).
    auto_create: bool,
    /// Stripe count for newly created databases.
    shard_count: usize,
    /// Persistence configuration; `None` keeps the pre-PR memory-only
    /// behaviour.
    storage: Option<StorageConfig>,
    /// Supervisor of the background storage worker, installed by
    /// [`Influx::spawn_storage_worker`]; drives `/health/ready`.
    supervisor: Option<Supervisor>,
    /// Downsampling policy; `None` disables the rollup pipeline entirely.
    rollup: Option<RollupPolicy>,
    /// Which tiers queries may read from: `None` = every available tier
    /// (the default); `Some(vec![])` forces raw-only. Tests and
    /// `benchmark/` flip this to compare tier-served against raw-decoded
    /// answers.
    query_tiers: Option<Vec<Tier>>,
}

impl Inner {
    /// Builds a database, persistent when storage is configured and the
    /// name is directory-safe (other names stay memory-only — they cannot
    /// round-trip through a path).
    fn make_database(&self, name: &str) -> Result<Arc<Database>> {
        let db = match &self.storage {
            Some(cfg) if is_safe_db_name(name) => Arc::new(Database::open_persistent(
                self.shard_count,
                cfg.tsm_config(name),
            )?),
            _ => Arc::new(Database::with_shards(self.shard_count)),
        };
        if let Some(policy) = &self.rollup {
            apply_rollup_policy(name, &db, policy);
        }
        Ok(db)
    }
}

/// Applies `policy` to database `name`: a tier sibling takes its tier's
/// retention; a base database is rollup-tracked and takes the raw one.
fn apply_rollup_policy(name: &str, db: &Database, policy: &RollupPolicy) {
    let retention = match lms_rollup::base_db_of(name) {
        Some((_, tier)) => policy.tier_retention(tier),
        None => {
            db.set_rollup_tracked(true);
            policy.retention_raw
        }
    };
    if retention.is_some() {
        db.set_retention(retention);
    }
}

/// Thread-safe embedded handle to the whole storage.
#[derive(Clone)]
pub struct Influx {
    inner: Arc<RwLock<Inner>>,
    clock: Clock,
    /// Fault injection: pending storage-worker panics (each tick consumes
    /// one); exercises the supervisor's restart path in tests.
    worker_panics: Arc<AtomicU64>,
    /// Rollup passes completed (the `/stats` gauge).
    rollup_passes: Arc<AtomicU64>,
    /// Tier rows written by rollup passes (the `/stats` gauge).
    rollup_windows: Arc<AtomicU64>,
}

impl Influx {
    /// Creates an empty storage with auto-create enabled and the default
    /// shard count.
    pub fn new(clock: Clock) -> Self {
        Self::with_shards(clock, DEFAULT_SHARDS)
    }

    /// Creates an empty storage whose databases use `shards` lock stripes.
    pub fn with_shards(clock: Clock, shards: usize) -> Self {
        Influx {
            inner: Arc::new(RwLock::new(Inner {
                databases: FxHashMap::default(),
                auto_create: true,
                shard_count: shards.max(1).next_power_of_two(),
                storage: None,
                supervisor: None,
                rollup: None,
                query_tiers: None,
            })),
            clock,
            worker_panics: Arc::new(AtomicU64::new(0)),
            rollup_passes: Arc::new(AtomicU64::new(0)),
            rollup_windows: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Opens a *persistent* storage rooted at `storage.data_dir`: every
    /// database found on disk is recovered immediately (sealed segments +
    /// WAL replay), and databases created later persist under the same
    /// root. Queries served after a restart match the pre-restart state up
    /// to the last acknowledged write.
    pub fn open(clock: Clock, shards: usize, storage: StorageConfig) -> Result<Influx> {
        let ix = Influx::with_shards(clock, shards);
        std::fs::create_dir_all(&storage.data_dir)?;
        let dir = storage.data_dir.clone();
        ix.inner.write().storage = Some(storage);
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            if let Ok(name) = entry.file_name().into_string() {
                if is_safe_db_name(&name) {
                    names.push(name);
                }
            }
        }
        names.sort_unstable();
        for name in names {
            let mut inner = ix.inner.write();
            let db = inner.make_database(&name)?;
            inner.databases.insert(name, db);
        }
        Ok(ix)
    }

    /// Disables database auto-creation (writes to unknown databases then
    /// fail like real InfluxDB).
    pub fn set_auto_create(&self, enabled: bool) {
        self.inner.write().auto_create = enabled;
    }

    /// Creates a database (idempotent). If persistence is configured but
    /// the on-disk open fails, the database degrades to memory-only rather
    /// than failing creation.
    pub fn create_database(&self, name: &str) {
        let mut inner = self.inner.write();
        if inner.databases.contains_key(name) {
            return;
        }
        let db = inner
            .make_database(name)
            .unwrap_or_else(|_| Arc::new(Database::with_shards(inner.shard_count)));
        inner.databases.insert(name.to_string(), db);
    }

    /// Sets the retention window of a database (creating it if needed).
    pub fn set_retention(&self, db: &str, retention: Option<Duration>) {
        self.create_database(db);
        if let Some(found) = self.database(db) {
            found.set_retention(retention);
        }
    }

    /// Turns on the downsampling pipeline: every existing and future base
    /// database gets 1m/1h rollup tier siblings (`X__rollup_1m`,
    /// `X__rollup_1h` — ordinary databases with their own engine, WAL and
    /// retention), per-tier retention from `policy`, watermark recovery
    /// from disk, and an immediate catch-up rollup pass over everything
    /// already stored.
    pub fn enable_rollups(&self, policy: RollupPolicy) -> Result<()> {
        self.inner.write().rollup = Some(policy.clone());
        for name in self.database_names() {
            let Some(db) = self.database(&name) else { continue };
            apply_rollup_policy(&name, &db, &policy);
            if is_rollup_db(&name) {
                continue;
            }
            // Watermark recovery: the newest `__rollup_watermark` point in
            // the 1m tier database carries the pre-restart watermark as its
            // timestamp. Everything above it is re-rolled by the catch-up
            // pass below; recomputation is idempotent, so overshooting
            // after a crash merely rewrites identical rows.
            let tier_db = self.database(&rollup_db_name(&name, Tier::Minute));
            let marks = tier_db.map(|t| t.series_where(WATERMARK_MEASUREMENT, &[]));
            let mark = marks.unwrap_or_default().first().and_then(|series| {
                series.field(WATERMARK_FIELD).and_then(|c| c.last_ts())
            });
            if let Some(ts) = mark {
                db.set_rollup_watermark(ts);
            }
            self.rollup_pass(&name)?;
        }
        Ok(())
    }

    /// True when the downsampling pipeline is enabled.
    pub fn rollups_enabled(&self) -> bool {
        self.inner.read().rollup.is_some()
    }

    /// Restricts which rollup tiers queries may consult: `None` = every
    /// available tier (the default), `Some(vec![])` = raw only. Tests and
    /// `benchmark/` flip this to compare tier-served against raw answers.
    pub fn set_query_tiers(&self, tiers: Option<Vec<Tier>>) {
        self.inner.write().query_tiers = tiers;
    }

    /// `(passes completed, tier rows written)` by the rollup pipeline.
    pub fn rollup_counters(&self) -> (u64, u64) {
        (
            self.rollup_passes.load(Ordering::Relaxed),
            self.rollup_windows.load(Ordering::Relaxed),
        )
    }

    /// Runs one rollup pass for base database `base`: recomputes every
    /// 1m/1h tier window touched by ranges sealed since the last pass
    /// (plus the catch-up range above the watermark), writes the tier rows
    /// through the normal write path of the sibling tier databases (their
    /// WAL makes rollups crash-recoverable like any other write), and
    /// advances the persisted watermark. Returns tier rows written.
    ///
    /// Windows are recomputed from the *full* in-memory column, not just
    /// the newly sealed blocks, so backfill and overwrites converge to the
    /// exact aggregate; agent-pre-aggregated rows landing in the same
    /// window are superseded by last-write-wins.
    pub fn rollup_pass(&self, base: &str) -> Result<u64> {
        let policy = self.inner.read().rollup.clone();
        let Some(policy) = policy else { return Ok(0) };
        if is_rollup_db(base) {
            return Ok(0);
        }
        let Some(db) = self.database(base) else { return Ok(0) };
        let dirty = db.take_rollup_dirty();
        match self.rollup_pass_inner(base, &db, &policy, &dirty) {
            Ok(rows) => {
                self.rollup_passes.fetch_add(1, Ordering::Relaxed);
                self.rollup_windows.fetch_add(rows, Ordering::Relaxed);
                Ok(rows)
            }
            Err(e) => {
                // Give the claimed ranges back so no sealed range is lost;
                // the next pass retries them.
                db.restore_rollup_dirty(dirty);
                Err(e)
            }
        }
    }

    fn rollup_pass_inner(
        &self,
        base: &str,
        db: &Database,
        policy: &RollupPolicy,
        dirty: &[(i64, i64)],
    ) -> Result<u64> {
        // Snapshot every series (drains staged writes) and the data extent.
        let snapshot: Vec<Arc<Series>> =
            db.measurement_names(&[]).iter().flat_map(|m| db.series_where(m, &[])).collect();
        let columns = || snapshot.iter().flat_map(|s| s.fields().map(|(_, col)| col));
        let data_lo = columns().filter_map(|col| col.first_ts()).min().unwrap_or(i64::MAX);
        let data_hi = columns().filter_map(|col| col.last_ts()).max().unwrap_or(i64::MIN);
        let wm = db.rollup_watermark().unwrap_or(i64::MIN);
        let mut ranges: Vec<(i64, i64)> =
            dirty.iter().map(|&(lo, hi)| (lo, hi.saturating_add(1))).collect();
        // Catch-up: everything between the watermark and the newest point
        // (none without data) — covers crash-lost dirty ranges, first-enable
        // backlogs, and head points rolled ahead of their flush.
        let (lo, hi) = (if wm == i64::MIN { data_lo } else { wm }, data_hi.saturating_add(1));
        if lo < hi {
            ranges.push((lo, hi));
        }
        if ranges.is_empty() {
            return Ok(0);
        }
        let floor = db.raw_drop_cutoff();
        let mut rows_written = 0u64;
        let mut windows: Vec<(i64, &str, Agg)> = Vec::new();
        for tier in TIERS {
            let w = tier.window_ns();
            // Align each range out to whole windows, then coalesce so no
            // window is recomputed (and emitted) twice in one pass.
            let mut aligned: Vec<(i64, i64)> =
                ranges.iter().map(|&(lo, hi)| (align_down(lo, w), align_up(hi, w))).collect();
            aligned.sort_unstable();
            let mut merged: Vec<(i64, i64)> = Vec::with_capacity(aligned.len());
            for (lo, hi) in aligned {
                match merged.last_mut() {
                    Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
                    _ => merged.push((lo, hi)),
                }
            }
            let tier_name = rollup_db_name(base, tier);
            self.create_database(&tier_name);
            let tier_db = self.database_or_create(&tier_name)?;
            if let Some(retention) = policy.tier_retention(tier) {
                tier_db.set_retention(Some(retention));
            }
            let mut rows = TierRows::default();
            for series in &snapshot {
                // (window start, field, aggregate), sorted by window start
                // and stably so, keeping each row's fields in column order.
                windows.clear();
                for (field, col) in series.fields() {
                    let from = windows.len();
                    for (ts, value) in merged.iter().flat_map(|&(lo, hi)| col.points_in(lo, hi)) {
                        let ws = align_down(ts, w);
                        if ws < floor {
                            // Raw below the drop cutoff is gone: a recompute
                            // would be partial, so the existing tier row
                            // stays authoritative.
                            continue;
                        }
                        if windows[from..].last().is_none_or(|window| window.0 != ws) {
                            windows.push((ws, &**field, Agg::default()));
                        }
                        windows.last_mut().expect("this field's window").2.add(ts, &value);
                    }
                }
                windows.sort_by_key(|&(ws, _, _)| ws);
                for row in windows.chunk_by(|a, b| a.0 == b.0) {
                    let (ws, start, held) = (row[0].0, rows.text.len(), rows.values.len());
                    let aggs = row.iter().map(|(_, field, agg)| (*field, agg));
                    let values = &mut rows.values;
                    let record = |key, value| values.push((key, value));
                    if lms_rollup::write_row(series.key(), ws, aggs, &mut rows.text, record) {
                        let len = rows.text.len() - start;
                        rows.rows.push((&**series, ws, len, rows.values.len() - held));
                    }
                    // A row that takes the text past the chunk bound goes
                    // into the next batch.
                    if rows.text.len() > TIER_CHUNK_BYTES && rows.rows.len() > 1 {
                        rows_written += rows.stage(self, &tier_db, rows.rows.len() - 1)? as u64;
                    }
                }
            }
            rows_written += rows.stage(self, &tier_db, rows.rows.len())? as u64;
        }
        // Advance and persist the watermark (a point whose *timestamp* is
        // the watermark, in the 1m tier database — recovered at startup).
        let new_wm = data_hi.saturating_add(1).max(wm);
        if new_wm > wm && new_wm != i64::MIN {
            // The pass above created the 1m tier database.
            let line = format!("{WATERMARK_MEASUREMENT} {WATERMARK_FIELD}=1i {new_wm}\n");
            self.write_lines(&rollup_db_name(base, Tier::Minute), &line, WriteOptions::default())?;
            db.set_rollup_watermark(new_wm);
        }
        Ok(rows_written)
    }

    /// The tier read context for queries against `db_name`: the available
    /// tier databases (coarsest first) and the base watermark. `None` when
    /// rollups are off, the database is itself a tier, no tier has data,
    /// or the query-tier override excludes everything.
    fn tier_ctx(&self, db_name: &str) -> Option<exec::TierCtx> {
        let inner = self.inner.read();
        inner.rollup.as_ref()?;
        if is_rollup_db(db_name) {
            return None;
        }
        let db = inner.databases.get(db_name)?;
        let watermark = db.rollup_watermark()?;
        let allowed = |tier: &Tier| inner.query_tiers.as_ref().is_none_or(|a| a.contains(tier));
        let tiers: Vec<_> = [Tier::Hour, Tier::Minute]
            .into_iter()
            .filter(allowed)
            .filter_map(|tier| {
                let db = inner.databases.get(&rollup_db_name(db_name, tier))?;
                Some((tier.window_ns(), db.clone()))
            })
            .collect();
        (!tiers.is_empty()).then_some(exec::TierCtx { tiers, watermark })
    }

    /// Every database with its name, read under the map's lock once.
    fn databases(&self) -> Vec<(String, Arc<Database>)> {
        self.inner.read().databases.iter().map(|(n, d)| (n.clone(), d.clone())).collect()
    }

    /// Names of all databases, sorted.
    pub fn database_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.read().databases.keys().cloned().collect();
        names.sort_unstable();
        names
    }

    /// The clock used for server-assigned timestamps.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Looks up a database handle (read lock only). Exposes the
    /// maintenance surface — storage engine, flush, stats — for tests
    /// and tooling.
    pub fn database(&self, db: &str) -> Option<Arc<Database>> {
        self.inner.read().databases.get(db).cloned()
    }

    /// Looks up a database, creating it when auto-create permits. Only the
    /// first write to a new database pays the outer write lock.
    fn database_or_create(&self, db: &str) -> Result<Arc<Database>> {
        if let Some(found) = self.database(db) {
            return Ok(found);
        }
        let mut inner = self.inner.write();
        if let Some(existing) = inner.databases.get(db) {
            return Ok(existing.clone());
        }
        if !inner.auto_create {
            return Err(Error::not_found(format!("database `{db}`")));
        }
        if crate::user_view(db).is_some() {
            let global = crate::GLOBAL_DB;
            return Err(Error::not_found(format!("database `{db}` (a view of `{global}`)")));
        }
        let created = inner.make_database(db)?;
        inner.databases.insert(db.to_string(), created.clone());
        Ok(created)
    }

    /// Writes a line-protocol batch. Malformed lines are counted and
    /// skipped, not fatal (the paper's stack must survive a misbehaving
    /// collector). Fails when the database does not exist and auto-create
    /// is off, and with `Error::Invalid` when the batch, each line given its
    /// timestamp, is too large for one WAL record; a refused batch leaves
    /// nothing in memory.
    ///
    /// The whole batch goes through [`Database::write_parsed_batch`], and
    /// the WAL append joins a group commit shared with concurrent batches.
    pub fn write_lines(&self, db: &str, batch: &str, opts: WriteOptions) -> Result<WriteOutcome> {
        let parsed = parse_batch(batch);
        let default_ts = self.clock.now().nanos();
        let database = self.database_or_create(db)?;
        // The WAL batch is normalized — every line carries its resolved
        // nanosecond timestamp — so replay after a crash is deterministic
        // and idempotent (re-applying overwrites with identical values).
        let mut wal_batch = String::new();
        if database.engine().is_some() {
            wal_batch.reserve(batch.len() + 16);
            for line in &parsed.lines {
                if line.timestamp.is_some() && matches!(opts.precision, Precision::Nanoseconds) {
                    wal_batch.push_str(line.raw);
                } else {
                    let ts =
                        line.timestamp.map(|t| opts.precision.to_nanos(t)).unwrap_or(default_ts);
                    let mut point = line.to_point();
                    point.set_timestamp(ts);
                    wal_batch.push_str(&point.to_line());
                }
                wal_batch.push('\n');
            }
        }
        let written = self.stage_and_log(&database, &parsed.lines, &wal_batch, opts, default_ts)?;
        Ok(WriteOutcome {
            written,
            rejected: parsed.errors.len(),
            first_error: parsed.errors.first().map(|(line, e)| (*line, e.to_string())),
        })
    }

    /// Stages `lines` in `database`, then logs `wal_batch`, their text with
    /// every timestamp resolved: the one way points enter a database, after
    /// [`Self::write_lines`]' parse or from a rollup pass's row writer. A
    /// batch that cannot be logged is refused whole.
    fn stage_and_log(
        &self,
        database: &Database,
        lines: &[ParsedLine<'_>],
        wal_batch: &str,
        opts: WriteOptions,
        default_ts: i64,
    ) -> Result<usize> {
        // Priority-aware degraded mode: with the disk full, bulk metric
        // writes are refused up front (transient — the router keeps them
        // spooled), but job annotation events stay admitted to the
        // in-memory layer so job context remains live. They skip the WAL,
        // which is the documented trade-off: events written while degraded
        // do not survive a restart, but they are never silently shed.
        let engine = database.engine().filter(|e| !e.is_degraded());
        if engine.is_none() && database.engine().is_some() {
            if lines.iter().any(|l| l.measurement != "events") {
                return Err(Error::unavailable(
                    "storage degraded (disk full): bulk writes refused, events only",
                ));
            }
        } else if wal_batch.len() > MAX_BATCH_BYTES {
            return Err(Error::invalid(format!(
                "the batch takes {} bytes with its timestamps, over the \
                 {MAX_BATCH_BYTES}-byte WAL record limit: split it",
                wal_batch.len()
            )));
        }
        let written = database.write_parsed_batch(lines, opts, default_ts);
        if let Some(engine) = engine.filter(|_| !lines.is_empty()) {
            engine.append_wal(wal_batch, lines.len() as u64)?;
        }
        Ok(written)
    }

    /// Runs a query statement string against a database or a user view
    /// (see [`crate::user_view`]).
    pub fn query(&self, db: &str, q: &str) -> Result<QueryResult> {
        let stmt = Statement::parse(q)?;
        match stmt {
            Statement::CreateDatabase(name) => {
                self.create_database(&name);
                Ok(QueryResult::empty())
            }
            Statement::ShowDatabases => {
                let mut names = self.database_names();
                if let Some(global) = self.database(crate::GLOBAL_DB) {
                    for m in global.measurement_names(&[]) {
                        let users = global.tag_values(&m, "user", &[]);
                        names.extend(users.into_iter().map(|u| format!("user_{u}")));
                    }
                }
                names.sort_unstable();
                names.dedup();
                Ok(QueryResult::listing("databases", &["name"], names.into_iter().map(|n| [n])))
            }
            other => self.execute(db, &other),
        }
    }

    /// Runs a SELECT over an explicit half-open time range `[start, end)`
    /// ns, optionally re-bucketed to `step` ns windows — the first-class
    /// range-query API behind `/query_range`.
    ///
    /// The bounds and step are *injected into the parsed statement*
    /// ([`Select::for_range`]), so the request goes through the exact same
    /// planner and executor as `/query` — including summary pruning and
    /// parallel scans.
    pub fn query_range(
        &self,
        db: &str,
        q: &str,
        start: i64,
        end: i64,
        step: Option<i64>,
    ) -> Result<QueryResult> {
        self.execute(db, &Statement::Select(Select::for_range(q, start, end, step)?))
    }

    /// Sorted measurement names of a database (the `/metrics` listing).
    pub fn measurements(&self, db: &str) -> Result<Vec<String>> {
        let (database, _, scope) = self.source(db)?;
        Ok(database.measurement_names(&scope))
    }

    /// Sorted tag keys of one measurement (the `/labels/{m}` listing).
    pub fn tag_keys(&self, db: &str, measurement: &str) -> Result<Vec<String>> {
        let (database, _, scope) = self.source(db)?;
        Ok(database.tag_keys(measurement, &scope))
    }

    /// Runs a data statement against `db`, resolved by [`Self::source`].
    fn execute(&self, db: &str, stmt: &Statement) -> Result<QueryResult> {
        let (database, tiers, scope) = self.source(db)?;
        exec::execute(stmt, &database, tiers.as_ref(), &scope, self.clock.now().nanos())
    }

    /// What a statement against `db` reads: the database, its tier
    /// context, and the tag predicates it is scoped to. A user view reads
    /// [`crate::GLOBAL_DB`] under `user = '<name>'`, before any database of
    /// its name, and exists while some series carries that tag.
    fn source(&self, db: &str) -> Result<(Arc<Database>, Option<exec::TierCtx>, Vec<Condition>)> {
        let (name, scope) = match crate::user_view(db) {
            Some(user) => (crate::GLOBAL_DB, vec![Condition::TagEq("user".into(), user.into())]),
            None => (db, Vec::new()),
        };
        let database = self
            .database(name)
            .filter(|d| scope.is_empty() || !d.measurement_names(&scope).is_empty())
            .ok_or_else(|| Error::not_found(format!("database `{db}`")))?;
        Ok((database, self.tier_ctx(name), scope))
    }

    /// Applies retention across all databases; returns evicted point count.
    /// With rollups enabled, raw eviction in each base database is clamped
    /// to the last 1h-window boundary below its rollup watermark, so raw
    /// points are never dropped before the coarsest tier has absorbed them
    /// (the tier-boundary straddle guarantee).
    pub fn enforce_retention(&self) -> usize {
        let now = self.clock.now().nanos();
        let rollup_on = self.inner.read().rollup.is_some();
        let mut evicted = 0;
        for (name, db) in self.databases() {
            if rollup_on && !is_rollup_db(&name) {
                let clamp = match db.rollup_watermark() {
                    Some(wm) => align_down(wm, Tier::Hour.window_ns()),
                    None => i64::MIN,
                };
                db.set_retention_clamp(clamp);
            }
            evicted += db.enforce_retention(now);
        }
        evicted
    }

    /// Flushes every database's mutable heads to disk; returns total
    /// blocks sealed. No-op (0) without persistence. With rollups enabled,
    /// each base flush is followed by a rollup pass over the sealed
    /// ranges, keeping the tiers continuously current.
    pub fn flush_storage(&self) -> Result<usize> {
        let mut sealed = 0;
        for (name, db) in self.databases() {
            sealed += db.flush_storage()?;
            self.rollup_pass(&name)?;
        }
        Ok(sealed)
    }

    /// Compacts, in every database, the partitions that have accumulated
    /// `compact_min_files` segment files (see
    /// [`Database::compact_due_partitions`]); returns blocks written — 0
    /// once no partition of any database is due.
    pub fn compact_storage(&self) -> Result<usize> {
        let mut written = 0;
        for (_, db) in self.databases() {
            written += db.compact_due_partitions()?;
        }
        Ok(written)
    }

    /// Runs one budgeted integrity-scrub pass over every database;
    /// returns the aggregated outcome. Each database gets the full byte
    /// budget (the budget bounds per-pass I/O burst, not total work).
    pub fn scrub_storage(&self, budget_bytes: u64) -> Result<ScrubOutcome> {
        let mut total = ScrubOutcome::default();
        for (_, db) in self.databases() {
            let outcome = db.scrub_storage(budget_bytes)?;
            total.scrubbed_bytes += outcome.scrubbed_bytes;
            total.files_verified += outcome.files_verified;
            total.corrupt_frames += outcome.corrupt_frames;
            total.quarantined.extend(outcome.quarantined);
            total.cycle_completed |= outcome.cycle_completed;
        }
        Ok(total)
    }

    /// Integrity digests of one database for the anti-entropy protocol
    /// (see [`Database::integrity_digests`]). The caller — normally the
    /// router's repair pass — supplies the cluster's ring geometry, which
    /// storage nodes do not otherwise know.
    pub fn integrity_digests(
        &self,
        db: &str,
        nodes: usize,
        replication: usize,
        seed: u64,
    ) -> Result<Vec<BucketDigest>> {
        let found = self
            .database(db)
            .ok_or_else(|| Error::not_found(format!("database {db:?} not found")))?;
        let ring = HashRing::new(nodes.max(1), seed);
        Ok(found.integrity_digests(db, &ring, replication.max(1)))
    }

    /// Canonical line-protocol export of one database's visible points in
    /// `[start_ns, end_ns)` (see [`Database::export_lines`]).
    pub fn integrity_export(&self, db: &str, start_ns: i64, end_ns: i64) -> Result<String> {
        let found = self
            .database(db)
            .ok_or_else(|| Error::not_found(format!("database {db:?} not found")))?;
        Ok(found.export_lines(start_ns, end_ns))
    }

    /// Aggregate storage gauges across all databases.
    pub fn storage_stats(&self) -> StorageStats {
        let mut stats = StorageStats::default();
        for (_, db) in self.databases() {
            stats.add(db.storage_stats());
        }
        stats
    }

    /// Spawns the background flush/compaction worker under a supervisor.
    /// Returns `None` when persistence is not configured. The worker
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
        let cfg = self.inner.read().storage.clone()?;
        let supervisor = Supervisor::new(sup_cfg);
        let ix = self.clone();
        let panics = self.worker_panics.clone();
        let spawned = supervisor.spawn("storage", move |ctx| {
            let tick = Duration::from_millis(200).min(cfg.flush_interval);
            // Per database: when it last had nothing un-sealed or was last
            // flushed successfully — its oldest un-sealed value is no
            // older. A flush of one database (or a failed one) does not
            // restart another's interval.
            let mut clean_at: FxHashMap<String, std::time::Instant> = FxHashMap::default();
            let mut last_scrub = std::time::Instant::now();
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
                    let Some(engine) = db.engine() else { continue };
                    // Degraded (disk full): flushing or compacting would
                    // just hit ENOSPC again — park until an operator
                    // clears the condition instead of retrying unbounded.
                    if engine.is_degraded() {
                        continue;
                    }
                    let now = std::time::Instant::now();
                    let unsealed = db.unsealed_values();
                    let clean_at = clean_at.entry(name.clone()).or_insert(now);
                    if unsealed == 0 {
                        *clean_at = now;
                    } else if (now.duration_since(*clean_at) >= cfg.flush_interval
                        || unsealed >= cfg.flush_points)
                        && db.flush_storage().is_ok()
                    {
                        *clean_at = std::time::Instant::now();
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
                    last_scrub = std::time::Instant::now();
                }
            }
            let _ = ix.flush_storage();
        });
        if spawned.is_err() {
            return None;
        }
        self.inner.write().supervisor = Some(supervisor.clone());
        Some(StorageWorker { supervisor })
    }

    /// Readiness of the supervised background workers: `true` when no
    /// worker is mid-restart or permanently failed (also `true` before the
    /// worker is spawned, and in memory-only mode).
    pub fn workers_ready(&self) -> bool {
        self.inner.read().supervisor.as_ref().map(|s| s.is_ready()).unwrap_or(true)
    }

    /// Health reports of the supervised background workers.
    pub fn worker_reports(&self) -> Vec<WorkerReport> {
        self.inner.read().supervisor.as_ref().map(|s| s.reports()).unwrap_or_default()
    }

    /// True when any database's storage engine is degraded (disk full).
    pub fn storage_degraded(&self) -> bool {
        self.databases().iter().any(|(_, d)| d.engine().is_some_and(|e| e.is_degraded()))
    }

    /// Fault injection: make the storage worker panic on its next `n`
    /// ticks (each tick consumes one pending panic).
    pub fn inject_storage_worker_panics(&self, n: u64) {
        self.worker_panics.store(n, Ordering::SeqCst);
    }

    /// Point count in one database (0 when absent).
    pub fn point_count(&self, db: &str) -> usize {
        self.database(db).map(|d| d.point_count()).unwrap_or(0)
    }

    /// Series count in one database (0 when absent).
    pub fn series_count(&self, db: &str) -> usize {
        self.database(db).map(|d| d.series_count()).unwrap_or(0)
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

    /// The supervisor behind the worker, for health inspection.
    pub fn supervisor(&self) -> &Supervisor {
        &self.supervisor
    }
}

impl Drop for StorageWorker {
    fn drop(&mut self) {
        self.supervisor.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_util::Timestamp;

    fn influx() -> Influx {
        Influx::new(Clock::simulated(Timestamp::from_secs(1000)))
    }

    #[test]
    fn write_and_count() {
        let ix = influx();
        let out = ix
            .write_lines("lms", "cpu,hostname=h1 value=1 1\ncpu,hostname=h2 value=2 2", Default::default())
            .unwrap();
        assert_eq!(out.written, 2);
        assert_eq!(out.rejected, 0);
        assert_eq!(ix.series_count("lms"), 2);
        assert_eq!(ix.point_count("lms"), 2);
    }

    #[test]
    fn malformed_lines_counted_not_fatal() {
        let ix = influx();
        let out = ix
            .write_lines("lms", "good v=1 1\nbad line here\ngood v=2 2", Default::default())
            .unwrap();
        assert_eq!(out.written, 2);
        assert_eq!(out.rejected, 1);
        let (line, msg) = out.first_error.unwrap();
        assert_eq!(line, 2);
        assert!(!msg.is_empty());
    }

    #[test]
    fn missing_timestamp_gets_server_time() {
        let ix = influx();
        ix.write_lines("lms", "cpu value=1", Default::default()).unwrap();
        let r = ix.query("lms", "SELECT value FROM cpu").unwrap();
        let ts = r.series[0].values[0][0].as_i64().unwrap();
        assert_eq!(ts, Timestamp::from_secs(1000).nanos());
    }

    #[test]
    fn precision_scaling_applies() {
        let ix = influx();
        ix.write_lines(
            "lms",
            "cpu value=1 1000",
            WriteOptions { precision: Precision::Seconds },
        )
        .unwrap();
        let r = ix.query("lms", "SELECT value FROM cpu").unwrap();
        assert_eq!(r.series[0].values[0][0].as_i64().unwrap(), 1_000_000_000_000);
    }

    #[test]
    fn auto_create_toggle() {
        let ix = influx();
        ix.set_auto_create(false);
        assert!(ix.write_lines("nope", "m v=1 1", Default::default()).is_err());
        ix.create_database("nope");
        assert!(ix.write_lines("nope", "m v=1 1", Default::default()).is_ok());
        assert_eq!(ix.database_names(), vec!["nope"]);
    }

    #[test]
    fn create_database_via_query() {
        let ix = influx();
        ix.set_auto_create(false);
        ix.query("", "CREATE DATABASE userdb").unwrap();
        assert!(ix.database_names().contains(&"userdb".to_string()));
    }

    #[test]
    fn show_databases() {
        let ix = influx();
        ix.create_database("lms");
        ix.create_database("user_alice");
        let r = ix.query("", "SHOW DATABASES").unwrap();
        let names: Vec<&str> =
            r.series[0].values.iter().map(|v| v[0].as_str().unwrap()).collect();
        assert_eq!(names, vec!["lms", "user_alice"]);
    }

    #[test]
    fn a_user_view_reads_the_global_database_under_its_user() {
        let ix = influx();
        let lines = "cpu,hostname=h1,user=j.doe v=1 1\ncpu,hostname=h2,user=bob v=2 1\ncpu,hostname=h3 v=4 1";
        ix.write_lines("lms", lines, Default::default()).unwrap();
        let sum = |db: &str, q: &str| ix.query(db, q).unwrap().series[0].values[0][1].as_f64();
        assert_eq!(sum("user_j.doe", "SELECT sum(v) FROM cpu"), Some(1.0));
        assert_eq!(sum("lms", "SELECT sum(v) FROM cpu"), Some(7.0));
        let r = ix.query("user_j.doe", "SELECT v FROM cpu WHERE user = 'bob'").unwrap();
        assert_eq!(r, QueryResult::empty());
        assert_eq!(ix.tag_keys("user_bob", "cpu").unwrap(), vec!["hostname", "user"]);
        // A user without series has no view, and a view takes no writes.
        assert!(matches!(ix.query("user_eve", "SHOW MEASUREMENTS"), Err(Error::NotFound(_))));
        let refused = ix.write_lines("user_eve", "cpu v=1 1", Default::default());
        assert!(matches!(refused, Err(Error::NotFound(_))));
        let r = ix.query("", "SHOW DATABASES").unwrap();
        let names: Vec<&str> = r.series[0].values.iter().map(|v| v[0].as_str().unwrap()).collect();
        assert_eq!(names, vec!["lms", "user_bob", "user_j.doe"]);
    }

    #[test]
    fn retention_evicts_old_points() {
        let ix = influx();
        ix.set_retention("lms", Some(Duration::from_secs(100)));
        // now = 1000s; points at 850s (stale) and 950s (fresh)
        ix.write_lines("lms", "m v=1 850000000000\nm v=2 950000000000", Default::default())
            .unwrap();
        assert_eq!(ix.point_count("lms"), 2);
        let evicted = ix.enforce_retention();
        assert_eq!(evicted, 1);
        assert_eq!(ix.point_count("lms"), 1);
    }

    #[test]
    fn retention_gc_removes_empty_series() {
        let ix = influx();
        ix.set_retention("lms", Some(Duration::from_secs(10)));
        ix.write_lines("lms", "old v=1 1", Default::default()).unwrap();
        ix.enforce_retention();
        assert_eq!(ix.series_count("lms"), 0);
        let r = ix.query("lms", "SHOW MEASUREMENTS").unwrap();
        assert!(r.series.is_empty() || r.series[0].values.is_empty());
    }

    #[test]
    fn retention_clamps_at_the_tier_boundary() {
        // Regression: with rollups on, raw eviction stops at the last
        // *complete* 1h window below the rollup watermark — a retention
        // cutoff straddling a tier window must not strand a partially
        // rolled hour. Aggressive raw retention (100s, now = 36000s)
        // would otherwise evict everything.
        let ix = Influx::new(Clock::simulated(Timestamp::from_secs(36_000)));
        let body: String = (0..7000i64)
            .map(|s| format!("m v={} {}\n", s % 10, s * 1_000_000_000))
            .collect();
        ix.write_lines("lms", &body, Default::default()).unwrap();
        ix.enable_rollups(RollupPolicy {
            retention_raw: Some(Duration::from_secs(100)),
            ..Default::default()
        })
        .unwrap();
        let evicted = ix.enforce_retention();
        // Watermark ≈ 7000s → clamp = align_down(7000s, 1h) = 3600s:
        // the first full hour goes, the straddled second hour stays.
        assert_eq!(evicted, 3600, "eviction must stop at the 1h tier boundary");
        assert_eq!(ix.point_count("lms"), 7000 - 3600);
        // The evicted hour is still fully answerable through the tiers.
        let r = ix.query("lms", "SELECT count(v) FROM m").unwrap();
        assert_eq!(r.series[0].values[0][1].as_i64().unwrap(), 7000);
    }

    #[test]
    fn unrolled_points_survive_retention() {
        // Rollups enabled but no pass has run yet (no watermark): raw
        // eviction must hold off entirely rather than drop points no
        // tier covers.
        let ix = Influx::new(Clock::simulated(Timestamp::from_secs(36_000)));
        ix.enable_rollups(RollupPolicy {
            retention_raw: Some(Duration::from_secs(100)),
            ..Default::default()
        })
        .unwrap();
        // Two stale points in hour 0, one fresh point past the hour mark
        // (so the post-pass clamp = align_down(watermark, 1h) = 3600s).
        ix.write_lines(
            "lms",
            "m v=1 1000000000\nm v=2 2000000000\nm v=3 7201000000000",
            Default::default(),
        )
        .unwrap();
        assert_eq!(ix.enforce_retention(), 0, "unrolled points must not be evicted");
        assert_eq!(ix.point_count("lms"), 3);
        // After a rollup pass covers them, eviction proceeds up to the clamp.
        ix.flush_storage().unwrap();
        assert_eq!(ix.enforce_retention(), 2);
        let r = ix.query("lms", "SELECT count(v) FROM m").unwrap();
        assert_eq!(r.series[0].values[0][1].as_i64().unwrap(), 3, "tier coverage lost");
    }

    #[test]
    fn duplicate_point_overwrites() {
        let ix = influx();
        ix.write_lines("lms", "m,host=a v=1 5\nm,host=a v=2 5", Default::default()).unwrap();
        assert_eq!(ix.point_count("lms"), 1);
        let r = ix.query("lms", "SELECT v FROM m").unwrap();
        assert_eq!(r.series[0].values[0][1].as_f64().unwrap(), 2.0);
    }

    #[test]
    fn shard_count_is_power_of_two() {
        assert_eq!(Database::with_shards(1).shard_count(), 1);
        assert_eq!(Database::with_shards(3).shard_count(), 4);
        assert_eq!(Database::with_shards(16).shard_count(), 16);
        assert_eq!(Database::new().shard_count(), DEFAULT_SHARDS);
    }

    #[test]
    fn single_shard_engine_behaves_identically() {
        // shards=1 is the old single-lock layout; results must match the
        // sharded engine exactly.
        let batch = "cpu,hostname=h1 v=1 1\ncpu,hostname=h2 v=2 2\nmem,hostname=h1 v=3 3";
        let sharded = influx();
        let single = Influx::with_shards(Clock::simulated(Timestamp::from_secs(1000)), 1);
        sharded.write_lines("lms", batch, Default::default()).unwrap();
        single.write_lines("lms", batch, Default::default()).unwrap();
        for q in ["SELECT v FROM cpu", "SHOW MEASUREMENTS", "SELECT mean(v) FROM cpu"] {
            assert_eq!(
                sharded.query("lms", q).unwrap(),
                single.query("lms", q).unwrap(),
                "query {q} diverged between shard counts"
            );
        }
        assert_eq!(sharded.point_count("lms"), single.point_count("lms"));
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lms-influx-db-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn persistent(dir: &std::path::Path) -> Influx {
        Influx::open(
            Clock::simulated(Timestamp::from_secs(1000)),
            DEFAULT_SHARDS,
            StorageConfig::new(dir),
        )
        .unwrap()
    }

    #[test]
    fn non_finite_floats_are_rejected_and_stay_out_across_a_restart() {
        let dir = tmp_dir("non-finite");
        let body = "m v=1\nm v=nan\nm v=-Infinity\nm w=inf 5\nm v=1e999\nm w=2 5";
        let before = {
            let ix = persistent(&dir);
            let out = ix.write_lines("lms", body, Default::default()).unwrap();
            assert_eq!((out.written, out.rejected), (2, 4));
            assert_eq!(out.first_error.unwrap().0, 2);
            ix.query("lms", "SELECT v, w FROM m").unwrap()
        };
        assert_eq!(before.series[0].values.len(), 2, "{before:?}");
        // The WAL holds the accepted lines only: a replay answers the same.
        let ix = persistent(&dir);
        assert_eq!(ix.query("lms", "SELECT v, w FROM m").unwrap(), before);
        drop(ix);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_after_flush_serves_identical_queries() {
        let dir = tmp_dir("flush-restart");
        let queries = [
            "SELECT v FROM cpu",
            "SELECT mean(v), max(v) FROM cpu",
            "SHOW MEASUREMENTS",
            "SELECT v FROM cpu WHERE hostname = 'h2'",
        ];
        let before: Vec<QueryResult> = {
            let ix = persistent(&dir);
            ix.write_lines(
                "lms",
                "cpu,hostname=h1 v=1 1\ncpu,hostname=h2 v=2 2\nmem,hostname=h1 used=3i 3",
                Default::default(),
            )
            .unwrap();
            assert!(ix.flush_storage().unwrap() > 0);
            queries.iter().map(|q| ix.query("lms", q).unwrap()).collect()
        };
        let ix = persistent(&dir);
        for (q, expect) in queries.iter().zip(before) {
            assert_eq!(ix.query("lms", q).unwrap(), expect, "query {q} diverged after restart");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_user_copy_stored_before_views_answers_the_same_through_the_view() {
        // A data directory from when the router copied each job line into
        // `user_<name>`: it opens, and the view answers what the copy did.
        let dir = tmp_dir("user-copy");
        let mine = "cpu,hostname=h1,jobid=7,user=alice v=1 1\n\
                    cpu,hostname=h1,jobid=7,user=alice v=2 2\n\
                    mem,hostname=h1,jobid=7,user=alice used=3i 3";
        let queries = [
            "SELECT v FROM cpu",
            "SELECT sum(v), count(v) FROM cpu GROUP BY hostname",
            "SHOW MEASUREMENTS",
            "SHOW TAG VALUES FROM cpu WITH KEY = hostname",
            "SHOW FIELD KEYS FROM mem",
        ];
        let copied: Vec<QueryResult> = {
            let ix = persistent(&dir);
            let all = format!("{mine}\ncpu,hostname=h2 v=9 1");
            ix.write_lines("lms", &all, Default::default()).unwrap();
            ix.create_database("user_alice");
            ix.write_lines("user_alice", mine, Default::default()).unwrap();
            ix.flush_storage().unwrap();
            let copy = ix.database("user_alice").unwrap();
            let run = |q: &str| Statement::parse(q).and_then(|stmt| {
                exec::execute(&stmt, &copy, None, &[], 0)
            });
            queries.iter().map(|q| run(q).unwrap()).collect()
        };
        let ix = persistent(&dir);
        assert!(ix.database_names().contains(&"user_alice".to_string()));
        for (q, want) in queries.iter().zip(copied) {
            assert_eq!(ix.query("user_alice", q).unwrap(), want, "{q}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_without_flush_replays_wal() {
        // Replay goes through the batch path: `cpu` is sealed, then two
        // unflushed WAL records overwrite one `(series, ts)` of it and `mem`
        // exists only in the log — every answer must survive the reopen.
        let dir = tmp_dir("wal-restart");
        let queries =
            ["SELECT v FROM cpu", "SELECT used FROM mem", "SHOW MEASUREMENTS", "SELECT sum(v) FROM cpu"];
        let before: Vec<QueryResult> = {
            let ix = persistent(&dir);
            ix.write_lines("lms", "cpu,host=b v=1 1\ncpu,host=a v=2 2", Default::default()).unwrap();
            ix.flush_storage().unwrap();
            for batch in ["cpu,host=a v=7 2\nmem,host=a used=3i 3", "cpu,host=a v=9 2"] {
                ix.write_lines("lms", batch, Default::default()).unwrap();
            }
            queries.iter().map(|q| ix.query("lms", q).unwrap()).collect()
        };
        assert_eq!(before[3].series[0].values[0][1].as_f64(), Some(10.0), "last overwrite wins");
        let ix = persistent(&dir);
        assert_eq!(ix.storage_stats().recovered_records, 2);
        for (q, expect) in queries.iter().zip(before) {
            assert_eq!(ix.query("lms", q).unwrap(), expect, "query {q} diverged after replay");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_preserves_server_assigned_timestamps() {
        // Lines without timestamps get server time at write; the WAL must
        // record the *resolved* timestamp, not re-stamp at replay.
        let dir = tmp_dir("normalize");
        let before = {
            let ix = persistent(&dir);
            ix.write_lines("lms", "cpu v=1", Default::default()).unwrap();
            ix.query("lms", "SELECT v FROM cpu").unwrap()
        };
        let ix = Influx::open(
            Clock::simulated(Timestamp::from_secs(9999)), // different "now"
            DEFAULT_SHARDS,
            StorageConfig::new(&dir),
        )
        .unwrap();
        assert_eq!(ix.query("lms", "SELECT v FROM cpu").unwrap(), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn overwrite_across_flush_boundary_resolves_last_write() {
        let dir = tmp_dir("lww");
        let ix = persistent(&dir);
        ix.write_lines("lms", "m v=1 5", Default::default()).unwrap();
        ix.flush_storage().unwrap();
        ix.write_lines("lms", "m v=2 5", Default::default()).unwrap();
        let r = ix.query("lms", "SELECT v FROM m").unwrap();
        assert_eq!(r.series[0].values[0][1].as_f64().unwrap(), 2.0, "head beats sealed");
        ix.flush_storage().unwrap();
        drop(ix);
        let ix = persistent(&dir);
        let r = ix.query("lms", "SELECT v FROM m").unwrap();
        assert_eq!(r.series[0].values.len(), 1);
        assert_eq!(
            r.series[0].values[0][1].as_f64().unwrap(),
            2.0,
            "newer generation beats older after restart"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Recursively finds segment files under `dir` whose name starts with
    /// `prefix`.
    fn find_segments(dir: &std::path::Path, prefix: &str) -> Vec<PathBuf> {
        let mut out = Vec::new();
        let mut stack = vec![dir.to_path_buf()];
        while let Some(d) = stack.pop() {
            let Ok(entries) = std::fs::read_dir(&d) else { continue };
            for entry in entries.flatten() {
                let path = entry.path();
                if path.is_dir() {
                    stack.push(path);
                } else if path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with(prefix) && n.ends_with(".tsm"))
                {
                    out.push(path);
                }
            }
        }
        out
    }

    #[test]
    fn scrub_quarantines_damage_and_replica_replay_heals_it() {
        let dir_a = tmp_dir("scrub-a");
        let dir_b = tmp_dir("scrub-b");
        let ix_a = persistent(&dir_a);
        let ix_b = persistent(&dir_b);
        // Two 2h partitions: ts 1s lands in partition 0, ts 8000s in
        // partition 1.
        let batch = "m,host=h1 v=1 1000000000\nm,host=h1 v=2 8000000000000";
        for ix in [&ix_a, &ix_b] {
            ix.write_lines("lms", batch, Default::default()).unwrap();
            ix.flush_storage().unwrap();
        }
        let digest = |ix: &Influx| ix.integrity_digests("lms", 2, 2, 7).unwrap();
        assert_eq!(digest(&ix_a), digest(&ix_b), "identical replicas must agree");

        // Corrupt partition 1's segment on node A (flip a payload bit).
        let seg = find_segments(&dir_a, "seg-1-").pop().expect("partition-1 segment");
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes[16] ^= 0x01;
        std::fs::write(&seg, &bytes).unwrap();

        let db_a = ix_a.database("lms").unwrap();
        let mut quarantined = 0;
        loop {
            let out = db_a.scrub_storage(u64::MAX).unwrap();
            quarantined += out.quarantined.len();
            if out.cycle_completed {
                break;
            }
        }
        assert_eq!(quarantined, 1);
        let stats = ix_a.storage_stats();
        assert_eq!(stats.quarantined_segments, 1);
        assert_eq!(stats.damaged_ranges, 1);
        assert!(stats.corrupt_frames >= 1);
        assert!(seg.with_extension("tsm.quarantine").exists() || !seg.exists());
        // Reads stop serving the damaged partition but keep the healthy one.
        let r = ix_a.query("lms", "SELECT v FROM m").unwrap();
        assert_eq!(r.series[0].values.len(), 1, "damaged partition must not be served");
        assert_eq!(r.series[0].values[0][1].as_f64(), Some(1.0));
        assert_ne!(digest(&ix_a), digest(&ix_b), "loss must be visible in digests");

        // Anti-entropy in miniature: replay the healthy replica's export of
        // the damaged range through the normal write path.
        let damaged = db_a.engine().unwrap().damaged_ranges();
        assert_eq!(damaged.len(), 1);
        let lines = ix_b.integrity_export("lms", damaged[0].start_ns, damaged[0].end_ns).unwrap();
        assert!(lines.contains("v=2"), "{lines}");
        ix_a.write_lines("lms", &lines, Default::default()).unwrap();
        let r = ix_a.query("lms", "SELECT v FROM m").unwrap();
        assert_eq!(r.series[0].values.len(), 2, "repair must restore the lost point");
        assert_eq!(digest(&ix_a), digest(&ix_b), "replicas must reconverge after repair");
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn compaction_preserves_results_and_shrinks_files() {
        let dir = tmp_dir("compact");
        let ix = persistent(&dir);
        for round in 0..5 {
            let mut batch = String::new();
            for i in 0..20 {
                batch.push_str(&format!("m v={} {}\n", round * 100 + i, i));
            }
            ix.write_lines("lms", &batch, Default::default()).unwrap();
            ix.flush_storage().unwrap();
        }
        let before = ix.query("lms", "SELECT v FROM m").unwrap();
        let files_before = ix.storage_stats().segment_files;
        assert!(files_before >= 5);
        assert!(ix.compact_storage().unwrap() > 0);
        assert_eq!(ix.query("lms", "SELECT v FROM m").unwrap(), before);
        let stats = ix.storage_stats();
        assert!(stats.segment_files < files_before, "compaction merges files");
        assert_eq!(stats.compactions, 1);
        assert_eq!(
            stats.sealed_points, 20,
            "overwritten versions are dropped by compaction"
        );
        drop(ix);
        let ix = persistent(&dir);
        assert_eq!(ix.query("lms", "SELECT v FROM m").unwrap(), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn background_compaction_rewrites_only_due_partitions() {
        let dir = tmp_dir("compact-scope");
        let ix = persistent(&dir);
        // 2h partitions: 1s → partition 0, 8000s → 1, 15000s → 2. Four
        // flushes put four files into partition 1 (with overwrites across
        // them); partitions 0 and 2 get two files and one.
        const S: i64 = 1_000_000_000;
        for round in 0..4i64 {
            let mut batch = String::new();
            for i in 0..30 {
                let ts = (8000 + i * 100 + (round % 2) * 50) * S; // both 1h spans
                batch.push_str(&format!("m,host=h{} v={},w={i}i {ts}\n", i % 3, round * 100 + i));
            }
            if round < 2 {
                batch.push_str(&format!("m,host=h0 v={round},w=1i {}\n", (1 + round) * S));
            }
            if round == 0 {
                batch.push_str(&format!("m,host=h1 v=7,w=2i {}\n", 15000 * S));
                batch.push_str(&format!("n,host=h1 x=1 {}\n", 15001 * S));
            }
            ix.write_lines("lms", &batch, Default::default()).unwrap();
            ix.flush_storage().unwrap();
        }
        let queries = [
            "SELECT v, w FROM m",
            "SELECT mean(v), count(w) FROM m GROUP BY time(1h)",
            "SELECT max(v) FROM m WHERE host = 'h1' GROUP BY time(30m)",
            "SELECT x FROM n",
            "SHOW MEASUREMENTS",
        ];
        let answers = |ix: &Influx| -> Vec<QueryResult> {
            queries.iter().map(|q| ix.query("lms", q).unwrap()).collect()
        };
        let files = |prefix: &str| -> Vec<(PathBuf, Vec<u8>)> {
            let mut found: Vec<(PathBuf, Vec<u8>)> = find_segments(&dir, prefix)
                .into_iter()
                .map(|p| (p.clone(), std::fs::read(&p).unwrap()))
                .collect();
            found.sort();
            found
        };
        let before = answers(&ix);
        let (p0, p2) = (files("seg-0-"), files("seg-2-"));
        assert_eq!((p0.len(), files("seg-1-").len(), p2.len()), (2, 4, 1));

        assert!(ix.compact_storage().unwrap() > 0);
        assert_eq!(files("seg-1-").len(), 1, "the due partition is merged into one file");
        assert_eq!(files("seg-0-"), p0, "partition 0 keeps its files, byte for byte");
        assert_eq!(files("seg-2-"), p2, "partition 2 keeps its file, byte for byte");
        assert_eq!(ix.storage_stats().compactions, 1);
        assert_eq!(answers(&ix), before);
        assert_eq!(ix.compact_storage().unwrap(), 0, "nothing is due any more");
        drop(ix);

        let ix = persistent(&dir);
        assert_eq!(answers(&ix), before, "diverged after reopen");
        // A major compaction still merges every partition: one block per
        // column, partition and span.
        let db = ix.database("lms").unwrap();
        assert!(db.compact_storage().unwrap() > 0);
        assert_eq!(answers(&ix), before);
        for partition in ["seg-0-", "seg-1-", "seg-2-"] {
            assert_eq!(files(partition).len(), 1, "{partition}: merged into one file");
        }
        let engine = db.engine().unwrap();
        for series in db.series_where("m", &[]) {
            for (field, col) in series.fields() {
                let mut spans: Vec<i64> =
                    col.sealed().iter().map(|b| engine.span_of(b.min_ts)).collect();
                let blocks = spans.len();
                spans.sort_unstable();
                spans.dedup();
                assert_eq!(spans.len(), blocks, "{field}: two blocks in one span");
            }
        }
        drop(ix);
        assert_eq!(answers(&persistent(&dir)), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_drops_expired_segment_files() {
        let dir = tmp_dir("segment-retention");
        let ix = Influx::open(
            Clock::simulated(Timestamp::from_secs(1000)),
            DEFAULT_SHARDS,
            StorageConfig {
                partition: Duration::from_secs(60),
                ..StorageConfig::new(&dir)
            },
        )
        .unwrap();
        ix.set_retention("lms", Some(Duration::from_secs(100)));
        // now = 1000s; one point far in the past, one fresh.
        ix.write_lines("lms", "m v=1 100000000000\nm v=2 950000000000", Default::default())
            .unwrap();
        ix.flush_storage().unwrap();
        assert_eq!(ix.storage_stats().segment_files, 2, "points land in distinct partitions");
        assert_eq!(ix.enforce_retention(), 1);
        let stats = ix.storage_stats();
        assert_eq!(stats.segment_files, 1, "expired partition file unlinked");
        assert_eq!(ix.point_count("lms"), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_churn_keeps_shard_maps_bounded() {
        // Churning tag sets: every round writes 200 fresh series, then the
        // clock advances past retention and the sweep must fully remove
        // them — both the entries and (eventually) the map capacity.
        let clock = Clock::simulated(Timestamp::from_secs(1000));
        let ix = Influx::new(clock.clone());
        ix.set_retention("lms", Some(Duration::from_secs(10)));
        for round in 0..30 {
            let mut batch = String::new();
            let now = clock.now().nanos();
            for i in 0..200 {
                batch.push_str(&format!("jobs,job=r{round}x{i} v=1 {now}\n"));
            }
            ix.write_lines("lms", &batch, Default::default()).unwrap();
            clock.advance(Duration::from_secs(60));
            ix.enforce_retention();
            assert_eq!(ix.series_count("lms"), 0, "round {round}: all series expired");
        }
        // After 6000 series came and went, the shard maps must not retain
        // capacity proportional to the historical total.
        let db = ix.database("lms").unwrap();
        let capacity: usize =
            db.shards.iter().map(|s| s.data.read().series.capacity()).sum();
        assert!(
            capacity <= 2048,
            "shard map capacity {capacity} should be bounded, not ~6000"
        );
        assert_eq!(ix.point_count("lms"), 0);
        let _ = ix.query("lms", "SHOW MEASUREMENTS").unwrap();
    }

    #[test]
    fn flush_fault_injection_keeps_data_and_recovers() {
        let dir = tmp_dir("flush-fault");
        {
            let ix = persistent(&dir);
            ix.write_lines("lms", "m v=1 1\nm v=2 2", Default::default()).unwrap();
            let db = ix.database("lms").unwrap();
            db.engine().unwrap().inject_segment_write_failure(4);
            assert!(db.flush_storage().is_err(), "injected fault surfaces");
            // Reads still serve everything from memory.
            let r = ix.query("lms", "SELECT v FROM m").unwrap();
            assert_eq!(r.series[0].values.len(), 2);
            // Retry succeeds: the sealed-but-unwritten blocks are retried.
            assert!(db.flush_storage().unwrap() > 0);
        }
        let ix = persistent(&dir);
        assert_eq!(ix.point_count("lms"), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsafe_db_names_stay_memory_only() {
        let dir = tmp_dir("unsafe-name");
        let ix = persistent(&dir);
        ix.write_lines("weird/../name", "m v=1 1", Default::default()).unwrap();
        let db = ix.database("weird/../name").unwrap();
        assert!(db.engine().is_none(), "path-unsafe names must not touch the filesystem");
        assert!(!dir.join("weird").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn storage_worker_flushes_in_background() {
        let dir = tmp_dir("worker");
        let ix = Influx::open(
            Clock::simulated(Timestamp::from_secs(1000)),
            DEFAULT_SHARDS,
            StorageConfig {
                flush_points: 10,
                flush_interval: Duration::from_secs(3600), // only the point trigger
                ..StorageConfig::new(&dir)
            },
        )
        .unwrap();
        let worker = ix.spawn_storage_worker().expect("storage configured");
        let mut batch = String::new();
        for i in 0..50 {
            batch.push_str(&format!("m v={i} {i}\n"));
        }
        ix.write_lines("lms", &batch, Default::default()).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while ix.storage_stats().sealed_points == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(50));
        }
        assert!(ix.storage_stats().sealed_points > 0, "worker flushed on point threshold");
        worker.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// What the test below has seen of one database: its segment files and
    /// sealed values at the last look, and `(when, values sealed)` per
    /// flush noticed.
    #[derive(Default)]
    struct Seen {
        files: u64,
        sealed: u64,
        flushes: Vec<(Duration, u64)>,
    }

    #[test]
    fn every_flush_is_size_triggered_or_a_full_interval_after_the_last() {
        const INTERVAL: Duration = Duration::from_millis(1000);
        const FLUSH_POINTS: usize = 300;
        let dir = tmp_dir("flush-cadence");
        let ix = Influx::open(
            Clock::simulated(Timestamp::from_secs(1000)),
            DEFAULT_SHARDS,
            StorageConfig {
                flush_points: FLUSH_POINTS,
                flush_interval: INTERVAL,
                compact_min_files: 1 << 20, // one segment file per flush, kept
                ..StorageConfig::new(&dir)
            },
        )
        .unwrap();
        ix.create_database("fast");
        ix.create_database("slow");
        let worker = ix.spawn_storage_worker().expect("storage configured");
        // `fast` fills the size trigger about every 0.4 s, never waiting
        // out an interval; `slow` only ever reaches the interval. Each
        // flush of a database adds one segment file: watch for them.
        let stop = AtomicBool::new(false);
        let flushes = std::thread::scope(|scope| {
            let writer = |db: &'static str, values_per_write: i64| {
                let (ix, stop) = (&ix, &stop);
                scope.spawn(move || {
                    let mut ts = 0i64;
                    while !stop.load(Ordering::Relaxed) {
                        let body: String = (0..values_per_write)
                            .map(|i| format!("m,s=s{i} v=1 {}\n", ts + i))
                            .collect();
                        ts += values_per_write;
                        ix.write_lines(db, &body, Default::default()).unwrap();
                        std::thread::sleep(Duration::from_millis(20));
                    }
                });
            };
            writer("fast", 15);
            writer("slow", 1);
            let started = std::time::Instant::now();
            let mut seen: FxHashMap<&str, Seen> = FxHashMap::default();
            while started.elapsed() < Duration::from_millis(3600) {
                for name in ["fast", "slow"] {
                    let stats = ix.database(name).unwrap().storage_stats();
                    let seen = seen.entry(name).or_default();
                    if stats.segment_files > seen.files {
                        seen.flushes.push((started.elapsed(), stats.sealed_points - seen.sealed));
                        (seen.files, seen.sealed) = (stats.segment_files, stats.sealed_points);
                    }
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            stop.store(true, Ordering::Relaxed);
            seen
        });
        worker.stop();
        // A flush is seen up to a poll (and a busy box's scheduling delay)
        // after it happened, so a gap may read that much short.
        let slack = Duration::from_millis(300);
        for (name, Seen { flushes: log, .. }) in &flushes {
            assert!(log.len() >= 2, "{name}: too few flushes observed: {log:?}");
            let mut previous = Duration::ZERO; // the worker first saw the database about here
            for &(at, sealed) in log {
                assert!(
                    sealed >= FLUSH_POINTS as u64 || at - previous + slack >= INTERVAL,
                    "{name}: a flush of {sealed} values {:?} after the previous one: {log:?}",
                    at - previous
                );
                previous = at;
            }
        }
        let sizes = |name: &str| flushes[name].flushes.iter().map(|&(_, n)| n).collect::<Vec<_>>();
        assert!(sizes("fast").iter().any(|&n| n >= FLUSH_POINTS as u64), "{:?}", sizes("fast"));
        assert!(sizes("slow").iter().all(|&n| n < FLUSH_POINTS as u64), "{:?}", sizes("slow"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_to_one_database() {
        let ix = influx();
        ix.create_database("lms");
        std::thread::scope(|scope| {
            for w in 0..4 {
                let ix = ix.clone();
                scope.spawn(move || {
                    for batch in 0..10 {
                        let mut text = String::new();
                        for i in 0..25 {
                            let ts = (w * 1000 + batch * 25 + i) as i64;
                            text.push_str(&format!("m,writer=w{w} v={i} {ts}\n"));
                        }
                        ix.write_lines("lms", &text, Default::default()).unwrap();
                    }
                });
            }
        });
        assert_eq!(ix.point_count("lms"), 4 * 10 * 25);
        assert_eq!(ix.series_count("lms"), 4);
    }
}
