//! Databases and the embedded [`Influx`] handle.
//!
//! A [`Database`] owns the series of one logical database (the paper's
//! global database, its rollup tiers, any other a client writes to).
//! [`Influx`] bundles multiple databases behind one thread-safe handle —
//! the same object backs the embedded API and the HTTP server — and serves
//! each user's view of the global database (see [`crate::user_view`]).
//!
//! This file keeps the shards, `meta`, series creation and the reads, and
//! [`Influx`]'s open, write and query. Each other decision has one child
//! module with a private interior:
//!
//! - `staging`: the shard append buffers and when they drain;
//! - `index`: the measurement index (series lists and tag postings);
//! - `seal`: flush and compaction;
//! - `retention`: the retention sweeps;
//! - `rollup`: [`RollupPolicy`], the rollup pass, the watermark, the
//!   retention clamp and the tier context queries read;
//! - `integrity`: scrub and quarantine reload, digests and export;
//! - `worker`: [`StorageConfig`], [`StorageStats`] and the supervised
//!   storage worker with its health accessors.
//!
//! # Ingest concurrency
//!
//! Writers never take a storage-wide exclusive lock. The outer
//! `db name → Database` map is read-mostly (`RwLock` around an
//! [`Arc<Database>`] map: writes only when a database is created), and each
//! database partitions its series across [`DEFAULT_SHARDS`] lock-striped
//! shards selected by series-key hash. Every logged batch enters a shard
//! one way, WAL replay included: `Database::write_parsed_batch` stages it
//! in the shard's append buffer, and whichever writer finds the shard
//! backlogged and free drains it (the `staging` submodule owns the buffer
//! and that decision). The one other way in is a rollup pass's: its
//! recomputed tier rows go into the heads of the tier database it flushes,
//! inside that flush's session, and are sealed with them
//! (`Database::flush_with`).
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
//! `series_slot`'s callers and the retention sweep; the hot
//! path takes a single shard lock and nothing else. The retention gate
//! sits outside them all: a batch holds it shared from its WAL append
//! through its staging, retention and a flush's WAL rotation (so a frozen
//! segment holds only staged records) exclusively, none of them while
//! holding another lock. The storage engine's maintenance lock (one
//! flush, compaction or file drop at a time) comes before the gate: a
//! flush takes the gate only once its session holds that lock, and
//! retention unlinks expired files after it releases the gate, so a
//! compaction never stalls a writer. Series are stored as
//! `Arc<Series>` so queries snapshot cheaply (clone the `Arc`s under a
//! shard read lock) while writers mutate in place through `Arc::make_mut`
//! — the copy-on-write clone only triggers when a query holds the same
//! series concurrently.

mod index;
mod integrity;
mod retention;
mod rollup;
mod seal;
mod staging;
mod worker;

pub use rollup::RollupPolicy;
pub use worker::{StorageConfig, StorageStats, StorageWorker};

use crate::exec::{self, QueryResult};
use crate::query::{Condition, Select, Statement};
use crate::storage::Series;
use index::{shrink_sparse_map, shrink_sparse_vec, MeasurementIndex};
use lms_lineproto::{parse_batch, Precision};
use lms_rollup::Tier;
use lms_tsm::wal::MAX_BATCH_BYTES;
use lms_tsm::{BlockEntry, Scrubber, SeriesId, TsmConfig, TsmEngine};
use lms_util::{hash::fx_hash, scratch::ScratchDir, Clock, Error, FxHashMap, Result, Supervisor};
use parking_lot::{Mutex, RwLock};
use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicU64, AtomicUsize};
use std::sync::Arc;
use std::time::Duration;

/// Default number of lock-striped series shards per database.
pub const DEFAULT_SHARDS: usize = 16;

/// A database name that is safe to use verbatim as a directory name (and
/// to round-trip back from one at startup). A database of any other name is
/// refused, as InfluxDB 1.x refuses path-like names.
fn is_safe_db_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 128
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
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

/// One logical database: lock-striped series storage with its persistent
/// engine beneath it.
#[derive(Debug)]
pub struct Database {
    /// The stripes; length is a power of two so shard selection is a mask.
    shards: Box<[ShardSlot]>,
    meta: RwLock<Meta>,
    /// Held shared by a batch from its WAL append through its staging, and
    /// exclusively by retention, which removes series, and by a flush while
    /// it rotates the WAL: see the module docs.
    retention_gate: RwLock<()>,
    /// The WAL and segment files that make the in-memory layer durable.
    engine: Arc<TsmEngine>,
    /// Blocks sealed in memory whose segment write failed: retried by the
    /// next flush so the on-disk state catches up (the WAL still covers
    /// them in the meantime).
    unflushed: Mutex<Vec<BlockEntry>>,
    /// The flush-trigger gauge: field values staged since the last flush
    /// settled it (see [`Self::unsealed_values`]).
    unsealed: AtomicUsize,
    /// The executor tuning knobs in effect.
    tuning: RwLock<QueryTuning>,
    /// Its part in the rollup pipeline (see [`rollup`]).
    rollup: rollup::RollupState,
    /// Incremental CRC-scrub cursor over this database's segment files.
    scrubber: Mutex<Scrubber>,
}

impl Database {
    /// Opens (or creates) a database with `shards` lock stripes (a power of
    /// two) and installs what its engine recovered: sealed blocks first
    /// (ascending generation, which re-creates series in their pre-crash
    /// first-write order), then the WAL replay on top (its newer values win
    /// over sealed duplicates because the head outranks every block). The
    /// result serves the same queries as the pre-restart instance.
    fn open(shards: usize, cfg: TsmConfig) -> Result<Database> {
        let (engine, recovered) = TsmEngine::open(cfg)?;
        let db = Database {
            shards: (0..shards).map(|_| ShardSlot::default()).collect(),
            meta: RwLock::new(Meta::default()),
            retention_gate: RwLock::new(()),
            engine: Arc::new(engine),
            unflushed: Mutex::new(Vec::new()),
            unsealed: AtomicUsize::new(0),
            tuning: RwLock::new(QueryTuning::default()),
            rollup: rollup::RollupState::default(),
            scrubber: Mutex::new(Scrubber::new()),
        };
        for BlockEntry { series: id, field, block } in recovered.blocks {
            let mut meta = db.meta.write();
            let mut shard = db.shard_of(&id.series_key).data.write();
            let series = series_slot(&mut meta, &mut shard, &id.series_key, || id.clone());
            Arc::make_mut(series).field_mut_or_create(&field).push_sealed(block);
        }
        for record in &recovered.wal_records {
            // WAL batches are normalized at append time: every line carries
            // an explicit nanosecond timestamp, so replay is deterministic.
            // Records stage in log order, so overwrites resolve as they did
            // before the crash.
            let _gate = db.retention_gate.read();
            db.write_parsed_batch(&parse_batch(&record.batch).lines, WriteOptions::default(), 0);
        }
        Ok(db)
    }

    /// The executor tuning knobs currently in effect.
    pub fn query_tuning(&self) -> QueryTuning {
        *self.tuning.read()
    }

    /// Replaces the executor tuning knobs (takes effect on the next query).
    pub fn set_query_tuning(&self, tuning: QueryTuning) {
        *self.tuning.write() = tuning;
    }

    /// The storage engine.
    pub fn engine(&self) -> &Arc<TsmEngine> {
        &self.engine
    }

    fn shard_index(&self, key: &str) -> usize {
        (fx_hash(key.as_bytes()) as usize) & (self.shards.len() - 1)
    }

    fn shard_of(&self, key: &str) -> &ShardSlot {
        &self.shards[self.shard_index(key)]
    }

    /// Sets the retention window (points older than `now - retention` are
    /// dropped by [`Influx::enforce_retention`]).
    pub fn set_retention(&self, retention: Option<Duration>) {
        self.meta.write().retention = retention;
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
}

struct Inner {
    databases: FxHashMap<String, Arc<Database>>,
    /// Create databases on first write (convenience for a self-contained
    /// stack; real InfluxDB requires CREATE DATABASE).
    auto_create: bool,
    /// Stripe count for newly created databases.
    shard_count: usize,
    /// Where and how every database is stored.
    storage: StorageConfig,
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
    /// An [`Influx::new`] node's data directory, removed after the above.
    scratch: Option<ScratchDir>,
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
    /// shard count (see [`Self::with_shards`]).
    pub fn new(clock: Clock) -> Result<Influx> {
        Self::with_shards(clock, DEFAULT_SHARDS)
    }

    /// Creates an empty storage whose databases use `shards` lock stripes,
    /// stored as [`Self::open`] stores them, on a fresh scratch directory
    /// under [`std::env::temp_dir`] removed when the last handle drops.
    pub fn with_shards(clock: Clock, shards: usize) -> Result<Influx> {
        let scratch = ScratchDir::new("lms-influx")?;
        let ix = Influx::open(clock, shards, StorageConfig::new(scratch.path()))?;
        ix.inner.write().scratch = Some(scratch);
        Ok(ix)
    }

    /// Opens the storage rooted at `storage.data_dir`: every database found
    /// on disk is recovered immediately (sealed segments + WAL replay), and
    /// databases created later persist under the same root. Queries served
    /// after a restart match the pre-restart state up to the last
    /// acknowledged write.
    pub fn open(clock: Clock, shards: usize, storage: StorageConfig) -> Result<Influx> {
        std::fs::create_dir_all(&storage.data_dir)?;
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&storage.data_dir)? {
            let entry = entry?;
            let name = entry.file_name().into_string().unwrap_or_default();
            if entry.file_type()?.is_dir() && is_safe_db_name(&name) {
                names.push(name);
            }
        }
        names.sort_unstable();
        let ix = Influx {
            inner: Arc::new(RwLock::new(Inner {
                databases: FxHashMap::default(),
                auto_create: true,
                shard_count: shards.max(1).next_power_of_two(),
                storage,
                supervisor: None,
                rollup: None,
                query_tiers: None,
                scratch: None,
            })),
            clock,
            worker_panics: Arc::new(AtomicU64::new(0)),
            rollup_passes: Arc::new(AtomicU64::new(0)),
            rollup_windows: Arc::new(AtomicU64::new(0)),
        };
        for name in names {
            ix.open_database(&name)?;
        }
        Ok(ix)
    }

    /// Disables database auto-creation (writes to unknown databases then
    /// fail like real InfluxDB).
    pub fn set_auto_create(&self, enabled: bool) {
        self.inner.write().auto_create = enabled;
    }

    /// Creates a database (idempotent). One that cannot be opened — its
    /// name is not directory-safe, or the open fails — is not registered:
    /// a write to it then answers the error, and `CREATE DATABASE` does.
    pub fn create_database(&self, name: &str) {
        let _ = self.open_database(name);
    }

    /// The database `name`, opened under the data directory and registered
    /// when new. A name that cannot round-trip through a path is refused
    /// (`400`), as is one whose open fails (its I/O error): nothing is kept
    /// in memory only.
    fn open_database(&self, name: &str) -> Result<Arc<Database>> {
        let mut inner = self.inner.write();
        if let Some(existing) = inner.databases.get(name) {
            return Ok(existing.clone());
        }
        if !is_safe_db_name(name) {
            return Err(Error::protocol(format!(
                "database name {name:?}: use 1 to 128 ASCII letters, digits, `_` or `-`"
            )));
        }
        let db = Arc::new(Database::open(inner.shard_count, inner.storage.tsm_config(name))?);
        if let Some(policy) = &inner.rollup {
            rollup::apply_rollup_policy(name, &db, policy);
        }
        inner.databases.insert(name.to_string(), db.clone());
        Ok(db)
    }

    /// Sets the retention window of a database (creating it if needed).
    pub fn set_retention(&self, db: &str, retention: Option<Duration>) {
        if let Ok(found) = self.open_database(db) {
            found.set_retention(retention);
        }
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
        if !self.inner.read().auto_create {
            return Err(Error::not_found(format!("database `{db}`")));
        }
        if crate::user_view(db).is_some() {
            let global = crate::GLOBAL_DB;
            return Err(Error::not_found(format!("database `{db}` (a view of `{global}`)")));
        }
        self.open_database(db)
    }

    /// Writes a line-protocol batch. Malformed lines are counted and
    /// skipped, not fatal (the paper's stack must survive a misbehaving
    /// collector). Fails when the database does not exist and auto-create
    /// is off, when it cannot be created (see [`Self::create_database`]),
    /// with `Error::Invalid` when the batch, each line given its timestamp,
    /// is too large for one WAL record, and with the append's error when it
    /// cannot be logged; a refused batch leaves nothing behind, and while
    /// the storage is degraded every batch is refused up front.
    ///
    /// The batch is logged, joining a WAL group commit shared with
    /// concurrent batches, and then staged: the one way a batch enters a
    /// database. The retention gate is held shared from the append through
    /// the staging, so a flush, which rotates the WAL under the gate held
    /// exclusively, finds every record of a frozen segment staged.
    pub fn write_lines(&self, db: &str, batch: &str, opts: WriteOptions) -> Result<WriteOutcome> {
        let parsed = parse_batch(batch);
        let default_ts = self.clock.now().nanos();
        let database = self.database_or_create(db)?;
        // The WAL batch is normalized — every line carries its resolved
        // nanosecond timestamp — so replay after a crash is deterministic
        // and idempotent (re-applying overwrites with identical values).
        let mut wal_batch = String::with_capacity(batch.len() + 16);
        for line in &parsed.lines {
            if line.timestamp.is_some() && matches!(opts.precision, Precision::Nanoseconds) {
                wal_batch.push_str(line.raw);
            } else {
                let ts = line.timestamp.map(|t| opts.precision.to_nanos(t)).unwrap_or(default_ts);
                let mut point = line.to_point();
                point.set_timestamp(ts);
                wal_batch.push_str(&point.to_line());
            }
            wal_batch.push('\n');
        }
        database.engine.writable()?;
        if wal_batch.len() > MAX_BATCH_BYTES {
            return Err(Error::invalid(format!(
                "the batch takes {} bytes with its timestamps, over the \
                 {MAX_BATCH_BYTES}-byte WAL record limit: split it",
                wal_batch.len()
            )));
        }
        let mut written = 0;
        if !parsed.lines.is_empty() {
            let _gate = database.retention_gate.read();
            database.engine.append_wal(&wal_batch, parsed.lines.len() as u64)?;
            written = database.write_parsed_batch(&parsed.lines, opts, default_ts);
        }
        Ok(WriteOutcome {
            written,
            rejected: parsed.errors.len(),
            first_error: parsed.errors.first().map(|(line, e)| (*line, e.to_string())),
        })
    }

    /// Runs a query statement string against a database or a user view
    /// (see [`crate::user_view`]).
    pub fn query(&self, db: &str, q: &str) -> Result<QueryResult> {
        let stmt = Statement::parse(q)?;
        match stmt {
            Statement::CreateDatabase(name) => {
                self.open_database(&name)?;
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

    /// Point count in one database (0 when absent).
    pub fn point_count(&self, db: &str) -> usize {
        self.database(db).map(|d| d.point_count()).unwrap_or(0)
    }

    /// Series count in one database (0 when absent).
    pub fn series_count(&self, db: &str) -> usize {
        self.database(db).map(|d| d.series_count()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests;
