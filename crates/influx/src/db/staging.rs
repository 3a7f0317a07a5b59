//! The ingest path: thread-local stage → per-shard staging buffer → drain
//! → each value appended to its [`Column`](crate::storage::Column).
//!
//! `Database::write_parsed_batch` is the way a batch enters the series
//! maps: after the batch's WAL append, or from WAL replay (a rollup pass's
//! flush puts its unlogged tier rows straight into the heads it seals). It
//! stages a parsed batch per shard in thread-local scratch, hands each
//! touched shard's share to that shard's [`Staged`] buffer under a brief
//! mutex, and then decides — here and nowhere else — whether to apply now
//! or leave the points staged: a shard is drained only once its backlog is
//! worth a splice ([`DRAIN_BATCH_POINTS`]) and its `data` lock is free.
//! Whoever wins that lock applies every staged point, its own and any
//! concurrent writer's, so N writers on one hot series hand their points
//! to the running drainer instead of queueing on the series map.
//!
//! The rest of `db` sees four operations: stage a batch, drain a shard
//! ([`Database::drain_shard`], which a read calls for the shard of every
//! series it reads, and [`Database::drain_all_pending`], which flush and
//! whole-database readers call), the staged depth ([`Staged::depth`], for
//! gauges) and the count of values staged since the last flush
//! ([`Database::unsealed_values`], the flush trigger). The buffers
//! themselves are private.

use super::{series_slot, Database, Shard, WriteOptions};
use lms_lineproto::{FieldValue, ParsedLine};
use lms_tsm::SeriesId;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Staged points a shard accumulates before a writer bothers draining it.
///
/// Applying a staged run costs O(run + overlap), where `overlap` is how far
/// back into the sorted column the run's oldest timestamp reaches. Hot
/// series written by concurrent batchers interleave timestamps, so *every*
/// run overlaps the recent tail — draining after each 200-line batch pays
/// that tail splice hundreds of times. Draining only once a shard holds a
/// few thousand points pays it once per big combined run instead, bounding
/// write amplification to O(1) splices per `DRAIN_BATCH_POINTS` points.
/// Reads are unaffected: a read drains the shard of every series it reads
/// first, so the threshold trades only a bounded slice of staging memory
/// (on the order of a megabyte per backlogged shard), never visibility.
const DRAIN_BATCH_POINTS: usize = 8192;

/// One staged point: a field-name range into the arena, timestamp, value.
#[derive(Debug)]
struct PendingPoint {
    field: (u32, u32),
    ts: i64,
    value: FieldValue,
}

/// A staging buffer of parsed points bound for one shard. Field names live
/// in a single string arena (`text`) and series are named by their slot in
/// the shard, so staging a point allocates nothing in steady state —
/// buffers are recycled with their capacity intact.
#[derive(Debug, Default)]
struct PendingBuf {
    /// Arena holding field names back to back.
    text: String,
    /// `(series slot, end of its points)` per stretch of consecutive
    /// same-series lines; a run's points follow the previous run's.
    runs: Vec<(u32, u32)>,
    points: Vec<PendingPoint>,
    /// Apply's scratch: `(column slot, point index)` of the values that
    /// do not extend their column.
    deferred: Vec<(u32, u32)>,
}

impl PendingBuf {
    fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    fn clear(&mut self) {
        self.text.clear();
        self.runs.clear();
        self.points.clear();
    }

    /// Stages one field point of the series in `slot`; consecutive pushes
    /// for the same series share one run.
    fn push(&mut self, slot: u32, field: &str, ts: i64, value: FieldValue) {
        if self.runs.last().is_none_or(|run| run.0 != slot) {
            self.runs.push((slot, 0));
        }
        let fs = self.text.len() as u32;
        self.text.push_str(field);
        self.points.push(PendingPoint { field: (fs, self.text.len() as u32), ts, value });
        self.runs.last_mut().unwrap().1 = self.points.len() as u32;
    }

    /// Moves every staged point from `other` into `self`, rebasing arena
    /// offsets; `other` is left cleared with its capacity intact.
    fn absorb(&mut self, other: &mut PendingBuf) {
        let text_base = self.text.len() as u32;
        let points_base = self.points.len() as u32;
        self.text.push_str(&other.text);
        self.points.extend(other.points.drain(..).map(|p| PendingPoint {
            field: (p.field.0 + text_base, p.field.1 + text_base),
            ts: p.ts,
            value: p.value,
        }));
        self.runs.extend(other.runs.drain(..).map(|(slot, end)| (slot, end + points_base)));
        other.text.clear();
    }
}

/// One shard's staging buffer. Points left here when no drainer is running
/// are folded in by the next drain, and a read drains the shards of the
/// series it reads first, so reads always observe their own completed
/// writes.
#[derive(Debug, Default)]
pub(super) struct Staged {
    pending: Mutex<PendingBuf>,
    /// Exact staged-point count (only mutated under `pending`); lock-free
    /// loads serve as fast-path skip hints and the depth gauge.
    points: AtomicUsize,
}

impl Staged {
    /// Points staged and not yet applied to the shard's series.
    pub(super) fn depth(&self) -> usize {
        self.points.load(Ordering::Acquire)
    }

    /// Applies every staged point to `shard`, whose `data` write lock the
    /// caller holds. Loops until the buffer is observed empty, so points
    /// staged *while* this drainer was applying a previous swap are folded
    /// in before the lock is released.
    fn drain_into(&self, shard: &mut Shard) {
        let mut work = PendingBuf::default();
        loop {
            {
                let mut pending = self.pending.lock();
                if pending.is_empty() {
                    // Hand the warm (larger) buffer back for the next batch.
                    if pending.text.capacity() < work.text.capacity() {
                        std::mem::swap(&mut *pending, &mut work);
                    }
                    break;
                }
                self.points.fetch_sub(pending.points.len(), Ordering::Release);
                std::mem::swap(&mut *pending, &mut work);
            }
            apply_pending(shard, &mut work);
            work.clear();
        }
    }
}

thread_local! {
    /// Per-thread scratch for [`Database::write_parsed_batch`]: key buffers
    /// and per-shard staging areas reused across batches, so the steady
    /// state of the hot write path performs zero allocations.
    static INGEST_SCRATCH: std::cell::RefCell<IngestScratch> =
        std::cell::RefCell::new(IngestScratch::default());
}

#[derive(Default)]
struct IngestScratch {
    key_buf: String,
    prev_key: String,
    prev_slot: u32,
    stages: Vec<PendingBuf>,
    touched: Vec<usize>,
}

fn series_id(key: &str, line: &ParsedLine<'_>) -> Arc<SeriesId> {
    Arc::new(SeriesId {
        series_key: key.to_string(),
        measurement: line.measurement.to_string(),
        tags: line.canonical_tags(),
    })
}

/// Applies one swapped-out staging buffer to the shard. Each value goes
/// straight to its column when it lies past the head (live data); the rest
/// (backfill, interleaved writers) are merged per column in timestamp
/// order after their run. Either way a column ends as if its points were
/// inserted one by one in staging order: of one timestamp, the last wins.
fn apply_pending(shard: &mut Shard, buf: &mut PendingBuf) {
    let PendingBuf { text, runs, points, deferred } = buf;
    let take = |p: &mut PendingPoint| std::mem::replace(&mut p.value, FieldValue::Boolean(false));
    let (mut i, mut start) = (0, 0);
    while i < runs.len() {
        let mut j = i + 1;
        while j < runs.len() && runs[j].0 == runs[i].0 {
            j += 1;
        }
        let end = runs[j - 1].1 as usize;
        let series = Arc::make_mut(&mut shard.series[runs[i].0 as usize]);
        // Lines repeat their field order: the slot after the last one is
        // the first guess.
        let mut slot = 0;
        for (at, p) in (start..).zip(&mut points[start..end]) {
            slot = series.field_slot(&text[p.field.0 as usize..p.field.1 as usize], slot);
            let column = series.column_mut(slot);
            if column.appends(p.ts) {
                column.insert(p.ts, take(p));
            } else {
                deferred.push((slot as u32, at as u32));
            }
            slot += 1;
        }
        // The point index breaks timestamp ties in staging order.
        deferred.sort_unstable_by_key(|&(slot, at)| (slot, points[at as usize].ts, at));
        for same in deferred.chunk_by(|a, b| a.0 == b.0) {
            let run = same.iter().map(|&(_, at)| {
                let p = &mut points[at as usize];
                (p.ts, take(p))
            });
            series.column_mut(same[0].0 as usize).insert_many(run);
        }
        deferred.clear();
        (i, start) = (j, end);
    }
}

impl Database {
    /// Writes a whole parsed batch through the per-shard staging buffers:
    /// points are staged per shard (allocation-free in steady state, one
    /// brief mutex per touched shard) and drained into the series maps in
    /// `DRAIN_BATCH_POINTS`-sized gulps by whichever writer finds a shard
    /// both backlogged and free — concurrent writers to a hot series hand
    /// their points to the running drainer instead of queueing on its
    /// lock. Returns the number of points written.
    ///
    /// Visibility: a point may remain staged briefly after this returns,
    /// but its series is registered in `meta` before it is staged, and a
    /// read drains the shard of every series it reads, so callers always
    /// see their own completed writes. The caller holds the retention gate
    /// shared: no sweep removes a series before its points are staged.
    pub(super) fn write_parsed_batch(
        &self,
        lines: &[ParsedLine<'_>],
        opts: WriteOptions,
        default_ts: i64,
    ) -> usize {
        INGEST_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            if scratch.stages.len() < self.shards.len() {
                scratch.stages.resize_with(self.shards.len(), PendingBuf::default);
            }
            scratch.prev_key.clear();
            let mut prev_idx = usize::MAX;
            for line in lines {
                let ts =
                    line.timestamp.map(|t| opts.precision.to_nanos(t)).unwrap_or(default_ts);
                let key = line.series_key(&mut scratch.key_buf);
                // Hot-series batches repeat one key: skip the rehash and
                // existence check for consecutive identical keys.
                if prev_idx == usize::MAX || key != scratch.prev_key {
                    prev_idx = self.shard_index(key);
                    scratch.prev_slot = self.series_slot_of(prev_idx, key, line);
                    scratch.prev_key.clear();
                    scratch.prev_key.push_str(key);
                }
                let stage = &mut scratch.stages[prev_idx];
                if stage.is_empty() {
                    scratch.touched.push(prev_idx);
                }
                for (field, value) in &line.fields {
                    stage.push(scratch.prev_slot, field.as_ref(), ts, value.clone());
                }
            }
            for &idx in &scratch.touched {
                let slot = &self.shards[idx];
                {
                    let stage = &mut scratch.stages[idx];
                    let mut pending = slot.staged.pending.lock();
                    slot.staged.points.fetch_add(stage.points.len(), Ordering::Release);
                    // Counted inside the critical section that makes the
                    // values visible to a drain. `Release` pairs with the
                    // `Acquire` load in `flush_storage`: a flush that has
                    // counted a value finds it when it drains.
                    self.unsealed.fetch_add(stage.points.len(), Ordering::Release);
                    pending.absorb(stage);
                }
                // Drain only once the shard's backlog is worth a splice
                // (see DRAIN_BATCH_POINTS) and the shard is free; otherwise
                // the current lock holder or the next reader picks this up.
                if slot.staged.depth() >= DRAIN_BATCH_POINTS {
                    if let Some(mut shard) = slot.data.try_write() {
                        slot.staged.drain_into(&mut shard);
                    }
                }
            }
            scratch.touched.clear();
            lines.len()
        })
    }

    /// Field values staged since the last successful flush settled the
    /// count: an O(1) upper bound on what sits un-sealed in staging buffers
    /// and heads, which is what the flush trigger needs. It over-reports
    /// overwrites of one `(series, field, timestamp)` (counted per write,
    /// stored once) and values a flush sealed while their batch was still
    /// being counted; it never under-reports a value whose
    /// `write_parsed_batch` has returned. [`Database::flush_storage`]
    /// subtracts what the gauge read when the flush began — all of it
    /// staged by then, so all of it sealed by that flush.
    pub(super) fn unsealed_values(&self) -> usize {
        self.unsealed.load(Ordering::Acquire)
    }

    /// The slot of the series behind `key` in shard `idx`, which exists
    /// and is registered in `meta` before its points are staged (so reads
    /// find it without a drain, and `series_count` is exact).
    fn series_slot_of(&self, idx: usize, key: &str, line: &ParsedLine<'_>) -> u32 {
        if let Some(&slot) = self.shards[idx].data.read().slots.get(key) {
            return slot;
        }
        let mut meta = self.meta.write();
        let mut shard = self.shards[idx].data.write();
        series_slot(&mut meta, &mut shard, key, || series_id(key, line));
        shard.slots[key]
    }

    /// Drains one shard's staged points, if any, into its series map. The
    /// caller may hold `meta` but no shard lock.
    pub(super) fn drain_shard(&self, idx: usize) {
        let slot = &self.shards[idx];
        if slot.staged.depth() > 0 {
            slot.staged.drain_into(&mut slot.data.write());
        }
    }

    /// Drains every shard's staged points: flush and whole-database
    /// readers call it before they look.
    pub(super) fn drain_all_pending(&self) {
        for idx in 0..self.shards.len() {
            self.drain_shard(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Influx, StorageConfig};
    use lms_lineproto::FieldValue;
    use lms_util::rng::XorShift64;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use lms_util::{Clock, Timestamp};

    #[test]
    fn unsealed_gauge_never_under_reports_and_settles_at_flush() {
        let dir = std::env::temp_dir().join(format!("lms-influx-gauge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || {
            Influx::open(Clock::simulated(Timestamp::from_secs(1000)), 4, StorageConfig::new(&dir))
                .unwrap()
        };
        let mut rng = XorShift64::new(7);
        let mut ix = open();
        let mut flushes = 0;
        for step in 0..300 {
            // Fresh points, overwrites of recent ones and late lines, over
            // a few series, one to three fields a line.
            let body: String = (0..1 + rng.below(20))
                .map(|_| {
                    let ts = match rng.below(4) {
                        0 => rng.below(50),                // late / overwrite
                        _ => step * 10 + rng.below(10),    // live, may repeat
                    };
                    let fields = ["a=1", "a=2,b=3", "a=4,b=5,c=6"][rng.below(3) as usize];
                    format!("m,host=h{} {fields} {ts}\n", rng.below(6))
                })
                .collect();
            ix.write_lines("lms", &body, Default::default()).unwrap();
            let db = ix.database("lms").unwrap();
            assert!(
                db.unsealed_values() >= db.head_point_count(),
                "step {step}: gauge {} under exact {}",
                db.unsealed_values(),
                db.head_point_count()
            );
            match rng.below(25) {
                0 => {
                    assert!(db.flush_storage().is_ok());
                    assert_eq!(db.unsealed_values(), 0, "quiescent after a flush");
                    assert_eq!(db.head_point_count(), 0);
                    flushes += 1;
                }
                1 => {
                    // Reopen: the WAL replays through `write_parsed_batch`,
                    // so the un-flushed values are counted again.
                    let exact = db.head_point_count();
                    drop(db);
                    drop(ix);
                    ix = open();
                    let db = ix.database("lms").unwrap();
                    assert_eq!(db.head_point_count(), exact, "replay restores the heads");
                    assert!(db.unsealed_values() >= exact);
                }
                _ => {}
            }
        }
        assert!(flushes > 3, "the schedule must exercise the settle path");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsealed_gauge_holds_under_flushes_racing_writers() {
        let dir =
            std::env::temp_dir().join(format!("lms-influx-gauge-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ix =
            Influx::open(Clock::simulated(Timestamp::from_secs(1000)), 4, StorageConfig::new(&dir))
                .unwrap();
        ix.create_database("lms");
        let db = ix.database("lms").unwrap();
        let start = std::sync::Barrier::new(5);
        std::thread::scope(|scope| {
            for w in 0..4 {
                let (ix, start) = (&ix, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..200 {
                        let body: String =
                            (0..8).map(|s| format!("m,w=w{w},s=s{s} a=1,b=2 {i}\n")).collect();
                        ix.write_lines("lms", &body, Default::default()).unwrap();
                    }
                });
            }
            let (db, start) = (&db, &start);
            scope.spawn(move || {
                start.wait();
                for _ in 0..20 {
                    db.flush_storage().unwrap();
                    // Writers are mid-batch: a value is counted no later
                    // than it becomes visible to the exact count, so read
                    // that first.
                    let exact = db.head_point_count();
                    assert!(db.unsealed_values() >= exact);
                }
            });
        });
        assert!(db.unsealed_values() >= db.head_point_count());
        db.flush_storage().unwrap();
        assert_eq!(db.unsealed_values(), 0);
        assert_eq!(ix.storage_stats().sealed_points, 4 * 200 * 8 * 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_point_staged_for_a_gcd_series_is_visible_to_the_next_select() {
        let ix = Influx::new(Clock::simulated(Timestamp::from_secs(1000))).unwrap();
        ix.set_retention("lms", Some(std::time::Duration::from_secs(100)));
        let staged = |ix: &Influx| ix.storage_stats().shard_buffer_depth;
        let rows = |ix: &Influx, host: &str| {
            let r = ix.query("lms", &format!("SELECT v FROM m WHERE host = '{host}'")).unwrap();
            let values = r.series.first().map(|s| s.values.clone()).unwrap_or_default();
            let row = |row: &Vec<lms_util::Json>| (row[0].as_i64().unwrap(), row[1].as_f64().unwrap());
            values.iter().map(row).collect::<Vec<_>>()
        };
        let show = |ix: &Influx| {
            let r = ix.query("lms", "SHOW TAG VALUES FROM m WITH KEY = host").unwrap();
            let values = r.series.first().map(|s| s.values.clone()).unwrap_or_default();
            values.iter().map(|row| row[1].as_str().unwrap().to_string()).collect::<Vec<_>>()
        };

        // GC first, then a staged point: h1's only point is stale, so
        // retention removes the series; a fresh point re-registers it
        // before it is staged.
        ix.write_lines("lms", "m,host=h1 v=1 1\nm,host=h2 v=2 950000000000", Default::default())
            .unwrap();
        assert_eq!(ix.enforce_retention(), 1);
        assert_eq!(ix.series_count("lms"), 1, "h1 is GC'd");
        ix.write_lines("lms", "m,host=h1 v=3 960000000000", Default::default()).unwrap();
        assert_eq!(staged(&ix), 1, "the point sits staged");
        assert_eq!(show(&ix), ["h1", "h2"], "SHOW reads meta, without a drain");
        assert_eq!(staged(&ix), 1);
        assert_eq!(rows(&ix, "h1"), [(960_000_000_000, 3.0)]);
        assert_eq!(staged(&ix), 0, "the SELECT drained h1's shard");

        // A staged point, then GC: h3 holds only a stale point when a fresh
        // one is staged; retention drains it first and keeps the series.
        ix.write_lines("lms", "m,host=h3 v=4 2", Default::default()).unwrap();
        assert_eq!(rows(&ix, "h3"), [(2, 4.0)]);
        ix.write_lines("lms", "m,host=h3 v=5 970000000000", Default::default()).unwrap();
        assert_eq!(staged(&ix), 1);
        assert_eq!(ix.enforce_retention(), 1);
        assert_eq!(rows(&ix, "h3"), [(970_000_000_000, 5.0)]);
        assert_eq!(show(&ix), ["h1", "h2", "h3"]);
    }

    proptest! {
        /// Applying staged points leaves every column as inserting them one
        /// by one in staging order would: of one timestamp the last write
        /// wins — within a line (a repeated field), across lines, runs and
        /// batches — whether a value extends its column or backfills it,
        /// and whatever order a line lists its fields in.
        #[test]
        fn apply_equals_inserting_point_by_point(
            batches in vec(
                vec((0u8..3, 0i64..24, vec((0u8..4, -99i64..99), 1..6)), 1..40),
                1..6,
            ),
            read_between in any::<bool>(),
        ) {
            let ix = Influx::new(Clock::simulated(Timestamp::from_secs(1000))).unwrap();
            let mut want: BTreeMap<(String, String), BTreeMap<i64, i64>> = BTreeMap::new();
            for batch in &batches {
                let mut body = String::new();
                for (host, ts, fields) in batch {
                    let fields: Vec<String> =
                        fields.iter().map(|(f, v)| format!("f{f}={v}i")).collect();
                    body.push_str(&format!("m,host=h{host} {} {ts}\n", fields.join(",")));
                }
                ix.write_lines("lms", &body, Default::default()).unwrap();
                for (host, ts, fields) in batch {
                    for (f, v) in fields {
                        let column = (format!("h{host}"), format!("f{f}"));
                        want.entry(column).or_default().insert(*ts, *v);
                    }
                }
                if read_between {
                    ix.point_count("lms"); // drains: later batches land on heads
                }
            }
            let db = ix.database("lms").unwrap();
            let mut got: BTreeMap<(String, String), BTreeMap<i64, i64>> = BTreeMap::new();
            for series in db.series_where("m", &[]) {
                for (field, column) in series.fields() {
                    let points = column.iter_all().map(|(ts, v)| match v {
                        FieldValue::Integer(v) => (ts, v),
                        other => panic!("not an integer: {other:?}"),
                    });
                    let column = (series.tag("host").unwrap().to_string(), field.to_string());
                    got.insert(column, points.collect());
                }
            }
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn storage_stats_reads_without_draining() {
        let ix = Influx::new(Clock::simulated(Timestamp::from_secs(1000))).unwrap();
        let body: String = (0..100).map(|i| format!("m,host=h{} v={i} {i}\n", i % 4)).collect();
        ix.write_lines("lms", &body, Default::default()).unwrap();
        for _ in 0..2 {
            let s = ix.storage_stats();
            assert_eq!(s.shard_buffer_depth, 100, "a scrape must leave staged points staged");
            assert_eq!(s.head_points, 100, "staged points count as head points");
        }
        assert_eq!(ix.point_count("lms"), 100); // a read drains
        let s = ix.storage_stats();
        assert_eq!((s.shard_buffer_depth, s.head_points), (0, 100));
    }
}
