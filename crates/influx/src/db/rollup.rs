//! The rollup driver. A database's [`RollupState`] is read here only: a
//! flush reports the ranges it sealed into it, a retention sweep the cutoff
//! it applied, and retention takes its ceiling from it.

use super::seal::Run;
use super::{Database, Influx, WriteOptions};
use crate::exec;
use crate::storage::Series;
use lms_rollup::{align_down, align_up, base_db_of, is_rollup_db, rollup_db_name, stat_field};
use lms_rollup::{stored_value, Tier, ROW_STATS, TIERS, WATERMARK_FIELD, WATERMARK_MEASUREMENT};
use lms_tsm::{Agg, BlockEntry, SeriesId};
use lms_util::Result;
use parking_lot::Mutex;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

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
    /// Reads a tier retention as a command line gives it: a positive
    /// duration in the query literal grammar (`90d`, `6h`, `30m`).
    pub fn parse_retention(value: &str) -> Result<Duration, &'static str> {
        match crate::query::parse_duration_ns(value) {
            Ok(ns) if ns > 0 => Ok(Duration::from_nanos(ns as u64)),
            Ok(_) => Err("must be positive"),
            Err(_) => Err("expected e.g. 90d, 6h, 30m"),
        }
    }

    /// The retention of one tier database.
    fn tier_retention(&self, tier: Tier) -> Option<Duration> {
        match tier {
            Tier::Minute => self.retention_1m,
            Tier::Hour => self.retention_1h,
        }
    }
}

/// One database's place in the rollup pipeline. Every database has one; only
/// a base database under a rollup policy records sealed ranges.
#[derive(Debug, Default)]
pub(super) struct RollupState {
    /// Closed `[min_ts, max_ts]` ranges sealed since the last rollup pass,
    /// so the next pass recomputes exactly the touched windows; `None`
    /// while this database feeds no tiers.
    dirty: Mutex<Option<Vec<(i64, i64)>>>,
    /// Rollup watermark: every raw point with `ts < watermark` has been
    /// incorporated into the rollup tiers (`None` = no rollups yet).
    /// Recovered from the 1m tier database at startup.
    watermark: Mutex<Option<i64>>,
    /// High-water mark of applied retention cutoffs: raw points below this
    /// may already be gone, so rollup recomputation must never touch
    /// windows starting under it (a late backfill would otherwise replace
    /// an exact tier row with a partial recompute).
    drop_cutoff: Mutex<Option<i64>>,
}

impl RollupState {
    /// Records what a flush sealed when this database feeds tiers; the next
    /// rollup pass recomputes every tier window these ranges touch (exact
    /// under backfill — recomputation reads the full column, not just the
    /// new blocks).
    pub(super) fn note_sealed(&self, entries: &[BlockEntry]) {
        if let Some(dirty) = self.dirty.lock().as_mut() {
            dirty.extend(entries.iter().map(|e| (e.block.min_ts, e.block.max_ts)));
        }
    }

    /// Records a retention cutoff the sweep applied.
    pub(super) fn note_cutoff(&self, cutoff: i64) {
        let mut floor = self.drop_cutoff.lock();
        *floor = (*floor).max(Some(cutoff));
    }

    /// The ceiling on this database's retention cutoffs: for a database
    /// that feeds tiers, the last 1h-window boundary below the watermark,
    /// so raw points are never dropped before the coarsest tier has
    /// absorbed them (the tier-boundary straddle guarantee), and `i64::MIN`
    /// — keep everything — before the first pass; [`i64::MAX`] otherwise.
    pub(super) fn retention_clamp(&self) -> i64 {
        if !self.feeds_tiers() {
            return i64::MAX;
        }
        self.watermark().map_or(i64::MIN, |wm| align_down(wm, Tier::Hour.window_ns()))
    }

    /// True for a base database under the rollup policy.
    fn feeds_tiers(&self) -> bool {
        self.dirty.lock().is_some()
    }

    fn watermark(&self) -> Option<i64> {
        *self.watermark.lock()
    }

    /// Installs a recovered or freshly advanced watermark.
    fn advance_watermark(&self, watermark: i64) {
        let mut wm = self.watermark.lock();
        *wm = (*wm).max(Some(watermark));
    }
}

/// Applies `policy` to database `name`: a tier sibling takes its tier's
/// retention; a base database is rollup-tracked and takes the raw one.
pub(super) fn apply_rollup_policy(name: &str, db: &Database, policy: &RollupPolicy) {
    let retention = match lms_rollup::base_db_of(name) {
        Some((_, tier)) => policy.tier_retention(tier),
        None => {
            db.rollup.dirty.lock().get_or_insert_default();
            policy.retention_raw
        }
    };
    if retention.is_some() {
        db.set_retention(retention);
    }
}

/// The tier columns of `series`' windows, sorted by window start: per
/// stat field, in the order the rows first name it, the stored values by
/// window start. Adds the series' rows to `rows`.
fn tier_columns(series: &Series, windows: &[(i64, usize, Agg)], rows: &mut u64) -> Vec<Run> {
    let n = windows.chunk_by(|a, b| a.0 == b.0).count();
    *rows += n as u64;
    // Column slot per (field, stat); `usize::MAX` until a row names it.
    let mut slot_of = vec![usize::MAX; series.fields().count() * ROW_STATS.len()];
    let mut columns: Vec<Run> = Vec::new();
    for (ws, field, agg) in windows {
        for (at, stat) in ROW_STATS.iter().enumerate() {
            let Some(value) = stored_value(agg, stat) else { continue };
            let slot = &mut slot_of[field * ROW_STATS.len() + at];
            if *slot == usize::MAX {
                *slot = columns.len();
                let name = series.field_names().nth(*field).expect("the window's field");
                columns.push((stat_field(name, stat), Vec::with_capacity(n)));
            }
            columns[*slot].1.push((*ws, value));
        }
    }
    columns
}

impl Influx {
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
                db.rollup.advance_watermark(ts);
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
    /// (plus the catch-up range above the watermark), flushes each sibling
    /// tier database with the recomputed rows sealed into its blocks, and
    /// then advances the persisted watermark. Returns tier rows written.
    ///
    /// Windows are recomputed from the *full* in-memory column, not just
    /// the newly sealed blocks, so backfill and overwrites converge to the
    /// exact aggregate; a recomputed value supersedes an agent's
    /// pre-aggregated row of the same window. The rows are never logged:
    /// until the watermark moves past them, a restart recomputes them.
    pub fn rollup_pass(&self, base: &str) -> Result<u64> {
        self.roll_up(base).map(|(rows, _)| rows)
    }

    /// [`Self::rollup_pass`]: `(tier rows written, tier blocks sealed)`.
    pub(super) fn roll_up(&self, base: &str) -> Result<(u64, usize)> {
        let Some(db) = self.database(base) else { return Ok((0, 0)) };
        // Only a base database under the policy keeps a backlog to claim.
        let Some(dirty) = db.rollup.dirty.lock().as_mut().map(std::mem::take) else {
            return Ok((0, 0));
        };
        match self.pass(base, &db, &dirty) {
            Ok((rows, sealed)) => {
                self.rollup_passes.fetch_add(1, Ordering::Relaxed);
                self.rollup_windows.fetch_add(rows, Ordering::Relaxed);
                Ok((rows, sealed))
            }
            Err(e) => {
                // Give the claimed ranges back so no sealed range is lost;
                // the next pass retries them.
                db.rollup.dirty.lock().get_or_insert_default().extend(dirty);
                Err(e)
            }
        }
    }

    /// True when `name` is a tier database whose base feeds it: the base's
    /// rollup pass flushes it.
    pub(super) fn tiers_sealed_by_pass(&self, name: &str) -> bool {
        let base = base_db_of(name).and_then(|(base, _)| self.database(base));
        base.is_some_and(|db| db.rollup.feeds_tiers())
    }

    fn pass(&self, base: &str, db: &Database, dirty: &[(i64, i64)]) -> Result<(u64, usize)> {
        // Snapshot every series (drains staged writes) and the data extent.
        let snapshot: Vec<Arc<Series>> =
            db.measurement_names(&[]).iter().flat_map(|m| db.series_where(m, &[])).collect();
        let columns = || snapshot.iter().flat_map(|s| s.fields().map(|(_, col)| col));
        let data_lo = columns().filter_map(|col| col.first_ts()).min().unwrap_or(i64::MAX);
        let data_hi = columns().filter_map(|col| col.last_ts()).max().unwrap_or(i64::MIN);
        let wm = db.rollup.watermark().unwrap_or(i64::MIN);
        let mut ranges: Vec<(i64, i64)> =
            dirty.iter().map(|&(lo, hi)| (lo, hi.saturating_add(1))).collect();
        // Catch-up: everything between the watermark and the newest point
        // (none without data) — covers crash-lost dirty ranges, first-enable
        // backlogs, and head points rolled ahead of their flush.
        let (lo, hi) = (if wm == i64::MIN { data_lo } else { wm }, data_hi.saturating_add(1));
        if lo < hi {
            ranges.push((lo, hi));
        }
        let floor = db.rollup.drop_cutoff.lock().unwrap_or(i64::MIN);
        let (mut rows_written, mut sealed) = (0u64, 0usize);
        let mut windows: Vec<(i64, usize, Agg)> = Vec::new();
        for tier in TIERS {
            let tier_name = rollup_db_name(base, tier);
            // Without a range the pass only seals the heads of the tier
            // databases there are; with one it creates them under the
            // policy, which gave each its tier's retention.
            let tier_db = match ranges.is_empty() {
                true => self.database(&tier_name),
                false => Some(self.open_database(&tier_name)?),
            };
            let Some(tier_db) = tier_db else { continue };
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
            let mut rows: Vec<(Arc<SeriesId>, Vec<Run>)> = Vec::new();
            for series in &snapshot {
                // (window start, field slot, aggregate), sorted by window
                // start and stably so, keeping each row's fields in column
                // order.
                windows.clear();
                for (field, (_, col)) in series.fields().enumerate() {
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
                            windows.push((ws, field, Agg::default()));
                        }
                        windows.last_mut().expect("this field's window").2.add(ts, &value);
                    }
                }
                windows.sort_by_key(|&(ws, _, _)| ws);
                let runs = tier_columns(series, &windows, &mut rows_written);
                if !runs.is_empty() {
                    rows.push((series.id().clone(), runs));
                }
            }
            sealed += tier_db.flush_with(rows)?;
        }
        // Advance and persist the watermark (a point whose *timestamp* is
        // the watermark, in the 1m tier database — recovered at startup)
        // only once both tiers' flushes are durable.
        let new_wm = data_hi.saturating_add(1).max(wm);
        if !ranges.is_empty() && new_wm > wm && new_wm != i64::MIN {
            // The pass above created the 1m tier database.
            let line = format!("{WATERMARK_MEASUREMENT} {WATERMARK_FIELD}=1i {new_wm}\n");
            self.write_lines(&rollup_db_name(base, Tier::Minute), &line, WriteOptions::default())?;
            db.rollup.advance_watermark(new_wm);
        }
        Ok((rows_written, sealed))
    }

    /// The tier read context for queries against `db_name`: the available
    /// tier databases (coarsest first) and the base watermark. `None` when
    /// there is no watermark (rollups are off, the database is itself a
    /// tier, or no pass has run), no tier has data, or the query-tier
    /// override excludes everything.
    pub(super) fn tier_ctx(&self, db_name: &str) -> Option<exec::TierCtx> {
        let inner = self.inner.read();
        let db = inner.databases.get(db_name)?;
        let watermark = db.rollup.watermark()?;
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
}
