//! Retention, the one path that removes points and series: a sweep capped
//! by the ceiling its caller passes (see `RollupState::retention_clamp`).

use super::{Database, Influx};
use lms_util::FxHashSet;
use std::sync::Arc;

impl Database {
    /// Applies the retention policy relative to `now_ns`, never evicting at
    /// or past `clamp` ([`i64::MAX`] = unclamped); returns evicted point
    /// count. Emptied series and measurements are garbage-collected.
    ///
    /// Holds the retention gate and the `meta` write lock across the sweep
    /// (then shards ascending): no batch stages points meanwhile, so every
    /// staged point is drained into a series the sweep sees, and none is
    /// staged for a series the sweep removes. The expired segment files go
    /// after the gate is released: their unlink waits for any flush or
    /// compaction of the engine, and no writer may wait with it.
    pub(super) fn enforce_retention(&self, now_ns: i64, clamp: i64) -> usize {
        let Some(retention) = self.meta.read().retention else { return 0 };
        // The rollup layer clamps the cutoff to the last tier-complete
        // boundary: points past the clamp are either not yet rolled up or
        // sit in a tier window that would be recomputed partially if its
        // raw points vanished, so they must survive this sweep.
        let cutoff = now_ns
            .saturating_sub(retention.as_nanos().min(i64::MAX as u128) as i64)
            .min(clamp);
        if cutoff == i64::MIN {
            return 0; // clamped to "nothing rolled up yet": keep everything
        }
        let evicted = self.evict_before(cutoff);
        // Defense in depth: the engine refuses to unlink partitions reaching
        // past the rollup clamp even if a future caller passes a
        // miscomputed cutoff.
        self.engine.set_drop_floor(clamp);
        // Best-effort: whole expired segment files are unlinked without
        // scanning; a failed unlink retries next sweep.
        let _ = self.engine.drop_expired(cutoff);
        evicted
    }

    /// The in-memory sweep of [`Self::enforce_retention`], under the gate.
    fn evict_before(&self, cutoff: i64) -> usize {
        let _gate = self.retention_gate.write();
        let mut meta = self.meta.write();
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
            super::index::shrink_sparse_map(&mut meta.measurements);
        }
        self.rollup.note_cutoff(cutoff);
        evicted
    }
}

impl Influx {
    /// Applies retention across all databases; returns evicted point count.
    /// With rollups enabled, raw eviction in each base database is clamped
    /// to the last 1h-window boundary below its rollup watermark, so raw
    /// points are never dropped before the coarsest tier has absorbed them
    /// (the tier-boundary straddle guarantee).
    pub fn enforce_retention(&self) -> usize {
        let now = self.clock.now().nanos();
        let mut evicted = 0;
        for (_, db) in self.databases() {
            evicted += db.enforce_retention(now, db.rollup.retention_clamp());
        }
        evicted
    }
}
