//! Flush and compaction. Both cut blocks at partition and block-span
//! boundaries ([`partition_runs`]); a flush reports what it sealed to the
//! rollup driver.

use super::{series_slot, Database, Influx};
use crate::storage::lww_dedup;
use lms_lineproto::FieldValue;
use lms_tsm::{BlockEntry, SealedBlock, SeriesId, TsmEngine};
use lms_util::Result;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// One column's points for [`Database::flush_with`]: its field name and a
/// run sorted by timestamp.
pub(super) type Run = (String, Vec<(i64, FieldValue)>);

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

impl Database {
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
        self.flush_with(Vec::new())
    }

    /// [`Self::flush_storage`] with `rows` put into the heads once the WAL
    /// has rotated, so they are sealed with the heads and never logged:
    /// per series, its id and columns, each a run sorted by timestamp that
    /// outranks the head's values at its timestamps. A rollup pass seals
    /// its recomputed tier rows this way; its watermark covers them until
    /// the seal is durable.
    pub(super) fn flush_with(&self, rows: Vec<(Arc<SeriesId>, Vec<Run>)>) -> Result<usize> {
        // Rotate under the retention gate, which a batch holds shared from
        // its WAL append through its staging: every record in a now-frozen
        // segment is staged, so the drain below applies (and the sweep
        // seals) it. Points whose records land in the new active segment
        // may be sealed *and* replayed — replay is idempotent. The session
        // waits for a running compaction before it takes the gate, so
        // writers never wait for that compaction.
        let mut session = self.engine.begin_flush(|| self.retention_gate.write())?;
        // Every value the gauge has counted by now is staged or in a head
        // (see `unsealed_values`), so the drain and the sweep below seal it
        // and a successful flush may settle the gauge by this much.
        let claimed = self.unsealed.load(Ordering::Acquire);
        self.drain_all_pending();
        for (id, columns) in rows {
            let mut meta = self.meta.write();
            let mut shard = self.shard_of(&id.series_key).data.write();
            let series = series_slot(&mut meta, &mut shard, &id.series_key, || id.clone());
            let series = Arc::make_mut(series);
            for (field, run) in columns {
                series.field_mut_or_create(&field).insert_many(run);
            }
        }
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
                for run in partition_runs(&self.engine, &head) {
                    let block = Arc::new(SealedBlock::seal(self.engine.next_gen(), run));
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
        self.rollup.note_sealed(&entries);
        Ok(sealed)
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
    pub(super) fn compact_due_partitions(&self) -> Result<usize> {
        let due = self.engine.partitions_to_compact();
        if due.is_empty() {
            return Ok(0);
        }
        self.compact_partitions(Some(&due))
    }

    /// Merges, per column, the sealed blocks living in `partitions` (`None`
    /// = every block) and replaces those partitions' segment files.
    fn compact_partitions(&self, partitions: Option<&[i64]>) -> Result<usize> {
        let engine = &self.engine;
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
}

impl Influx {
    /// Flushes every database's mutable heads to disk once; returns total
    /// blocks sealed. With rollups enabled, each base flush is followed by
    /// a rollup pass over the sealed ranges, which flushes the base's tier
    /// databases with their recomputed rows, keeping the tiers
    /// continuously current.
    pub fn flush_storage(&self) -> Result<usize> {
        let mut sealed = 0;
        for (name, db) in self.databases() {
            if self.tiers_sealed_by_pass(&name) {
                continue;
            }
            sealed += db.flush_storage()?;
            sealed += self.roll_up(&name)?.1;
        }
        Ok(sealed)
    }

    /// Compacts, in every database, the partitions that have accumulated
    /// `compact_min_files` segment files; returns blocks written — 0 once
    /// no partition of any database is due.
    pub fn compact_storage(&self) -> Result<usize> {
        let mut written = 0;
        for (_, db) in self.databases() {
            written += db.compact_due_partitions()?;
        }
        Ok(written)
    }
}
