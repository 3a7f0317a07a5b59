//! Scrub and quarantine reload, and what anti-entropy repair reads from a
//! node: per-hour digests of the visible points and a range's export.

use super::{Database, Influx};
use lms_lineproto::{FieldValue, Point};
use lms_tsm::{BlockEntry, ScrubOutcome, SealedBlock};
use lms_util::digest::{bucket_of, owner_mask, point_hash, BucketDigest};
use lms_util::ring::HashRing;
use lms_util::{hash::fx_hash, Error, FxHashMap, Result};
use std::sync::Arc;

/// The stable bits of one field value for integrity hashing. Replicas
/// compare point sets by XORed hashes, so this must be identical on every
/// node and invariant under an export → write-back round trip.
fn field_value_bits(v: &FieldValue) -> u64 {
    match v {
        FieldValue::Float(f) => f.to_bits(),
        FieldValue::Integer(i) => fx_hash(&(1u8, i)),
        FieldValue::Boolean(b) => fx_hash(&(2u8, b)),
        FieldValue::Text(s) => fx_hash(&(3u8, s.as_str())),
    }
}

impl Database {
    /// Runs one budgeted pass of the background integrity scrubber:
    /// re-verifies sealed segment CRCs (and frozen WAL segments at the end
    /// of each full cycle), quarantines any file that fails, and replaces
    /// the quarantined partitions' in-memory sealed blocks with whatever
    /// the surviving files still hold — so reads stop serving data whose
    /// backing file is gone, and the damaged range is visible for repair.
    pub fn scrub_storage(&self, budget_bytes: u64) -> Result<ScrubOutcome> {
        let outcome = self.scrubber.lock().run(&self.engine, budget_bytes)?;
        for report in &outcome.quarantined {
            let reloaded = self.engine.reload_partition(report.partition).unwrap_or_default();
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
                for (field, col) in series.fields() {
                    for (ts, v) in col.points_in(i64::MIN, i64::MAX) {
                        let slot = groups.entry((bucket_of(ts), mask)).or_insert((0, 0));
                        slot.0 += 1;
                        slot.1 ^= point_hash(key, field, ts, field_value_bits(&v));
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
                for (field, col) in series.fields() {
                    let mut point = Point::new(series.measurement());
                    for (k, v) in series.tags() {
                        point.add_tag(k.clone(), v.clone());
                    }
                    for (ts, v) in col.points_in(start_ns, end_ns) {
                        point.add_field_value(&**field, v);
                        point.set_timestamp(ts);
                        out.push_str(&point.to_line());
                        out.push('\n');
                    }
                }
            }
        }
        out
    }
}

impl Influx {
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
        let found = self.stored(db)?;
        let ring = HashRing::new(nodes.max(1), seed);
        Ok(found.integrity_digests(db, &ring, replication.max(1)))
    }

    /// Canonical line-protocol export of one database's visible points in
    /// `[start_ns, end_ns)` (see [`Database::export_lines`]).
    pub fn integrity_export(&self, db: &str, start_ns: i64, end_ns: i64) -> Result<String> {
        Ok(self.stored(db)?.export_lines(start_ns, end_ns))
    }

    /// The stored database `db` (a user view is not one).
    fn stored(&self, db: &str) -> Result<Arc<Database>> {
        self.database(db).ok_or_else(|| Error::not_found(format!("database {db:?} not found")))
    }
}
