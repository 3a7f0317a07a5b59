//! The measurement index in `meta`: per measurement, its series and its
//! tag postings (tag key → value → series), all in first-write order.
//!
//! A series enters it where it is created (`series_slot`) and leaves it
//! where retention removes it ([`Database::enforce_retention`]); nothing
//! else writes it. A statement's tag predicates pick their candidates from
//! the shortest posting they name, so a statement that names one host
//! reads that host's series, however many the measurement holds.
//!
//! [`Database::enforce_retention`]: super::Database::enforce_retention

use crate::query::Condition;
use lms_tsm::SeriesId;
use lms_util::{FxHashMap, FxHashSet};
use std::sync::Arc;

/// One measurement's series and its tag postings, each list in first-write
/// order and holding the identities the `Series` hold. Raw query results
/// key rows by `(timestamp, series index)`, so preserving this order keeps
/// results byte-identical to the single-lock engine.
#[derive(Debug, Default)]
pub(super) struct MeasurementIndex {
    series: Vec<Arc<SeriesId>>,
    /// tag key → tag value → the series carrying that pair.
    postings: FxHashMap<String, FxHashMap<String, Vec<Arc<SeriesId>>>>,
}

impl MeasurementIndex {
    /// Registers a new series.
    pub(super) fn add(&mut self, id: Arc<SeriesId>) {
        for (key, value) in &id.tags {
            let values = self.postings.entry(key.clone()).or_default();
            values.entry(value.clone()).or_default().push(id.clone());
        }
        self.series.push(id);
    }

    /// Every series, in first-write order.
    pub(super) fn series(&self) -> &[Arc<SeriesId>] {
        &self.series
    }

    /// The series the tag predicates among `conditions` admit, in
    /// first-write order: the shortest `TagEq` posting (the whole list when
    /// there is none), filtered on every predicate.
    pub(super) fn matching<'a>(
        &'a self,
        conditions: &'a [Condition],
    ) -> impl Iterator<Item = &'a Arc<SeriesId>> + 'a {
        let posting = |key: &str, value: &str| {
            let ids = self.postings.get(key).and_then(|values| values.get(value));
            ids.map_or(&[][..], Vec::as_slice)
        };
        let candidates = conditions
            .iter()
            .filter_map(|c| match c {
                Condition::TagEq(key, value) => Some(posting(key, value)),
                _ => None,
            })
            .min_by_key(|ids| ids.len())
            .unwrap_or(&self.series);
        candidates.iter().filter(|id| admits(conditions, &id.tags))
    }

    /// The tag keys a series `conditions` admit carries, unordered.
    pub(super) fn tag_keys<'a>(
        &'a self,
        conditions: &'a [Condition],
    ) -> impl Iterator<Item = &'a String> + 'a {
        self.postings.keys().filter(|key| self.tag_values(key, conditions).next().is_some())
    }

    /// The values tag `key` takes on the series `conditions` admit,
    /// unordered.
    pub(super) fn tag_values<'a>(
        &'a self,
        key: &str,
        conditions: &'a [Condition],
    ) -> impl Iterator<Item = &'a String> + 'a {
        let values = self.postings.get(key).into_iter().flatten();
        values.filter(|(_, ids)| ids.iter().any(|id| admits(conditions, &id.tags))).map(|(v, _)| v)
    }

    /// Drops the series whose keys are in `gone`, and the postings left
    /// empty. Returns false once no series is left.
    pub(super) fn remove(&mut self, gone: &FxHashSet<String>) -> bool {
        let before = self.series.len();
        self.series.retain(|id| !gone.contains(&id.series_key));
        if self.series.len() == before {
            return true;
        }
        shrink_sparse_vec(&mut self.series);
        self.postings.retain(|_, values| {
            values.retain(|_, ids| {
                ids.retain(|id| !gone.contains(&id.series_key));
                shrink_sparse_vec(ids);
                !ids.is_empty()
            });
            shrink_sparse_map(values);
            !values.is_empty()
        });
        !self.series.is_empty()
    }
}

/// True when `tags` (sorted by key) satisfy every tag predicate among
/// `conditions`; a series without the key is unequal to any value.
fn admits(conditions: &[Condition], tags: &[(String, String)]) -> bool {
    let tag = |key: &str| {
        let found = tags.binary_search_by(|(k, _)| k.as_str().cmp(key));
        found.ok().map(|i| tags[i].1.as_str())
    };
    conditions.iter().all(|c| match c {
        Condition::TagEq(key, value) => tag(key) == Some(value.as_str()),
        Condition::TagNe(key, value) => tag(key) != Some(value.as_str()),
        _ => true,
    })
}

/// Under churning tag sets (ephemeral pods, rotating batch job ids) series
/// are created and fully evicted continuously: a collection that retention
/// left mostly empty gives its capacity back, so it stays bounded by the
/// *live* series count, not the historical peak.
fn is_sparse(len: usize, capacity: usize) -> bool {
    capacity > 64 && capacity > 4 * len
}

pub(super) fn shrink_sparse_vec<T>(v: &mut Vec<T>) {
    if is_sparse(v.len(), v.capacity()) {
        v.shrink_to_fit();
    }
}

/// See [`is_sparse`].
pub(super) fn shrink_sparse_map<K: std::hash::Hash + Eq, V>(map: &mut FxHashMap<K, V>) {
    if is_sparse(map.len(), map.capacity()) {
        map.shrink_to_fit();
    }
}

#[cfg(test)]
mod tests {
    use super::super::{series_slot, Database};
    use crate::query::{Condition, TimeValue};
    use crate::storage::Series;
    use lms_lineproto::FieldValue;
    use lms_tsm::SeriesId;
    use proptest::prelude::*;
    use std::sync::Arc;
    use std::time::Duration;

    type Tags = Vec<(String, String)>;

    /// Tag keys series carry, sorted; predicates also name `e`, which none
    /// carries.
    const KEYS: [&str; 5] = ["a", "b", "c", "d", "e"];
    /// Shared tag values, the empty one included; predicates also name
    /// `z`, which none takes.
    const VALUES: [&str; 4] = ["", "x", "y", "z"];
    /// A point retention evicts, and one it keeps, at `NOW`.
    const STALE: i64 = 1;
    const FRESH: i64 = 1_000_000_000_000;
    const NOW: i64 = FRESH + 1;

    /// 1–4 distinct tag keys with shared, possibly empty values, sorted by
    /// key as a series' tag set is.
    fn tag_set() -> impl Strategy<Value = Tags> {
        proptest::collection::btree_map(0usize..4, 0usize..3, 1..5).prop_map(|tags| {
            tags.into_iter().map(|(k, v)| (KEYS[k].to_string(), VALUES[v].to_string())).collect()
        })
    }

    /// 0–3 `TagEq` (a repeated key included when the draws collide), 0–1
    /// `TagNe` and a time bound the lookup must ignore.
    fn conditions() -> impl Strategy<Value = Vec<Condition>> {
        let pair = (0usize..5, 0usize..4);
        let tag = |(k, v): (usize, usize)| (KEYS[k].to_string(), VALUES[v].to_string());
        let eqs = proptest::collection::vec(pair.clone(), 0..4);
        let nes = proptest::collection::vec(pair, 0..2);
        (eqs, nes).prop_map(move |(eqs, nes)| {
            let eqs = eqs.into_iter().map(tag).map(|(k, v)| Condition::TagEq(k, v));
            let nes = nes.into_iter().map(tag).map(|(k, v)| Condition::TagNe(k, v));
            let time = Condition::TimeGe(TimeValue::Abs(0));
            eqs.chain(nes).chain([time]).collect()
        })
    }

    /// Writes one point of series `m,<tags>` straight into its shard —
    /// registering the series through `series_slot`, as every write does —
    /// since line protocol cannot carry an empty tag value.
    fn put(db: &Database, tags: &Tags, ts: i64) {
        let pairs: Vec<String> = tags.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let key = format!("m,{}", pairs.join(","));
        let mut meta = db.meta.write();
        let mut shard = db.shards[db.shard_index(&key)].data.write();
        let id = || {
            Arc::new(SeriesId { series_key: key.clone(), measurement: "m".into(), tags: tags.clone() })
        };
        let series = series_slot(&mut meta, &mut shard, &key, id);
        Arc::make_mut(series).field_mut_or_create("v").insert(ts, FieldValue::Float(1.0));
    }

    /// The filter the executor ran over every series of the measurement
    /// before the index existed.
    fn old_filter(series: &Series, conditions: &[Condition]) -> bool {
        conditions.iter().all(|c| match c {
            Condition::TagEq(k, v) => series.tag(k) == Some(v.as_str()),
            Condition::TagNe(k, v) => series.tag(k) != Some(v.as_str()),
            _ => true,
        })
    }

    fn tag_sets(series: &[Arc<Series>]) -> Vec<Tags> {
        series.iter().map(|s| s.tags().to_vec()).collect()
    }

    /// Every lookup answers what a scan of the whole measurement answers,
    /// in first-write order (`written`, the model's), and so do the
    /// measurement names, tag keys and values, scoped to each list and
    /// unscoped.
    fn check(
        db: &Database,
        written: &[Tags],
        lists: &[Vec<Condition>],
    ) -> Result<(), TestCaseError> {
        let all = db.series_where("m", &[]);
        prop_assert_eq!(tag_sets(&all), written.to_vec());
        for conditions in lists.iter().map(Vec::as_slice).chain([&[][..]]) {
            let scanned: Vec<Arc<Series>> =
                all.iter().filter(|s| old_filter(s, conditions)).cloned().collect();
            let looked_up = db.series_where("m", conditions);
            prop_assert_eq!(tag_sets(&looked_up), tag_sets(&scanned), "{:?}", conditions);
            let names: Vec<String> = scanned.first().map(|_| "m".to_string()).into_iter().collect();
            prop_assert_eq!(db.measurement_names(conditions), names, "{:?}", conditions);
            for key in KEYS {
                let mut values: Vec<String> =
                    scanned.iter().filter_map(|s| s.tag(key)).map(str::to_string).collect();
                values.sort_unstable();
                values.dedup();
                let got = db.tag_values("m", key, conditions);
                prop_assert_eq!(got, values, "values of {} under {:?}", key, conditions);
            }
            let mut keys: Vec<String> =
                scanned.iter().flat_map(|s| s.tags().iter().map(|(k, _)| k.clone())).collect();
            keys.sort_unstable();
            keys.dedup();
            prop_assert_eq!(db.tag_keys("m", conditions), keys, "{:?}", conditions);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        #[test]
        fn indexed_lookup_equals_the_measurement_scan(
            writes in proptest::collection::vec((tag_set(), any::<bool>()), 1..40),
            lists in proptest::collection::vec(conditions(), 1..8),
            recreate in proptest::collection::vec(any::<bool>(), 40),
        ) {
            let scratch = lms_util::scratch::ScratchDir::new("lms-index").unwrap();
            let db = Database::open(4, lms_tsm::TsmConfig::new(scratch.path())).unwrap();
            db.set_retention(Some(Duration::from_secs(100)));
            // The model: tag sets in first-write order, and which of them
            // hold a point retention keeps.
            let mut written: Vec<Tags> = Vec::new();
            let mut kept: Vec<Tags> = Vec::new();
            for (tags, stale) in &writes {
                put(&db, tags, if *stale { STALE } else { FRESH });
                if !written.contains(tags) {
                    written.push(tags.clone());
                }
                if !stale && !kept.contains(tags) {
                    kept.push(tags.clone());
                }
            }
            check(&db, &written, &lists)?;

            db.enforce_retention(NOW, i64::MAX);
            written.retain(|tags| kept.contains(tags));
            check(&db, &written, &lists)?;

            // Re-create some of the GC'd series: each goes to the end.
            for ((tags, _), again) in writes.iter().zip(&recreate) {
                if *again {
                    put(&db, tags, FRESH);
                    if !written.contains(tags) {
                        written.push(tags.clone());
                    }
                }
            }
            check(&db, &written, &lists)?;
        }
    }
}
