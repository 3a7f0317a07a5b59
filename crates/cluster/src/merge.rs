//! Scatter-gather result merging for cluster reads.
//!
//! A cluster query fans out to every node and gets back per-node
//! [`QueryResult`]s covering disjoint-to-overlapping slices of the data
//! (each series lives on R of the N nodes). The merge must
//!
//! 1. **union** series that only one node returned,
//! 2. **deduplicate** series that R nodes returned identically, and
//! 3. resolve genuine divergence (a replica that missed an overwrite)
//!    deterministically — which is exactly the storage engine's
//!    last-write-wins rule, so the merge reuses [`lms_influx::lww_dedup`]
//!    with the part index standing in for the block generation.
//!
//! Time-series results (first column `time`) merge row-wise. *Tagged*
//! series (GROUP BY answers — the tag set pins one underlying series, so a
//! timestamp identifies a row) dedupe by timestamp with the LWW rule.
//! *Untagged* series (flat selects interleave every matching underlying
//! series, so timestamps legitimately repeat) carry no series identity per
//! row; they merge as a content multiset where each distinct row keeps the
//! maximum multiplicity any single node reported — replica copies collapse
//! to one while equal-valued rows from different series survive.
//! Meta results (`SHOW MEASUREMENTS`, `SHOW TAG VALUES`, …) have no time
//! axis; their rows are unioned, sorted and deduplicated wholesale.
//!
//! Cross-node **aggregates** (`SELECT mean(...)`) do not go through this
//! merge at all: the router decomposes them into per-node partials (the
//! `count`/`sum`/`min`/`max` of each series' aggregate state) and merges
//! them back into that state via [`crate::partial`], which is exact at any
//! replication factor R ≤ N. Only aggregates whose state has no partial
//! row yet (`first`/`last`/`stddev`) or a non-default `FILL` still land
//! here and resolve by the LWW rule — exact when R = N, last-part-wins
//! otherwise.

use lms_influx::{lww_dedup, QueryResult, ResultSeries};
use lms_util::Json;
use std::collections::BTreeMap;

/// Merges per-node query results into one, LWW per `(series, timestamp)`.
///
/// `parts` holds each reachable node's answer; `partial` in the output is
/// the OR of the inputs' flags (a caller that skipped an unreachable node
/// passes the information by setting `partial` on any part, or by setting
/// it on the merged result afterwards).
pub fn merge_results(parts: Vec<QueryResult>) -> QueryResult {
    type SeriesKey = (String, Vec<(String, String)>);
    let partial = parts.iter().any(|p| p.partial);
    // Group by (name, tags); BTreeMap gives a stable output order.
    let mut groups: BTreeMap<SeriesKey, Vec<(usize, ResultSeries)>> = BTreeMap::new();
    for (part_idx, part) in parts.into_iter().enumerate() {
        for series in part.series {
            groups
                .entry((series.name.clone(), series.tags.clone()))
                .or_default()
                .push((part_idx, series));
        }
    }
    let mut out = QueryResult { series: Vec::with_capacity(groups.len()), partial };
    for ((name, tags), members) in groups {
        out.series.push(merge_group(name, tags, members));
    }
    out
}

fn merge_group(
    name: String,
    tags: Vec<(String, String)>,
    mut members: Vec<(usize, ResultSeries)>,
) -> ResultSeries {
    if members.len() == 1 {
        return members.pop().expect("non-empty group").1;
    }
    // Columns: take them from the widest member (replicas of the same
    // query agree on columns; an empty replica answer may omit them).
    let columns = members
        .iter()
        .map(|(_, s)| &s.columns)
        .max_by_key(|c| c.len())
        .cloned()
        .unwrap_or_default();
    let time_series = columns.first().map(String::as_str) == Some("time");
    if time_series && !tags.is_empty() {
        // Grouped result: the tag set pins one underlying series, so a
        // timestamp identifies a row. Row timestamp + part index → the LWW
        // rule of the storage engine: later parts win on identical
        // timestamps, so divergent replicas resolve deterministically and
        // true duplicates collapse to one.
        let mut versions: Vec<(i64, u64, Vec<Json>)> = Vec::new();
        for (part_idx, s) in members {
            for row in s.values {
                let ts = row.first().and_then(Json::as_i64).unwrap_or(i64::MIN);
                versions.push((ts, part_idx as u64, row));
            }
        }
        let values = lww_dedup(versions).into_iter().map(|(_, row)| row).collect();
        ResultSeries { name, tags, columns, values }
    } else if time_series {
        // Flat (ungrouped) result: every matching underlying series is
        // interleaved into this one answer, so timestamps legitimately
        // repeat (two hosts sampled in the same second) and rows carry no
        // series identity. Merge as a content multiset: each distinct row
        // keeps the max multiplicity any single node reported — a node
        // holding k co-resident series with identical rows reports k, while
        // replica copies of the same series never inflate the count.
        let mut counts: BTreeMap<String, (i64, Vec<Json>, usize)> = BTreeMap::new();
        for (_, s) in members {
            let mut local: BTreeMap<String, (i64, Vec<Json>, usize)> = BTreeMap::new();
            for row in s.values {
                let ts = row.first().and_then(Json::as_i64).unwrap_or(i64::MIN);
                let key = Json::arr(row.iter().cloned()).to_string();
                local.entry(key).and_modify(|e| e.2 += 1).or_insert((ts, row, 1));
            }
            for (key, (ts, row, n)) in local {
                counts.entry(key).and_modify(|e| e.2 = e.2.max(n)).or_insert((ts, row, n));
            }
        }
        let mut rows: Vec<(i64, String, Vec<Json>, usize)> =
            counts.into_iter().map(|(key, (ts, row, n))| (ts, key, row, n)).collect();
        rows.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        let mut values = Vec::with_capacity(rows.iter().map(|r| r.3).sum());
        for (_, _, row, n) in rows {
            for _ in 1..n {
                values.push(row.clone());
            }
            values.push(row);
        }
        ResultSeries { name, tags, columns, values }
    } else {
        // Meta result: union of whole rows, sorted, deduplicated. Rows are
        // small JSON tuples; compare by rendered form (Json is not Ord).
        let mut rows: Vec<(String, Vec<Json>)> = members
            .into_iter()
            .flat_map(|(_, s)| s.values)
            .map(|row| (Json::arr(row.iter().cloned()).to_string(), row))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows.dedup_by(|a, b| a.0 == b.0);
        ResultSeries { name, tags, columns, values: rows.into_iter().map(|(_, r)| r).collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts_series(name: &str, tags: &[(&str, &str)], rows: &[(i64, f64)]) -> ResultSeries {
        ResultSeries {
            name: name.into(),
            tags: tags.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            columns: vec!["time".into(), "value".into()],
            values: rows
                .iter()
                .map(|&(t, v)| vec![Json::Int(t), Json::Num(v)])
                .collect(),
        }
    }

    fn result(series: Vec<ResultSeries>) -> QueryResult {
        QueryResult { series, partial: false }
    }

    fn times(s: &ResultSeries) -> Vec<i64> {
        s.values.iter().map(|r| r[0].as_i64().unwrap()).collect()
    }

    #[test]
    fn replicated_series_dedupe_to_one_copy() {
        let a = result(vec![ts_series("cpu", &[("hostname", "h1")], &[(1, 0.1), (2, 0.2)])]);
        let b = result(vec![ts_series("cpu", &[("hostname", "h1")], &[(1, 0.1), (2, 0.2)])]);
        let m = merge_results(vec![a, b]);
        assert_eq!(m.series.len(), 1);
        assert_eq!(times(&m.series[0]), vec![1, 2]);
        assert!(!m.partial);
    }

    #[test]
    fn disjoint_series_union() {
        let a = result(vec![ts_series("cpu", &[("hostname", "h1")], &[(1, 0.1)])]);
        let b = result(vec![ts_series("cpu", &[("hostname", "h2")], &[(1, 0.9)])]);
        let m = merge_results(vec![a, b]);
        assert_eq!(m.series.len(), 2);
    }

    #[test]
    fn interleaved_timestamps_merge_sorted() {
        let a = result(vec![ts_series("m", &[], &[(1, 1.0), (3, 3.0)])]);
        let b = result(vec![ts_series("m", &[], &[(2, 2.0), (4, 4.0)])]);
        let m = merge_results(vec![a, b]);
        assert_eq!(times(&m.series[0]), vec![1, 2, 3, 4]);
    }

    #[test]
    fn divergent_replicas_resolve_by_part_order() {
        // Same tagged series, same timestamp, different value (a replica
        // missed an overwrite): the later part wins — deterministic, and
        // matching the storage engine's higher-generation-wins rule.
        let a = result(vec![ts_series("m", &[("hostname", "h1")], &[(5, 1.0)])]);
        let b = result(vec![ts_series("m", &[("hostname", "h1")], &[(5, 2.0)])]);
        let m = merge_results(vec![a, b]);
        assert_eq!(m.series[0].values.len(), 1);
        assert_eq!(m.series[0].values[0][1].as_f64(), Some(2.0));
    }

    #[test]
    fn flat_result_keeps_same_timestamp_rows_from_different_series() {
        // An ungrouped select interleaves h1 and h2 into one untagged
        // series; both sampled at t=1. Node A owns h1, node B owns both,
        // node C owns h2 (R = 2 over 3 nodes). The merge must yield each
        // sample exactly once — not collapse them by timestamp.
        let a = result(vec![ts_series("cpu", &[], &[(1, 0.1)])]);
        let b = result(vec![ts_series("cpu", &[], &[(1, 0.1), (1, 0.9)])]);
        let c = result(vec![ts_series("cpu", &[], &[(1, 0.9)])]);
        let m = merge_results(vec![a, b, c]);
        let vals: Vec<f64> = m.series[0].values.iter().map(|r| r[1].as_f64().unwrap()).collect();
        assert_eq!(vals, vec![0.1, 0.9]);
    }

    #[test]
    fn flat_result_keeps_identical_rows_coresident_on_one_node() {
        // Two series with *identical* rows both live on node B: B's local
        // multiplicity (2) is the truth, and replica copies on A must not
        // push it to 3.
        let a = result(vec![ts_series("cpu", &[], &[(1, 0.5)])]);
        let b = result(vec![ts_series("cpu", &[], &[(1, 0.5), (1, 0.5)])]);
        let m = merge_results(vec![a, b]);
        assert_eq!(m.series[0].values.len(), 2);
    }

    #[test]
    fn empty_replica_answer_is_harmless() {
        let a = result(vec![ts_series("m", &[], &[(1, 1.0)])]);
        let empty = QueryResult::empty();
        let m = merge_results(vec![a, empty]);
        assert_eq!(m.series.len(), 1);
        assert_eq!(times(&m.series[0]), vec![1]);
    }

    #[test]
    fn partial_flag_propagates() {
        let mut a = result(vec![ts_series("m", &[], &[(1, 1.0)])]);
        a.partial = true;
        let m = merge_results(vec![a, QueryResult::empty()]);
        assert!(m.partial);
    }

    #[test]
    fn meta_results_union_and_dedupe() {
        let meta = |names: &[&str]| {
            result(vec![ResultSeries {
                name: "measurements".into(),
                tags: Vec::new(),
                columns: vec!["name".into()],
                values: names.iter().map(|n| vec![Json::str(*n)]).collect(),
            }])
        };
        let m = merge_results(vec![meta(&["cpu", "mem"]), meta(&["mem", "net"])]);
        assert_eq!(m.series.len(), 1);
        let names: Vec<&str> =
            m.series[0].values.iter().map(|r| r[0].as_str().unwrap()).collect();
        assert_eq!(names, vec!["cpu", "mem", "net"]);
    }

    #[test]
    fn single_part_passes_through() {
        let a = result(vec![ts_series("m", &[], &[(2, 1.0), (1, 0.5)])]);
        let m = merge_results(vec![a.clone()]);
        // One member: passed through untouched (no re-sort) — the node
        // already ordered its own answer.
        assert_eq!(m.series, a.series);
    }
}
