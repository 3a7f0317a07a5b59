//! Exact cross-node aggregates: decompose, scatter, recombine.
//!
//! A cluster aggregate (`SELECT mean(v) FROM cpu ... GROUP BY time(1m)`)
//! cannot be answered by merging per-node *final* answers: with R < N each
//! node aggregates only the series it owns, and a mean of means is not the
//! mean. The router therefore rewrites decomposable aggregates into
//! **partial** queries and recombines algebraically:
//!
//! 1. **Decompose** — every projected field is replaced by the quadruple
//!    `count(f), sum(f), min(f), max(f)`, and `GROUP BY *` is added so each
//!    node answers one series per *underlying* series it holds (the full
//!    tag set is the series identity).
//! 2. **Scatter** — the rewritten query fans out like any other read.
//! 3. **Dedupe** — a series is wholly stored on each of its R owners, so
//!    for every `(series, window)` exactly one node's partial row is kept
//!    (highest part index wins, the same LWW rule [`crate::merge`] uses —
//!    divergent replicas resolve deterministically, never mix).
//! 4. **Recombine** — rows are re-grouped by the *original* GROUP BY key,
//!    each quadruple read back as an [`Agg`] and merged
//!    ([`Agg::merge`]: counts and sums add, min/max fold), then finalized
//!    by the executor's own [`finalize`] — `mean = Σsum/Σcount`, and the
//!    null rules are a single node's. The fold is exact for
//!    `count`/`sum`/`min`/`max`/`mean` at any R ≤ N.
//!
//! A query stays on the legacy whole-result merge when it is not
//! decomposable: raw projections, `first`/`last`/`stddev` (order- or
//! variance-carrying), or a non-default `FILL(...)` (fill rows are
//! synthesized per node over node-local window ranges and cannot be told
//! apart from real all-null windows after the fact).
//!
//! One visible edge: an ungrouped aggregate over a measurement whose
//! series hold no in-range points returns an *empty* result through this
//! path (the per-series partial groups are all empty and skipped), where a
//! single node would emit one all-null row.

use lms_influx::exec::finalize;
use lms_influx::query::{AggFunc, Fill, Projection, Select, Statement};
use lms_influx::tsm::Agg;
use lms_influx::{QueryResult, ResultSeries};
use lms_util::Json;
use std::collections::BTreeMap;

/// A series' tag set as sorted `(key, value)` pairs.
type TagSet = Vec<(String, String)>;

/// A decomposed aggregate query: the rewritten per-node statement plus
/// everything needed to recombine the partial answers exactly.
#[derive(Debug, Clone)]
pub struct PartialPlan {
    /// The rewritten statement sent to every node.
    partial_query: String,
    /// One entry per original projection: the aggregate and the index of
    /// its field in the per-field quadruple layout.
    outputs: Vec<(AggFunc, usize)>,
    /// Number of distinct projected fields (quadruples per row).
    n_fields: usize,
    measurement: String,
    group_tags: Vec<String>,
    group_all: bool,
    order_desc: bool,
    limit: Option<usize>,
}

/// Plans a decomposition for a raw query string. `None` when the query is
/// not a decomposable aggregate SELECT (including unparsable input — the
/// caller forwards the original string and lets the nodes answer).
pub fn partial_plan(q: &str) -> Option<PartialPlan> {
    match Statement::parse(q) {
        Ok(Statement::Select(sel)) => PartialPlan::for_select(&sel),
        _ => None,
    }
}

impl PartialPlan {
    /// Plans a decomposition for a parsed SELECT; `None` when any
    /// projection is raw or order/variance-carrying, or the fill policy
    /// is not the default `FILL(none)`.
    pub fn for_select(sel: &Select) -> Option<PartialPlan> {
        if sel.fill != Fill::None {
            return None;
        }
        let mut fields: Vec<&str> = Vec::new();
        let mut outputs = Vec::new();
        for p in &sel.projections {
            let Projection::Agg(func, field) = p else { return None };
            if !matches!(
                func,
                AggFunc::Mean | AggFunc::Sum | AggFunc::Min | AggFunc::Max | AggFunc::Count
            ) {
                return None;
            }
            let fi = fields.iter().position(|f| f == field).unwrap_or_else(|| {
                fields.push(field);
                fields.len() - 1
            });
            outputs.push((*func, fi));
        }
        if outputs.is_empty() {
            return None;
        }
        let mut partial = sel.clone();
        partial.projections = fields
            .iter()
            .flat_map(|f| {
                [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max]
                    .map(|func| Projection::Agg(func, f.to_string()))
            })
            .collect();
        partial.group_all = true;
        // Ordering and truncation apply to the *recombined* rows; a
        // per-node LIMIT would drop windows other nodes still need.
        partial.order_desc = false;
        partial.limit = None;
        Some(PartialPlan {
            partial_query: partial.render(),
            outputs,
            n_fields: fields.len(),
            measurement: sel.measurement.clone(),
            group_tags: sel.group_tags.clone(),
            group_all: sel.group_all,
            order_desc: sel.order_desc,
            limit: sel.limit,
        })
    }

    /// The rewritten statement to send to every node.
    pub fn partial_query(&self) -> &str {
        &self.partial_query
    }

    /// Recombines per-node partial answers into the final result. `parts`
    /// holds each reachable node's answer in node order; the output
    /// `partial` flag is the OR of the inputs'.
    pub fn merge(&self, parts: Vec<QueryResult>) -> QueryResult {
        let partial = parts.iter().any(|p| p.partial);
        // (series tags, window ts) → one node's row; later parts win on
        // replica copies, matching the LWW rule of the plain merge.
        let mut rows: BTreeMap<(TagSet, i64), Vec<Json>> = BTreeMap::new();
        for part in parts {
            for series in part.series {
                for row in series.values {
                    let ts = row.first().and_then(Json::as_i64).unwrap_or(i64::MIN);
                    rows.insert((series.tags.clone(), ts), row);
                }
            }
        }
        // Re-group by the original GROUP BY key and fold the quadruples.
        let mut groups: BTreeMap<TagSet, BTreeMap<i64, Vec<Agg>>> = BTreeMap::new();
        for ((tags, ts), row) in rows {
            let key: Vec<(String, String)> = if self.group_all {
                tags
            } else {
                self.group_tags
                    .iter()
                    .map(|t| {
                        let v = tags
                            .iter()
                            .find(|(k, _)| k == t)
                            .map(|(_, v)| v.clone())
                            .unwrap_or_default();
                        (t.clone(), v)
                    })
                    .collect()
            };
            let aggs = groups
                .entry(key)
                .or_default()
                .entry(ts)
                .or_insert_with(|| vec![Agg::default(); self.n_fields]);
            for (fi, agg) in aggs.iter_mut().enumerate() {
                agg.merge(&quadruple_agg(&row, 1 + fi * 4));
            }
        }
        let columns: Vec<String> = std::iter::once("time".to_string())
            .chain(self.outputs.iter().map(|(func, _)| func.column_name().to_string()))
            .collect();
        let mut out = QueryResult { series: Vec::with_capacity(groups.len()), partial };
        for (tags, by_ts) in groups {
            let mut values: Vec<Vec<Json>> = by_ts
                .into_iter()
                .map(|(ts, aggs)| {
                    std::iter::once(Json::Int(ts))
                        .chain(self.outputs.iter().map(|&(func, fi)| finalize(&aggs[fi], func)))
                        .collect()
                })
                .collect();
            if self.order_desc {
                values.reverse();
            }
            if let Some(limit) = self.limit {
                values.truncate(limit);
            }
            out.series.push(ResultSeries {
                name: self.measurement.clone(),
                tags,
                columns: columns.clone(),
                values,
            });
        }
        out
    }
}

/// The [`Agg`] of one node's `count, sum, min, max` quadruple starting at
/// column `base` of a partial row. A null numeric column — the series held
/// no numeric value — leaves that stat empty.
fn quadruple_agg(row: &[Json], base: usize) -> Agg {
    let stat = |i: usize| row.get(base + i).and_then(Json::as_f64);
    let count = row.get(base).and_then(Json::as_i64).unwrap_or(0);
    let mut agg = Agg { count: u64::try_from(count).unwrap_or(0), ..Agg::default() };
    if let Some(sum) = stat(1) {
        agg.numeric = true;
        agg.sum = sum;
    }
    agg.min = stat(2).unwrap_or(agg.min);
    agg.max = stat(3).unwrap_or(agg.max);
    agg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(tags: &[(&str, &str)], rows: Vec<Vec<Json>>) -> ResultSeries {
        ResultSeries {
            name: "cpu".into(),
            tags: tags.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            columns: vec![
                "time".into(),
                "count".into(),
                "sum".into(),
                "min".into(),
                "max".into(),
            ],
            values: rows,
        }
    }

    fn quad(ts: i64, count: i64, sum: f64, min: f64, max: f64) -> Vec<Json> {
        vec![Json::Int(ts), Json::Int(count), Json::Num(sum), Json::Num(min), Json::Num(max)]
    }

    #[test]
    fn plans_only_decomposable_aggregates() {
        assert!(partial_plan("SELECT mean(v), count(v) FROM cpu").is_some());
        assert!(partial_plan("SELECT sum(v) FROM cpu GROUP BY time(1m), host").is_some());
        assert!(partial_plan("SELECT v FROM cpu").is_none(), "raw projection");
        assert!(partial_plan("SELECT first(v) FROM cpu").is_none(), "order-carrying");
        assert!(partial_plan("SELECT stddev(v) FROM cpu").is_none(), "variance-carrying");
        assert!(
            partial_plan("SELECT mean(v) FROM cpu GROUP BY time(1m) FILL(null)").is_none(),
            "non-default fill"
        );
        assert!(partial_plan("SHOW MEASUREMENTS").is_none());
        assert!(partial_plan("not even influxql").is_none());
    }

    #[test]
    fn partial_query_carries_quadruples_and_group_star() {
        let plan = partial_plan(
            "SELECT mean(v) FROM cpu WHERE time >= 0 GROUP BY time(1m), \"host\" LIMIT 3",
        )
        .unwrap();
        let q = plan.partial_query();
        for piece in ["count(\"v\")", "sum(\"v\")", "min(\"v\")", "max(\"v\")", "*"] {
            assert!(q.contains(piece), "missing {piece} in {q}");
        }
        assert!(!q.contains("LIMIT"), "limit must apply after recombination: {q}");
    }

    #[test]
    fn mean_recombines_exactly_across_nodes() {
        // h1 (3 points, sum 30) on node 0; h2 (1 point, sum 10) on node 1.
        // mean = 40/4 = 10, NOT the mean of means (15 + 10)/2 = 12.5.
        let plan = partial_plan("SELECT mean(v), count(v) FROM cpu").unwrap();
        let a = QueryResult {
            series: vec![series(&[("host", "h1")], vec![quad(0, 3, 30.0, 5.0, 20.0)])],
            partial: false,
        };
        let b = QueryResult {
            series: vec![series(&[("host", "h2")], vec![quad(0, 1, 10.0, 10.0, 10.0)])],
            partial: false,
        };
        let m = plan.merge(vec![a, b]);
        assert_eq!(m.series.len(), 1);
        assert!(m.series[0].tags.is_empty());
        assert_eq!(m.series[0].columns, vec!["time", "mean", "count"]);
        assert_eq!(m.series[0].values[0][1].as_f64(), Some(10.0));
        assert_eq!(m.series[0].values[0][2].as_i64(), Some(4));
    }

    #[test]
    fn replica_copies_collapse_before_folding() {
        // The same series answered by both of its owners must count once.
        let plan = partial_plan("SELECT sum(v) FROM cpu").unwrap();
        let row = || series(&[("host", "h1")], vec![quad(0, 2, 8.0, 3.0, 5.0)]);
        let m = plan.merge(vec![
            QueryResult { series: vec![row()], partial: false },
            QueryResult { series: vec![row()], partial: false },
        ]);
        assert_eq!(m.series[0].values[0][1].as_f64(), Some(8.0));
    }

    #[test]
    fn divergent_replicas_resolve_by_part_order_not_mixing() {
        let plan = partial_plan("SELECT count(v) FROM cpu").unwrap();
        let a = QueryResult {
            series: vec![series(&[("host", "h1")], vec![quad(0, 5, 5.0, 1.0, 1.0)])],
            partial: false,
        };
        let b = QueryResult {
            series: vec![series(&[("host", "h1")], vec![quad(0, 7, 7.0, 1.0, 1.0)])],
            partial: false,
        };
        let m = plan.merge(vec![a, b]);
        assert_eq!(m.series[0].values[0][1].as_i64(), Some(7), "later part wins whole row");
    }

    #[test]
    fn grouped_windows_union_and_order() {
        // GROUP BY time + host: windows from different nodes union per
        // group; order_desc and limit apply after recombination.
        let plan = partial_plan(
            "SELECT max(v) FROM cpu GROUP BY time(60), \"host\" ORDER BY time DESC LIMIT 1",
        )
        .unwrap();
        let a = QueryResult {
            series: vec![series(&[("host", "h1"), ("socket", "0")], vec![
                quad(0, 1, 1.0, 1.0, 1.0),
                quad(60, 1, 2.0, 2.0, 2.0),
            ])],
            partial: false,
        };
        let b = QueryResult {
            series: vec![series(&[("host", "h1"), ("socket", "1")], vec![
                quad(60, 1, 9.0, 9.0, 9.0),
            ])],
            partial: false,
        };
        let m = plan.merge(vec![a, b]);
        assert_eq!(m.series.len(), 1, "both series share host=h1");
        assert_eq!(m.series[0].tags, vec![("host".to_string(), "h1".to_string())]);
        // DESC + LIMIT 1: only the latest window, max folded across series.
        assert_eq!(m.series[0].values.len(), 1);
        assert_eq!(m.series[0].values[0][0].as_i64(), Some(60));
        assert_eq!(m.series[0].values[0][1].as_f64(), Some(9.0));
    }

    #[test]
    fn non_numeric_series_answer_null_but_count() {
        let plan = partial_plan("SELECT mean(v), count(v) FROM cpu").unwrap();
        let a = QueryResult {
            series: vec![series(&[("host", "h1")], vec![vec![
                Json::Int(0),
                Json::Int(3),
                Json::Null,
                Json::Null,
                Json::Null,
            ]])],
            partial: false,
        };
        let m = plan.merge(vec![a]);
        assert_eq!(m.series[0].values[0][1], Json::Null, "mean over text is null");
        assert_eq!(m.series[0].values[0][2].as_i64(), Some(3), "count still exact");
    }
}
