//! Cluster SELECTs: scatter the partial form, fold the answers like one
//! node.
//!
//! A cluster SELECT cannot be answered by merging per-node *final*
//! answers: with R < N each node holds only the series it owns, a mean of
//! means is not the mean, and a `first`, a `FILL` row or a `LIMIT` cut
//! made per node is not the cluster's. The router therefore plans the
//! statement once ([`Plan`]) and sends every node its **partial form**:
//! the range fixed as absolute bounds from the router's own `now()`, and
//! the `PARTIAL` marker. Each node answers the rows of every matching
//! series it holds, each series' under a header row with its tags
//! ([`Plan::partial_answer`]): its window [`Agg`](lms_influx::tsm::Agg)s
//! as tier-row stats, or its raw rows. The router
//!
//! 1. **dedupes** replica copies ([`Plan::read_partial`]): a series is
//!    wholly stored on each of its R owners, so per (series, window or
//!    timestamp) one node's row is kept, the later part winning whole
//!    rows (divergent replicas resolve deterministically, never mix);
//! 2. **folds** the series with the executor's own [`Plan::fold`]: the
//!    same grouping, tag-set merge order, windows, `FILL`, finalize,
//!    `ORDER BY` and `LIMIT` as a single node holding every point.

use lms_influx::exec::Plan;
use lms_influx::query::Statement;
use lms_influx::QueryResult;
use lms_util::Clock;

/// A planned cluster SELECT: the partial form sent to every node plus the
/// plan that folds their answers.
#[derive(Debug, Clone)]
pub struct PartialPlan {
    plan: Plan,
    partial_query: String,
}

/// Plans `q` with `now()` read from the system clock (see
/// [`PartialPlan::new`]).
pub fn partial_plan(q: &str) -> Option<PartialPlan> {
    PartialPlan::new(q, Clock::system().now().nanos())
}

impl PartialPlan {
    /// Plans `q` with `now()` at `now_ns`. `None` when `q` is not a valid
    /// SELECT (including unparsable input — the caller forwards the
    /// original string and lets the nodes answer the error, or the listing
    /// that [`crate::merge_results`] unions).
    pub fn new(q: &str, now_ns: i64) -> Option<PartialPlan> {
        let Ok(Statement::Select(sel)) = Statement::parse(q) else { return None };
        let plan = Plan::new(&sel, now_ns).ok()?;
        Some(PartialPlan { partial_query: plan.partial_query(), plan })
    }

    /// The partial form to send to every node.
    pub fn partial_query(&self) -> &str {
        &self.partial_query
    }

    /// Folds the nodes' answers to [`partial_query`](Self::partial_query)
    /// into the final result. `parts` holds each reachable node's answer
    /// in node order; the output `partial` flag is the OR of the inputs'.
    pub fn merge(&self, parts: Vec<QueryResult>) -> QueryResult {
        let partial = parts.iter().any(|p| p.partial);
        let mut out = self.plan.fold(self.plan.read_partial(parts));
        out.partial = partial;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_influx::ResultSeries;
    use lms_util::Json;

    /// A node's partial answer: each `(host, rows)` series' rows after its
    /// header row, under `columns` and the tag key `host`.
    fn node(columns: &[&str], series: &[(&str, Vec<Vec<Json>>)]) -> QueryResult {
        let values = series
            .iter()
            .flat_map(|(host, rows)| {
                std::iter::once(vec![Json::Null, Json::str(*host)]).chain(rows.iter().cloned())
            })
            .collect();
        let columns = columns.iter().chain(&["host"]).map(|c| c.to_string()).collect();
        QueryResult {
            series: vec![ResultSeries { name: "cpu".into(), tags: Vec::new(), columns, values }],
            partial: false,
        }
    }

    /// A `v__count, v__sum, v__min` row: what a node sends for `mean(v)`
    /// or `sum(v)`.
    fn stats(ts: i64, count: i64, sum: f64, min: f64) -> Vec<Json> {
        vec![Json::Int(ts), Json::Int(count), Json::Num(sum), Json::Num(min)]
    }

    const SUM_COLUMNS: [&str; 4] = ["time", "v__count", "v__sum", "v__min"];

    #[test]
    fn plans_every_valid_select() {
        for q in [
            "SELECT mean(v), count(v) FROM cpu",
            "SELECT v FROM cpu",
            "SELECT first(v), stddev(v) FROM cpu GROUP BY time(1m), host FILL(null)",
        ] {
            let plan = PartialPlan::new(q, 0).unwrap();
            assert!(plan.partial_query().ends_with(" PARTIAL"), "{}", plan.partial_query());
        }
        assert!(partial_plan("SHOW MEASUREMENTS").is_none());
        assert!(partial_plan("not even influxql").is_none());
        assert!(partial_plan("SELECT v, mean(v) FROM cpu").is_none(), "nodes answer the error");
    }

    #[test]
    fn partial_query_fixes_the_range_at_the_routers_now() {
        let plan = PartialPlan::new(
            "SELECT mean(v) FROM cpu WHERE time >= now() - 10s AND host = 'a' \
             GROUP BY time(1s), host ORDER BY time DESC LIMIT 3",
            100_000_000_000,
        )
        .unwrap();
        assert_eq!(
            plan.partial_query(),
            "SELECT mean(\"v\") FROM \"cpu\" WHERE \"host\" = 'a' AND time >= 90000000000 \
             GROUP BY time(1000000000ns), \"host\" ORDER BY time DESC LIMIT 3 PARTIAL"
        );
    }

    #[test]
    fn mean_folds_exactly_across_nodes() {
        // h1 (3 points, sum 60) on node 0; h2 (1 point, sum 10) on node 1.
        // mean = 70/4 = 17.5, NOT the mean of means (20 + 10)/2 = 15.
        let plan = partial_plan("SELECT mean(v), count(v) FROM cpu").unwrap();
        let a = node(&SUM_COLUMNS, &[("h1", vec![stats(0, 3, 60.0, 5.0)])]);
        let b = node(&SUM_COLUMNS, &[("h2", vec![stats(0, 1, 10.0, 10.0)])]);
        let m = plan.merge(vec![a, b]);
        assert_eq!(m.series.len(), 1);
        assert!(m.series[0].tags.is_empty());
        assert_eq!(m.series[0].columns, vec!["time", "mean", "count"]);
        assert_eq!(m.series[0].values[0][1].as_f64(), Some(17.5));
        assert_eq!(m.series[0].values[0][2].as_i64(), Some(4));
    }

    #[test]
    fn replica_copies_collapse_and_divergent_ones_resolve_by_part_order() {
        let plan = partial_plan("SELECT sum(v) FROM cpu").unwrap();
        let copy = || node(&SUM_COLUMNS, &[("h1", vec![stats(0, 2, 8.0, 3.0)])]);
        let m = plan.merge(vec![copy(), copy()]);
        assert_eq!(m.series[0].values[0][1].as_f64(), Some(8.0), "counted once");
        let stale = node(&SUM_COLUMNS, &[("h1", vec![stats(0, 1, 3.0, 3.0)])]);
        let m = plan.merge(vec![stale, copy()]);
        assert_eq!(m.series[0].values[0][1].as_f64(), Some(8.0), "later part wins the row");
    }

    #[test]
    fn raw_rows_keep_series_identity() {
        // Two series with the same row at the same instant, one per node,
        // plus a replica copy of the first: two rows, not one and not three.
        let plan = partial_plan("SELECT text FROM events ORDER BY time DESC").unwrap();
        let row = || vec![Json::Int(5), Json::str("job start")];
        let columns = ["time", "text"];
        let a = node(&columns, &[("h1", vec![row()])]);
        let b = node(&columns, &[("h1", vec![row()]), ("h2", vec![row()])]);
        let m = plan.merge(vec![a, b]);
        assert_eq!(m.series.len(), 1);
        assert_eq!(m.series[0].values, vec![row(), row()]);
    }

    #[test]
    fn an_empty_series_makes_its_fill_group_exist() {
        // h2 holds nothing in range, yet one node would answer its group.
        let plan = partial_plan(
            "SELECT count(v) FROM cpu WHERE time >= 0 AND time < 20 \
             GROUP BY time(10ns), host FILL(0)",
        )
        .unwrap();
        let columns = ["time", "v__count"];
        let a = node(&columns, &[("h1", vec![vec![Json::Int(10), Json::Int(2)]]), ("h2", vec![])]);
        let m = plan.merge(vec![a]);
        let counts = |s: &ResultSeries| -> Vec<i64> {
            s.values.iter().map(|r| r[1].as_i64().unwrap()).collect()
        };
        let rows: Vec<(&str, Vec<i64>)> =
            m.series.iter().map(|s| (s.tags[0].1.as_str(), counts(s))).collect();
        assert_eq!(rows, vec![("h1", vec![0, 2]), ("h2", vec![0, 0])]);
    }
}
