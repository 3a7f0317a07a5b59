//! The union of per-node listings for cluster reads.
//!
//! Every SELECT goes through [`crate::partial`], which folds the nodes'
//! per-series answers exactly. What remains are the meta statements
//! (`SHOW MEASUREMENTS`, `SHOW TAG VALUES`, `SHOW FIELD KEYS`,
//! `SHOW DATABASES`): each node lists what it holds, and the cluster's
//! answer is the union — per result series, whole rows sorted and
//! deduplicated.

use lms_influx::{QueryResult, ResultSeries};
use lms_util::Json;
use std::collections::BTreeMap;

/// Unions per-node listings into one. `parts` holds each reachable node's
/// answer; `partial` in the output is the OR of the inputs' flags. One
/// part passes through as it is.
pub fn merge_results(mut parts: Vec<QueryResult>) -> QueryResult {
    if parts.len() == 1 {
        return parts.pop().expect("one part");
    }
    type SeriesKey = (String, Vec<(String, String)>);
    // Columns, and rows by rendered form: rows are small JSON tuples, and
    // Json is not Ord.
    type Listing = (Vec<String>, BTreeMap<String, Vec<Json>>);
    let partial = parts.iter().any(|p| p.partial);
    let mut groups: BTreeMap<SeriesKey, Listing> = BTreeMap::new();
    for series in parts.into_iter().flat_map(|part| part.series) {
        let (columns, rows) = groups.entry((series.name, series.tags)).or_default();
        if series.columns.len() > columns.len() {
            *columns = series.columns;
        }
        for row in series.values {
            rows.insert(Json::arr(row.iter().cloned()).to_string(), row);
        }
    }
    let series = groups
        .into_iter()
        .map(|((name, tags), (columns, rows))| ResultSeries {
            name,
            tags,
            columns,
            values: rows.into_values().collect(),
        })
        .collect();
    QueryResult { series, partial }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listing(names: &[&str]) -> QueryResult {
        QueryResult {
            series: vec![ResultSeries {
                name: "measurements".into(),
                tags: Vec::new(),
                columns: vec!["name".into()],
                values: names.iter().map(|n| vec![Json::str(*n)]).collect(),
            }],
            partial: false,
        }
    }

    fn names(r: &QueryResult) -> Vec<&str> {
        r.series[0].values.iter().map(|row| row[0].as_str().unwrap()).collect()
    }

    #[test]
    fn listings_union_sorted_and_deduplicated() {
        let m = merge_results(vec![listing(&["cpu", "mem"]), listing(&["mem", "net"])]);
        assert_eq!(m.series.len(), 1);
        assert_eq!(names(&m), vec!["cpu", "mem", "net"]);
        assert!(!m.partial);
    }

    #[test]
    fn an_empty_answer_is_harmless_and_partial_propagates() {
        let mut a = listing(&["cpu"]);
        a.partial = true;
        let m = merge_results(vec![a, QueryResult::empty()]);
        assert_eq!(names(&m), vec!["cpu"]);
        assert!(m.partial);
    }

    #[test]
    fn single_part_passes_through() {
        let a = listing(&["mem", "cpu"]);
        assert_eq!(merge_results(vec![a.clone()]), a);
    }
}
