//! Time-series extraction from query results.
//!
//! The analysis modules work on plain `(timestamp, value)` vectors; this
//! module pulls them out of the database's [`QueryResult`] shape.

use lms_influx::{QueryResult, ResultSeries};
use lms_util::Timestamp;

/// A numeric time series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    /// `(time, value)` pairs in ascending time order.
    pub points: Vec<(Timestamp, f64)>,
}

impl TimeSeries {
    /// Extracts column `column` of the first result series.
    pub fn from_result(result: &QueryResult, column: &str) -> TimeSeries {
        result.series.first().map(|s| Self::from_series(s, column)).unwrap_or_default()
    }

    /// Extracts column `column` of one result series: its rows with a
    /// timestamp and a numeric value there.
    pub fn from_series(series: &ResultSeries, column: &str) -> TimeSeries {
        let Some(ci) = series.columns.iter().position(|c| c == column) else {
            return TimeSeries::default();
        };
        let points = series.values.iter().filter_map(|row| {
            Some((Timestamp(row.first()?.as_i64()?), row.get(ci)?.as_f64()?))
        });
        TimeSeries { points: points.collect() }
    }

    /// Extracts one series per GROUP BY tag value:
    /// `(tag value, series)` pairs in result order.
    pub fn per_tag(result: &QueryResult, tag: &str, column: &str) -> Vec<(String, TimeSeries)> {
        let value = |s: &ResultSeries| s.tags.iter().find(|(k, _)| k == tag).map(|(_, v)| v.clone());
        result.series.iter().map(|s| (value(s).unwrap_or_default(), Self::from_series(s, column))).collect()
    }

    /// The values only.
    pub fn values(&self) -> Vec<f64> {
        self.points.iter().map(|&(_, v)| v).collect()
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Latest value.
    pub fn last(&self) -> Option<(Timestamp, f64)> {
        self.points.last().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::summarize;
    use lms_influx::Influx;
    use lms_util::Clock;

    fn fixture() -> Influx {
        let ix = Influx::new(Clock::simulated(Timestamp::from_secs(100))).unwrap();
        ix.write_lines(
            "lms",
            "m,hostname=h1 v=1 10000000000\n\
             m,hostname=h1 v=3 20000000000\n\
             m,hostname=h2 v=10 10000000000",
            Default::default(),
        )
        .unwrap();
        ix
    }

    /// `column` of `q`'s answer.
    fn query(ix: &Influx, q: &str, column: &str) -> TimeSeries {
        TimeSeries::from_result(&ix.query("lms", q).unwrap(), column)
    }

    #[test]
    fn extracts_single_series() {
        let ix = fixture();
        let ts = query(&ix, "SELECT v FROM m WHERE hostname = 'h1'", "v");
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.points[0], (Timestamp::from_secs(10), 1.0));
        assert_eq!(summarize(&ts.values()).mean, 2.0);
        assert_eq!(ts.last(), Some((Timestamp::from_secs(20), 3.0)));
    }

    #[test]
    fn extracts_aggregate_column() {
        let ix = fixture();
        let ts = query(&ix, "SELECT mean(v) FROM m WHERE hostname = 'h1'", "mean");
        assert_eq!(ts.len(), 1);
        assert_eq!(ts.points[0].1, 2.0);
    }

    #[test]
    fn per_tag_split() {
        let r = fixture().query("lms", "SELECT mean(v) FROM m GROUP BY hostname").unwrap();
        let by_host = TimeSeries::per_tag(&r, "hostname", "mean");
        assert_eq!(by_host.len(), 2);
        assert_eq!(by_host[0].0, "h1");
        assert_eq!(by_host[0].1.points[0].1, 2.0);
        assert_eq!(by_host[1].0, "h2");
        assert_eq!(by_host[1].1.points[0].1, 10.0);
    }

    #[test]
    fn missing_column_or_measurement_is_empty() {
        let ix = fixture();
        let ts = query(&ix, "SELECT v FROM m", "nope");
        assert!(ts.is_empty());
        assert_eq!(summarize(&ts.values()).count, 0);
        let ts = query(&ix, "SELECT v FROM ghost", "v");
        assert!(ts.is_empty());
    }
}
