//! The partial aggregate: one mergeable count/sum/sum²/min/max/first/last
//! state for every layer that pre-aggregates. A sealed block's footer
//! summary, a rollup tier row, the query executor's per-window accumulator
//! and the router's recombined node partials are all an [`Agg`] — stored,
//! serialised or folded, but computed and merged only here.

use lms_lineproto::FieldValue;

/// A mergeable aggregate over points of one field.
///
/// `sum`/`sum_sq`/`min`/`max` run over the numeric view of each value
/// ([`FieldValue::as_f64`]: floats as-is, integers and booleans widened;
/// text is counted but not summed), while `first`/`last` keep the raw
/// values at the earliest and latest timestamps, with those timestamps.
#[derive(Debug, Clone, PartialEq)]
pub struct Agg {
    /// Points aggregated, numeric or not.
    pub count: u64,
    /// True once a point had a numeric view.
    pub numeric: bool,
    /// Sum of numeric views.
    pub sum: f64,
    /// Sum of squared numeric views (stddev recombination).
    pub sum_sq: f64,
    /// Smallest numeric view (`+inf` while none).
    pub min: f64,
    /// Largest numeric view (`-inf` while none).
    pub max: f64,
    /// `(ts, value)` at the earliest timestamp.
    pub first: Option<(i64, FieldValue)>,
    /// `(ts, value)` at the latest timestamp.
    pub last: Option<(i64, FieldValue)>,
}

impl Default for Agg {
    fn default() -> Self {
        Agg {
            count: 0,
            numeric: false,
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            first: None,
            last: None,
        }
    }
}

impl Agg {
    /// Adds one point, later in series order than every point so far.
    #[inline]
    pub fn add(&mut self, ts: i64, value: &FieldValue) {
        self.count += 1;
        self.take_edges(Some((ts, value)), Some((ts, value)));
        if let Some(x) = value.as_f64() {
            self.add_numeric(x);
        }
    }

    /// The aggregate of a timestamp-ascending run, `first`/`last` taken
    /// from its ends: what [`add`](Self::add)ing its points in order
    /// yields. `None` for an empty run.
    pub fn of_run(points: &[(i64, FieldValue)]) -> Option<Agg> {
        let (first, last) = (points.first()?, points.last()?);
        let mut agg = Agg {
            count: points.len() as u64,
            first: Some(first.clone()),
            last: Some(last.clone()),
            ..Agg::default()
        };
        for x in points.iter().filter_map(|(_, v)| v.as_f64()) {
            agg.add_numeric(x);
        }
        Some(agg)
    }

    /// Folds in `other`, an aggregate from later in series order: merging
    /// runs in order equals adding their points in order.
    #[inline]
    pub fn merge(&mut self, other: &Agg) {
        self.count += other.count;
        self.take_edges(
            other.first.as_ref().map(|(ts, v)| (*ts, v)),
            other.last.as_ref().map(|(ts, v)| (*ts, v)),
        );
        self.numeric |= other.numeric;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    #[inline]
    fn add_numeric(&mut self, x: f64) {
        self.numeric = true;
        self.sum += x;
        self.sum_sq += x * x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// The tie-break, written once: `first` keeps the strictly earlier
    /// timestamp (the earliest-seen value wins a tie), `last` keeps `>=`
    /// (the latest-seen value wins), so that merging in series order
    /// answers what one sequential pass over the points would.
    #[inline]
    fn take_edges(&mut self, first: Option<(i64, &FieldValue)>, last: Option<(i64, &FieldValue)>) {
        if let Some((ts, v)) = first {
            if self.first.as_ref().is_none_or(|f| ts < f.0) {
                self.first = Some((ts, v.clone()));
            }
        }
        if let Some((ts, v)) = last {
            if self.last.as_ref().is_none_or(|l| ts >= l.0) {
                self.last = Some((ts, v.clone()));
            }
        }
    }
}
