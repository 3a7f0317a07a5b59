//! # lms-rollup
//!
//! Downsampling and tiered retention: the continuous rollup pipeline that
//! turns "drop expired segment files" into a storage hierarchy.
//!
//! The paper's per-user database duplication keeps long-horizon,
//! job-specific views cheap while raw data ages out; PerSyst and the MPCDF
//! monitoring system survive production scale the same way — aggregate
//! near the source, retain summaries long-term. This crate holds the
//! pieces every layer of that pipeline shares:
//!
//! - [`Tier`] — the rollup resolutions (1 minute, 1 hour) and their
//!   window math,
//! - the **tier row codec** ([`append_fields`], its inverse
//!   [`agg_of_row`], and [`rollup_fields`]) — a tier row is the
//!   serialisation of one window's [`Agg`] per raw field, laid out as
//!   suffixed fields (`v` → `v__count`, `v__sum`, …) of an ordinary point
//!   whose timestamp is the window start, so rollup tiers are plain
//!   databases served by the unmodified write/query machinery,
//! - **tier database naming** ([`rollup_db_name`], [`is_rollup_db`],
//!   [`base_db_of`]) — a base database `lms` materializes into sibling
//!   databases `lms__rollup_1m` / `lms__rollup_1h`, each with its own
//!   engine directory, WAL (crash recovery for free) and retention,
//! - [`WindowAggregator`] — the agent-side pre-aggregation window: a node
//!   emits its 1 s raw stream plus a 60 s aggregate stream tagged for
//!   direct ingestion into the 1 m tier.
//!
//! Who writes a tier row is irrelevant: flush-side recomputation, an
//! agent's pre-aggregated stream and a backfill all produce the same
//! schema, and last-write-wins converges them to the exact value computed
//! from the full raw column.

use lms_lineproto::{FieldValue, Point};
use lms_tsm::Agg;

/// The measurement holding the per-database rollup watermark. One point is
/// written into the 1 m tier database per completed rollup pass, with the
/// point's *timestamp* equal to the watermark (every sealed raw point
/// below it is incorporated into the tiers); recovery reads the latest
/// timestamp back.
pub const WATERMARK_MEASUREMENT: &str = "__rollup_watermark";

/// The field carried by watermark points (the value is irrelevant; the
/// timestamp is the payload).
pub const WATERMARK_FIELD: &str = "v";

/// Suffix separator between a raw field name and its rollup statistic.
pub const FIELD_SEP: &str = "__";

/// The rollup statistics stored per raw field, in fixed order. `first_ts`
/// and `last_ts` carry the *original* timestamps of the window's first and
/// last points — the tier row itself is timestamped at the window start,
/// and stitched `first()`/`last()` across several series needs the real
/// timestamps to break ties the same way a raw decode would.
pub const STATS: [&str; 9] =
    ["count", "sum", "sumsq", "min", "max", "first", "last", "first_ts", "last_ts"];

/// A rollup resolution tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// 1-minute windows.
    Minute,
    /// 1-hour windows.
    Hour,
}

/// All tiers, finest first.
pub const TIERS: [Tier; 2] = [Tier::Minute, Tier::Hour];

impl Tier {
    /// Window width in nanoseconds.
    pub fn window_ns(self) -> i64 {
        match self {
            Tier::Minute => 60 * 1_000_000_000,
            Tier::Hour => 3600 * 1_000_000_000,
        }
    }

    /// The tier's name as used in database suffixes and config keys.
    pub fn suffix(self) -> &'static str {
        match self {
            Tier::Minute => "1m",
            Tier::Hour => "1h",
        }
    }

    /// Parses a tier name (`1m` / `1h`).
    pub fn parse(s: &str) -> Option<Tier> {
        match s {
            "1m" => Some(Tier::Minute),
            "1h" => Some(Tier::Hour),
            _ => None,
        }
    }
}

/// Smallest multiple of `unit` that is `>= ts` (saturating).
pub fn align_up(ts: i64, unit: i64) -> i64 {
    let down = ts.div_euclid(unit) * unit;
    if down == ts {
        ts
    } else {
        down.saturating_add(unit)
    }
}

/// Largest multiple of `unit` that is `<= ts`.
pub fn align_down(ts: i64, unit: i64) -> i64 {
    ts.div_euclid(unit) * unit
}

/// The sibling database holding `base`'s rollup tier, e.g.
/// `lms` → `lms__rollup_1h`. The name stays directory-safe whenever the
/// base name is, so tier databases persist under the same data root.
pub fn rollup_db_name(base: &str, tier: Tier) -> String {
    format!("{base}{FIELD_SEP}rollup_{}", tier.suffix())
}

/// True when `name` is a rollup tier database (which must never itself be
/// rolled up — no rollup-of-rollup).
pub fn is_rollup_db(name: &str) -> bool {
    base_db_of(name).is_some()
}

/// Splits a rollup database name into its base database and tier;
/// `None` for ordinary databases.
pub fn base_db_of(name: &str) -> Option<(&str, Tier)> {
    let (base, rest) = name.rsplit_once(FIELD_SEP)?;
    let tier = Tier::parse(rest.strip_prefix("rollup_")?)?;
    if base.is_empty() {
        return None;
    }
    Some((base, tier))
}

/// The rollup field name of one statistic of a raw field
/// (`v` + `count` → `v__count`).
pub fn stat_field(field: &str, stat: &str) -> String {
    format!("{field}{FIELD_SEP}{stat}")
}

/// Appends the tier-row fields of `agg` for raw field `field` onto `out`:
/// `count` always, `sum`/`sumsq`/`min`/`max` when a value was numeric, and
/// `first`/`last` with their original timestamps.
pub fn append_fields(field: &str, agg: &Agg, out: &mut Vec<(String, FieldValue)>) {
    if agg.count == 0 {
        return;
    }
    out.push((stat_field(field, "count"), FieldValue::Integer(agg.count as i64)));
    if agg.numeric {
        out.push((stat_field(field, "sum"), FieldValue::Float(agg.sum)));
        out.push((stat_field(field, "sumsq"), FieldValue::Float(agg.sum_sq)));
        out.push((stat_field(field, "min"), FieldValue::Float(agg.min)));
        out.push((stat_field(field, "max"), FieldValue::Float(agg.max)));
    }
    if let Some((ts, v)) = &agg.first {
        out.push((stat_field(field, "first"), v.clone()));
        out.push((stat_field(field, "first_ts"), FieldValue::Integer(*ts)));
    }
    if let Some((ts, v)) = &agg.last {
        out.push((stat_field(field, "last"), v.clone()));
        out.push((stat_field(field, "last_ts"), FieldValue::Integer(*ts)));
    }
}

/// The inverse of [`append_fields`]: the [`Agg`] of a tier row at window
/// start `ts`, from whichever of its `(stat, value)` fields were read.
/// Stats left out keep their empty value — a row read without `count`
/// counts nothing — and `first`/`last` without their `_ts` stand at `ts`.
pub fn agg_of_row<'a>(ts: i64, stats: impl IntoIterator<Item = (&'a str, FieldValue)>) -> Agg {
    let mut agg = Agg::default();
    let (mut first_ts, mut last_ts) = (ts, ts);
    for (stat, value) in stats {
        match (stat, value) {
            ("count", FieldValue::Integer(n)) => agg.count = u64::try_from(n).unwrap_or(0),
            ("first", v) => agg.first = Some((ts, v)),
            ("last", v) => agg.last = Some((ts, v)),
            ("first_ts", FieldValue::Integer(t)) => first_ts = t,
            ("last_ts", FieldValue::Integer(t)) => last_ts = t,
            (stat, v) => {
                let slot = match stat {
                    "sum" => &mut agg.sum,
                    "sumsq" => &mut agg.sum_sq,
                    "min" => &mut agg.min,
                    "max" => &mut agg.max,
                    _ => continue,
                };
                if let Some(x) = v.as_f64() {
                    *slot = x;
                    agg.numeric = true;
                }
            }
        }
    }
    if let Some(first) = &mut agg.first {
        first.0 = first_ts;
    }
    if let Some(last) = &mut agg.last {
        last.0 = last_ts;
    }
    agg
}

/// Renders one tier row: the rollup fields of `aggs` (raw field name →
/// window aggregate) as a [`Point`] on the *same* measurement and tag set
/// as the raw series, timestamped at the window start.
pub fn rollup_fields<F: AsRef<str>>(
    measurement: &str,
    tags: &[(String, String)],
    window_start: i64,
    aggs: &[(F, Agg)],
) -> Option<Point> {
    let mut fields = Vec::new();
    for (field, agg) in aggs {
        append_fields(field.as_ref(), agg, &mut fields);
    }
    if fields.is_empty() {
        return None;
    }
    let mut point = Point::new(measurement);
    for (k, v) in tags {
        point.add_tag(k.clone(), v.clone());
    }
    for (k, v) in fields {
        point.add_field_value(k, v);
    }
    point.set_timestamp(window_start);
    Some(point)
}

/// Agent-side pre-aggregation: an open set of windows per
/// `(series key, field)`, fed one collected point at a time. Windows close
/// when the clock passes their end (plus nothing arrives out of order on
/// an agent — collectors stamp one tick time), and closing emits tier rows
/// ready to POST at the 1 m tier ingest endpoint.
///
/// This gives a node the paper-prescribed two streams: the 1 s raw batch
/// and a 60 s aggregate batch that lands directly in the 1 m tier.
#[derive(Debug, Default)]
pub struct WindowAggregator {
    window_ns: i64,
    /// Open windows: (series key, window start) → per-field aggregates,
    /// plus the measurement/tags needed to re-emit the row.
    open: Vec<OpenWindow>,
}

#[derive(Debug)]
struct OpenWindow {
    series_key: String,
    measurement: String,
    tags: Vec<(String, String)>,
    window_start: i64,
    aggs: Vec<(String, Agg)>,
}

impl WindowAggregator {
    /// An aggregator with `window_ns`-wide epoch-aligned windows
    /// (60 s for the 1 m tier).
    pub fn new(window_ns: i64) -> Self {
        assert!(window_ns > 0, "aggregation window must be positive");
        WindowAggregator { window_ns, open: Vec::new() }
    }

    /// The canonical 1 m tier aggregator.
    pub fn minute() -> Self {
        Self::new(Tier::Minute.window_ns())
    }

    /// Feeds one collected point (timestamp `ts` ns).
    pub fn push(&mut self, point: &Point, ts: i64) {
        let w_start = align_down(ts, self.window_ns);
        let key = point.series_key();
        let open = match self
            .open
            .iter_mut()
            .find(|w| w.window_start == w_start && w.series_key == key)
        {
            Some(w) => w,
            None => {
                self.open.push(OpenWindow {
                    series_key: key,
                    measurement: point.measurement().to_string(),
                    tags: point.tags().to_vec(),
                    window_start: w_start,
                    aggs: Vec::new(),
                });
                self.open.last_mut().expect("just pushed")
            }
        };
        for (field, value) in point.fields() {
            let agg = match open.aggs.iter_mut().find(|(f, _)| f == field) {
                Some((_, agg)) => agg,
                None => {
                    open.aggs.push((field.clone(), Agg::default()));
                    &mut open.aggs.last_mut().expect("just pushed").1
                }
            };
            agg.add(ts, value);
        }
    }

    /// Closes every window whose end is `<= now_ns` and returns their tier
    /// rows. Call once per tick with the tick's timestamp.
    pub fn close_before(&mut self, now_ns: i64) -> Vec<Point> {
        let mut out = Vec::new();
        let window_ns = self.window_ns;
        let mut kept = Vec::with_capacity(self.open.len());
        for w in self.open.drain(..) {
            if w.window_start.saturating_add(window_ns) <= now_ns {
                if let Some(p) =
                    rollup_fields(&w.measurement, &w.tags, w.window_start, &w.aggs)
                {
                    out.push(p);
                }
            } else {
                kept.push(w);
            }
        }
        self.open = kept;
        out
    }

    /// Flushes every open window regardless of the clock (agent shutdown).
    pub fn flush(&mut self) -> Vec<Point> {
        self.close_before(i64::MAX)
    }

    /// Number of currently open windows.
    pub fn open_windows(&self) -> usize {
        self.open.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_window_math() {
        assert_eq!(Tier::Minute.window_ns(), 60_000_000_000);
        assert_eq!(Tier::Hour.window_ns(), 3_600_000_000_000);
        assert_eq!(align_up(0, 60), 0);
        assert_eq!(align_up(1, 60), 60);
        assert_eq!(align_down(119, 60), 60);
        assert_eq!(align_down(-1, 60), -60);
    }

    #[test]
    fn db_naming_round_trips() {
        let name = rollup_db_name("lms", Tier::Hour);
        assert_eq!(name, "lms__rollup_1h");
        assert!(is_rollup_db(&name));
        assert_eq!(base_db_of(&name), Some(("lms", Tier::Hour)));
        assert!(!is_rollup_db("lms"));
        assert!(!is_rollup_db("user_dave"));
        assert_eq!(base_db_of("user_dave__rollup_1m"), Some(("user_dave", Tier::Minute)));
        // A rollup db never rolls up again, whatever the nesting looks like.
        assert!(base_db_of("__rollup_1m").is_none());
    }

    #[test]
    fn non_numeric_fields_carry_count_first_last_only() {
        let mut agg = Agg::default();
        agg.add(1, &FieldValue::Text("a".into()));
        agg.add(2, &FieldValue::Text("b".into()));
        let mut fields = Vec::new();
        append_fields("msg", &agg, &mut fields);
        let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            names,
            vec!["msg__count", "msg__first", "msg__first_ts", "msg__last", "msg__last_ts"]
        );
        assert_eq!(fields[0].1, FieldValue::Integer(2));
        assert_eq!(fields[3].1, FieldValue::Text("b".into()));
        assert_eq!(fields[4].1, FieldValue::Integer(2));
    }

    #[test]
    fn aggregator_emits_closed_windows() {
        let mut agg = WindowAggregator::minute();
        let w = Tier::Minute.window_ns();
        let mut p = Point::new("cpu");
        p.add_tag("hostname", "h1").add_field("busy", 10.0);
        agg.push(&p, 1_000_000_000);
        agg.push(&p, 2_000_000_000);
        let mut p2 = Point::new("cpu");
        p2.add_tag("hostname", "h1").add_field("busy", 30.0);
        agg.push(&p2, w + 1_000_000_000);
        assert_eq!(agg.open_windows(), 2);

        // Nothing closes before the first window's end.
        assert!(agg.close_before(w - 1).is_empty());
        let rows = agg.close_before(w);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.measurement(), "cpu");
        assert_eq!(row.tag("hostname"), Some("h1"));
        assert_eq!(row.timestamp(), Some(0));
        assert_eq!(row.field("busy__count"), Some(&FieldValue::Integer(2)));
        assert_eq!(row.field("busy__sum"), Some(&FieldValue::Float(20.0)));
        assert_eq!(row.field("busy__min"), Some(&FieldValue::Float(10.0)));
        assert_eq!(row.field("busy__first"), Some(&FieldValue::Float(10.0)));
        assert_eq!(agg.open_windows(), 1);
        assert_eq!(agg.flush().len(), 1);
        assert_eq!(agg.open_windows(), 0);
    }
}
