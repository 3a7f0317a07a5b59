//! # lms-rollup
//!
//! Downsampling and tiered retention: the continuous rollup pipeline that
//! turns "drop expired segment files" into a storage hierarchy.
//!
//! Tiers keep long-horizon, job-specific views (a user's view reads them
//! under its `user` predicate) cheap while raw data ages out; PerSyst and
//! the MPCDF monitoring system survive production scale the same way —
//! aggregate near the source, retain summaries long-term. This crate holds the
//! pieces every layer of that pipeline shares:
//!
//! - [`Tier`] — the rollup resolutions (1 minute, 1 hour) and their
//!   window math,
//! - the **tier row codec** ([`stored_value`], the one row writer
//!   [`write_row`] and its inverse [`agg_of_row`]) — a tier row holds one
//!   window's [`Agg`] per raw field, laid out as suffixed fields (`v` →
//!   `v__count`, `v__sum`, …) of an ordinary row whose timestamp is the
//!   window start. A rollup pass seals the stored values straight into a
//!   tier's blocks and an agent writes them as line protocol, so rollup
//!   tiers are plain databases served by the unmodified query machinery,
//! - **tier database naming** ([`rollup_db_name`], [`is_rollup_db`],
//!   [`base_db_of`]) — a base database `lms` materializes into sibling
//!   databases `lms__rollup_1m` / `lms__rollup_1h`, each with its own
//!   engine directory, WAL and retention,
//! - [`WindowAggregator`] — the agent-side pre-aggregation window: a node
//!   emits its 1 s raw stream plus a 60 s aggregate stream tagged for
//!   direct ingestion into the 1 m tier.
//!
//! Who writes a tier row is irrelevant: flush-side recomputation, an
//! agent's pre-aggregated stream and a backfill all produce the same
//! schema, and last-write-wins converges them to the exact value computed
//! from the full raw column.

use lms_lineproto::escape::escape_tag_into;
use lms_lineproto::serialize::{read_back, write_field_value};
use lms_lineproto::{FieldValue, Point};
use lms_tsm::Agg;
use std::fmt::Write as _;
use std::ops::Range;

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

/// The order of a field's stats within a tier row: `count`, `sum`,
/// `sumsq`, `min`, `max`, then `first` and `last`, each followed by its
/// timestamp.
pub const ROW_STATS: [&str; 9] =
    ["count", "sum", "sumsq", "min", "max", "first", "first_ts", "last", "last_ts"];

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

/// One tier-row stat of `agg`: `count` whenever anything was counted,
/// `sum`/`sumsq`/`min`/`max` when a value was numeric, and `first`/`last`
/// with their original timestamps; `None` for a stat the row leaves out.
pub fn stat_value(agg: &Agg, stat: &str) -> Option<FieldValue> {
    if agg.count == 0 {
        return None;
    }
    let numeric = |x: f64| agg.numeric.then_some(FieldValue::Float(x));
    match stat {
        "count" => Some(FieldValue::Integer(agg.count as i64)),
        "sum" => numeric(agg.sum),
        "sumsq" => numeric(agg.sum_sq),
        "min" => numeric(agg.min),
        "max" => numeric(agg.max),
        "first" => agg.first.as_ref().map(|(_, v)| v.clone()),
        "last" => agg.last.as_ref().map(|(_, v)| v.clone()),
        "first_ts" => agg.first.as_ref().map(|&(ts, _)| FieldValue::Integer(ts)),
        "last_ts" => agg.last.as_ref().map(|&(ts, _)| FieldValue::Integer(ts)),
        _ => None,
    }
}

/// The value a tier row stores for one stat of `agg`: its [`stat_value`]
/// as parsing the row's text reads it back, so a non-finite float is the
/// text of its marker. A rollup pass seals these values and [`write_row`]
/// writes them.
pub fn stored_value(agg: &Agg, stat: &str) -> Option<FieldValue> {
    stat_value(agg, stat).map(read_back)
}

/// Writes one tier row onto `out`: the canonical series `key`, each raw
/// field's [`stored_value`]s in [`ROW_STATS`] order, the window start and
/// a newline — byte for byte what serialising the row as a point writes.
/// `record` gets each stat field's name, as its byte range within the row,
/// and its stored value. Writes nothing and returns `false` when no
/// aggregate counted anything.
pub fn write_row<'f>(
    key: &str,
    window_start: i64,
    aggs: impl IntoIterator<Item = (&'f str, &'f Agg)>,
    out: &mut String,
    mut record: impl FnMut(Range<usize>, FieldValue),
) -> bool {
    let start = out.len();
    out.push_str(key);
    let mut sep = ' ';
    for (field, agg) in aggs {
        // A one-point window's sum, min, max, first and last are one value
        // and its two timestamps one integer: a number already written in
        // this field is copied, not formatted again.
        let (mut written, mut slot) = ([(None, 0, 0); 4], 0);
        for stat in ROW_STATS {
            let Some(value) = stored_value(agg, stat) else { continue };
            out.push(sep);
            sep = ',';
            let name = out.len() - start;
            escape_tag_into(field, out);
            out.push_str(FIELD_SEP);
            out.push_str(stat);
            let name = name..out.len() - start;
            out.push('=');
            let number = match value {
                FieldValue::Float(x) => Some((true, x.to_bits())),
                FieldValue::Integer(n) => Some((false, n as u64)),
                _ => None,
            };
            let at = out.len();
            match written.iter().find(|w| number.is_some() && w.0 == number) {
                // SAFETY: `from..to` holds a number written above, ASCII
                // text on char boundaries, so the copy is valid UTF-8.
                Some(&(_, from, to)) => unsafe { out.as_mut_vec().extend_from_within(from..to) },
                None => {
                    write_field_value(&value, out);
                    written[slot % 4] = (number, at, out.len());
                    slot += 1;
                }
            }
            record(name, value);
        }
    }
    if sep == ' ' {
        out.truncate(start);
        return false;
    }
    let _ = writeln!(out, " {window_start}");
    true
}

/// The inverse of [`write_row`]: the [`Agg`] of a tier row at window
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

/// Agent-side pre-aggregation: an open set of windows per
/// `(series key, field)`, fed one collected point at a time. Windows close
/// when the clock passes their end (plus nothing arrives out of order on
/// an agent — collectors stamp one tick time), and closing writes tier
/// rows ready to POST at the 1 m tier ingest endpoint.
///
/// This gives a node the paper-prescribed two streams: the 1 s raw batch
/// and a 60 s aggregate batch that lands directly in the 1 m tier.
#[derive(Debug, Default)]
pub struct WindowAggregator {
    window_ns: i64,
    /// Open windows: (series key, window start) → per-field aggregates.
    open: Vec<OpenWindow>,
}

#[derive(Debug)]
struct OpenWindow {
    series_key: String,
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
                self.open.push(OpenWindow { series_key: key, window_start: w_start, aggs: vec![] });
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

    /// Closes every window whose end is `<= now_ns` and writes their tier
    /// rows onto `out` ([`write_row`]). Returns the rows written. Call once
    /// per tick with the tick's timestamp.
    pub fn close_before(&mut self, now_ns: i64, out: &mut String) -> usize {
        let window_ns = self.window_ns;
        let mut rows = 0;
        self.open.retain(|w| {
            let open = w.window_start.saturating_add(window_ns) > now_ns;
            if !open {
                let aggs = w.aggs.iter().map(|(field, agg)| (field.as_str(), agg));
                rows += write_row(&w.series_key, w.window_start, aggs, out, |_, _| {}) as usize;
            }
            open
        });
        rows
    }

    /// Closes every open window regardless of the clock (agent shutdown).
    pub fn flush(&mut self, out: &mut String) -> usize {
        self.close_before(i64::MAX, out)
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
        let (mut row, mut fields) = (String::new(), Vec::new());
        assert!(write_row("ev", 0, [("msg", &agg)], &mut row, |name, v| fields.push((name, v))));
        let names: Vec<&str> = fields.iter().map(|(name, _)| &row[name.clone()]).collect();
        assert_eq!(
            names,
            vec!["msg__count", "msg__first", "msg__first_ts", "msg__last", "msg__last_ts"]
        );
        assert_eq!(fields[0].1, FieldValue::Integer(2));
        assert_eq!(fields[3].1, FieldValue::Text("b".into()));
        assert_eq!(fields[4].1, FieldValue::Integer(2));
        // An empty aggregate writes no row at all.
        assert!(!write_row("ev", 0, [("msg", &Agg::default())], &mut row, |_, _| panic!()));
        assert_eq!(row.lines().count(), 1);
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

        // Nothing closes before the first window's end.
        let mut rows = String::new();
        assert_eq!(agg.close_before(w - 1, &mut rows), 0);
        assert!(rows.is_empty());
        assert_eq!(agg.close_before(w, &mut rows), 1);
        let row = lms_lineproto::parse_line(rows.trim_end()).unwrap();
        assert_eq!(row.measurement, "cpu");
        assert_eq!(row.tag("hostname"), Some("h1"));
        assert_eq!(row.timestamp, Some(0));
        assert_eq!(row.field("busy__count"), Some(&FieldValue::Integer(2)));
        assert_eq!(row.field("busy__sum"), Some(&FieldValue::Float(20.0)));
        assert_eq!(row.field("busy__min"), Some(&FieldValue::Float(10.0)));
        assert_eq!(row.field("busy__first"), Some(&FieldValue::Float(10.0)));
        assert_eq!(agg.flush(&mut rows), 1);
        assert_eq!(rows.lines().count(), 2);
        assert_eq!(agg.flush(&mut rows), 0, "nothing is left open");
    }
}
