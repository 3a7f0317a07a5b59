//! Query execution over [`Database`] storage, with InfluxDB-shaped results.

use crate::db::{Database, QueryTuning};
use crate::query::{AggFunc, Condition, Fill, Projection, Select, Statement};
use crate::storage::{Column, Series};
use lms_lineproto::FieldValue;
use lms_rollup::{agg_of_row, align_down, align_up, stat_field};
use lms_tsm::Agg;
use lms_util::{Error, Json, Result};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The rollup tier databases available to serve aggregate queries for one
/// base database, plus its watermark. Built by `Influx::tier_ctx`.
pub struct TierCtx {
    /// `(window_ns, tier database)`, coarsest tier first — the planner
    /// takes the first tier whose window divides the requested output
    /// window.
    pub tiers: Vec<(i64, Arc<Database>)>,
    /// Rollup watermark of the base database: every raw point with
    /// `ts < watermark` has been incorporated into every tier.
    pub watermark: i64,
}

/// One result series (matches InfluxDB's JSON `series` element).
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSeries {
    /// Measurement (or meta-result name like `measurements`).
    pub name: String,
    /// Group-by tag values, sorted by key.
    pub tags: Vec<(String, String)>,
    /// Column names; first is always `time` for data queries.
    pub columns: Vec<String>,
    /// Row-major values.
    pub values: Vec<Vec<Json>>,
}

/// A full query result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryResult {
    /// Result series (one per group).
    pub series: Vec<ResultSeries>,
    /// True when the result is incomplete: a cluster scatter-gather read
    /// could not reach every replica, so series owned exclusively by the
    /// unreachable node(s) may be missing. Single-node results are never
    /// partial. Serialized as a top-level `"partial": true` (and the
    /// router adds an `X-Lms-Partial` header); omitted when false so the
    /// wire format stays InfluxDB-shaped in the common case.
    pub partial: bool,
}

impl QueryResult {
    /// An empty result.
    pub fn empty() -> Self {
        Self::default()
    }

    /// This result as one element of the response's `results` array.
    /// Consumes the result: its cells move into the tree.
    fn into_statement_json(self, statement_id: usize) -> Json {
        let series = self
            .series
            .into_iter()
            .map(|s| {
                let mut obj = vec![("name".to_string(), Json::Str(s.name))];
                if !s.tags.is_empty() {
                    obj.push((
                        "tags".to_string(),
                        Json::Obj(s.tags.into_iter().map(|(k, v)| (k, Json::Str(v))).collect()),
                    ));
                }
                obj.push(("columns".to_string(), Json::arr(s.columns.into_iter().map(Json::Str))));
                obj.push(("values".to_string(), Json::arr(s.values.into_iter().map(Json::Arr))));
                Json::Obj(obj)
            })
            .collect::<Vec<_>>();
        Json::obj([
            ("statement_id", Json::from(statement_id as i64)),
            ("series", Json::Arr(series)),
        ])
    }

    /// Renders the InfluxDB `/query` response JSON.
    pub fn to_json(&self) -> Json {
        self.clone().into_json()
    }

    /// [`to_json`](Self::to_json) of a result that is not needed after:
    /// no cell is copied.
    pub fn into_json(self) -> Json {
        let partial = self.partial;
        let mut top = vec![("results".to_string(), Json::arr([self.into_statement_json(0)]))];
        if partial {
            top.push(("partial".to_string(), Json::Bool(true)));
        }
        Json::Obj(top)
    }

    /// Serializes the answer to a multi-statement `/query` — one `results`
    /// element per outcome, in order, by `statement_id` — and tells whether
    /// any of it is partial. Outcomes are taken one at a time, so a lazy
    /// `outcomes` keeps one statement's result and JSON tree alive at
    /// once, not the whole list's. A failed statement's element carries
    /// `error` and — so that a client can raise exactly what the statement
    /// sent alone would have — the HTTP `status` of that lone answer (404
    /// for a missing database, 400 otherwise, a remote error's own).
    /// `partial` is per request: every statement rode the same scatter.
    pub fn batch_body(outcomes: impl IntoIterator<Item = Result<QueryResult>>) -> (String, bool) {
        use std::fmt::Write as _;
        let mut body = String::from(r#"{"results":["#);
        let mut partial = false;
        for (id, outcome) in outcomes.into_iter().enumerate() {
            let element = match outcome {
                Ok(result) => {
                    partial |= result.partial;
                    result.into_statement_json(id)
                }
                Err(e) => {
                    let (status, message) = match e {
                        Error::Remote { status, message } => (status, message),
                        Error::NotFound(_) => (404, e.to_string()),
                        e => (400, e.to_string()),
                    };
                    Json::obj([
                        ("statement_id", Json::from(id as i64)),
                        ("error", Json::Str(message)),
                        ("status", Json::from(i64::from(status))),
                    ])
                }
            };
            let comma = if id > 0 { "," } else { "" };
            write!(body, "{comma}{element}").expect("writing to a String");
        }
        body.push_str(if partial { r#"],"partial":true}"# } else { "]}" });
        (body, partial)
    }

    /// Parses a `/query` response of any statement count into one outcome
    /// per `results` element (client side of [`batch_body`]; a
    /// single-statement answer is the one-element case). A failed
    /// statement becomes `Error::Remote` under its `status` (400 when the
    /// server — a real InfluxDB — sent none). Consumes the tree: cells
    /// move into the results.
    ///
    /// [`batch_body`]: Self::batch_body
    pub fn batch_from_json(json: Json) -> Result<Vec<Result<QueryResult>>> {
        let partial = json.get("partial").and_then(Json::as_bool).unwrap_or(false);
        let results = match json {
            Json::Obj(top) => top.into_iter().find(|(key, _)| key == "results"),
            _ => None,
        };
        let Some((_, Json::Arr(results))) = results else {
            return Err(Error::protocol("query response missing `results`"));
        };
        Ok(results
            .into_iter()
            .map(|result| {
                if let Some(err) = result.get("error").and_then(Json::as_str) {
                    let status = result
                        .get("status")
                        .and_then(Json::as_i64)
                        .and_then(|s| u16::try_from(s).ok())
                        .unwrap_or(400);
                    return Err(Error::Remote { status, message: err.to_string() });
                }
                Ok(QueryResult { series: series_of(result), partial })
            })
            .collect())
    }

    /// Parses the InfluxDB `/query` response JSON (client side). Also
    /// surfaces `{"error": "..."}` responses as errors. The series of
    /// every `results` element are concatenated.
    pub fn from_json(json: &Json) -> Result<QueryResult> {
        if let Some(err) = json.get("error").and_then(Json::as_str) {
            return Err(Error::Remote { status: 400, message: err.to_string() });
        }
        let mut out = QueryResult::empty();
        for result in Self::batch_from_json(json.clone())? {
            let result = result?;
            out.partial = result.partial;
            out.series.extend(result.series);
        }
        Ok(out)
    }
}

/// The series of one `results` element, its cells moved out of the tree.
fn series_of(result: Json) -> Vec<ResultSeries> {
    let Json::Obj(fields) = result else { return Vec::new() };
    let Some((_, Json::Arr(series))) = fields.into_iter().find(|(key, _)| key == "series") else {
        return Vec::new();
    };
    let strings = |json: Json| match json {
        Json::Arr(items) => items
            .into_iter()
            .map(|item| match item {
                Json::Str(s) => s,
                _ => String::new(),
            })
            .collect(),
        _ => Vec::new(),
    };
    series
        .into_iter()
        .map(|s| {
            let mut out = ResultSeries {
                name: String::new(),
                tags: Vec::new(),
                columns: Vec::new(),
                values: Vec::new(),
            };
            let Json::Obj(fields) = s else { return out };
            for (key, value) in fields {
                match (key.as_str(), value) {
                    ("name", Json::Str(name)) => out.name = name,
                    ("tags", Json::Obj(tags)) => {
                        out.tags = tags
                            .into_iter()
                            .map(|(k, v)| match v {
                                Json::Str(v) => (k, v),
                                _ => (k, String::new()),
                            })
                            .collect();
                        out.tags.sort();
                    }
                    ("columns", columns) => out.columns = strings(columns),
                    ("values", Json::Arr(rows)) => {
                        out.values = rows
                            .into_iter()
                            .map(|row| match row {
                                Json::Arr(cells) => cells,
                                _ => Vec::new(),
                            })
                            .collect();
                    }
                    _ => {}
                }
            }
            out
        })
        .collect()
}

fn json_of(v: &FieldValue) -> Json {
    match v {
        FieldValue::Float(f) => Json::Num(*f),
        FieldValue::Integer(i) => Json::Int(*i),
        FieldValue::Boolean(b) => Json::Bool(*b),
        FieldValue::Text(s) => Json::str(s.as_str()),
    }
}

/// Executes a statement against one database. `now_ns` anchors `now()`.
pub fn execute(stmt: &Statement, db: &Database, now_ns: i64) -> Result<QueryResult> {
    execute_tiered(stmt, db, None, now_ns)
}

/// [`execute`] with an optional rollup tier context: aggregate SELECTs
/// transparently resolve each time range to the coarsest tier that
/// satisfies the requested window and stitch raw edges around it.
pub fn execute_tiered(
    stmt: &Statement,
    db: &Database,
    tiers: Option<&TierCtx>,
    now_ns: i64,
) -> Result<QueryResult> {
    match stmt {
        Statement::Select(sel) => select(sel, db, tiers, now_ns),
        Statement::ShowMeasurements => {
            let values: Vec<Vec<Json>> =
                db.measurement_names().iter().map(|m| vec![Json::str(m.as_str())]).collect();
            Ok(QueryResult {
                series: vec![ResultSeries {
                    name: "measurements".into(),
                    tags: Vec::new(),
                    columns: vec!["name".into()],
                    values,
                }],
                partial: false,
            })
        }
        Statement::ShowTagValues { measurement, key } => {
            let mut values: Vec<String> = db
                .series_of(measurement)
                .iter()
                .filter_map(|s| s.tag(key))
                .map(str::to_string)
                .collect();
            values.sort_unstable();
            values.dedup();
            Ok(QueryResult {
                series: vec![ResultSeries {
                    name: measurement.clone(),
                    tags: Vec::new(),
                    columns: vec!["key".into(), "value".into()],
                    values: values
                        .into_iter()
                        .map(|v| vec![Json::str(key.as_str()), Json::str(v)])
                        .collect(),
                }],
                partial: false,
            })
        }
        Statement::ShowFieldKeys { measurement } => {
            let snapshot = db.series_of(measurement);
            let mut fields: Vec<&str> =
                snapshot.iter().flat_map(|s| s.field_names()).collect();
            fields.sort_unstable();
            fields.dedup();
            Ok(QueryResult {
                series: vec![ResultSeries {
                    name: measurement.clone(),
                    tags: Vec::new(),
                    columns: vec!["fieldKey".into()],
                    values: fields.into_iter().map(|f| vec![Json::str(f)]).collect(),
                }],
                partial: false,
            })
        }
        // Storage-level statements are handled by `Influx::query` before
        // execution reaches a single database.
        Statement::CreateDatabase(_) | Statement::ShowDatabases => Ok(QueryResult::empty()),
    }
}

/// The resolved time range `[start, end)` of a SELECT.
fn time_range(sel: &Select, now_ns: i64) -> (i64, i64) {
    let mut start = i64::MIN;
    let mut end = i64::MAX;
    for c in &sel.conditions {
        match c {
            Condition::TimeGe(v) => start = start.max(v.resolve(now_ns)),
            Condition::TimeGt(v) => start = start.max(v.resolve(now_ns).saturating_add(1)),
            Condition::TimeLe(v) => end = end.min(v.resolve(now_ns).saturating_add(1)),
            Condition::TimeLt(v) => end = end.min(v.resolve(now_ns)),
            _ => {}
        }
    }
    (start, end)
}

fn series_matches(series: &Series, sel: &Select) -> bool {
    sel.conditions.iter().all(|c| match c {
        Condition::TagEq(k, v) => series.tag(k) == Some(v.as_str()),
        Condition::TagNe(k, v) => series.tag(k) != Some(v.as_str()),
        _ => true,
    })
}

fn select(
    sel: &Select,
    db: &Database,
    tiers: Option<&TierCtx>,
    now_ns: i64,
) -> Result<QueryResult> {
    let (start, end) = time_range(sel, now_ns);
    if start >= end {
        return Ok(QueryResult::empty());
    }
    let tuning = db.query_tuning();
    // Snapshot fans out across the database's shards; the measurement
    // index fixes the series order, so results are identical regardless
    // of shard count.
    let snapshot = db.series_of(&sel.measurement);
    let matching: Vec<&Series> = snapshot
        .iter()
        .map(AsRef::as_ref)
        .filter(|s| series_matches(s, sel))
        .collect();

    let has_agg = sel.projections.iter().any(|p| matches!(p, Projection::Agg(..)));
    let all_agg = sel.projections.iter().all(|p| matches!(p, Projection::Agg(..)));

    // Tier eligibility: only decomposable aggregates can be answered from
    // rollups, and an output window must be a whole multiple of the tier
    // window. The first (coarsest) eligible tier wins.
    let tier_sel: Option<(i64, Arc<Database>)> = tiers.filter(|_| all_agg).and_then(|ctx| {
        ctx.tiers
            .iter()
            .find(|(w, _)| sel.group_time.is_none_or(|g| g % *w == 0))
            .cloned()
    });
    let tier_snapshot: Vec<Arc<Series>> = tier_sel
        .as_ref()
        .map(|(_, tdb)| tdb.series_of(&sel.measurement))
        .unwrap_or_default();
    // Tier series carry the same tag sets as their base series, so tag
    // predicates and GROUP BY keys apply unchanged.
    let tier_matching: Vec<&Series> = tier_snapshot
        .iter()
        .map(AsRef::as_ref)
        .filter(|s| series_matches(s, sel))
        .collect();

    // A series may survive only in the tiers (raw evicted by retention):
    // the query is still answerable, so emptiness requires both layers.
    if matching.is_empty() && tier_matching.is_empty() {
        return Ok(QueryResult::empty());
    }

    // Group series by the values of the GROUP BY tags; `GROUP BY *` pins
    // each full tag set to its own group (used by the router to keep
    // per-series identity when recombining cross-node partials). Base and
    // tier series land in the same group when their keys agree.
    let group_key = |s: &Series| -> Vec<(String, String)> {
        if sel.group_all {
            s.tags().to_vec()
        } else {
            sel.group_tags
                .iter()
                .map(|t| (t.clone(), s.tag(t).unwrap_or("").to_string()))
                .collect()
        }
    };
    // Raw and tier series of one tag-key group, in series order.
    type GroupPair<'a> = (Vec<&'a Series>, Vec<&'a Series>);
    let mut groups: BTreeMap<Vec<(String, String)>, GroupPair<'_>> = BTreeMap::new();
    for s in matching {
        groups.entry(group_key(s)).or_default().0.push(s);
    }
    for s in tier_matching {
        groups.entry(group_key(s)).or_default().1.push(s);
    }

    if has_agg && !all_agg {
        return Err(Error::invalid(
            "query: cannot mix aggregated and raw projections",
        ));
    }
    if sel.group_time.is_some() && !all_agg {
        return Err(Error::invalid("query: GROUP BY time requires aggregations"));
    }

    let grouped = !sel.group_tags.is_empty() || sel.group_all;
    let mut out = QueryResult::empty();
    for (tags, (group, tier_group)) in groups {
        let mut rs = if all_agg {
            let part = match &tier_sel {
                Some((w, _)) if !tier_group.is_empty() => Some(TierPart {
                    series: &tier_group,
                    window_ns: *w,
                    cap: tier_cap(&group, tiers.expect("tier_sel implies ctx").watermark),
                }),
                _ => None,
            };
            aggregate_group(sel, &group, part.as_ref(), start, end, now_ns, tuning)
        } else {
            raw_group(sel, &group, start, end)
        };
        if rs.values.is_empty() && grouped {
            continue; // groups emptied by the time range vanish
        }
        if sel.order_desc {
            rs.values.reverse();
        }
        if let Some(limit) = sel.limit {
            rs.values.truncate(limit);
        }
        rs.tags = tags;
        out.series.push(rs);
    }
    // A completely empty ungrouped result: drop the series entirely.
    out.series.retain(|s| !s.values.is_empty());
    Ok(out)
}

/// Raw projection: merge rows across the group's series by timestamp.
fn raw_group(sel: &Select, group: &[&Series], start: i64, end: i64) -> ResultSeries {
    let fields: Vec<&str> = sel
        .projections
        .iter()
        .map(|p| match p {
            Projection::Field(f) => f.as_str(),
            Projection::Agg(..) => unreachable!("checked by caller"),
        })
        .collect();
    // Rows keyed by (time, source series): fields of the same point merge
    // into one row; distinct series at the same instant stay distinct rows
    // (InfluxDB emits duplicate-timestamp rows too).
    let mut rows: BTreeMap<(i64, usize), Vec<Json>> = BTreeMap::new();
    for (si, series) in group.iter().enumerate() {
        for (fi, field) in fields.iter().enumerate() {
            let Some(col) = series.field(field) else { continue };
            for (ts, value) in col.points_in(start, end) {
                let row = rows
                    .entry((ts, si))
                    .or_insert_with(|| vec![Json::Null; fields.len()]);
                row[fi] = json_of(&value);
            }
        }
    }
    let mut columns = vec!["time".to_string()];
    columns.extend(fields.iter().map(|f| f.to_string()));
    ResultSeries {
        name: sel.measurement.clone(),
        tags: Vec::new(),
        columns,
        values: rows
            .into_iter()
            .map(|((ts, _), mut vals)| {
                let mut row = Vec::with_capacity(vals.len() + 1);
                row.push(Json::Int(ts));
                row.append(&mut vals);
                row
            })
            .collect(),
    }
}

/// Finalizes one aggregate over `agg` — the null rules, written once: an
/// empty aggregate answers null, and so does a numeric aggregate over
/// values none of which was numeric (`min` still infinite).
pub fn finalize(agg: &Agg, func: AggFunc) -> Json {
    if agg.count == 0 {
        return Json::Null;
    }
    let numeric = agg.min.is_finite();
    match func {
        AggFunc::Count => Json::Int(agg.count as i64),
        AggFunc::First => agg.first.as_ref().map(|(_, v)| json_of(v)).unwrap_or(Json::Null),
        AggFunc::Last => agg.last.as_ref().map(|(_, v)| json_of(v)).unwrap_or(Json::Null),
        AggFunc::Mean if numeric => Json::Num(agg.sum / agg.count as f64),
        AggFunc::Sum if numeric => Json::Num(agg.sum),
        AggFunc::Min if numeric => Json::Num(agg.min),
        AggFunc::Max if numeric => Json::Num(agg.max),
        AggFunc::Stddev if numeric => {
            let n = agg.count as f64;
            let var = (agg.sum_sq / n - (agg.sum / n) * (agg.sum / n)).max(0.0);
            Json::Num(var.sqrt())
        }
        _ => Json::Null,
    }
}

/// Accumulates one column's `[start, end)` scan into per-window buckets
/// (key = epoch-aligned window start; `0` when unwindowed). Summaries and
/// residual points interleave in timestamp order so first/last tie-breaking
/// matches a full sequential decode.
fn column_accs(
    col: &Column,
    start: i64,
    end: i64,
    window: Option<i64>,
    use_summaries: bool,
) -> BTreeMap<i64, Agg> {
    let scan = col.scan(start, end, window, use_summaries);
    let key = |ts: i64| match window {
        Some(w) => ts.div_euclid(w) * w,
        None => 0,
    };
    let mut accs: BTreeMap<i64, Agg> = BTreeMap::new();
    let mut summaries =
        scan.summarized.into_iter().filter_map(|b| Some((b.min_ts, b.summary()?))).peekable();
    for (ts, value) in scan.residual {
        while let Some((t, summary)) = summaries.next_if(|&(t, _)| t < ts) {
            accs.entry(key(t)).or_default().merge(summary);
        }
        accs.entry(key(ts)).or_default().add(ts, &value);
    }
    for (t, summary) in summaries {
        accs.entry(key(t)).or_default().merge(summary);
    }
    accs
}

/// Minimum sealed points overlapping the range (an upper bound on the
/// decode work, from the block time index) before a group scan fans out
/// to threads: below this, spawn overhead beats the decode savings.
const PARALLEL_THRESHOLD: usize = 64 * 1024;

/// Scans every `(field, series)` column of the group and merges the
/// per-column window accumulators in group order. Columns scan in parallel
/// across a small worker pool when enough sealed data overlaps the range;
/// the merge order is fixed by `(field, series)` index, so the result is
/// identical to the sequential path.
fn scan_group(
    group: &[&Series],
    fields: &[&str],
    start: i64,
    end: i64,
    window: Option<i64>,
    tuning: QueryTuning,
) -> Vec<BTreeMap<i64, Agg>> {
    let jobs: Vec<(usize, &Column)> = fields
        .iter()
        .enumerate()
        .flat_map(|(fi, f)| {
            group.iter().filter_map(move |s| s.field(f)).map(move |c| (fi, c))
        })
        .collect();
    let mut merged: Vec<BTreeMap<i64, Agg>> = (0..fields.len()).map(|_| BTreeMap::new()).collect();
    let parallel = tuning.parallel_scan
        && jobs.len() > 1
        && jobs.iter().map(|&(_, c)| c.sealed_points_in(start, end)).sum::<usize>()
            >= PARALLEL_THRESHOLD;
    let maps: Vec<(usize, BTreeMap<i64, Agg>)> = if parallel {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(jobs.len())
            .min(8);
        let (tx, rx) = std::sync::mpsc::channel::<(usize, usize, BTreeMap<i64, Agg>)>();
        std::thread::scope(|scope| {
            for w in 0..workers {
                let tx = tx.clone();
                let jobs = &jobs;
                scope.spawn(move || {
                    for (ji, &(fi, col)) in jobs.iter().enumerate().skip(w).step_by(workers) {
                        let accs = column_accs(col, start, end, window, tuning.use_summaries);
                        if tx.send((ji, fi, accs)).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        drop(tx);
        let mut out: Vec<(usize, usize, BTreeMap<i64, Agg>)> = rx.into_iter().collect();
        // Deterministic merge order regardless of thread scheduling.
        out.sort_by_key(|&(ji, _, _)| ji);
        out.into_iter().map(|(_, fi, accs)| (fi, accs)).collect()
    } else {
        jobs.iter()
            .map(|&(fi, col)| (fi, column_accs(col, start, end, window, tuning.use_summaries)))
            .collect()
    };
    for (fi, accs) in maps {
        for (w, acc) in accs {
            merged[fi].entry(w).and_modify(|m| m.merge(&acc)).or_insert(acc);
        }
    }
    merged
}

/// The tier slice available to one group's aggregation: the group's tier
/// series, the tier window, and the cap below which the tier is
/// authoritative.
struct TierPart<'a> {
    series: &'a [&'a Series],
    window_ns: i64,
    /// Timestamps `< cap` may be served from the tier; `[cap, ...)` must
    /// come from raw. `min(watermark, earliest unflushed head point)` —
    /// head points may have arrived after the last rollup pass.
    cap: i64,
}

/// The tier-serve cap for one group: the base watermark, pulled down to
/// the earliest head (unflushed) point of any column in the group.
fn tier_cap(group: &[&Series], watermark: i64) -> i64 {
    let mut cap = watermark;
    for (_, col) in group.iter().flat_map(|s| s.fields()) {
        if let Some(&(ts, _)) = col.head().first() {
            cap = cap.min(ts);
        }
    }
    cap
}

/// Per-field window accumulators over `[start, end)`: raw-only, or — when
/// a tier slice covers a whole-window middle `[a, b)` of the range — raw
/// edge scans stitched around a fold of the tier's pre-aggregated rows.
/// The stitched result is exact for decomposable aggregates because the
/// tier rows carry complete per-window state (count/sum/sumsq/min/max and
/// first/last with their original timestamps) and the three sub-ranges
/// partition the visible timestamps.
#[allow(clippy::too_many_arguments)]
fn stitched_accs(
    group: &[&Series],
    tier: Option<&TierPart>,
    fields: &[&str],
    needed: &[Vec<&'static str>],
    start: i64,
    end: i64,
    window: Option<i64>,
    tuning: QueryTuning,
) -> Vec<BTreeMap<i64, Agg>> {
    if let Some(t) = tier {
        // An unbounded start needs no alignment: there is no raw left
        // edge below the first tier row.
        let a = if start == i64::MIN { start } else { align_up(start, t.window_ns) };
        let b = align_down(end.min(t.cap), t.window_ns);
        if a < b {
            let mut accs = scan_group(group, fields, start, a, window, tuning);
            let right = scan_group(group, fields, b, end, window, tuning);
            for (fi, m) in right.into_iter().enumerate() {
                for (w, acc) in m {
                    accs[fi].entry(w).and_modify(|cur| cur.merge(&acc)).or_insert(acc);
                }
            }
            tier_fold(t.series, fields, needed, a, b, window, &mut accs);
            return accs;
        }
    }
    scan_group(group, fields, start, end, window, tuning)
}

/// The tier stat columns one aggregate function reads. `count` gates
/// window emptiness and `min` doubles as `finalize()`'s numeric flag, so
/// both ride along with every numeric aggregate.
fn tier_stats_for(func: AggFunc) -> &'static [&'static str] {
    match func {
        AggFunc::Count => &["count"],
        AggFunc::First => &["count", "first", "first_ts"],
        AggFunc::Last => &["count", "last", "last_ts"],
        AggFunc::Mean | AggFunc::Sum => &["count", "min", "sum"],
        AggFunc::Min => &["count", "min"],
        AggFunc::Max => &["count", "min", "max"],
        AggFunc::Stddev => &["count", "min", "sum", "sumsq"],
    }
}

/// Folds the tier rows with window starts in `[a, b)` into the per-field
/// accumulators. Each row is the [`Agg`] a raw decode of its window would
/// have produced, `first`/`last` at their original timestamps, so
/// cross-layer tie-breaking matches a full raw scan. Only the stat columns
/// in `needed[fi]` are decoded — the rest cannot reach the finalized
/// output of the requested aggregates.
fn tier_fold(
    tier: &[&Series],
    fields: &[&str],
    needed: &[Vec<&'static str>],
    a: i64,
    b: i64,
    out_window: Option<i64>,
    accs: &mut [BTreeMap<i64, Agg>],
) {
    let key = |ts: i64| match out_window {
        Some(w) => ts.div_euclid(w) * w,
        None => 0,
    };
    for series in tier {
        for (fi, field) in fields.iter().enumerate() {
            let Some(count_col) = series.field(&stat_field(field, "count")) else { continue };
            // Every rollup row writes `count`, so its ordered scan is the
            // row spine; the other needed stat scans advance in lockstep
            // (their timestamp sets are subsets of the spine's), avoiding
            // a map lookup per decoded stat point.
            let mut others: Vec<(&str, _)> = Vec::new();
            for stat in lms_rollup::STATS {
                if stat == "count" || !needed[fi].contains(&stat) {
                    continue;
                }
                if let Some(col) = series.field(&stat_field(field, stat)) {
                    others.push((stat, col.points_in(a, b).peekable()));
                }
            }
            for (ts, count) in count_col.points_in(a, b) {
                let stats = others.iter_mut().filter_map(|(stat, it)| {
                    while it.next_if(|&(t, _)| t < ts).is_some() {}
                    it.next_if(|&(t, _)| t == ts).map(|(_, value)| (*stat, value))
                });
                let acc = agg_of_row(ts, std::iter::once(("count", count)).chain(stats));
                if acc.count > 0 {
                    accs[fi].entry(key(ts)).and_modify(|cur| cur.merge(&acc)).or_insert(acc);
                }
            }
        }
    }
}

/// Aggregated projection, optionally windowed by `GROUP BY time(w)`.
///
/// One planned scan per `(field, series)` column covers the whole query
/// range: summaries of fully-covered blocks feed their window's
/// accumulator without a decode, residual points stream into theirs, and
/// the per-window rows are emitted from the finished accumulators — where
/// the previous executor re-decoded every overlapping block once per
/// window per aggregate. With a tier slice, the whole-window middle of
/// the range is answered from rollup rows instead of raw decodes.
fn aggregate_group(
    sel: &Select,
    group: &[&Series],
    tier: Option<&TierPart>,
    start: i64,
    end: i64,
    now_ns: i64,
    tuning: QueryTuning,
) -> ResultSeries {
    struct AggSpec {
        func: AggFunc,
        field: String,
    }
    let specs: Vec<AggSpec> = sel
        .projections
        .iter()
        .map(|p| match p {
            Projection::Agg(func, field) => AggSpec { func: *func, field: field.clone() },
            Projection::Field(_) => unreachable!("checked by caller"),
        })
        .collect();

    let mut columns = vec!["time".to_string()];
    columns.extend(specs.iter().map(|s| s.func.column_name().to_string()));

    // Distinct aggregated fields share one accumulator per window.
    let mut fields: Vec<&str> = Vec::new();
    for spec in &specs {
        if !fields.contains(&spec.field.as_str()) {
            fields.push(&spec.field);
        }
    }
    let field_idx = |spec: &AggSpec| {
        fields.iter().position(|f| *f == spec.field).expect("collected above")
    };
    // Union of tier stat columns every aggregate on a field reads — the
    // tier fold skips the rest.
    let mut needed: Vec<Vec<&'static str>> = vec![Vec::new(); fields.len()];
    for spec in &specs {
        let fi = field_idx(spec);
        for stat in tier_stats_for(spec.func) {
            if !needed[fi].contains(stat) {
                needed[fi].push(stat);
            }
        }
    }

    let values = match sel.group_time {
        None => {
            let accs = stitched_accs(group, tier, &fields, &needed, start, end, None, tuning);
            let empty = Agg::default();
            let row_time = if start == i64::MIN { 0 } else { start };
            let mut row = vec![Json::Int(row_time)];
            let mut any = false;
            for spec in &specs {
                let agg = finalize(accs[field_idx(spec)].get(&0).unwrap_or(&empty), spec.func);
                if !agg.is_null() {
                    any = true;
                }
                row.push(agg);
            }
            if any {
                vec![row]
            } else {
                Vec::new()
            }
        }
        Some(window) => {
            // Window boundaries are aligned to the epoch (InfluxDB default).
            // Unbounded ranges clamp to the data extent — including the
            // tier extent, since raw below the retention cutoff survives
            // only as rollup rows (a tier row at window start `t` covers
            // points up to `t + tier_w`).
            let range_start = if start == i64::MIN {
                let mut lo: Option<i64> = None;
                for s in group {
                    for sp in &specs {
                        if let Some(t) = s.field(&sp.field).and_then(|c| c.first_ts()) {
                            lo = Some(lo.map_or(t, |m| m.min(t)));
                        }
                    }
                }
                if let Some(t) = tier {
                    for s in t.series {
                        for sp in &specs {
                            if let Some(ts) = s
                                .field(&stat_field(&sp.field, "count"))
                                .and_then(|c| c.first_ts())
                            {
                                lo = Some(lo.map_or(ts, |m| m.min(ts)));
                            }
                        }
                    }
                }
                lo.unwrap_or(0)
            } else {
                start
            };
            let range_end = if end == i64::MAX {
                let mut hi: Option<i64> = None;
                for s in group {
                    for sp in &specs {
                        if let Some(t) = s.field(&sp.field).and_then(|c| c.last_ts()) {
                            let t = t.saturating_add(1);
                            hi = Some(hi.map_or(t, |m| m.max(t)));
                        }
                    }
                }
                if let Some(t) = tier {
                    for s in t.series {
                        for sp in &specs {
                            if let Some(ts) = s
                                .field(&stat_field(&sp.field, "count"))
                                .and_then(|c| c.last_ts())
                            {
                                let e = ts.saturating_add(t.window_ns);
                                hi = Some(hi.map_or(e, |m| m.max(e)));
                            }
                        }
                    }
                }
                hi.unwrap_or(0)
            } else {
                end.min(now_ns.saturating_add(1).max(start))
            };
            let first_w = range_start.div_euclid(window) * window;
            let accs = if first_w < range_end {
                // One scan covers every emitted window: the first window is
                // clamped to `start` below, and the last reaches at most
                // `end` — exactly the per-window `[lo, hi)` bounds of the
                // emission loop.
                let last_w = (range_end - 1).div_euclid(window) * window;
                let scan_lo = first_w.max(start);
                let scan_hi = last_w.saturating_add(window).min(end);
                stitched_accs(group, tier, &fields, &needed, scan_lo, scan_hi, Some(window), tuning)
            } else {
                Vec::new()
            };
            let empty = Agg::default();
            let mut rows = Vec::new();
            let mut w_start = first_w;
            while w_start < range_end {
                let w_end = w_start.saturating_add(window);
                let mut row = vec![Json::Int(w_start)];
                let mut any = false;
                for spec in &specs {
                    let agg =
                        finalize(accs[field_idx(spec)].get(&w_start).unwrap_or(&empty), spec.func);
                    if !agg.is_null() {
                        any = true;
                    }
                    row.push(agg);
                }
                match (any, sel.fill) {
                    (true, _) => rows.push(row),
                    (false, Fill::Null) => rows.push(row),
                    (false, Fill::Zero) => {
                        let n = row.len();
                        let mut zero_row = vec![row[0].clone()];
                        zero_row.extend(std::iter::repeat_n(Json::Int(0), n - 1));
                        rows.push(zero_row);
                    }
                    (false, Fill::None) => {}
                }
                w_start = w_end;
            }
            rows
        }
    };

    ResultSeries { name: sel.measurement.clone(), tags: Vec::new(), columns, values }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Influx;
    use lms_util::{Clock, Timestamp};

    /// now = 1000s. Two hosts, 10 points each at 1s spacing starting t=900s.
    fn fixture() -> Influx {
        let ix = Influx::new(Clock::simulated(Timestamp::from_secs(1000)));
        let mut batch = String::new();
        for host in ["h1", "h2"] {
            for i in 0..10i64 {
                let ts = (900 + i) * 1_000_000_000;
                let v = if host == "h1" { i as f64 } else { 100.0 + i as f64 };
                batch.push_str(&format!("cpu,hostname={host} value={v},flag={}i {ts}\n", i % 2));
            }
        }
        batch.push_str("events,hostname=h1 text=\"job start\" 900000000000\n");
        ix.write_lines("lms", &batch, Default::default()).unwrap();
        ix
    }

    fn q(ix: &Influx, text: &str) -> QueryResult {
        ix.query("lms", text).unwrap()
    }

    #[test]
    fn raw_select_all_points() {
        let r = q(&fixture(), "SELECT value FROM cpu WHERE hostname = 'h1'");
        assert_eq!(r.series.len(), 1);
        let s = &r.series[0];
        assert_eq!(s.columns, vec!["time", "value"]);
        assert_eq!(s.values.len(), 10);
        assert_eq!(s.values[0][0].as_i64(), Some(900_000_000_000));
        assert_eq!(s.values[0][1].as_f64(), Some(0.0));
    }

    #[test]
    fn raw_select_multiple_fields_aligned() {
        let r = q(&fixture(), "SELECT value, flag FROM cpu WHERE hostname = 'h2' LIMIT 2");
        let s = &r.series[0];
        assert_eq!(s.columns, vec!["time", "value", "flag"]);
        assert_eq!(s.values.len(), 2);
        assert_eq!(s.values[0][1].as_f64(), Some(100.0));
        assert_eq!(s.values[0][2].as_i64(), Some(0));
    }

    #[test]
    fn time_range_filters() {
        let r = q(
            &fixture(),
            "SELECT value FROM cpu WHERE hostname = 'h1' AND time >= 905000000000 AND time < 908000000000",
        );
        assert_eq!(r.series[0].values.len(), 3);
    }

    #[test]
    fn relative_time_now_minus() {
        // now = 1000s; last point at 909s; window 95s back = from 905s.
        let r = q(
            &fixture(),
            "SELECT value FROM cpu WHERE hostname = 'h1' AND time >= now() - 95s",
        );
        assert_eq!(r.series[0].values.len(), 5); // 905..909
    }

    #[test]
    fn aggregate_whole_range() {
        let r = q(&fixture(), "SELECT mean(value), max(value), count(value) FROM cpu WHERE hostname = 'h1'");
        let row = &r.series[0].values[0];
        assert_eq!(r.series[0].columns, vec!["time", "mean", "max", "count"]);
        assert_eq!(row[1].as_f64(), Some(4.5));
        assert_eq!(row[2].as_f64(), Some(9.0));
        assert_eq!(row[3].as_i64(), Some(10));
    }

    #[test]
    fn aggregate_merges_series_without_group_by() {
        let r = q(&fixture(), "SELECT mean(value) FROM cpu");
        // (0..9 mean 4.5) and (100..109 mean 104.5) merged = 54.5
        assert_eq!(r.series[0].values[0][1].as_f64(), Some(54.5));
    }

    #[test]
    fn group_by_tag_splits_series() {
        let r = q(&fixture(), "SELECT mean(value) FROM cpu GROUP BY hostname");
        assert_eq!(r.series.len(), 2);
        let by_tag: Vec<(&str, f64)> = r
            .series
            .iter()
            .map(|s| (s.tags[0].1.as_str(), s.values[0][1].as_f64().unwrap()))
            .collect();
        assert_eq!(by_tag, vec![("h1", 4.5), ("h2", 104.5)]);
    }

    #[test]
    fn group_by_time_windows() {
        let r = q(
            &fixture(),
            "SELECT sum(value) FROM cpu WHERE hostname = 'h1' AND time >= 900000000000 AND time < 910000000000 GROUP BY time(5s)",
        );
        let s = &r.series[0];
        assert_eq!(s.values.len(), 2);
        assert_eq!(s.values[0][0].as_i64(), Some(900_000_000_000));
        assert_eq!(s.values[0][1].as_f64(), Some(0.0 + 1.0 + 2.0 + 3.0 + 4.0));
        assert_eq!(s.values[1][1].as_f64(), Some(5.0 + 6.0 + 7.0 + 8.0 + 9.0));
    }

    #[test]
    fn group_by_time_and_tag() {
        let r = q(
            &fixture(),
            "SELECT mean(value) FROM cpu WHERE time >= 900000000000 AND time < 910000000000 GROUP BY time(5s), hostname",
        );
        assert_eq!(r.series.len(), 2);
        assert!(r.series.iter().all(|s| s.values.len() == 2));
    }

    #[test]
    fn fill_policies() {
        // Points only in the first 10s of a 20s range.
        let r = q(
            &fixture(),
            "SELECT mean(value) FROM cpu WHERE hostname = 'h1' AND time >= 900000000000 AND time < 920000000000 GROUP BY time(5s) FILL(none)",
        );
        assert_eq!(r.series[0].values.len(), 2);
        let r = q(
            &fixture(),
            "SELECT mean(value) FROM cpu WHERE hostname = 'h1' AND time >= 900000000000 AND time < 920000000000 GROUP BY time(5s) FILL(null)",
        );
        assert_eq!(r.series[0].values.len(), 4);
        assert!(r.series[0].values[3][1].is_null());
        let r = q(
            &fixture(),
            "SELECT mean(value) FROM cpu WHERE hostname = 'h1' AND time >= 900000000000 AND time < 920000000000 GROUP BY time(5s) FILL(0)",
        );
        assert_eq!(r.series[0].values[3][1].as_f64(), Some(0.0));
    }

    #[test]
    fn order_desc_and_limit() {
        let r = q(
            &fixture(),
            "SELECT value FROM cpu WHERE hostname = 'h1' ORDER BY time DESC LIMIT 3",
        );
        let times: Vec<i64> = r.series[0].values.iter().map(|v| v[0].as_i64().unwrap()).collect();
        assert_eq!(times, vec![909_000_000_000, 908_000_000_000, 907_000_000_000]);
    }

    #[test]
    fn first_and_last() {
        let r = q(&fixture(), "SELECT first(value), last(value) FROM cpu WHERE hostname = 'h1'");
        let row = &r.series[0].values[0];
        assert_eq!(row[1].as_f64(), Some(0.0));
        assert_eq!(row[2].as_f64(), Some(9.0));
    }

    #[test]
    fn stddev() {
        let r = q(&fixture(), "SELECT stddev(value) FROM cpu WHERE hostname = 'h1'");
        let sd = r.series[0].values[0][1].as_f64().unwrap();
        // population stddev of 0..9 = sqrt(8.25) ≈ 2.8723
        assert!((sd - 2.8722813232690143).abs() < 1e-9);
    }

    #[test]
    fn string_events_queryable() {
        let r = q(&fixture(), "SELECT text FROM events");
        assert_eq!(r.series[0].values[0][1].as_str(), Some("job start"));
        // count works on strings; mean yields null → empty result row.
        let r = q(&fixture(), "SELECT count(text) FROM events");
        assert_eq!(r.series[0].values[0][1].as_i64(), Some(1));
        let r = q(&fixture(), "SELECT mean(text) FROM events");
        assert!(r.series.is_empty());
    }

    #[test]
    fn tag_ne_condition() {
        let r = q(&fixture(), "SELECT mean(value) FROM cpu WHERE hostname != 'h2'");
        assert_eq!(r.series[0].values[0][1].as_f64(), Some(4.5));
    }

    #[test]
    fn unknown_measurement_is_empty_not_error() {
        let r = q(&fixture(), "SELECT value FROM nothing_here");
        assert!(r.series.is_empty());
    }

    #[test]
    fn empty_time_range_is_empty() {
        let r = q(&fixture(), "SELECT value FROM cpu WHERE time >= 200 AND time < 100");
        assert!(r.series.is_empty());
    }

    #[test]
    fn mixing_raw_and_agg_rejected() {
        let ix = fixture();
        assert!(ix.query("lms", "SELECT value, mean(value) FROM cpu").is_err());
        assert!(ix.query("lms", "SELECT value FROM cpu GROUP BY time(5s)").is_err());
    }

    #[test]
    fn show_meta_queries() {
        let ix = fixture();
        let r = q(&ix, "SHOW MEASUREMENTS");
        let names: Vec<&str> =
            r.series[0].values.iter().map(|v| v[0].as_str().unwrap()).collect();
        assert_eq!(names, vec!["cpu", "events"]);
        let r = q(&ix, "SHOW TAG VALUES FROM cpu WITH KEY = hostname");
        let hosts: Vec<&str> =
            r.series[0].values.iter().map(|v| v[1].as_str().unwrap()).collect();
        assert_eq!(hosts, vec!["h1", "h2"]);
        let r = q(&ix, "SHOW FIELD KEYS FROM cpu");
        let fields: Vec<&str> =
            r.series[0].values.iter().map(|v| v[0].as_str().unwrap()).collect();
        assert_eq!(fields, vec!["flag", "value"]);
    }

    #[test]
    fn json_round_trip() {
        let r = q(&fixture(), "SELECT mean(value) FROM cpu GROUP BY hostname");
        let json = r.to_json();
        let back = QueryResult::from_json(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn from_json_surfaces_errors() {
        let j = Json::parse(r#"{"error":"database not found"}"#).unwrap();
        assert!(QueryResult::from_json(&j).is_err());
        let j = Json::parse(r#"{"results":[{"statement_id":0,"error":"boom"}]}"#).unwrap();
        assert!(QueryResult::from_json(&j).is_err());
    }

    #[test]
    fn multi_statement_answers_round_trip_by_statement_id() {
        let db = fixture();
        let results = vec![
            Ok(q(&db, "SELECT mean(value) FROM cpu GROUP BY hostname")),
            Err(Error::not_found("database `ghost`")),
            Ok(QueryResult::empty()),
            Err(Error::protocol("query: expected SELECT, SHOW or CREATE")),
            Err(Error::Remote { status: 503, message: "shed".into() }),
        ];
        let expect: Vec<Option<QueryResult>> =
            results.iter().map(|r| r.as_ref().ok().cloned()).collect();
        let messages: Vec<Option<String>> = results
            .iter()
            .map(|r| match r {
                Err(Error::Remote { message, .. }) => Some(message.clone()),
                Err(other) => Some(other.to_string()),
                Ok(_) => None,
            })
            .collect();
        let one_alone = expect[0].clone().unwrap().to_json();
        let (body, partial) = QueryResult::batch_body(results);
        assert!(!partial);
        let json = Json::parse(&body).unwrap();
        let ids: Vec<i64> = json
            .get("results")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|r| r.get("statement_id").and_then(Json::as_i64).unwrap())
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        let back = QueryResult::batch_from_json(json).unwrap();
        assert_eq!(back.len(), expect.len());
        assert_eq!(back[0].as_ref().ok(), expect[0].as_ref());
        assert_eq!(back[2].as_ref().unwrap(), &QueryResult::empty());
        // A failed statement comes back as what it would have been alone:
        // the error text under the status of the lone answer.
        for (i, status) in [(1, 404), (3, 400), (4, 503)] {
            match &back[i] {
                Err(Error::Remote { status: s, message }) => {
                    assert_eq!(*s, status);
                    assert_eq!(Some(message), messages[i].as_ref());
                }
                other => panic!("statement {i}: {other:?}"),
            }
        }
        // A one-statement answer is the one-element case of the same form,
        // byte for byte.
        let one = QueryResult::batch_from_json(one_alone.clone()).unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].as_ref().ok(), expect[0].as_ref());
        assert_eq!(QueryResult::batch_body([Ok(expect[0].clone().unwrap())]).0, one_alone.to_string());
        // `partial` is per request.
        let partial = QueryResult { partial: true, ..QueryResult::empty() };
        let (body, flagged) = QueryResult::batch_body([Ok(QueryResult::empty()), Ok(partial.clone())]);
        assert!(flagged);
        let back = QueryResult::batch_from_json(Json::parse(&body).unwrap()).unwrap();
        assert!(back.iter().all(|r| r.as_ref().unwrap().partial));
        assert_eq!(QueryResult::batch_body([Ok(partial.clone())]).0, partial.to_json().to_string());
    }
}
