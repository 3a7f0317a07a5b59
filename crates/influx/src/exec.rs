//! Query execution over [`Database`] storage, with InfluxDB-shaped results.
//!
//! A SELECT ([`Plan`]) runs in two steps. The **sources** read each
//! matching series: its raw rows, or per (field, window) an [`Agg`] from
//! block summaries, decoded points and rollup tier rows. The **fold**
//! groups the series by the GROUP BY key, merges their aggregates or rows
//! in tag-set order, and emits windows, `FILL` rows, finalized values,
//! `ORDER BY` and `LIMIT`. A cluster router runs the same fold over the
//! series every node read: a node answers the statement's partial form
//! with its sources, unfolded.

use crate::db::{Database, QueryTuning};
use crate::query::{AggFunc, Condition, Fill, Projection, Select, Statement, TimeValue};
use crate::storage::{Column, Series};
use lms_lineproto::FieldValue;
use lms_rollup::{agg_of_row, align_down, align_up, stat_field, stat_value, STATS};
use lms_tsm::Agg;
use lms_util::{Error, Json, Result};
use std::borrow::Cow;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
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

    /// A `SHOW` answer: one series `name` of string rows under `columns`.
    pub(crate) fn listing<R: IntoIterator<Item = String>>(
        name: &str,
        columns: &[&str],
        rows: impl IntoIterator<Item = R>,
    ) -> Self {
        let values = rows.into_iter().map(|row| row.into_iter().map(Json::str).collect()).collect();
        let columns = columns.iter().map(|c| c.to_string()).collect();
        let series = vec![ResultSeries { name: name.into(), tags: Vec::new(), columns, values }];
        QueryResult { series, partial: false }
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
    /// sent alone would have — the HTTP `status` of that lone answer, as
    /// [`crate::server::error_response`] maps the error.
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
                    let (status, message) = crate::server::error_parts(e);
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
/// `scope` holds tag predicates every statement is read under, as if each
/// named them (a user view's `user = '<name>'`; none for a database). With
/// a rollup tier context, aggregate SELECTs transparently resolve each time
/// range to the coarsest tier that satisfies the requested window and
/// stitch raw edges around it.
pub fn execute(
    stmt: &Statement,
    db: &Database,
    tiers: Option<&TierCtx>,
    scope: &[Condition],
    now_ns: i64,
) -> Result<QueryResult> {
    match stmt {
        Statement::Select(sel) if scope.is_empty() => select(sel, db, tiers, now_ns),
        Statement::Select(sel) => {
            let mut sel = sel.clone();
            sel.conditions.extend_from_slice(scope);
            select(&sel, db, tiers, now_ns)
        }
        Statement::ShowMeasurements(conditions) => {
            let names = db.measurement_names(&[conditions, scope].concat()).into_iter().map(|m| [m]);
            Ok(QueryResult::listing("measurements", &["name"], names))
        }
        Statement::ShowTagValues { measurement, key } => {
            let values = db.tag_values(measurement, key, scope);
            let rows = values.into_iter().map(|v| [key.clone(), v]);
            Ok(QueryResult::listing(measurement, &["key", "value"], rows))
        }
        Statement::ShowFieldKeys { measurement } => {
            let snapshot = db.series_where(measurement, scope);
            let mut fields: Vec<&str> = snapshot.iter().flat_map(|s| s.field_names()).collect();
            fields.sort_unstable();
            fields.dedup();
            let rows = fields.into_iter().map(|f| [f.to_string()]);
            Ok(QueryResult::listing(measurement, &["fieldKey"], rows))
        }
        // Storage-level statements are handled by `Influx::query` before
        // execution reaches a single database.
        Statement::CreateDatabase(_) | Statement::ShowDatabases => Ok(QueryResult::empty()),
    }
}

fn select(
    sel: &Select,
    db: &Database,
    tiers: Option<&TierCtx>,
    now_ns: i64,
) -> Result<QueryResult> {
    let plan = Plan::new(sel, now_ns)?;
    if plan.start >= plan.end {
        return Ok(QueryResult::empty());
    }
    let snapshot = db.series_where(&sel.measurement, &sel.conditions);
    // Only aggregates can be answered from rollups, and an output window
    // must be a whole multiple of the tier window. The first (coarsest)
    // eligible tier wins.
    let tier = tiers.filter(|_| !plan.aggs.is_empty()).and_then(|ctx| {
        let (w, tdb) =
            ctx.tiers.iter().find(|(w, _)| sel.group_time.is_none_or(|g| g % *w == 0))?;
        Some((*w, tdb.series_where(&sel.measurement, &sel.conditions), ctx.watermark))
    });
    let series = plan.sources(&snapshot, tier.as_ref(), db.query_tuning());
    Ok(if sel.partial { plan.partial_answer(series) } else { plan.fold(series) })
}

/// A series' tag set: sorted `(key, value)` pairs, its identity within a
/// measurement. A node's sources borrow it from the series they read.
pub type TagSet<'a> = Cow<'a, [(String, String)]>;

/// One column's aggregates by window start (`0` when unwindowed),
/// ascending, one per window with data.
pub type Windows = Vec<(i64, Agg)>;

/// What one series contributes to a SELECT.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesData {
    /// Per field of the plan, the series' window aggregates.
    Aggs(Vec<Windows>),
    /// The series' rows, `[time, field...]`, ascending by time.
    Rows(Vec<Vec<Json>>),
}

impl SeriesData {
    /// Folds in `other`, from a series later in tag-set order.
    fn merge(&mut self, other: SeriesData) {
        match (self, other) {
            (SeriesData::Aggs(accs), SeriesData::Aggs(more)) => {
                for (acc, more) in accs.iter_mut().zip(more) {
                    merge_windows(acc, more);
                }
            }
            (SeriesData::Rows(rows), SeriesData::Rows(more)) => rows.extend(more),
            _ => unreachable!("one plan reads one kind of series data"),
        }
    }
}

/// Merges `more`, later in series order, into `acc`, in place: series
/// sampled alike share their windows, and the windows `acc` lacks are
/// merged in by one stable sort of the two ascending runs.
fn merge_windows(acc: &mut Windows, more: Windows) {
    let mut lacking = Vec::new();
    let mut i = 0;
    for (w, later) in more {
        while acc.get(i).is_some_and(|&(k, _)| k < w) {
            i += 1;
        }
        match acc.get_mut(i) {
            Some((k, agg)) if *k == w => agg.merge(&later),
            _ => lacking.push((w, later)),
        }
    }
    if !lacking.is_empty() {
        acc.append(&mut lacking);
        acc.sort_by_key(|&(w, _)| w);
    }
}

/// The aggregate of window `w`, at or after every window so far, to add
/// into.
fn window_at(windows: &mut Windows, w: i64) -> &mut Agg {
    debug_assert!(windows.last().is_none_or(|&(last, _)| last <= w), "windows out of order");
    if windows.last().is_none_or(|&(last, _)| last != w) {
        windows.push((w, Agg::default()));
    }
    &mut windows.last_mut().expect("pushed above").1
}

/// The aggregate of window `w`, if it holds data.
fn window(windows: &Windows, w: i64) -> Option<&Agg> {
    windows.binary_search_by_key(&w, |&(k, _)| k).ok().map(|i| &windows[i].1)
}

/// A checked SELECT with its range resolved: what the sources read and
/// how the fold combines it. A node plans, reads and folds its own series.
/// The cluster router plans the same statement, sends its
/// [partial form](Self::partial_query), reads every node's
/// [partial answer](Self::partial_answer) back as series data
/// ([`read_partial`](Self::read_partial)) and runs the same
/// [`fold`](Self::fold).
#[derive(Debug, Clone)]
pub struct Plan {
    sel: Select,
    /// The fields read, in first-use order: every projected field of a raw
    /// select, each aggregated field once.
    fields: Vec<String>,
    /// Per projection of an aggregate select, its function and the index
    /// of its field; empty for a raw select.
    aggs: Vec<(AggFunc, usize)>,
    /// Per field, the tier-row stats its aggregates read.
    needed: Vec<Vec<&'static str>>,
    /// The resolved range `[start, end)`.
    start: i64,
    end: i64,
}

impl Plan {
    /// Checks `sel` and resolves its range against `now_ns`. A windowed
    /// aggregate with a bounded end stops at `now`: no window after it is
    /// emitted. The partial form is not cut again — its bounds were fixed
    /// by the router that wrote it.
    pub fn new(sel: &Select, now_ns: i64) -> Result<Plan> {
        let raw = sel.projections.iter().all(|p| matches!(p, Projection::Field(_)));
        if !raw && sel.projections.iter().any(|p| matches!(p, Projection::Field(_))) {
            return Err(Error::invalid("query: cannot mix aggregated and raw projections"));
        }
        if raw && sel.group_time.is_some() {
            return Err(Error::invalid("query: GROUP BY time requires aggregations"));
        }
        let mut fields: Vec<String> = Vec::new();
        let mut aggs = Vec::new();
        for p in &sel.projections {
            match p {
                Projection::Field(f) => fields.push(f.clone()),
                Projection::Agg(func, f) => {
                    let fi = fields.iter().position(|x| x == f).unwrap_or_else(|| {
                        fields.push(f.clone());
                        fields.len() - 1
                    });
                    aggs.push((*func, fi));
                }
            }
        }
        let mut needed = vec![Vec::new(); fields.len()];
        for &(func, fi) in &aggs {
            for stat in tier_stats_for(func) {
                if !needed[fi].contains(stat) {
                    needed[fi].push(*stat);
                }
            }
        }
        let (mut start, mut end) = (i64::MIN, i64::MAX);
        for c in &sel.conditions {
            match c {
                Condition::TimeGe(v) => start = start.max(v.resolve(now_ns)),
                Condition::TimeGt(v) => start = start.max(v.resolve(now_ns).saturating_add(1)),
                Condition::TimeLe(v) => end = end.min(v.resolve(now_ns).saturating_add(1)),
                Condition::TimeLt(v) => end = end.min(v.resolve(now_ns)),
                _ => {}
            }
        }
        if sel.group_time.is_some() && end != i64::MAX && !sel.partial {
            end = end.min(now_ns.saturating_add(1));
        }
        Ok(Plan { sel: sel.clone(), fields, aggs, needed, start, end })
    }

    /// The statement in its partial form, as the router sends it: the
    /// resolved range as absolute bounds, and the `PARTIAL` marker.
    pub fn partial_query(&self) -> String {
        let mut sel = self.sel.clone();
        sel.conditions.retain(Condition::is_tag);
        if self.start != i64::MIN {
            sel.conditions.push(Condition::TimeGe(TimeValue::Abs(self.start)));
        }
        if self.end != i64::MAX {
            sel.conditions.push(Condition::TimeLt(TimeValue::Abs(self.end)));
        }
        sel.partial = true;
        sel.render()
    }

    /// The sources: every series of the snapshots (those the tag
    /// predicates match), in tag-set order, with what it holds in range. A
    /// raw select reads the series' rows. An aggregate reads, per field,
    /// window aggregates from block summaries and decoded points — and,
    /// where `tier` (its window, series and the base watermark) covers
    /// whole windows of the range, from the tier's rows, the raw edges
    /// scanned around them.
    fn sources<'a>(
        &self,
        snapshot: &'a [Arc<Series>],
        tier: Option<&'a (i64, Vec<Arc<Series>>, i64)>,
        tuning: QueryTuning,
    ) -> Vec<(TagSet<'a>, SeriesData)> {
        // Base and tier series, sorted by tag set, a base series before
        // the tier series that carries its tag set. A series may survive
        // only in a tier (raw evicted by retention). The sort is the stable
        // one: it merges the runs that first-write order already holds
        // (`h1`..`h9`, `h10`..`h99`) in linear time.
        let tier_series = tier.map(|(_, series, _)| series.as_slice()).unwrap_or_default();
        let mut all: Vec<(&Series, bool)> = snapshot
            .iter()
            .map(|s| (s.as_ref(), false))
            .chain(tier_series.iter().map(|s| (s.as_ref(), true)))
            .collect();
        all.sort_by(|(a, a_tier), (b, b_tier)| {
            a.tags().cmp(b.tags()).then(a_tier.cmp(b_tier))
        });
        let by_tags = all.chunk_by(|(a, _), (b, _)| a.tags() == b.tags()).map(|same| {
            let base = same.iter().find(|(_, tier)| !tier).map(|&(s, _)| s);
            let tier = same.iter().find(|(_, tier)| *tier).map(|&(s, _)| s);
            (same[0].0.tags(), base, tier)
        });
        if self.aggs.is_empty() {
            let rows = |(tags, base, _): (_, Option<&Series>, _)| {
                Some((Cow::Borrowed(tags), SeriesData::Rows(self.raw_rows(base?))))
            };
            return by_tags.filter_map(rows).collect();
        }

        // One job per (series, field) column.
        let by_tags: Vec<_> = by_tags.collect();
        let mut jobs: Vec<(usize, Option<&Column>, Option<TierPart>)> = Vec::new();
        for &(_, base, tier_series) in &by_tags {
            let part = tier_series.zip(tier).map(|(series, (window_ns, _, watermark))| {
                TierPart { series, window_ns: *window_ns, cap: tier_cap(base, *watermark) }
            });
            for (fi, field) in self.fields.iter().enumerate() {
                jobs.push((fi, base.and_then(|s| s.field(field)), part));
            }
        }
        let parallel = tuning.parallel_scan
            && jobs.len() > 1
            && jobs
                .iter()
                .filter_map(|&(_, col, _)| col)
                .map(|c| c.sealed_points_in(self.start, self.end))
                .sum::<usize>()
                >= PARALLEL_THRESHOLD;
        let mut scanned = par_map(&jobs, parallel, |&(fi, col, tier)| {
            self.column_source(fi, col, tier.as_ref(), tuning.use_summaries)
        })
        .into_iter();
        by_tags
            .into_iter()
            .map(|(tags, _, _)| {
                let accs = scanned.by_ref().take(self.fields.len()).collect();
                (Cow::Borrowed(tags), SeriesData::Aggs(accs))
            })
            .collect()
    }

    /// One series' rows in range: a row per instant at which any projected
    /// field has a value, `null` in the fields that have none.
    fn raw_rows(&self, series: &Series) -> Vec<Vec<Json>> {
        let mut rows: BTreeMap<i64, Vec<Json>> = BTreeMap::new();
        for (fi, field) in self.fields.iter().enumerate() {
            let Some(col) = series.field(field) else { continue };
            for (ts, value) in col.points_in(self.start, self.end) {
                rows.entry(ts).or_insert_with(|| {
                    let mut row = vec![Json::Null; self.fields.len() + 1];
                    row[0] = Json::Int(ts);
                    row
                })[fi + 1] = json_of(&value);
            }
        }
        rows.into_values().collect()
    }

    /// One column's window aggregates over the range: a raw scan or, when
    /// a tier covers whole tier windows `[a, b)` of it, raw scans of the
    /// two edges merged with a fold of the tier rows in between — exact,
    /// because a tier row is its window's complete [`Agg`] and the three
    /// sub-ranges partition the visible timestamps.
    fn column_source(
        &self,
        fi: usize,
        col: Option<&Column>,
        tier: Option<&TierPart>,
        use_summaries: bool,
    ) -> Windows {
        let window = self.sel.group_time;
        let scan = |lo: i64, hi: i64| {
            col.map(|c| column_accs(c, lo, hi, window, use_summaries)).unwrap_or_default()
        };
        if let Some(t) = tier {
            // An unbounded start needs no alignment: there is no raw left
            // edge below the first tier row.
            let a = match self.start {
                i64::MIN => i64::MIN,
                start => align_up(start, t.window_ns),
            };
            let b = align_down(self.end.min(t.cap), t.window_ns);
            if a < b {
                let mut accs = scan(self.start, a);
                tier_fold(t.series, &self.fields[fi], &self.needed[fi], a, b, window, &mut accs);
                merge_windows(&mut accs, scan(b, self.end));
                return accs;
            }
        }
        scan(self.start, self.end)
    }

    /// The fold: groups `series` — each matching series' contribution, in
    /// tag-set order — by the GROUP BY key, merges each group's aggregates
    /// or rows in that order, and emits its windows, FILL rows, finalized
    /// values, ORDER BY and LIMIT. A group with nothing to emit vanishes.
    pub fn fold<'a>(
        &self,
        series: impl IntoIterator<Item = (TagSet<'a>, SeriesData)>,
    ) -> QueryResult {
        let mut groups: BTreeMap<Vec<(String, String)>, SeriesData> = BTreeMap::new();
        for (tags, data) in series {
            let key = if self.sel.group_all {
                tags.into_owned()
            } else {
                let value = |t: &str| tags.iter().find(|(k, _)| k == t).map(|(_, v)| v.clone());
                let key = self.sel.group_tags.iter();
                key.map(|t| (t.clone(), value(t).unwrap_or_default())).collect()
            };
            match groups.entry(key) {
                Entry::Vacant(slot) => {
                    slot.insert(data);
                }
                Entry::Occupied(mut slot) => slot.get_mut().merge(data),
            }
        }
        let columns = if self.aggs.is_empty() {
            self.raw_columns()
        } else {
            let names = self.aggs.iter().map(|(func, _)| func.column_name().to_string());
            std::iter::once("time".to_string()).chain(names).collect()
        };
        let mut out = QueryResult::empty();
        for (tags, data) in groups {
            let mut values = match data {
                SeriesData::Aggs(accs) => self.emit(&accs),
                SeriesData::Rows(mut rows) => {
                    // Stable: equal timestamps keep tag-set order.
                    rows.sort_by_key(|row| row.first().and_then(Json::as_i64));
                    rows
                }
            };
            if values.is_empty() {
                continue;
            }
            self.order_and_limit(&mut values);
            out.series.push(ResultSeries {
                name: self.sel.measurement.clone(),
                tags,
                columns: columns.clone(),
                values,
            });
        }
        out
    }

    /// One group's rows from its merged window aggregates. Unwindowed, the
    /// group is one row at the range start (`0` when unbounded), if any
    /// value is not null. Windows are epoch-aligned, and an unbounded side
    /// of the range ends at the group's first or last window with data;
    /// `FILL(null|0)` emits the empty windows in between.
    fn emit(&self, accs: &[Windows]) -> Vec<Vec<Json>> {
        let empty = Agg::default();
        let finalized = |w: i64| -> Option<Vec<Json>> {
            let cells: Vec<Json> = self
                .aggs
                .iter()
                .map(|&(func, fi)| finalize(window(&accs[fi], w).unwrap_or(&empty), func))
                .collect();
            cells.iter().any(|c| !c.is_null()).then_some(cells)
        };
        let row = |time: i64, cells: Vec<Json>| -> Vec<Json> {
            std::iter::once(Json::Int(time)).chain(cells).collect()
        };
        let Some(width) = self.sel.group_time else {
            let time = if self.start == i64::MIN { 0 } else { self.start };
            return finalized(0).map(|cells| row(time, cells)).into_iter().collect();
        };
        let with_data = window_keys(accs);
        let first = match self.start {
            i64::MIN => with_data.first().copied(),
            start => Some(align_down(start, width)),
        };
        let end = match self.end {
            i64::MAX => with_data.last().map(|w| w.saturating_add(width)),
            end => Some(end),
        };
        let (Some(first), Some(end)) = (first, end) else { return Vec::new() };
        if first >= end {
            return Vec::new();
        }
        let n = self.aggs.len();
        let windows: Vec<i64> = match self.sel.fill {
            Fill::None => with_data.into_iter().filter(|w| (first..end).contains(w)).collect(),
            Fill::Null | Fill::Zero => (first..end).step_by(width as usize).collect(),
        };
        windows
            .into_iter()
            .filter_map(|w| match (finalized(w), self.sel.fill) {
                (Some(cells), _) => Some(row(w, cells)),
                (None, Fill::None) => None,
                (None, Fill::Null) => Some(row(w, vec![Json::Null; n])),
                (None, Fill::Zero) => Some(row(w, vec![Json::Int(0); n])),
            })
            .collect()
    }

    fn raw_columns(&self) -> Vec<String> {
        std::iter::once("time".to_string()).chain(self.fields.iter().cloned()).collect()
    }

    fn order_and_limit(&self, values: &mut Vec<Vec<Json>>) {
        if self.sel.order_desc {
            values.reverse();
        }
        if let Some(limit) = self.sel.limit {
            values.truncate(limit);
        }
    }

    /// The stat columns of an aggregate's partial answer: per field, the
    /// tier-row stats its functions read, in [`STATS`] order.
    fn stat_slots(&self) -> impl Iterator<Item = (usize, &'static str)> + '_ {
        self.needed.iter().enumerate().flat_map(|(fi, needed)| {
            STATS.into_iter().filter(|stat| needed.contains(stat)).map(move |stat| (fi, stat))
        })
    }

    /// The answer to the partial form: the rows of every matching series,
    /// in tag-set order, in one result series. A raw select's rows are the
    /// series' own; an aggregate's are one per window with data, holding
    /// the window's [`Agg`] per field as the tier-row stats its functions
    /// read (`v__count`, `v__sum`, …). Each series' rows follow a header
    /// row `[null, tag values…]`, its values under the tag keys that end
    /// `columns` (null where the series lacks the tag). A series with no
    /// rows is left out unless `FILL` fills its group's windows: one node
    /// answers that group. ORDER BY and LIMIT apply per series: a group's
    /// first n rows or windows lie within its series' first n.
    pub fn partial_answer(&self, series: Vec<(TagSet, SeriesData)>) -> QueryResult {
        let keys: BTreeSet<&str> =
            series.iter().flat_map(|(tags, _)| tags.iter().map(|(k, _)| k.as_str())).collect();
        let keys: Vec<String> = keys.into_iter().map(str::to_string).collect();
        let slots: Vec<(usize, &str)> = self.stat_slots().collect();
        let fills = self.sel.group_time.is_some() && self.sel.fill != Fill::None;
        let mut values = Vec::new();
        for (tags, data) in series {
            let mut rows = match data {
                SeriesData::Rows(rows) => rows,
                SeriesData::Aggs(accs) => {
                    let stat = |w: i64, &(fi, stat): &(usize, &str)| {
                        let value = window(&accs[fi], w).and_then(|agg| stat_value(agg, stat));
                        value.map_or(Json::Null, |v| json_of(&v))
                    };
                    let row = |w| {
                        let stats = slots.iter().map(move |s| stat(w, s));
                        std::iter::once(Json::Int(w)).chain(stats).collect()
                    };
                    window_keys(&accs).into_iter().map(row).collect()
                }
            };
            if rows.is_empty() && !fills {
                continue;
            }
            self.order_and_limit(&mut rows);
            let value = |key: &String| {
                let found = tags.iter().find(|(k, _)| k == key);
                found.map_or(Json::Null, |(_, v)| Json::str(v.as_str()))
            };
            values.push(std::iter::once(Json::Null).chain(keys.iter().map(value)).collect());
            values.append(&mut rows);
        }
        if values.is_empty() {
            return QueryResult::empty();
        }
        let mut columns = if self.aggs.is_empty() {
            self.raw_columns()
        } else {
            let stats = slots.iter().map(|&(fi, stat)| stat_field(&self.fields[fi], stat));
            std::iter::once("time".to_string()).chain(stats).collect()
        };
        columns.extend(keys);
        let answer =
            ResultSeries { name: self.sel.measurement.clone(), tags: Vec::new(), columns, values };
        QueryResult { series: vec![answer], partial: false }
    }

    /// Reads the nodes' [partial answers](Self::partial_answer) back as
    /// series data, in tag-set order, ready to [`fold`](Self::fold). A
    /// series is wholly stored on each of its R owners, so replica copies
    /// of a row — same series, same window or timestamp — are one row: the
    /// later part's wins whole, and divergent replicas never mix.
    pub fn read_partial(&self, parts: Vec<QueryResult>) -> Vec<(TagSet<'static>, SeriesData)> {
        let width = 1 + if self.aggs.is_empty() {
            self.fields.len()
        } else {
            self.stat_slots().count()
        };
        type Rows = BTreeMap<i64, Vec<Json>>;
        let mut series: BTreeMap<Vec<(String, String)>, Rows> = BTreeMap::new();
        for answer in parts.into_iter().flat_map(|part| part.series) {
            let keys = answer.columns.get(width..).unwrap_or_default();
            let mut rows: Option<&mut Rows> = None;
            for row in answer.values {
                if row.first().is_some_and(Json::is_null) {
                    let values = row.into_iter().skip(1);
                    let tags = keys.iter().zip(values).filter_map(|(k, v)| match v {
                        Json::Str(v) => Some((k.clone(), v)),
                        _ => None,
                    });
                    rows = Some(series.entry(tags.collect()).or_default());
                } else if let (Some(rows), Some(ts)) =
                    (rows.as_mut(), row.first().and_then(Json::as_i64))
                {
                    rows.insert(ts, row);
                }
            }
        }
        let slots: Vec<(usize, &str)> = self.stat_slots().collect();
        let read = |rows: Rows| {
            if self.aggs.is_empty() {
                return SeriesData::Rows(rows.into_values().collect());
            }
            let mut accs = vec![Vec::new(); self.fields.len()];
            for (w, row) in rows {
                for (fi, acc) in accs.iter_mut().enumerate() {
                    let cells = slots.iter().zip(&row[1..]).filter(|((f, _), _)| *f == fi);
                    let stats =
                        cells.filter_map(|(&(_, stat), cell)| Some((stat, field_value(cell)?)));
                    let agg = agg_of_row(w, stats);
                    if agg.count > 0 {
                        acc.push((w, agg));
                    }
                }
            }
            SeriesData::Aggs(accs)
        };
        series.into_iter().map(|(tags, rows)| (Cow::Owned(tags), read(rows))).collect()
    }
}

/// The windows, of any field, that hold data, ascending.
fn window_keys(accs: &[Windows]) -> Vec<i64> {
    let mut keys: Vec<i64> = accs.iter().flat_map(|acc| acc.iter().map(|&(w, _)| w)).collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// The inverse of [`json_of`]; `None` for `null`.
fn field_value(cell: &Json) -> Option<FieldValue> {
    Some(match cell {
        Json::Int(i) => FieldValue::Integer(*i),
        Json::Num(x) => FieldValue::Float(*x),
        Json::Bool(b) => FieldValue::Boolean(*b),
        Json::Str(s) => FieldValue::Text(s.clone()),
        _ => return None,
    })
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
) -> Windows {
    let scan = col.scan(start, end, window, use_summaries);
    let key = |ts: i64| match window {
        Some(w) => ts.div_euclid(w) * w,
        None => 0,
    };
    let mut accs = Windows::new();
    let mut summaries =
        scan.summarized.into_iter().filter_map(|b| Some((b.min_ts, b.summary()?))).peekable();
    for (ts, value) in scan.residual {
        while let Some((t, summary)) = summaries.next_if(|&(t, _)| t < ts) {
            window_at(&mut accs, key(t)).merge(summary);
        }
        window_at(&mut accs, key(ts)).add(ts, &value);
    }
    for (t, summary) in summaries {
        window_at(&mut accs, key(t)).merge(summary);
    }
    accs
}

/// Minimum sealed points overlapping the range (an upper bound on the
/// decode work, from the block time index) before the column scans fan
/// out to threads: below this, spawn overhead beats the decode savings.
const PARALLEL_THRESHOLD: usize = 64 * 1024;

/// `items` mapped by `f`, in order — over a small pool of scoped threads
/// when `parallel`, so the result never depends on scheduling.
fn par_map<T: Sync, R: Send>(items: &[T], parallel: bool, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    if !parallel {
        return items.iter().map(f).collect();
    }
    let workers =
        std::thread::available_parallelism().map_or(4, |n| n.get()).min(items.len()).min(8);
    let mut out: Vec<Option<R>> = items.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let mine = items.iter().enumerate().skip(w).step_by(workers);
                    mine.map(|(i, item)| (i, f(item))).collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, r) in handle.join().expect("a scan worker panicked") {
                out[i] = Some(r);
            }
        }
    });
    out.into_iter().map(|r| r.expect("every item is mapped by one worker")).collect()
}

/// One series' rollup tier: its tier series, the tier window, and the cap
/// below which the tier is authoritative.
#[derive(Clone, Copy)]
struct TierPart<'a> {
    series: &'a Series,
    window_ns: i64,
    /// Timestamps `< cap` may be served from the tier; `[cap, ...)` must
    /// come from raw.
    cap: i64,
}

/// The tier-serve cap of one series: the base watermark, pulled down to
/// the series' earliest head (unflushed) point — head points may have
/// arrived after the last rollup pass.
fn tier_cap(base: Option<&Series>, watermark: i64) -> i64 {
    base.into_iter()
        .flat_map(|s| s.fields())
        .filter_map(|(_, col)| col.head().first().map(|&(ts, _)| ts))
        .fold(watermark, i64::min)
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

/// Folds `field`'s rows of tier series `tier` with window starts in
/// `[a, b)` into `accs`, which holds nothing after `a`. Each row is the
/// [`Agg`] a raw decode of its
/// window would have produced, `first`/`last` at their original
/// timestamps, so tie-breaking matches a full raw scan. Only the stat
/// columns in `needed` are decoded — the rest cannot reach the finalized
/// output of the requested aggregates.
fn tier_fold(
    tier: &Series,
    field: &str,
    needed: &[&'static str],
    a: i64,
    b: i64,
    out_window: Option<i64>,
    accs: &mut Windows,
) {
    let key = |ts: i64| match out_window {
        Some(w) => ts.div_euclid(w) * w,
        None => 0,
    };
    let Some(count_col) = tier.field(&stat_field(field, "count")) else { return };
    // Every rollup row writes `count`, so its ordered scan is the row
    // spine; the other needed stat scans advance in lockstep (their
    // timestamp sets are subsets of the spine's), avoiding a map lookup
    // per decoded stat point.
    let mut others: Vec<(&str, _)> = Vec::new();
    for stat in STATS {
        if stat == "count" || !needed.contains(&stat) {
            continue;
        }
        if let Some(col) = tier.field(&stat_field(field, stat)) {
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
            window_at(accs, key(ts)).merge(&acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Influx;
    use lms_util::{Clock, Timestamp};

    /// now = 1000s. Two hosts, 10 points each at 1s spacing starting t=900s.
    fn fixture() -> Influx {
        let ix = Influx::new(Clock::simulated(Timestamp::from_secs(1000))).unwrap();
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
    fn a_tag_set_answers_whatever_its_order_and_one_value_as_equality() {
        let ix = fixture();
        ix.write_lines("lms", "cpu,hostname=h3 value=1000 905000000000", Default::default()).unwrap();
        for (set, eq) in [
            ("(hostname = 'h2' OR hostname = 'h1')", "hostname != 'h3'"),
            ("(hostname = 'h1' OR hostname = 'h2' OR hostname = 'h9')", "hostname != 'h3'"),
            ("(hostname = 'h2')", "hostname = 'h2'"),
        ] {
            for tail in ["", " GROUP BY hostname", " GROUP BY time(5s), hostname FILL(0)"] {
                let want = q(&ix, &format!("SELECT mean(value), count(flag) FROM cpu WHERE {eq}{tail}"));
                let got = q(&ix, &format!("SELECT mean(value), count(flag) FROM cpu WHERE {set}{tail}"));
                assert_eq!(got, want, "{set}{tail}");
                assert!(!got.series.is_empty());
            }
            let raw = |w: &str| q(&ix, &format!("SELECT value FROM cpu WHERE {w} GROUP BY *"));
            assert_eq!(raw(set), raw(eq), "{set}");
        }
        let names = |w: &str| q(&ix, &format!("SHOW MEASUREMENTS WHERE {w}")).series;
        assert_eq!(names("(hostname = 'h3' OR hostname = 'h9')")[0].values, vec![vec![Json::str("cpu")]]);
        assert!(names("(hostname = 'h9')").iter().all(|s| s.values.is_empty()));
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
