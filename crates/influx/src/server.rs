//! The InfluxDB-compatible HTTP API. The read routes and the health
//! probes exist once, here, over [`ReadApi`]: a database node
//! ([`InfluxServer`], over [`Influx`]) and the metrics router
//! (`lms_router::RouterServer`) each match only their own routes and hand
//! every other request to [`serve`], so a collector or a dashboard can
//! point at either and get the same answers.
//!
//! | endpoint | behaviour |
//! |---|---|
//! | `GET /ping` | `204` with `X-Influxdb-Version` header |
//! | `GET/POST /query?db=<db>&q=<stmt>` | InfluxDB-shaped JSON result; `q` may instead be a form field of a POST body; `db` may be left out where the statement needs none (`SHOW DATABASES`, `CREATE DATABASE`) |
//! | `POST /query?db=<db>` body `q=<stmt>;<stmt>;…` | each statement run in order, answered as `results[]` by `statement_id`; a failed one carries `error` + `status` in its element and the rest still answer (`200`) |
//! | `GET/POST /query_range?db=<db>&q=<stmt>&start=<ns>&end=<ns>&step=<dur>` | SELECT over an explicit `[start, end)` range, bucketed to `step`; times are nanoseconds or durations (`90s`, `15m`) |
//! | `GET /metrics?db=<db>` | sorted measurement names |
//! | `GET /labels/<measurement>?db=<db>` | sorted tag keys of one measurement |
//! | `GET /health/live` | `204` while the process serves |
//! | `GET /health/ready` | `204` when ready; otherwise `503` with `{"ready": false, "storage_degraded": …, "storage_reason": …, "workers": [{"name", "health", "restarts"}]}`: `storage_degraded` only where the backend has storage, `storage_reason` (the failed I/O's text) only while it is degraded; a degraded node is ready again once the storage worker's heal probe succeeds |
//!
//! An answer read from fewer replicas than hold its series carries
//! `X-Lms-Partial: true` (and `"partial": true` in its JSON). Every error
//! is `{"error": …}` under one mapping, [`error_response`]: a missing
//! database is `404`, a remote node's status passes through, a transient
//! failure is `503` with `Retry-After`, and anything else (a malformed
//! statement or parameter, a missing `db`) is `400`.

use crate::db::{Influx, WriteOptions};
use crate::exec::QueryResult;
use lms_http::{Request, Response, Server, ServerConfig};
use lms_lineproto::Precision;
use lms_tsm::Health;
use lms_util::{Error, Json, Result, WorkerReport};
use std::borrow::Cow;
use std::net::{SocketAddr, ToSocketAddrs};

/// What the shared routes read: a database node ([`Influx`]) or the
/// metrics router, which scatter-gathers the same calls across its nodes.
pub trait ReadApi {
    /// Runs `stmts` against `db`: one outcome per statement, in order,
    /// which may be computed as they are taken. A result some replica
    /// could not contribute to is flagged [`QueryResult::partial`]; the
    /// outer error fails the whole request.
    fn statements<'a>(
        &'a self,
        db: &'a str,
        stmts: &'a [&'a str],
    ) -> Result<impl Iterator<Item = Result<QueryResult>> + 'a>;

    /// A SELECT over the half-open `[start, end)` ns range, bucketed to
    /// `step` ns windows.
    fn query_range(
        &self,
        db: &str,
        q: &str,
        start: i64,
        end: i64,
        step: Option<i64>,
    ) -> Result<QueryResult>;

    /// Sorted measurement names of `db`.
    fn metrics(&self, db: &str) -> Result<Vec<String>>;

    /// Sorted tag keys of one measurement of `db`.
    fn labels(&self, db: &str, measurement: &str) -> Result<Vec<String>>;

    /// What `/health/ready` reports.
    fn readiness(&self) -> Readiness;
}

/// A backend's readiness, with the detail a `503` reports.
pub struct Readiness {
    /// Every supervised worker is healthy or cleanly stopped.
    pub workers_ready: bool,
    /// The supervised workers' reports.
    pub workers: Vec<WorkerReport>,
    /// The storage health; `None` for a backend without storage of its
    /// own.
    pub storage: Option<Health>,
}

impl ReadApi for Influx {
    fn statements<'a>(
        &'a self,
        db: &'a str,
        stmts: &'a [&'a str],
    ) -> Result<impl Iterator<Item = Result<QueryResult>> + 'a> {
        Ok(stmts.iter().map(move |stmt| self.query(db, stmt)))
    }

    fn query_range(
        &self,
        db: &str,
        q: &str,
        start: i64,
        end: i64,
        step: Option<i64>,
    ) -> Result<QueryResult> {
        Influx::query_range(self, db, q, start, end, step)
    }

    fn metrics(&self, db: &str) -> Result<Vec<String>> {
        self.measurements(db)
    }

    fn labels(&self, db: &str, measurement: &str) -> Result<Vec<String>> {
        self.tag_keys(db, measurement)
    }

    fn readiness(&self) -> Readiness {
        Readiness {
            workers_ready: self.workers_ready(),
            workers: self.worker_reports(),
            storage: Some(self.storage_health()),
        }
    }
}

/// Answers a request to one of the shared routes from `api`, and any
/// other request with `404`.
pub fn serve(api: &impl ReadApi, req: &Request) -> Response {
    let answer = match (req.method.as_str(), req.path.as_str()) {
        ("GET" | "HEAD", "/ping") => {
            let mut r = Response::no_content();
            r.headers.push(("x-influxdb-version".into(), "lms-influx-0.1".into()));
            return r;
        }
        ("GET" | "POST", "/query") => query(api, req),
        ("GET" | "POST", "/query_range") => query_range(api, req),
        ("GET", "/metrics") => {
            db_param(req).and_then(|db| api.metrics(db)).map(|names| listing("metrics", names))
        }
        ("GET", path) if path.starts_with("/labels/") => {
            let measurement = &path["/labels/".len()..];
            db_param(req)
                .and_then(|db| api.labels(db, measurement))
                .map(|keys| listing("labels", keys))
        }
        ("GET" | "HEAD", "/health/live") => return Response::no_content(),
        ("GET" | "HEAD", "/health/ready") => return ready(api.readiness()),
        _ => return Response::not_found("unknown endpoint"),
    };
    answer.unwrap_or_else(error_response)
}

fn query(api: &impl ReadApi, req: &Request) -> Result<Response> {
    let q = query_text(req).ok_or_else(|| Error::protocol("missing `q` parameter"))?;
    let db = req.query_param("db").unwrap_or("");
    let stmts = crate::query::split_statements(&q);
    if stmts.len() > 1 {
        let (body, partial) = QueryResult::batch_body(api.statements(db, &stmts)?);
        return Ok(query_answer(body, partial));
    }
    let result = api.statements(db, &[&*q])?.next().expect("one outcome per statement")?;
    let partial = result.partial;
    Ok(query_answer(result.into_json().to_string(), partial))
}

fn query_range(api: &impl ReadApi, req: &Request) -> Result<Response> {
    let q = query_text(req).ok_or_else(|| Error::protocol("missing `q` parameter"))?;
    let db = db_param(req)?;
    let (start, end) = time_range(req)?;
    let result = api.query_range(db, &q, start, end, parse_ns(req, "step")?)?;
    let partial = result.partial;
    Ok(query_answer(result.into_json().to_string(), partial))
}

/// A `200` query answer, flagged `X-Lms-Partial` when some replica could
/// not contribute to it.
fn query_answer(body: String, partial: bool) -> Response {
    let mut resp = Response::json(200, body);
    if partial {
        resp.headers.push(("x-lms-partial".into(), "true".into()));
    }
    resp
}

fn listing(key: &str, names: Vec<String>) -> Response {
    let names = Json::Arr(names.into_iter().map(Json::Str).collect());
    Response::json(200, Json::obj([(key, names)]).to_string())
}

fn ready(readiness: Readiness) -> Response {
    let Readiness { workers_ready, workers, storage } = readiness;
    if workers_ready && storage.as_ref().is_none_or(|h| *h == Health::Ok) {
        return Response::no_content();
    }
    let workers = Json::arr(workers.into_iter().map(|w| {
        Json::obj([
            ("name", Json::Str(w.name)),
            ("health", Json::str(w.health.as_str())),
            ("restarts", Json::from(w.restarts as i64)),
        ])
    }));
    let mut body = vec![("ready".to_string(), Json::Bool(false))];
    body.extend(storage.map(storage_fields).into_iter().flatten());
    body.push(("workers".to_string(), workers));
    Response::json(503, Json::Obj(body).to_string())
}

/// `storage_degraded`, and with a degraded one `storage_reason`: the
/// fields `/health/ready` and `/stats` report storage health in.
fn storage_fields(health: Health) -> Vec<(String, Json)> {
    match health {
        Health::Ok => vec![("storage_degraded".into(), Json::Bool(false))],
        Health::Degraded { reason } => vec![
            ("storage_degraded".into(), Json::Bool(true)),
            ("storage_reason".into(), Json::Str(reason)),
        ],
    }
}

/// The one error → response mapping of every route: a missing database is
/// `404`, a remote answer keeps its status, a transient failure is `503`
/// with `Retry-After`, and anything else is `400`; the body is always
/// `{"error": …}`.
pub fn error_response(e: Error) -> Response {
    let (status, message) = error_parts(e);
    let mut resp = Response::json(status, error_json(&message));
    if status == 503 {
        resp.headers.push(("retry-after".into(), "1".into()));
    }
    resp
}

/// The status and message [`error_response`] answers `e` with; a failed
/// statement's element in a statement list carries them too.
pub(crate) fn error_parts(e: Error) -> (u16, String) {
    match e {
        Error::NotFound(_) => (404, e.to_string()),
        Error::Remote { status, message } => (status, message),
        e if e.is_transient() => (503, e.to_string()),
        e => (400, e.to_string()),
    }
}

fn error_json(msg: &str) -> String {
    Json::obj([("error", Json::str(msg))]).to_string()
}

/// The required `db` parameter.
fn db_param(req: &Request) -> Result<&str> {
    let db = req.query_param("db").filter(|db| !db.is_empty());
    db.ok_or_else(|| Error::protocol("missing `db` parameter"))
}

/// Parses a nanosecond time parameter: a plain integer, or a duration
/// like `30s`/`5m`. `Ok(None)` when the parameter is absent.
fn parse_ns(req: &Request, name: &str) -> Result<Option<i64>> {
    let Some(raw) = req.query_param(name) else { return Ok(None) };
    match raw.parse::<i64>() {
        Ok(n) => Ok(Some(n)),
        Err(_) => crate::query::parse_duration_ns(raw).map(Some).map_err(|_| {
            Error::protocol(format!("bad `{name}` parameter `{raw}`: expected ns or duration"))
        }),
    }
}

/// The required `start` and `end` parameters.
fn time_range(req: &Request) -> Result<(i64, i64)> {
    match (parse_ns(req, "start")?, parse_ns(req, "end")?) {
        (Some(start), Some(end)) => Ok((start, end)),
        _ => Err(Error::protocol("missing `start`/`end` parameter")),
    }
}

/// The text of a `/query` request: the `q` URL parameter, or the `q` field
/// of a form-encoded POST body (how InfluxDB takes statement lists too
/// long for a request line).
fn query_text(req: &Request) -> Option<Cow<'_, str>> {
    if let Some(q) = req.query_param("q") {
        return Some(q.into());
    }
    if req.method != "POST" {
        return None;
    }
    lms_http::url::parse_query(&req.body_str())
        .into_iter()
        .find_map(|(k, v)| (k == "q").then_some(v.into()))
}

/// The database a `/write` lands in: `db`, or with `tier=1m`/`tier=1h`
/// the rollup tier sibling of `db` — where an agent-side pre-aggregated
/// batch (rollup stat fields, window-start timestamps) goes, skipping raw
/// ingestion. `None` when the request names no database.
pub fn write_db(req: &Request) -> Result<Option<Cow<'_, str>>> {
    let db = req.query_param("db");
    let Some(raw) = req.query_param("tier") else { return Ok(db.map(Cow::Borrowed)) };
    let tier = lms_rollup::Tier::parse(raw).ok_or_else(|| {
        Error::protocol(format!("bad `tier` parameter `{raw}`: expected 1m or 1h"))
    })?;
    let db = db.ok_or_else(|| Error::protocol("`tier` requires `db`"))?;
    Ok(Some(lms_rollup::rollup_db_name(db, tier).into()))
}

/// A running database server wrapping an [`Influx`] handle. Besides the
/// shared routes of this module it serves the node's own:
///
/// | endpoint | behaviour |
/// |---|---|
/// | `POST /write?db=<db>&precision=<p>&tier=<1m\|1h>` | line-protocol batch → `204` once logged; `400` with a JSON error when every line failed, the db is missing or its name is not 1–128 ASCII letters, digits, `_` or `-`; `503` + `Retry-After` when the WAL append or the new database's open fails and, for every batch, while storage is degraded; `413` for a batch too large for one WAL record |
/// | `GET /stats` | storage-engine gauges (WAL bytes, sealed blocks, compression ratio, …) and storage health (`storage_degraded`, `storage_reason`) |
/// | `GET /integrity?db=<db>&nodes=<n>&replication=<r>&seed=<s>` | per-(hour bucket, owner set) range digests for anti-entropy repair |
/// | `GET /integrity/export?db=<db>&start=<ns>&end=<ns>` | canonical line-protocol dump of the range, replayed by the repair pass |
pub struct InfluxServer {
    server: Server,
}

impl InfluxServer {
    /// Starts serving `influx` on `addr` with a connection cap of one per
    /// core and never under [`lms_http::MIN_CONNECTION_CAP`] (16) — the
    /// sharded engine accepts concurrent writes, so the HTTP layer should
    /// offer matching parallelism, and below 17 cores the floor is the
    /// cap. Peers are expected to keep their connections: a router holds
    /// at most `lms_router::MAX_IDLE_CLIENTS` open to a node at rest.
    pub fn start<A: ToSocketAddrs>(addr: A, influx: Influx) -> Result<Self> {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::start_with(addr, ServerConfig::with_max_connections(cores), influx)
    }

    /// Starts serving with explicit admission limits (connection cap, body
    /// cap, request deadline).
    pub fn start_with<A: ToSocketAddrs>(
        addr: A,
        config: ServerConfig,
        influx: Influx,
    ) -> Result<Self> {
        let server = Server::bind_with(addr, config, move |req| handle(&influx, req))?;
        Ok(InfluxServer { server })
    }

    /// Bound address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Connections refused with `503` at the admission limit.
    pub fn shed_connections(&self) -> u64 {
        self.server.shed_connections()
    }

    /// Connections admitted since the server started (one per dial).
    pub fn accepted_connections(&self) -> u64 {
        self.server.accepted_connections()
    }

    /// Stops the server.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

fn handle(influx: &Influx, req: Request) -> Response {
    route(influx, &req).unwrap_or_else(error_response)
}

fn route(influx: &Influx, req: &Request) -> Result<Response> {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/write") => {
            let db = write_db(req)?.ok_or_else(|| Error::protocol("missing `db` parameter"))?;
            let precision = match req.query_param("precision") {
                None => Precision::Nanoseconds,
                Some(p) => Precision::parse(p)?,
            };
            match influx.write_lines(&db, &req.body_str(), WriteOptions { precision }) {
                Ok(outcome) if outcome.written > 0 || outcome.rejected == 0 => {
                    // Partial success still answers 204 (matching InfluxDB's
                    // lenient handling); full failure reports the first error.
                    Ok(Response::no_content())
                }
                Ok(outcome) => {
                    let (line, msg) = outcome
                        .first_error
                        .unwrap_or((0, "empty write body".to_string()));
                    Ok(Response::json(400, error_json(&format!("line {line}: {msg}"))))
                }
                // Degraded storage sheds the write as retryable: the
                // router's forwarder sees a transient 503 and keeps the
                // batch queued/spooled until the storage worker's probe
                // heals the node.
                Err(e @ Error::Unavailable(_)) => {
                    Ok(Response::service_unavailable(&e.to_string(), 5))
                }
                // Too large for one WAL record: refused whole.
                Err(e @ Error::Invalid(_)) => Ok(Response::json(413, error_json(&e.to_string()))),
                // A missing database is 404; an I/O error (the WAL append
                // failed) is a transient 503 the forwarder retries.
                Err(e) => Ok(error_response(e)),
            }
        }
        ("GET", "/integrity") => {
            let db = db_param(req)?;
            let int_param = |name: &str, default: u64| {
                req.query_param(name).and_then(|v| v.parse::<u64>().ok()).unwrap_or(default)
            };
            let nodes = int_param("nodes", 1) as usize;
            let replication = int_param("replication", 1) as usize;
            let seed = int_param("seed", 0);
            // A missing database is 404, which the router's repair pass
            // reads as "this replica holds nothing" (a zero-count
            // divergence), not as an error.
            let digests = influx.integrity_digests(db, nodes, replication, seed)?;
            let body = Json::obj([
                ("db", Json::str(db)),
                ("digests", lms_util::digest::digests_to_json(&digests)),
            ]);
            Ok(Response::json(200, body.to_string()))
        }
        ("GET", "/integrity/export") => {
            let db = db_param(req)?;
            let (start, end) = time_range(req)?;
            Ok(Response::text(200, influx.integrity_export(db, start, end)?))
        }
        ("GET", "/stats") => {
            let s = influx.storage_stats();
            let (rollup_passes, rollup_rows) = influx.rollup_counters();
            let gauges = [
                ("rollups_enabled", Json::Bool(influx.rollups_enabled())),
                ("rollup_passes", Json::Int(rollup_passes as i64)),
                ("rollup_rows", Json::Int(rollup_rows as i64)),
                ("head_points", Json::Int(s.head_points as i64)),
                ("sealed_points", Json::Int(s.sealed_points as i64)),
                ("sealed_blocks", Json::Int(s.sealed_blocks as i64)),
                ("sealed_bytes", Json::Int(s.sealed_bytes as i64)),
                ("compression_ratio", Json::Num(s.compression_ratio())),
                ("wal_bytes", Json::Int(s.wal_bytes as i64)),
                ("segment_files", Json::Int(s.segment_files as i64)),
                ("segment_bytes", Json::Int(s.segment_bytes as i64)),
                ("compactions", Json::Int(s.compactions as i64)),
                ("recovered_records", Json::Int(s.recovered_records as i64)),
                ("group_commits", Json::Int(s.group_commits as i64)),
                ("wal_fsyncs", Json::Int(s.wal_fsyncs as i64)),
                ("batched_points_per_commit", Json::Num(s.batched_points_per_commit)),
                ("shard_buffer_depth", Json::Int(s.shard_buffer_depth as i64)),
                ("scrubbed_bytes", Json::Int(s.scrubbed_bytes as i64)),
                ("corrupt_frames", Json::Int(s.corrupt_frames as i64)),
                ("quarantined_segments", Json::Int(s.quarantined_segments as i64)),
                ("damaged_ranges", Json::Int(s.damaged_ranges as i64)),
                ("workers_ready", Json::Bool(influx.workers_ready())),
            ];
            let gauges = gauges.into_iter().map(|(k, v)| (k.to_string(), v));
            let body = Json::obj(gauges.chain(storage_fields(influx.storage_health())));
            Ok(Response::json(200, body.to_string()))
        }
        _ => Ok(serve(influx, req)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_http::HttpClient;
    use lms_util::{Clock, Timestamp};

    fn start() -> (InfluxServer, Influx, HttpClient) {
        let influx = Influx::new(Clock::simulated(Timestamp::from_secs(1000))).unwrap();
        let server = InfluxServer::start("127.0.0.1:0", influx.clone()).unwrap();
        let client = HttpClient::connect(server.addr()).unwrap();
        (server, influx, client)
    }

    #[test]
    fn ping() {
        let (server, _ix, mut c) = start();
        let r = c.get("/ping").unwrap();
        assert_eq!(r.status, 204);
        assert!(r.header("x-influxdb-version").is_some());
        server.shutdown();
    }

    #[test]
    fn write_then_query_over_http() {
        let (server, _ix, mut c) = start();
        let r = c
            .post_text("/write?db=lms", "cpu,hostname=h1 value=0.5 900000000000")
            .unwrap();
        assert_eq!(r.status, 204);
        let r = c.get("/query?db=lms&q=SELECT%20value%20FROM%20cpu").unwrap();
        assert_eq!(r.status, 200);
        let json = Json::parse(&r.body_str()).unwrap();
        let v = json
            .get("results").unwrap().idx(0).unwrap()
            .get("series").unwrap().idx(0).unwrap()
            .get("values").unwrap().idx(0).unwrap();
        assert_eq!(v.idx(0).unwrap().as_i64(), Some(900_000_000_000));
        assert_eq!(v.idx(1).unwrap().as_f64(), Some(0.5));
        server.shutdown();
    }

    #[test]
    fn write_precision_parameter() {
        let (server, ix, mut c) = start();
        let r = c.post_text("/write?db=lms&precision=s", "m v=1 900").unwrap();
        assert_eq!(r.status, 204);
        let result = ix.query("lms", "SELECT v FROM m").unwrap();
        assert_eq!(result.series[0].values[0][0].as_i64(), Some(900_000_000_000));
        server.shutdown();
    }

    #[test]
    fn write_errors() {
        let (server, ix, mut c) = start();
        assert_eq!(c.post_text("/write", "m v=1").unwrap().status, 400);
        assert_eq!(c.post_text("/write?db=lms&precision=xx", "m v=1").unwrap().status, 400);
        assert_eq!(c.post_text("/write?db=lms", "totally broken").unwrap().status, 400);
        ix.set_auto_create(false);
        assert_eq!(c.post_text("/write?db=ghost", "m v=1").unwrap().status, 404);
        server.shutdown();
    }

    #[test]
    fn query_errors() {
        let (server, _ix, mut c) = start();
        assert_eq!(c.get("/query?db=lms").unwrap().status, 400);
        let r = c.get("/query?db=missing&q=SELECT%20v%20FROM%20m").unwrap();
        assert_eq!(r.status, 404, "missing database is 404 (cluster routers rely on it)");
        assert!(r.body_str().contains("error"));
        server.shutdown();
    }

    #[test]
    fn statement_list_in_a_post_body_answers_by_statement_id() {
        let (server, _ix, mut c) = start();
        c.post_text("/write?db=lms", "cpu,hostname=h1 value=0.5 900000000000").unwrap();
        let form = |q: &str| format!("q={}", lms_http::url::percent_encode(q));
        let r = c
            .post_text(
                "/query?db=lms",
                &form("SELECT value FROM cpu; SELECT nope FROM; SHOW MEASUREMENTS; SELECT v FROM ghost;"),
            )
            .unwrap();
        assert_eq!(r.status, 200, "a failed statement fails its element, not the request");
        let json = Json::parse(&r.body_str()).unwrap();
        let results = json.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(results.len(), 4, "the trailing `;` adds no statement");
        for (id, result) in results.iter().enumerate() {
            assert_eq!(result.get("statement_id").and_then(Json::as_i64), Some(id as i64));
        }
        assert!(results[0].get("series").unwrap().idx(0).is_some());
        assert!(results[1].get("error").and_then(Json::as_str).unwrap().contains("query"));
        assert_eq!(results[1].get("status").and_then(Json::as_i64), Some(400));
        assert_eq!(
            results[2].get("series").unwrap().idx(0).unwrap().get("name").and_then(Json::as_str),
            Some("measurements")
        );
        assert!(results[3].get("series").unwrap().idx(0).is_none(), "empty, not an error");

        // A missing database fails every statement with the lone answer's 404.
        let r = c.post_text("/query?db=ghost", &form("SELECT v FROM m; SELECT w FROM m")).unwrap();
        assert_eq!(r.status, 200);
        let json = Json::parse(&r.body_str()).unwrap();
        for result in json.get("results").and_then(Json::as_arr).unwrap() {
            assert_eq!(result.get("status").and_then(Json::as_i64), Some(404));
        }
        server.shutdown();
    }

    #[test]
    fn one_statement_answers_the_same_bytes_however_it_arrives() {
        let (server, _ix, mut c) = start();
        c.post_text("/write?db=lms", "cpu,hostname=h1 value=0.5 900000000000").unwrap();
        for (db, q) in [("lms", "SELECT value FROM cpu"), ("ghost", "SELECT v FROM m"), ("lms", "SELEKT")] {
            let encoded = lms_http::url::percent_encode(q);
            let by_url = c.get(&format!("/query?db={db}&q={encoded}")).unwrap();
            for body in [format!("q={encoded}"), format!("q={encoded}%3B"), format!("q=%3B{encoded}")] {
                let by_body = c.post_text(&format!("/query?db={db}"), &body).unwrap();
                assert_eq!(by_body.status, by_url.status, "{q}");
                assert_eq!(by_body.body, by_url.body, "{q}");
            }
        }
        assert_eq!(c.post_text("/query?db=lms", "").unwrap().status, 400, "no `q` anywhere");
        server.shutdown();
    }

    #[test]
    fn create_database_over_http() {
        let (server, ix, mut c) = start();
        ix.set_auto_create(false);
        let r = c.post("/query?q=CREATE%20DATABASE%20userdb", b"").unwrap();
        assert_eq!(r.status, 200);
        assert!(ix.database_names().contains(&"userdb".to_string()));
        server.shutdown();
    }

    #[test]
    fn stats_reports_storage_gauges() {
        let dir = std::env::temp_dir().join(format!("lms-http-stats-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let influx = Influx::open(
            Clock::simulated(Timestamp::from_secs(1000)),
            2,
            crate::db::StorageConfig::new(&dir),
        )
        .unwrap();
        let server = InfluxServer::start("127.0.0.1:0", influx.clone()).unwrap();
        let mut c = HttpClient::connect(server.addr()).unwrap();
        c.post_text("/write?db=lms", "cpu,hostname=h1 value=0.5 900000000000").unwrap();
        influx.flush_storage().unwrap();
        let r = c.get("/stats").unwrap();
        assert_eq!(r.status, 200);
        let json = Json::parse(&r.body_str()).unwrap();
        assert_eq!(json.get("sealed_blocks").unwrap().as_i64(), Some(1));
        assert_eq!(json.get("segment_files").unwrap().as_i64(), Some(1));
        assert!(json.get("segment_bytes").unwrap().as_i64().unwrap() > 0);
        assert!(json.get("compression_ratio").is_some());
        // Write-path gauges: one batch went through, so at least one WAL
        // group committed, and nothing can still be sitting staged.
        assert!(json.get("group_commits").unwrap().as_i64().unwrap() >= 1);
        assert!(json.get("wal_fsyncs").unwrap().as_i64().unwrap() >= 1, "flush rotation syncs");
        assert!(json.get("batched_points_per_commit").is_some());
        assert_eq!(json.get("shard_buffer_depth").unwrap().as_i64(), Some(0));
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn integrity_endpoints_round_trip() {
        let dir = std::env::temp_dir().join(format!("lms-http-integrity-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let influx = Influx::open(
            Clock::simulated(Timestamp::from_secs(1000)),
            2,
            crate::db::StorageConfig::new(&dir),
        )
        .unwrap();
        let server = InfluxServer::start("127.0.0.1:0", influx.clone()).unwrap();
        let mut c = HttpClient::connect(server.addr()).unwrap();
        c.post_text("/write?db=lms", "cpu,hostname=h1 value=0.5 900000000000").unwrap();

        let r = c.get("/integrity?db=lms&nodes=3&replication=2&seed=7").unwrap();
        assert_eq!(r.status, 200);
        let json = Json::parse(&r.body_str()).unwrap();
        let digests = json.get("digests").unwrap();
        let first = digests.idx(0).unwrap();
        assert_eq!(first.get("count").unwrap().as_i64(), Some(1));
        assert!(first.get("hash").unwrap().as_str().is_some());
        // Unknown database reads as "holds nothing": 404, like /query.
        assert_eq!(c.get("/integrity?db=ghost").unwrap().status, 404);
        assert_eq!(c.get("/integrity").unwrap().status, 400);

        let r = c.get("/integrity/export?db=lms&start=0&end=1000000000000").unwrap();
        assert_eq!(r.status, 200);
        let body = r.body_str().into_owned();
        assert!(body.contains("cpu,hostname=h1 value=0.5 900000000000"), "{body}");
        // Replaying the export is idempotent under last-write-wins.
        assert_eq!(c.post_text("/write?db=lms", &body).unwrap().status, 204);
        assert_eq!(influx.point_count("lms"), 1);
        assert_eq!(c.get("/integrity/export?db=lms&start=0").unwrap().status, 400);

        // The integrity gauges are visible in /stats.
        let r = c.get("/stats").unwrap();
        let json = Json::parse(&r.body_str()).unwrap();
        assert_eq!(json.get("quarantined_segments").unwrap().as_i64(), Some(0));
        assert_eq!(json.get("corrupt_frames").unwrap().as_i64(), Some(0));
        assert_eq!(json.get("damaged_ranges").unwrap().as_i64(), Some(0));
        assert!(json.get("scrubbed_bytes").is_some());
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn health_endpoints() {
        let (server, _ix, mut c) = start();
        assert_eq!(c.get("/health/live").unwrap().status, 204);
        // No worker spawned yet: ready.
        assert_eq!(c.get("/health/ready").unwrap().status, 204);
        server.shutdown();
    }

    #[test]
    fn degraded_storage_sheds_writes_and_fails_readiness() {
        let dir = std::env::temp_dir().join(format!("lms-http-degraded-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let influx = Influx::open(
            Clock::simulated(Timestamp::from_secs(1000)),
            2,
            crate::db::StorageConfig::new(&dir),
        )
        .unwrap();
        let server = InfluxServer::start("127.0.0.1:0", influx.clone()).unwrap();
        let mut c = HttpClient::connect(server.addr()).unwrap();
        assert_eq!(c.post_text("/write?db=lms", "cpu v=1 900000000000").unwrap().status, 204);

        // The disk fills up under the next WAL segments (`/dev/full` fails
        // every write with ENOSPC); a flush's rotation moves the log there.
        let wal = dir.join("lms").join("wal");
        let full: Vec<std::path::PathBuf> =
            (0..16).map(|seq| wal.join(format!("{seq:016x}.wal"))).filter(|p| !p.exists()).collect();
        for p in &full {
            std::os::unix::fs::symlink("/dev/full", p).unwrap();
        }
        influx.flush_storage().unwrap();
        // The first write surfaces the ENOSPC as a transient 503; after that
        // the engine is degraded and sheds with 503 + Retry-After.
        assert_eq!(c.post_text("/write?db=lms", "cpu v=2 900000000001").unwrap().status, 503);
        let r = c.post_text("/write?db=lms", "cpu v=3 900000000002").unwrap();
        assert_eq!(r.status, 503);
        assert!(r.header("retry-after").is_some());
        // Events too: a batch is acknowledged only once it is logged.
        let events = "events,jobid=7 text=\"start\" 900000000003";
        assert_eq!(c.post_text("/write?db=lms", events).unwrap().status, 503);

        let r = c.get("/stats").unwrap();
        let json = Json::parse(&r.body_str()).unwrap();
        assert_eq!(json.get("storage_degraded").unwrap().as_bool(), Some(true));
        let reason = json.get("storage_reason").and_then(Json::as_str).unwrap().to_string();
        assert!(reason.starts_with("lms: ") && reason.contains("No space left"), "{reason}");
        let r = c.get("/health/ready").unwrap();
        assert_eq!(r.status, 503);
        assert!(r.body_str().contains(&reason), "{}", r.body_str());

        // Space is freed: the storage worker's probe heals the node.
        for p in &full {
            let _ = std::fs::remove_file(p);
        }
        let worker = influx.spawn_storage_worker().unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while c.get("/health/ready").unwrap().status != 204 {
            assert!(std::time::Instant::now() < deadline, "the node did not heal");
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        assert_eq!(c.post_text("/write?db=lms", events).unwrap().status, 204);
        assert_eq!(c.post_text("/write?db=lms", "cpu v=4 900000000004").unwrap().status, 204);
        worker.stop();
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn query_range_over_http() {
        let (server, _ix, mut c) = start();
        c.post_text(
            "/write?db=lms",
            "cpu,hostname=h1 value=1 10000000000\n\
             cpu,hostname=h1 value=2 70000000000\n\
             cpu,hostname=h1 value=9 200000000000",
        )
        .unwrap();
        // [0s, 120s) at 60s steps: two buckets, the 200s point excluded.
        let r = c
            .get("/query_range?db=lms&q=SELECT%20sum(value)%20FROM%20cpu&start=0&end=120000000000&step=1m")
            .unwrap();
        assert_eq!(r.status, 200);
        let json = Json::parse(&r.body_str()).unwrap();
        let values = json
            .get("results").unwrap().idx(0).unwrap()
            .get("series").unwrap().idx(0).unwrap()
            .get("values").unwrap();
        assert_eq!(values.idx(0).unwrap().idx(1).unwrap().as_f64(), Some(1.0));
        assert_eq!(values.idx(1).unwrap().idx(1).unwrap().as_f64(), Some(2.0));
        assert!(values.idx(2).is_none());

        // Missing bounds and malformed step are 400s.
        assert_eq!(c.get("/query_range?db=lms&q=SELECT%20value%20FROM%20cpu").unwrap().status, 400);
        assert_eq!(
            c.get("/query_range?db=lms&q=SELECT%20value%20FROM%20cpu&start=0&end=10&step=bogus")
                .unwrap()
                .status,
            400
        );
        // Missing database stays 404 so routers can tell it apart.
        assert_eq!(
            c.get("/query_range?db=ghost&q=SELECT%20value%20FROM%20cpu&start=0&end=10")
                .unwrap()
                .status,
            404
        );
        server.shutdown();
    }

    #[test]
    fn metrics_and_labels_listings() {
        let (server, _ix, mut c) = start();
        c.post_text(
            "/write?db=lms",
            "cpu,hostname=h1,socket=0 value=1 1\nmem,hostname=h1 used=2 2",
        )
        .unwrap();
        let r = c.get("/metrics?db=lms").unwrap();
        assert_eq!(r.status, 200);
        let json = Json::parse(&r.body_str()).unwrap();
        let names: Vec<&str> = (0..)
            .map_while(|i| json.get("metrics").unwrap().idx(i))
            .map(|j| j.as_str().unwrap())
            .collect();
        assert_eq!(names, vec!["cpu", "mem"]);

        let r = c.get("/labels/cpu?db=lms").unwrap();
        assert_eq!(r.status, 200);
        let json = Json::parse(&r.body_str()).unwrap();
        let labels: Vec<&str> = (0..)
            .map_while(|i| json.get("labels").unwrap().idx(i))
            .map(|j| j.as_str().unwrap())
            .collect();
        assert_eq!(labels, vec!["hostname", "socket"]);

        // Unknown measurement: empty label set, still 200.
        let r = c.get("/labels/ghost?db=lms").unwrap();
        assert_eq!(r.status, 200);
        assert!(Json::parse(&r.body_str()).unwrap().get("labels").unwrap().idx(0).is_none());
        // Unknown database: 404.
        assert_eq!(c.get("/metrics?db=ghost").unwrap().status, 404);
        assert_eq!(c.get("/labels/cpu?db=ghost").unwrap().status, 404);
        server.shutdown();
    }

    /// Untimestamped lines whose body fits the HTTP cap, but which pass the
    /// WAL record limit once each line carries its ` <ns>` timestamp. The
    /// batch is refused whole, and the database keeps taking writes.
    #[test]
    fn a_write_too_large_for_one_wal_record_is_refused_whole_with_413() {
        let dir = std::env::temp_dir().join(format!("lms-influx-oversized-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let clock = Clock::simulated(Timestamp::from_secs(1_700_000_000));
        let influx = Influx::open(clock, 4, crate::StorageConfig::new(&dir)).unwrap();
        let line = format!("m v=\"{}\"\n", "x".repeat(1000));
        let lines = ServerConfig::default().max_body_bytes / line.len();
        let mut write = Request::new("POST", "/write?db=lms");
        write.body = line.repeat(lines).into_bytes();
        let r = handle(&influx, write);
        assert_eq!(r.status, 413, "{}", r.body_str());

        let mut write = Request::new("POST", "/write?db=lms");
        write.body = b"m v=\"small\" 5".to_vec();
        assert_eq!(handle(&influx, write).status, 204);
        let r = handle(&influx, Request::new("GET", "/query?db=lms&q=SELECT%20v%20FROM%20m"));
        let json = Json::parse(&r.body_str()).unwrap();
        let values = json.get("results").unwrap().idx(0).unwrap().get("series").unwrap().idx(0);
        assert_eq!(values.unwrap().get("values").unwrap().to_string(), r#"[[5,"small"]]"#);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn not_ready_answers_one_body_shape_with_storage_only_where_there_is_storage() {
        let worker = lms_util::WorkerReport {
            name: "spool-drainer".into(),
            health: lms_util::WorkerHealth::Failed,
            restarts: 3,
            last_panic: Some("boom".into()),
        };
        let workers = r#""workers":[{"name":"spool-drainer","health":"failed","restarts":3}]"#;
        let router_like =
            Readiness { workers_ready: false, workers: vec![worker.clone()], storage: None };
        let r = ready(router_like);
        assert_eq!(r.status, 503);
        assert_eq!(r.body_str(), format!(r#"{{"ready":false,{workers}}}"#));
        let degraded = Health::Degraded { reason: "lms: disk full".into() };
        let degraded_node =
            Readiness { workers_ready: true, workers: vec![worker.clone()], storage: Some(degraded) };
        let r = ready(degraded_node);
        assert_eq!(r.status, 503);
        assert_eq!(
            r.body_str(),
            format!(r#"{{"ready":false,"storage_degraded":true,"storage_reason":"lms: disk full",{workers}}}"#)
        );
        let failed_worker =
            Readiness { workers_ready: false, workers: vec![worker], storage: Some(Health::Ok) };
        let r = ready(failed_worker);
        assert_eq!(r.body_str(), format!(r#"{{"ready":false,"storage_degraded":false,{workers}}}"#));
        let healthy = Readiness { workers_ready: true, workers: vec![], storage: Some(Health::Ok) };
        assert_eq!(ready(healthy).status, 204);
    }

    #[test]
    fn unknown_endpoint_404() {
        let (server, _ix, mut c) = start();
        assert_eq!(c.get("/nope").unwrap().status, 404);
        server.shutdown();
    }
}
