//! The InfluxDB-compatible HTTP endpoints.
//!
//! | endpoint | behaviour |
//! |---|---|
//! | `GET /ping` | `204` with `X-Influxdb-Version` header |
//! | `POST /write?db=<db>&precision=<p>` | line-protocol batch → `204`; `400` with a JSON error when every line failed or the db is missing |
//! | `GET/POST /query?db=<db>&q=<stmt>` | InfluxDB-shaped JSON result; `q` may instead be a form field of a POST body |
//! | `POST /query?db=<db>` body `q=<stmt>;<stmt>;…` | each statement run in order, answered as `results[]` by `statement_id`; a failed one carries `error` + `status` in its element and the rest still answer (`200`) |
//! | `GET/POST /query_range?db=<db>&q=<stmt>&start=<ns>&end=<ns>&step=<dur>` | SELECT over an explicit `[start, end)` range, bucketed to `step` |
//! | `GET /metrics?db=<db>` | sorted measurement names |
//! | `GET /labels/<measurement>?db=<db>` | sorted tag keys of one measurement |
//! | `GET /stats` | storage-engine gauges (WAL bytes, sealed blocks, compression ratio, …) |
//! | `GET /integrity?db=<db>&nodes=<n>&replication=<r>&seed=<s>` | per-(hour bucket, owner set) range digests for anti-entropy repair |
//! | `GET /integrity/export?db=<db>&start=<ns>&end=<ns>` | canonical line-protocol dump of the range, replayed by the repair pass |
//! | `GET /health/live` | `204` while the process runs |
//! | `GET /health/ready` | `204` when workers are healthy and storage is not degraded; `503` otherwise |

use crate::db::{Influx, WriteOptions};
use crate::exec::QueryResult;
use lms_http::{Request, Response, Server, ServerConfig};
use lms_lineproto::Precision;
use lms_util::{Json, Result};
use std::net::{SocketAddr, ToSocketAddrs};

/// A running database server wrapping an [`Influx`] handle.
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

fn error_json(msg: &str) -> String {
    Json::obj([("error", Json::str(msg))]).to_string()
}

/// Parses a nanosecond time parameter: a plain integer, or a duration
/// like `30s`/`5m`. `Ok(None)` when the parameter is absent; an error
/// response when present but malformed.
fn parse_ns(req: &Request, name: &str) -> std::result::Result<Option<i64>, Response> {
    let Some(raw) = req.query_param(name) else { return Ok(None) };
    if let Ok(n) = raw.parse::<i64>() {
        return Ok(Some(n));
    }
    match crate::query::parse_duration_ns(raw) {
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(Response::json(
            400,
            error_json(&format!("bad `{name}` parameter `{raw}`: expected ns or duration")),
        )),
    }
}

/// The text of a `/query` request: the `q` URL parameter, or the `q` field
/// of a form-encoded POST body (how InfluxDB takes statement lists too
/// long for a request line).
pub fn query_text(req: &Request) -> Option<std::borrow::Cow<'_, str>> {
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

fn handle(influx: &Influx, req: Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/ping") | ("HEAD", "/ping") => {
            let mut r = Response::no_content();
            r.headers.push(("x-influxdb-version".into(), "lms-influx-0.1".into()));
            r
        }
        ("POST", "/write") => {
            let Some(db) = req.query_param("db") else {
                return Response::json(400, error_json("missing `db` parameter"));
            };
            // `tier=1m`/`tier=1h` routes a pre-aggregated batch (rollup
            // stat fields, window-start timestamps) straight into the
            // database's rollup tier sibling — the agent-side
            // pre-aggregation path that skips raw ingestion entirely.
            let db = match req.query_param("tier") {
                None => db.to_string(),
                Some(raw) => match lms_rollup::Tier::parse(raw) {
                    Some(tier) => lms_rollup::rollup_db_name(db, tier),
                    None => {
                        return Response::json(
                            400,
                            error_json(&format!("bad `tier` parameter `{raw}`: expected 1m or 1h")),
                        )
                    }
                },
            };
            let precision = match req.query_param("precision").map(Precision::parse) {
                None => Precision::Nanoseconds,
                Some(Ok(p)) => p,
                Some(Err(e)) => return Response::json(400, error_json(&e.to_string())),
            };
            let body = req.body_str();
            match influx.write_lines(&db, &body, WriteOptions { precision }) {
                Ok(outcome) if outcome.written > 0 || outcome.rejected == 0 => {
                    // Partial success still answers 204 (matching InfluxDB's
                    // lenient handling); full failure reports the first error.
                    Response::no_content()
                }
                Ok(outcome) => {
                    let (line, msg) = outcome
                        .first_error
                        .unwrap_or((0, "empty write body".to_string()));
                    Response::json(400, error_json(&format!("line {line}: {msg}")))
                }
                // Degraded storage sheds the write as retryable: the
                // router's forwarder sees a transient 503 and keeps the
                // batch queued/spooled until the disk recovers.
                Err(e @ lms_util::Error::Unavailable(_)) => {
                    Response::service_unavailable(&e.to_string(), 5)
                }
                // Too large for one WAL record: refused whole.
                Err(e @ lms_util::Error::Invalid(_)) => {
                    Response::json(413, error_json(&e.to_string()))
                }
                Err(e) => Response::json(404, error_json(&e.to_string())),
            }
        }
        ("GET", "/query") | ("POST", "/query") => {
            let Some(q) = query_text(&req) else {
                return Response::json(400, error_json("missing `q` parameter"));
            };
            // CREATE DATABASE has no db param; data queries need one.
            let db = req.query_param("db").unwrap_or("");
            let stmts = crate::query::split_statements(&q);
            if stmts.len() > 1 {
                let outcomes = stmts.iter().map(|stmt| influx.query(db, stmt));
                return Response::json(200, QueryResult::batch_body(outcomes).0);
            }
            match influx.query(db, &q) {
                Ok(result) => Response::json(200, result.into_json().to_string()),
                // A missing database is 404, not 400: cluster routers
                // fan queries to every node and rely on the status to
                // tell "this node does not hold that database" (an
                // empty answer) apart from a malformed query.
                Err(e @ lms_util::Error::NotFound(_)) => {
                    Response::json(404, error_json(&e.to_string()))
                }
                Err(e) => Response::json(400, error_json(&e.to_string())),
            }
        }
        ("GET", "/query_range") | ("POST", "/query_range") => {
            let Some(q) = req.query_param("q") else {
                return Response::json(400, error_json("missing `q` parameter"));
            };
            let db = req.query_param("db").unwrap_or("");
            let (start, end) = match (parse_ns(&req, "start"), parse_ns(&req, "end")) {
                (Ok(Some(s)), Ok(Some(e))) => (s, e),
                (Ok(None), _) | (_, Ok(None)) => {
                    return Response::json(400, error_json("missing `start`/`end` parameter"))
                }
                (Err(r), _) | (_, Err(r)) => return r,
            };
            let step = match parse_ns(&req, "step") {
                Ok(step) => step,
                Err(r) => return r,
            };
            match influx.query_range(db, q, start, end, step) {
                Ok(result) => Response::json(200, result.into_json().to_string()),
                Err(e @ lms_util::Error::NotFound(_)) => {
                    Response::json(404, error_json(&e.to_string()))
                }
                Err(e) => Response::json(400, error_json(&e.to_string())),
            }
        }
        ("GET", "/metrics") => {
            let db = req.query_param("db").unwrap_or("");
            match influx.measurements(db) {
                Ok(names) => {
                    let body = Json::obj([(
                        "metrics",
                        Json::Arr(names.into_iter().map(Json::str).collect()),
                    )]);
                    Response::json(200, body.to_string())
                }
                Err(e) => Response::json(404, error_json(&e.to_string())),
            }
        }
        ("GET", path) if path.starts_with("/labels/") => {
            let measurement = &path["/labels/".len()..];
            let db = req.query_param("db").unwrap_or("");
            match influx.tag_keys(db, measurement) {
                Ok(keys) => {
                    let body = Json::obj([(
                        "labels",
                        Json::Arr(keys.into_iter().map(Json::str).collect()),
                    )]);
                    Response::json(200, body.to_string())
                }
                Err(e) => Response::json(404, error_json(&e.to_string())),
            }
        }
        ("GET", "/integrity") => {
            let Some(db) = req.query_param("db") else {
                return Response::json(400, error_json("missing `db` parameter"));
            };
            let int_param = |name: &str, default: u64| {
                req.query_param(name).and_then(|v| v.parse::<u64>().ok()).unwrap_or(default)
            };
            let nodes = int_param("nodes", 1) as usize;
            let replication = int_param("replication", 1) as usize;
            let seed = int_param("seed", 0);
            match influx.integrity_digests(db, nodes, replication, seed) {
                Ok(digests) => {
                    let body = Json::obj([
                        ("db", Json::str(db)),
                        ("digests", lms_util::digest::digests_to_json(&digests)),
                    ]);
                    Response::json(200, body.to_string())
                }
                // Missing database is 404 for the same reason as /query:
                // the router's repair pass reads it as "this replica holds
                // nothing" (a zero-count divergence), not as an error.
                Err(e) => Response::json(404, error_json(&e.to_string())),
            }
        }
        ("GET", "/integrity/export") => {
            let Some(db) = req.query_param("db") else {
                return Response::json(400, error_json("missing `db` parameter"));
            };
            let (start, end) = match (parse_ns(&req, "start"), parse_ns(&req, "end")) {
                (Ok(Some(s)), Ok(Some(e))) => (s, e),
                (Ok(None), _) | (_, Ok(None)) => {
                    return Response::json(400, error_json("missing `start`/`end` parameter"))
                }
                (Err(r), _) | (_, Err(r)) => return r,
            };
            match influx.integrity_export(db, start, end) {
                Ok(lines) => Response::text(200, lines),
                Err(e) => Response::json(404, error_json(&e.to_string())),
            }
        }
        ("GET", "/stats") => {
            let s = influx.storage_stats();
            let (rollup_passes, rollup_rows) = influx.rollup_counters();
            let body = Json::obj([
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
                ("storage_degraded", Json::Bool(s.degraded)),
                ("workers_ready", Json::Bool(influx.workers_ready())),
            ]);
            Response::json(200, body.to_string())
        }
        ("GET", "/health/live") | ("HEAD", "/health/live") => Response::no_content(),
        ("GET", "/health/ready") | ("HEAD", "/health/ready") => {
            let degraded = influx.storage_degraded();
            let workers_ready = influx.workers_ready();
            if !degraded && workers_ready {
                return Response::no_content();
            }
            let workers = Json::Arr(
                influx
                    .worker_reports()
                    .into_iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::str(w.name)),
                            ("health", Json::str(w.health.as_str())),
                            ("restarts", Json::Int(w.restarts as i64)),
                        ])
                    })
                    .collect(),
            );
            let body = Json::obj([
                ("storage_degraded", Json::Bool(degraded)),
                ("workers_ready", Json::Bool(workers_ready)),
                ("workers", workers),
            ]);
            Response::json(503, body.to_string())
        }
        _ => Response::not_found("unknown endpoint"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_http::HttpClient;
    use lms_util::{Clock, Timestamp};

    fn start() -> (InfluxServer, Influx, HttpClient) {
        let influx = Influx::new(Clock::simulated(Timestamp::from_secs(1000)));
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
        // Memory-only, no worker: ready.
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

        // Simulate the disk filling up mid-run.
        let db = influx.database("lms").unwrap();
        let engine = db.engine().unwrap();
        engine.inject_wal_append_failure(true);
        // First write surfaces the ENOSPC (400/500 class); after that the
        // engine is degraded and sheds with 503 + Retry-After.
        let _ = c.post_text("/write?db=lms", "cpu v=2 900000000001").unwrap();
        let r = c.post_text("/write?db=lms", "cpu v=3 900000000002").unwrap();
        assert_eq!(r.status, 503);
        assert!(r.header("retry-after").is_some());
        // Events are still admitted (priority traffic).
        let r = c
            .post_text("/write?db=lms", "events,jobid=7 text=\"start\" 900000000003")
            .unwrap();
        assert_eq!(r.status, 204);

        let r = c.get("/stats").unwrap();
        let json = Json::parse(&r.body_str()).unwrap();
        assert_eq!(json.get("storage_degraded").unwrap().as_bool(), Some(true));
        let r = c.get("/health/ready").unwrap();
        assert_eq!(r.status, 503);

        // Operator frees space: readiness returns.
        engine.inject_wal_append_failure(false);
        engine.clear_degraded();
        assert_eq!(c.get("/health/ready").unwrap().status, 204);
        assert_eq!(c.post_text("/write?db=lms", "cpu v=4 900000000004").unwrap().status, 204);
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
    fn unknown_endpoint_404() {
        let (server, _ix, mut c) = start();
        assert_eq!(c.get("/nope").unwrap().status, 404);
        server.shutdown();
    }
}
