//! The router's HTTP endpoints. The router mimics the InfluxDB HTTP API:
//! every route but its own below — `/ping`, `/query`, `/query_range`,
//! `/metrics`, `/labels/{m}`, `/health/*` — is the database's, served by
//! the same handler ([`lms_influx::server::serve`]) over a [`Router`],
//! which scatter-gathers each read across the cluster's nodes and folds
//! the answers (one node: a plain proxy).
//!
//! | endpoint | behaviour |
//! |---|---|
//! | `POST /write?db=<db>&tier=<1m\|1h>` | line-protocol batch → enrich → forward (`204`) |
//! | `POST /signal/start?job=<id>&user=<u>&hosts=<h1,h2>&<k>=<v>…` | job-start signal; extra query params become job tags |
//! | `POST /signal/end?job=<id>` | job-end signal |
//! | `GET /jobs` | running jobs with hosts (admin view source) |
//! | `GET /stats` | router counters as JSON |
//!
//! Overload behaviour: when the delivery pipeline is saturated, `POST
//! /write` is shed with `503` + `Retry-After` — job signals are *always*
//! admitted (they are tiny, rare, and losing one corrupts enrichment for a
//! job's whole lifetime). Errors answer `{"error": …}` under the database's
//! mapping ([`lms_influx::server::error_response`]).

use crate::router::{parse_hosts, Router};
use crate::tagstore::JobSignal;
use lms_http::{Request, Response, Server, ServerConfig};
use lms_influx::server::{error_response, serve, write_db, ReadApi, Readiness};
use lms_influx::QueryResult;
use lms_util::{Error, Json, Result};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;

/// A running router server.
pub struct RouterServer {
    server: Server,
    router: Arc<Router>,
}

impl RouterServer {
    /// Starts serving `router` on `addr` with default admission limits.
    pub fn start<A: ToSocketAddrs>(addr: A, router: Arc<Router>) -> Result<Self> {
        Self::start_with(addr, ServerConfig::default(), router)
    }

    /// Starts serving with explicit connection/body/deadline limits.
    pub fn start_with<A: ToSocketAddrs>(
        addr: A,
        config: ServerConfig,
        router: Arc<Router>,
    ) -> Result<Self> {
        let handler_router = router.clone();
        let server = Server::bind_with(addr, config, move |req| handle(&handler_router, req))?;
        Ok(RouterServer { server, router })
    }

    /// Connections shed at the door with `503` (over connection capacity).
    pub fn shed_connections(&self) -> u64 {
        self.server.shed_connections()
    }

    /// Bound address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// The wrapped router.
    pub fn router(&self) -> &Arc<Router> {
        &self.router
    }

    /// Stops the server.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// The database's read API, read across the cluster: a partial answer
/// (replica down) is flagged on its result instead of failing the read.
impl ReadApi for Router {
    fn statements<'a>(
        &'a self,
        db: &'a str,
        stmts: &'a [&'a str],
    ) -> Result<impl Iterator<Item = Result<QueryResult>> + 'a> {
        let stmts: Vec<String> = stmts.iter().map(|stmt| stmt.to_string()).collect();
        Ok(self.handle_statements(db, &stmts)?.into_iter())
    }

    fn query_range(
        &self,
        db: &str,
        q: &str,
        start: i64,
        end: i64,
        step: Option<i64>,
    ) -> Result<QueryResult> {
        self.handle_query_range(db, q, start, end, step)
    }

    fn metrics(&self, db: &str) -> Result<Vec<String>> {
        self.handle_metrics(db)
    }

    fn labels(&self, db: &str, measurement: &str) -> Result<Vec<String>> {
        self.handle_labels(db, measurement)
    }

    /// Every supervised forwarder/drainer thread healthy (or cleanly
    /// stopped); the router keeps no storage of its own.
    fn readiness(&self) -> Readiness {
        Readiness {
            workers_ready: self.workers_ready(),
            workers: self.worker_reports(),
            storage: None,
        }
    }
}

fn handle(router: &Router, req: Request) -> Response {
    route(router, &req).unwrap_or_else(error_response)
}

fn route(router: &Router, req: &Request) -> Result<Response> {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/write") => {
            // Priority-aware shedding: bulk metric writes are refused when
            // the delivery pipeline is saturated; signals (below) never are.
            if !router.try_admit_write() {
                return Err(Error::unavailable("delivery pipeline saturated"));
            }
            // A `tier` write names the rollup tier sibling as its target,
            // which reuses the whole enrich/forward pipeline — tier rows
            // carry the same tags, so job enrichment applies equally.
            let outcome = router.handle_write(write_db(req)?.as_deref(), &req.body_str());
            if outcome.accepted == 0 && outcome.rejected > 0 {
                Err(Error::protocol("all lines malformed"))
            } else if !outcome.acked {
                // The write quorum was missed: too many owner nodes could
                // neither queue nor durably spool their share. The data
                // was *not* acknowledged — the collector must retry.
                Err(Error::unavailable("write quorum not met"))
            } else {
                Ok(Response::no_content())
            }
        }
        ("POST", "/signal/start") => {
            let job = req.query_param("job").ok_or_else(|| Error::protocol("missing `job`"))?;
            let hosts = parse_hosts(req.query_param("hosts").unwrap_or(""));
            if hosts.is_empty() {
                return Err(Error::protocol("missing `hosts`"));
            }
            let user = req.query_param("user").unwrap_or("unknown").to_string();
            let extra_tags: Vec<(String, String)> = req
                .query
                .iter()
                .filter(|(k, _)| !matches!(k.as_str(), "job" | "user" | "hosts"))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            router.handle_job_start(JobSignal {
                job_id: job.to_string(),
                user,
                hosts,
                extra_tags,
            });
            Ok(Response::no_content())
        }
        ("POST", "/signal/end") => {
            let job = req.query_param("job").ok_or_else(|| Error::protocol("missing `job`"))?;
            router.handle_job_end(job);
            Ok(Response::no_content())
        }
        ("GET", "/jobs") => {
            let json = router.with_tags(|tags| {
                Json::arr(tags.running_jobs().into_iter().map(|job| {
                    let hosts = tags
                        .hosts_of(job)
                        .map(|h| Json::arr(h.iter().map(|x| Json::str(x.as_str()))))
                        .unwrap_or(Json::Arr(vec![]));
                    let user = tags
                        .hosts_of(job)
                        .and_then(|h| h.first())
                        .map(|host| {
                            tags.tags_of(host)
                                .iter()
                                .find(|(k, _)| k == "user")
                                .map(|(_, v)| v.clone())
                                .unwrap_or_default()
                        })
                        .unwrap_or_default();
                    Json::obj([
                        ("jobid", Json::str(job)),
                        ("user", Json::str(user)),
                        ("hosts", hosts),
                    ])
                }))
            });
            Ok(Response::json(200, json.to_string()))
        }
        ("GET", "/stats") => {
            let s = router.stats();
            // Per-destination detail: a stuck replica (down, spool depth
            // growing, replay counters flat) is diagnosable from this one
            // endpoint. `breaker` reads `open` while the node is down.
            let destinations = Json::arr(s.destinations.iter().map(|d| {
                Json::obj([
                    ("addr", Json::str(d.addr.to_string())),
                    ("breaker", Json::str(breaker(d.stats.down))),
                    ("breaker_opens", Json::from(d.stats.downs as i64)),
                    ("delivered", Json::from(d.stats.delivered as i64)),
                    ("spooled", Json::from(d.stats.spooled as i64)),
                    ("spool_pending", Json::from(d.stats.spool_pending as i64)),
                    ("replayed", Json::from(d.stats.replayed as i64)),
                    ("replay_in_flight", Json::from(d.stats.replay_in_flight as i64)),
                    ("dropped", Json::from(d.stats.dropped as i64)),
                    ("retries", Json::from(d.stats.retries as i64)),
                ])
            }));
            Ok(Response::json(
                200,
                Json::obj([
                    ("lines_in", Json::from(s.lines_in as i64)),
                    ("lines_enriched", Json::from(s.lines_enriched as i64)),
                    ("lines_rejected", Json::from(s.lines_rejected as i64)),
                    ("signals", Json::from(s.signals as i64)),
                    ("writes_shed", Json::from(s.writes_shed as i64)),
                    ("quorum_failures", Json::from(s.quorum_failures as i64)),
                    ("partial_queries", Json::from(s.partial_queries as i64)),
                    ("repair_passes", Json::from(s.repair_passes as i64)),
                    ("repaired_ranges", Json::from(s.repaired_ranges as i64)),
                    ("workers_ready", Json::Bool(router.workers_ready())),
                    ("forward_delivered", Json::from(s.forward.delivered as i64)),
                    ("forward_rejected", Json::from(s.forward.rejected as i64)),
                    ("forward_dropped", Json::from(s.forward.dropped as i64)),
                    ("forward_spooled", Json::from(s.forward.spooled as i64)),
                    ("forward_replayed", Json::from(s.forward.replayed as i64)),
                    ("forward_retries", Json::from(s.forward.retries as i64)),
                    ("spool_pending", Json::from(s.forward.spool_pending as i64)),
                    ("replay_in_flight", Json::from(s.forward.replay_in_flight as i64)),
                    ("breaker", Json::str(breaker(s.forward.down))),
                    ("destinations", destinations),
                ])
                .to_string(),
            ))
        }
        _ => Ok(serve(router, req)),
    }
}

/// The `/stats` name of a destination's state: `open` while it is down.
fn breaker(down: bool) -> &'static str {
    if down { "open" } else { "closed" }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::RouterConfig;
    use lms_http::HttpClient;
    use lms_influx::{Influx, InfluxServer};
    use lms_util::{Clock, Timestamp};
    use std::time::Duration;

    fn stack() -> (InfluxServer, Influx, RouterServer, HttpClient) {
        let clock = Clock::simulated(Timestamp::from_secs(9000));
        let influx = Influx::new(clock.clone()).unwrap();
        let db = InfluxServer::start("127.0.0.1:0", influx.clone()).unwrap();
        let router =
            Arc::new(Router::new(db.addr(), RouterConfig::default(), clock, None).unwrap());
        let rs = RouterServer::start("127.0.0.1:0", router).unwrap();
        let client = HttpClient::connect(rs.addr()).unwrap();
        (db, influx, rs, client)
    }

    #[test]
    fn full_signal_write_cycle_over_http() {
        let (db, influx, rs, mut c) = stack();
        // Job start with an extra tag.
        let r = c
            .post("/signal/start?job=42&user=alice&hosts=h1,h2&queue=batch", b"")
            .unwrap();
        assert_eq!(r.status, 204);
        // Agent writes through the router like it were InfluxDB.
        let r = c
            .post_text("/write?db=lms", "cpu,hostname=h1 value=0.9 100")
            .unwrap();
        assert_eq!(r.status, 204);
        assert!(rs.router().flush(Duration::from_secs(5)));
        let q = influx
            .query("lms", "SELECT value FROM cpu WHERE jobid = '42' AND queue = 'batch'")
            .unwrap();
        assert_eq!(q.series[0].values.len(), 1);

        // Admin view shows the running job.
        let jobs = Json::parse(&c.get("/jobs").unwrap().body_str()).unwrap();
        assert_eq!(jobs.idx(0).unwrap().get("jobid").unwrap().as_str(), Some("42"));
        assert_eq!(jobs.idx(0).unwrap().get("user").unwrap().as_str(), Some("alice"));

        // End the job; admin view empties.
        assert_eq!(c.post("/signal/end?job=42", b"").unwrap().status, 204);
        let jobs = Json::parse(&c.get("/jobs").unwrap().body_str()).unwrap();
        assert_eq!(jobs.as_arr().unwrap().len(), 0);

        rs.shutdown();
        db.shutdown();
    }

    #[test]
    fn signal_validation() {
        let (db, _ix, rs, mut c) = stack();
        assert_eq!(c.post("/signal/start?user=x&hosts=h1", b"").unwrap().status, 400);
        assert_eq!(c.post("/signal/start?job=1&user=x", b"").unwrap().status, 400);
        assert_eq!(c.post("/signal/end", b"").unwrap().status, 400);
        rs.shutdown();
        db.shutdown();
    }

    #[test]
    fn write_validation_and_stats() {
        let (db, _ix, rs, mut c) = stack();
        assert_eq!(c.post_text("/write", "broken").unwrap().status, 400);
        assert_eq!(c.post_text("/write", "ok v=1 1").unwrap().status, 204);
        let stats = Json::parse(&c.get("/stats").unwrap().body_str()).unwrap();
        assert_eq!(stats.get("lines_in").unwrap().as_i64(), Some(1));
        assert_eq!(stats.get("lines_rejected").unwrap().as_i64(), Some(1));
        assert_eq!(stats.get("forward_spooled").unwrap().as_i64(), Some(0));
        assert_eq!(stats.get("spool_pending").unwrap().as_i64(), Some(0));
        assert_eq!(stats.get("breaker").unwrap().as_str(), Some("closed"));
        rs.shutdown();
        db.shutdown();
    }

    #[test]
    fn saturated_pipeline_sheds_writes_but_not_signals() {
        use std::time::Instant;
        // Dead DB + 1-batch queue + single worker: batches pile up and the
        // admission gate trips.
        let clock = Clock::simulated(Timestamp::from_secs(9000));
        let influx = Influx::new(clock.clone()).unwrap();
        let db = InfluxServer::start("127.0.0.1:0", influx).unwrap();
        let dead = db.addr();
        db.shutdown();
        let config = RouterConfig {
            queue_capacity: 1,
            forward_workers: 1,
            max_retries: 10,
            ..Default::default()
        };
        let router = Arc::new(Router::new(dead, config, clock, None).unwrap());
        let rs = RouterServer::start("127.0.0.1:0", router).unwrap();
        let mut c = HttpClient::connect(rs.addr()).unwrap();

        let deadline = Instant::now() + Duration::from_secs(10);
        let mut shed = None;
        let mut i = 0u32;
        while Instant::now() < deadline && shed.is_none() {
            let r = c.post_text("/write", format!("m v={i} {i}").as_str()).unwrap();
            i += 1;
            if r.status == 503 {
                shed = Some(r);
            }
        }
        let r = shed.expect("a bulk write should have been shed with 503");
        assert!(r.header("retry-after").is_some(), "shed response must carry Retry-After");
        // Signals bypass admission: always 204, even while saturated.
        assert_eq!(c.post("/signal/start?job=1&user=u&hosts=h1", b"").unwrap().status, 204);
        assert_eq!(c.post("/signal/end?job=1", b"").unwrap().status, 204);
        let stats = Json::parse(&c.get("/stats").unwrap().body_str()).unwrap();
        assert!(stats.get("writes_shed").unwrap().as_i64().unwrap() >= 1);
        rs.shutdown();
    }

    #[test]
    fn range_and_listing_endpoints_over_http() {
        let (db, _ix, rs, mut c) = stack();
        let body = "cpu,hostname=h1 value=1 2000000000\ncpu,hostname=h1 value=2 70000000000";
        assert_eq!(c.post_text("/write?db=lms", body).unwrap().status, 204);
        assert!(rs.router().flush(Duration::from_secs(5)));

        // start/end/step accept both raw nanoseconds and duration literals.
        let q = lms_http::url::percent_encode("SELECT sum(value) FROM cpu");
        let r = c
            .get(&format!("/query_range?db=lms&q={q}&start=0&end=2m&step=1m"))
            .unwrap();
        assert_eq!(r.status, 200, "{}", r.body_str());
        let json = Json::parse(&r.body_str()).unwrap();
        let series = json.get("results").unwrap().idx(0).unwrap().get("series").unwrap();
        let values = series.idx(0).unwrap().get("values").unwrap();
        assert_eq!(values.idx(0).unwrap().idx(1).unwrap().as_f64(), Some(1.0));
        assert_eq!(values.idx(1).unwrap().idx(1).unwrap().as_f64(), Some(2.0));

        let r = c.get(&format!("/query_range?db=lms&q={q}&start=0")).unwrap();
        assert_eq!(r.status, 400);
        let r = c.get(&format!("/query_range?db=lms&q={q}&start=0&end=bogus")).unwrap();
        assert_eq!(r.status, 400);

        let r = c.get("/metrics?db=lms").unwrap();
        assert_eq!(r.status, 200);
        let json = Json::parse(&r.body_str()).unwrap();
        assert_eq!(json.get("metrics").unwrap().idx(0).unwrap().as_str(), Some("cpu"));
        let r = c.get("/labels/cpu?db=lms").unwrap();
        assert_eq!(r.status, 200);
        let json = Json::parse(&r.body_str()).unwrap();
        assert_eq!(json.get("labels").unwrap().idx(0).unwrap().as_str(), Some("hostname"));
        assert_eq!(c.get("/metrics?db=ghost").unwrap().status, 404);
        assert_eq!(c.get("/metrics").unwrap().status, 400);
        rs.shutdown();
        db.shutdown();
    }

    #[test]
    fn health_endpoints() {
        let (db, _ix, rs, mut c) = stack();
        assert_eq!(c.get("/health/live").unwrap().status, 204);
        assert_eq!(c.get("/health/ready").unwrap().status, 204);
        rs.shutdown();
        db.shutdown();
    }

    #[test]
    fn ping_and_unknown() {
        let (db, _ix, rs, mut c) = stack();
        assert_eq!(c.get("/ping").unwrap().status, 204);
        assert_eq!(c.get("/nope").unwrap().status, 404);
        rs.shutdown();
        db.shutdown();
    }
}
