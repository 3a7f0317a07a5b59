//! A typed client for the InfluxDB-compatible API.
//!
//! Used by the router's forwarder, the dashboard agent's data source and
//! the analysis layer — all of which are then equally happy to talk to a
//! real InfluxDB (the point of mimicking its API, per the paper).

use crate::exec::QueryResult;
use lms_http::url::percent_encode;
use lms_http::{HttpClient, Request, Response};
use lms_lineproto::Precision;
use lms_util::{Error, Json, Result};
use std::net::ToSocketAddrs;

/// Client for one database server.
pub struct InfluxClient {
    http: HttpClient,
}

/// Parses a JSON answer, lifting an `{"error": ...}` body — or any answer
/// of status ≥ 400, JSON or not (a node sheds connections over its cap
/// with a plain-text 503) — into `Error::Remote` under the real HTTP
/// status. Cluster routers tell a node's "no such database" (404, an empty
/// answer) from a malformed query (400) and from an overloaded node (503,
/// a partial answer) by exactly this status.
fn lift(resp: &Response) -> Result<Json> {
    let parsed = Json::parse(&resp.body_str());
    let error = parsed.as_ref().ok().and_then(|json| json.get("error")).and_then(Json::as_str);
    if error.is_some() || resp.status >= 400 {
        let message = error.map_or_else(|| resp.body_str().into_owned(), str::to_string);
        return Err(Error::Remote { status: resp.status, message });
    }
    parsed
}

impl InfluxClient {
    /// Connects (lazily) to a server address.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self> {
        Ok(InfluxClient { http: HttpClient::connect(addr)? })
    }

    /// Sets the per-request I/O timeout (connect/read/write). The
    /// forwarder uses a short timeout so a blackholed connection cannot
    /// pin a worker for the default 10 s.
    pub fn set_timeout(&mut self, t: std::time::Duration) {
        self.http.set_timeout(t);
    }

    /// Writes one of this API's requests (the `*_request` builders)
    /// without waiting for the answer, so a caller with clients to several
    /// servers can write to all before it waits for any. See
    /// [`HttpClient::start`].
    pub fn start(&mut self, req: &Request) -> Result<()> {
        self.http.start(req)
    }

    /// Reads the answer to `req`, which [`start`](Self::start) wrote, for
    /// the matching `parse_*` function. See [`HttpClient::finish`].
    pub fn finish(&mut self, req: &Request) -> Result<Response> {
        self.http.finish(req)
    }

    /// Health check: `GET /ping`.
    pub fn ping(&mut self) -> Result<()> {
        self.http.get("/ping")?.into_result().map(drop)
    }

    /// Writes a line-protocol batch with nanosecond timestamps.
    pub fn write(&mut self, db: &str, batch: &str) -> Result<()> {
        self.write_with_precision(db, batch, Precision::Nanoseconds)
    }

    /// Writes a batch with explicit precision.
    pub fn write_with_precision(
        &mut self,
        db: &str,
        batch: &str,
        precision: Precision,
    ) -> Result<()> {
        let target = format!("/write?db={}&precision={}", percent_encode(db), precision.as_str());
        self.http.post_text(&target, batch)?.into_result().map(drop)
    }

    /// The `/query` request carrying `stmts` as one `;`-separated list in
    /// a form-encoded POST body — what InfluxDB accepts, and what keeps a
    /// view's worth of statements out of the request line.
    pub fn statements_request(db: &str, stmts: &[String]) -> Request {
        let mut req = Request::new("POST", &format!("/query?db={}", percent_encode(db)));
        req.headers.push(("content-type".into(), "application/x-www-form-urlencoded".into()));
        req.body = format!("q={}", percent_encode(&stmts.join(";"))).into_bytes();
        req
    }

    /// The `/metrics` request.
    pub fn metrics_request(db: &str) -> Request {
        Request::new("GET", &format!("/metrics?db={}", percent_encode(db)))
    }

    /// The `/labels/{measurement}` request.
    pub fn labels_request(db: &str, measurement: &str) -> Request {
        Request::new(
            "GET",
            &format!("/labels/{}?db={}", percent_encode(measurement), percent_encode(db)),
        )
    }

    /// Reads a single-statement `/query` or `/query_range` answer.
    fn parse_query(resp: &Response) -> Result<QueryResult> {
        Self::parse_statements(resp, 1)?.pop().expect("one outcome, checked")
    }

    /// Reads the `/query` answer to `sent` statements: one outcome per
    /// statement, in order. An error answer to the request as a whole is
    /// the outer error, as is an answer of another length.
    pub fn parse_statements(resp: &Response, sent: usize) -> Result<Vec<Result<QueryResult>>> {
        let outcomes = QueryResult::batch_from_json(lift(resp)?)?;
        if outcomes.len() != sent {
            return Err(Error::protocol(format!(
                "{sent} statements sent, {} answered",
                outcomes.len()
            )));
        }
        Ok(outcomes)
    }

    /// Reads a `{"<key>": [names]}` listing (`/metrics`, `/labels`).
    pub fn parse_listing(resp: &Response, key: &str) -> Result<Vec<String>> {
        let json = lift(resp)?;
        let items = json
            .get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| Error::protocol(format!("missing `{key}` in listing")))?;
        Ok(items.iter().filter_map(Json::as_str).map(str::to_string).collect())
    }

    /// Runs a query and parses the result.
    pub fn query(&mut self, db: &str, q: &str) -> Result<QueryResult> {
        let target = format!("/query?db={}&q={}", percent_encode(db), percent_encode(q));
        Self::parse_query(&self.http.get(&target)?)
    }

    /// Runs `stmts` in one request; one outcome per statement, in order.
    /// [`QuerySource::query_batch`](crate::QuerySource::query_batch) is
    /// this with the first failed statement failing the whole.
    pub fn query_statements(
        &mut self,
        db: &str,
        stmts: &[String],
    ) -> Result<Vec<Result<QueryResult>>> {
        Self::parse_statements(&self.http.send(&Self::statements_request(db, stmts))?, stmts.len())
    }

    /// Runs a range query: a SELECT over the half-open `[start, end)` ns
    /// range, optionally bucketed to `step` ns windows (`/query_range`).
    pub fn query_range(
        &mut self,
        db: &str,
        q: &str,
        start: i64,
        end: i64,
        step: Option<i64>,
    ) -> Result<QueryResult> {
        use std::fmt::Write as _;
        let mut target = format!(
            "/query_range?db={}&q={}&start={start}&end={end}",
            percent_encode(db),
            percent_encode(q)
        );
        if let Some(step) = step {
            write!(target, "&step={step}").expect("writing to a String");
        }
        Self::parse_query(&self.http.get(&target)?)
    }

    /// Lists the measurement names of a database (`/metrics`).
    pub fn metrics(&mut self, db: &str) -> Result<Vec<String>> {
        Self::parse_listing(&self.http.send(&Self::metrics_request(db))?, "metrics")
    }

    /// Lists the tag keys of one measurement (`/labels/{measurement}`).
    pub fn labels(&mut self, db: &str, measurement: &str) -> Result<Vec<String>> {
        Self::parse_listing(&self.http.send(&Self::labels_request(db, measurement))?, "labels")
    }

    /// Fetches the anti-entropy range digests of one database
    /// (`/integrity`). The caller supplies the cluster ring geometry so the
    /// node groups series by the same owner sets the router places by.
    pub fn integrity(
        &mut self,
        db: &str,
        nodes: usize,
        replication: usize,
        seed: u64,
    ) -> Result<Vec<lms_util::digest::BucketDigest>> {
        let target = format!(
            "/integrity?db={}&nodes={nodes}&replication={replication}&seed={seed}",
            percent_encode(db)
        );
        let json = lift(&self.http.get(&target)?)?;
        let digests = json
            .get("digests")
            .ok_or_else(|| Error::protocol("missing `digests` in /integrity"))?;
        lms_util::digest::digests_from_json(digests)
    }

    /// Fetches the canonical line-protocol export of `[start, end)` ns
    /// (`/integrity/export`), for replay through the write path.
    pub fn integrity_export(&mut self, db: &str, start: i64, end: i64) -> Result<String> {
        let target = format!(
            "/integrity/export?db={}&start={start}&end={end}",
            percent_encode(db)
        );
        let resp = self.http.get(&target)?;
        if resp.status >= 400 {
            let message = Json::parse(&resp.body_str())
                .ok()
                .and_then(|j| j.get("error").and_then(Json::as_str).map(str::to_string))
                .unwrap_or_else(|| format!("HTTP {}", resp.status));
            return Err(Error::Remote { status: resp.status, message });
        }
        Ok(resp.body_str().into_owned())
    }

    /// Creates a database.
    pub fn create_database(&mut self, name: &str) -> Result<()> {
        let target = format!("/query?q={}", percent_encode(&format!("CREATE DATABASE {name}")));
        self.http.post(&target, b"")?.into_result().map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Influx;
    use crate::server::InfluxServer;
    use lms_util::{Clock, Timestamp};

    fn start() -> (InfluxServer, InfluxClient) {
        let influx = Influx::new(Clock::simulated(Timestamp::from_secs(1000))).unwrap();
        let server = InfluxServer::start("127.0.0.1:0", influx).unwrap();
        let client = InfluxClient::connect(server.addr()).unwrap();
        (server, client)
    }

    #[test]
    fn end_to_end_typed_api() {
        let (server, mut c) = start();
        c.ping().unwrap();
        c.write("lms", "cpu,hostname=h1 value=1 100\ncpu,hostname=h1 value=3 200").unwrap();
        let r = c.query("lms", "SELECT mean(value) FROM cpu").unwrap();
        assert_eq!(r.series[0].values[0][1].as_f64(), Some(2.0));
        server.shutdown();
    }

    #[test]
    fn precision_and_create_database() {
        let (server, mut c) = start();
        c.create_database("udb").unwrap();
        c.write_with_precision("udb", "m v=5 42", Precision::Seconds).unwrap();
        let r = c.query("udb", "SELECT v FROM m").unwrap();
        assert_eq!(r.series[0].values[0][0].as_i64(), Some(42_000_000_000));
        server.shutdown();
    }

    #[test]
    fn range_query_and_listings() {
        let (server, mut c) = start();
        c.write(
            "lms",
            "cpu,hostname=h1 value=1 10000000000\ncpu,hostname=h1 value=2 70000000000",
        )
        .unwrap();
        let r = c
            .query_range("lms", "SELECT sum(value) FROM cpu", 0, 120_000_000_000, Some(60_000_000_000))
            .unwrap();
        assert_eq!(r.series[0].values.len(), 2);
        assert_eq!(r.series[0].values[0][1].as_f64(), Some(1.0));
        assert_eq!(c.metrics("lms").unwrap(), vec!["cpu"]);
        assert_eq!(c.labels("lms", "cpu").unwrap(), vec!["hostname"]);
        let err = c.query_range("ghost", "SELECT v FROM m", 0, 10, None).unwrap_err();
        assert!(err.to_string().contains("ghost"), "{err}");
        server.shutdown();
    }

    #[test]
    fn healthy_is_false_when_nothing_listens() {
        let (server, mut c) = start();
        server.shutdown();
        c.set_timeout(std::time::Duration::from_millis(300));
        assert!(c.ping().is_err());
    }

    #[test]
    fn query_error_surfaces() {
        let (server, mut c) = start();
        let err = c.query("missing_db", "SELECT v FROM m").unwrap_err();
        assert!(err.to_string().contains("missing_db"), "{err}");
        server.shutdown();
    }

    #[test]
    fn special_characters_in_query_survive_encoding() {
        let (server, mut c) = start();
        c.write("lms", "cpu,hostname=node-01 value=7 1").unwrap();
        let r = c
            .query("lms", "SELECT mean(\"value\") FROM \"cpu\" WHERE \"hostname\" = 'node-01'")
            .unwrap();
        assert_eq!(r.series[0].values[0][1].as_f64(), Some(7.0));
        server.shutdown();
    }
}
