//! The enrichment core: parse → tag → forward → publish.

use crate::delivery::{ClusterForwarder, DestinationStats};
use crate::forward::{ForwardConfig, ForwardStats};
use crate::tagstore::{JobSignal, JobTags, TagStore};
use lms_cluster::{merge_results, ClusterConfig, PartialPlan};
use lms_http::{Request, Response};
use lms_influx::query::Select;
use lms_influx::{user_view, InfluxClient, QueryResult, GLOBAL_DB};
use lms_lineproto::escape::{escape_measurement_into, escape_tag_into};
use lms_lineproto::{parse_batch, ParsedLine, Point};
use lms_mq::Publisher;
use lms_spool::SpoolConfig;
use lms_util::{Clock, Error, Result};
use parking_lot::RwLock;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Serve clients each user's database `user_<name>` (paper: "the router
    /// duplicates the metrics and store them in another storage location"),
    /// a view the nodes answer from `lms` ([`lms_influx::user_view`]).
    /// Off, those names are not found.
    pub per_user: bool,
    /// Forwarding queue capacity (batches).
    pub queue_capacity: usize,
    /// Delivery attempts per batch.
    pub max_retries: u32,
    /// Forwarder worker threads draining the queue concurrently
    /// (default: one per available core, at least two).
    pub forward_workers: usize,
    /// Where the delivery path spools what a node cannot take now:
    /// overflow, exhausted retries and a down node's share (hinted
    /// handoff), replayed in order once the node answers. `None` (the
    /// default) spools in scratch directories the router removes when it
    /// drops, so a restarted router replays nothing from them.
    pub spool: Option<SpoolConfig>,
    /// Forwarder coalescing cap in body bytes: queued batches merge into
    /// one delivery (and one WAL group commit downstream) up to this
    /// size. `0` disables coalescing.
    pub coalesce_bytes: usize,
}

impl Default for RouterConfig {
    /// The forwarder's own defaults ([`ForwardConfig::new`]) for the
    /// delivery fields; a scratch spool; per-user views off.
    fn default() -> Self {
        let forward = ForwardConfig::new(SocketAddr::from(([127, 0, 0, 1], 0)));
        RouterConfig {
            per_user: false,
            queue_capacity: forward.queue_capacity,
            max_retries: forward.max_retries,
            forward_workers: forward.workers,
            spool: None,
            coalesce_bytes: forward.coalesce_bytes,
        }
    }
}

/// Router counters.
#[derive(Debug, Clone, Default)]
pub struct RouterStats {
    /// Lines accepted.
    pub lines_in: u64,
    /// Lines that received job tags.
    pub lines_enriched: u64,
    /// Malformed lines rejected.
    pub lines_rejected: u64,
    /// Job start/end signals processed.
    pub signals: u64,
    /// Bulk write requests shed because the delivery pipeline was
    /// saturated (job signals and events are never shed).
    pub writes_shed: u64,
    /// Write requests that missed the cluster write quorum (answered 503).
    pub quorum_failures: u64,
    /// Scatter-gather queries answered with a partial result.
    pub partial_queries: u64,
    /// Anti-entropy repair passes completed.
    pub repair_passes: u64,
    /// Divergent ranges re-fetched from a healthy replica and re-written
    /// through the write path.
    pub repaired_ranges: u64,
    /// Aggregate forwarder statistics (summed across destinations; `down`
    /// when any destination is down).
    pub forward: ForwardStats,
    /// Per-destination forwarder statistics, in ring order. One entry for
    /// the classic single-database stack.
    pub destinations: Vec<DestinationStats>,
}

/// Outcome of one `/write` request.
#[derive(Debug, Clone, Copy)]
pub struct WriteOutcome {
    /// Lines parsed and routed.
    pub accepted: usize,
    /// Malformed lines skipped.
    pub rejected: usize,
    /// True when every routed node-batch met the write quorum — the
    /// request may be acknowledged with 204. False means too many owners
    /// could neither queue nor spool their share; the HTTP layer answers
    /// 503 so the collector retries.
    pub acked: bool,
}

/// The metrics router.
pub struct Router {
    tags: RwLock<TagStore>,
    delivery: ClusterForwarder,
    publisher: Option<Publisher>,
    config: RouterConfig,
    clock: Clock,
    lines_in: AtomicU64,
    lines_enriched: AtomicU64,
    lines_rejected: AtomicU64,
    signals: AtomicU64,
    writes_shed: AtomicU64,
    quorum_failures: AtomicU64,
    partial_queries: AtomicU64,
    repair_passes: AtomicU64,
    repaired_ranges: AtomicU64,
}

impl Router {
    /// Creates a router forwarding to the single database server at
    /// `db_addr` — the degenerate one-node cluster. `publisher` enables
    /// the stream-analysis feed. Fails only when the spool directory is
    /// unusable.
    pub fn new(
        db_addr: SocketAddr,
        config: RouterConfig,
        clock: Clock,
        publisher: Option<Publisher>,
    ) -> Result<Self> {
        Self::new_cluster(ClusterConfig::single(db_addr), config, clock, publisher)
    }

    /// Creates a router spreading series over `cluster.nodes` with R-way
    /// replication and hinted handoff (per-node spool subdirectories).
    /// Fails on invalid quorum arithmetic or an unusable spool directory.
    pub fn new_cluster(
        cluster: ClusterConfig,
        config: RouterConfig,
        clock: Clock,
        publisher: Option<Publisher>,
    ) -> Result<Self> {
        cluster.validate()?;
        let template = ForwardConfig {
            queue_capacity: config.queue_capacity,
            max_retries: config.max_retries,
            workers: config.forward_workers,
            spool: config.spool.clone(),
            coalesce_bytes: config.coalesce_bytes,
            ..ForwardConfig::new(cluster.nodes[0])
        };
        let delivery = ClusterForwarder::start(&cluster, &template)?;
        Ok(Router {
            tags: RwLock::new(TagStore::new()),
            delivery,
            publisher,
            config,
            clock,
            lines_in: AtomicU64::new(0),
            lines_enriched: AtomicU64::new(0),
            lines_rejected: AtomicU64::new(0),
            signals: AtomicU64::new(0),
            writes_shed: AtomicU64::new(0),
            quorum_failures: AtomicU64::new(0),
            partial_queries: AtomicU64::new(0),
            repair_passes: AtomicU64::new(0),
            repaired_ranges: AtomicU64::new(0),
        })
    }

    /// The configuration.
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }

    /// Read access to the tag store (admin views).
    pub fn with_tags<R>(&self, f: impl FnOnce(&TagStore) -> R) -> R {
        f(&self.tags.read())
    }

    /// Priority-aware admission for **bulk** metric writes: returns false
    /// (and counts the shed) when the delivery pipeline is saturated, so
    /// the HTTP layer can answer 503 + Retry-After instead of piling more
    /// work onto an overloaded queue. Job signals and annotation events
    /// never go through this gate — they are always admitted.
    pub fn try_admit_write(&self) -> bool {
        if self.delivery.saturated() {
            self.writes_shed.fetch_add(1, Ordering::Relaxed);
            false
        } else {
            true
        }
    }

    /// Readiness of the supervised forwarder/drainer threads (all nodes).
    pub fn workers_ready(&self) -> bool {
        self.delivery.workers_ready()
    }

    /// Health reports of the supervised forwarder/drainer threads.
    pub fn worker_reports(&self) -> Vec<lms_util::WorkerReport> {
        self.delivery.worker_reports()
    }

    /// Fault injection: panic the spool drainer(s) on the next `n`
    /// iterations.
    pub fn inject_drainer_panics(&self, n: u64) {
        self.delivery.inject_drainer_panics(n);
    }

    /// The delivery fabric (cluster tests and admin tooling).
    pub fn delivery(&self) -> &ClusterForwarder {
        &self.delivery
    }

    /// Handles an incoming line-protocol batch (the `/write` endpoint).
    ///
    /// Each line is handled once. A line whose host runs a job, that
    /// carries no timestamp, or whose tag keys are out of order or repeat,
    /// is rewritten (spliced): tags in key order with the job's
    /// merged in, the router clock's time appended when it has none. Any
    /// other line stays the received bytes. That one text is routed to its
    /// series' owner node(s), once, and published on the queue. Malformed
    /// lines are skipped and counted.
    pub fn handle_write(&self, db: Option<&str>, body: &str) -> WriteOutcome {
        let parsed = parse_batch(body);
        let rejected = parsed.errors.len();
        self.lines_rejected.fetch_add(rejected as u64, Ordering::Relaxed);
        let accepted = parsed.lines.len();
        if accepted == 0 {
            return WriteOutcome { accepted, rejected, acked: true };
        }
        self.lines_in.fetch_add(accepted as u64, Ordering::Relaxed);

        let default_ts = self.clock.now().nanos();
        let mut batch = self.delivery.batch(db.unwrap_or(GLOBAL_DB));
        let mut spliced = String::new();
        let mut topic = String::new();
        let mut enriched = 0u64;
        {
            let tags = self.tags.read();
            for line in &parsed.lines {
                let job = line.hostname().and_then(|host| tags.job_tags(host));
                // Agents send their tags sorted; strictly ascending keys
                // also means no key repeats.
                let canonical = line.tags.windows(2).all(|pair| pair[0].0 < pair[1].0);
                if job.is_none() && line.timestamp.is_some() && canonical {
                    batch.push_raw(line);
                    self.publish_metric(&mut topic, &line.measurement, line.raw);
                    continue;
                }
                spliced.clear();
                let key_len = splice_line(line, job, default_ts, &mut spliced);
                batch.push_line(&spliced, &spliced[..key_len]);
                enriched += u64::from(job.is_some());
                self.publish_metric(&mut topic, &line.measurement, &spliced);
            }
        }
        self.lines_enriched.fetch_add(enriched, Ordering::Relaxed);

        let acked = batch.submit();
        if !acked {
            self.quorum_failures.fetch_add(1, Ordering::Relaxed);
        }
        WriteOutcome { accepted, rejected, acked }
    }

    /// Publishes one routed line under `metrics.<measurement>`; the topic
    /// is written into `topic`, one buffer per request.
    fn publish_metric(&self, topic: &mut String, measurement: &str, line: &str) {
        if let Some(publisher) = &self.publisher {
            topic.clear();
            topic.push_str("metrics.");
            topic.push_str(measurement);
            publisher.publish(topic, line.as_bytes());
        }
    }

    /// Scatter-gather read over the cluster (the `/query` endpoint).
    ///
    /// With one node the statement passes through unchanged. With more,
    /// every SELECT goes out in its partial form, its range fixed from the
    /// router's clock: each node answers every matching series' own window
    /// aggregates or raw rows, and the router dedupes replica copies and
    /// runs the executor's own fold over them ([`lms_cluster::partial`]) —
    /// the answer of one node holding every point, at any replication
    /// factor R ≤ N. Listings (`SHOW ...`) are unioned. Unreachable nodes
    /// degrade the result to `partial` instead of failing it: a
    /// down node is skipped outright, a transient error is noted
    /// and skipped, and only genuine query errors (or *zero* reachable
    /// nodes) surface as errors. A node
    /// that does not know the database counts as an empty answer — with
    /// R < N, databases exist only on the nodes that own some of their
    /// series.
    pub fn handle_query(&self, db: &str, q: &str) -> Result<QueryResult> {
        self.handle_statements(db, &[q.to_string()])?.pop().expect("one outcome per statement")
    }

    /// [`handle_query`](Self::handle_query) for a list of statements (the
    /// `;`-separated form of `/query`): every statement is planned on its
    /// own, each node gets **one** request carrying all of them, and the
    /// answers merge per statement — so the list costs one scatter, and
    /// each outcome is what the statement sent alone would have produced.
    /// The outer error is the scatter's (no node reachable).
    pub fn handle_statements(
        &self,
        db: &str,
        stmts: &[String],
    ) -> Result<Vec<Result<QueryResult>>> {
        let cluster = self.delivery.node_count() > 1;
        let now = self.clock.now().nanos();
        let plans: Vec<Option<PartialPlan>> = stmts
            .iter()
            .map(|q| if cluster { PartialPlan::new(q, now) } else { None })
            .collect();
        let sent: Vec<String> = stmts
            .iter()
            .zip(&plans)
            .map(|(q, plan)| plan.as_ref().map_or(q.as_str(), PartialPlan::partial_query).to_string())
            .collect();
        let req = InfluxClient::statements_request(db, &sent);
        let (nodes, partial) =
            self.scatter(db, &req, |resp| InfluxClient::parse_statements(resp, sent.len()))?;
        // Statement k's parts are the k-th outcome of every node, folded by
        // the scatter's own rules: a 404 is an empty answer, any other
        // error is the statement's.
        let mut nodes: Vec<_> = nodes.into_iter().map(Vec::into_iter).collect();
        Ok(plans
            .into_iter()
            .map(|plan| {
                let outcomes: Vec<Result<QueryResult>> = nodes
                    .iter_mut()
                    .map(|node| node.next().expect("one outcome per statement, checked above"))
                    .collect();
                let mut parts = Vec::with_capacity(outcomes.len());
                for outcome in outcomes {
                    match outcome {
                        Ok(part) => parts.push(part),
                        Err(Error::Remote { status: 404, .. }) => {}
                        Err(e) => return Err(e),
                    }
                }
                if parts.is_empty() {
                    return Err(missing_db_error(db));
                }
                Ok(self.merge(plan, parts, partial))
            })
            .collect())
    }

    /// Scatter-gather range read over the cluster (the `/query_range`
    /// endpoint): the statement bounded to `[start, end)` ns and bucketed
    /// to `step` ns windows as a node would ([`Select::for_range`]), then
    /// read as [`handle_query`](Self::handle_query) reads it.
    pub fn handle_query_range(
        &self,
        db: &str,
        q: &str,
        start: i64,
        end: i64,
        step: Option<i64>,
    ) -> Result<QueryResult> {
        let sel = Select::for_range(q, start, end, step)?;
        self.handle_query(db, &sel.render())
    }

    /// Cluster-wide measurement listing (the `/metrics` endpoint): the
    /// union of every reachable node's measurements, sorted.
    pub fn handle_metrics(&self, db: &str) -> Result<Vec<String>> {
        let req = InfluxClient::metrics_request(db);
        let (parts, _) =
            self.scatter(db, &req, |resp| InfluxClient::parse_listing(resp, "metrics"))?;
        Ok(union_sorted(parts))
    }

    /// Cluster-wide tag-key listing for one measurement (the
    /// `/labels/{measurement}` endpoint).
    pub fn handle_labels(&self, db: &str, measurement: &str) -> Result<Vec<String>> {
        let req = InfluxClient::labels_request(db, measurement);
        let (parts, _) =
            self.scatter(db, &req, |resp| InfluxClient::parse_listing(resp, "labels"))?;
        Ok(union_sorted(parts))
    }

    /// The shared scatter skeleton: `req` is written to every reachable
    /// node over a kept connection, and only then are the answers read
    /// (each through `parse`) — the nodes work at the same time, so the
    /// scatter costs the slowest node rather than the sum, with no thread
    /// of its own. Down and transient nodes degrade to a partial
    /// answer, 404s count as empty answers, and zero reachable answers
    /// surface as the single-node stack's error. A client goes back to its
    /// node's set only once its answer is read in full; an early return
    /// drops the ones still owed an answer, which closes them.
    fn scatter<T>(
        &self,
        db: &str,
        req: &Request,
        parse: impl Fn(&Response) -> Result<T>,
    ) -> Result<(Vec<T>, bool)> {
        if !self.config.per_user && user_view(db).is_some() {
            return Err(missing_db_error(db));
        }
        let nodes = self.delivery.node_count();
        let mut partial = false;
        let mut last_transient: Option<Error> = None;
        let mut in_flight = Vec::with_capacity(nodes);
        for i in 0..nodes {
            if nodes > 1 && self.delivery.is_down(i) {
                partial = true;
                continue;
            }
            let clients = self.delivery.clients(i);
            let started = clients.checkout().and_then(|mut client| {
                client.start(req)?;
                Ok(client)
            });
            match started {
                Ok(client) => in_flight.push((clients, client)),
                Err(e) if e.is_transient() => {
                    partial = true;
                    last_transient = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        let mut parts = Vec::with_capacity(in_flight.len());
        let mut missing_db = 0usize;
        for (clients, mut client) in in_flight {
            let answer = client.finish(req);
            // A 5xx is kept out of the set: the node closes what it sheds.
            if matches!(&answer, Ok(resp) if resp.status < 500) {
                clients.give_back(client);
            }
            match answer.and_then(|resp| parse(&resp)) {
                Ok(r) => parts.push(r),
                Err(Error::Remote { status: 404, .. }) => missing_db += 1,
                Err(e) if e.is_transient() => {
                    partial = true;
                    last_transient = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        if parts.is_empty() {
            if missing_db > 0 {
                // Every reachable node answered 404: surface it as the
                // single-node stack would.
                return Err(missing_db_error(db));
            }
            return Err(last_transient
                .unwrap_or_else(|| Error::unavailable("no cluster node reachable")));
        }
        Ok((parts, partial))
    }

    /// Combines per-node answers — folded through `plan` for a SELECT,
    /// unioned otherwise — and counts partials. With `per_user` off, a
    /// `SHOW DATABASES` answer (the one `databases` listing of `name`s)
    /// keeps no user view.
    fn merge(&self, plan: Option<PartialPlan>, parts: Vec<QueryResult>, partial: bool) -> QueryResult {
        let mut merged = match plan {
            Some(plan) => plan.merge(parts),
            None => merge_results(parts),
        };
        if !self.config.per_user {
            let listings = merged.series.iter_mut();
            for s in listings.filter(|s| s.name == "databases" && s.columns == ["name"]) {
                s.values.retain(|row| row[0].as_str().and_then(user_view).is_none());
            }
        }
        merged.partial |= partial;
        if merged.partial {
            self.partial_queries.fetch_add(1, Ordering::Relaxed);
        }
        merged
    }

    /// Handles a job-start signal: updates the tag store, records an
    /// annotation event per host in the database, publishes on the queue.
    pub fn handle_job_start(&self, signal: JobSignal) {
        self.signals.fetch_add(1, Ordering::Relaxed);
        self.tags.write().job_start(&signal);
        self.record_signal_event("job_start", &signal.job_id, &signal.user, &signal.hosts);
    }

    /// Handles a job-end signal.
    pub fn handle_job_end(&self, job_id: &str) {
        self.signals.fetch_add(1, Ordering::Relaxed);
        let info = {
            let mut tags = self.tags.write();
            let hosts = tags.hosts_of(job_id).map(<[String]>::to_vec);
            let user = hosts.as_ref().and_then(|h| {
                let job = tags.job_tags(h.first()?)?;
                job.user().map(str::to_string)
            });
            tags.job_end(job_id);
            hosts.map(|h| (h, user.unwrap_or_default()))
        };
        if let Some((hosts, user)) = info {
            self.record_signal_event("job_end", job_id, &user, &hosts);
        }
    }

    /// Writes the annotation events for a signal and publishes it.
    fn record_signal_event(&self, kind: &str, job_id: &str, user: &str, hosts: &[String]) {
        let ts = self.clock.now().nanos();
        let mut batch = self.delivery.batch(GLOBAL_DB);
        for host in hosts {
            let mut ev = Point::new("events");
            ev.add_tag("hostname", host.as_str())
                .add_tag("jobid", job_id)
                .add_tag("kind", kind)
                .add_field("text", format!("{kind} job {job_id} (user {user})"))
                .set_timestamp(ts);
            batch.push_point(&ev);
        }
        if let Some(publisher) = &self.publisher {
            publisher.publish(
                &format!("signal.{kind}"),
                format!("jobid={job_id} user={user} hosts={}", hosts.join(",")).as_bytes(),
            );
        }
        batch.submit();
    }

    /// One anti-entropy repair pass over `dbs` (see [`crate::repair`]):
    /// per database, diff every node's `/integrity` digests and replay
    /// each divergent hour from its elected source through the normal
    /// replicated write path. A no-op below two nodes or two replicas.
    pub fn run_repair_pass(&self, dbs: &[&str]) -> crate::repair::RepairOutcome {
        let mut total = crate::repair::RepairOutcome::default();
        for db in dbs {
            total.add(crate::repair::repair_database(&self.delivery, db));
        }
        self.repair_passes.fetch_add(1, Ordering::Relaxed);
        self.repaired_ranges.fetch_add(total.repaired_ranges, Ordering::Relaxed);
        total
    }

    /// Current statistics.
    pub fn stats(&self) -> RouterStats {
        RouterStats {
            lines_in: self.lines_in.load(Ordering::Relaxed),
            lines_enriched: self.lines_enriched.load(Ordering::Relaxed),
            lines_rejected: self.lines_rejected.load(Ordering::Relaxed),
            signals: self.signals.load(Ordering::Relaxed),
            writes_shed: self.writes_shed.load(Ordering::Relaxed),
            quorum_failures: self.quorum_failures.load(Ordering::Relaxed),
            partial_queries: self.partial_queries.load(Ordering::Relaxed),
            repair_passes: self.repair_passes.load(Ordering::Relaxed),
            repaired_ranges: self.repaired_ranges.load(Ordering::Relaxed),
            forward: self.delivery.stats(),
            destinations: self.delivery.destination_stats(),
        }
    }

    /// Waits for every destination's forwarding queue (and spool) to drain
    /// completely (tests, shutdown of a healthy stack).
    pub fn flush(&self, timeout: std::time::Duration) -> bool {
        self.delivery.flush(timeout)
    }
}

/// Writes `line` as the router forwards it and returns the length of its
/// canonical series key, which is what the text begins with: the
/// measurement, then the line's tags merged in key order with the job's (a
/// job tag replaces a line tag of the same key, and of a repeated line key
/// the last wins), then the received fields and timestamp verbatim, with
/// ` <default_ts>` appended when the line carries no timestamp.
fn splice_line(
    line: &ParsedLine<'_>,
    job: Option<&JobTags>,
    default_ts: i64,
    out: &mut String,
) -> usize {
    let (job_tags, job_wire) = job.map_or((&[][..], &[][..]), |j| (j.pairs(), j.wire()));
    escape_measurement_into(&line.measurement, out);
    let mut next = 0;
    line.for_each_canonical_tag(|k, v| {
        while next < job_tags.len() && job_tags[next].0.as_str() <= k {
            out.push_str(&job_wire[next]);
            next += 1;
            if job_tags[next - 1].0 == k {
                return;
            }
        }
        out.push(',');
        escape_tag_into(k, out);
        out.push('=');
        escape_tag_into(v, out);
    });
    for wire in &job_wire[next..] {
        out.push_str(wire);
    }
    let key_len = out.len();
    out.push(' ');
    let fields = line.fields_raw();
    match line.timestamp {
        Some(_) => out.push_str(fields),
        None => {
            // A line without a timestamp may end in the space before it.
            let _ = write!(out, "{} {default_ts}", fields.trim_end());
        }
    }
    key_len
}

/// What a node answers for a database it does not hold, word for word.
fn missing_db_error(db: &str) -> Error {
    let message = Error::not_found(format!("database `{db}`")).to_string();
    Error::Remote { status: 404, message }
}

/// Union of per-node name listings, sorted and deduplicated.
fn union_sorted(parts: Vec<Vec<String>>) -> Vec<String> {
    let mut all: Vec<String> = parts.into_iter().flatten().collect();
    all.sort_unstable();
    all.dedup();
    all
}

/// Parses a `hosts` signal parameter: comma-separated hostnames.
pub fn parse_hosts(s: &str) -> Vec<String> {
    s.split(',').map(str::trim).filter(|h| !h.is_empty()).map(String::from).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_influx::{Influx, InfluxServer};
    use lms_util::Timestamp;
    use std::time::Duration;

    fn setup(config: RouterConfig) -> (InfluxServer, Influx, Router) {
        let clock = Clock::simulated(Timestamp::from_secs(5000));
        let influx = Influx::new(clock.clone()).unwrap();
        let server = InfluxServer::start("127.0.0.1:0", influx.clone()).unwrap();
        let router = Router::new(server.addr(), config, clock, None).unwrap();
        (server, influx, router)
    }

    fn signal(job: &str, user: &str, hosts: &[&str]) -> JobSignal {
        JobSignal {
            job_id: job.into(),
            user: user.into(),
            hosts: hosts.iter().map(|h| h.to_string()).collect(),
            extra_tags: vec![],
        }
    }

    #[test]
    fn enriches_metrics_of_job_hosts() {
        let (server, influx, router) = setup(RouterConfig::default());
        router.handle_job_start(signal("42", "alice", &["h1"]));
        router.handle_write(None, "cpu,hostname=h1 value=1 100\ncpu,hostname=h2 value=2 100");
        assert!(router.flush(Duration::from_secs(5)));

        let r = influx.query("lms", "SELECT value FROM cpu WHERE jobid = '42'").unwrap();
        assert_eq!(r.series[0].values.len(), 1);
        let r = influx.query("lms", "SELECT value FROM cpu WHERE user = 'alice'").unwrap();
        assert_eq!(r.series[0].values.len(), 1);
        // h2 has no job: stored untagged.
        let r = influx.query("lms", "SELECT value FROM cpu").unwrap();
        let total: usize = r.series.iter().map(|s| s.values.len()).sum();
        assert_eq!(total, 2);

        let stats = router.stats();
        assert_eq!(stats.lines_in, 2);
        assert_eq!(stats.lines_enriched, 1);
        server.shutdown();
    }

    #[test]
    fn job_end_stops_enrichment() {
        let (server, influx, router) = setup(RouterConfig::default());
        router.handle_job_start(signal("42", "alice", &["h1"]));
        router.handle_write(None, "m,hostname=h1 v=1 100");
        router.handle_job_end("42");
        router.handle_write(None, "m,hostname=h1 v=2 200");
        assert!(router.flush(Duration::from_secs(5)));
        let r = influx.query("lms", "SELECT v FROM m WHERE jobid = '42'").unwrap();
        assert_eq!(r.series[0].values.len(), 1);
        server.shutdown();
    }

    #[test]
    fn signals_become_annotation_events() {
        let (server, influx, router) = setup(RouterConfig::default());
        router.handle_job_start(signal("7", "bob", &["h1", "h2"]));
        router.handle_job_end("7");
        assert!(router.flush(Duration::from_secs(5)));
        let r = influx
            .query("lms", "SELECT text FROM events WHERE jobid = '7'")
            .unwrap();
        let total: usize = r.series.iter().map(|s| s.values.len()).sum();
        assert_eq!(total, 4); // start+end on two hosts
        let r = influx
            .query("lms", "SELECT text FROM events WHERE kind = 'job_start' AND hostname = 'h1'")
            .unwrap();
        assert!(r.series[0].values[0][1].as_str().unwrap().contains("job 7"));
        server.shutdown();
    }

    /// The names `SHOW DATABASES` lists through `router`.
    fn listed_databases(router: &Router) -> Vec<String> {
        let r = router.handle_query("lms", "SHOW DATABASES").unwrap();
        r.series[0].values.iter().map(|row| row[0].as_str().unwrap().to_string()).collect()
    }

    #[test]
    fn per_user_duplication() {
        // alice's line is stored once, in lms; user_alice is the node's
        // view of it.
        let config = RouterConfig { per_user: true, ..Default::default() };
        let (server, influx, router) = setup(config);
        router.handle_job_start(signal("42", "alice", &["h1"]));
        router.handle_write(None, "m,hostname=h1 v=1 100\nm,hostname=h9 v=9 100");
        assert!(router.flush(Duration::from_secs(5)));
        assert_eq!(influx.point_count("lms"), 2 + 1 /* start event */);
        assert_eq!(influx.database_names(), vec!["lms"]);
        let r = router.handle_query("user_alice", "SELECT v FROM m").unwrap();
        assert_eq!(r.series[0].values.len(), 1);
        assert_eq!(r.series[0].values[0][1].as_f64(), Some(1.0));
        assert_eq!(router.handle_metrics("user_alice").unwrap(), vec!["m"]);
        assert_eq!(listed_databases(&router), vec!["lms", "user_alice"]);
        server.shutdown();
    }

    #[test]
    fn user_views_are_not_found_with_per_user_off() {
        let (server, _influx, router) = setup(RouterConfig::default());
        router.handle_job_start(signal("42", "alice", &["h1"]));
        router.handle_write(None, "m,hostname=h1 v=1 100");
        assert!(router.flush(Duration::from_secs(5)));
        let not_found = |r: Result<_>| matches!(r, Err(Error::Remote { status: 404, .. }));
        assert!(not_found(router.handle_query("user_alice", "SELECT v FROM m").map(drop)));
        assert!(not_found(router.handle_metrics("user_alice").map(drop)));
        assert!(not_found(router.handle_labels("user_alice", "m").map(drop)));
        assert_eq!(listed_databases(&router), vec!["lms"]);
        server.shutdown();
    }

    #[test]
    fn passthrough_forwards_untagged_timestamped_lines_verbatim() {
        let (server, influx, router) = setup(RouterConfig::default());
        // h5 has no job entry and the line carries a timestamp: the router
        // forwards the original bytes without building a Point.
        let o = router.handle_write(None, "cpu,hostname=h5 value=0.5 12345");
        assert_eq!((o.accepted, o.rejected), (1, 0));
        assert!(o.acked);
        assert!(router.flush(Duration::from_secs(5)));
        let r = influx.query("lms", "SELECT value FROM cpu").unwrap();
        assert_eq!(r.series[0].values[0][0].as_i64(), Some(12345));
        assert_eq!(r.series[0].values[0][1].as_f64(), Some(0.5));
        assert_eq!(router.stats().lines_enriched, 0);
        server.shutdown();
    }

    #[test]
    fn untimestamped_lines_get_router_time() {
        let (server, influx, router) = setup(RouterConfig::default());
        router.handle_write(None, "m,hostname=h1 v=1");
        assert!(router.flush(Duration::from_secs(5)));
        let r = influx.query("lms", "SELECT v FROM m").unwrap();
        assert_eq!(r.series[0].values[0][0].as_i64(), Some(Timestamp::from_secs(5000).nanos()));
        server.shutdown();
    }

    #[test]
    fn malformed_lines_counted_but_batch_continues() {
        let (server, influx, router) = setup(RouterConfig::default());
        let o = router.handle_write(None, "m,hostname=h1 v=1 1\nbroken\nm,hostname=h1 v=2 2");
        assert_eq!((o.accepted, o.rejected), (2, 1));
        assert!(router.flush(Duration::from_secs(5)));
        assert_eq!(influx.point_count("lms"), 2);
        assert_eq!(router.stats().lines_rejected, 1);
        server.shutdown();
    }

    #[test]
    fn scatter_gather_treats_missing_db_as_empty_answer() {
        // R = 1 over 2 nodes: each series (and so each per-user database)
        // exists only on its owner. A whole-db query must merge the
        // owners' answers, treating the other nodes' 404s as empty — and
        // a database on *no* node must still surface the 404.
        let clock = Clock::simulated(Timestamp::from_secs(5000));
        let mut servers = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..2 {
            let ix = Influx::new(clock.clone()).unwrap();
            servers.push(InfluxServer::start("127.0.0.1:0", ix.clone()).unwrap());
            handles.push(ix);
        }
        let cluster = ClusterConfig {
            nodes: servers.iter().map(|s| s.addr()).collect(),
            replication: 1,
            write_quorum: 1,
            seed: 7,
        };
        let router =
            Router::new_cluster(cluster, RouterConfig::default(), clock, None).unwrap();
        const N: usize = 32;
        let body: String =
            (1..=N).map(|i| format!("m,hostname=g{} v={i} {i}\n", i % 8)).collect();
        let o = router.handle_write(None, &body);
        assert!(o.acked);
        assert_eq!((o.accepted, o.rejected), (N, 0));
        assert!(router.flush(Duration::from_secs(10)));
        // Both nodes own a share, so each sees the other's 404-free gap.
        assert!(handles.iter().all(|h| h.point_count("lms") > 0));

        let r = router.handle_query("lms", "SELECT v FROM m").unwrap();
        assert!(!r.partial);
        let rows: usize = r.series.iter().map(|s| s.values.len()).sum();
        assert_eq!(rows, N, "union of both owners, nothing lost or duplicated");

        match router.handle_query("nope", "SELECT v FROM m") {
            Err(Error::Remote { status: 404, .. }) => {}
            other => panic!("expected 404 for a database on no node, got {other:?}"),
        }
        for s in servers {
            s.shutdown();
        }
    }

    /// An N-node cluster with R-way replication with `body` written
    /// through its router, at a clock of 5000 s.
    fn cluster_with(n: usize, replication: usize, body: &str) -> (Vec<InfluxServer>, Router) {
        let clock = Clock::simulated(Timestamp::from_secs(5000));
        let servers: Vec<InfluxServer> = (0..n)
            .map(|_| InfluxServer::start("127.0.0.1:0", Influx::new(clock.clone()).unwrap()).unwrap())
            .collect();
        let cluster = ClusterConfig {
            nodes: servers.iter().map(|s| s.addr()).collect(),
            replication,
            write_quorum: 1,
            seed: 7,
        };
        let router =
            Router::new_cluster(cluster, RouterConfig::default(), clock, None).unwrap();
        assert!(router.handle_write(None, body).acked);
        assert!(router.flush(Duration::from_secs(10)));
        (servers, router)
    }

    /// One node holding every point of `body`, at the clusters' clock.
    fn one_node(body: &str) -> Influx {
        let one = Influx::new(Clock::simulated(Timestamp::from_secs(5000))).unwrap();
        one.write_lines("lms", body, Default::default()).unwrap();
        one
    }

    /// 32 points over 8 series, `m,hostname=g{i%8} v=i` at `i × unit_ns`
    /// for i in 1..=32.
    fn points_32(unit_ns: i64) -> String {
        (1..=32).map(|i| format!("m,hostname=g{} v={i} {}\n", i % 8, i * unit_ns)).collect()
    }

    fn loaded_cluster(n: usize, replication: usize) -> (Vec<InfluxServer>, Router) {
        cluster_with(n, replication, &points_32(1))
    }

    #[test]
    fn cluster_answers_equal_one_node_where_the_per_node_merges_did_not() {
        // R = 2 over 3 nodes: every series lives on two owners, no node
        // holds everything. Each statement got a wrong answer from merging
        // per-node results: two rows for last/first, three stddev rows,
        // five unordered raw rows, twelve per-node FILL rows.
        let body = points_32(1_000_000_000);
        let one = one_node(&body);
        let (servers, router) = cluster_with(3, 2, &body);
        let cases: [(&str, &[f64]); 6] = [
            ("SELECT mean(v), count(v), min(v), max(v) FROM m", &[16.5, 32.0, 1.0, 32.0]),
            ("SELECT last(v) FROM m", &[32.0]),
            ("SELECT first(v) FROM m", &[1.0]),
            ("SELECT stddev(v) FROM m", &[85.25f64.sqrt()]),
            ("SELECT v FROM m ORDER BY time DESC LIMIT 3", &[32.0, 31.0, 30.0]),
            ("SELECT count(v) FROM m GROUP BY time(8s) FILL(null)", &[7.0, 8.0, 8.0, 8.0, 1.0]),
        ];
        for (q, values) in cases {
            let got = router.handle_query("lms", q).unwrap();
            assert_eq!(got, one.query("lms", q).unwrap(), "{q}");
            assert!(!got.partial);
            assert_eq!(got.series.len(), 1, "{q}: {:?}", got.series);
            let cells: Vec<f64> = match got.series[0].values.as_slice() {
                [row] => row[1..].iter().map(|c| c.as_f64().unwrap()).collect(),
                rows => rows.iter().map(|row| row[1].as_f64().unwrap()).collect(),
            };
            assert_eq!(cells, values, "{q}");
        }
        for s in servers {
            s.shutdown();
        }
    }

    /// The functions a generated statement draws from.
    const FUNCS: [&str; 8] = ["count", "sum", "mean", "min", "max", "first", "last", "stddev"];

    /// A generated SELECT: projection kind (raw `v`, raw `w, v`, or the
    /// drawn aggregates over `v`/`w`), fill, grouping (none, host, time,
    /// both), `ORDER BY time DESC`, `LIMIT`, range kind (none, absolute,
    /// relative to `now()`), window, range start and span, in seconds.
    type Shape =
        (u8, Vec<(usize, bool)>, u8, u8, bool, Option<usize>, u8, i64, i64, i64);

    fn statement(shape: &Shape) -> String {
        let (kind, funcs, fill, grouping, desc, limit, range, window, lo, span) = shape;
        let raw = *kind < 2;
        let projection = match kind {
            0 => "v".to_string(),
            1 => "w, v".to_string(),
            _ => funcs
                .iter()
                .map(|&(f, on_w)| format!("{}({})", FUNCS[f], if on_w { "w" } else { "v" }))
                .collect::<Vec<_>>()
                .join(", "),
        };
        let mut q = format!("SELECT {projection} FROM m");
        match range {
            1 => q.push_str(&format!(" WHERE time >= {lo}s AND time < {}s", lo + span)),
            2 => q.push_str(&format!(" WHERE time >= now() - {}s", 5000 - lo)),
            _ => {}
        }
        let mut groups = Vec::new();
        if grouping & 1 == 1 && !raw {
            groups.push(format!("time({window}s)"));
        }
        if grouping & 2 == 2 {
            groups.push("hostname".to_string());
        }
        if !groups.is_empty() {
            q.push_str(&format!(" GROUP BY {}", groups.join(", ")));
        }
        q.push_str(["", " FILL(null)", " FILL(0)"][*fill as usize]);
        if *desc {
            q.push_str(" ORDER BY time DESC");
        }
        if let Some(n) = limit {
            q.push_str(&format!(" LIMIT {n}"));
        }
        q
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 12,
            ..Default::default()
        })]

        /// A 3-node R = 2 cluster and a 2-node R = 1 cluster answer every
        /// SELECT shape exactly as one node holding every point: raw
        /// fields, each aggregate and mixes, every FILL, every grouping,
        /// newest first or not, truncated or not, bounded or not. Values
        /// are integer-valued, so sums are exact in any order; timestamps
        /// collide within and across hosts, so first/last ties and
        /// same-instant rows are exercised.
        #[test]
        fn cluster_answers_equal_one_node(
            points in proptest::collection::vec(
                (0u8..8, 0i64..600, -100i64..100, proptest::option::of(-100i64..100)),
                1..80,
            ),
            shapes in proptest::collection::vec(
                (
                    0u8..3,
                    proptest::collection::vec((0usize..8, proptest::prelude::any::<bool>()), 1..4),
                    0u8..3,
                    0u8..4,
                    proptest::prelude::any::<bool>(),
                    proptest::option::of(1usize..6),
                    0u8..3,
                    1i64..120,
                    0i64..600,
                    1i64..600,
                ),
                6..12,
            ),
        ) {
            let body: String = points
                .iter()
                .map(|(h, t, v, w)| {
                    let w = w.map(|w| format!(",w={w}i")).unwrap_or_default();
                    format!("m,hostname=g{h} v={v}{w} {}\n", t * 1_000_000_000)
                })
                .collect();
            let one = one_node(&body);
            let clusters = [cluster_with(3, 2, &body), cluster_with(2, 1, &body)];
            for shape in &shapes {
                let q = statement(shape);
                let want = one.query("lms", &q).unwrap();
                for (servers, router) in &clusters {
                    let got = router.handle_query("lms", &q).unwrap();
                    proptest::prop_assert_eq!(&got, &want, "{} nodes: {}", servers.len(), q);
                }
            }
            for (servers, _) in clusters {
                for s in servers {
                    s.shutdown();
                }
            }
        }
    }

    #[test]
    fn range_queries_scatter_gather_through_the_cluster() {
        // R = 1 over 2 nodes: each series on exactly one owner, so every
        // window's sum needs contributions from both — exactness here
        // means the range endpoint rode the same fold as `/query`.
        let (servers, router) = loaded_cluster(2, 1);
        let r = router
            .handle_query_range("lms", "SELECT sum(v) FROM m", 0, 17, None)
            .unwrap();
        assert!(!r.partial);
        assert_eq!(r.series.len(), 1);
        assert_eq!(r.series[0].values[0][1].as_f64(), Some(136.0)); // 1+…+16

        // step buckets: [0,8) → 1+…+7, [8,16) → 8+…+15, [16,17) → 16.
        let r = router
            .handle_query_range("lms", "SELECT sum(v) FROM m", 0, 17, Some(8))
            .unwrap();
        let rows: Vec<(i64, f64)> = r.series[0]
            .values
            .iter()
            .map(|row| (row[0].as_i64().unwrap(), row[1].as_f64().unwrap()))
            .collect();
        assert_eq!(rows, vec![(0, 28.0), (8, 92.0), (16, 16.0)]);

        // Listings union across owners; a database on no node is a 404.
        assert_eq!(router.handle_metrics("lms").unwrap(), vec!["m"]);
        assert_eq!(router.handle_labels("lms", "m").unwrap(), vec!["hostname"]);
        match router.handle_query_range("nope", "SELECT v FROM m", 0, 10, None) {
            Err(Error::Remote { status: 404, .. }) => {}
            other => panic!("expected 404, got {other:?}"),
        }
        match router.handle_metrics("nope") {
            Err(Error::Remote { status: 404, .. }) => {}
            other => panic!("expected 404, got {other:?}"),
        }
        for s in servers {
            s.shutdown();
        }
    }

    #[test]
    fn explicit_db_parameter_overrides_global() {
        let (server, influx, router) = setup(RouterConfig::default());
        router.handle_write(Some("otherdb"), "m,hostname=h1 v=1 1");
        assert!(router.flush(Duration::from_secs(5)));
        assert_eq!(influx.point_count("otherdb"), 1);
        assert_eq!(influx.point_count("lms"), 0);
        server.shutdown();
    }

    #[test]
    fn publishes_metrics_and_signals() {
        let publisher = Publisher::bind("127.0.0.1:0").unwrap();
        let pub_addr = publisher.addr();
        let clock = Clock::simulated(Timestamp::from_secs(5000));
        let influx = Influx::new(clock.clone()).unwrap();
        let server = InfluxServer::start("127.0.0.1:0", influx).unwrap();
        let router =
            Router::new(server.addr(), RouterConfig::default(), clock, Some(publisher)).unwrap();

        let mut sub = lms_mq::Subscriber::connect(pub_addr).unwrap();
        sub.subscribe("").unwrap();
        // Wait for subscription to register.
        std::thread::sleep(Duration::from_millis(100));

        router.handle_job_start(signal("42", "alice", &["h1"]));
        router.handle_write(None, "cpu,hostname=h1 value=1 100");

        let mut topics = Vec::new();
        while let Some(m) = sub.recv_timeout(Duration::from_secs(2)).unwrap() {
            topics.push(m.topic.clone());
            if topics.len() == 2 {
                break;
            }
        }
        assert!(topics.contains(&"signal.job_start".to_string()), "{topics:?}");
        assert!(topics.contains(&"metrics.cpu".to_string()), "{topics:?}");
        server.shutdown();
    }

    #[test]
    fn a_router_without_a_spool_removes_its_scratch_spool_when_it_drops() {
        // A dead database and no retries: the write spills at once.
        let dead = std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let config = RouterConfig { max_retries: 0, ..Default::default() };
        let clock = Clock::simulated(Timestamp::from_secs(5000));
        let router = Router::new(dead, config, clock, None).unwrap();
        let forwarder = router.delivery.forwarder(0);
        let dir = forwarder.scratch_dir().expect("no spool configured").to_path_buf();
        assert!(router.handle_write(None, "m,hostname=h1 v=1 1").acked);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while router.stats().forward.spooled == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(router.stats().forward.spooled, 1);
        assert!(std::fs::read_dir(&dir).unwrap().next().is_some(), "the batch is on disk");
        drop(router);
        assert!(!dir.exists());
    }

    #[test]
    fn parse_hosts_variants() {
        assert_eq!(parse_hosts("h1,h2, h3 ,,"), vec!["h1", "h2", "h3"]);
        assert!(parse_hosts("").is_empty());
    }
}
