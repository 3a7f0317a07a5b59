//! The read path's cost per request, as counts and under faults.
//!
//! A cluster query costs one round trip per node on a connection the
//! router already holds; a job view costs at most four such queries
//! whatever the job's size; a job evaluation and a usage report cost one;
//! an admin view costs one. The counts here are
//! exact — connections a node accepted, requests a counting proxy
//! forwarded — so they gate deterministically where the benchmark can only
//! measure. The second half runs the same reads against kept connections
//! that die: a node restarts, a node is killed and returns, a node answers
//! an error while its peers' answers are still in flight, a node is at its
//! connection cap. Between them, a cluster read answers what one node
//! holding every point answers.

use lms::analysis::evaluation::{JobEvaluation, NodeEvaluation, NodePeaks};
use lms::analysis::pathology::{FindingKind, PathologyThresholds};
use lms::analysis::rules::{evaluate_all, Rule, Violation};
use lms::analysis::{classify, CompletedJob, Pattern, PerfSignature, TimeSeries, UsageReport};
use lms::dashboard::render::RenderOptions;
use lms::dashboard::{JobInfo, TemplateStore, ViewerAgent};
use lms::http::{FaultConfig, FaultProxy, HttpClient, MIN_CONNECTION_CAP};
use lms::influx::{Influx, InfluxClient, InfluxServer, QueryResult, QuerySource};
use lms::router::{
    ClusterConfig, JobSignal, Router, RouterConfig, RouterServer, MAX_IDLE_CLIENTS,
};
use lms::util::{Clock, Error, Timestamp};
use proptest::prelude::*;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn clock() -> Clock {
    Clock::simulated(Timestamp::from_secs(4000))
}

/// Database nodes behind a router. `via` maps each node's address to the
/// one the router dials (a counting or fault proxy).
struct Cluster {
    nodes: Vec<(Influx, InfluxServer)>,
    router: Arc<Router>,
}

fn cluster_via(
    n: usize,
    replication: usize,
    via: impl Fn(usize, SocketAddr) -> SocketAddr,
) -> Cluster {
    let nodes: Vec<(Influx, InfluxServer)> = (0..n)
        .map(|_| {
            let influx = Influx::new(clock()).unwrap();
            let server = InfluxServer::start("127.0.0.1:0", influx.clone()).unwrap();
            (influx, server)
        })
        .collect();
    let cluster = ClusterConfig {
        nodes: nodes.iter().enumerate().map(|(i, (_, s))| via(i, s.addr())).collect(),
        replication,
        write_quorum: 1,
        seed: 7,
    };
    let router =
        Arc::new(Router::new_cluster(cluster, RouterConfig::default(), clock(), None).unwrap());
    Cluster { nodes, router }
}

/// Three nodes with R = 2.
fn cluster() -> Cluster {
    cluster_via(3, 2, |_, addr| addr)
}

impl Cluster {
    /// `m,hostname=g{i%8} v=i i` for i in 1..=32, through the router.
    fn load_m(&self) {
        let body: String =
            (1..=32).map(|i| format!("m,hostname=g{} v={i} {i}\n", i % 8)).collect();
        assert!(self.router.handle_write(None, &body).acked);
        assert!(self.router.flush(Duration::from_secs(10)));
    }

    fn shutdown(self) {
        drop(self.router);
        for (_, server) in self.nodes {
            server.shutdown();
        }
    }
}

/// The whole of `m` is there, once: 32 rows summing to 528.
fn assert_m_complete(r: &QueryResult) {
    assert!(!r.partial, "every node answered");
    let rows: Vec<i64> =
        r.series.iter().flat_map(|s| &s.values).map(|row| row[1].as_i64().unwrap()).collect();
    assert_eq!((rows.len(), rows.iter().sum::<i64>()), (32, 528));
}

// ---------------------------------------------------------------- counts

#[test]
fn five_hundred_queries_dial_each_node_a_handful_of_times() {
    const CONCURRENCY: usize = 4;
    let c = cluster();
    c.load_m();
    for _ in 0..300 {
        assert_m_complete(&c.router.handle_query("lms", "SELECT v FROM m").unwrap());
    }
    let start = Barrier::new(CONCURRENCY);
    std::thread::scope(|scope| {
        for _ in 0..CONCURRENCY {
            scope.spawn(|| {
                start.wait();
                for _ in 0..50 {
                    let r = c.router.handle_query("lms", "SELECT mean(v) FROM m").unwrap();
                    assert_eq!(r.series[0].values[0][1].as_f64(), Some(16.5));
                }
            });
        }
    });
    // Every dial since the nodes started, the forwarders' included: what
    // the idle set keeps plus what ran at once beyond it, not one per query.
    for (i, (_, server)) in c.nodes.iter().enumerate() {
        let dials = server.accepted_connections();
        assert!(
            (1..=(MAX_IDLE_CLIENTS + CONCURRENCY) as u64).contains(&dials),
            "node {i} accepted {dials} connections for 500 queries"
        );
        assert_eq!(server.shed_connections(), 0);
    }
    assert_eq!(c.router.stats().partial_queries, 0);
    c.shutdown();
}

/// A counting rig: every node and the router's front door sit behind a
/// fault-free [`FaultProxy`], whose `forwarded` counter is the number of
/// requests that passed.
struct Counted {
    cluster: Cluster,
    node_proxies: Vec<FaultProxy>,
    rs: RouterServer,
    front: FaultProxy,
}

fn counted() -> Counted {
    let proxies = std::sync::Mutex::new(Vec::new());
    let cluster = cluster_via(3, 2, |_, addr| {
        let proxy = FaultProxy::start(addr, FaultConfig::default()).unwrap();
        let via = proxy.addr();
        proxies.lock().unwrap().push(proxy);
        via
    });
    let rs = RouterServer::start("127.0.0.1:0", cluster.router.clone()).unwrap();
    let front = FaultProxy::start(rs.addr(), FaultConfig::default()).unwrap();
    Counted { cluster, node_proxies: proxies.into_inner().unwrap(), rs, front }
}

impl Counted {
    /// `(front, per node)` requests forwarded so far.
    fn requests(&self) -> (u64, Vec<u64>) {
        (self.front.stats().0, self.node_proxies.iter().map(|p| p.stats().0).collect())
    }

    /// Requests `view` costs at the front door and at each node.
    fn cost_of(&self, view: impl FnOnce(&mut dyn QuerySource)) -> (u64, Vec<u64>) {
        let (front_before, nodes_before) = self.requests();
        let mut source = InfluxClient::connect(self.front.addr()).unwrap();
        view(&mut source);
        let (front, nodes) = self.requests();
        (front - front_before, nodes.iter().zip(nodes_before).map(|(a, b)| a - b).collect())
    }

    fn shutdown(self) {
        self.front.shutdown();
        self.rs.shutdown();
        for proxy in self.node_proxies {
            proxy.shutdown();
        }
        self.cluster.shutdown();
    }
}

/// An hour of the standard metric families (one sample a minute) for
/// hosts `h0..h{n}`, an application metric when `app`, and a job-start
/// event on each host naming it.
fn load_job_metrics(router: &Router, hosts: usize, app: bool) {
    for host in 0..hosts {
        let mut batch = String::new();
        for s in (0..3600).step_by(60) {
            let ts = s as i64 * 1_000_000_000;
            batch.push_str(&format!(
                "cpu_total,hostname=h{host} busy=0.9 {ts}\n\
                 load,hostname=h{host} load1=8 {ts}\n\
                 memory,hostname=h{host} used_frac=0.4 {ts}\n\
                 network,hostname=h{host} rx_bytes_per_s=1000,tx_bytes_per_s=1000 {ts}\n\
                 disk,hostname=h{host} read_bytes_per_s=10,write_bytes_per_s=10 {ts}\n\
                 hpm_flops_dp,hostname=h{host} dp_mflop_s=150000,ipc=2.0,vectorization_ratio=90 {ts}\n\
                 hpm_mem,hostname=h{host} memory_bandwidth_mbytes_s=20000 {ts}\n"
            ));
            if app {
                batch.push_str(&format!("minimd_pressure,hostname=h{host} value=1.7 {ts}\n"));
            }
        }
        batch.push_str(&format!(
            "events,hostname=h{host},kind=job_start text=\"job start on h{host}.\" 0\n"
        ));
        assert!(router.handle_write(None, &batch).acked);
    }
    assert!(router.flush(Duration::from_secs(30)));
}

fn agent() -> ViewerAgent {
    ViewerAgent::new("lms", TemplateStore::builtin(), peaks())
}

fn job(id: usize, hosts: std::ops::Range<usize>) -> JobInfo {
    JobInfo {
        jobid: id.to_string(),
        user: "alice".into(),
        hosts: hosts.map(|h| format!("h{h}")).collect(),
        start: Timestamp::from_secs(0),
        end: None,
    }
}

#[test]
fn a_job_view_is_four_requests_whatever_the_jobs_size() {
    let rig = counted();
    load_job_metrics(&rig.cluster.router, 16, true);
    let agent = agent();
    let now = Timestamp::from_secs(3600);
    let mut costs = Vec::new();
    for hosts in [4, 16] {
        let job = job(hosts, 0..hosts);
        let mut text = String::new();
        let cost = rig.cost_of(|source| {
            let dashboard = agent.job_dashboard(source, &job, now).unwrap();
            text = agent.render_dashboard(source, &dashboard, RenderOptions::default()).unwrap();
        });
        // The view is whole: evaluation header, one FLOPS panel per host
        // with data and annotations, the application row.
        assert!(text.contains("Pattern:"), "{text}");
        assert_eq!(text.matches("DP FLOP rate h").count(), hosts, "{text}");
        assert!(text.contains("(n=60)") && text.contains("job start"), "{text}");
        assert!(text.contains("--- Application metrics ---"), "{text}");
        costs.push(cost);
    }
    // SHOW MEASUREMENTS, the job read (evaluation and detectors), every
    // panel's targets, every graph's annotations.
    for (front, nodes) in &costs {
        assert_eq!(*front, 4, "requests at the router for one job view");
        assert!(nodes.iter().all(|&n| n == 4), "requests per node: {nodes:?}");
    }
    rig.shutdown();
}

/// A source that keeps every statement it passes on, and counts the
/// requests (calls) that carried them.
struct Recording<'a> {
    inner: &'a mut dyn QuerySource,
    statements: Vec<String>,
    requests: usize,
}

impl<'a> Recording<'a> {
    fn new(inner: &'a mut dyn QuerySource) -> Self {
        Recording { inner, statements: Vec::new(), requests: 0 }
    }
}

impl QuerySource for Recording<'_> {
    fn query_source(&mut self, db: &str, q: &str) -> lms::util::Result<QueryResult> {
        self.statements.push(q.to_string());
        self.requests += 1;
        self.inner.query_source(db, q)
    }

    fn query_batch(&mut self, db: &str, stmts: &[String]) -> lms::util::Result<Vec<QueryResult>> {
        self.statements.extend_from_slice(stmts);
        self.requests += 1;
        self.inner.query_batch(db, stmts)
    }
}

fn peaks() -> NodePeaks {
    NodePeaks { flops_mflops: 350_000.0, membw_mbytes: 84_000.0 }
}

#[test]
fn a_job_evaluation_and_a_usage_report_are_one_request() {
    let c = cluster();
    load_job_metrics(&c.router, 16, false);
    let rs = RouterServer::start("127.0.0.1:0", c.router.clone()).unwrap();
    let mut client = InfluxClient::connect(rs.addr()).unwrap();
    let (start, end) = (Timestamp::from_secs(0), Timestamp::from_secs(3600));
    let hosts =
        |range: std::ops::Range<usize>| -> Vec<String> { range.map(|h| format!("h{h}")).collect() };
    // Per host, one statement per measurement and Fig. 4's two series.
    for n in [4, 16] {
        let mut source = Recording::new(&mut client);
        let ev =
            JobEvaluation::evaluate(&mut source, "lms", "1", &hosts(0..n), start, end, peaks())
                .unwrap();
        assert_eq!((source.requests, source.statements.len()), (1, 11 * n), "{n} hosts");
        assert_eq!(ev.nodes.len(), n);
        assert!(ev.nodes.iter().all(|node| (node.cpu_busy - 0.9).abs() < 1e-9), "{:?}", ev.nodes);
    }
    let jobs: Vec<CompletedJob> = (0..4)
        .map(|i| CompletedJob {
            jobid: i.to_string(),
            user: format!("u{}", i % 2),
            app: "app".into(),
            hosts: hosts(4 * i..4 * i + 4),
            start,
            end,
        })
        .collect();
    let mut source = Recording::new(&mut client);
    let report = UsageReport::build(&mut source, "lms", &jobs, peaks()).unwrap();
    assert_eq!((source.requests, source.statements.len()), (1, 11 * 16), "four jobs");
    assert_eq!((report.by_user.len(), report.by_app[0].1.jobs), (2, 4));
    assert!((report.total_node_hours - 16.0).abs() < 1e-9);
    drop(client);
    rs.shutdown();
    c.shutdown();
}

/// A job view of hosts `h0..h4` among eight hosts, each holding a job
/// start and an application metric of its own: the statements it sent for
/// events, and its text.
fn four_host_view() -> (Vec<String>, String) {
    let c = cluster();
    load_job_metrics(&c.router, 8, true);
    let rs = RouterServer::start("127.0.0.1:0", c.router.clone()).unwrap();
    let mut client = InfluxClient::connect(rs.addr()).unwrap();
    let mut source = Recording::new(&mut client);
    let (agent, job) = (agent(), job(4, 0..4));
    let dashboard = agent.job_dashboard(&mut source, &job, Timestamp::from_secs(3600)).unwrap();
    let text = agent.render_dashboard(&mut source, &dashboard, RenderOptions::default()).unwrap();
    let events = source.statements.into_iter().filter(|q| q.contains(r#"FROM "events""#)).collect();
    drop(client);
    rs.shutdown();
    c.shutdown();
    (events, text)
}

#[test]
fn a_job_view_asks_once_for_each_hosts_events() {
    let (events, text) = four_host_view();
    // Four annotated panels per host (CPU busy, FLOP rate, bandwidth, the
    // application metric) share one statement.
    assert_eq!(events.len(), 4, "{events:#?}");
    for host in 0..4 {
        let named = events.iter().filter(|q| q.contains(&format!("= 'h{host}'"))).count();
        assert_eq!(named, 1, "h{host}: {events:#?}");
        let drawn = text.matches(&format!("job start on h{host}.")).count();
        assert_eq!(drawn, 4, "h{host}'s event on each of its annotated panels:\n{text}");
        assert!(text.contains(&format!("minimd_pressure h{host}")), "h{host}'s panel:\n{text}");
    }
}

#[test]
fn a_job_view_draws_no_event_of_another_host() {
    let (_, text) = four_host_view();
    for host in 4..8 {
        assert!(!text.contains(&format!("job start on h{host}.")), "h{host}'s event drawn:\n{text}");
        assert!(!text.contains(&format!("minimd_pressure h{host}")), "h{host}'s panel:\n{text}");
    }
}

#[test]
fn an_admin_view_of_24_jobs_is_one_request() {
    let rig = counted();
    load_job_metrics(&rig.cluster.router, 24, true);
    let jobs: Vec<JobInfo> = (0..24).map(|i| job(i, i..i + 1)).collect();
    let mut view = None;
    let (front, nodes) = rig.cost_of(|source| {
        view = Some(agent().admin_view(source, &jobs, Timestamp::from_secs(3600)).unwrap());
    });
    let view = view.unwrap();
    assert_eq!(view.jobs, 24);
    assert!(!view.text.contains("(no data)"), "every job has its thumbnail:\n{}", view.text);
    assert_eq!(front, 1, "requests at the router for one admin view");
    assert!(nodes.iter().all(|&n| n == 1), "requests per node: {nodes:?}");
    rig.shutdown();
}

// ---------------------------------------------------------------- faults

#[test]
fn a_node_restart_between_two_queries_is_invisible() {
    let mut c = cluster();
    c.load_m();
    assert_m_complete(&c.router.handle_query("lms", "SELECT v FROM m").unwrap());
    // Node 1 restarts on its address (same data): every connection the
    // router kept to it is now dead.
    let (influx, server) = c.nodes.remove(1);
    let addr = server.addr();
    server.shutdown();
    c.nodes.insert(1, (influx.clone(), InfluxServer::start(addr, influx).unwrap()));
    for _ in 0..2 * MAX_IDLE_CLIENTS {
        assert_m_complete(&c.router.handle_query("lms", "SELECT v FROM m").unwrap());
    }
    assert_eq!(c.router.stats().partial_queries, 0, "the re-dial is inside the client");
    c.shutdown();
}

#[test]
fn a_killed_node_degrades_reads_and_returns_without_poisoned_clients() {
    let proxy = std::sync::Mutex::new(None);
    let c = cluster_via(3, 2, |i, addr| match i {
        1 => {
            let p = FaultProxy::start(addr, FaultConfig::default()).unwrap();
            let via = p.addr();
            *proxy.lock().unwrap() = Some(p);
            via
        }
        _ => addr,
    });
    let proxy = proxy.into_inner().unwrap().unwrap();
    c.load_m();
    // Warm several kept connections to every node.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                assert_m_complete(&c.router.handle_query("lms", "SELECT v FROM m").unwrap())
            });
        }
    });

    proxy.set_down();
    for _ in 0..4 {
        // R = 2: the two live nodes still hold every series between them.
        let r = c.router.handle_query("lms", "SELECT v FROM m").unwrap();
        assert!(r.partial, "node 1 is down");
        assert_eq!(r.series.iter().map(|s| s.values.len()).sum::<usize>(), 32);
    }
    proxy.set_up();
    // More queries than the idle set could hold: each kept client of every
    // node is handed out at least once, and each answers its own request.
    for i in 0..3 * MAX_IDLE_CLIENTS {
        match i % 2 {
            0 => assert_m_complete(&c.router.handle_query("lms", "SELECT v FROM m").unwrap()),
            _ => {
                let r = c.router.handle_query("lms", "SHOW MEASUREMENTS").unwrap();
                assert!(!r.partial);
                assert_eq!(r.series[0].name, "measurements");
            }
        }
    }
    proxy.shutdown();
    c.shutdown();
}

#[test]
fn an_error_from_one_node_leaves_no_peers_answer_for_the_next_query() {
    let c = cluster();
    c.load_m();
    for _ in 0..MAX_IDLE_CLIENTS {
        // Every node is written to before node 0's 400 is read; the other
        // two answers are never read. Their clients must not come back.
        match c.router.handle_query("lms", "SELEKT v FROM m") {
            Err(Error::Remote { status: 400, .. }) => {}
            other => panic!("expected the node's 400, got {other:?}"),
        }
        assert_m_complete(&c.router.handle_query("lms", "SELECT v FROM m").unwrap());
    }
    // Inside a statement list the error is one statement's, the scatter
    // runs to completion, and its neighbours answer.
    let stmts: Vec<String> =
        ["SELECT v FROM m", "SELEKT", "SELECT count(v) FROM m"].map(String::from).into();
    let outcomes = c.router.handle_statements("lms", &stmts).unwrap();
    assert_m_complete(outcomes[0].as_ref().unwrap());
    assert!(matches!(outcomes[1], Err(Error::Remote { status: 400, .. })), "{:?}", outcomes[1]);
    assert_eq!(outcomes[2].as_ref().unwrap().series[0].values[0][1].as_i64(), Some(32));
    c.shutdown();
}

#[test]
fn a_node_at_its_connection_cap_makes_the_answer_partial_not_an_error() {
    let c = cluster();
    // Data goes in beside the router, so the router holds no connection
    // to any node yet and has to dial for its first query.
    for (influx, _) in &c.nodes {
        influx
            .write_lines("lms", "m,hostname=g1 v=1 1\nm,hostname=g2 v=2 2", Default::default())
            .unwrap();
    }
    let full = &c.nodes[2].1;
    let mut parked = Vec::new();
    while full.shed_connections() == 0 {
        let mut client = HttpClient::connect(full.addr()).unwrap();
        client.get("/ping").unwrap();
        parked.push(client);
        assert!(parked.len() <= MIN_CONNECTION_CAP + 1, "the cap is the floor on this machine");
    }
    let shed_before = full.shed_connections();

    let r = c.router.handle_query("lms", "SELECT sum(v) FROM m").unwrap();
    assert!(r.partial, "node 2 shed the router's connection with a 503");
    assert_eq!(r.series[0].values[0][1].as_f64(), Some(3.0), "replicas deduplicate");
    assert!(full.shed_connections() > shed_before);
    assert_eq!(c.router.stats().partial_queries, 1);

    drop(parked);
    // The node has room again (its connection threads notice the close
    // within their idle poll); nothing of the 503 was kept.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let r = c.router.handle_query("lms", "SELECT sum(v) FROM m").unwrap();
        if !r.partial {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "node 2 never readmitted the router");
        std::thread::sleep(Duration::from_millis(20));
    }
    c.shutdown();
}

// --------------------------------------------------------------- answers

#[test]
fn a_job_start_reads_back_once_per_host() {
    // Each host's annotation is a series of its own holding the same text
    // at the same instant: equal rows of different series, on different
    // nodes, are all answers.
    for (n, replication, hosts) in [(3, 2, 8), (2, 1, 2)] {
        let signal = JobSignal {
            job_id: "7".into(),
            user: "alice".into(),
            hosts: (0..hosts).map(|h| format!("h{h}")).collect(),
            extra_tags: Vec::new(),
        };
        let c = cluster_via(n, replication, |_, addr| addr);
        c.router.handle_job_start(signal.clone());
        assert!(c.router.flush(Duration::from_secs(10)));
        let influx = Influx::new(clock()).unwrap();
        let server = InfluxServer::start("127.0.0.1:0", influx).unwrap();
        let one = Router::new(server.addr(), RouterConfig::default(), clock(), None).unwrap();
        one.handle_job_start(signal);
        assert!(one.flush(Duration::from_secs(10)));

        let q = "SELECT text FROM events";
        let r = c.router.handle_query("lms", q).unwrap();
        assert_eq!(r.series.iter().map(|s| s.values.len()).sum::<usize>(), hosts, "{n} nodes");
        assert_eq!(r, one.handle_query("lms", q).unwrap(), "{n} nodes");
        drop(one);
        server.shutdown();
        c.shutdown();
    }
}

// ---------------------------------------------------------- batch ≡ loop

/// Statements a list is drawn from: two aggregates, a grouped window, raw
/// rows, a listing, two empty answers (one with a `;` in a string) and two
/// that fail.
const STATEMENT_POOL: [&str; 9] = [
    "SELECT mean(v) FROM m",
    "SELECT mean(v), max(v), count(v) FROM m WHERE time >= 0 AND time < 3600000000000 GROUP BY time(10m), hostname",
    "SELECT v FROM m WHERE hostname = 'g1'",
    "SELECT sum(v) FROM m GROUP BY hostname",
    "SHOW MEASUREMENTS",
    "SELECT v FROM ghost",
    "SELECT count(v) FROM m WHERE hostname = 'a;b'",
    "SELEKT v FROM m",
    "SELECT v FROM",
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// One request carrying a statement list answers, through a 3-node
    /// R = 2 router, what its statements sent one by one do: the same
    /// merged results, or the same first error.
    #[test]
    fn batch_equals_loop_through_the_router(
        points in proptest::collection::vec((0u8..8, 0i64..3600, -1000.0..1000.0f64), 1..60),
        picks in proptest::collection::vec(0usize..STATEMENT_POOL.len(), 0..8),
        db_exists in any::<bool>(),
    ) {
        let c = cluster();
        let body: String = points
            .iter()
            .map(|(host, t, v)| format!("m,hostname=g{host} v={v} {}\n", t * 1_000_000_000))
            .collect();
        prop_assert!(c.router.handle_write(None, &body).acked);
        prop_assert!(c.router.flush(Duration::from_secs(10)));
        let rs = RouterServer::start("127.0.0.1:0", c.router.clone()).unwrap();
        let mut client = InfluxClient::connect(rs.addr()).unwrap();

        let stmts: Vec<String> = picks.iter().map(|&i| STATEMENT_POOL[i].to_string()).collect();
        let db = if db_exists { "lms" } else { "nowhere" };
        let batch = client.query_batch(db, &stmts);
        let looped: lms::util::Result<Vec<QueryResult>> =
            stmts.iter().map(|q| client.query_source(db, q)).collect();
        drop(client);
        rs.shutdown();
        c.shutdown();
        match (batch, looped) {
            (Ok(b), Ok(l)) => prop_assert_eq!(b, l),
            (Err(b), Err(l)) => prop_assert_eq!(b.to_string(), l.to_string()),
            (b, l) => prop_assert!(false, "batch {:?}\n loop {:?}", b, l),
        }
    }
}

// ------------------------------------------------- one job read ≡ per field

/// Minutes of data a generated job holds.
const MINUTES: i64 = 40;

/// One generated host: which of the nine measurements it reports (a bit
/// each, in `host_lines` order), the minutes it misses, an optional break
/// `(first minute, length)`, whether its multi-field lines carry their
/// first field only, and the values it draws from.
type HostSpec = (u16, Vec<bool>, Option<(i64, i64)>, bool, Vec<f64>);

fn host_spec() -> impl Strategy<Value = HostSpec> {
    (
        0u16..512,
        proptest::collection::vec((0u8..100).prop_map(|r| r < 15), MINUTES as usize),
        proptest::option::of((0..MINUTES, 5i64..25)),
        (0u8..4).prop_map(|r| r == 0),
        proptest::collection::vec(0.0..1.0f64, 17..29),
    )
}

/// Host `h`'s lines: per present minute, one line per measurement it
/// reports. FP rate, bandwidth and busy drop inside its break.
fn host_lines(h: usize, (mask, gaps, brk, sparse, draws): &HostSpec) -> String {
    let mut out = String::new();
    for m in (0..MINUTES).filter(|&m| !gaps[m as usize]) {
        let ts = (m * 60 + h as i64) * 1_000_000_000;
        let in_break = brk.is_some_and(|(at, len)| (at..at + len).contains(&m));
        let x = |i: usize| draws[(m as usize * 3 + i) % draws.len()];
        let lines: [(&str, Vec<(&str, f64)>); 9] = [
            ("network", vec![("rx_bytes_per_s", 1e6 * x(0)), ("tx_bytes_per_s", 2e6 * x(1))]),
            ("disk", vec![("read_bytes_per_s", 1e5 * x(2)), ("write_bytes_per_s", 3e5 * x(3))]),
            ("load", vec![("load1", 8.0 * x(4))]),
            ("cpu_total", vec![("busy", if in_break { 0.03 } else { x(5) })]),
            (
                "hpm_flops_dp",
                vec![
                    ("dp_mflop_s", if in_break { 5.0 * x(6) } else { 2000.0 + 1e4 * x(6) }),
                    ("ipc", 2.0 * x(7)),
                    ("vectorization_ratio", 100.0 * x(8)),
                ],
            ),
            (
                "hpm_mem",
                vec![(
                    "memory_bandwidth_mbytes_s",
                    if in_break { 80.0 * x(9) } else { 20_000.0 + 1e4 * x(9) },
                )],
            ),
            ("memory", vec![("used_frac", x(10))]),
            ("hpm_branch", vec![("branch_misprediction_ratio", 0.1 * x(11))]),
            ("hpm_cycle_stalls", vec![("stall_rate", 80.0 * x(12))]),
        ];
        for (i, (measurement, fields)) in lines.iter().enumerate() {
            if mask & (1 << i) == 0 {
                continue;
            }
            let fields = if *sparse { &fields[..1] } else { &fields[..] };
            let fields: Vec<String> = fields.iter().map(|(f, v)| format!("{f}={v}")).collect();
            out.push_str(&format!("{measurement},hostname=h{h} {} {ts}\n", fields.join(",")));
        }
    }
    out
}

/// What an evaluation is compared by: node rows and signature as bits,
/// findings as `(kind, host, window)`, and the pattern.
type Compared = (
    Vec<(String, [u64; 9])>,
    [u64; 8],
    Vec<(FindingKind, Option<String>, Option<Violation>)>,
    Pattern,
);

fn node_bits(n: &NodeEvaluation) -> (String, [u64; 9]) {
    let v = [
        n.load1, n.cpu_busy, n.ipc, n.dp_mflops, n.membw_mbytes, n.mem_used_frac, n.net_bytes,
        n.file_bytes, n.vectorization,
    ];
    (n.hostname.clone(), v.map(f64::to_bits))
}

fn signature_bits(s: &PerfSignature) -> [u64; 8] {
    [
        s.flops_frac, s.membw_frac, s.ipc, s.vectorization, s.branch_misp_ratio, s.stall_frac,
        s.imbalance, s.cpu_busy,
    ]
    .map(f64::to_bits)
}

fn compared(ev: &JobEvaluation) -> Compared {
    let findings = ev.findings.iter().map(|f| (f.kind, f.host.clone(), f.window)).collect();
    (ev.nodes.iter().map(node_bits).collect(), signature_bits(&ev.signature), findings, ev.pattern)
}

/// A job evaluated by single-field statements, each sent alone: 13 means
/// per host, then the detectors' peak memory and two 1-minute series, and
/// the node rows, signature, findings and pattern computed from them.
fn per_field_evaluation(
    source: &mut dyn QuerySource,
    hosts: &[String],
    start: Timestamp,
    end: Timestamp,
) -> Compared {
    let range = format!("time >= {} AND time <= {}", start.nanos(), end.nanos());
    let mut read = |host: &str, select: &str, tail: &str, column: &str| {
        let q = format!("SELECT {select} WHERE hostname = '{host}' AND {range}{tail}");
        TimeSeries::from_result(&source.query_source("lms", &q).unwrap(), column)
    };
    let (mut nodes, mut memory, mut series) = (Vec::new(), Vec::new(), Vec::new());
    let (mut branch, mut stall) = (0.0, 0.0);
    for host in hosts {
        let mut mean = |m: &str, f: &str| {
            let s = read(host, &format!("mean({f}) FROM {m}"), "", "mean");
            s.points.first().map_or(0.0, |&(_, v)| v)
        };
        nodes.push(NodeEvaluation {
            hostname: host.clone(),
            load1: mean("load", "load1"),
            cpu_busy: mean("cpu_total", "busy"),
            ipc: mean("hpm_flops_dp", "ipc"),
            dp_mflops: mean("hpm_flops_dp", "dp_mflop_s"),
            membw_mbytes: mean("hpm_mem", "memory_bandwidth_mbytes_s"),
            mem_used_frac: mean("memory", "used_frac"),
            net_bytes: mean("network", "rx_bytes_per_s") + mean("network", "tx_bytes_per_s"),
            file_bytes: mean("disk", "read_bytes_per_s") + mean("disk", "write_bytes_per_s"),
            vectorization: mean("hpm_flops_dp", "vectorization_ratio") / 100.0,
        });
        branch += mean("hpm_branch", "branch_misprediction_ratio");
        stall += mean("hpm_cycle_stalls", "stall_rate") / 100.0;
        let peak = read(host, "max(used_frac) FROM memory", "", "max").points.first().map(|p| p.1);
        memory.push((host.clone(), peak));
        let window = " GROUP BY time(1m)";
        let fp = read(host, "mean(dp_mflop_s) FROM hpm_flops_dp", window, "mean");
        let bw = read(host, "mean(memory_bandwidth_mbytes_s) FROM hpm_mem", window, "mean");
        series.push((host.clone(), fp, bw));
    }

    let n = nodes.len().max(1) as f64;
    let avg = |f: fn(&NodeEvaluation) -> f64| nodes.iter().map(f).sum::<f64>() / n;
    let busys: Vec<f64> = nodes.iter().map(|e| e.cpu_busy).collect();
    let max = busys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = busys.iter().copied().fold(f64::INFINITY, f64::min);
    let busy = avg(|e| e.cpu_busy);
    let signature = PerfSignature {
        flops_frac: avg(|e| e.dp_mflops) / peaks().flops_mflops.max(1.0),
        membw_frac: avg(|e| e.membw_mbytes) / peaks().membw_mbytes.max(1.0),
        ipc: avg(|e| e.ipc),
        vectorization: avg(|e| e.vectorization),
        branch_misp_ratio: branch / n,
        stall_frac: stall / n,
        imbalance: if nodes.len() > 1 && busy > 0.0 { (max - min) / busy } else { 0.0 },
        cpu_busy: busy,
    };

    let t = PathologyThresholds::default();
    let mut findings = Vec::new();
    if !busys.is_empty() {
        let mean = busys.iter().sum::<f64>() / busys.len() as f64;
        if mean < t.idle_busy {
            findings.push((FindingKind::IdleJob, None, None));
        } else if busys.len() > 1 && mean > 0.0 && (max - min) / mean > t.imbalance {
            findings.push((FindingKind::LoadImbalance, None, None));
        }
    }
    for (host, peak) in memory {
        if peak.is_some_and(|p| p > t.mem_used_frac) {
            findings.push((FindingKind::MemoryExceeded, Some(host), None));
        }
    }
    let fp_rule = Rule::below("DP FP rate", t.fp_rate_mflops, t.break_timeout);
    let bw_rule = Rule::below("memory bandwidth", t.membw_mbytes, t.break_timeout);
    for (host, fp, bw) in series.iter().filter(|(_, fp, bw)| !fp.is_empty() && !bw.is_empty()) {
        for w in evaluate_all(&[(&fp_rule, fp), (&bw_rule, bw)], t.break_timeout) {
            findings.push((FindingKind::ComputationBreak, Some(host.clone()), Some(w)));
        }
    }
    let nodes_bits = nodes.iter().map(node_bits).collect();
    (nodes_bits, signature_bits(&signature), findings, classify(&signature))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The one job read evaluates a job as the single-field statements
    /// did, bit for bit: on one node, and through a 3-node R = 2 router.
    #[test]
    fn one_job_read_equals_the_per_field_statements(
        specs in proptest::collection::vec(host_spec(), 1..7),
        from_minute in 0i64..5,
        to_minute in (MINUTES - 5)..(MINUTES + 1),
    ) {
        let body: String = specs.iter().enumerate().map(|(h, spec)| host_lines(h, spec)).collect();
        let hosts: Vec<String> = (0..specs.len()).map(|h| format!("h{h}")).collect();
        let (start, end) = (Timestamp::from_secs(from_minute * 60 + 7), Timestamp::from_secs(to_minute * 60));
        let evaluate = |source: &mut dyn QuerySource| {
            let ev = JobEvaluation::evaluate(source, "lms", "1", &hosts, start, end, peaks()).unwrap();
            (compared(&ev), per_field_evaluation(source, &hosts, start, end))
        };

        let mut ix = Influx::new(clock()).unwrap();
        ix.write_lines("lms", &body, Default::default()).unwrap();
        let (one_read, per_field) = evaluate(&mut ix);
        prop_assert_eq!(one_read, per_field, "one node");

        let c = cluster();
        prop_assert!(c.router.handle_write(None, &body).acked);
        prop_assert!(c.router.flush(Duration::from_secs(10)));
        let rs = RouterServer::start("127.0.0.1:0", c.router.clone()).unwrap();
        let mut client = InfluxClient::connect(rs.addr()).unwrap();
        let (one_read, per_field) = evaluate(&mut client);
        drop(client);
        rs.shutdown();
        c.shutdown();
        prop_assert_eq!(one_read, per_field, "3 nodes, R = 2");
    }
}
