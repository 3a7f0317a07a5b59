//! The read path's cost per request, as counts and under faults.
//!
//! A cluster query costs one round trip per node on a connection the
//! router already holds; a job view costs at most five such queries
//! whatever the job's size; an admin view costs one. The counts here are
//! exact — connections a node accepted, requests a counting proxy
//! forwarded — so they gate deterministically where the benchmark can only
//! measure. The second half runs the same reads against kept connections
//! that die: a node restarts, a node is killed and returns, a node answers
//! an error while its peers' answers are still in flight, a node is at its
//! connection cap. Between them, a cluster read answers what one node
//! holding every point answers.

use lms::analysis::evaluation::NodePeaks;
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
    ViewerAgent::new(
        "lms",
        TemplateStore::builtin(),
        NodePeaks { flops_mflops: 350_000.0, membw_mbytes: 84_000.0 },
    )
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
fn a_job_view_is_five_requests_whatever_the_jobs_size() {
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
    // SHOW MEASUREMENTS, the evaluation's means, the detectors' series,
    // every panel's targets, every graph's annotations.
    for (front, nodes) in &costs {
        assert_eq!(*front, 5, "requests at the router for one job view");
        assert!(nodes.iter().all(|&n| n == 5), "requests per node: {nodes:?}");
    }
    rig.shutdown();
}

/// A source that keeps every statement it passes on.
struct Recording<'a> {
    inner: &'a mut dyn QuerySource,
    statements: Vec<String>,
}

impl QuerySource for Recording<'_> {
    fn query_source(&mut self, db: &str, q: &str) -> lms::util::Result<QueryResult> {
        self.statements.push(q.to_string());
        self.inner.query_source(db, q)
    }

    fn query_batch(&mut self, db: &str, stmts: &[String]) -> lms::util::Result<Vec<QueryResult>> {
        self.statements.extend_from_slice(stmts);
        self.inner.query_batch(db, stmts)
    }
}

/// A job view of hosts `h0..h4` among eight hosts, each holding a job
/// start of its own: the statements it sent for events, and its text.
fn four_host_view() -> (Vec<String>, String) {
    let c = cluster();
    load_job_metrics(&c.router, 8, false);
    let rs = RouterServer::start("127.0.0.1:0", c.router.clone()).unwrap();
    let mut client = InfluxClient::connect(rs.addr()).unwrap();
    let mut source = Recording { inner: &mut client, statements: Vec::new() };
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
    // Three annotated panels per host share one statement.
    assert_eq!(events.len(), 4, "{events:#?}");
    for host in 0..4 {
        let named = events.iter().filter(|q| q.contains(&format!("= 'h{host}'"))).count();
        assert_eq!(named, 1, "h{host}: {events:#?}");
        let drawn = text.matches(&format!("job start on h{host}.")).count();
        assert_eq!(drawn, 3, "h{host}'s event on each of its annotated panels:\n{text}");
    }
}

#[test]
fn a_job_view_draws_no_event_of_another_host() {
    let (_, text) = four_host_view();
    for host in 4..8 {
        assert!(!text.contains(&format!("job start on h{host}.")), "h{host}'s event drawn:\n{text}");
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
