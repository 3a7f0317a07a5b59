//! Cluster chaos suite: a database node is killed and rejoined mid-ingest
//! while the router keeps accepting writes, proving the cluster delivery
//! contract end to end:
//!
//! - **zero acknowledged-point loss** — every write the router answered
//!   `204` to is queryable after the node rejoins and handoff replays;
//! - **no duplicates** — replica copies land exactly on each series' R
//!   owner nodes, and scatter-gather reads return each sample once;
//! - **graceful degradation** — reads during the outage succeed with the
//!   partial flag (and `X-Lms-Partial` header) instead of failing.
//!
//! The dead node sits behind a seeded [`FaultProxy`](lms::http::FaultProxy);
//! the seed comes from `LMS_CHAOS_SEED` (default 1), so CI sweeps a seed
//! matrix and any failure reproduces exactly by exporting the same seed.

use lms::http::{FaultConfig, FaultProxy, HttpClient};
use lms::influx::{Influx, InfluxServer};
use lms::router::{ClusterConfig, Router, RouterConfig, RouterServer};
use lms::spool::SpoolConfig;
use lms::util::rng::chaos_seed;
use lms::util::{Clock, Json, Timestamp};
use std::sync::Arc;
use std::time::Duration;

fn clock() -> Clock {
    Clock::simulated(Timestamp::from_secs(8_000_000))
}

fn tmp_spool(tag: &str) -> SpoolConfig {
    let dir = std::env::temp_dir().join(format!(
        "lms-cluster-chaos-{}-{tag}-{}",
        std::process::id(),
        chaos_seed()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    SpoolConfig::new(dir)
}

/// A 3-node database cluster with node 1 behind a fault proxy, fronted by
/// a replicating router (R = 2, W = 1, per-node hinted-handoff spools).
struct Rig {
    nodes: Vec<(Influx, InfluxServer)>,
    proxy: FaultProxy,
    router: Arc<Router>,
    rs: RouterServer,
    agent: HttpClient,
}

fn rig(tag: &str, fault: FaultConfig) -> Rig {
    let clk = clock();
    let mut nodes = Vec::new();
    for _ in 0..3 {
        let influx = Influx::new(clk.clone()).unwrap();
        let server = InfluxServer::start("127.0.0.1:0", influx.clone()).unwrap();
        nodes.push((influx, server));
    }
    let proxy = FaultProxy::start(nodes[1].1.addr(), fault).unwrap();
    let cluster = ClusterConfig {
        nodes: vec![nodes[0].1.addr(), proxy.addr(), nodes[2].1.addr()],
        replication: 2,
        write_quorum: 1,
        seed: chaos_seed(),
    };
    let config = RouterConfig {
        max_retries: 1,
        spool: Some(tmp_spool(tag)),
        ..Default::default()
    };
    let router = Arc::new(Router::new_cluster(cluster, config, clk, None).unwrap());
    let rs = RouterServer::start("127.0.0.1:0", router.clone()).unwrap();
    let agent = HttpClient::connect(rs.addr()).unwrap();
    Rig { nodes, proxy, router, rs, agent }
}

impl Rig {
    fn shutdown(self) {
        self.rs.shutdown();
        self.proxy.shutdown();
        for (_, server) in self.nodes {
            server.shutdown();
        }
    }

    /// Total point copies across all database nodes.
    fn total_copies(&self, db: &str) -> usize {
        self.nodes.iter().map(|(ix, _)| ix.point_count(db)).sum()
    }
}

/// The headline invariant: kill a node mid-ingest, keep writing, rejoin
/// it — after handoff replay, every acknowledged point exists on exactly
/// its R = 2 owner nodes (zero loss, zero duplicates), and a merged read
/// returns the exact acknowledged set.
#[test]
fn node_kill_and_rejoin_mid_ingest_loses_nothing() {
    let mut r = rig("rejoin", FaultConfig { seed: chaos_seed(), ..FaultConfig::default() });
    const N: usize = 150;
    for i in 1..=N {
        // 16 hostnames spread series over the whole ring, so the killed
        // node owns a share of the key space under any seed.
        let line = format!("chaos,hostname=h{} v={i} {i}", i % 16);
        let resp = r.agent.post_text("/write", &line).unwrap();
        assert_eq!(resp.status, 204, "the router must keep acking during the outage (i={i})");
        if i == N / 3 {
            r.proxy.set_down(); // node 1 dies mid-ingest
        }
        if i == N - N / 3 {
            r.proxy.set_up(); // node 1 rejoins
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        r.router.flush(Duration::from_secs(60)),
        "flush must drain queues, in-flight batches and handoff spools: {:?}",
        r.router.stats().forward
    );

    // Zero loss AND zero duplicates in one equation: every point on both
    // of its owners and nowhere else.
    assert_eq!(r.total_copies("lms"), 2 * N, "each point must live on exactly its 2 owners");
    // Every node took a share (the ring actually spread the keys).
    for (i, (ix, _)) in r.nodes.iter().enumerate() {
        assert!(ix.point_count("lms") > 0, "node {i} owns no series");
    }

    // The merged read sees the exact acknowledged set, once each.
    let merged = r.router.handle_query("lms", "SELECT v FROM chaos").unwrap();
    assert!(!merged.partial, "all nodes are back; the answer must be complete");
    let rows: Vec<i64> = merged
        .series
        .iter()
        .flat_map(|s| s.values.iter())
        .map(|row| row[1].as_i64().unwrap())
        .collect();
    assert_eq!(rows.len(), N, "merged read must return each acknowledged point once");
    assert_eq!(rows.iter().sum::<i64>(), (N as i64) * (N as i64 + 1) / 2);

    // The outage actually exercised the hinted-handoff path.
    let f = r.router.stats().forward;
    assert_eq!(f.dropped, 0, "{f:?}");
    assert!(f.spooled > 0, "the outage must have spooled hints: {f:?}");
    assert!(f.replayed >= f.spooled, "{f:?}");
    assert_eq!(f.spool_pending, 0, "{f:?}");
    let dest = &r.router.stats().destinations[1];
    assert!(dest.stats.spooled > 0, "hints must be attributed to the dead node: {dest:?}");
    assert!(dest.stats.replayed > 0, "{dest:?}");
    r.shutdown();
}

/// While a node is down, reads degrade instead of failing: the merged
/// answer arrives with `partial` set and the HTTP response carries the
/// `X-Lms-Partial` header. After the node rejoins and replay drains, the
/// same query is complete again.
#[test]
fn reads_degrade_to_partial_during_outage_and_heal_after() {
    let mut r = rig("partial", FaultConfig { seed: chaos_seed(), ..FaultConfig::default() });
    const N: usize = 30;
    for i in 1..=N {
        let line = format!("deg,hostname=h{} v={i} {i}", i % 8);
        assert_eq!(r.agent.post_text("/write", &line).unwrap().status, 204);
    }
    assert!(r.router.flush(Duration::from_secs(30)), "{:?}", r.router.stats().forward);
    r.proxy.set_down();

    // Over HTTP: still 200, flagged partial, header present.
    let resp = r.agent.get("/query?db=lms&q=SELECT%20v%20FROM%20deg").unwrap();
    assert_eq!(resp.status, 200, "reads must degrade, not fail: {}", resp.body_str());
    assert!(
        resp.headers.iter().any(|(k, v)| k == "x-lms-partial" && v == "true"),
        "missing X-Lms-Partial header: {:?}",
        resp.headers
    );
    let body = Json::parse(&resp.body_str()).unwrap();
    assert_eq!(body.get("partial").and_then(Json::as_bool), Some(true));
    // Surviving replicas still answer: R = 2 means every series has a
    // live copy, so the partial answer is actually the full set here.
    assert_eq!(r.router.stats().partial_queries, 1);

    r.proxy.set_up();
    assert!(r.router.flush(Duration::from_secs(30)));
    // Healed: the breaker recovers after successful replay probes.
    let merged = r.router.handle_query("lms", "SELECT v FROM deg").unwrap();
    let rows: usize = merged.series.iter().map(|s| s.values.len()).sum();
    assert_eq!(rows, N);
    assert!(!merged.partial, "all nodes reachable again: {merged:?}");
    r.shutdown();
}

/// Graceful drain must wait for hinted-handoff replay that is already in
/// flight: once the dead node rejoins, a `flush()` racing the drainer may
/// only return `true` after every hint is delivered — never while a
/// replayed batch is still mid-flight.
#[test]
fn drain_waits_for_in_flight_handoff_replay() {
    let mut r = rig(
        "drain",
        FaultConfig {
            seed: chaos_seed(),
            // Every proxied request crawls: replay of each hint takes
            // ~300 ms, so a premature flush would win the race visibly.
            delay_prob: 1.0,
            delay: Duration::from_millis(300),
            ..FaultConfig::default()
        },
    );
    r.proxy.set_down();
    const N: usize = 24;
    for i in 1..=N {
        let line = format!("drain,hostname=h{} v={i} {i}", i % 8);
        assert_eq!(r.agent.post_text("/write", &line).unwrap().status, 204);
    }
    // Let the outage push node 1's share into its hint spool.
    assert!(
        r.router.delivery().flush_or_hinted(Duration::from_secs(30)),
        "everything must be delivered or durably hinted: {:?}",
        r.router.stats().forward
    );
    let hinted = r.router.stats().destinations[1].stats.spooled;
    assert!(hinted > 0, "the dead node's share must be hinted");

    // Rejoin, then immediately drain. No settling sleeps: flush must
    // block through the slow replay and only report success when the
    // node holds its full share.
    r.proxy.set_up();
    assert!(r.router.flush(Duration::from_secs(60)), "{:?}", r.router.stats().forward);
    assert_eq!(r.total_copies("lms"), 2 * N, "flush returned before replay finished");
    let f = r.router.stats().forward;
    assert_eq!(f.spool_pending, 0, "{f:?}");
    assert_eq!(f.replay_in_flight, 0, "{f:?}");
    r.shutdown();
}

/// Write-quorum accounting under total outage of one owner: with W = 1
/// and a durable spool, writes stay acknowledged; the `/stats` endpoint
/// exposes the per-destination breaker and spool depth while degraded.
#[test]
fn stats_expose_per_destination_state_during_outage() {
    let mut r = rig("stats", FaultConfig { seed: chaos_seed(), ..FaultConfig::default() });
    r.proxy.set_down();
    const N: usize = 20;
    for i in 1..=N {
        let line = format!("st,hostname=h{} v={i} {i}", i % 8);
        assert_eq!(r.agent.post_text("/write", &line).unwrap().status, 204);
    }
    assert!(r.router.delivery().flush_or_hinted(Duration::from_secs(30)));

    let resp = r.agent.get("/stats").unwrap();
    assert_eq!(resp.status, 200);
    let stats = Json::parse(&resp.body_str()).unwrap();
    let dests = stats.get("destinations").unwrap();
    // Three destinations, each with its own breaker state and counters.
    let states: Vec<String> = (0..3)
        .map(|i| {
            let d = dests.idx(i).unwrap();
            d.get("breaker").unwrap().as_str().unwrap().to_string()
        })
        .collect();
    assert_eq!(states.iter().filter(|s| s.as_str() == "open").count(), 1, "{states:?}");
    let dead = dests.idx(1).unwrap();
    assert!(dead.get("spooled").unwrap().as_i64().unwrap() > 0);
    assert!(dead.get("spool_pending").unwrap().as_i64().unwrap() > 0);
    assert!(dead.get("breaker_opens").unwrap().as_i64().unwrap() >= 1);
    // And the healthy nodes never spooled a hint.
    for i in [0usize, 2] {
        assert_eq!(dests.idx(i).unwrap().get("spooled").unwrap().as_i64(), Some(0));
    }
    r.shutdown();
}
