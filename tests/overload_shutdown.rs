//! Overload + graceful-shutdown chaos suite.
//!
//! Drives the router at a sustained multiple of its delivery capacity
//! (tiny queue, single worker, seeded fault flaps on the database link)
//! and proves the paper-stack's overload contract:
//!
//! - bulk writes are *shed* with `503` + `Retry-After` when the pipeline
//!   is saturated — never silently dropped after acceptance;
//! - job signals are **always** admitted, even at peak overload;
//! - every *acknowledged* (`204`) write survives a graceful shutdown and
//!   router restart with zero loss (the spool carries the backlog);
//! - the product's clients (host agents, libusermetric) resend what the
//!   router sheds, so the database ends up with every line they produced.
//!
//! Fault schedules are seeded from `LMS_CHAOS_SEED` (default 1) so CI can
//! sweep a seed matrix and failures reproduce exactly.

use lms::http::{FaultConfig, FaultProxy, HttpClient};
use lms::influx::{Influx, InfluxServer, RollupPolicy};
use lms::lineproto::parse_batch;
use lms::router::{Router, RouterConfig, RouterServer};
use lms::spool::SpoolConfig;
use lms::sysmon::{HostAgent, NodeActivity, SimProc};
use lms::usermetric::{UserMetric, UserMetricConfig};
use lms::util::rng::chaos_seed;
use lms::util::scratch::ScratchDir;
use lms::util::{Clock, Timestamp};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The seeded database-link flaps every 2x-capacity case runs against.
fn flaps() -> FaultConfig {
    FaultConfig {
        seed: chaos_seed(),
        error_prob: 0.25,
        drop_prob: 0.15,
        delay_prob: 0.2,
        delay: Duration::from_millis(10),
    }
}

/// A router whose delivery capacity a sequential client exceeds: a tiny
/// queue and one forwarder worker behind flaps, spooling under `spool`.
fn small_router(upstream: std::net::SocketAddr, spool: &ScratchDir, clock: &Clock) -> Router {
    let config = RouterConfig {
        queue_capacity: 2,
        forward_workers: 1,
        max_retries: 2,
        spool: Some(SpoolConfig::new(spool.path())),
        ..Default::default()
    };
    Router::new(upstream, config, clock.clone(), None).unwrap()
}

/// 2x-capacity write load against a flapping database: writes are either
/// acknowledged (204) or shed (503 + Retry-After); signals always land;
/// after a graceful shutdown and a restart on the same spool directory,
/// the database holds exactly the acknowledged points — zero loss.
#[test]
fn overload_sheds_cleanly_and_acknowledged_points_survive_restart() {
    let clock = Clock::simulated(Timestamp::from_secs(7_500_000));
    let influx = Influx::new(clock.clone()).unwrap();
    let db = InfluxServer::start("127.0.0.1:0", influx.clone()).unwrap();
    let proxy = FaultProxy::start(db.addr(), flaps()).unwrap();
    let spool = ScratchDir::new("lms-overload").unwrap();
    let spool_cfg = SpoolConfig::new(spool.path());
    // Tiny queue + single worker: the tight write loop below runs far
    // beyond delivery capacity, so the admission gate must trip.
    let config = RouterConfig {
        queue_capacity: 2,
        forward_workers: 1,
        max_retries: 2,
        spool: Some(spool_cfg.clone()),
        ..Default::default()
    };
    let router = Arc::new(Router::new(proxy.addr(), config.clone(), clock.clone(), None).unwrap());
    let rs = RouterServer::start("127.0.0.1:0", router.clone()).unwrap();
    let mut agent = HttpClient::connect(rs.addr()).unwrap();

    const N: usize = 300;
    let mut acked: Vec<usize> = Vec::new();
    let mut shed = 0usize;
    let mut signals = 0usize;
    for i in 1..=N {
        // A hard outage in the middle of the stream on top of the flaps.
        if i == N / 3 {
            proxy.set_down();
        }
        if i == 2 * N / 3 {
            proxy.set_up();
        }
        // Unique timestamp per request: the final point count is an exact
        // loss detector even under at-least-once spool replay.
        let resp = agent
            .post_text("/write?db=metrics", &format!("over,hostname=h1 v={i} {i}"))
            .unwrap();
        match resp.status {
            204 => acked.push(i),
            503 => {
                assert!(
                    resp.header("retry-after").is_some(),
                    "shed responses must carry Retry-After"
                );
                shed += 1;
            }
            s => panic!("write {i}: unexpected status {s}"),
        }
        // Job signals must be admitted at any load level.
        if i % 50 == 0 {
            signals += 1;
            let r = agent.post(&format!("/signal/start?job=j{i}&user=u&hosts=h1"), b"").unwrap();
            assert_eq!(r.status, 204, "job signals must never be shed");
            let r = agent.post(&format!("/signal/end?job=j{i}"), b"").unwrap();
            assert_eq!(r.status, 204, "job signals must never be shed");
        }
    }
    assert_eq!(acked.len() + shed, N);
    assert!(shed > 0, "the load must have saturated the pipeline at least once");
    assert!(!acked.is_empty(), "some writes must get through");
    let stats = router.stats();
    assert_eq!(stats.writes_shed, shed as u64, "shed counter must match observed 503s");
    assert_eq!(stats.signals, signals as u64 * 2);

    // Graceful shutdown: stop accepting, give the pipeline a short drain
    // window (intentionally not enough for the whole backlog), then drop
    // the router. Accepted-but-undelivered batches persist in the spool.
    rs.shutdown();
    let _ = router.flush(Duration::from_secs(3));
    let pre_restart = router.stats().forward;
    assert_eq!(pre_restart.dropped, 0, "acknowledged writes must never be dropped: {pre_restart:?}");
    drop(router);

    // Restart on the same spool, destination healthy: replay finishes the
    // job. Exactly the acknowledged points (plus the signal events in the
    // default db) are present — nothing lost, nothing invented.
    let router2 = Arc::new(
        Router::new(db.addr(), RouterConfig { spool: Some(spool_cfg), ..Default::default() }, clock, None)
            .unwrap(),
    );
    assert!(router2.flush(Duration::from_secs(60)), "{:?}", router2.stats().forward);
    let f = router2.stats().forward;
    assert_eq!(
        influx.point_count("metrics"),
        acked.len(),
        "acknowledged writes must survive shutdown + restart exactly, {f:?}"
    );
    // Each signal produced one event point per host (1 host) for start and end.
    assert_eq!(influx.point_count("lms"), signals * 2, "signal events must never be lost, {f:?}");
    assert_eq!(f.dropped, 0, "{f:?}");

    proxy.shutdown();
    db.shutdown();
}

/// Under overload with a *healthy* database, shedding still engages and
/// recovery is immediate: once the client backs off (heeding Retry-After),
/// subsequent writes are admitted again.
#[test]
fn shedding_recovers_once_load_subsides() {
    let clock = Clock::simulated(Timestamp::from_secs(7_600_000));
    let influx = Influx::new(clock.clone()).unwrap();
    let db = InfluxServer::start("127.0.0.1:0", influx.clone()).unwrap();
    let proxy = FaultProxy::start(
        db.addr(),
        FaultConfig {
            seed: chaos_seed(),
            delay_prob: 1.0,
            delay: Duration::from_millis(50),
            ..Default::default()
        },
    )
    .unwrap();
    let config = RouterConfig {
        queue_capacity: 2,
        forward_workers: 1,
        ..Default::default()
    };
    let router = Arc::new(Router::new(proxy.addr(), config, clock, None).unwrap());
    let rs = RouterServer::start("127.0.0.1:0", router.clone()).unwrap();
    let mut agent = HttpClient::connect(rs.addr()).unwrap();

    // Burst far past capacity: with every delivery delayed 50 ms, the
    // 2-slot queue saturates and the tail of the burst is shed.
    let mut shed = 0usize;
    for i in 1..=50usize {
        let resp = agent.post_text("/write?db=m2", &format!("burst v={i} {i}")).unwrap();
        if resp.status == 503 {
            shed += 1;
        }
    }
    assert!(shed > 0, "burst must trigger shedding");

    // Back off like a well-behaved client, then write again: admitted.
    assert!(router.flush(Duration::from_secs(30)));
    let resp = agent.post_text("/write?db=m2", "after v=1 9999999").unwrap();
    assert_eq!(resp.status, 204, "admission must recover after the queue drains");
    assert!(router.flush(Duration::from_secs(30)));

    rs.shutdown();
    proxy.shutdown();
    db.shutdown();
}

/// Host agents and libusermetric ranks sending at 2x the router's
/// delivery capacity, each with a twin that hands the same lines to a
/// closure, so the test knows every line the real clients produced.
struct Clients {
    procs: Vec<SimProc>,
    agents: Vec<(HostAgent, HostAgent)>,
    ranks: Vec<(UserMetric, UserMetric)>,
    produced: Arc<Mutex<String>>,
}

impl Clients {
    fn start(router: std::net::SocketAddr, clock: &Clock, pre_aggregation: bool) -> Clients {
        let produced: Arc<Mutex<String>> = Arc::default();
        let capture = || {
            let sink = produced.clone();
            move |batch: &str| sink.lock().unwrap().push_str(batch)
        };
        let mut procs = Vec::new();
        let mut agents = Vec::new();
        for i in 0..4u64 {
            let mut proc_fs = SimProc::new(4, 1 << 20, 100 + i);
            proc_fs.set_activity(NodeActivity::busy_compute(4));
            procs.push(proc_fs);
            let host = format!("n{i}");
            let mut agent = HostAgent::new(host.clone(), clock.clone()).with_standard_collectors();
            agent.send_to(router, "lms").unwrap();
            if pre_aggregation {
                agent.enable_pre_aggregation();
            }
            let mut twin = HostAgent::new(host, clock.clone()).with_standard_collectors();
            twin.send_to_fn(capture());
            agents.push((agent, twin));
        }
        let ranks = (0..2)
            .map(|rank| {
                let config = UserMetricConfig {
                    default_tags: vec![("rank".into(), format!("{rank}"))],
                    flush_lines: 40,
                    ..Default::default()
                };
                let um = UserMetric::to_http(config.clone(), clock.clone(), router, "lms").unwrap();
                (um, UserMetric::to_fn(config, clock.clone(), capture()))
            })
            .collect();
        Clients { procs, agents, ranks, produced }
    }

    /// Ten seconds of the clients' life: every agent sweeps, every rank
    /// records 20 values of distinct series.
    fn tick(&mut self, clock: &Clock, t: usize) {
        clock.advance(Duration::from_secs(10));
        for (proc_fs, (agent, twin)) in self.procs.iter_mut().zip(&mut self.agents) {
            proc_fs.advance(Duration::from_secs(10));
            agent.tick(proc_fs);
            twin.tick(proc_fs);
        }
        for (rank, (um, twin)) in self.ranks.iter().enumerate() {
            for k in 0..20 {
                let value = (t * 100 + k * 7 + rank) as f64 / 8.0;
                let slot = k.to_string();
                um.metric_with_tags("solver", value, &[("slot", &slot)]);
                twin.metric_with_tags("solver", value, &[("slot", &slot)]);
            }
        }
    }

    /// Resends until no client holds a batch, advancing the clock past
    /// each `Retry-After`; returns the batches evicted at the senders' cap.
    /// Fails once the batches the clients hold have not fallen for
    /// `STALL_ROUNDS` rounds in a row. A round sleeps 10 ms, so that is
    /// at least 10 s without one delivery, five times the forwarder's
    /// longest backoff.
    fn drain(&mut self, clock: &Clock) -> u64 {
        const STALL_ROUNDS: u32 = 1_000;
        for (um, twin) in &self.ranks {
            um.flush();
            twin.flush();
        }
        let (mut least, mut stalled) = (u64::MAX, 0);
        loop {
            clock.advance(Duration::from_secs(1));
            for (agent, twin) in &mut self.agents {
                agent.flush();
                twin.flush();
            }
            for (um, _) in &self.ranks {
                um.flush();
            }
            let agents = self.agents.iter().map(|(a, _)| a.stats().2);
            let stats: Vec<_> = agents.chain(self.ranks.iter().map(|(um, _)| um.stats())).collect();
            let queued: u64 = stats.iter().map(|s| s.queued).sum();
            if queued == 0 {
                return stats.iter().map(|s| s.evicted).sum();
            }
            if queued < least {
                least = queued;
                stalled = 0;
            } else {
                stalled += 1;
                assert!(stalled < STALL_ROUNDS, "the clients stopped draining at {queued} batches");
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// `(count, sum)` per numeric `(measurement, field)` of a line batch.
fn totals(lines: &str) -> BTreeMap<(String, String), (i64, f64)> {
    let mut out: BTreeMap<(String, String), (i64, f64)> = BTreeMap::new();
    let parsed = parse_batch(lines);
    assert!(parsed.is_clean());
    for line in &parsed.lines {
        for (field, value) in &line.fields {
            let Some(v) = value.as_f64() else { continue };
            let slot = out.entry((line.measurement.to_string(), field.to_string())).or_default();
            slot.0 += 1;
            slot.1 += v;
        }
    }
    out
}

/// Runs the clients at 2x capacity through a router over a flapping link
/// and checks that the database ends up with every line they produced.
/// With rollups on, the database seals and rolls up every minute of the
/// run, as its storage worker would. Returns the database and the lines.
fn clients_at_twice_capacity(pre_aggregation: bool, rollups: bool) -> (Influx, String) {
    let clock = Clock::simulated(Timestamp::from_secs(7_700_000));
    let influx = Influx::new(clock.clone()).unwrap();
    if rollups {
        influx.enable_rollups(RollupPolicy::default()).unwrap();
    }
    let db = InfluxServer::start("127.0.0.1:0", influx.clone()).unwrap();
    let proxy = FaultProxy::start(db.addr(), flaps()).unwrap();
    let spool = ScratchDir::new("lms-overload-clients").unwrap();
    let router = Arc::new(small_router(proxy.addr(), &spool, &clock));
    let rs = RouterServer::start("127.0.0.1:0", router.clone()).unwrap();

    let mut clients = Clients::start(rs.addr(), &clock, pre_aggregation);
    for t in 0..30 {
        clients.tick(&clock, t);
        if rollups && t % 6 == 5 {
            influx.flush_storage().unwrap();
        }
    }
    let evicted = clients.drain(&clock);
    assert_eq!(evicted, 0, "nothing is evicted at the default cap");
    let stats = router.stats();
    assert!(stats.writes_shed > 0, "the load must have saturated the router at least once");
    let shed: u64 = clients.agents.iter().map(|(a, _)| a.stats().2.shed).sum::<u64>()
        + clients.ranks.iter().map(|(um, _)| um.stats().shed).sum::<u64>();
    assert!(shed > 0, "a client saw a shed batch");
    // Every batch is acknowledged; a router restarted on the same spool
    // with the link healthy delivers the backlog.
    rs.shutdown();
    let _ = router.flush(Duration::from_secs(1));
    drop(router);
    let config = RouterConfig { spool: Some(SpoolConfig::new(spool.path())), ..Default::default() };
    let router = Router::new(db.addr(), config, clock.clone(), None).unwrap();
    assert!(router.flush(Duration::from_secs(60)), "{:?}", router.stats().forward);
    assert_eq!(router.stats().forward.dropped, 0, "{:?}", router.stats().forward);

    let produced = clients.produced.lock().unwrap().clone();
    for ((m, field), (count, sum)) in totals(&produced) {
        let q = format!(r#"SELECT count("{field}"), sum("{field}") FROM "{m}""#);
        let row = &influx.query("lms", &q).unwrap().series[0].values[0];
        let (stored, stored_sum) = (row[1].as_i64().unwrap(), row[2].as_f64().unwrap());
        assert_eq!(stored, count, "{m}.{field}: lines lost or invented");
        let close = (stored_sum - sum).abs() <= 1e-9 * sum.abs().max(1.0);
        assert!(close, "{m}.{field}: {stored_sum} != {sum}");
    }
    if rollups {
        influx.flush_storage().unwrap();
    }
    drop(router);
    proxy.shutdown();
    db.shutdown();
    (influx, produced)
}

/// The product's first hop acknowledges too: host agents and
/// libusermetric ranks at 2x the router's capacity are shed, keep what was
/// shed, resend it once `Retry-After` has passed, and the database holds
/// every line they produced.
#[test]
fn shed_client_batches_are_resent_until_every_line_is_stored() {
    clients_at_twice_capacity(false, false);
}

/// The 1m tier after the 2x load, with and without the agents'
/// pre-aggregated stream, against the rows the database computes from the
/// raw lines alone: with every raw line delivered, no row differs.
#[test]
fn the_agents_minute_stream_changes_no_rollup_row_under_resend() {
    let expect = |produced: &str| {
        let influx = Influx::new(Clock::simulated(Timestamp::from_secs(7_700_000))).unwrap();
        influx.enable_rollups(RollupPolicy::default()).unwrap();
        influx.write_lines("lms", produced, Default::default()).unwrap();
        influx.flush_storage().unwrap();
        influx
    };
    for pre_aggregation in [true, false] {
        let (stored, produced) = clients_at_twice_capacity(pre_aggregation, true);
        let diffs = tier_differences(&expect(&produced), &stored);
        assert!(diffs.is_empty(), "pre-aggregation {pre_aggregation}: windows differ: {diffs:?}");
    }
}

/// Every 1m tier row of `influx` (the watermark excepted), by series and
/// window start, with its fields.
fn tier_rows(influx: &Influx) -> BTreeMap<String, BTreeMap<String, String>> {
    let tier = influx.database("lms__rollup_1m").unwrap();
    let mut rows: BTreeMap<String, BTreeMap<String, String>> = BTreeMap::new();
    let names = tier.measurement_names(&[]);
    for m in names.iter().filter(|m| *m != lms::rollup::WATERMARK_MEASUREMENT) {
        for series in tier.series_where(m, &[]) {
            for (field, column) in series.fields() {
                for (ts, value) in column.iter_all() {
                    let row = rows.entry(format!("{} @{ts}", series.key())).or_default();
                    row.insert(field.to_string(), format!("{value:?}"));
                }
            }
        }
    }
    rows
}

/// The 1m tier rows (series and window) of `expect` that `got` lacks or
/// holds with other values, and those only `got` holds.
fn tier_differences(expect: &Influx, got: &Influx) -> Vec<String> {
    let (want, have) = (tier_rows(expect), tier_rows(got));
    assert!(!want.is_empty());
    let mut diffs: Vec<String> =
        want.iter().filter(|(k, v)| have.get(*k) != Some(v)).map(|(k, _)| k.clone()).collect();
    diffs.extend(have.keys().filter(|k| !want.contains_key(*k)).cloned());
    diffs
}
