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
//!   router restart with zero loss (the spool carries the backlog).
//!
//! Fault schedules are seeded from `LMS_CHAOS_SEED` (default 1) so CI can
//! sweep a seed matrix and failures reproduce exactly.

use lms::http::{FaultConfig, FaultProxy, HttpClient};
use lms::influx::{Influx, InfluxServer};
use lms::router::{Router, RouterConfig, RouterServer};
use lms::spool::SpoolConfig;
use lms::util::{Clock, Timestamp};
use lms::util::rng::chaos_seed;
use std::sync::Arc;
use std::time::Duration;

fn tmp_spool(tag: &str) -> SpoolConfig {
    let dir = std::env::temp_dir().join(format!(
        "lms-overload-{}-{tag}-{}",
        std::process::id(),
        chaos_seed()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    SpoolConfig::new(dir)
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
    let proxy = FaultProxy::start(
        db.addr(),
        FaultConfig {
            seed: chaos_seed(),
            error_prob: 0.25,
            drop_prob: 0.15,
            delay_prob: 0.2,
            delay: Duration::from_millis(10),
        },
    )
    .unwrap();
    let spool_cfg = tmp_spool("shed");
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
        spool: Some(tmp_spool("recover")),
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
