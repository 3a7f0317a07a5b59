//! Chaos suite: deterministic fault injection between the router's
//! forwarder and the database, proving **lossless** end-to-end delivery
//! through outages, flaps, and restarts.
//!
//! Every test routes forwarder traffic through a seeded
//! [`FaultProxy`](lms::http::FaultProxy); the seed comes from
//! `LMS_CHAOS_SEED` (default 1), so CI can sweep a seed matrix and any
//! failure reproduces exactly by exporting the same seed.
//!
//! Points carry unique timestamps, and the database overwrites on
//! identical series+timestamp — so at-least-once replay still yields an
//! exact final count, and `point_count` is a loss detector.

use lms::http::{FaultConfig, FaultProxy, HttpClient};
use lms::influx::{Influx, InfluxServer};
use lms::router::{Router, RouterConfig, RouterServer};
use lms::spool::SpoolConfig;
use lms::util::rng::chaos_seed;
use lms::util::scratch::ScratchDir;
use lms::util::{Clock, Timestamp};
use std::sync::Arc;
use std::time::Duration;

fn clock() -> Clock {
    Clock::simulated(Timestamp::from_secs(7_000_000))
}

struct Rig {
    db: InfluxServer,
    influx: Influx,
    proxy: FaultProxy,
    router: Arc<Router>,
    rs: RouterServer,
    agent: HttpClient,
}

fn rig(fault: FaultConfig) -> Rig {
    let clock = clock();
    let influx = Influx::new(clock.clone()).unwrap();
    let db = InfluxServer::start("127.0.0.1:0", influx.clone()).unwrap();
    let proxy = FaultProxy::start(db.addr(), fault).unwrap();
    let config = RouterConfig { max_retries: 1, ..Default::default() };
    let router = Arc::new(Router::new(proxy.addr(), config, clock, None).unwrap());
    let rs = RouterServer::start("127.0.0.1:0", router.clone()).unwrap();
    let agent = HttpClient::connect(rs.addr()).unwrap();
    Rig { db, influx, proxy, router, rs, agent }
}

/// A multi-second hard outage in the middle of a steady write stream:
/// every point written before, during, and after the outage must be in
/// the database once `flush()` returns — zero loss, no settling sleeps.
#[test]
fn hard_outage_mid_stream_loses_nothing() {
    let mut r = rig(FaultConfig { seed: chaos_seed(), ..FaultConfig::default() });
    const N: usize = 150;
    for i in 1..=N {
        let resp = r
            .agent
            .post_text("/write", &format!("chaos,hostname=h1 v={i} {i}"))
            .unwrap();
        assert_eq!(resp.status, 204, "the router must keep accepting during the outage");
        if i == N / 3 {
            r.proxy.set_down(); // ~2 s outage, mid-stream
        }
        if i == N - N / 3 {
            r.proxy.set_up();
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(
        r.router.flush(Duration::from_secs(60)),
        "flush must drain queue, in-flight and spool: {:?}",
        r.router.stats().forward
    );
    let f = r.router.stats().forward;
    assert_eq!(r.influx.point_count("lms"), N, "zero point loss, {f:?}");
    assert_eq!(f.dropped, 0, "{f:?}");
    assert!(f.spooled > 0, "the outage must have exercised the spool: {f:?}");
    assert!(f.replayed >= f.spooled, "{f:?}");
    assert_eq!(f.spool_pending, 0, "{f:?}");
    r.rs.shutdown();
    r.proxy.shutdown();
    r.db.shutdown();
}

/// A flapping destination: every request gets a seeded coin flip between
/// clean forwarding, an injected 503, a dropped connection, and a delay.
/// Retries, the down-node rule and the spool together must still deliver
/// all.
#[test]
fn flapping_database_delivers_every_point() {
    let mut r = rig(FaultConfig {
        seed: chaos_seed(),
        error_prob: 0.3,
        drop_prob: 0.2,
        delay_prob: 0.2,
        delay: Duration::from_millis(20),
    });
    const N: usize = 100;
    for i in 1..=N {
        let resp = r
            .agent
            .post_text("/write", &format!("flap,hostname=h2 v={i} {i}"))
            .unwrap();
        assert_eq!(resp.status, 204);
    }
    assert!(
        r.router.flush(Duration::from_secs(60)),
        "{:?}",
        r.router.stats().forward
    );
    let f = r.router.stats().forward;
    assert_eq!(r.influx.point_count("lms"), N, "zero point loss, {f:?}");
    assert_eq!(f.dropped, 0, "{f:?}");
    let (_, errors, dropped, _) = r.proxy.stats();
    assert!(errors + dropped > 0, "the schedule must have injected faults");
    r.rs.shutdown();
    r.proxy.shutdown();
    r.db.shutdown();
}

/// The spool is durable across a router crash: batches spooled during an
/// outage are replayed by a **new** router process pointed at the same
/// directory.
#[test]
fn spool_survives_router_restart() {
    let spool = ScratchDir::new("lms-chaos").unwrap();
    let spool_cfg = SpoolConfig::new(spool.path());
    let clk = clock();
    let influx = Influx::new(clk.clone()).unwrap();
    let db = InfluxServer::start("127.0.0.1:0", influx.clone()).unwrap();
    let proxy = FaultProxy::start(db.addr(), FaultConfig { seed: chaos_seed(), ..Default::default() })
        .unwrap();
    proxy.set_down(); // destination dead from the start

    const N: usize = 20;
    {
        let config = RouterConfig {
            max_retries: 1,
            spool: Some(spool_cfg.clone()),
            ..Default::default()
        };
        let router =
            Arc::new(Router::new(proxy.addr(), config, clk.clone(), None).unwrap());
        let rs = RouterServer::start("127.0.0.1:0", router.clone()).unwrap();
        let mut agent = HttpClient::connect(rs.addr()).unwrap();
        for i in 1..=N {
            assert_eq!(
                agent.post_text("/write", &format!("dur,hostname=h3 v={i} {i}")).unwrap().status,
                204
            );
        }
        // Nothing can drain: flush times out with the backlog intact.
        assert!(!router.flush(Duration::from_secs(2)));
        rs.shutdown();
    } // router drops — workers drain the queue into the spool on the way out

    // "Restart": a new router on the same spool directory, destination up.
    proxy.set_up();
    let config = RouterConfig { spool: Some(spool_cfg), ..Default::default() };
    let router = Arc::new(Router::new(proxy.addr(), config, clk, None).unwrap());
    assert!(router.flush(Duration::from_secs(30)), "{:?}", router.stats().forward);
    let f = router.stats().forward;
    assert_eq!(influx.point_count("lms"), N, "all pre-crash points recovered, {f:?}");
    assert_eq!(f.replayed, N as u64, "{f:?}");
    proxy.shutdown();
    db.shutdown();
}

/// `flush()` returning true means *delivered* — not merely dequeued.
/// With every request delayed, a flush racing the in-flight batch must
/// still only return once the point is in the database.
#[test]
fn flush_waits_for_in_flight_batches() {
    let mut r = rig(FaultConfig {
        seed: chaos_seed(),
        delay_prob: 1.0,
        delay: Duration::from_millis(300),
        ..FaultConfig::default()
    });
    for i in 1..=3u32 {
        assert_eq!(
            r.agent.post_text("/write", &format!("slow,hostname=h4 v={i} {i}")).unwrap().status,
            204
        );
    }
    // No sleep: the batches are at best mid-delay inside workers now.
    assert!(r.router.flush(Duration::from_secs(30)));
    assert_eq!(r.influx.point_count("lms"), 3, "flush returned before delivery finished");
    r.rs.shutdown();
    r.proxy.shutdown();
    r.db.shutdown();
}
