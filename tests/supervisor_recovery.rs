//! Supervision suite: injected panics in the background workers
//! (the database's storage worker and the router's spool drainer) must
//! self-heal — restart with backoff, flip the health gauges through
//! `restarting` back to `healthy` — and repeated panics must exhaust the
//! restart budget, marking the worker `failed` and the component
//! not-ready instead of restart-looping forever.
//!
//! The panic-injection hooks are deterministic counters (each worker
//! iteration consumes one pending panic), so the tests are seed-stable;
//! `LMS_CHAOS_SEED` only varies the supervisor's backoff jitter.

use lms::http::HttpClient;
use lms::influx::{Influx, InfluxServer, StorageConfig};
use lms::router::{Router, RouterConfig, RouterServer};
use lms::spool::SpoolConfig;
use lms::util::{Clock, SupervisorConfig, Timestamp, WorkerHealth, WorkerReport};
use lms::util::rng::chaos_seed;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "lms-superv-{}-{tag}-{}",
        std::process::id(),
        chaos_seed()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Polls `f` until it returns true or the deadline passes.
fn wait_for(what: &str, timeout: Duration, mut f: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if f() {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("timed out waiting for {what}");
}

fn report_of<'a>(reports: &'a [WorkerReport], name: &str) -> Option<&'a WorkerReport> {
    reports.iter().find(|r| r.name == name)
}

#[test]
fn storage_worker_panic_self_heals_and_budget_opens() {
    let dir = tmp_dir("storage");
    let influx =
        Influx::open(Clock::simulated(Timestamp::from_secs(8_000_000)), 4, StorageConfig::new(&dir))
            .unwrap();
    influx.create_database("lms");
    let sup = SupervisorConfig {
        max_restarts: 3,
        backoff_base: Duration::from_millis(10),
        backoff_cap: Duration::from_millis(50),
        reset_after: Duration::from_secs(600), // panics in this test are always "consecutive"
        seed: chaos_seed(),
    };
    let _worker = influx.spawn_storage_worker_with(sup).expect("persistent database");
    let server = InfluxServer::start("127.0.0.1:0", influx.clone()).unwrap();
    let mut c = HttpClient::connect(server.addr()).unwrap();

    // Healthy baseline.
    assert_eq!(c.get("/health/ready").unwrap().status, 204);
    assert!(influx.workers_ready());

    // One injected panic: the supervisor restarts the worker with backoff
    // and the health gauge returns to `healthy`.
    influx.inject_storage_worker_panics(1);
    wait_for("storage worker restart", Duration::from_secs(10), || {
        report_of(&influx.worker_reports(), "storage").is_some_and(|r| r.restarts >= 1)
    });
    wait_for("readiness after self-heal", Duration::from_secs(10), || influx.workers_ready());
    assert_eq!(c.get("/health/ready").unwrap().status, 204);
    let report = influx.worker_reports();
    let storage = report_of(&report, "storage").unwrap();
    assert_eq!(storage.health, WorkerHealth::Healthy, "{report:?}");
    assert!(storage.last_panic.as_deref().unwrap().contains("injected"), "{report:?}");

    // The restarted worker still does its job: writes flush to disk.
    influx.write_lines("lms", "heal v=1 1", lms::influx::WriteOptions::default()).unwrap();
    wait_for("restarted worker flushes", Duration::from_secs(15), || {
        let s = influx.storage_stats();
        s.wal_bytes > 0 || s.segment_files > 0
    });

    // A panic storm exhausts the restart budget: the worker is marked
    // `failed` (no more restarts) and readiness goes 503 with detail.
    influx.inject_storage_worker_panics(1_000);
    wait_for("restart budget opens", Duration::from_secs(30), || {
        report_of(&influx.worker_reports(), "storage")
            .is_some_and(|r| r.health == WorkerHealth::Failed)
    });
    assert!(!influx.workers_ready());
    let resp = c.get("/health/ready").unwrap();
    assert_eq!(resp.status, 503);
    assert!(resp.body_str().contains("failed"), "{}", resp.body_str());
    // Liveness is unaffected: the process still serves requests.
    assert_eq!(c.get("/health/live").unwrap().status, 204);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spool_drainer_panic_self_heals_and_budget_opens() {
    let clock = Clock::simulated(Timestamp::from_secs(8_100_000));
    let influx = Influx::new(clock.clone()).unwrap();
    let db = InfluxServer::start("127.0.0.1:0", influx.clone()).unwrap();
    let config = RouterConfig {
        spool: Some(SpoolConfig::new(tmp_dir("drainer"))),
        ..Default::default()
    };
    let router = Arc::new(Router::new(db.addr(), config, clock, None).unwrap());
    let rs = RouterServer::start("127.0.0.1:0", router.clone()).unwrap();
    let mut c = HttpClient::connect(rs.addr()).unwrap();

    assert_eq!(c.get("/health/ready").unwrap().status, 204);

    // One injected panic: the drainer restarts and readiness recovers.
    router.inject_drainer_panics(1);
    wait_for("drainer restart", Duration::from_secs(10), || {
        report_of(&router.worker_reports(), "spool-drainer").is_some_and(|r| r.restarts >= 1)
    });
    wait_for("readiness after drainer self-heal", Duration::from_secs(10), || {
        router.workers_ready()
    });
    assert_eq!(c.get("/health/ready").unwrap().status, 204);

    // Delivery still works end-to-end after the restart.
    assert_eq!(c.post_text("/write", "heal,hostname=h1 v=1 1").unwrap().status, 204);
    assert!(router.flush(Duration::from_secs(10)));
    assert_eq!(influx.point_count("lms"), 1);

    // Panic storm: the drainer's restart budget (default 5) opens; the
    // router reports not-ready with the per-worker detail, while the
    // forwarder workers keep delivering (they are supervised separately).
    router.inject_drainer_panics(1_000);
    wait_for("drainer budget opens", Duration::from_secs(60), || {
        report_of(&router.worker_reports(), "spool-drainer")
            .is_some_and(|r| r.health == WorkerHealth::Failed)
    });
    let resp = c.get("/health/ready").unwrap();
    assert_eq!(resp.status, 503);
    assert!(resp.body_str().contains("spool-drainer"), "{}", resp.body_str());
    assert_eq!(c.get("/health/live").unwrap().status, 204);
    // Direct delivery (queue → worker → db) is unaffected by the dead drainer.
    assert_eq!(c.post_text("/write", "heal,hostname=h1 v=2 2").unwrap().status, 204);
    assert!(router.flush(Duration::from_secs(10)));
    assert_eq!(influx.point_count("lms"), 2);

    rs.shutdown();
    db.shutdown();
}
