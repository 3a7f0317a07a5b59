//! Failure injection across component boundaries: the stack must degrade
//! gracefully, never wedge, and recover — the operational concerns the
//! paper raises for continuous system-wide monitoring.

use lms::http::HttpClient;
use lms::influx::{Influx, InfluxServer, StorageConfig};
use lms::router::{Router, RouterConfig, RouterServer};
use lms::spool::SpoolConfig;
use lms::util::{Clock, Timestamp};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn clock() -> Clock {
    Clock::simulated(Timestamp::from_secs(1_000_000))
}

fn tmp_spool(tag: &str) -> SpoolConfig {
    let dir = std::env::temp_dir().join(format!("lms-fi-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    SpoolConfig::new(dir)
}

#[test]
fn router_buffers_through_database_outage() {
    let clock = clock();
    let influx = Influx::new(clock.clone()).unwrap();
    let db = InfluxServer::start("127.0.0.1:0", influx.clone()).unwrap();
    let db_addr = db.addr();
    let config = RouterConfig {
        max_retries: 8,
        spool: Some(tmp_spool("outage")),
        ..Default::default()
    };
    let router = Arc::new(Router::new(db_addr, config, clock.clone(), None).unwrap());
    let rs = RouterServer::start("127.0.0.1:0", router.clone()).unwrap();
    let mut agent = HttpClient::connect(rs.addr()).unwrap();

    // Normal delivery.
    agent.post_text("/write", "m,hostname=h1 v=1 1").unwrap();
    assert!(router.flush(Duration::from_secs(5)));
    assert_eq!(influx.point_count("lms"), 1);

    // Database goes down; the agent keeps writing and gets 204 (the
    // router accepts and buffers — collectors must never block).
    db.shutdown();
    let resp = agent.post_text("/write", "m,hostname=h1 v=2 2").unwrap();
    assert_eq!(resp.status, 204);

    // Database returns on the same port. flush() blocks until the queue,
    // every in-flight batch, AND the spool have drained — no poll loop.
    std::thread::sleep(Duration::from_millis(150));
    let influx2 = Influx::new(clock.clone()).unwrap();
    let db2 = InfluxServer::start(db_addr, influx2.clone()).unwrap();
    assert!(router.flush(Duration::from_secs(10)), "{:?}", router.stats().forward);
    assert_eq!(influx2.point_count("lms"), 1, "buffered point delivered after recovery");
    let f = router.stats().forward;
    assert!(f.retries > 0 || f.spooled > 0, "{f:?}");
    assert_eq!(f.dropped, 0, "{f:?}");
    rs.shutdown();
    db2.shutdown();
}

#[test]
fn a_wal_append_error_on_the_node_is_retried_not_rejected() {
    // The node stages a batch, then fails to log it. Its answer must be
    // transient: a 4xx would make the forwarder throw the batch away, and
    // the points, never logged, would be lost at the next restart.
    let dir = std::env::temp_dir().join(format!("lms-fi-{}-wal-fault-data", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let clock = clock();
    let open = || Influx::open(clock.clone(), 4, StorageConfig::new(&dir)).unwrap();
    let influx = open();
    influx.create_database("lms");
    let worker = influx.spawn_storage_worker().unwrap();
    let db = InfluxServer::start("127.0.0.1:0", influx.clone()).unwrap();
    let config = RouterConfig { spool: Some(tmp_spool("wal-fault")), ..Default::default() };
    let router = Router::new(db.addr(), config, clock.clone(), None).unwrap();
    // The disk fills up under the next WAL segments (`/dev/full` fails
    // every write with ENOSPC); a flush's rotation moves the log there.
    let wal = dir.join("lms").join("wal");
    let full: Vec<std::path::PathBuf> =
        (0..64).map(|seq| wal.join(format!("{seq:016x}.wal"))).filter(|p| !p.exists()).collect();
    for p in &full {
        std::os::unix::fs::symlink("/dev/full", p).unwrap();
    }
    influx.flush_storage().unwrap();
    for i in 0..5 {
        let line = format!("m,hostname=h{i} v={i} {}", 1_000_000 + i);
        assert!(router.handle_write(Some("lms"), &line).acked);
    }
    // Clear the fault only once the forwarder has met it.
    let deadline = Instant::now() + Duration::from_secs(10);
    let met = |f: lms::router::ForwardStats| f.retries + f.spooled + f.rejected > 0;
    while !met(router.stats().forward) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(met(router.stats().forward), "{:?}", router.stats().forward);
    assert_ne!(influx.storage_health(), lms::influx::tsm::Health::Ok);
    // Space is freed. No operator call: the storage worker's probe heals
    // the node, and the router delivers what it kept.
    for p in &full {
        let _ = std::fs::remove_file(p);
    }
    assert!(router.flush(Duration::from_secs(20)), "{:?}", router.stats().forward);
    assert_eq!(influx.storage_health(), lms::influx::tsm::Health::Ok);
    let f = router.stats().forward;
    assert_eq!((f.rejected, f.dropped), (0, 0), "{f:?}");
    assert_eq!(influx.point_count("lms"), 5);
    worker.stop();
    drop(router);
    db.shutdown();
    drop(influx);
    // Every point was logged once the disk recovered: a restart reads all.
    assert_eq!(open().point_count("lms"), 5);
    let _ = std::fs::remove_dir_all(&dir);
}

/// What a persistent node acknowledges, by how its database comes to be:
/// each write answered `204` (and each batch the router delivers) must
/// read back after a reopen, and a database the node cannot hold on disk
/// is refused, never kept in memory only.
#[test]
fn a_persistent_node_acks_only_what_it_stores() {
    struct Row {
        label: &'static str,
        db: &'static str,
        /// Created by `create_database` before the first write.
        created: bool,
        /// A regular file where the database's directory goes.
        blocked: bool,
        /// The status of the first write.
        status: u16,
    }
    let rows = [
        Row { label: "created by a write", db: "by_write", created: false, blocked: false, status: 204 },
        Row { label: "created by create_database", db: "by_create", created: true, blocked: false, status: 204 },
        Row { label: "unsafe name", db: "weird/../name", created: false, blocked: false, status: 400 },
        Row { label: "failed open", db: "blocked", created: true, blocked: true, status: 503 },
    ];
    for row in rows {
        let dir = std::env::temp_dir()
            .join(format!("lms-fi-{}-acks-{}", std::process::id(), row.db.replace('/', "_")));
        let _ = std::fs::remove_dir_all(&dir);
        let clock = clock();
        let open = || Influx::open(clock.clone(), 4, StorageConfig::new(&dir)).unwrap();
        let influx = open();
        let node = InfluxServer::start("127.0.0.1:0", influx.clone()).unwrap();
        let router = Router::new(node.addr(), Default::default(), clock.clone(), None).unwrap();
        let mut client = HttpClient::connect(node.addr()).unwrap();
        let target = format!("/write?db={}", lms::http::url::percent_encode(row.db));
        let label = row.label;
        if row.blocked {
            std::fs::write(dir.join(row.db), b"not a directory").unwrap();
        }
        if row.created {
            influx.create_database(row.db);
            assert_eq!(dir.join(row.db).is_dir(), !row.blocked, "{label}");
        }
        let mut acked = 0;
        let status = client.post_text(&target, "m v=1 1").unwrap().status;
        assert_eq!(status, row.status, "{label}: first write");
        acked += (status == 204) as i64;
        if row.blocked {
            assert_eq!(influx.database(row.db).map(|_| ()), None, "{label}: nothing registered");
            std::fs::remove_file(dir.join(row.db)).unwrap();
            assert_eq!(client.post_text(&target, "m v=2 2").unwrap().status, 204, "{label}: retry");
            acked += 1;
        }
        assert!(router.handle_write(Some(row.db), "m v=3 3").acked, "{label}");
        assert!(router.flush(Duration::from_secs(10)), "{label}");
        let f = router.stats().forward;
        let refused = row.status == 400;
        assert_eq!((f.rejected, f.dropped), (refused as u64, 0), "{label}: {f:?}");
        acked += !refused as i64;
        if refused {
            assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "{label}: nothing on disk");
            assert_eq!(influx.database_names(), Vec::<String>::new(), "{label}");
        }
        drop(router);
        node.shutdown();
        drop(influx);
        let reopened = open();
        let stored = reopened
            .query(row.db, "SELECT count(v) FROM m")
            .map_or(0, |r| r.series.first().map_or(0, |s| s.values[0][1].as_i64().unwrap()));
        assert_eq!(stored, acked, "{label}: every acked point after a reopen");
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn malformed_batches_never_poison_the_pipeline() {
    let clock = clock();
    let influx = Influx::new(clock.clone()).unwrap();
    let db = InfluxServer::start("127.0.0.1:0", influx.clone()).unwrap();
    let router = Arc::new(Router::new(db.addr(), Default::default(), clock, None).unwrap());
    let rs = RouterServer::start("127.0.0.1:0", router.clone()).unwrap();
    let mut agent = HttpClient::connect(rs.addr()).unwrap();

    // A batch mixing garbage with good lines: good lines land.
    let batch = "good,hostname=h1 v=1 1\n\
                 this is not line protocol\n\
                 ,=,= ,=\n\
                 good,hostname=h1 v=2 2\n\
                 trailing garbage \u{1}\u{2}\n";
    let resp = agent.post_text("/write", batch).unwrap();
    assert_eq!(resp.status, 204);
    assert!(router.flush(Duration::from_secs(5)));
    assert_eq!(influx.point_count("lms"), 2);
    assert_eq!(router.stats().lines_rejected, 3);

    // An all-garbage batch answers 400 but the next good one still works.
    assert_eq!(agent.post_text("/write", "total nonsense").unwrap().status, 400);
    assert_eq!(agent.post_text("/write", "good,hostname=h1 v=3 3").unwrap().status, 204);
    assert!(router.flush(Duration::from_secs(5)));
    assert_eq!(influx.point_count("lms"), 3);
    rs.shutdown();
    db.shutdown();
}

#[test]
fn binary_garbage_on_http_port_is_survivable() {
    use std::io::Write as _;
    let clock = clock();
    let influx = Influx::new(clock.clone()).unwrap();
    let db = InfluxServer::start("127.0.0.1:0", influx.clone()).unwrap();

    // Raw binary straight at the HTTP socket.
    let mut s = std::net::TcpStream::connect(db.addr()).unwrap();
    s.write_all(&[0xde, 0xad, 0xbe, 0xef, 0x0d, 0x0a, 0x0d, 0x0a]).unwrap();
    drop(s);

    // The server still serves the next client.
    let mut c = HttpClient::connect(db.addr()).unwrap();
    assert_eq!(c.get("/ping").unwrap().status, 204);
    db.shutdown();
}

#[test]
fn dead_subscriber_does_not_stall_publishing() {
    use lms::mq::{Publisher, Subscriber};
    let publisher = Publisher::bind_with_hwm("127.0.0.1:0", 8).unwrap();
    let mut sub = Subscriber::connect(publisher.addr()).unwrap();
    sub.subscribe("").unwrap();
    publisher.wait_for_subscribers(1, Duration::from_secs(5)).unwrap();
    drop(sub); // subscriber dies without unsubscribing

    // Publishing goes on; the dead subscriber is reaped.
    let start = std::time::Instant::now();
    for i in 0..1000 {
        publisher.publish("t", format!("{i}").as_bytes());
    }
    assert!(start.elapsed() < Duration::from_secs(5), "publish never blocks");
    for _ in 0..100 {
        if publisher.subscriber_count() == 0 {
            return;
        }
        publisher.publish("t", b"poke");
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("dead subscriber never reaped");
}

#[test]
fn scheduler_signals_survive_router_outage() {
    use lms::jobsched::{HttpSignaler, JobSpec, Scheduler};
    let clock = clock();
    // Router exists only long enough to learn its port, then dies.
    let influx = Influx::new(clock.clone()).unwrap();
    let db = InfluxServer::start("127.0.0.1:0", influx).unwrap();
    let router = Arc::new(Router::new(db.addr(), Default::default(), clock.clone(), None).unwrap());
    let rs = RouterServer::start("127.0.0.1:0", router).unwrap();
    let router_addr = rs.addr();
    rs.shutdown();

    let mut sched = Scheduler::new(["n1"], clock.clone());
    sched.add_hook(Box::new(HttpSignaler::new(router_addr).unwrap()));
    let id = sched.submit(JobSpec::new("u", "x", 1, Duration::from_secs(10)));
    // tick() must not wedge even though every signal delivery fails.
    sched.tick();
    clock.advance(Duration::from_secs(11));
    sched.tick();
    assert!(sched.job(id).unwrap().state.is_completed());
    db.shutdown();
}

#[test]
fn usermetric_over_dead_router_degrades_to_error_counts() {
    use lms::usermetric::{UserMetric, UserMetricConfig};
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let um = UserMetric::to_http(UserMetricConfig::default(), clock(), dead, "lms").unwrap();
    for i in 0..250 {
        um.metric("m", i as f64); // crosses the flush threshold twice
    }
    um.flush();
    let (flushes, errors) = um.stats();
    assert!(flushes >= 3);
    assert_eq!(errors, flushes, "every flush failed, none panicked");
}
