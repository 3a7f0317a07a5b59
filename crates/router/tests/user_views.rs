//! A user's database is a view the nodes serve: `user_<name>` reads `lms`
//! under `user = '<name>'`. Read through the router — on one node and on
//! three with R = 2 — every SELECT and listing on a view answers what a node
//! that received only that user's enriched lines answers, which is what a
//! per-user copy of them held. And the view lasts as long as `lms` does,
//! whatever the user's name.

use lms_cluster::ClusterConfig;
use lms_influx::{Influx, InfluxServer, QueryResult, StorageConfig};
use lms_router::{JobSignal, Router, RouterConfig};
use lms_util::{Clock, Error, Result, Timestamp};
use proptest::prelude::*;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(10);
/// Users, the names a directory cannot carry included.
const USERS: [&str; 3] = ["j.doe", "o'neil", "ann"];
const HOSTS: usize = 6;
const MEASUREMENTS: [&str; 2] = ["cpu", "mem"];

fn clock() -> Clock {
    Clock::simulated(Timestamp::from_secs(5_000))
}

fn job(user: usize, hosts: Vec<String>) -> JobSignal {
    JobSignal { job_id: format!("{}", 40 + user), user: USERS[user].into(), hosts, extra_tags: vec![] }
}

/// `s` as an InfluxQL string literal.
fn quoted(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

#[test]
fn a_view_survives_a_restart_of_its_node() {
    // `j.doe` cannot name a directory, so no per-user copy under that
    // name can be stored. The view reads `lms`, which persists.
    const N: i64 = 50;
    let dir = std::env::temp_dir().join(format!("lms-user-view-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || Influx::open(clock(), 4, StorageConfig::new(&dir)).unwrap();
    {
        let influx = open();
        let server = InfluxServer::start("127.0.0.1:0", influx).unwrap();
        let config = RouterConfig { per_user: true, ..Default::default() };
        let router = Router::new(server.addr(), config, clock(), None).unwrap();
        router.handle_job_start(job(0, vec!["h1".into()]));
        let body: String =
            (1..=N).map(|i| format!("cpu,hostname=h1 v={i} {}\n", i * 1_000_000_000)).collect();
        assert!(router.handle_write(None, &body).acked);
        assert!(router.flush(WAIT));
        drop(router);
        server.shutdown();
    }
    let reopened = open();
    let count = reopened
        .query("user_j.doe", "SELECT count(v) FROM cpu")
        .ok()
        .and_then(|r| r.series.first()?.values.first()?.get(1)?.as_i64())
        .unwrap_or(0);
    assert_eq!(count, N);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A point: host, measurement, seconds, `v`, and `w` when present.
type Line = (usize, usize, i64, i64, Option<i64>);

fn render(&(h, m, t, v, w): &Line, job_tags: &str) -> String {
    let w = w.map(|w| format!(",w={w}")).unwrap_or_default();
    format!("{},hostname=h{h}{job_tags} v={v}{w} {}\n", MEASUREMENTS[m], t * 1_000_000_000)
}

/// Every statement compared on a view.
fn statements() -> Vec<String> {
    let mut out = vec!["SHOW MEASUREMENTS".to_string()];
    for m in MEASUREMENTS {
        out.push(format!("SELECT v FROM {m}"));
        out.push(format!("SELECT v, w FROM {m} GROUP BY hostname"));
        for f in ["count", "sum", "mean", "min", "max"] {
            out.push(format!("SELECT {f}(v) FROM {m} GROUP BY hostname"));
            out.push(format!(
                "SELECT {f}(v), {f}(w) FROM {m} WHERE time >= 0s AND time < 600s GROUP BY time(60s)"
            ));
        }
        for key in ["hostname", "jobid", "user"] {
            out.push(format!("SHOW TAG VALUES FROM {m} WITH KEY = {key}"));
        }
        out.push(format!("SHOW FIELD KEYS FROM {m}"));
    }
    out
}

/// Equal answers, or both not found (a user without lines has no view, as
/// a user without lines had no copy).
fn same<T: PartialEq + std::fmt::Debug>(
    got: Result<T>,
    want: Result<T>,
    what: &str,
) -> Result<(), TestCaseError> {
    match (got, want) {
        (Ok(got), Ok(want)) => prop_assert_eq!(got, want, "{}", what),
        (Err(Error::Remote { status: 404, .. }), Err(Error::NotFound(_))) => {}
        (got, want) => prop_assert!(false, "{}: view {:?}, reference {:?}", what, got, want),
    }
    Ok(())
}

/// An N-node cluster with R-way replication whose router serves views, the
/// jobs started and `body` written through it.
fn cluster(
    n: usize,
    replication: usize,
    jobs: &[JobSignal],
    body: &str,
) -> (Vec<InfluxServer>, Router) {
    let servers: Vec<InfluxServer> =
        (0..n).map(|_| InfluxServer::start("127.0.0.1:0", Influx::new(clock()).unwrap()).unwrap()).collect();
    let cluster = ClusterConfig {
        nodes: servers.iter().map(|s| s.addr()).collect(),
        replication,
        write_quorum: 1,
        seed: 7,
    };
    let config = RouterConfig { per_user: true, ..Default::default() };
    let router = Router::new_cluster(cluster, config, clock(), None).unwrap();
    for job in jobs {
        router.handle_job_start(job.clone());
    }
    assert!(router.handle_write(None, body).acked);
    assert!(router.flush(WAIT));
    (servers, router)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..Default::default() })]

    #[test]
    fn a_view_answers_what_a_copy_of_its_users_lines_answers(
        owners in proptest::collection::vec(proptest::option::of(0usize..USERS.len()), HOSTS),
        lines in proptest::collection::vec(
            (0..HOSTS, 0..MEASUREMENTS.len(), 0i64..600, -50i64..50, proptest::option::of(-50i64..50)),
            1..60,
        ),
    ) {
        let jobs: Vec<JobSignal> = (0..USERS.len())
            .map(|u| {
                let hosts = (0..HOSTS).filter(|&h| owners[h] == Some(u)).map(|h| format!("h{h}"));
                job(u, hosts.collect())
            })
            .filter(|j| !j.hosts.is_empty())
            .collect();
        let body: String = lines.iter().map(|line| render(line, "")).collect();
        // What a per-user copy received: the user's lines, job tags spliced in.
        let references: Vec<Influx> = (0..USERS.len())
            .map(|u| {
                let reference = Influx::new(clock()).unwrap();
                let tags = format!(",jobid={},user={}", 40 + u, USERS[u]);
                let mine: String =
                    lines.iter().filter(|l| owners[l.0] == Some(u)).map(|l| render(l, &tags)).collect();
                if !mine.is_empty() {
                    reference.write_lines("lms", &mine, Default::default()).unwrap();
                }
                reference
            })
            .collect();
        let statements = statements();
        for (servers, router) in [cluster(1, 1, &jobs, &body), cluster(3, 2, &jobs, &body)] {
            let nodes = servers.len();
            let r = router.handle_query("lms", "SHOW DATABASES").unwrap();
            let listed: Vec<&str> = r.series[0].values.iter().filter_map(|v| v[0].as_str()).collect();
            for (u, reference) in references.iter().enumerate() {
                let view = format!("user_{}", USERS[u]);
                let has_lines = reference.point_count("lms") > 0;
                prop_assert_eq!(listed.contains(&view.as_str()), has_lines, "{} nodes: {:?}", nodes, listed);
                for q in &statements {
                    let what = format!("{nodes} nodes, {view}: {q}");
                    same(router.handle_query(&view, q), reference.query("lms", q), &what)?;
                }
                let what = format!("{nodes} nodes, /metrics of {view}");
                same(router.handle_metrics(&view), reference.measurements("lms"), &what)?;
                for m in MEASUREMENTS {
                    let what = format!("{nodes} nodes, /labels/{m} of {view}");
                    same(router.handle_labels(&view, m), reference.tag_keys("lms", m), &what)?;
                }
                // A view admits its own user's series only.
                for other in USERS.iter().filter(|&&o| o != USERS[u]) {
                    for m in MEASUREMENTS {
                        let q = format!("SELECT v FROM {m} WHERE user = {}", quoted(other));
                        if let Ok(r) = router.handle_query(&view, &q) {
                            prop_assert_eq!(r, QueryResult::empty(), "{} nodes, {}: {}", nodes, view, q);
                        }
                    }
                }
            }
            drop(router);
            for s in servers {
                s.shutdown();
            }
        }
    }
}
