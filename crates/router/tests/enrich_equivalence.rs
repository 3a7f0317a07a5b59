//! The router writes an enriched line once, splicing its job's tags into the
//! received bytes. This checks that against materialising the line as a
//! `Point`, adding the job's tags with `add_tag` and serialising it again:
//! every copy forwarded to an owner node and the queue's payload parse to
//! the same canonical point, placement picks the same owners, no line is
//! addressed to a user's database (with per-user views on, a user's
//! database is a view the nodes serve), and the enriched count agrees — on
//! one node and on three with R = 2. No forwarded line may repeat a tag key.

use lms_cluster::ClusterConfig;
use lms_http::{Request, Response, Server};
use lms_influx::user_view;
use lms_lineproto::escape::{escape_measurement_into, escape_string_field_into, escape_tag_into};
use lms_lineproto::{parse_batch, parse_line, ParsedLine, Point};
use lms_mq::{Publisher, Subscriber};
use lms_router::{JobSignal, Router, RouterConfig};
use lms_util::hash::fx_hash;
use lms_util::{Clock, Timestamp};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const NOW_S: i64 = 5_000;
const WAIT: Duration = Duration::from_secs(10);

/// Line tag keys: two that job tags replace, some that need escaping.
const TAG_KEYS: [&str; 7] = ["a", "b c", "jobid", "user", "k=v", "queue", "z,z"];
/// Extra job tag keys, including the reserved ones the tag store drops.
const JOB_KEYS: [&str; 7] = ["queue", "a", "b c", "jobid", "hostname", "acct=x", "user"];
const FIELD_KEYS: [&str; 4] = ["v", "f k", "a=b", "s,t"];
const USERS: [&str; 2] = ["alice", "bob"];

/// A generated line: measurement, tags `(key, value)` other than
/// `hostname`, the position `hostname` takes among them, fields
/// `(key, kind, number, text)`, timestamp, and the job of its host —
/// `(user, extra tags)` — if one runs there.
type LineSpec = (
    String,
    Vec<(usize, String)>,
    usize,
    Vec<(usize, u8, i64, String)>,
    Option<i64>,
    Option<(usize, Vec<(usize, String)>)>,
);

fn line_spec() -> impl Strategy<Value = LineSpec> {
    (
        "[a-m][a-z ,=]{0,5}",
        proptest::collection::vec((0usize..TAG_KEYS.len(), "[a-z0-9 ,=]{1,6}"), 0..5),
        0usize..5,
        proptest::collection::vec(
            (0usize..FIELD_KEYS.len(), 0u8..4, -1000i64..1000, "[a-z ,=\"\\\\]{0,8}"),
            1..4,
        ),
        proptest::option::of(0i64..1_000_000_000_000),
        proptest::option::of((
            0usize..USERS.len(),
            proptest::collection::vec((0usize..JOB_KEYS.len(), "[a-z ,=]{1,6}"), 0..4),
        )),
    )
}

/// Line `i` of a request, on host `h<i>`, in wire form.
fn render(i: usize, spec: &LineSpec) -> String {
    let (measurement, tags, host_at, fields, ts, _) = spec;
    let mut tags: Vec<(String, String)> =
        tags.iter().map(|(k, v)| (TAG_KEYS[*k].to_string(), v.clone())).collect();
    tags.insert((*host_at).min(tags.len()), ("hostname".into(), format!("h{i}")));
    let mut line = String::new();
    escape_measurement_into(measurement, &mut line);
    for (k, v) in &tags {
        line.push(',');
        escape_tag_into(k, &mut line);
        line.push('=');
        escape_tag_into(v, &mut line);
    }
    for (n, (k, kind, num, text)) in fields.iter().enumerate() {
        line.push(if n == 0 { ' ' } else { ',' });
        escape_tag_into(FIELD_KEYS[*k], &mut line);
        line.push('=');
        match kind {
            0 => line.push_str(&format!("{num}.50")),
            1 => line.push_str(&format!("{num}i")),
            2 => line.push_str(if num % 2 == 0 { "t" } else { "FALSE" }),
            _ => {
                line.push('"');
                escape_string_field_into(text, &mut line);
                line.push('"');
            }
        }
    }
    if let Some(ts) = ts {
        line.push_str(&format!(" {ts}"));
    }
    line
}

fn job_signal(i: usize, spec: &LineSpec) -> Option<JobSignal> {
    let (user, extras) = spec.5.as_ref()?;
    Some(JobSignal {
        job_id: format!("j{i}"),
        user: USERS[*user].into(),
        hosts: vec![format!("h{i}")],
        extra_tags: extras.iter().map(|(k, v)| (JOB_KEYS[*k].to_string(), v.clone())).collect(),
    })
}

/// What the router made of a line before enrichment was spliced: the line
/// as a `Point`, stamped with the router's time if it had none, with the
/// job's tags added in the tag store's order.
fn reference(line: &ParsedLine<'_>, job: Option<&JobSignal>) -> Point {
    let mut p = line.to_point();
    if p.timestamp().is_none() {
        p.set_timestamp(Timestamp::from_secs(NOW_S).nanos());
    }
    if let Some(job) = job {
        p.add_tag("jobid", job.job_id.as_str());
        p.add_tag("user", job.user.as_str());
        for (k, v) in &job.extra_tags {
            if !matches!(k.as_str(), "jobid" | "user" | "hostname") {
                p.add_tag(k.as_str(), v.as_str());
            }
        }
    }
    p
}

/// The canonical point a forwarded or published line stands for; fails
/// when the line repeats a tag key.
fn canonical(line: &str) -> Result<String, TestCaseError> {
    let parsed = parse_line(line).map_err(|e| TestCaseError::fail(format!("{line}: {e}")))?;
    let keys: BTreeSet<&str> = parsed.tags.iter().map(|(k, _)| k.as_ref()).collect();
    prop_assert_eq!(keys.len(), parsed.tags.len(), "repeated tag key in {}", line);
    Ok(parsed.to_point().to_line())
}

/// A database node that records the bodies it is sent, by database.
struct Recorder {
    server: Server,
    writes: Arc<Mutex<Vec<(String, String)>>>,
}

impl Recorder {
    fn start() -> Self {
        let writes: Arc<Mutex<Vec<(String, String)>>> = Arc::default();
        let sink = Arc::clone(&writes);
        let server = Server::bind("127.0.0.1:0", 64, move |req: Request| {
            if req.path == "/write" {
                let db = req.query_param("db").unwrap_or_default().to_string();
                sink.lock().unwrap().push((db, req.body_str().into_owned()));
            }
            Response::no_content()
        })
        .unwrap();
        Recorder { server, writes }
    }

    /// The canonical points of every line received, as `(db, line)`, sorted.
    fn received(&self) -> Result<Vec<(String, String)>, TestCaseError> {
        let mut out = Vec::new();
        for (db, body) in self.writes.lock().unwrap().iter() {
            let parsed = parse_batch(body);
            prop_assert!(parsed.is_clean(), "{:?} in {}", parsed.errors, body);
            for line in &parsed.lines {
                out.push((db.clone(), canonical(line.raw)?));
            }
        }
        out.sort();
        Ok(out)
    }
}

/// Writes `body` through an N-node router with replication R, per-user
/// views and a subscriber on every metric, after starting `jobs`,
/// and checks every destination against `expected`.
fn check(
    nodes: usize,
    replication: usize,
    jobs: &[JobSignal],
    body: &str,
    expected: &[Point],
) -> Result<(), TestCaseError> {
    let recorders: Vec<Recorder> = (0..nodes).map(|_| Recorder::start()).collect();
    let cluster = ClusterConfig {
        nodes: recorders.iter().map(|r| r.server.addr()).collect(),
        replication,
        write_quorum: 1,
        seed: 7,
    };
    let ring = cluster.ring();
    let publisher = Publisher::bind("127.0.0.1:0").unwrap();
    let mut sub = Subscriber::connect(publisher.addr()).unwrap();
    sub.subscribe("metrics.").unwrap();
    publisher.wait_for_subscribers(1, WAIT).unwrap();
    let config = RouterConfig { per_user: true, ..Default::default() };
    let clock = Clock::simulated(Timestamp::from_secs(NOW_S));
    let router = Router::new_cluster(cluster, config, clock, Some(publisher)).unwrap();
    for job in jobs {
        router.handle_job_start(job.clone());
    }
    prop_assert!(router.flush(WAIT));
    for r in &recorders {
        r.writes.lock().unwrap().clear(); // the job-start events
    }

    let outcome = router.handle_write(None, body);
    prop_assert_eq!((outcome.accepted, outcome.rejected), (expected.len(), 0));
    prop_assert!(router.flush(WAIT));
    prop_assert_eq!(router.stats().lines_enriched, jobs.len() as u64);

    // Placement: each copy lands exactly on the owners of the reference
    // point's series in the global database, and in no user's database.
    let mut want: Vec<Vec<(String, String)>> = vec![Vec::new(); nodes];
    let mut owners = Vec::new();
    for point in expected {
        let key = point.series_key();
        ring.owners_into(fx_hash(&("lms", key.as_str())), replication, &mut owners);
        for &o in &owners {
            want[o].push(("lms".to_string(), point.to_line()));
        }
    }
    for (node, (recorder, want)) in recorders.iter().zip(&mut want).enumerate() {
        want.sort();
        let received = recorder.received()?;
        let to_users: Vec<&String> =
            received.iter().map(|(db, _)| db).filter(|db| user_view(db).is_some()).collect();
        prop_assert!(to_users.is_empty(), "node {}: lines addressed to {:?}", node, to_users);
        prop_assert_eq!(&received, &*want, "node {} of {}", node, nodes);
    }

    // The queue carries every line once, in order, under its measurement.
    for point in expected {
        let m = sub.recv_timeout(WAIT).unwrap();
        let m = m.ok_or_else(|| TestCaseError::fail("a metric was not published"))?;
        prop_assert_eq!(m.topic, format!("metrics.{}", point.measurement()));
        prop_assert_eq!(canonical(std::str::from_utf8(&m.payload).unwrap())?, point.to_line());
    }
    drop(router);
    for r in recorders {
        r.server.shutdown();
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..Default::default() })]

    #[test]
    fn spliced_lines_equal_the_reserialised_points(
        specs in proptest::collection::vec(line_spec(), 1..7),
    ) {
        let lines: Vec<String> = specs.iter().enumerate().map(|(i, s)| render(i, s)).collect();
        let body = lines.join("\n");
        let jobs: Vec<Option<JobSignal>> =
            specs.iter().enumerate().map(|(i, s)| job_signal(i, s)).collect();
        let expected: Vec<Point> = lines
            .iter()
            .zip(&jobs)
            .map(|(line, job)| reference(&parse_line(line).unwrap(), job.as_ref()))
            .collect();
        let started: Vec<JobSignal> = jobs.iter().flatten().cloned().collect();
        check(1, 1, &started, &body, &expected)?;
        check(3, 2, &started, &body, &expected)?;
    }
}
