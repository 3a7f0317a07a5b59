//! The router mimics the database's HTTP API: one table of read requests
//! sent to a node and to a one-node router in front of an identical node
//! gets the same status, `content-type` and body — successes, a statement
//! list with a failing statement, statements that need no `db`, and every
//! error. A 3-node R = 2 cluster then answers with one node down (`200`,
//! flagged `X-Lms-Partial`) and with every node down (`503` with
//! `Retry-After`).

use lms_http::{HttpClient, Request, Response};
use lms_influx::{Influx, InfluxServer};
use lms_router::{ClusterConfig, Router, RouterConfig, RouterServer};
use lms_util::{Clock, Json, Timestamp};
use std::sync::Arc;
use std::time::Duration;

const DATA: &str = "m,hostname=h1 v=1 2000000000\n\
                    m,hostname=h2 v=2.5 70000000000\n\
                    m,hostname=h1 v=4 90000000000\n\
                    load,hostname=h1 load1=0.5 3000000000\n";

fn clock() -> Clock {
    Clock::simulated(Timestamp::from_secs(6000))
}

fn node() -> (Influx, InfluxServer) {
    let influx = Influx::new(clock()).unwrap();
    influx.write_lines("lms", DATA, Default::default()).unwrap();
    let server = InfluxServer::start("127.0.0.1:0", influx.clone()).unwrap();
    (influx, server)
}

fn get(target: &str) -> Request {
    Request::new("GET", target)
}

/// A POST of `q` as a form field, as InfluxDB takes statement lists.
fn form(target: &str, q: &str) -> Request {
    let mut req = Request::new("POST", target);
    req.headers.push(("content-type".into(), "application/x-www-form-urlencoded".into()));
    req.body = format!("q={}", lms_http::url::percent_encode(q)).into_bytes();
    req
}

fn q(text: &str) -> String {
    lms_http::url::percent_encode(text)
}

#[test]
fn node_and_router_answer_every_read_alike() {
    let (_direct, direct_server) = node();
    let (_behind, behind_server) = node();
    let config = RouterConfig::default();
    let router = Arc::new(Router::new(behind_server.addr(), config, clock(), None).unwrap());
    let router_server = RouterServer::start("127.0.0.1:0", router).unwrap();
    let mut to_node = HttpClient::connect(direct_server.addr()).unwrap();
    let mut to_router = HttpClient::connect(router_server.addr()).unwrap();

    let sum = q("SELECT sum(v) FROM m");
    let list = "SELECT v FROM m; SELEKT; SHOW MEASUREMENTS; SELECT v FROM ghost";
    // (request, expected status)
    let table: Vec<(Request, u16)> = vec![
        (get("/ping"), 204),
        (get(&format!("/query?db=lms&q={}", q("SELECT v FROM m"))), 200),
        (get(&format!("/query?db=lms&q={}", q("SELECT mean(v) FROM m GROUP BY hostname"))), 200),
        (form("/query?db=lms", list), 200),
        (form("/query?db=lms", "SELECT count(v) FROM m"), 200),
        (get(&format!("/query?q={}", q("SHOW DATABASES"))), 200),
        (form("/query", "CREATE DATABASE made"), 200),
        (get(&format!("/query?q={}", q("SHOW DATABASES"))), 200),
        (get(&format!("/query_range?db=lms&q={sum}&start=0&end=2m&step=1m")), 200),
        (get(&format!("/query_range?db=lms&q={sum}&start=0&end=120000000000")), 200),
        (get("/metrics?db=lms"), 200),
        (get("/labels/m?db=lms"), 200),
        (get("/labels/ghost?db=lms"), 200),
        (get("/health/live"), 204),
        (get("/health/ready"), 204),
        // Errors.
        (get("/query?db=lms"), 400),
        (form("/query?db=lms", ""), 400),
        (get(&format!("/query?db=lms&q={}", q("SELEKT"))), 400),
        (get(&format!("/query_range?db=lms&q={sum}&start=bogus&end=10")), 400),
        (get(&format!("/query_range?db=lms&q={sum}&start=0")), 400),
        (get("/query_range?db=lms&start=0&end=10"), 400),
        (get(&format!("/query_range?q={sum}&start=0&end=10")), 400),
        (get("/metrics"), 400),
        (get("/labels/m"), 400),
        (get(&format!("/query?db=ghost&q={}", q("SELECT v FROM m"))), 404),
        (form("/query?db=ghost", "SELECT v FROM m; SHOW MEASUREMENTS"), 200),
        (get(&format!("/query_range?db=ghost&q={sum}&start=0&end=10")), 404),
        (get("/metrics?db=ghost"), 404),
        (get("/labels/m?db=ghost"), 404),
        (get("/nope"), 404),
    ];
    for (req, status) in &table {
        let what = format!("{} {}?{:?}", req.method, req.path, req.query);
        let from_node = to_node.send(req).unwrap();
        let from_router = to_router.send(req).unwrap();
        assert_eq!(from_node.status, *status, "{what}: {}", from_node.body_str());
        assert_eq!(from_router.status, from_node.status, "{what}: {}", from_router.body_str());
        let content_type = from_node.header("content-type");
        assert_eq!(from_router.header("content-type"), content_type, "{what}");
        assert_eq!(from_router.body_str(), from_node.body_str(), "{what}");
        assert!(from_router.header("x-lms-partial").is_none(), "{what}");
        if from_node.status >= 400 && req.path != "/nope" {
            assert_eq!(from_node.header("content-type"), Some("application/json"), "{what}");
            let body = Json::parse(&from_node.body_str()).unwrap();
            assert!(body.get("error").and_then(Json::as_str).is_some(), "{what}");
        }
    }

    let from_node = to_node.get("/ping").unwrap();
    let from_router = to_router.get("/ping").unwrap();
    assert!(from_node.header("x-influxdb-version").is_some());
    assert_eq!(from_router.header("x-influxdb-version"), from_node.header("x-influxdb-version"));

    router_server.shutdown();
    behind_server.shutdown();
    direct_server.shutdown();
}

#[test]
fn a_cluster_answers_partial_with_a_node_down_and_503_with_all_down() {
    let mut nodes: Vec<Option<InfluxServer>> = (0..3)
        .map(|_| Some(InfluxServer::start("127.0.0.1:0", Influx::new(clock()).unwrap()).unwrap()))
        .collect();
    let cluster = ClusterConfig {
        nodes: nodes.iter().map(|n| n.as_ref().unwrap().addr()).collect(),
        replication: 2,
        write_quorum: 1,
        seed: 7,
    };
    let router =
        Arc::new(Router::new_cluster(cluster, RouterConfig::default(), clock(), None).unwrap());
    assert!(router.handle_write(Some("lms"), DATA).acked);
    assert!(router.flush(Duration::from_secs(10)));
    let server = RouterServer::start("127.0.0.1:0", router).unwrap();
    let mut c = HttpClient::connect(server.addr()).unwrap();
    let count = format!("/query?db=lms&q={}", q("SELECT count(v) FROM m"));
    let counted = |r: &Response| {
        let json = Json::parse(&r.body_str()).unwrap();
        let series = json.get("results").unwrap().idx(0).unwrap().get("series").unwrap();
        series.idx(0).unwrap().get("values").unwrap().idx(0).unwrap().idx(1).unwrap().as_i64()
    };

    let r = c.get(&count).unwrap();
    assert_eq!(r.status, 200, "{}", r.body_str());
    assert!(r.header("x-lms-partial").is_none());
    assert_eq!(counted(&r), Some(3));

    // R = 2: with one node down every series still has a copy.
    nodes[1].take().unwrap().shutdown();
    let range = format!("/query_range?db=lms&q={}&start=0&end=2m", q("SELECT count(v) FROM m"));
    for target in [count.as_str(), range.as_str(), "/metrics?db=lms"] {
        let r = c.get(target).unwrap();
        assert_eq!(r.status, 200, "{target}: {}", r.body_str());
        if target != "/metrics?db=lms" {
            assert_eq!(r.header("x-lms-partial"), Some("true"), "{target}");
            assert_eq!(counted(&r), Some(3), "{target}");
        }
    }
    let r = c.send(&form("/query?db=lms", "SELECT count(v) FROM m; SHOW MEASUREMENTS")).unwrap();
    assert_eq!(r.status, 200, "{}", r.body_str());
    assert_eq!(r.header("x-lms-partial"), Some("true"));

    for node in &mut nodes {
        if let Some(node) = node.take() {
            node.shutdown();
        }
    }
    for target in [count.as_str(), range.as_str(), "/metrics?db=lms", "/labels/m?db=lms"] {
        let r = c.get(target).unwrap();
        assert_eq!(r.status, 503, "{target}: {}", r.body_str());
        assert!(r.header("retry-after").is_some(), "{target}");
        assert_eq!(r.header("content-type"), Some("application/json"), "{target}");
        assert!(Json::parse(&r.body_str()).unwrap().get("error").is_some(), "{target}");
    }
    server.shutdown();
}
