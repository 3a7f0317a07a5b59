//! The paper's loose-coupling claim: "Due to simple standardized
//! interfaces, all its components can be used also as standalone tools."
//! These tests compose subsets of the stack by hand — no `LmsStack` — the
//! way a site integrating LMS into existing infrastructure would.

use lms::http::HttpClient;
use lms::influx::{Influx, InfluxClient, InfluxServer};
use lms::router::proxy::GangliaProxy;
use lms::router::{Router, RouterServer};
use lms::sysmon::ganglia::GmondServer;
use lms::sysmon::{HostAgent, NodeActivity, SimProc};
use lms::util::{Clock, Timestamp};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn database_alone_serves_an_external_collector() {
    // A site keeps its database and just points a curl-style collector at
    // it — no router involved.
    let influx = Influx::new(Clock::simulated(Timestamp::from_secs(500))).unwrap();
    let server = InfluxServer::start("127.0.0.1:0", influx.clone()).unwrap();
    let mut curl = HttpClient::connect(server.addr()).unwrap();
    // "cronjobs sending metrics with curl" (paper Sec. III-A).
    let resp = curl
        .post_text("/write?db=site&precision=s", "temperature,hostname=rack7 value=28.5 480")
        .unwrap();
    assert_eq!(resp.status, 204);

    let mut client = InfluxClient::connect(server.addr()).unwrap();
    let r = client.query("site", "SELECT value FROM temperature").unwrap();
    assert_eq!(r.series[0].values[0][1].as_f64(), Some(28.5));
    server.shutdown();
}

#[test]
fn agent_plus_database_without_router() {
    // Direct agent → database wiring: the agent doesn't care that no
    // tagging happens (the interfaces are identical).
    let clock = Clock::simulated(Timestamp::from_secs(100));
    let influx = Influx::new(clock.clone()).unwrap();
    let server = InfluxServer::start("127.0.0.1:0", influx.clone()).unwrap();

    let mut agent = HostAgent::new("standalone1", clock.clone()).with_standard_collectors();
    agent.send_to(server.addr(), "nodes").unwrap();
    let mut proc_fs = SimProc::new(4, 1 << 20, 9);
    proc_fs.set_activity(NodeActivity::busy_compute(4));
    for _ in 0..5 {
        agent.tick(&proc_fs);
        proc_fs.advance(Duration::from_secs(30));
        clock.advance(Duration::from_secs(30));
    }
    assert!(influx.point_count("nodes") > 10);
    let r = influx
        .query("nodes", "SELECT mean(busy) FROM cpu_total WHERE hostname = 'standalone1'")
        .unwrap();
    assert!(r.series[0].values[0][1].as_f64().unwrap() > 0.9);
    server.shutdown();
}

#[test]
fn ganglia_to_router_to_database_integration_path() {
    // "existing monitoring solution" (gmond) → pull proxy → router → DB:
    // the legacy integration path of Fig. 1, assembled by hand.
    let clock = Clock::simulated(Timestamp::from_secs(2000));
    let influx = Influx::new(clock.clone()).unwrap();
    let db = InfluxServer::start("127.0.0.1:0", influx.clone()).unwrap();
    let router = Arc::new(Router::new(db.addr(), Default::default(), clock.clone(), None).unwrap());

    let gmond = GmondServer::start("127.0.0.1:0", "legacy").unwrap();
    gmond.update("old-node-1", 1990, "load_one", 1.25, "float", "");
    gmond.update("old-node-1", 1990, "swap_free", 0u32, "uint32", "KB");
    gmond.update("old-node-2", 1995, "load_one", 0.75, "float", "");

    let proxy = GangliaProxy::new(gmond.addr()).unwrap();
    let n = proxy.pull_once(&router).unwrap();
    assert_eq!(n, 3);
    assert!(router.flush(Duration::from_secs(5)));

    let r = influx
        .query("lms", "SELECT value FROM ganglia_load_one WHERE hostname = 'old-node-1'")
        .unwrap();
    assert_eq!(r.series[0].values[0][1].as_f64(), Some(1.25));
    // Ganglia's report time became the point timestamp.
    assert_eq!(r.series[0].values[0][0].as_i64(), Some(1990 * 1_000_000_000));
    db.shutdown();
}

#[test]
fn router_in_front_of_existing_database_is_transparent() {
    // An agent written for InfluxDB talks to the router unchanged — the
    // router "mimics the HTTP interface of an InfluxDB database".
    let clock = Clock::simulated(Timestamp::from_secs(3000));
    let influx = Influx::new(clock.clone()).unwrap();
    let db = InfluxServer::start("127.0.0.1:0", influx.clone()).unwrap();
    let router = Arc::new(Router::new(db.addr(), Default::default(), clock.clone(), None).unwrap());
    let rs = RouterServer::start("127.0.0.1:0", router).unwrap();

    // The same InfluxClient used against the DB works against the router
    // for writes (and /ping).
    let mut through_router = InfluxClient::connect(rs.addr()).unwrap();
    through_router.ping().unwrap();
    through_router.write("lms", "m,hostname=h1 v=7 7").unwrap();
    rs.router().flush(Duration::from_secs(5));
    assert_eq!(influx.point_count("lms"), 1);
    rs.shutdown();
    db.shutdown();
}

#[test]
fn hpm_stack_standalone_likwid_perfctr_style() {
    // likwid-perfctr-like usage with no monitoring stack at all: measure a
    // phase of a "program" on selected threads and print derived metrics.
    use lms::hpm::groups::builtin;
    use lms::hpm::perfmon::Perfmon;
    use lms::hpm::simulate::{Simulator, WorkloadPreset};
    use lms::topology::{CpuSet, Topology};

    let topo = Topology::preset_dual_socket_10c();
    let mut sim = Simulator::new(&topo, 3);
    sim.set_jitter(0.0);
    let pin = CpuSet::parse("S0:0-9", &topo).unwrap();
    sim.assign(pin.iter(), WorkloadPreset::MemoryBound.model(&topo));

    let mut pm = Perfmon::new(topo.clone());
    pm.set_threads(pin.ids().to_vec()).unwrap();
    pm.add_group(builtin("MEM", &topo).unwrap()).unwrap();
    pm.start(&sim);
    sim.advance(Duration::from_secs(5));
    let m = pm.stop_and_read(&sim).unwrap();

    let bw = m.metric_aggregate("Memory bandwidth [MBytes/s]").unwrap();
    // 10 memory-bound cores saturate socket 0 (~42 GB/s ≈ 42000 MB/s).
    assert!(bw > 0.85 * 42_000.0, "bw = {bw}");
    assert!(bw < 1.05 * 42_000.0, "bw = {bw} exceeds the socket cap");
}
