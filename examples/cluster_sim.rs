//! A fuller cluster simulation: queueing with backfill, the ZeroMQ-style
//! stream analyzer attached to the router's publisher, per-user database
//! views, and the Ganglia pull-proxy integration path.
//!
//! This exercises the loose-coupling claims of the paper's Sec. II/III:
//! legacy sources (gmond) integrate through a proxy, stream analyzers
//! attach over the message queue, and everything else is plain HTTP.
//!
//! ```text
//! cargo run --release --example cluster_sim
//! ```
//!
//! Set `LMS_DATA_DIR=/some/dir` to persist the database across runs: a
//! second invocation on the same directory starts from the first run's
//! history instead of an empty store.
//!
//! Set `LMS_CLUSTER_NODES=3` to run the database as a 3-node cluster:
//! the router places each series on `LMS_REPLICATION` (default 2) nodes
//! via its rendezvous hash ring and scatter-gathers queries across all of
//! them, deduplicating replicas on read.

use lms::analysis::rules::Rule;
use lms::analysis::stream::{StreamAnalyzer, StreamRule};
use lms::apps::AppProfile;
use lms::core::{LmsStack, StackConfig};
use lms::router::proxy::GangliaProxy;
use lms::sysmon::ganglia::GmondServer;
use std::time::Duration;

fn main() {
    let data_dir = std::env::var_os("LMS_DATA_DIR").map(std::path::PathBuf::from);
    let db_nodes: usize = std::env::var("LMS_CLUSTER_NODES")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1);
    let replication: usize = std::env::var("LMS_REPLICATION")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| 2.min(db_nodes));
    let config = StackConfig {
        nodes: 8,
        db_nodes,
        replication,
        per_user: true,
        publish: true,
        data_dir: data_dir.clone(),
        ..Default::default()
    };
    let mut stack = LmsStack::start(config).expect("stack boots");
    if db_nodes > 1 {
        println!("database cluster: {db_nodes} nodes, replication {replication}\n");
    }
    if data_dir.is_some() {
        let carried = stack.stats().db_points;
        if carried > 0 {
            println!("persistent store carried {carried} points from a previous run\n");
        }
    }

    // A stream analyzer subscribes to the router's live feed and watches
    // for hosts whose FP rate collapses (3 consecutive low samples).
    let analyzer = StreamAnalyzer::start(
        stack.publisher_addr().expect("publisher on"),
        vec![StreamRule {
            measurement: "hpm_flops_dp".into(),
            field: "dp_mflop_s".into(),
            rule: Rule::below("live low FP rate", 100.0, Duration::ZERO),
            samples: 3,
        }],
    )
    .expect("analyzer attaches");

    // A legacy Ganglia gmond somewhere on the network; the router's pull
    // proxy converts its XML dump into line protocol.
    let gmond = GmondServer::start("127.0.0.1:0", "legacy-partition").expect("gmond");
    gmond.update("fileserver1", stack.clock().now().secs(), "load_one", 0.42, "float", "");
    gmond.update("fileserver1", stack.clock().now().secs(), "mem_free", 12_345_678u64, "uint32", "KB");
    let proxy = GangliaProxy::new(gmond.addr()).expect("proxy");

    // Work: a stream of jobs of varying size/length; the 6-node job at the
    // head forces the scheduler to backfill the small ones around it.
    let jobs = [
        stack.submit_job("anna", "big-solver", 6, Duration::from_secs(40 * 60), AppProfile::Dgemm),
        stack.submit_job("bert", "wide", 8, Duration::from_secs(20 * 60), AppProfile::Stream),
        stack.submit_job("carl", "short-1", 2, Duration::from_secs(10 * 60), AppProfile::MiniMd),
        stack.submit_job("dora", "short-2", 2, Duration::from_secs(10 * 60), AppProfile::CheckpointHeavy),
        stack.submit_job("erik", "staller", 1, Duration::from_secs(30 * 60),
            AppProfile::ComputeWithBreak { busy: Duration::from_secs(300), gap: Duration::from_secs(900) }),
    ];

    println!("submitted {} jobs to an 8-node cluster\n", jobs.len());
    let mut proxied_points = 0;
    for minute in 0..75u64 {
        stack.tick(Duration::from_secs(60));
        // The pull proxy polls gmond every 5 minutes.
        if minute % 5 == 0 {
            proxied_points += proxy.pull_once(stack.router()).unwrap_or(0);
        }
        if minute % 15 == 0 {
            let running: Vec<String> =
                stack.scheduler().running().map(|j| format!("{}({})", j.id, j.spec.user)).collect();
            println!(
                "t+{minute:>3} min: {} free nodes, running: [{}], queued: {}",
                stack.scheduler().free_nodes(),
                running.join(", "),
                stack.scheduler().queued()
            );
        }
    }
    stack.flush();

    // Live alerts raised while the staller was in its gap.
    let alerts = analyzer.drain();
    println!("\nstream analyzer raised {} live alert(s):", alerts.len());
    for a in alerts.iter().take(5) {
        println!("  {} on {} ({} = {:.1})", a.rule, a.hostname, a.measurement, a.value);
    }
    assert!(!alerts.is_empty(), "the stalling job must trip the live rule");

    // Proxied legacy metrics are in the database — read through the
    // router's scatter-gather path, which merges every database node.
    let r = stack
        .router()
        .handle_query("lms", "SELECT value FROM ganglia_load_one")
        .expect("query");
    let n = r.series.first().map(|s| s.values.len()).unwrap_or(0);
    println!("\nganglia-proxied samples stored: {n} (pulled {proxied_points} points total)");
    assert!(n > 0);

    // Each user's view of lms is listed and read through the router (with
    // several nodes, scattered and folded like lms itself).
    let r = stack.router().handle_query("lms", "SHOW DATABASES").expect("query");
    let dbs: Vec<&str> = r.series[0].values.iter().filter_map(|v| v[0].as_str()).collect();
    println!("databases: {dbs:?}");
    assert!(dbs.contains(&"user_anna"));
    let count = |db, q: &str| {
        stack.router().handle_query(db, q).expect("query").series[0].values[0][1].as_i64()
    };
    let anna = count("user_anna", "SELECT count(busy) FROM cpu_total");
    println!("user_anna: {anna:?} cpu_total samples");
    assert_eq!(anna, count("lms", "SELECT count(busy) FROM cpu_total WHERE user = 'anna'"));

    // Final accounting.
    let stats = stack.stats();
    println!("\n--- final statistics ---");
    println!("jobs completed : {}", stack.scheduler().jobs().iter().filter(|j| j.state.is_completed()).count());
    println!("lines in       : {}", stats.router.lines_in);
    println!("lines enriched : {}", stats.router.lines_enriched);
    println!("db points      : {}", stats.db_points);
    println!("db series      : {}", stats.db_series);
    if data_dir.is_some() {
        let s = stack.influx().storage_stats();
        println!(
            "storage        : {} sealed blocks, {} segment files, {:.1}x compression",
            s.sealed_blocks,
            s.segment_files,
            s.compression_ratio()
        );
    }
}
