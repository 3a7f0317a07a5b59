//! `lms-router` — the metrics router as a standalone daemon.
//!
//! ```text
//! lms-router --db <host:port> --spool-dir <path> [--listen 127.0.0.1:8087]
//!            [--per-user] [--publish 127.0.0.1:5556] [--coalesce-bytes N]
//!            [--max-connections N] [--max-body-bytes N]
//!            [--gmond <host:port> --gmond-interval <secs>]
//! lms-router --cluster-node <host:port> [--cluster-node <host:port> ...]
//!            --spool-dir <path> [--replication R] [--write-quorum W]
//!            [--repair-interval-secs N] [...]
//! ```
//!
//! Accepts InfluxDB-style writes on `--listen`, enriches them with job
//! tags from `/signal/start|end`, and forwards to the database at `--db`.
//! With `--per-user`, clients may read `user_<name>` databases: each is the
//! database nodes' view of `lms` restricted to that user's job data.
//! `--spool-dir` is required: batches the database cannot accept spill to
//! a durable on-disk spool under it and are replayed once it recovers, by
//! this process or, after a restart, by the next one. With `--publish`,
//! metrics and signals fan out on the message queue; with `--gmond`, a
//! pulling proxy polls a Ganglia gmond.
//!
//! **Cluster mode:** pass `--cluster-node` once per database node instead
//! of `--db`. Series are placed on `--replication R` nodes by a seeded
//! rendezvous hash ring; a write is acknowledged once `--write-quorum W`
//! node-batches are queued or durably spooled. A node that a write has
//! failed through every retry is down: its share spills to a per-node spool
//! as hinted handoff, and the replay of that spool brings it back. Queries scatter-gather across all
//! nodes and merge last-writer-wins, degrading to partial results. With
//! `--repair-interval-secs` (and R ≥ 2) the router periodically runs an
//! anti-entropy pass: it diffs the nodes' `/integrity` digests and replays
//! each divergent hour from its healthiest replica through the write path.

use lms_http::ServerConfig;
use lms_mq::Publisher;
use lms_router::proxy::GangliaProxy;
use lms_router::{ClusterConfig, Router, RouterConfig, RouterServer};
use lms_spool::SpoolConfig;
use lms_util::args::Args;
use lms_util::{outln, Clock, Error, Result};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
usage: lms-router --db host:port --spool-dir path [--listen addr] [--per-user]
                  [--coalesce-bytes N] [--publish addr]
                  [--max-connections N] [--max-body-bytes N]
                  [--gmond addr --gmond-interval secs]
       lms-router --cluster-node host:port [--cluster-node ...] --spool-dir path
                  [--replication R] [--write-quorum W] [--repair-interval-secs N] [...]
--per-user: serve user_<name>, the view of lms under user = '<name>'";

/// The first address `value` resolves to.
fn resolve(value: &str) -> Result<SocketAddr> {
    value.to_socket_addrs()?.next().ok_or_else(|| Error::config("resolved to nothing"))
}

fn run() -> Result<()> {
    let mut listen = "127.0.0.1:8087".to_string();
    let mut db: Option<SocketAddr> = None;
    let mut cluster_nodes: Vec<SocketAddr> = Vec::new();
    let mut replication: usize = 1;
    let mut write_quorum: usize = 1;
    let mut per_user = false;
    let mut publish: Option<SocketAddr> = None;
    let mut gmond: Option<SocketAddr> = None;
    let mut gmond_interval = Duration::from_secs(60);
    let mut spool_dir: Option<String> = None;
    let mut coalesce_bytes: Option<usize> = None;
    let mut repair_interval: Option<Duration> = None;
    let mut server_config = ServerConfig::default();
    let mut args = Args::from_env();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => listen = args.value()?,
            "--db" => db = Some(args.parse_with(resolve)?),
            "--cluster-node" => cluster_nodes.push(args.parse_with(resolve)?),
            "--replication" => replication = args.parse()?,
            "--write-quorum" => write_quorum = args.parse()?,
            "--per-user" => per_user = true,
            "--max-connections" => server_config.max_connections = args.parse()?,
            "--max-body-bytes" => server_config.max_body_bytes = args.parse()?,
            "--spool-dir" => spool_dir = Some(args.value()?),
            // Anti-entropy repair cadence; 0 (the default) disables it.
            "--repair-interval-secs" => {
                let s: u64 = args.parse()?;
                repair_interval = (s > 0).then(|| Duration::from_secs(s));
            }
            "--coalesce-bytes" => coalesce_bytes = Some(args.parse()?),
            "--publish" => publish = Some(args.parse_with(resolve)?),
            "--gmond" => gmond = Some(args.parse_with(resolve)?),
            "--gmond-interval" => gmond_interval = Duration::from_secs(args.parse::<u64>()?.max(1)),
            "--help" | "-h" => {
                outln!("{USAGE}");
                return Ok(());
            }
            _ => return Err(args.unknown()),
        }
    }
    let cluster = match (db, cluster_nodes.is_empty()) {
        (Some(_), false) => {
            return Err(Error::config("--db and --cluster-node are mutually exclusive"))
        }
        (Some(addr), true) => ClusterConfig::single(addr),
        (None, false) => {
            let mut c = ClusterConfig::new(cluster_nodes, replication);
            c.write_quorum = write_quorum;
            c
        }
        (None, true) => return Err(Error::config("--db or --cluster-node is required")),
    };
    // No scratch default: a killed router never runs the drop that would
    // remove it, and a restarted one would not find the hints in it.
    let spool_dir = spool_dir.ok_or_else(|| {
        Error::config(
            "--spool-dir PATH is required: what the database cannot take is spooled there",
        )
    })?;

    let publisher = match publish {
        Some(addr) => {
            let p = Publisher::bind(addr)?;
            outln!("publishing on {}", p.addr());
            Some(p)
        }
        None => None,
    };
    let mut config =
        RouterConfig { per_user, spool: Some(SpoolConfig::new(spool_dir)), ..Default::default() };
    if let Some(b) = coalesce_bytes {
        config.coalesce_bytes = b;
    }
    let describe = if cluster.nodes.len() == 1 {
        format!("db http://{}", cluster.nodes[0])
    } else {
        format!(
            "{} db nodes (R={}, W={})",
            cluster.nodes.len(),
            cluster.replication,
            cluster.write_quorum
        )
    };
    let router = Arc::new(Router::new_cluster(cluster, config, Clock::system(), publisher)?);
    let server = RouterServer::start_with(listen.as_str(), server_config, router.clone())?;
    outln!("lms-router listening on http://{} → {describe}", server.addr());

    let proxy = gmond.map(GangliaProxy::new).transpose()?;
    if let Some(addr) = gmond {
        outln!("pulling gmond at {addr} every {}s", gmond_interval.as_secs());
    }

    if let Some(interval) = repair_interval {
        outln!("anti-entropy repair every {}s", interval.as_secs());
    }
    let tick = repair_interval.map_or(gmond_interval, |r| r.min(gmond_interval));
    let mut last_repair = std::time::Instant::now();
    let mut last_pull = std::time::Instant::now();
    loop {
        std::thread::sleep(tick);
        if let Some(proxy) = &proxy {
            if last_pull.elapsed() >= gmond_interval {
                last_pull = std::time::Instant::now();
                match proxy.pull_once(&router) {
                    Ok(n) => outln!("gmond: pulled {n} points"),
                    Err(e) => eprintln!("gmond pull failed: {e}"),
                }
            }
        }
        if let Some(interval) = repair_interval {
            if last_repair.elapsed() >= interval {
                last_repair = std::time::Instant::now();
                let o = router.run_repair_pass(&[lms_influx::GLOBAL_DB]);
                if o.divergent > 0 || o.errors > 0 {
                    outln!(
                        "repair: {} divergent, {} repaired, {} lines, {} errors",
                        o.divergent, o.repaired_ranges, o.lines_rewritten, o.errors
                    );
                }
            }
        }
        let s = router.stats();
        outln!(
            "stats: in={} enriched={} rejected={} signals={} delivered={} dropped={} \
             spooled={} replayed={} pending={} down={}",
            s.lines_in,
            s.lines_enriched,
            s.lines_rejected,
            s.signals,
            s.forward.delivered,
            s.forward.dropped,
            s.forward.spooled,
            s.forward.replayed,
            s.forward.spool_pending,
            s.forward.down
        );
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("lms-router: {e}");
        std::process::exit(1);
    }
}
