//! The deployable stack, assembled from the crates' public APIs exactly as
//! `LmsStack::start` wires it (`crates/core/src/stack.rs`), but on the
//! system clock and with the viewer reading **through the router** — the
//! remote path `crates/dashboard/src/server.rs` documents, and the only one
//! that is correct on a cluster. No product knob is changed from its
//! default; [`flush_policy`] records the defaults in every result.

use lms_analysis::evaluation::NodePeaks;
use lms_analysis::stream::{StreamAnalyzer, StreamRule};
use lms_analysis::Rule;
use lms_dashboard::server::SourceFactory;
use lms_dashboard::{JobDirectory, JobInfo, TemplateStore, ViewerAgent, ViewerServer};
use lms_influx::{
    Influx, InfluxClient, InfluxServer, QuerySource, RollupPolicy, StorageConfig, StorageWorker,
};
use lms_mq::Publisher;
use lms_router::{ClusterConfig, Router, RouterConfig, RouterServer};
use lms_topology::Topology;
use lms_util::{Clock, Result};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// Lock stripes per database, as in `LmsStack::start`.
pub const SHARDS: usize = 8;
/// The global database.
pub const DB: &str = "lms";
/// Ring seed of the cluster workloads (fixed: placement is part of the
/// workload, not of the run seed).
pub const RING_SEED: u64 = 42;

/// Which parts of the deployment a workload turns on.
#[derive(Debug, Clone, Copy)]
pub struct Deployment {
    /// Database nodes behind the router.
    pub db_nodes: usize,
    /// Copies of each series (R); write quorum stays at its default W=1.
    pub replication: usize,
    /// Duplicate tagged metrics into per-user databases.
    pub per_user: bool,
    /// Publish on the message queue, with one `StreamAnalyzer` subscribed.
    pub publish: bool,
    /// Run the raw/1m/1h downsampling pipeline.
    pub rollups: bool,
}

/// The tiered-retention policy of the rollup workloads: long enough that
/// nothing in a run expires.
pub fn rollup_policy() -> RollupPolicy {
    const DAY: u64 = 24 * 3600;
    RollupPolicy {
        retention_raw: Some(Duration::from_secs(30 * DAY)),
        retention_1m: Some(Duration::from_secs(90 * DAY)),
        retention_1h: None,
    }
}

/// One database node.
pub struct DbNode {
    /// The embedded engine (stats, replay, drain checks).
    pub influx: Influx,
    server: Option<InfluxServer>,
    worker: Option<StorageWorker>,
    /// Its HTTP address.
    pub addr: SocketAddr,
}

/// The viewer's job snapshot (what the scheduler feeds it in a deployment).
#[derive(Default)]
pub struct Directory {
    jobs: RwLock<Vec<JobInfo>>,
}

impl Directory {
    /// Replaces the snapshot.
    pub fn set(&self, jobs: Vec<JobInfo>) {
        *self.jobs.write().expect("directory lock") = jobs;
    }
}

impl JobDirectory for Directory {
    fn running_jobs(&self) -> Vec<JobInfo> {
        self.jobs
            .read()
            .expect("directory lock")
            .iter()
            .filter(|j| j.end.is_none())
            .cloned()
            .collect()
    }

    fn job(&self, jobid: &str) -> Option<JobInfo> {
        self.jobs
            .read()
            .expect("directory lock")
            .iter()
            .find(|j| j.jobid == jobid)
            .cloned()
    }
}

/// The running stack.
pub struct Stack {
    /// Database nodes in ring order.
    pub nodes: Vec<DbNode>,
    /// The router (stats, drain).
    pub router: Arc<Router>,
    router_server: Option<RouterServer>,
    viewer_server: Option<ViewerServer>,
    analyzer: Option<StreamAnalyzer>,
    /// Job snapshot served by the viewer.
    pub directory: Arc<Directory>,
    /// Router address: agents write here, dashboards read here.
    pub router_addr: SocketAddr,
    /// Viewer address.
    pub viewer_addr: SocketAddr,
    /// What was deployed.
    pub deployment: Deployment,
}

/// Node peaks of the simulated hardware, as the stack derives them.
pub fn peaks(topo: &Topology) -> NodePeaks {
    NodePeaks {
        flops_mflops: topo.peak_flops_dp() / 1e6,
        membw_mbytes: topo.peak_mem_bw() / 1e6,
    }
}

/// A viewer agent with the built-in templates.
pub fn viewer_agent(topo: &Topology) -> ViewerAgent {
    ViewerAgent::new(DB, TemplateStore::builtin(), peaks(topo))
}

/// Opens one persistent database node under `dir` with default storage
/// settings (used for the live nodes and for the replay copy).
pub fn open_node(clock: &Clock, dir: &Path, rollups: bool) -> Result<Influx> {
    let influx = Influx::open(clock.clone(), SHARDS, StorageConfig::new(dir))?;
    influx.create_database(DB);
    if rollups {
        influx.enable_rollups(rollup_policy())?;
    }
    Ok(influx)
}

impl Stack {
    /// Starts every component on 127.0.0.1 ephemeral ports, storing under
    /// `data_root/node-<i>`.
    pub fn start(deployment: Deployment, topo: &Topology, data_root: &Path) -> Result<Stack> {
        let clock = Clock::system();
        let mut nodes = Vec::with_capacity(deployment.db_nodes);
        for i in 0..deployment.db_nodes {
            let dir = data_root.join(format!("node-{i}"));
            let influx = open_node(&clock, &dir, deployment.rollups)?;
            let worker = influx.spawn_storage_worker();
            let server = InfluxServer::start("127.0.0.1:0", influx.clone())?;
            let addr = server.addr();
            nodes.push(DbNode {
                influx,
                server: Some(server),
                worker,
                addr,
            });
        }
        let cluster = ClusterConfig {
            nodes: nodes.iter().map(|n| n.addr).collect(),
            replication: deployment.replication,
            write_quorum: 1,
            seed: RING_SEED,
        };
        let publisher = match deployment.publish {
            true => Some(Publisher::bind("127.0.0.1:0")?),
            false => None,
        };
        let publisher_addr = publisher.as_ref().map(Publisher::addr);
        let router_config = RouterConfig {
            per_user: deployment.per_user,
            ..Default::default()
        };
        let router = Arc::new(Router::new_cluster(
            cluster,
            router_config,
            clock.clone(),
            publisher,
        )?);
        let router_server = RouterServer::start("127.0.0.1:0", router.clone())?;
        let router_addr = router_server.addr();

        // One stream analyzer on the queue, watching the application's
        // reference metric (the threshold never fires: the subscriber's
        // parse-and-check cost is what the workload wants).
        let analyzer = match publisher_addr {
            Some(addr) => Some(StreamAnalyzer::start(
                addr,
                vec![StreamRule {
                    measurement: crate::gen::APP_METRICS[0].into(),
                    field: "value".into(),
                    rule: Rule::below("pressure collapse", -1.0, Duration::ZERO),
                    samples: 3,
                }],
            )?),
            None => None,
        };

        let directory = Arc::new(Directory::default());
        let factory: SourceFactory = Arc::new(move || {
            Box::new(InfluxClient::connect(router_addr).expect("loopback address resolves"))
                as Box<dyn QuerySource + Send>
        });
        let viewer_server = ViewerServer::start(
            "127.0.0.1:0",
            Arc::new(viewer_agent(topo)),
            factory,
            directory.clone(),
            clock,
        )?;
        let viewer_addr = viewer_server.addr();
        Ok(Stack {
            nodes,
            router,
            router_server: Some(router_server),
            viewer_server: Some(viewer_server),
            analyzer,
            directory,
            router_addr,
            viewer_addr,
            deployment,
        })
    }

    /// Connections the HTTP servers refused at their admission limit.
    pub fn shed_connections(&self) -> u64 {
        self.router_server
            .as_ref()
            .map_or(0, RouterServer::shed_connections)
            + self
                .nodes
                .iter()
                .filter_map(|n| n.server.as_ref())
                .map(InfluxServer::shed_connections)
                .sum::<u64>()
    }

    /// Stops everything in the stack's own shutdown order (viewer, router,
    /// delivery drain, storage workers with their final flush, nodes).
    pub fn shutdown(mut self) {
        if let Some(s) = self.viewer_server.take() {
            s.shutdown();
        }
        if let Some(s) = self.router_server.take() {
            s.shutdown();
        }
        self.router.flush(Duration::from_secs(10));
        drop(self.analyzer.take());
        for node in &mut self.nodes {
            if let Some(w) = node.worker.take() {
                w.stop();
            }
            if let Some(s) = node.server.take() {
                s.shutdown();
            }
        }
    }
}

/// The flush-policy string recorded in every result: the product defaults
/// the run was made with, read from the config structs themselves.
pub fn flush_policy(deployment: &Deployment) -> String {
    let s = StorageConfig::new("unused");
    let t = lms_tsm::TsmConfig::new("unused");
    let r = RouterConfig::default();
    let retention = match deployment.rollups {
        true => {
            let p = rollup_policy();
            format!(
                "rollup raw={:?}/1m={:?}/1h={:?}",
                p.retention_raw.map(|d| d.as_secs() / 86_400),
                p.retention_1m.map(|d| d.as_secs() / 86_400),
                p.retention_1h.map(|d| d.as_secs() / 86_400)
            )
        }
        false => "retention none, rollups off".to_string(),
    };
    format!(
        "wal_fsync={} flush_points={} flush_interval_s={} group_commit_ms={} group_commit_bytes={} \
         compact_min_files={} partition_s={} block_span_s={} wal_segment_bytes={} scrub_interval_s={} \
         scrub_rate_bytes={} shards={} queue_capacity={} coalesce_bytes={} forward_workers={} \
         max_retries={} spool={} nodes={} R={} W=1 per_user={} publish={} {}",
        s.wal_fsync,
        s.flush_points,
        s.flush_interval.as_secs(),
        s.wal_group_commit.as_millis(),
        s.wal_group_commit_bytes,
        s.compact_min_files,
        s.partition.as_secs(),
        t.block_span_ns / 1_000_000_000,
        s.wal_segment_bytes,
        s.scrub_interval.as_secs(),
        s.scrub_rate_bytes,
        SHARDS,
        r.queue_capacity,
        r.coalesce_bytes,
        r.forward_workers,
        r.max_retries,
        r.spool.is_some(),
        deployment.db_nodes,
        deployment.replication,
        deployment.per_user,
        deployment.publish,
        retention,
    )
}
