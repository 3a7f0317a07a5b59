//! [`LmsStack`]: the in-process deployment of the full monitoring stack.

use lms_analysis::evaluation::{JobEvaluation, NodePeaks};
use lms_apps::AppProfile;
use lms_dashboard::render::RenderOptions;
use lms_dashboard::server::SourceFactory;
use lms_dashboard::{
    AdminView, Dashboard, JobDirectory, JobInfo, TemplateStore, ViewerAgent, ViewerServer,
};
use lms_influx::QuerySource;
use parking_lot::RwLock;
use lms_hpm::collector::HpmCollector;
use lms_hpm::simulate::Simulator;
use lms_http::Sender;
use lms_influx::{
    Influx, InfluxClient, InfluxServer, RollupPolicy, StorageConfig, StorageWorker,
};
use lms_jobsched::{HttpSignaler, Job, JobId, JobSpec, JobState, Scheduler};
use lms_lineproto::BatchBuilder;
use lms_mq::Publisher;
use lms_router::{ClusterConfig, Router, RouterConfig, RouterServer, RouterStats};
use lms_spool::SpoolConfig;
use lms_sysmon::{HostAgent, SimProc};
use lms_topology::Topology;
use lms_util::scratch::ScratchDir;
use lms_util::{Clock, Error, FxHashMap, Result, Timestamp};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Configuration of a stack deployment. The `lms-stack` binary sets each
/// field from the flag of its name; [`LmsStack::start`] refuses what does
/// not fit together.
#[derive(Debug, Clone)]
pub struct StackConfig {
    /// Number of compute nodes to simulate (named `h1`, `h2`, …).
    pub nodes: usize,
    /// Number of database nodes. With more than one, the router places
    /// each series on `replication` nodes via a seeded rendezvous hash
    /// ring, acknowledges writes at `write_quorum`, and scatter-gathers
    /// queries across all nodes (see `lms-router::delivery`).
    pub db_nodes: usize,
    /// Copies of each series across the database nodes (`R`).
    pub replication: usize,
    /// Node-batches that must be queued or durably spooled before a
    /// write is acknowledged (`W`, `1 ≤ W ≤ R`).
    pub write_quorum: usize,
    /// Node hardware model.
    pub topology: Topology,
    /// HPM performance groups the node collectors rotate through.
    pub hpm_groups: Vec<String>,
    /// Serve each user's view of `lms` through the router as
    /// `user_<name>` (see [`lms_router::RouterConfig::per_user`]).
    pub per_user: bool,
    /// Publish metrics/signals on the message queue.
    pub publish: bool,
    /// Database retention window (None = keep everything; zero is
    /// refused).
    pub retention: Option<Duration>,
    /// Tiered retention: when set, the database nodes run the continuous
    /// downsampling pipeline (raw → 1m → 1h rollup siblings, each with its
    /// own retention) and the agents emit a second, pre-aggregated 60s
    /// stream alongside the 1s raw stream.
    pub rollup: Option<RollupPolicy>,
    /// Store the database under this directory (WAL + compressed segment
    /// files); a stack restarted on the same directory serves its
    /// pre-restart history. None = a scratch directory, removed on drop.
    pub data_dir: Option<PathBuf>,
    /// Virtual start time.
    pub start_time: Timestamp,
    /// Simulation seed.
    pub seed: u64,
    /// Graceful-drain budget on shutdown: how long to wait for the
    /// router's delivery pipeline (queue + spool) to empty into the
    /// database before the final storage flush.
    pub drain_timeout: Duration,
    /// Background CRC-scrub cadence on persistent database nodes
    /// (`Duration::ZERO` disables scrubbing).
    pub scrub_interval: Duration,
    /// Byte budget per scrub cycle (`0` disables scrubbing).
    pub scrub_rate_bytes: u64,
}

impl Default for StackConfig {
    fn default() -> Self {
        StackConfig {
            nodes: 4,
            db_nodes: 1,
            replication: 1,
            write_quorum: 1,
            topology: Topology::preset_dual_socket_10c(),
            hpm_groups: vec!["FLOPS_DP".into(), "MEM".into()],
            per_user: false,
            publish: false,
            retention: None,
            rollup: None,
            data_dir: None,
            // The paper's arXiv date makes a recognizable epoch in plots.
            start_time: Timestamp::from_secs(1_501_804_800),
            seed: 42,
            drain_timeout: Duration::from_secs(10),
            scrub_interval: Duration::from_secs(60),
            scrub_rate_bytes: 8 * 1024 * 1024,
        }
    }
}

/// Aggregate statistics of a running stack.
#[derive(Debug, Clone)]
pub struct StackStats {
    /// Router counters.
    pub router: RouterStats,
    /// Points stored in the global database.
    pub db_points: usize,
    /// Series in the global database.
    pub db_series: usize,
    /// Completed ticks.
    pub ticks: u64,
}

/// One simulated compute node.
struct NodeSim {
    hostname: String,
    sim: Simulator,
    proc_fs: SimProc,
    agent: HostAgent,
    hpm: HpmCollector,
    /// Ships HPM batches to the router.
    hpm_sender: Sender,
}

/// One database node: the embedded engine, its HTTP server, and its
/// background storage worker.
struct DbNode {
    influx: Influx,
    server: Option<InfluxServer>,
    storage_worker: Option<StorageWorker>,
}

/// The assembled monitoring stack.
pub struct LmsStack {
    config: StackConfig,
    clock: Clock,
    /// Database nodes; single-node stacks are a one-element vector.
    db: Vec<DbNode>,
    router: Arc<Router>,
    router_server: Option<RouterServer>,
    publisher_addr: Option<SocketAddr>,
    scheduler: Scheduler,
    nodes: Vec<NodeSim>,
    /// JobId → (profile, virtual start) for workload reconciliation.
    active: FxHashMap<JobId, (AppProfile, Timestamp)>,
    profiles: FxHashMap<JobId, AppProfile>,
    ticks: u64,
    /// Stack time of the last retention sweep.
    last_retention: Timestamp,
    /// Job snapshot shared with the webviewer (refreshed every tick).
    directory: Arc<SnapshotDirectory>,
    viewer_server: Option<ViewerServer>,
    /// The data directory without `data_dir`, removed after the nodes.
    _scratch: Option<ScratchDir>,
}

/// A [`JobDirectory`] backed by a per-tick snapshot of the scheduler.
#[derive(Default)]
struct SnapshotDirectory {
    jobs: RwLock<Vec<JobInfo>>,
}

impl JobDirectory for SnapshotDirectory {
    fn running_jobs(&self) -> Vec<JobInfo> {
        self.jobs.read().iter().filter(|j| j.end.is_none()).cloned().collect()
    }

    fn job(&self, jobid: &str) -> Option<JobInfo> {
        self.jobs.read().iter().find(|j| j.jobid == jobid).cloned()
    }
}

impl LmsStack {
    /// Starts every component and wires them together.
    pub fn start(config: StackConfig) -> Result<Self> {
        let clock = Clock::simulated(config.start_time);

        // R and W are checked by `ClusterConfig::validate` as the router
        // starts, and each HPM group as a collector adds it.
        for (field, n) in [("nodes", config.nodes), ("db_nodes", config.db_nodes)] {
            if n < 1 {
                return Err(Error::config(format!("{field} must be >= 1")));
            }
        }
        if config.retention == Some(Duration::ZERO) {
            return Err(Error::config("retention must be positive"));
        }

        // Database nodes (WAL + segment files, replaying any prior history)
        // under `data_dir`, or under a scratch directory without one.
        // Multi-node stacks split the directory into `node-<i>` subtrees so
        // a restart on the same directory rehydrates every node.
        let (root, scratch) = match &config.data_dir {
            Some(dir) => (dir.clone(), None),
            None => {
                let scratch = ScratchDir::new("lms-stack")?;
                (scratch.path().to_path_buf(), Some(scratch))
            }
        };
        let mut db = Vec::with_capacity(config.db_nodes);
        for i in 0..config.db_nodes {
            let dir =
                if config.db_nodes == 1 { root.clone() } else { root.join(format!("node-{i}")) };
            let mut storage = StorageConfig::new(dir);
            storage.scrub_interval = config.scrub_interval;
            storage.scrub_rate_bytes = config.scrub_rate_bytes;
            let influx = Influx::open(clock.clone(), 8, storage)?;
            // `CREATE DATABASE` answers the open's error, which fails `start`.
            influx.query("lms", "CREATE DATABASE lms")?;
            if let Some(retention) = config.retention {
                influx.set_retention("lms", Some(retention));
            }
            if let Some(policy) = &config.rollup {
                influx.enable_rollups(policy.clone())?;
            }
            let storage_worker = influx.spawn_storage_worker();
            let server = InfluxServer::start("127.0.0.1:0", influx.clone())?;
            db.push(DbNode { influx, server: Some(server), storage_worker });
        }
        let cluster = ClusterConfig {
            nodes: db.iter().map(|n| n.server.as_ref().expect("running").addr()).collect(),
            replication: config.replication,
            write_quorum: config.write_quorum,
            seed: config.seed,
        };

        // Optional MQ publisher for stream analyzers.
        let (publisher, publisher_addr) = if config.publish {
            let p = Publisher::bind("127.0.0.1:0")?;
            let addr = p.addr();
            (Some(p), Some(addr))
        } else {
            (None, None)
        };

        // Router, spooling under the same root so a restart on the same
        // `data_dir` replays its hints. The `.` keeps the directory out of
        // the databases a single node opens from the root.
        let router_config = RouterConfig {
            per_user: config.per_user,
            spool: Some(SpoolConfig::new(root.join("router.spool"))),
            ..Default::default()
        };
        let router =
            Arc::new(Router::new_cluster(cluster, router_config, clock.clone(), publisher)?);
        let router_server = RouterServer::start("127.0.0.1:0", router.clone())?;
        let router_addr = router_server.addr();

        // Scheduler with signal hook into the router.
        let hostnames: Vec<String> = (1..=config.nodes).map(|i| format!("h{i}")).collect();
        let mut scheduler = Scheduler::new(hostnames.clone(), clock.clone());
        scheduler.add_hook(Box::new(HttpSignaler::new(router_addr, clock.clone())?));

        // Compute nodes.
        let ncpu = config.topology.num_hw_threads();
        let mem_kb = 64 * 1024 * 1024; // 64 GiB nodes
        let mut nodes = Vec::with_capacity(config.nodes);
        for (i, hostname) in hostnames.iter().enumerate() {
            let sim = Simulator::new(&config.topology, config.seed.wrapping_add(i as u64));
            let proc_fs = SimProc::new(ncpu, mem_kb, config.seed.wrapping_add(1000 + i as u64));
            let mut agent =
                HostAgent::new(hostname.clone(), clock.clone()).with_standard_collectors();
            agent.send_to(router_addr, "lms")?;
            let mut hpm = HpmCollector::new(config.topology.clone(), hostname.clone(), clock.clone());
            for group in &config.hpm_groups {
                hpm.add_group(group).map_err(|e| Error::config(format!("hpm_groups: {e}")))?;
            }
            if config.rollup.is_some() {
                // Agent-side pre-aggregation: both collectors additionally
                // ship closed 60s windows to the router tagged for the 1m
                // tier (`/write?db=lms&tier=1m`).
                agent.enable_pre_aggregation();
                hpm.enable_pre_aggregation();
            }
            nodes.push(NodeSim {
                hostname: hostname.clone(),
                sim,
                proc_fs,
                agent,
                hpm,
                hpm_sender: Sender::http(router_addr, clock.clone())?,
            });
        }

        Ok(LmsStack {
            last_retention: clock.now(),
            config,
            clock,
            db,
            router,
            router_server: Some(router_server),
            publisher_addr,
            scheduler,
            nodes,
            active: FxHashMap::default(),
            profiles: FxHashMap::default(),
            ticks: 0,
            directory: Arc::new(SnapshotDirectory::default()),
            viewer_server: None,
            _scratch: scratch,
        })
    }

    /// Starts the Webviewer (Fig. 1's "Webviewer" box) serving dashboards
    /// for this stack over HTTP; returns its address. Idempotent.
    pub fn start_viewer_server(&mut self) -> Result<SocketAddr> {
        if let Some(vs) = &self.viewer_server {
            return Ok(vs.addr());
        }
        let agent = Arc::new(self.viewer());
        let router_addr = self.router_addr();
        let factory: SourceFactory = Arc::new(move || {
            Box::new(InfluxClient::connect(router_addr).expect("loopback address resolves"))
                as Box<dyn QuerySource + Send>
        });
        let server = ViewerServer::start(
            "127.0.0.1:0",
            agent,
            factory,
            self.directory.clone(),
            self.clock.clone(),
        )?;
        let addr = server.addr();
        self.viewer_server = Some(server);
        self.refresh_directory();
        Ok(addr)
    }

    /// Refreshes the webviewer's job snapshot from the scheduler.
    fn refresh_directory(&self) {
        let started = |j: &&Job| j.state.is_running() || j.state.is_completed();
        *self.directory.jobs.write() =
            self.scheduler.jobs().iter().filter(started).map(info).collect();
    }

    /// The virtual clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The embedded database handle (also reachable over HTTP at
    /// [`db_addr`](Self::db_addr)). In a multi-node stack this is node 0;
    /// see [`influx_node`](Self::influx_node) for the rest.
    pub fn influx(&self) -> &Influx {
        &self.db[0].influx
    }

    /// The embedded database handle of node `i` (panics out of range).
    pub fn influx_node(&self, i: usize) -> &Influx {
        &self.db[i].influx
    }

    /// Database server address (node 0).
    pub fn db_addr(&self) -> SocketAddr {
        self.db[0].server.as_ref().expect("running").addr()
    }

    /// Router server address (agents and `umetric` POST here).
    pub fn router_addr(&self) -> SocketAddr {
        self.router_server.as_ref().expect("running").addr()
    }

    /// MQ publisher address when `publish` is on.
    pub fn publisher_addr(&self) -> Option<SocketAddr> {
        self.publisher_addr
    }

    /// The router (admin views, stats).
    pub fn router(&self) -> &Arc<Router> {
        &self.router
    }

    /// One anti-entropy repair pass over the global database: diffs the
    /// database nodes' integrity digests and replays divergent hours from
    /// their healthiest replica (a no-op below two nodes or two replicas).
    /// In-process stacks call it explicitly; deployments run the router
    /// with `--repair-interval-secs`.
    pub fn run_repair_pass(&self) -> lms_router::RepairOutcome {
        self.router.run_repair_pass(&[lms_influx::GLOBAL_DB])
    }

    /// The node topology.
    pub fn topology(&self) -> &Topology {
        &self.config.topology
    }

    /// Submits a job running `profile` on `nodes` nodes.
    pub fn submit_job(
        &mut self,
        user: &str,
        name: &str,
        nodes: usize,
        walltime: Duration,
        profile: AppProfile,
    ) -> JobId {
        let spec = JobSpec::new(user, name, nodes, walltime);
        let id = self.scheduler.submit(spec);
        self.profiles.insert(id, profile);
        id
    }

    /// Advances the whole stack by `dt` of virtual time: simulators
    /// integrate, the scheduler allocates/completes (firing signals),
    /// agents collect and POST, the database ingests.
    pub fn tick(&mut self, dt: Duration) {
        self.clock.advance(dt);
        self.scheduler.tick();
        self.reconcile_workloads();
        self.refresh_directory();

        for node in &mut self.nodes {
            node.sim.advance(dt);
            node.proc_fs.advance(dt);
        }
        for node in &mut self.nodes {
            node.agent.tick(&node.proc_fs);
            if let Ok(points) = node.hpm.collect(&node.sim) {
                if !points.is_empty() {
                    let mut batch = BatchBuilder::with_capacity(512);
                    for p in &points {
                        batch.push(p);
                    }
                    node.hpm_sender.send("/write?db=lms", batch.as_str());
                }
            }
            let mut rollups = String::new();
            if node.hpm.write_rollups(&mut rollups) > 0 {
                node.hpm_sender.send("/write?db=lms&tier=1m", &rollups);
            }
        }
        self.ticks += 1;
        // Retention sweep once an hour of stack time has passed since the
        // last one (cheap: whole-file drops).
        let now = self.clock.now();
        if (self.config.retention.is_some() || self.config.rollup.is_some())
            && now.since(self.last_retention) >= Duration::from_secs(3600)
        {
            self.last_retention = now;
            for node in &self.db {
                node.influx.enforce_retention();
            }
        }
    }

    /// Runs the stack for `total` virtual time in `step` increments,
    /// flushing the router pipeline at the end.
    pub fn run_for(&mut self, total: Duration, step: Duration) {
        let mut remaining = total;
        while remaining > Duration::ZERO {
            let dt = step.min(remaining);
            self.tick(dt);
            remaining -= dt;
        }
        self.flush();
    }

    /// Waits for queued router→DB deliveries to drain.
    pub fn flush(&self) -> bool {
        self.router.flush(self.config.drain_timeout)
    }

    /// Graceful stack-wide drain: stop accepting (viewer + router
    /// servers down) → flush the forwarder queue and spool into the
    /// database → final storage flush (heads sealed, WAL checkpointed)
    /// → database server down. Returns true when the delivery pipeline
    /// fully emptied within the drain budget. Idempotent — `Drop` runs
    /// the same sequence for stacks that are simply dropped.
    fn drain(&mut self) -> bool {
        // Ship what the clients hold while the router is still accepting.
        for node in &mut self.nodes {
            node.agent.flush();
            node.hpm_sender.flush();
        }
        if let Some(s) = self.viewer_server.take() {
            s.shutdown();
        }
        if let Some(s) = self.router_server.take() {
            s.shutdown();
        }
        let drained = self.router.flush(self.config.drain_timeout);
        // Final flush (the worker's stop path seals outstanding heads)
        // before the database servers go away.
        for node in &mut self.db {
            if let Some(w) = node.storage_worker.take() {
                w.stop();
            }
            if let Some(s) = node.server.take() {
                s.shutdown();
            }
        }
        drained
    }

    /// Explicit graceful shutdown; returns true when every accepted
    /// batch reached the database within the drain budget.
    pub fn shutdown(mut self) -> bool {
        self.drain()
    }

    /// Applies job starts/ends to the node simulators.
    fn reconcile_workloads(&mut self) {
        let now = self.clock.now();
        let running: Vec<(JobId, JobInfo)> =
            self.scheduler.running().map(|j| (j.id, info(j))).collect();
        // Newly running jobs.
        for (id, job) in &running {
            if self.active.contains_key(id) {
                continue;
            }
            let profile = self.profiles.get(id).copied().unwrap_or(AppProfile::MiniMd);
            for node in self.nodes.iter_mut().filter(|n| job.hosts.contains(&n.hostname)) {
                let model = profile.hpm_model(node.sim.topology());
                // HPC jobs run one worker per physical core; SMT siblings
                // stay idle (assigning them too would double-count the
                // node's compute capability).
                node.sim.assign(node.sim.topology().primary_threads(), model);
            }
            self.active.insert(*id, (profile, job.start));
        }
        // Ended jobs.
        let is_running = |id: &JobId| running.iter().any(|(r, _)| r == id);
        let ended: Vec<JobId> = self.active.keys().copied().filter(|id| !is_running(id)).collect();
        for id in ended {
            self.active.remove(&id);
            let hosts = self.scheduler.job(id).map(|j| j.hosts().to_vec()).unwrap_or_default();
            for node in self.nodes.iter_mut().filter(|n| hosts.contains(&n.hostname)) {
                let threads: Vec<u32> = (0..node.sim.topology().num_hw_threads()).collect();
                node.sim.clear(threads);
                node.proc_fs.set_activity(lms_sysmon::NodeActivity::idle());
            }
        }
        // Phased sysmon activity for the jobs still running.
        let ncpu = self.config.topology.num_hw_threads();
        for (id, (profile, started)) in &self.active {
            let Some((_, job)) = running.iter().find(|(r, _)| r == id) else { continue };
            for node in self.nodes.iter_mut().filter(|n| job.hosts.contains(&n.hostname)) {
                node.proc_fs.set_activity(profile.activity(ncpu, now.since(*started)));
            }
        }
    }

    /// Job information in the viewer's shape.
    pub fn job_info(&self, id: JobId) -> Result<JobInfo> {
        self.scheduler.job(id).map(info).ok_or_else(|| Error::not_found(format!("job {id}")))
    }

    fn peaks(&self) -> NodePeaks {
        NodePeaks {
            flops_mflops: self.config.topology.peak_flops_dp() / 1e6,
            membw_mbytes: self.config.topology.peak_mem_bw() / 1e6,
        }
    }

    /// A client of the router's read API, where a dashboard reads: it
    /// sees the series of every database node, not only node 0's.
    fn reader(&self) -> Result<InfluxClient> {
        InfluxClient::connect(self.router_addr())
    }

    /// A viewer agent bound to this stack's database.
    pub fn viewer(&self) -> ViewerAgent {
        ViewerAgent::new("lms", TemplateStore::builtin(), self.peaks())
    }

    /// Generates a job's dashboard (template-driven, Sec. III-D).
    pub fn job_dashboard(&mut self, id: JobId) -> Result<Dashboard> {
        let info = self.job_info(id)?;
        let now = self.clock.now();
        let viewer = self.viewer();
        viewer.job_dashboard(&mut self.reader()?, &info, now)
    }

    /// Renders a job's dashboard to text (headless Grafana).
    pub fn render_job_dashboard(&mut self, id: JobId) -> Result<String> {
        let dashboard = self.job_dashboard(id)?;
        let viewer = self.viewer();
        viewer.render_dashboard(&mut self.reader()?, &dashboard, RenderOptions::default())
    }

    /// Runs the online evaluation of a job (the Fig. 2 header data).
    pub fn evaluate_job(&mut self, id: JobId) -> Result<JobEvaluation> {
        let info = self.job_info(id)?;
        let end = info.end.unwrap_or_else(|| self.clock.now());
        JobEvaluation::evaluate(
            &mut self.reader()?,
            "lms",
            &info.jobid,
            &info.hosts,
            info.start,
            end,
            self.peaks(),
        )
    }

    /// Builds the statistical usage report over all completed jobs — the
    /// paper's "statistical foundation about application specific system
    /// usage" for operations and procurement.
    pub fn usage_report(&mut self) -> Result<lms_analysis::UsageReport> {
        let completed: Vec<lms_analysis::CompletedJob> = self
            .scheduler
            .jobs()
            .iter()
            .filter_map(|job| match job.state {
                JobState::Completed { started, ended } => Some(lms_analysis::CompletedJob {
                    jobid: job.id.to_string(),
                    user: job.spec.user.clone(),
                    app: job.spec.name.clone(),
                    hosts: job.hosts().to_vec(),
                    start: started,
                    end: ended,
                }),
                _ => None,
            })
            .collect();
        lms_analysis::UsageReport::build(
            &mut self.reader()?,
            "lms",
            &completed,
            self.peaks(),
        )
    }

    /// The admin overview of currently running jobs.
    pub fn admin_view(&mut self) -> Result<AdminView> {
        let ids: Vec<JobId> = self.scheduler.running().map(|j| j.id).collect();
        let jobs: Vec<JobInfo> =
            ids.iter().map(|&id| self.job_info(id)).collect::<Result<_>>()?;
        let now = self.clock.now();
        let viewer = self.viewer();
        viewer.admin_view(&mut self.reader()?, &jobs, now)
    }

    /// Direct access to the scheduler (inspection in tests/examples).
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// Aggregate statistics. In a multi-node stack, `db_points` and
    /// `db_series` sum over every database node, so each replica copy
    /// counts once.
    pub fn stats(&self) -> StackStats {
        StackStats {
            router: self.router.stats(),
            db_points: self.db.iter().map(|n| n.influx.point_count("lms")).sum(),
            db_series: self.db.iter().map(|n| n.influx.series_count("lms")).sum(),
            ticks: self.ticks,
        }
    }
}

/// A job in the viewer's shape; a job not yet started starts at its
/// submission.
fn info(job: &Job) -> JobInfo {
    let (start, end) = match job.state {
        JobState::Running { started } => (started, None),
        JobState::Completed { started, ended } => (started, Some(ended)),
        _ => (job.submitted, None),
    };
    JobInfo {
        jobid: job.id.to_string(),
        user: job.spec.user.clone(),
        hosts: job.hosts().to_vec(),
        start,
        end,
    }
}

impl Drop for LmsStack {
    fn drop(&mut self) {
        self.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> StackConfig {
        StackConfig {
            nodes: 2,
            topology: Topology::preset_desktop_4c(),
            ..Default::default()
        }
    }

    #[test]
    fn stack_boots_and_ingests_system_metrics() {
        let mut stack = LmsStack::start(small_config()).unwrap();
        stack.run_for(Duration::from_secs(300), Duration::from_secs(60));
        let stats = stack.stats();
        assert!(stats.db_points > 50, "{stats:?}");
        assert_eq!(stats.ticks, 5);
        assert_eq!(stats.router.lines_rejected, 0);
        // System measurements present.
        let r = stack.influx().query("lms", "SHOW MEASUREMENTS").unwrap();
        let names: Vec<&str> =
            r.series[0].values.iter().map(|v| v[0].as_str().unwrap()).collect();
        for expected in ["cpu_total", "memory", "load", "hpm_flops_dp", "hpm_mem"] {
            assert!(names.contains(&expected), "{expected} missing from {names:?}");
        }
    }

    #[test]
    fn job_lifecycle_tags_metrics_and_emits_events() {
        let mut stack = LmsStack::start(small_config()).unwrap();
        let job = stack.submit_job(
            "alice",
            "md",
            2,
            Duration::from_secs(600),
            AppProfile::Dgemm,
        );
        stack.run_for(Duration::from_secs(900), Duration::from_secs(60));

        // Job completed after 600s.
        assert!(stack.scheduler().job(job).unwrap().state.is_completed());
        // Tagged metrics exist in the job window.
        let q = format!("SELECT count(busy) FROM cpu_total WHERE jobid = '{job}'");
        let r = stack.influx().query("lms", &q).unwrap();
        assert!(
            r.series[0].values[0][1].as_i64().unwrap() > 5,
            "tagged cpu samples missing"
        );
        // Start/end annotation events recorded.
        let q = format!("SELECT count(text) FROM events WHERE jobid = '{job}'");
        let r = stack.influx().query("lms", &q).unwrap();
        assert_eq!(r.series[0].values[0][1].as_i64().unwrap(), 4); // 2 hosts × start+end
    }

    #[test]
    fn hpm_counters_reflect_the_job_profile() {
        let mut stack = LmsStack::start(small_config()).unwrap();
        let job = stack.submit_job(
            "bob",
            "gemm",
            1,
            Duration::from_secs(1200),
            AppProfile::Dgemm,
        );
        stack.run_for(Duration::from_secs(600), Duration::from_secs(60));
        let info = stack.job_info(job).unwrap();
        let host = &info.hosts[0];
        let q = format!(
            "SELECT mean(dp_mflop_s) FROM hpm_flops_dp WHERE hostname = '{host}'"
        );
        let r = stack.influx().query("lms", &q).unwrap();
        let mflops = r.series[0].values[0][1].as_f64().unwrap();
        // Desktop preset peak = 3.5 GHz × 8 × 4 cores = 112 GFLOP/s;
        // compute-bound ≈ 70% ≈ 78 GFLOP/s = 78000 MFLOP/s.
        assert!(mflops > 40_000.0, "dgemm flop rate {mflops}");
    }

    #[test]
    fn dashboard_and_evaluation_generate() {
        let mut stack = LmsStack::start(small_config()).unwrap();
        let job =
            stack.submit_job("carol", "app", 2, Duration::from_secs(1200), AppProfile::MiniMd);
        stack.run_for(Duration::from_secs(600), Duration::from_secs(60));

        let ev = stack.evaluate_job(job).unwrap();
        assert_eq!(ev.nodes.len(), 2);
        assert!(ev.nodes[0].cpu_busy > 0.5, "{:?}", ev.nodes[0]);

        let dashboard = stack.job_dashboard(job).unwrap();
        assert!(dashboard.rows.len() >= 4, "{:?}", dashboard.rows.len());
        let text = stack.render_job_dashboard(job).unwrap();
        // One FLOP rate panel for the job, a legend line per host.
        assert_eq!(text.matches("== DP FLOP rate ==").count(), 1, "{text}");
        assert!(text.contains(" h1  (n=") && text.contains(" h2  (n="), "{text}");

        let admin = stack.admin_view().unwrap();
        assert_eq!(admin.jobs, 1);
        assert!(admin.text.contains("carol"));
    }

    #[test]
    fn per_user_duplication_through_the_stack() {
        let mut config = small_config();
        config.per_user = true;
        let mut stack = LmsStack::start(config).unwrap();
        stack.submit_job("dave", "x", 1, Duration::from_secs(600), AppProfile::Stream);
        stack.run_for(Duration::from_secs(300), Duration::from_secs(60));
        // dave's points are stored once, in lms; user_dave is their view.
        let names = stack.influx().database_names();
        assert!(names.iter().all(|d| !d.starts_with("user_")), "{names:?}");
        let count = |r: lms_influx::QueryResult| r.series[0].values[0][1].as_i64().unwrap();
        let q = "SELECT count(busy) FROM cpu_total";
        let viewed = count(stack.router().handle_query("user_dave", q).unwrap());
        let direct = stack.influx().query("lms", &format!("{q} WHERE user = 'dave'")).unwrap();
        assert!(viewed > 0);
        assert_eq!(viewed, count(direct));
    }

    #[test]
    fn usage_report_over_completed_jobs() {
        let mut stack = LmsStack::start(small_config()).unwrap();
        stack.submit_job("anna", "gemm", 1, Duration::from_secs(600), AppProfile::Dgemm);
        stack.submit_job("bert", "idler", 1, Duration::from_secs(600), AppProfile::IdleJob);
        stack.run_for(Duration::from_secs(900), Duration::from_secs(60));

        let report = stack.usage_report().unwrap();
        assert_eq!(report.by_user.len(), 2);
        // 2 jobs × 1 node × 10 min ≈ 0.33 node-hours.
        assert!((report.total_node_hours - 1.0 / 3.0).abs() < 0.02, "{}", report.total_node_hours);
        let anna = &report.by_user.iter().find(|(u, _)| u == "anna").unwrap().1;
        let bert = &report.by_user.iter().find(|(u, _)| u == "bert").unwrap().1;
        assert!(anna.mean_flops_frac > 0.3, "{}", anna.mean_flops_frac);
        assert_eq!(bert.dominant_pattern(), Some("Idle"));
        assert!(report.render().contains("by application"));
    }

    #[test]
    fn multi_node_db_cluster_replicates_and_merges_queries() {
        let mut config = small_config();
        config.db_nodes = 3;
        config.replication = 2;
        let mut stack = LmsStack::start(config).unwrap();
        stack.run_for(Duration::from_secs(300), Duration::from_secs(60));

        // The ring spreads series over every node, twice each.
        for i in 0..3 {
            assert!(stack.influx_node(i).point_count("lms") > 0, "node {i} owns no series");
        }
        let per_node: usize = (0..3).map(|i| stack.influx_node(i).point_count("lms")).sum();
        assert_eq!(per_node, stack.stats().db_points);

        // Scatter-gather through the router sees each raw sample exactly
        // once: replica copies deduplicate per series, and nothing is lost.
        // The deterministic simulation produces the identical sample set
        // on a single-node stack, which serves as the reference.
        let r = stack.router().handle_query("lms", "SELECT busy FROM cpu_total").unwrap();
        assert!(!r.partial);
        let clustered: usize = r.series.iter().map(|s| s.values.len()).sum();

        let mut reference = LmsStack::start(small_config()).unwrap();
        reference.run_for(Duration::from_secs(300), Duration::from_secs(60));
        let r = reference.router().handle_query("lms", "SELECT busy FROM cpu_total").unwrap();
        let single: usize = r.series.iter().map(|s| s.values.len()).sum();
        assert!(single > 0);
        assert_eq!(clustered, single, "cluster read path lost or duplicated samples");
        assert!(stack.shutdown(), "cluster drain completes");
    }

    #[test]
    fn a_multi_node_stack_evaluates_a_job_over_every_node() {
        // R = 1 over three nodes: each node holds only the series the ring
        // gives it, so a read of any one node misses hosts.
        let mut config = small_config();
        config.nodes = 4;
        config.db_nodes = 3;
        let mut stack = LmsStack::start(config).unwrap();
        let job = stack.submit_job("erin", "gemm", 4, Duration::from_secs(1200), AppProfile::Dgemm);
        stack.run_for(Duration::from_secs(600), Duration::from_secs(60));

        let ev = stack.evaluate_job(job).unwrap();
        let info = stack.job_info(job).unwrap();
        let reference = JobEvaluation::evaluate(
            &mut InfluxClient::connect(stack.router_addr()).unwrap(),
            "lms",
            &info.jobid,
            &info.hosts,
            info.start,
            stack.clock().now(),
            stack.peaks(),
        )
        .unwrap();
        assert_eq!(format!("{:?}", ev.nodes), format!("{:?}", reference.nodes));
        assert_eq!(ev.nodes.len(), 4);
        for node in &ev.nodes {
            assert!(node.cpu_busy > 0.0, "{node:?}");
        }
    }

    #[test]
    fn tiered_retention_rolls_up_through_the_stack() {
        let mut config = small_config();
        config.rollup = Some(RollupPolicy {
            retention_raw: Some(Duration::from_secs(7 * 24 * 3600)),
            retention_1m: Some(Duration::from_secs(90 * 24 * 3600)),
            retention_1h: None,
        });
        let mut stack = LmsStack::start(config).unwrap();
        stack.run_for(Duration::from_secs(900), Duration::from_secs(60));
        // Seal heads and run a rollup pass over everything ingested.
        stack.influx().flush_storage().unwrap();

        // The agents' pre-aggregated 60s stream and the database-side pass
        // both feed the 1m tier sibling.
        assert!(
            stack.influx().point_count("lms__rollup_1m") > 0,
            "1m tier empty: {:?}",
            stack.influx().database_names()
        );

        // Tier-served aggregates match the raw-decode answer exactly.
        let q = "SELECT mean(busy), count(busy) FROM cpu_total \
                 WHERE time >= 0 GROUP BY time(5m), hostname";
        stack.influx().set_query_tiers(Some(vec![]));
        let raw = stack.influx().query("lms", q).unwrap();
        stack.influx().set_query_tiers(None);
        let tiered = stack.influx().query("lms", q).unwrap();
        assert_eq!(format!("{raw:?}"), format!("{tiered:?}"), "tier answer diverges from raw");
    }

    #[test]
    fn per_user_slices_get_tier_siblings() {
        let mut config = small_config();
        config.per_user = true;
        config.rollup = Some(RollupPolicy {
            retention_raw: Some(Duration::from_secs(24 * 3600)),
            ..Default::default()
        });
        let mut stack = LmsStack::start(config).unwrap();
        stack.submit_job("dave", "x", 1, Duration::from_secs(900), AppProfile::Stream);
        stack.run_for(Duration::from_secs(600), Duration::from_secs(60));
        stack.influx().flush_storage().unwrap();
        // Tier rows carry the job tags, so the view reads lms's tiers under
        // its user predicate: tier-served windows equal the raw decode.
        let r = stack
            .influx()
            .query("lms__rollup_1m", "SHOW TAG VALUES FROM cpu_total WITH KEY = user")
            .unwrap();
        assert_eq!(r.series[0].values[0][1].as_str(), Some("dave"));
        let q = "SELECT mean(busy), count(busy) FROM cpu_total \
                 WHERE time >= 0 GROUP BY time(1m), hostname";
        stack.influx().set_query_tiers(Some(vec![]));
        let raw = stack.influx().query("user_dave", q).unwrap();
        stack.influx().set_query_tiers(None);
        let tiered = stack.influx().query("user_dave", q).unwrap();
        assert!(!tiered.series.is_empty());
        assert_eq!(tiered, raw);
        // No tier row shows as a measurement of the view.
        let r = stack.influx().query("user_dave", "SHOW MEASUREMENTS").unwrap();
        for row in &r.series[0].values {
            let m = row[0].as_str().unwrap();
            assert!(!m.starts_with("__rollup"), "tier row listed in the view: {m}");
        }
    }

    #[test]
    fn graceful_shutdown_drains_the_pipeline() {
        let mut stack = LmsStack::start(small_config()).unwrap();
        stack.run_for(Duration::from_secs(120), Duration::from_secs(60));
        assert!(stack.stats().db_points > 0);
        assert!(stack.shutdown(), "drain must complete within the budget");
    }

    #[test]
    fn viewer_server_serves_dashboards_over_http() {
        let mut stack = LmsStack::start(small_config()).unwrap();
        let addr = stack.start_viewer_server().unwrap();
        let job =
            stack.submit_job("eve", "web", 1, Duration::from_secs(1200), AppProfile::Dgemm);
        stack.run_for(Duration::from_secs(300), Duration::from_secs(60));

        let mut c = lms_http::HttpClient::connect(addr).unwrap();
        // /jobs lists the running job.
        let jobs = lms_util::Json::parse(&c.get("/jobs").unwrap().body_str()).unwrap();
        assert_eq!(jobs.idx(0).unwrap().get("user").unwrap().as_str(), Some("eve"));
        // /dashboard returns valid dashboard JSON for it.
        let r = c.get(&format!("/dashboard?job={job}")).unwrap();
        assert_eq!(r.status, 200);
        let d = lms_dashboard::Dashboard::from_json(
            &lms_util::Json::parse(&r.body_str()).unwrap(),
        )
        .unwrap();
        assert!(d.title.contains(&job.to_string()));
        // /render produces charts; /admin shows the job.
        assert!(c.get(&format!("/render?job={job}")).unwrap().body_str().contains('*'));
        assert!(c.get("/admin").unwrap().body_str().contains("eve"));
        // Idempotent start.
        assert_eq!(stack.start_viewer_server().unwrap(), addr);
    }

    #[test]
    fn stack_restart_with_data_dir_serves_history() {
        let dir =
            std::env::temp_dir().join(format!("lms-stack-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = small_config();
        config.data_dir = Some(dir.clone());

        let measured = {
            let mut stack = LmsStack::start(config.clone()).unwrap();
            stack.run_for(Duration::from_secs(300), Duration::from_secs(60));
            let r = stack.influx().query("lms", "SELECT count(busy) FROM cpu_total").unwrap();
            r.series[0].values[0][1].as_i64().unwrap()
            // Drop stops the storage worker, flushing heads to disk.
        };
        assert!(measured > 0);

        let stack = LmsStack::start(config).unwrap();
        let r = stack.influx().query("lms", "SELECT count(busy) FROM cpu_total").unwrap();
        assert_eq!(r.series[0].values[0][1].as_i64().unwrap(), measured);
        drop(stack);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_on_a_used_data_dir_lists_the_same_databases() {
        // The router spools under the data directory too, and a restarted
        // node must not take that directory for a database.
        let dir = ScratchDir::new("lms-stack-restart").unwrap();
        let mut config = small_config();
        config.data_dir = Some(dir.path().to_path_buf());
        let before = {
            let mut stack = LmsStack::start(config.clone()).unwrap();
            stack.run_for(Duration::from_secs(120), Duration::from_secs(60));
            stack.influx().database_names()
        };
        assert!(dir.path().join("router.spool").is_dir());
        let stack = LmsStack::start(config).unwrap();
        assert_eq!(stack.influx().database_names(), before);
    }

    #[test]
    fn retention_is_swept_once_an_hour_of_stack_time_has_passed() {
        // Hour-long ticks: each one passes an hour of stack time, so each
        // sweeps, and the third drops what the first wrote.
        let mut config = small_config();
        config.retention = Some(Duration::from_secs(3600));
        let mut stack = LmsStack::start(config).unwrap();
        for _ in 0..3 {
            stack.tick(Duration::from_secs(3600));
            assert!(stack.router().flush(Duration::from_secs(10)));
        }
        assert!(stack.influx().point_count("lms") > 0);
        assert_eq!(stack.influx().enforce_retention(), 0, "the tick has swept already");
    }

    #[test]
    fn retention_enforced_via_stack_clock() {
        let mut config = small_config();
        config.retention = Some(Duration::from_secs(120));
        let mut stack = LmsStack::start(config).unwrap();
        stack.run_for(Duration::from_secs(600), Duration::from_secs(60));
        let before = stack.influx().point_count("lms");
        let evicted = stack.influx().enforce_retention();
        assert!(evicted > 0);
        assert!(stack.influx().point_count("lms") < before);
    }
}
