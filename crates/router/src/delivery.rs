//! Cluster delivery: one [`Forwarder`] per database node behind a seeded
//! rendezvous ring.
//!
//! The single-database stack is the degenerate one-node cluster, so the
//! router always talks to a [`ClusterForwarder`] through a [`RoutedBatch`];
//! with one node every line goes to that node without its series key ever
//! being built or hashed. With N nodes, every line's **series key** (db +
//! measurement + canonical tags) places it on R owners; each owner gets its
//! own bounded queue, worker pool, down flag and — crucially — its own
//! on-disk spool subdirectory, which is what turns the forwarder's
//! durability machinery into **hinted handoff**: a down node's share
//! spills to *that node's* spool and its drainer replays it, in order,
//! until a replayed write succeeds and the node is up again.
//!
//! Writes acknowledge at a configurable quorum W of the R owners; an
//! "accepted" node-batch means queued for delivery or durably spooled.
//! Reads scatter to every node over the same kept connections the
//! forwarders deliver on ([`crate::clients`]) and are folded by the router
//! (see `lms-cluster`).

use crate::clients::NodeClients;
use crate::forward::{ForwardConfig, ForwardStats, Forwarder};
use lms_cluster::{ClusterConfig, HashRing};
use lms_lineproto::{BatchBuilder, ParsedLine, Point};
use lms_util::hash::fx_hash;
use lms_util::rng::XorShift64;
use lms_util::{Result, WorkerReport};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Per-destination statistics, for the `/stats` `destinations` array.
#[derive(Debug, Clone)]
pub struct DestinationStats {
    /// The node's address.
    pub addr: SocketAddr,
    /// Its forwarder's counters (down flag, spool depth, replay counters
    /// included).
    pub stats: ForwardStats,
}

struct Node {
    addr: SocketAddr,
    forwarder: Forwarder,
}

/// The router's delivery fabric: per-node forwarders plus the placement
/// ring.
pub struct ClusterForwarder {
    nodes: Vec<Node>,
    ring: HashRing,
    replication: usize,
    write_quorum: usize,
    seed: u64,
}

impl ClusterForwarder {
    /// Starts one forwarder per cluster node from the shared `template`
    /// config. The template's `db_addr` is ignored; with more than one
    /// node its spool directory becomes the parent of per-node `node-<i>`
    /// spool subdirectories, so each destination's hinted handoff is
    /// isolated and replays only to its own node; without one, each node
    /// spools in a scratch directory of its own. Fails when the cluster
    /// config is invalid or a spool directory is unusable.
    pub fn start(cluster: &ClusterConfig, template: &ForwardConfig) -> Result<Self> {
        cluster.validate()?;
        let multi = cluster.nodes.len() > 1;
        let mut nodes = Vec::with_capacity(cluster.nodes.len());
        for (i, &addr) in cluster.nodes.iter().enumerate() {
            let mut config = template.clone();
            config.db_addr = addr;
            if multi {
                // Decorrelate the per-node worker jitter streams.
                config.seed = XorShift64::new(template.seed ^ (0xA0DE << 16 | i as u64)).next_u64();
                if let Some(spool) = &mut config.spool {
                    spool.dir = spool.dir.join(format!("node-{i}"));
                }
            }
            nodes.push(Node { addr, forwarder: Forwarder::start(config)? });
        }
        Ok(ClusterForwarder {
            nodes,
            ring: cluster.ring(),
            replication: cluster.replication,
            write_quorum: cluster.write_quorum,
            seed: cluster.seed,
        })
    }

    /// Number of database nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The replication factor R.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// The ring seed (shared with the storage nodes for digest grouping).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Node addresses, in ring order.
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.nodes.iter().map(|n| n.addr).collect()
    }

    /// A fresh per-db batch accumulator routed over this cluster.
    pub fn batch(&self, db: &str) -> RoutedBatch<'_> {
        // A lone node owns every line; with more, `place` sets the owners
        // before each push.
        let mut owners = Vec::with_capacity(self.replication);
        owners.push(0);
        RoutedBatch {
            cluster: self,
            db: db.to_string(),
            builders: (0..self.nodes.len()).map(|_| BatchBuilder::new()).collect(),
            owners,
            key: String::new(),
        }
    }

    /// True when any destination's pipeline is saturated. Conservative:
    /// with an overloaded replica the whole write path sheds rather than
    /// silently dropping that replica's share.
    pub fn saturated(&self) -> bool {
        self.nodes.iter().any(|n| n.forwarder.saturated())
    }

    /// Readiness of every node's supervised workers.
    pub fn workers_ready(&self) -> bool {
        self.nodes.iter().all(|n| n.forwarder.workers_ready())
    }

    /// Health reports across all nodes' supervised threads.
    pub fn worker_reports(&self) -> Vec<WorkerReport> {
        self.nodes.iter().flat_map(|n| n.forwarder.worker_reports()).collect()
    }

    /// Fault injection: panic every node's spool drainer `n` times.
    pub fn inject_drainer_panics(&self, n: u64) {
        for node in &self.nodes {
            node.forwarder.inject_drainer_panics(n);
        }
    }

    /// Aggregate forwarder statistics: sums, and `down` when any
    /// destination is down, so the flat `/stats` fields keep their
    /// pre-cluster meaning.
    pub fn stats(&self) -> ForwardStats {
        let mut agg = ForwardStats::default();
        for node in &self.nodes {
            let s = node.forwarder.stats();
            agg.delivered += s.delivered;
            agg.rejected += s.rejected;
            agg.dropped += s.dropped;
            agg.spooled += s.spooled;
            agg.replayed += s.replayed;
            agg.retries += s.retries;
            agg.coalesced += s.coalesced;
            agg.spool_pending += s.spool_pending;
            agg.replay_in_flight += s.replay_in_flight;
            agg.downs += s.downs;
            agg.down |= s.down;
        }
        agg
    }

    /// Per-destination statistics, in ring order.
    pub fn destination_stats(&self) -> Vec<DestinationStats> {
        self.nodes
            .iter()
            .map(|n| DestinationStats { addr: n.addr, stats: n.forwarder.stats() })
            .collect()
    }

    /// True while node `i` is down: its share spills without being tried.
    pub fn is_down(&self, i: usize) -> bool {
        self.nodes[i].forwarder.is_down()
    }

    /// Node `i`'s kept connections — the one set its forwarder's workers,
    /// its spool drainer and every read of the node draw from.
    pub fn clients(&self, i: usize) -> &NodeClients {
        self.nodes[i].forwarder.clients()
    }

    /// One node's `/integrity` digests, computed against this cluster's
    /// ring geometry (node count, replication, seed) so every node groups
    /// series by the same owner sets the router places by.
    pub fn integrity_node(&self, i: usize, db: &str) -> Result<Vec<lms_cluster::BucketDigest>> {
        self.clients(i)
            .with(|client| client.integrity(db, self.nodes.len(), self.replication, self.seed))
    }

    /// One node's `/integrity/export` of `[start, end)` ns — canonical
    /// line protocol for replay through the write path.
    pub fn integrity_export_node(
        &self,
        i: usize,
        db: &str,
        start: i64,
        end: i64,
    ) -> Result<String> {
        self.clients(i).with(|client| client.integrity_export(db, start, end))
    }

    /// Flushes every node completely (queue + in-flight + replay + spool).
    /// All nodes share the one deadline.
    pub fn flush(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        self.nodes.iter().all(|n| {
            n.forwarder.flush(deadline.saturating_duration_since(Instant::now()))
        })
    }

    /// Graceful-drain flush: waits for queues, in-flight batches and any
    /// replay already started, but does not block on the spool of a down
    /// node — its hinted handoff is durable and replays after recovery or
    /// restart.
    pub fn flush_or_hinted(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        self.nodes.iter().all(|n| {
            n.forwarder.flush_or_hinted(deadline.saturating_duration_since(Instant::now()))
        })
    }
}

/// Per-db, per-node batch accumulator: lines are pushed once and copied
/// into the builder of each of their R owners; `submit` enqueues every
/// non-empty node-batch and reports whether the write quorum was met.
/// A lone node owns every line, so there no series key is built or hashed.
pub struct RoutedBatch<'a> {
    cluster: &'a ClusterForwarder,
    db: String,
    builders: Vec<BatchBuilder>,
    owners: Vec<usize>,
    key: String,
}

impl RoutedBatch<'_> {
    fn single(&self) -> bool {
        self.builders.len() == 1
    }

    /// Sets `self.owners` to the owners of the series `key`.
    fn place(&mut self, key: &str) {
        let hash = fx_hash(&(self.db.as_str(), key));
        self.cluster.ring.owners_into(hash, self.cluster.replication, &mut self.owners);
    }

    /// Routes a parsed line verbatim.
    pub fn push_raw(&mut self, line: &ParsedLine) {
        if !self.single() {
            let mut buf = std::mem::take(&mut self.key);
            self.place(line.series_key(&mut buf));
            self.key = buf;
        }
        self.push_line_to_owners(line.raw);
    }

    /// Routes `line`, whose canonical series key is `key` (enriched and
    /// re-stamped lines, spliced by the router).
    pub fn push_line(&mut self, line: &str, key: &str) {
        if !self.single() {
            self.place(key);
        }
        self.push_line_to_owners(line);
    }

    fn push_line_to_owners(&mut self, line: &str) {
        for &i in &self.owners {
            self.builders[i].push_raw(line);
        }
    }

    /// Routes a materialized point (signal events).
    pub fn push_point(&mut self, point: &Point) {
        if !self.single() {
            self.place(&point.series_key());
        }
        for &i in &self.owners {
            self.builders[i].push(point);
        }
    }

    /// True when nothing has been routed.
    pub fn is_empty(&self) -> bool {
        self.builders.iter().all(BatchBuilder::is_empty)
    }

    /// Enqueues every non-empty node-batch. Returns true when the write
    /// quorum held: at most `R − W` involved node-batches failed to be
    /// accepted (neither queued nor durably spooled).
    ///
    /// Quorum accounting is at node-batch granularity — a failed
    /// node-batch may hold any subset of the request's lines, so the
    /// conservative rule is: the *request* acks only if the number of
    /// failed node-batches could not have pushed any single line below W
    /// surviving copies.
    pub fn submit(mut self) -> bool {
        let tolerated = self.cluster.replication - self.cluster.write_quorum;
        let mut failed = 0usize;
        for (i, builder) in self.builders.iter_mut().enumerate() {
            if builder.is_empty() {
                continue;
            }
            if !self.cluster.nodes[i].forwarder.enqueue(&self.db, builder.take()) {
                failed += 1;
            }
        }
        failed <= tolerated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_influx::{Influx, InfluxServer};
    use lms_lineproto::parse_batch;
    use lms_spool::SpoolConfig;
    use lms_util::scratch::ScratchDir;
    use lms_util::{Clock, Timestamp};

    impl ClusterForwarder {
        /// Node `i`'s forwarder.
        pub(crate) fn forwarder(&self, i: usize) -> &Forwarder {
            &self.nodes[i].forwarder
        }
    }

    /// An n-node cluster spooling under `spool`, which outlives it.
    fn cluster_of(
        spool: &ScratchDir,
        n: usize,
        replication: usize,
    ) -> (Vec<InfluxServer>, Vec<Influx>, ClusterForwarder) {
        let mut servers = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..n {
            let ix = Influx::new(Clock::simulated(Timestamp::from_secs(1000))).unwrap();
            servers.push(InfluxServer::start("127.0.0.1:0", ix.clone()).unwrap());
            handles.push(ix);
        }
        let cfg = ClusterConfig {
            nodes: servers.iter().map(|s| s.addr()).collect(),
            replication,
            write_quorum: 1,
            seed: 7,
        };
        let template = ForwardConfig {
            io_timeout: Duration::from_secs(2),
            spool: Some(SpoolConfig::new(spool.path())),
            ..ForwardConfig::new(servers[0].addr())
        };
        let cf = ClusterForwarder::start(&cfg, &template).unwrap();
        (servers, handles, cf)
    }

    #[test]
    fn replicated_lines_land_on_r_nodes() {
        let spool = ScratchDir::new("lms-delivery").unwrap();
        let (servers, handles, cf) = cluster_of(&spool, 3, 2);
        let mut batch = cf.batch("lms");
        let body: String =
            (0..50).map(|i| format!("m,hostname=h{i} v={i} {}\n", (i + 1) * 100)).collect();
        let parsed = parse_batch(&body);
        for line in &parsed.lines {
            batch.push_raw(line);
        }
        assert!(batch.submit());
        assert!(cf.flush(Duration::from_secs(10)));
        let total: usize = handles.iter().map(|h| h.point_count("lms")).sum();
        assert_eq!(total, 100, "every line stored on exactly R=2 nodes");
        for (i, h) in handles.iter().enumerate() {
            assert!(h.point_count("lms") > 0, "node {i} owns no series of 50");
        }
        for s in servers {
            s.shutdown();
        }
    }

    #[test]
    fn quorum_fails_only_when_too_many_node_batches_drop() {
        // Dead nodes and a tiny queue: the overflow spills, and the disk
        // under every node's spool is full, so the spill fails and the
        // node-batch is dropped.
        let dead = || std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let addrs: Vec<_> = (0..3).map(|_| dead()).collect();
        let spool = ScratchDir::new("lms-delivery").unwrap();
        let cfg = ClusterConfig { nodes: addrs.clone(), replication: 2, write_quorum: 2, seed: 7 };
        let template = ForwardConfig {
            queue_capacity: 1,
            max_retries: 10,
            workers: 1,
            io_timeout: Duration::from_millis(200),
            spool: Some(SpoolConfig::new(spool.path())),
            ..ForwardConfig::new(addrs[0])
        };
        let cf = ClusterForwarder::start(&cfg, &template).unwrap();
        // `/dev/full` (every write fails ENOSPC) at each spool's next few
        // segment paths: a failed first write deletes its file and moves
        // on to the next one.
        for i in 0..addrs.len() {
            for seq in 0..4u64 {
                let path = spool.path().join(format!("node-{i}/{seq:016x}.seg"));
                std::os::unix::fs::symlink("/dev/full", path).unwrap();
            }
        }
        // Saturate the queues; with W=R=2 a single dropped node-batch must
        // fail the request.
        let mut saw_nack = false;
        for round in 0..200 {
            let mut batch = cf.batch("lms");
            let body: String =
                (0..20).map(|i| format!("m,hostname=h{i} v={i} {}\n", round * 20 + i + 1)).collect();
            for line in &parse_batch(&body).lines {
                batch.push_raw(line);
            }
            if !batch.submit() {
                saw_nack = true;
                break;
            }
        }
        assert!(saw_nack, "over-capacity writes with W=R must eventually nack");
        assert!(cf.stats().dropped > 0, "{:?}", cf.stats());
    }

    #[test]
    fn a_fabric_without_a_spool_removes_its_scratch_spools_when_it_drops() {
        let dead = || std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let addrs: Vec<_> = (0..3).map(|_| dead()).collect();
        let cfg = ClusterConfig { nodes: addrs.clone(), replication: 2, write_quorum: 1, seed: 7 };
        let cf = ClusterForwarder::start(&cfg, &ForwardConfig::new(addrs[0])).unwrap();
        let dirs: Vec<_> =
            (0..3).map(|i| cf.forwarder(i).scratch_dir().unwrap().to_path_buf()).collect();
        assert!(dirs.iter().all(|d| d.is_dir()), "{dirs:?}");
        drop(cf);
        assert!(dirs.iter().all(|d| !d.exists()), "{dirs:?}");
    }

    #[test]
    fn single_node_batch_emits_the_bytes_of_a_plain_builder() {
        let spool = ScratchDir::new("lms-delivery").unwrap();
        let (servers, handles, cf) = cluster_of(&spool, 1, 1);
        let body = "m,b=2,a=1 v=1 1\nm v=2 2\n";
        let mut point = Point::new("ev");
        point.add_tag("z", "9").add_tag("a", "1").add_field("text", "hi").set_timestamp(3);
        let mut routed = cf.batch("lms");
        let mut plain = BatchBuilder::new();
        for line in &parse_batch(body).lines {
            routed.push_raw(line);
            plain.push_raw(line.raw);
        }
        routed.push_point(&point);
        plain.push(&point);
        assert_eq!(routed.builders[0].as_str(), plain.as_str());
        assert!(routed.key.is_empty(), "one node: no series key is built");
        assert!(routed.submit());
        assert!(cf.flush(Duration::from_secs(5)));
        assert_eq!(handles[0].point_count("lms"), 3);
        assert_eq!(cf.stats().delivered, 1);
        assert_eq!(cf.destination_stats().len(), 1);
        for s in servers {
            s.shutdown();
        }
    }
}
