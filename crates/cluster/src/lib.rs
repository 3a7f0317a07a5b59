//! # lms-cluster
//!
//! Series placement and result merging for the router's cluster mode.
//!
//! One embedded `lms-influx` node caps the whole stack and is a single
//! point of loss. Cluster mode spreads series across N database nodes with
//! R-way replication: the router hashes each line's **series key** (db +
//! measurement + canonical tag set) onto a seeded rendezvous ring
//! ([`HashRing`]) and fans the line to its R owners. Writes ack at a
//! configurable write quorum W; a down replica's share lands in that
//! replica's on-disk spool as a *hinted handoff*, and the replay the node
//! accepts brings it back. A SELECT scatters in its partial form: every node
//! answers each matching series' own aggregate state or raw rows, and the
//! router folds them with the executor's own fold, as one node holding
//! every point would ([`partial::PartialPlan`]). Listings are unioned
//! ([`merge::merge_results`]). A read degrades to a partial result instead
//! of failing when a replica is unreachable.
//!
//! The crate is deliberately mechanism-only — placement, quorum arithmetic
//! and merging. The delivery machinery (queues, spools, down flags,
//! drainers) lives in `lms-router`, which instantiates one forwarder per
//! cluster node.

pub mod merge;
pub mod partial;

/// Anti-entropy digest vocabulary — lives in `lms-util` (so storage nodes
/// can compute digests without a cluster dependency), re-exported here
/// because the repair protocol is cluster machinery.
pub use lms_util::digest;

pub use digest::{diff_digests, BucketDigest, RepairTask, DIGEST_BUCKET_NS};
pub use merge::merge_results;
pub use partial::{partial_plan, PartialPlan};
pub use lms_util::ring::HashRing;

use lms_util::{Error, Result};
use std::net::SocketAddr;

/// Cluster-mode configuration: the database nodes, the replication factor
/// and the write quorum.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The database nodes, in ring-slot order. Order matters: the seeded
    /// ring assigns per-node salts by index, so every router configured
    /// with the same node list and seed computes the same placement.
    pub nodes: Vec<SocketAddr>,
    /// Copies of every series (R). Clamped to the node count by
    /// [`validate`](Self::validate).
    pub replication: usize,
    /// Node-batches that must be *accepted* (queued or durably spooled)
    /// before a write is acknowledged (W). With W=1 (the default) a write
    /// acks as soon as one owner has it; durability for the rest comes
    /// from the per-node hinted-handoff spool.
    pub write_quorum: usize,
    /// Seed for the per-node ring salts. All routers of a deployment must
    /// share it.
    pub seed: u64,
}

impl ClusterConfig {
    /// A degenerate single-node cluster — the classic one-database stack.
    pub fn single(addr: SocketAddr) -> Self {
        ClusterConfig { nodes: vec![addr], replication: 1, write_quorum: 1, seed: 0 }
    }

    /// A cluster over `nodes` with replication `r` and the default write
    /// quorum of 1.
    pub fn new(nodes: Vec<SocketAddr>, replication: usize) -> Self {
        ClusterConfig { nodes, replication, write_quorum: 1, seed: 0 }
    }

    /// Validates the quorum arithmetic: at least one node, and
    /// `1 ≤ W ≤ R ≤ nodes.len()`.
    pub fn validate(&self) -> Result<()> {
        if self.nodes.is_empty() {
            return Err(Error::config("cluster: at least one node required"));
        }
        if self.replication == 0 || self.replication > self.nodes.len() {
            return Err(Error::config(format!(
                "cluster: replication {} out of range 1..={}",
                self.replication,
                self.nodes.len()
            )));
        }
        if self.write_quorum == 0 || self.write_quorum > self.replication {
            return Err(Error::config(format!(
                "cluster: write quorum {} out of range 1..={}",
                self.write_quorum, self.replication
            )));
        }
        Ok(())
    }

    /// The placement ring for this configuration.
    pub fn ring(&self) -> HashRing {
        HashRing::new(self.nodes.len(), self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    #[test]
    fn single_node_config_is_valid() {
        let c = ClusterConfig::single(addr(8086));
        c.validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_quorums() {
        let nodes = vec![addr(1), addr(2), addr(3)];
        assert!(ClusterConfig { nodes: vec![], ..ClusterConfig::new(vec![], 1) }
            .validate()
            .is_err());
        assert!(ClusterConfig::new(nodes.clone(), 0).validate().is_err());
        assert!(ClusterConfig::new(nodes.clone(), 4).validate().is_err());
        let mut c = ClusterConfig::new(nodes.clone(), 2);
        c.write_quorum = 0;
        assert!(c.validate().is_err());
        c.write_quorum = 3;
        assert!(c.validate().is_err());
        c.write_quorum = 2;
        c.validate().unwrap();
        c.write_quorum = 1;
        c.validate().unwrap();
    }
}
