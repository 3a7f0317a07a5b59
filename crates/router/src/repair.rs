//! Anti-entropy read-repair: the router-side half of the integrity
//! protocol.
//!
//! Storage nodes summarise their data as per-(hour bucket, owner set)
//! digests (`GET /integrity`, see `lms_cluster::digest`). A repair pass:
//!
//! 1. fetches every node's digests for a database — an unreachable node is
//!    excluded from the comparison entirely (its share is the write path's
//!    hinted-handoff problem), while a reachable node that does not know
//!    the database counts as holding nothing,
//! 2. diffs them with [`diff_digests`], which elects the most-complete
//!    replica of each divergent bucket as the single source,
//! 3. re-fetches each divergent hour from the source (`/integrity/export`)
//!    and pushes the lines back through the normal routed write path.
//!
//! Replaying through the write path — rather than poking the stale node
//! directly — keeps repair idempotent and failure-tolerant for free:
//! last-write-wins makes over-delivery to already-healthy owners harmless,
//! and a stale owner that went down mid-repair receives its share as
//! hinted handoff instead of failing the pass.

use crate::delivery::ClusterForwarder;
use lms_cluster::{diff_digests, BucketDigest};
use lms_lineproto::parse_batch;
use lms_util::Error;
use std::collections::BTreeSet;

/// Counters from one repair pass (summable across databases and passes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairOutcome {
    /// Distinct (bucket, owner set) digest groups compared.
    pub buckets_checked: u64,
    /// Groups whose replicas disagreed.
    pub divergent: u64,
    /// Divergent ranges successfully re-fetched and re-written.
    pub repaired_ranges: u64,
    /// Lines replayed through the write path.
    pub lines_rewritten: u64,
    /// Nodes whose digests could not be fetched this pass.
    pub nodes_unreachable: u64,
    /// Export or re-write failures; the range stays divergent and the next
    /// pass retries it.
    pub errors: u64,
}

impl RepairOutcome {
    /// Accumulates another outcome into this one.
    pub fn add(&mut self, other: RepairOutcome) {
        self.buckets_checked += other.buckets_checked;
        self.divergent += other.divergent;
        self.repaired_ranges += other.repaired_ranges;
        self.lines_rewritten += other.lines_rewritten;
        self.nodes_unreachable += other.nodes_unreachable;
        self.errors += other.errors;
    }
}

/// Runs one anti-entropy pass for `db` over the cluster. A no-op (all
/// zeros) below two nodes or two replicas — with R = 1 no series has a
/// second copy to compare against.
pub fn repair_database(delivery: &ClusterForwarder, db: &str) -> RepairOutcome {
    let mut out = RepairOutcome::default();
    if delivery.node_count() < 2 || delivery.replication() < 2 {
        return out;
    }
    let per_node: Vec<Option<Vec<BucketDigest>>> = (0..delivery.node_count())
        .map(|i| match delivery.integrity_node(i, db) {
            Ok(digests) => Some(digests),
            // 404 = the node holds no series of this database: a valid,
            // empty answer (and a zero-count divergence if its peers in
            // some owner set do hold data).
            Err(Error::Remote { status: 404, .. }) => Some(Vec::new()),
            Err(_) => {
                out.nodes_unreachable += 1;
                None
            }
        })
        .collect();
    let groups: BTreeSet<(i64, u64)> = per_node
        .iter()
        .flatten()
        .flatten()
        .map(|d| (d.bucket_start, d.owners))
        .collect();
    out.buckets_checked = groups.len() as u64;

    let tasks = diff_digests(&per_node);
    out.divergent = tasks.len() as u64;
    for task in tasks {
        let lines = match delivery.integrity_export_node(task.source, db, task.start_ns, task.end_ns)
        {
            Ok(lines) => lines,
            Err(_) => {
                out.errors += 1;
                continue;
            }
        };
        // The export covers every series of the hour, not only the
        // divergent owner set — replay is LWW-idempotent, so the extra
        // copies are a bandwidth cost, not a correctness one.
        let parsed = parse_batch(&lines);
        if parsed.lines.is_empty() {
            out.errors += 1;
            continue;
        }
        let mut batch = delivery.batch(db);
        for line in &parsed.lines {
            batch.push_raw(line);
        }
        out.lines_rewritten += parsed.lines.len() as u64;
        if batch.submit() {
            out.repaired_ranges += 1;
        } else {
            out.errors += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forward::ForwardConfig;
    use lms_cluster::ClusterConfig;
    use lms_influx::{Influx, InfluxServer};
    use lms_lineproto::parse_batch;
    use lms_spool::SpoolConfig;
    use lms_util::hash::fx_hash;
    use lms_util::ring::HashRing;
    use lms_util::scratch::ScratchDir;
    use lms_util::{Clock, Timestamp};
    use std::time::Duration;

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
            spool: SpoolConfig::new(spool.path()),
            ..ForwardConfig::new(servers[0].addr())
        };
        let cf = ClusterForwarder::start(&cfg, &template).unwrap();
        (servers, handles, cf)
    }

    #[test]
    fn converged_cluster_finds_nothing_to_repair() {
        let spool = ScratchDir::new("lms-repair").unwrap();
        let (servers, _handles, cf) = cluster_of(&spool, 3, 2);
        let mut batch = cf.batch("lms");
        let body: String =
            (0..20).map(|i| format!("m,hostname=h{i} v={i} {}\n", (i + 1) * 100)).collect();
        for line in &parse_batch(&body).lines {
            batch.push_raw(line);
        }
        assert!(batch.submit());
        assert!(cf.flush(Duration::from_secs(10)));
        let out = repair_database(&cf, "lms");
        assert_eq!(out.divergent, 0, "{out:?}");
        assert_eq!(out.repaired_ranges, 0);
        assert!(out.buckets_checked > 0);
        assert_eq!(out.nodes_unreachable, 0);
        for s in servers {
            s.shutdown();
        }
    }

    #[test]
    fn divergent_replica_is_healed_and_converges() {
        let spool = ScratchDir::new("lms-repair").unwrap();
        let (servers, handles, cf) = cluster_of(&spool, 3, 2);
        let mut batch = cf.batch("lms");
        let body: String =
            (0..20).map(|i| format!("m,hostname=h{i} v={i} {}\n", (i + 1) * 100)).collect();
        for line in &parse_batch(&body).lines {
            batch.push_raw(line);
        }
        assert!(batch.submit());
        assert!(cf.flush(Duration::from_secs(10)));

        // Inject divergence the way quarantine or a wiped data dir would:
        // one *owner* of a series holds a point its replica lacks. Write
        // it directly into the lowest-indexed owner, bypassing the router.
        let ring = HashRing::new(3, 7);
        let hash = fx_hash(&("lms", "m,hostname=extra"));
        let owners = ring.owners(hash, 2);
        let lucky = *owners.iter().min().unwrap();
        handles[lucky]
            .write_lines("lms", "m,hostname=extra v=99 5000", Default::default())
            .unwrap();

        let out = repair_database(&cf, "lms");
        assert_eq!(out.divergent, 1, "{out:?}");
        assert_eq!(out.repaired_ranges, 1, "{out:?}");
        assert!(out.lines_rewritten > 0);
        assert_eq!(out.errors, 0);
        assert!(cf.flush(Duration::from_secs(10)));

        // Both owners now hold the point; a second pass finds nothing.
        for &o in &owners {
            let r = handles[o]
                .query("lms", "SELECT v FROM m WHERE hostname = 'extra'")
                .unwrap();
            assert_eq!(r.series[0].values[0][1].as_f64(), Some(99.0), "owner {o}");
        }
        let out = repair_database(&cf, "lms");
        assert_eq!(out.divergent, 0, "second pass must converge: {out:?}");
        for s in servers {
            s.shutdown();
        }
    }

    #[test]
    fn unreachable_node_is_skipped_not_repaired() {
        let spool = ScratchDir::new("lms-repair").unwrap();
        let (mut servers, _handles, cf) = cluster_of(&spool, 3, 2);
        let mut batch = cf.batch("lms");
        for line in &parse_batch("m,hostname=h1 v=1 100\nm,hostname=h2 v=2 200").lines {
            batch.push_raw(line);
        }
        assert!(batch.submit());
        assert!(cf.flush(Duration::from_secs(10)));
        servers.pop().unwrap().shutdown();
        let out = repair_database(&cf, "lms");
        assert_eq!(out.nodes_unreachable, 1, "{out:?}");
        assert_eq!(out.errors, 0, "{out:?}");
        for s in servers {
            s.shutdown();
        }
    }

    #[test]
    fn single_replica_clusters_are_a_no_op() {
        let spool = ScratchDir::new("lms-repair").unwrap();
        let (servers, _handles, cf) = cluster_of(&spool, 2, 1);
        assert_eq!(repair_database(&cf, "lms"), RepairOutcome::default());
        for s in servers {
            s.shutdown();
        }
    }
}
