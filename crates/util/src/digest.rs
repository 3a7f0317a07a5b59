//! Merkle-style range digests for anti-entropy repair.
//!
//! Every storage node can summarise a database as a list of
//! [`BucketDigest`]s: for each (hour bucket, owner set) pair, the number of
//! points it holds plus an order-independent XOR of per-point hashes. Two
//! replicas that hold the same data produce bit-identical digests, so the
//! router can detect divergence — a quarantined segment, a wiped data dir,
//! a hinted-handoff gap — by exchanging a few hundred bytes instead of the
//! data itself.
//!
//! Grouping by **owner set** (a bitmask of ring indices, computed from the
//! same seeded rendezvous ring the router uses for placement) is what makes
//! the comparison sound: node 0 and node 1 legitimately disagree about
//! series owned by `{0, 2}`, but must agree exactly about series owned by
//! `{0, 1}`. The diff therefore only compares digests between nodes that
//! are both members of the digest's owner set.
//!
//! Conflict resolution is **single-source**: for a divergent group the node
//! with the most points wins (ties broken by lowest ring index), and its
//! copy of the bucket is replayed through the normal replicated write path.
//! Cross-merging both sides would never converge — each node assigns fresh
//! local seal generations, so under last-write-wins both nodes would keep
//! preferring the foreign copy forever.

use crate::hash::fx_hash;
use crate::ring::HashRing;
use crate::{Error, Json, Result};
use std::collections::BTreeMap;

/// Width of a digest bucket: one hour of nanoseconds. Coarse enough that a
/// day of data is a couple dozen digests, fine enough that a repair
/// re-transfers at most an hour of points per divergence.
pub const DIGEST_BUCKET_NS: i64 = 3_600_000_000_000;

/// Start of the digest bucket containing `ts`.
pub fn bucket_of(ts: i64) -> i64 {
    ts.div_euclid(DIGEST_BUCKET_NS) * DIGEST_BUCKET_NS
}

/// The order-independent hash of a single point. XORing these per bucket
/// gives a set digest that is insensitive to scan order and to how points
/// are distributed across segment generations.
pub fn point_hash(series_key: &str, field: &str, ts: i64, value_bits: u64) -> u64 {
    fx_hash(&(series_key, field, ts, value_bits))
}

/// The owner set of a series as a bitmask over ring indices (bit `i` set
/// when node `i` is an owner). Masks cap the cluster at 64 nodes, far above
/// the single-digit node counts this stack targets.
pub fn owner_mask(ring: &HashRing, replication: usize, key_hash: u64) -> u64 {
    let mut owners = Vec::with_capacity(replication);
    ring.owners_into(key_hash, replication, &mut owners);
    owners.iter().fold(0u64, |m, &i| m | (1u64 << (i as u32 & 63)))
}

/// One (hour bucket, owner set) summary of a node's data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketDigest {
    /// Bucket start, nanoseconds (multiple of [`DIGEST_BUCKET_NS`]).
    pub bucket_start: i64,
    /// Owner-set bitmask over ring indices.
    pub owners: u64,
    /// Points the node holds in this bucket for series with this owner set.
    pub count: u64,
    /// XOR of [`point_hash`] over those points.
    pub hash: u64,
}

/// Serialises a digest list in the wire form used by `/integrity`.
pub fn digests_to_json(digests: &[BucketDigest]) -> Json {
    Json::Arr(
        digests
            .iter()
            .map(|d| {
                Json::obj([
                    ("bucket_start", Json::Int(d.bucket_start)),
                    ("owners", Json::Int(d.owners as i64)),
                    ("count", Json::Int(d.count as i64)),
                    // The hash is an opaque u64; ship it as a hex string so
                    // it survives JSON's i64-centric number handling.
                    ("hash", Json::Str(format!("{:016x}", d.hash))),
                ])
            })
            .collect(),
    )
}

/// Parses the wire form back into digests.
pub fn digests_from_json(json: &Json) -> Result<Vec<BucketDigest>> {
    let arr = json
        .as_arr()
        .ok_or_else(|| Error::protocol("integrity digest: expected an array"))?;
    let mut out = Vec::with_capacity(arr.len());
    for item in arr {
        let get_i64 = |k: &str| {
            item.get(k)
                .and_then(Json::as_i64)
                .ok_or_else(|| Error::protocol(format!("integrity digest: missing {k}")))
        };
        let hash_str = item
            .get("hash")
            .and_then(Json::as_str)
            .ok_or_else(|| Error::protocol("integrity digest: missing hash"))?;
        out.push(BucketDigest {
            bucket_start: get_i64("bucket_start")?,
            owners: get_i64("owners")? as u64,
            count: get_i64("count")? as u64,
            hash: u64::from_str_radix(hash_str, 16)
                .map_err(|_| Error::protocol("integrity digest: bad hash"))?,
        });
    }
    Ok(out)
}

/// A divergent range the router must repair: replay `source`'s copy of
/// `[start_ns, end_ns)` through the replicated write path so the `stale`
/// owners converge to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairTask {
    /// Range start, nanoseconds (inclusive).
    pub start_ns: i64,
    /// Range end, nanoseconds (exclusive).
    pub end_ns: i64,
    /// Ring index of the elected healthy source.
    pub source: usize,
    /// Ring indices of the owners that disagree with the source.
    pub stale: Vec<usize>,
}

/// Diffs per-node digest responses into repair tasks.
///
/// `per_node[i]` is node `i`'s digest list, or `None` when the node was
/// unreachable (it is then excluded from both sourcing and repair — pushing
/// at a dead node is the write path's hinted-handoff problem, not ours).
/// An owner that responded but reported nothing for a (bucket, owners)
/// group other members reported is treated as holding zero points — that is
/// exactly the wiped-data-dir and quarantined-range case.
pub fn diff_digests(per_node: &[Option<Vec<BucketDigest>>]) -> Vec<RepairTask> {
    // (bucket_start, owners) → per reachable member node: (count, hash).
    type MemberRows = Vec<(usize, u64, u64)>;
    let mut groups: BTreeMap<(i64, u64), MemberRows> = BTreeMap::new();
    for (node, digests) in per_node.iter().enumerate() {
        let Some(digests) = digests else { continue };
        for d in digests {
            groups
                .entry((d.bucket_start, d.owners))
                .or_default()
                .push((node, d.count, d.hash));
        }
    }
    let mut tasks = Vec::new();
    for ((bucket_start, owners), mut members) in groups {
        // Fill in reachable owners that reported nothing for this group.
        for (node, resp) in per_node.iter().enumerate().take(64) {
            if owners & (1u64 << node) != 0
                && resp.is_some()
                && !members.iter().any(|&(n, _, _)| n == node)
            {
                members.push((node, 0, 0));
            }
        }
        members.sort_unstable_by_key(|&(n, _, _)| n);
        let Some(&(first_node, first_count, first_hash)) = members.first() else { continue };
        let agree = members
            .iter()
            .all(|&(_, c, h)| c == first_count && h == first_hash);
        if agree && members.len() > 1 {
            continue;
        }
        if members.len() == 1 {
            // Only one reachable owner — nothing to compare against.
            let _ = (first_node, first_hash);
            continue;
        }
        // Single-source election: most points wins, ties to the lowest
        // ring index (members are already index-sorted, so max_by_key on
        // count keeps the first of equals).
        let (source, src_count, src_hash) = members
            .iter()
            .copied()
            .max_by_key(|&(n, c, _)| (c, usize::MAX - n))
            .unwrap();
        let stale: Vec<usize> = members
            .iter()
            .filter(|&&(n, c, h)| n != source && (c != src_count || h != src_hash))
            .map(|&(n, _, _)| n)
            .collect();
        if stale.is_empty() {
            continue;
        }
        tasks.push(RepairTask {
            start_ns: bucket_start,
            end_ns: bucket_start.saturating_add(DIGEST_BUCKET_NS),
            source,
            stale,
        });
    }
    tasks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(bucket: i64, owners: u64, count: u64, hash: u64) -> BucketDigest {
        BucketDigest { bucket_start: bucket * DIGEST_BUCKET_NS, owners, count, hash }
    }

    #[test]
    fn identical_replicas_need_no_repair() {
        let a = vec![d(0, 0b011, 100, 0xdead), d(1, 0b011, 50, 0xbeef)];
        let per_node = vec![Some(a.clone()), Some(a), None];
        assert!(diff_digests(&per_node).is_empty());
    }

    #[test]
    fn diverging_hash_elects_the_bigger_copy() {
        let per_node = vec![
            Some(vec![d(0, 0b011, 100, 0xdead)]),
            Some(vec![d(0, 0b011, 90, 0x0bad)]),
        ];
        let tasks = diff_digests(&per_node);
        assert_eq!(tasks.len(), 1);
        assert_eq!(tasks[0].source, 0);
        assert_eq!(tasks[0].stale, vec![1]);
        assert_eq!(tasks[0].start_ns, 0);
        assert_eq!(tasks[0].end_ns, DIGEST_BUCKET_NS);
    }

    #[test]
    fn equal_counts_tie_break_to_lowest_index() {
        let per_node = vec![
            Some(vec![d(2, 0b011, 70, 0xaaaa)]),
            Some(vec![d(2, 0b011, 70, 0xbbbb)]),
        ];
        let tasks = diff_digests(&per_node);
        assert_eq!(tasks.len(), 1);
        assert_eq!(tasks[0].source, 0);
        assert_eq!(tasks[0].stale, vec![1]);
    }

    #[test]
    fn missing_bucket_on_one_owner_is_a_zero_count_divergence() {
        // Node 1 wiped its data dir: it answers /integrity but reports
        // nothing for the bucket.
        let per_node = vec![Some(vec![d(3, 0b011, 40, 0x1234)]), Some(vec![])];
        let tasks = diff_digests(&per_node);
        assert_eq!(tasks.len(), 1);
        assert_eq!(tasks[0].source, 0);
        assert_eq!(tasks[0].stale, vec![1]);
    }

    #[test]
    fn unreachable_nodes_are_left_alone() {
        // Node 1 is down entirely — no task, the write path's handoff
        // spool covers it.
        let per_node = vec![Some(vec![d(0, 0b011, 40, 0x1234)]), None];
        assert!(diff_digests(&per_node).is_empty());
    }

    #[test]
    fn owner_sets_partition_the_comparison() {
        // Nodes 0 and 1 agree on their shared series; node 0's {0,2}
        // series are invisible to node 1 and must not produce tasks when
        // node 2 agrees.
        let per_node = vec![
            Some(vec![d(0, 0b011, 10, 7), d(0, 0b101, 5, 9)]),
            Some(vec![d(0, 0b011, 10, 7)]),
            Some(vec![d(0, 0b101, 5, 9)]),
        ];
        assert!(diff_digests(&per_node).is_empty());
    }

    #[test]
    fn json_round_trip() {
        let digests = vec![d(0, 0b011, 100, u64::MAX), d(5, 0b110, 0, 0)];
        let json = digests_to_json(&digests);
        let back = digests_from_json(&Json::parse(&json.to_string()).unwrap()).unwrap();
        assert_eq!(back, digests);
    }

    #[test]
    fn owner_mask_matches_ring_owners() {
        let ring = HashRing::new(4, 9);
        for k in 0..64u64 {
            let h = fx_hash(&k);
            let mask = owner_mask(&ring, 2, h);
            assert_eq!(mask.count_ones(), 2);
            for i in ring.owners(h, 2) {
                assert_ne!(mask & (1 << i), 0);
            }
        }
    }

    #[test]
    fn bucket_of_floors_negative_timestamps() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(DIGEST_BUCKET_NS - 1), 0);
        assert_eq!(bucket_of(DIGEST_BUCKET_NS), DIGEST_BUCKET_NS);
        assert_eq!(bucket_of(-1), -DIGEST_BUCKET_NS);
    }
}
