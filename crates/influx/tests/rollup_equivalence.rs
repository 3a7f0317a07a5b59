//! Equivalence suite for the downsampling tiers.
//!
//! The rollup pipeline must be *invisible* to query semantics: for any
//! layout of head, sealed and rollup blocks, a tier-stitched aggregate
//! (coarse windows where the rollup covers the range, raw decode at the
//! edges) must equal the full-raw-decode answer exactly. Decomposable
//! aggregates (count/sum/min/max/first/last, mean and stddev derived
//! from them) make that bit-exact when the inputs are integer-valued
//! floats — no epsilon comparisons here.

use lms_influx::{Influx, RollupPolicy, StorageConfig};
use lms_util::{Clock, Timestamp};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

static CASE: AtomicUsize = AtomicUsize::new(0);

const SEC: i64 = 1_000_000_000;

fn tmp_dir(tag: &str) -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join(format!("lms-rollup-equiv-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &std::path::Path) -> Influx {
    Influx::open(Clock::simulated(Timestamp::from_secs(20_000)), 4, StorageConfig::new(dir))
        .unwrap()
}

/// Loads `batches`: every batch but the last is sealed (and rolled up —
/// `flush_storage` runs a rollup pass); the last stays in the mutable
/// head, past whatever the watermark reached, so queries must stitch
/// tier blocks to a raw tail.
fn load(ix: &Influx, batches: &[Vec<(u8, i64, i32)>]) {
    for (i, batch) in batches.iter().enumerate() {
        if batch.is_empty() {
            continue;
        }
        let body: String = batch
            .iter()
            .map(|&(s, sec, v)| format!("m,hostname=g{s} v={v} {}\n", sec * SEC))
            .collect();
        ix.write_lines("lms", &body, Default::default()).unwrap();
        if i + 1 < batches.len() {
            ix.flush_storage().unwrap();
        }
    }
}

/// Asserts the tier-stitched answer equals the raw-only answer exactly.
fn assert_tier_equivalent(ix: &Influx, q: &str) {
    ix.set_query_tiers(Some(vec![]));
    let raw = ix.query("lms", q).unwrap();
    ix.set_query_tiers(None);
    let tiered = ix.query("lms", q).unwrap();
    assert_eq!(tiered, raw, "query {q:?} diverged tier-stitched vs full raw decode");
}

/// 2–4 batches of 0–40 points over 3 series, timestamps on whole seconds
/// across ~3 hours: enough span for both 1m and 1h windows to fill, and
/// small enough ranges that duplicate timestamps (LWW) and overlapping
/// sealed generations occur.
fn layouts() -> impl Strategy<Value = Vec<Vec<(u8, i64, i32)>>> {
    let point = (0u8..3, 0i64..10_800, -100i32..100);
    proptest::collection::vec(proptest::collection::vec(point, 0..40), 2..5)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn tier_stitched_aggregates_match_raw_decode(
        batches in layouts(),
        bounds in (0i64..10_800, 1i64..7200),
        extra in proptest::collection::vec((0u8..3, 0i64..10_800, -100i32..100), 0..20),
    ) {
        let dir = tmp_dir("prop");
        let ix = open(&dir);
        load(&ix, &batches);
        ix.enable_rollups(RollupPolicy::default()).unwrap();
        // Raw points arriving after the watermark: the tier path must cap
        // at the watermark and serve this tail from the raw head.
        if !extra.is_empty() {
            let body: String = extra
                .iter()
                .map(|&(s, sec, v)| format!("m,hostname=g{s} v={v} {}\n", sec * SEC))
                .collect();
            ix.write_lines("lms", &body, Default::default()).unwrap();
        }
        let (lo, span) = bounds;
        let (lo, hi) = (lo * SEC, (lo + span) * SEC);
        let queries = [
            // Unwindowed, whole range: the coarsest tier serves the middle.
            "SELECT mean(v), sum(v), min(v), max(v), count(v) FROM m".to_string(),
            "SELECT first(v), last(v), stddev(v) FROM m".to_string(),
            // Bounded: tier windows align up/down inside the bounds, raw
            // decode covers the cut-off edges.
            format!("SELECT mean(v), count(v) FROM m WHERE time >= {lo} AND time < {hi}"),
            // Steps divisible by a tier window → served from that tier.
            "SELECT sum(v), max(v) FROM m GROUP BY time(60s)".to_string(),
            "SELECT mean(v), count(v) FROM m GROUP BY time(1h), \"hostname\"".to_string(),
            format!(
                "SELECT count(v) FROM m WHERE time >= {lo} AND time < {hi} \
                 GROUP BY time(10m), \"hostname\""
            ),
            // Step not divisible by any tier window → plain raw path.
            "SELECT mean(v) FROM m GROUP BY time(90s)".to_string(),
            format!("SELECT first(v), last(v) FROM m WHERE time >= {lo} AND time < {hi} GROUP BY time(5m)"),
        ];
        for q in &queries {
            assert_tier_equivalent(&ix, q);
        }
        drop(ix);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn tier_path_serves_from_tier_blocks_not_raw() {
    // Equivalence alone could pass with the tier path never engaging.
    // Poison one rollup row and confirm the tiered answer *diverges*
    // from raw — the stitched query really read the tier block.
    let dir = tmp_dir("poison");
    let ix = open(&dir);
    let body: String = (0..7200i64)
        .map(|i| format!("m,hostname=g{} v=1 {}\n", i % 3, i * SEC))
        .collect();
    ix.write_lines("lms", &body, Default::default()).unwrap();
    ix.flush_storage().unwrap();
    ix.enable_rollups(RollupPolicy::default()).unwrap();

    // Overwrite the sum stat of one mid-range 1m window (LWW on the
    // tier database, like any other write).
    ix.write_lines(
        "lms__rollup_1m",
        &format!("m,hostname=g0 v__sum=999999 {}\n", 1800 * SEC),
        Default::default(),
    )
    .unwrap();

    ix.set_query_tiers(Some(vec![]));
    let raw = ix.query("lms", "SELECT sum(v) FROM m").unwrap();
    ix.set_query_tiers(Some(vec![lms_influx::Tier::Minute]));
    let tiered = ix.query("lms", "SELECT sum(v) FROM m").unwrap();
    assert_ne!(tiered, raw, "tiered query never consulted the poisoned 1m block");
    drop(ix);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rollup_blocks_survive_crash_recovery() {
    // A rollup pass seals its rows and then logs its watermark: a database
    // that goes down right after a pass (no clean flush of the tier heads)
    // reopens the sealed rows, replays the watermark and answers tiered
    // queries identically.
    let dir = tmp_dir("recovery");
    let queries = [
        "SELECT mean(v), sum(v), count(v) FROM m",
        "SELECT min(v), max(v), first(v), last(v) FROM m GROUP BY time(60s), \"hostname\"",
        "SELECT stddev(v) FROM m GROUP BY time(1h)",
    ];
    let (before, tier_rows) = {
        let ix = open(&dir);
        let body: String = (0..7200i64)
            .map(|i| format!("m,hostname=g{} v={} {}\n", i % 3, (i * 7) % 100, i * SEC))
            .collect();
        ix.write_lines("lms", &body, Default::default()).unwrap();
        ix.flush_storage().unwrap();
        ix.enable_rollups(RollupPolicy::default()).unwrap();
        let rows = ix.point_count("lms__rollup_1m") + ix.point_count("lms__rollup_1h");
        assert!(rows > 0, "rollup pass produced no tier rows");
        let before: Vec<_> = queries.iter().map(|q| ix.query("lms", q).unwrap()).collect();
        (before, rows)
        // Dropped without a final flush: the watermark is only in the WAL.
    };
    let ix = open(&dir);
    ix.enable_rollups(RollupPolicy::default()).unwrap();
    assert_eq!(
        ix.point_count("lms__rollup_1m") + ix.point_count("lms__rollup_1h"),
        tier_rows,
        "tier rows lost or duplicated across restart"
    );
    for (q, expect) in queries.iter().zip(before) {
        assert_eq!(ix.query("lms", q).unwrap(), expect, "query {q} diverged after restart");
        assert_tier_equivalent(&ix, q);
    }
    drop(ix);
    let _ = std::fs::remove_dir_all(&dir);
}
