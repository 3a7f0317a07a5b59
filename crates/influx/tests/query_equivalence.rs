//! Equivalence suite for the query-engine v2 fast paths.
//!
//! The seed executor decoded every sealed block on every query. V2 adds
//! two fast paths — block-summary pruning and parallel column scans —
//! that must be *invisible*: over any layout of head, sealed and
//! straddling/overlapping blocks, every tuning combination must produce
//! exactly the rows the full-decode serial path produces — before and after
//! the summaries make a round trip through the segment footer.

use lms_influx::{Influx, QueryResult, QueryTuning, StorageConfig};
use lms_util::{Clock, Timestamp};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn tmp_dir(tag: &str) -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join(format!("lms-influx-equiv-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &std::path::Path) -> Influx {
    Influx::open(Clock::simulated(Timestamp::from_secs(1000)), 4, StorageConfig::new(dir))
        .unwrap()
}

/// Loads `batches` into a fresh database: every batch but the last is
/// flushed into sealed blocks (its own segment generation, so batches
/// with overlapping time ranges produce overlapping blocks); the last
/// stays in the mutable head.
fn load(ix: &Influx, batches: &[Vec<(u8, i64, i32)>]) {
    for (i, batch) in batches.iter().enumerate() {
        if batch.is_empty() {
            continue;
        }
        let body: String = batch
            .iter()
            .map(|&(s, ts, v)| format!("m,hostname=g{s} v={v} {ts}\n"))
            .collect();
        ix.write_lines("lms", &body, Default::default()).unwrap();
        if i + 1 < batches.len() {
            ix.flush_storage().unwrap();
        }
    }
}

/// Runs `q` under all four tuning combinations and asserts the three
/// fast-path variants match the full-decode serial baseline exactly.
fn assert_equivalent(ix: &Influx, q: &str) -> QueryResult {
    let db = ix.database("lms").expect("lms exists");
    let baseline = {
        db.set_query_tuning(QueryTuning { use_summaries: false, parallel_scan: false });
        ix.query("lms", q).unwrap()
    };
    for (summaries, parallel) in [(true, false), (false, true), (true, true)] {
        db.set_query_tuning(QueryTuning { use_summaries: summaries, parallel_scan: parallel });
        let got = ix.query("lms", q).unwrap();
        assert_eq!(
            got, baseline,
            "query {q:?} diverged under summaries={summaries} parallel={parallel}"
        );
    }
    db.set_query_tuning(QueryTuning::default());
    baseline
}

/// A batch layout: 1–3 sealed batches plus a head batch, each 0–40
/// points over 3 series in a ~2 µs window. Integer-valued floats make
/// float equality exact, so results must be byte-identical; small
/// timestamp ranges force duplicate timestamps (LWW across generations)
/// and overlapping sealed blocks.
fn layouts() -> impl Strategy<Value = Vec<Vec<(u8, i64, i32)>>> {
    let point = (0u8..3, 0i64..2000, -100i32..100);
    proptest::collection::vec(proptest::collection::vec(point, 0..40), 2..5)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn fast_paths_match_full_decode(
        batches in layouts(),
        bounds in (0i64..2000, 1i64..500),
        window in 1i64..400,
    ) {
        let dir = tmp_dir("prop");
        let ix = open(&dir);
        load(&ix, &batches);
        let (lo, span) = bounds;
        let hi = lo + span;
        let queries = [
            "SELECT v FROM m".to_string(),
            "SELECT mean(v), sum(v), min(v), max(v), count(v) FROM m".to_string(),
            format!("SELECT mean(v), count(v) FROM m WHERE time >= {lo} AND time < {hi}"),
            format!("SELECT sum(v), max(v) FROM m GROUP BY time({window}ns)"),
            format!(
                "SELECT mean(v) FROM m WHERE time >= {lo} AND time < {hi} \
                 GROUP BY time({window}ns), \"hostname\""
            ),
            format!("SELECT first(v), last(v), stddev(v) FROM m GROUP BY time({window}ns)"),
        ];
        for q in &queries {
            assert_equivalent(&ix, q);
        }
        drop(ix);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn parallel_scan_crosses_the_fanout_threshold_identically() {
    // The proptest layouts stay far below the 64k-sealed-point fan-out
    // threshold, so they pin the *flag*, not the threaded path. This
    // layout crosses it: 3 series × 40k sealed points, plus a head tail
    // and an overlapping overwrite batch.
    let dir = tmp_dir("parallel");
    let ix = open(&dir);
    let mut batch = String::with_capacity(1 << 22);
    for i in 0..120_000i64 {
        batch.push_str(&format!("m,hostname=g{} v={} {}\n", i % 3, (i * 7) % 1000, i * 1000));
    }
    ix.write_lines("lms", &batch, Default::default()).unwrap();
    ix.flush_storage().unwrap();
    // Overwrites over a slice of the sealed range, sealed as a second
    // overlapping generation, plus a live head tail.
    let mut overwrite = String::new();
    for i in 40_000..44_000i64 {
        overwrite.push_str(&format!("m,hostname=g{} v=-5 {}\n", i % 3, i * 1000));
    }
    ix.write_lines("lms", &overwrite, Default::default()).unwrap();
    ix.flush_storage().unwrap();
    ix.write_lines("lms", "m,hostname=g0 v=7 119999500\nm,hostname=g1 v=9 120000500", Default::default())
        .unwrap();
    for q in [
        "SELECT mean(v), sum(v), min(v), max(v), count(v) FROM m",
        "SELECT sum(v), count(v) FROM m GROUP BY time(3600000000000ns)",
        "SELECT mean(v) FROM m WHERE time >= 30000000000 AND time < 90000000000 GROUP BY \"hostname\"",
    ] {
        assert_equivalent(&ix, q);
    }
    drop(ix);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn persisted_summaries_answer_identically_after_reopen() {
    // Summaries are computed at seal time and persisted in the segment
    // footer: a reopened data directory answers from the loaded copies.
    let dir = tmp_dir("reopen");
    let queries = [
        "SELECT v FROM m",
        "SELECT mean(v), sum(v), min(v), max(v), count(v) FROM m",
        "SELECT sum(v) FROM m GROUP BY time(200ns)",
        "SELECT mean(v) FROM m WHERE time >= 100 AND time < 700 GROUP BY \"hostname\"",
    ];
    let before: Vec<QueryResult> = {
        let ix = open(&dir);
        let body: String = (0..300i64)
            .map(|i| format!("m,hostname=g{} v={} {}\n", i % 3, i % 17, i * 3))
            .collect();
        ix.write_lines("lms", &body, Default::default()).unwrap();
        ix.flush_storage().unwrap();
        queries.iter().map(|q| assert_equivalent(&ix, q)).collect()
    };
    let ix = open(&dir);
    for (q, expect) in queries.iter().zip(before) {
        let got = assert_equivalent(&ix, q);
        assert_eq!(got, expect, "query {q} diverged after reopen");
    }
    drop(ix);
    let _ = std::fs::remove_dir_all(&dir);
}
