//! Concurrency contract of the sharded ingest path.
//!
//! The sharded engine must behave observably like the old single-lock one:
//! no lost or duplicated points under parallel writers, last-write-wins on
//! timestamp collisions, and byte-identical query output regardless of the
//! shard count.

use lms_influx::{Influx, WriteOptions};
use lms_util::{Clock, Timestamp};
use std::time::Duration;

fn engine(shards: usize) -> Influx {
    Influx::with_shards(Clock::simulated(Timestamp::from_secs(1000)), shards).unwrap()
}

/// N writer threads × M batches × P points each: every point is counted
/// exactly once, across both thread-private and cross-thread series.
#[test]
fn concurrent_writers_lose_no_points() {
    const THREADS: usize = 8;
    const BATCHES: usize = 16;
    const POINTS: usize = 32;

    let ix = engine(16);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let ix = ix.clone();
            s.spawn(move || {
                for b in 0..BATCHES {
                    let mut body = String::new();
                    for p in 0..POINTS {
                        // Half the points go to a thread-private series, half
                        // to series shared by all threads (distinct ts per
                        // thread so nothing overwrites).
                        let ts = (t * BATCHES * POINTS + b * POINTS + p + 1) as i64;
                        if p % 2 == 0 {
                            body.push_str(&format!("cpu,hostname=h{t} value={p} {ts}\n"));
                        } else {
                            body.push_str(&format!("mem,hostname=shared,slot=s{p} used={b} {ts}\n"));
                        }
                    }
                    let outcome = ix.write_lines("lms", &body, WriteOptions::default()).unwrap();
                    assert_eq!(outcome.written, POINTS);
                    assert_eq!(outcome.rejected, 0);
                }
            });
        }
    });

    assert_eq!(ix.point_count("lms"), THREADS * BATCHES * POINTS);
    // THREADS private cpu series + POINTS/2 shared mem series.
    assert_eq!(ix.series_count("lms"), THREADS + POINTS / 2);
}

/// The pathological hot-series workload (`app_burst` in `benchmark/`): every
/// writer hammers the SAME series. The staged append buffers turn the
/// old per-series write-lock convoy into briefly-locked pushes, but the
/// contract is unchanged — all-unique timestamps in, exactly that set
/// out, nothing lost or applied twice.
#[test]
fn hot_series_concurrent_writers_lose_nothing_and_duplicate_nothing() {
    const THREADS: usize = 8;
    const BATCHES: usize = 16;
    const POINTS: usize = 32;

    let ix = engine(16);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let ix = ix.clone();
            s.spawn(move || {
                for b in 0..BATCHES {
                    let mut body = String::new();
                    for p in 0..POINTS {
                        // One shared series; value == timestamp makes the
                        // checksum below detect any loss or duplication.
                        let ts = (t * BATCHES * POINTS + b * POINTS + p + 1) as i64;
                        body.push_str(&format!("hot,hostname=h1 v={ts}i {ts}\n"));
                    }
                    let outcome = ix.write_lines("lms", &body, WriteOptions::default()).unwrap();
                    assert_eq!(outcome.written, POINTS);
                    assert_eq!(outcome.rejected, 0);
                }
            });
        }
    });

    let n = (THREADS * BATCHES * POINTS) as i64;
    assert_eq!(ix.point_count("lms"), n as usize);
    assert_eq!(ix.series_count("lms"), 1);
    let r = ix.query("lms", "SELECT count(v), sum(v) FROM hot").unwrap();
    let row = &r.series[0].values[0];
    assert_eq!(row[1].as_i64(), Some(n));
    assert_eq!(row[2].as_i64(), Some(n * (n + 1) / 2), "point set is not exactly 1..=n");
}

/// All threads hammer the same series at the same timestamp: exactly one
/// point survives and its value is one that was actually written.
#[test]
fn timestamp_collisions_resolve_last_write_wins() {
    const THREADS: i64 = 8;

    let ix = engine(16);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let ix = ix.clone();
            s.spawn(move || {
                for round in 0..50 {
                    let body = format!("clash,hostname=h1 v={} 424242", t * 1000 + round);
                    ix.write_lines("lms", &body, WriteOptions::default()).unwrap();
                }
            });
        }
    });

    assert_eq!(ix.point_count("lms"), 1);
    let r = ix.query("lms", "SELECT v FROM clash").unwrap();
    assert_eq!(r.series.len(), 1);
    assert_eq!(r.series[0].values.len(), 1);
    assert_eq!(r.series[0].values[0][0].as_i64(), Some(424_242));
    let v = r.series[0].values[0][1].as_f64().expect("field value");
    let written = (0..THREADS).flat_map(|t| (0..50).map(move |r| (t * 1000 + r) as f64));
    assert!(written.clone().any(|w| w == v), "value {v} was never written");
}

/// Out-of-order backfill followed by retention: the sharded engine evicts
/// exactly what the single-lock engine evicts, and the surviving data
/// queries byte-identically.
#[test]
fn backfill_and_retention_match_single_shard_engine() {
    let sharded = engine(16);
    let single = engine(1);

    // Interleaved out-of-order writes: new data first, then backfill older
    // timestamps, on several series.
    let batches = [
        "cpu,hostname=h1 v=5 5000000000000\ncpu,hostname=h2 v=6 6000000000000",
        "cpu,hostname=h1 v=1 1000000000000\nmem,hostname=h1 used=2 2000000000000",
        "cpu,hostname=h2 v=3 3000000000000\ncpu,hostname=h1 v=4 4500000000000",
        "mem,hostname=h1 used=9 999000000000000\nmem,hostname=h2 used=1 1500000000000",
    ];
    for ix in [&sharded, &single] {
        for batch in &batches {
            ix.write_lines("lms", batch, WriteOptions::default()).unwrap();
        }
        ix.set_retention("lms", Some(Duration::from_secs(10_000)));
        // now = 1000s; advance so timestamps below 4000s fall out of the
        // 10 000 s window ending at 14 000 s.
        ix.clock().advance(Duration::from_secs(13_000));
    }

    let evicted_sharded = sharded.enforce_retention();
    let evicted_single = single.enforce_retention();
    assert_eq!(evicted_sharded, evicted_single);
    assert!(evicted_sharded > 0, "expected the backfilled points to age out");
    assert_eq!(sharded.point_count("lms"), single.point_count("lms"));

    for q in [
        "SELECT v FROM cpu",
        "SELECT used FROM mem",
        "SELECT v FROM cpu WHERE hostname = 'h1'",
        "SHOW MEASUREMENTS",
        "SHOW FIELD KEYS FROM cpu",
    ] {
        let a = sharded.query("lms", q).unwrap().to_json().to_string();
        let b = single.query("lms", q).unwrap().to_json().to_string();
        assert_eq!(a, b, "query `{q}` diverged between shard counts");
    }
}

/// The same concurrent workload lands in identical query output for a
/// 1-shard and a 16-shard engine (ordering is deterministic, not
/// scheduling-dependent): run the writes twice and compare JSON.
#[test]
fn concurrent_workload_queries_identically_across_shard_counts() {
    const THREADS: usize = 4;

    let run = |shards: usize| {
        let ix = engine(shards);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let ix = ix.clone();
                s.spawn(move || {
                    for i in 0..100usize {
                        let ts = (i + 1) as i64 * 1_000;
                        let body =
                            format!("flops,hostname=h{t},cpu=c{} value={i} {ts}", i % 4);
                        ix.write_lines("lms", &body, WriteOptions::default()).unwrap();
                    }
                });
            }
        });
        ix
    };

    let sharded = run(16);
    let single = run(1);
    assert_eq!(sharded.point_count("lms"), single.point_count("lms"));
    for q in [
        "SELECT value FROM flops WHERE hostname = 'h2'",
        "SELECT value FROM flops WHERE cpu = 'c3' AND hostname = 'h0'",
        "SHOW TAG VALUES FROM flops WITH KEY = hostname",
    ] {
        let a = sharded.query("lms", q).unwrap().to_json().to_string();
        let b = single.query("lms", q).unwrap().to_json().to_string();
        assert_eq!(a, b, "query `{q}` diverged between shard counts");
    }
}
