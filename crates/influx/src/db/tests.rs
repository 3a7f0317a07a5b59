//! The tests of `db` (`db.rs` declares this module `#[cfg(test)]`): first
//! those of `db.rs` itself, then one section per child module, each
//! checking that module's decision.

use super::*;
use lms_util::Timestamp;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

// Writes, queries, views and reopening (`db.rs`).

fn influx() -> Influx {
    Influx::new(Clock::simulated(Timestamp::from_secs(1000))).unwrap()
}

#[test]
fn write_and_count() {
    let ix = influx();
    let out = ix
        .write_lines("lms", "cpu,hostname=h1 value=1 1\ncpu,hostname=h2 value=2 2", Default::default())
        .unwrap();
    assert_eq!(out.written, 2);
    assert_eq!(out.rejected, 0);
    assert_eq!(ix.series_count("lms"), 2);
    assert_eq!(ix.point_count("lms"), 2);
}

#[test]
fn malformed_lines_counted_not_fatal() {
    let ix = influx();
    let out = ix
        .write_lines("lms", "good v=1 1\nbad line here\ngood v=2 2", Default::default())
        .unwrap();
    assert_eq!(out.written, 2);
    assert_eq!(out.rejected, 1);
    let (line, msg) = out.first_error.unwrap();
    assert_eq!(line, 2);
    assert!(!msg.is_empty());
}

#[test]
fn missing_timestamp_gets_server_time() {
    let ix = influx();
    ix.write_lines("lms", "cpu value=1", Default::default()).unwrap();
    let r = ix.query("lms", "SELECT value FROM cpu").unwrap();
    let ts = r.series[0].values[0][0].as_i64().unwrap();
    assert_eq!(ts, Timestamp::from_secs(1000).nanos());
}

#[test]
fn precision_scaling_applies() {
    let ix = influx();
    ix.write_lines(
        "lms",
        "cpu value=1 1000",
        WriteOptions { precision: Precision::Seconds },
    )
    .unwrap();
    let r = ix.query("lms", "SELECT value FROM cpu").unwrap();
    assert_eq!(r.series[0].values[0][0].as_i64().unwrap(), 1_000_000_000_000);
}

#[test]
fn auto_create_toggle() {
    let ix = influx();
    ix.set_auto_create(false);
    assert!(ix.write_lines("nope", "m v=1 1", Default::default()).is_err());
    ix.create_database("nope");
    assert!(ix.write_lines("nope", "m v=1 1", Default::default()).is_ok());
    assert_eq!(ix.database_names(), vec!["nope"]);
}

#[test]
fn create_database_via_query() {
    let ix = influx();
    ix.set_auto_create(false);
    ix.query("", "CREATE DATABASE userdb").unwrap();
    assert!(ix.database_names().contains(&"userdb".to_string()));
}

#[test]
fn show_databases() {
    let ix = influx();
    ix.create_database("lms");
    ix.create_database("user_alice");
    let r = ix.query("", "SHOW DATABASES").unwrap();
    let names: Vec<&str> =
        r.series[0].values.iter().map(|v| v[0].as_str().unwrap()).collect();
    assert_eq!(names, vec!["lms", "user_alice"]);
}

#[test]
fn a_user_view_reads_the_global_database_under_its_user() {
    let ix = influx();
    let lines = "cpu,hostname=h1,user=j.doe v=1 1\ncpu,hostname=h2,user=bob v=2 1\ncpu,hostname=h3 v=4 1";
    ix.write_lines("lms", lines, Default::default()).unwrap();
    let sum = |db: &str, q: &str| ix.query(db, q).unwrap().series[0].values[0][1].as_f64();
    assert_eq!(sum("user_j.doe", "SELECT sum(v) FROM cpu"), Some(1.0));
    assert_eq!(sum("lms", "SELECT sum(v) FROM cpu"), Some(7.0));
    let r = ix.query("user_j.doe", "SELECT v FROM cpu WHERE user = 'bob'").unwrap();
    assert_eq!(r, QueryResult::empty());
    assert_eq!(ix.tag_keys("user_bob", "cpu").unwrap(), vec!["hostname", "user"]);
    // A user without series has no view, and a view takes no writes.
    assert!(matches!(ix.query("user_eve", "SHOW MEASUREMENTS"), Err(Error::NotFound(_))));
    let refused = ix.write_lines("user_eve", "cpu v=1 1", Default::default());
    assert!(matches!(refused, Err(Error::NotFound(_))));
    let r = ix.query("", "SHOW DATABASES").unwrap();
    let names: Vec<&str> = r.series[0].values.iter().map(|v| v[0].as_str().unwrap()).collect();
    assert_eq!(names, vec!["lms", "user_bob", "user_j.doe"]);
}

#[test]
fn a_tag_set_under_a_user_view_keeps_the_users_predicate() {
    let ix = influx();
    let lines = "cpu,hostname=h1,user=bob v=1 1
cpu,hostname=h2,user=eve v=2 1
mem,hostname=h2,user=eve v=4 1";
    ix.write_lines("lms", lines, Default::default()).unwrap();
    let hosts = "(hostname = 'h1' OR hostname = 'h2')";
    let sum = |db: &str| {
        let r = ix.query(db, &format!("SELECT sum(v) FROM cpu WHERE {hosts}")).unwrap();
        r.series[0].values[0][1].as_f64()
    };
    assert_eq!((sum("user_bob"), sum("user_eve"), sum("lms")), (Some(1.0), Some(2.0), Some(3.0)));
    let names = |db: &str| -> Vec<String> {
        let r = ix.query(db, &format!("SHOW MEASUREMENTS WHERE {hosts}")).unwrap();
        r.series[0].values.iter().map(|v| v[0].as_str().unwrap().to_string()).collect()
    };
    assert_eq!((names("user_bob"), names("user_eve")), (vec!["cpu".into()], vec!["cpu".into(), "mem".into()]));
    let grouped = ix.query("user_bob", &format!("SELECT sum(v) FROM cpu WHERE {hosts} GROUP BY hostname"));
    assert_eq!(grouped.unwrap().series.len(), 1, "only bob's host");
}

#[test]
fn duplicate_point_overwrites() {
    let ix = influx();
    ix.write_lines("lms", "m,host=a v=1 5\nm,host=a v=2 5", Default::default()).unwrap();
    assert_eq!(ix.point_count("lms"), 1);
    let r = ix.query("lms", "SELECT v FROM m").unwrap();
    assert_eq!(r.series[0].values[0][1].as_f64().unwrap(), 2.0);
}

#[test]
fn shard_count_is_power_of_two() {
    let shards = |n| {
        let ix = Influx::with_shards(Clock::simulated(Timestamp::from_secs(1000)), n).unwrap();
        ix.create_database("lms");
        ix.database("lms").unwrap().shards.len()
    };
    assert_eq!((shards(1), shards(3), shards(16)), (1, 4, 16));
    let ix = influx();
    ix.create_database("lms");
    assert_eq!(ix.database("lms").unwrap().shards.len(), DEFAULT_SHARDS);
}

#[test]
fn single_shard_engine_behaves_identically() {
    // shards=1 is the old single-lock layout; results must match the
    // sharded engine exactly.
    let batch = "cpu,hostname=h1 v=1 1\ncpu,hostname=h2 v=2 2\nmem,hostname=h1 v=3 3";
    let sharded = influx();
    let single = Influx::with_shards(Clock::simulated(Timestamp::from_secs(1000)), 1).unwrap();
    sharded.write_lines("lms", batch, Default::default()).unwrap();
    single.write_lines("lms", batch, Default::default()).unwrap();
    for q in ["SELECT v FROM cpu", "SHOW MEASUREMENTS", "SELECT mean(v) FROM cpu"] {
        assert_eq!(
            sharded.query("lms", q).unwrap(),
            single.query("lms", q).unwrap(),
            "query {q} diverged between shard counts"
        );
    }
    assert_eq!(sharded.point_count("lms"), single.point_count("lms"));
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("lms-influx-db-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn persistent(dir: &std::path::Path) -> Influx {
    Influx::open(
        Clock::simulated(Timestamp::from_secs(1000)),
        DEFAULT_SHARDS,
        StorageConfig::new(dir),
    )
    .unwrap()
}

#[test]
fn non_finite_floats_are_rejected_and_stay_out_across_a_restart() {
    let dir = tmp_dir("non-finite");
    let body = "m v=1\nm v=nan\nm v=-Infinity\nm w=inf 5\nm v=1e999\nm w=2 5";
    let before = {
        let ix = persistent(&dir);
        let out = ix.write_lines("lms", body, Default::default()).unwrap();
        assert_eq!((out.written, out.rejected), (2, 4));
        assert_eq!(out.first_error.unwrap().0, 2);
        ix.query("lms", "SELECT v, w FROM m").unwrap()
    };
    assert_eq!(before.series[0].values.len(), 2, "{before:?}");
    // The WAL holds the accepted lines only: a replay answers the same.
    let ix = persistent(&dir);
    assert_eq!(ix.query("lms", "SELECT v, w FROM m").unwrap(), before);
    drop(ix);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_after_flush_serves_identical_queries() {
    let dir = tmp_dir("flush-restart");
    let queries = [
        "SELECT v FROM cpu",
        "SELECT mean(v), max(v) FROM cpu",
        "SHOW MEASUREMENTS",
        "SELECT v FROM cpu WHERE hostname = 'h2'",
    ];
    let before: Vec<QueryResult> = {
        let ix = persistent(&dir);
        ix.write_lines(
            "lms",
            "cpu,hostname=h1 v=1 1\ncpu,hostname=h2 v=2 2\nmem,hostname=h1 used=3i 3",
            Default::default(),
        )
        .unwrap();
        assert!(ix.flush_storage().unwrap() > 0);
        queries.iter().map(|q| ix.query("lms", q).unwrap()).collect()
    };
    let ix = persistent(&dir);
    for (q, expect) in queries.iter().zip(before) {
        assert_eq!(ix.query("lms", q).unwrap(), expect, "query {q} diverged after restart");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_user_copy_stored_before_views_answers_the_same_through_the_view() {
    // A data directory from when the router copied each job line into
    // `user_<name>`: it opens, and the view answers what the copy did.
    let dir = tmp_dir("user-copy");
    let mine = "cpu,hostname=h1,jobid=7,user=alice v=1 1\n\
                cpu,hostname=h1,jobid=7,user=alice v=2 2\n\
                mem,hostname=h1,jobid=7,user=alice used=3i 3";
    let queries = [
        "SELECT v FROM cpu",
        "SELECT sum(v), count(v) FROM cpu GROUP BY hostname",
        "SHOW MEASUREMENTS",
        "SHOW TAG VALUES FROM cpu WITH KEY = hostname",
        "SHOW FIELD KEYS FROM mem",
    ];
    let copied: Vec<QueryResult> = {
        let ix = persistent(&dir);
        let all = format!("{mine}\ncpu,hostname=h2 v=9 1");
        ix.write_lines("lms", &all, Default::default()).unwrap();
        ix.create_database("user_alice");
        ix.write_lines("user_alice", mine, Default::default()).unwrap();
        ix.flush_storage().unwrap();
        let copy = ix.database("user_alice").unwrap();
        let run = |q: &str| Statement::parse(q).and_then(|stmt| {
            exec::execute(&stmt, &copy, None, &[], 0)
        });
        queries.iter().map(|q| run(q).unwrap()).collect()
    };
    let ix = persistent(&dir);
    assert!(ix.database_names().contains(&"user_alice".to_string()));
    for (q, want) in queries.iter().zip(copied) {
        assert_eq!(ix.query("user_alice", q).unwrap(), want, "{q}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_without_flush_replays_wal() {
    // Replay goes through the batch path: `cpu` is sealed, then two
    // unflushed WAL records overwrite one `(series, ts)` of it and `mem`
    // exists only in the log — every answer must survive the reopen.
    let dir = tmp_dir("wal-restart");
    let queries =
        ["SELECT v FROM cpu", "SELECT used FROM mem", "SHOW MEASUREMENTS", "SELECT sum(v) FROM cpu"];
    let before: Vec<QueryResult> = {
        let ix = persistent(&dir);
        ix.write_lines("lms", "cpu,host=b v=1 1\ncpu,host=a v=2 2", Default::default()).unwrap();
        ix.flush_storage().unwrap();
        for batch in ["cpu,host=a v=7 2\nmem,host=a used=3i 3", "cpu,host=a v=9 2"] {
            ix.write_lines("lms", batch, Default::default()).unwrap();
        }
        queries.iter().map(|q| ix.query("lms", q).unwrap()).collect()
    };
    assert_eq!(before[3].series[0].values[0][1].as_f64(), Some(10.0), "last overwrite wins");
    let ix = persistent(&dir);
    assert_eq!(ix.storage_stats().recovered_records, 2);
    for (q, expect) in queries.iter().zip(before) {
        assert_eq!(ix.query("lms", q).unwrap(), expect, "query {q} diverged after replay");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_preserves_server_assigned_timestamps() {
    // Lines without timestamps get server time at write; the WAL must
    // record the *resolved* timestamp, not re-stamp at replay.
    let dir = tmp_dir("normalize");
    let before = {
        let ix = persistent(&dir);
        ix.write_lines("lms", "cpu v=1", Default::default()).unwrap();
        ix.query("lms", "SELECT v FROM cpu").unwrap()
    };
    let ix = Influx::open(
        Clock::simulated(Timestamp::from_secs(9999)), // different "now"
        DEFAULT_SHARDS,
        StorageConfig::new(&dir),
    )
    .unwrap();
    assert_eq!(ix.query("lms", "SELECT v FROM cpu").unwrap(), before);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recursively finds segment files under `dir` whose name starts with
/// `prefix`.
fn find_segments(dir: &std::path::Path, prefix: &str) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(prefix) && n.ends_with(".tsm"))
            {
                out.push(path);
            }
        }
    }
    out
}

#[test]
fn unsafe_db_names_are_refused() {
    let dir = tmp_dir("unsafe-name");
    let ix = persistent(&dir);
    let refused = ix.write_lines("weird/../name", "m v=1 1", Default::default());
    assert!(matches!(refused, Err(Error::Protocol(_))), "{refused:?}");
    let created = ix.query("", "CREATE DATABASE \"a.b\"");
    assert!(matches!(created, Err(Error::Protocol(_))), "{created:?}");
    ix.create_database("weird/../name");
    assert_eq!(ix.database_names(), Vec::<String>::new(), "nothing registered");
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "nothing on disk");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_write_whose_wal_append_fails_never_lands() {
    let dir = tmp_dir("refused-write");
    let count = |ix: &Influx| {
        let r = ix.query("lms", "SELECT count(v) FROM d").unwrap();
        r.series.first().map_or(0, |s| s.values[0][1].as_i64().unwrap())
    };
    {
        let ix = persistent(&dir);
        ix.create_database("lms");
        let db = ix.database("lms").unwrap();
        // A flush closes the active WAL segment; a full disk (`/dev/full`)
        // then waits under the log's next files.
        db.flush_storage().unwrap();
        let wal = dir.join("lms").join("wal");
        let full: Vec<PathBuf> = (0..64)
            .map(|seq| wal.join(format!("{seq:016x}.wal")))
            .filter(|p| !p.exists())
            .collect();
        for p in &full {
            std::os::unix::fs::symlink("/dev/full", p).unwrap();
        }
        assert!(ix.write_lines("lms", "d v=1 5", Default::default()).is_err());
        assert_eq!(count(&ix), 0, "a refused write is not read");
        for p in &full {
            let _ = std::fs::remove_file(p);
        }
        assert!(db.engine().probe(), "the freed disk heals the node");
        ix.flush_storage().unwrap();
        assert_eq!(count(&ix), 0, "nor sealed by the next flush");
    }
    assert_eq!(count(&persistent(&dir)), 0, "nor found after a reopen");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_last_handle_of_a_scratch_node_removes_its_directory() {
    for worker in [false, true] {
        let ix = influx();
        let dir = ix.inner.read().storage.data_dir.clone();
        let worker = worker.then(|| ix.spawn_storage_worker().unwrap());
        ix.write_lines("lms", "m v=1 1", Default::default()).unwrap();
        ix.flush_storage().unwrap();
        assert!(dir.join("lms").is_dir());
        let clone = ix.clone();
        drop(ix);
        assert!(dir.is_dir(), "a handle is left");
        drop(clone);
        // The worker holds a handle of its own until it stops.
        let stopped = worker.is_some();
        drop(worker);
        assert!(!dir.exists(), "worker {stopped}: the directory outlived every handle");
    }
}

#[test]
fn concurrent_writers_to_one_database() {
    let ix = influx();
    ix.create_database("lms");
    std::thread::scope(|scope| {
        for w in 0..4 {
            let ix = ix.clone();
            scope.spawn(move || {
                for batch in 0..10 {
                    let mut text = String::new();
                    for i in 0..25 {
                        let ts = (w * 1000 + batch * 25 + i) as i64;
                        text.push_str(&format!("m,writer=w{w} v={i} {ts}\n"));
                    }
                    ix.write_lines("lms", &text, Default::default()).unwrap();
                }
            });
        }
    });
    assert_eq!(ix.point_count("lms"), 4 * 10 * 25);
    assert_eq!(ix.series_count("lms"), 4);
}

// Flush and compaction (`seal`).

#[test]
fn overwrite_across_flush_boundary_resolves_last_write() {
    let dir = tmp_dir("lww");
    let ix = persistent(&dir);
    ix.write_lines("lms", "m v=1 5", Default::default()).unwrap();
    ix.flush_storage().unwrap();
    ix.write_lines("lms", "m v=2 5", Default::default()).unwrap();
    let r = ix.query("lms", "SELECT v FROM m").unwrap();
    assert_eq!(r.series[0].values[0][1].as_f64().unwrap(), 2.0, "head beats sealed");
    ix.flush_storage().unwrap();
    drop(ix);
    let ix = persistent(&dir);
    let r = ix.query("lms", "SELECT v FROM m").unwrap();
    assert_eq!(r.series[0].values.len(), 1);
    assert_eq!(
        r.series[0].values[0][1].as_f64().unwrap(),
        2.0,
        "newer generation beats older after restart"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compaction_preserves_results_and_shrinks_files() {
    let dir = tmp_dir("compact");
    let ix = persistent(&dir);
    for round in 0..5 {
        let mut batch = String::new();
        for i in 0..20 {
            batch.push_str(&format!("m v={} {}\n", round * 100 + i, i));
        }
        ix.write_lines("lms", &batch, Default::default()).unwrap();
        ix.flush_storage().unwrap();
    }
    let before = ix.query("lms", "SELECT v FROM m").unwrap();
    let files_before = ix.storage_stats().segment_files;
    assert!(files_before >= 5);
    assert!(ix.compact_storage().unwrap() > 0);
    assert_eq!(ix.query("lms", "SELECT v FROM m").unwrap(), before);
    let stats = ix.storage_stats();
    assert!(stats.segment_files < files_before, "compaction merges files");
    assert_eq!(stats.compactions, 1);
    assert_eq!(
        stats.sealed_points, 20,
        "overwritten versions are dropped by compaction"
    );
    drop(ix);
    let ix = persistent(&dir);
    assert_eq!(ix.query("lms", "SELECT v FROM m").unwrap(), before);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn background_compaction_rewrites_only_due_partitions() {
    let dir = tmp_dir("compact-scope");
    let ix = persistent(&dir);
    // 2h partitions: 1s → partition 0, 8000s → 1, 15000s → 2. Four
    // flushes put four files into partition 1 (with overwrites across
    // them); partitions 0 and 2 get two files and one.
    const S: i64 = 1_000_000_000;
    for round in 0..4i64 {
        let mut batch = String::new();
        for i in 0..30 {
            let ts = (8000 + i * 100 + (round % 2) * 50) * S; // both 1h spans
            batch.push_str(&format!("m,host=h{} v={},w={i}i {ts}\n", i % 3, round * 100 + i));
        }
        if round < 2 {
            batch.push_str(&format!("m,host=h0 v={round},w=1i {}\n", (1 + round) * S));
        }
        if round == 0 {
            batch.push_str(&format!("m,host=h1 v=7,w=2i {}\n", 15000 * S));
            batch.push_str(&format!("n,host=h1 x=1 {}\n", 15001 * S));
        }
        ix.write_lines("lms", &batch, Default::default()).unwrap();
        ix.flush_storage().unwrap();
    }
    let queries = [
        "SELECT v, w FROM m",
        "SELECT mean(v), count(w) FROM m GROUP BY time(1h)",
        "SELECT max(v) FROM m WHERE host = 'h1' GROUP BY time(30m)",
        "SELECT x FROM n",
        "SHOW MEASUREMENTS",
    ];
    let answers = |ix: &Influx| -> Vec<QueryResult> {
        queries.iter().map(|q| ix.query("lms", q).unwrap()).collect()
    };
    let files = |prefix: &str| -> Vec<(PathBuf, Vec<u8>)> {
        let mut found: Vec<(PathBuf, Vec<u8>)> = find_segments(&dir, prefix)
            .into_iter()
            .map(|p| (p.clone(), std::fs::read(&p).unwrap()))
            .collect();
        found.sort();
        found
    };
    let before = answers(&ix);
    let (p0, p2) = (files("seg-0-"), files("seg-2-"));
    assert_eq!((p0.len(), files("seg-1-").len(), p2.len()), (2, 4, 1));

    assert!(ix.compact_storage().unwrap() > 0);
    assert_eq!(files("seg-1-").len(), 1, "the due partition is merged into one file");
    assert_eq!(files("seg-0-"), p0, "partition 0 keeps its files, byte for byte");
    assert_eq!(files("seg-2-"), p2, "partition 2 keeps its file, byte for byte");
    assert_eq!(ix.storage_stats().compactions, 1);
    assert_eq!(answers(&ix), before);
    assert_eq!(ix.compact_storage().unwrap(), 0, "nothing is due any more");
    drop(ix);

    let ix = persistent(&dir);
    assert_eq!(answers(&ix), before, "diverged after reopen");
    // A major compaction still merges every partition: one block per
    // column, partition and span.
    let db = ix.database("lms").unwrap();
    assert!(db.compact_storage().unwrap() > 0);
    assert_eq!(answers(&ix), before);
    for partition in ["seg-0-", "seg-1-", "seg-2-"] {
        assert_eq!(files(partition).len(), 1, "{partition}: merged into one file");
    }
    let engine = db.engine();
    for series in db.series_where("m", &[]) {
        for (field, col) in series.fields() {
            let mut spans: Vec<i64> =
                col.sealed().iter().map(|b| engine.span_of(b.min_ts)).collect();
            let blocks = spans.len();
            spans.sort_unstable();
            spans.dedup();
            assert_eq!(spans.len(), blocks, "{field}: two blocks in one span");
        }
    }
    drop(ix);
    assert_eq!(answers(&persistent(&dir)), before);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flush_fault_injection_keeps_data_and_recovers() {
    let dir = tmp_dir("flush-fault");
    {
        let ix = persistent(&dir);
        ix.write_lines("lms", "m v=1 1\nm v=2 2", Default::default()).unwrap();
        let db = ix.database("lms").unwrap();
        // A full disk (`/dev/full`) at the first segment's temp path.
        let tmp = dir.join("lms").join("seg-0-0000000000000000.tmp");
        std::os::unix::fs::symlink("/dev/full", tmp).unwrap();
        assert!(db.flush_storage().is_err(), "the ENOSPC surfaces");
        // Reads still serve everything from memory.
        let r = ix.query("lms", "SELECT v FROM m").unwrap();
        assert_eq!(r.series[0].values.len(), 2);
        // Retry succeeds: the sealed-but-unwritten blocks are retried.
        assert!(db.flush_storage().unwrap() > 0);
    }
    let ix = persistent(&dir);
    assert_eq!(ix.point_count("lms"), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

// Retention sweeps (`retention`).

#[test]
fn retention_evicts_old_points() {
    let ix = influx();
    ix.set_retention("lms", Some(Duration::from_secs(100)));
    // now = 1000s; points at 850s (stale) and 950s (fresh)
    ix.write_lines("lms", "m v=1 850000000000\nm v=2 950000000000", Default::default())
        .unwrap();
    assert_eq!(ix.point_count("lms"), 2);
    let evicted = ix.enforce_retention();
    assert_eq!(evicted, 1);
    assert_eq!(ix.point_count("lms"), 1);
}

#[test]
fn retention_gc_removes_empty_series() {
    let ix = influx();
    ix.set_retention("lms", Some(Duration::from_secs(10)));
    ix.write_lines("lms", "old v=1 1", Default::default()).unwrap();
    ix.enforce_retention();
    assert_eq!(ix.series_count("lms"), 0);
    let r = ix.query("lms", "SHOW MEASUREMENTS").unwrap();
    assert!(r.series.is_empty() || r.series[0].values.is_empty());
}

#[test]
fn retention_drops_expired_segment_files() {
    let dir = tmp_dir("segment-retention");
    let ix = Influx::open(
        Clock::simulated(Timestamp::from_secs(1000)),
        DEFAULT_SHARDS,
        StorageConfig {
            partition: Duration::from_secs(60),
            ..StorageConfig::new(&dir)
        },
    )
    .unwrap();
    ix.set_retention("lms", Some(Duration::from_secs(100)));
    // now = 1000s; one point far in the past, one fresh.
    ix.write_lines("lms", "m v=1 100000000000\nm v=2 950000000000", Default::default())
        .unwrap();
    ix.flush_storage().unwrap();
    assert_eq!(ix.storage_stats().segment_files, 2, "points land in distinct partitions");
    assert_eq!(ix.enforce_retention(), 1);
    let stats = ix.storage_stats();
    assert_eq!(stats.segment_files, 1, "expired partition file unlinked");
    assert_eq!(ix.point_count("lms"), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retention_churn_keeps_shard_maps_bounded() {
    // Churning tag sets: every round writes 200 fresh series, then the
    // clock advances past retention and the sweep must fully remove
    // them — both the entries and (eventually) the map capacity.
    let clock = Clock::simulated(Timestamp::from_secs(1000));
    let ix = Influx::new(clock.clone()).unwrap();
    ix.set_retention("lms", Some(Duration::from_secs(10)));
    for round in 0..30 {
        let mut batch = String::new();
        let now = clock.now().nanos();
        for i in 0..200 {
            batch.push_str(&format!("jobs,job=r{round}x{i} v=1 {now}\n"));
        }
        ix.write_lines("lms", &batch, Default::default()).unwrap();
        clock.advance(Duration::from_secs(60));
        ix.enforce_retention();
        assert_eq!(ix.series_count("lms"), 0, "round {round}: all series expired");
    }
    // After 6000 series came and went, the shard maps must not retain
    // capacity proportional to the historical total.
    let db = ix.database("lms").unwrap();
    let capacity: usize =
        db.shards.iter().map(|s| s.data.read().series.capacity()).sum();
    assert!(
        capacity <= 2048,
        "shard map capacity {capacity} should be bounded, not ~6000"
    );
    assert_eq!(ix.point_count("lms"), 0);
    let _ = ix.query("lms", "SHOW MEASUREMENTS").unwrap();
}

#[test]
fn no_writer_waits_for_a_compaction_behind_a_flush_or_a_sweep() {
    // A compaction session holds the engine's maintenance lock; a flush,
    // then a retention sweep, waits for it on a second thread. A batch
    // written on a third thread meanwhile must not wait with them.
    let ix = influx();
    ix.set_retention("lms", Some(Duration::from_secs(100)));
    ix.write_lines("lms", "m v=1 950000000000", Default::default()).unwrap();
    let db = ix.database("lms").unwrap();
    for (ts, maintenance) in [(960, "flush"), (970, "retention sweep")] {
        let compaction = db.engine().begin_rewrite(None);
        std::thread::scope(|s| {
            let (ix, db) = (&ix, &db);
            s.spawn(move || match maintenance {
                "flush" => drop(db.flush_storage().unwrap()),
                _ => drop(ix.enforce_retention()),
            });
            // Lets the maintenance thread reach the lock it waits for.
            std::thread::sleep(Duration::from_millis(100));
            let (tx, rx) = std::sync::mpsc::channel();
            s.spawn(move || {
                ix.write_lines("lms", &format!("m v=2 {ts}000000000"), Default::default()).unwrap();
                tx.send(()).unwrap();
            });
            let returned = rx.recv_timeout(Duration::from_secs(1)).is_ok();
            drop(compaction);
            assert!(returned, "a write waited behind a {maintenance} waiting for a compaction");
        });
    }
    assert_eq!(ix.point_count("lms"), 3);
}

// The rollup driver (`rollup`).

#[test]
fn retention_clamps_at_the_tier_boundary() {
    // Regression: with rollups on, raw eviction stops at the last
    // *complete* 1h window below the rollup watermark — a retention
    // cutoff straddling a tier window must not strand a partially
    // rolled hour. Aggressive raw retention (100s, now = 36000s)
    // would otherwise evict everything.
    let ix = Influx::new(Clock::simulated(Timestamp::from_secs(36_000))).unwrap();
    let body: String = (0..7000i64)
        .map(|s| format!("m v={} {}\n", s % 10, s * 1_000_000_000))
        .collect();
    ix.write_lines("lms", &body, Default::default()).unwrap();
    ix.enable_rollups(RollupPolicy {
        retention_raw: Some(Duration::from_secs(100)),
        ..Default::default()
    })
    .unwrap();
    let evicted = ix.enforce_retention();
    // Watermark ≈ 7000s → clamp = align_down(7000s, 1h) = 3600s:
    // the first full hour goes, the straddled second hour stays.
    assert_eq!(evicted, 3600, "eviction must stop at the 1h tier boundary");
    assert_eq!(ix.point_count("lms"), 7000 - 3600);
    // The evicted hour is still fully answerable through the tiers.
    let r = ix.query("lms", "SELECT count(v) FROM m").unwrap();
    assert_eq!(r.series[0].values[0][1].as_i64().unwrap(), 7000);
}

#[test]
fn unrolled_points_survive_retention() {
    // Rollups enabled but no pass has run yet (no watermark): raw
    // eviction must hold off entirely rather than drop points no
    // tier covers.
    let ix = Influx::new(Clock::simulated(Timestamp::from_secs(36_000))).unwrap();
    ix.enable_rollups(RollupPolicy {
        retention_raw: Some(Duration::from_secs(100)),
        ..Default::default()
    })
    .unwrap();
    // Two stale points in hour 0, one fresh point past the hour mark
    // (so the post-pass clamp = align_down(watermark, 1h) = 3600s).
    ix.write_lines(
        "lms",
        "m v=1 1000000000\nm v=2 2000000000\nm v=3 7201000000000",
        Default::default(),
    )
    .unwrap();
    assert_eq!(ix.enforce_retention(), 0, "unrolled points must not be evicted");
    assert_eq!(ix.point_count("lms"), 3);
    // After a rollup pass covers them, eviction proceeds up to the clamp.
    ix.flush_storage().unwrap();
    assert_eq!(ix.enforce_retention(), 2);
    let r = ix.query("lms", "SELECT count(v) FROM m").unwrap();
    assert_eq!(r.series[0].values[0][1].as_i64().unwrap(), 3, "tier coverage lost");
}

#[test]
fn a_flush_seals_the_tier_heads_when_the_pass_has_no_range() {
    let ix = Influx::new(Clock::simulated(Timestamp::from_secs(1000))).unwrap();
    ix.enable_rollups(RollupPolicy::default()).unwrap();
    ix.write_lines("lms", "m v=1 1000000000", Default::default()).unwrap();
    ix.flush_storage().unwrap();
    // An agent's row; the base has nothing new, so the pass recomputes
    // nothing and flushes the 1m tier's head: the row and the watermark.
    ix.write_lines("lms__rollup_1m", "m v__count=1i 0", Default::default()).unwrap();
    assert_eq!(ix.flush_storage().unwrap(), 2, "the 1m tier's head is sealed once");
    assert_eq!(ix.rollup_counters().1, 2, "one 1m row and one 1h row, both in the first pass");
    assert_eq!(ix.database("lms__rollup_1m").unwrap().head_point_count(), 0);
}

#[test]
fn a_failed_rollup_pass_hands_its_ranges_back() {
    // A first pass takes the watermark past three hours of data; a
    // backfill into hour 1 is then sealed without a pass, so only its
    // sealed range names the windows it touches.
    const S: i64 = 1_000_000_000;
    let history: String =
        (0..3 * 3600i64).step_by(30).map(|s| format!("m,host=h1 v={} {}\n", s % 7, s * S)).collect();
    let backfill: String =
        (3600..7200i64).step_by(45).map(|s| format!("m,host=h1 v=100 {}\n", s * S + 7)).collect();
    let tiers = |ix: &Influx| -> Vec<String> {
        let mut rows: Vec<String> = ["lms__rollup_1m", "lms__rollup_1h"]
            .iter()
            .flat_map(|tier| {
                let lines = ix.database(tier).unwrap().export_lines(i64::MIN, i64::MAX);
                lines.lines().map(|l| format!("{tier} {l}")).collect::<Vec<_>>()
            })
            .collect();
        rows.sort_unstable();
        rows
    };
    let run = |tag: &str, fail: bool| -> Vec<String> {
        let dir = tmp_dir(tag);
        let ix = persistent(&dir);
        ix.enable_rollups(RollupPolicy::default()).unwrap();
        ix.write_lines("lms", &history, Default::default()).unwrap();
        ix.flush_storage().unwrap();
        ix.write_lines("lms", &backfill, Default::default()).unwrap();
        ix.database("lms").unwrap().flush_storage().unwrap();
        let minute = ix.database("lms__rollup_1m").unwrap();
        if fail {
            // A full disk (`/dev/full`) at the 1m tier's next segment paths.
            let tier = dir.join("lms__rollup_1m");
            let full: Vec<PathBuf> = (0..64)
                .map(|seq| tier.join(format!("seg-0-{seq:016x}.tmp")))
                .filter(|p| !p.exists())
                .collect();
            for p in &full {
                std::os::unix::fs::symlink("/dev/full", p).unwrap();
            }
            assert!(ix.rollup_pass("lms").is_err(), "the 1m tier's segment refuses the rows");
            for p in &full {
                let _ = std::fs::remove_file(p);
            }
            assert!(minute.engine().probe(), "the freed disk heals the tier");
        }
        assert!(ix.rollup_pass("lms").unwrap() > 0, "the backfill's windows are recomputed");
        let rows = tiers(&ix);
        drop(ix);
        // What the passes sealed and logged rebuilds the same rows.
        assert_eq!(tiers(&persistent(&dir)), rows, "{tag}: diverged after reopen");
        let _ = std::fs::remove_dir_all(&dir);
        rows
    };
    assert_eq!(run("rollup-fault", true), run("rollup-clean", false));
}

// Scrub, quarantine and repair reads (`integrity`).

#[test]
fn scrub_quarantines_damage_and_replica_replay_heals_it() {
    let dir_a = tmp_dir("scrub-a");
    let dir_b = tmp_dir("scrub-b");
    let ix_a = persistent(&dir_a);
    let ix_b = persistent(&dir_b);
    // Two 2h partitions: ts 1s lands in partition 0, ts 8000s in
    // partition 1.
    let batch = "m,host=h1 v=1 1000000000\nm,host=h1 v=2 8000000000000";
    for ix in [&ix_a, &ix_b] {
        ix.write_lines("lms", batch, Default::default()).unwrap();
        ix.flush_storage().unwrap();
    }
    let digest = |ix: &Influx| ix.integrity_digests("lms", 2, 2, 7).unwrap();
    assert_eq!(digest(&ix_a), digest(&ix_b), "identical replicas must agree");

    // Corrupt partition 1's segment on node A (flip a payload bit).
    let seg = find_segments(&dir_a, "seg-1-").pop().expect("partition-1 segment");
    let mut bytes = std::fs::read(&seg).unwrap();
    bytes[16] ^= 0x01;
    std::fs::write(&seg, &bytes).unwrap();

    let db_a = ix_a.database("lms").unwrap();
    let mut quarantined = 0;
    loop {
        let out = db_a.scrub_storage(u64::MAX).unwrap();
        quarantined += out.quarantined.len();
        if out.cycle_completed {
            break;
        }
    }
    assert_eq!(quarantined, 1);
    let stats = ix_a.storage_stats();
    assert_eq!(stats.quarantined_segments, 1);
    assert_eq!(stats.damaged_ranges, 1);
    assert!(stats.corrupt_frames >= 1);
    assert!(seg.with_extension("tsm.quarantine").exists() || !seg.exists());
    // Reads stop serving the damaged partition but keep the healthy one.
    let r = ix_a.query("lms", "SELECT v FROM m").unwrap();
    assert_eq!(r.series[0].values.len(), 1, "damaged partition must not be served");
    assert_eq!(r.series[0].values[0][1].as_f64(), Some(1.0));
    assert_ne!(digest(&ix_a), digest(&ix_b), "loss must be visible in digests");

    // Anti-entropy in miniature: replay the healthy replica's export of
    // the damaged range through the normal write path.
    let damaged = db_a.engine().damaged_ranges();
    assert_eq!(damaged.len(), 1);
    let lines = ix_b.integrity_export("lms", damaged[0].start_ns, damaged[0].end_ns).unwrap();
    assert!(lines.contains("v=2"), "{lines}");
    ix_a.write_lines("lms", &lines, Default::default()).unwrap();
    let r = ix_a.query("lms", "SELECT v FROM m").unwrap();
    assert_eq!(r.series[0].values.len(), 2, "repair must restore the lost point");
    assert_eq!(digest(&ix_a), digest(&ix_b), "replicas must reconverge after repair");
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

// The storage worker (`worker`).

#[test]
fn storage_worker_flushes_in_background() {
    let dir = tmp_dir("worker");
    let ix = Influx::open(
        Clock::simulated(Timestamp::from_secs(1000)),
        DEFAULT_SHARDS,
        StorageConfig {
            flush_points: 10,
            flush_interval: Duration::from_secs(3600), // only the point trigger
            ..StorageConfig::new(&dir)
        },
    )
    .unwrap();
    let worker = ix.spawn_storage_worker().expect("storage configured");
    let mut batch = String::new();
    for i in 0..50 {
        batch.push_str(&format!("m v={i} {i}\n"));
    }
    ix.write_lines("lms", &batch, Default::default()).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while ix.storage_stats().sealed_points == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(ix.storage_stats().sealed_points > 0, "worker flushed on point threshold");
    worker.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// What the test below has seen of one database: its segment files and
/// sealed values at the last look, and `(when, values sealed)` per
/// flush noticed.
#[derive(Default)]
struct Seen {
    files: u64,
    sealed: u64,
    flushes: Vec<(Duration, u64)>,
}

#[test]
fn every_flush_is_size_triggered_or_a_full_interval_after_the_last() {
    const INTERVAL: Duration = Duration::from_millis(1000);
    const FLUSH_POINTS: usize = 300;
    let dir = tmp_dir("flush-cadence");
    let ix = Influx::open(
        Clock::simulated(Timestamp::from_secs(1000)),
        DEFAULT_SHARDS,
        StorageConfig {
            flush_points: FLUSH_POINTS,
            flush_interval: INTERVAL,
            compact_min_files: 1 << 20, // one segment file per flush, kept
            ..StorageConfig::new(&dir)
        },
    )
    .unwrap();
    ix.create_database("fast");
    ix.create_database("slow");
    let worker = ix.spawn_storage_worker().expect("storage configured");
    // `fast` fills the size trigger about every 0.4 s, never waiting
    // out an interval; `slow` only ever reaches the interval. Each
    // flush of a database adds one segment file: watch for them.
    let stop = AtomicBool::new(false);
    let flushes = std::thread::scope(|scope| {
        let writer = |db: &'static str, values_per_write: i64| {
            let (ix, stop) = (&ix, &stop);
            scope.spawn(move || {
                let mut ts = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    let body: String = (0..values_per_write)
                        .map(|i| format!("m,s=s{i} v=1 {}\n", ts + i))
                        .collect();
                    ts += values_per_write;
                    ix.write_lines(db, &body, Default::default()).unwrap();
                    std::thread::sleep(Duration::from_millis(20));
                }
            });
        };
        writer("fast", 15);
        writer("slow", 1);
        let started = std::time::Instant::now();
        let mut seen: FxHashMap<&str, Seen> = FxHashMap::default();
        while started.elapsed() < Duration::from_millis(3600) {
            for name in ["fast", "slow"] {
                let stats = ix.database(name).unwrap().storage_stats();
                let seen = seen.entry(name).or_default();
                if stats.segment_files > seen.files {
                    seen.flushes.push((started.elapsed(), stats.sealed_points - seen.sealed));
                    (seen.files, seen.sealed) = (stats.segment_files, stats.sealed_points);
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::Relaxed);
        seen
    });
    worker.stop();
    // A flush is seen up to a poll (and a busy box's scheduling delay)
    // after it happened, so a gap may read that much short.
    let slack = Duration::from_millis(300);
    for (name, Seen { flushes: log, .. }) in &flushes {
        assert!(log.len() >= 2, "{name}: too few flushes observed: {log:?}");
        let mut previous = Duration::ZERO; // the worker first saw the database about here
        for &(at, sealed) in log {
            assert!(
                sealed >= FLUSH_POINTS as u64 || at - previous + slack >= INTERVAL,
                "{name}: a flush of {sealed} values {:?} after the previous one: {log:?}",
                at - previous
            );
            previous = at;
        }
    }
    let sizes = |name: &str| flushes[name].flushes.iter().map(|&(_, n)| n).collect::<Vec<_>>();
    assert!(sizes("fast").iter().any(|&n| n >= FLUSH_POINTS as u64), "{:?}", sizes("fast"));
    assert!(sizes("slow").iter().all(|&n| n < FLUSH_POINTS as u64), "{:?}", sizes("slow"));
    let _ = std::fs::remove_dir_all(&dir);
}
