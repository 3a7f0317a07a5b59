//! `lms-influxd` — the time-series database as a standalone daemon.
//!
//! ```text
//! lms-influxd --data-dir DIR [--listen 127.0.0.1:8086] [--db lms]...
//!             [--retention-hours N] [--flush-points N] [--flush-interval-secs N]
//!             [--partition-hours N] [--compact-min-files N] [--wal-fsync]
//!             [--wal-group-commit-ms N] [--wal-group-commit-bytes N]
//!             [--scrub-interval-secs N] [--scrub-rate-bytes N]
//!             [--max-connections N] [--max-body-bytes N]
//! ```
//!
//! Serves the InfluxDB-compatible HTTP API until interrupted: `/ping`,
//! `/write`, `/query`, `/query_range`, `/metrics`, `/labels/{m}`,
//! `/health/live`, `/health/ready`, `/stats` and the repair pass's
//! `/integrity` and `/integrity/export` (see `lms_influx::server`). Any
//! existing collector that can speak to InfluxDB can point at it (the
//! paper's integration premise).
//!
//! `--data-dir` is required: every database the daemon holds lives under
//! it, one directory each, named after it (a name that cannot be a
//! directory name — `/`, `.` or anything else but ASCII letters, digits,
//! `_` and `-` — is refused with `400`). Every write is appended to a
//! write-ahead log and periodically sealed into compressed segment files;
//! a restarted daemon replays both and serves the same queries as before
//! the restart. A database is sealed once its oldest
//! un-sealed value is `--flush-interval-secs` old, or earlier when it holds
//! `--flush-points` un-sealed field values — a bound on head memory and WAL
//! replay length, not a block size.

use lms_http::ServerConfig;
use lms_influx::{Influx, InfluxServer, RollupPolicy, StorageConfig};
use lms_util::{Clock, Error, Result};
use std::time::Duration;

fn parse_num<T: std::str::FromStr>(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<T> {
    it.next()
        .ok_or_else(|| Error::config(format!("{flag} needs a value")))?
        .parse()
        .map_err(|_| Error::config(format!("bad {flag}")))
}

/// Parses a `--retention-*` duration value like `90d`, `6h`, `30m`
/// (the same literal grammar queries use).
fn parse_retention(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<Duration> {
    let raw = it.next().ok_or_else(|| Error::config(format!("{flag} needs a duration")))?;
    let ns = lms_influx::query::parse_duration_ns(raw)
        .map_err(|_| Error::config(format!("bad {flag} `{raw}`: expected e.g. 90d, 6h, 30m")))?;
    if ns <= 0 {
        return Err(Error::config(format!("{flag} must be positive")));
    }
    Ok(Duration::from_nanos(ns as u64))
}

fn run() -> Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut listen = "127.0.0.1:8086".to_string();
    let mut databases: Vec<String> = Vec::new();
    let mut retention: Option<Duration> = None;
    let mut rollup: Option<RollupPolicy> = None;
    // The storage flags set their field over the defaults; the directory
    // comes with `--data-dir`, which is required.
    let mut storage = StorageConfig::new("");
    let mut server_config = ServerConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--listen" => {
                listen = it.next().ok_or_else(|| Error::config("--listen needs an address"))?.clone()
            }
            "--db" => databases
                .push(it.next().ok_or_else(|| Error::config("--db needs a name"))?.clone()),
            "--retention-hours" => {
                let h: u64 = parse_num(&mut it, "--retention-hours")?;
                retention = Some(Duration::from_secs(h * 3600));
            }
            // Tiered retention: any of these turns the downsampling
            // pipeline on (raw → 1m → 1h rollup databases).
            "--retention-raw" => {
                rollup.get_or_insert_with(RollupPolicy::default).retention_raw =
                    Some(parse_retention(&mut it, "--retention-raw")?);
            }
            "--retention-1m" => {
                rollup.get_or_insert_with(RollupPolicy::default).retention_1m =
                    Some(parse_retention(&mut it, "--retention-1m")?);
            }
            "--retention-1h" => {
                rollup.get_or_insert_with(RollupPolicy::default).retention_1h =
                    Some(parse_retention(&mut it, "--retention-1h")?);
            }
            "--data-dir" => {
                let dir = it.next().ok_or_else(|| Error::config("--data-dir needs a path"))?;
                storage.data_dir = dir.into();
            }
            "--flush-points" => storage.flush_points = parse_num(&mut it, "--flush-points")?,
            "--flush-interval-secs" => {
                storage.flush_interval =
                    Duration::from_secs(parse_num(&mut it, "--flush-interval-secs")?)
            }
            "--partition-hours" => {
                let h: u64 = parse_num(&mut it, "--partition-hours")?;
                storage.partition = Duration::from_secs(h * 3600);
            }
            "--compact-min-files" => {
                storage.compact_min_files = parse_num(&mut it, "--compact-min-files")?
            }
            "--wal-fsync" => storage.wal_fsync = true,
            "--wal-group-commit-ms" => {
                storage.wal_group_commit =
                    Duration::from_millis(parse_num(&mut it, "--wal-group-commit-ms")?)
            }
            "--wal-group-commit-bytes" => {
                storage.wal_group_commit_bytes = parse_num(&mut it, "--wal-group-commit-bytes")?
            }
            // Background CRC scrub cadence and byte budget (0 disables).
            "--scrub-interval-secs" => {
                storage.scrub_interval =
                    Duration::from_secs(parse_num(&mut it, "--scrub-interval-secs")?)
            }
            "--scrub-rate-bytes" => {
                storage.scrub_rate_bytes = parse_num(&mut it, "--scrub-rate-bytes")?
            }
            "--max-connections" => {
                server_config.max_connections = parse_num(&mut it, "--max-connections")?
            }
            "--max-body-bytes" => {
                server_config.max_body_bytes = parse_num(&mut it, "--max-body-bytes")?
            }
            "--help" | "-h" => {
                println!(
                    "usage: lms-influxd --data-dir DIR [--listen addr:port] [--db name]...\n\
                     \x20                 [--retention-hours N]\n\
                     \x20                 [--retention-raw DUR] [--retention-1m DUR] [--retention-1h DUR]\n\
                     \x20                 [--flush-points N] [--flush-interval-secs N]\n\
                     \x20                 [--partition-hours N] [--compact-min-files N] [--wal-fsync]\n\
                     \x20                 [--wal-group-commit-ms N] [--wal-group-commit-bytes N]\n\
                     \x20                 [--scrub-interval-secs N] [--scrub-rate-bytes N]\n\
                     \x20                 [--max-connections N] [--max-body-bytes N]\n\
                     durations accept query-style literals: 90d, 6h, 30m, 45s\n\
                     --flush-interval-secs N  seal a database's heads once its oldest\n\
                     \x20    un-sealed value is N seconds old (default 10): the normal trigger\n\
                     --flush-points N  ...or once it holds N un-sealed field values (default\n\
                     \x20    1000000; a line with 5 fields counts 5): a bound on head memory\n\
                     \x20    (~40 B/value) and on the WAL a restart replays (~25 B/value),\n\
                     \x20    not a block size"
                );
                return Ok(());
            }
            other => return Err(Error::config(format!("unknown argument `{other}`"))),
        }
    }

    // No scratch default: a killed daemon never runs the drop that would
    // remove it, so every run would leak a directory.
    if storage.data_dir.as_os_str().is_empty() {
        return Err(Error::config("--data-dir DIR is required: every database is stored under it"));
    }
    let influx = Influx::open(Clock::system(), 8, storage.clone())?;
    if databases.is_empty() {
        databases.push("lms".to_string());
    }
    for db in &databases {
        // `CREATE DATABASE` answers the refusal `create_database` drops.
        influx
            .query(db, &format!("CREATE DATABASE \"{db}\""))
            .map_err(|e| Error::config(format!("--db `{db}`: {e}")))?;
        if retention.is_some() {
            influx.set_retention(db, retention);
        }
    }
    if let Some(policy) = &rollup {
        influx.enable_rollups(policy.clone())?;
        println!("rollups: raw={:?} 1m={:?} 1h={:?}", policy.retention_raw, policy.retention_1m, policy.retention_1h);
    }
    // Held for the daemon's lifetime: flushes and compacts in the background.
    let _worker = influx.spawn_storage_worker();
    let server = InfluxServer::start_with(listen.as_str(), server_config, influx.clone())?;
    println!("lms-influxd listening on http://{}", server.addr());
    println!("databases: {:?}", influx.database_names());
    let s = influx.storage_stats();
    println!(
        "persistence: {} ({} segment files, {} WAL records replayed)",
        storage.data_dir.display(), s.segment_files, s.recovered_records
    );

    // Retention sweep loop; runs until killed. The storage worker flushes
    // and compacts on its own cadence.
    loop {
        std::thread::sleep(Duration::from_secs(60));
        if retention.is_some() || rollup.is_some() {
            let evicted = influx.enforce_retention();
            if evicted > 0 {
                println!("retention: evicted {evicted} points");
            }
        }
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("lms-influxd: {e}");
        std::process::exit(1);
    }
}
