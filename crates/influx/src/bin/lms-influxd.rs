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
use lms_util::args::Args;
use lms_util::{Clock, Error, Result};
use std::time::Duration;

const USAGE: &str = "\
usage: lms-influxd --data-dir DIR [--listen addr:port] [--db name]...
                   [--retention-hours N]
                   [--retention-raw DUR] [--retention-1m DUR] [--retention-1h DUR]
                   [--flush-points N] [--flush-interval-secs N]
                   [--partition-hours N] [--compact-min-files N] [--wal-fsync]
                   [--wal-group-commit-ms N] [--wal-group-commit-bytes N]
                   [--scrub-interval-secs N] [--scrub-rate-bytes N]
                   [--max-connections N] [--max-body-bytes N]
durations accept query-style literals: 90d, 6h, 30m, 45s
--flush-interval-secs N  seal a database's heads once its oldest
     un-sealed value is N seconds old (default 10): the normal trigger
--flush-points N  ...or once it holds N un-sealed field values (default
     1000000; a line with 5 fields counts 5): a bound on head memory
     (~40 B/value) and on the WAL a restart replays (~25 B/value),
     not a block size";

fn run() -> Result<()> {
    let mut listen = "127.0.0.1:8086".to_string();
    let mut databases: Vec<String> = Vec::new();
    let mut retention: Option<Duration> = None;
    let mut rollup: Option<RollupPolicy> = None;
    // The storage flags set their field over the defaults; the directory
    // comes with `--data-dir`, which is required.
    let mut storage = StorageConfig::new("");
    let mut server_config = ServerConfig::default();
    let mut args = Args::from_env();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => listen = args.value()?,
            "--db" => databases.push(args.value()?),
            "--retention-hours" => {
                retention = Some(Duration::from_secs(args.parse::<u64>()?.saturating_mul(3600)))
            }
            // Tiered retention: any of these turns the downsampling
            // pipeline on (raw → 1m → 1h rollup databases).
            "--retention-raw" => {
                rollup.get_or_insert_default().retention_raw =
                    Some(args.parse_with(RollupPolicy::parse_retention)?)
            }
            "--retention-1m" => {
                rollup.get_or_insert_default().retention_1m =
                    Some(args.parse_with(RollupPolicy::parse_retention)?)
            }
            "--retention-1h" => {
                rollup.get_or_insert_default().retention_1h =
                    Some(args.parse_with(RollupPolicy::parse_retention)?)
            }
            "--data-dir" => storage.data_dir = args.value()?.into(),
            "--flush-points" => storage.flush_points = args.parse()?,
            "--flush-interval-secs" => storage.flush_interval = Duration::from_secs(args.parse()?),
            "--partition-hours" => {
                storage.partition = Duration::from_secs(args.parse::<u64>()?.saturating_mul(3600))
            }
            "--compact-min-files" => storage.compact_min_files = args.parse()?,
            "--wal-fsync" => storage.wal_fsync = true,
            "--wal-group-commit-ms" => {
                storage.wal_group_commit = Duration::from_millis(args.parse()?)
            }
            "--wal-group-commit-bytes" => storage.wal_group_commit_bytes = args.parse()?,
            // Background CRC scrub cadence and byte budget (0 disables).
            "--scrub-interval-secs" => storage.scrub_interval = Duration::from_secs(args.parse()?),
            "--scrub-rate-bytes" => storage.scrub_rate_bytes = args.parse()?,
            "--max-connections" => server_config.max_connections = args.parse()?,
            "--max-body-bytes" => server_config.max_body_bytes = args.parse()?,
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            _ => return Err(args.unknown()),
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
        println!(
            "rollups: raw={:?} 1m={:?} 1h={:?}",
            policy.retention_raw, policy.retention_1m, policy.retention_1h
        );
    }
    // Held for the daemon's lifetime: flushes and compacts in the background.
    let _worker = influx.spawn_storage_worker();
    let server = InfluxServer::start_with(listen.as_str(), server_config, influx.clone())?;
    println!("lms-influxd listening on http://{}", server.addr());
    println!("databases: {:?}", influx.database_names());
    let s = influx.storage_stats();
    println!(
        "persistence: {} ({} segment files, {} WAL records replayed)",
        storage.data_dir.display(),
        s.segment_files,
        s.recovered_records
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
