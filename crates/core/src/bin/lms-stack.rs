//! `lms-stack` — run a demonstration deployment of the whole stack.
//!
//! ```text
//! lms-stack [--minutes N] [--jobs user:app:nodes:minutes,...]
//!           [--nodes N] [--topology dual_socket_10c|desktop_4c] [--seed N]
//!           [--db-nodes N] [--replication R] [--write-quorum W]
//!           [--hpm-groups GROUP,...] [--per-user] [--publish]
//!           [--data-dir DIR] [--drain-timeout-secs N] [--retention-hours N]
//!           [--retention-raw DUR] [--retention-1m DUR] [--retention-1h DUR]
//!           [--scrub-interval-secs N] [--scrub-rate-bytes N]
//! ```
//!
//! `--jobs` takes comma-separated `user:app:nodes:minutes` entries where
//! `app` is one of `dgemm`, `stream`, `minimd`, `idle`, `checkpoint`.
//! Without `--jobs`, a default mixed workload is used. The other flags set
//! the [`StackConfig`] field of their name; a setting the database or the
//! router daemon also takes has that daemon's flag name and meaning. Prints
//! the admin view and each job's evaluation at the end, plus the webviewer
//! address usable while the simulation runs.

use lms_apps::AppProfile;
use lms_core::{LmsStack, StackConfig};
use lms_influx::RollupPolicy;
use lms_topology::Topology;
use lms_util::args::Args;
use lms_util::Result;
use std::time::Duration;

const USAGE: &str = "\
usage: lms-stack [--minutes N] [--jobs user:app:nodes:minutes,...]
                 [--nodes N] [--topology dual_socket_10c|desktop_4c] [--seed N]
                 [--db-nodes N] [--replication R] [--write-quorum W]
                 [--hpm-groups GROUP,...] [--per-user] [--publish]
                 [--data-dir DIR] [--drain-timeout-secs N] [--retention-hours N]
                 [--retention-raw DUR] [--retention-1m DUR] [--retention-1h DUR]
                 [--scrub-interval-secs N] [--scrub-rate-bytes N]
durations accept query-style literals: 90d, 6h, 30m, 45s";

struct JobRequest {
    user: String,
    app: AppProfile,
    app_name: String,
    nodes: usize,
    minutes: u64,
}

fn parse_jobs(spec: &str) -> Result<Vec<JobRequest>, String> {
    let mut out = Vec::new();
    for entry in spec.split(',').filter(|e| !e.is_empty()) {
        let parts: Vec<&str> = entry.split(':').collect();
        if parts.len() != 4 {
            return Err(format!("job `{entry}`: expected user:app:nodes:minutes"));
        }
        let app = AppProfile::parse(parts[1]).ok_or(format!("unknown app `{}`", parts[1]))?;
        out.push(JobRequest {
            user: parts[0].to_string(),
            app,
            app_name: parts[1].to_string(),
            nodes: parts[2].parse().map_err(|_| format!("job `{entry}`: bad node count"))?,
            minutes: parts[3].parse().map_err(|_| format!("job `{entry}`: bad minutes"))?,
        });
    }
    Ok(out)
}

fn topology(name: &str) -> Result<Topology, &'static str> {
    match name {
        "dual_socket_10c" => Ok(Topology::preset_dual_socket_10c()),
        "desktop_4c" => Ok(Topology::preset_desktop_4c()),
        _ => Err("expected dual_socket_10c or desktop_4c"),
    }
}

/// What a command line asks for.
struct Cli {
    config: StackConfig,
    minutes: u64,
    jobs: Vec<JobRequest>,
}

/// Reads the command line; `None` for `--help`. The checks of the values
/// together are `LmsStack::start`'s.
fn parse_args(mut args: Args) -> Result<Option<Cli>> {
    let jobs = parse_jobs("anna:dgemm:2:25,bert:stream:1:20,carl:idle:1:30").expect("valid");
    let mut cli = Cli { config: StackConfig::default(), minutes: 30, jobs };
    let c = &mut cli.config;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--minutes" => cli.minutes = args.parse()?,
            "--jobs" => cli.jobs = args.parse_with(parse_jobs)?,
            "--nodes" => c.nodes = args.parse()?,
            "--topology" => c.topology = args.parse_with(topology)?,
            "--seed" => c.seed = args.parse()?,
            "--db-nodes" => c.db_nodes = args.parse()?,
            "--replication" => c.replication = args.parse()?,
            "--write-quorum" => c.write_quorum = args.parse()?,
            "--hpm-groups" => {
                let groups = args.value()?;
                let groups = groups.split(',').map(str::trim).filter(|g| !g.is_empty());
                c.hpm_groups = groups.map(String::from).collect();
            }
            "--per-user" => c.per_user = true,
            "--publish" => c.publish = true,
            "--data-dir" => c.data_dir = Some(args.value()?.into()),
            "--drain-timeout-secs" => c.drain_timeout = Duration::from_secs(args.parse()?),
            "--retention-hours" => {
                c.retention = Some(Duration::from_secs(args.parse::<u64>()?.saturating_mul(3600)))
            }
            // Tiered retention: any of these turns the downsampling
            // pipeline on (raw → 1m → 1h rollup databases).
            "--retention-raw" => {
                c.rollup.get_or_insert_default().retention_raw =
                    Some(args.parse_with(RollupPolicy::parse_retention)?)
            }
            "--retention-1m" => {
                c.rollup.get_or_insert_default().retention_1m =
                    Some(args.parse_with(RollupPolicy::parse_retention)?)
            }
            "--retention-1h" => {
                c.rollup.get_or_insert_default().retention_1h =
                    Some(args.parse_with(RollupPolicy::parse_retention)?)
            }
            "--scrub-interval-secs" => c.scrub_interval = Duration::from_secs(args.parse()?),
            "--scrub-rate-bytes" => c.scrub_rate_bytes = args.parse()?,
            "--help" | "-h" => return Ok(None),
            _ => return Err(args.unknown()),
        }
    }
    Ok(Some(cli))
}

fn run() -> Result<()> {
    let Some(Cli { config, minutes, jobs }) = parse_args(Args::from_env())? else {
        println!("{USAGE}");
        return Ok(());
    };
    let mut stack = LmsStack::start(config)?;
    let viewer = stack.start_viewer_server()?;
    println!("database : http://{}", stack.db_addr());
    println!("router   : http://{}", stack.router_addr());
    println!("webviewer: http://{}  (GET /jobs /admin /dashboard?job= /render?job=)", viewer);

    let mut ids = Vec::new();
    for j in &jobs {
        let id = stack.submit_job(
            &j.user,
            &j.app_name,
            j.nodes,
            Duration::from_secs(j.minutes * 60),
            j.app,
        );
        println!(
            "submitted job {id}: {}:{} × {} nodes × {} min",
            j.user, j.app_name, j.nodes, j.minutes
        );
        ids.push(id);
    }

    println!("\nsimulating {minutes} virtual minutes…");
    stack.run_for(Duration::from_secs(minutes * 60), Duration::from_secs(60));

    println!("\n{}", stack.admin_view()?.text);
    for id in ids {
        println!("{}", stack.evaluate_job(id)?.render_table());
    }
    let stats = stack.stats();
    println!(
        "stats: {} lines routed, {} enriched, {} db points, {} series",
        stats.router.lines_in, stats.router.lines_enriched, stats.db_points, stats.db_series
    );
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("lms-stack: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli> {
        parse_args(Args::new(args.iter().copied())).map(|cli| cli.expect("not --help"))
    }

    #[test]
    fn every_flag_lands_in_its_field() {
        let cli = parse(&[
            "--nodes",
            "8",
            "--topology",
            "desktop_4c",
            "--seed",
            "7",
            "--db-nodes",
            "3",
            "--replication",
            "2",
            "--write-quorum",
            "2",
            "--hpm-groups",
            "MEM, ENERGY,",
            "--per-user",
            "--publish",
            "--data-dir",
            "/var/lib/lms",
            "--drain-timeout-secs",
            "5",
            "--retention-hours",
            "48",
            "--retention-raw",
            "7d",
            "--retention-1m",
            "90d",
            "--retention-1h",
            "52w",
            "--scrub-interval-secs",
            "0",
            "--scrub-rate-bytes",
            "4096",
            "--minutes",
            "3",
            "--jobs",
            "u:idle:1:2",
        ])
        .unwrap();
        let c = &cli.config;
        assert_eq!((c.nodes, c.seed, c.db_nodes, c.replication, c.write_quorum), (8, 7, 3, 2, 2));
        assert_eq!(c.topology.name(), "desktop-1s4c2t");
        assert_eq!(c.hpm_groups, ["MEM", "ENERGY"]);
        assert!(c.per_user && c.publish);
        assert_eq!(c.data_dir.as_deref(), Some(std::path::Path::new("/var/lib/lms")));
        assert_eq!(c.drain_timeout, Duration::from_secs(5));
        assert_eq!(c.retention, Some(Duration::from_secs(48 * 3600)));
        let day = 86_400;
        let tiers = c.rollup.as_ref().expect("a tier flag enables rollups");
        assert_eq!(tiers.retention_raw, Some(Duration::from_secs(7 * day)));
        assert_eq!(tiers.retention_1m, Some(Duration::from_secs(90 * day)));
        assert_eq!(tiers.retention_1h, Some(Duration::from_secs(52 * 7 * day)));
        assert_eq!((c.scrub_interval, c.scrub_rate_bytes), (Duration::ZERO, 4096));
        assert_eq!(cli.minutes, 3);
        assert_eq!((cli.jobs.len(), cli.jobs[0].user.as_str(), cli.jobs[0].minutes), (1, "u", 2));
    }

    #[test]
    fn no_flag_keeps_the_defaults() {
        let cli = parse(&[]).unwrap();
        let (c, d) = (&cli.config, StackConfig::default());
        assert_eq!((c.nodes, c.db_nodes, c.replication, c.write_quorum), (4, 1, 1, 1));
        assert_eq!(
            (c.seed, &c.hpm_groups, c.per_user, c.publish),
            (d.seed, &d.hpm_groups, false, false)
        );
        assert!(c.retention.is_none() && c.rollup.is_none() && c.data_dir.is_none());
        assert_eq!((c.scrub_interval, c.scrub_rate_bytes), (d.scrub_interval, d.scrub_rate_bytes));
        assert_eq!((cli.minutes, cli.jobs.len()), (30, 3));
        assert!(parse_args(Args::new(["--help"])).unwrap().is_none());
    }
}
