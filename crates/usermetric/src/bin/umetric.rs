//! `umetric` — the libusermetric command-line tool.
//!
//! "For use in batch scripts, a command line application can send metrics
//! and events from the shell." (Paper Sec. IV — the start/end events in
//! Fig. 3 are sent exactly this way around the miniMD invocation.)
//!
//! ```text
//! umetric --url 127.0.0.1:8086 --db lms [--tag k=v]... metric <name> <value>
//! umetric --url 127.0.0.1:8086 --db lms [--tag k=v]... event <name> <text>...
//! ```

use lms_http::url::percent_encode;
use lms_lineproto::Point;
use lms_util::args::Args;
use lms_util::{Clock, Error, Result};

const USAGE: &str =
    "usage: umetric --url <host:port> [--db <db>] [--tag k=v]... <metric|event> <name> <value|text...>";

struct Cli {
    url: String,
    db: String,
    tags: Vec<(String, String)>,
    command: String,
    name: String,
    rest: Vec<String>,
}

/// Reads the command line; `None` for `--help`.
fn parse_args(argv: &[String]) -> Result<Option<Cli>> {
    let mut url = None;
    let mut db = "lms".to_string();
    let mut tags = Vec::new();
    let mut positional = Vec::new();
    let mut args = Args::new(argv);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--url" => url = Some(args.value()?),
            "--db" => db = args.value()?,
            "--tag" => tags.push(args.parse_with(|kv| {
                kv.split_once('=')
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .ok_or("expected k=v")
            })?),
            "--help" | "-h" => return Ok(None),
            // A value or an event word may start with one `-`.
            flag if flag.starts_with("--") => return Err(args.unknown()),
            _ => positional.push(arg),
        }
    }
    if positional.len() < 3 {
        return Err(Error::config(USAGE));
    }
    Ok(Some(Cli {
        url: url.ok_or_else(|| Error::config(USAGE))?,
        db,
        tags,
        command: positional[0].clone(),
        name: positional[1].clone(),
        rest: positional[2..].to_vec(),
    }))
}

/// The `/write` target for database `db`.
fn write_target(db: &str) -> String {
    format!("/write?db={}", percent_encode(db))
}

fn build_point(args: &Cli, clock: &Clock) -> Result<Point> {
    let mut p = Point::new(args.name.as_str());
    for (k, v) in &args.tags {
        p.add_tag(k.as_str(), v.as_str());
    }
    match args.command.as_str() {
        "metric" => {
            let value: f64 = args.rest[0]
                .parse()
                .map_err(|_| Error::config(format!("`{}` is not a number", args.rest[0])))?;
            p.add_field("value", value);
        }
        "event" => {
            p.add_field("text", args.rest.join(" ").as_str());
        }
        other => return Err(Error::config(format!("unknown command `{other}`\n{USAGE}"))),
    }
    p.set_timestamp(clock.now().nanos());
    Ok(p)
}

fn run() -> Result<()> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(args) = parse_args(&argv)? else {
        println!("{USAGE}");
        return Ok(());
    };
    let clock = Clock::system();
    let point = build_point(&args, &clock)?;
    let mut client = lms_http::HttpClient::connect(args.url.as_str())?;
    client.post_text(&write_target(&args.db), &point.to_line())?.into_result()?;
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("umetric: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_util::Timestamp;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_metric_command() {
        let a = parse_args(&argv(&[
            "--url",
            "127.0.0.1:1",
            "--db",
            "udb",
            "--tag",
            "jobid=42",
            "metric",
            "pressure",
            "1.71",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(a.url, "127.0.0.1:1");
        assert_eq!(a.db, "udb");
        let p = build_point(&a, &Clock::simulated(Timestamp::from_secs(7))).unwrap();
        assert_eq!(p.to_line(), "pressure,jobid=42 value=1.71 7000000000");
    }

    #[test]
    fn parses_event_with_multiword_text() {
        let a = parse_args(&argv(&["--url", "x:1", "event", "run", "miniMD", "starting", "now"]))
            .unwrap()
            .unwrap();
        let p = build_point(&a, &Clock::simulated(Timestamp::from_secs(1))).unwrap();
        assert_eq!(p.to_line(), "run text=\"miniMD starting now\" 1000000000");
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&argv(&["metric", "m", "1"])).is_err()); // no url
        assert!(parse_args(&argv(&["--url", "x:1", "metric", "m"])).is_err()); // no value
        assert!(
            parse_args(&argv(&["--url", "x:1", "--tag", "novalue", "metric", "m", "1"])).is_err()
        );
        assert!(parse_args(&argv(&["--url", "x:1", "--bogus", "metric", "m", "1"])).is_err());
        let a = parse_args(&argv(&["--url", "x:1", "metric", "m", "abc"])).unwrap().unwrap();
        assert!(build_point(&a, &Clock::system()).is_err());
        let a = parse_args(&argv(&["--url", "x:1", "bogus", "m", "1"])).unwrap().unwrap();
        assert!(build_point(&a, &Clock::system()).is_err());
    }

    #[test]
    fn help_and_the_write_target() {
        assert!(parse_args(&argv(&["--help"])).unwrap().is_none());
        let a = parse_args(&argv(&["--url", "x:1", "metric", "m", "-1.5"])).unwrap().unwrap();
        assert_eq!(a.rest, ["-1.5"]);
        assert_eq!(write_target("lms"), "/write?db=lms");
        assert_eq!(write_target("a&b=c d"), "/write?db=a%26b%3Dc%20d");
    }
}
