//! The stack's end-to-end benchmark.
//!
//! ```text
//! lms-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (the contract)
//! lms-benchmark --aa                                                        two sets of ten runs, spreads vs bounds
//! lms-benchmark --quick                                                     3-s windows, correctness only
//! ```
//!
//! The last line of standard output of a single run is one JSON object with
//! exactly the keys `correct`, `attempted`, `failed` and `metrics`; the
//! exit code is non-zero when the oracle found a mismatch.

mod gen;
mod load;
mod metrics;
mod replay;
mod run;
mod stack;
mod stats;
mod sys;
mod verify;
mod workload;

use lms_util::Json;
use metrics::{Metric, END_TO_END, PER_LAYER};
use run::{RunArgs, RunResult};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// The window `BENCHMARK.json` declares (`run_seconds`); `--aa` compares
/// at exactly this length.
pub const WINDOW_SECONDS: u64 = 17;
/// The window of `--quick`.
const QUICK_SECONDS: u64 = 3;
/// Runs per set of `--aa`, as the driver makes them; set A takes seeds
/// 1–10, set B seeds 11–20.
const AA_RUNS: usize = 10;

enum Mode {
    Single {
        workload: String,
        seed: u64,
        seconds: u64,
        trace: bool,
    },
    Aa,
    Quick,
}

struct Cli {
    mode: Mode,
    out: PathBuf,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: lms-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n       \
         lms-benchmark --aa [--out <dir>]\n       \
         lms-benchmark --quick [--out <dir>]",
        workload::SPECS.map(|s| s.name).join("|")
    );
    ExitCode::from(2)
}

fn parse_cli() -> Option<Cli> {
    let mut out = PathBuf::from("benchmark/out");
    let (mut aa, mut quick) = (false, false);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--aa" => aa = true,
            "--quick" => quick = true,
            "--workload" => workload = Some(args.next()?),
            "--seed" => seed = Some(args.next()?.parse().ok()?),
            "--seconds" => seconds = Some(args.next()?.parse().ok().filter(|s| *s >= 1)?),
            "--trace" => trace = Some(args.next()? == "1"),
            "--out" => out = PathBuf::from(args.next()?),
            _ => return None,
        }
    }
    let single = workload.is_some() || seed.is_some() || seconds.is_some() || trace.is_some();
    let mode = match (aa, quick, single) {
        (true, false, false) => Mode::Aa,
        (false, true, false) => Mode::Quick,
        (false, false, true) => Mode::Single {
            workload: workload?,
            seed: seed?,
            seconds: seconds?,
            trace: trace?,
        },
        _ => return None,
    };
    Some(Cli { mode, out })
}

fn metric_json(m: &Metric) -> Option<(String, Json)> {
    let value = m.value?;
    Some((
        m.name.clone(),
        Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
    ))
}

/// The contract's result line: every declared metric of the run's kind.
fn result_line(result: &RunResult, trace: bool) -> String {
    let metrics = if trace {
        &result.per_layer
    } else {
        &result.end_to_end
    };
    Json::obj([
        ("correct", Json::Bool(result.correct)),
        ("attempted", Json::Int(result.attempted as i64)),
        ("failed", Json::Int(result.failed as i64)),
        (
            "metrics",
            Json::Obj(metrics.iter().filter_map(metric_json).collect()),
        ),
    ])
    .to_string()
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        match m.value {
            Some(v) => println!("  {:<34} {:>16.4} {:<9} n={}", m.name, v, m.unit, m.samples),
            None => println!(
                "  {:<34} {:>16} {:<9} n={} (fewer than ten samples beyond the percentile, or not measured in this run)",
                m.name, "absent", m.unit, m.samples
            ),
        }
    }
}

/// One metric of the result file: value and samples, plus what the tables
/// declare about it — which way is better, and the definition of an
/// end-to-end metric or what a per-layer metric should move.
fn metric_entry(m: &Metric) -> Json {
    let end_to_end = END_TO_END.iter().find(|d| d.name == m.name);
    let per_layer = PER_LAYER.iter().find(|d| d.name == m.name);
    let (higher, key, note) = match (end_to_end, per_layer) {
        (Some(d), _) => (d.higher, "definition", d.what),
        (None, Some(d)) => (d.higher, "should_move", d.moves),
        (None, None) => unreachable!("every reported metric is declared"),
    };
    Json::obj([
        ("name", Json::str(m.name.as_str())),
        ("unit", Json::str(m.unit)),
        ("value", m.value.map_or(Json::Null, Json::Num)),
        ("samples", Json::Int(m.samples as i64)),
        ("better", Json::str(if higher { "higher" } else { "lower" })),
        (key, Json::str(note)),
    ])
}

/// The full result file: what the line says, plus `env`, sample counts,
/// the interaction table and the oracle's findings.
fn write_result_file(path: &Path, args: &RunArgs, r: &RunResult) {
    let json = Json::obj([
        ("workload", Json::str(args.spec.name)),
        ("why", Json::str(args.spec.why)),
        ("seed", Json::Int(args.seed as i64)),
        ("window_s", Json::Int(args.seconds as i64)),
        ("trace", Json::Bool(args.trace)),
        ("env", r.env.clone()),
        ("correct", Json::Bool(r.correct)),
        (
            "findings",
            Json::arr(r.findings.iter().map(|f| Json::str(f.as_str()))),
        ),
        (
            "notes",
            Json::arr(r.notes.iter().map(|f| Json::str(f.as_str()))),
        ),
        ("attempted", Json::Int(r.attempted as i64)),
        ("failed", Json::Int(r.failed as i64)),
        (
            "end_to_end",
            Json::arr(r.end_to_end.iter().map(metric_entry)),
        ),
        ("per_layer", Json::arr(r.per_layer.iter().map(metric_entry))),
    ]);
    let _ = std::fs::write(path, json.to_pretty());
}

fn run_one(
    out: &Path,
    spec: &'static workload::Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
    started: Instant,
) -> RunResult {
    std::fs::create_dir_all(out).expect("create output directory");
    let args = RunArgs {
        spec,
        seed,
        seconds,
        trace,
        out_dir: out,
        started,
    };
    let result = run::run(&args);
    let suffix = if trace { "-trace" } else { "" };
    let file = format!("result-{}-{seed}{suffix}.json", spec.name);
    write_result_file(&out.join(file), &args, &result);
    result
}

fn single(
    out: &Path,
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    started: Instant,
) -> ExitCode {
    let Some(spec) = workload::by_name(workload) else {
        return usage();
    };
    println!(
        "workload {} · seed {seed} · window {seconds} s · trace {} · {} CPUs",
        spec.name,
        trace as u8,
        sys::nproc()
    );
    let result = run_one(out, spec, seed, seconds, trace, started);
    print_table(
        "end-to-end (authoritative in untraced runs)",
        &result.end_to_end,
    );
    if trace {
        print_table("per-layer", &result.per_layer);
    }
    for finding in &result.findings {
        println!("MISMATCH {finding}");
    }
    for note in &result.notes {
        println!("NOTE {note}");
    }
    println!(
        "attempted {} failed {} correct {}",
        result.attempted, result.failed, result.correct
    );
    println!("{}", result_line(&result, trace));
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn quick(out: &Path) -> ExitCode {
    let mut ok = true;
    for spec in &workload::SPECS {
        let result = run_one(out, spec, 1, QUICK_SECONDS, false, Instant::now());
        println!(
            "{:<18} attempted {:>7} failed {:>3} correct {}",
            spec.name, result.attempted, result.failed, result.correct
        );
        for finding in &result.findings {
            println!("  MISMATCH {finding}");
        }
        ok &= result.correct && result.failed == 0;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs the contract's command as a child, as the driver does. Reads the
/// end-to-end metrics off its last line, and the demoted metrics (which an
/// untraced line does not carry) from the result file it wrote.
fn child_run(out_dir: &Path, workload: &str, seed: u64) -> Option<Vec<(String, f64)>> {
    let exe = std::env::current_exe().ok()?;
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &WINDOW_SECONDS.to_string(),
        ])
        .args(["--trace", "0", "--out"])
        .arg(out_dir)
        .output()
        .ok()?;
    let text = String::from_utf8_lossy(&out.stdout);
    let json = Json::parse(text.lines().last()?).ok()?;
    if !out.status.success() || !json.get("correct")?.as_bool()? {
        eprintln!("run {workload} seed {seed} failed or incorrect:\n{text}");
        return None;
    }
    let mut values: Vec<(String, f64)> = json
        .get("metrics")?
        .as_obj()?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    let file = out_dir.join(format!("result-{workload}-{seed}.json"));
    let result = Json::parse(&std::fs::read_to_string(file).ok()?).ok()?;
    for m in result.get("per_layer")?.as_arr()? {
        if let (Some(name), Some(value)) = (
            m.get("name").and_then(Json::as_str),
            m.get("value").and_then(Json::as_f64),
        ) {
            values.push((name.to_string(), value));
        }
    }
    Some(values)
}

/// The rule the bounds were set with: a bound covers 1.5 × the A/A spread
/// (the wider of the two sets) and is at most 25 %; a metric that needs more
/// is demoted to the per-layer list, not widened further. `setup_s` is judged
/// on its medians only. `worse` is the share by which the second median is
/// worse than the first. Returns the verdict and whether it passes.
fn verdict(name: &str, spread: f64, worse: f64, bound: f64) -> (&'static str, bool) {
    let needed = if name == "setup_s" { 0.0 } else { 1.5 * spread };
    if needed > 0.25 {
        ("DEMOTE (1.5 × spread exceeds 25 %)", false)
    } else if needed > bound {
        ("WIDEN (1.5 × spread exceeds the bound)", false)
    } else if worse > bound {
        (
            "FAIL (second median worse than the first by more than the bound)",
            false,
        )
    } else if needed > bound / 2.0 {
        ("ok (spread above a third of the bound)", true)
    } else {
        ("ok", true)
    }
}

/// A/A: two sets of [`AA_RUNS`] runs of this same binary, alternating
/// workload order, and per metric the two medians, quartiles, spread and
/// bound, judged by the rule the bounds were set with: a bound covers 1.5 ×
/// the A/A spread, is at most 25 %, and a metric that needs more is demoted.
fn aa(out: &Path) -> ExitCode {
    let names = workload::SPECS.map(|s| s.name);
    let demoted: Vec<&str> = PER_LAYER
        .iter()
        .filter(|d| d.moves.starts_with(metrics::DEMOTED))
        .map(|d| d.name)
        .collect();
    let tracked: Vec<&str> = END_TO_END
        .iter()
        .map(|d| d.name)
        .chain(demoted.iter().copied())
        .collect();
    // values[set][workload][tracked metric] = samples
    let mut values = vec![vec![vec![Vec::<f64>::new(); tracked.len()]; names.len()]; 2];
    let mut complete = true;
    for (set, set_values) in values.iter_mut().enumerate() {
        for i in 0..AA_RUNS {
            let mut order: Vec<usize> = (0..names.len()).collect();
            if i % 2 == 1 {
                order.reverse();
            }
            for w in order {
                let seed = (set * AA_RUNS + i + 1) as u64;
                eprintln!(
                    "set {} run {}/{AA_RUNS} {} seed {seed}",
                    set + 1,
                    i + 1,
                    names[w]
                );
                match child_run(out, names[w], seed) {
                    Some(metrics) => {
                        for (m, name) in tracked.iter().enumerate() {
                            match metrics.iter().find(|(n, _)| n == name) {
                                Some((_, v)) => set_values[w][m].push(*v),
                                // A demoted percentile may be absent.
                                None => complete &= m >= END_TO_END.len(),
                            }
                        }
                    }
                    None => complete = false,
                }
            }
        }
    }
    println!(
        "A/A · {AA_RUNS} runs per set · window {WINDOW_SECONDS} s · {} CPUs",
        sys::nproc()
    );
    println!(
        "{:<18} {:<24} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "spreadA", "spreadB", "B vs A", "bound"
    );
    let mut ok = complete;
    for (w, name) in names.iter().enumerate() {
        for (m, def) in END_TO_END.iter().enumerate() {
            let (a, b) = (&values[0][w][m], &values[1][w][m]);
            let (Some(qa), Some(qb)) = (stats::quartiles(a), stats::quartiles(b)) else {
                println!("{name:<18} {:<24} too few samples", def.name);
                ok = false;
                continue;
            };
            let (sa, sb) = (
                stats::spread(a).unwrap_or(f64::NAN),
                stats::spread(b).unwrap_or(f64::NAN),
            );
            let worse = if def.higher {
                (qa[1] - qb[1]) / qa[1]
            } else {
                (qb[1] - qa[1]) / qa[1]
            };
            let (verdict, passes) = verdict(def.name, sa.max(sb), worse, def.bound);
            ok &= passes;
            println!(
                "{name:<18} {:<24} {:>12.4} {:>12.4} {:>7.1}% {:>7.1}% {:>+7.1}% {:>5.0}%  {verdict}   [Q1 {:.4} Q3 {:.4} | Q1 {:.4} Q3 {:.4}]",
                def.name,
                qa[1],
                qb[1],
                sa * 100.0,
                sb * 100.0,
                worse * 100.0,
                def.bound * 100.0,
                qa[0],
                qa[2],
                qb[0],
                qb[2],
            );
        }
    }
    println!("demoted metrics (no bound): median and spread per set");
    for (w, name) in names.iter().enumerate() {
        for (i, metric) in demoted.iter().enumerate() {
            let m = END_TO_END.len() + i;
            let (a, b) = (&values[0][w][m], &values[1][w][m]);
            let (Some(qa), Some(qb), Some(sa), Some(sb)) = (
                stats::quartiles(a),
                stats::quartiles(b),
                stats::spread(a),
                stats::spread(b),
            ) else {
                println!("{name:<18} {metric:<24} too few samples");
                continue;
            };
            println!(
                "{name:<18} {metric:<24} {:>12.4} {:>12.4} {:>7.1}% {:>7.1}%",
                qa[1],
                qb[1],
                sa * 100.0,
                sb * 100.0
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let Some(cli) = parse_cli() else {
        return usage();
    };
    match cli.mode {
        Mode::Aa => aa(&cli.out),
        Mode::Quick => quick(&cli.out),
        Mode::Single {
            workload,
            seed,
            seconds,
            trace,
        } => single(&cli.out, &workload, seed, seconds, trace, started),
    }
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn a_bound_must_cover_one_and_a_half_spreads_or_the_metric_is_demoted() {
        // 20 % spread needs a 30 % bound: beyond any allowed bound.
        assert_eq!(
            verdict("agent_us_per_sweep", 0.20, 0.01, 0.25).0,
            "DEMOTE (1.5 × spread exceeds 25 %)"
        );
        // 13.5 % needs 20.25 %: covered by 25 %, not by 10 %.
        assert!(verdict("stack_cpu_us_per_point", 0.135, 0.06, 0.25).1);
        assert_eq!(
            verdict("stack_cpu_us_per_point", 0.135, 0.06, 0.10),
            ("WIDEN (1.5 × spread exceeds the bound)", false)
        );
        // Steady, but the second set reads worse by more than the bound.
        assert!(!verdict("disk_bytes_per_value", 0.01, 0.11, 0.10).1);
        assert_eq!(
            verdict("disk_bytes_per_value", 0.01, 0.02, 0.10),
            ("ok", true)
        );
        // setup_s: medians only.
        assert!(verdict("setup_s", 0.40, 0.08, 0.25).1);
        assert!(!verdict("setup_s", 0.02, 0.30, 0.25).1);
    }
}
