//! Concurrent ingest throughput of the write path production runs:
//! `Database::write_parsed_batch` (whole parsed batches staged into
//! per-shard append buffers and drained by one thread per shard) over the
//! default shard count — the `current` engine, the only one.
//!
//! Two workloads: `many-series` (each writer owns its series; writes spread
//! across stripes) and `hot-series` (every thread hammers one series, the
//! shape on which staging pays: writers hand points to the running drainer
//! instead of convoying on the series' stripe).
//!
//! Custom harness (not criterion): the gate needs the measured numbers
//! programmatically, and the run emits `BENCH_ingest.json` at the
//! repository root.
//!
//! `LMS_BENCH_QUICK=1` switches to the CI smoke mode: hot-series only,
//! 1 and 8 threads, 3 runs, no file overwrite — it exits non-zero when
//! throughput at 8 threads regresses more than 30% against the checked-in
//! `BENCH_ingest.json`, or fails the contention gate against 1 thread.

use lms_influx::{Database, Influx, StorageConfig, WriteOptions};
use lms_lineproto::{parse_batch, ParseOutcome};
use lms_util::{Clock, Timestamp};
use std::hint::black_box;
use std::time::{Duration, Instant};

const LINES_PER_BATCH: usize = 200;
const BATCHES_PER_THREAD: usize = 40;
const RUNS: usize = 7;
const QUICK_RUNS: usize = 3;
const DEFAULT_SHARDS: usize = 16;

const BASELINE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ingest.json");

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    /// Each thread writes its own 64 series.
    ManySeries,
    /// All threads write the same single series (distinct timestamps).
    HotSeries,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::ManySeries => "many-series",
            Workload::HotSeries => "hot-series",
        }
    }
}

/// Pre-builds the line-protocol batches one thread will write, so the timed
/// region contains only parse + write calls.
fn batches_for(workload: Workload, thread: usize) -> Vec<String> {
    let mut batches = Vec::with_capacity(BATCHES_PER_THREAD);
    for b in 0..BATCHES_PER_THREAD {
        let mut body = String::with_capacity(LINES_PER_BATCH * 48);
        for i in 0..LINES_PER_BATCH {
            let n = b * LINES_PER_BATCH + i;
            // Monotonic timestamps per series keep Series inserts at the
            // append fast path.
            match workload {
                Workload::ManySeries => {
                    let series = n % 64;
                    body.push_str(&format!(
                        "cpu,hostname=t{thread}n{series:02},cpu=c{},socket=s0 busy={i},user={i} {}\n",
                        series % 4,
                        (n + 1) as i64 * 1_000
                    ));
                }
                Workload::HotSeries => {
                    // Interleave timestamps across threads so every insert
                    // lands near the tail of the sorted series regardless
                    // of scheduling order.
                    let ts = (n * 8 + thread + 1) as i64;
                    body.push_str(&format!(
                        "cpu,hostname=h0,cpu=c0,socket=s0 busy={i},user={i} {ts}\n"
                    ));
                }
            }
        }
        batches.push(body);
    }
    batches
}

/// One timed run: `threads` writers push their pre-parsed batches into a
/// fresh database. Parsing happens once, outside the timed region — the
/// benchmark isolates the storage-engine write path.
/// Returns points per second.
fn run_once(threads: usize, inputs: &[Vec<ParseOutcome<'_>>]) -> f64 {
    let db = Database::with_shards(DEFAULT_SHARDS);
    let start = Instant::now();
    std::thread::scope(|s| {
        for input in inputs.iter().take(threads) {
            let db = &db;
            s.spawn(move || {
                for parsed in input {
                    db.write_parsed_batch(black_box(&parsed.lines), WriteOptions::default(), 0);
                }
            });
        }
    });
    // point_count drains the staged buffers, so the run is charged for
    // its own drain work, not just for staging.
    black_box(db.point_count());
    let elapsed = start.elapsed().as_secs_f64();
    let points = (threads * BATCHES_PER_THREAD * LINES_PER_BATCH) as f64;
    points / elapsed
}

/// Median of `runs` runs.
fn measure(threads: usize, inputs: &[Vec<ParseOutcome<'_>>], runs: usize) -> f64 {
    let mut samples: Vec<f64> = (0..runs).map(|_| run_once(threads, inputs)).collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite throughput"));
    samples[samples.len() / 2]
}

struct Row {
    workload: &'static str,
    threads: usize,
    current: f64,
}

/// WAL fsyncs per acknowledged point at 8 writers with per-append fsync:
/// each writer delivers merged batches (as the router's forwarder does
/// under backlog) and the WAL commits concurrent appends as one fsynced
/// group.
fn measure_wal_fsyncs_per_point() -> f64 {
    const WRITERS: usize = 8;
    const BATCHES: usize = 40;
    const LINES: usize = 20;
    /// Batches the router's forwarder merges per delivery under backlog
    /// (conservative: its cap is bytes-based and far higher than this).
    const COALESCE: usize = 4;

    let dir = std::env::temp_dir().join(format!("lms-bench-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = StorageConfig::new(&dir);
    cfg.wal_fsync = true;
    let ix = Influx::open(Clock::simulated(Timestamp::from_secs(1_000)), DEFAULT_SHARDS, cfg)
        .expect("open persistent influx");
    std::thread::scope(|s| {
        for t in 0..WRITERS {
            let ix = ix.clone();
            s.spawn(move || {
                let mut pending = String::new();
                for b in 0..BATCHES {
                    for i in 0..LINES {
                        let ts = ((t * BATCHES + b) * LINES + i + 1) as i64;
                        pending.push_str(&format!("cpu,hostname=h{t} busy={i} {ts}\n"));
                    }
                    if (b + 1) % COALESCE == 0 || b + 1 == BATCHES {
                        ix.write_lines("lms", &pending, WriteOptions::default())
                            .expect("acked write");
                        pending.clear();
                    }
                }
            });
        }
    });
    let fsyncs = ix.storage_stats().wal_fsyncs as f64;
    let _ = std::fs::remove_dir_all(&dir);
    fsyncs / (WRITERS * BATCHES * LINES) as f64
}

/// Ingest throughput with and without the background integrity scrubber
/// running concurrently, on a persistent database pre-seeded with sealed
/// segments (so the scrubber has real files to re-verify). The scrub
/// thread runs far hotter than production (a 256 KiB pass every 50 ms —
/// a ~5 MiB/s scan rate vs the default 8 MiB per 60 s), so passing the
/// 5% overhead gate here
/// leaves a wide margin for the deployed configuration.
/// Returns `(plain_pts_per_s, scrubbed_pts_per_s)`, each a median of 3.
fn measure_scrub_overhead() -> (f64, f64) {
    const WRITERS: usize = 4;
    const BATCHES: usize = 100;
    const LINES: usize = 500;

    let run = |scrub: bool, round: usize| -> f64 {
        let dir = std::env::temp_dir().join(format!(
            "lms-bench-scrub-{}-{}-{round}",
            std::process::id(),
            if scrub { "on" } else { "off" }
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = StorageConfig::new(&dir);
        // Scrub verification is whole-file granular, so cap WAL segments
        // at the pass budget — otherwise every pass overshoots its budget
        // by one 4 MiB frozen WAL file and the duty cycle explodes.
        cfg.wal_segment_bytes = 256 * 1024;
        let ix = Influx::open(Clock::simulated(Timestamp::from_secs(1_000)), DEFAULT_SHARDS, cfg)
            .expect("open persistent influx");
        // Seed sealed segments: five flushes of 2k points each.
        for r in 0..5 {
            let mut body = String::with_capacity(2_000 * 40);
            for i in 0..2_000 {
                body.push_str(&format!(
                    "seed,hostname=s{} v={i} {}\n",
                    i % 16,
                    (r * 2_000 + i + 1) as i64 * 1_000
                ));
            }
            ix.write_lines("lms", &body, WriteOptions::default()).expect("seed write");
            ix.flush_storage().expect("seed flush");
        }

        let stop = std::sync::atomic::AtomicBool::new(false);
        let pts_per_s = std::thread::scope(|s| {
            if scrub {
                let ix = ix.clone();
                let stop = &stop;
                s.spawn(move || {
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let _ = ix.scrub_storage(256 * 1024);
                        std::thread::sleep(Duration::from_millis(50));
                    }
                });
            }
            let start = Instant::now();
            std::thread::scope(|w| {
                for t in 0..WRITERS {
                    let ix = ix.clone();
                    w.spawn(move || {
                        for b in 0..BATCHES {
                            let mut body = String::with_capacity(LINES * 40);
                            for i in 0..LINES {
                                let ts = ((t * BATCHES + b) * LINES + i + 1) as i64 * 1_000
                                    + 1_000_000_000_000;
                                body.push_str(&format!("cpu,hostname=h{t} busy={i} {ts}\n"));
                            }
                            ix.write_lines("lms", &body, WriteOptions::default())
                                .expect("acked write");
                        }
                    });
                }
            });
            let elapsed = start.elapsed().as_secs_f64();
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            (WRITERS * BATCHES * LINES) as f64 / elapsed
        });
        let _ = std::fs::remove_dir_all(&dir);
        pts_per_s
    };

    // Paired runs with alternating order: single-run throughput on a
    // loaded machine swings far more than the 5% gate, but drift hits
    // both sides of a back-to-back pair equally, so the median of the
    // per-pair ratios isolates the scrubber's actual cost.
    let mut plains = Vec::new();
    let mut scrubbeds = Vec::new();
    let mut ratios = Vec::new();
    for round in 0..5 {
        let (plain, scrubbed) = if round % 2 == 0 {
            let p = run(false, round);
            (p, run(true, round))
        } else {
            let s = run(true, round);
            (run(false, round), s)
        };
        plains.push(plain);
        scrubbeds.push(scrubbed);
        ratios.push(scrubbed / plain);
    }
    let median = |mut v: Vec<f64>| -> f64 {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite throughput"));
        v[v.len() / 2]
    };
    let (p, r) = (median(plains), median(ratios));
    (p, p * r)
}

/// Extracts a numeric JSON field from a single line via substring scan —
/// enough for the bench's own output format, no parser dependency.
fn json_num(line: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\": ");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// The checked-in `current` hot-series@8 throughput, if present.
fn baseline_hot8(json: &str) -> Option<f64> {
    let line = json
        .lines()
        .find(|l| l.contains("\"hot-series\"") && l.contains("\"threads\": 8"))?;
    json_num(line, "current_pts_per_s")
}

/// Contention gate over `(writers, pts/s)` tiers for the hot-series
/// workload. While added writers are backed by real cores,
/// throughput must be monotonically non-decreasing. Past the machine's
/// core count the writers time-share CPUs, so no scaling is physically
/// possible and the check degrades to a bounded-amplification floor:
/// per-point work under full contention may cost at most 2.5x the
/// best uncontended tier (the pre-group-commit write path failed this
/// at >5x).
fn contention_ok(tiers: &[(usize, f64)]) -> bool {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut ok = true;
    for w in tiers.windows(2) {
        let ((t0, p0), (t1, p1)) = (w[0], w[1]);
        if t1 <= cores && p1 < p0 {
            eprintln!(
                "FAIL: throughput decreases {t0}→{t1} writers with {cores} cores: \
                 {p0:.0} → {p1:.0} pts/s"
            );
            ok = false;
        }
    }
    let base = tiers
        .iter()
        .filter(|&&(t, _)| t <= cores)
        .map(|&(_, p)| p)
        .fold(tiers[0].1, f64::max);
    for &(t, p) in tiers.iter().filter(|&&(t, _)| t > cores) {
        if p < 0.4 * base {
            eprintln!(
                "FAIL: {t} writers on {cores} cores amplify per-point cost >2.5x: \
                 {p:.0} pts/s < 0.4 × {base:.0} pts/s"
            );
            ok = false;
        }
    }
    ok
}

/// CI smoke mode: hot-series only, fail fast on contention regressions.
fn run_quick() -> bool {
    let raw: Vec<Vec<String>> = (0..8).map(|t| batches_for(Workload::HotSeries, t)).collect();
    let inputs: Vec<Vec<ParseOutcome<'_>>> = raw
        .iter()
        .map(|batches| batches.iter().map(|b| parse_batch(b)).collect())
        .collect();

    let at_1 = measure(1, &inputs, QUICK_RUNS);
    let at_8 = measure(8, &inputs, QUICK_RUNS);
    println!("hot-series  current@1 {at_1:>9.0} pts/s   current@8 {at_8:>9.0} pts/s");

    let mut ok = contention_ok(&[(1, at_1), (8, at_8)]);
    match std::fs::read_to_string(BASELINE_PATH).ok().as_deref().and_then(baseline_hot8) {
        Some(base) if at_8 < 0.7 * base => {
            eprintln!(
                "FAIL: >30% regression vs checked-in BENCH_ingest.json \
                 ({at_8:.0} pts/s < 0.7 × {base:.0} pts/s)"
            );
            ok = false;
        }
        Some(base) => println!("hot-series @8: {at_8:.0} pts/s (baseline {base:.0})"),
        None => println!("note: no current baseline in BENCH_ingest.json; skipping the check"),
    }

    let (plain, scrubbed) = measure_scrub_overhead();
    let overhead = (1.0 - scrubbed / plain) * 100.0;
    println!(
        "scrub overhead: plain {plain:>9.0} pts/s   scrubbed {scrubbed:>9.0} pts/s   ({overhead:.1}%, target < 5%)"
    );
    if scrubbed < 0.95 * plain {
        eprintln!(
            "FAIL: background scrub costs ingest more than 5% \
             ({scrubbed:.0} pts/s < 0.95 × {plain:.0} pts/s)"
        );
        ok = false;
    }
    if ok {
        println!("bench-smoke OK");
    }
    ok
}

fn run_full() {
    let mut rows = Vec::new();

    for workload in [Workload::ManySeries, Workload::HotSeries] {
        let raw: Vec<Vec<String>> = (0..8).map(|t| batches_for(workload, t)).collect();
        let inputs: Vec<Vec<ParseOutcome<'_>>> = raw
            .iter()
            .map(|batches| batches.iter().map(|b| parse_batch(b)).collect())
            .collect();
        for threads in [1usize, 4, 8] {
            let current = measure(threads, &inputs, RUNS);
            println!("{:<12} threads={threads}  current {current:>9.0} pts/s", workload.name());
            rows.push(Row { workload: workload.name(), threads, current });
        }
    }

    let fsyncs_per_point = measure_wal_fsyncs_per_point();
    println!("\nwal group commit @ 8 writers: {fsyncs_per_point:.5} fsyncs/pt");

    let (plain, scrubbed) = measure_scrub_overhead();
    println!(
        "scrub overhead @ {WRITERS} writers: plain {plain:.0} pts/s, scrubbed {scrubbed:.0} pts/s — {:.1}% (target < 5%)",
        (1.0 - scrubbed / plain) * 100.0,
        WRITERS = 4
    );

    let json = render_json(&rows, fsyncs_per_point, plain, scrubbed);
    std::fs::write(BASELINE_PATH, &json).expect("write BENCH_ingest.json");
    println!("wrote {BASELINE_PATH}");

    let hot = |threads: usize| {
        rows.iter()
            .find(|r| r.workload == "hot-series" && r.threads == threads)
            .expect("hot-series row")
    };
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "acceptance: hot-series @ 8 writers = {:.0} pts/s (target ≥ 1M): {}, \
         scaling 1→4→8 on {cores} cores = {:.0} → {:.0} → {:.0}: {}",
        hot(8).current,
        if hot(8).current >= 1_000_000.0 { "OK" } else { "FAIL" },
        hot(1).current,
        hot(4).current,
        hot(8).current,
        if contention_ok(&[(1, hot(1).current), (4, hot(4).current), (8, hot(8).current)]) {
            "OK"
        } else {
            "FAIL"
        },
    );
}

fn main() {
    let quick = std::env::var("LMS_BENCH_QUICK").is_ok_and(|v| v == "1");
    if quick {
        if !run_quick() {
            std::process::exit(1);
        }
        return;
    }
    run_full();
}

fn render_json(
    rows: &[Row],
    fsyncs_per_point: f64,
    scrub_plain: f64,
    scrub_scrubbed: f64,
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"config\": {{\"lines_per_batch\": {LINES_PER_BATCH}, \"batches_per_thread\": {BATCHES_PER_THREAD}, \"runs\": {RUNS}, \"default_shards\": {DEFAULT_SHARDS}}},\n"
    ));
    out.push_str("  \"engines\": {\"current\": \"default stripes, write_parsed_batch through per-shard append buffers\"},\n");
    out.push_str(&format!(
        "  \"wal_group_commit\": {{\"writers\": 8, \"grouped_fsyncs_per_point\": {fsyncs_per_point:.5}}},\n"
    ));
    out.push_str(&format!(
        "  \"scrub_overhead\": {{\"writers\": 4, \"plain_pts_per_s\": {scrub_plain:.0}, \"scrubbed_pts_per_s\": {scrub_scrubbed:.0}, \"overhead_pct\": {:.2}}},\n",
        (1.0 - scrub_scrubbed / scrub_plain.max(f64::MIN_POSITIVE)) * 100.0
    ));
    // The cluster bench owns the `cluster_scaling` line; carry the current
    // one over so a full ingest run does not erase it.
    if let Some(line) = std::fs::read_to_string(BASELINE_PATH)
        .ok()
        .and_then(|s| s.lines().find(|l| l.trim_start().starts_with("\"cluster_scaling\"")).map(String::from))
    {
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"threads\": {}, \"current_pts_per_s\": {:.0}}}{}\n",
            r.workload,
            r.threads,
            r.current,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
