//! Per-layer metrics, measured from outside: public stats structs read when
//! the window has drained, and — in a traced run — a single-threaded replay of a
//! seeded sample (write bodies, the query strings of eight views) through
//! each layer's public functions on the now-quiet stack, one span per call.
//! Where a public call contains another (`handle_write` ⊃ `parse_batch`),
//! self time is by subtraction of the separately timed child on the same
//! input. No layer's code is touched.

use crate::gen::{self, Body};
use crate::load::{now_ns, Span};
use crate::metrics::{Metric, PER_LAYER};
use crate::run::{Loaded, RunArgs, Setup};
use crate::stack::{self, Stack, DB};
use crate::stats::{median, percentile, sorted};
use crate::sys;
use crate::workload::Op;
use lms_analysis::JobEvaluation;
use lms_cluster::{partial_plan, ClusterConfig};
use lms_dashboard::render::RenderOptions;
use lms_http::{HttpClient, Response, Server};
use lms_influx::{InfluxClient, QueryResult, QuerySource};
use lms_lineproto::{parse_batch, BatchBuilder, FieldValue, Point};
use lms_mq::{Publisher, Subscriber};
use lms_router::{ClusterForwarder, ForwardConfig, JobSignal, Router, RouterConfig};
use lms_util::rng::XorShift64;
use lms_util::{Clock, Json};
use std::collections::HashMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// Write bodies replayed.
const SAMPLE_BODIES: usize = 512;
/// Cap on replayed lines (a 16-host body is ~720 lines).
const SAMPLE_LINES: usize = 160_000;
/// Views whose query strings are captured.
const SAMPLE_VIEWS: usize = 8;

/// What the replay needs from the run.
pub(crate) struct Context<'a> {
    pub args: &'a RunArgs<'a>,
    pub stack: &'a Stack,
    pub setup: &'a Setup,
    pub loaded: &'a Loaded,
    pub stack_cpu_s: f64,
    pub window_lines: u64,
    /// `(name, (value, samples))` of the demoted end-to-end metrics.
    pub demoted: &'a [(&'static str, (Option<f64>, usize))],
}

/// Collects replay spans; every call into a layer goes through `call`.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    next_op: u64,
}

impl Tracer {
    fn op(&mut self) -> u64 {
        self.next_op += 1;
        0xEEEE << 48 | self.next_op
    }

    /// Times `f`, records a span, returns its result and nanoseconds.
    fn call<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let start = Instant::now();
        let r = std::hint::black_box(f());
        let end = Instant::now();
        self.spans.push(Span {
            name,
            start_us: start.duration_since(self.epoch).as_micros() as u64,
            end_us: end.duration_since(self.epoch).as_micros() as u64,
            op,
        });
        (r, end.duration_since(start).as_nanos() as f64)
    }
}

/// A `QuerySource` that counts and times what passes through it, so a
/// caller's self time is its total minus the time inside the source.
struct CountingSource<S: QuerySource> {
    inner: S,
    queries: Vec<String>,
    spent: Duration,
}

impl<S: QuerySource> QuerySource for CountingSource<S> {
    fn query_source(&mut self, db: &str, q: &str) -> lms_util::Result<QueryResult> {
        let start = Instant::now();
        let r = self.inner.query_source(db, q);
        self.spent += start.elapsed();
        self.queries.push(q.to_string());
        r
    }
}

/// A server that acknowledges everything: the far side of HTTP and router
/// replays.
fn no_op_server() -> Server {
    Server::bind("127.0.0.1:0", 64, |_req| Response::no_content()).expect("bind no-op server")
}

/// CPU nanoseconds consumed so far by all live threads (scheduler
/// accounting, ns resolution). Exited threads drop out, so it is only used
/// around loops whose threads outlive them.
fn live_threads_cpu_ns() -> f64 {
    let mut total = 0.0;
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            if let Ok(s) = std::fs::read_to_string(task.path().join("schedstat")) {
                total += s
                    .split_ascii_whitespace()
                    .next()
                    .and_then(|v| v.parse::<f64>().ok())
                    .unwrap_or(0.0);
            }
        }
    }
    total
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Values by metric name; a metric without an entry is absent from the
/// run (a percentile short of samples, a replay figure in an untraced run).
#[derive(Default)]
struct Values(HashMap<&'static str, f64>);

impl Values {
    fn insert(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    fn insert_some(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(value) = value {
            self.0.insert(name, value);
        }
    }
}

/// Above this much send lateness a run was not an open loop.
const LATE_LIMIT_MS: f64 = 20.0;

/// The per-layer metrics of this run, in declared order, and notes on the
/// run's validity as a measurement (not on the stack's correctness).
pub(crate) fn per_layer(ctx: &Context) -> (Vec<Metric>, Vec<String>) {
    let mut v = Values::default();
    let mut notes = Vec::new();
    for &(name, (value, _)) in ctx.demoted {
        v.insert_some(name, value);
    }
    stats_metrics(ctx, &mut v);
    if let Some(late) =
        v.0.get("gen.late_p99_ms")
            .filter(|late| **late > LATE_LIMIT_MS)
    {
        notes.push(format!(
            "gen.late_p99_ms = {late:.1} ms > {LATE_LIMIT_MS} ms: the writers fell behind their schedule, this run is not a valid open loop"
        ));
    }
    if ctx.args.trace {
        let mut tracer = Tracer {
            epoch: ctx.args.started,
            spans: Vec::new(),
            next_op: 0,
        };
        replay_metrics(ctx, &mut tracer, &mut v, &mut notes);
        write_trace(ctx, &tracer);
    }
    let metrics = PER_LAYER
        .iter()
        .map(|d| Metric {
            name: d.name.to_string(),
            unit: d.unit,
            value: v.0.get(d.name).copied(),
            samples: ctx
                .demoted
                .iter()
                .find(|(n, _)| *n == d.name)
                .map_or(1, |(_, (_, n))| *n),
        })
        .collect();
    (metrics, notes)
}

/// Metrics read from public stats structs and the generator's own records.
fn stats_metrics(ctx: &Context, v: &mut Values) {
    let loaded = ctx.loaded;
    let rs = &loaded.router_stats;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let sheds: u64 = loaded.writers.iter().map(|w| w.sheds).sum::<u64>() + loaded.reader.sheds;
    let requests: u64 = loaded.writers.iter().map(|w| w.log.len() as u64).sum();
    v.insert("http.shed_connections", ctx.stack.shed_connections() as f64);
    v.insert(
        "router.enriched_share",
        ratio(rs.lines_enriched as f64, rs.lines_in as f64),
    );
    v.insert(
        "router.coalesce_ratio",
        ratio(rs.forward.coalesced as f64, rs.forward.delivered as f64),
    );
    v.insert(
        "router.writes_shed_share",
        ratio(sheds as f64, (sheds + requests) as f64),
    );
    v.insert("router.forward_retries", rs.forward.retries as f64);
    v.insert("router.forward_dropped", rs.forward.dropped as f64);
    v.insert("router.partial_queries", rs.partial_queries as f64);
    v.insert_some(
        "router.forward_lag_p50_ms",
        median(&loaded.reader.forward_lag_ms),
    );
    let node_values: u64 = ctx
        .stack
        .nodes
        .iter()
        .map(|n| n.influx.point_count(DB) as u64)
        .sum();
    let sent_values: u64 = ctx.setup.base_values
        + loaded
            .writers
            .iter()
            .map(|w| w.values - w.late_lines)
            .sum::<u64>()
        + loaded.reader.probe_lines;
    v.insert(
        "cluster.copies_per_line",
        ratio(node_values as f64, sent_values as f64),
    );

    let ns = &loaded.node_stats;
    let commits: u64 = ns.iter().map(|s| s.group_commits).sum();
    v.insert(
        "influx.points_per_commit",
        ratio(
            ns.iter()
                .map(|s| s.batched_points_per_commit * s.group_commits as f64)
                .sum(),
            commits as f64,
        ),
    );
    v.insert("influx.group_commits", commits as f64);
    v.insert(
        "influx.wal_fsyncs",
        ns.iter().map(|s| s.wal_fsyncs).sum::<u64>() as f64,
    );
    v.insert_some(
        "influx.shard_buffer_depth_p50",
        median(&loaded.sampler.buffer_depth),
    );
    v.insert("influx.drain_s", loaded.sampler.drain_s);
    v.insert(
        "influx.values_per_block",
        ratio(
            ns.iter().map(|s| s.sealed_points).sum::<u64>() as f64,
            ns.iter().map(|s| s.sealed_blocks).sum::<u64>() as f64,
        ),
    );
    v.insert(
        "influx.compactions",
        ns.iter().map(|s| s.compactions).sum::<u64>() as f64,
    );
    let (_, rollup_rows) = ctx.stack.nodes[0].influx.rollup_counters();
    v.insert("influx.rollup_rows", rollup_rows as f64);

    v.insert("core.rss_peak_mib", sys::memory_and_threads().0);
    v.insert("core.threads_peak", loaded.sampler.threads_peak as f64);
    if ctx.args.trace {
        v.insert("core.idle_cpu_cores", loaded.idle_cores);
    }
    let burst_lines: u64 = loaded.writers.iter().map(|w| w.burst_lines).sum();
    v.insert(
        "core.burst_points_per_s",
        ratio(burst_lines as f64, loaded.burst.seconds),
    );
    v.insert(
        "core.burst_cpu_us_per_point",
        ratio(loaded.burst.stack_cpu_s * 1e6, burst_lines as f64),
    );

    let late: Vec<f64> = loaded
        .writers
        .iter()
        .flat_map(|w| w.late_ms.iter().copied())
        .collect();
    v.insert_some("gen.late_p99_ms", percentile(&sorted(late), 0.99));
    v.insert(
        "gen.cpu_share",
        ratio(
            loaded.cpu.generator_s,
            loaded.window_s * sys::nproc() as f64,
        ),
    );
    let reads: usize = loaded.reader.lat_ms.iter().map(Vec::len).sum();
    v.insert("gen.reads_per_s", ratio(reads as f64, loaded.window_s));
    v.insert(
        "gen.offered_points_per_s",
        ratio(
            loaded.writers.iter().map(|w| w.offered_lines).sum::<u64>() as f64,
            loaded.window_s,
        ),
    );

    // Traced vs untraced seconds of this run.
    let mut cost = [(0.0, 0u64); 2];
    for w in loaded.sampler.seconds.windows(2) {
        let slot = &mut cost[w[1].traced as usize];
        slot.0 += w[1].cpu.since(&w[0].cpu).stack_s();
        slot.1 += w[1].acked_lines - w[0].acked_lines;
    }
    let [off, on] = cost.map(|(cpu, lines)| ratio(cpu, lines as f64));
    if off > 0.0 && on > 0.0 {
        v.insert("trace.overhead_share", on / off - 1.0);
    }
}

/// A seeded sample of the run's write bodies, freshly stamped.
fn sample_bodies(ctx: &Context) -> Vec<Body> {
    let mut rng = XorShift64::new(ctx.args.seed ^ 0x5A3F1E);
    let units: Vec<_> = ctx
        .loaded
        .writers
        .iter()
        .flat_map(|w| w.units.iter())
        .collect();
    let lines_per_body = units[0].frames[0].lines as usize;
    let n = SAMPLE_BODIES.min(SAMPLE_LINES / lines_per_body).max(8);
    let mut base = now_ns();
    (0..n)
        .map(|_| {
            let unit = units[rng.below(units.len() as u64) as usize];
            let mut body = unit.frames[rng.below(unit.frames.len() as u64) as usize].clone();
            base += body.span_ns + 1_000;
            body.stamp(base, None);
            body
        })
        .collect()
}

fn replay_metrics(ctx: &Context, tracer: &mut Tracer, v: &mut Values, notes: &mut Vec<String>) {
    let spec = ctx.args.spec;
    let setup = ctx.setup;
    let bodies = sample_bodies(ctx);
    let lines: f64 = bodies.iter().map(|b| b.lines as f64).sum();
    let values: f64 = bodies.iter().map(|b| b.values as f64).sum();
    let cluster = spec.deployment.db_nodes > 1;

    // lineproto: parse, then serialise the same points.
    let mut parse_ns = 0.0;
    let mut serialize_ns = 0.0;
    for body in &bodies {
        let op = tracer.op();
        let (parsed, ns) = tracer.call("lineproto.parse_batch", op, || parse_batch(body.text()));
        parse_ns += ns;
        let points: Vec<Point> = parsed.lines.iter().map(|l| l.to_point()).collect();
        let mut batch = BatchBuilder::with_capacity(body.bytes.len() + 64);
        let (_, ns) = tracer.call("lineproto.serialize", op, || {
            for p in &points {
                batch.push(p);
            }
            batch.byte_len()
        });
        serialize_ns += ns;
    }
    v.insert("lineproto.parse_ns_per_line", parse_ns / lines);
    v.insert("lineproto.serialize_ns_per_line", serialize_ns / lines);

    agents(ctx, tracer, v);

    // http: keep-alive round trip at the workload's median body size, and
    // a fresh connection's first request, against a no-op server.
    let sink = no_op_server();
    let mut sizes: Vec<usize> = bodies.iter().map(|b| b.bytes.len()).collect();
    sizes.sort_unstable();
    let payload = vec![b'x'; sizes[sizes.len() / 2]];
    let mut client = HttpClient::connect(sink.addr()).expect("loopback address resolves");
    client.post("/write", &payload).expect("no-op post");
    let mut roundtrips = Vec::new();
    let cpu_before = live_threads_cpu_ns();
    for _ in 0..400 {
        let op = tracer.op();
        let (r, ns) = tracer.call("http.roundtrip", op, || client.post("/write", &payload));
        r.expect("no-op post");
        roundtrips.push(ns / 1e3);
    }
    let roundtrip_cpu_us = (live_threads_cpu_ns() - cpu_before) / 400.0 / 1e3;
    let mut setups = Vec::new();
    for _ in 0..100 {
        let op = tracer.op();
        let (r, ns) = tracer.call("http.conn_setup", op, || {
            HttpClient::connect(sink.addr()).and_then(|mut c| c.get("/ping"))
        });
        r.expect("no-op get");
        setups.push(ns / 1e3);
    }
    let roundtrip_us = median(&roundtrips).unwrap_or(0.0);
    let conn_setup_us = median(&setups).unwrap_or(0.0);
    v.insert("http.roundtrip_us", roundtrip_us);
    v.insert("http.conn_setup_us", conn_setup_us);

    // router: handle_write against the no-op node, minus the parse.
    let config = RouterConfig {
        per_user: spec.deployment.per_user,
        ..Default::default()
    };
    let router = Router::new(sink.addr(), config, Clock::system(), None).expect("replay router");
    for job in &setup.fleet.jobs {
        router.handle_job_start(JobSignal {
            job_id: job.id.clone(),
            user: job.user.clone(),
            hosts: job
                .hosts
                .iter()
                .map(|&h| setup.fleet.hosts[h as usize].name.clone())
                .collect(),
            extra_tags: Vec::new(),
        });
    }
    let mut write_ns = 0.0;
    for body in &bodies {
        let op = tracer.op();
        let (outcome, ns) = tracer.call("router.handle_write", op, || {
            router.handle_write(None, body.text())
        });
        assert_eq!(outcome.rejected, 0);
        write_ns += ns;
        // The forwarder's queue is finite; let it empty into the no-op node.
        router.flush(Duration::from_secs(5));
    }
    let router_write_self = ((write_ns - parse_ns) / lines).max(0.0);
    v.insert("router.write_self_ns_per_line", router_write_self);
    drop(router);

    // cluster: ring split of the same lines over three no-op nodes, R=2.
    // A single node has no ring: the cost of a layer that is not deployed
    // is nil (likewise the merge, the publisher and the rollup pass below).
    let mut split_ns_per_line = 0.0;
    if cluster {
        let addrs = vec![sink.addr(); spec.deployment.db_nodes];
        let ring = ClusterConfig {
            nodes: addrs,
            replication: spec.deployment.replication,
            write_quorum: 1,
            seed: stack::RING_SEED,
        };
        let fabric = ClusterForwarder::start(&ring, &ForwardConfig::new(sink.addr()))
            .expect("replay fabric");
        let mut split_ns = 0.0;
        for body in &bodies {
            let parsed = parse_batch(body.text());
            let op = tracer.op();
            let (_, ns) = tracer.call("cluster.split", op, || {
                let mut batch = fabric.batch(DB);
                for line in &parsed.lines {
                    batch.push_raw(line);
                }
                batch.is_empty()
            });
            split_ns += ns;
        }
        split_ns_per_line = split_ns / lines;
    }
    v.insert("cluster.split_ns_per_line", split_ns_per_line);

    // mq: publish the sample's lines to one draining subscriber.
    let mut publish_ns_per_msg = 0.0;
    let mut dropped_share = 0.0;
    if spec.deployment.publish {
        let publisher = Publisher::bind("127.0.0.1:0").expect("bind replay publisher");
        let mut sub = Subscriber::connect(publisher.addr()).expect("connect replay subscriber");
        // The live analyzer's subscription: the reference metric only.
        sub.subscribe(&format!("metrics.{}", gen::APP_METRICS[0]))
            .expect("subscribe");
        publisher
            .wait_for_subscribers(1, Duration::from_secs(2))
            .expect("subscriber ready");
        let drain = std::thread::Builder::new()
            .name(format!("{}mq-drain", sys::GEN_PREFIX))
            .spawn(move || while let Ok(Some(_)) = sub.recv_timeout(Duration::from_millis(300)) {})
            .expect("spawn drain");
        let mut spent = 0.0;
        let mut messages = 0.0;
        for body in bodies.iter().take(128) {
            let parsed = parse_batch(body.text());
            let topics: Vec<String> = parsed
                .lines
                .iter()
                .map(|l| format!("metrics.{}", l.measurement))
                .collect();
            let op = tracer.op();
            let (_, ns) = tracer.call("mq.publish", op, || {
                for (line, topic) in parsed.lines.iter().zip(&topics) {
                    publisher.publish(topic, line.raw.as_bytes());
                }
            });
            spent += ns;
            messages += parsed.lines.len() as f64;
            // Bodies arrive at the workload's rate, not back to back.
            std::thread::sleep(Duration::from_secs_f64(1.0 / spec.write_rate));
        }
        let stats = publisher.stats();
        drain.join().expect("drain thread");
        publish_ns_per_msg = spent / messages;
        dropped_share = stats.dropped as f64 / stats.published.max(1) as f64;
    }
    v.insert("mq.publish_ns_per_msg", publish_ns_per_msg);
    v.insert("mq.dropped_share", dropped_share);

    // influx + tsm: the sample into a fresh node in four rounds, sealing
    // each, so the partition reaches the compaction threshold.
    let dir = ctx
        .args
        .out_dir
        .join(format!("replay-{}-{}", spec.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let influx = stack::open_node(&Clock::system(), &dir, spec.deployment.rollups)
        .expect("open replay node");
    let mut write_lines_ns = 0.0;
    let mut flush_ns = 0.0;
    let mut wal_bytes = 0.0;
    for round in bodies.chunks(bodies.len().div_ceil(4)) {
        for body in round {
            let op = tracer.op();
            let (r, ns) = tracer.call("influx.write_lines", op, || {
                influx.write_lines(DB, body.text(), Default::default())
            });
            r.expect("replay write");
            write_lines_ns += ns;
        }
        wal_bytes += influx.storage_stats().wal_bytes as f64;
        let db = influx.database(DB).expect("replay database");
        let op = tracer.op();
        let (r, ns) = tracer.call("influx.flush_storage", op, || db.flush_storage());
        r.expect("replay flush");
        flush_ns += ns;
    }
    let influx_write_self = ((write_lines_ns - parse_ns) / lines).max(0.0);
    v.insert("influx.write_self_ns_per_line", influx_write_self);
    let flush_ms_per_mvalue = ms(flush_ns) / (values / 1e6);
    v.insert("influx.flush_ms_per_mvalue", flush_ms_per_mvalue);
    v.insert("tsm.wal_bytes_per_value", wal_bytes / values);
    let sealed = influx.storage_stats();
    v.insert(
        "tsm.segment_bytes_per_value",
        sealed.segment_bytes as f64 / values,
    );
    let mut rollup_ms = 0.0;
    if spec.deployment.rollups {
        let op = tracer.op();
        let (r, ns) = tracer.call("influx.rollup_pass", op, || influx.rollup_pass(DB));
        r.expect("replay rollup");
        rollup_ms = ms(ns);
    }
    v.insert("influx.rollup_pass_ms", rollup_ms);
    let op = tracer.op();
    let (r, ns) = tracer.call("influx.compact_storage", op, || influx.compact_storage());
    let compact_ms_per_mvalue = match r {
        Ok(blocks) if blocks > 0 => ms(ns) / (values / 1e6),
        _ => 0.0,
    };
    v.insert("influx.compact_ms_per_mvalue", compact_ms_per_mvalue);
    let op = tracer.op();
    let (_, ns) = tracer.call("influx.enforce_retention", op, || {
        influx.enforce_retention()
    });
    v.insert("influx.retention_ms", ms(ns));
    let op = tracer.op();
    let (r, ns) = tracer.call("influx.scrub_storage", op, || {
        influx.scrub_storage(u64::MAX)
    });
    if let Ok(outcome) = r {
        if outcome.scrubbed_bytes > 0 {
            v.insert(
                "influx.scrub_ms_per_mib",
                ms(ns) / (outcome.scrubbed_bytes as f64 / 1048576.0),
            );
        }
    }
    drop(influx);
    let _ = std::fs::remove_dir_all(&dir);

    // tsm: encode/decode of a captured column of the reference field.
    let mut column: Vec<(i64, FieldValue)> = bodies
        .iter()
        .flat_map(|b| b.refs.iter().map(|r| r.value))
        .take(4096)
        .enumerate()
        .map(|(i, value)| {
            (
                now_ns() + i as i64 * 1_000_000_000,
                FieldValue::Float(value),
            )
        })
        .collect();
    column.sort_by_key(|(t, _)| *t);
    let op = tracer.op();
    // One call is a few hundred µs and a stall doubles it: the median of
    // sixteen calls each.
    let block = lms_tsm::encode::encode_block(&column);
    let (mut encodes, mut decodes) = (Vec::new(), Vec::new());
    for _ in 0..16 {
        let (_, ns) = tracer.call("tsm.encode_block", op, || {
            lms_tsm::encode::encode_block(&column).len()
        });
        encodes.push(ns);
        let (_, ns) = tracer.call("tsm.decode_block", op, || {
            lms_tsm::encode::decode_block(&block).map_or(0, |p| p.len())
        });
        decodes.push(ns);
    }
    let encode_ns = median(&encodes).unwrap_or(0.0) / column.len() as f64;
    v.insert("tsm.encode_ns_per_value", encode_ns);
    v.insert(
        "tsm.decode_ns_per_value",
        median(&decodes).unwrap_or(0.0) / column.len() as f64,
    );

    // Views: eight job views and an admin view through a counting source
    // that reads through the router, as the viewer does.
    let topo = &setup.topo;
    let agent = stack::viewer_agent(topo);
    let now = Clock::system().now();
    let mut source = CountingSource {
        inner: InfluxClient::connect(ctx.stack.router_addr).expect("loopback address resolves"),
        queries: Vec::new(),
        spent: Duration::ZERO,
    };
    let (mut evaluate, mut generate, mut render, mut per_view, mut query_share) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut view_queries: Vec<String> = Vec::new();
    for i in 0..SAMPLE_VIEWS {
        let id = &setup.view_jobs[i % setup.view_jobs.len()];
        let job = setup
            .jobs
            .iter()
            .find(|j| &j.jobid == id)
            .expect("view job listed");
        let end = job.end.unwrap_or(now);
        let op = tracer.op();
        source.spent = Duration::ZERO;
        let (r, eval_ns) = tracer.call("analysis.evaluate", op, || {
            JobEvaluation::evaluate(
                &mut source,
                DB,
                &job.jobid,
                &job.hosts,
                job.start,
                end,
                stack::peaks(topo),
            )
        });
        r.expect("replay evaluation");
        let eval_self = eval_ns - source.spent.as_nanos() as f64;
        evaluate.push(ms(eval_self));

        source.spent = Duration::ZERO;
        let first_query = source.queries.len();
        let (dashboard, gen_ns) = tracer.call("dashboard.job_dashboard", op, || {
            agent.job_dashboard(&mut source, job, now)
        });
        let dashboard = dashboard.expect("replay dashboard");
        let gen_inside = source.spent.as_nanos() as f64;
        // job_dashboard contains an evaluation: subtract the one timed
        // separately on the same job.
        generate.push(ms((gen_ns - gen_inside - eval_self).max(0.0)));
        source.spent = Duration::ZERO;
        let (text, render_ns) = tracer.call("dashboard.render_dashboard", op, || {
            agent.render_dashboard(&mut source, &dashboard, RenderOptions::default())
        });
        text.expect("replay render");
        let render_inside = source.spent.as_nanos() as f64;
        render.push(ms(render_ns - render_inside));
        per_view.push((source.queries.len() - first_query) as f64);
        view_queries.extend(source.queries[first_query..].iter().cloned());
        query_share.push((gen_inside + render_inside) / (gen_ns + render_ns));
    }
    source.spent = Duration::ZERO;
    let running: Vec<_> = setup
        .jobs
        .iter()
        .filter(|j| j.end.is_none())
        .cloned()
        .collect();
    let op = tracer.op();
    let (r, admin_ns) = tracer.call("dashboard.admin_view", op, || {
        agent.admin_view(&mut source, &running, now)
    });
    r.expect("replay admin view");
    let med = |x: &[f64]| median(x).unwrap_or(0.0);
    let admin_self_ms = ms(admin_ns - source.spent.as_nanos() as f64);
    v.insert("analysis.evaluate_self_ms", med(&evaluate));
    v.insert("dashboard.generate_self_ms", med(&generate));
    v.insert("dashboard.render_self_ms", med(&render));
    v.insert("dashboard.admin_self_ms", admin_self_ms);
    v.insert("dashboard.queries_per_view", med(&per_view));
    v.insert("dashboard.query_time_share", med(&query_share));

    // Query classes, in process on every node (sum = engine time per query
    // over the cluster), and through the router for its self time.
    let reader = &setup.reader;
    let nodes = &ctx.stack.nodes;
    // Returns (mean engine ms per query — the classes mix cheap and dear
    // statements, and the attribution needs the total — and mean values
    // per answer).
    let engine_ms = |tracer: &mut Tracer, name: &'static str, qs: &[String]| -> (f64, f64) {
        let mut per_query = Vec::new();
        let mut values = 0usize;
        for q in qs {
            let sent = match cluster {
                true => partial_plan(q).map_or(q.clone(), |p| p.partial_query().to_string()),
                false => q.clone(),
            };
            let op = tracer.op();
            let mut total = 0.0;
            for node in nodes {
                let (r, ns) = tracer.call(name, op, || node.influx.query(DB, &sent));
                total += ns;
                values += r.as_ref().map_or(0, result_values);
            }
            per_query.push(ms(total));
        }
        let mean = per_query.iter().sum::<f64>() / per_query.len().max(1) as f64;
        (mean, values as f64 / (qs.len() * nodes.len()).max(1) as f64)
    };
    let panel_qs: Vec<String> = reader
        .panels
        .iter()
        .take(32)
        .map(|t| target_to_query(t))
        .collect();
    let fleet_qs: Vec<String> = reader.fleet.iter().map(|t| target_to_query(t)).collect();
    // Every distinct query string the eight views issued (evaluation,
    // generation and panel rendering alike); a seeded 256 of them when
    // there are more.
    view_queries.sort();
    view_queries.dedup();
    gen::shuffle(
        &mut view_queries,
        &mut XorShift64::new(ctx.args.seed ^ 0x51E7),
    );
    view_queries.truncate(256);
    let view_qs = view_queries;
    let (query_panel_ms, panel_values) = engine_ms(tracer, "influx.query_panel", &panel_qs);
    let (query_fleet_ms, fleet_values) = engine_ms(tracer, "influx.query_fleet_agg", &fleet_qs);
    let (query_eval_ms, view_values) = engine_ms(tracer, "influx.query_eval", &view_qs);
    let (query_show_ms, _) = engine_ms(
        tracer,
        "influx.query_show",
        &["SHOW MEASUREMENTS".to_string()],
    );
    v.insert("influx.query_panel_ms", query_panel_ms);
    v.insert("influx.query_fleet_agg_ms", query_fleet_ms);
    v.insert("influx.query_eval_ms", query_eval_ms);
    v.insert("influx.query_show_ms", query_show_ms);

    // Through the router: its self time, the merge, and the merged answers
    // (what the router serialises and a client parses).
    let mut router_self = Vec::new();
    let mut merges = Vec::new();
    let mut answers: Vec<QueryResult> = Vec::new();
    // Mean values per merged answer: panels, fleet aggregates, view queries.
    let mut merged_values = [0.0; 3];
    let mut class_ranges = [0..0, 0..0, 0..0];
    let classes = [
        &panel_qs[..],
        &fleet_qs[..],
        &view_qs[..view_qs.len().min(64)],
    ];
    for (class, qs) in classes.into_iter().enumerate() {
        let before = answers.len();
        for q in qs {
            let op = tracer.op();
            let (r, total) = tracer.call("router.handle_query", op, || {
                ctx.stack.router.handle_query(DB, q)
            });
            let Ok(answer) = r else { continue };
            let plan = if cluster { partial_plan(q) } else { None };
            let sent = plan.as_ref().map_or(q.as_str(), |p| p.partial_query());
            let mut slowest: f64 = 0.0;
            let mut parts = Vec::new();
            for node in nodes {
                let (r, ns) = tracer.call("influx.query", op, || node.influx.query(DB, sent));
                slowest = slowest.max(ns);
                parts.extend(r.ok());
            }
            if class < 2 {
                router_self.push(ms((total - slowest).max(0.0)));
            }
            if cluster {
                let (_, ns) = tracer.call("cluster.merge", op, || match plan {
                    Some(plan) => plan.merge(parts),
                    None => lms_cluster::merge_results(parts),
                });
                merges.push(ns / 1e3);
            }
            answers.push(answer);
        }
        let captured = &answers[before..];
        class_ranges[class] = before..answers.len();
        merged_values[class] =
            captured.iter().map(result_values).sum::<usize>() as f64 / captured.len().max(1) as f64;
    }
    let router_query_self_ms = med(&router_self);
    let merge_us = med(&merges);
    v.insert("router.query_self_ms", router_query_self_ms);
    v.insert("cluster.merge_us_per_query", merge_us);

    // json: every captured answer serialised, and its text parsed back,
    // timed apart and per query class (answers of different sizes cost
    // differently per value); the median of five passes each.
    let texts: Vec<String> = answers.iter().map(|a| a.to_json().to_string()).collect();
    // Per class: ns to serialise, and to parse, one merged answer.
    let mut json_ns = [(0.0, 0.0); 3];
    let op = tracer.op();
    for (class, range) in class_ranges.iter().enumerate() {
        let (mut serialize_passes, mut parse_passes) = (Vec::new(), Vec::new());
        for _ in 0..5 {
            let (_, ns) = tracer.call("util.json_serialize", op, || {
                answers[range.clone()]
                    .iter()
                    .map(|a| a.to_json().to_string().len())
                    .sum::<usize>()
            });
            serialize_passes.push(ns);
            let (_, ns) = tracer.call("util.json_parse", op, || {
                texts[range.clone()]
                    .iter()
                    .filter_map(|t| QueryResult::from_json(&Json::parse(t).ok()?).ok())
                    .map(|r| r.series.len())
                    .sum::<usize>()
            });
            parse_passes.push(ns);
        }
        let n = range.len().max(1) as f64;
        json_ns[class] = (med(&serialize_passes) / n, med(&parse_passes) / n);
    }
    let captured_values: f64 = class_ranges
        .iter()
        .zip(merged_values)
        .map(|(range, per_answer)| range.len() as f64 * per_answer)
        .sum::<f64>()
        .max(1.0);
    let per_value = |pick: fn(&(f64, f64)) -> f64| {
        class_ranges
            .iter()
            .zip(&json_ns)
            .map(|(range, ns)| range.len() as f64 * pick(ns))
            .sum::<f64>()
            / captured_values
    };
    v.insert("util.json_ns_per_value", per_value(|ns| ns.0));
    v.insert("util.json_parse_ns_per_value", per_value(|ns| ns.1));

    // rollup: the widest panel window with and without the tiers (without
    // tiers both are the same path).
    let mut tier_speedup = 1.0;
    if spec.deployment.rollups {
        let node = &nodes[0].influx;
        let q = panel_qs.last().expect("panels planned");
        let time = |tracer: &mut Tracer, name: &'static str| {
            let op = tracer.op();
            let runs: Vec<f64> = (0..5)
                .map(|_| tracer.call(name, op, || node.query(DB, q)).1)
                .collect();
            median(&runs).unwrap_or(0.0)
        };
        let tiered = time(tracer, "rollup.query_tiered");
        node.set_query_tiers(Some(Vec::new()));
        let raw = time(tracer, "rollup.query_raw");
        node.set_query_tiers(None);
        if tiered > 0.0 {
            tier_speedup = raw / tiered;
        }
    }
    v.insert("rollup.tier_speedup", tier_speedup);

    // Attribution: replay cost per unit × counts of this run ÷ stack CPU.
    let n = |op: Op| ctx.loaded.reader.lat_ms[op.index()].len() as f64;
    let window_lines = ctx.window_lines as f64;
    let copies = v.0["cluster.copies_per_line"].max(1.0);
    let dup = if spec.deployment.per_user { 2.0 } else { 1.0 };
    let node_lines = window_lines * copies * dup;
    let enriched = v.0["router.enriched_share"];
    let window_values: f64 = ctx
        .loaded
        .writers
        .iter()
        .map(|w| w.window_values as f64)
        .sum::<f64>()
        * copies
        * dup;
    let write_requests: f64 = ctx
        .loaded
        .writers
        .iter()
        .map(|w| w.window_requests as f64)
        .sum();
    // Queries the views sent through the router.
    let view_query_count =
        n(Op::JobView) * med(&per_view) + n(Op::AdminView) * running.len() as f64;
    let router_queries =
        n(Op::Panel) + n(Op::FleetAgg) + view_query_count + ctx.loaded.reader.probe_polls as f64;
    let node_queries = router_queries * nodes.len() as f64;
    let rs = &ctx.loaded.router_stats;
    let window_share = window_lines / rs.lines_in.max(1) as f64;
    let deliveries = (rs.forward.delivered - rs.forward.coalesced.min(rs.forward.delivered)) as f64
        * window_share;
    // Half of a replayed round trip's CPU is the client's, which in the
    // run is a generator thread for requests that enter the stack.
    let http_s = (roundtrip_cpu_us / 2.0
        * (write_requests + n(Op::Panel) + n(Op::FleetAgg) + n(Op::JobView) + n(Op::AdminView))
        + roundtrip_cpu_us * (deliveries + node_queries + view_query_count)
        + (conn_setup_us - roundtrip_us).max(0.0)
            * (node_queries + n(Op::JobView) + n(Op::AdminView)))
        / 1e6;
    let engine_query_s = (query_panel_ms * n(Op::Panel)
        + query_fleet_ms * n(Op::FleetAgg)
        + query_eval_ms * view_query_count
        + query_show_ms * n(Op::JobView))
        / 1e3;
    // JSON on stack threads, per query of a class: every node serialises
    // its answer and the router parses it (costed as the merged answer,
    // scaled by how many values the nodes' answers hold); the router
    // serialises the merged answer; the viewer parses what its views asked
    // for. Panels and fleet aggregates are parsed by the reader — a
    // generator thread, not stack CPU.
    let json_s = [
        (n(Op::Panel), panel_values, false),
        (n(Op::FleetAgg), fleet_values, false),
        (view_query_count, view_values, true),
    ]
    .iter()
    .zip(json_ns.iter().zip(merged_values))
    .map(
        |(&(count, node_values, viewer), (&(serialize, parse), merged))| {
            let node_scale = node_values * nodes.len() as f64 / merged.max(1.0);
            count * (serialize * (node_scale + 1.0) + parse * (node_scale + viewer as u8 as f64))
        },
    )
    .sum::<f64>()
        / 1e9;
    let encode_s = encode_ns * window_values / 1e9;
    let flush_s = flush_ms_per_mvalue * window_values / 1e9;
    let seconds: [(&'static str, f64); 10] = [
        (
            "share.lineproto",
            (parse_ns / lines * (window_lines + node_lines)
                + serialize_ns / lines * window_lines * enriched * copies * dup)
                / 1e9,
        ),
        ("share.http", http_s),
        ("share.router", router_write_self * window_lines / 1e9),
        (
            "share.cluster",
            (split_ns_per_line * window_lines + merge_us * 1e3 * router_queries) / 1e9,
        ),
        (
            "share.influx",
            influx_write_self * node_lines / 1e9
                + engine_query_s
                + (flush_s - encode_s).max(0.0)
                + compact_ms_per_mvalue * window_values / 1e9
                + rollup_ms / 1e3,
        ),
        ("share.tsm", encode_s),
        ("share.mq", publish_ns_per_msg * window_lines / 1e9),
        (
            "share.dashboard",
            (med(&generate) + med(&render)) * n(Op::JobView) / 1e3
                + admin_self_ms * n(Op::AdminView) / 1e3,
        ),
        ("share.analysis", med(&evaluate) * n(Op::JobView) / 1e3),
        ("share.json", json_s),
    ];
    let mut attributed = 0.0;
    for (name, s) in seconds {
        let share = s / ctx.stack_cpu_s.max(1e-9);
        attributed += share;
        v.insert(name, share);
    }
    // Replay costs come from a quiet, single-threaded stack; should they
    // ever add up to more than the window spent, the table is wrong and
    // says so instead of reporting a negative remainder.
    v.insert("share.unattributed", (1.0 - attributed).max(0.0));
    if attributed > 1.0 {
        notes.push(format!(
            "share.* attributes {:.0} % of the window's stack CPU: the attribution table of this run is invalid",
            attributed * 100.0
        ));
    }
}

/// Agent-side replays, the same on every workload: one node's sysmon
/// tick, HPM read, and the `UserMetric` call, each into a null sink.
fn agents(ctx: &Context, tracer: &mut Tracer, v: &mut Values) {
    let (mut tick, mut hpm) = (Vec::new(), Vec::new());
    gen::replay_agents(&ctx.setup.topo, 400, |which, f| {
        let op = tracer.op();
        let name = if which == 0 {
            "sysmon.tick"
        } else {
            "hpm.collect"
        };
        let ((), ns) = tracer.call(name, op, f);
        if which == 0 {
            tick.push(ns / 1e3)
        } else {
            hpm.push(ns / 1e3)
        }
    });
    v.insert_some("sysmon.tick_us_per_sweep", median(&tick));
    v.insert_some("hpm.collect_us_per_sweep", median(&hpm));
    let um = gen::null_usermetric();
    let op = tracer.op();
    let (_, ns) = tracer.call("usermetric.metric", op, || {
        for i in 0..100_000 {
            um.metric(gen::APP_METRICS[0], i as f64);
        }
    });
    v.insert("usermetric.metric_ns_per_call", ns / 100_000.0);
}

/// Field values in a result (rows × non-time columns).
fn result_values(r: &QueryResult) -> usize {
    r.series
        .iter()
        .map(|s| s.values.len() * s.columns.len().saturating_sub(1))
        .sum()
}

/// Turns a reader target back into the InfluxQL it asks: `/query` targets
/// carry it verbatim, `/query_range` targets get their bounds and step
/// folded in the way the node's range API does.
fn target_to_query(target: &str) -> String {
    let (_, query) = target.split_once('?').unwrap_or(("", target));
    let params: HashMap<String, String> = query
        .split('&')
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, val)| (k.to_string(), lms_http::url::percent_decode(val)))
        .collect();
    let q = params.get("q").cloned().unwrap_or_default();
    match params.get("start") {
        None => q,
        Some(start) => {
            let end = params
                .get("end")
                .cloned()
                .unwrap_or_else(|| now_ns().to_string());
            let step: i64 = params
                .get("step")
                .and_then(|s| s.parse().ok())
                .unwrap_or(60_000_000_000);
            format!(
                "{q} AND time >= {start} AND time < {end} GROUP BY time({}s)",
                (step / 1_000_000_000).max(1)
            )
        }
    }
}

/// Writes generator and replay spans as JSON lines. Span ids are line
/// numbers; a span's parent is the first span of its operation (0 for that
/// root itself).
fn write_trace(ctx: &Context, tracer: &Tracer) {
    let path = ctx.args.out_dir.join(format!(
        "trace-{}-{}.jsonl",
        ctx.args.spec.name, ctx.args.seed
    ));
    let Ok(file) = std::fs::File::create(&path) else {
        return;
    };
    let mut out = std::io::BufWriter::new(file);
    let generator = ctx
        .loaded
        .writers
        .iter()
        .flat_map(|w| w.spans.iter())
        .chain(ctx.loaded.reader.spans.iter());
    let mut roots: HashMap<u64, usize> = HashMap::new();
    for (i, span) in generator.chain(tracer.spans.iter()).enumerate() {
        let id = i + 1;
        let root = *roots.entry(span.op).or_insert(id);
        let _ = writeln!(
            out,
            "{{\"span\":{id},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"op\":{},\"parent\":{}}}",
            span.name,
            span.start_us,
            span.end_us,
            span.op,
            if root == id { 0 } else { root }
        );
    }
    let _ = out.flush();
}
