//! The generator's inputs: a seeded fleet layout and request bodies
//! pre-rendered from the **real agents** (`HostAgent` over `SimProc`,
//! `HpmCollector` over `Simulator`, `UserMetric`), each with fixed-width
//! timestamp slots that are patched at send time. Lines therefore keep their
//! own timestamps (the router's pass-through path stays reachable) while the
//! generator's per-request work is a handful of digit copies.

use lms_hpm::collector::HpmCollector;
use lms_hpm::simulate::{Simulator, WorkloadPreset};
use lms_lineproto::{parse_batch, BatchBuilder};
use lms_sysmon::{HostAgent, NodeActivity, SimProc};
use lms_topology::Topology;
use lms_usermetric::{UserMetric, UserMetricConfig};
use lms_util::rng::XorShift64;
use lms_util::{Clock, Timestamp};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Width of a nanosecond wall-clock timestamp from 2001 until 2286.
pub const TS_WIDTH: usize = 19;

/// Second the agents' simulated clock starts at while rendering: minute
/// aligned (pre-aggregation windows close on minute boundaries) and 19
/// digits wide in nanoseconds, like the wall-clock values patched in later.
pub const RENDER_EPOCH_S: i64 = 1_700_000_040;
const RENDER_EPOCH_NS: i64 = RENDER_EPOCH_S * 1_000_000_000;

/// Marker for a slot that is never late.
pub const NOT_LATE: i64 = i64::MIN;

/// Spacing of `UserMetric` calls on the rendering clock. Small enough that
/// a 100-line flush spans less wall time than a closed-loop round trip, so
/// stamped timestamps never run ahead of the wall clock.
pub const CALL_SPACING_NS: i64 = 10_000;

/// Iterations of the application loop per 100-line flush (4 metrics each,
/// plus 4 events).
const ITERATIONS_PER_FLUSH: usize = 24;
/// The application's metrics; the first is the reference series the oracle
/// recomputes.
pub const APP_METRICS: [&str; 4] = [
    "app_pressure",
    "app_temperature",
    "app_energy",
    "app_runtime",
];
/// The application's event measurement.
pub const APP_EVENTS: &str = "app_events";

/// One fixed-width timestamp slot of a body.
#[derive(Debug, Clone, Copy)]
pub struct Slot {
    /// Byte offset of the slot's first digit.
    pub offset: u32,
    /// Nanoseconds this line's timestamp lies after the batch base time.
    pub delta: i64,
    /// For a late line: its offset from the base of an *earlier* batch of
    /// the same unit, so it overwrites a point written 1–5 s ago.
    /// [`NOT_LATE`] otherwise.
    pub late_delta: i64,
}

/// A reference-field value carried by a body, for the correctness oracle.
#[derive(Debug, Clone, Copy)]
pub struct RefVal {
    /// Global host index the value belongs to.
    pub host: u32,
    /// Index into [`Body::slots`] of the line that carries it.
    pub slot: u32,
    /// The value exactly as `parse_batch` reads it back.
    pub value: f64,
}

/// Interned measurement names, each with a field every line of the
/// measurement carries (what the oracle's `count()` counts). Bodies count
/// their lines per measurement id.
#[derive(Debug, Default, Clone)]
pub struct Names(Vec<(String, String)>);

impl Names {
    /// Index of `name`, interning it with `field` on first sight.
    pub fn id(&mut self, name: &str, field: &str) -> u16 {
        match self.0.iter().position(|(n, _)| n == name) {
            Some(i) => i as u16,
            None => {
                self.0.push((name.to_string(), field.to_string()));
                (self.0.len() - 1) as u16
            }
        }
    }

    /// `(measurement, count field)` behind an index.
    pub fn get(&self, id: u16) -> (&str, &str) {
        let (name, field) = &self.0[id as usize];
        (name, field)
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// A pre-rendered request body.
#[derive(Debug, Clone)]
pub struct Body {
    /// Line-protocol text (ASCII) with patchable timestamp slots.
    pub bytes: Vec<u8>,
    /// One slot per line, in line order.
    pub slots: Vec<Slot>,
    /// Nanoseconds of timestamps one stamp covers: the next stamp of the
    /// same unit must start at least this much later to keep keys unique.
    pub span_ns: i64,
    /// Lines (points).
    pub lines: u32,
    /// Field values.
    pub values: u32,
    /// Lines marked late.
    pub late_lines: u32,
    /// `(measurement id, lines)` pairs.
    pub by_measurement: Vec<(u16, u32)>,
    /// Reference-field values in this body.
    pub refs: Vec<RefVal>,
}

/// Writes `ts` into a [`TS_WIDTH`]-byte slot.
fn write_ts(slot: &mut [u8], mut ts: i64) {
    debug_assert!(
        (1_000_000_000_000_000_000..=i64::MAX).contains(&ts),
        "19-digit ns timestamp"
    );
    for byte in slot.iter_mut().rev() {
        *byte = b'0' + (ts % 10) as u8;
        ts /= 10;
    }
}

impl Body {
    /// Builds a body from agent output rendered on the simulated clock.
    /// `reference` names the `(measurement, field)` whose values the oracle
    /// tracks; `host_of` maps a `hostname` tag to its global host index.
    pub fn from_text(
        text: &str,
        names: &mut Names,
        reference: (&str, &str),
        host_of: &dyn Fn(&str) -> Option<u32>,
    ) -> Body {
        let parsed = parse_batch(text);
        assert!(
            parsed.is_clean(),
            "agents render clean line protocol: {:?}",
            parsed.errors
        );
        let start = text.as_ptr() as usize;
        let mut body = Body {
            bytes: text.as_bytes().to_vec(),
            slots: Vec::with_capacity(parsed.lines.len()),
            span_ns: 1,
            lines: parsed.lines.len() as u32,
            values: 0,
            late_lines: 0,
            by_measurement: Vec::new(),
            refs: Vec::new(),
        };
        for line in &parsed.lines {
            let ts = line.timestamp.expect("agents stamp every line");
            let raw_start = line.raw.as_ptr() as usize - start;
            let offset = raw_start + line.raw.len() - TS_WIDTH;
            assert_eq!(
                text[offset..offset + TS_WIDTH].parse::<i64>().ok(),
                Some(ts),
                "timestamp slot is the last {TS_WIDTH} bytes of the line"
            );
            let delta = ts - RENDER_EPOCH_NS;
            assert!(delta >= 0, "rendered before the render epoch");
            body.span_ns = body.span_ns.max(delta + 1);
            body.values += line.fields.len() as u32;
            let id = names.id(&line.measurement, &line.fields[0].0);
            match body.by_measurement.iter_mut().find(|(m, _)| *m == id) {
                Some((_, n)) => *n += 1,
                None => body.by_measurement.push((id, 1)),
            }
            if line.measurement == reference.0 {
                if let (Some(host), Some(value)) = (
                    line.hostname().and_then(host_of),
                    line.field(reference.1).and_then(|v| v.as_f64()),
                ) {
                    body.refs.push(RefVal {
                        host,
                        slot: body.slots.len() as u32,
                        value,
                    });
                }
            }
            body.slots.push(Slot {
                offset: offset as u32,
                delta,
                late_delta: NOT_LATE,
            });
        }
        body
    }

    /// Marks line `line` late: when an earlier base is available at stamp
    /// time it is written `late_delta` after *that* base instead.
    pub fn mark_late(&mut self, line: usize, late_delta: i64) {
        self.slots[line].late_delta = late_delta;
        self.late_lines += 1;
    }

    /// Patches every timestamp slot: `base_ns + delta`, or for late lines
    /// `late_base + late_delta` when a late base is given. Returns the
    /// number of lines stamped late.
    pub fn stamp(&mut self, base_ns: i64, late_base: Option<i64>) -> u32 {
        let mut late = 0;
        for slot in &self.slots {
            let ts = match (late_base, slot.late_delta) {
                (Some(old), d) if d != NOT_LATE => {
                    late += 1;
                    old + d
                }
                _ => base_ns + slot.delta,
            };
            let at = slot.offset as usize;
            write_ts(&mut self.bytes[at..at + TS_WIDTH], ts);
        }
        late
    }

    /// The body as text.
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.bytes).expect("bodies are ASCII")
    }
}

/// What a compute node is doing (drives both simulators).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Profile {
    /// No job.
    Idle,
    /// DGEMM-like.
    Compute,
    /// Checkpoint-heavy.
    Io,
    /// Typical solver.
    Balanced,
}

impl Profile {
    /// The profiles a job may run, in seeded rotation.
    pub const JOB_PROFILES: [Profile; 3] = [Profile::Compute, Profile::Io, Profile::Balanced];

    fn activity(self, ncpu: u32) -> NodeActivity {
        match self {
            Profile::Idle => NodeActivity::idle(),
            Profile::Compute | Profile::Balanced => NodeActivity::busy_compute(ncpu),
            Profile::Io => NodeActivity::busy_io(ncpu),
        }
    }

    fn preset(self) -> WorkloadPreset {
        match self {
            Profile::Idle => WorkloadPreset::Idle,
            Profile::Compute => WorkloadPreset::ComputeBound,
            Profile::Io => WorkloadPreset::MemoryBound,
            Profile::Balanced => WorkloadPreset::Balanced,
        }
    }
}

/// One compute node of the fleet.
#[derive(Debug, Clone)]
pub struct Host {
    /// Fixed-width name (`h0001`).
    pub name: String,
    /// Its workload.
    pub profile: Profile,
    /// Index into [`Fleet::jobs`] when allocated.
    pub job: Option<u32>,
}

/// One batch job.
#[derive(Debug, Clone)]
pub struct JobDef {
    /// Scheduler id.
    pub id: String,
    /// Owner.
    pub user: String,
    /// Indices into [`Fleet::hosts`].
    pub hosts: Vec<u32>,
}

/// The seeded fleet layout.
#[derive(Debug, Clone)]
pub struct Fleet {
    /// All hosts.
    pub hosts: Vec<Host>,
    /// All jobs.
    pub jobs: Vec<JobDef>,
}

/// Fisher–Yates on a seeded stream.
pub fn shuffle<T>(items: &mut [T], rng: &mut XorShift64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

impl Fleet {
    /// Lays out `n_hosts` hosts and the jobs `job_sizes` (`(count, hosts
    /// each)`); which hosts a job gets is drawn from `seed`, the rest idle.
    pub fn layout(seed: u64, n_hosts: usize, job_sizes: &[(usize, usize)]) -> Fleet {
        let mut rng = XorShift64::new(seed ^ 0xF1EE7);
        let mut hosts: Vec<Host> = (1..=n_hosts)
            .map(|i| Host {
                name: format!("h{i:04}"),
                profile: Profile::Idle,
                job: None,
            })
            .collect();
        let mut order: Vec<u32> = (0..n_hosts as u32).collect();
        shuffle(&mut order, &mut rng);
        let mut free = order.into_iter();
        let mut jobs = Vec::new();
        for &(count, size) in job_sizes {
            for _ in 0..count {
                let id = jobs.len() as u32;
                let profile = Profile::JOB_PROFILES[rng.below(3) as usize];
                let members: Vec<u32> = free.by_ref().take(size).collect();
                assert_eq!(members.len(), size, "job sizes exceed the fleet");
                for &h in &members {
                    hosts[h as usize].profile = profile;
                    hosts[h as usize].job = Some(id);
                }
                jobs.push(JobDef {
                    id: format!("{}", 1001 + id),
                    user: format!("u{:02}", id % 8),
                    hosts: members,
                });
            }
        }
        Fleet { hosts, jobs }
    }

    /// Global index of a hostname.
    pub fn host_index(&self, name: &str) -> Option<u32> {
        // Names are `h` + 1-based index, fixed width.
        let i: usize = name.strip_prefix('h')?.parse().ok()?;
        (i >= 1 && i <= self.hosts.len()).then(|| i as u32 - 1)
    }
}

/// A compute node's real agents over their simulators.
struct NodeAgents {
    clock: Clock,
    agent: HostAgent,
    hpm: HpmCollector,
    proc_fs: SimProc,
    sim: Simulator,
    raw: Arc<Mutex<String>>,
    rollups: Arc<Mutex<String>>,
}

impl NodeAgents {
    /// Wires the agents exactly as `LmsStack::start` does for a compute
    /// node, with closure sinks in place of the HTTP ones.
    fn new(topo: &Topology, host: &Host, seed: u64, pre_aggregate: bool) -> NodeAgents {
        let clock = Clock::simulated(Timestamp::from_secs(RENDER_EPOCH_S));
        let ncpu = topo.num_hw_threads();
        let mut proc_fs = SimProc::new(ncpu, 64 * 1024 * 1024, seed.wrapping_add(1000));
        proc_fs.set_activity(host.profile.activity(ncpu));
        let mut sim = Simulator::new(topo, seed);
        if host.profile != Profile::Idle {
            sim.assign(topo.primary_threads(), host.profile.preset().model(topo));
        }
        let mut agent = HostAgent::new(host.name.clone(), clock.clone()).with_standard_collectors();
        let raw: Arc<Mutex<String>> = Arc::default();
        let rollups: Arc<Mutex<String>> = Arc::default();
        let sink = raw.clone();
        agent.send_to_fn(move |b| sink.lock().expect("render sink").push_str(b));
        let mut hpm = HpmCollector::new(topo.clone(), host.name.clone(), clock.clone());
        for group in ["FLOPS_DP", "MEM"] {
            hpm.add_group(group).expect("builtin performance group");
        }
        if pre_aggregate {
            agent.enable_pre_aggregation();
            hpm.enable_pre_aggregation();
            let sink = rollups.clone();
            agent.send_rollups_to_fn(move |b| sink.lock().expect("rollup sink").push_str(b));
        }
        NodeAgents {
            clock,
            agent,
            hpm,
            proc_fs,
            sim,
            raw,
            rollups,
        }
    }

    /// One collection sweep at the current simulated time: sysmon tick plus
    /// the HPM group read, serialised the way the stack ships them.
    fn sweep(&mut self) {
        self.agent.tick(&self.proc_fs);
        let mut batch = BatchBuilder::with_capacity(512);
        for p in &self.hpm.collect(&self.sim).expect("simulated counters") {
            batch.push(p);
        }
        self.raw
            .lock()
            .expect("render sink")
            .push_str(batch.as_str());
        let mut rows = BatchBuilder::with_capacity(512);
        for p in &self.hpm.take_rollups() {
            rows.push(p);
        }
        self.rollups
            .lock()
            .expect("rollup sink")
            .push_str(rows.as_str());
    }

    fn advance(&mut self, dt: Duration) {
        self.proc_fs.advance(dt);
        self.sim.advance(dt);
        self.clock.advance(dt);
    }

    fn take_raw(&self) -> String {
        std::mem::take(&mut *self.raw.lock().expect("render sink"))
    }
}

/// Re-bases every line's timestamp in `text` to the render epoch (frames
/// are rendered one simulated second apart but all stamp at the send time).
fn rebase(text: &str, from_ns: i64) -> String {
    text.replace(&format!(" {from_ns}\n"), &format!(" {RENDER_EPOCH_NS}\n"))
}

/// Renders `frames` distinct sweeps of one host (each re-based to the
/// render epoch), plus — with `pre_aggregate` — the host's closed one-minute
/// window as 1m-tier rollup rows.
pub fn render_host(
    topo: &Topology,
    host: &Host,
    seed: u64,
    frames: usize,
    pre_aggregate: bool,
) -> (Vec<String>, String) {
    let mut node = NodeAgents::new(topo, host, seed, pre_aggregate);
    // The first sweep primes the rate collectors and opens the HPM interval.
    node.sweep();
    node.take_raw();
    let mut out = Vec::with_capacity(frames);
    for _ in 0..frames {
        node.advance(Duration::from_secs(1));
        node.sweep();
        let now = node.clock.now().nanos();
        out.push(rebase(&node.take_raw(), now));
    }
    let mut rollup = String::new();
    if pre_aggregate {
        // Cross the minute boundary so the first window closes.
        node.advance(Duration::from_secs(60));
        node.sweep();
        rollup = std::mem::take(&mut *node.rollups.lock().expect("rollup sink"));
    }
    (out, rollup)
}

/// Drives one busy compute node's agents (null sink) through `samples`
/// sweeps, handing each sweep's two halves to `timed`: `0` = the sysmon
/// tick, `1` = the HPM group read plus its serialisation. The simulators
/// advance between sweeps, outside the timed calls.
pub fn replay_agents(
    topo: &Topology,
    samples: usize,
    mut timed: impl FnMut(usize, &mut dyn FnMut()),
) {
    let host = Host {
        name: "h0000".into(),
        profile: Profile::Balanced,
        job: None,
    };
    let clock = Clock::simulated(Timestamp::from_secs(RENDER_EPOCH_S));
    let ncpu = topo.num_hw_threads();
    let mut proc_fs = SimProc::new(ncpu, 64 * 1024 * 1024, 7);
    proc_fs.set_activity(host.profile.activity(ncpu));
    let mut sim = Simulator::new(topo, 7);
    sim.assign(topo.primary_threads(), host.profile.preset().model(topo));
    let mut agent = HostAgent::new(host.name.clone(), clock.clone()).with_standard_collectors();
    let mut hpm = HpmCollector::new(topo.clone(), host.name.clone(), clock.clone());
    for group in ["FLOPS_DP", "MEM"] {
        hpm.add_group(group).expect("builtin performance group");
    }
    let mut batch = BatchBuilder::with_capacity(512);
    // The priming sweep (rate collectors, first HPM interval) is not timed.
    agent.tick(&proc_fs);
    hpm.collect(&sim).expect("simulated counters");
    for _ in 0..samples {
        proc_fs.advance(Duration::from_secs(1));
        sim.advance(Duration::from_secs(1));
        clock.advance(Duration::from_secs(1));
        timed(0, &mut || {
            agent.tick(&proc_fs);
        });
        timed(1, &mut || {
            batch.clear();
            for p in &hpm.collect(&sim).expect("simulated counters") {
                batch.push(p);
            }
            std::hint::black_box(batch.as_str());
        });
    }
}

/// Cost of one compute node's collect + serialise for one sweep, null
/// sink, single-threaded, for each of `samples` sweeps (µs).
pub fn time_agent_sweeps(topo: &Topology, samples: usize) -> Vec<f64> {
    let mut out = vec![0.0; samples];
    let mut sweep = 0;
    replay_agents(topo, samples, |half, f| {
        let t = Instant::now();
        f();
        out[sweep] += t.elapsed().as_secs_f64() * 1e6;
        sweep += half;
    });
    out
}

/// Deterministic application values for one rank.
struct AppModel {
    rng: XorShift64,
    step: u64,
}

impl AppModel {
    fn iteration(&mut self, um: &UserMetric) {
        self.step += 1;
        let t = self.step as f64;
        um.metric(
            APP_METRICS[0],
            1.0 + 0.1 * (t / 50.0).sin() + self.rng.range_f64(-0.01, 0.01),
        );
        um.metric(APP_METRICS[1], 300.0 + self.rng.range_f64(-2.0, 2.0));
        um.metric(APP_METRICS[2], -4.5e4 + t + self.rng.range_f64(-5.0, 5.0));
        um.metric(APP_METRICS[3], 0.012 + self.rng.range_f64(0.0, 0.002));
    }
}

/// Renders `frames` 100-line flushes of one application rank through a
/// real `UserMetric` client: 24 loop iterations of four metrics plus four
/// string events. Returns the flush texts, timestamps relative to the
/// render epoch.
pub fn render_rank(host: &str, rank: usize, seed: u64, frames: usize) -> Vec<String> {
    let clock = Clock::simulated(Timestamp::from_secs(RENDER_EPOCH_S));
    let captured: Arc<Mutex<Vec<String>>> = Arc::default();
    let sink = captured.clone();
    let config = UserMetricConfig {
        default_tags: vec![
            ("hostname".into(), host.into()),
            ("rank".into(), rank.to_string()),
        ],
        ..UserMetricConfig::default()
    };
    let um = UserMetric::to_fn(config, clock.clone(), move |b| {
        sink.lock().expect("flush sink").push(b.to_string())
    });
    let mut model = AppModel {
        rng: XorShift64::new(seed),
        step: 0,
    };
    let spacing = Duration::from_nanos(CALL_SPACING_NS as u64);
    for frame in 0..frames {
        for i in 0..ITERATIONS_PER_FLUSH {
            model.iteration(&um);
            if i % 6 == 5 {
                um.event(
                    APP_EVENTS,
                    &format!("checkpoint {} of rank {rank}", frame * 4 + i / 6),
                );
            }
            clock.advance(spacing);
        }
        assert_eq!(um.buffered(), 0, "the 100th line flushes");
    }
    drop(um);
    // Every flush is re-based to start at the render epoch: the stamp
    // supplies the real base time.
    let flush_span = ITERATIONS_PER_FLUSH as i64 * CALL_SPACING_NS;
    let texts = std::mem::take(&mut *captured.lock().expect("flush sink"));
    texts
        .into_iter()
        .enumerate()
        .map(|(frame, text)| shift_timestamps(&text, -(frame as i64) * flush_span))
        .collect()
}

/// Adds `by` ns to every line's timestamp (keeps the fixed width).
fn shift_timestamps(text: &str, by: i64) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let (head, ts) = line.rsplit_once(' ').expect("stamped line");
        let ts: i64 = ts.parse().expect("integer timestamp");
        out.push_str(head);
        out.push(' ');
        out.push_str(&(ts + by).to_string());
        out.push('\n');
    }
    out
}

/// A `UserMetric` client of rank 0 that discards its batches.
pub fn null_usermetric() -> UserMetric {
    let config = UserMetricConfig {
        default_tags: vec![
            ("hostname".into(), "h0000".into()),
            ("rank".into(), "0".into()),
        ],
        ..UserMetricConfig::default()
    };
    UserMetric::to_null(
        config,
        Clock::simulated(Timestamp::from_secs(RENDER_EPOCH_S)),
    )
}

/// Cost of one 100-call `UserMetric` flush cycle into a null sink (µs), for
/// each of `samples` cycles.
pub fn time_usermetric_flushes(samples: usize) -> Vec<f64> {
    let um = null_usermetric();
    let mut model = AppModel {
        rng: XorShift64::new(7),
        step: 0,
    };
    (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..25 {
                model.iteration(&um);
            }
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

/// The late lines of a rank flush: the reference metric's lines of the last
/// two iterations are re-measurements of iterations 5 and 11 of a flush
/// sent 1–5 s earlier (2 % of the 100 lines).
pub fn mark_rank_late_lines(body: &mut Body) {
    let per_iteration = APP_METRICS.len();
    // Line index of iteration `i`'s first metric: events follow every
    // sixth iteration.
    let line_of = |i: usize| i * per_iteration + i / 6;
    for (late_iter, target_iter) in [(22usize, 5i64), (23, 11)] {
        body.mark_late(line_of(late_iter), target_iter * CALL_SPACING_NS);
    }
}

/// One simulated hour of node-level history for one profile, at 60-s
/// cadence, rendered for a placeholder host whose name is patched per host.
#[derive(Clone)]
pub struct Tile {
    /// 60 minutes × node-level lines, timestamps relative to the hour start.
    pub body: Body,
    /// Byte offsets of the 5-byte placeholder hostname.
    pub host_offsets: Vec<u32>,
    /// The reference value (`cpu_total.busy`) of each minute.
    pub busy: Vec<f64>,
}

/// Placeholder hostname in tiles (same width as `h0001`).
const TILE_HOST: &str = "hTILE";

/// Renders the history tile of `profile`. Per-core `cpu` lines are left
/// out: no dashboard reads them and they are 40 of a sweep's 46 lines.
pub fn render_tile(topo: &Topology, profile: Profile, seed: u64, names: &mut Names) -> Tile {
    let host = Host {
        name: TILE_HOST.into(),
        profile,
        job: None,
    };
    let mut node = NodeAgents::new(topo, &host, seed, false);
    node.sweep();
    node.take_raw();
    let mut text = String::new();
    for minute in 0..60 {
        node.advance(Duration::from_secs(60));
        node.sweep();
        let now = node.clock.now().nanos();
        let at = RENDER_EPOCH_NS + minute * 60_000_000_000;
        let sweep = node
            .take_raw()
            .replace(&format!(" {now}\n"), &format!(" {at}\n"));
        for line in sweep.lines().filter(|l| !l.starts_with("cpu,")) {
            text.push_str(line);
            text.push('\n');
        }
    }
    let body = Body::from_text(&text, names, ("cpu_total", "busy"), &|_| Some(0));
    let busy = body.refs.iter().map(|r| r.value).collect();
    let host_offsets = text
        .match_indices(TILE_HOST)
        .map(|(i, _)| i as u32)
        .collect();
    Tile {
        body,
        host_offsets,
        busy,
    }
}

impl Tile {
    /// Patches the placeholder hostname.
    pub fn set_host(&mut self, name: &str) {
        assert_eq!(name.len(), TILE_HOST.len(), "fixed-width hostnames");
        for &at in &self.host_offsets {
            self.body.bytes[at as usize..at as usize + name.len()].copy_from_slice(name.as_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::preset_desktop_4c()
    }

    fn host(name: &str, profile: Profile) -> Host {
        Host {
            name: name.into(),
            profile,
            job: None,
        }
    }

    #[test]
    fn stamped_body_round_trips_through_parse_batch() {
        let (frames, _) = render_host(&topo(), &host("h0001", Profile::Compute), 3, 2, false);
        let mut names = Names::default();
        let mut body = Body::from_text(&frames[1], &mut names, ("cpu_total", "busy"), &|h| {
            (h == "h0001").then_some(9)
        });
        assert_eq!(body.refs.len(), 1);
        assert_eq!(body.refs[0].host, 9);
        let before = parse_batch(&frames[1]).lines.len();
        let base = 1_812_345_678_901_234_567;
        assert_eq!(body.stamp(base, None), 0);
        let parsed = parse_batch(body.text());
        assert!(parsed.is_clean());
        assert_eq!(parsed.lines.len(), before);
        assert_eq!(body.lines as usize, before);
        assert!(parsed.lines.iter().all(|l| l.timestamp == Some(base)));
        let values: usize = parsed.lines.iter().map(|l| l.fields.len()).sum();
        assert_eq!(body.values as usize, values);
        // The reference value survives the patch bit for bit.
        let busy = parsed
            .lines
            .iter()
            .find(|l| l.measurement == "cpu_total")
            .unwrap();
        assert_eq!(
            busy.field("busy").unwrap().as_f64(),
            Some(body.refs[0].value)
        );
        // Re-stamping overwrites in place (same width).
        body.stamp(base + 5, None);
        assert!(parse_batch(body.text())
            .lines
            .iter()
            .all(|l| l.timestamp == Some(base + 5)));
    }

    #[test]
    fn rank_flush_is_100_lines_with_two_late() {
        let frames = render_rank("h0002", 1, 11, 3);
        assert_eq!(frames.len(), 3);
        let mut names = Names::default();
        let mut body = Body::from_text(&frames[2], &mut names, (APP_METRICS[0], "value"), &|_| {
            Some(1)
        });
        assert_eq!(body.lines, 100);
        assert_eq!(body.refs.len(), ITERATIONS_PER_FLUSH);
        assert_eq!(
            body.slots[0].delta, 0,
            "every flush is re-based to the epoch"
        );
        mark_rank_late_lines(&mut body);
        assert_eq!(body.late_lines, 2);
        // Late slots sit on the reference metric.
        let late: Vec<usize> = (0..100)
            .filter(|&i| body.slots[i].late_delta != NOT_LATE)
            .collect();
        for &line in &late {
            assert!(body.refs.iter().any(|r| r.slot as usize == line));
        }
        let base = 1_800_000_000_000_000_000;
        let old = base - 2_000_000_000;
        assert_eq!(body.stamp(base, Some(old)), 2);
        let parsed = parse_batch(body.text());
        assert_eq!(
            parsed.lines[late[0]].timestamp,
            Some(old + 5 * CALL_SPACING_NS)
        );
        assert_eq!(
            parsed.lines[late[1]].timestamp,
            Some(old + 11 * CALL_SPACING_NS)
        );
        // Without an earlier base the line keeps its own time.
        assert_eq!(body.stamp(base, None), 0);
        let parsed = parse_batch(body.text());
        assert_eq!(
            parsed.lines[late[0]].timestamp,
            Some(base + 22 * CALL_SPACING_NS)
        );
        // Keys inside one flush are unique.
        let mut keys: Vec<(String, i64)> = parsed
            .lines
            .iter()
            .map(|l| (l.measurement.to_string(), l.timestamp.unwrap()))
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 100);
    }

    #[test]
    fn layout_is_seeded_and_sized() {
        let a = Fleet::layout(5, 64, &[(2, 16), (4, 4)]);
        let b = Fleet::layout(5, 64, &[(2, 16), (4, 4)]);
        let c = Fleet::layout(6, 64, &[(2, 16), (4, 4)]);
        assert_eq!(a.jobs.len(), 6);
        assert_eq!(a.hosts.iter().filter(|h| h.job.is_some()).count(), 48);
        assert_eq!(a.jobs[0].hosts, b.jobs[0].hosts);
        assert_ne!(a.jobs[0].hosts, c.jobs[0].hosts);
        assert_eq!(a.host_index("h0064"), Some(63));
        assert_eq!(a.host_index("h0065"), None);
    }

    #[test]
    fn tile_patches_hostname_and_keeps_minute_offsets() {
        let mut names = Names::default();
        let mut tile = render_tile(&topo(), Profile::Io, 2, &mut names);
        assert_eq!(tile.busy.len(), 60);
        tile.set_host("h0042");
        tile.body.stamp(1_800_000_000_000_000_000, None);
        let parsed = parse_batch(tile.body.text());
        assert!(parsed.is_clean());
        assert!(parsed.lines.iter().all(|l| l.hostname() == Some("h0042")));
        assert!(parsed.lines.iter().all(|l| l.measurement != "cpu"));
        let last = parsed.lines.last().unwrap().timestamp.unwrap();
        assert_eq!(last, 1_800_000_000_000_000_000 + 59 * 60_000_000_000);
    }

    #[test]
    fn pre_aggregated_window_renders_rollup_rows() {
        let (_, rollup) = render_host(&topo(), &host("h0003", Profile::Balanced), 4, 2, true);
        let parsed = parse_batch(&rollup);
        assert!(parsed.is_clean() && !parsed.lines.is_empty());
        assert!(parsed
            .lines
            .iter()
            .all(|l| l.timestamp == Some(RENDER_EPOCH_NS)));
    }
}
