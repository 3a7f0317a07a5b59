//! The load generator: writer and reader threads, one request in flight per
//! thread on keep-alive connections, plus the 1-Hz/10-Hz sampler. Threads
//! are named `gen-*` so their CPU can be told apart from the stack's.

use crate::gen::Body;
use crate::stack::{Stack, DB};
use crate::sys::CpuSplit;
use crate::workload::Op;
use lms_http::url::percent_encode;
use lms_http::HttpClient;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Resends of a shed (`503`) write before the op counts as failed.
pub const MAX_RESENDS: u32 = 5;
/// Pause before resending a shed write.
const SHED_PAUSE: Duration = Duration::from_millis(5);
/// How long a probe may stay invisible before it counts as failed.
const PROBE_TIMEOUT: Duration = Duration::from_secs(5);
/// Pause between probe polls.
const PROBE_POLL: Duration = Duration::from_micros(200);
/// Late lines re-measure a point written this long ago.
const LATE_RANGE_NS: (i64, i64) = (1_000_000_000, 5_000_000_000);

/// Wall-clock nanoseconds.
pub fn now_ns() -> i64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as i64)
}

/// One recorded operation (traced runs only).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Operation or layer-call name.
    pub name: &'static str,
    /// Start, µs since the run epoch.
    pub start_us: u64,
    /// End, µs since the run epoch.
    pub end_us: u64,
    /// Operation id: the first span of an operation is its root, later
    /// spans with the same id are its children.
    pub op: u64,
}

/// State shared by all generator threads.
pub struct Shared {
    /// Zero of span times.
    pub epoch: Instant,
    /// Start of the timed window (end of warm-up).
    pub t0: Instant,
    /// End of the timed window.
    pub t1: Instant,
    /// Lines acknowledged so far (window and warm-up alike).
    pub acked_lines: AtomicU64,
    /// Span recording on (toggled per second in traced runs).
    pub tracing: AtomicBool,
}

impl Shared {
    fn us(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_micros() as u64
    }

    fn in_window(&self, t: Instant) -> bool {
        t >= self.t0 && t < self.t1
    }
}

/// An open-loop schedule: operation `k` is due at `start + k × period`,
/// whatever happened to the operations before it.
#[derive(Debug, Clone)]
pub struct Pacer {
    start: Instant,
    period: Duration,
    k: u64,
}

impl Pacer {
    /// A schedule of `rate_per_s` operations per second from `start`.
    pub fn new(start: Instant, rate_per_s: f64) -> Pacer {
        Pacer {
            start,
            period: Duration::from_secs_f64(1.0 / rate_per_s),
            k: 0,
        }
    }

    /// Due time of the next operation.
    pub fn next_due(&mut self) -> Instant {
        let due = self.start + self.period.mul_f64(self.k as f64);
        self.k += 1;
        due
    }
}

/// Milliseconds from `from` to `to` (0 when `to` is earlier). An open-loop
/// op's latency runs from its *due* time — the wait a stall imposes on later
/// operations counts — and its lateness from due time to send; a
/// closed-loop op's latency runs from send.
pub fn ms_between(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// How a write ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostOutcome {
    /// `204`.
    Acked,
    /// Transport error, unexpected status, or resends exhausted.
    Failed,
}

/// Posts a body, honouring `503`: pause, resend the *same* body, at most
/// [`MAX_RESENDS`] times. Returns the outcome and how many times the stack
/// shed the request — sheds are a per-layer count, only an exhausted retry
/// is a failed op.
pub fn post_with_retry(client: &mut HttpClient, target: &str, body: &[u8]) -> (PostOutcome, u64) {
    let mut sheds = 0;
    loop {
        match client.post(target, body) {
            Ok(r) if r.status == 204 => return (PostOutcome::Acked, sheds),
            Ok(r) if r.status == 503 => {
                sheds += 1;
                if sheds > MAX_RESENDS as u64 {
                    return (PostOutcome::Failed, sheds);
                }
                std::thread::sleep(SHED_PAUSE);
            }
            _ => return (PostOutcome::Failed, sheds),
        }
    }
}

/// One thing a writer sends repeatedly: a group of hosts' sweeps, or one
/// application rank's flushes.
pub struct Unit {
    /// Global unit id (index into the run's reference tables).
    pub id: u32,
    /// Distinct value sets, cycled.
    pub frames: Vec<Body>,
    next: usize,
    /// End of the timestamps the previous stamp covered (keys stay unique).
    last_end: i64,
    /// `(wall ns, base ns)` of recent sends, for late lines; a base of 0
    /// marks a send that has already been re-measured.
    recent: VecDeque<(i64, i64)>,
    /// The unit's closed 60-s window as 1m-tier rows (pre-aggregation on).
    pub rollup: Option<Body>,
    rollup_minute: i64,
}

impl Unit {
    /// A unit over pre-rendered frames.
    pub fn new(id: u32, frames: Vec<Body>, rollup: Option<Body>) -> Unit {
        Unit {
            id,
            frames,
            next: 0,
            last_end: 0,
            recent: VecDeque::new(),
            rollup,
            rollup_minute: now_ns() / 60_000_000_000,
        }
    }
}

/// One acknowledged send, for the oracle's reference model.
#[derive(Debug, Clone, Copy)]
pub struct SendRec {
    /// Unit id.
    pub unit: u32,
    /// Frame index within the unit.
    pub frame: u16,
    /// Base time stamped.
    pub base: i64,
    /// Earlier base the late lines were stamped against (0 = none).
    pub late_base: i64,
}

/// What a writer thread hands back.
#[derive(Default)]
pub struct WriterOut {
    /// Its units (bodies are sampled by the replay).
    pub units: Vec<Unit>,
    /// Acknowledged sends in order.
    pub log: Vec<SendRec>,
    /// `POST /write` → 204 latencies in the window (ms).
    pub ack_ms: Vec<f64>,
    /// Send lateness in the window (ms).
    pub late_ms: Vec<f64>,
    /// Write ops started in the window.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// `503`s received (whole run).
    pub sheds: u64,
    /// Acknowledged lines per measurement id (whole run, raw database).
    pub lines_by_measurement: Vec<u64>,
    /// Acknowledged field values (whole run, raw database).
    pub values: u64,
    /// Lines stamped late, i.e. overwriting an earlier point (whole run).
    pub late_lines: u64,
    /// Field values acknowledged in the window.
    pub window_values: u64,
    /// Requests acknowledged in the window.
    pub window_requests: u64,
    /// Lines offered in the window (acknowledged or not).
    pub offered_lines: u64,
    /// Lines acknowledged in the closed-loop burst.
    pub burst_lines: u64,
    /// Recorded spans.
    pub spans: Vec<Span>,
}

/// A writer thread's assignment.
pub struct WriterPlan {
    /// Thread index (names the thread, tags op ids).
    pub index: usize,
    /// The units it owns.
    pub units: Vec<Unit>,
    /// Requests per second for this thread.
    pub rate: f64,
    /// Where to write.
    pub router: SocketAddr,
    /// Measurement ids in use (sizes the ledger).
    pub measurements: usize,
    /// Seed of the late-line draws.
    pub seed: u64,
}

const RAW_TARGET: &str = "/write?db=lms";
const TIER_TARGET: &str = "/write?db=lms&tier=1m";

/// How a send is accounted.
#[derive(Debug, Clone, Copy)]
enum Timing {
    /// Warm-up: acknowledged and stored like any other — the ledger counts
    /// it — but not timed.
    Warmup,
    /// A window op, due at the given time.
    Window(Instant),
    /// A back-to-back send of the closed-loop burst.
    Burst,
}

/// One writer thread's state: its connection, its units and what it has
/// sent so far. It runs the paced window first, then the burst.
pub struct Writer {
    index: usize,
    rate: f64,
    client: HttpClient,
    rng: lms_util::rng::XorShift64,
    units: Vec<Unit>,
    turn: usize,
    op_seq: u64,
    out: WriterOut,
}

impl Writer {
    /// Connects a writer for `plan`.
    pub fn new(plan: WriterPlan) -> Writer {
        Writer {
            index: plan.index,
            rate: plan.rate,
            client: HttpClient::connect(plan.router).expect("loopback address resolves"),
            rng: lms_util::rng::XorShift64::new(plan.seed),
            units: plan.units,
            turn: 0,
            op_seq: 0,
            out: WriterOut {
                lines_by_measurement: vec![0; plan.measurements],
                ..WriterOut::default()
            },
        }
    }

    /// The open loop: request `k` is due at `warm_start + k / rate`,
    /// whatever happened to the ones before it, until the window ends.
    pub fn run_paced(&mut self, shared: &Shared, warm_start: Instant) {
        let mut pacer = Pacer::new(warm_start, self.rate);
        loop {
            let due = pacer.next_due();
            if due >= shared.t1 {
                break;
            }
            sleep_until(due);
            let timing = match shared.in_window(due) {
                true => Timing::Window(due),
                false => Timing::Warmup,
            };
            self.send(shared, timing);
        }
    }

    /// The closed loop: `requests` sends back to back, one in flight.
    pub fn run_burst(&mut self, shared: &Shared, requests: usize) {
        for _ in 0..requests {
            self.send(shared, Timing::Burst);
        }
    }

    /// Hands back what was sent.
    pub fn finish(mut self) -> WriterOut {
        self.out.units = self.units;
        self.out
    }

    /// Stamps and posts the next frame of the next unit.
    fn send(&mut self, shared: &Shared, timing: Timing) {
        let out = &mut self.out;
        let n_units = self.units.len();
        let unit = &mut self.units[self.turn % n_units];
        self.turn += 1;
        let measured = !matches!(timing, Timing::Warmup);

        // Agent pre-aggregation: when the wall-clock minute turns, the
        // closed window ships to the 1m tier ahead of the next raw sweep.
        let wall = now_ns();
        let minute = wall / 60_000_000_000;
        let turned = minute > unit.rollup_minute;
        if let Some(rows) = unit.rollup.as_mut().filter(|_| turned) {
            unit.rollup_minute = minute;
            rows.stamp((minute - 1) * 60_000_000_000, None);
            let sent = Instant::now();
            out.attempted += measured as u64;
            let (outcome, sheds) = post_with_retry(&mut self.client, TIER_TARGET, &rows.bytes);
            out.sheds += sheds;
            match (outcome, timing) {
                (PostOutcome::Acked, Timing::Window(_)) => {
                    out.ack_ms.push(ms_between(sent, Instant::now()))
                }
                (PostOutcome::Acked, _) => {}
                (PostOutcome::Failed, _) => out.failed += measured as u64,
            }
        }

        let frame = unit.next % unit.frames.len();
        unit.next += 1;
        let body = &mut unit.frames[frame];
        // Back-to-back sends outrun the wall clock: a unit's timestamps
        // then continue where its previous stamp ended, so keys stay unique.
        let base = (wall - body.span_ns).max(unit.last_end);
        unit.last_end = base + body.span_ns;
        let mut late_base = None;
        if body.late_lines > 0 {
            while unit
                .recent
                .front()
                .is_some_and(|(at, _)| wall - at > LATE_RANGE_NS.1)
            {
                unit.recent.pop_front();
            }
            // Each earlier flush is re-measured at most once: two late
            // lines racing for one key through concurrent forwarders would
            // have no defined winner.
            let eligible = unit
                .recent
                .partition_point(|(at, _)| wall - at >= LATE_RANGE_NS.0);
            for _ in 0..4 {
                if eligible == 0 || late_base.is_some() {
                    break;
                }
                let pick = &mut unit.recent[self.rng.below(eligible as u64) as usize].1;
                late_base = (*pick != 0).then(|| std::mem::take(pick));
            }
            unit.recent.push_back((wall, base));
        }
        let late = body.stamp(base, late_base);

        let sent = Instant::now();
        out.attempted += measured as u64;
        if let Timing::Window(due) = timing {
            out.offered_lines += body.lines as u64;
            out.late_ms.push(ms_between(due, sent));
        }
        let (outcome, sheds) = post_with_retry(&mut self.client, RAW_TARGET, &body.bytes);
        let done = Instant::now();
        out.sheds += sheds;
        match outcome {
            PostOutcome::Acked => {
                for &(m, n) in &body.by_measurement {
                    out.lines_by_measurement[m as usize] += n as u64;
                }
                out.values += body.values as u64;
                out.late_lines += late as u64;
                out.log.push(SendRec {
                    unit: unit.id,
                    frame: frame as u16,
                    base,
                    late_base: late_base.unwrap_or(0),
                });
                shared
                    .acked_lines
                    .fetch_add(body.lines as u64, Ordering::Relaxed);
                match timing {
                    Timing::Window(due) => {
                        out.ack_ms.push(ms_between(due, done));
                        out.window_values += body.values as u64;
                        out.window_requests += 1;
                    }
                    Timing::Burst => out.burst_lines += body.lines as u64,
                    Timing::Warmup => {}
                }
            }
            PostOutcome::Failed => out.failed += measured as u64,
        }
        if let Timing::Window(due) = timing {
            if shared.tracing.load(Ordering::Relaxed) {
                self.op_seq += 1;
                out.spans.push(Span {
                    name: "write",
                    start_us: shared.us(due),
                    end_us: shared.us(done),
                    op: (self.index as u64 + 1) << 48 | self.op_seq,
                });
            }
        }
    }
}

/// Where the reader's requests go and what they ask.
pub struct ReaderPlan {
    /// `(offset µs within the cycle, op)`, ascending.
    pub plan: Vec<(u64, Op)>,
    /// Cycle period; `None` = closed loop over the cycle.
    pub period: Option<Duration>,
    /// Router address.
    pub router: SocketAddr,
    /// Viewer address.
    pub viewer: SocketAddr,
    /// Panel request targets, rotated. With `panel_end_now`, `&end=<now>`
    /// is appended at send time (live windows end at the present).
    pub panels: Vec<String>,
    /// See `panels`.
    pub panel_end_now: bool,
    /// Fleet-aggregate request targets, rotated.
    pub fleet: Vec<String>,
    /// Job ids the job views rotate over.
    pub jobs: Vec<String>,
}

/// What the reader thread hands back.
#[derive(Default)]
pub struct ReaderOut {
    /// Latencies per op kind in the window (ms), indexed by `Op::index`.
    pub lat_ms: [Vec<f64>; 5],
    /// Read ops started in the window.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// Probe lines acknowledged (whole run; they are stored data too).
    pub probe_lines: u64,
    /// `503`s on probe writes.
    pub sheds: u64,
    /// `/query` polls the probes made in the window.
    pub probe_polls: u64,
    /// Send → first sighting minus the probe's own send → 204 (ms): what
    /// the line waited for after the router had acknowledged it.
    pub forward_lag_ms: Vec<f64>,
    /// Recorded spans.
    pub spans: Vec<Span>,
    /// Reads completed in the quiet cycle after the run's data has been
    /// sealed and compacted.
    pub quiet_ops: u64,
}

/// Measurement the probes write.
pub const PROBE_MEASUREMENT: &str = "bench_probe";

/// The reader thread's state: its connections and rotation counters. It
/// runs the paced window first, later the quiet cycle.
pub struct Reader<'a> {
    plan: &'a ReaderPlan,
    router: HttpClient,
    viewer: HttpClient,
    turn: [usize; 5],
    last_probe_ts: i64,
    polls: u64,
    /// When the last probe's write was acknowledged.
    probe_acked: Option<Instant>,
    op_seq: u64,
    out: ReaderOut,
}

impl<'a> Reader<'a> {
    /// Connects a reader for `plan`.
    pub fn new(plan: &'a ReaderPlan) -> Reader<'a> {
        let mut reader = Reader {
            plan,
            router: HttpClient::connect(plan.router).expect("loopback address resolves"),
            viewer: HttpClient::connect(plan.viewer).expect("loopback address resolves"),
            turn: [0; 5],
            last_probe_ts: 0,
            polls: 0,
            probe_acked: None,
            op_seq: 0,
            out: ReaderOut::default(),
        };
        // A job view over many hosts runs for hundreds of ms.
        reader.viewer.set_timeout(Duration::from_secs(30));
        reader
    }

    /// One user clicking through pages until the window ends: a closed
    /// loop, paced where the plan has a period. Ops are timed from send;
    /// after a slow page the ops that fell due meanwhile run back to back
    /// until the schedule is caught up, and whatever is still outstanding
    /// when the window ends is not attempted.
    pub fn run_paced(&mut self, shared: &Shared, warm_start: Instant) {
        let plan = self.plan;
        for cycle in 0u32.. {
            for &(offset_us, op) in &plan.plan {
                if let Some(period) = plan.period {
                    sleep_until(warm_start + period * cycle + Duration::from_micros(offset_us));
                }
                let sent = Instant::now();
                if sent >= shared.t1 {
                    return;
                }
                let timed = shared.in_window(sent);
                let polls_before = self.polls;
                let (ok, lines, sheds) = self.run(op);
                let done = Instant::now();
                let out = &mut self.out;
                out.probe_lines += lines;
                out.sheds += sheds;
                shared.acked_lines.fetch_add(lines, Ordering::Relaxed);
                if !timed {
                    continue;
                }
                out.attempted += 1;
                out.probe_polls += self.polls - polls_before;
                if ok {
                    if let (Op::Probe, Some(acked)) = (op, self.probe_acked.take()) {
                        out.forward_lag_ms.push(ms_between(acked, done));
                    }
                    out.lat_ms[op.index()].push(ms_between(sent, done));
                } else {
                    out.failed += 1;
                }
                if shared.tracing.load(Ordering::Relaxed) {
                    self.op_seq += 1;
                    out.spans.push(Span {
                        name: op.name(),
                        start_us: shared.us(sent),
                        end_us: shared.us(done),
                        op: 0xFFFF << 48 | self.op_seq,
                    });
                }
            }
        }
    }

    /// The quiet cycle: every read of one cycle (no probes — they write)
    /// back to back, nothing else running.
    pub fn run_quiet_cycle(&mut self) {
        let plan = self.plan;
        for &(_, op) in plan.plan.iter().filter(|(_, op)| *op != Op::Probe) {
            self.out.attempted += 1;
            match self.run(op).0 {
                true => self.out.quiet_ops += 1,
                false => self.out.failed += 1,
            }
        }
    }

    fn rotate<'v>(&mut self, op: Op, items: &'v [String]) -> &'v str {
        let i = self.turn[op.index()];
        self.turn[op.index()] += 1;
        &items[i % items.len()]
    }

    fn get_ok(client: &mut HttpClient, target: &str) -> bool {
        matches!(client.get(target), Ok(r) if r.status == 200)
    }

    /// Runs one op; `(ok, lines acknowledged, sheds)`.
    fn run(&mut self, op: Op) -> (bool, u64, u64) {
        let plan = self.plan;
        match op {
            Op::Panel => {
                let mut target = self.rotate(op, &plan.panels).to_string();
                if plan.panel_end_now {
                    target.push_str(&format!("&end={}", now_ns()));
                }
                (Self::get_ok(&mut self.router, &target), 0, 0)
            }
            Op::FleetAgg => {
                let target = self.rotate(op, &plan.fleet);
                (Self::get_ok(&mut self.router, target), 0, 0)
            }
            Op::JobView => {
                let target = format!("/render?job={}", self.rotate(op, &plan.jobs));
                (Self::get_ok(&mut self.viewer, &target), 0, 0)
            }
            Op::AdminView => (Self::get_ok(&mut self.viewer, "/admin"), 0, 0),
            Op::Probe => {
                let ts = now_ns().max(self.last_probe_ts + 1);
                self.last_probe_ts = ts;
                let line = format!(
                    "{PROBE_MEASUREMENT},hostname=probe seq={}i {ts}\n",
                    ts % 1_000_000
                );
                let (outcome, sheds) =
                    post_with_retry(&mut self.router, RAW_TARGET, line.as_bytes());
                if outcome == PostOutcome::Failed {
                    return (false, 0, sheds);
                }
                self.probe_acked = Some(Instant::now());
                let q = format!(
                    "SELECT seq FROM {PROBE_MEASUREMENT} WHERE time >= {ts} AND time <= {ts}"
                );
                let target = format!("/query?db={DB}&q={}", percent_encode(&q));
                let deadline = Instant::now() + PROBE_TIMEOUT;
                loop {
                    self.polls += 1;
                    match self.router.get(&target) {
                        Ok(r) if r.status == 200 => {
                            if r.body_str().contains(PROBE_MEASUREMENT) {
                                return (true, 1, sheds);
                            }
                        }
                        _ => return (false, 1, sheds),
                    }
                    if Instant::now() >= deadline {
                        return (false, 1, sheds);
                    }
                    std::thread::sleep(PROBE_POLL);
                }
            }
        }
    }

    /// Hands back what was read.
    pub fn finish(self) -> ReaderOut {
        self.out
    }
}

/// One sampler reading.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When.
    pub at: Instant,
    /// CPU so far.
    pub cpu: CpuSplit,
    /// Lines acknowledged so far.
    pub acked_lines: u64,
    /// Whether span recording was on during the second that ended here.
    pub traced: bool,
}

/// What the sampler hands back.
#[derive(Default)]
pub struct SamplerOut {
    /// One reading per second, from `t0` to `t1` inclusive.
    pub seconds: Vec<Sample>,
    /// Staged-but-undrained points over all nodes, sampled at 10 Hz while
    /// tracing is on (reading the gauge drains the buffers, so an untraced
    /// run never samples it).
    pub buffer_depth: Vec<f64>,
    /// Peak thread count.
    pub threads_peak: u64,
    /// End of the window → delivery pipeline empty.
    pub drain_s: f64,
    /// Whether it emptied within [`DRAIN_TIMEOUT`].
    pub drained: bool,
}

/// Drain budget after the window and after the burst.
pub const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);

/// Samples once a second through the window; in a traced run it also
/// flips span recording on for odd seconds and, while on, reads the
/// storage gauges at 10 Hz. When the window ends it times the drain: every
/// acknowledged batch through the forwarders and into the nodes (the reader
/// may still be finishing its last page, which is why this thread does it).
pub fn run_sampler(stack: &Stack, shared: &Shared, trace: bool) -> SamplerOut {
    let mut out = SamplerOut::default();
    sleep_until(shared.t0);
    let tick = Duration::from_millis(100);
    let mut k = 0u32;
    loop {
        let at = shared.t0 + tick * k;
        sleep_until(at);
        let on = shared.tracing.load(Ordering::Relaxed);
        if k.is_multiple_of(10) {
            out.seconds.push(Sample {
                at: Instant::now(),
                cpu: CpuSplit::read(),
                acked_lines: shared.acked_lines.load(Ordering::Relaxed),
                traced: on,
            });
            out.threads_peak = out.threads_peak.max(crate::sys::memory_and_threads().1);
            if at >= shared.t1 {
                break;
            }
            if trace {
                shared.tracing.store((k / 10) % 2 == 1, Ordering::Relaxed);
            }
        } else if on {
            let depth: u64 = stack
                .nodes
                .iter()
                .map(|n| n.influx.storage_stats().shard_buffer_depth)
                .sum();
            out.buffer_depth.push(depth as f64);
        }
        k += 1;
    }
    shared.tracing.store(false, Ordering::Relaxed);
    let window_end = Instant::now();
    out.drained = stack.router.flush(DRAIN_TIMEOUT);
    out.drain_s = window_end.elapsed().as_secs_f64();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_http::{Response, Server};
    use std::sync::Arc;

    #[test]
    fn pacer_due_times_do_not_drift_and_lateness_counts_from_due() {
        let start = Instant::now();
        let mut p = Pacer::new(start, 4.0);
        let dues: Vec<Instant> = (0..5).map(|_| p.next_due()).collect();
        assert_eq!(dues[0], start);
        assert_eq!(dues[4] - start, Duration::from_secs(1));
        // A stall before op 2 does not move op 3's due time.
        let sent_late = dues[2] + Duration::from_millis(300);
        assert!((ms_between(dues[2], sent_late) - 300.0).abs() < 1e-6);
        assert_eq!(ms_between(dues[3], dues[3] - Duration::from_millis(1)), 0.0);
        // Open loop: the wait counts. Closed loop: only the service time.
        let done = sent_late + Duration::from_millis(10);
        assert!((ms_between(dues[2], done) - 310.0).abs() < 1e-6);
        assert!((ms_between(sent_late, done) - 10.0).abs() < 1e-6);
    }

    fn shedding_server(sheds: u64) -> (Server, Arc<AtomicU64>) {
        let seen = Arc::new(AtomicU64::new(0));
        let counter = seen.clone();
        let server = Server::bind("127.0.0.1:0", 16, move |_req| {
            if counter.fetch_add(1, Ordering::SeqCst) < sheds {
                Response::service_unavailable("saturated", 1)
            } else {
                Response::no_content()
            }
        })
        .unwrap();
        (server, seen)
    }

    #[test]
    fn shed_writes_are_resent_and_counted_not_failed() {
        let (server, seen) = shedding_server(3);
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let (outcome, sheds) = post_with_retry(&mut client, "/write?db=lms", b"m v=1 1\n");
        assert_eq!((outcome, sheds), (PostOutcome::Acked, 3));
        assert_eq!(seen.load(Ordering::SeqCst), 4, "three sheds, then the ack");
        server.shutdown();
    }

    #[test]
    fn exhausted_resends_fail_the_op() {
        let (server, seen) = shedding_server(u64::MAX);
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let (outcome, sheds) = post_with_retry(&mut client, "/write?db=lms", b"m v=1 1\n");
        assert_eq!(outcome, PostOutcome::Failed);
        assert_eq!(sheds, MAX_RESENDS as u64 + 1);
        assert_eq!(
            seen.load(Ordering::SeqCst),
            MAX_RESENDS as u64 + 1,
            "first try + five resends"
        );
        server.shutdown();
    }

    #[test]
    fn unexpected_status_fails_without_resend() {
        let server = Server::bind("127.0.0.1:0", 16, |_req| {
            Response::bad_request("all lines malformed")
        })
        .unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        assert_eq!(
            post_with_retry(&mut client, "/write?db=lms", b"junk"),
            (PostOutcome::Failed, 0)
        );
        server.shutdown();
    }
}
