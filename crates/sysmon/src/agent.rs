//! The Diamond-like host agent.
//!
//! One [`HostAgent`] runs on each monitored node: it owns a set of
//! [`Collector`]s, runs them on a tick, batches the resulting points in
//! line protocol and POSTs the batch to the metrics router's `/write`
//! endpoint (or hands it to an in-process sink for the embedded stack).
//! Batching is the paper's stated reason for the line protocol choice —
//! the whole tick travels as one HTTP request.

use crate::collectors::Collector;
use crate::procfs::SimProc;
use lms_http::HttpClient;
use lms_lineproto::BatchBuilder;
use lms_rollup::WindowAggregator;
use lms_util::{Clock, Result};
use std::net::SocketAddr;

/// Closure sink for 1m rollup-row batches (embedded stack, tests).
type RollupSink = Box<dyn FnMut(&str) + Send>;

/// Where a finished batch goes.
enum Sink {
    /// POST to a router/database `/write` endpoint.
    Http { client: HttpClient, db: String },
    /// Hand to a closure (embedded stack, tests).
    Func(Box<dyn FnMut(&str) + Send>),
    /// Discard (benchmarks of collection cost).
    Null,
}

/// A per-node collection daemon.
pub struct HostAgent {
    hostname: String,
    clock: Clock,
    collectors: Vec<Box<dyn Collector>>,
    batch: BatchBuilder,
    sink: Sink,
    /// 60s pre-aggregation windows over the raw stream; closed windows
    /// ship as a second, rollup-row batch tagged for the 1m tier.
    pre_agg: Option<WindowAggregator>,
    /// Where 1m batches go when the raw sink is a closure (the embedded
    /// stack routes them into the tier database itself).
    rollup_sink: Option<RollupSink>,
    ticks: u64,
    points_sent: u64,
    send_errors: u64,
}

impl HostAgent {
    /// Creates an agent with no collectors and a null sink.
    pub fn new(hostname: impl Into<String>, clock: Clock) -> Self {
        HostAgent {
            hostname: hostname.into(),
            clock,
            collectors: Vec::new(),
            batch: BatchBuilder::with_capacity(4096),
            sink: Sink::Null,
            pre_agg: None,
            rollup_sink: None,
            ticks: 0,
            points_sent: 0,
            send_errors: 0,
        }
    }

    /// Adds a collector.
    pub fn add_collector(&mut self, c: Box<dyn Collector>) -> &mut Self {
        self.collectors.push(c);
        self
    }

    /// Installs the standard collector set (cpu, memory, network, disk,
    /// load) — what a Diamond deployment enables by default.
    pub fn with_standard_collectors(mut self) -> Self {
        use crate::collectors::*;
        self.add_collector(Box::new(CpuCollector::new()));
        self.add_collector(Box::new(MemoryCollector::new()));
        self.add_collector(Box::new(NetworkCollector::new()));
        self.add_collector(Box::new(DiskCollector::new()));
        self.add_collector(Box::new(LoadCollector::new()));
        self
    }

    /// Sends batches to the router at `addr`, database `db`.
    pub fn send_to(&mut self, addr: SocketAddr, db: &str) -> Result<()> {
        self.sink = Sink::Http { client: HttpClient::connect(addr)?, db: db.to_string() };
        Ok(())
    }

    /// Sends batches to a closure (embedded mode).
    pub fn send_to_fn(&mut self, f: impl FnMut(&str) + Send + 'static) {
        self.sink = Sink::Func(Box::new(f));
    }

    /// Enables the agent-side pre-aggregation stream: alongside the 1s raw
    /// batches, the agent folds every point into per-series 1-minute
    /// windows and ships each closed window as rollup rows (count / sum /
    /// min / max / first / last stat fields, window-start timestamps) for
    /// direct ingestion into the 1m tier. The HTTP sink posts them to
    /// `/write?db=...&tier=1m`; closure sinks receive them through
    /// [`HostAgent::send_rollups_to_fn`].
    ///
    /// The database-side rollup pass recomputes any window it also saw raw
    /// points for (last-write-wins), so the two streams converge — the
    /// pre-aggregated rows matter when raw ingestion is shed or sampled.
    pub fn enable_pre_aggregation(&mut self) {
        self.pre_agg = Some(WindowAggregator::minute());
    }

    /// Sends 1m pre-aggregated batches to a closure (embedded mode).
    pub fn send_rollups_to_fn(&mut self, f: impl FnMut(&str) + Send + 'static) {
        self.rollup_sink = Some(Box::new(f));
    }

    /// The node's hostname.
    pub fn hostname(&self) -> &str {
        &self.hostname
    }

    /// Runs all collectors once and ships the batch.
    /// Returns the number of points collected this tick.
    pub fn tick(&mut self, proc_fs: &SimProc) -> usize {
        let ts = self.clock.now();
        self.batch.clear();
        for collector in &mut self.collectors {
            for point in collector.collect(proc_fs, &self.hostname, ts) {
                if let Some(agg) = &mut self.pre_agg {
                    agg.push(&point, point.timestamp().unwrap_or(ts.nanos()));
                }
                self.batch.push(&point);
            }
        }
        self.ticks += 1;
        let n = self.batch.len();
        if n > 0 {
            self.points_sent += n as u64;
            match &mut self.sink {
                Sink::Http { client, db } => {
                    let target = format!("/write?db={db}");
                    match client.post_text(&target, self.batch.as_str()) {
                        Ok(resp) if resp.is_success() => {}
                        _ => self.send_errors += 1,
                    }
                }
                Sink::Func(f) => f(self.batch.as_str()),
                Sink::Null => {}
            }
        }
        if let Some(agg) = &mut self.pre_agg {
            let mut batch = String::new();
            if agg.close_before(ts.nanos(), &mut batch) > 0 {
                self.ship_rollups(&batch);
            }
        }
        n
    }

    /// Force-closes every open pre-aggregation window and ships the rows
    /// (agent shutdown: a partial window beats a lost one).
    pub fn flush_pre_aggregation(&mut self) {
        let Some(agg) = &mut self.pre_agg else { return };
        let mut batch = String::new();
        if agg.flush(&mut batch) > 0 {
            self.ship_rollups(&batch);
        }
    }

    fn ship_rollups(&mut self, batch: &str) {
        match &mut self.sink {
            Sink::Http { client, db } => {
                let target = format!("/write?db={db}&tier=1m");
                match client.post_text(&target, batch) {
                    Ok(resp) if resp.is_success() => {}
                    _ => self.send_errors += 1,
                }
            }
            _ => {
                if let Some(f) = &mut self.rollup_sink {
                    f(batch);
                }
            }
        }
    }

    /// `(ticks, points, send errors)` counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.ticks, self.points_sent, self.send_errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procfs::NodeActivity;
    use lms_util::Timestamp;
    use parking_lot::Mutex;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn standard_collectors_produce_a_full_batch() {
        let clock = Clock::simulated(Timestamp::from_secs(100));
        let mut agent = HostAgent::new("h1", clock.clone()).with_standard_collectors();
        let captured: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = captured.clone();
        agent.send_to_fn(move |batch| sink.lock().push(batch.to_string()));

        let mut proc_fs = SimProc::new(4, 1 << 20, 1);
        proc_fs.set_activity(NodeActivity::busy_compute(4));

        // First tick primes rate collectors (memory/load still emit).
        agent.tick(&proc_fs);
        proc_fs.advance(Duration::from_secs(10));
        clock.advance(Duration::from_secs(10));
        let n = agent.tick(&proc_fs);
        assert!(n >= 8, "expected a full batch, got {n}");

        let batches = captured.lock();
        let last = batches.last().unwrap();
        let parsed = lms_lineproto::parse_batch(last);
        assert!(parsed.is_clean());
        assert!(parsed.lines.iter().all(|l| l.hostname() == Some("h1")));
        let measurements: Vec<&str> =
            parsed.lines.iter().map(|l| l.measurement.as_ref()).collect();
        for expect in ["cpu_total", "memory", "network", "disk", "load"] {
            assert!(measurements.contains(&expect), "missing {expect} in {measurements:?}");
        }
    }

    #[test]
    fn http_sink_posts_to_write_endpoint() {
        use lms_http::{Response, Server};
        let received: Arc<Mutex<Vec<(String, String)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = received.clone();
        let server = Server::bind("127.0.0.1:0", 1, move |req| {
            sink.lock().push((
                format!("{}?db={}", req.path, req.query_param("db").unwrap_or("")),
                req.body_str().into_owned(),
            ));
            Response::no_content()
        })
        .unwrap();

        let clock = Clock::simulated(Timestamp::from_secs(100));
        let mut agent = HostAgent::new("h1", clock.clone()).with_standard_collectors();
        agent.send_to(server.addr(), "lms").unwrap();
        let mut proc_fs = SimProc::new(2, 1 << 20, 2);
        agent.tick(&proc_fs);
        proc_fs.advance(Duration::from_secs(5));
        clock.advance(Duration::from_secs(5));
        agent.tick(&proc_fs);

        let got = received.lock();
        assert!(!got.is_empty());
        assert_eq!(got[0].0, "/write?db=lms");
        assert!(got.last().unwrap().1.contains("cpu_total,hostname=h1"));
        let (_, _, errors) = agent.stats();
        assert_eq!(errors, 0);
        server.shutdown();
    }

    #[test]
    fn send_errors_are_counted_not_fatal() {
        let clock = Clock::simulated(Timestamp::from_secs(100));
        let mut agent = HostAgent::new("h1", clock.clone()).with_standard_collectors();
        // Bind a listener and close it to get a dead port.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        agent.send_to(dead, "lms").unwrap();
        let mut proc_fs = SimProc::new(1, 1024, 3);
        agent.tick(&proc_fs);
        proc_fs.advance(Duration::from_secs(5));
        clock.advance(Duration::from_secs(5));
        agent.tick(&proc_fs);
        let (ticks, _, errors) = agent.stats();
        assert_eq!(ticks, 2);
        assert!(errors > 0);
    }
}
