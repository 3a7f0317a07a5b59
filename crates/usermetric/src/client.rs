//! The buffered, batched metric/event client.

use lms_http::{Sender, SenderStats};
use lms_lineproto::{BatchBuilder, FieldValue, Point};
use lms_util::{Clock, Result};
use parking_lot::Mutex;
use std::net::SocketAddr;
use std::sync::Arc;

/// Configuration of a [`UserMetric`] client.
#[derive(Debug, Clone)]
pub struct UserMetricConfig {
    /// Tags attached to every message (job id, user, rank, ...).
    pub default_tags: Vec<(String, String)>,
    /// Flush automatically once this many lines are buffered.
    pub flush_lines: usize,
    /// Tag each message with the calling thread's name (`thread=<name>`).
    pub thread_tag: bool,
}

impl Default for UserMetricConfig {
    fn default() -> Self {
        UserMetricConfig { default_tags: Vec::new(), flush_lines: 100, thread_tag: false }
    }
}

struct Inner {
    batch: BatchBuilder,
    sender: Sender,
    /// `/write?db=<db>` of the HTTP sender.
    target: String,
}

/// The libusermetric client. Cloneable; clones share one buffer, so all
/// application threads batch into the same stream (one flush per
/// `flush_lines` messages, as the paper's "batched messages" intends).
#[derive(Clone)]
pub struct UserMetric {
    inner: Arc<Mutex<Inner>>,
    config: Arc<UserMetricConfig>,
    clock: Clock,
}

impl UserMetric {
    /// A client POSTing batches to `/write?db=<db>` at `addr` through a
    /// [`Sender`] that resends what the router sheds.
    pub fn to_http(
        config: UserMetricConfig,
        clock: Clock,
        addr: SocketAddr,
        db: &str,
    ) -> Result<Self> {
        let sender = Sender::http(addr, clock.clone())?;
        Ok(Self::build(config, clock, sender, format!("/write?db={db}")))
    }

    /// A client handing batches to a closure (embedded mode, tests).
    pub fn to_fn(
        config: UserMetricConfig,
        clock: Clock,
        f: impl FnMut(&str) + Send + 'static,
    ) -> Self {
        Self::build(config, clock, Sender::func(f), String::new())
    }

    /// A client that discards batches (overhead benchmarking).
    pub fn to_null(config: UserMetricConfig, clock: Clock) -> Self {
        Self::build(config, clock, Sender::null(), String::new())
    }

    fn build(config: UserMetricConfig, clock: Clock, sender: Sender, target: String) -> Self {
        UserMetric {
            inner: Arc::new(Mutex::new(Inner {
                batch: BatchBuilder::with_capacity(4096),
                sender,
                target,
            })),
            config: Arc::new(config),
            clock,
        }
    }

    fn point(&self, name: &str, extra_tags: &[(&str, &str)]) -> Point {
        let mut p = Point::new(name);
        for (k, v) in &self.config.default_tags {
            p.add_tag(k.as_str(), v.as_str());
        }
        if self.config.thread_tag {
            let t = std::thread::current();
            p.add_tag("thread", t.name().unwrap_or("unnamed"));
        }
        for (k, v) in extra_tags {
            p.add_tag(*k, *v);
        }
        p.set_timestamp(self.clock.now().nanos());
        p
    }

    fn record(&self, p: &Point) {
        let mut inner = self.inner.lock();
        inner.batch.push(p);
        if inner.batch.len() >= self.config.flush_lines {
            flush_locked(&mut inner);
        }
    }

    /// Records a numeric metric (field `value`).
    pub fn metric(&self, name: &str, value: f64) {
        let mut p = self.point(name, &[]);
        p.add_field("value", value);
        self.record(&p);
    }

    /// Records a numeric metric with extra tags (e.g. a thread identifier).
    pub fn metric_with_tags(&self, name: &str, value: f64, tags: &[(&str, &str)]) {
        let mut p = self.point(name, tags);
        p.add_field("value", value);
        self.record(&p);
    }

    /// Records multiple fields under one measurement in one message.
    pub fn metrics(&self, name: &str, fields: &[(&str, f64)]) {
        let mut p = self.point(name, &[]);
        for (k, v) in fields {
            p.add_field(*k, *v);
        }
        self.record(&p);
    }

    /// Records an event (string field `text`) — rendered as a dashed
    /// annotation line by the dashboards (paper Fig. 3).
    pub fn event(&self, name: &str, text: &str) {
        self.event_with_tags(name, text, &[]);
    }

    /// Records an event with extra tags. Distinct tags keep simultaneous
    /// events in distinct series (same-instant events in one series
    /// overwrite each other — InfluxDB semantics).
    pub fn event_with_tags(&self, name: &str, text: &str, tags: &[(&str, &str)]) {
        let mut p = self.point(name, tags);
        p.add_field_value("text", FieldValue::Text(text.to_string()));
        self.record(&p);
    }

    /// Flushes the buffer to the sender now, behind the batches it kept.
    pub fn flush(&self) {
        flush_locked(&mut self.inner.lock());
    }

    /// Buffered line count.
    pub fn buffered(&self) -> usize {
        self.inner.lock().batch.len()
    }

    /// The sender's counters (`batches` counts the flushes).
    pub fn stats(&self) -> SenderStats {
        self.inner.lock().sender.stats()
    }
}

fn flush_locked(inner: &mut Inner) {
    if inner.batch.is_empty() {
        inner.sender.flush();
    } else {
        let body = inner.batch.take();
        inner.sender.send(&inner.target, &body);
    }
}

impl Drop for UserMetric {
    fn drop(&mut self) {
        // Last clone out flushes the remaining buffer (don't lose the tail
        // of a run — Fig. 3's final data points).
        if Arc::strong_count(&self.inner) == 1 {
            self.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_util::Timestamp;
    use std::sync::Arc as StdArc;

    fn capture() -> (StdArc<Mutex<Vec<String>>>, UserMetric, Clock) {
        let clock = Clock::simulated(Timestamp::from_secs(10));
        let captured: StdArc<Mutex<Vec<String>>> = StdArc::new(Mutex::new(Vec::new()));
        let sink = captured.clone();
        let um = UserMetric::to_fn(
            UserMetricConfig::default(),
            clock.clone(),
            move |b| sink.lock().push(b.to_string()),
        );
        (captured, um, clock)
    }

    #[test]
    fn batches_until_flush() {
        let (captured, um, _clock) = capture();
        um.metric("a", 1.0);
        um.metric("b", 2.0);
        assert_eq!(um.buffered(), 2);
        assert!(captured.lock().is_empty());
        um.flush();
        assert_eq!(um.buffered(), 0);
        let got = captured.lock();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].lines().count(), 2);
        assert!(got[0].starts_with("a value=1 10000000000"));
    }

    #[test]
    fn auto_flush_at_threshold() {
        let clock = Clock::simulated(Timestamp::from_secs(1));
        let captured: StdArc<Mutex<Vec<String>>> = StdArc::new(Mutex::new(Vec::new()));
        let sink = captured.clone();
        let config = UserMetricConfig { flush_lines: 5, ..Default::default() };
        let um = UserMetric::to_fn(config, clock, move |b| sink.lock().push(b.to_string()));
        for i in 0..12 {
            um.metric("m", i as f64);
        }
        let got = captured.lock();
        assert_eq!(got.len(), 2, "two auto-flushes at 5 and 10");
        assert_eq!(um.buffered(), 2);
        assert_eq!(um.stats().batches, 2);
    }

    #[test]
    fn default_and_extra_tags() {
        let clock = Clock::simulated(Timestamp::from_secs(1));
        let captured: StdArc<Mutex<Vec<String>>> = StdArc::new(Mutex::new(Vec::new()));
        let sink = captured.clone();
        let config = UserMetricConfig {
            default_tags: vec![("jobid".into(), "42".into()), ("rank".into(), "0".into())],
            ..Default::default()
        };
        let um = UserMetric::to_fn(config, clock, move |b| sink.lock().push(b.to_string()));
        um.metric_with_tags("pressure", 1.5, &[("tid", "3")]);
        um.flush();
        let line = captured.lock()[0].clone();
        assert_eq!(line.trim_end(), "pressure,jobid=42,rank=0,tid=3 value=1.5 1000000000");
    }

    #[test]
    fn thread_tag() {
        let clock = Clock::simulated(Timestamp::from_secs(1));
        let captured: StdArc<Mutex<Vec<String>>> = StdArc::new(Mutex::new(Vec::new()));
        let sink = captured.clone();
        let config = UserMetricConfig { thread_tag: true, ..Default::default() };
        let um = UserMetric::to_fn(config, clock, move |b| sink.lock().push(b.to_string()));
        let um2 = um.clone();
        std::thread::Builder::new()
            .name("worker-7".into())
            .spawn(move || um2.metric("x", 1.0))
            .unwrap()
            .join()
            .unwrap();
        um.flush();
        assert!(captured.lock()[0].contains("thread=worker-7"));
    }

    #[test]
    fn multi_field_and_events() {
        let (captured, um, _clock) = capture();
        um.metrics("minimd", &[("temp", 1.98), ("energy", -6.29)]);
        um.event("run", "miniMD start");
        um.flush();
        let body = captured.lock()[0].clone();
        assert!(body.contains("minimd temp=1.98,energy=-6.29"));
        assert!(body.contains("run text=\"miniMD start\""));
    }

    #[test]
    fn clones_share_one_buffer() {
        let (captured, um, _clock) = capture();
        let threads: Vec<_> = (0..4)
            .map(|i| {
                let um = um.clone();
                std::thread::spawn(move || {
                    for j in 0..25 {
                        um.metric("concurrent", (i * 25 + j) as f64);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        um.flush();
        let total: usize = captured.lock().iter().map(|b| b.lines().count()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn drop_flushes_tail() {
        let captured: StdArc<Mutex<Vec<String>>> = StdArc::new(Mutex::new(Vec::new()));
        let sink = captured.clone();
        {
            let um = UserMetric::to_fn(
                UserMetricConfig::default(),
                Clock::simulated(Timestamp::from_secs(1)),
                move |b| sink.lock().push(b.to_string()),
            );
            um.metric("tail", 9.0);
        }
        assert_eq!(captured.lock().len(), 1);
    }

    #[test]
    fn http_sink_round_trip() {
        use lms_http::{Response, Server};
        let received: StdArc<Mutex<Vec<String>>> = StdArc::new(Mutex::new(Vec::new()));
        let sink = received.clone();
        let server = Server::bind("127.0.0.1:0", 1, move |req| {
            sink.lock().push(req.body_str().into_owned());
            Response::no_content()
        })
        .unwrap();
        let um = UserMetric::to_http(
            UserMetricConfig::default(),
            Clock::simulated(Timestamp::from_secs(1)),
            server.addr(),
            "lms",
        )
        .unwrap();
        um.metric("over_http", 3.0);
        um.flush();
        assert!(received.lock()[0].contains("over_http value=3"));
        server.shutdown();
    }
}
