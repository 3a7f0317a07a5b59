//! The MQ-attached stream analyzer.
//!
//! "In order to attach other tools like aggregators and stream analyzers to
//! the router, the meta information (job starts, tags, ...) and the metrics
//! can be published via ZeroMQ." This module is such a stream analyzer: it
//! subscribes to the router's `metrics.` topics and applies instantaneous
//! threshold rules online, raising one alert per (host, rule) violation
//! streak — live detection without touching the database.
//!
//! The worker blocks in [`Subscriber::recv`]. It ends when its connection
//! does: the publisher closed it, or the analyzer's drop shut it down.

use crate::rules::Rule;
use crossbeam_channel::{unbounded, Receiver};
use lms_lineproto::parse_line;
use lms_mq::Subscriber;
use lms_util::{FxHashMap, Result};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A live alert raised by the analyzer.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// The rule that fired.
    pub rule: String,
    /// The violating host.
    pub hostname: String,
    /// The measurement the value came from.
    pub measurement: String,
    /// The violating value (the streak's last sample).
    pub value: f64,
    /// Length of the violation streak in samples.
    pub streak: u32,
}

/// A rule bound to a measurement/field on the stream.
#[derive(Debug, Clone)]
pub struct StreamRule {
    /// Measurement to watch (topic `metrics.<measurement>`).
    pub measurement: String,
    /// Field to check.
    pub field: String,
    /// The threshold rule (its timeout is interpreted in *samples* here:
    /// `samples` consecutive violations raise the alert).
    pub rule: Rule,
    /// Consecutive violating samples before alerting.
    pub samples: u32,
}

/// Handle to a running stream analyzer.
pub struct StreamAnalyzer {
    alerts: Receiver<Alert>,
    connection: TcpStream,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl StreamAnalyzer {
    /// Connects to a publisher and starts analyzing in a background thread.
    pub fn start<A: ToSocketAddrs>(publisher: A, rules: Vec<StreamRule>) -> Result<Self> {
        let mut sub = Subscriber::connect(publisher)?;
        // Subscribe per measurement (topic prefix filtering on the wire).
        let mut prefixes: Vec<String> =
            rules.iter().map(|r| format!("metrics.{}", r.measurement)).collect();
        prefixes.sort();
        prefixes.dedup();
        for p in &prefixes {
            sub.subscribe(p)?;
        }
        let (tx, rx) = unbounded();
        let connection = sub.connection()?;
        let worker = std::thread::Builder::new()
            .name("lms-stream-analyzer".into())
            .spawn(move || {
                // (hostname, rule index) → current violation streak.
                let mut streaks: FxHashMap<(String, usize), u32> = FxHashMap::default();
                while let Ok(msg) = sub.recv() {
                    let Ok(text) = std::str::from_utf8(&msg.payload) else { continue };
                    let Ok(line) = parse_line(text) else { continue };
                    let Some(host) = line.hostname() else { continue };
                    for (ri, srule) in rules.iter().enumerate() {
                        if line.measurement != srule.measurement.as_str() {
                            continue;
                        }
                        let Some(value) =
                            line.field(&srule.field).and_then(|v| v.as_f64())
                        else {
                            continue;
                        };
                        let key = (host.to_string(), ri);
                        if srule.rule.violates(value) {
                            let streak = streaks.entry(key).or_insert(0);
                            *streak += 1;
                            if *streak == srule.samples {
                                let _ = tx.send(Alert {
                                    rule: srule.rule.name.clone(),
                                    hostname: host.to_string(),
                                    measurement: srule.measurement.clone(),
                                    value,
                                    streak: *streak,
                                });
                            }
                        } else {
                            streaks.remove(&key);
                        }
                    }
                }
            })
            .expect("spawn stream analyzer");
        Ok(StreamAnalyzer { alerts: rx, connection, worker: Some(worker) })
    }

    /// Receives the next alert, waiting up to `timeout`.
    pub fn recv_alert(&self, timeout: Duration) -> Option<Alert> {
        self.alerts.recv_timeout(timeout).ok()
    }

    /// Drains all currently pending alerts.
    pub fn drain(&self) -> Vec<Alert> {
        self.alerts.try_iter().collect()
    }
}

impl Drop for StreamAnalyzer {
    fn drop(&mut self) {
        let _ = self.connection.shutdown(Shutdown::Both);
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_mq::Publisher;

    fn low_fp_rule(samples: u32) -> StreamRule {
        StreamRule {
            measurement: "hpm_flops_dp".into(),
            field: "dp_mflop_s".into(),
            rule: Rule::below("low DP FP rate", 100.0, Duration::ZERO),
            samples,
        }
    }

    #[test]
    fn alerts_after_streak() {
        let publisher = Publisher::bind("127.0.0.1:0").unwrap();
        let analyzer =
            StreamAnalyzer::start(publisher.addr(), vec![low_fp_rule(3)]).unwrap();
        publisher.wait_for_subscribers(1, Duration::from_secs(5)).unwrap();

        // Two violations, a recovery, then three violations → one alert.
        for (i, v) in [5.0, 8.0, 5000.0, 2.0, 3.0, 4.0].iter().enumerate() {
            publisher.publish(
                "metrics.hpm_flops_dp",
                format!("hpm_flops_dp,hostname=h1 dp_mflop_s={v} {i}").as_bytes(),
            );
        }
        let alert = analyzer.recv_alert(Duration::from_secs(5)).expect("one alert");
        assert_eq!(alert.rule, "low DP FP rate");
        assert_eq!(alert.hostname, "h1");
        assert_eq!(alert.streak, 3);
        assert_eq!(alert.value, 4.0);
        assert!(analyzer.drain().is_empty(), "no second alert for the same streak");
    }

    #[test]
    fn streaks_tracked_per_host() {
        let publisher = Publisher::bind("127.0.0.1:0").unwrap();
        let analyzer =
            StreamAnalyzer::start(publisher.addr(), vec![low_fp_rule(2)]).unwrap();
        publisher.wait_for_subscribers(1, Duration::from_secs(5)).unwrap();
        // Alternating hosts: each violates twice overall.
        for i in 0..4 {
            let host = if i % 2 == 0 { "h1" } else { "h2" };
            publisher.publish(
                "metrics.hpm_flops_dp",
                format!("hpm_flops_dp,hostname={host} dp_mflop_s=1 {i}").as_bytes(),
            );
        }
        let a = analyzer.recv_alert(Duration::from_secs(5)).unwrap();
        let b = analyzer.recv_alert(Duration::from_secs(5)).unwrap();
        let mut hosts = vec![a.hostname, b.hostname];
        hosts.sort();
        assert_eq!(hosts, vec!["h1", "h2"]);
    }

    #[test]
    fn irrelevant_measurements_ignored() {
        let publisher = Publisher::bind("127.0.0.1:0").unwrap();
        let analyzer =
            StreamAnalyzer::start(publisher.addr(), vec![low_fp_rule(1)]).unwrap();
        publisher.wait_for_subscribers(1, Duration::from_secs(5)).unwrap();
        publisher.publish("metrics.cpu_total", b"cpu_total,hostname=h1 busy=0.01 1");
        publisher.publish("metrics.hpm_flops_dp", b"not a valid line at all");
        assert!(analyzer.recv_alert(Duration::from_millis(300)).is_none());
    }
}
