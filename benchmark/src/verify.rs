//! The correctness oracle. After the drain, everything the stack acknowledged
//! must be there, exactly once, with the values the generator sent:
//!
//! * `count()` per measurement through the router equals the generator's
//!   acknowledged line count (minus lines that overwrote an earlier point);
//! * the field values stored over all nodes equal `R ×` the values sent;
//! * sampled panel and fleet-aggregate answers equal a reference recomputed
//!   from the generator's own values, late lines resolved last-write-wins;
//! * a rendered job view names every host of its job.

use crate::gen::{Body, NOT_LATE};
use crate::load::SendRec;
use crate::stack::{Stack, DB};
use lms_analysis::TimeSeries;
use lms_http::url::percent_encode;
use lms_http::HttpClient;
use lms_influx::InfluxClient;
use std::collections::HashMap;

/// Relative tolerance on recomputed means (summation order differs).
const TOLERANCE: f64 = 1e-9;
/// Overwritten keys read back raw.
const LWW_SAMPLES: usize = 32;

/// What the generator knows it stored: final value per `(host, timestamp)`
/// of the reference field.
#[derive(Default)]
pub struct Model {
    points: HashMap<(u32, i64), f64>,
    /// Keys a late line overwrote, in send order.
    pub overwritten: Vec<(u32, i64)>,
}

impl Model {
    /// Applies one acknowledged send, in send order (later sends overwrite).
    pub fn apply(&mut self, body: &Body, rec: &SendRec) {
        for r in &body.refs {
            let slot = body.slots[r.slot as usize];
            let ts = match slot.late_delta {
                d if d != NOT_LATE && rec.late_base != 0 => {
                    self.overwritten.push((r.host, rec.late_base + d));
                    rec.late_base + d
                }
                _ => rec.base + slot.delta,
            };
            self.points.insert((r.host, ts), r.value);
        }
    }

    /// Records one stored point directly (preloaded history).
    pub fn insert(&mut self, host: u32, ts: i64, value: f64) {
        self.points.insert((host, ts), value);
    }

    /// The final value at a key.
    pub fn value_at(&self, host: u32, ts: i64) -> Option<f64> {
        self.points.get(&(host, ts)).copied()
    }

    /// Distinct points held.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Mean per `step` bucket over `[start, end)`, one host or all hosts.
    pub fn bucket_means(
        &self,
        host: Option<u32>,
        start: i64,
        end: i64,
        step: i64,
    ) -> Vec<(i64, f64)> {
        let mut acc: HashMap<i64, (f64, u64)> = HashMap::new();
        for (&(h, ts), &v) in &self.points {
            if host.is_some_and(|want| want != h) || ts < start || ts >= end {
                continue;
            }
            let e = acc.entry(ts.div_euclid(step) * step).or_insert((0.0, 0));
            e.0 += v;
            e.1 += 1;
        }
        let mut out: Vec<(i64, f64)> = acc
            .into_iter()
            .map(|(t, (sum, n))| (t, sum / n as f64))
            .collect();
        out.sort_by_key(|&(t, _)| t);
        out
    }
}

/// Findings of the oracle; empty = correct.
#[derive(Default)]
pub struct Findings(pub Vec<String>);

impl Findings {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }

    /// True when nothing was found.
    pub fn is_clean(&self) -> bool {
        self.0.is_empty()
    }
}

/// Compares a bucketed answer with its reference: same buckets, same means.
pub fn compare_buckets(got: &[(i64, f64)], want: &[(i64, f64)]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{} buckets, reference has {}",
            got.len(),
            want.len()
        ));
    }
    for (g, w) in got.iter().zip(want) {
        let scale = w.1.abs().max(1e-300);
        if g.0 != w.0 || ((g.1 - w.1).abs() / scale) > TOLERANCE {
            return Err(format!(
                "bucket {} = {:e}, reference bucket {} = {:e}",
                g.0, g.1, w.0, w.1
            ));
        }
    }
    Ok(())
}

fn series_of(result: &lms_influx::QueryResult) -> Vec<(i64, f64)> {
    TimeSeries::from_result(result, "mean")
        .points
        .iter()
        .map(|&(t, v)| (t.nanos(), v))
        .collect()
}

/// One expected per-measurement count.
pub struct Expected {
    /// Measurement.
    pub measurement: String,
    /// A field every line of the measurement carries.
    pub field: String,
    /// Distinct points expected.
    pub points: u64,
}

/// A sampled aggregate to recompute.
pub struct Sample {
    /// Measurement and field of the reference series.
    pub reference: (&'static str, &'static str),
    /// `(host index, hostname)` pairs to check as panels.
    pub hosts: Vec<(u32, String)>,
    /// Panel range and step.
    pub panel: (i64, i64, i64),
    /// Fleet-aggregate range (bucketed to 1 m).
    pub fleet: (i64, i64),
}

/// Everything the oracle checks the stack against.
pub struct Oracle<'a> {
    /// Distinct points expected per measurement.
    pub expected: &'a [Expected],
    /// Field values expected in the raw database, once.
    pub expected_values: u64,
    /// The sampled aggregates to recompute.
    pub sample: Sample,
    /// Hostname by global host index.
    pub host_names: Vec<&'a str>,
    /// `(job id, its hosts)` of the view to render.
    pub view_job: (&'a str, &'a [String]),
}

/// Runs the count, copy, last-write-wins, sampled-aggregate and view checks.
pub fn run(stack: &Stack, model: &Model, oracle: &Oracle, findings: &mut Findings) {
    let Oracle {
        expected,
        expected_values,
        sample,
        host_names,
        view_job,
    } = oracle;
    let mut client = InfluxClient::connect(stack.router_addr).expect("loopback address resolves");
    client.set_timeout(std::time::Duration::from_secs(60));

    for e in expected.iter() {
        let q = format!("SELECT count({}) FROM {}", e.field, e.measurement);
        let got = match client.query(DB, &q) {
            Ok(r) => r
                .series
                .first()
                .and_then(|s| s.values.first())
                .and_then(|row| row.get(1))
                .and_then(|v| v.as_i64())
                .unwrap_or(0) as u64,
            Err(err) => {
                findings.0.push(format!("{q}: {err}"));
                continue;
            }
        };
        findings.check(got == e.points, || {
            format!(
                "count({}) of {}: stored {got}, acknowledged {}",
                e.field, e.measurement, e.points
            )
        });
    }

    // Every value is held by exactly R nodes (one node: exactly once). The
    // engine's point gauge counts an overwritten point twice while the old
    // version sits in a sealed block and the new one in the head, so the
    // gauge is only exact when nothing was overwritten.
    if model.overwritten.is_empty() {
        let copies: u64 = stack
            .nodes
            .iter()
            .map(|n| n.influx.point_count(DB) as u64)
            .sum();
        let want = expected_values * stack.deployment.replication as u64;
        findings.check(copies == want, || {
            format!("values over all nodes: {copies}, expected R × N = {want}")
        });
    }

    // Late lines resolve last-write-wins: a sample of overwritten keys read
    // back raw must hold the value that arrived last.
    let (m, f) = sample.reference;
    let stride = (model.overwritten.len() / LWW_SAMPLES).max(1);
    for &(host, ts) in model.overwritten.iter().step_by(stride).take(LWW_SAMPLES) {
        let name = &host_names[host as usize];
        let q = format!(
            "SELECT {f} FROM {m} WHERE hostname = '{name}' AND time >= {ts} AND time <= {ts}"
        );
        let got: Vec<f64> = match client.query(DB, &q) {
            Ok(r) => r
                .series
                .iter()
                .flat_map(|s| s.values.iter())
                .filter_map(|row| row.get(1).and_then(|v| v.as_f64()))
                .collect(),
            Err(err) => {
                findings.0.push(format!("{q}: {err}"));
                continue;
            }
        };
        let want = model.value_at(host, ts);
        findings.check(got.len() == 1 && Some(got[0]) == want, || {
            format!("late line at {name}/{ts}: stored {got:?}, last write was {want:?}")
        });
    }

    let (start, end, step) = sample.panel;
    for (host, name) in &sample.hosts {
        let q = format!("SELECT mean({f}) FROM {m} WHERE hostname = '{name}'");
        match client.query_range(DB, &q, start, end, Some(step)) {
            Ok(r) => {
                let want = model.bucket_means(Some(*host), start, end, step);
                findings.check(!want.is_empty(), || {
                    format!("panel {name}: reference is empty")
                });
                if let Err(why) = compare_buckets(&series_of(&r), &want) {
                    findings.0.push(format!("panel {name}: {why}"));
                }
            }
            Err(err) => findings.0.push(format!("panel {name}: {err}")),
        }
    }
    let (start, end) = sample.fleet;
    let q = format!(
        "SELECT mean({f}) FROM {m} WHERE time >= {start} AND time < {end} GROUP BY time(1m)"
    );
    match client.query(DB, &q) {
        Ok(r) => {
            let want = model.bucket_means(None, start, end, 60_000_000_000);
            if let Err(why) = compare_buckets(&series_of(&r), &want) {
                findings.0.push(format!("fleet aggregate: {why}"));
            }
        }
        Err(err) => findings.0.push(format!("fleet aggregate: {err}")),
    }

    let (job, hosts) = *view_job;
    let mut viewer = HttpClient::connect(stack.viewer_addr).expect("loopback address resolves");
    viewer.set_timeout(std::time::Duration::from_secs(60));
    match viewer.get(&format!("/render?job={}", percent_encode(job))) {
        Ok(r) if r.status == 200 => {
            let text = r.body_str();
            for host in hosts.iter() {
                findings.check(text.contains(host.as_str()), || {
                    format!("view of job {job} does not name host {host}")
                });
            }
        }
        Ok(r) => findings
            .0
            .push(format!("view of job {job}: HTTP {}", r.status)),
        Err(err) => findings.0.push(format!("view of job {job}: {err}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{mark_rank_late_lines, render_rank, Names, APP_METRICS, CALL_SPACING_NS};

    #[test]
    fn late_lines_resolve_last_write_wins_in_the_model() {
        let frames = render_rank("h0001", 0, 5, 2);
        let mut names = Names::default();
        let mut bodies: Vec<Body> = frames
            .iter()
            .map(|t| Body::from_text(t, &mut names, (APP_METRICS[0], "value"), &|_| Some(0)))
            .collect();
        bodies.iter_mut().for_each(mark_rank_late_lines);
        let mut model = Model::default();
        let first = SendRec {
            unit: 0,
            frame: 0,
            base: 1_000_000_000,
            late_base: 0,
        };
        model.apply(&bodies[0], &first);
        assert_eq!(
            model.len(),
            24,
            "no earlier base: late lines keep their own time"
        );
        let overwritten = model.points[&(0, first.base + 5 * CALL_SPACING_NS)];
        let second = SendRec {
            unit: 0,
            frame: 1,
            base: 3_000_000_000,
            late_base: first.base,
        };
        model.apply(&bodies[1], &second);
        // 22 new points; the two late lines landed on existing keys.
        assert_eq!(model.len(), 24 + 22);
        let now = model.points[&(0, first.base + 5 * CALL_SPACING_NS)];
        assert_ne!(now, overwritten);
        let late_value = bodies[1].refs[22].value;
        assert_eq!(now, late_value);
    }

    #[test]
    fn bucket_means_and_comparison() {
        let mut model = Model::default();
        for (host, ts, v) in [(1, 5, 1.0), (1, 15, 3.0), (2, 16, 5.0), (1, 25, 7.0)] {
            model.points.insert((host, ts), v);
        }
        assert_eq!(
            model.bucket_means(Some(1), 0, 30, 10),
            vec![(0, 1.0), (10, 3.0), (20, 7.0)]
        );
        assert_eq!(model.bucket_means(None, 10, 20, 10), vec![(10, 4.0)]);
        assert!(compare_buckets(&[(10, 4.0 + 1e-12)], &[(10, 4.0)]).is_ok());
        assert!(compare_buckets(&[(10, 4.1)], &[(10, 4.0)]).is_err());
        assert!(compare_buckets(&[], &[(10, 4.0)]).is_err());
    }
}
