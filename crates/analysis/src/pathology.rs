//! Job-level pathological-behaviour detection.
//!
//! The paper's motivating detections (Sec. I and V): idle jobs, exceeded
//! memory capacity, unreasonable strong scaling (load imbalance), and the
//! Fig. 4 computation break (FP rate *and* memory bandwidth below their
//! thresholds for more than the timeout). The detectors read nothing
//! themselves: they judge the one read of the job that its
//! [evaluation](crate::evaluation) makes, so the same code runs online
//! (against the live DB) and offline (against an archive).

use crate::evaluation::HostRead;
use crate::patterns::PerfSignature;
use crate::rules::{evaluate_all, Rule, Violation};
use std::time::Duration;

/// Detection thresholds.
#[derive(Debug, Clone)]
pub struct PathologyThresholds {
    /// DP FLOP rate below this (MFLOP/s, node aggregate) counts as "not
    /// computing".
    pub fp_rate_mflops: f64,
    /// Memory bandwidth below this (MBytes/s, node aggregate) counts as
    /// "not moving data".
    pub membw_mbytes: f64,
    /// Minimum length of a combined break before it is reported (the
    /// paper's Fig. 4 uses 10 minutes).
    pub break_timeout: Duration,
    /// Mean CPU busy fraction below this makes an idle job.
    pub idle_busy: f64,
    /// Peak memory used fraction above this reports exceeded memory.
    pub mem_used_frac: f64,
    /// `(max − min) / mean` of per-node busy above this reports imbalance.
    pub imbalance: f64,
}

impl Default for PathologyThresholds {
    fn default() -> Self {
        PathologyThresholds {
            fp_rate_mflops: 100.0,
            membw_mbytes: 1000.0,
            break_timeout: Duration::from_secs(600),
            idle_busy: 0.10,
            mem_used_frac: 0.95,
            imbalance: 0.50,
        }
    }
}

/// The kind of pathological behaviour found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// The whole job never did real work.
    IdleJob,
    /// FP rate and memory bandwidth simultaneously below thresholds for
    /// longer than the timeout (Fig. 4).
    ComputationBreak,
    /// Node memory nearly exhausted.
    MemoryExceeded,
    /// Strong imbalance between the job's nodes.
    LoadImbalance,
}

/// One detection result.
#[derive(Debug, Clone)]
pub struct Finding {
    /// What was found.
    pub kind: FindingKind,
    /// The affected host (`None` = job-wide).
    pub host: Option<String>,
    /// The violating window, where applicable.
    pub window: Option<Violation>,
    /// Human-readable detail for the dashboard header.
    pub detail: String,
}

/// The detectors and their thresholds.
#[derive(Debug, Clone, Default)]
pub struct PathologyDetector {
    /// Detection thresholds.
    pub thresholds: PathologyThresholds,
}

impl PathologyDetector {
    /// Runs every detector over one job read: idle job and imbalance from
    /// the job's busy mean and spread in `signature`, exceeded memory and
    /// Fig. 4 breaks per host.
    pub(crate) fn judge(&self, hosts: &[HostRead], signature: &PerfSignature) -> Vec<Finding> {
        let mut findings = Vec::new();
        if !hosts.is_empty() {
            self.detect_idle_and_imbalance(hosts, signature, &mut findings);
        }
        for host in hosts {
            self.detect_memory(host, &mut findings);
        }
        for host in hosts {
            self.detect_breaks(host, &mut findings);
        }
        findings
    }

    /// Idle-job and load-imbalance detection from the job's busy mean and
    /// imbalance; the hosts' busy fractions only word the finding.
    fn detect_idle_and_imbalance(
        &self,
        hosts: &[HostRead],
        signature: &PerfSignature,
        findings: &mut Vec<Finding>,
    ) {
        let mean = signature.cpu_busy;
        if mean < self.thresholds.idle_busy {
            findings.push(Finding {
                kind: FindingKind::IdleJob,
                host: None,
                window: None,
                detail: format!("mean CPU busy {:.1}% across all nodes", mean * 100.0),
            });
        } else if signature.imbalance > self.thresholds.imbalance {
            let busys = hosts.iter().map(|h| h.node.cpu_busy);
            let max = busys.clone().fold(f64::NEG_INFINITY, f64::max);
            let min = busys.fold(f64::INFINITY, f64::min);
            findings.push(Finding {
                kind: FindingKind::LoadImbalance,
                host: None,
                window: None,
                detail: format!(
                    "busy fraction spread {:.0}%–{:.0}% (imbalance {:.2})",
                    min * 100.0,
                    max * 100.0,
                    signature.imbalance
                ),
            });
        }
    }

    /// Exceeded-memory detection from one host's peak used fraction.
    fn detect_memory(&self, read: &HostRead, findings: &mut Vec<Finding>) {
        let (host, peak) = (&read.node.hostname, read.mem_peak);
        if peak > self.thresholds.mem_used_frac {
            findings.push(Finding {
                kind: FindingKind::MemoryExceeded,
                host: Some(host.clone()),
                window: None,
                detail: format!("peak memory use {:.1}% on {host}", peak * 100.0),
            });
        }
    }

    /// Fig. 4: combined FP-rate + bandwidth break on one host.
    fn detect_breaks(&self, read: &HostRead, findings: &mut Vec<Finding>) {
        let (host, fp, bw, t) = (&read.node.hostname, &read.fp, &read.bw, &self.thresholds);
        if fp.is_empty() || bw.is_empty() {
            return;
        }
        let fp_rule = Rule::below("DP FP rate", t.fp_rate_mflops, t.break_timeout);
        let bw_rule = Rule::below("memory bandwidth", t.membw_mbytes, t.break_timeout);
        for window in evaluate_all(&[(&fp_rule, fp), (&bw_rule, bw)], t.break_timeout) {
            findings.push(Finding {
                kind: FindingKind::ComputationBreak,
                host: Some(host.clone()),
                window: Some(window),
                detail: format!(
                    "FP rate and memory bandwidth below thresholds for {} on {host}",
                    lms_util::fmt::duration(window.duration())
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluation::{JobEvaluation, NodePeaks};
    use lms_influx::Influx;
    use lms_util::{Clock, Timestamp};

    /// The findings of one job read over `hosts` and `[start, end]`.
    fn detect(ix: &mut Influx, hosts: &[String], start: Timestamp, end: Timestamp) -> Vec<Finding> {
        let peaks = NodePeaks { flops_mflops: 350_000.0, membw_mbytes: 84_000.0 };
        JobEvaluation::evaluate(ix, "lms", "1", hosts, start, end, peaks).unwrap().findings
    }

    /// Builds a DB with a 60-minute 2-node job: h1 computes throughout,
    /// h2 has an 18-minute break in the middle; h2 also spikes memory.
    fn fixture() -> (Influx, Vec<String>, Timestamp, Timestamp) {
        let start = Timestamp::from_secs(0);
        let end = Timestamp::from_secs(3600);
        let ix = Influx::new(Clock::simulated(end)).unwrap();
        let mut batch = String::new();
        for minute in 0..60i64 {
            let ts = minute * 60 * 1_000_000_000;
            for host in ["h1", "h2"] {
                let in_break = host == "h2" && (20..38).contains(&minute);
                let (fp, bw, busy) =
                    if in_break { (5.0, 80.0, 0.03) } else { (2500.0, 28_000.0, 0.97) };
                batch.push_str(&format!(
                    "hpm_flops_dp,hostname={host} dp_mflop_s={fp} {ts}\n\
                     hpm_mem,hostname={host} memory_bandwidth_mbytes_s={bw} {ts}\n\
                     cpu_total,hostname={host} busy={busy} {ts}\n"
                ));
                let mem = if host == "h2" && minute == 45 { 0.99 } else { 0.5 };
                batch.push_str(&format!("memory,hostname={host} used_frac={mem} {ts}\n"));
            }
        }
        ix.write_lines("lms", &batch, Default::default()).unwrap();
        (ix, vec!["h1".into(), "h2".into()], start, end)
    }

    #[test]
    fn detects_fig4_break_on_the_right_host() {
        let (mut ix, hosts, start, end) = fixture();
        let findings = detect(&mut ix, &hosts, start, end);
        let breaks: Vec<&Finding> =
            findings.iter().filter(|f| f.kind == FindingKind::ComputationBreak).collect();
        assert_eq!(breaks.len(), 1, "{findings:?}");
        assert_eq!(breaks[0].host.as_deref(), Some("h2"));
        let w = breaks[0].window.unwrap();
        assert_eq!(w.start, Timestamp::from_secs(20 * 60));
        assert_eq!(w.end, Timestamp::from_secs(37 * 60));
        assert!(w.duration() >= Duration::from_secs(600));
        assert!(breaks[0].detail.contains("h2"));
    }

    #[test]
    fn detects_memory_spike() {
        let (mut ix, hosts, start, end) = fixture();
        let findings = detect(&mut ix, &hosts, start, end);
        let mem: Vec<&Finding> =
            findings.iter().filter(|f| f.kind == FindingKind::MemoryExceeded).collect();
        assert_eq!(mem.len(), 1);
        assert_eq!(mem[0].host.as_deref(), Some("h2"));
    }

    #[test]
    fn healthy_host_produces_no_break() {
        let (mut ix, _, start, end) = fixture();
        let findings = detect(&mut ix, &["h1".to_string()], start, end);
        assert!(
            findings.iter().all(|f| f.kind != FindingKind::ComputationBreak),
            "{findings:?}"
        );
    }

    #[test]
    fn detects_idle_job() {
        let ix = Influx::new(Clock::simulated(Timestamp::from_secs(1000))).unwrap();
        let mut batch = String::new();
        for s in (0..1000).step_by(60) {
            batch.push_str(&format!(
                "cpu_total,hostname=h1 busy=0.02 {}\n",
                s * 1_000_000_000i64
            ));
        }
        ix.write_lines("lms", &batch, Default::default()).unwrap();
        let mut src = ix;
        let findings =
            detect(&mut src, &["h1".to_string()], Timestamp::from_secs(0), Timestamp::from_secs(1000));
        assert!(findings.iter().any(|f| f.kind == FindingKind::IdleJob), "{findings:?}");
    }

    #[test]
    fn detects_load_imbalance() {
        let ix = Influx::new(Clock::simulated(Timestamp::from_secs(1000))).unwrap();
        let mut batch = String::new();
        for s in (0..1000).step_by(60) {
            let ts = s * 1_000_000_000i64;
            batch.push_str(&format!("cpu_total,hostname=h1 busy=0.95 {ts}\n"));
            batch.push_str(&format!("cpu_total,hostname=h2 busy=0.20 {ts}\n"));
        }
        ix.write_lines("lms", &batch, Default::default()).unwrap();
        let mut src = ix;
        let findings = detect(
            &mut src,
            &["h1".to_string(), "h2".to_string()],
            Timestamp::from_secs(0),
            Timestamp::from_secs(1000),
        );
        assert!(findings.iter().any(|f| f.kind == FindingKind::LoadImbalance), "{findings:?}");
    }

    #[test]
    fn empty_database_no_findings() {
        let mut ix = Influx::new(Clock::simulated(Timestamp::from_secs(10))).unwrap();
        ix.create_database("lms");
        let findings =
            detect(&mut ix, &["h1".to_string()], Timestamp::from_secs(0), Timestamp::from_secs(10));
        // No cpu data → busy defaults to 0 → flagged idle; but no breaks
        // or memory findings without data.
        assert!(findings.iter().all(|f| f.kind == FindingKind::IdleJob));
    }
}
