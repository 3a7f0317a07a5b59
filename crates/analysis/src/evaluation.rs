//! Online job evaluation — the Fig. 2 header.
//!
//! "As a header, analysis results of the job are presented to see badly
//! behaving jobs on the initial view" — a table with one column per node
//! (Fig. 2's "four rightmost columns represent the nodes on which the job
//! is running") covering the elementary resource-utilization metrics of
//! Sec. V, plus the pathological findings and the performance-pattern
//! classification.

use crate::pathology::{Finding, PathologyDetector};
use crate::patterns::{classify, Pattern, PerfSignature};
use crate::series::TimeSeries;
use lms_influx::query::Condition;
use lms_influx::{QueryResult, QuerySource, ResultSeries};
use lms_util::fmt::{pad, si_rate};
use lms_util::{Json, Result, Timestamp};
use std::fmt;

/// A job's scope: its hosts and its time range, the one way this crate and
/// the dashboards select a job's data. It displays as the body of a
/// statement's `WHERE`: `<hosts> AND time >= <start> AND time <= <end>`.
#[derive(Debug, Clone, Copy)]
pub struct JobScope<'a> {
    /// The job's hostnames.
    pub hosts: &'a [String],
    /// Allocation time.
    pub start: Timestamp,
    /// Deallocation time, or now while the job runs.
    pub end: Timestamp,
}

impl JobScope<'_> {
    /// The job's hosts as one tag set, `("hostname" = 'h1' OR …)`, each
    /// name quoted as InfluxQL quotes a string: the only host predicate
    /// this crate and the dashboards write. No hosts name the empty
    /// hostname, which no series carries.
    pub fn hosts(&self) -> String {
        let hosts = if self.hosts.is_empty() { vec![String::new()] } else { self.hosts.to_vec() };
        Condition::TagIn("hostname".into(), hosts).to_string()
    }
}

impl fmt::Display for JobScope<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (start, end) = (self.start.nanos(), self.end.nanos());
        write!(f, "{} AND time >= {start} AND time <= {end}", self.hosts())
    }
}

/// Node peaks used to normalize the signature (from the node's topology).
#[derive(Debug, Clone, Copy)]
pub struct NodePeaks {
    /// Peak DP MFLOP/s per node.
    pub flops_mflops: f64,
    /// Peak memory bandwidth per node in MBytes/s.
    pub membw_mbytes: f64,
}

/// Per-node evaluation row data.
#[derive(Debug, Clone)]
pub struct NodeEvaluation {
    /// Hostname.
    pub hostname: String,
    /// Mean 1-minute load.
    pub load1: f64,
    /// Mean CPU busy fraction.
    pub cpu_busy: f64,
    /// Mean IPC.
    pub ipc: f64,
    /// Mean DP MFLOP/s.
    pub dp_mflops: f64,
    /// Mean memory bandwidth (MBytes/s).
    pub membw_mbytes: f64,
    /// Mean memory used fraction.
    pub mem_used_frac: f64,
    /// Mean network traffic (bytes/s, rx+tx).
    pub net_bytes: f64,
    /// Mean file I/O (bytes/s, read+write).
    pub file_bytes: f64,
    /// Mean vectorization ratio (0..=1).
    pub vectorization: f64,
}

/// The complete evaluation of one job.
#[derive(Debug, Clone)]
pub struct JobEvaluation {
    /// Job identifier.
    pub jobid: String,
    /// Per-node rows.
    pub nodes: Vec<NodeEvaluation>,
    /// Pathology findings.
    pub findings: Vec<Finding>,
    /// Decision-tree classification of the whole job.
    pub pattern: Pattern,
    /// The signature the pattern was derived from.
    pub signature: PerfSignature,
}

/// A job's read, in the order [`HostRead::unpack`] takes the answers: one
/// statement per measurement for all the job's hosts, grouped by hostname,
/// its projections unwindowed aggregates over the job's range, then Fig.
/// 4's two 1-minute series, the break detector's input. The BRANCH and
/// CYCLE_STALLS groups are optional in the collector rotation: when a site
/// enables them their metrics feed the corresponding tree inputs,
/// otherwise those stay 0 (the tree orders its checks so absent signals
/// never misclassify).
const HOST_READ: [&str; 11] = [
    "mean(rx_bytes_per_s), mean(tx_bytes_per_s) FROM network",
    "mean(read_bytes_per_s), mean(write_bytes_per_s) FROM disk",
    "mean(load1) FROM load",
    "mean(busy) FROM cpu_total",
    "mean(ipc), mean(dp_mflop_s), mean(vectorization_ratio) FROM hpm_flops_dp",
    "mean(memory_bandwidth_mbytes_s) FROM hpm_mem",
    "mean(used_frac), max(used_frac) FROM memory",
    "mean(branch_misprediction_ratio) FROM hpm_branch",
    "mean(stall_rate) FROM hpm_cycle_stalls",
    "mean(dp_mflop_s) FROM hpm_flops_dp",
    "mean(memory_bandwidth_mbytes_s) FROM hpm_mem",
];

/// The unwindowed statements that open [`HOST_READ`].
const AGGREGATES: usize = 9;

/// One host's part of a job read: its node row, and what the tree and the
/// detectors take beyond it (peak memory, Fig. 4's two series).
pub(crate) struct HostRead {
    pub(crate) node: NodeEvaluation,
    pub(crate) mem_peak: f64,
    branch_misp: f64,
    stall_rate: f64,
    pub(crate) fp: TimeSeries,
    pub(crate) bw: TimeSeries,
}

/// `hostname`'s group of a grouped answer, if it has one.
fn group<'a>(answer: &'a QueryResult, hostname: &str) -> Option<&'a ResultSeries> {
    answer.series.iter().find(|s| s.tags.iter().any(|(k, v)| k == "hostname" && v == hostname))
}

impl HostRead {
    /// Reads one host's group of each of its job's answers, in statement
    /// order, by column position: every aggregate column is named after
    /// its function, so a name would find the first. A host without a
    /// group, and a null or missing cell, read as 0.0.
    fn unpack(hostname: &str, answers: &[QueryResult]) -> HostRead {
        let (aggregates, series) = answers.split_at(AGGREGATES);
        let cells: Vec<f64> = aggregates
            .iter()
            .zip(HOST_READ)
            .flat_map(|(answer, select)| {
                let row = group(answer, hostname).and_then(|s| s.values.first());
                (1..=select.split(", ").count())
                    .map(move |i| row.and_then(|r| r.get(i)).and_then(Json::as_f64).unwrap_or(0.0))
            })
            .collect();
        let [rx, tx, rd, wr, load1, cpu_busy, ipc, dp_mflops, vectorized, membw_mbytes,
             mem_used_frac, mem_peak, branch_misp, stall_rate]: [f64; 14] =
            cells.try_into().expect("fourteen projections");
        HostRead {
            node: NodeEvaluation {
                hostname: hostname.to_string(),
                load1,
                cpu_busy,
                ipc,
                dp_mflops,
                membw_mbytes,
                mem_used_frac,
                net_bytes: rx + tx,
                file_bytes: rd + wr,
                vectorization: vectorized / 100.0,
            },
            mem_peak,
            branch_misp,
            stall_rate,
            fp: group(&series[0], hostname).map(|s| TimeSeries::from_series(s, "mean")).unwrap_or_default(),
            bw: group(&series[1], hostname).map(|s| TimeSeries::from_series(s, "mean")).unwrap_or_default(),
        }
    }
}

impl JobEvaluation {
    /// Evaluates a job from the database off one batch: one statement per
    /// measurement and Fig. 4's two 1-minute series, each grouped by host.
    pub fn evaluate(
        source: &mut dyn QuerySource,
        db: &str,
        jobid: &str,
        hosts: &[String],
        start: Timestamp,
        end: Timestamp,
        peaks: NodePeaks,
    ) -> Result<JobEvaluation> {
        Ok(Self::evaluate_jobs(source, db, &[(jobid, hosts, start, end)], peaks)?.remove(0))
    }

    /// Evaluates every job in `jobs` off one batch of statements, each job
    /// read by [`HOST_READ`] over its [`JobScope`]: the only read of a
    /// job's data in this crate.
    pub(crate) fn evaluate_jobs(
        source: &mut dyn QuerySource,
        db: &str,
        jobs: &[(&str, &[String], Timestamp, Timestamp)],
        peaks: NodePeaks,
    ) -> Result<Vec<JobEvaluation>> {
        let mut stmts = Vec::new();
        for &(_, hosts, start, end) in jobs {
            let scope = JobScope { hosts, start, end };
            for (i, select) in HOST_READ.iter().enumerate() {
                let group = if i < AGGREGATES { "hostname" } else { "time(1m), hostname" };
                stmts.push(format!("SELECT {select} WHERE {scope} GROUP BY {group}"));
            }
        }
        let answers = source.query_batch(db, &stmts)?;
        let per_job = jobs.iter().zip(answers.chunks_exact(HOST_READ.len()));
        Ok(per_job
            .map(|(&(jobid, hosts, _, _), answers)| {
                let reads = hosts.iter().map(|h| HostRead::unpack(h, answers)).collect();
                Self::from_read(jobid, reads, peaks)
            })
            .collect())
    }

    /// The evaluation of one job read: the job-wide signature from the node
    /// means, its pattern, and the detectors' findings.
    fn from_read(jobid: &str, reads: Vec<HostRead>, peaks: NodePeaks) -> JobEvaluation {
        let n = reads.len().max(1) as f64;
        let mean = |f: fn(&HostRead) -> f64| reads.iter().map(f).sum::<f64>() / n;
        let busy_mean = mean(|h| h.node.cpu_busy);
        let imbalance = if reads.len() > 1 && busy_mean > 0.0 {
            let busys = reads.iter().map(|h| h.node.cpu_busy);
            let max = busys.clone().fold(f64::NEG_INFINITY, f64::max);
            let min = busys.fold(f64::INFINITY, f64::min);
            (max - min) / busy_mean
        } else {
            0.0
        };
        let signature = PerfSignature {
            flops_frac: mean(|h| h.node.dp_mflops) / peaks.flops_mflops.max(1.0),
            membw_frac: mean(|h| h.node.membw_mbytes) / peaks.membw_mbytes.max(1.0),
            ipc: mean(|h| h.node.ipc),
            vectorization: mean(|h| h.node.vectorization),
            branch_misp_ratio: mean(|h| h.branch_misp),
            stall_frac: mean(|h| h.stall_rate / 100.0),
            imbalance,
            cpu_busy: busy_mean,
        };
        let findings = PathologyDetector::default().judge(&reads, &signature);
        JobEvaluation {
            jobid: jobid.to_string(),
            nodes: reads.into_iter().map(|h| h.node).collect(),
            findings,
            pattern: classify(&signature),
            signature,
        }
    }

    /// Renders the Fig. 2-style table: metric rows, one column per node,
    /// findings and classification as the header lines.
    pub fn render_table(&self) -> String {
        const LABEL_W: usize = 22;
        const COL_W: usize = 14;
        let mut out = String::new();
        out.push_str(&format!("Job {} evaluation\n", self.jobid));
        out.push_str(&format!(
            "Pattern: {:?} — {}\n",
            self.pattern,
            self.pattern.recommendation()
        ));
        if self.findings.is_empty() {
            out.push_str("Findings: none\n");
        } else {
            out.push_str("Findings:\n");
            for f in &self.findings {
                out.push_str(&format!("  [{:?}] {}\n", f.kind, f.detail));
            }
        }
        out.push('\n');
        // Header row: node names.
        out.push_str(&pad("metric", LABEL_W));
        for node in &self.nodes {
            out.push_str(&pad(&node.hostname, COL_W));
        }
        out.push('\n');
        let mut row = |label: &str, f: &dyn Fn(&NodeEvaluation) -> String| {
            out.push_str(&pad(label, LABEL_W));
            for node in &self.nodes {
                out.push_str(&pad(&f(node), COL_W));
            }
            out.push('\n');
        };
        row("load (1m)", &|e| format!("{:.2}", e.load1));
        row("cpu busy [%]", &|e| format!("{:.1}", e.cpu_busy * 100.0));
        row("IPC", &|e| format!("{:.2}", e.ipc));
        row("DP [MFLOP/s]", &|e| format!("{:.0}", e.dp_mflops));
        row("mem bw [MB/s]", &|e| format!("{:.0}", e.membw_mbytes));
        row("mem used [%]", &|e| format!("{:.1}", e.mem_used_frac * 100.0));
        row("network", &|e| si_rate(e.net_bytes, "B/s"));
        row("file i/o", &|e| si_rate(e.file_bytes, "B/s"));
        row("vectorized [%]", &|e| format!("{:.0}", e.vectorization * 100.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_influx::Influx;
    use lms_util::Clock;

    fn fixture() -> (Influx, Vec<String>) {
        let ix = Influx::new(Clock::simulated(Timestamp::from_secs(4000))).unwrap();
        let mut batch = String::new();
        for s in (0..3600).step_by(60) {
            let ts = s as i64 * 1_000_000_000;
            for (host, fp) in [("h1", 2000.0), ("h2", 1800.0)] {
                batch.push_str(&format!(
                    "cpu_total,hostname={host} busy=0.95 {ts}\n\
                     load,hostname={host} load1=7.8 {ts}\n\
                     memory,hostname={host} used_frac=0.55 {ts}\n\
                     network,hostname={host} rx_bytes_per_s=40000000,tx_bytes_per_s=38000000 {ts}\n\
                     disk,hostname={host} read_bytes_per_s=100000,write_bytes_per_s=800000 {ts}\n\
                     hpm_flops_dp,hostname={host} dp_mflop_s={fp},ipc=2.1,vectorization_ratio=95 {ts}\n\
                     hpm_mem,hostname={host} memory_bandwidth_mbytes_s=15000 {ts}\n"
                ));
            }
        }
        ix.write_lines("lms", &batch, Default::default()).unwrap();
        (ix, vec!["h1".into(), "h2".into()])
    }

    fn peaks() -> NodePeaks {
        NodePeaks { flops_mflops: 350_000.0, membw_mbytes: 84_000.0 }
    }

    #[test]
    fn evaluates_all_node_metrics() {
        let (mut ix, hosts) = fixture();
        let ev = JobEvaluation::evaluate(
            &mut ix,
            "lms",
            "42",
            &hosts,
            Timestamp::from_secs(0),
            Timestamp::from_secs(3600),
            peaks(),
        )
        .unwrap();
        assert_eq!(ev.nodes.len(), 2);
        let h1 = &ev.nodes[0];
        assert_eq!(h1.hostname, "h1");
        assert!((h1.cpu_busy - 0.95).abs() < 1e-9);
        assert!((h1.dp_mflops - 2000.0).abs() < 1e-6);
        assert!((h1.ipc - 2.1).abs() < 1e-9);
        assert!((h1.net_bytes - 78e6).abs() < 1.0);
        assert!((h1.vectorization - 0.95).abs() < 1e-9);
        assert!(ev.findings.is_empty(), "{:?}", ev.findings);
    }

    #[test]
    fn signature_and_pattern_derived() {
        let (mut ix, hosts) = fixture();
        let ev = JobEvaluation::evaluate(
            &mut ix,
            "lms",
            "42",
            &hosts,
            Timestamp::from_secs(0),
            Timestamp::from_secs(3600),
            peaks(),
        )
        .unwrap();
        assert!(ev.signature.cpu_busy > 0.9);
        assert!(ev.signature.imbalance < 0.1);
        // IPC 2.1 at 0.5% of FP peak: the tree flags instruction overhead
        // (lots of retired work, almost none of it floating point).
        assert_eq!(ev.pattern, Pattern::InstructionOverhead);
    }

    #[test]
    fn table_renders_one_column_per_node() {
        let (mut ix, hosts) = fixture();
        let ev = JobEvaluation::evaluate(
            &mut ix,
            "lms",
            "42",
            &hosts,
            Timestamp::from_secs(0),
            Timestamp::from_secs(3600),
            peaks(),
        )
        .unwrap();
        let table = ev.render_table();
        let header = table.lines().find(|l| l.starts_with("metric")).unwrap();
        assert!(header.contains("h1") && header.contains("h2"));
        assert!(table.contains("DP [MFLOP/s]"));
        assert!(table.contains("Findings: none"));
        assert!(table.contains("Pattern:"));
        // Every metric row has a value under each node column.
        let row = table.lines().find(|l| l.starts_with("cpu busy")).unwrap();
        assert!(row.contains("95.0"));
    }

    #[test]
    fn optional_groups_feed_the_tree_when_present() {
        let (ix, hosts) = fixture();
        // Add CYCLE_STALLS data showing a latency-bound job.
        let mut batch = String::new();
        for s in (0..3600).step_by(60) {
            let ts = s as i64 * 1_000_000_000;
            for host in ["h1", "h2"] {
                batch.push_str(&format!(
                    "hpm_cycle_stalls,hostname={host} stall_rate=72.0 {ts}\n"
                ));
            }
        }
        ix.write_lines("lms", &batch, Default::default()).unwrap();
        let mut src = ix;
        let ev = JobEvaluation::evaluate(
            &mut src,
            "lms",
            "42",
            &hosts,
            Timestamp::from_secs(0),
            Timestamp::from_secs(3600),
            peaks(),
        )
        .unwrap();
        assert!((ev.signature.stall_frac - 0.72).abs() < 1e-9);
        assert_eq!(ev.pattern, Pattern::MemoryLatencyBound);
    }

    #[test]
    fn missing_data_defaults_to_zero_and_flags_idle() {
        let mut ix = Influx::new(Clock::simulated(Timestamp::from_secs(10))).unwrap();
        ix.create_database("lms");
        let ev = JobEvaluation::evaluate(
            &mut ix,
            "lms",
            "7",
            &["ghost".to_string()],
            Timestamp::from_secs(0),
            Timestamp::from_secs(10),
            peaks(),
        )
        .unwrap();
        assert_eq!(ev.nodes[0].dp_mflops, 0.0);
        assert_eq!(ev.pattern, Pattern::Idle);
    }
}
