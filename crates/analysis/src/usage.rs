//! Statistical system-usage analysis across completed jobs.
//!
//! The paper's fourth motivation bullet: "Enable application-specific
//! statistical performance analysis of system usage for optimizing
//! operational settings and guiding future procurements." This module
//! aggregates per-job evaluations into per-user and per-application usage
//! statistics: node-hours, achieved FLOP/bandwidth fractions, and the
//! distribution of performance patterns — the data a center's procurement
//! discussion starts from.

use crate::evaluation::{JobEvaluation, NodePeaks};
use crate::patterns::Pattern;
use lms_influx::QuerySource;
use lms_util::fmt::pad;
use lms_util::{FxHashMap, Result, Timestamp};

/// Identity and extent of one finished job (from the scheduler's records).
#[derive(Debug, Clone)]
pub struct CompletedJob {
    /// Job id.
    pub jobid: String,
    /// Owning user.
    pub user: String,
    /// Application name (the scheduler's job name).
    pub app: String,
    /// Hosts used.
    pub hosts: Vec<String>,
    /// Start time.
    pub start: Timestamp,
    /// End time.
    pub end: Timestamp,
}

/// Aggregated statistics for one group (user or application).
#[derive(Debug, Clone, Default)]
pub struct GroupUsage {
    /// Jobs in the group.
    pub jobs: usize,
    /// Σ nodes × runtime, in node-hours.
    pub node_hours: f64,
    /// Node-hour-weighted mean fraction of DP peak.
    pub mean_flops_frac: f64,
    /// Node-hour-weighted mean fraction of bandwidth peak.
    pub mean_membw_frac: f64,
    /// Pattern → occurrence count.
    pub patterns: FxHashMap<&'static str, usize>,
}

impl GroupUsage {
    fn add(&mut self, node_hours: f64, ev: &JobEvaluation) {
        let prev = self.node_hours;
        self.jobs += 1;
        self.node_hours += node_hours;
        if self.node_hours > 0.0 {
            // Running node-hour-weighted means.
            self.mean_flops_frac = (self.mean_flops_frac * prev
                + ev.signature.flops_frac * node_hours)
                / self.node_hours;
            self.mean_membw_frac = (self.mean_membw_frac * prev
                + ev.signature.membw_frac * node_hours)
                / self.node_hours;
        }
        *self.patterns.entry(pattern_name(ev.pattern)).or_insert(0) += 1;
    }

    /// The most frequent pattern in the group.
    pub fn dominant_pattern(&self) -> Option<&'static str> {
        self.patterns.iter().max_by_key(|(_, &n)| n).map(|(&p, _)| p)
    }
}

fn pattern_name(p: Pattern) -> &'static str {
    match p {
        Pattern::Idle => "Idle",
        Pattern::LoadImbalance => "LoadImbalance",
        Pattern::BandwidthSaturation => "BandwidthSaturation",
        Pattern::MemoryLatencyBound => "MemoryLatencyBound",
        Pattern::ScalarCode => "ScalarCode",
        Pattern::BranchLimited => "BranchLimited",
        Pattern::InstructionOverhead => "InstructionOverhead",
        Pattern::ComputeBoundHealthy => "ComputeBoundHealthy",
        Pattern::Unremarkable => "Unremarkable",
    }
}

/// The aggregated usage report.
#[derive(Debug, Clone, Default)]
pub struct UsageReport {
    /// Per-user statistics, sorted by node-hours descending.
    pub by_user: Vec<(String, GroupUsage)>,
    /// Per-application statistics, sorted by node-hours descending.
    pub by_app: Vec<(String, GroupUsage)>,
    /// Total node-hours accounted.
    pub total_node_hours: f64,
}

impl UsageReport {
    /// Builds the report by evaluating every completed job against the
    /// database, all of them off one batch of statements. Jobs whose data
    /// has been evicted evaluate to zeros and still count toward
    /// node-hours (accounting is scheduler truth).
    pub fn build(
        source: &mut dyn QuerySource,
        db: &str,
        jobs: &[CompletedJob],
        peaks: NodePeaks,
    ) -> Result<UsageReport> {
        let spans: Vec<_> =
            jobs.iter().map(|j| (j.jobid.as_str(), j.hosts.as_slice(), j.start, j.end)).collect();
        let evaluations = JobEvaluation::evaluate_jobs(source, db, &spans, peaks)?;
        let mut by_user: FxHashMap<String, GroupUsage> = FxHashMap::default();
        let mut by_app: FxHashMap<String, GroupUsage> = FxHashMap::default();
        let mut total = 0.0;
        for (job, ev) in jobs.iter().zip(&evaluations) {
            let hours = job.end.since(job.start).as_secs_f64() / 3600.0;
            let node_hours = hours * job.hosts.len() as f64;
            total += node_hours;
            by_user.entry(job.user.clone()).or_default().add(node_hours, ev);
            by_app.entry(job.app.clone()).or_default().add(node_hours, ev);
        }
        let sort = |m: FxHashMap<String, GroupUsage>| {
            let mut v: Vec<(String, GroupUsage)> = m.into_iter().collect();
            v.sort_by(|a, b| {
                b.1.node_hours.partial_cmp(&a.1.node_hours).expect("finite").then(a.0.cmp(&b.0))
            });
            v
        };
        Ok(UsageReport { by_user: sort(by_user), by_app: sort(by_app), total_node_hours: total })
    }

    /// Renders the report as the procurement-meeting table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "SYSTEM USAGE REPORT — {:.1} node-hours accounted\n\n",
            self.total_node_hours
        ));
        for (title, groups) in [("by user", &self.by_user), ("by application", &self.by_app)] {
            out.push_str(&format!("--- {title} ---\n"));
            out.push_str(&pad("group", 16));
            out.push_str(&pad("jobs", 6));
            out.push_str(&pad("node-h", 10));
            out.push_str(&pad("%peak FP", 10));
            out.push_str(&pad("%peak BW", 10));
            out.push_str("dominant pattern\n");
            for (name, g) in groups {
                out.push_str(&pad(name, 16));
                out.push_str(&pad(&g.jobs.to_string(), 6));
                out.push_str(&pad(&format!("{:.1}", g.node_hours), 10));
                out.push_str(&pad(&format!("{:.1}", g.mean_flops_frac * 100.0), 10));
                out.push_str(&pad(&format!("{:.1}", g.mean_membw_frac * 100.0), 10));
                out.push_str(g.dominant_pattern().unwrap_or("-"));
                out.push('\n');
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_influx::Influx;
    use lms_util::Clock;

    fn peaks() -> NodePeaks {
        NodePeaks { flops_mflops: 100_000.0, membw_mbytes: 50_000.0 }
    }

    /// Two users: anna runs two compute jobs, bert one idle job.
    fn fixture() -> (Influx, Vec<CompletedJob>) {
        let ix = Influx::new(Clock::simulated(Timestamp::from_secs(20_000))).unwrap();
        let mut batch = String::new();
        // Job 1: h1+h2, 0..3600s, busy.
        // Job 2: h1, 4000..5800s, busy.
        // Job 3: h3, 0..7200s, idle.
        for s in (0..7200).step_by(60) {
            let ts = s as i64 * 1_000_000_000;
            for host in ["h1", "h2"] {
                batch.push_str(&format!(
                    "cpu_total,hostname={host} busy=0.95 {ts}\n\
                     hpm_flops_dp,hostname={host} dp_mflop_s=60000,ipc=2.0,vectorization_ratio=95 {ts}\n\
                     hpm_mem,hostname={host} memory_bandwidth_mbytes_s=10000 {ts}\n"
                ));
            }
            batch.push_str(&format!("cpu_total,hostname=h3 busy=0.01 {ts}\n"));
        }
        ix.write_lines("lms", &batch, Default::default()).unwrap();
        let jobs = vec![
            CompletedJob {
                jobid: "1".into(),
                user: "anna".into(),
                app: "gemm".into(),
                hosts: vec!["h1".into(), "h2".into()],
                start: Timestamp::from_secs(0),
                end: Timestamp::from_secs(3600),
            },
            CompletedJob {
                jobid: "2".into(),
                user: "anna".into(),
                app: "gemm".into(),
                hosts: vec!["h1".into()],
                start: Timestamp::from_secs(4000),
                end: Timestamp::from_secs(5800),
            },
            CompletedJob {
                jobid: "3".into(),
                user: "bert".into(),
                app: "idler".into(),
                hosts: vec!["h3".into()],
                start: Timestamp::from_secs(0),
                end: Timestamp::from_secs(7200),
            },
        ];
        (ix, jobs)
    }

    #[test]
    fn aggregates_node_hours_and_fractions() {
        let (mut ix, jobs) = fixture();
        let report = UsageReport::build(&mut ix, "lms", &jobs, peaks()).unwrap();
        // anna: 2 nodes×1h + 1 node×0.5h = 2.5; bert: 1×2h = 2.
        assert!((report.total_node_hours - 4.5).abs() < 1e-9);
        assert_eq!(report.by_user[0].0, "anna");
        let anna = &report.by_user[0].1;
        assert_eq!(anna.jobs, 2);
        assert!((anna.node_hours - 2.5).abs() < 1e-9);
        // 60000/100000 = 60% of FP peak on busy nodes.
        assert!((anna.mean_flops_frac - 0.6).abs() < 0.01, "{}", anna.mean_flops_frac);
        assert_eq!(anna.dominant_pattern(), Some("ComputeBoundHealthy"));

        let bert = &report.by_user[1].1;
        assert_eq!(bert.dominant_pattern(), Some("Idle"));
        assert_eq!(bert.jobs, 1);
    }

    #[test]
    fn groups_by_application_too() {
        let (mut ix, jobs) = fixture();
        let report = UsageReport::build(&mut ix, "lms", &jobs, peaks()).unwrap();
        let apps: Vec<&str> = report.by_app.iter().map(|(a, _)| a.as_str()).collect();
        assert_eq!(apps, vec!["gemm", "idler"]);
        assert_eq!(report.by_app[0].1.jobs, 2);
    }

    #[test]
    fn render_produces_both_tables() {
        let (mut ix, jobs) = fixture();
        let report = UsageReport::build(&mut ix, "lms", &jobs, peaks()).unwrap();
        let text = report.render();
        assert!(text.contains("by user"));
        assert!(text.contains("by application"));
        assert!(text.contains("anna"));
        assert!(text.contains("ComputeBoundHealthy"));
        assert!(text.contains("4.5 node-hours"));
    }

    #[test]
    fn empty_input_is_empty_report() {
        let mut ix = Influx::new(Clock::simulated(Timestamp::from_secs(1))).unwrap();
        ix.create_database("lms");
        let report = UsageReport::build(&mut ix, "lms", &[], peaks()).unwrap();
        assert_eq!(report.total_node_hours, 0.0);
        assert!(report.by_user.is_empty());
        assert!(report.render().contains("0.0 node-hours"));
    }
}
