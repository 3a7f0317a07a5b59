//! The Viewer Agent: template-driven dashboard generation per job, and the
//! administrators' overview of all running jobs.

use crate::model::{Dashboard, Panel, Row, Target};
use crate::render::{render_panels, sparkline, RenderOptions};
use crate::templates::TemplateStore;
use lms_analysis::evaluation::{JobEvaluation, JobScope, NodePeaks};
use lms_influx::QuerySource;
use lms_util::{Result, Timestamp};

/// What the agent needs to know about one job (fed from the router's
/// `/jobs` endpoint or the scheduler).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobInfo {
    /// Job identifier.
    pub jobid: String,
    /// Owning user.
    pub user: String,
    /// Participating hostnames.
    pub hosts: Vec<String>,
    /// Allocation time.
    pub start: Timestamp,
    /// Deallocation time (`None` while running).
    pub end: Option<Timestamp>,
}

/// The rendered admin overview.
#[derive(Debug, Clone)]
pub struct AdminView {
    /// One line per job: id, user, nodes, FLOP-rate thumbnail.
    pub text: String,
    /// Number of jobs shown.
    pub jobs: usize,
}

/// The dashboard-generating agent.
pub struct ViewerAgent {
    db: String,
    store: TemplateStore,
    peaks: NodePeaks,
}

impl ViewerAgent {
    /// An agent reading from database `db` with the given templates.
    pub fn new(db: &str, store: TemplateStore, peaks: NodePeaks) -> Self {
        ViewerAgent { db: db.to_string(), store, peaks }
    }

    /// Generates the dashboard for one job: evaluation header (Fig. 2) +
    /// one templated row per metric family its hosts hold + a panel per
    /// application-level measurement (Sec. IV) they hold. Every statement
    /// selects the job by its [`JobScope`], once for all its hosts.
    pub fn job_dashboard(
        &self,
        source: &mut dyn QuerySource,
        job: &JobInfo,
        now: Timestamp,
    ) -> Result<Dashboard> {
        let end = job.end.unwrap_or(now);
        let scope = JobScope { hosts: &job.hosts, start: job.start, end };
        let (hosts, from, to) = (scope.hosts(), job.start.nanos().to_string(), end.nanos().to_string());

        // "based on the hosts participating in a job and the metrics
        // available in the DB".
        let listing = source.query_source(&self.db, &format!("SHOW MEASUREMENTS WHERE {hosts}"))?;
        let available = listing.series.iter().flat_map(|s| &s.values);
        let available: Vec<&str> = available.filter_map(|row| row.first()?.as_str()).collect();

        let mut dashboard = Dashboard {
            title: format!("Job {} ({})", job.jobid, job.user),
            tags: vec!["lms".into(), "job".into(), job.jobid.clone()],
            time_range: (job.start.nanos(), end.nanos()),
            rows: Vec::new(),
        };

        // Header row: online evaluation results (Fig. 2).
        let evaluation = JobEvaluation::evaluate(
            source,
            &self.db,
            &job.jobid,
            &job.hosts,
            job.start,
            end,
            self.peaks,
        )?;
        dashboard.rows.push(Row {
            title: "Evaluation".into(),
            panels: vec![Panel::text("Job evaluation", &evaluation.render_table())],
        });

        // Templated rows for the metric families the job's hosts hold.
        // The hosts go in last, so no placeholder is read inside a name.
        let vars: Vec<(&str, &str)> = vec![
            ("db", self.db.as_str()),
            ("jobid", job.jobid.as_str()),
            ("user", job.user.as_str()),
            ("from", from.as_str()),
            ("to", to.as_str()),
            ("hosts", hosts.as_str()),
        ];
        let mut covered: Vec<&str> = vec!["events"];
        for row_template in self.store.rows() {
            covered.push(&row_template.requires_measurement);
            if available.contains(&row_template.requires_measurement.as_str()) {
                dashboard.rows.push(self.store.instantiate_row(row_template, &vars)?);
            }
        }

        // Application-level measurements get one generic panel each, a
        // line per host — "with application-level monitoring additional
        // metrics may be available" (Sec. III-D). Heuristic: uncovered
        // measurements that are not part of the standard system/HPM
        // families.
        let standard_prefixes = ["hpm_", "cpu", "memory", "network", "disk", "load", "ganglia_"];
        let mut app_row = Row { title: "Application metrics".into(), panels: Vec::new() };
        for &measurement in &available {
            let is_covered = covered.contains(&measurement);
            let is_standard = standard_prefixes.iter().any(|p| measurement.starts_with(p));
            if is_covered || is_standard {
                continue;
            }
            app_row.panels.push(Panel {
                annotation_measurement: Some("events".into()),
                ..Panel::graph(
                    measurement,
                    Target {
                        db: self.db.clone(),
                        query: format!(
                            "SELECT mean(value) FROM {measurement} WHERE {scope} GROUP BY time(30s), hostname"
                        ),
                        alias: measurement.to_string(),
                        column: "mean".into(),
                    },
                    "",
                )
            });
        }
        if !app_row.panels.is_empty() {
            dashboard.rows.push(app_row);
        }

        Ok(dashboard)
    }

    /// Renders a whole dashboard to text (all panels, queried together:
    /// see [`render_panels`]).
    pub fn render_dashboard(
        &self,
        source: &mut dyn QuerySource,
        dashboard: &Dashboard,
        opts: RenderOptions,
    ) -> Result<String> {
        let panels: Vec<&Panel> = dashboard.rows.iter().flat_map(|row| &row.panels).collect();
        let mut texts = render_panels(&panels, source, opts)?.into_iter();
        let mut out = format!("##### {} #####\n", dashboard.title);
        for row in &dashboard.rows {
            out.push_str(&format!("\n--- {} ---\n", row.title));
            out.extend(texts.by_ref().take(row.panels.len()));
        }
        Ok(out)
    }

    /// The administrators' main view: all running jobs with thumbnails of
    /// the job's DP FLOP rate.
    pub fn admin_view(
        &self,
        source: &mut dyn QuerySource,
        jobs: &[JobInfo],
        now: Timestamp,
    ) -> Result<AdminView> {
        // Thumbnails from each job's first host (a representative trace;
        // the full dashboard shows every node), all in one batch.
        let stmts: Vec<String> = jobs
            .iter()
            .map(|job| {
                let hosts = &job.hosts[..job.hosts.len().min(1)];
                let scope = JobScope { hosts, start: job.start, end: job.end.unwrap_or(now) };
                format!("SELECT mean(dp_mflop_s) FROM hpm_flops_dp WHERE {scope} GROUP BY time(1m)")
            })
            .collect();
        let traces = source.query_batch(&self.db, &stmts)?;

        let mut text = String::from("RUNNING JOBS\n");
        text.push_str(&format!(
            "{:<8} {:<10} {:<6} {:<24} {}\n",
            "jobid", "user", "nodes", "runtime", "DP FLOP rate"
        ));
        for (job, trace) in jobs.iter().zip(&traces) {
            let runtime = lms_util::fmt::duration(job.end.unwrap_or(now).since(job.start));
            let series = lms_analysis::TimeSeries::from_result(trace, "mean");
            let thumb = sparkline(&series.values());
            text.push_str(&format!(
                "{:<8} {:<10} {:<6} {:<24} {}\n",
                job.jobid,
                job.user,
                job.hosts.len(),
                runtime,
                if thumb.is_empty() { "(no data)".to_string() } else { thumb }
            ));
        }
        Ok(AdminView { text, jobs: jobs.len() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::TemplateStore;
    use lms_influx::Influx;
    use lms_util::Clock;

    fn fixture() -> (Influx, JobInfo) {
        let ix = Influx::new(Clock::simulated(Timestamp::from_secs(4000))).unwrap();
        let mut batch = String::new();
        for s in (0..3600).step_by(60) {
            let ts = s as i64 * 1_000_000_000;
            for host in ["h1", "h2"] {
                batch.push_str(&format!(
                    "cpu_total,hostname={host} busy=0.9 {ts}\n\
                     load,hostname={host} load1=8 {ts}\n\
                     memory,hostname={host} used_frac=0.4 {ts}\n\
                     network,hostname={host} rx_bytes_per_s=1000,tx_bytes_per_s=1000 {ts}\n\
                     disk,hostname={host} read_bytes_per_s=10,write_bytes_per_s=10 {ts}\n\
                     hpm_flops_dp,hostname={host} dp_mflop_s=150000,ipc=2.0,vectorization_ratio=90 {ts}\n\
                     hpm_mem,hostname={host} memory_bandwidth_mbytes_s=20000 {ts}\n\
                     minimd_pressure,hostname={host},jobid=42 value=1.7 {ts}\n"
                ));
            }
        }
        batch.push_str("events,hostname=h1,jobid=42,kind=job_start text=\"job_start job 42\" 0\n");
        ix.write_lines("lms", &batch, Default::default()).unwrap();
        let job = JobInfo {
            jobid: "42".into(),
            user: "alice".into(),
            hosts: vec!["h1".into(), "h2".into()],
            start: Timestamp::from_secs(0),
            end: None,
        };
        (ix, job)
    }

    fn agent() -> ViewerAgent {
        ViewerAgent::new(
            "lms",
            TemplateStore::builtin(),
            NodePeaks { flops_mflops: 350_000.0, membw_mbytes: 84_000.0 },
        )
    }

    #[test]
    fn generates_rows_for_available_metrics_only() {
        let (mut ix, job) = fixture();
        let d = agent().job_dashboard(&mut ix, &job, Timestamp::from_secs(3600)).unwrap();
        assert_eq!(d.title, "Job 42 (alice)");
        let titles: Vec<&str> = d.rows.iter().map(|r| r.title.as_str()).collect();
        assert_eq!(
            titles,
            vec!["Evaluation", "CPU", "FLOPS", "Memory", "Network", "Application metrics"]
        );
        // One panel per template, reading both hosts, a group per host.
        let flops_row = &d.rows[2];
        assert_eq!(flops_row.panels.len(), 1);
        let query = &flops_row.panels[0].targets[0].query;
        assert!(query.contains(r#"("hostname" = 'h1' OR "hostname" = 'h2')"#), "{query}");
        assert!(query.ends_with("GROUP BY time(1m), hostname"), "{query}");
    }

    #[test]
    fn header_contains_the_evaluation_table() {
        let (mut ix, job) = fixture();
        let d = agent().job_dashboard(&mut ix, &job, Timestamp::from_secs(3600)).unwrap();
        let header = &d.rows[0].panels[0];
        assert_eq!(header.kind, crate::model::PanelKind::Text);
        assert!(header.content.contains("h1"));
        assert!(header.content.contains("DP [MFLOP/s]"));
        assert!(header.content.contains("Pattern:"));
    }

    #[test]
    fn application_metrics_discovered() {
        let (mut ix, job) = fixture();
        let d = agent().job_dashboard(&mut ix, &job, Timestamp::from_secs(3600)).unwrap();
        let app_row = d.rows.last().unwrap();
        assert_eq!(app_row.title, "Application metrics");
        // One panel, reading every job host, a group per host.
        assert_eq!(app_row.panels.len(), 1);
        assert_eq!(app_row.panels[0].title, "minimd_pressure");
        let query = &app_row.panels[0].targets[0].query;
        assert!(query.contains(r#"("hostname" = 'h1' OR "hostname" = 'h2')"#), "{query}");
        assert!(query.ends_with("GROUP BY time(30s), hostname"), "{query}");
    }

    #[test]
    fn dashboard_renders_end_to_end() {
        let (mut ix, job) = fixture();
        let a = agent();
        let d = a.job_dashboard(&mut ix, &job, Timestamp::from_secs(3600)).unwrap();
        let text = a
            .render_dashboard(&mut ix, &d, RenderOptions { width: 48, height: 8 })
            .unwrap();
        assert!(text.contains("##### Job 42 (alice) #####"));
        assert!(text.contains("--- FLOPS ---"));
        // One FLOP rate panel, its legend a line per host.
        assert_eq!(text.matches("== DP FLOP rate ==").count(), 1, "{text}");
        assert!(text.contains("* h1  (n=60)") && text.contains("o h2  (n=60)"), "{text}");
        assert!(text.contains('*'), "charts rendered");
    }

    #[test]
    fn a_quoted_hostname_gets_its_row_view_and_admin_line() {
        let ix = Influx::new(Clock::simulated(Timestamp::from_secs(4000))).unwrap();
        let mut batch = String::new();
        for s in (0..600).step_by(60) {
            let ts = s as i64 * 1_000_000_000;
            for host in ["o'brien", "h2"] {
                batch.push_str(&format!(
                    "cpu_total,hostname={host} busy=0.9 {ts}\n\
                     hpm_flops_dp,hostname={host} dp_mflop_s=150000,ipc=2.0 {ts}\n"
                ));
            }
        }
        batch.push_str("events,hostname=o'brien text=\"job start\" 0\n");
        ix.write_lines("lms", &batch, Default::default()).unwrap();
        let job = JobInfo {
            jobid: "42".into(),
            user: "alice".into(),
            hosts: vec!["o'brien".into(), "h2".into()],
            start: Timestamp::from_secs(0),
            end: Some(Timestamp::from_secs(600)),
        };
        let (a, mut source) = (agent(), ix);
        let d = a.job_dashboard(&mut source, &job, Timestamp::from_secs(3600)).unwrap();
        let table = &d.rows[0].panels[0].content;
        let busy = table.lines().find(|l| l.starts_with("cpu busy")).unwrap();
        assert!(table.contains("o'brien") && busy.matches("90.0").count() == 2, "{table}");
        let text = a.render_dashboard(&mut source, &d, RenderOptions::default()).unwrap();
        assert!(text.contains("o'brien  (n=10)") && text.contains("job start"), "{text}");
        let view = a.admin_view(&mut source, &[job], Timestamp::from_secs(3600)).unwrap();
        assert!(!view.text.contains("(no data)"), "{}", view.text);
    }

    #[test]
    fn admin_view_lists_jobs_with_thumbnails() {
        let (mut ix, job) = fixture();
        let other = JobInfo {
            jobid: "43".into(),
            user: "bob".into(),
            hosts: vec!["h9".into()],
            start: Timestamp::from_secs(100),
            end: None,
        };
        let view = agent()
            .admin_view(&mut ix, &[job, other], Timestamp::from_secs(3600))
            .unwrap();
        assert_eq!(view.jobs, 2);
        assert!(view.text.contains("42"));
        assert!(view.text.contains("alice"));
        assert!(view.text.contains('▁') || view.text.contains('█'), "{}", view.text);
        assert!(view.text.lines().count() >= 4);
    }

    #[test]
    fn empty_database_still_builds_a_dashboard() {
        let mut ix = Influx::new(Clock::simulated(Timestamp::from_secs(10))).unwrap();
        ix.create_database("lms");
        let job = JobInfo {
            jobid: "7".into(),
            user: "x".into(),
            hosts: vec!["h1".into()],
            start: Timestamp::from_secs(0),
            end: Some(Timestamp::from_secs(5)),
        };
        let d = agent().job_dashboard(&mut ix, &job, Timestamp::from_secs(10)).unwrap();
        assert_eq!(d.rows.len(), 1, "only the evaluation header");
        assert_eq!(d.time_range, (0, 5_000_000_000));
    }
}
