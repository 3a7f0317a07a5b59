//! # lms-analysis
//!
//! The **data analysis methodology** of the paper (Sec. V): elementary
//! resource-utilization metrics, threshold+timeout rules for pathological
//! jobs, and the performance-pattern decision tree for spotting
//! optimization potential.
//!
//! - [`stats`] — descriptive statistics (mean, stddev, percentiles,
//!   histograms) shared by the other modules,
//! - [`series`] — time-series extraction from query results,
//! - [`rules`] — the threshold/timeout rule engine (Fig. 4: "FP rate and
//!   memory bandwidth below thresholds for more than 10 minutes"),
//! - [`pathology`] — job-level detectors: idle job, exceeded memory,
//!   computation break, load imbalance, judging the evaluation's read of
//!   the job (they query nothing themselves),
//! - [`patterns`] — the performance-pattern decision tree (after Treibig
//!   et al. \[17\] and the FEPA refinement \[8\]),
//! - [`evaluation`] — a job's scope ([`JobScope`]: its hosts and time
//!   range, the one way a job's data is selected), the one read of a job
//!   (one statement per measurement for all its hosts, grouped by
//!   hostname, every job in one batch) and the online job evaluation that
//!   renders the Fig. 2 header table (one column per node),
//! - [`stream`] — the MQ-attached stream analyzer for live detection.

pub mod evaluation;
pub mod pathology;
pub mod patterns;
pub mod rules;
pub mod series;
pub mod stats;
pub mod stream;
pub mod usage;

pub use evaluation::{JobEvaluation, JobScope, NodeEvaluation};
pub use pathology::{Finding, FindingKind, PathologyDetector};
pub use patterns::{classify, Pattern, PerfSignature};
pub use rules::{Rule, RuleOp, Violation};
pub use series::TimeSeries;
pub use usage::{CompletedJob, UsageReport};
