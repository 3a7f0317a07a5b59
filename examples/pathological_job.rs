//! Pathological-job detection — reproduces paper Fig. 4.
//!
//! "Timeline of the DP FP rate and memory bandwidth of an four-node (h1,
//! h2, h3 and h4) job run revealing a longer break in computation with FP
//! rate and memory bandwidth below thresholds for more than 10 minutes."
//!
//! A 4-node job computes for 20 minutes, stalls for 18 minutes (the
//! pathological break), then resumes. The threshold+timeout rules of
//! `lms-analysis` find the break from the stored HPM data.
//!
//! ```text
//! cargo run --release --example pathological_job
//! ```

use lms::analysis::pathology::{FindingKind, PathologyDetector};
use lms::apps::AppProfile;
use lms::core::{LmsStack, StackConfig};
use lms::dashboard::render::{render_panel, RenderOptions};
use lms::dashboard::{Panel, Target};
use std::time::Duration;

fn main() {
    let mut stack = LmsStack::start(StackConfig::default()).expect("stack boots");

    // The Fig. 4 job: 4 nodes, one hour, with an 18-minute break after
    // 20 minutes of computation.
    let job = stack.submit_job(
        "erik",
        "stalled-solver",
        4,
        Duration::from_secs(3600),
        AppProfile::ComputeWithBreak {
            busy: Duration::from_secs(20 * 60),
            gap: Duration::from_secs(18 * 60),
        },
    );
    println!("running a 60-minute 4-node job with an 18-minute mid-run stall…\n");
    stack.run_for(Duration::from_secs(61 * 60), Duration::from_secs(60));

    let info = stack.job_info(job).expect("job info");
    let end = info.end.unwrap_or_else(|| stack.clock().now());

    // Fig. 4's two timelines, all four hosts overlaid per chart.
    let mut source = stack.influx().clone();
    for (title, measurement, field, unit) in [
        ("DP FP rate", "hpm_flops_dp", "dp_mflop_s", "MFLOP/s"),
        ("Memory bandwidth", "hpm_mem", "memory_bandwidth_mbytes_s", "MBytes/s"),
    ] {
        let panel = Panel {
            annotation_measurement: Some("events".into()),
            ..Panel::graph(
                title,
                Target {
                    db: "lms".into(),
                    query: format!(
                        "SELECT mean({field}) FROM {measurement} WHERE time >= {} AND time <= {} GROUP BY time(2m), hostname",
                        info.start.nanos(),
                        end.nanos()
                    ),
                    alias: "all hosts".into(),
                    column: "mean".into(),
                },
                unit,
            )
        };
        let text = render_panel(&panel, &mut source, RenderOptions { width: 64, height: 10 })
            .expect("render");
        println!("{text}");
    }

    // The detection the paper describes: thresholds + 10-minute timeout,
    // judged on the job evaluation's one read of the job.
    let thresholds = PathologyDetector::default().thresholds;
    println!(
        "thresholds: FP rate < {} MFLOP/s AND bandwidth < {} MBytes/s for > {} min\n",
        thresholds.fp_rate_mflops,
        thresholds.membw_mbytes,
        thresholds.break_timeout.as_secs() / 60
    );
    let findings = stack.evaluate_job(job).expect("evaluation").findings;

    let mut breaks = 0;
    for finding in &findings {
        println!("[{:?}] {}", finding.kind, finding.detail);
        if finding.kind == FindingKind::ComputationBreak {
            breaks += 1;
            if let Some(w) = finding.window {
                println!(
                    "        window: {} → {}  ({})",
                    w.start,
                    w.end,
                    lms::util::fmt::duration(w.duration())
                );
            }
        }
    }
    println!(
        "\n{} computation break(s) detected on {} hosts — paper Fig. 4 expects one per host.",
        breaks,
        info.hosts.len()
    );
    assert_eq!(breaks, info.hosts.len(), "every node shows the synchronized break");
}
