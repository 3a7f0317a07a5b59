//! Regression tests pinning the paper-figure reproductions: compact
//! versions of the `examples/` scenarios with assertions on the *shape*
//! of each result (who is detected, where, for how long).

use lms::analysis::pathology::FindingKind;
use lms::analysis::Pattern;
use lms::apps::{AppProfile, MiniMd, MiniMdConfig};
use lms::core::{LmsStack, StackConfig};
use lms::topology::Topology;
use lms::usermetric::{UserMetric, UserMetricConfig};
use std::time::Duration;

/// Fig. 2: the online evaluation table has one column per node and flags
/// the badly behaving job on the initial view.
#[test]
fn fig2_online_job_evaluation() {
    let config = StackConfig { nodes: 4, topology: Topology::preset_desktop_4c(), ..Default::default() };
    let mut stack = LmsStack::start(config).unwrap();
    let good = stack.submit_job("anna", "gemm", 2, Duration::from_secs(3600), AppProfile::Dgemm);
    let bad = stack.submit_job("carl", "idle", 2, Duration::from_secs(3600), AppProfile::IdleJob);
    stack.run_for(Duration::from_secs(20 * 60), Duration::from_secs(60));

    let table = stack.evaluate_job(good).unwrap().render_table();
    let header = table.lines().find(|l| l.starts_with("metric")).unwrap();
    assert!(header.contains("h1") && header.contains("h2"));
    assert!(table.contains("Findings: none"), "{table}");

    let bad_eval = stack.evaluate_job(bad).unwrap();
    assert_eq!(bad_eval.pattern, Pattern::Idle);
    assert!(bad_eval.findings.iter().any(|f| f.kind == FindingKind::IdleJob));
    let bad_table = bad_eval.render_table();
    assert!(bad_table.contains("IdleJob"), "{bad_table}");
}

/// Fig. 3: miniMD instrumented with libusermetric produces the four
/// metric series plus bracketing events, all landing in the database
/// tagged with the job.
#[test]
fn fig3_minimd_application_monitoring() {
    let config = StackConfig { nodes: 1, topology: Topology::preset_desktop_4c(), ..Default::default() };
    let mut stack = LmsStack::start(config).unwrap();
    let job = stack.submit_job("alice", "minimd", 1, Duration::from_secs(3600), AppProfile::MiniMd);
    stack.tick(Duration::from_secs(1));

    let um = UserMetric::to_http(
        UserMetricConfig {
            default_tags: vec![("hostname".into(), "h1".into())],
            flush_lines: 8,
            thread_tag: false,
        },
        stack.clock().clone(),
        stack.router_addr(),
        "lms",
    )
    .unwrap();
    um.event("run", "miniMD start");
    let mut md = MiniMd::new(MiniMdConfig { nx: 3, ny: 3, nz: 3, threads: 2, ..Default::default() });
    for _ in 0..5 {
        md.run(20, 20, Some(&um));
        um.flush();
        stack.tick(Duration::from_secs(60));
    }
    um.event("run", "miniMD end");
    um.flush();
    stack.flush();

    // Four metric series with 5 samples each, tagged with the job.
    for metric in ["minimd_runtime", "minimd_pressure", "minimd_temperature", "minimd_energy"] {
        let r = stack
            .influx()
            .query("lms", &format!("SELECT count(value) FROM {metric} WHERE jobid = '{job}'"))
            .unwrap();
        assert_eq!(
            r.series[0].values[0][1].as_i64().unwrap(),
            5,
            "{metric} samples"
        );
    }
    // The two bracketing events.
    let r = stack.influx().query("lms", "SELECT text FROM run").unwrap();
    let texts: Vec<&str> =
        r.series.iter().flat_map(|s| &s.values).map(|row| row[1].as_str().unwrap()).collect();
    assert_eq!(texts, vec!["miniMD start", "miniMD end"]);

    // Physics sanity: the reported temperatures are plausible LJ values.
    let r = stack
        .influx()
        .query("lms", "SELECT mean(value) FROM minimd_temperature")
        .unwrap();
    let t = r.series[0].values[0][1].as_f64().unwrap();
    assert!((0.3..1.6).contains(&t), "T* = {t}");
}

/// Fig. 4: a four-node job with an 18-minute mid-run stall is detected on
/// every node, with the right window, by the threshold+timeout rules.
#[test]
fn fig4_computation_break_detection() {
    let mut stack = LmsStack::start(StackConfig::default()).unwrap();
    let job = stack.submit_job(
        "erik",
        "staller",
        4,
        Duration::from_secs(3600),
        AppProfile::ComputeWithBreak {
            busy: Duration::from_secs(20 * 60),
            gap: Duration::from_secs(18 * 60),
        },
    );
    stack.run_for(Duration::from_secs(61 * 60), Duration::from_secs(60));

    let findings = stack.evaluate_job(job).unwrap().findings;
    let breaks: Vec<_> =
        findings.iter().filter(|f| f.kind == FindingKind::ComputationBreak).collect();
    assert_eq!(breaks.len(), 4, "one break per node: {findings:?}");
    for b in &breaks {
        let w = b.window.unwrap();
        // The stall runs [20, 38) minutes into the job; sampling at the
        // 2-minute group rotation blurs edges by a couple of minutes.
        assert!(
            w.duration() >= Duration::from_secs(12 * 60),
            "window {:?} too short",
            w.duration()
        );
        assert!(
            w.duration() <= Duration::from_secs(20 * 60),
            "window {:?} too long",
            w.duration()
        );
    }
    // And a healthy compute job of the same length yields no break.
    let good = stack.submit_job("anna", "ok", 4, Duration::from_secs(1800), AppProfile::Dgemm);
    stack.run_for(Duration::from_secs(35 * 60), Duration::from_secs(60));
    let gfindings = stack.evaluate_job(good).unwrap().findings;
    assert!(
        gfindings.iter().all(|f| f.kind != FindingKind::ComputationBreak),
        "{gfindings:?}"
    );
}
