//! The four workloads. Names are the contract (`BENCHMARK.json`); every
//! rate, fleet size and burst length here is a constant committed with the
//! workload — calibrated once on the 2-CPU reference box so that in the
//! paced window the stack uses about half of it and, in 17 s, `p99`
//! metrics get ≥1,000 samples and `p50` metrics ≥20 — and never computed
//! at run time.

use crate::stack::Deployment;

/// A read-side operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Router `/query_range`: one host, `mean` bucketed to a step.
    Panel,
    /// One-line write through the router, then poll `/query` until visible.
    Probe,
    /// Router `/query`: `mean` over all hosts `GROUP BY time(1m)`.
    FleetAgg,
    /// Viewer `GET /render?job=`.
    JobView,
    /// Viewer `GET /admin`.
    AdminView,
}

impl Op {
    /// Every kind, in reporting order.
    pub const ALL: [Op; 5] = [
        Op::Panel,
        Op::Probe,
        Op::FleetAgg,
        Op::JobView,
        Op::AdminView,
    ];

    /// Dense index.
    pub fn index(self) -> usize {
        Op::ALL.iter().position(|o| *o == self).expect("listed")
    }

    /// Span / report name.
    pub fn name(self) -> &'static str {
        match self {
            Op::Panel => "panel",
            Op::Probe => "probe",
            Op::FleetAgg => "fleet_agg",
            Op::JobView => "job_view",
            Op::AdminView => "admin_view",
        }
    }
}

/// What the writer threads send.
#[derive(Debug, Clone, Copy)]
pub enum WriterKind {
    /// Host-agent sweeps (sysmon + HPM), `hosts_per_request` hosts a body.
    Sweeps {
        /// Hosts whose sweeps share one request.
        hosts_per_request: usize,
        /// Also ship each host's closed 60-s window to the 1m tier when the
        /// wall-clock minute turns (agent pre-aggregation on).
        pre_aggregate: bool,
    },
    /// `UserMetric` 100-line flushes, one unit per application rank.
    App,
}

/// Days of preloaded history (`dashboard_history`).
#[derive(Debug, Clone, Copy)]
pub struct History {
    /// Days at 60-s cadence, ending at the last full hour before the run.
    pub days: i64,
    /// Finished day-long 4-host jobs the job views rotate over.
    pub finished_jobs: usize,
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Contract name.
    pub name: &'static str,
    /// Why it is in the set (one line, ≤200 chars).
    pub why: &'static str,
    /// Deployment shape.
    pub deployment: Deployment,
    /// Compute nodes in the fleet.
    pub hosts: usize,
    /// `(jobs, hosts per job)`; the remaining hosts idle.
    pub job_sizes: &'static [(usize, usize)],
    /// Hosts per job the job views rotate over.
    pub view_job_size: usize,
    /// What writers send.
    pub writer: WriterKind,
    /// Distinct value sets rendered per unit.
    pub frames: usize,
    /// Write requests per second over all writers (open loop: request `k`
    /// is due at `k / rate`, whatever happened to the ones before it).
    pub write_rate: f64,
    /// Requests of the closed-loop burst that follows the window, over all
    /// writers: a second or two of saturation on the reference box.
    pub burst_requests: usize,
    /// Read operations per reader cycle.
    pub cycle: &'static [(Op, usize)],
    /// Cycle period in ms; `None` = closed loop (back to back).
    pub cycle_ms: Option<u64>,
    /// Cycles (without their probes) the quiet read phase runs back to
    /// back: about two seconds of reads on the reference box.
    pub quiet_cycles: usize,
    /// Preloaded history.
    pub history: Option<History>,
}

const SINGLE: Deployment = Deployment {
    db_nodes: 1,
    replication: 1,
    per_user: false,
    publish: false,
    rollups: false,
};

/// The paced read mix of the live workloads, per 5-s cycle: 80 panels,
/// 10 probes and 2 each of fleet aggregate, job view and admin view a
/// second — a 17-s window holds ≥1,000 panels, 170 probes and ≥20 of
/// everything else with room to spare when a slow page makes the reader
/// skip a beat.
const LIVE_CYCLE: &[(Op, usize)] = &[
    (Op::Panel, 400),
    (Op::Probe, 50),
    (Op::FleetAgg, 10),
    (Op::JobView, 10),
    (Op::AdminView, 10),
];

/// The workloads, in contract order.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "fleet_saturate",
        why: "many-series ingest in large batches: parse, enrich/re-serialise, shard insert, WAL, seal and compaction do nearly all the work; the shape on which the batched write path is slowest",
        deployment: SINGLE,
        hosts: 384,
        job_sizes: &[(14, 16), (16, 4)],
        view_job_size: 4,
        writer: WriterKind::Sweeps { hosts_per_request: 6, pre_aggregate: false },
        frames: 4,
        write_rate: 64.0,
        burst_requests: 512,
        cycle: LIVE_CYCLE,
        cycle_ms: Some(5000),
        quiet_cycles: 2,
        history: None,
    },
    Spec {
        name: "app_burst",
        why: "hot-series ingest from UserMetric clients with per-user duplication, late lines and MQ publish: the same write path used the opposite way (contention on few shards)",
        deployment: Deployment { per_user: true, publish: true, ..SINGLE },
        hosts: 4,
        job_sizes: &[(1, 4)],
        view_job_size: 4,
        writer: WriterKind::App,
        frames: 64,
        write_rate: 400.0,
        burst_requests: 2400,
        cycle: LIVE_CYCLE,
        cycle_ms: Some(5000),
        quiet_cycles: 2,
        history: None,
    },
    Spec {
        name: "dashboard_history",
        why: "read-dominated closed loop over sealed, rolled-up history: query plan/prune, summary fold, block decode, tier stitching, JSON, evaluation and the viewer work while the write path idles",
        deployment: Deployment { rollups: true, ..SINGLE },
        hosts: 8,
        job_sizes: &[(1, 4)],
        view_job_size: 4,
        writer: WriterKind::Sweeps { hosts_per_request: 1, pre_aggregate: true },
        frames: 4,
        write_rate: 64.0,
        burst_requests: 2000,
        cycle: &[(Op::Panel, 30), (Op::Probe, 2), (Op::FleetAgg, 2), (Op::JobView, 2), (Op::AdminView, 1)],
        cycle_ms: None,
        quiet_cycles: 10,
        history: Some(History { days: 2, finished_jobs: 4 }),
    },
    Spec {
        name: "cluster_live",
        why: "the paper's regime on 3 nodes R=2: many small open-loop batches, so per-request cost (HTTP, wake-ups, ring split, R-way delivery, partial-aggregate merge) dominates per-line cost",
        deployment: Deployment { db_nodes: 3, replication: 2, ..SINGLE },
        hosts: 256,
        job_sizes: &[(16, 4), (8, 16)],
        view_job_size: 4,
        writer: WriterKind::Sweeps { hosts_per_request: 1, pre_aggregate: false },
        frames: 4,
        write_rate: 96.0,
        burst_requests: 700,
        cycle: LIVE_CYCLE,
        cycle_ms: Some(5000),
        quiet_cycles: 1,
        history: None,
    },
];

/// Looks a workload up by its contract name.
pub fn by_name(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Lays the cycle's operations out in time: each kind evenly spread over
/// the period, kinds interleaved. Returns `(offset in µs, op)` ascending.
/// For a closed-loop cycle only the order matters.
pub fn lay_out_cycle(cycle: &[(Op, usize)], period_us: u64) -> Vec<(u64, Op)> {
    let mut plan = Vec::new();
    for &(op, count) in cycle {
        for i in 0..count {
            // Half-step phase keeps different kinds from stacking at 0.
            let at = (2 * i as u64 + 1) * period_us / (2 * count as u64);
            plan.push((at, op));
        }
    }
    plan.sort_by_key(|&(at, op)| (at, op.index()));
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_layout_spreads_each_kind_evenly() {
        let plan = lay_out_cycle(&[(Op::Panel, 4), (Op::JobView, 1)], 2_000_000);
        let panels: Vec<u64> = plan
            .iter()
            .filter(|(_, op)| *op == Op::Panel)
            .map(|(at, _)| *at)
            .collect();
        assert_eq!(panels, vec![250_000, 750_000, 1_250_000, 1_750_000]);
        assert_eq!(
            plan.iter().find(|(_, op)| *op == Op::JobView).unwrap().0,
            1_000_000
        );
        assert!(plan.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn specs_are_consistent() {
        for spec in &SPECS {
            let in_jobs: usize = spec.job_sizes.iter().map(|(n, s)| n * s).sum();
            assert!(in_jobs <= spec.hosts, "{}", spec.name);
            assert!(
                spec.job_sizes.iter().any(|(_, s)| *s == spec.view_job_size),
                "{}",
                spec.name
            );
            assert!(
                spec.why.len() <= 200,
                "{}: why is {} chars",
                spec.name,
                spec.why.len()
            );
            assert!(Op::ALL
                .iter()
                .all(|op| spec.cycle.iter().any(|(o, n)| o == op && *n > 0)));
        }
        assert_eq!(by_name("cluster_live").unwrap().deployment.db_nodes, 3);
        assert!(by_name("nope").is_none());
    }
}
