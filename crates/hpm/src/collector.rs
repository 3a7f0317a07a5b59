//! Periodic HPM collection → line-protocol points.
//!
//! [`HpmCollector`] is the HPM half of a compute node's host agent: it
//! rotates through configured performance groups (one group per collection
//! interval, the way `likwid-perfctr` time-multiplexes event sets), reads
//! node-aggregate derived metrics, and renders them as line-protocol
//! [`Point`]s tagged with the hostname — ready to POST to the metrics
//! router.

use crate::groups::builtin;
use crate::perfmon::Perfmon;
use crate::simulate::Simulator;
use lms_lineproto::{parse_batch, ParsedLine, Point};
use lms_rollup::WindowAggregator;
use lms_topology::Topology;
use lms_util::{Clock, Result};

/// Turns a metric display name into a field key:
/// `"DP [MFLOP/s]"` → `"dp_mflop_s"`.
pub fn slugify(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    let mut prev_underscore = true; // also trims leading separators
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
            prev_underscore = false;
        } else if !prev_underscore {
            out.push('_');
            prev_underscore = true;
        }
    }
    while out.ends_with('_') {
        out.pop();
    }
    out
}

/// Rotating performance-group collector for one node.
pub struct HpmCollector {
    perfmon: Perfmon,
    hostname: String,
    clock: Clock,
    started: bool,
    /// 60s pre-aggregation over collected points; closed windows are
    /// written by [`HpmCollector::write_rollups`] and bound for the 1m
    /// rollup tier.
    pre_agg: Option<WindowAggregator>,
}

impl HpmCollector {
    /// Creates a collector for a node named `hostname`.
    pub fn new(topo: Topology, hostname: impl Into<String>, clock: Clock) -> Self {
        HpmCollector {
            perfmon: Perfmon::new(topo),
            hostname: hostname.into(),
            clock,
            started: false,
            pre_agg: None,
        }
    }

    /// Enables the 1-minute pre-aggregation stream: every collected point
    /// also feeds a per-series 60s window; [`HpmCollector::write_rollups`]
    /// writes closed windows as rollup rows for direct 1m-tier ingestion.
    pub fn enable_pre_aggregation(&mut self) {
        self.pre_agg = Some(WindowAggregator::minute());
    }

    /// Writes every closed 1-minute window as a rollup row (stat fields,
    /// window-start timestamp) onto `out`; returns the rows written, none
    /// when pre-aggregation is off.
    pub fn write_rollups(&mut self, out: &mut String) -> usize {
        match &mut self.pre_agg {
            Some(agg) => agg.close_before(self.clock.now().nanos(), out),
            None => 0,
        }
    }

    /// [`Self::write_rollups`]' rows read back as points, for callers that
    /// batch points (`benchmark/` renders its agent streams this way).
    pub fn take_rollups(&mut self) -> Vec<Point> {
        let mut rows = String::new();
        self.write_rollups(&mut rows);
        parse_batch(&rows).lines.iter().map(ParsedLine::to_point).collect()
    }

    /// Adds a built-in performance group by name.
    pub fn add_group(&mut self, name: &str) -> Result<()> {
        let group = builtin(name, self.perfmon.topology())?;
        self.perfmon.add_group(group)?;
        Ok(())
    }

    /// Number of configured groups.
    pub fn num_groups(&self) -> usize {
        self.perfmon.num_groups()
    }

    /// The hostname the points are tagged with.
    pub fn hostname(&self) -> &str {
        &self.hostname
    }

    /// Closes the interval that started at the previous call, returns its
    /// points, rotates to the next group, and opens a new interval.
    ///
    /// The first call only opens the first interval and returns no points —
    /// a counter delta needs two readings.
    pub fn collect(&mut self, sim: &Simulator) -> Result<Vec<Point>> {
        if self.perfmon.num_groups() == 0 {
            return Ok(Vec::new());
        }
        if !self.started {
            self.perfmon.start(sim);
            self.started = true;
            return Ok(Vec::new());
        }
        let just_read = self.perfmon.active_index();
        let m = self.perfmon.stop_and_read(sim)?;
        let ts = self.clock.now().nanos();

        let mut point = Point::new(format!("hpm_{}", m.group_name().to_ascii_lowercase()));
        point.add_tag("hostname", self.hostname.as_str());
        point.add_tag("scope", "node");
        let names: Vec<String> = m.metric_names().map(str::to_string).collect();
        for name in names {
            let value = m.metric_aggregate(&name)?;
            if value.is_finite() {
                point.add_field(slugify(&name), value);
            }
        }
        point.set_timestamp(ts);

        // Rotate and reopen.
        let next = (just_read + 1) % self.perfmon.num_groups();
        self.perfmon.set_active(next)?;
        self.perfmon.start(sim);

        if point.is_valid() {
            if let Some(agg) = &mut self.pre_agg {
                agg.push(&point, ts);
            }
            Ok(vec![point])
        } else {
            Ok(Vec::new())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::WorkloadPreset;
    use lms_util::Timestamp;
    use std::time::Duration;

    #[test]
    fn slugify_metric_names() {
        assert_eq!(slugify("DP [MFLOP/s]"), "dp_mflop_s");
        assert_eq!(slugify("Runtime (RDTSC) [s]"), "runtime_rdtsc_s");
        assert_eq!(slugify("Memory bandwidth [MBytes/s]"), "memory_bandwidth_mbytes_s");
        assert_eq!(slugify("IPC"), "ipc");
        assert_eq!(slugify("__x__"), "x");
        assert_eq!(slugify(""), "");
    }

    fn collector() -> (Simulator, HpmCollector, Clock) {
        let topo = Topology::preset_desktop_4c();
        let mut sim = Simulator::new(&topo, 21);
        sim.set_jitter(0.0);
        sim.assign(0..topo.num_cores(), WorkloadPreset::Balanced.model(&topo));
        let clock = Clock::simulated(Timestamp::from_secs(1_000_000));
        let mut c = HpmCollector::new(topo, "h1", clock.clone());
        c.add_group("FLOPS_DP").unwrap();
        c.add_group("MEM").unwrap();
        (sim, c, clock)
    }

    #[test]
    fn first_collect_is_empty_then_rotates_groups() {
        let (mut sim, mut c, clock) = collector();
        assert!(c.collect(&sim).unwrap().is_empty());
        let mut measurements = Vec::new();
        for _ in 0..4 {
            sim.advance(Duration::from_secs(1));
            clock.advance(Duration::from_secs(1));
            let pts = c.collect(&sim).unwrap();
            assert_eq!(pts.len(), 1);
            measurements.push(pts[0].measurement().to_string());
        }
        assert_eq!(
            measurements,
            vec!["hpm_flops_dp", "hpm_mem", "hpm_flops_dp", "hpm_mem"]
        );
    }

    #[test]
    fn points_carry_hostname_timestamp_and_metrics() {
        let (mut sim, mut c, clock) = collector();
        c.collect(&sim).unwrap();
        sim.advance(Duration::from_secs(2));
        clock.advance(Duration::from_secs(2));
        let pts = c.collect(&sim).unwrap();
        let p = &pts[0];
        assert_eq!(p.tag("hostname"), Some("h1"));
        assert_eq!(p.tag("scope"), Some("node"));
        assert!(p.timestamp().is_some());
        let flops = p.field("dp_mflop_s").unwrap().as_f64().unwrap();
        assert!(flops > 0.0);
        assert!(p.field("ipc").is_some());
    }

    #[test]
    fn collector_without_groups_is_silent() {
        let topo = Topology::preset_desktop_4c();
        let sim = Simulator::new(&topo, 1);
        let mut c = HpmCollector::new(topo, "h1", Clock::simulated(Timestamp::EPOCH));
        assert!(c.collect(&sim).unwrap().is_empty());
        assert_eq!(c.num_groups(), 0);
        assert_eq!(c.hostname(), "h1");
    }

    #[test]
    fn unknown_group_name_errors() {
        let topo = Topology::preset_desktop_4c();
        let mut c = HpmCollector::new(topo, "h1", Clock::simulated(Timestamp::EPOCH));
        assert!(c.add_group("BOGUS").is_err());
    }
}
