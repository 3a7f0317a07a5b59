//! The measurement session: program a group, start/stop/read, derive
//! metrics — the `likwid-perfctr` core, minus the MSRs.
//!
//! A [`Perfmon`] holds one or more performance groups (LIKWID's multi-
//! eventset feature), measures a configurable set of hardware threads, and
//! produces [`Measurement`]s: raw counter deltas per thread plus evaluated
//! derived metrics. Socket-scope counters (uncore, energy) are attributed to
//! the first measured thread of each socket — LIKWID's convention — and
//! counted once in aggregates.

use crate::counters::{allocate, CounterId};
use crate::events::EventCatalog;
use crate::groups::{Metric, PerfGroup};
use crate::simulate::Simulator;
use lms_topology::Topology;
use lms_util::{Error, FxHashMap, Result};
use std::time::Duration;

/// A completed measurement of one group over one interval.
#[derive(Debug, Clone)]
pub struct Measurement {
    group_name: String,
    time: f64,
    inverse_clock: f64,
    threads: Vec<u32>,
    /// `(counter, event, per-thread delta)` in group order.
    counts: Vec<(CounterId, String, Vec<f64>)>,
    metrics: Vec<Metric>,
}

impl Measurement {
    /// The group this measurement belongs to.
    pub fn group_name(&self) -> &str {
        &self.group_name
    }

    /// Interval length in seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The measured hardware threads, in measurement order.
    pub fn threads(&self) -> &[u32] {
        &self.threads
    }

    /// Raw per-thread deltas of a counter register (e.g. `"PMC0"`).
    pub fn counter_values(&self, counter: &str) -> Option<&[f64]> {
        self.counts
            .iter()
            .find(|(c, _, _)| c.to_string() == counter)
            .map(|(_, _, v)| v.as_slice())
    }

    /// Names of the derived metrics available on this measurement.
    pub fn metric_names(&self) -> impl Iterator<Item = &str> {
        self.metrics.iter().map(|m| m.name.as_str())
    }

    fn metric_def(&self, name: &str) -> Result<&Metric> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| Error::not_found(format!("metric `{name}` in group {}", self.group_name)))
    }

    /// Evaluates a derived metric for every measured thread.
    ///
    /// Threads that do not own the socket-scope counters see 0 for those
    /// registers (LIKWID semantics), so per-thread values of e.g. memory
    /// bandwidth are only meaningful on socket-leader threads.
    pub fn metric_per_thread(&self, name: &str) -> Result<Vec<f64>> {
        let metric = self.metric_def(name)?;
        let mut out = Vec::with_capacity(self.threads.len());
        for i in 0..self.threads.len() {
            let v = metric.formula.eval(&|var: &str| self.resolve(var, Some(i)))?;
            out.push(v);
        }
        Ok(out)
    }

    /// Evaluates a derived metric over the *summed* counters of all
    /// measured threads (node scope). Ratios aggregate the LIKWID way:
    /// formula over summed counts, not mean of per-thread ratios.
    pub fn metric_aggregate(&self, name: &str) -> Result<f64> {
        let metric = self.metric_def(name)?;
        metric.formula.eval(&|var: &str| self.resolve(var, None))
    }

    fn resolve(&self, var: &str, thread_idx: Option<usize>) -> Option<f64> {
        match var {
            "time" => Some(self.time),
            "inverseClock" => Some(self.inverse_clock),
            counter => {
                let (_, _, values) =
                    self.counts.iter().find(|(c, _, _)| c.to_string() == counter)?;
                Some(match thread_idx {
                    Some(i) => values[i],
                    None => values.iter().sum(),
                })
            }
        }
    }
}

/// Counter snapshot taken at `start`.
struct Snapshot {
    at: Duration,
    /// `[group event][measured thread]` cumulative values.
    values: Vec<Vec<f64>>,
}

/// A LIKWID-style measurement session over the simulated PMU.
pub struct Perfmon {
    topo: Topology,
    catalog: EventCatalog,
    groups: Vec<PerfGroup>,
    active: usize,
    threads: Vec<u32>,
    snapshot: Option<Snapshot>,
}

impl Perfmon {
    /// Creates a session measuring all hardware threads of `topo`.
    pub fn new(topo: Topology) -> Self {
        let threads: Vec<u32> = (0..topo.num_hw_threads()).collect();
        Perfmon {
            topo,
            catalog: EventCatalog::default_arch(),
            groups: Vec::new(),
            active: 0,
            threads,
            snapshot: None,
        }
    }

    /// Restricts measurement to the given hardware threads.
    ///
    /// Fails on out-of-range ids or while a measurement is running.
    pub fn set_threads(&mut self, threads: Vec<u32>) -> Result<()> {
        if self.snapshot.is_some() {
            return Err(Error::invalid("cannot change thread set while measuring"));
        }
        if threads.is_empty() {
            return Err(Error::invalid("empty thread set"));
        }
        for &t in &threads {
            if t >= self.topo.num_hw_threads() {
                return Err(Error::invalid(format!("thread {t} out of range")));
            }
        }
        self.threads = threads;
        Ok(())
    }

    /// Adds a group (validating that its event set fits the register file)
    /// and returns its index. The first group added becomes active.
    pub fn add_group(&mut self, group: PerfGroup) -> Result<usize> {
        let names: Vec<&str> = group.events().iter().map(|(_, e)| e.as_str()).collect();
        allocate(&names, &self.catalog)?;
        self.groups.push(group);
        Ok(self.groups.len() - 1)
    }

    /// Switches the active group (LIKWID eventset rotation).
    pub fn set_active(&mut self, idx: usize) -> Result<()> {
        if self.snapshot.is_some() {
            return Err(Error::invalid("cannot switch groups while measuring"));
        }
        if idx >= self.groups.len() {
            return Err(Error::invalid(format!("group index {idx} out of range")));
        }
        self.active = idx;
        Ok(())
    }

    /// Index of the active group.
    pub fn active_index(&self) -> usize {
        self.active
    }

    /// The topology this session measures.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Number of configured groups.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Snapshots the counters: measurement interval starts now.
    ///
    /// # Panics
    /// Panics if no group was added (programming error, not input error).
    pub fn start(&mut self, sim: &Simulator) {
        let group = self.groups.get(self.active).expect("Perfmon::start without a group");
        let values = read_raw(group, &self.threads, &self.topo, sim);
        self.snapshot = Some(Snapshot { at: sim.elapsed(), values });
    }

    /// True while a measurement interval is open.
    pub fn is_running(&self) -> bool {
        self.snapshot.is_some()
    }

    /// Reads the deltas since [`start`](Self::start) without closing the
    /// interval (live monitoring reads).
    pub fn read(&self, sim: &Simulator) -> Result<Measurement> {
        let snap = self
            .snapshot
            .as_ref()
            .ok_or_else(|| Error::invalid("Perfmon::read without start"))?;
        Ok(self.build_measurement(snap, sim))
    }

    /// Reads the deltas and closes the interval.
    pub fn stop_and_read(&mut self, sim: &Simulator) -> Result<Measurement> {
        let snap = self
            .snapshot
            .take()
            .ok_or_else(|| Error::invalid("Perfmon::stop without start"))?;
        Ok(self.build_measurement(&snap, sim))
    }

    fn build_measurement(&self, snap: &Snapshot, sim: &Simulator) -> Measurement {
        let group = &self.groups[self.active];
        let now = read_raw(group, &self.threads, &self.topo, sim);
        let mut counts = Vec::with_capacity(group.events().len());
        for (ei, (counter, event)) in group.events().iter().enumerate() {
            let deltas: Vec<f64> = now[ei]
                .iter()
                .zip(&snap.values[ei])
                .map(|(a, b)| (a - b).max(0.0))
                .collect();
            counts.push((*counter, event.clone(), deltas));
        }
        Measurement {
            group_name: group.name().to_string(),
            time: (sim.elapsed() - snap.at).as_secs_f64(),
            inverse_clock: 1.0 / self.topo.nominal_hz(),
            threads: self.threads.clone(),
            counts,
            metrics: group.metrics().to_vec(),
        }
    }
}

/// Reads raw cumulative values of a group's events for the measured
/// threads. Socket-scope events land on the first measured thread of each
/// socket; other threads read 0.
fn read_raw(
    group: &PerfGroup,
    threads: &[u32],
    topo: &Topology,
    sim: &Simulator,
) -> Vec<Vec<f64>> {
    // socket -> leader position in `threads`
    let mut leaders: FxHashMap<u32, usize> = FxHashMap::default();
    for (pos, &t) in threads.iter().enumerate() {
        let socket = topo.hw_thread(t).unwrap().socket;
        leaders.entry(socket).or_insert(pos);
    }
    group
        .events()
        .iter()
        .map(|(counter, event)| {
            if counter.class.is_socket_scope() {
                let mut row = vec![0.0; threads.len()];
                for (&socket, &pos) in &leaders {
                    row[pos] = sim.socket_count(socket, event);
                }
                row
            } else {
                threads.iter().map(|&t| sim.thread_count(t, event)).collect()
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groups::builtin;
    use crate::simulate::WorkloadPreset;

    fn setup(preset: WorkloadPreset, group: &str) -> (Topology, Simulator, Perfmon) {
        let topo = Topology::preset_desktop_4c();
        let mut sim = Simulator::new(&topo, 11);
        sim.set_jitter(0.0);
        sim.assign(0..topo.num_cores(), preset.model(&topo));
        let mut pm = Perfmon::new(topo.clone());
        pm.add_group(builtin(group, &topo).unwrap()).unwrap();
        (topo, sim, pm)
    }

    #[test]
    fn flops_dp_aggregate_close_to_model() {
        let (topo, mut sim, mut pm) = setup(WorkloadPreset::ComputeBound, "FLOPS_DP");
        pm.start(&sim);
        sim.advance(Duration::from_secs(2));
        let m = pm.stop_and_read(&sim).unwrap();
        assert_eq!(m.group_name(), "FLOPS_DP");
        assert!((m.time() - 2.0).abs() < 1e-9);
        let mflops = m.metric_aggregate("DP [MFLOP/s]").unwrap();
        let expect = 0.70 * topo.peak_flops_dp() / 1e6;
        let rel = (mflops - expect).abs() / expect;
        assert!(rel < 0.05, "got {mflops}, expected ~{expect}");
    }

    #[test]
    fn per_thread_metrics_have_one_value_per_thread() {
        let (_, mut sim, mut pm) = setup(WorkloadPreset::ComputeBound, "FLOPS_DP");
        pm.start(&sim);
        sim.advance(Duration::from_secs(1));
        let m = pm.stop_and_read(&sim).unwrap();
        let ipc = m.metric_per_thread("IPC").unwrap();
        assert_eq!(ipc.len(), 8); // 4 cores × 2 SMT
        // Busy cores have IPC > 1; SMT siblings idle with tiny counts.
        assert!(ipc[0] > 1.0, "ipc[0] = {}", ipc[0]);
    }

    #[test]
    fn mem_group_bandwidth_on_socket_leader_only() {
        let (topo, mut sim, mut pm) = setup(WorkloadPreset::MemoryBound, "MEM");
        pm.start(&sim);
        sim.advance(Duration::from_secs(2));
        let m = pm.stop_and_read(&sim).unwrap();
        let per_thread = m.metric_per_thread("Memory bandwidth [MBytes/s]").unwrap();
        // Only thread 0 (socket leader) carries the uncore counts.
        assert!(per_thread[0] > 0.0);
        assert!(per_thread[1..].iter().all(|&v| v == 0.0));
        let agg = m.metric_aggregate("Memory bandwidth [MBytes/s]").unwrap();
        assert!((agg - per_thread[0]).abs() / agg < 1e-9);
        // Sanity: near saturation for 4 memory-bound cores.
        assert!(agg * 1e6 > 0.8 * topo.mem_bw_per_socket(), "agg = {agg} MB/s");
    }

    #[test]
    fn energy_group_power() {
        let (_, mut sim, mut pm) = setup(WorkloadPreset::ComputeBound, "ENERGY");
        pm.start(&sim);
        sim.advance(Duration::from_secs(10));
        let m = pm.stop_and_read(&sim).unwrap();
        let watts = m.metric_aggregate("Power [W]").unwrap();
        assert!((30.0..120.0).contains(&watts), "power = {watts}");
    }

    #[test]
    fn read_without_stop_keeps_interval_open() {
        let (_, mut sim, mut pm) = setup(WorkloadPreset::Balanced, "CLOCK");
        pm.start(&sim);
        sim.advance(Duration::from_secs(1));
        let m1 = pm.read(&sim).unwrap();
        sim.advance(Duration::from_secs(1));
        let m2 = pm.read(&sim).unwrap();
        assert!(pm.is_running());
        assert!(m2.time() > m1.time());
        // FIXC0 counts INSTR_RETIRED_ANY.
        let i1 = m1.counter_values("FIXC0").unwrap()[0];
        let i2 = m2.counter_values("FIXC0").unwrap()[0];
        assert!(i2 > i1);
    }

    #[test]
    fn group_rotation() {
        let topo = Topology::preset_desktop_4c();
        let mut sim = Simulator::new(&topo, 2);
        let mut pm = Perfmon::new(topo.clone());
        let g0 = pm.add_group(builtin("FLOPS_DP", &topo).unwrap()).unwrap();
        let g1 = pm.add_group(builtin("MEM", &topo).unwrap()).unwrap();
        assert_eq!(pm.num_groups(), 2);
        pm.set_active(g1).unwrap();
        pm.start(&sim);
        sim.advance(Duration::from_secs(1));
        let m = pm.stop_and_read(&sim).unwrap();
        assert_eq!(m.group_name(), "MEM");
        pm.set_active(g0).unwrap();
        assert_eq!(pm.active_index(), g0);
        assert!(pm.set_active(5).is_err());
    }

    #[test]
    fn errors_on_misuse() {
        let topo = Topology::preset_desktop_4c();
        let sim = Simulator::new(&topo, 2);
        let mut pm = Perfmon::new(topo.clone());
        pm.add_group(builtin("CLOCK", &topo).unwrap()).unwrap();
        assert!(pm.read(&sim).is_err());
        assert!(pm.stop_and_read(&sim).is_err());
        pm.start(&sim);
        assert!(pm.set_active(0).is_err()); // running
        assert!(pm.set_threads(vec![0]).is_err()); // running
    }

    #[test]
    fn thread_set_validation() {
        let topo = Topology::preset_desktop_4c();
        let mut pm = Perfmon::new(topo);
        assert!(pm.set_threads(vec![]).is_err());
        assert!(pm.set_threads(vec![99]).is_err());
        assert!(pm.set_threads(vec![0, 1]).is_ok());
    }

    #[test]
    fn restricted_thread_set_measures_only_those() {
        let topo = Topology::preset_desktop_4c();
        let mut sim = Simulator::new(&topo, 8);
        sim.set_jitter(0.0);
        sim.assign([0u32, 1], WorkloadPreset::ComputeBound.model(&topo));
        let mut pm = Perfmon::new(topo.clone());
        pm.set_threads(vec![0, 1]).unwrap();
        pm.add_group(builtin("FLOPS_DP", &topo).unwrap()).unwrap();
        pm.start(&sim);
        sim.advance(Duration::from_secs(1));
        let m = pm.stop_and_read(&sim).unwrap();
        assert_eq!(m.threads(), &[0, 1]);
        assert_eq!(m.metric_per_thread("IPC").unwrap().len(), 2);
    }

    #[test]
    fn unknown_metric_is_not_found() {
        let (_, mut sim, mut pm) = setup(WorkloadPreset::Idle, "CLOCK");
        pm.start(&sim);
        sim.advance(Duration::from_secs(1));
        let m = pm.stop_and_read(&sim).unwrap();
        assert!(m.metric_aggregate("DP [MFLOP/s]").is_err());
        assert!(m.counter_values("PMC0").is_none());
        assert!(m.counter_values("FIXC0").is_some());
    }
}
