//! The counter simulator: workload models → event counts over virtual time.
//!
//! This is the substitution for real MSR/perf access (see DESIGN.md). A
//! [`WorkloadModel`] is a sequence of phases, each specifying per-second
//! *rates* for the modeled hardware events (instructions, cycles, FP µops by
//! vector width, cache line traffic, DRAM bytes, power). The [`Simulator`]
//! owns the cumulative counter state of one node — per-thread core counters
//! and per-socket uncore/energy counters — and integrates the assigned
//! models over [`Simulator::advance`] steps with multiplicative jitter.
//!
//! Everything downstream of the counters (performance groups, derived
//! metrics, the router, the database, the analysis rules) is exercised
//! exactly as it would be by hardware counts.

use crate::events::EventCatalog;
use lms_topology::Topology;
use lms_util::rng::XorShift64;
use std::time::Duration;

/// Per-second event rates of one hardware thread running some code.
///
/// All rates are per thread; DRAM bytes and power are the thread's
/// *contribution* to its socket's uncore counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EventRates {
    /// Instructions retired per second.
    pub instr: f64,
    /// Unhalted core cycles per second (≤ clock when idle/halted).
    pub core_cycles: f64,
    /// Reference cycles per second.
    pub ref_cycles: f64,
    /// Scalar DP FP µops per second.
    pub dp_scalar: f64,
    /// 128-bit packed DP µops per second.
    pub dp_sse: f64,
    /// 256-bit packed DP µops per second.
    pub dp_avx: f64,
    /// Scalar SP FP µops per second.
    pub sp_scalar: f64,
    /// 128-bit packed SP µops per second.
    pub sp_sse: f64,
    /// 256-bit packed SP µops per second.
    pub sp_avx: f64,
    /// L1D replacements per second (L2→L1 loads).
    pub l1d_repl: f64,
    /// L1D modified evicts per second (L1→L2 stores).
    pub l1d_evict: f64,
    /// Lines into L2 per second (L3→L2).
    pub l2_in: f64,
    /// L2 writebacks per second (L2→L3).
    pub l2_wb: f64,
    /// L2 misses per second.
    pub l2_miss: f64,
    /// Icache misses per second.
    pub icache_miss: f64,
    /// Branches retired per second.
    pub branches: f64,
    /// Mispredicted branches per second.
    pub branch_miss: f64,
    /// Load instructions per second.
    pub loads: f64,
    /// Store instructions per second.
    pub stores: f64,
    /// DTLB load walks per second.
    pub dtlb_load_walk: f64,
    /// DTLB store walks per second.
    pub dtlb_store_walk: f64,
    /// µops executed per second.
    pub uops: f64,
    /// Stalled cycles per second.
    pub stall_cycles: f64,
    /// DRAM bytes read per second (contribution to socket CAS_COUNT_RD×64).
    pub dram_read_bytes: f64,
    /// DRAM bytes written per second (contribution to CAS_COUNT_WR×64).
    pub dram_write_bytes: f64,
    /// Package power contribution in watts.
    pub power_watts: f64,
    /// DRAM power contribution in watts.
    pub dram_power_watts: f64,
}

impl EventRates {
    /// A truly idle thread: housekeeping instructions only.
    pub fn idle() -> Self {
        EventRates {
            instr: 5.0e6,
            core_cycles: 1.0e7,
            ref_cycles: 1.0e7,
            branches: 1.0e6,
            branch_miss: 2.0e4,
            loads: 1.5e6,
            stores: 0.7e6,
            uops: 6.0e6,
            stall_cycles: 4.0e6,
            power_watts: 0.2,
            dram_power_watts: 0.05,
            ..Default::default()
        }
    }

    /// A compute-bound (DGEMM-like) thread on `topo`: ~70% of peak DP
    /// FLOP/s, high IPC, low memory traffic.
    pub fn compute_bound(topo: &Topology) -> Self {
        let hz = topo.nominal_hz();
        let peak_core = hz * topo.flops_per_cycle_dp(); // FLOP/s per core
        let flops = 0.70 * peak_core;
        let avx_uops = flops / 4.0; // 4 DP lanes per 256-bit uop
        let instr = 2.2 * hz;
        EventRates {
            instr,
            core_cycles: hz,
            ref_cycles: hz,
            dp_avx: avx_uops,
            dp_scalar: 0.01 * avx_uops,
            l1d_repl: 0.02 * instr / 8.0,
            l1d_evict: 0.01 * instr / 8.0,
            l2_in: 0.004 * instr / 8.0,
            l2_wb: 0.002 * instr / 8.0,
            l2_miss: 0.001 * instr / 8.0,
            icache_miss: 1e4,
            branches: 0.04 * instr,
            branch_miss: 0.0004 * instr,
            loads: 0.35 * instr,
            stores: 0.12 * instr,
            dtlb_load_walk: 1e4,
            dtlb_store_walk: 4e3,
            uops: 1.2 * instr,
            stall_cycles: 0.08 * hz,
            dram_read_bytes: 0.8e9,
            dram_write_bytes: 0.4e9,
            power_watts: 7.0,
            dram_power_watts: 0.8,
            ..Default::default()
        }
    }

    /// A memory-bound (STREAM-triad-like) thread on `topo`: saturates its
    /// share of the socket's memory bandwidth, modest FLOP rate, many
    /// stalls.
    pub fn memory_bound(topo: &Topology) -> Self {
        let hz = topo.nominal_hz();
        // A handful of threads saturate the socket; per-thread share sized
        // so ~4 threads reach ~90% of the socket's peak.
        let bw_share = 0.9 * topo.mem_bw_per_socket() / 4.0;
        let read = bw_share * 2.0 / 3.0; // triad: 2 loads + 1 store
        let write = bw_share / 3.0;
        let instr = 0.6 * hz;
        // triad: 2 FLOPs per 24 bytes loaded
        let flops = read / 24.0 * 2.0;
        EventRates {
            instr,
            core_cycles: hz,
            ref_cycles: hz,
            dp_avx: flops / 4.0,
            l1d_repl: read / 64.0,
            l1d_evict: write / 64.0,
            l2_in: read / 64.0,
            l2_wb: write / 64.0,
            l2_miss: read / 64.0,
            icache_miss: 1e4,
            branches: 0.05 * instr,
            branch_miss: 0.0002 * instr,
            loads: 0.45 * instr,
            stores: 0.22 * instr,
            dtlb_load_walk: read / 4096.0,
            dtlb_store_walk: write / 4096.0,
            uops: 0.8 * instr,
            stall_cycles: 0.6 * hz,
            dram_read_bytes: read,
            dram_write_bytes: write,
            power_watts: 5.0,
            dram_power_watts: 2.5,
            ..Default::default()
        }
    }

    /// A balanced thread: moderate FLOPs and bandwidth (typical solver).
    pub fn balanced(topo: &Topology) -> Self {
        let c = Self::compute_bound(topo);
        let m = Self::memory_bound(topo);
        c.lerp(&m, 0.5)
    }

    /// Linear interpolation between two rate sets (used by presets and the
    /// imbalance model).
    pub fn lerp(&self, other: &EventRates, t: f64) -> EventRates {
        let l = |a: f64, b: f64| a + (b - a) * t;
        EventRates {
            instr: l(self.instr, other.instr),
            core_cycles: l(self.core_cycles, other.core_cycles),
            ref_cycles: l(self.ref_cycles, other.ref_cycles),
            dp_scalar: l(self.dp_scalar, other.dp_scalar),
            dp_sse: l(self.dp_sse, other.dp_sse),
            dp_avx: l(self.dp_avx, other.dp_avx),
            sp_scalar: l(self.sp_scalar, other.sp_scalar),
            sp_sse: l(self.sp_sse, other.sp_sse),
            sp_avx: l(self.sp_avx, other.sp_avx),
            l1d_repl: l(self.l1d_repl, other.l1d_repl),
            l1d_evict: l(self.l1d_evict, other.l1d_evict),
            l2_in: l(self.l2_in, other.l2_in),
            l2_wb: l(self.l2_wb, other.l2_wb),
            l2_miss: l(self.l2_miss, other.l2_miss),
            icache_miss: l(self.icache_miss, other.icache_miss),
            branches: l(self.branches, other.branches),
            branch_miss: l(self.branch_miss, other.branch_miss),
            loads: l(self.loads, other.loads),
            stores: l(self.stores, other.stores),
            dtlb_load_walk: l(self.dtlb_load_walk, other.dtlb_load_walk),
            dtlb_store_walk: l(self.dtlb_store_walk, other.dtlb_store_walk),
            uops: l(self.uops, other.uops),
            stall_cycles: l(self.stall_cycles, other.stall_cycles),
            dram_read_bytes: l(self.dram_read_bytes, other.dram_read_bytes),
            dram_write_bytes: l(self.dram_write_bytes, other.dram_write_bytes),
            power_watts: l(self.power_watts, other.power_watts),
            dram_power_watts: l(self.dram_power_watts, other.dram_power_watts),
        }
    }
}

/// One phase of a workload: run at `rates` for `duration` (or forever when
/// `None` — only meaningful as the last phase).
#[derive(Debug, Clone)]
pub struct WorkloadPhase {
    /// Phase length; `None` = hold until reassigned.
    pub duration: Option<Duration>,
    /// Event rates during the phase.
    pub rates: EventRates,
}

/// A phase-sequence workload model assigned to a hardware thread.
#[derive(Debug, Clone)]
pub struct WorkloadModel {
    phases: Vec<WorkloadPhase>,
    looping: bool,
}

impl WorkloadModel {
    /// A single never-ending phase.
    pub fn constant(rates: EventRates) -> Self {
        WorkloadModel { phases: vec![WorkloadPhase { duration: None, rates }], looping: false }
    }

    /// A finite sequence of phases; after the last phase the thread idles
    /// (unless `looping`).
    pub fn sequence(phases: Vec<WorkloadPhase>) -> Self {
        WorkloadModel { phases, looping: false }
    }

    /// Makes the phase sequence repeat.
    pub fn looped(mut self) -> Self {
        self.looping = true;
        self
    }

    /// The rates at time `at` since the model was assigned.
    pub fn rates_at(&self, at: Duration) -> EventRates {
        let total: Duration = self
            .phases
            .iter()
            .map(|p| p.duration.unwrap_or(Duration::ZERO))
            .sum();
        let mut t = at;
        if self.looping && !total.is_zero() {
            let rem_ns = (at.as_nanos() % total.as_nanos()) as u64;
            t = Duration::from_nanos(rem_ns);
        }
        for phase in &self.phases {
            match phase.duration {
                None => return phase.rates,
                Some(d) if t < d => return phase.rates,
                Some(d) => t -= d,
            }
        }
        EventRates::idle()
    }
}

/// Ready-made workload shapes used by examples, tests and `benchmark/`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadPreset {
    /// DGEMM-like: near-peak FLOP/s, low bandwidth.
    ComputeBound,
    /// STREAM-like: near-peak bandwidth, low FLOP/s.
    MemoryBound,
    /// Typical solver: both moderate.
    Balanced,
    /// Idle node.
    Idle,
}

impl WorkloadPreset {
    /// Builds the model for this preset on `topo`.
    pub fn model(self, topo: &Topology) -> WorkloadModel {
        let rates = match self {
            WorkloadPreset::ComputeBound => EventRates::compute_bound(topo),
            WorkloadPreset::MemoryBound => EventRates::memory_bound(topo),
            WorkloadPreset::Balanced => EventRates::balanced(topo),
            WorkloadPreset::Idle => EventRates::idle(),
        };
        WorkloadModel::constant(rates)
    }
}

/// Builds the Fig. 4 pathological workload: compute for `before`, stall
/// (idle) for `gap`, then compute again indefinitely.
pub fn compute_with_break(topo: &Topology, before: Duration, gap: Duration) -> WorkloadModel {
    let busy = EventRates::balanced(topo);
    WorkloadModel::sequence(vec![
        WorkloadPhase { duration: Some(before), rates: busy },
        WorkloadPhase { duration: Some(gap), rates: EventRates::idle() },
        WorkloadPhase { duration: None, rates: busy },
    ])
}

/// The simulated PMU state of one node.
pub struct Simulator {
    topo: Topology,
    catalog: EventCatalog,
    /// `[hw_thread][event_index]` cumulative counts for core-scope events.
    thread_counts: Vec<Vec<f64>>,
    /// `[socket][event_index]` cumulative counts for socket-scope events.
    socket_counts: Vec<Vec<f64>>,
    models: Vec<Option<WorkloadModel>>,
    assigned_at: Vec<Duration>,
    elapsed: Duration,
    rng: XorShift64,
    /// Relative jitter applied per integration step (0 = deterministic).
    jitter: f64,
    /// Baseline package power per socket in watts (fans, uncore, leakage).
    idle_socket_watts: f64,
}

impl Simulator {
    /// Creates a simulator for `topo`, all threads idle.
    pub fn new(topo: &Topology, seed: u64) -> Self {
        let catalog = EventCatalog::default_arch();
        let nthreads = topo.num_hw_threads() as usize;
        let nevents = catalog.len();
        Simulator {
            topo: topo.clone(),
            thread_counts: vec![vec![0.0; nevents]; nthreads],
            socket_counts: vec![vec![0.0; nevents]; topo.num_sockets() as usize],
            models: (0..nthreads).map(|_| None).collect(),
            assigned_at: vec![Duration::ZERO; nthreads],
            elapsed: Duration::ZERO,
            rng: XorShift64::new(seed),
            jitter: 0.02,
            idle_socket_watts: 18.0,
            catalog,
        }
    }

    /// Sets the per-step relative jitter (default 2%). Zero makes traces
    /// bit-for-bit reproducible across runs with different step sizes.
    pub fn set_jitter(&mut self, rel: f64) {
        self.jitter = rel.max(0.0);
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The event catalog.
    pub fn catalog(&self) -> &EventCatalog {
        &self.catalog
    }

    /// Virtual time since construction.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Assigns a workload model to a set of hardware threads (replacing any
    /// previous assignment; phase time restarts at zero).
    pub fn assign(&mut self, threads: impl IntoIterator<Item = u32>, model: WorkloadModel) {
        for t in threads {
            let idx = t as usize;
            assert!(idx < self.models.len(), "thread {t} out of range");
            self.models[idx] = Some(model.clone());
            self.assigned_at[idx] = self.elapsed;
        }
    }

    /// Clears the workload of the given threads (they go idle).
    pub fn clear(&mut self, threads: impl IntoIterator<Item = u32>) {
        for t in threads {
            self.models[t as usize] = None;
        }
    }

    /// Advances virtual time by `dt`, integrating all models.
    pub fn advance(&mut self, dt: Duration) {
        let secs = dt.as_secs_f64();
        if secs <= 0.0 {
            return;
        }
        let idle = EventRates::idle();
        // Socket accumulators for this step.
        let nsockets = self.topo.num_sockets() as usize;
        let mut sock_read = vec![0.0f64; nsockets];
        let mut sock_write = vec![0.0f64; nsockets];
        let mut sock_pkg_w = vec![self.idle_socket_watts; nsockets];
        let mut sock_dram_w = vec![2.0f64; nsockets];

        for tid in 0..self.thread_counts.len() {
            let hw = self.topo.hw_thread(tid as u32).unwrap();
            let at = self.elapsed - self.assigned_at[tid].min(self.elapsed);
            let rates = match &self.models[tid] {
                Some(m) => m.rates_at(at),
                None => idle,
            };
            let j = if self.jitter > 0.0 {
                1.0 + self.rng.range_f64(-self.jitter, self.jitter)
            } else {
                1.0
            };
            let scale = secs * j;
            let counts = &mut self.thread_counts[tid];
            let cat = &self.catalog;
            let mut add = |name: &str, rate: f64| {
                if rate > 0.0 {
                    let i = cat.index_of(name).expect("event in catalog");
                    counts[i] += rate * scale;
                }
            };
            add("INSTR_RETIRED_ANY", rates.instr);
            add("CPU_CLK_UNHALTED_CORE", rates.core_cycles);
            add("CPU_CLK_UNHALTED_REF", rates.ref_cycles);
            add("FP_ARITH_INST_RETIRED_SCALAR_DOUBLE", rates.dp_scalar);
            add("FP_ARITH_INST_RETIRED_128B_PACKED_DOUBLE", rates.dp_sse);
            add("FP_ARITH_INST_RETIRED_256B_PACKED_DOUBLE", rates.dp_avx);
            add("FP_ARITH_INST_RETIRED_SCALAR_SINGLE", rates.sp_scalar);
            add("FP_ARITH_INST_RETIRED_128B_PACKED_SINGLE", rates.sp_sse);
            add("FP_ARITH_INST_RETIRED_256B_PACKED_SINGLE", rates.sp_avx);
            add("L1D_REPLACEMENT", rates.l1d_repl);
            add("L1D_M_EVICT", rates.l1d_evict);
            add("L2_LINES_IN_ALL", rates.l2_in);
            add("L2_TRANS_L2_WB", rates.l2_wb);
            add("L2_RQSTS_MISS", rates.l2_miss);
            add("ICACHE_MISSES", rates.icache_miss);
            add("BR_INST_RETIRED_ALL_BRANCHES", rates.branches);
            add("BR_MISP_RETIRED_ALL_BRANCHES", rates.branch_miss);
            add("MEM_INST_RETIRED_ALL_LOADS", rates.loads);
            add("MEM_INST_RETIRED_ALL_STORES", rates.stores);
            add("DTLB_LOAD_MISSES_WALK_COMPLETED", rates.dtlb_load_walk);
            add("DTLB_STORE_MISSES_WALK_COMPLETED", rates.dtlb_store_walk);
            add("UOPS_EXECUTED_THREAD", rates.uops);
            add("CYCLE_ACTIVITY_STALLS_TOTAL", rates.stall_cycles);

            let s = hw.socket as usize;
            sock_read[s] += rates.dram_read_bytes * scale;
            sock_write[s] += rates.dram_write_bytes * scale;
            sock_pkg_w[s] += rates.power_watts * j;
            sock_dram_w[s] += rates.dram_power_watts * j;
        }

        // Socket bandwidth is capped at the hardware peak — oversubscribed
        // threads contend rather than exceeding the memory controller.
        let cap = self.topo.mem_bw_per_socket() * secs;
        let idx_rd = self.catalog.index_of("CAS_COUNT_RD").unwrap();
        let idx_wr = self.catalog.index_of("CAS_COUNT_WR").unwrap();
        let idx_pkg = self.catalog.index_of("PWR_PKG_ENERGY").unwrap();
        let idx_dram = self.catalog.index_of("PWR_DRAM_ENERGY").unwrap();
        for s in 0..nsockets {
            let total = sock_read[s] + sock_write[s];
            let scale = if total > cap { cap / total } else { 1.0 };
            self.socket_counts[s][idx_rd] += sock_read[s] * scale / 64.0;
            self.socket_counts[s][idx_wr] += sock_write[s] * scale / 64.0;
            self.socket_counts[s][idx_pkg] += sock_pkg_w[s] * secs;
            self.socket_counts[s][idx_dram] += sock_dram_w[s] * secs;
        }

        self.elapsed += dt;
    }

    /// Cumulative count of a core-scope event on one hardware thread.
    pub fn thread_count(&self, thread: u32, event: &str) -> f64 {
        self.catalog
            .index_of(event)
            .map(|i| self.thread_counts[thread as usize][i])
            .unwrap_or(0.0)
    }

    /// Cumulative count of a socket-scope event on one socket.
    pub fn socket_count(&self, socket: u32, event: &str) -> f64 {
        self.catalog
            .index_of(event)
            .map(|i| self.socket_counts[socket as usize][i])
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::preset_desktop_4c()
    }

    #[test]
    fn counters_are_monotone() {
        let t = topo();
        let mut sim = Simulator::new(&t, 1);
        sim.assign(0..4, WorkloadPreset::ComputeBound.model(&t));
        let mut last = 0.0;
        for _ in 0..10 {
            sim.advance(Duration::from_millis(500));
            let c = sim.thread_count(0, "INSTR_RETIRED_ANY");
            assert!(c > last);
            last = c;
        }
        assert_eq!(sim.elapsed(), Duration::from_secs(5));
    }

    #[test]
    fn idle_threads_count_little() {
        let t = topo();
        let mut sim = Simulator::new(&t, 1);
        sim.advance(Duration::from_secs(10));
        let instr = sim.thread_count(0, "INSTR_RETIRED_ANY");
        assert!(instr > 0.0 && instr < 1e8, "idle instr = {instr}");
        assert_eq!(sim.thread_count(0, "FP_ARITH_INST_RETIRED_256B_PACKED_DOUBLE"), 0.0);
    }

    #[test]
    fn compute_bound_hits_roughly_70_percent_of_peak() {
        let t = topo();
        let mut sim = Simulator::new(&t, 7);
        sim.set_jitter(0.0);
        sim.assign(0..t.num_cores(), WorkloadPreset::ComputeBound.model(&t));
        sim.advance(Duration::from_secs(10));
        let mut flops = 0.0;
        for c in 0..t.num_cores() {
            flops += sim.thread_count(c, "FP_ARITH_INST_RETIRED_256B_PACKED_DOUBLE") * 4.0
                + sim.thread_count(c, "FP_ARITH_INST_RETIRED_SCALAR_DOUBLE");
        }
        let rate = flops / 10.0;
        let frac = rate / t.peak_flops_dp();
        assert!((0.6..0.8).contains(&frac), "fraction of peak = {frac}");
    }

    #[test]
    fn socket_bandwidth_is_capped_at_peak() {
        let t = topo();
        let mut sim = Simulator::new(&t, 3);
        sim.set_jitter(0.0);
        // Oversubscribe: all 8 threads demand a 4-thread-saturating share.
        sim.assign(0..8, WorkloadPreset::MemoryBound.model(&t));
        sim.advance(Duration::from_secs(5));
        let bytes =
            (sim.socket_count(0, "CAS_COUNT_RD") + sim.socket_count(0, "CAS_COUNT_WR")) * 64.0;
        let bw = bytes / 5.0;
        assert!(bw <= t.mem_bw_per_socket() * 1.001, "bw {bw} exceeds cap");
        assert!(bw > 0.9 * t.mem_bw_per_socket(), "bw {bw} should saturate");
    }

    #[test]
    fn energy_accumulates_and_idle_power_is_low() {
        let t = topo();
        let mut sim = Simulator::new(&t, 4);
        sim.set_jitter(0.0);
        sim.advance(Duration::from_secs(100));
        let idle_j = sim.socket_count(0, "PWR_PKG_ENERGY");
        let idle_w = idle_j / 100.0;
        assert!((15.0..30.0).contains(&idle_w), "idle watts = {idle_w}");

        sim.assign(0..4, WorkloadPreset::ComputeBound.model(&t));
        sim.advance(Duration::from_secs(100));
        let busy_w = (sim.socket_count(0, "PWR_PKG_ENERGY") - idle_j) / 100.0;
        assert!(busy_w > idle_w + 10.0, "busy {busy_w} vs idle {idle_w}");
    }

    #[test]
    fn phases_switch_at_boundaries() {
        let t = topo();
        let model = compute_with_break(&t, Duration::from_secs(10), Duration::from_secs(5));
        let busy = model.rates_at(Duration::from_secs(0));
        assert!(busy.dp_avx > 0.0);
        let idle = model.rates_at(Duration::from_secs(12));
        assert_eq!(idle.dp_avx, 0.0);
        let busy_again = model.rates_at(Duration::from_secs(16));
        assert!(busy_again.dp_avx > 0.0);
    }

    #[test]
    fn finite_sequence_falls_back_to_idle() {
        let m = WorkloadModel::sequence(vec![WorkloadPhase {
            duration: Some(Duration::from_secs(1)),
            rates: EventRates::compute_bound(&topo()),
        }]);
        assert_eq!(m.rates_at(Duration::from_secs(2)), EventRates::idle());
    }

    #[test]
    fn looped_sequence_wraps() {
        let t = topo();
        let m = WorkloadModel::sequence(vec![
            WorkloadPhase {
                duration: Some(Duration::from_secs(2)),
                rates: EventRates::compute_bound(&t),
            },
            WorkloadPhase { duration: Some(Duration::from_secs(2)), rates: EventRates::idle() },
        ])
        .looped();
        assert!(m.rates_at(Duration::from_secs(1)).dp_avx > 0.0);
        assert_eq!(m.rates_at(Duration::from_secs(3)).dp_avx, 0.0);
        assert!(m.rates_at(Duration::from_secs(5)).dp_avx > 0.0); // wrapped
    }

    #[test]
    fn deterministic_given_seed_and_no_jitter() {
        let t = topo();
        let run = || {
            let mut sim = Simulator::new(&t, 99);
            sim.set_jitter(0.0);
            sim.assign(0..2, WorkloadPreset::Balanced.model(&t));
            sim.advance(Duration::from_secs(3));
            sim.thread_count(0, "INSTR_RETIRED_ANY")
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn reassignment_restarts_phase_clock() {
        let t = topo();
        let mut sim = Simulator::new(&t, 5);
        sim.set_jitter(0.0);
        sim.advance(Duration::from_secs(100));
        // Assign a model whose first phase is busy for 10s: phase time must
        // start now, not at t=0.
        sim.assign([0], compute_with_break(&t, Duration::from_secs(10), Duration::from_secs(5)));
        let before = sim.thread_count(0, "FP_ARITH_INST_RETIRED_256B_PACKED_DOUBLE");
        sim.advance(Duration::from_secs(5));
        let after = sim.thread_count(0, "FP_ARITH_INST_RETIRED_256B_PACKED_DOUBLE");
        assert!(after > before, "busy phase should be active right after assignment");
    }

    #[test]
    fn lerp_midpoint() {
        let t = topo();
        let a = EventRates::compute_bound(&t);
        let b = EventRates::memory_bound(&t);
        let m = a.lerp(&b, 0.5);
        assert!((m.instr - (a.instr + b.instr) / 2.0).abs() < 1.0);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
    }
}
