//! The node topology model.
//!
//! Mirrors what `likwid-topology` reports about a node: the socket/core/SMT
//! structure, the cache hierarchy with sharing, and NUMA domains. Hardware
//! thread numbering follows the common Linux/likwid convention: physical
//! cores of all sockets first (socket-major), then the SMT siblings in a
//! second block, so thread `i` and `i + num_cores` share a core.

use lms_util::{Error, Result};

/// Cache levels distinguished by the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheKind {
    /// Per-core L1 data cache.
    L1d,
    /// Per-core unified L2.
    L2,
    /// Last-level cache shared per socket.
    L3,
}

/// One cache in the hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct Cache {
    /// Level and flavour.
    pub kind: CacheKind,
    /// Capacity in bytes.
    pub size_bytes: u64,
    /// Cache line size in bytes.
    pub line_bytes: u32,
    /// Number of *cores* sharing one instance of this cache.
    pub shared_by_cores: u32,
}

/// One hardware thread (logical CPU).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HwThread {
    /// Logical CPU id (the OS numbering).
    pub id: u32,
    /// Socket index.
    pub socket: u32,
    /// Core index *within the socket*.
    pub core: u32,
    /// SMT sibling index within the core (0 = primary thread).
    pub smt: u32,
    /// NUMA domain index.
    pub numa: u32,
}

/// A node's hardware topology.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    name: String,
    sockets: u32,
    cores_per_socket: u32,
    threads_per_core: u32,
    numa_per_socket: u32,
    caches: Vec<Cache>,
    /// Nominal clock in Hz (the simulator's cycle budget per second).
    nominal_hz: f64,
    /// Peak DP FLOPs per cycle per core (vector width × FMA factor).
    flops_per_cycle_dp: f64,
    /// Peak memory bandwidth per socket in bytes/s.
    mem_bw_per_socket: f64,
    /// TDP per socket in watts (for the RAPL energy model).
    tdp_watts: f64,
}

impl Topology {
    /// Builds a custom topology.
    pub fn new(
        name: impl Into<String>,
        sockets: u32,
        cores_per_socket: u32,
        threads_per_core: u32,
    ) -> Result<Self> {
        if sockets == 0 || cores_per_socket == 0 || threads_per_core == 0 {
            return Err(Error::invalid("topology dimensions must be non-zero"));
        }
        Ok(Topology {
            name: name.into(),
            sockets,
            cores_per_socket,
            threads_per_core,
            numa_per_socket: 1,
            caches: vec![
                Cache { kind: CacheKind::L1d, size_bytes: 32 << 10, line_bytes: 64, shared_by_cores: 1 },
                Cache { kind: CacheKind::L2, size_bytes: 256 << 10, line_bytes: 64, shared_by_cores: 1 },
                Cache {
                    kind: CacheKind::L3,
                    size_bytes: (cores_per_socket as u64) * (2560 << 10),
                    line_bytes: 64,
                    shared_by_cores: cores_per_socket,
                },
            ],
            nominal_hz: 2.5e9,
            flops_per_cycle_dp: 8.0, // AVX + FMA: 4 lanes × 2
            mem_bw_per_socket: 50e9,
            tdp_watts: 105.0,
        })
    }

    /// The "Ivy Bridge EP"-like preset used throughout the examples and
    /// tests: 2 sockets × 10 cores × 2 SMT threads — a typical commodity
    /// cluster node of the paper's era.
    pub fn preset_dual_socket_10c() -> Self {
        let mut t = Topology::new("ivybridge-ep-2s10c2t", 2, 10, 2).unwrap();
        t.nominal_hz = 2.2e9;
        t.flops_per_cycle_dp = 8.0;
        t.mem_bw_per_socket = 42e9;
        t.tdp_watts = 115.0;
        t
    }

    /// A small single-socket preset for quick tests (1 × 4 × 2).
    pub fn preset_desktop_4c() -> Self {
        let mut t = Topology::new("desktop-1s4c2t", 1, 4, 2).unwrap();
        t.nominal_hz = 3.5e9;
        t.mem_bw_per_socket = 25e9;
        t.tdp_watts = 65.0;
        t
    }

    /// Sets the NUMA domains per socket (cluster-on-die style).
    pub fn with_numa_per_socket(mut self, n: u32) -> Result<Self> {
        if n == 0 || !self.cores_per_socket.is_multiple_of(n) {
            return Err(Error::invalid(format!(
                "{} cores per socket cannot split into {n} NUMA domains",
                self.cores_per_socket
            )));
        }
        self.numa_per_socket = n;
        Ok(self)
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Socket count.
    pub fn num_sockets(&self) -> u32 {
        self.sockets
    }

    /// Physical core count (all sockets).
    pub fn num_cores(&self) -> u32 {
        self.sockets * self.cores_per_socket
    }

    /// Cores per socket.
    pub fn cores_per_socket(&self) -> u32 {
        self.cores_per_socket
    }

    /// SMT threads per core.
    pub fn threads_per_core(&self) -> u32 {
        self.threads_per_core
    }

    /// Hardware thread (logical CPU) count.
    pub fn num_hw_threads(&self) -> u32 {
        self.num_cores() * self.threads_per_core
    }

    /// NUMA domain count (all sockets).
    pub fn num_numa_domains(&self) -> u32 {
        self.sockets * self.numa_per_socket
    }

    /// The cache hierarchy.
    pub fn caches(&self) -> &[Cache] {
        &self.caches
    }

    /// Nominal core clock in Hz.
    pub fn nominal_hz(&self) -> f64 {
        self.nominal_hz
    }

    /// Peak DP FLOPs per cycle per core.
    pub fn flops_per_cycle_dp(&self) -> f64 {
        self.flops_per_cycle_dp
    }

    /// Peak DP FLOP/s for the whole node.
    pub fn peak_flops_dp(&self) -> f64 {
        self.nominal_hz * self.flops_per_cycle_dp * self.num_cores() as f64
    }

    /// Peak memory bandwidth per socket (bytes/s).
    pub fn mem_bw_per_socket(&self) -> f64 {
        self.mem_bw_per_socket
    }

    /// Peak memory bandwidth for the node (bytes/s).
    pub fn peak_mem_bw(&self) -> f64 {
        self.mem_bw_per_socket * self.sockets as f64
    }

    /// TDP per socket (W).
    pub fn tdp_watts(&self) -> f64 {
        self.tdp_watts
    }

    /// Resolves a logical CPU id to its place in the hierarchy.
    pub fn hw_thread(&self, id: u32) -> Result<HwThread> {
        if id >= self.num_hw_threads() {
            return Err(Error::invalid(format!(
                "hw thread {id} out of range (node has {})",
                self.num_hw_threads()
            )));
        }
        let cores = self.num_cores();
        let smt = id / cores;
        let core_global = id % cores;
        let socket = core_global / self.cores_per_socket;
        let core = core_global % self.cores_per_socket;
        let cores_per_numa = self.cores_per_socket / self.numa_per_socket;
        let numa = socket * self.numa_per_socket + core / cores_per_numa;
        Ok(HwThread { id, socket, core, smt, numa })
    }

    /// All hardware threads, ordered by logical id.
    pub fn hw_threads(&self) -> impl Iterator<Item = HwThread> + '_ {
        (0..self.num_hw_threads()).map(|id| self.hw_thread(id).unwrap())
    }

    /// Logical ids of all threads on `socket`.
    pub fn threads_of_socket(&self, socket: u32) -> Vec<u32> {
        self.hw_threads().filter(|t| t.socket == socket).map(|t| t.id).collect()
    }

    /// Logical ids of all threads in NUMA domain `numa`.
    pub fn threads_of_numa(&self, numa: u32) -> Vec<u32> {
        self.hw_threads().filter(|t| t.numa == numa).map(|t| t.id).collect()
    }

    /// Logical ids of the primary (smt=0) thread of every core.
    pub fn primary_threads(&self) -> Vec<u32> {
        (0..self.num_cores()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_dimensions() {
        let t = Topology::preset_dual_socket_10c();
        assert_eq!(t.num_sockets(), 2);
        assert_eq!(t.num_cores(), 20);
        assert_eq!(t.num_hw_threads(), 40);
        assert_eq!(t.num_numa_domains(), 2);
        assert!(t.peak_flops_dp() > 3e11);
    }

    #[test]
    fn rejects_degenerate_dimensions() {
        assert!(Topology::new("x", 0, 4, 1).is_err());
        assert!(Topology::new("x", 1, 0, 1).is_err());
        assert!(Topology::new("x", 1, 4, 0).is_err());
    }

    #[test]
    fn thread_numbering_is_socket_major_with_smt_block() {
        let t = Topology::preset_dual_socket_10c();
        // Thread 0: socket 0, core 0, smt 0.
        assert_eq!(t.hw_thread(0).unwrap(), HwThread { id: 0, socket: 0, core: 0, smt: 0, numa: 0 });
        // Thread 10: socket 1, core 0.
        let th = t.hw_thread(10).unwrap();
        assert_eq!((th.socket, th.core, th.smt), (1, 0, 0));
        // Thread 20 is the SMT sibling of thread 0.
        let th = t.hw_thread(20).unwrap();
        assert_eq!((th.socket, th.core, th.smt), (0, 0, 1));
        assert!(t.hw_thread(40).is_err());
    }

    #[test]
    fn socket_and_numa_listings() {
        let t = Topology::preset_dual_socket_10c();
        let s0 = t.threads_of_socket(0);
        assert_eq!(s0.len(), 20);
        assert!(s0.contains(&0) && s0.contains(&20) && !s0.contains(&10));
        assert_eq!(t.primary_threads().len(), 20);
    }

    #[test]
    fn numa_split() {
        let t = Topology::preset_dual_socket_10c().with_numa_per_socket(2).unwrap();
        assert_eq!(t.num_numa_domains(), 4);
        // Cores 0-4 of socket 0 are NUMA 0; cores 5-9 are NUMA 1.
        assert_eq!(t.hw_thread(4).unwrap().numa, 0);
        assert_eq!(t.hw_thread(5).unwrap().numa, 1);
        assert_eq!(t.hw_thread(10).unwrap().numa, 2);
        assert_eq!(t.threads_of_numa(1).len(), 10);
    }

    #[test]
    fn numa_split_must_divide_cores() {
        assert!(Topology::preset_dual_socket_10c().with_numa_per_socket(3).is_err());
        assert!(Topology::preset_dual_socket_10c().with_numa_per_socket(0).is_err());
    }

    #[test]
    fn cache_hierarchy_present() {
        let t = Topology::preset_dual_socket_10c();
        let kinds: Vec<_> = t.caches().iter().map(|c| c.kind).collect();
        assert_eq!(kinds, vec![CacheKind::L1d, CacheKind::L2, CacheKind::L3]);
        let l3 = &t.caches()[2];
        assert_eq!(l3.shared_by_cores, 10);
    }

    #[test]
    fn hw_threads_iterator_is_complete_and_consistent() {
        let t = Topology::preset_desktop_4c();
        let all: Vec<_> = t.hw_threads().collect();
        assert_eq!(all.len(), 8);
        for (i, th) in all.iter().enumerate() {
            assert_eq!(th.id, i as u32);
        }
        // SMT sibling pairing: i and i+4 share (socket, core).
        for i in 0..4 {
            let a = t.hw_thread(i).unwrap();
            let b = t.hw_thread(i + 4).unwrap();
            assert_eq!((a.socket, a.core), (b.socket, b.core));
            assert_ne!(a.smt, b.smt);
        }
    }
}
