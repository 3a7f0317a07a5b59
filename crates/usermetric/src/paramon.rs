//! Parallel-runtime tooling interfaces (the paper's Sec. IV outlook).
//!
//! "Moreover, further information is planned to be gathered through the
//! tooling interfaces of common parallelization solutions like MPI or
//! OpenMP." This module implements that plan for the reproduction:
//!
//! - [`MpiProfiler`] — the PMPI-shim analog: applications (or an
//!   interposition layer) report each communication call; the profiler
//!   aggregates per-rank call counts, byte volumes and time, and emits
//!   them through the usual batched libusermetric channel.
//! - [`OmpProfiler`] — the OMPT analog: parallel-region enter/exit
//!   tracking with per-thread imbalance accounting.
//!
//! Both are pure aggregation layers: cheap enough to call from inner
//! communication loops (atomics only), reporting on demand.

use crate::client::UserMetric;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// MPI call classes tracked by the profiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpiCall {
    /// Point-to-point sends (`MPI_Send`, `MPI_Isend`, ...).
    Send,
    /// Point-to-point receives.
    Recv,
    /// All-to-all style collectives (`MPI_Alltoall`, ...).
    AllToAll,
    /// Reductions (`MPI_Allreduce`, `MPI_Reduce`, ...).
    Reduce,
    /// Broadcasts and gathers/scatters.
    Broadcast,
    /// Barriers.
    Barrier,
    /// Blocking waits (`MPI_Wait*`).
    Wait,
}

impl MpiCall {
    const COUNT: usize = 7;

    fn index(self) -> usize {
        match self {
            MpiCall::Send => 0,
            MpiCall::Recv => 1,
            MpiCall::AllToAll => 2,
            MpiCall::Reduce => 3,
            MpiCall::Broadcast => 4,
            MpiCall::Barrier => 5,
            MpiCall::Wait => 6,
        }
    }

    fn name(self) -> &'static str {
        match self {
            MpiCall::Send => "send",
            MpiCall::Recv => "recv",
            MpiCall::AllToAll => "alltoall",
            MpiCall::Reduce => "reduce",
            MpiCall::Broadcast => "bcast",
            MpiCall::Barrier => "barrier",
            MpiCall::Wait => "wait",
        }
    }
}

#[derive(Default)]
struct CallCounters {
    calls: AtomicU64,
    bytes: AtomicU64,
    nanos: AtomicU64,
}

/// Per-rank MPI communication profile (the PMPI-shim analog).
pub struct MpiProfiler {
    rank: u32,
    size: u32,
    counters: [CallCounters; MpiCall::COUNT],
}

/// A snapshot of one call class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MpiCallStats {
    /// Number of calls.
    pub calls: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Time spent inside the calls.
    pub time_nanos: u64,
}

impl MpiProfiler {
    /// A profiler for `rank` of `size` ranks.
    pub fn new(rank: u32, size: u32) -> Self {
        assert!(size > 0 && rank < size, "rank {rank} of {size}");
        MpiProfiler { rank, size, counters: Default::default() }
    }

    /// This profiler's rank.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Records one call. Call from the interposition wrapper after the
    /// real call returns; `bytes` is the message/collective volume as seen
    /// by this rank.
    pub fn record(&self, call: MpiCall, bytes: u64, elapsed: Duration) {
        let c = &self.counters[call.index()];
        c.calls.fetch_add(1, Ordering::Relaxed);
        c.bytes.fetch_add(bytes, Ordering::Relaxed);
        c.nanos.fetch_add(elapsed.as_nanos().min(u64::MAX as u128) as u64, Ordering::Relaxed);
    }

    /// Snapshot of one call class.
    pub fn stats(&self, call: MpiCall) -> MpiCallStats {
        let c = &self.counters[call.index()];
        MpiCallStats {
            calls: c.calls.load(Ordering::Relaxed),
            bytes: c.bytes.load(Ordering::Relaxed),
            time_nanos: c.nanos.load(Ordering::Relaxed),
        }
    }

    /// Emits one `mpi_comm` point per active call class, tagged with the
    /// rank (the "arbitrary tags … such as a thread identifier" pattern).
    pub fn report(&self, um: &UserMetric) {
        let rank_tag = self.rank.to_string();
        let size_tag = self.size.to_string();
        for call in [
            MpiCall::Send,
            MpiCall::Recv,
            MpiCall::AllToAll,
            MpiCall::Reduce,
            MpiCall::Broadcast,
            MpiCall::Barrier,
            MpiCall::Wait,
        ] {
            let s = self.stats(call);
            if s.calls == 0 {
                continue;
            }
            um.metric_with_tags(
                "mpi_comm_calls",
                s.calls as f64,
                &[("rank", &rank_tag), ("ranks", &size_tag), ("call", call.name())],
            );
            um.metric_with_tags(
                "mpi_comm_bytes",
                s.bytes as f64,
                &[("rank", &rank_tag), ("ranks", &size_tag), ("call", call.name())],
            );
            um.metric_with_tags(
                "mpi_comm_seconds",
                s.time_nanos as f64 / 1e9,
                &[("rank", &rank_tag), ("ranks", &size_tag), ("call", call.name())],
            );
        }
    }
}

/// Per-thread accumulator of one parallel region (OMPT analog).
#[derive(Debug, Default, Clone)]
struct RegionState {
    /// Per-thread busy time within the current/last region, nanos.
    thread_nanos: Vec<u64>,
    regions: u64,
    total_nanos: u64,
}

/// OpenMP-style parallel-region profiler.
#[derive(Default)]
pub struct OmpProfiler {
    state: Mutex<RegionState>,
}

impl OmpProfiler {
    /// A fresh profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed parallel region: per-thread busy durations
    /// (the wrapper measures each worker's fork→join time).
    pub fn record_region(&self, per_thread: &[Duration]) {
        let mut s = self.state.lock();
        s.regions += 1;
        if s.thread_nanos.len() < per_thread.len() {
            s.thread_nanos.resize(per_thread.len(), 0);
        }
        let mut region_max = 0u64;
        for (slot, d) in s.thread_nanos.iter_mut().zip(per_thread) {
            let n = d.as_nanos().min(u64::MAX as u128) as u64;
            *slot += n;
            region_max = region_max.max(n);
        }
        s.total_nanos += region_max; // region wall time = slowest thread
    }

    /// Number of recorded regions.
    pub fn regions(&self) -> u64 {
        self.state.lock().regions
    }

    /// Load imbalance across threads: `(max − min) / max` of accumulated
    /// busy time, 0 when perfectly balanced or unmeasured.
    pub fn imbalance(&self) -> f64 {
        let s = self.state.lock();
        let (Some(&max), Some(&min)) =
            (s.thread_nanos.iter().max(), s.thread_nanos.iter().min())
        else {
            return 0.0;
        };
        if max == 0 {
            return 0.0;
        }
        (max - min) as f64 / max as f64
    }

    /// Emits `omp_parallel` metrics: region count, total parallel wall
    /// time, imbalance, per-thread busy seconds.
    pub fn report(&self, um: &UserMetric) {
        let s = self.state.lock();
        if s.regions == 0 {
            return;
        }
        um.metrics(
            "omp_parallel",
            &[
                ("regions", s.regions as f64),
                ("wall_seconds", s.total_nanos as f64 / 1e9),
                ("imbalance", {
                    let max = s.thread_nanos.iter().copied().max().unwrap_or(0);
                    let min = s.thread_nanos.iter().copied().min().unwrap_or(0);
                    if max == 0 { 0.0 } else { (max - min) as f64 / max as f64 }
                }),
            ],
        );
        for (tid, &nanos) in s.thread_nanos.iter().enumerate() {
            um.metric_with_tags(
                "omp_thread_busy_seconds",
                nanos as f64 / 1e9,
                &[("thread", &tid.to_string())],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::UserMetricConfig;
    use lms_util::{Clock, Timestamp};
    use std::sync::Arc;

    fn capture() -> (Arc<Mutex<Vec<String>>>, UserMetric) {
        let captured: Arc<Mutex<Vec<String>>> = Arc::default();
        let sink = captured.clone();
        let um = UserMetric::to_fn(
            UserMetricConfig::default(),
            Clock::simulated(Timestamp::from_secs(1)),
            move |b| sink.lock().push(b.to_string()),
        );
        (captured, um)
    }

    #[test]
    fn mpi_profiler_aggregates_per_class() {
        let p = MpiProfiler::new(3, 16);
        assert_eq!(p.rank(), 3);
        p.record(MpiCall::Send, 8192, Duration::from_micros(12));
        p.record(MpiCall::Send, 8192, Duration::from_micros(14));
        p.record(MpiCall::Reduce, 64, Duration::from_micros(150));
        let s = p.stats(MpiCall::Send);
        assert_eq!(s.calls, 2);
        assert_eq!(s.bytes, 16_384);
        assert_eq!(s.time_nanos, 26_000);
        assert_eq!(p.stats(MpiCall::Barrier), MpiCallStats::default());
        assert_eq!(p.stats(MpiCall::Reduce).time_nanos, 150_000);
    }

    #[test]
    fn mpi_report_emits_tagged_points() {
        let (captured, um) = capture();
        let p = MpiProfiler::new(0, 4);
        p.record(MpiCall::AllToAll, 1 << 20, Duration::from_millis(3));
        p.report(&um);
        um.flush();
        let body = captured.lock().join("");
        assert!(body.contains("mpi_comm_calls,call=alltoall,rank=0,ranks=4 value=1"), "{body}");
        assert!(body.contains("mpi_comm_bytes,call=alltoall,rank=0,ranks=4 value=1048576"));
        assert!(body.contains("mpi_comm_seconds,call=alltoall,rank=0,ranks=4 value=0.003"));
        // Untouched classes are not reported.
        assert!(!body.contains("call=barrier"));
    }

    #[test]
    fn mpi_profiler_is_thread_safe() {
        let p = Arc::new(MpiProfiler::new(0, 2));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let p = p.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        p.record(MpiCall::Recv, 100, Duration::from_nanos(50));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(p.stats(MpiCall::Recv).calls, 4000);
        assert_eq!(p.stats(MpiCall::Recv).bytes, 400_000);
    }

    #[test]
    #[should_panic(expected = "rank 5 of 4")]
    fn mpi_rejects_bad_rank() {
        MpiProfiler::new(5, 4);
    }

    #[test]
    fn omp_profiler_tracks_imbalance() {
        let p = OmpProfiler::new();
        assert_eq!(p.imbalance(), 0.0);
        // Balanced region.
        p.record_region(&[Duration::from_millis(10); 4]);
        assert_eq!(p.imbalance(), 0.0);
        // Imbalanced region: thread 0 does double work.
        p.record_region(&[
            Duration::from_millis(20),
            Duration::from_millis(10),
            Duration::from_millis(10),
            Duration::from_millis(10),
        ]);
        assert_eq!(p.regions(), 2);
        // Thread 0: 30ms, others 20ms → (30-20)/30 = 1/3.
        assert!((p.imbalance() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn omp_report_emits_region_and_thread_metrics() {
        let (captured, um) = capture();
        let p = OmpProfiler::new();
        p.record_region(&[Duration::from_millis(8), Duration::from_millis(10)]);
        p.report(&um);
        um.flush();
        let body = captured.lock().join("");
        assert!(body.contains("omp_parallel regions=1,wall_seconds=0.01,imbalance=0.2"), "{body}");
        assert!(body.contains("omp_thread_busy_seconds,thread=0 value=0.008"));
        assert!(body.contains("omp_thread_busy_seconds,thread=1 value=0.01"));
    }

    #[test]
    fn omp_empty_report_is_silent() {
        let (captured, um) = capture();
        OmpProfiler::new().report(&um);
        um.flush();
        assert!(captured.lock().is_empty());
    }
}
