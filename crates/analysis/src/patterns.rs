//! The performance-pattern decision tree.
//!
//! "For marking applications with significant optimization potential we use
//! the performance pattern systematic initially described in \[17\] and later
//! refined as part of the FEPA project using a decision tree \[8\]."
//!
//! A job's HPM-derived signature (fractions of peak, IPC, vectorization,
//! stalls, imbalance) walks an explicit decision tree to one of the
//! patterns of Treibig/Hager/Wellein's performance-pattern systematic,
//! each carrying a recommendation for the user-support teams the paper
//! targets.

/// The HPM-derived signature of one job (node-aggregated means).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfSignature {
    /// Achieved DP FLOP/s as a fraction of node peak, `0..=1`.
    pub flops_frac: f64,
    /// Memory bandwidth as a fraction of node peak, `0..=1`.
    pub membw_frac: f64,
    /// Instructions per cycle (per core).
    pub ipc: f64,
    /// Fraction of FP µops that were packed (vectorized), `0..=1`.
    pub vectorization: f64,
    /// Branch misprediction ratio (mispredicted / all branches).
    pub branch_misp_ratio: f64,
    /// Fraction of cycles stalled, `0..=1`.
    pub stall_frac: f64,
    /// Load imbalance across the job's nodes: `(max − min) / mean` of
    /// per-node busy fractions.
    pub imbalance: f64,
    /// Mean CPU busy fraction across the job, `0..=1`.
    pub cpu_busy: f64,
}

/// The classified performance pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Node mostly idle — scheduling/configuration problem, not a code one.
    Idle,
    /// Severe imbalance between nodes (e.g. unreasonable strong scaling).
    LoadImbalance,
    /// Memory bandwidth saturated: the code is at the roofline's slanted
    /// part; data-locality work needed, more cores won't help.
    BandwidthSaturation,
    /// High stall fraction at low bandwidth: latency-bound access pattern
    /// (pointer chasing, strided/irregular access).
    MemoryLatencyBound,
    /// Scalar FP code: vectorization potential.
    ScalarCode,
    /// Branchy code with high misprediction.
    BranchLimited,
    /// High IPC but low FP fraction: instruction overhead (abstraction
    /// penalty, excessive scalar integer work).
    InstructionOverhead,
    /// Near-peak FLOP/s: compute-bound and healthy.
    ComputeBoundHealthy,
    /// Nothing stands out; moderate utilization everywhere.
    Unremarkable,
}

impl Pattern {
    /// A one-line recommendation for user support.
    pub fn recommendation(self) -> &'static str {
        match self {
            Pattern::Idle => "job is idle: check input staging, deadlock or license waits",
            Pattern::LoadImbalance => {
                "severe node imbalance: reduce node count or rebalance decomposition"
            }
            Pattern::BandwidthSaturation => {
                "memory bandwidth saturated: improve data locality / blocking; more cores will not help"
            }
            Pattern::MemoryLatencyBound => {
                "latency-bound memory access: restructure data layout, prefetch, avoid pointer chasing"
            }
            Pattern::ScalarCode => "scalar FP code: enable/verify SIMD vectorization",
            Pattern::BranchLimited => "branch mispredictions dominate: simplify control flow",
            Pattern::InstructionOverhead => {
                "instruction overhead: reduce abstraction penalty in hot loops"
            }
            Pattern::ComputeBoundHealthy => "compute-bound near peak: well optimized",
            Pattern::Unremarkable => "no dominant pattern: profile in depth",
        }
    }
}

/// Tunable thresholds of the tree (defaults follow the FEPA-style rules of
/// thumb for the simulated node).
#[derive(Debug, Clone, Copy)]
pub struct TreeThresholds {
    /// Below this busy fraction the job counts as idle.
    pub idle_busy: f64,
    /// Above this imbalance the job is imbalance-dominated.
    pub imbalance: f64,
    /// Bandwidth fraction counting as saturated.
    pub membw_saturated: f64,
    /// FLOP fraction counting as near peak.
    pub flops_high: f64,
    /// Stall fraction counting as latency-dominated.
    pub stall_high: f64,
    /// Vectorization ratio below which FP code counts as scalar.
    pub vector_low: f64,
    /// Branch misprediction ratio counting as branch-limited.
    pub branch_misp_high: f64,
    /// IPC above which non-FP work counts as instruction overhead.
    pub ipc_high: f64,
    /// FLOP fraction below which FP work is "insignificant".
    pub flops_low: f64,
}

impl Default for TreeThresholds {
    fn default() -> Self {
        TreeThresholds {
            idle_busy: 0.10,
            imbalance: 0.50,
            membw_saturated: 0.80,
            flops_high: 0.50,
            stall_high: 0.50,
            vector_low: 0.50,
            branch_misp_high: 0.05,
            ipc_high: 1.5,
            flops_low: 0.05,
        }
    }
}

/// Walks the decision tree with default thresholds.
pub fn classify(sig: &PerfSignature) -> Pattern {
    classify_with(sig, &TreeThresholds::default())
}

/// Walks the decision tree with explicit thresholds.
///
/// Order matters and mirrors the FEPA refinement: disqualifying system
/// conditions first (idle, imbalance), then the roofline split (bandwidth
/// vs compute), then µarchitectural patterns.
pub fn classify_with(sig: &PerfSignature, t: &TreeThresholds) -> Pattern {
    if sig.cpu_busy < t.idle_busy {
        return Pattern::Idle;
    }
    if sig.imbalance > t.imbalance {
        return Pattern::LoadImbalance;
    }
    if sig.membw_frac > t.membw_saturated {
        return Pattern::BandwidthSaturation;
    }
    if sig.flops_frac > t.flops_high {
        return Pattern::ComputeBoundHealthy;
    }
    if sig.stall_frac > t.stall_high {
        return Pattern::MemoryLatencyBound;
    }
    if sig.flops_frac > t.flops_low && sig.vectorization < t.vector_low {
        return Pattern::ScalarCode;
    }
    if sig.branch_misp_ratio > t.branch_misp_high {
        return Pattern::BranchLimited;
    }
    if sig.ipc > t.ipc_high && sig.flops_frac < t.flops_low {
        return Pattern::InstructionOverhead;
    }
    Pattern::Unremarkable
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> PerfSignature {
        PerfSignature {
            flops_frac: 0.2,
            membw_frac: 0.3,
            ipc: 1.0,
            vectorization: 0.9,
            branch_misp_ratio: 0.01,
            stall_frac: 0.2,
            imbalance: 0.1,
            cpu_busy: 0.95,
        }
    }

    #[test]
    fn idle_wins_over_everything() {
        let sig = PerfSignature { cpu_busy: 0.02, membw_frac: 0.95, ..base() };
        assert_eq!(classify(&sig), Pattern::Idle);
    }

    #[test]
    fn imbalance_before_roofline() {
        let sig = PerfSignature { imbalance: 0.8, flops_frac: 0.9, ..base() };
        assert_eq!(classify(&sig), Pattern::LoadImbalance);
    }

    #[test]
    fn bandwidth_saturation() {
        let sig = PerfSignature { membw_frac: 0.9, ..base() };
        assert_eq!(classify(&sig), Pattern::BandwidthSaturation);
        assert!(classify(&sig).recommendation().contains("bandwidth"));
    }

    #[test]
    fn compute_bound_healthy() {
        let sig = PerfSignature { flops_frac: 0.7, ..base() };
        assert_eq!(classify(&sig), Pattern::ComputeBoundHealthy);
    }

    #[test]
    fn latency_bound() {
        let sig = PerfSignature { stall_frac: 0.7, membw_frac: 0.2, ..base() };
        assert_eq!(classify(&sig), Pattern::MemoryLatencyBound);
    }

    #[test]
    fn scalar_code() {
        let sig = PerfSignature { vectorization: 0.1, flops_frac: 0.2, ..base() };
        assert_eq!(classify(&sig), Pattern::ScalarCode);
    }

    #[test]
    fn branch_limited() {
        let sig = PerfSignature { branch_misp_ratio: 0.12, flops_frac: 0.01, ..base() };
        assert_eq!(classify(&sig), Pattern::BranchLimited);
    }

    #[test]
    fn instruction_overhead() {
        let sig = PerfSignature {
            ipc: 2.5,
            flops_frac: 0.01,
            branch_misp_ratio: 0.001,
            ..base()
        };
        assert_eq!(classify(&sig), Pattern::InstructionOverhead);
    }

    #[test]
    fn unremarkable_fallthrough() {
        assert_eq!(classify(&base()), Pattern::Unremarkable);
    }

    #[test]
    fn custom_thresholds_shift_boundaries() {
        let t = TreeThresholds { flops_high: 0.15, ..Default::default() };
        assert_eq!(classify_with(&base(), &t), Pattern::ComputeBoundHealthy);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The tree is total: every signature classifies, and every
            /// leaf has a recommendation.
            #[test]
            fn total_over_signature_space(
                flops in 0.0..1.0f64, membw in 0.0..1.0f64, ipc in 0.0..4.0f64,
                vec_ratio in 0.0..1.0f64, misp in 0.0..0.5f64, stall in 0.0..1.0f64,
                imb in 0.0..3.0f64, busy in 0.0..1.0f64,
            ) {
                let sig = PerfSignature {
                    flops_frac: flops, membw_frac: membw, ipc,
                    vectorization: vec_ratio, branch_misp_ratio: misp,
                    stall_frac: stall, imbalance: imb, cpu_busy: busy,
                };
                let p = classify(&sig);
                prop_assert!(!p.recommendation().is_empty());
                // Idle dominates: if busy is tiny the answer must be Idle.
                if busy < 0.10 {
                    prop_assert_eq!(p, Pattern::Idle);
                }
            }
        }
    }
}
