//! Tiny deterministic random number generation.
//!
//! The counter simulator and workload models need cheap, seedable,
//! reproducible noise in many inner loops. The `rand` crate is available and
//! used where distributions matter (e.g. miniMD initial velocities), but a
//! dependency-free xorshift keeps the hot simulator paths allocation- and
//! indirection-free and gives bit-for-bit reproducible traces across
//! platforms.

/// The chaos seed for this process, from `LMS_CHAOS_SEED` (default 1).
///
/// Every chaos/overload/recovery test derives its fault schedules, kill
/// points, and workload noise from this one value, so a CI matrix failure
/// reproduces locally with `LMS_CHAOS_SEED=<seed> cargo test ...`. An
/// unparsable value falls back to the default rather than panicking, so a
/// stray environment variable cannot mask a test run.
pub fn chaos_seed() -> u64 {
    std::env::var("LMS_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(1)
}

/// xorshift64* generator seeded via SplitMix64.
///
/// Not cryptographically secure — strictly for simulation noise.
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a generator from a seed. Any seed (including 0) is valid:
    /// seeds are pre-mixed with SplitMix64 so a zero seed does not produce
    /// the degenerate all-zero xorshift orbit.
    pub fn new(seed: u64) -> Self {
        // SplitMix64 step to spread low-entropy seeds.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        XorShift64 { state: z | 1 } // ensure non-zero
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 top bits -> [0,1) with full double precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)`. `n` must be non-zero.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Multiply-shift rejection-free mapping (slight bias below 2^-32,
        // irrelevant for simulation noise).
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Standard-normal sample via Box–Muller (one value per call; the
    /// second is discarded to keep the generator state trivially clonable).
    pub fn normal(&mut self) -> f64 {
        let u1 = self.next_f64().max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Multiplicative jitter: `value * (1 ± rel)` uniformly.
    #[inline]
    pub fn jitter(&mut self, value: f64, rel: f64) -> f64 {
        value * (1.0 + self.range_f64(-rel, rel))
    }

    /// Full-jitter exponential backoff (AWS architecture-blog flavour):
    /// uniform in `[0, min(cap, base * 2^attempt))`. A retrying worker
    /// pool that backs off in lockstep hammers the recovering server in
    /// synchronized waves; sampling the whole interval decorrelates the
    /// workers. `attempt` is 0-based (first retry = attempt 0).
    pub fn backoff(&mut self, base: std::time::Duration, cap: std::time::Duration, attempt: u32) -> std::time::Duration {
        let ceil = base.saturating_mul(1u32 << attempt.min(16)).min(cap);
        std::time::Duration::from_nanos(self.below((ceil.as_nanos() as u64).max(1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = XorShift64::new(1);
        let mut b = XorShift64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn zero_seed_is_not_degenerate() {
        let mut r = XorShift64::new(0);
        let first = r.next_u64();
        assert_ne!(first, 0);
        assert_ne!(first, r.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = XorShift64::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = XorShift64::new(9);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = r.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn normal_has_sane_moments() {
        let mut r = XorShift64::new(1234);
        let n = 200_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..n {
            let x = r.normal();
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn jitter_bounds() {
        let mut r = XorShift64::new(5);
        for _ in 0..1000 {
            let v = r.jitter(100.0, 0.1);
            assert!((90.0..110.0).contains(&v));
        }
    }

    #[test]
    fn backoff_stays_in_exponential_envelope() {
        use std::time::Duration;
        let base = Duration::from_millis(50);
        let cap = Duration::from_secs(2);
        let mut r = XorShift64::new(11);
        for attempt in 0..10 {
            let ceiling = base.saturating_mul(1 << attempt).min(cap);
            for _ in 0..200 {
                let d = r.backoff(base, cap, attempt);
                assert!(d < ceiling, "attempt {attempt}: {d:?} >= {ceiling:?}");
            }
        }
        // Huge attempt counts must not overflow and must respect the cap.
        assert!(r.backoff(base, cap, u32::MAX) < cap);
    }

    #[test]
    fn backoff_decorrelates_two_workers() {
        use std::time::Duration;
        let mut a = XorShift64::new(1);
        let mut b = XorShift64::new(2);
        let base = Duration::from_millis(50);
        let cap = Duration::from_secs(2);
        let same = (0..20)
            .filter(|&i| a.backoff(base, cap, i % 5) == b.backoff(base, cap, i % 5))
            .count();
        assert!(same < 3, "differently seeded workers should not back off in lockstep");
    }
}
