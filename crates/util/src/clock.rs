//! Pluggable time sources.
//!
//! Every LMS component that needs "now" takes a [`Clock`] handle instead of
//! calling [`std::time::SystemTime::now`] directly. Production deployments use
//! [`Clock::system`]; simulations and tests use [`Clock::simulated`], which
//! starts at an arbitrary epoch and only moves when explicitly advanced. This
//! is what lets the Fig. 4 reproduction ("FP rate and memory bandwidth below
//! thresholds for more than 10 minutes") run in milliseconds of wall time.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Nanoseconds since the Unix epoch.
///
/// The InfluxDB line protocol transmits timestamps as signed 64-bit
/// nanosecond counts; we use the same representation end to end so no
/// conversion can lose precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub i64);

impl Timestamp {
    /// The Unix epoch itself.
    pub const EPOCH: Timestamp = Timestamp(0);

    /// Builds a timestamp from whole seconds since the epoch.
    pub fn from_secs(secs: i64) -> Self {
        Timestamp(secs.saturating_mul(1_000_000_000))
    }

    /// Builds a timestamp from milliseconds since the epoch.
    pub fn from_millis(ms: i64) -> Self {
        Timestamp(ms.saturating_mul(1_000_000))
    }

    /// Nanoseconds since the epoch.
    #[inline]
    pub fn nanos(self) -> i64 {
        self.0
    }

    /// Whole seconds since the epoch (truncating).
    #[inline]
    pub fn secs(self) -> i64 {
        self.0.div_euclid(1_000_000_000)
    }

    /// `self + d`, saturating at the numeric limits (unlike `ops::Add`,
    /// which a `Duration` operand cannot express losslessly anyway).
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, d: Duration) -> Self {
        Timestamp(self.0.saturating_add(d.as_nanos().min(i64::MAX as u128) as i64))
    }

    /// `self - d`, saturating at the numeric limits.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, d: Duration) -> Self {
        Timestamp(self.0.saturating_sub(d.as_nanos().min(i64::MAX as u128) as i64))
    }

    /// Signed distance `self - other` in nanoseconds.
    pub fn delta_nanos(self, other: Timestamp) -> i64 {
        self.0.saturating_sub(other.0)
    }

    /// `self - other` as a [`Duration`], or zero if `other` is later.
    pub fn since(self, other: Timestamp) -> Duration {
        Duration::from_nanos(self.delta_nanos(other).max(0) as u64)
    }
}

impl std::fmt::Display for Timestamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // RFC3339-lite rendering (UTC, no leap-second handling) sufficient
        // for logs and dashboards.
        let secs = self.secs();
        let sub_ms = (self.0.rem_euclid(1_000_000_000)) / 1_000_000;
        let (y, mo, d, h, mi, s) = civil_from_unix(secs);
        write!(f, "{y:04}-{mo:02}-{d:02}T{h:02}:{mi:02}:{s:02}.{sub_ms:03}Z")
    }
}

/// Converts Unix seconds to a civil (year, month, day, hour, min, sec) tuple.
///
/// Algorithm from Howard Hinnant's `civil_from_days`.
fn civil_from_unix(secs: i64) -> (i64, u32, u32, u32, u32, u32) {
    let days = secs.div_euclid(86_400);
    let rem = secs.rem_euclid(86_400);
    let (h, mi, s) = (rem / 3600, (rem % 3600) / 60, rem % 60);
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    let y = if m <= 2 { y + 1 } else { y };
    (y, m, d, h as u32, mi as u32, s as u32)
}

enum Source {
    System,
    Simulated(AtomicI64),
}

/// A cloneable handle to a time source.
///
/// Cloning is cheap (an [`Arc`] bump); clones of a simulated clock share the
/// same underlying instant, so advancing one advances all.
#[derive(Clone)]
pub struct Clock {
    source: Arc<Source>,
}

impl std::fmt::Debug for Clock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &*self.source {
            Source::System => write!(f, "Clock::system"),
            Source::Simulated(ns) => {
                write!(f, "Clock::simulated({})", Timestamp(ns.load(Ordering::Relaxed)))
            }
        }
    }
}

impl Clock {
    /// The real system clock.
    pub fn system() -> Self {
        Clock { source: Arc::new(Source::System) }
    }

    /// A simulated clock starting at `start`.
    pub fn simulated(start: Timestamp) -> Self {
        Clock { source: Arc::new(Source::Simulated(AtomicI64::new(start.0))) }
    }

    /// Current time according to this clock.
    pub fn now(&self) -> Timestamp {
        match &*self.source {
            Source::System => {
                let d = SystemTime::now().duration_since(UNIX_EPOCH).unwrap_or_default();
                Timestamp(d.as_nanos().min(i64::MAX as u128) as i64)
            }
            Source::Simulated(ns) => Timestamp(ns.load(Ordering::Acquire)),
        }
    }

    /// Advances a simulated clock by `d` and returns the new time.
    ///
    /// # Panics
    /// Panics when called on the system clock: real time cannot be advanced,
    /// and silently ignoring the call would make simulations hang.
    pub fn advance(&self, d: Duration) -> Timestamp {
        match &*self.source {
            Source::System => panic!("Clock::advance called on the system clock"),
            Source::Simulated(ns) => {
                let add = d.as_nanos().min(i64::MAX as u128) as i64;
                Timestamp(ns.fetch_add(add, Ordering::AcqRel) + add)
            }
        }
    }

    /// Sets a simulated clock to an absolute time.
    ///
    /// # Panics
    /// Panics on the system clock, and when attempting to move a simulated
    /// clock backwards (monotonicity is relied upon by the DB write path).
    pub fn set(&self, t: Timestamp) {
        match &*self.source {
            Source::System => panic!("Clock::set called on the system clock"),
            Source::Simulated(ns) => {
                let prev = ns.swap(t.0, Ordering::AcqRel);
                assert!(prev <= t.0, "simulated clock moved backwards: {prev} -> {}", t.0);
            }
        }
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::system()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_conversions_round_trip() {
        let t = Timestamp::from_secs(1_500_000_000);
        assert_eq!(t.secs(), 1_500_000_000);
        assert_eq!(Timestamp::from_millis(1_500_000_000_000), t);
    }

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp::from_secs(100);
        let later = t.add(Duration::from_millis(2500));
        assert_eq!(later, Timestamp::from_millis(102_500));
        assert_eq!(later.since(t), Duration::from_millis(2500));
        assert_eq!(t.since(later), Duration::ZERO);
        assert_eq!(later.sub(Duration::from_millis(2500)), t);
    }

    #[test]
    fn negative_timestamps_truncate_toward_minus_infinity() {
        let t = Timestamp(-1); // 1ns before the epoch
        assert_eq!(t.secs(), -1);
    }

    #[test]
    fn system_clock_progresses() {
        let c = Clock::system();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn simulated_clock_is_shared_across_clones() {
        let c = Clock::simulated(Timestamp::from_secs(1000));
        let c2 = c.clone();
        c.advance(Duration::from_secs(60));
        assert_eq!(c2.now(), Timestamp::from_secs(1060));
        c2.set(Timestamp::from_secs(2000));
        assert_eq!(c.now(), Timestamp::from_secs(2000));
    }

    #[test]
    #[should_panic(expected = "moved backwards")]
    fn simulated_clock_rejects_backwards_set() {
        let c = Clock::simulated(Timestamp::from_secs(1000));
        c.set(Timestamp::from_secs(999));
    }

    #[test]
    #[should_panic(expected = "advance called on the system clock")]
    fn system_clock_rejects_advance() {
        Clock::system().advance(Duration::from_secs(1));
    }

    #[test]
    fn display_renders_rfc3339() {
        // 2017-08-04T00:00:00Z == 1501804800 (the paper's arXiv date).
        let t = Timestamp::from_secs(1_501_804_800);
        assert_eq!(t.to_string(), "2017-08-04T00:00:00.000Z");
        let t2 = t.add(Duration::from_millis(42));
        assert_eq!(t2.to_string(), "2017-08-04T00:00:00.042Z");
    }

    #[test]
    fn display_handles_leap_years() {
        // 2016-02-29T12:00:00Z == 1456747200
        let t = Timestamp::from_secs(1_456_747_200);
        assert_eq!(t.to_string(), "2016-02-29T12:00:00.000Z");
    }
}
