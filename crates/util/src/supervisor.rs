//! Supervised background workers: panic capture, jittered restart backoff,
//! and a restart-budget circuit.
//!
//! Every long-lived background thread in the stack (storage flush/compact
//! worker, spool drainer, forwarder workers, publisher) runs under a
//! [`Supervisor`]. The supervisor wraps the worker body in
//! `std::panic::catch_unwind`; a panicking worker is restarted after a
//! full-jitter exponential backoff instead of dying silently. Each worker
//! carries a restart budget — once it is exhausted (the worker keeps
//! panicking faster than [`SupervisorConfig::reset_after`]), the supervisor
//! gives up and marks the worker [`WorkerHealth::Failed`], which surfaces
//! through [`Supervisor::is_ready`] and the `/health/ready` endpoints.
//!
//! The design mirrors the delivery path's circuit breaker: transient
//! faults are absorbed (restart with backoff = retry), persistent faults
//! trip the budget (open = give up and report unhealthy) rather than
//! looping forever.

use crate::error::{Error, Result};
use crate::rng::XorShift64;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poison-tolerant lock: supervision must keep working even if a thread
/// panicked while holding one of these mutexes.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Restart policy for supervised workers.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// How many restarts a worker gets before the supervisor gives up and
    /// marks it [`WorkerHealth::Failed`]. The budget refills after a run
    /// that survives [`SupervisorConfig::reset_after`].
    pub max_restarts: u32,
    /// First restart delay; doubles per consecutive panic (full jitter).
    pub backoff_base: Duration,
    /// Upper bound on the restart delay.
    pub backoff_cap: Duration,
    /// A run that lasts at least this long is considered healthy again:
    /// the consecutive-panic counter resets, refilling the budget.
    pub reset_after: Duration,
    /// Seed for the jittered backoff; deterministic for tests.
    pub seed: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_restarts: 5,
            backoff_base: Duration::from_millis(20),
            backoff_cap: Duration::from_secs(2),
            reset_after: Duration::from_secs(30),
            seed: 0x50be_eed5,
        }
    }
}

/// Lifecycle state of one supervised worker, exported as a health gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerHealth {
    /// The worker body is running.
    Healthy,
    /// The worker panicked and is waiting out its restart backoff.
    Restarting,
    /// The restart budget is exhausted; the supervisor gave up. The
    /// component should report not-ready.
    Failed,
    /// The worker returned cleanly (normal shutdown).
    Stopped,
}

impl WorkerHealth {
    /// Stable lower-case label for `/stats` and `/health` payloads.
    pub fn as_str(&self) -> &'static str {
        match self {
            WorkerHealth::Healthy => "healthy",
            WorkerHealth::Restarting => "restarting",
            WorkerHealth::Failed => "failed",
            WorkerHealth::Stopped => "stopped",
        }
    }
}

/// Point-in-time snapshot of one worker, for health endpoints and tests.
#[derive(Debug, Clone)]
pub struct WorkerReport {
    /// Worker name as passed to [`Supervisor::spawn`].
    pub name: String,
    /// Current lifecycle state.
    pub health: WorkerHealth,
    /// Total restarts over the worker's lifetime (not just the current
    /// budget window).
    pub restarts: u64,
    /// Message of the most recent captured panic, if any.
    pub last_panic: Option<String>,
}

/// Handle passed to the worker body; the body must poll
/// [`WorkerCtx::should_stop`] (or use [`WorkerCtx::sleep`]) so shutdown and
/// restart cancellation stay prompt.
pub struct WorkerCtx {
    stop: Arc<Stop>,
}

impl WorkerCtx {
    /// True once the supervisor is shutting down; the body should return.
    pub fn should_stop(&self) -> bool {
        self.stop.is_set()
    }

    /// Sleeps up to `total`, returning early (false) when shutdown is
    /// requested.
    pub fn sleep(&self, total: Duration) -> bool {
        self.stop.sleep(total)
    }
}

/// The stop flag a supervisor's workers share. Setting it wakes every
/// sleeper at once, so a sleep is one wake-up however long it is, and an
/// idle worker costs nothing between its own ticks.
#[derive(Default)]
struct Stop {
    stopped: Mutex<bool>,
    wake: Condvar,
}

impl Stop {
    fn is_set(&self) -> bool {
        *lock(&self.stopped)
    }

    fn set(&self) {
        *lock(&self.stopped) = true;
        self.wake.notify_all();
    }

    /// Sleeps up to `total`; false when the flag is (or becomes) set.
    fn sleep(&self, total: Duration) -> bool {
        let deadline = Instant::now() + total;
        let mut stopped = lock(&self.stopped);
        while !*stopped {
            let now = Instant::now();
            if now >= deadline {
                return true;
            }
            let waited = self.wake.wait_timeout(stopped, deadline - now);
            stopped = waited.unwrap_or_else(|e| e.into_inner()).0;
        }
        false
    }
}

/// Linux keeps the first 15 bytes of a thread's name (`comm`): what
/// `top -H` and `/proc/<pid>/task/<tid>/comm` show.
const COMM_LEN: usize = 15;

/// The OS thread name of the worker `name`: `lms-<name>` cut to
/// [`COMM_LEN`] bytes, so what tells workers apart survives the kernel's
/// truncation (`lms-storage`, `lms-forwarder-0`, `lms-spool-drain`). When
/// the cut collides with a name in `taken`, the tail gives way to a
/// counter instead.
fn thread_name(name: &str, taken: &[Arc<WorkerSlot>]) -> String {
    let cut = |s: &str, len: usize| {
        let mut end = s.len().min(len);
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        s[..end].to_string()
    };
    let full = format!("lms-{name}");
    let mut candidate = cut(&full, COMM_LEN);
    let mut n = 0;
    while taken.iter().any(|slot| slot.thread_name == candidate) {
        n += 1;
        let suffix = format!("~{n}");
        candidate = cut(&full, COMM_LEN - suffix.len()) + &suffix;
    }
    candidate
}

struct WorkerSlot {
    name: String,
    thread_name: String,
    // Encoded WorkerHealth (discriminant as usize) for lock-free reads.
    health: AtomicUsize,
    restarts: AtomicU64,
    last_panic: Mutex<Option<String>>,
}

impl WorkerSlot {
    fn set_health(&self, h: WorkerHealth) {
        self.health.store(h as usize, Ordering::Release);
    }

    fn get_health(&self) -> WorkerHealth {
        match self.health.load(Ordering::Acquire) {
            0 => WorkerHealth::Healthy,
            1 => WorkerHealth::Restarting,
            2 => WorkerHealth::Failed,
            _ => WorkerHealth::Stopped,
        }
    }
}

struct Inner {
    config: SupervisorConfig,
    stop: Arc<Stop>,
    workers: Mutex<Vec<Arc<WorkerSlot>>>,
    monitors: Mutex<Vec<JoinHandle<()>>>,
    next_seed: AtomicU64,
}

/// Supervises a set of named background workers. Cheap to clone; all
/// clones share the same worker set and stop flag.
#[derive(Clone)]
pub struct Supervisor {
    inner: Arc<Inner>,
}

impl Supervisor {
    /// Creates an empty supervisor with the given restart policy.
    pub fn new(config: SupervisorConfig) -> Self {
        let seed = config.seed;
        Supervisor {
            inner: Arc::new(Inner {
                config,
                stop: Arc::default(),
                workers: Mutex::new(Vec::new()),
                monitors: Mutex::new(Vec::new()),
                next_seed: AtomicU64::new(seed),
            }),
        }
    }

    /// Spawns a supervised worker. `body` is invoked repeatedly: a clean
    /// return means shutdown ([`WorkerHealth::Stopped`]); a panic is
    /// captured and the body is re-invoked after a jittered backoff until
    /// the restart budget runs out ([`WorkerHealth::Failed`]).
    pub fn spawn<F>(&self, name: &str, mut body: F) -> Result<()>
    where
        F: FnMut(&WorkerCtx) + Send + 'static,
    {
        if self.inner.stop.is_set() {
            return Err(Error::invalid("supervisor is shut down"));
        }
        let slot = {
            let mut workers = lock(&self.inner.workers);
            let slot = Arc::new(WorkerSlot {
                name: name.to_string(),
                thread_name: thread_name(name, &workers),
                health: AtomicUsize::new(WorkerHealth::Healthy as usize),
                restarts: AtomicU64::new(0),
                last_panic: Mutex::new(None),
            });
            workers.push(slot.clone());
            slot
        };

        let config = self.inner.config.clone();
        let stop = self.inner.stop.clone();
        // Distinct deterministic seed per worker so backoff schedules do
        // not march in lockstep.
        let seed = self.inner.next_seed.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
        let monitor = std::thread::Builder::new()
            .name(slot.thread_name.clone())
            .spawn(move || monitor_loop(slot, config, stop, seed, &mut body))
            .map_err(Error::from)?;
        lock(&self.inner.monitors).push(monitor);
        Ok(())
    }

    /// Snapshot of every worker's health, restart count, and last panic.
    pub fn reports(&self) -> Vec<WorkerReport> {
        lock(&self.inner.workers)
            .iter()
            .map(|slot| WorkerReport {
                name: slot.name.clone(),
                health: slot.get_health(),
                restarts: slot.restarts.load(Ordering::Relaxed),
                last_panic: lock(&slot.last_panic).clone(),
            })
            .collect()
    }

    /// Health of a single worker by name, if it exists.
    pub fn health_of(&self, name: &str) -> Option<WorkerHealth> {
        lock(&self.inner.workers).iter().find(|s| s.name == name).map(|s| s.get_health())
    }

    /// Readiness: every worker is either running or cleanly stopped. A
    /// worker mid-restart (or permanently failed) makes the component
    /// not-ready, which is exactly what `/health/ready` reports.
    pub fn is_ready(&self) -> bool {
        lock(&self.inner.workers)
            .iter()
            .all(|s| matches!(s.get_health(), WorkerHealth::Healthy | WorkerHealth::Stopped))
    }

    /// Total restarts across all workers (a monotone gauge for `/stats`).
    pub fn total_restarts(&self) -> u64 {
        lock(&self.inner.workers).iter().map(|s| s.restarts.load(Ordering::Relaxed)).sum()
    }

    /// Requests shutdown and joins every monitor (and therefore worker)
    /// thread. Idempotent; clones of this supervisor see the stop flag
    /// immediately.
    pub fn shutdown(&self) {
        self.inner.stop.set();
        let monitors: Vec<JoinHandle<()>> = std::mem::take(&mut *lock(&self.inner.monitors));
        for m in monitors {
            let _ = m.join();
        }
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        self.stop.set();
        for m in std::mem::take(&mut *lock(&self.monitors)) {
            let _ = m.join();
        }
    }
}

/// Extracts a human-readable message from a captured panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic (non-string payload)".to_string()
    }
}

fn monitor_loop<F>(
    slot: Arc<WorkerSlot>,
    config: SupervisorConfig,
    stop: Arc<Stop>,
    seed: u64,
    body: &mut F,
) where
    F: FnMut(&WorkerCtx) + Send,
{
    let mut rng = XorShift64::new(seed);
    let mut consecutive: u32 = 0;
    let ctx = WorkerCtx { stop: stop.clone() };
    loop {
        slot.set_health(WorkerHealth::Healthy);
        let started = Instant::now();
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| body(&ctx)));
        match outcome {
            Ok(()) => {
                // Clean return: the worker decided to stop (normally in
                // response to the stop flag).
                slot.set_health(WorkerHealth::Stopped);
                return;
            }
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                *lock(&slot.last_panic) = Some(msg);
                slot.restarts.fetch_add(1, Ordering::Relaxed);
                if stop.is_set() {
                    // Shutting down anyway; don't bother restarting.
                    slot.set_health(WorkerHealth::Stopped);
                    return;
                }
                // A long healthy run refills the restart budget.
                if started.elapsed() >= config.reset_after {
                    consecutive = 0;
                }
                consecutive += 1;
                if consecutive > config.max_restarts {
                    slot.set_health(WorkerHealth::Failed);
                    return;
                }
                slot.set_health(WorkerHealth::Restarting);
                let delay = rng.backoff(config.backoff_base, config.backoff_cap, consecutive - 1);
                if !stop.sleep(delay) {
                    slot.set_health(WorkerHealth::Stopped);
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn quick_config() -> SupervisorConfig {
        SupervisorConfig {
            max_restarts: 3,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(20),
            reset_after: Duration::from_secs(30),
            seed: 42,
        }
    }

    fn wait_until(pred: impl Fn() -> bool, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if pred() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        pred()
    }

    #[test]
    fn clean_return_is_stopped() {
        let sup = Supervisor::new(quick_config());
        sup.spawn("oneshot", |_ctx| {}).unwrap();
        assert!(wait_until(
            || sup.health_of("oneshot") == Some(WorkerHealth::Stopped),
            Duration::from_secs(2),
        ));
        assert!(sup.is_ready());
        assert_eq!(sup.total_restarts(), 0);
        sup.shutdown();
    }

    #[test]
    fn panic_restarts_then_budget_opens() {
        let sup = Supervisor::new(quick_config());
        let runs = Arc::new(AtomicU32::new(0));
        let runs2 = runs.clone();
        sup.spawn("crashy", move |_ctx| {
            runs2.fetch_add(1, Ordering::SeqCst);
            panic!("boom");
        })
        .unwrap();
        // max_restarts=3 → 4 total runs (initial + 3 restarts) then Failed.
        assert!(wait_until(
            || sup.health_of("crashy") == Some(WorkerHealth::Failed),
            Duration::from_secs(5),
        ));
        assert_eq!(runs.load(Ordering::SeqCst), 4);
        let report = &sup.reports()[0];
        assert_eq!(report.restarts, 4);
        assert_eq!(report.last_panic.as_deref(), Some("boom"));
        assert!(!sup.is_ready());
        sup.shutdown();
    }

    #[test]
    fn recovers_after_limited_panics() {
        let sup = Supervisor::new(quick_config());
        let runs = Arc::new(AtomicU32::new(0));
        let runs2 = runs.clone();
        sup.spawn("flaky", move |ctx| {
            let n = runs2.fetch_add(1, Ordering::SeqCst);
            if n < 2 {
                panic!("flake {n}");
            }
            // Healthy after two panics: wait for shutdown.
            while !ctx.should_stop() {
                std::thread::sleep(Duration::from_millis(5));
            }
        })
        .unwrap();
        assert!(wait_until(
            || sup.health_of("flaky") == Some(WorkerHealth::Healthy)
                && runs.load(Ordering::SeqCst) == 3,
            Duration::from_secs(5),
        ));
        assert!(sup.is_ready());
        assert_eq!(sup.reports()[0].restarts, 2);
        sup.shutdown();
        assert_eq!(sup.health_of("flaky"), Some(WorkerHealth::Stopped));
    }

    #[test]
    fn shutdown_cancels_backoff() {
        let mut cfg = quick_config();
        cfg.backoff_base = Duration::from_secs(10);
        cfg.backoff_cap = Duration::from_secs(10);
        let sup = Supervisor::new(cfg);
        sup.spawn("slowpoke", |_ctx| panic!("x")).unwrap();
        assert!(wait_until(
            || sup.health_of("slowpoke") == Some(WorkerHealth::Restarting),
            Duration::from_secs(2),
        ));
        let start = Instant::now();
        sup.shutdown();
        assert!(start.elapsed() < Duration::from_secs(5), "shutdown must not wait out backoff");
        assert_eq!(sup.health_of("slowpoke"), Some(WorkerHealth::Stopped));
    }

    #[test]
    fn shutdown_wakes_a_sleeping_worker() {
        let sup = Supervisor::new(quick_config());
        let rounds = Arc::new(AtomicU32::new(0));
        let rounds2 = rounds.clone();
        sup.spawn("sleeper", move |ctx| {
            while !ctx.should_stop() {
                rounds2.fetch_add(1, Ordering::SeqCst);
                ctx.sleep(Duration::from_secs(60));
            }
        })
        .unwrap();
        assert!(wait_until(|| rounds.load(Ordering::SeqCst) == 1, Duration::from_secs(2)));
        let start = Instant::now();
        sup.shutdown();
        assert!(start.elapsed() < Duration::from_secs(5), "shutdown must not wait out a sleep");
        assert_eq!(rounds.load(Ordering::SeqCst), 1);
        assert_eq!(sup.health_of("sleeper"), Some(WorkerHealth::Stopped));
    }

    #[test]
    fn thread_names_survive_comm_truncation_and_stay_distinct() {
        let sup = Supervisor::new(quick_config());
        let (tx, rx) = std::sync::mpsc::channel();
        let mut names = vec!["storage".to_string(), "spool-drainer".to_string()];
        names.extend((0..12).map(|i| format!("forwarder-{i}")));
        names.push("spool-drainer-b".to_string()); // collides once cut
        for name in &names {
            let tx = tx.clone();
            sup.spawn(name, move |_ctx| {
                let _ = tx.send(std::thread::current().name().map(str::to_string));
            })
            .unwrap();
        }
        let seen: Vec<String> =
            names.iter().map(|_| rx.recv().unwrap().expect("workers are named")).collect();
        for expected in ["lms-storage", "lms-spool-drain", "lms-forwarder-0", "lms-forwarder-9"] {
            assert!(seen.iter().any(|n| n == expected), "{expected} missing from {seen:?}");
        }
        assert!(seen.iter().all(|n| n.len() <= COMM_LEN), "{seen:?}");
        let distinct: std::collections::HashSet<&String> = seen.iter().collect();
        assert_eq!(distinct.len(), names.len(), "{seen:?}");
        // Reports keep the name `spawn` was given.
        assert!(sup.health_of("spool-drainer").is_some());
        sup.shutdown();
    }

    #[test]
    fn spawn_after_shutdown_fails() {
        let sup = Supervisor::new(quick_config());
        sup.shutdown();
        assert!(sup.spawn("late", |_ctx| {}).is_err());
    }
}
